"""Acceptance gate: end-to-end correctness and learned-codebook gains.

Eleven criteria: finite-difference validation of the autodiff engine and the
full training loss, analytic SINR and beamspace identities, beam-alignment
optimality on a rank-1 channel, desk-scale Monte-Carlo gains of learned
codebooks over the DFT baseline (RSRP, ESSE, interference), RZF limits,
scheduler quality, geometry generalization of the neural generator, and CLI
determinism across worker counts.
"""
import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

import test_autodiff
import test_link
from beamweaver import autodiff as ad
from beamweaver import beam_mgmt as bm
from beamweaver import channel as ch
from beamweaver import cli
from beamweaver import codebook as cb
from beamweaver import link
from beamweaver import metrics as mx
from beamweaver import nbl
from beamweaver.autodiff import Tape

from conftest import assert_grads_match

FULL = (-1.01, 1.01)


# ================= criterion 1: autodiff finite differences ==============

@pytest.mark.parametrize("op_name", [
    "add", "sub", "mul", "div", "scale", "matmul", "conj", "abs2", "real",
    "log2_1p", "relu", "reshape", "swapaxes",
    "sum_axis", "mean_axis", "concat", "take", "select_cells", "unit_modulus",
    "hermitian_inverse", "lmmse_sinr", "conv2d", "conv2d_transpose", "crop2d",
])
def test_c1_every_op_matches_finite_differences(op_name):
    test_autodiff.test_fd_every_op(op_name)


def test_c1_end_to_end_loss_matches_finite_differences():
    t0 = time.time()
    geo = ch.ArrayGeometry(n_x=2, n_y=2, dual_polarized=True)  # 8 elements
    dims = nbl.NblDims(l_max=4, n_cb=4, n_csi=2, b_g=2, b_phase=None,
                       elevation_window=FULL)
    cfg = ch.ScenarioConfig(c_cells=2, k_subcarriers=2, n_rx=2,
                            cluster_count=2, rays_per_cluster=3,
                            user_count_range=(3, 3), geometry=geo)
    h = np.asarray(ch.generate_channels(cfg, seed=8).values, np.complex128)
    sigma2 = float(np.mean(np.abs(h) ** 2))
    pair = cb.make_transform_pair(geo)
    targets = nbl.compute_targets(h, np.zeros(3, int), sigma2)

    tape = Tape()
    gen = nbl.DirectGenerator(tape, 2, geo, dims)
    params = ([p.value.copy() for p in gen.ssb_params]
              + [p.value.copy() for p in gen.csirs_params])

    def books(s0, s1, c0, c1):
        ssb_dt = [nbl._inverse_project(s, pair, geo, None) for s in (s0, s1)]
        csirs_dt = []
        for c in (c0, c1):
            cols = nbl._inverse_project(c, pair, geo, None)
            stack = ad.reshape(cols, (dims.n_cb, dims.b_g, geo.n_elements))
            csirs_dt.append(ad.swapaxes(stack, 1, 2))
        return ssb_dt, csirs_dt

    # selections decided once, at the unperturbed codebooks, and held fixed
    ssb, csirs = ([t.value for t in dts] for dts in books(*params))
    pin = bm.decide(bm.rsrp_tensor(h, ssb), h, ssb, csirs, sigma2, dims.n_csi)

    def loss_fn(*values):
        fw = nbl.forward_model(h, *books(*values), sigma2, pin)
        loss = nbl.e2e_loss(targets, fw.pred)
        return ad.add(loss, ad.scale(nbl.ssb_alignment_loss(fw.best_rsrp,
                                                            sigma2), 0.3))

    assert_grads_match(loss_fn, params, rtol=1e-4)
    assert time.time() - t0 < 60.0


# ==================== criterion 2: LMMSE SINR identity ===================

def test_c2_sinr_identity_1000_instances():
    # autodiff.lmmse_sinr against the explicit per-stream inverse
    # v^H (sigma2 I + B B^H)^-1 v and the identity q / (1 - q) with
    # q = v^H R^-1 v; 0 to n + 2 interferers, so both branches of the
    # lmmse_sinr kernel (M < N and M >= N) are covered
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(0, n + 3))  # interferer count
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        s = int(rng.integers(0, k + 1))  # the desired stream's column
        x = np.insert(b, s, v, axis=1)
        got = float(ad.lmmse_sinr(x, np.array([s]), 0.1).value.real[0])
        r_in = b @ np.conj(b.T) + 0.1 * np.eye(n)
        rhs = float(np.real(np.conj(v) @ np.linalg.inv(r_in) @ v))
        q = float(np.real(np.conj(v) @ np.linalg.inv(r_in + np.outer(v, np.conj(v))) @ v))
        worst = max(worst, abs(got - rhs) / rhs, abs(q / (1.0 - q) - rhs) / rhs)
    assert worst < 1e-8


# =================== criterion 3: beamspace round-trip ===================

def test_c3_round_trip_and_one_hot():
    geo = ch.ArrayGeometry(n_x=4, n_y=4, dual_polarized=True)
    pair = cb.make_transform_pair(geo)  # critical sampling
    rng = np.random.default_rng(3)
    beams = rng.standard_normal((8, 32)) + 1j * rng.standard_normal((8, 32))
    img = cb.beamspace_forward(beams, pair, geo)
    back = cb.beamspace_inverse(img[:, :4, :4], pair, geo).value
    assert np.linalg.norm(back - beams) / np.linalg.norm(beams) < 1e-8

    book = cb.build_dft_ssb(geo, l_max=8, elevation_window=FULL)
    interiors = cb.beamspace_forward(book, pair, geo)[:, :4, :4]
    for interior in interiors:
        mags = np.sort(np.abs(interior).reshape(-1))
        assert mags[-1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)
        assert mags[-2] < 1e-10


# ================= criterion 4: beam-alignment optimality ================

def _align_gap_db(b_phase, steps=500, lr=2e-2):
    geo = ch.ArrayGeometry(n_x=4, n_y=4, dual_polarized=True)
    nt = geo.n_elements
    rng = np.random.default_rng(42)
    # rank-1 constant-modulus channel: the matched-filter RSRP bound
    # ||h||^2 / (K * NT) is attainable by a unit-modulus beam
    h = (0.7 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, nt))).reshape(1, 1, 1, 1, 1, nt)
    bound = float(np.sum(np.abs(h) ** 2)) / nt  # K = 1
    sigma2 = 1e-3 * float(np.sum(np.abs(h) ** 2))
    dims = nbl.NblDims(l_max=4, n_cb=4, n_csi=2, b_g=2, b_phase=b_phase,
                       elevation_window=FULL)
    tape = Tape()
    gen = nbl.DirectGenerator(tape, 1, geo, dims)
    opt = nbl.Adam(lr=lr)
    best = 0.0
    for _ in range(steps):
        tape.zero_grad()
        ssb_dt, _ = gen.generate()
        # the serving beam from the plain sweep, its RSRP differentiated, as
        # in training
        rsrp = bm.rsrp_tensor(h, [s.value for s in ssb_dt])  # (C, L, U)
        serving = np.argmax(rsrp, axis=1)  # (C, U)
        loss = nbl.ssb_alignment_loss(
            ad.reshape(bm.beam_rsrp(h, bm.gather_per_user(ssb_dt, serving)), (1,)),
            sigma2)
        ad.backward(loss)
        opt.step(tape)
        best = max(best, float(rsrp.max()))
    return -10.0 * np.log10(best / bound)


def test_c4_alignment_reaches_matched_filter_bound():
    t0 = time.time()
    assert _align_gap_db(b_phase=None) < 0.5
    assert _align_gap_db(b_phase=4) < 1.0
    assert time.time() - t0 < 300.0


# ============== criteria 5-7: desk-scale learned-codebook gains ==========

_DESK_DROPS = 500


def _desk_config():
    return ch.ScenarioConfig(
        c_cells=3, k_subcarriers=16, n_rx=2, user_count_range=(4, 8),
        n_hotspots=3, hotspot_fraction=1.0, hotspot_sigma=5.0,
        angle_spread_deg=3.0, cluster_count=3,
        geometry=ch.ArrayGeometry(n_x=8, n_y=8, dual_polarized=True))


@pytest.fixture(scope="module")
def desk():
    """Train direct-mode codebooks once; evaluate 500 paired drops."""
    cfg = _desk_config()
    dims = nbl.NblDims(l_max=24)
    sigma2 = ch.noise_variance(cfg)
    prior = [cb.build_dft_ssb(cfg.geometry, dims.l_max, dims.elevation_window)
             for _ in range(cfg.c_cells)]
    dft_cs = [cb.build_dft_csirs(cfg.geometry, dims.n_cb, dims.b_g,
                                 elevation_window=dims.elevation_window)
              for _ in range(cfg.c_cells)]
    data = nbl.build_dataset(cfg, prior, 128, 100, sigma2, new_user_prob=0.2)
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    nbl.train(data, gen.generate, tape, sigma2, dims.n_csi, epochs=60,
              lr=5e-3, batch_size=4, seed=0, ssb_weight=1.0, val_fraction=0.1)
    ssb_dt, cs_dt = gen.generate()
    books = {"dft": (prior, dft_cs),
             "nbl": ([s.value for s in ssb_dt], [c.value for c in cs_dt])}
    seeds = [9001 * 1000003 + i for i in range(_DESK_DROPS)]

    settings = mx.EvalSettings()
    gains, ratios, in_pairs = [], [], []
    for s in seeds:
        tensor = ch.generate_channels(cfg, s)
        h = np.asarray(tensor.values, np.complex128)

        def best_rsrp(beams):
            return bm.rsrp_tensor(h, beams).max(axis=(0, 1))

        gains.append(10.0 * np.log10(best_rsrp(books["nbl"][0])
                                     / best_rsrp(books["dft"][0])))
        rows_dft = mx.evaluate_drop(cfg, settings, *books["dft"], dims.n_csi, s,
                                    tensor)
        rows_nbl = mx.evaluate_drop(cfg, settings, *books["nbl"], dims.n_csi, s,
                                    tensor)
        if rows_dft[0]["esse"] > 0:
            ratios.append(rows_nbl[0]["esse"] / rows_dft[0]["esse"])
        for a, b in zip(rows_dft, rows_nbl):
            if np.isfinite(a["int_noise_power"]) and np.isfinite(b["int_noise_power"]):
                in_pairs.append((a["int_noise_power"], b["int_noise_power"]))
    gains = np.concatenate(gains)
    return {"gains": gains, "ratios": np.array(ratios),
            "in_pairs": np.array(in_pairs)}


@pytest.mark.slow
def test_c5_rsrp_gain_over_dft(desk, record_property):
    gains = desk["gains"]
    for q in (10, 50, 90):
        record_property(f"rsrp_gain_db_p{q}", float(np.percentile(gains, q)))
    assert np.median(gains) >= 3.0
    assert np.mean(gains < 0.0) <= 0.05


@pytest.mark.slow
def test_c6_esse_improvement_over_dft(desk, record_property):
    ratios = desk["ratios"]
    for q in (10, 50, 90):
        record_property(f"esse_ratio_p{q}", float(np.percentile(ratios, q)))
    record_property("esse_ratio_share_ge_1", float(np.mean(ratios >= 1.0)))
    assert len(ratios) >= 0.95 * _DESK_DROPS
    assert np.median(ratios) >= 1.10
    assert np.mean(ratios >= 1.0) >= 0.80


@pytest.mark.slow
def test_c7_interference_noise_nonincrease(desk):
    pairs = desk["in_pairs"]
    diff = pairs[:, 1] - pairs[:, 0]  # learned minus DFT, per user
    assert pairs[:, 1].mean() <= pairs[:, 0].mean()
    rng = np.random.default_rng(0)
    boots = np.array([diff[rng.integers(0, len(diff), len(diff))].mean()
                      for _ in range(1000)])
    assert np.percentile(boots, 95) <= 0.0  # non-increase at 95% confidence


# ======================= criterion 8: RZF limits =========================

def test_c8_rzf_zero_forcing_and_matched_filter_limits():
    rng = np.random.default_rng(8)
    b_g = 4
    for _ in range(20):
        rows = rng.standard_normal((2, b_g)) + 1j * rng.standard_normal((2, b_g))
        blocks = np.broadcast_to(np.eye(b_g), (2, b_g, b_g))  # B_i^H B_u = I
        cols = link._rzf_columns(link._cross_channels(rows, blocks), sigma2=1e-12)
        for i in range(2):
            for v in range(2):
                if i != v:
                    leak = abs(rows[i] @ cols[v]) / abs(rows[i] @ cols[i])
                    assert 20.0 * np.log10(leak) < -40.0
        cols = link._rzf_columns(link._cross_channels(rows, blocks), sigma2=1e9)
        for i in range(2):
            mf = np.conj(rows[i]) / np.linalg.norm(rows[i])
            assert abs(np.vdot(mf, cols[i])) > 0.999


# ====================== criterion 9: scheduler sanity ====================

def test_c9_greedy_within_5pct_of_exhaustive():
    t0 = time.time()
    rng = np.random.default_rng(9)
    for _ in range(100):
        n_users = int(rng.integers(2, 7))
        n_t, b_g, n_csi, s_b = 8, 2, 4, 2
        subset = rng.standard_normal((n_csi, n_t, b_g)) + 1j * rng.standard_normal((n_csi, n_t, b_g))
        subset /= np.linalg.norm(subset, axis=1, keepdims=True)
        recon = rng.standard_normal((n_users, s_b, b_g)) + 1j * rng.standard_normal((n_users, s_b, b_g))
        recon /= np.linalg.norm(recon, axis=2, keepdims=True)
        gains = rng.uniform(0.5, 2.0, size=(n_users, s_b))
        chosen = rng.integers(0, n_csi, size=n_users)
        sigma2 = float(rng.uniform(0.05, 0.5))
        cand = list(range(n_users))
        # both schedulers maximize this estimate on the coherent profile
        recon_wb = link._wideband_profile(recon)
        gains_wb = gains.mean(axis=1)
        greedy = link.schedule_users(recon, gains, chosen, subset, cand, sigma2)
        best = test_link._reference_schedule_users_exhaustive(
            recon, gains, chosen, subset, cand, sigma2, link.DIGITAL_PORTS)
        se_g = test_link._estimated_sum_se(greedy, recon_wb, gains_wb, chosen,
                                           subset, sigma2)
        se_b = test_link._estimated_sum_se(best, recon_wb, gains_wb, chosen,
                                           subset, sigma2)
        assert se_g >= 0.95 * se_b
    assert time.time() - t0 < 300.0


# ============== criterion 10: neural geometry generalization =============

@pytest.mark.slow
def test_c10_neural_trained_4x4_beats_dft_at_8x8():
    t0 = time.time()

    def scene(nx):
        base = _desk_config()
        return dataclasses.replace(base, geometry=ch.ArrayGeometry(
            n_x=nx, n_y=nx, dual_polarized=True))

    dims = nbl.NblDims(l_max=16, n_cb=16, n_csi=8, b_g=2,
                       elevation_window=FULL)
    train_cfg, eval_cfg = scene(4), scene(8)
    sigma2 = ch.noise_variance(train_cfg)
    prior4 = [cb.build_dft_ssb(train_cfg.geometry, dims.l_max, FULL)
              for _ in range(3)]
    data = nbl.build_dataset(train_cfg, prior4, 96, 200, sigma2, new_user_prob=0.2)
    tape = Tape()
    gen = nbl.NeuralGenerator(tape, 3, dims, n_pol=2, seed=0)
    nbl.train(data, lambda o: gen.generate_for(o, train_cfg.geometry), tape,
              sigma2, dims.n_csi, epochs=20, lr=1e-3, batch_size=4, seed=0,
              ssb_weight=2.0, val_fraction=0.1)

    prior8 = [cb.build_dft_ssb(eval_cfg.geometry, dims.l_max, FULL)
              for _ in range(3)]
    dft_cs8 = [cb.build_dft_csirs(eval_cfg.geometry, dims.n_cb, dims.b_g,
                                  elevation_window=FULL) for _ in range(3)]
    dft8 = (prior8, dft_cs8)
    pair8 = cb.make_transform_pair(eval_cfg.geometry)
    settings = mx.EvalSettings()
    ratios = []
    for i in range(60):
        seed = 321 * 1000003 + i
        tensor = ch.generate_channels(eval_cfg, seed)
        obsc = nbl.feedback_images(np.asarray(tensor.values, np.complex128),
                                   prior8, eval_cfg.geometry, pair8, None)[0]
        ssb_dt, cs_dt = gen.generate_for(obsc, eval_cfg.geometry)
        rows_dft = mx.evaluate_drop(eval_cfg, settings, *dft8, dims.n_csi, seed,
                                    tensor)
        rows_nbl = mx.evaluate_drop(eval_cfg, settings, [s.value for s in ssb_dt],
                                    [c.value for c in cs_dt], dims.n_csi, seed,
                                    tensor)
        if rows_dft[0]["esse"] > 0:
            ratios.append(rows_nbl[0]["esse"] / rows_dft[0]["esse"])
    assert np.median(ratios) > 1.0
    assert time.time() - t0 < 3600.0


# ================= criterion 11: CLI worker determinism ==================

def _cli_config_doc(**extra):
    doc = {
        "scenario": {
            "geometry": {"n_x": 4, "n_y": 4, "dual_polarized": True},
            "c_cells": 2, "k_subcarriers": 4, "n_rx": 2,
            "cluster_count": 2, "rays_per_cluster": 3,
            "user_count_range": [2, 4],
        },
        "codebook": {"l_max": 8, "n_cb": 4, "n_csi": 4, "b_g": 2, "l_csi": 2,
                     "elevation_window": [-1.01, 1.01]},
        "evaluation": {"s_b": 2, "k_ssb": 2, "t_period": 160},
        "training": {"samples": 3, "epochs": 1, "lr": 0.001, "batch_size": 2,
                     "ssb_weight": 0.3, "val_fraction": 0.0},
    }
    doc.update(extra)
    return doc


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_c11_cli_outputs_identical_across_worker_counts(tmp_path):
    runner = CliRunner()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_cli_config_doc()))

    # gen-channels: repeated invocation (no worker knob) is byte-stable
    hashes = []
    for name in ("g1.bmch", "g2.bmch"):
        res = runner.invoke(cli.main, ["gen-channels", "--config", str(cfg),
                                       "--seed", "5", "--out",
                                       str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        hashes.append(_sha(tmp_path / name))
    assert hashes[0] == hashes[1]

    # train: sequential, so it has no worker knob; repeated runs are
    # byte-stable and --workers is refused
    train_hashes = []
    for name in ("t1", "t2"):
        res = runner.invoke(cli.main, ["train", "--config", str(cfg),
                                       "--seed", "7", "--out",
                                       str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        train_hashes.append((_sha(tmp_path / name / "checkpoint.bmck"),
                             _sha(tmp_path / name / "loss.csv")))
    assert train_hashes[0] == train_hashes[1]
    res = runner.invoke(cli.main, ["train", "--config", str(cfg), "--seed", "7",
                                   "--out", str(tmp_path / "t3"),
                                   "--workers", "3"])
    assert res.exit_code == 2, res.output

    # evaluate: 1 vs 3 workers
    eval_hashes = []
    for workers, name in ((1, "e1"), (3, "e3")):
        res = runner.invoke(cli.main, ["evaluate", "--config", str(cfg),
                                       "--seed", "2", "--out",
                                       str(tmp_path / name), "--drops", "4",
                                       "--workers", str(workers)])
        assert res.exit_code == 0, res.output
        eval_hashes.append(_sha(tmp_path / name / "metrics.csv"))
    assert eval_hashes[0] == eval_hashes[1]

    # compare: repeated invocation is byte-stable
    cmp_hashes = []
    for name in ("s1.json", "s2.json"):
        res = runner.invoke(cli.main, ["compare",
                                       str(tmp_path / "e1" / "metrics.csv"),
                                       str(tmp_path / "e3" / "metrics.csv"),
                                       "--out", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        cmp_hashes.append(_sha(tmp_path / name))
    assert cmp_hashes[0] == cmp_hashes[1]
