"""End-to-end learning: targets, losses, generators, training, checkpoints."""
import numpy as np
import pytest

from beamweaver import autodiff as ad
from beamweaver import channel as ch
from beamweaver import codebook as cb
from beamweaver import nbl
from beamweaver.autodiff import Tape
from beamweaver.errors import DivergenceError, FormatError, ShapeError

from conftest import assert_grads_match

FULL = (-1.01, 1.01)


def _geo():
    return ch.ArrayGeometry(n_x=4, n_y=4, dual_polarized=True)


def _config(**over):
    base = dict(c_cells=1, k_subcarriers=2, n_rx=2, cluster_count=2,
                rays_per_cluster=3, user_count_range=(2, 3), geometry=_geo())
    base.update(over)
    return ch.ScenarioConfig(**base)


def _dims(**over):
    base = dict(l_max=8, n_cb=4, n_csi=2, b_g=2, b_phase=None,
                elevation_window=FULL)
    base.update(over)
    return nbl.NblDims(**base)


def _dataset(cfg, dims, n_samples=1, seed=11, sigma2=None):
    prior = [cb.build_dft_ssb(cfg.geometry, dims.l_max, dims.elevation_window)
             for _ in range(cfg.c_cells)]
    if sigma2 is None:
        h = ch.generate_channels(cfg, seed=seed).values
        sigma2 = float(np.mean(np.abs(h) ** 2))
    return nbl.build_dataset(cfg, prior, n_samples, seed, sigma2), sigma2


# ------------------------------- targets ---------------------------------

def test_targets_diagonal_channel():
    h = np.zeros((1, 1, 1, 1, 2, 2), complex)
    h[0, 0, 0, 0] = np.diag([1.0, 2.0])
    got = nbl.compute_targets(h, np.array([0]), sigma2=1.0)
    assert got[0] == pytest.approx(np.log2(5.0) + np.log2(2.0))


def test_targets_zero_channel():
    h = np.zeros((2, 3, 1, 2, 2, 4), complex)
    np.testing.assert_array_equal(
        nbl.compute_targets(h, np.zeros(3, int), 0.5), np.zeros(3))


def test_targets_rank_one_single_term():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    h = np.outer(u, np.conj(v)).reshape(1, 1, 1, 1, 3, 4)
    s2 = np.linalg.norm(u) ** 2 * np.linalg.norm(v) ** 2
    got = nbl.compute_targets(h, np.array([0]), sigma2=0.25)
    assert got[0] == pytest.approx(np.log2(1.0 + s2 / 0.25))


def test_targets_use_serving_cell():
    h = np.zeros((2, 1, 1, 1, 1, 1), complex)
    h[0, 0, 0, 0, 0, 0] = 1.0
    h[1, 0, 0, 0, 0, 0] = 3.0
    a = nbl.compute_targets(h, np.array([0]), 1.0)
    b = nbl.compute_targets(h, np.array([1]), 1.0)
    assert a[0] == pytest.approx(1.0) and b[0] == pytest.approx(np.log2(10.0))


# -------------------------------- losses ---------------------------------

def test_e2e_loss_value():
    pred = ad.constant(np.array([2.0, 4.0]))
    assert float(nbl.e2e_loss(np.array([1.0, 3.0]), pred).value.real) == pytest.approx(1.0)


def test_e2e_loss_zero_at_targets():
    pred = ad.constant(np.array([1.5, -2.0]))
    assert float(nbl.e2e_loss(np.array([1.5, -2.0]), pred).value.real) == 0.0


def test_e2e_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        nbl.e2e_loss(np.zeros(3), ad.constant(np.zeros(2)))


def test_e2e_loss_gradient_matches_fd():
    targets = np.array([0.5, -1.0, 2.0])

    def loss_fn(z):
        return nbl.e2e_loss(targets, ad.real(z))

    rng = np.random.default_rng(1)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert_grads_match(loss_fn, [z])


def test_ssb_alignment_loss_value():
    best = ad.constant(np.array([1.0, 3.0]))
    got = float(nbl.ssb_alignment_loss(best, sigma2=1.0).value.real)
    assert got == pytest.approx(-(np.log2(2.0) + np.log2(4.0)) / 2.0)


def test_load_balance_loss_zero_when_uniform():
    c_cells, l_max, n_users = 3, 4, 5
    rsrp = np.zeros((c_cells, l_max, n_users))
    rsrp[:, 0, :] = 1.0  # every cell sees every user equally strongly
    got = float(nbl.load_balance_loss(ad.constant(rsrp)).value.real)
    assert got == pytest.approx(0.0, abs=1e-15)


def test_load_balance_loss_one_cell_captures_all():
    c_cells, l_max, n_users = 3, 4, 5
    rsrp = np.full((c_cells, l_max, n_users), 1e-12)
    rsrp[1, 2, :] = 1.0  # cell 1 dominates every user
    got = float(nbl.load_balance_loss(ad.constant(rsrp)).value.real)
    want = (1.0 - 1.0 / 3) ** 2 + 2 * (1.0 / 3) ** 2
    assert got == pytest.approx(want, rel=1e-6)


def test_load_balance_loss_gradient_matches_fd():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))

    def loss_fn(p):
        return nbl.load_balance_loss(ad.abs2(p))

    assert_grads_match(loss_fn, [x], rtol=1e-5)


# ----------------------------- forward model -----------------------------

def test_forward_pin_replays_selections():
    cfg = _config()
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims)
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    ssb_dt, csirs_dt = gen.generate(data[0].obsc)
    fw = nbl.forward_model(data[0].h, ssb_dt, csirs_dt, sigma2, dims.n_csi,
                           new_user_mask=data[0].new_user_mask)
    # perturb the parameters hard; the pinned run must keep the selections
    rng = np.random.default_rng(2)
    for p in tape.parameters.values():
        p.value = p.value + 0.5 * (rng.standard_normal(p.value.shape)
                                   + 1j * rng.standard_normal(p.value.shape))
    ssb2, csirs2 = gen.generate(data[0].obsc)
    fw2 = nbl.forward_model(data[0].h, ssb2, csirs2, sigma2, dims.n_csi,
                            pin=fw.pin)
    np.testing.assert_array_equal(fw2.pin.chosen, fw.pin.chosen)
    assert fw2.pin.subset_indices == fw.pin.subset_indices
    np.testing.assert_array_equal(fw2.pin.report.b, fw.pin.report.b)


def test_direct_generator_starts_at_dft():
    cfg = _config()
    dims = _dims()
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    ssb_dt, csirs_dt = gen.generate()
    want = cb.build_dft_ssb(cfg.geometry, dims.l_max, dims.elevation_window).beams
    np.testing.assert_allclose(ssb_dt[0].value, want, atol=1e-10)
    assert csirs_dt[0].shape == (dims.n_cb, cfg.geometry.n_elements, dims.b_g)


def test_neural_with_zero_head_matches_direct_dft():
    cfg = _config()
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims)
    t_dir, t_net = Tape(), Tape()
    direct = nbl.DirectGenerator(t_dir, cfg.c_cells, cfg.geometry, dims)
    net = nbl.NeuralGenerator(t_net, cfg.c_cells, dims, n_pol=2)
    net.t2.value = np.zeros_like(net.t2.value)  # output head off => delta 0
    net.c2.value = np.zeros_like(net.c2.value)
    l_dir, _ = nbl._total_loss(data[0], direct.generate, sigma2, dims.n_csi, 0.0)
    l_net, _ = nbl._total_loss(
        data[0], lambda o: net.generate_for(o, cfg.geometry), sigma2,
        dims.n_csi, 0.0)
    np.testing.assert_allclose(l_net.value, l_dir.value, rtol=1e-12)


def test_neural_generator_rejects_polarization_mismatch():
    dims = _dims()
    net = nbl.NeuralGenerator(Tape(), 1, dims, n_pol=2)
    geo = ch.ArrayGeometry(n_x=4, n_y=4, dual_polarized=False)
    pair = cb.make_transform_pair(geo)
    obsc = [np.zeros((dims.l_max, pair.n_xo + 1, pair.n_yo + 1), complex)]
    with pytest.raises(Exception):
        net.generate_for(obsc, geo)


# -------------------------------- dataset --------------------------------

def test_dataset_new_user_probability_extremes():
    cfg = _config()
    dims = _dims()
    prior = [cb.build_dft_ssb(cfg.geometry, dims.l_max, FULL)]
    none = nbl.build_dataset(cfg, prior, 3, seed=5, sigma2=1.0, new_user_prob=0.0)
    every = nbl.build_dataset(cfg, prior, 3, seed=5, sigma2=1.0, new_user_prob=1.0)
    assert not any(s.new_user_mask.any() for s in none)
    assert all(s.new_user_mask.all() for s in every)


def test_dataset_shapes_and_determinism():
    cfg = _config()
    dims = _dims()
    prior = [cb.build_dft_ssb(cfg.geometry, dims.l_max, FULL)]
    a = nbl.build_dataset(cfg, prior, 2, seed=9, sigma2=1.0)
    b = nbl.build_dataset(cfg, prior, 2, seed=9, sigma2=1.0)
    pair = cb.make_transform_pair(cfg.geometry)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.h, sb.h)
        assert np.array_equal(sa.targets, sb.targets)
        assert sa.obsc[0].shape == (dims.l_max * 2, pair.n_xo + 1, pair.n_yo + 1)
        assert np.all(np.isfinite(sa.targets)) and sa.targets.min() >= 0.0


# -------------------------------- training -------------------------------

def test_adam_first_step_is_lr_sized():
    tape = Tape()
    p = tape.parameter("w", np.array([1.0 + 0.0j]))
    p.grad = np.array([0.5 + 0.0j])
    opt = nbl.Adam(lr=0.01)
    opt.step(tape)
    assert p.value[0] == pytest.approx(1.0 - 0.01, abs=1e-6)


def test_train_same_seed_bitwise():
    cfg = _config()
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims, n_samples=2)
    results = []
    for _ in range(2):
        tape = Tape()
        gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
        curve = nbl.train(data, gen.generate, tape, sigma2, dims.n_csi,
                          epochs=2, lr=1e-3, seed=3)
        results.append((curve, {k: p.value.copy()
                                for k, p in tape.parameters.items()}))
    assert results[0][0] == results[1][0]
    for k in results[0][1]:
        assert np.array_equal(results[0][1][k], results[1][1][k])


def test_train_zero_lr_leaves_parameters_untouched():
    cfg = _config()
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims, n_samples=2)
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    before = {k: p.value.copy() for k, p in tape.parameters.items()}
    curve = nbl.train(data, gen.generate, tape, sigma2, dims.n_csi,
                      epochs=2, lr=0.0, seed=3)
    for k, p in tape.parameters.items():
        assert np.array_equal(p.value, before[k])
    assert curve[0] == pytest.approx(curve[-1])


def test_train_reduces_loss_on_toy_drop():
    cfg = _config(cluster_count=1, rays_per_cluster=1, user_count_range=(2, 2))
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims, n_samples=1, seed=21)
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    curve = nbl.train(data, gen.generate, tape, sigma2, dims.n_csi,
                      epochs=60, lr=5e-3, seed=4, ssb_weight=0.0)
    assert np.mean(curve[-5:]) < 0.9 * np.mean(curve[:5])


def test_disaggregated_step_updates_only_its_cell():
    cfg = _config(c_cells=3)
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims, n_samples=4)
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    before = {k: p.value.copy() for k, p in tape.parameters.items()}
    changed = []

    def record(step, loss):
        now = {k: p.value.copy() for k, p in tape.parameters.items()}
        changed.append({k for k in now if not np.array_equal(now[k], before[k])})
        before.update(now)

    nbl.train(data, gen.generate, tape, sigma2, dims.n_csi, epochs=2, lr=1e-3,
              batch_size=2, seed=3, ssb_weight=0.3, disaggregated_cells=3,
              val_fraction=0.0, callback=record)
    assert len(changed) == 4
    for step, names in enumerate(changed):
        cell = step % 3
        assert names and names <= {f"ssb{cell}", f"csirs{cell}"}, (step, names)


def test_train_raises_on_nonfinite_loss():
    cfg = _config()
    dims = _dims()
    data, sigma2 = _dataset(cfg, dims, n_samples=1)
    data[0].targets = data[0].targets * np.nan
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    with pytest.raises(DivergenceError):
        nbl.train(data, gen.generate, tape, sigma2, dims.n_csi, epochs=1, lr=1e-3)


def test_train_empty_dataset():
    tape = Tape()
    with pytest.raises(Exception):
        nbl.train([], lambda o: ([], []), tape, 1.0, 2, epochs=1)


# ------------------------------ checkpoints ------------------------------

def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    tape = Tape()
    a = tape.parameter("a", rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    b = tape.parameter("b", rng.standard_normal(4) + 0j)
    opt = nbl.Adam(lr=1e-3)
    opt.m["a"] = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    opt.v["a"] = rng.random((2, 3))
    opt.step_count = 17
    meta = {"kind": "direct", "cells": 3}
    path = tmp_path / "ck.bmck"
    nbl.save_checkpoint(path, tape, opt, meta)
    tape2, opt2, meta2 = nbl.load_checkpoint(path)
    assert meta2 == meta and opt2.step_count == 17
    assert np.array_equal(tape2.parameters["a"].value, a.value)
    assert np.array_equal(tape2.parameters["b"].value, b.value)
    assert np.array_equal(opt2.m["a"], opt.m["a"])
    assert np.array_equal(opt2.v["a"], opt.v["a"])
    assert "b" not in opt2.m


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bmck"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError):
        nbl.load_checkpoint(path)


def test_checkpoint_truncated_anywhere_raises_format_error(tmp_path):
    rng = np.random.default_rng(7)
    tape = Tape()
    tape.parameter("a", rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    opt = nbl.Adam(lr=1e-3)
    opt.m["a"] = rng.standard_normal((2, 3)) + 0j
    opt.v["a"] = rng.random((2, 3))
    path = tmp_path / "ck.bmck"
    nbl.save_checkpoint(path, tape, opt, {"kind": "direct"})
    data = path.read_bytes()
    cut_path = tmp_path / "cut.bmck"
    for cut in range(len(data)):
        cut_path.write_bytes(data[:cut])
        with pytest.raises(FormatError):
            nbl.load_checkpoint(cut_path)


def test_checkpoint_corrupt_metadata_raises_format_error(tmp_path):
    path = tmp_path / "ck.bmck"
    nbl.save_checkpoint(path, Tape(), meta={"kind": "direct"})
    data = bytearray(path.read_bytes())
    data[12] = 0xFF  # first metadata byte: no longer UTF-8 JSON
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        nbl.load_checkpoint(path)


def test_checkpoint_restores_direct_generator(tmp_path):
    cfg = _config()
    dims = _dims()
    tape = Tape()
    gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, dims)
    path = tmp_path / "gen.bmck"
    nbl.save_checkpoint(path, tape)
    tape2, _, _ = nbl.load_checkpoint(path)
    gen2 = nbl.DirectGenerator.from_tape(tape2, cfg.c_cells, cfg.geometry, dims)
    s1, c1 = gen.generate()
    s2, c2 = gen2.generate()
    np.testing.assert_array_equal(s1[0].value, s2[0].value)
    np.testing.assert_array_equal(c1[0].value, c2[0].value)
