"""Drop evaluation, metrics CSV round-trip, paired comparison."""
import copy
import dataclasses

import numpy as np
import pytest

from beamweaver import beam_mgmt as bm
from beamweaver import channel as ch
from beamweaver import cli
from beamweaver import codebook as cb
from beamweaver import link
from beamweaver import metrics as mx
from beamweaver import nbl
from beamweaver.errors import ConfigError, FormatError

FULL = (-1.01, 1.01)


def _config():
    return ch.ScenarioConfig(
        c_cells=2, k_subcarriers=4, n_rx=2, cluster_count=2, rays_per_cluster=3,
        user_count_range=(2, 3),
        geometry=ch.ArrayGeometry(n_x=4, n_y=4, dual_polarized=True))


N_CSI = 4


def _settings():
    return mx.EvalSettings(l_csi=2, s_b=2, k_ssb=2, t_period=160)


def _books(config):
    ssb = [cb.build_dft_ssb(config.geometry, 8, FULL) for _ in range(config.c_cells)]
    cs = [cb.build_dft_csirs(config.geometry, 4, 2, elevation_window=FULL)
          for _ in range(config.c_cells)]
    return ssb, cs


def _evaluate(config, settings, ssb_beams, precoders, n_csi, drop_seed):
    """evaluate_drop on the drop's channel, synthesized first."""
    return mx.evaluate_drop(config, settings, ssb_beams, precoders, n_csi, drop_seed,
                            ch.generate_channels(config, drop_seed))


def _rows(drop_seed=7):
    config = _config()
    return _evaluate(config, _settings(), *_books(config), N_CSI, drop_seed)


def test_evaluate_drop_row_invariants():
    rows = _rows()
    assert rows, "no users evaluated"
    esse = {r["esse"] for r in rows}
    assert len(esse) == 1 and esse.pop() >= 0.0
    for r in rows:
        assert set(r) == set(mx._FIELDS)
        assert np.isfinite(r["rsrp_dbm"]) and r["se"] >= 0.0
        assert r["scheduled"] in (0, 1)
        assert (r["data_rate"] > 0.0) == bool(r["scheduled"])
        assert 0.0 <= r["alloc_cell"] <= 1.0


def test_evaluate_drop_deterministic():
    assert _rows(3) == _rows(3)
    assert _rows(3) != _rows(4)


def test_metrics_csv_round_trip(tmp_path):
    rows = _rows()
    path = tmp_path / "m.csv"
    mx.write_metrics(path, rows)
    assert path.read_text().startswith(f"# schema={mx.CSV_SCHEMA}\n")
    back = mx.read_metrics(path)
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        for k in mx._FIELDS:
            assert a[k] == pytest.approx(b[k], rel=1e-12)


def test_metrics_csv_rejects_other_schema(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# schema=bmw-metrics-v999\ndrop,user\n")
    with pytest.raises(FormatError):
        mx.read_metrics(path)


def test_compare_self_is_neutral():
    rows = _rows()
    out = mx.compare_metrics(rows, rows)
    assert out["pairs"] == len(rows) and out["drops"] == 1
    assert out["rsrp_delta_db"]["median"] == 0.0
    assert out["rsrp_delta_db"]["regressed_fraction"] == 0.0
    assert out["esse"]["median_delta"] == 0.0
    assert out["esse"]["median_ratio"] == pytest.approx(1.0)
    assert out["esse"]["nonregressing_fraction"] == 1.0
    assert out["int_noise_mean_a"] == out["int_noise_mean_b"]


def test_compare_detects_constructed_gain():
    rows = _rows()
    better = copy.deepcopy(rows)
    for r in better:
        r["rsrp_dbm"] += 3.0
        r["esse"] *= 1.25
    out = mx.compare_metrics(rows, better)
    assert out["rsrp_delta_db"]["median"] == pytest.approx(3.0)
    assert out["rsrp_delta_db"]["cdf_percentiles"][0] == pytest.approx(3.0)
    assert out["esse"]["median_ratio"] == pytest.approx(1.25)
    assert out["esse"]["nonregressing_fraction"] == 1.0


def test_compare_mismatched_sets():
    rows = _rows()
    with pytest.raises(ConfigError):
        mx.compare_metrics(rows, rows[:-1])


def test_compare_allocations_sum_to_one():
    rows = _rows()
    out = mx.compare_metrics(rows, rows)
    assert sum(out["allocation_a"].values()) == pytest.approx(1.0)


# ------------- frozen per-cell reference of the serving-cell data plane -------------
# evaluate_drop as it was before the data plane ran once per user: every
# cell drew pilots for, estimated and PMI-quantized every user, then read only
# its own users' feedback.  The LS step multiplied by the pseudo-inverse of
# the identity pilot matrix, as estimate_channel did then.

def _frozen_evaluate_drop(config, settings, ssb_beams, precoders, n_csi,
                          drop_seed, tensor):
    sigma2 = ch.noise_variance(config)
    hv = np.asarray(tensor.values, dtype=np.complex128)
    c_cells, n_users, t_slots, k_sub = hv.shape[:4]
    rsrp = bm.measure_rsrp(hv, ssb_beams, sigma2, drop_seed)
    report = bm.aggregate_feedback(rsrp)
    sels = [bm.select_csirs_subset(ssb_beams[c], precoders[c], report, c, n_csi)
            for c in range(c_cells)]
    subsets = [precoders[c][sels[c].subset_indices] for c in range(c_cells)]
    se_val, chosen = bm.achievable_se(
        bm.csirs_sinr(hv, subsets, report.b, sigma2).sinr.value.real)
    users = np.arange(n_users)
    se_best = se_val[users, chosen]
    eff = bm.effective_sinr(np.maximum(se_best, 0.0))
    v = hv[report.b, users] @ np.stack(subsets)[report.b, chosen][:, None, None]
    sig_u = (np.abs(v) ** 2).sum(axis=(-1, -2)).mean(axis=(1, 2))
    snr_eq = np.exp2(se_best) - 1.0
    in_u = np.where(snr_eq > 0, sig_u / np.where(snr_eq > 0, snr_eq, 1.0), np.inf)
    pilot_rng = ch._stream(drop_seed, mx._PILOT_TAG, 0)
    sets = []
    for c in range(c_cells):
        y = hv[c, :, 0] @ subsets[c][chosen][:, None]  # (U, K, N_R, B_g)
        noise = np.sqrt(sigma2 / 2.0) * (pilot_rng.standard_normal(y.shape)
                                         + 1j * pilot_rng.standard_normal(y.shape))
        h_ls = (y + noise) @ np.linalg.pinv(np.eye(precoders[c].shape[2]))
        est = link.estimate_channel(h_ls, sigma2, settings.s_b)
        fb, recon = link.quantize_pmi(est, l_csi=settings.l_csi)
        cand = list(report.users_of_cell(c))
        sched = link.schedule_users(recon, fb.gains, chosen, subsets[c],
                                    cand, sigma2) if cand else []
        sets.append(link.build_precoders(recon, fb.gains, chosen,
                                         subsets[c], sched, sigma2,
                                         est.subband_of_k))
    alpha = link.data_fraction(len(ssb_beams[0]), n_csi, settings.k_ssb,
                               k_sub, settings.t_period)
    esse = link.transmit_and_score(hv, sets, sigma2, alpha=alpha)
    return [{
        "drop": int(drop_seed), "user": int(u), "cell": int(report.b[u]),
        "beam": int(report.m[u]),
        "rsrp_dbm": float(mx._to_dbm(np.array(report.p[u]))),
        "se": float(se_best[u]), "eff_sinr_db": float(eff[u]),
        "sig_power": float(sig_u[u]), "int_noise_power": float(in_u[u]),
        "scheduled": int(u in esse.per_user_rate),
        "data_rate": float(esse.per_user_rate.get(u, 0.0)),
        "esse": float(esse.esse),
        "alloc_cell": float(esse.allocation[report.b[u]]),
    } for u in users]


def _doc_setup(doc):
    """(config, settings, SSB beams, CSI-RS precoders, n_csi) as the CLI's DFT
    evaluation builds them."""
    config, dims = cli.scenario_from(doc), cli.dims_from(doc)
    ssb, cs = nbl.dft_codebooks(config.geometry, dims)
    return (config, cli.settings_from(doc), [ssb] * config.c_cells,
            [cs] * config.c_cells, dims.n_csi)


# the 2-cell, 2-slot, 8-subcarrier 4x4 scene with S_B = K: one RE per subband
_SMALL_DOC = {"scenario": {"c_cells": 2, "t_slots": 2, "k_subcarriers": 8,
                           "geometry": {"n_x": 4, "n_y": 4}},
              "codebook": {"l_max": 8, "n_cb": 8, "n_csi": 8},
              "evaluation": {"s_b": 8}}


@pytest.mark.parametrize("case", ["default", "small-2cell-T2-K8", "idle-cell"])
def test_serving_cell_data_plane_matches_frozen_per_cell_loop(case):
    if case == "default":
        setup, seeds = _doc_setup({}), range(3000, 3010)
    elif case == "small-2cell-T2-K8":
        setup, seeds = _doc_setup(_SMALL_DOC), range(3100, 3106)
    else:  # one user across two cells: the other cell serves no one
        config = dataclasses.replace(_config(), user_count_range=(1, 1))
        setup, seeds = (config, _settings(), *_books(config), N_CSI), range(3200, 3203)
    config = setup[0]
    for seed in seeds:
        tensor = ch.generate_channels(config, seed)
        rows = mx.evaluate_drop(*setup, seed, tensor)
        assert rows == _frozen_evaluate_drop(*setup, seed, tensor)
        if case == "idle-cell":
            assert len({r["cell"] for r in rows}) < config.c_cells


def test_data_plane_estimates_each_user_once_per_drop(monkeypatch):
    calls = []
    estimate, quantize = link.estimate_channel, link.quantize_pmi

    def count_estimate(y, *args, **kw):
        calls.append(("estimate", y.shape[0]))
        return estimate(y, *args, **kw)

    def count_pmi(est, **kw):
        calls.append(("pmi", est.h_est.shape[0]))
        return quantize(est, **kw)

    monkeypatch.setattr(link, "estimate_channel", count_estimate)
    monkeypatch.setattr(link, "quantize_pmi", count_pmi)
    for setup, seed in [(_doc_setup({}), 3000), (_doc_setup(_SMALL_DOC), 3100)]:
        calls.clear()
        n_users = len(_evaluate(*setup, seed))
        assert calls == [("estimate", n_users), ("pmi", n_users)]
