"""Drop evaluation, metrics CSV round-trip, paired comparison."""
import copy

import numpy as np
import pytest

from beamweaver import channel as ch
from beamweaver import codebook as cb
from beamweaver import metrics as mx
from beamweaver.errors import ConfigError, FormatError

FULL = (-1.01, 1.01)


def _config():
    return ch.ScenarioConfig(
        c_cells=2, k_subcarriers=4, n_rx=2, cluster_count=2, rays_per_cluster=3,
        user_count_range=(2, 3),
        geometry=ch.ArrayGeometry(n_x=4, n_y=4, dual_polarized=True))


def _settings():
    return mx.EvalSettings(n_csi=4, l_csi=2, s_b=2, k_ssb=2, t_period=160)


def _books(config):
    ssb = [cb.build_dft_ssb(config.geometry, 8, FULL) for _ in range(config.c_cells)]
    cs = [cb.build_dft_csirs(config.geometry, 4, 2, elevation_window=FULL)
          for _ in range(config.c_cells)]
    return ssb, cs


def _rows(drop_seed=7):
    config, settings = _config(), _settings()
    ssb, cs = _books(config)
    return mx.evaluate_drop(config, settings, ssb, cs, drop_seed)


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
