"""Smoke test of the benchmark harness at a tiny problem size.

    python3 -m pytest -q perfbench/tests

Runs each kind of workload for a fraction of a second, untraced and traced,
and checks that every metric named in BENCHMARK.json is emitted with its
unit, that the reference check passes against freshly written references,
and that tracing leaves the package unpatched afterwards.
"""
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from beamweaver import channel as ch, link, nbl  # noqa: E402


def _tiny_workloads():
    scene = ch.ScenarioConfig(
        c_cells=2, k_subcarriers=4, n_rx=2, cluster_count=2, rays_per_cluster=3,
        user_count_range=(2, 4),
        geometry=ch.ArrayGeometry(n_x=2, n_y=2, dual_polarized=True))
    doc = {
        "scenario": {"geometry": {"n_x": 2, "n_y": 2, "dual_polarized": True},
                     "c_cells": 2, "k_subcarriers": 4, "n_rx": 2,
                     "cluster_count": 2, "rays_per_cluster": 3,
                     "user_count_range": [2, 4]},
        "codebook": {"l_max": 4, "n_cb": 4, "n_csi": 2, "b_g": 2, "l_csi": 2,
                     "elevation_window": [-1.01, 1.01]},
        "evaluation": {"s_b": 2, "k_ssb": 2, "t_period": 160},
    }
    dims = nbl.NblDims(l_max=4, n_cb=4, n_csi=2, b_g=2, elevation_window=(-1.01, 1.01))
    return [
        wl.EvalWorkload("eval-tiny", "tiny", config_doc=doc, drops=6, ref_drops=2),
        wl.TrainWorkload("train-tiny", "tiny", scene, dims, "direct", lr=1e-2,
                         ssb_weight=1.0, samples=6, ref_samples=4, ref_epochs=2),
        wl.TrainWorkload("train-tiny-neural", "tiny",
                         replace(scene, geometry=ch.ArrayGeometry(n_x=4, n_y=4)),
                         dims, "neural",
                         lr=1e-3, ssb_weight=2.0, samples=6, ref_samples=4,
                         ref_epochs=1),
    ]


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "OUT", tmp_path / "out")
    monkeypatch.setattr(checks, "REF_DIR", tmp_path / "refs")
    (tmp_path / "out").mkdir()
    return tmp_path


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == wl.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == wl.PER_LAYER
    assert set(w["name"] for w in spec["workloads"]) == set(wl.workloads())


@pytest.mark.parametrize("index", [0, 1, 2])
def test_every_metric_emitted_with_a_unit(sandbox, index):
    w = _tiny_workloads()[index]
    checks.write_reference(w, wl.reference_output(w, wl.OUT), wl.OUT / "r.bmck")
    schedule_users = link.schedule_users

    plain = wl.run(w, seed=3, seconds=0.3, trace=False, src=ROOT / "src")
    assert plain["problems"] == []
    m = plain["measurement"]
    assert m.attempted >= 1 and m.failed == 0
    assert {k: u for k, (_, u, _) in plain["e2e"].items()} == wl.E2E
    for name, (value, unit, n) in plain["e2e"].items():
        assert value > 0 and n >= 1, name
    for name, (value, unit, n) in plain["wall"].items():
        assert value > 0 and n >= 1, name

    traced = wl.run(w, seed=3, seconds=0.3, trace=True, src=ROOT / "src")
    assert traced["problems"] == []  # includes: identical bytes traced and untraced
    layers = traced["layers"]
    for name, unit in wl.PER_LAYER.items():
        assert layers[name][1] == unit and layers[name][0] is not None, name
    assert 0.5 < layers["trace.coverage"][0] <= 1.0
    assert (traced["run_dir"] / "spans.npz").is_file()
    assert link.schedule_users is schedule_users  # tracer patches undone


def test_reference_check_catches_a_changed_output(sandbox):
    w = _tiny_workloads()[1]
    out = wl.reference_output(w, wl.OUT)
    checks.write_reference(w, out, wl.OUT / "r.bmck")
    assert checks.compare_reference(w, out, wl.OUT / "c.bmck") == []
    changed = replace(w, lr=w.lr * 1.01)
    problems = checks.compare_reference(w, wl.reference_output(changed, wl.OUT),
                                        wl.OUT / "c.bmck")
    assert problems and any("loss" in p or "parameter" in p for p in problems)


def test_missing_function_is_reported_absent(monkeypatch):
    from tracer import Tracer
    monkeypatch.delattr(nbl, "compute_targets")
    tracer = Tracer()
    tracer.install()
    try:
        assert "nbl.compute_targets" in tracer.absent
        assert "nbl.compute_targets" not in tracer.totals()
    finally:
        tracer.uninstall()
    assert not hasattr(link.schedule_users, "__wrapped__")  # patches undone


@pytest.mark.parametrize("seed", [0, 7, 2 ** 31 - 1, 2 ** 32 + 5, 2 ** 63, -3])
def test_any_seed_gives_drawable_inputs(seed):
    s = wl.input_seed(seed)
    assert 0 <= s < wl.INPUT_SEEDS and wl.input_seed(seed) == s
    if 0 <= seed < wl.INPUT_SEEDS:
        assert s == seed
    config = ch.ScenarioConfig()
    cli_seeds = wl._stratified_cli_seeds(config, s)
    lo, hi = config.user_count_range
    # one full cycle of user counts, each drop seed within the package's uint64 keys
    counts = {ch.draw_user_count(config, next(cli_seeds) * 1000003) for _ in range(lo, hi + 1)}
    assert counts == set(range(lo, hi + 1))
    # train inputs are keyed on s * 1000003 + i
    assert s * 1000003 + 10 ** 6 < 2 ** 63
