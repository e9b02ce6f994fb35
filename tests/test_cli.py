"""CLI contract: exit codes, file outputs, worker-count determinism."""
import hashlib
import json

import pytest
from click.testing import CliRunner

from beamweaver import channel as ch
from beamweaver import cli
from beamweaver import metrics as mx
from beamweaver.errors import ConfigError, DivergenceError, FormatError


def _config_doc(**extra):
    doc = {
        "scenario": {
            "geometry": {"n_x": 4, "n_y": 4, "dual_polarized": True},
            "c_cells": 1, "k_subcarriers": 4, "n_rx": 2,
            "cluster_count": 2, "rays_per_cluster": 3,
            "user_count_range": [2, 3],
        },
        "codebook": {"l_max": 8, "n_cb": 4, "n_csi": 4, "b_g": 2, "l_csi": 2,
                     "elevation_window": [-1.01, 1.01]},
        "evaluation": {"s_b": 2, "k_ssb": 2, "t_period": 160},
        "training": {"samples": 2, "epochs": 1, "lr": 0.001, "batch_size": 2,
                     "ssb_weight": 0.0, "val_fraction": 0.0},
    }
    doc.update(extra)
    return doc


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_doc()))
    return path


def _run(*args):
    return CliRunner().invoke(cli.main, [str(a) for a in args])


# ------------------------------ exit codes -------------------------------

def test_exit_code_mapping():
    for exc, code in ((ConfigError("x"), 2), (FormatError("x"), 2),
                      (OSError("x"), 3), (DivergenceError("x"), 4)):
        @cli._exit_codes
        def boom(e=exc):
            raise e
        with pytest.raises(SystemExit) as ex:
            boom()
        assert ex.value.code == code


def test_invalid_json_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    res = _run("gen-channels", "--config", path, "--out", tmp_path / "o.bmch")
    assert res.exit_code == 2


def test_schema_violation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": {"mystery_knob": 1}}))
    res = _run("gen-channels", "--config", path, "--out", tmp_path / "o.bmch")
    assert res.exit_code == 2


def test_missing_config_file(tmp_path):
    res = _run("gen-channels", "--config", tmp_path / "absent.json",
               "--out", tmp_path / "o.bmch")
    assert res.exit_code == 3


def test_unknown_codebook_source(cfg, tmp_path):
    res = _run("evaluate", "--config", cfg, "--out", tmp_path / "ev",
               "--codebook", "voodoo", "--drops", 1)
    assert res.exit_code == 2


def test_nbl_source_requires_checkpoint(cfg, tmp_path):
    res = _run("evaluate", "--config", cfg, "--out", tmp_path / "ev",
               "--codebook", "nbl-direct", "--drops", 1)
    assert res.exit_code == 2


@pytest.mark.parametrize("cut", [10, 121, 239])
def test_truncated_checkpoint_is_a_format_error(cfg, tmp_path, cut):
    res = _run("train", "--config", cfg, "--seed", 3,
               "--out", tmp_path / "run", "--codebook", "nbl-direct")
    assert res.exit_code == 0, res.output
    data = (tmp_path / "run" / "checkpoint.bmck").read_bytes()
    assert cut < len(data)
    cut_path = tmp_path / "cut.bmck"
    cut_path.write_bytes(data[:cut])
    doc = _config_doc(checkpoint=str(cut_path))
    cfg2 = tmp_path / "config2.json"
    cfg2.write_text(json.dumps(doc))
    res = _run("evaluate", "--config", cfg2, "--out", tmp_path / "ev",
               "--codebook", "nbl-direct", "--drops", 1)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Checkpoint path per mode, trained with the default test config."""
    root = tmp_path_factory.mktemp("trained")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(_config_doc()))
    out = {}
    for mode in ("nbl-direct", "nbl-neural"):
        res = _run("train", "--config", cfg, "--seed", 3,
                   "--out", root / mode, "--codebook", mode)
        assert res.exit_code == 0, res.output
        out[mode] = root / mode / "checkpoint.bmck"
    return out


def _evaluate_checkpoint(tmp_path, ckpt, source, scenario=None, codebook=None):
    doc = _config_doc(checkpoint=str(ckpt))
    doc["scenario"].update(scenario or {})
    doc["codebook"].update(codebook or {})
    path = tmp_path / "eval_config.json"
    path.write_text(json.dumps(doc))
    return _run("evaluate", "--config", path, "--out", tmp_path / "ev",
                "--codebook", source, "--drops", 1)


@pytest.mark.parametrize("trained_as, source, scenario, codebook", [
    ("nbl-direct", "nbl-direct", {"c_cells": 2}, None),
    ("nbl-direct", "nbl-direct",
     {"geometry": {"n_x": 2, "n_y": 4, "dual_polarized": True}}, None),
    ("nbl-direct", "nbl-direct", None, {"n_cb": 8}),
    ("nbl-direct", "nbl-direct", None, {"b_phase": 3}),
    ("nbl-direct", "nbl-neural", None, None),
    ("nbl-neural", "nbl-neural", {"c_cells": 2}, None),
    ("nbl-neural", "nbl-neural", None, {"l_max": 4}),
], ids=["cells", "n_x", "n_cb", "b_phase", "direct-as-neural",
        "neural-cells", "neural-l_max"])
def test_checkpoint_for_another_config_is_a_config_error(
        trained, tmp_path, trained_as, source, scenario, codebook):
    res = _evaluate_checkpoint(tmp_path, trained[trained_as], source,
                               scenario, codebook)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "checkpoint was trained for" in res.output


def test_neural_checkpoint_evaluates_at_another_array_size(trained, tmp_path):
    res = _evaluate_checkpoint(
        tmp_path, trained["nbl-neural"], "nbl-neural",
        {"geometry": {"n_x": 8, "n_y": 8, "dual_polarized": True}})
    assert res.exit_code == 0, res.output


def test_neural_evaluate_synthesizes_each_drop_once(trained, tmp_path,
                                                    monkeypatch):
    seeds = []
    generate = ch.generate_channels

    def counting(config, seed, *args, **kwargs):
        seeds.append(seed)
        return generate(config, seed, *args, **kwargs)

    monkeypatch.setattr(ch, "generate_channels", counting)
    path = tmp_path / "eval_config.json"
    path.write_text(json.dumps(_config_doc(checkpoint=str(trained["nbl-neural"]))))
    res = _run("evaluate", "--config", path, "--seed", 0, "--out", tmp_path / "ev",
               "--codebook", "nbl-neural", "--drops", 3)
    assert res.exit_code == 0, res.output
    assert seeds == [0, 1, 2]


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_n_users_is_rejected_outside_gen_channels(tmp_path, command):
    doc = _config_doc()
    doc["scenario"]["n_users"] = 3
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    res = _run(command, "--config", path, "--out", tmp_path / "out")
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "n_users" in res.output
    res = _run("gen-channels", "--config", path, "--out", tmp_path / "h.bmch")
    assert res.exit_code == 0, res.output


# ----------------------------- gen-channels ------------------------------

def test_gen_channels_deterministic(cfg, tmp_path):
    outs = []
    for name in ("a.bmch", "b.bmch"):
        res = _run("gen-channels", "--config", cfg, "--seed", 5,
                   "--out", tmp_path / name)
        assert res.exit_code == 0, res.output
        outs.append(hashlib.sha256((tmp_path / name).read_bytes()).digest())
    assert outs[0] == outs[1]
    res = _run("gen-channels", "--config", cfg, "--seed", 6,
               "--out", tmp_path / "c.bmch")
    assert res.exit_code == 0
    assert hashlib.sha256((tmp_path / "c.bmch").read_bytes()).digest() != outs[0]


# ------------------------------- evaluate --------------------------------

def test_evaluate_writes_metrics(cfg, tmp_path):
    res = _run("evaluate", "--config", cfg, "--seed", 1,
               "--out", tmp_path / "ev", "--drops", 2)
    assert res.exit_code == 0, res.output
    rows = mx.read_metrics(tmp_path / "ev" / "metrics.csv")
    assert rows and len({r["drop"] for r in rows}) == 2
    assert (tmp_path / "ev" / "config.json").exists()


def test_evaluate_worker_count_invariance(cfg, tmp_path):
    digests = []
    for workers, name in ((1, "w1"), (3, "w3")):
        res = _run("evaluate", "--config", cfg, "--seed", 2,
                   "--out", tmp_path / name, "--drops", 3,
                   "--workers", workers)
        assert res.exit_code == 0, res.output
        digests.append(hashlib.sha256(
            (tmp_path / name / "metrics.csv").read_bytes()).digest())
    assert digests[0] == digests[1]


# ----------------------- train -> evaluate -> compare --------------------

def test_train_evaluate_compare_pipeline(cfg, tmp_path):
    res = _run("train", "--config", cfg, "--seed", 3,
               "--out", tmp_path / "run", "--codebook", "nbl-direct")
    assert res.exit_code == 0, res.output
    loss_text = (tmp_path / "run" / "loss.csv").read_text()
    assert loss_text.startswith("# schema=bmw-loss-v1\n")
    assert (tmp_path / "run" / "checkpoint.bmck").exists()

    doc = _config_doc(checkpoint=str(tmp_path / "run" / "checkpoint.bmck"))
    cfg2 = tmp_path / "config2.json"
    cfg2.write_text(json.dumps(doc))
    for source, name in (("dft", "ev_dft"), ("nbl-direct", "ev_nbl")):
        res = _run("evaluate", "--config", cfg2, "--seed", 4,
                   "--out", tmp_path / name, "--codebook", source, "--drops", 2)
        assert res.exit_code == 0, res.output

    res = _run("compare", tmp_path / "ev_dft" / "metrics.csv",
               tmp_path / "ev_nbl" / "metrics.csv",
               "--out", tmp_path / "summary.json")
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["drops"] == 2
    assert "rsrp_delta_db" in summary and "esse" in summary


def test_train_disaggregated_writes_outputs(tmp_path):
    doc = _config_doc()
    doc["scenario"]["c_cells"] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    res = _run("train", "--config", path, "--seed", 3, "--out", tmp_path / "run",
               "--disaggregated")
    assert res.exit_code == 0, res.output
    assert (tmp_path / "run" / "checkpoint.bmck").exists()
    loss_text = (tmp_path / "run" / "loss.csv").read_text()
    assert loss_text.startswith("# schema=bmw-loss-v1\nstep,loss\n")


def test_compare_mismatched_files(cfg, tmp_path):
    for seed, name in ((1, "x"), (9, "y")):
        res = _run("evaluate", "--config", cfg, "--seed", seed,
                   "--out", tmp_path / name, "--drops", 1)
        assert res.exit_code == 0, res.output
    res = _run("compare", tmp_path / "x" / "metrics.csv",
               tmp_path / "y" / "metrics.csv", "--out", tmp_path / "s.json")
    assert res.exit_code == 2
