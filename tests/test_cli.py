"""CLI contract: exit codes, file outputs, worker-count determinism."""
import hashlib
import json

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

from beamweaver import channel as ch
from beamweaver import cli
from beamweaver import codebook as cbk
from beamweaver import metrics as mx
from beamweaver import nbl
from beamweaver.autodiff import Tape
from beamweaver.errors import (ConfigError, DivergenceError, DomainError, FormatError,
                               ShapeError, SingularMatrixError)


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
                      (ShapeError("x"), 2), (OSError("x"), 3), (DivergenceError("x"), 4),
                      (SingularMatrixError("x"), 4), (DomainError("x"), 4)):
        @cli._exit_codes
        def boom(e=exc):
            raise e
        with pytest.raises(SystemExit) as ex:
            boom()
        assert ex.value.code == code


@pytest.mark.parametrize("scene", ["small", "default"])
@pytest.mark.parametrize("key,value", [
    ("tx_power_dBm", 400), ("noise_figure_dB", -300),
    ("subcarrier_spacing", 1e-9), ("carrier_frequency", 1e-9),
])
def test_extreme_link_budget_exits_cleanly(tmp_path, scene, key, value):
    # SNRs far beyond any real link: the drop is scored with finite metrics,
    # apart from the documented int_noise_power = inf and eff_sinr_db = -inf
    # of a user whose SE is 0
    doc = _config_doc() if scene == "small" else {"scenario": {"geometry": {}}}
    target = doc["scenario"]["geometry"] if key == "carrier_frequency" else doc["scenario"]
    target[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    res = _run("evaluate", "--config", path, "--out", tmp_path / "ev", "--drops", 1)
    assert res.exit_code == 0, res.output
    rows = mx.read_metrics(tmp_path / "ev" / "metrics.csv")
    assert rows
    for row in rows:
        exempt = {"int_noise_power", "eff_sinr_db"} if row["se"] == 0.0 else set()
        for name, v in row.items():
            assert name in exempt or np.isfinite(v), (name, row)


@pytest.mark.parametrize("command, option, value", [
    ("train", "--epochs", 0), ("train", "--epochs", -2), ("train", "--lr", -1),
    ("train", "--lr", "nan"), ("train", "--lr", "inf"), ("train", "--drops", 0),
    ("evaluate", "--drops", 0), ("evaluate", "--drops", -1),
    ("evaluate", "--workers", 0), ("evaluate", "--workers", -1),
])
def test_option_outside_its_schema_range_is_a_config_error(cfg, tmp_path, command,
                                                           option, value):
    # the same ranges as the schema's keys: counts >= 1, lr finite and >= 0
    res = _run(command, "--config", cfg, "--out", tmp_path / "out", option, value)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith(f"config error: {option} must be")
    assert res.output.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen-channels", "evaluate", "train"])
@pytest.mark.parametrize("seed", [-1, ch.SEED_LIMIT, 35184372088832, 2 ** 70])
def test_seed_outside_the_seed_range_is_a_config_error(cfg, tmp_path, command, seed):
    # a drop's stream seed, seed * 1000003 + drop index, must fit a uint64
    out = tmp_path / "out"
    res = _run(command, "--config", cfg, "--out", out, "--seed", seed)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: --seed must be")
    assert not out.exists()


@pytest.mark.parametrize("scene_seed", [-5, ch.SEED_LIMIT, 2 ** 70])
@pytest.mark.parametrize("command", ["gen-channels", "evaluate"])
def test_scene_seed_outside_the_seed_range_is_a_config_error(tmp_path, command,
                                                            scene_seed):
    doc = _config_doc()
    doc["scenario"]["scene_seed"] = scene_seed
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = _run(command, "--config", path, "--out", out)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: config schema violation")
    assert not out.exists()


SCENE_SPREADS = [("hotspot_sigma", 5.0), ("angle_spread_deg", 3.0)]


@pytest.mark.parametrize("key, value", SCENE_SPREADS)
def test_scene_spread_keys_are_honoured(tmp_path, key, value):
    # the CLI's metrics equal those of a ScenarioConfig built directly with
    # the value, and differ from the default's
    texts = []
    for name, scenario in (("set", {key: value}), ("default", {})):
        doc = _config_doc()
        doc["scenario"].update(scenario)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        res = _run("evaluate", "--config", path, "--out", tmp_path / name,
                   "--seed", 4, "--drops", 2)
        assert res.exit_code == 0, res.output
        texts.append((tmp_path / name / "metrics.csv").read_bytes())
    config = ch.ScenarioConfig(
        geometry=ch.ArrayGeometry(n_x=4, n_y=4, dual_polarized=True), c_cells=1,
        k_subcarriers=4, n_rx=2, cluster_count=2, rays_per_cluster=3,
        user_count_range=(2, 3), **{key: value})
    ssb = cbk.build_dft_ssb(config.geometry, 8, (-1.01, 1.01))
    cs = cbk.build_dft_csirs(config.geometry, 4, 2, elevation_window=(-1.01, 1.01))
    settings = mx.EvalSettings(n_csi=4, l_csi=2, s_b=2, k_ssb=2, t_period=160)
    rows = [r for i in range(2)
            for r in mx.evaluate_drop(config, settings, [ssb.beams], [cs.precoders],
                                      4 * 1000003 + i)]
    mx.write_metrics(tmp_path / "direct.csv", rows)
    assert texts[0] == (tmp_path / "direct.csv").read_bytes()
    assert texts[0] != texts[1]


@pytest.mark.parametrize("key", [k for k, _ in SCENE_SPREADS])
def test_negative_scene_spread_is_a_config_error(tmp_path, key):
    # a negative scale used to reach rng.normal / rng.laplace: exit 1
    doc = _config_doc()
    doc["scenario"][key] = -1.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = _run("evaluate", "--config", path, "--out", out, "--drops", 1)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: config schema violation: -1.0 is less "
                                 "than the minimum of 0")
    assert not out.exists()


def test_largest_seeds_in_the_seed_range_evaluate(tmp_path):
    doc = _config_doc()
    doc["scenario"]["scene_seed"] = ch.SEED_LIMIT - 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    res = _run("evaluate", "--config", path, "--out", tmp_path / "ev",
               "--seed", ch.SEED_LIMIT - 1, "--drops", 2)
    assert res.exit_code == 0, res.output
    drops = {r["drop"] for r in mx.read_metrics(tmp_path / "ev" / "metrics.csv")}
    assert drops == {(ch.SEED_LIMIT - 1) * 1000003 + i for i in range(2)}


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


def test_evaluation_settings_take_the_document_keys_and_default_the_rest():
    assert cli.settings_from({}) == mx.EvalSettings()
    doc = {"codebook": {"l_csi": 2, "l_max": 8}, "evaluation": {"t_period": 80}}
    assert cli.settings_from(doc) == mx.EvalSettings(l_csi=2, t_period=80)


def test_config_schema_is_a_valid_schema():
    # load_config builds its validator once and leaves this check to the tests
    jsonschema.validators.validator_for(cli.CONFIG_SCHEMA).check_schema(cli.CONFIG_SCHEMA)


def test_schema_violation_message_matches_jsonschema_validate(tmp_path):
    doc = {"scenario": {"c_cells": 0, "mystery_knob": 1}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(doc, cli.CONFIG_SCHEMA)
    with pytest.raises(ConfigError) as got:
        cli.load_config(path)
    assert str(got.value) == f"config schema violation: {want.value.message}"


@pytest.mark.parametrize("text", [
    '{"training": {"lr": NaN, "epochs": 1}}',
    '{"scenario": {"tx_power_dBm": Infinity}}',
    '{"scenario": {"noise_figure_dB": -Infinity}}',
    '{"codebook": {"elevation_window": [-1.0, 1e999]}}',
])
def test_non_finite_number_in_config_is_a_config_error(tmp_path, text):
    # json parses NaN, +-Infinity and an overflowing literal, and no schema
    # range refuses NaN: load_config refuses all of them itself
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="non-finite number"):
        cli.load_config(path)
    res = _run("evaluate", "--config", path, "--out", tmp_path / "ev", "--drops", 1)
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: config holds the non-finite number")
    assert not (tmp_path / "ev").exists()


def _codebook_file(path, n_x=4, l_max=8, n_cb=4, b_g=2):
    geo = ch.ArrayGeometry(n_x=n_x, n_y=4, dual_polarized=True)
    window = (-1.01, 1.01)
    cbk.save_codebooks(path, cbk.build_dft_ssb(geo, l_max, window),
                       cbk.build_dft_csirs(geo, n_cb, b_g, elevation_window=window))
    return path


def test_codebook_file_that_fits_the_config_evaluates(cfg, tmp_path):
    book = _codebook_file(tmp_path / "book.json")
    res = _run("evaluate", "--config", cfg, "--out", tmp_path / "ev",
               "--codebook", f"file:{book}", "--drops", 1)
    assert res.exit_code == 0, res.output
    dft = _run("evaluate", "--config", cfg, "--out", tmp_path / "dft", "--drops", 1)
    assert dft.exit_code == 0, dft.output
    assert ((tmp_path / "ev" / "metrics.csv").read_bytes()
            == (tmp_path / "dft" / "metrics.csv").read_bytes())


@pytest.mark.parametrize("sizing", [{"b_g": 4}, {"n_x": 2}, {"l_max": 4},
                                    {"n_cb": 8}], ids=["b_g", "n_x", "l_max", "n_cb"])
def test_codebook_file_for_another_config_is_a_config_error(cfg, tmp_path, sizing):
    book = _codebook_file(tmp_path / "book.json", **sizing)
    res = _run("evaluate", "--config", cfg, "--out", tmp_path / "ev",
               "--codebook", f"file:{book}", "--drops", 1)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    key = next(iter(sizing))
    assert res.output.startswith(f"config error: codebook file is built for {key}=")
    assert res.output.count("\n") == 1


def _malformed(doc):
    """A valid codebook document for the test config, edited by ``doc``."""
    def build(path):
        _codebook_file(path)
        if callable(doc):
            path.write_text(json.dumps(doc(json.loads(path.read_text()))))
        else:
            path.write_text(doc)
    return build


def _unknown_geometry_key(doc):
    doc["geometry"]["n_z"] = 2
    return doc


def _short_beams(doc):
    doc["ssb"] = [row[:-1] for row in doc["ssb"]]
    return doc


def _nan_in_csirs(doc):
    doc["csirs"][0][0][0] = [float("nan"), 0.0]
    return doc


@pytest.mark.parametrize("build", [
    _malformed('{"format": "beamweaver-codebook-v1", "ssb": []}'),
    _malformed(_unknown_geometry_key),
    _malformed("[1, 2, 3]"),
    _malformed(lambda doc: {**doc, "ssb": "x"}),
    _malformed("not json at all"),
    _malformed(_short_beams),
    _malformed(_nan_in_csirs),
], ids=["no-geometry", "unknown-geometry-key", "top-level-list", "ssb-string",
        "not-json", "beams-off-geometry", "nan-entry"])
def test_malformed_codebook_file_is_a_format_error(cfg, tmp_path, build):
    book = tmp_path / "book.json"
    build(book)
    with pytest.raises(FormatError):
        cbk.load_codebooks(book)
    res = _run("evaluate", "--config", cfg, "--out", tmp_path / "ev",
               "--codebook", f"file:{book}", "--drops", 1)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("config error: ")
    assert "Traceback" not in res.output


def test_checkpoint_with_a_misshapen_parameter_is_a_config_error(tmp_path):
    # the metadata fits the config, but ssb0 lost a beamspace row
    doc = _config_doc()
    config, dims = cli.scenario_from(doc), cli.dims_from(doc)
    tape = Tape()
    nbl.DirectGenerator(tape, config.c_cells, config.geometry, dims)
    tape.parameters["ssb0"].value = tape.parameters["ssb0"].value[:, :3, :]
    ckpt = tmp_path / "cropped.bmck"
    nbl.save_checkpoint(ckpt, tape,
                        meta=cli._checkpoint_meta("nbl-direct", config, dims))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_doc(checkpoint=str(ckpt))))
    res = _run("evaluate", "--config", path, "--out", tmp_path / "ev",
               "--codebook", "nbl-direct", "--drops", 1)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("config error: checkpoint parameter 'ssb0' has shape")


@pytest.mark.parametrize("mode, name", [("direct", "csirs0"), ("direct", "ssb0"),
                                        ("neural", "conv2_w"), ("neural", "deconv2_b")])
@pytest.mark.parametrize("fault", ["missing", "one-dimensional"])
def test_checkpoint_that_misfits_the_generator_is_a_format_error(tmp_path, mode,
                                                                 name, fault):
    # the metadata fits the config, but one generator parameter does not
    doc = _config_doc()
    config, dims = cli.scenario_from(doc), cli.dims_from(doc)
    tape = Tape()
    if mode == "direct":
        nbl.DirectGenerator(tape, config.c_cells, config.geometry, dims)
    else:
        nbl.NeuralGenerator(tape, config.c_cells, dims, n_pol=2)
    if fault == "missing":
        del tape.parameters[name]
        message = f"config error: checkpoint lacks the generator parameter '{name}'"
    else:
        tape.parameters[name].value = tape.parameters[name].value.reshape(-1)
        message = f"config error: checkpoint parameter '{name}' has shape"
    ckpt = tmp_path / "misfit.bmck"
    nbl.save_checkpoint(ckpt, tape,
                        meta=cli._checkpoint_meta(f"nbl-{mode}", config, dims))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_doc(checkpoint=str(ckpt))))
    res = _run("evaluate", "--config", path, "--out", tmp_path / "ev",
               "--codebook", f"nbl-{mode}", "--drops", 1)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith(message), res.output
    assert not (tmp_path / "ev" / "metrics.csv").exists()


def test_checkpoint_with_a_nan_parameter_is_a_format_error(tmp_path):
    # the metadata and shapes fit the config, but one ssb0 entry is NaN
    doc = _config_doc()
    config, dims = cli.scenario_from(doc), cli.dims_from(doc)
    tape = Tape()
    nbl.DirectGenerator(tape, config.c_cells, config.geometry, dims)
    tape.parameters["ssb0"].value[0, 0, 0] = np.nan
    ckpt = tmp_path / "nan.bmck"
    nbl.save_checkpoint(ckpt, tape,
                        meta=cli._checkpoint_meta("nbl-direct", config, dims))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_doc(checkpoint=str(ckpt))))
    res = _run("evaluate", "--config", path, "--out", tmp_path / "ev",
               "--codebook", "nbl-direct", "--drops", 3)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("config error: checkpoint holds a non-finite")
    assert not (tmp_path / "ev" / "metrics.csv").exists()


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


@pytest.mark.parametrize("source", ["dft", "nbl-direct", "nbl-neural"])
def test_evaluate_worker_count_invariance(source, trained, tmp_path):
    # a call's correlation memo lives in each worker, and nbl-neural builds
    # new codebooks for every drop; neither may show in the output
    doc = _config_doc(**({} if source == "dft" else
                         {"checkpoint": str(trained[source])}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    digests = []
    for workers, name in ((1, "w1"), (3, "w3")):
        res = _run("evaluate", "--config", path, "--seed", 2,
                   "--out", tmp_path / name, "--drops", 3,
                   "--codebook", source, "--workers", workers)
        assert res.exit_code == 0, res.output
        digests.append(hashlib.sha256(
            (tmp_path / name / "metrics.csv").read_bytes()).digest())
    assert digests[0] == digests[1]


def test_evaluate_survives_a_drop_over_the_csirs_budget(tmp_path):
    # drop 75 of --seed 7 has a cell whose users report 9 distinct SSB
    # beams against n_csi = 8; it used to stop the run with exit 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"codebook": {"n_csi": 8}}))
    res = _run("evaluate", "--config", path, "--seed", 7, "--out", tmp_path / "ev",
               "--drops", 76)
    assert res.exit_code == 0, res.output
    rows = mx.read_metrics(tmp_path / "ev" / "metrics.csv")
    assert {r["drop"] for r in rows} == {7 * 1000003 + i for i in range(76)}


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


def test_train_writes_validation_csv(tmp_path):
    doc = _config_doc()
    doc["training"].update(samples=4, epochs=3, val_fraction=0.5)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    res = _run("train", "--config", path, "--seed", 3, "--out", tmp_path / "run")
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "run" / "validation.csv").read_text().splitlines()
    assert lines[:2] == ["# schema=bmw-validation-v1", "epoch,val_loss,best_epoch"]
    rows = [line.split(",") for line in lines[2:]]
    assert [int(r[0]) for r in rows] == [0, 1, 2]
    losses = [float(r[1]) for r in rows]
    assert all(np.isfinite(losses))
    assert int(rows[-1][2]) == int(np.argmin(losses))


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


def _metrics_text(lines, header=",".join(mx._FIELDS)):
    return "\n".join([f"# schema={mx.CSV_SCHEMA}", header, *lines]) + "\n"


# two users as the writer leaves them; user 1 has SE 0, so its
# int_noise_power is inf and its eff_sinr_db -inf
_ROW = dict(drop=5, user=0, cell=0, beam=3, rsrp_dbm=-81.5, se=2.0,
            eff_sinr_db=4.77, sig_power=1e-9, int_noise_power=3e-10,
            scheduled=1, data_rate=1.5, esse=1.5, alloc_cell=1.0)
_IDLE = dict(_ROW, user=1, se=0.0, eff_sinr_db=-np.inf, int_noise_power=np.inf,
             scheduled=0, data_rate=0.0)


def _line(row, **change):
    return ",".join(str(v) for v in dict(row, **change).values())


def test_compare_accepts_the_writers_infinities(tmp_path):
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).write_text(_metrics_text([_line(_ROW), _line(_IDLE)]))
    res = _run("compare", tmp_path / "a.csv", tmp_path / "b.csv",
               "--out", tmp_path / "s.json")
    assert res.exit_code == 0, res.output
    assert "NaN" not in (tmp_path / "s.json").read_text()


_MALFORMED = {
    "truncated-row": _metrics_text([_line(_ROW), _line(_IDLE).rsplit(",", 3)[0]]),
    "extra-field": _metrics_text([_line(_ROW) + ",7", _line(_IDLE)]),
    "renamed-header": _metrics_text(
        [_line(_ROW), _line(_IDLE)],
        header=",".join(mx._FIELDS).replace("rsrp_dbm", "rsrp")),
    "non-numeric-user": _metrics_text([_line(_ROW, user="x"), _line(_IDLE)]),
    "non-utf8": _metrics_text([_line(_ROW)]).encode() + b"\xff\xfe\n",
    "header-only": _metrics_text([]),
    "nan-rsrp": _metrics_text([_line(_ROW, rsrp_dbm="nan"), _line(_IDLE)]),
    "inf-rsrp": _metrics_text([_line(_ROW, rsrp_dbm="inf"), _line(_IDLE)]),
    "inf-at-positive-se": _metrics_text(
        [_line(_ROW, int_noise_power="inf"), _line(_IDLE)]),
    "neg-inf-at-positive-se": _metrics_text(
        [_line(_ROW, eff_sinr_db="-inf"), _line(_IDLE)]),
    # a repeated (drop, user) row must not silently replace the first copy
    "repeated-row": _metrics_text(
        [_line(_ROW), _line(_ROW, rsrp_dbm=-10.0), _line(_IDLE)]),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_compare_rejects_a_malformed_metrics_file(tmp_path, case):
    # every fault of a metrics file is a format error (exit 2), not a
    # traceback and not a summary with NaN in it
    content = _MALFORMED[case]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    # two header-only files pair up, with nothing left to compare
    good = bad if case == "header-only" else tmp_path / "good.csv"
    if good != bad:
        good.write_text(_metrics_text([_line(_ROW), _line(_IDLE)]))
    for a, b in ((good, bad), (bad, good)):
        res = _run("compare", a, b, "--out", tmp_path / "s.json")
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("config error: ")
        assert not (tmp_path / "s.json").exists()


def test_compare_mismatched_files(cfg, tmp_path):
    for seed, name in ((1, "x"), (9, "y")):
        res = _run("evaluate", "--config", cfg, "--seed", seed,
                   "--out", tmp_path / name, "--drops", 1)
        assert res.exit_code == 0, res.output
    res = _run("compare", tmp_path / "x" / "metrics.csv",
               tmp_path / "y" / "metrics.csv", "--out", tmp_path / "s.json")
    assert res.exit_code == 2
