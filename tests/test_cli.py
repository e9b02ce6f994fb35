"""CLI contract: exit codes, file outputs, worker-count determinism."""
import dataclasses
import functools
import hashlib
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

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


def _run_process(*args):
    """The CLI in a fresh interpreter that shows every warning once, as a
    user's shell would; returns the completed process."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, "-W", "default", "-m", "beamweaver.cli",
                           *map(str, args)], capture_output=True, text=True, env=env)


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


def test_training_mode_is_a_config_error(tmp_path):
    # the generator is chosen by --codebook alone; the key was once accepted
    # and never read, so a neural "mode" trained a direct checkpoint
    doc = _config_doc()
    doc["training"]["mode"] = "neural"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    res = _run("train", "--config", path, "--out", tmp_path / "out")
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: config schema violation")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [0, ch.MAX_USERS + 1, 2 ** 70])
@pytest.mark.parametrize("command", ["gen-channels", "evaluate", "train"])
def test_user_count_outside_its_range_is_a_config_error(tmp_path, command, value):
    # gen-channels reads a fixed n_users, the others draw from
    # user_count_range; a count beyond MAX_USERS used to reach numpy (exit 1)
    doc = _config_doc()
    if command == "gen-channels":
        doc["scenario"]["n_users"] = value
    else:
        doc["scenario"]["user_count_range"] = [min(value, 1), value]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    res = _run(command, "--config", path, "--out", out)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("config error: config schema violation")
    assert not out.exists()


def _leaf_paths(node, path=()):
    """Key paths of the leaves of a schema (through "properties") or of a
    config document."""
    if isinstance(node, dict) and "type" in node:  # a schema
        node = node.get("properties")
    if not isinstance(node, dict):
        return [path]
    return [p for key, child in node.items() for p in _leaf_paths(child, path + (key,))]


# every leaf key of CONFIG_SCHEMA at a value that no default holds
_EVERY_KEY = {
    "scenario": {
        "geometry": {"n_x": 4, "n_y": 6, "dual_polarized": False,
                     "element_spacing": 0.45, "carrier_frequency": 3.5e9},
        "c_cells": 2, "k_subcarriers": 6, "t_slots": 2, "n_rx": 3,
        "n_users": 5, "user_count_range": [3, 4], "scene_seed": 11,
        "inter_site_distance": 180.0, "cluster_count": 3, "rays_per_cluster": 4,
        "tx_power_dBm": 33.0, "noise_figure_dB": 7.0, "subcarrier_spacing": 60e3,
        "n_hotspots": 4, "hotspot_fraction": 0.5, "hotspot_sigma": 20.0,
        "angle_spread_deg": 8.0,
    },
    "codebook": {"l_max": 6, "n_csi": 5, "n_cb": 7, "b_g": 3, "l_csi": 3,
                 "b_phase": 3, "elevation_window": [-0.9, 0.3]},
    "training": {"epochs": 2, "lr": 0.003, "batch_size": 3, "samples": 5,
                 "ssb_weight": 0.7, "balance_weight": 0.4, "new_user_prob": 0.35,
                 "val_fraction": 0.25},
    "evaluation": {"s_b": 3, "k_ssb": 3, "t_period": 80},
    "checkpoint": "trained.bmck",
}


def _observe(tmp_path, monkeypatch, doc):
    """What `train` and `evaluate --codebook dft` build from a document: the
    arguments, by name, of their calls to the spied functions, which stand
    in for the dataset, the training loop and the drops."""
    seen = {}

    def spy(module, name, result=None):
        real = getattr(module, name)

        def call(*args, **kwargs):
            seen.setdefault(name, []).append(
                inspect.signature(real).bind(*args, **kwargs).arguments)
            return real(*args, **kwargs) if result is None else result
        monkeypatch.setattr(module, name, call)

    spy(nbl, "dft_codebooks")
    spy(nbl, "build_dataset", [])
    spy(nbl, "train", [0.0])
    spy(mx, "evaluate_drop", [])
    tmp_path.mkdir()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    for command, extra in (("train", []), ("evaluate", ["--drops", 1])):
        res = _run(command, "--config", path, "--out", tmp_path / command, *extra)
        assert res.exit_code == 0, res.output
    monkeypatch.undo()
    return seen


def _values_read(seen, path):
    """Each value the CLI's objects hold for the config key at ``path``."""
    section, key = path[0], path[-1]
    if section == "training":
        call, name = (("build_dataset", {"samples": "n_samples"}.get(key, key))
                      if key in ("samples", "new_user_prob") else ("train", key))
        return [args[name] for args in seen[call]]
    if section == "scenario":
        configs = [args["config"] for args in seen["build_dataset"] + seen["evaluate_drop"]]
        owners = [c.geometry for c in configs] if path[1] == "geometry" else configs
    else:
        dims = [args["dims"] for args in seen["dft_codebooks"]]
        settings = [args["settings"] for args in seen["evaluate_drop"]]
        owners = settings if section == "evaluation" else [
            o for o in dims + settings if hasattr(o, key)]
    values = [getattr(o, key) for o in owners]
    return [list(v) if isinstance(v, tuple) else v for v in values]


def test_every_config_key_is_honoured(tmp_path, monkeypatch):
    # a key is either read or refused: each leaf at a non-default value
    # reaches the objects train and evaluate build, and the empty document
    # gives each a different value there
    assert sorted(_leaf_paths(_EVERY_KEY)) == sorted(_leaf_paths(cli.CONFIG_SCHEMA))
    doc = {k: dict(v) if isinstance(v, dict) else v for k, v in _EVERY_KEY.items()}
    doc["scenario"] = {k: v for k, v in doc["scenario"].items() if k != "n_users"}
    del doc["checkpoint"]  # read by the nbl-* sources only: below
    seen = _observe(tmp_path / "set", monkeypatch, doc)
    defaults = _observe(tmp_path / "default", monkeypatch, {})
    for path in _leaf_paths(doc):
        want = functools.reduce(dict.get, path, doc)
        got = _values_read(seen, path)
        assert got and got == [want] * len(got), path
        assert want not in _values_read(defaults, path), path

    # scenario.n_users fixes gen-channels' user count; train and evaluate
    # refuse it (test_n_users_is_rejected_outside_gen_channels)
    counts = []

    def generate(config, seed, n_users=None):
        counts.append(n_users)
        return ch.ChannelTensor(np.zeros((1,) * 6, np.complex64))

    monkeypatch.setattr(ch, "generate_channels", generate)
    path = tmp_path / "config.json"
    for scenario in ({"n_users": _EVERY_KEY["scenario"]["n_users"]}, {}):
        path.write_text(json.dumps({"scenario": scenario}))
        res = _run("gen-channels", "--config", path, "--out", tmp_path / "h.bmch")
        assert res.exit_code == 0, res.output
    assert counts == [_EVERY_KEY["scenario"]["n_users"], None]
    # checkpoint is the file that the nbl-* sources load
    loads = []

    def load_checkpoint(ckpt):
        loads.append(ckpt)
        raise FormatError("not loaded")

    monkeypatch.setattr(nbl, "load_checkpoint", load_checkpoint)
    path.write_text(json.dumps({"checkpoint": _EVERY_KEY["checkpoint"]}))
    for source in ("nbl-direct", "nbl-neural"):
        res = _run("evaluate", "--config", path, "--out", tmp_path / source,
                   "--codebook", source)
        assert res.output == "config error: not loaded\n"
    assert loads == [_EVERY_KEY["checkpoint"]] * 2


def test_every_config_field_is_a_config_key():
    # the reverse of test_every_config_key_is_honoured: every field of the
    # objects that scenario_from, dims_from and settings_from build is a key
    # of the section they read, so no field is settable in code only
    sections = cli.CONFIG_SCHEMA["properties"]
    scenario, codebook = sections["scenario"]["properties"], sections["codebook"]["properties"]
    keys = {ch.ScenarioConfig: scenario,
            ch.ArrayGeometry: scenario["geometry"]["properties"],
            nbl.NblDims: codebook,
            # the one exception: EvalSettings also reads the CSI-RS resource
            # count and the PMI beam count, n_csi and l_csi, from codebook
            mx.EvalSettings: [*sections["evaluation"]["properties"], "n_csi", "l_csi"]}
    assert {"n_csi", "l_csi"} <= set(codebook)
    for owner, section in keys.items():
        extra = {f.name for f in dataclasses.fields(owner)} - set(section)
        assert not extra, (owner.__name__, extra)


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


@pytest.mark.parametrize("source, checkpoint, code", [
    ("bogus", None, 2), ("nbl-direct", "absent.bmck", 3)], ids=["unknown", "missing"])
def test_refused_codebook_source_leaves_no_output_directory(tmp_path, source,
                                                            checkpoint, code):
    extra = {} if checkpoint is None else {"checkpoint": str(tmp_path / checkpoint)}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_config_doc(**extra)))
    res = _run("evaluate", "--config", cfg, "--out", tmp_path / "new" / "deep",
               "--codebook", source, "--drops", 1)
    assert res.exit_code == code, res.output
    assert not (tmp_path / "new").exists()


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


def test_checkpoint_whose_rsrp_overflows_is_a_numerical_failure(trained, tmp_path):
    # every ssb0 entry is finite, so the checkpoint loads, but the beams'
    # RSRP overflows to inf: a numerical failure of the run, not a config
    # error, reported on one line without numpy's overflow warnings
    tape, _, meta = nbl.load_checkpoint(trained["nbl-direct"])
    tape.parameters["ssb0"].value[...] = 1.7e308
    ckpt = tmp_path / "huge.bmck"
    nbl.save_checkpoint(ckpt, tape, meta=meta)
    path = tmp_path / "eval_config.json"
    path.write_text(json.dumps(_config_doc(checkpoint=str(ckpt))))
    res = _run_process("evaluate", "--config", path, "--out", tmp_path / "ev",
                       "--codebook", "nbl-direct", "--drops", 1)
    assert res.returncode == 4, res.stderr
    assert res.stderr.splitlines() == ["numerical failure: RSRP values must be finite"]
    assert not (tmp_path / "ev" / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["evaluate", "gen-channels"])
def test_channel_overflow_is_a_numerical_failure(tmp_path, command):
    # a huge tx_power_dBm overflows the complex64 channel of a drop: a
    # numerical failure (exit 4) on one line, not a format error
    doc = _config_doc()
    doc["scenario"]["tx_power_dBm"] = 3000.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = ["--drops", 1] if command == "evaluate" else []
    res = _run_process(command, "--config", path, "--out", tmp_path / "out", *out)
    assert res.returncode == 4, res.stderr
    assert res.stderr.splitlines() == [
        "numerical failure: synthesized channel is not finite: an amplitude overflowed"]


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


def test_loaded_codebooks_evaluate_as_their_exported_file(tmp_path):
    # a 1-cell direct checkpoint, away from the DFT baseline, against its
    # codebooks exported with save_codebooks.  The generator's CSI-RS
    # precoders are a transposed view and the file's are C-ordered; the
    # transmitted subsets are C-ordered either way, so the bytes are equal
    doc = _config_doc()
    config, dims = cli.scenario_from(doc), cli.dims_from(doc)
    assert config.c_cells == 1
    tape = Tape()
    gen = nbl.DirectGenerator(tape, config.c_cells, config.geometry, dims)
    rng = np.random.default_rng(5)
    for p in tape.parameters.values():
        p.value = p.value + 0.3 * (rng.standard_normal(p.shape)
                                   + 1j * rng.standard_normal(p.shape))
    ckpt = tmp_path / "direct.bmck"
    nbl.save_checkpoint(ckpt, tape, meta=cli._checkpoint_meta("nbl-direct", config, dims))
    (ssb, csirs) = [t[0].value for t in gen.generate()]
    assert not csirs.flags.c_contiguous
    book = tmp_path / "book.json"
    cbk.save_codebooks(book, cbk.SsbCodebook(ssb, config.geometry),
                       cbk.CsirsCodebook(csirs, config.geometry))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_config_doc(checkpoint=str(ckpt))))
    drops = 8
    for name, source in (("loaded", "nbl-direct"), ("file", f"file:{book}")):
        res = _run("evaluate", "--config", path, "--out", tmp_path / name, "--seed", 2,
                   "--codebook", source, "--drops", drops)
        assert res.exit_code == 0, res.output
    assert len(mx.read_metrics(tmp_path / "file" / "metrics.csv")) > drops
    assert ((tmp_path / "loaded" / "metrics.csv").read_bytes()
            == (tmp_path / "file" / "metrics.csv").read_bytes())


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


def test_evaluate_starts_no_more_workers_than_drops(cfg, tmp_path, monkeypatch):
    # --workers 3 with 2 drops used to fork a third, idle worker
    fork = multiprocessing.get_context("fork")
    sizes, pool = [], type(fork).Pool

    def spy(self, processes=None, *args, **kwargs):
        sizes.append(processes)
        return pool(self, processes, *args, **kwargs)

    monkeypatch.setattr(type(fork), "Pool", spy)
    res = _run("evaluate", "--config", cfg, "--seed", 2, "--out", tmp_path / "ev",
               "--drops", 2, "--workers", 3)
    assert res.exit_code == 0, res.output
    assert sizes == [2]


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


def test_compare_without_a_served_drop_writes_strict_json(tmp_path):
    # t_period 1 leaves no time for data, so every drop's ESSE is 0 and no
    # drop has an ESSE ratio: its median is null, not NaN
    doc = _config_doc()
    doc["evaluation"]["t_period"] = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    res = _run("evaluate", "--config", path, "--out", tmp_path / "ev", "--drops", 2)
    assert res.exit_code == 0, res.output
    metrics = tmp_path / "ev" / "metrics.csv"
    res = _run("compare", metrics, metrics, "--out", tmp_path / "s.json")
    assert res.exit_code == 0, res.output

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    summary = json.loads((tmp_path / "s.json").read_text(), parse_constant=refuse)
    assert summary["esse"]["median_ratio"] is None


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
