"""Command-line interface: channel generation, training, evaluation, compare.

Exit codes: 0 success, 2 configuration or format error (an input whose
array shapes do not fit among them), 3 I/O error, 4 numerical divergence or
failure (a singular matrix or a value outside an op's domain).
Every command is deterministic for a fixed (config, seed), independent of the
worker count.
"""
from __future__ import annotations

import csv
import functools
import json
import math
import multiprocessing
import sys
from pathlib import Path

import click
import jsonschema
import numpy as np

from . import channel as ch
from . import codebook as cbk
from . import metrics as mx
from . import nbl
from .autodiff import Tape
from .errors import (ConfigError, DivergenceError, DomainError, FormatError,
                     ShapeError, SingularMatrixError)

_GEOMETRY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "n_x": {"type": "integer", "minimum": 1},
        "n_y": {"type": "integer", "minimum": 1},
        "dual_polarized": {"type": "boolean"},
        "element_spacing": {"type": "number", "exclusiveMinimum": 0},
        "carrier_frequency": {"type": "number", "exclusiveMinimum": 0},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "scenario": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "geometry": _GEOMETRY_SCHEMA,
                "c_cells": {"type": "integer", "minimum": 1},
                "k_subcarriers": {"type": "integer", "minimum": 1},
                "t_slots": {"type": "integer", "minimum": 1},
                "n_rx": {"type": "integer", "minimum": 1},
                "n_users": {"type": ["integer", "null"], "minimum": 1,
                            "maximum": ch.MAX_USERS},
                "user_count_range": {"type": "array",
                                     "items": {"type": "integer", "minimum": 1,
                                               "maximum": ch.MAX_USERS},
                                     "minItems": 2, "maxItems": 2},
                "scene_seed": {"type": "integer", "minimum": 0,
                               "exclusiveMaximum": ch.SEED_LIMIT},
                "inter_site_distance": {"type": "number", "exclusiveMinimum": 0},
                "cluster_count": {"type": "integer", "minimum": 0},
                "rays_per_cluster": {"type": "integer", "minimum": 1},
                "tx_power_dBm": {"type": "number"},
                "noise_figure_dB": {"type": "number"},
                "subcarrier_spacing": {"type": "number", "exclusiveMinimum": 0},
                "n_hotspots": {"type": "integer", "minimum": 0},
                "hotspot_fraction": {"type": "number", "minimum": 0, "maximum": 1},
                "hotspot_sigma": {"type": "number", "minimum": 0},
                "angle_spread_deg": {"type": "number", "minimum": 0},
            },
        },
        "codebook": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "l_max": {"type": "integer", "minimum": 1},
                "n_csi": {"type": "integer", "minimum": 1},
                "n_cb": {"type": "integer", "minimum": 1},
                "b_g": {"type": "integer", "minimum": 1},
                "l_csi": {"type": "integer", "minimum": 1},
                "b_phase": {"type": ["integer", "null"], "minimum": 1},
                "elevation_window": {"type": "array", "items": {"type": "number"},
                                     "minItems": 2, "maxItems": 2},
            },
        },
        "training": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "epochs": {"type": "integer", "minimum": 1},
                "lr": {"type": "number", "minimum": 0},
                "batch_size": {"type": "integer", "minimum": 1},
                "samples": {"type": "integer", "minimum": 1},
                "ssb_weight": {"type": "number", "minimum": 0},
                "balance_weight": {"type": "number", "minimum": 0},
                "new_user_prob": {"type": "number", "minimum": 0, "maximum": 1},
                "val_fraction": {"type": "number", "minimum": 0, "maximum": 0.5},
            },
        },
        "evaluation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "s_b": {"type": "integer", "minimum": 1},
                "k_ssb": {"type": "integer", "minimum": 1},
                "t_period": {"type": "integer", "minimum": 1},
            },
        },
        "checkpoint": {"type": "string"},
    },
}


# built once: jsonschema.validate would re-check the schema itself on every call
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def _finite_number(text: str) -> float:
    """A JSON number or NaN/Infinity literal, refused unless finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config holds the non-finite number {text}")
    return value


def load_config(path) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f, parse_float=_finite_number,
                            parse_constant=_finite_number)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(doc))
    if error is not None:
        raise ConfigError(f"config schema violation: {error.message}")
    return doc


def scenario_from(doc: dict) -> ch.ScenarioConfig:
    sc = dict(doc.get("scenario", {}))
    sc.pop("n_users", None)
    geo = ch.ArrayGeometry(**sc.pop("geometry", {}))
    return ch.ScenarioConfig(geometry=geo, **sc)


def dims_from(doc: dict) -> nbl.NblDims:
    cb = dict(doc.get("codebook", {}))
    cb.pop("l_csi", None)
    if "elevation_window" in cb:
        cb["elevation_window"] = tuple(cb["elevation_window"])
    return nbl.NblDims(**cb)


def settings_from(doc: dict) -> mx.EvalSettings:
    cb = doc.get("codebook", {})
    return mx.EvalSettings(**{k: cb[k] for k in ("n_csi", "l_csi") if k in cb},
                           **doc.get("evaluation", {}))


def _reject_n_users(doc: dict, command: str) -> None:
    if doc.get("scenario", {}).get("n_users") is not None:
        raise ConfigError(f"scenario.n_users is honoured only by gen-channels; "
                          f"{command} draws each drop's user count from "
                          "user_count_range")


def _checkpoint_meta(source: str, config, dims) -> dict:
    """The config a checkpoint of ``source`` is trained for, as stored in it."""
    return {"mode": source, "cells": config.c_cells,
            "n_x": config.geometry.n_x, "n_y": config.geometry.n_y,
            "dual_polarized": config.geometry.dual_polarized,
            "dims": {"l_max": dims.l_max, "n_cb": dims.n_cb,
                     "n_csi": dims.n_csi, "b_g": dims.b_g},
            "b_phase": dims.b_phase}


def _check_checkpoint(meta: dict, source: str, config, dims) -> None:
    """Refuse a checkpoint trained for another config before binding it.

    Neural weights fit any array size, so only a direct checkpoint must
    match n_x and n_y.  Checkpoints written before b_phase was recorded
    are not checked for it.
    """
    want = _checkpoint_meta(source, config, dims)
    keys = ["mode", "cells", "dual_polarized", "dims"]
    if source == "nbl-direct":
        keys += ["n_x", "n_y"]
    if "b_phase" in meta:
        keys.append("b_phase")
    for key in keys:
        if meta.get(key) != want[key]:
            raise ConfigError(f"checkpoint was trained for {key}={meta.get(key)!r}, "
                              f"config gives {want[key]!r}")


def _check_codebook_file(ssb, csirs, config, dims) -> None:
    """Refuse a codebook file built for another array or codebook sizing."""
    have, want = ssb.geometry, config.geometry
    for key, got, value in [
            ("n_x", have.n_x, want.n_x), ("n_y", have.n_y, want.n_y),
            ("dual_polarized", have.dual_polarized, want.dual_polarized),
            ("l_max", ssb.l_max, dims.l_max), ("n_cb", csirs.n_cb, dims.n_cb),
            ("b_g", csirs.b_g, dims.b_g)]:
        if got != value:
            raise ConfigError(f"codebook file is built for {key}={got!r}, "
                              f"config gives {value!r}")


def _check_option(name: str, value, minimum, limit=None) -> None:
    """Refuse a command-line value outside the range the schema gives its key:
    at least ``minimum`` and, if a ``limit`` is given, below it."""
    if value is None:
        return
    # math.isfinite would overflow on an int beyond a double's range
    finite = isinstance(value, int) or math.isfinite(value)
    if not (finite and value >= minimum and (limit is None or value < limit)):
        bound = "" if limit is None else f" and < {limit}"
        raise ConfigError(f"{name} must be a finite number >= {minimum}{bound}, "
                          f"got {value!r}")


def _check_seed(seed: int) -> None:
    _check_option("--seed", seed, 0, ch.SEED_LIMIT)


def _exit_codes(fn):
    """Map each error to its exit code and a one-line message on stderr.

    Floating-point warnings are off: a non-finite value that matters is
    refused by a check of its own, and numpy's warning lines would only come
    before that check's message.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return fn(*args, **kwargs)
        except (ConfigError, FormatError, ShapeError) as e:
            click.echo(f"config error: {e}", err=True)
            sys.exit(2)
        except OSError as e:
            click.echo(f"i/o error: {e}", err=True)
            sys.exit(3)
        except DivergenceError as e:
            click.echo(f"numerical divergence: {e}", err=True)
            sys.exit(4)
        except (SingularMatrixError, DomainError) as e:
            click.echo(f"numerical failure: {e}", err=True)
            sys.exit(4)
    return wrapper


@click.group()
def main():
    """Multi-cell beam management simulator and codebook optimizer."""


@main.command("gen-channels")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", default=0, type=int)
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_codes
def gen_channels(config_path, seed, out_path):
    """Synthesize a channel tensor and dump it in the BMCH binary format."""
    _check_seed(seed)
    doc = load_config(config_path)
    config = scenario_from(doc)
    n_users = doc.get("scenario", {}).get("n_users")
    tensor = ch.generate_channels(config, seed, n_users=n_users)
    ch.export_channels(out_path, tensor)
    click.echo(f"wrote {out_path}: dims {tensor.values.shape}")


def _generator(tape: Tape, source: str, config, dims, seed: int = 0):
    """The ``generate`` function of a fresh ``source`` generator whose
    parameters are registered on ``tape``: each cell's feedback images in,
    per-cell (SSB, CSI-RS) codebooks out.  ``nbl-direct`` ignores the images.
    """
    if source == "nbl-direct":
        return nbl.DirectGenerator(tape, config.c_cells, config.geometry, dims).generate
    gen = nbl.NeuralGenerator(tape, config.c_cells, dims,
                              n_pol=2 if config.geometry.dual_polarized else 1,
                              seed=seed)
    return lambda obsc: gen.generate_for(obsc, config.geometry)


_EVAL_CTX: dict = {}


def _eval_one(drop_seed: int) -> list[dict]:
    ctx = _EVAL_CTX
    config, settings = ctx["config"], ctx["settings"]
    if "books" in ctx:
        return mx.evaluate_drop(config, settings, *ctx["books"], drop_seed,
                                memo=ctx["memo"])
    # the neural codebook depends on the drop: synthesize its channel once,
    # feed back under the prior (DFT) SSB codebook, and keep the books'
    # correlations only for this drop
    tensor = ch.generate_channels(config, drop_seed)
    h = np.asarray(tensor.values, np.complex128)
    obsc = nbl.feedback_images(h, ctx["prior_ssb"], config.geometry, ctx["pair"],
                               None)[0]
    ssb_dt, cs_dt = ctx["generate"](obsc)
    return mx.evaluate_drop(config, settings, [s.value for s in ssb_dt],
                            [c.value for c in cs_dt], drop_seed, tensor=tensor)


def _init_eval_ctx(ctx):
    global _EVAL_CTX
    _EVAL_CTX = ctx


@main.command("evaluate")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", default=0, type=int)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--codebook", "source", default="dft")
@click.option("--drops", default=100, type=int)
@click.option("--workers", default=1, type=int)
@_exit_codes
def evaluate(config_path, seed, out_dir, source, drops, workers):
    """Monte-Carlo protocol evaluation; writes a per-user metrics CSV."""
    _check_seed(seed)
    _check_option("--drops", drops, 1)
    _check_option("--workers", workers, 1)
    doc = load_config(config_path)
    _reject_n_users(doc, "evaluate")
    config = scenario_from(doc)
    settings = settings_from(doc)
    dims = dims_from(doc)
    # memo: the correlations of the call's fixed books, one copy per worker;
    # fixed books are "books", per-drop ones come from "generate"
    ctx = {"config": config, "settings": settings, "memo": {}}
    if source in ("nbl-direct", "nbl-neural"):
        ckpt = doc.get("checkpoint")
        if not ckpt:
            raise ConfigError(f"codebook source {source} requires a 'checkpoint' "
                              "path in the config")
        loaded, _, meta = nbl.load_checkpoint(ckpt)
        _check_checkpoint(meta, source, config, dims)
        tape = Tape()
        generate = _generator(tape, source, config, dims)
        nbl.load_parameters(tape, loaded)
        if source == "nbl-direct":
            ssb_dt, cs_dt = generate(None)
            ctx["books"] = ([s.value for s in ssb_dt], [c.value for c in cs_dt])
        else:
            ctx["generate"] = generate
            prior_ssb, _ = nbl.dft_codebooks(config.geometry, dims)
            ctx["prior_ssb"] = [prior_ssb] * config.c_cells
            ctx["pair"] = cbk.make_transform_pair(config.geometry)
    else:
        if source == "dft":
            ssb, cs = nbl.dft_codebooks(config.geometry, dims)
        elif source.startswith("file:"):
            ssb, cs = cbk.load_codebooks(source[5:])
            _check_codebook_file(ssb, cs, config, dims)
        else:
            raise ConfigError(f"unknown codebook source {source!r}")
        ctx["books"] = ([ssb.beams] * config.c_cells, [cs.precoders] * config.c_cells)
    out = Path(out_dir)  # made once the source resolves: a refused run leaves none
    out.mkdir(parents=True, exist_ok=True)
    seeds = [seed * 1000003 + i for i in range(drops)]
    workers = min(workers, drops)  # a worker without a drop would idle
    if workers > 1:
        with multiprocessing.get_context("fork").Pool(
                workers, initializer=_init_eval_ctx, initargs=(ctx,)) as pool:
            results = pool.map(_eval_one, seeds)
    else:
        _init_eval_ctx(ctx)
        results = [_eval_one(s) for s in seeds]
    rows = [r for drop_rows in results for r in drop_rows]
    mx.write_metrics(out / "metrics.csv", rows)
    with open(out / "config.json", "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    click.echo(f"wrote {out / 'metrics.csv'} ({len(rows)} rows)")


@main.command("train")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", default=0, type=int)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--codebook", "source", default="nbl-direct",
              type=click.Choice(["nbl-direct", "nbl-neural"]))
@click.option("--epochs", default=None, type=int)
@click.option("--lr", default=None, type=float)
@click.option("--drops", default=None, type=int, help="training sample count")
@click.option("--disaggregated", is_flag=True, default=False)
@_exit_codes
def train(config_path, seed, out_dir, source, epochs, lr, drops, disaggregated):
    """End-to-end codebook training; writes checkpoint, loss and validation CSVs."""
    _check_seed(seed)
    _check_option("--epochs", epochs, 1)
    _check_option("--lr", lr, 0)
    _check_option("--drops", drops, 1)
    doc = load_config(config_path)
    _reject_n_users(doc, "train")
    config = scenario_from(doc)
    dims = dims_from(doc)
    tr = doc.get("training", {})
    epochs = epochs if epochs is not None else tr.get("epochs", 4)
    lr = lr if lr is not None else tr.get("lr", 1e-4)
    samples = drops if drops is not None else tr.get("samples", 64)
    sigma2 = ch.noise_variance(config)
    prior_ssb, _ = nbl.dft_codebooks(config.geometry, dims)
    dataset = nbl.build_dataset(config, [prior_ssb] * config.c_cells, samples, seed,
                                sigma2, new_user_prob=tr.get("new_user_prob", 0.2))
    tape = Tape()
    generate = _generator(tape, source, config, dims, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    loss_rows, val_rows = [], []
    curve = nbl.train(
        dataset, generate, tape, sigma2, dims.n_csi, epochs=epochs, lr=lr,
        batch_size=tr.get("batch_size", 4), seed=seed,
        ssb_weight=tr.get("ssb_weight", 0.3),
        balance_weight=tr.get("balance_weight", 0.0),
        disaggregated_cells=config.c_cells if disaggregated else None,
        val_fraction=tr.get("val_fraction", 0.1),
        callback=lambda step, loss: loss_rows.append((step, loss)),
        val_callback=lambda *row: val_rows.append(row))
    nbl.save_checkpoint(out / "checkpoint.bmck", tape,
                        meta=_checkpoint_meta(source, config, dims))
    with open(out / "loss.csv", "w", newline="") as f:
        f.write(f"# schema=bmw-loss-v1\n")
        w = csv.writer(f)
        w.writerow(["step", "loss"])
        for step, loss in loss_rows:
            w.writerow([step, repr(loss)])
    with open(out / "validation.csv", "w", newline="") as f:
        f.write("# schema=bmw-validation-v1\n")
        w = csv.writer(f)
        w.writerow(["epoch", "val_loss", "best_epoch"])
        for epoch, val_loss, best_epoch in val_rows:
            w.writerow([epoch, repr(val_loss), "" if best_epoch is None else best_epoch])
    click.echo(f"trained {len(curve)} steps; final loss {curve[-1]:.6g}")


@main.command("compare")
@click.argument("metrics_a", type=click.Path())
@click.argument("metrics_b", type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_codes
def compare(metrics_a, metrics_b, out_path):
    """Paired comparison of two metrics CSVs; writes a summary JSON."""
    rows_a = mx.read_metrics(metrics_a)
    rows_b = mx.read_metrics(metrics_b)
    summary = mx.compare_metrics(rows_a, rows_b)
    with open(out_path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
