"""Command-line interface: channel generation, training, evaluation, compare.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
divergence.  Every command is deterministic for a fixed (config, seed),
independent of the worker count.
"""
from __future__ import annotations

import csv
import functools
import json
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
from .errors import ConfigError, DivergenceError, FormatError

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
                "n_users": {"type": ["integer", "null"], "minimum": 1},
                "user_count_range": {"type": "array", "items": {"type": "integer"},
                                     "minItems": 2, "maxItems": 2},
                "scene_seed": {"type": "integer"},
                "inter_site_distance": {"type": "number", "exclusiveMinimum": 0},
                "cluster_count": {"type": "integer", "minimum": 0},
                "rays_per_cluster": {"type": "integer", "minimum": 1},
                "tx_power_dBm": {"type": "number"},
                "noise_figure_dB": {"type": "number"},
                "subcarrier_spacing": {"type": "number", "exclusiveMinimum": 0},
                "n_hotspots": {"type": "integer", "minimum": 0},
                "hotspot_fraction": {"type": "number", "minimum": 0, "maximum": 1},
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
                "mode": {"enum": ["direct", "neural"]},
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


def load_config(path) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
    except jsonschema.ValidationError as e:
        raise ConfigError(f"config schema violation: {e.message}") from e
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
    ev = doc.get("evaluation", {})
    return mx.EvalSettings(
        l_max=cb.get("l_max", 16), n_csi=cb.get("n_csi", 16),
        n_cb=cb.get("n_cb", 32), b_g=cb.get("b_g", 4),
        l_csi=cb.get("l_csi", 4), s_b=ev.get("s_b", 8),
        k_ssb=ev.get("k_ssb", 4), t_period=ev.get("t_period", 160))


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


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, FormatError) as e:
            click.echo(f"config error: {e}", err=True)
            sys.exit(2)
        except OSError as e:
            click.echo(f"i/o error: {e}", err=True)
            sys.exit(3)
        except DivergenceError as e:
            click.echo(f"numerical divergence: {e}", err=True)
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
    doc = load_config(config_path)
    config = scenario_from(doc)
    n_users = doc.get("scenario", {}).get("n_users")
    tensor = ch.generate_channels(config, seed, n_users=n_users)
    ch.export_channels(out_path, tensor)
    click.echo(f"wrote {out_path}: dims {tensor.values.shape}")


def _build_dft_books(config, dims):
    ssb = [cbk.build_dft_ssb(config.geometry, dims.l_max, dims.elevation_window)
           for _ in range(config.c_cells)]
    cs = [cbk.build_dft_csirs(config.geometry, dims.n_cb, dims.b_g,
                              elevation_window=dims.elevation_window)
          for _ in range(config.c_cells)]
    return ssb, cs


def _books_from_arrays(ssb_arrays, csirs_arrays, geometry):
    ssb = [cbk.SsbCodebook(beams=a, geometry=geometry) for a in ssb_arrays]
    cs = [cbk.CsirsCodebook(precoders=a, geometry=geometry) for a in csirs_arrays]
    return ssb, cs


def _prior_obsc(config, tensor, prior_ssb):
    """Feedback beamspace images from the prior (DFT) codebook for one drop."""
    h = np.asarray(tensor.values, np.complex128)
    pair = cbk.make_transform_pair(config.geometry)
    return nbl.feedback_images(h, prior_ssb, config.geometry, pair, None)[0]


_EVAL_CTX: dict = {}


def _eval_one(drop_seed: int) -> list[dict]:
    ctx = _EVAL_CTX
    config, settings, dims = ctx["config"], ctx["settings"], ctx["dims"]
    if ctx["source"] != "nbl-neural":
        books = ctx["books"]
        return mx.evaluate_drop(config, settings, books[0], books[1], drop_seed)
    # the neural codebook depends on the drop: synthesize its channel once
    tensor = ch.generate_channels(config, drop_seed)
    gen = nbl.NeuralGenerator.from_tape(
        ctx["tape"], config.c_cells, dims,
        n_pol=2 if config.geometry.dual_polarized else 1)
    obsc = _prior_obsc(config, tensor, ctx["prior_ssb"])
    ssb_dt, cs_dt = gen.generate_for(obsc, config.geometry)
    books = _books_from_arrays([s.value for s in ssb_dt],
                               [c.value for c in cs_dt], config.geometry)
    return mx.evaluate_drop(config, settings, books[0], books[1], drop_seed,
                            tensor=tensor)


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
    doc = load_config(config_path)
    _reject_n_users(doc, "evaluate")
    config = scenario_from(doc)
    settings = settings_from(doc)
    dims = dims_from(doc)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx = {"config": config, "settings": settings, "dims": dims,
           "source": source, "books": None, "tape": None, "prior_ssb": None}
    if source == "dft":
        ctx["books"] = _build_dft_books(config, dims)
    elif source.startswith("file:"):
        ssb, cs = cbk.load_codebooks(source[5:])
        ctx["books"] = ([ssb] * config.c_cells, [cs] * config.c_cells)
    elif source in ("nbl-direct", "nbl-neural"):
        ckpt = doc.get("checkpoint")
        if not ckpt:
            raise ConfigError(f"codebook source {source} requires a 'checkpoint' "
                              "path in the config")
        tape, _, meta = nbl.load_checkpoint(ckpt)
        _check_checkpoint(meta, source, config, dims)
        if source == "nbl-direct":
            gen = nbl.DirectGenerator.from_tape(tape, config.c_cells,
                                                config.geometry, dims)
            ssb_dt, cs_dt = gen.generate()
            ctx["books"] = _books_from_arrays([s.value for s in ssb_dt],
                                              [c.value for c in cs_dt],
                                              config.geometry)
        else:
            ctx["tape"] = tape
            ctx["prior_ssb"] = _build_dft_books(config, dims)[0]
    else:
        raise ConfigError(f"unknown codebook source {source!r}")
    seeds = [seed * 1000003 + i for i in range(drops)]
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
@click.option("--workers", default=1, type=int)
@click.option("--disaggregated", is_flag=True, default=False)
@_exit_codes
def train(config_path, seed, out_dir, source, epochs, lr, drops, workers,
          disaggregated):
    """End-to-end codebook training; writes checkpoint + loss CSV."""
    del workers  # training is sequential; flag accepted for CLI symmetry
    doc = load_config(config_path)
    _reject_n_users(doc, "train")
    config = scenario_from(doc)
    dims = dims_from(doc)
    tr = doc.get("training", {})
    epochs = epochs if epochs is not None else tr.get("epochs", 4)
    lr = lr if lr is not None else tr.get("lr", 1e-4)
    samples = drops if drops is not None else tr.get("samples", 64)
    sigma2 = ch.noise_variance(config)
    prior_ssb = _build_dft_books(config, dims)[0]
    dataset = nbl.build_dataset(config, prior_ssb, samples, seed, sigma2,
                                new_user_prob=tr.get("new_user_prob", 0.2))
    tape = Tape()
    if source == "nbl-direct":
        gen = nbl.DirectGenerator(tape, config.c_cells, config.geometry, dims)
        generate = gen.generate
    else:
        gen = nbl.NeuralGenerator(
            tape, config.c_cells, dims,
            n_pol=2 if config.geometry.dual_polarized else 1, seed=seed)
        generate = lambda obsc: gen.generate_for(obsc, config.geometry)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    loss_rows = []
    curve = nbl.train(
        dataset, generate, tape, sigma2, dims.n_csi, epochs=epochs, lr=lr,
        batch_size=tr.get("batch_size", 4), seed=seed,
        ssb_weight=tr.get("ssb_weight", 0.3),
        balance_weight=tr.get("balance_weight", 0.0),
        disaggregated_cells=config.c_cells if disaggregated else None,
        val_fraction=tr.get("val_fraction", 0.1),
        callback=lambda step, loss: loss_rows.append((step, loss)))
    nbl.save_checkpoint(out / "checkpoint.bmck", tape,
                        meta=_checkpoint_meta(source, config, dims))
    with open(out / "loss.csv", "w", newline="") as f:
        f.write(f"# schema=bmw-loss-v1\n")
        w = csv.writer(f)
        w.writerow(["step", "loss"])
        for step, loss in loss_rows:
            w.writerow([step, repr(loss)])
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
