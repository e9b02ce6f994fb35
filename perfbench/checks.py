"""Output checks behind the benchmark's ``failed`` count and ``correct`` flag.

Two kinds of check:

* Every measured drop or optimizer step is checked against invariants that
  hold for any seed (row layout, value ranges, ESSE equal to the summed
  per-user rates, finite losses and parameters).
* A pinned reference input (seed 0) is run after the measured window and
  compared with outputs stored in ``refs/`` from the commit that defined the
  benchmark.  Regenerate them with ``python3 perfbench/make_refs.py`` only
  when a change is meant to alter results.

Tolerances.  Discrete outputs (cell, beam, scheduled, and the drop/user
keys) must match exactly, so a changed schedule always fails.  Eval floats
may move by re-associated sums: the channel is stored as complex64, so a
last-ulp change there (relative 6e-8) reaches derived SINR/SE values at the
1e-7 level; ``EVAL_RTOL`` leaves an order of magnitude above that.  For
training, evaluating the matmul backward with a differently ordered
contraction moved the reference loss curve by at most 6e-12 and the
parameters by at most 1.4e-11 (relative); a missing conjugate in one op's
backward moved the loss by 3e-2 at the second step, and a 0.05% error on
one backward term moved the neural workload's parameters by 2e-5 (the desk
workload's by only 5e-9, below ``PARAM_RTOL``).  ``LOSS_RTOL`` and
``PARAM_RTOL`` sit between re-association and such errors.
"""
from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

REF_DIR = Path(__file__).resolve().parent / "refs"

EVAL_RTOL = 1e-6
EVAL_ATOL = 1e-12
LOSS_RTOL = 1e-9
PARAM_RTOL = 1e-8
N_PROJECTIONS = 16  # random projections kept per parameter tensor

_EXACT = ("drop", "user", "cell", "beam", "scheduled")


# ------------------------------------------------------------ invariants

def _drop_problem(rows: list[dict], n_cells: int, l_max: int) -> str | None:
    if [r["user"] for r in rows] != list(range(len(rows))):
        return "user ids are not 0..U-1"
    esse = rows[0]["esse"]
    for r in rows:
        if not (0 <= r["cell"] < n_cells and 0 <= r["beam"] < l_max):
            return f"user {r['user']}: cell/beam out of range"
        if r["scheduled"] not in (0, 1):
            return f"user {r['user']}: scheduled flag {r['scheduled']}"
        finite = ("rsrp_dbm", "se", "sig_power", "data_rate", "esse", "alloc_cell")
        if not all(math.isfinite(r[k]) for k in finite):
            return f"user {r['user']}: non-finite value"
        if math.isnan(r["eff_sinr_db"]) or not r["int_noise_power"] > 0:
            return f"user {r['user']}: invalid SINR decomposition"
        if r["se"] < 0 or r["data_rate"] < 0 or not 0 <= r["alloc_cell"] <= 1:
            return f"user {r['user']}: negative SE/rate or allocation outside [0, 1]"
        if not r["scheduled"] and r["data_rate"] != 0:
            return f"user {r['user']}: unscheduled user with a data rate"
        if r["esse"] != esse:
            return "ESSE differs between rows of one drop"
    total = sum(r["data_rate"] for r in rows)
    if abs(total - esse) > 1e-9 * max(1.0, esse):
        return f"ESSE {esse!r} != summed rates {total!r}"
    return None


def eval_rows(csv_path: Path, seeds: list[int], n_cells: int, l_max: int) -> list[str]:
    """One message per drop of ``seeds`` whose rows in metrics.csv fail."""
    from beamweaver import metrics as mx
    by_drop: dict[int, list] = {}
    for row in mx.read_metrics(csv_path):
        by_drop.setdefault(row["drop"], []).append(row)
    problems = []
    for s in seeds:
        why = (_drop_problem(by_drop[s], n_cells, l_max) if s in by_drop
               else "no rows")
        if why:
            problems.append(f"drop {s}: {why}")
    return problems


def train_round(curve: list, losses: list, steps: int, tape) -> list[str]:
    """One message per failed step of a one-epoch ``nbl.train`` call."""
    if len(curve) != steps or len(losses) != steps:
        return [f"{len(curve)} steps recorded, {steps} expected"] * steps
    if not all(np.all(np.isfinite(p.value)) for p in tape.parameters.values()):
        return ["non-finite parameters after training"] * steps
    return [f"step {i}: loss {a!r} (callback {b!r})"
            for i, (a, b) in enumerate(zip(curve, losses))
            if not math.isfinite(a) or a != b]


# ------------------------------------------------------------ references

def pack_train_output(losses: list[float], checkpoint: bytes) -> bytes:
    """Loss curve (exact reprs) and checkpoint bytes as one byte string."""
    return json.dumps([repr(x) for x in losses]).encode() + b"\n" + checkpoint


def _unpack_train_output(blob: bytes):
    head, checkpoint = blob.split(b"\n", 1)
    return [float(x) for x in json.loads(head)], checkpoint


def _checkpoint_params(checkpoint: bytes, scratch: Path) -> dict:
    from beamweaver import nbl
    scratch.write_bytes(checkpoint)
    tape, _, _ = nbl.load_checkpoint(scratch)
    return {name: p.value for name, p in tape.parameters.items()}


def _fingerprint(value: np.ndarray) -> dict:
    """Norm and fixed random projections of a parameter tensor.

    Rows of the projection have expected squared norm 1/N_PROJECTIONS, so
    the projected distance of two tensors estimates their distance.
    """
    flat = np.asarray(value, np.complex128).reshape(-1)
    rng = np.random.default_rng(flat.size)
    proj = (rng.standard_normal((N_PROJECTIONS, flat.size))
            + 1j * rng.standard_normal((N_PROJECTIONS, flat.size)))
    proj /= math.sqrt(2 * N_PROJECTIONS)
    p = proj @ flat
    return {"norm": float(np.linalg.norm(flat)),
            "proj": [[float(z.real), float(z.imag)] for z in p]}


def _read_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    return [dict(r) for r in csv.DictReader(io.StringIO("\n".join(lines[1:])))]


def compare_eval(output: bytes, reference: bytes) -> list[str]:
    got, want = _read_csv(output.decode()), _read_csv(reference.decode())
    if len(got) != len(want):
        return [f"{len(got)} metric rows, reference has {len(want)}"]
    problems = []
    for g, w in zip(got, want):
        key = f"drop {w['drop']} user {w['user']}"
        for k in w:
            if k in _EXACT:
                ok = g[k] == w[k]
            else:
                a, b = float(g[k]), float(w[k])
                ok = a == b or bool(np.isclose(a, b, rtol=EVAL_RTOL, atol=EVAL_ATOL))
            if not ok:
                problems.append(f"{key}: {k} = {g[k]}, reference {w[k]}")
    return problems


def compare_train(output: bytes, reference: dict, scratch: Path) -> list[str]:
    losses, checkpoint = _unpack_train_output(output)
    problems = []
    want = reference["losses"]
    if len(losses) != len(want):
        return [f"{len(losses)} loss values, reference has {len(want)}"]
    for i, (a, b) in enumerate(zip(losses, want)):
        if not abs(a - b) <= LOSS_RTOL * abs(b):
            problems.append(f"step {i}: loss {a!r}, reference {b!r}")
    params = _checkpoint_params(checkpoint, scratch)
    if sorted(params) != sorted(reference["params"]):
        return problems + ["checkpoint parameter names differ from the reference"]
    for name, value in params.items():
        ref = reference["params"][name]
        fp = _fingerprint(value)
        diff = np.linalg.norm(np.subtract(fp["proj"], ref["proj"]))
        if diff > PARAM_RTOL * ref["norm"] or abs(fp["norm"] - ref["norm"]) > PARAM_RTOL * ref["norm"]:
            problems.append(f"parameter {name}: moved {diff:.3e} from the reference "
                            f"(norm {ref['norm']:.3e})")
    return problems


def reference_path(w) -> Path:
    return REF_DIR / f"{w.name}{w.REF_SUFFIX}"


def compare_reference(w, output: bytes, scratch: Path) -> list[str]:
    path = reference_path(w)
    if not path.is_file():
        return [f"missing reference {path.name}"]
    if path.suffix == ".csv":
        return compare_eval(output, path.read_bytes())
    return compare_train(output, json.loads(path.read_text()), scratch)


def write_reference(w, output: bytes, scratch: Path) -> Path:
    path = reference_path(w)
    REF_DIR.mkdir(exist_ok=True)
    if path.suffix == ".csv":
        path.write_bytes(output)
    else:
        losses, checkpoint = _unpack_train_output(output)
        params = _checkpoint_params(checkpoint, scratch)
        doc = {"losses": losses,
               "params": {k: _fingerprint(v) for k, v in params.items()}}
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return path
