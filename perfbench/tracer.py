"""Outside-in tracing of beamweaver: spans recorded around public functions.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
public module attributes (``channel.generate_channels``, ``link.schedule_users``
and so on) with timing wrappers, in every loaded ``beamweaver`` module that
bound the same function object, and puts the originals back on
``uninstall``.  Each autodiff op additionally gets its node's ``_backward``
closure wrapped, so forward and backward time of an op are separate spans.

Spans are kept in flat arrays (name, parent, start, end) and written out at
the end.  A span's self time is its duration minus the durations of its
direct children: the program is single-threaded, so child spans nest inside
their parent and never overlap.

A listed function that no longer exists is reported as absent instead of
failing.  Private helpers are never wrapped, so deleting or renaming them
in ``src/`` needs no edit here.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

_PACKAGE = "beamweaver"

# (module, attribute, span name, counter hook name or None).  An attribute
# "Class.method" patches the method on the class.
FUNCTIONS = [
    ("channel", "generate_channels", "channel.generate_channels", "_count_links"),
    ("beam_mgmt", "ssb_receive", "beam_mgmt.ssb_receive", None),
    ("beam_mgmt", "measure_rsrp", "beam_mgmt.measure_rsrp", None),
    ("beam_mgmt", "rsrp_tensor", "beam_mgmt.rsrp_tensor", None),
    ("beam_mgmt", "aggregate_feedback", "beam_mgmt.aggregate_feedback", None),
    ("beam_mgmt", "select_csirs_subset", "beam_mgmt.select_csirs_subset",
     "_count_fallback"),
    ("beam_mgmt", "csirs_sinr", "beam_mgmt.csirs_sinr", "_count_nonfinite_sinr"),
    ("beam_mgmt", "achievable_se", "beam_mgmt.achievable_se", None),
    ("link", "estimate_channel", "link.estimate_channel", None),
    ("link", "quantize_pmi", "link.quantize_pmi", "_count_zero_pmi"),
    ("link", "schedule_users", "link.schedule_users", "_count_schedule"),
    ("link", "build_precoders", "link.build_precoders", None),
    ("link", "transmit_and_score", "link.transmit_and_score", None),
    ("codebook", "build_dft_ssb", "codebook.build_dft_ssb", None),
    ("codebook", "build_dft_csirs", "codebook.build_dft_csirs", None),
    ("codebook", "make_transform_pair", "codebook.make_transform_pair", None),
    ("codebook", "beamspace_forward", "codebook.beamspace_forward", None),
    ("codebook", "project_analog", "codebook.project_analog", None),
    ("nbl", "build_dataset", "nbl.build_dataset", None),
    ("nbl", "compute_targets", "nbl.compute_targets", None),
    ("nbl", "DirectGenerator.generate", "nbl.generate", None),
    ("nbl", "NeuralGenerator.generate_for", "nbl.generate", None),
    ("nbl", "forward_model", "nbl.forward_model", None),
    ("nbl", "e2e_loss", "nbl.e2e_loss", None),
    ("nbl", "ssb_alignment_loss", "nbl.ssb_alignment_loss", None),
    ("nbl", "Adam.step", "nbl.Adam.step", None),
    ("nbl", "train", "nbl.train", None),
    ("nbl", "save_checkpoint", "nbl.save_checkpoint", None),
    ("metrics", "evaluate_drop", "metrics.evaluate_drop", None),
    ("metrics", "write_metrics", "metrics.write_metrics", None),
    ("cli", "load_config", "cli.load_config", None),
    ("autodiff", "backward", "autodiff.backward", None),
]

# Public autodiff ops: each gets a forward span "autodiff.<op>" and, for the
# node it creates, a backward span "autodiff.<op>.bwd".
AUTODIFF_OPS = [
    "add", "sub", "mul", "div", "scale", "matmul", "conj", "abs2", "real",
    "log2_1p", "relu", "reshape", "swapaxes", "hermitian_transpose",
    "sum_axis", "mean_axis", "concat", "take", "select_cells", "unit_modulus",
    "stop_gradient", "straight_through", "hermitian_inverse", "conv2d",
    "conv2d_transpose", "crop2d",
]


def _resolve(module, attr):
    """(owner, name, function) for "f" or "Class.method"; None if absent."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(name) if inspect.isclass(owner) else getattr(owner, name, None)
    if fn is None or not callable(fn):
        return None
    return owner, name, fn


class Tracer:
    """Span recorder plus the module patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans
    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def timed(self, fn, name: str, hook=None):
        """``fn`` wrapped in a span; ``hook(fn, args, kwargs, result)`` counts."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if hook is not None:
                hook(fn, args, kwargs, out)
            return out

        return traced

    # ---------------------------------------------------------- patching
    def install(self) -> None:
        """Wrap every listed public function of the loaded package."""
        for mod_name, attr, span, hook in FUNCTIONS:
            try:
                module = importlib.import_module(f"{_PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                module = None
            found = _resolve(module, attr) if module is not None else None
            if found is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            owner, name, fn = found
            hook_fn = getattr(self, hook) if hook else None
            self._patch(owner, name, fn, self.timed(fn, span, hook_fn))
        ad = sys.modules[f"{_PACKAGE}.autodiff"]
        for op in AUTODIFF_OPS:
            fn = getattr(ad, op, None)
            if fn is None:
                self.absent.append(f"autodiff.{op}")
                continue
            self._patch(ad, op, fn, self._op(fn, op))

    def _patch(self, owner, name, original, wrapper) -> None:
        """Replace ``original`` on its owner and wherever a module imported it."""
        targets = [owner]
        if not inspect.isclass(owner):
            targets += [m for key, m in sys.modules.items()
                        if key.startswith(_PACKAGE) and m is not owner
                        and getattr(m, name, None) is original]
        for target in targets:
            self._patches.append((target, name, original))
            setattr(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def _op(self, fn, op: str):
        fwd = self.intern(f"autodiff.{op}")
        bwd = self.intern(f"autodiff.{op}.bwd")

        def backward_timer(closure):
            def timed_backward(g):
                i = self.begin(bwd)
                try:
                    closure(g)
                finally:
                    self.finish(i)
            timed_backward.traced_op = op
            return timed_backward

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(i)
            closure = getattr(out, "_backward", None)
            # composite ops (mean_axis = scale(sum_axis(.))) return a node an
            # inner op already tagged; the innermost op owns the backward
            if closure is not None and not hasattr(closure, "traced_op"):
                out._backward = backward_timer(closure)
            return out

        return traced

    # ----------------------------------------------- counters (return values)
    def _count_links(self, fn, args, kwargs, out):
        c_cells, n_users = out.values.shape[:2]
        self.counters["channel.links"] += c_cells * n_users

    def _count_fallback(self, fn, args, kwargs, out):
        self.counters["beam_mgmt.csirs_fallbacks"] += int(bool(out.fallback))

    def _count_nonfinite_sinr(self, fn, args, kwargs, out):
        self.counters["beam_mgmt.nonfinite_sinr"] += int(
            np.count_nonzero(~np.isfinite(out.sinr.value)))

    def _count_zero_pmi(self, fn, args, kwargs, out):
        feedback = out[0]
        self.counters["link.pmi_zero_estimates"] += int(
            np.count_nonzero(~feedback.amplitudes.any(axis=1)))

    def _count_schedule(self, fn, args, kwargs, out):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        self.counters["link.schedule.candidates"] += len(bound.arguments["candidates"])
        self.counters["link.schedule.scheduled"] += len(out)
        self.counters["link.empty_schedules"] += int(len(out) == 0)

    # ---------------------------------------------------------- reduction
    def arrays(self) -> dict:
        """The recorded spans as NumPy arrays."""
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start).copy(),
                "end": np.frombuffer(self.end).copy()}

    def totals(self) -> dict:
        """Per span name: inclusive seconds, self seconds and call count."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(covered, a["parent"][has_parent], dur[has_parent])
        n = len(self.names)
        incl = np.bincount(a["name_id"], weights=dur, minlength=n)
        own = np.bincount(a["name_id"], weights=dur - covered, minlength=n)
        calls = np.bincount(a["name_id"], minlength=n)
        return {name: (float(incl[i]), float(own[i]), int(calls[i]))
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write the spans, each with the id of the outermost span it ran under."""
        a = self.arrays()
        root = np.arange(len(a["parent"]))
        for i in np.nonzero(a["parent"] >= 0)[0]:  # parents precede children
            root[i] = root[a["parent"][i]]
        np.savez_compressed(path, names=np.array(self.names), root=root, **a)
