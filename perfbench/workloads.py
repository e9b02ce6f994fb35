"""The benchmark's workloads, the loops that measure them, and their metrics.

Each workload runs in one process with one BLAS/OpenMP thread (pinned by
``run.py`` before NumPy loads).  A run sets up several times, then repeats
rounds of identical, user-visible work until ``seconds`` have passed:

* ``eval-default``: a round is one ``beamweaver evaluate --codebook dft``
  call per drop of a fixed drop set, with an empty config (the default
  ``ScenarioConfig``).  The drop set is drawn from the workload seed.  A
  drop is timed by one timer around ``metrics.evaluate_drop``; the time
  before it in each call is that call's set-up.
* ``train-desk`` and ``train-neural-4x4``: a round is one one-epoch
  ``nbl.train`` call from a fresh generator on a dataset built from the
  workload seed, in the call order of ``cli.train`` (dataset, generator,
  ``nbl.train``).  The CLI cannot express these scenes: its schema has no
  ``hotspot_sigma`` or ``angle_spread_deg``.  A step is the time between
  two ``nbl.train`` callbacks (the first from the start of the call).

Why repeated rounds: repeating identical work gives each drop or step
several timings, and its median over them is far steadier from run to run
than a single timing (or than the fastest one).  Latency percentiles are
taken over those per-drop or per-step medians; throughput divides the work
of one round by the sum of its pieces' medians.

Why every time is scaled to a reference host speed: on a shared host a
fixed piece of work runs at one of two speeds about 1.5x apart, and each
speed lasts 10-40 s, so a whole run can fall into the slow one.  Every
timed piece (a drop, an optimizer step, a validation pass, a set-up) is
bracketed by a fixed probe (``probe_s``), and its time is multiplied by
``PROBE_REF_S`` over the mean of the two probes around it.  The probe's
NumPy and interpreter mix slows by the same factor as these workloads
(within about 5%), so a figure reads the seconds the work would take at the
reference speed.  The raw wall-clock figures are printed beside them.

Every drop or step is checked (``checks.py``), repeats included, and must
reproduce its first output exactly; one that raises or fails counts as
failed.  After the measured window a pinned reference input is run and
compared with the stored reference outputs.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

BATCH_SIZE = 4
VAL_FRACTION = 0.1
NEW_USER_PROB = 0.2  # cli.train's default
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
OVERHEAD_PAIRS = 3
REF_SEED = 0
# The package keys its RNG streams on uint64 seeds, and `evaluate` and
# `build_dataset` multiply the seed they are given by 1000003; the eval drop
# set multiplies the workload seed by 100003 before that.  Workload seeds are
# therefore folded into [0, INPUT_SEEDS), which leaves small seeds unchanged.
INPUT_SEEDS = 2 ** 24
# The probe's time at the fast speed of the host the bounds were set on (a
# 2-vCPU Intel Xeon VM); it fixes the scale of every reported time.
PROBE_REF_S = 0.0029
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((64, 64))

# End-to-end metrics (untraced run).  Latency is per drop on eval-default
# and per optimizer step on the train workloads; throughput counts drops per
# second of `evaluate`, or trained samples per second of `nbl.train`
# (validation included).
E2E = {
    "throughput_per_s": "1/s",
    "latency_s_p50": "s",
    "latency_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics every workload exercises (traced run).  The full table,
# including layers only one workload reaches, is printed and saved beside
# them; it is not part of the fixed metric set because a layer a workload
# never calls would read 0 on every run.
PER_LAYER = {
    "channel.generate_channels.self_s": "s",
    "channel.links": "count",
    "channel.s_per_link": "s",
    "beam_mgmt.aggregate_feedback.self_s": "s",
    "beam_mgmt.select_csirs_subset.self_s": "s",
    "beam_mgmt.csirs_sinr.s": "s",
    "beam_mgmt.csirs_sinr.self_s": "s",
    "beam_mgmt.csirs_sinr.calls": "count",
    "beam_mgmt.achievable_se.self_s": "s",
    "codebook.build_dft_ssb.s": "s",
    "codebook.build_dft_csirs.s": "s",
    "autodiff.matmul.fwd_s": "s",
    "autodiff.matmul.calls": "count",
    "autodiff.hermitian_inverse.fwd_s": "s",
    "autodiff.add.fwd_s": "s",
    "autodiff.mul.fwd_s": "s",
    "autodiff.conj.fwd_s": "s",
    "autodiff.real.fwd_s": "s",
    "autodiff.swapaxes.fwd_s": "s",
    "autodiff.concat.fwd_s": "s",
    "autodiff.select_cells.fwd_s": "s",
    "autodiff.sum_axis.fwd_s": "s",
    "autodiff.div.fwd_s": "s",
    "autodiff.log2_1p.fwd_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.spans": "count",
}


@dataclass(frozen=True)
class EvalWorkload:
    REF_SUFFIX = ".csv"  # the reference is the metrics.csv itself

    name: str
    why: str
    config_doc: dict = field(default_factory=dict)  # the --config document
    drops: int = 78  # distinct drops, evaluated in repeated rounds
    ref_drops: int = 3


@dataclass(frozen=True)
class TrainWorkload:
    REF_SUFFIX = ".json"  # loss curve and parameter fingerprints

    name: str
    why: str
    scenario: object  # beamweaver.channel.ScenarioConfig
    dims: object  # beamweaver.nbl.NblDims
    mode: str  # "direct" or "neural"
    lr: float
    ssb_weight: float
    samples: int  # dataset size
    ref_samples: int = 10
    ref_epochs: int = 2


def desk_scenario():
    """The acceptance "desk" scene (tests/test_acceptance.py::_desk_config)."""
    from beamweaver import channel as ch
    return ch.ScenarioConfig(
        c_cells=3, k_subcarriers=16, n_rx=2, user_count_range=(4, 8),
        n_hotspots=3, hotspot_fraction=1.0, hotspot_sigma=5.0,
        angle_spread_deg=3.0, cluster_count=3,
        geometry=ch.ArrayGeometry(n_x=8, n_y=8, dual_polarized=True))


def workloads() -> dict:
    from beamweaver import channel as ch
    from beamweaver import nbl
    desk = desk_scenario()
    small = replace(desk, geometry=ch.ArrayGeometry(n_x=4, n_y=4, dual_polarized=True))
    return {w.name: w for w in [
        EvalWorkload(
            "eval-default",
            "evaluate --codebook dft at the default scenario: channel "
            "synthesis and the scheduler dominate, autodiff runs forward only"),
        TrainWorkload(
            "train-desk",
            "direct training at the desk scene: autodiff forward plus "
            "backward, matmul backward heaviest; channel only in set-up",
            desk, nbl.NblDims(l_max=24), "direct", lr=5e-3, ssb_weight=1.0,
            samples=100),
        TrainWorkload(
            "train-neural-4x4",
            "neural training on the 4x4 desk scene: conv2d ops and small "
            "matmuls, so a change tuned for large matmuls shows here",
            small, nbl.NblDims(l_max=16, n_cb=16, n_csi=8, b_g=2,
                               elevation_window=(-1.01, 1.01)),
            "neural", lr=1e-3, ssb_weight=2.0, samples=60),
    ]}


# ------------------------------------------------------------- helpers

def input_seed(seed: int) -> int:
    """The seed the workload's inputs are drawn from (see INPUT_SEEDS)."""
    return seed % INPUT_SEEDS


def probe_s() -> float:
    """Wall time of one fixed piece of NumPy and interpreter work."""
    t0 = time.perf_counter()
    x = _PROBE_MATRIX
    for _ in range(100):
        x = np.tanh(x @ _PROBE_MATRIX * 0.1)
    total = 0
    for i in range(10000):
        total += i * i
    return time.perf_counter() - t0


def at_ref_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """``seconds`` scaled from the speed the probes around it saw to the reference."""
    return seconds * PROBE_REF_S * 2.0 / (probe_before + probe_after)


def percentile(values, q):
    """Linear-interpolation percentile (NumPy's default) of a sample."""
    return float(np.percentile(np.asarray(values, float), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(src: Path) -> float:
    """Median time of `import beamweaver.cli` in a fresh interpreter, at the
    reference speed."""
    env_cmd = [sys.executable, "-c",
               f"import sys; sys.path.insert(0, {str(src)!r}); import beamweaver.cli"]
    times = []
    for _ in range(IMPORT_REPEATS):
        p0 = probe_s()
        t0 = time.perf_counter()
        subprocess.run(env_cmd, check=True)
        t1 = time.perf_counter()
        times.append(at_ref_speed(t1 - t0, p0, probe_s()))
    return statistics.median(times)


@contextlib.contextmanager
def patched(owner, name, wrapper_factory):
    """Temporarily replace ``owner.name`` with ``wrapper_factory(original)``."""
    original = getattr(owner, name)
    setattr(owner, name, wrapper_factory(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@dataclass
class Measurement:
    """Repeated rounds of identical work; timings keep every repeat."""

    attempted: int = 0  # drops or optimizer steps run, repeats included
    failed: int = 0
    failures: list = field(default_factory=list)
    work: int = 0  # drops in the drop set, or trained samples per round
    # drop or step -> its times at the reference speed
    unit_s: dict = field(default_factory=dict)
    # the pieces that make up a round's time in `evaluate` (one call per
    # drop) or `nbl.train` (its steps, then validation) -> their times at
    # the reference speed
    busy_unit_s: dict = field(default_factory=dict)
    setups: list = field(default_factory=list)  # at the reference speed
    rounds: int = 0
    # wall-clock seconds of those pieces, probes excluded
    busy_s: float = 0.0
    validation_s: float = 0.0
    wall_unit_s: dict = field(default_factory=dict)
    steps: int = 0

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.failures) < 5:
            self.failures.append(why)

    def latencies(self) -> list:
        """Per drop or step: the median of its repeats."""
        return [statistics.median(v) for v in self.unit_s.values()]

    def round_s(self) -> float:
        """A round's time, each piece at the median of its repeats."""
        return sum(statistics.median(v) for v in self.busy_unit_s.values())

    def wall_round_s(self) -> float:
        """round_s in wall-clock seconds, not scaled to the reference speed."""
        return sum(statistics.median(v) for v in self.wall_unit_s.values())


# ------------------------------------------------------------- eval

def _evaluate(doc_path: Path, seed: int, drops: int, out_dir: Path) -> None:
    """One `beamweaver evaluate --codebook dft` call, in process."""
    from beamweaver import cli
    args = ["evaluate", "--config", str(doc_path), "--seed", str(seed),
            "--out", str(out_dir), "--codebook", "dft", "--drops", str(drops),
            "--workers", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(args, standalone_mode=False)


def _eval_config(w: EvalWorkload, run_dir: Path) -> Path:
    path = run_dir / "config.json"
    path.write_text(json.dumps(w.config_doc))
    return path


def _stratified_cli_seeds(config, seed: int):
    """CLI seeds whose single drop cycles through every user count.

    Per-drop time follows the drop's user count (R^2 about 0.8 at the
    default scene), so drawing counts at random made run-to-run spread
    follow the seed.  Each cycle visits every count of
    ``user_count_range`` once, in an order drawn from ``seed``; the drop
    for a count is the next CLI seed whose drop has that many users.  The
    counts stay uniform, as `evaluate` draws them.
    """
    from beamweaver import channel as ch
    lo, hi = config.user_count_range
    order = np.random.default_rng(seed)
    candidate = seed * 100_003
    while True:
        for target in order.permutation(np.arange(lo, hi + 1)):
            while ch.draw_user_count(config, candidate * 1000003) != target:
                candidate += 1
            yield candidate
            candidate += 1


def measure_eval(w: EvalWorkload, seed: int, seconds: float, run_dir: Path) -> Measurement:
    from beamweaver import cli, metrics as mx
    m = Measurement()
    doc_path = _eval_config(w, run_dir)
    doc = cli.load_config(doc_path)
    config = cli.scenario_from(doc)
    l_max = cli.dims_from(doc).l_max
    drop_s = []

    def drop_timer(evaluate_drop):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            drop_s.append(t0)
            out = evaluate_drop(*args, **kwargs)
            drop_s.append(time.perf_counter() - t0)
            return out
        return timed

    out_dir = run_dir / "eval"
    drop_set = list(itertools.islice(_stratified_cli_seeds(config, seed), w.drops))
    first_output = {}
    deadline = time.perf_counter() + seconds
    with patched(mx, "evaluate_drop", drop_timer):
        while m.rounds == 0 or time.perf_counter() < deadline:
            for cli_seed in drop_set:
                if m.rounds and time.perf_counter() >= deadline:
                    break
                shutil.rmtree(out_dir, ignore_errors=True)
                drop_s.clear()
                m.attempted += 1
                p0 = probe_s()
                t0 = time.perf_counter()
                try:
                    _evaluate(doc_path, cli_seed, 1, out_dir)
                except (Exception, SystemExit) as e:  # the CLI exits on its own errors
                    m.fail(1, f"evaluate --seed {cli_seed} raised {e!r}")
                    continue
                finally:
                    t1 = time.perf_counter()
                    m.busy_s += t1 - t0
                p1 = probe_s()
                if len(drop_s) != 2:
                    m.fail(1, f"evaluate --seed {cli_seed} ran {len(drop_s) // 2} drops")
                    continue
                m.wall_unit_s.setdefault(cli_seed, []).append(t1 - t0)
                m.busy_unit_s.setdefault(cli_seed, []).append(at_ref_speed(t1 - t0, p0, p1))
                m.unit_s.setdefault(cli_seed, []).append(at_ref_speed(drop_s[1], p0, p1))
                m.setups.append(at_ref_speed(drop_s[0] - t0, p0, p1))
                output = (out_dir / "metrics.csv").read_bytes()
                first = first_output.setdefault(cli_seed, output)
                problems = checks.eval_rows(out_dir / "metrics.csv", [cli_seed * 1000003],
                                            config.c_cells, l_max)
                if output != first:
                    problems.append(f"drop of --seed {cli_seed}: output changed on repeat")
                if problems:
                    m.fail(1, problems[0])
            m.rounds += 1
    m.work = len(drop_set)
    return m


def eval_reference(w: EvalWorkload, run_dir: Path) -> bytes:
    """metrics.csv bytes of the pinned reference evaluation."""
    doc_path = _eval_config(w, run_dir)
    out_dir = run_dir / "ref"
    shutil.rmtree(out_dir, ignore_errors=True)
    _evaluate(doc_path, REF_SEED, w.ref_drops, out_dir)
    return (out_dir / "metrics.csv").read_bytes()


# ------------------------------------------------------------- train

def _train_setup(w: TrainWorkload, seed: int, n_samples: int):
    """Prior codebooks and dataset, as `cli.train` builds them."""
    from beamweaver import channel as ch, codebook as cb, nbl
    cfg, dims = w.scenario, w.dims
    sigma2 = ch.noise_variance(cfg)
    prior = [cb.build_dft_ssb(cfg.geometry, dims.l_max, dims.elevation_window)
             for _ in range(cfg.c_cells)]
    data = nbl.build_dataset(cfg, prior, n_samples, seed, sigma2,
                             new_user_prob=NEW_USER_PROB)
    return data, sigma2


def _generator(w: TrainWorkload, seed: int):
    """(tape, generate) for a fresh generator, as `cli.train` makes them."""
    from beamweaver import nbl
    from beamweaver.autodiff import Tape
    cfg = w.scenario
    tape = Tape()
    if w.mode == "direct":
        gen = nbl.DirectGenerator(tape, cfg.c_cells, cfg.geometry, w.dims)
        return tape, gen.generate
    gen = nbl.NeuralGenerator(tape, cfg.c_cells, w.dims,
                              n_pol=2 if cfg.geometry.dual_polarized else 1,
                              seed=seed)
    return tape, lambda obsc: gen.generate_for(obsc, cfg.geometry)


def _train(w: TrainWorkload, data, sigma2, tape, generate, epochs, seed, callback):
    from beamweaver import nbl
    return nbl.train(data, generate, tape, sigma2, w.dims.n_csi, epochs=epochs,
                     lr=w.lr, batch_size=BATCH_SIZE, seed=seed,
                     ssb_weight=w.ssb_weight, val_fraction=VAL_FRACTION,
                     callback=callback)


def measure_train(w: TrainWorkload, seed: int, seconds: float) -> Measurement:
    m = Measurement()
    for _ in range(SETUP_REPEATS):
        data = None  # let the previous dataset go before building the next
        p0 = probe_s()
        t0 = time.perf_counter()
        data, sigma2 = _train_setup(w, seed, w.samples)
        tape, generate = _generator(w, seed)
        t1 = time.perf_counter()
        m.setups.append(at_ref_speed(t1 - t0, p0, probe_s()))
    n_val = int(round(len(data) * VAL_FRACTION))
    m.work = len(data) - n_val
    steps_per_round = math.ceil(m.work / BATCH_SIZE)
    first_curve = None
    deadline = time.perf_counter() + seconds
    while m.rounds == 0 or time.perf_counter() < deadline:
        if m.rounds:
            tape, generate = _generator(w, seed)
        # piece i (a step, then validation) runs from starts[i] to ends[i],
        # between probes[i] and probes[i + 1]
        losses, starts, ends, probes = [], [], [], [probe_s()]

        def on_step(step, loss):
            ends.append(time.perf_counter())
            losses.append(loss)
            probes.append(probe_s())
            starts.append(time.perf_counter())

        m.attempted += steps_per_round
        m.rounds += 1
        starts.append(time.perf_counter())
        try:
            curve = _train(w, data, sigma2, tape, generate, 1, seed, on_step)
        except Exception as e:  # a diverged or crashed round fails its steps
            m.fail(steps_per_round, f"nbl.train round {m.rounds} raised {e!r}")
            continue
        ends.append(time.perf_counter())
        probes.append(probe_s())
        n_steps = len(losses)
        for i, (start, end) in enumerate(zip(starts, ends)):
            dt = end - start
            m.busy_s += dt
            m.wall_unit_s.setdefault(i, []).append(dt)
            m.busy_unit_s.setdefault(i, []).append(at_ref_speed(dt, probes[i], probes[i + 1]))
            if i < n_steps:
                m.unit_s.setdefault(i, []).append(at_ref_speed(dt, probes[i], probes[i + 1]))
        m.validation_s += ends[-1] - starts[-1]
        m.steps += n_steps
        first_curve = curve if first_curve is None else first_curve
        bad = checks.train_round(curve, losses, steps_per_round, tape)
        if curve != first_curve:
            bad = bad or ["loss curve changed on repeat"] * steps_per_round
        if bad:
            m.fail(len(bad), bad[0])
    return m


def train_reference(w: TrainWorkload, run_dir: Path) -> bytes:
    """Checkpoint bytes plus loss curve of the pinned reference training."""
    from beamweaver import nbl
    data, sigma2 = _train_setup(w, REF_SEED, w.ref_samples)
    tape, generate = _generator(w, REF_SEED)
    losses = []
    _train(w, data, sigma2, tape, generate, w.ref_epochs, REF_SEED,
           lambda step, loss: losses.append(loss))
    path = run_dir / "ref.bmck"
    nbl.save_checkpoint(path, tape)
    return checks.pack_train_output(losses, path.read_bytes())


# ------------------------------------------------------------- a run

def reference_output(w, run_dir: Path) -> bytes:
    if isinstance(w, EvalWorkload):
        return eval_reference(w, run_dir)
    return train_reference(w, run_dir)


def timed_reference(w, run_dir: Path):
    """reference_output and its time at the reference speed."""
    p0 = probe_s()
    t0 = time.perf_counter()
    out = reference_output(w, run_dir)
    return out, at_ref_speed(time.perf_counter() - t0, p0, probe_s())


def run(w, seed: int, seconds: float, trace: bool, src: Path) -> dict:
    """Measure one workload; returns metrics, counts and the reference check."""
    run_dir = OUT / f"{w.name}-s{seed}-t{int(trace)}"
    seed = input_seed(seed)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    import_s = import_seconds(src)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        if isinstance(w, EvalWorkload):
            m = measure_eval(w, seed, seconds, run_dir)
        else:
            m = measure_train(w, seed, seconds)
    finally:
        if tracer:
            tracer.uninstall()
    rss = peak_rss_mb()
    if not m.unit_s:
        raise RuntimeError(f"no drop or step completed: {m.failures}")

    # pinned reference input: compare with the stored outputs; a traced run
    # also repeats it traced, to show tracing changes no output byte
    plain = reference_output(w, run_dir)
    problems = checks.compare_reference(w, plain, run_dir / "check.bmck")
    overhead = None
    if tracer:
        # warm untraced and traced runs alternate (the first run above also
        # paid the reference input's one-off warm-up); a reference run is
        # short, so the overhead compares the medians of several
        plain_s, traced_s = [], []
        for _ in range(OVERHEAD_PAIRS):
            plain_s.append(timed_reference(w, run_dir)[1])
            ref_tracer = Tracer()
            ref_tracer.install()
            try:
                traced, seconds = timed_reference(w, run_dir)
            finally:
                ref_tracer.uninstall()
            traced_s.append(seconds)
            if traced != plain:
                problems.append("reference output differs with tracing on")
        overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0

    latencies = m.latencies()
    e2e = {
        "throughput_per_s": (m.work / m.round_s(), "1/s", m.work),
        "latency_s_p50": (percentile(latencies, 50), "s", len(latencies)),
        "latency_s_p90": (percentile(latencies, 90), "s", len(latencies)),
        "setup_s": (import_s + statistics.median(m.setups), "s", len(m.setups)),
        "peak_rss_mb": (rss, "MB", 1),
    }
    # wall-clock throughput, and how much slower than the reference the host ran
    wall = {"wall_throughput_per_s": (m.work / m.wall_round_s(), "1/s", m.work),
            "host_slowdown": (m.wall_round_s() / m.round_s(), "x", m.rounds)}
    result = {"e2e": e2e, "wall": wall, "measurement": m, "problems": problems,
              "import_s": import_s, "run_dir": run_dir}
    if tracer:
        result["layers"] = layer_table(w, tracer, m, overhead)
        result["absent"] = tracer.absent
        tracer.save(run_dir / "spans.npz")
    return result


def layer_table(w, tracer: Tracer, m: Measurement, overhead: float) -> dict:
    """Every per-layer metric: name -> (value or None if absent, unit)."""
    from tracer import AUTODIFF_OPS, FUNCTIONS
    totals = tracer.totals()  # names appear once wrapped, so absent = missing
    table = {}
    for span in dict.fromkeys(span for _, _, span, _ in FUNCTIONS):
        incl, own, calls = totals.get(span, (None, None, None))
        table[span + ".s"] = (incl, "s")
        table[span + ".self_s"] = (own, "s")
        table[span + ".calls"] = (calls, "count")
    for op in AUTODIFF_OPS:
        fwd = totals.get(f"autodiff.{op}", (None, None, None))
        bwd = totals.get(f"autodiff.{op}.bwd", (None, None, None))
        table[f"autodiff.{op}.fwd_s"] = (fwd[1], "s")
        table[f"autodiff.{op}.bwd_s"] = (bwd[1], "s")
        table[f"autodiff.{op}.calls"] = (fwd[2], "count")
    c = tracer.counters
    bwd_nodes = sum(v[2] for k, v in totals.items() if k.endswith(".bwd"))
    links = c["channel.links"]
    gen_self = totals.get("channel.generate_channels", (0.0, 0.0, 0))[1]
    root = "metrics.evaluate_drop" if isinstance(w, EvalWorkload) else "nbl.train"
    root_incl, root_self, _ = totals.get(root, (0.0, 0.0, 0))
    busy = m.busy_s
    table.update({
        "autodiff.backward.graph_s": (totals.get("autodiff.backward", (0, 0.0, 0))[1], "s"),
        "autodiff.nodes_per_step": (bwd_nodes / m.steps if m.steps else 0.0, "count"),
        "channel.links": (links, "count"),
        "channel.s_per_link": (gen_self / links if links else 0.0, "s"),
        "link.schedule.candidates": (c["link.schedule.candidates"], "count"),
        "link.schedule.scheduled": (c["link.schedule.scheduled"], "count"),
        "link.schedule.useful_ratio": (
            c["link.schedule.scheduled"] / c["link.schedule.candidates"]
            if c["link.schedule.candidates"] else 0.0, "fraction"),
        "link.pmi_zero_estimates": (c["link.pmi_zero_estimates"], "count"),
        "link.empty_schedules": (c["link.empty_schedules"], "count"),
        "beam_mgmt.csirs_fallbacks": (c["beam_mgmt.csirs_fallbacks"], "count"),
        "beam_mgmt.nonfinite_sinr": (c["beam_mgmt.nonfinite_sinr"], "count"),
        "nbl.validation_share": (m.validation_s / busy if busy else 0.0, "fraction"),
        "trace.coverage": (1.0 - root_self / root_incl if root_incl else 0.0, "fraction"),
        "trace.overhead_frac": (overhead, "fraction"),
        "trace.spans": (len(tracer.start), "count"),
    })
    return table
