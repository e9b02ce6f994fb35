"""Run one benchmark workload of beamweaver and print its metrics.

    python3 perfbench/run.py --workload eval-default --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/``.  Prints the environment, one line per metric (name, value, unit,
sample count; times at the reference host speed, see workloads.py, with the
wall-clock throughput beside them), and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is traced
and the metrics are the per-layer ones.  Run files, a ``result.json`` with
every figure and, for a traced run, ``spans.npz`` go to
``perfbench/out/<workload>-s<seed>-t<trace>/``.

Exit code 0 when the run completed (``correct`` says whether its outputs
passed the checks), 2 for bad arguments or a missing source tree.
"""
import os

# Pinned before NumPy loads: one BLAS/OpenMP thread, one worker process.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)
# One CPU, so that the speed probes and the work they scale run on the same one.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

ALIASES = {
    "eval": {"throughput_per_s": "drops_per_s", "latency_s_p50": "drop_s_p50",
             "latency_s_p90": "drop_s_p90"},
    "train": {"throughput_per_s": "samples_per_s", "latency_s_p50": "step_s_p50",
              "latency_s_p90": "step_s_p90"},
}


def load_package():
    """Import beamweaver from this checkout's src/, never from elsewhere."""
    init = SRC / "beamweaver" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no beamweaver source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import beamweaver
    if Path(beamweaver.__file__).resolve() != init.resolve():
        raise ImportError(f"beamweaver imported from {beamweaver.__file__}, not {SRC}")
    return beamweaver


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    kernels = sys.modules.get("beamweaver._kernels")  # loaded by beamweaver.channel
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workers": 1,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "HAVE_COMPILED": getattr(kernels, "HAVE_COMPILED", "absent"),
        "git_commit": commit,
        "machine": platform.machine(),
    }


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fmt(value) -> str:
    return "absent" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        load_package()
    except (FileNotFoundError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import workloads as wl
    table = wl.workloads()
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(table)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    w = table[args.workload]
    env = environment()
    print(f"workload {w.name} seed {args.seed} (inputs from {wl.input_seed(args.seed)}) "
          f"seconds {args.seconds:g} trace {args.trace}")
    print(f"why: {w.why}")
    print("env " + json.dumps(env, sort_keys=True))

    res = wl.run(w, args.seed, args.seconds, bool(args.trace), SRC)
    m = res["measurement"]
    aliases = ALIASES["eval" if isinstance(w, wl.EvalWorkload) else "train"]
    for name, (value, unit, n) in res["e2e"].items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"{label:36s} {value:.6g} {unit} n={n}")
    for name, (value, unit, n) in res["wall"].items():
        print(f"{name:36s} {value:.6g} {unit} n={n}")
    print(f"{'failed_frac':36s} {m.failed / m.attempted:.6g} ({m.failed}/{m.attempted})")
    print(f"{'rounds':36s} {m.rounds} (each drop or step timed at the median of its repeats)")
    layers = res.get("layers", {})
    for name, (value, unit) in layers.items():
        print(f"  {name:44s} {_fmt(value)} {unit}")
    if res.get("absent"):
        print("absent (no longer in the package): " + ", ".join(res["absent"]))
    for why in m.failures + res["problems"]:
        print(f"check failed: {why}")
    print(f"reference check: {'FAILED' if res['problems'] else 'ok'}")
    correct = not res["problems"] and m.failed == 0

    if args.trace:
        metrics = {k: {"value": layers[k][0], "unit": u} for k, u in wl.PER_LAYER.items()}
    else:
        metrics = {k: {"value": res["e2e"][k][0], "unit": u} for k, u in wl.E2E.items()}
    (res["run_dir"] / "result.json").write_text(json.dumps({
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": correct,
        "attempted": m.attempted, "failed": m.failed, "failures": m.failures,
        "problems": res["problems"], "import_s": res["import_s"],
        "rounds": m.rounds, "setups": m.setups,
        "unit_s": {str(k): v for k, v in m.unit_s.items()},
        "busy_unit_s": {str(k): v for k, v in m.busy_unit_s.items()},
        "e2e": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in res["e2e"].items()},
        "wall": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in res["wall"].items()},
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "absent": res.get("absent", []),
    }, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
