"""Regenerate the stored reference outputs in perfbench/refs/.

    python3 perfbench/make_refs.py [workload ...]

Run it only for a change that is meant to alter beamweaver's results, and
say so in that change: the benchmark's correctness check compares every run
with these files.
"""
import sys

import run  # pins the thread count before NumPy loads

run.load_package()

import workloads as wl  # noqa: E402
import checks  # noqa: E402


def main(names) -> int:
    table = wl.workloads()
    wl.OUT.mkdir(parents=True, exist_ok=True)
    for name in names or table:
        w = table[name]
        output = wl.reference_output(w, wl.OUT)
        print(f"wrote {checks.write_reference(w, output, wl.OUT / 'refs.bmck')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
