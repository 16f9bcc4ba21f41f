"""Regenerate the stored reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Runs each workload once through ``python -m covertdht.cli`` at the default
seed (7) and stores its stdout verbatim. The stored files were made this way
at the commit that added the benchmark; regenerate them only when a change to
the program's outputs is intended and has been checked on its own.
"""

from __future__ import annotations

import sys

from run import HERE, WORKLOADS, run_child


def main() -> int:
    for name, wl in WORKLOADS.items():
        proc, _ = run_child(["-m", "covertdht.cli", *wl.argv(name, seed=7, smoke=False)])
        if proc is None or proc.returncode != 0:
            print(f"{name}: CLI failed", file=sys.stderr)
            return 1
        (HERE / "reference" / f"{name}.out").write_text(proc.stdout)
        print(f"{name}: stored {len(proc.stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
