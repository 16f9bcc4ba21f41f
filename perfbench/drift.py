"""How native numpy time follows the speed probe's rate on this host.

    python3 perfbench/drift.py [seconds]

For ``seconds`` (default 120) one process takes turns of 0.15 s each at the
speed probe's round (sample.probe_round), at numpy's multinomial sampling
(the Monte Carlo engine's kernel) and at np.log over a large array. It prints
the coefficient of variation of each rate over the turns, and the elasticity
of each native rate to the probe rate: the slope of log rate on log probe
rate, for which sample.NATIVE_ELASTICITY stands.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from sample import probe_round

TURN_S = 0.15


def rate(fn) -> float:
    calls, start = 0, time.perf_counter()
    while time.perf_counter() - start < TURN_S:
        fn()
        calls += 1
    return calls / (time.perf_counter() - start)


def main(seconds: float) -> None:
    rng = np.random.default_rng(1)
    pvals = np.full(16, 1 / 16)
    x = rng.random(200_000)
    kinds = {
        "probe": lambda: probe_round(np),
        "multinomial": lambda: rng.multinomial(100, pvals, size=2000),
        "log": lambda: np.log(x).sum(),
    }
    rows = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        rows.append({name: rate(fn) for name, fn in kinds.items()})
    logs = {name: np.log([r[name] for r in rows]) for name in kinds}
    for name in kinds:
        values = [r[name] for r in rows]
        line = (f"{name:12s} mean {statistics.mean(values):9.1f}/s  "
                f"cv {statistics.pstdev(values) / statistics.mean(values):.3f}")
        if name != "probe":
            line += f"  elasticity {np.polyfit(logs['probe'], logs[name], 1)[0]:.2f}"
        print(line)
    print(f"{len(rows)} turns of each")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 120.0)
