"""Seeded end-to-end benchmark of the covertdht command-line interface.

Run from the root of a checkout (nothing is installed; ``src`` goes on
PYTHONPATH):

    python3 perfbench/run.py --workload exact-sweep-b --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seconds 32

Each sample is a fresh interpreter (sample.py) that imports covertdht.cli,
loads the workload config and calls ``covertdht.cli.main``. A CLI user pays
import and every in-process cache on each invocation, so an in-process repeat
loop would credit a module-level cache with a gain no user sees. After one
warm-up import, samples run one at a time until the next one would end more
than ``--seconds`` after the run began (at least one runs), and every
sample's output is checked against the stored reference outputs.

``--trace 0`` reports the end-to-end metrics: medians over the samples of
the times scaled to the reference host speed (sample.SpeedProbe; README.md).
``--trace 1`` alternates untraced and traced samples with one ``-X
importtime`` import, and reports the per-layer metrics (medians over the
traced samples); the counters and spans of the first traced sample are
written to ``.perfbench/traces/``. BENCHMARK.json gives every metric's unit
and direction; metrics.json says what each means and which end-to-end metric
and workload it should move.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from check import compare
from tracer import import_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METRICS = {section: {m["name"]: m for m in spec}  # BENCHMARK.json's metric lists by name
           for section, spec in json.loads((ROOT / "BENCHMARK.json").read_text()).items()
           if section in ("end_to_end", "per_layer")}
SAMPLE_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    command: str  # CLI subcommand
    args: tuple[str, ...] = ()  # extra CLI arguments
    seeded: bool = False  # --seed reaches the CLI (Monte Carlo); else seed-independent
    smoke_n: int | None = None  # the one blocklength of a smoke run (None: full size)
    smoke_trials: int | None = None  # Monte Carlo trials of a smoke run

    def argv(self, name: str, seed: int, smoke: bool) -> list[str]:
        argv = [self.command, config_path(name), *self.args]
        if self.seeded:
            argv += ["--seed", str(seed)]
        if smoke and self.smoke_n is not None:
            argv += ["--n", str(self.smoke_n)]
        if smoke and self.smoke_trials is not None:
            argv += ["--trials", str(self.smoke_trials)]
        return argv


WORKLOADS = {
    "exponents-3x2": Workload("exponents", ("--json",)),
    "exact-sweep-b": Workload("simulate", smoke_n=24),
    "covert-sweep-b": Workload("verify-covertness", smoke_n=80),
    "mc-sweep-a": Workload("simulate", seeded=True, smoke_n=100, smoke_trials=20_000),
}


def config_path(name: str) -> str:
    return str(HERE / "workloads" / f"{name}.json")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> tuple[subprocess.CompletedProcess | None, float]:
    """Run one child interpreter to its end; returns (process or None, seconds)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    return proc, time.perf_counter() - start


def run_sample(name: str, seed: int, smoke: bool, reference: Path, trace: bool,
               trace_out: str | None = None, run_id: str = "") -> dict:
    """One fresh-process sample; ``problems`` is empty when it passed."""
    wl = WORKLOADS[name]
    spec = {"argv": wl.argv(name, seed, smoke), "config": config_path(name),
            "trace": trace, "trace_out": trace_out, "run_id": run_id}
    proc, total_s = run_child([str(HERE / "sample.py"), json.dumps(spec)])
    if proc is None:
        return {"problems": [f"timed out after {SAMPLE_TIMEOUT_S} s"]}
    try:
        result = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {"problems": [f"sample exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]}
    result["total_s"] = total_s - result["probe_s"]
    if result["rc"] != 0:
        result["problems"] = [f"CLI exit {result['rc']}: {result['stderr'].strip()[-500:]}"]
    else:
        want = (reference / f"{name}.out").read_text()
        ns = [wl.smoke_n] if smoke and wl.smoke_n is not None else None
        result["problems"] = compare(wl.command, result["stdout"], want, ns)
    return result


def import_sample() -> dict[str, float]:
    """Cumulative import seconds of each covertdht module, from ``-X importtime``."""
    proc, _ = run_child(["-X", "importtime", "-c", "import covertdht.cli"])
    return import_times(proc.stderr) if proc is not None and proc.returncode == 0 else {}


def median_of(rows: list[dict], key: str) -> float:
    values = [r[key] for r in rows if key in r]
    return float(statistics.median(values)) if values else 0.0


def at_reference_speed(values: dict, speed: float, spec: dict) -> dict:
    """Scale the seconds (and rates) among ``values``, measured while the host
    ran at ``speed`` (sample.SpeedProbe), to the reference speed."""
    scale = {"s": speed, "1/s": 1.0 / speed}
    return {k: v * scale.get(spec[k]["unit"], 1.0) if k in spec else v
            for k, v in values.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 reference: Path) -> dict:
    """Sample one workload for about ``seconds``; returns the result object."""
    deadline = time.perf_counter() + seconds
    run_child(["-c", "import covertdht.cli"])  # warm the bytecode and file caches
    untraced, traced, imports = [], [], []
    longest = 0.0
    while True:
        start = time.perf_counter()
        untraced.append(run_sample(name, seed, smoke, reference, trace=False))
        if trace:
            out = None
            if not traced:
                trace_dir = ROOT / ".perfbench" / "traces"
                trace_dir.mkdir(parents=True, exist_ok=True)
                out = str(trace_dir / f"{name}-seed{seed}.json")
            traced.append(run_sample(name, seed, smoke, reference, trace=True,
                                     trace_out=out, run_id=f"{name}-seed{seed}"))
            imports.append(import_sample())
        longest = max(longest, time.perf_counter() - start)
        if time.perf_counter() + 1.1 * longest > deadline:  # the next one would overrun
            break

    samples = untraced + traced
    problems = [p for s in samples for p in s["problems"]]
    failed = sum(1 for s in samples if s["problems"])
    e2e = METRICS["end_to_end"]

    def scaled(rows: list[dict]) -> list[dict]:
        return [at_reference_speed(s, s["speed"], e2e) for s in rows if "wall_s" in s]

    timed = scaled(untraced)
    if trace:
        spec = METRICS["per_layer"]
        layers = [at_reference_speed(s["layers"], s["speed"], spec)
                  for s in traced if "layers" in s]
        values = {m: median_of(layers + imports, m) for m in spec}
        wall, traced_wall = median_of(timed, "wall_s"), median_of(scaled(traced), "wall_s")
        values["trace.overhead_frac"] = traced_wall / wall - 1.0 if wall else 0.0
    else:
        spec = e2e
        values = {m: median_of(timed, m) for m in spec}
    env = next((s["env"] for s in samples if "env" in s), {})
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": spec[m]["unit"]} for m in spec},
        "samples": len(timed) if not trace else len(traced),
        "raw": {m: median_of(untraced, m) for m in e2e},
        "speed": median_of(untraced, "speed"),
        "share": median_of(untraced, "interpreter_share"),
        "problems": problems,
        "env": env,
    }


def report(name: str, seed: int, res: dict) -> None:
    """Human-readable lines for one workload (never the last line of stdout)."""
    print(f"{name}: seed {seed}, {res['samples']} samples, attempted {res['attempted']}, "
          f"failed {res['failed']}, error_rate {res['failed'] / res['attempted']:g} fraction")
    for m, v in res["metrics"].items():
        print(f"  {m:32s} {v['value']:.6g} {v['unit']}")
    raw = ", ".join(f"{m} {v:.6g}" for m, v in res["raw"].items())
    print(f"  untraced medians before speed scaling: {raw}; host speed {res['speed']:.4g}, "
          f"interpreter share {res['share']:.3g}")
    print(f"  env {json.dumps(res['env'])}")
    for p in res["problems"][:20]:
        print(f"  problem: {p}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed; only mc-sweep-a's Monte Carlo stream uses it")
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="how long to keep starting samples (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink each workload's blocklength grid and trials")
    parser.add_argument("--reference", type=Path, default=HERE / "reference",
                        help="directory of stored reference outputs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "covertdht" / "cli.py").is_file():
        print(f"error: no covertdht sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     args.smoke, args.reference)
        report(name, args.seed, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{m}": v for name, res in results.items()
                   for m, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
