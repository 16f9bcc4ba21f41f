"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once at reduced size (the smallest blocklength of its
grid, fewer Monte Carlo trials), with tracing off and on, and every named
metric must be emitted. The reference check is tested by perturbing a stored
reference by 1% and requiring the run to fail.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import compare  # noqa: E402
from run import METRICS, ROOT, WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference"
SCRATCH = ROOT / ".perfbench" / "test"


def bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
                           *args], capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_benchmark_metric_and_workload_is_described():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    described = json.loads((HERE / "metrics.json").read_text())
    for section in ("end_to_end", "per_layer"):
        assert list(described[section]) == list(METRICS[section])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted(trace):
    result = bench("--workload", "all", "--trace", trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS) * (1 if trace == "0" else 2)
    spec = METRICS["per_layer" if trace == "1" else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {f"{w}/{m}" for w in WORKLOADS for m in spec}
    for key, value in metrics.items():
        assert value["unit"] == spec[key.split("/", 1)[1]]["unit"]
        assert isinstance(value["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in metrics.values())
        return
    for name in ("exact-sweep-b", "covert-sweep-b", "mc-sweep-a"):
        assert metrics[f"{name}/exponents.ipf_calls"]["value"] == 0
    assert metrics["exponents-3x2/exponents.ipf_calls"]["value"] > 0
    assert metrics["mc-sweep-a/typesum.types"]["value"] == 0
    assert metrics["mc-sweep-a/typesum.refused"]["value"] == 1  # one blocklength at smoke size
    assert metrics["exact-sweep-b/simulation.cells_mc"]["value"] == 0
    assert (ROOT / ".perfbench" / "traces" / "exact-sweep-b-seed7.json").is_file()


def _perturb_csv(text: str, column: str) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[0][column] = repr(float(rows[0][column]) * 1.01)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _perturb_json(text: str, key: str) -> str:
    data = json.loads(text)
    data[key] *= 1.01
    return json.dumps(data)


PERTURBATIONS = {
    "exponents-3x2": lambda t: _perturb_json(t, "theta"),
    "exact-sweep-b": lambda t: _perturb_csv(t, "beta"),
    "covert-sweep-b": lambda t: _perturb_csv(t, "d_n_exact"),
}


@pytest.mark.parametrize("name", list(PERTURBATIONS))
def test_run_fails_against_a_reference_perturbed_by_one_percent(name):
    ref_dir = SCRATCH / f"perturbed-{name}"
    shutil.rmtree(ref_dir, ignore_errors=True)
    shutil.copytree(REFERENCE, ref_dir)
    path = ref_dir / f"{name}.out"
    path.write_text(PERTURBATIONS[name](path.read_text()))
    result = bench("--workload", name, "--trace", "0", "--reference", str(ref_dir))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_interpreter_share_counts_promptly_answered_instants():
    from sample import PROBE_INTERVAL_S as P, SpeedProbe

    probe = SpeedProbe(numpy=None)
    probe.started, probe.stopped = 0.0, 40 * P
    # instants 1-10 answered at once; a native call swallows 11-29 and ends
    # just after instant 30; a long call ends 3 ms after 34; 35-39 at once
    probe.starts = ([k * P + 1e-4 for k in range(1, 11)] + [30 * P + 1e-4, 34 * P + 3e-3]
                    + [k * P + 1e-4 for k in range(35, 40)])
    assert probe.interpreter_share() == pytest.approx(15 / 40)


def test_monte_carlo_tolerance_follows_the_wilson_widths():
    want = (REFERENCE / "mc-sweep-a.out").read_text()
    assert compare("simulate", want, want) == []
    row = next(csv.DictReader(io.StringIO(want)))
    width = 2.5 * 2 ** 0.5 * float(row["beta_ci"])  # both half-widths equal here
    inside = want.replace(row["beta"], repr(float(row["beta"]) + 0.9 * width), 1)
    outside = want.replace(row["beta"], repr(float(row["beta"]) + 1.1 * width), 1)
    assert compare("simulate", inside, want) == []
    assert len(compare("simulate", outside, want)) == 1
    # a cell computed exactly (zero half-width) is held to the reference's width alone
    exact = want.replace(row["beta_ci"], "0.0", 1)
    assert compare("simulate", exact, want) == []
