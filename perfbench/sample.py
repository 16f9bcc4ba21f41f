"""One benchmark sample: a fresh interpreter running one covertdht CLI command.

Started by run.py as ``python3 perfbench/sample.py '<spec json>'`` with
``src`` on PYTHONPATH. The spec holds ``argv`` (the CLI arguments),
``config`` (the workload config path), ``trace`` and, for a traced sample
that should keep its spans, ``trace_out`` and ``run_id``.

Set-up is importing numpy and ``covertdht.cli`` plus ``ExperimentConfig.load``
(which validates); the command is ``covertdht.cli.main(argv)``, which parses the
config again as any invocation does. The command's stdout and stderr are
captured in memory. One JSON object is printed on the real stdout.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
import json
import math
import os
import platform
import resource
import signal
import sys
import time
import traceback

#: Wall time between two speed probes.
PROBE_INTERVAL_S = 0.025
#: Probe rounds per second that count as speed 1.0, near the median rate on
#: the host the benchmark was built on: where the host runs at this speed the
#: scale factor is 1 whatever the interpreter share.
REFERENCE_PROBE_RATE = 3000.0
#: How native time follows the probe rate (d log native speed / d log rate),
#: measured with drift.py: 0.17 for numpy's multinomial sampling, 0.3 to 0.4
#: for np.log over a large array; 0.2 fits mc-sweep-a's samples best.
NATIVE_ELASTICITY = 0.2
#: A probe that starts later than this after its timer instant was held up by
#: a native call (or a descheduled process): the instant falls in native time.
#: Probes that find the interpreter running start 0.05 to 0.2 ms after theirs.
PROMPT_S = 0.00025


def probe_round(np) -> None:
    """The fixed round of work whose rate measures the host's speed."""
    for _ in range(40):
        a = np.arange(16.0) / 16
        float((a * np.log(a + 1)).sum())


class SpeedProbe:
    """Measures the host's speed on this CPU while the sample runs.

    On a shared host the speed of one interpreter drifts by tens of percent
    over tens of seconds, with no stolen time, so samples taken minutes apart
    are not comparable. Every PROBE_INTERVAL_S of wall time, SIGALRM runs a
    fixed round of small numpy operations in the main thread and times it:
    of the rounds tried (a pure-Python loop, dict building, a strided walk
    over a large list, small numpy calls), its rate follows the workloads'
    interpreter time most closely. The round uses nothing from covertdht, so
    a change to the program cannot move it.

    Native code drifts much less than the interpreter (drift.py), so the
    interpreter's share of the sample is scaled by the probe rate and the
    rest by its NATIVE_ELASTICITY-th power. That share is sampled at
    the timer's instants, which fall every PROBE_INTERVAL_S whatever the
    program does: the handler runs within a fraction of a millisecond of an
    instant that finds the main thread running bytecode, but only after the
    call returns when it finds it inside a native call, and a long call
    swallows every instant it spans. The share of instants answered within PROMPT_S is the
    interpreter share ``s``; how the program splits its native work into
    calls longer than PROMPT_S does not move it. With ``q`` the mean round
    rate over REFERENCE_PROBE_RATE, ``speed`` is
    ``(1 - s) * q ** NATIVE_ELASTICITY + s * q``. The time the probes take is subtracted from the timings they fall
    into.
    """

    def __init__(self, numpy):
        self.numpy = numpy
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._cumulative = [0.0]
        self.started = self.stopped = 0.0

    def _probe(self, _signum, _frame) -> None:
        start = time.perf_counter()
        probe_round(self.numpy)
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        self.started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.stopped = time.perf_counter()
        self._cumulative = [0.0, *itertools.accumulate(self.durations)]

    def interpreter_share(self) -> float:
        instants = int((self.stopped - self.started) / PROBE_INTERVAL_S)
        if not instants:
            return 1.0
        answered = {}  # instant index -> whether a probe started within PROMPT_S of it
        for start in self.starts:
            k, late = divmod(start - self.started, PROBE_INTERVAL_S)
            answered[int(k)] = answered.get(int(k), False) or late < PROMPT_S
        # A prompt probe right after an instant whose signal went unanswered
        # ends a native call that spanned both instants.
        prompt = sum(1 for k, quick in answered.items()
                     if quick and (k == 1 or k - 1 in answered))
        return min(1.0, prompt / instants)

    def speed(self) -> float:
        if not self.durations:
            return 1.0
        q = sum(1.0 / d for d in self.durations) / len(self.durations) / REFERENCE_PROBE_RATE
        share = self.interpreter_share()
        return (1.0 - share) * q ** NATIVE_ELASTICITY + share * q

    def seconds(self, begin: float = -math.inf, end: float = math.inf) -> float:
        """Time spent in probes that started between ``begin`` and ``end``
        (after ``stop``)."""
        lo, hi = bisect.bisect_left(self.starts, begin), bisect.bisect_left(self.starts, end)
        return self._cumulative[hi] - self._cumulative[lo]


def main() -> None:
    t0 = time.perf_counter()
    import numpy  # part of set-up, before the probe that uses it

    probe = SpeedProbe(numpy)
    probe.start()
    spec = json.loads(sys.argv[1])
    import covertdht.cli as cli
    from covertdht.config import ExperimentConfig

    ExperimentConfig.load(spec["config"])
    t1 = time.perf_counter()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec.get("run_id", ""))
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(spec["argv"])
    except Exception:  # the sample fails; the benchmark goes on
        rc = None
        err.write(traceback.format_exc())
    end = time.perf_counter()
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import scipy

    result = {
        "rc": rc,
        "setup_s": t1 - t0 - probe.seconds(t0, t1),
        "wall_s": end - start - probe.seconds(start, end),
        "peak_rss_mb": peak_rss_mb,
        "speed": probe.speed(),
        "interpreter_share": probe.interpreter_share(),
        "probe_s": probe.seconds(),
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(probe.seconds)
        if spec.get("trace_out"):
            tracer.write(spec["trace_out"], probe.seconds)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
