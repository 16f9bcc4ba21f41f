"""Span tracer for one benchmark sample, installed from outside the package.

After ``covertdht.cli`` is imported, every public module-level function
defined in a covertdht layer is replaced, in each layer namespace that holds
it, by a wrapper that records one span per call: name, start, end, parent
span, the namespace the call went through, the exception it raised (if any)
and the run id. ``ExperimentConfig.load`` is wrapped the same way. Names
imported into another module (``simulation.check_enumerable``) are wrapped
there too, so calls through any namespace are seen.

Generator functions (``typesum.iter_types``) are left alone: a span around
the call would cover only the creation of the generator. Their iteration time
falls into the caller's self time.

Spans stay in memory and are written out once, after the command ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

#: The covertdht modules the benchmark treats as layers.
LAYERS = ("probability", "channel", "typesum", "exponents", "covertness",
          "simulation", "config", "cli")

#: Modules reported by ``<module>.import_s`` (``covertdht`` is the package).
IMPORTED = ("covertdht", "errors") + LAYERS

SPAN_COLUMNS = ("id", "name", "via", "parent", "start", "end", "error", "run_id")


class Tracer:
    """Wraps the covertdht layers and collects spans and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # rows laid out as SPAN_COLUMNS[:-1]
        self._stack: list[int] = []
        self.enumerated: list[int] = []  # types per passing check_enumerable call
        self.ipf_residuals: list[float] = []
        self.mc_trials = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        post = {
            "typesum.check_enumerable": self._after_check_enumerable,
            "exponents.i_projection_coupling": self._after_ipf,
            "simulation.run_trials": self._after_run_trials,
        }
        for via in LAYERS:
            mod = importlib.import_module(f"covertdht.{via}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("covertdht.")
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
                setattr(mod, attr, self._wrap(fn, name, via, post.get(name)))
        config = importlib.import_module("covertdht.config")
        cls = config.ExperimentConfig
        cls.load = staticmethod(self._wrap(cls.__dict__["load"].__func__, "config.load",
                                           "config", None))

    def _wrap(self, fn, name: str, via: str, post):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if post else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), name, via, stack[-1] if stack else -1, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[5] = clock()
                stack.pop()
            if post is not None:
                post(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    # -- counters computed outside the program ------------------------------

    def _after_check_enumerable(self, arguments: dict, _result) -> None:
        n, dim = arguments["n"], arguments["dim"]
        self.enumerated.append(math.comb(n + dim - 1, dim - 1))

    def _after_ipf(self, arguments: dict, coupling) -> None:
        probs = coupling.probs
        self.ipf_residuals.append(max(
            float(abs(probs.sum(axis=1) - arguments["target_row"].probs).max()),
            float(abs(probs.sum(axis=0) - arguments["target_col"].probs).max()),
        ))

    def _after_run_trials(self, arguments: dict, _result) -> None:
        self.mc_trials += int(arguments["trials"])

    # -- results ------------------------------------------------------------

    def metrics(self, excluded=lambda begin, end: 0.0) -> dict[str, float]:
        """Per-layer counters and times of this sample (seconds, counts).

        ``excluded(begin, end)`` is time between ``begin`` and ``end`` that
        belongs to no span (the speed probes); it is taken off every span it
        falls into.
        """
        total = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        errors = defaultdict(int)
        duration = [end - start - excluded(start, end)
                    for _sid, _name, _via, _parent, start, end, _err in self.spans]
        child_time = [0.0] * len(self.spans)
        for sid, _name, _via, parent, _start, _end, _err in self.spans:
            if parent >= 0:
                child_time[parent] += duration[sid]
        for sid, name, via, _parent, _start, _end, err in self.spans:
            total[name] += duration[sid]
            calls[name] += 1
            calls[(name, via)] += 1
            own = duration[sid] - child_time[sid]
            self_time[name] += own
            self_time[name.split(".", 1)[0]] += own
            if err is not None:
                errors[(name, err)] += 1

        ipf = "exponents.i_projection_coupling"
        kl = "probability.kl_divergence_vec"
        out = {
            "exponents.ipf_calls": calls[ipf],
            "exponents.ipf_s": total[ipf],
            "exponents.ipf_infeasible": errors[(ipf, "Infeasible")],
            "exponents.ipf_noconv": errors[(ipf, "NoConvergence")],
            "exponents.ipf_max_residual": max(self.ipf_residuals, default=0.0),
            "exponents.e1_s": total["exponents.compute_E1"],
            "exponents.e2_s": total["exponents.compute_E2"],
            "exponents.e3_s": total["exponents.compute_E3"],
            "exponents.e2_self_s": self_time["exponents.compute_E2"],
            "exponents.e3_self_s": self_time["exponents.compute_E3"],
            "typesum.enumerations": len(self.enumerated),
            "typesum.types": sum(self.enumerated),
            "typesum.max_types_per_call": max(self.enumerated, default=0),
            "typesum.refused": errors[("typesum.check_enumerable", "AlphabetTooLarge")],
            "simulation.exact_s": total["simulation.exact_error_probs"],
            "simulation.weight_stats_s": total["simulation.exact_weight_stats"],
            "simulation.cells_exact": (calls["simulation.exact_error_probs"]
                                       - sum(n for (name, _), n in errors.items()
                                             if name == "simulation.exact_error_probs")),
            "simulation.mc_s": total["simulation.run_trials"],
            "simulation.mc_trials": self.mc_trials,
            "simulation.mc_trials_per_s": (self.mc_trials / total["simulation.run_trials"]
                                           if self.mc_trials else 0.0),
            "simulation.cells_mc": calls["simulation.run_trials"],
            "covertness.delta_s": total["covertness.delta_scheme_B"],
            "covertness.bounds_s": total["covertness.warden_divergence_bounds"],
            "covertness.exact_div_s": total["covertness.two_point_divergence_exact"],
            "probability.kl_calls": calls[(kl, "exponents")] + calls[(kl, "covertness")],
            "channel.validate_calls": calls["channel.validate_covert_conditions"],
            "channel.validate_s": total["channel.validate_covert_conditions"],
            "config.load_s": total["config.load"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        return out

    def write(self, path, excluded=lambda begin, end: 0.0) -> None:
        """Write the counters, and every span as one row of SPAN_COLUMNS."""
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "metrics": self.metrics(excluded),
                       "columns": SPAN_COLUMNS,
                       "spans": [span + [self.run_id] for span in self.spans]}, fh)


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per covertdht module from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _self_us, cumulative_us, module = (part.strip() for part in line[12:].split("|"))
        if module == "covertdht" or module.startswith("covertdht."):
            short = module.rsplit(".", 1)[-1]
            if short in IMPORTED:
                out[f"{short}.import_s"] = int(cumulative_us) / 1e6
    return out
