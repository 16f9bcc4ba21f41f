import collections
import contextlib
import copy
import csv
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import covertdht
import oracles
import covertdht.covertness as cov
import covertdht.exponents as expo
import covertdht.simulation as sim
import covertdht.typesum as typesum

from covertdht.cli import (
    COMMANDS,
    COV_HEADER,
    COV_SCHEMA,
    EXAMPLE_CONFIG,
    SIM_HEADER,
    SIM_SCHEMA,
    main,
    parse_args,
)
from covertdht.config import ExperimentConfig
from covertdht.errors import ConfigError

from conftest import TERNARY_CONFIG, read_csv

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"

# `exponents --json` on TERNARY_CONFIG (bits)
TERNARY_REPORT = {
    "base": "bits",
    "e1": 0.2792188853562643,
    "e2_by_x1": {"1": 0.031028621271801664, "2": 0.007348528673390749},
    "e3_by_x1": {
        "1": {
            "inner": 0.007348528673390749,
            "channel": 0.46593431977281674,
            "total": 0.47328284844620744,
        },
        "2": {
            "inner": 0.0076119122150252955,
            "channel": 0.5695993813109899,
            "total": 0.5772112935260151,
        },
    },
    "local": 0.007348528673390749,
    "connectivity": "fully_connected",
    "theta": 0.031028621271801664,
    "theta_literal_min": 0.007348528673390749,
    "eps": 0.0,
    "improvement": "strict_improvement_full",
    "T_U": [0.2424242424242424, 0.3414141414141414, 0.4161616161616162],
}

# full stdout of `covertdht example`
EXAMPLE_STDOUT = """\
q*: 0.8836 (reference 0.884 +- 0.001) PASS
tau (bits): 0.3057 (reference 0.306 +- 0.002) PASS
E1 (bits): 0.7706 (reference 0.7706 +- 0.001) PASS
E3 (bits): 0.1170 (reference 0.117 +- 0.001) PASS
transmission-set boundary: pi_U(1) >= 0.4918
E2 (bits, self-consistent): 0.1360
E2 (bits, reference figure, for comparison only): 0.2095
  note: the reference no-transmission exponent and set boundary are not
  consistent with the reference threshold under any single log base;
  the self-consistent value is reported and the reference one shown.
theta (bits): 0.1170
"""

# full stdout of `covertdht exponents` (text mode) on TERNARY_CONFIG
TERNARY_TEXT_REPORT = """\
case:        fully_connected
E1:          0.2792 bits
E2(x1=1):   0.0310 bits
E2(x1=2):   0.0073 bits
E3(x1=1):   0.4733 bits (source 0.0073 + channel 0.4659)
E3(x1=2):   0.5772 bits (source 0.0076 + channel 0.5696)
local:       0.0073 bits
T_U:         [0.2424242424242424, 0.3414141414141414, 0.4161616161616162]
improvement: strict_improvement_full
theta:       0.0310 bits
theta (literal min of E2, E3): 0.0073 bits
"""


def assert_report_close(got, want, rel):
    """Same keys and strings everywhere, numbers to relative tolerance `rel`."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_report_close(got[key], want[key], rel)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_report_close(g, w, rel)
    elif isinstance(want, str):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=rel, abs=0.0)


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def example_variant(**overrides):
    data = copy.deepcopy(EXAMPLE_CONFIG)
    for key, value in overrides.items():
        section, field = key.split("__")
        data[section][field] = value
    return data


@pytest.fixture()
def example_cfg_path(tmp_path):
    return write_config(tmp_path, EXAMPLE_CONFIG)


class TestExample:
    def test_reproduces_reference_values(self, capsys):
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        assert "0.2095" in out
        assert "consistent" in out
        assert "transmission-set boundary: pi_U(1) >= 0.4918" in out.splitlines()

    def test_stdout_is_pinned(self, capsys):
        assert main(["example"]) == 0
        assert capsys.readouterr().out == EXAMPLE_STDOUT


class TestCheckChannel:
    def test_example_passes(self, example_cfg_path, capsys):
        assert main(["check-channel", example_cfg_path]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "fully connected" in out

    def test_inadmissible_channel_fails(self, tmp_path, capsys):
        data = example_variant(channel__z_given_x=[[0.6, 0.4], [0.6, 0.4]])
        assert main(["check-channel", write_config(tmp_path, data)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_partial_connectivity_reported(self, tmp_path, capsys):
        data = example_variant(channel__y_given_x=[[0.5, 0.5], [1.0, 0.0]])
        assert main(["check-channel", write_config(tmp_path, data)]) == 0
        assert "partially connected" in capsys.readouterr().out


class TestExponents:
    def test_json_report(self, example_cfg_path, capsys):
        assert main(["exponents", "--json", example_cfg_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["base"] == "bits"
        assert data["e1"] == pytest.approx(0.7706, abs=1e-3)
        assert data["e3_by_x1"]["1"]["total"] == pytest.approx(0.1170, abs=1e-3)
        assert data["theta"] == pytest.approx(0.1170, abs=1e-3)
        assert data["connectivity"] == "fully_connected"
        assert data["improvement"] == "strict_improvement_full"

    def test_json_report_writes_an_infinite_exponent_as_null(self, capsys):
        # mc-sweep-a's channel term D(W_Y(.|0) || W_Y(.|1)) is +inf, which
        # RFC 8259 JSON cannot write (no Infinity): it reads back as null
        path = REPO / "perfbench" / "workloads" / "mc-sweep-a.json"
        assert main(["exponents", "--json", str(path)]) == 0

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        data = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert data["e3_by_x1"]["1"]["channel"] is None
        assert data["e3_by_x1"]["1"]["total"] is None
        assert math.isfinite(data["e3_by_x1"]["1"]["inner"])

    def test_ternary_json_report_is_pinned(self, tmp_path, capsys):
        path = write_config(tmp_path, TERNARY_CONFIG)
        assert main(["exponents", "--json", path]) == 0
        assert_report_close(json.loads(capsys.readouterr().out), TERNARY_REPORT, rel=1e-9)

    def test_ternary_text_report_is_pinned(self, tmp_path, capsys):
        assert main(["exponents", write_config(tmp_path, TERNARY_CONFIG)]) == 0
        assert capsys.readouterr().out == TERNARY_TEXT_REPORT

    def test_text_report(self, example_cfg_path, capsys):
        assert main(["exponents", example_cfg_path]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out and "theta:" in out

    def test_e1_with_the_projection_on_the_support_boundary(self, tmp_path, capsys):
        # Q(a, y) = 0 forces pi(a, x) = 0.6 and so pi(b, x) = 0: P_UV is the
        # only coupling of its marginals on supp Q, and E1 = D(P_UV || Q_UV)
        p, q = [[0.6, 0.0], [0.0, 0.4]], [[0.3, 0.0], [0.2, 0.5]]
        data = example_variant(sources__v_symbols=["x", "y"], sources__p_uv=p,
                               sources__q_uv=q)
        assert main(["exponents", "--json", write_config(tmp_path, data)]) == 0
        want = 0.6 * math.log(0.6 / 0.3) + 0.4 * math.log(0.4 / 0.5)
        e1 = json.loads(capsys.readouterr().out)["e1"] * math.log(2.0)
        assert e1 == pytest.approx(want, rel=0.0, abs=1e-9)


class TestSimulate:
    def test_exact_sweep_csv(self, tmp_path, capsys):
        out_path = tmp_path / "sim.csv"
        data = copy.deepcopy(EXAMPLE_CONFIG)
        data["sweep"]["n_grid"] = [20, 30, 40]
        data["output"] = {"path": str(out_path), "format": "csv"}
        cfg = write_config(tmp_path, data)
        assert main(["simulate", cfg]) == 0
        rows = read_csv(str(out_path), SIM_HEADER, SIM_SCHEMA)
        assert [r["n"] for r in rows] == ["20", "30", "40"]
        assert all(r["method"] == "exact" for r in rows)
        first = out_path.read_bytes()
        assert main(["simulate", cfg]) == 0
        assert out_path.read_bytes() == first  # deterministic rerun

    def test_sure_acceptance_writes_alpha_as_zero(self, tmp_path):
        # mu = 1 makes every block typical, so Pr[accept | H0] is 1 and
        # alpha = -expm1(0.0) is -0.0 until it is clamped
        out_path = tmp_path / "sim.csv"
        data = example_variant(scheme__mu=1.0)
        data["sweep"].update(n_grid=[24], mu_grid=[])
        data["output"] = {"path": str(out_path), "format": "csv"}
        assert main(["simulate", write_config(tmp_path, data)]) == 0
        with out_path.open(newline="") as fh:
            [row] = csv.DictReader(fh)
        assert row["alpha"] == "0.0"

    FALLBACK_LINE = "warning: exact engine infeasible at n=400; falling back to Monte Carlo"

    @staticmethod
    def _fallback_config(tmp_path):
        # 2x2 sources at n = 400 exceed the joint-type cap and fall back to
        # Monte Carlo. Under scheme A the alternative draws its silent
        # trials, none of them is V-typical, and an active sensor is never
        # accepted, so the beta estimate is exactly 0 (scheme B would add
        # its exact term f_d' Pr_Q[T_V typical] > 0)
        out_path = tmp_path / "sim.csv"
        data = copy.deepcopy(EXAMPLE_CONFIG)
        data["sources"] = {
            "u_symbols": ["0", "1"], "v_symbols": ["a", "b"],
            "p_uv": [[0.55, 0.20], [0.05, 0.20]], "q_uv": [[0.15, 0.20], [0.25, 0.40]],
        }
        data["channel"]["y_given_x"] = [[0.5, 0.5], [1.0, 0.0]]
        data["scheme"] = {"scheme": "A", "x_hat": "1", "y_star": "1", "mu": 0.02}
        data["sweep"].update(n_grid=[20, 400], trials=2000, seed=1)
        data["output"] = {"path": str(out_path), "format": "csv"}
        return write_config(tmp_path, data), out_path

    @classmethod
    def _exact_and_rule_of_three_rows(cls, tmp_path):
        cfg, out_path = cls._fallback_config(tmp_path)
        assert main(["simulate", cfg]) == 0
        return read_csv(str(out_path), SIM_HEADER, SIM_SCHEMA)

    def test_fallback_is_a_logged_warning(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="covertdht.cli"):
            self._exact_and_rule_of_three_rows(tmp_path)
        [record] = [r for r in caplog.records if r.name == "covertdht.cli"]
        assert record.levelno == logging.WARNING
        assert record.getMessage() == self.FALLBACK_LINE

    def test_fallback_warning_text_on_stderr(self, tmp_path):
        # with no logging configured, logging's last-resort handler writes
        # the bare message, as the print it replaced did
        cfg, _ = self._fallback_config(tmp_path)
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(covertdht.__file__))}
        proc = subprocess.run([sys.executable, "-m", "covertdht.cli", "simulate", cfg],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[0] == self.FALLBACK_LINE

    def test_rule_of_three_flag_round_trips(self, tmp_path, capsys):
        exact, mc = self._exact_and_rule_of_three_rows(tmp_path)
        assert (exact["method"], exact["trials"], exact["beta_is_upper_bound"]) == (
            "exact", "0", "False")
        assert (mc["method"], mc["trials"], mc["beta_is_upper_bound"]) == ("mc", "2000", "True")
        assert float(mc["beta"]) == pytest.approx(3.0 / 2000)
        for row in (exact, mc):
            assert float(row["a_bar"]) == pytest.approx(float(row["weight_mean"]) ** 0.5)

    def test_weight_line_averages_every_cell(self, tmp_path, capsys):
        # a rule-of-three cell is left out of the exponent fit, not out of
        # the mean input weight
        rows = self._exact_and_rule_of_three_rows(tmp_path)
        weights = [float(r["weight_mean"]) for r in rows]
        assert weights[0] != weights[1]
        mean_w = sum(weights) / len(weights)
        line = f"mu=0.02: mean input weight fraction under the null {mean_w:.3e}"
        assert line in capsys.readouterr().err.splitlines()

    def test_fit_takes_each_distinct_cell_once_in_order_of_n(self, tmp_path, capsys):
        # a repeated mu and a repeated, unsorted n give the fit and the mean
        # weight of the grid with each (mu, n) cell once, n ascending
        data = json.loads((GOLDEN / "simulate-scheme-a.json").read_text())
        lines = {}
        for mus, ns in (([0.12, 0.12], [36, 12, 24, 12]), ([0.12], [12, 24, 36])):
            data["sweep"].update(mu_grid=mus, n_grid=ns)
            assert main(["simulate", write_config(tmp_path, data)]) == 0
            lines[len(ns)] = capsys.readouterr().err.splitlines()
        assert lines[4] == lines[3] == [
            "mu=0.12: exponent trend slope 0.2874 bits/use, "
            "per-n exponents [0.5738, 0.4719, 0.3829]",
            "mu=0.12: per-n exponent sequence is decreasing",
            "mu=0.12: mean input weight fraction under the null 5.599e-02",
        ]

    def test_fit_leaves_out_monte_carlo_cells_whose_interval_reaches_zero(
        self, tmp_path, monkeypatch, capsys
    ):
        # a Monte Carlo beta whose half-width is at least the estimate does
        # not fix its exponent; an exact cell (half-width 0) and a Monte Carlo
        # cell with a narrower interval are fitted, and the rule-of-three
        # cell stays out as before
        def cell(n, beta, method="mc", beta_ci=0.0, bound=False):
            return sim.SimulationResult(
                scheme="B", n=n, mu=0.1, k=None, alpha=0.1, beta=beta, log_beta=math.log(beta),
                method=method, beta_ci=beta_ci, trials=0 if method == "exact" else 1000,
                beta_is_upper_bound=bound)

        cells = [cell(10, 0.2, "exact"), cell(20, 0.05, "exact"), cell(30, 1e-2, beta_ci=4e-3),
                 cell(40, 1e-9, beta_ci=1e-3), cell(50, 2e-3, beta_ci=2e-3),
                 cell(60, 3e-3, beta_ci=2e-3, bound=True)]
        monkeypatch.setattr("covertdht.cli._sim_results", lambda cfg: cells)
        data = example_variant(output__path=str(tmp_path / "sim.csv"))
        assert main(["simulate", write_config(tmp_path, data)]) == 0
        fit = sim.empirical_exponent([10, 20, 30], log_betas=[math.log(b) for b in (0.2, 0.05, 1e-2)])
        assert capsys.readouterr().err.splitlines()[0] == (
            f"mu=0.1: exponent trend slope {fit.slope_bits:.4f} bits/use, "
            f"per-n exponents {[round(e, 4) for e in fit.exponents_bits]}")

    def test_underflowed_beta_is_fitted_from_its_log(self, tmp_path, capsys):
        # exact beta_n underflows to 0.0 at these n; the exponent fit takes
        # the cell's exact log beta, so the sweep ends with its trend line
        out_path = tmp_path / "sim.csv"
        data = copy.deepcopy(EXAMPLE_CONFIG)
        data["sweep"]["n_grid"] = ns = [12000, 14000, 16000]
        data["output"] = {"path": str(out_path), "format": "csv"}
        assert main(["simulate", write_config(tmp_path, data)]) == 0
        rows = read_csv(str(out_path), SIM_HEADER, SIM_SCHEMA)
        assert [float(r["beta"]) for r in rows] == [0.0, 0.0, 0.0]
        cfg = ExperimentConfig.from_dict(data)
        p_uv, q_uv = cfg.source_pmfs()
        dmc = cfg.dmc()
        pbar = expo.pbar_threshold(dmc, "1")
        scheme = cfg.scheme()
        fit = sim.empirical_exponent(ns, log_betas=[
            sim.exact_error_probs(scheme, [scheme.mu], p_uv, q_uv, dmc, n, pbar)[0].log_beta
            for n in ns
        ])
        line = (f"mu=0.02: exponent trend slope {fit.slope_bits:.4f} bits/use, "
                f"per-n exponents {[round(e, 4) for e in fit.exponents_bits]}")
        assert line in capsys.readouterr().err.splitlines()
        assert 0.09 < fit.slope_bits < 0.1

    def test_json_output(self, tmp_path):
        out_path = tmp_path / "sim.json"
        data = copy.deepcopy(EXAMPLE_CONFIG)
        data["sweep"]["n_grid"] = [20]
        data["output"] = {"path": str(out_path), "format": "json"}
        assert main(["simulate", write_config(tmp_path, data)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == SIM_SCHEMA
        assert len(payload["rows"]) == 1

    def test_overrides(self, tmp_path):
        out_path = tmp_path / "sim.csv"
        data = copy.deepcopy(EXAMPLE_CONFIG)
        data["output"] = {"path": str(out_path), "format": "csv"}
        cfg = write_config(tmp_path, data)
        assert main(["simulate", cfg, "--n", "24", "--n", "36", "--mu", "0.05"]) == 0
        rows = read_csv(str(out_path), SIM_HEADER, SIM_SCHEMA)
        assert [r["n"] for r in rows] == ["24", "36"]
        assert all(r["mu"] == "0.05" for r in rows)

    def test_mu_override_replaces_mu_grid(self, tmp_path):
        out_path = tmp_path / "sim.csv"
        data = copy.deepcopy(EXAMPLE_CONFIG)
        data["sweep"].update(n_grid=[20, 30], mu_grid=[0.08, 0.12])
        data["output"] = {"path": str(out_path), "format": "csv"}
        assert main(["simulate", write_config(tmp_path, data), "--mu", "0.3"]) == 0
        rows = read_csv(str(out_path), SIM_HEADER, SIM_SCHEMA)
        assert [(r["n"], r["mu"]) for r in rows] == [("20", "0.3"), ("30", "0.3")]

    def test_inadmissible_channel_blocks_simulation(self, tmp_path, capsys):
        data = example_variant(channel__z_given_x=[[0.6, 0.4], [0.6, 0.4]])
        assert main(["simulate", write_config(tmp_path, data)]) == 1
        assert "admissibility" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["simulate", str(path)]) == 2

    def test_refused_n_without_trials_names_the_monte_carlo_setting(self, capsys):
        # exact-sweep-b has trials 0, and the cap refuses its 2x2 sources at
        # n = 400: the error says how to run that cell on Monte Carlo
        path = str(REPO / "perfbench" / "workloads" / "exact-sweep-b.json")
        assert main(["simulate", path, "--n", "400"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: joint source type enumeration: 10827401 n-types over 4 symbols exceeds "
            "the cap 5000000; set sweep.trials or --trials above 0 to run the refused cells "
            "on Monte Carlo"]
        assert captured.out == ""

    def test_monte_carlo_alpha_of_zero_is_written_positive(self, capsys):
        # at mu = 5 every type is typical, so no trial errs under the null:
        # -expm1(0.0) is -0.0, and the clamp once kept it
        path = str(REPO / "perfbench" / "workloads" / "exact-sweep-b.json")
        assert main(["simulate", path, "--mu", "5", "--n", "400", "--trials", "2000"]) == 0
        [row] = csv.DictReader(capsys.readouterr().out.splitlines())
        assert (row["method"], row["alpha"]) == ("mc", "0.0")
        config = ExperimentConfig.load(path)
        p_uv, q_uv = config.source_pmfs()
        dmc = config.dmc()
        result = sim.run_trials(config.scheme().replace(mu=5.0), p_uv, q_uv, dmc, 400, 2000, 7,
                                expo.pbar_threshold(dmc, "1"))
        assert result.alpha == 0.0 and math.copysign(1.0, result.alpha) == 1.0

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("sweep, field", [
        ({"mu_grid": [0.08, -0.1]}, "sweep.mu_grid"),
        ({"trials": "many", "n_grid": [400]}, "sweep.trials"),
        ({"seed": -3, "trials": 100}, "sweep.seed"),
        ({"n_grid": []}, "sweep.n_grid"),
        ({"n_grid": [24], "trails": 0}, "sweep.trails"),
    ])
    def test_bad_sweep_field_exit_code(self, tmp_path, capsys, sweep, field):
        data = copy.deepcopy(EXAMPLE_CONFIG)
        data["sweep"].update(sweep)
        path = write_config(tmp_path, data)
        for command in ("simulate", "verify-covertness"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err.startswith(f"error: {field}:")

    @pytest.mark.parametrize("section, value, field", [
        ("sweep", {"mu_grid": [math.inf, 0.1], "n_grid": [10]}, "sweep.mu_grid"),
        ("scheme", {"mu": math.inf}, "scheme: mu"),
    ])
    def test_infinite_mu_exit_code(self, tmp_path, capsys, section, value, field):
        # JSON Infinity loads as a float; an infinite mu once ran, as a box
        # that holds every type, and wrote its row at exit 0
        data = json.loads((GOLDEN / "simulate-mixed-fallback.json").read_text())
        data[section].update(value)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert "Infinity" in path.read_text()
        assert main(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field}")
        assert captured.out == ""

    @pytest.mark.parametrize("mu", [True, "0.1"])
    def test_bad_scheme_mu_exit_code(self, tmp_path, capsys, mu):
        # scheme.mu follows the number rule of sweep.mu_grid
        data = example_variant(scheme__mu=mu)
        assert main(["simulate", write_config(tmp_path, data)]) == 2
        assert capsys.readouterr().err.startswith("error: scheme.mu:")

    def test_one_config_parse_per_run(self, tmp_path, monkeypatch):
        # with no override flag the loaded config is the one the command
        # runs on: one validation, and one build of the pmfs and the channel
        # that validation and the sweep share
        import covertdht.config as config

        calls = collections.Counter()

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(config.ExperimentConfig, "validate",
                            counted("validate", config.ExperimentConfig.validate))
        monkeypatch.setattr(config, "JointPmf", counted("JointPmf", config.JointPmf))
        monkeypatch.setattr(config, "Dmc", counted("Dmc", config.Dmc))
        data = example_variant(sweep__n_grid=[20, 30, 40],
                               output__path=str(tmp_path / "sim.csv"))
        assert main(["simulate", write_config(tmp_path, data)]) == 0
        assert calls == {"validate": 1, "JointPmf": 2, "Dmc": 1}


@pytest.mark.parametrize("command", ["simulate", "verify-covertness"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_path_exits_2_before_any_cell(tmp_path, monkeypatch, capsys,
                                                        command, where):
    # the path is checked before the sweep: no engine runs, nothing is written
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell was computed")

    for name in ("exact_error_probs", "run_trials", "transmit_probability"):
        monkeypatch.setattr(sim, name, no_cell)
    out = tmp_path / "missing" / "out.csv" if where == "missing directory" else tmp_path
    data = example_variant(output__path=str(out))
    assert main([command, write_config(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: output.path: ")
    assert str(out.parent if where == "missing directory" else out) in captured.err
    assert captured.out == ""
    assert not (tmp_path / "missing").exists()


def run_cli(*argv, script=("-m", "covertdht.cli")):
    """The command line (or another ``script``, such as a demo) in a fresh
    interpreter, with no logging configured, as a user runs it: (exit code,
    stdout, stderr)."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(covertdht.__file__))}
    proc = subprocess.run([sys.executable, *script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestGolden:
    """`example`, `exponents` on each benchmark workload and each demo print
    the bytes stored under tests/golden/, as CI diffs them."""

    RUNS = {
        "example": ("example",),
        **{f"exponents-{cfg.stem}": ("exponents", str(cfg))
           for cfg in sorted((REPO / "perfbench" / "workloads").glob("*.json"))},
    }
    DEMOS = sorted((REPO / "demos").glob("*.py"))

    @pytest.mark.parametrize("name", RUNS)
    def test_command_output_is_the_golden_bytes(self, name):
        code, out, err = run_cli(*self.RUNS[name])
        assert code == 0, err
        assert out == (GOLDEN / f"{name}.txt").read_text()

    @pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
    def test_demo_output_is_the_golden_bytes(self, demo):
        code, out, err = run_cli(script=(str(demo),))
        assert code == 0, err
        assert out == (GOLDEN / f"demo-{demo.stem}.txt").read_text()


class TestSimulateGolden:
    """`simulate` prints the bytes stored under tests/golden/ on its stdout
    and stderr: the benchmark's exact two-mu sweep, an exact scheme-A sweep
    over an unsorted mu grid with a repeat, a two-mu sweep whose n-grid
    mixes exact cells with cells the joint-type cap sends to Monte Carlo,
    an exact scheme-B sweep of 3x2 sources (six joint cells; at n = 8,
    mu = 0.05 no output type is typical, so alpha = 1 and beta = 0), and a
    Monte Carlo scheme-A sweep on the benchmark's mc-sweep-a sources and
    channel, where the null fires with probability 0.43 at n = 100 and 0.16
    at n = 200 (mu = 0.06), so it draws inside its silent box at the one and
    inside its active strata at the other, and with probability 0.87 and
    0.71 at mu = 0.03, inside its silent box at both."""

    CONFIGS = {
        "exact-sweep-b": REPO / "perfbench" / "workloads" / "exact-sweep-b.json",
        "scheme-a": GOLDEN / "simulate-scheme-a.json",
        "mixed-fallback": GOLDEN / "simulate-mixed-fallback.json",
        "3x2": GOLDEN / "simulate-3x2.json",
        "mc-a": GOLDEN / "simulate-mc-a.json",
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_output_is_the_golden_bytes(self, name):
        code, out, err = run_cli("simulate", str(self.CONFIGS[name]))
        assert code == 0, err
        assert out == (GOLDEN / f"simulate-{name}.out").read_text()
        assert err == (GOLDEN / f"simulate-{name}.err").read_text()

    def test_mixed_fallback_keeps_the_sweep_order(self):
        # mu-major rows, a repeated n keeps its rows, and each Monte Carlo
        # cell warns when the sweep reaches it, before the fit lines
        code, out, err = run_cli("simulate", str(self.CONFIGS["mixed-fallback"]))
        assert code == 0, err
        rows = list(csv.DictReader(out.splitlines()))
        ns = [24, 400, 36, 400, 24]
        assert [(r["mu"], int(r["n"])) for r in rows] == (
            [("0.12", n) for n in ns] + [("0.08", n) for n in ns])
        assert [r["method"] for r in rows] == ["mc" if n == 400 else "exact" for n in ns] * 2
        assert rows[0] == rows[4] and rows[1] == rows[3]
        lines = err.splitlines()
        assert lines[:4] == [TestSimulate.FALLBACK_LINE] * 4
        assert all(line.startswith("mu=") for line in lines[4:])


class TestVerifyCovertnessGolden:
    """`verify-covertness` prints the bytes stored under tests/golden/ on its
    stdout and stderr: the benchmark's |U| = |Z| = 3 sweep, the worked
    example's default sweep, and the benchmark's mc-sweep-a sources at n =
    100, 200 and 400, where the U lattice of |U| = 4 has more types than the
    enumeration cap: under scheme A with mc-sweep-a's channel and scheme,
    delta_n from the box chain, and under scheme B with covert-sweep-b's
    (wide-b), delta_n by rows of binomial tails."""

    CONFIGS = {
        "covert-sweep-b": REPO / "perfbench" / "workloads" / "covert-sweep-b.json",
        "example": GOLDEN / "verify-covertness-example.json",
        "mc-a": GOLDEN / "verify-covertness-mc-a.json",
        "wide-b": GOLDEN / "verify-covertness-wide-b.json",
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_output_is_the_golden_bytes(self, name):
        code, out, err = run_cli("verify-covertness", str(self.CONFIGS[name]))
        assert code == 0, err
        assert out == (GOLDEN / f"verify-covertness-{name}.out").read_text()
        assert err == (GOLDEN / f"verify-covertness-{name}.err").read_text()

    def test_example_config_is_the_built_in_one(self):
        data = json.loads(self.CONFIGS["example"].read_text())
        assert data == json.loads(json.dumps(EXAMPLE_CONFIG))


class TestVerifyCovertness:
    def test_scheme_b_sweep(self, tmp_path, capsys):
        out_path = tmp_path / "cov.csv"
        data = copy.deepcopy(EXAMPLE_CONFIG)
        data["sweep"]["n_grid"] = [20, 60, 120, 200]
        data["output"] = {"path": str(out_path), "format": "csv"}
        assert main(["verify-covertness", write_config(tmp_path, data)]) == 0
        err = capsys.readouterr().err
        assert "bound violations: 0" in err
        assert "decay slope" in err
        rows = read_csv(str(out_path), COV_HEADER, COV_SCHEMA)
        d = [float(r["d_n_exact"]) for r in rows]
        assert all(b < a for a, b in zip(d, d[1:]))
        assert all(float(r["d_n_exact"]) <= float(r["quad_bound"]) for r in rows)

    def test_json_rows_equal_csv_rows(self, tmp_path):
        data = copy.deepcopy(EXAMPLE_CONFIG)
        data["sweep"]["n_grid"] = [20, 60, 120]
        for fmt in ("csv", "json"):
            data["output"] = {"path": str(tmp_path / f"cov.{fmt}"), "format": fmt}
            assert main(["verify-covertness", write_config(tmp_path, data, f"{fmt}.cfg")]) == 0
        payload = json.loads((tmp_path / "cov.json").read_text())
        assert payload["schema"] == COV_SCHEMA
        as_csv = [{"schema": COV_SCHEMA, **{key: str(value) for key, value in row.items()}}
                  for row in payload["rows"]]
        assert as_csv == read_csv(str(tmp_path / "cov.csv"), COV_HEADER, COV_SCHEMA)

    @pytest.mark.parametrize("option", ["--seed", "--trials"])
    def test_monte_carlo_options_are_rejected(self, example_cfg_path, option, capsys):
        # the covertness sweep is exact, so it has no trial count or seed
        with pytest.raises(SystemExit) as exc:
            main(["verify-covertness", example_cfg_path, option, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err

    def test_refused_n_states_only_the_refusal(self, tmp_path, capsys):
        # the covertness sweep has no Monte Carlo path, so the cap's error
        # gives no advice about one; delta_n has no cap (the golden sweeps
        # mc-a and wide-b run past the U lattice's), but the warden's walk
        # of the Z lattice does: |Z| = 3 takes it past the cap at n = 3200
        data = json.loads((REPO / "perfbench" / "workloads" / "covert-sweep-b.json").read_text())
        assert main(["verify-covertness", write_config(tmp_path, data), "--n", "3200"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: warden divergence: 5124801 n-types over 3 symbols exceeds the cap 5000000"]

    def test_underflowed_rows_are_named(self, tmp_path, capsys):
        # d_n underflows a double from n = 2400 on the example, and delta_n
        # too at n = 4000: only two rows are left for the slope
        data = example_variant(sweep__n_grid=[400, 1600, 2400, 3200, 4000])
        assert main(["verify-covertness", write_config(tmp_path, data)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "d_n is 0.0 (underflow, or delta_n = 0) at n = [2400, 3200, 4000]: "
            "left out of the decay slope and the bound check",
            "bound violations: 0",
        ]

    def test_ambiguous_marker_is_rejected(self, tmp_path, capsys):
        # y_star = 1 is reachable from x_hat = 1 on the example's BSC, as
        # `simulate` reports; no covertness row is written
        out_path = tmp_path / "cov.csv"
        data = example_variant(output__path=str(out_path))
        data["scheme"] = {"scheme": "A", "x_hat": "1", "y_star": "1"}
        assert main(["verify-covertness", write_config(tmp_path, data)]) == 1
        err = capsys.readouterr().err
        assert err == "error: y_star is reachable from x_hat; marker is ambiguous\n"
        assert not out_path.exists()

    def test_silent_source_gives_zero_divergence(self, tmp_path):
        # a degenerate null source never triggers the burst, so the warden
        # sees exactly the all-zero law
        out_path = tmp_path / "cov.csv"
        data = copy.deepcopy(EXAMPLE_CONFIG)
        data["sources"]["p_uv"] = [[1.0], [0.0]]
        data["channel"]["y_given_x"] = [[0.5, 0.5], [1.0, 0.0]]
        data["scheme"] = {"scheme": "A", "mu": 0.05, "x_hat": "1", "y_star": "1"}
        data["sweep"]["n_grid"] = [20, 40, 60]
        data["output"] = {"path": str(out_path), "format": "csv"}
        assert main(["verify-covertness", write_config(tmp_path, data)]) == 0
        rows = read_csv(str(out_path), COV_HEADER, COV_SCHEMA)
        assert all(float(r["delta_n"]) == 0.0 for r in rows)
        assert all(float(r["d_n_exact"]) == 0.0 for r in rows)


    def test_one_warden_lattice_walk_per_cell(self, tmp_path, monkeypatch):
        # the benchmark's covert-sweep-b config: |U| = |Z| = 3, three cells;
        # each cell walks the bands of the rows of the U lattice once for
        # delta_n and those of the Z lattice once for d_n and both bounds
        walks = {"covertness": 0, "typesum": 0}

        def counting(module, bands):
            def wrapped(n, dim):
                walks[module] += 1
                return bands(n, dim)
            return wrapped

        monkeypatch.setattr(cov, "type_bands", counting("covertness", cov.type_bands))
        monkeypatch.setattr(typesum, "type_bands", counting("typesum", typesum.type_bands))
        data = copy.deepcopy(TERNARY_CONFIG)
        data["sweep"] = {"n_grid": [80, 160, 240]}
        data["output"] = {"path": str(tmp_path / "cov.csv"), "format": "csv"}
        assert main(["verify-covertness", write_config(tmp_path, data)]) == 0
        assert walks == {"covertness": 3, "typesum": 3}

    def test_overflow_is_a_numerical_failure(self, tmp_path, capsys):
        # (1 + chi2)^n - 1 overflows a double at n = 6000 on the example
        data = example_variant(sweep__n_grid=[6000])
        assert main(["verify-covertness", write_config(tmp_path, data)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "Traceback" not in err


class TestCsvSchema:
    def test_header_mismatch_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "beta"])
            writer.writerow([10, 0.5])
        with pytest.raises(ConfigError, match="header mismatch"):
            read_csv(str(path), SIM_HEADER, SIM_SCHEMA)

    def test_schema_tag_mismatch_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=SIM_HEADER)
            writer.writeheader()
            writer.writerow({k: "" for k in SIM_HEADER} | {"schema": "other-9"})
        with pytest.raises(ConfigError, match="schema mismatch"):
            read_csv(str(path), SIM_HEADER, SIM_SCHEMA)


def test_no_command_imports_scipy(tmp_path):
    # scipy is a test dependency only; a fresh interpreter runs every command
    # (the ternary config has a three-input channel, so the mixture check
    # solves its least-squares problem, and a |U| = 3 sphere search)
    data = copy.deepcopy(TERNARY_CONFIG)
    data["sweep"] = {"n_grid": [12, 18], "trials": 0}
    data["output"] = {"path": str(tmp_path / "out.csv"), "format": "csv"}
    path = write_config(tmp_path, data)
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from covertdht.cli import main
        for argv in (["example"], ["check-channel", {path!r}], ["exponents", {path!r}],
                     ["simulate", {path!r}], ["verify-covertness", {path!r}]):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0, argv
            loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
            assert not loaded, (argv, loaded)
    """)
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(covertdht.__file__))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


#: Values that every flag converts, and values that some flag refuses or
#: that only argparse reads
PLAIN_VALUES = ["5", "24", "7"]
ODD_VALUES = ["0.1", "nan", "inf", "1.5", "x", "", "-3", "-.5", "-1e-3", "-1e3", "-inf", "-nan",
              "--"]
FLAGS = ["--json", "--trials", "--seed", "--mu", "--n"]
#: Prefixes of flags, ``--``, ``-h``, flags with no value, positionals
RARE = ["bogus", "cfg.json", "--", "--j", "--tri", "--s", "--m", "--he", "--help", "-h", "-hh",
        "-x", "--x", "--m=0.1", "--tri=5", *FLAGS, *PLAIN_VALUES, *ODD_VALUES]


def flag_piece(draw, flags, values):
    """A flag of ``flags`` with a value of ``values``, as ``--flag VALUE`` or
    ``--flag=VALUE``; ``--json`` as itself, or with its value attached."""
    flag, value = draw(st.sampled_from(flags)), draw(st.sampled_from(values))
    if flag == "--json":
        return [flag] if values is PLAIN_VALUES else [f"{flag}={value}"]
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


@st.composite
def command_lines(draw):
    """A command line near the plain form: a command (one time in five a
    token that is none), the config path three times in four, and up to
    three flags of the command with plain values. Three times in four,
    one odd piece goes in at any place after the first token: half the time
    a flag of the command (of any, where it has none) with an odd value,
    else a rare token or such a flag with no value."""
    heads = ["-h", "--", "bogus"] if draw(st.integers(0, 4)) == 0 else list(COMMANDS)
    argv = [draw(st.sampled_from(heads))] + ["cfg.json"] * (draw(st.integers(0, 3)) > 0)
    own = [o.flag for o in COMMANDS[argv[0]].options] if argv[0] in COMMANDS else []
    for _ in range(draw(st.integers(0, 3)) if own else 0):
        argv += flag_piece(draw, own, PLAIN_VALUES)
    if draw(st.integers(0, 3)) > 0:
        kind = draw(st.sampled_from(["rare", "odd value", "odd value", "no value"]))
        if kind == "rare":
            odd = [draw(st.sampled_from(RARE))]
        elif kind == "odd value":
            odd = flag_piece(draw, own or FLAGS, ODD_VALUES)
        else:
            odd = [draw(st.sampled_from(own or FLAGS))]
        at = draw(st.integers(1, len(argv)))
        argv[at:at] = odd
    return argv


class TestParseArgs:
    """`parse_args` reads every command line as the hand-written argparse
    reference `oracles.build_parser` does, whether its plain-form reader
    or argparse reads it: the same names and values, or the same exit code
    and error line. COLUMNS is fixed so that argparse wraps its usage the
    same way on every terminal."""

    VALID = [
        ["check-channel", "cfg.json"],
        ["exponents", "cfg.json"],
        ["exponents", "cfg.json", "--json"],
        ["exponents", "--json", "cfg.json"],
        ["exponents", "cfg.json", "--j"],
        ["exponents", "--js", "cfg.json", "--json"],
        ["simulate", "cfg.json"],
        ["simulate", "cfg.json", "--trials", "5", "--seed", "3"],
        ["simulate", "--trials=5", "cfg.json", "--seed=3"],
        ["simulate", "--tri", "5", "cfg.json", "--s", "2", "--m=0.5"],
        ["simulate", "cfg.json", "--trials", "5", "--trials", "7"],
        ["simulate", "cfg.json", "--mu", "0.1", "--mu", "0.2"],
        ["simulate", "cfg.json", "--n", "24", "--n", "36", "--n=48"],
        ["simulate", "--n", "24", "cfg.json", "--n", "36"],
        ["simulate", "cfg.json", "--mu", "-0.1"],
        ["simulate", "cfg.json", "--mu", "-.5", "--seed", "-3"],
        ["simulate", "cfg.json", "--mu=-1e-3", "--mu", "inf"],
        ["simulate", "--", "cfg.json"],
        ["simulate", "cfg.json", "--"],
        ["verify-covertness", "cfg.json", "--mu", "0.05", "--n", "80"],
        ["verify-covertness", "--n=80", "--n", "160", "cfg.json"],
        ["verify-covertness", "cfg.json", "--m=0.1"],
        ["example"],
    ]

    INVALID = [
        [],
        ["bogus"],
        ["bogus", "-h"],
        ["--", "simulate", "cfg.json"],
        ["--"],
        ["--json", "exponents", "cfg.json"],
        ["-x", "simulate", "cfg.json", "extra"],
        ["--help=1"],
        ["check-channel"],
        ["exponents"],
        ["exponents", "--json"],
        ["simulate", "--n", "5"],
        ["verify-covertness", "--mu", "0.1"],
        ["simulate", "cfg.json", "--trials", "many"],
        ["simulate", "cfg.json", "--seed", "1.5"],
        ["simulate", "cfg.json", "--mu", "x"],
        ["simulate", "cfg.json", "--n", "2.5"],
        ["simulate", "cfg.json", "--mu="],
        ["simulate", "cfg.json", "--trials"],
        ["simulate", "cfg.json", "--mu", "--n", "5"],
        ["simulate", "cfg.json", "--mu", "-1e-3"],
        ["simulate", "cfg.json", "--n", "--", "5"],
        ["simulate", "cfg.json", "extra"],
        ["simulate", "cfg.json", "--", "--n", "5"],
        ["simulate", "cfg.json", "--json"],
        ["simulate", "cfg.json", "--=5"],
        ["verify-covertness", "cfg.json", "--seed", "1"],
        ["verify-covertness", "--seed", "1", "cfg.json"],
        ["exponents", "cfg.json", "--json=yes"],
        ["exponents", "cfg.json", "-hx"],
        ["check-channel", "cfg.json", "-x"],
        ["example", "cfg.json"],
        ["example", "--json"],
        ["example", "--"],
    ]

    HELP = [
        ["-h"], ["--help"], ["--he"], ["-h", "bogus"],
        ["check-channel", "-h"], ["exponents", "--h"], ["simulate", "-h"],
        ["simulate", "cfg.json", "--help"], ["verify-covertness", "-hh"], ["example", "-h"],
    ]

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def exit_of(parse, argv, capsys):
        """(exit code, stdout, stderr) of a `parse` that must exit."""
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize("argv", VALID, ids=" ".join)
    def test_valid_argv_gives_the_oracle_values(self, argv):
        want = vars(oracles.build_parser().parse_args(list(argv)))
        assert vars(parse_args(list(argv))) == want

    @pytest.mark.parametrize("argv", INVALID, ids=" ".join)
    def test_invalid_argv_gives_the_oracle_error_line(self, argv, capsys):
        code, _, err = self.exit_of(parse_args, argv, capsys)
        want_code, _, want_err = self.exit_of(oracles.build_parser().parse_args, argv, capsys)
        assert code == want_code == 2
        assert err.splitlines()[-1] == want_err.splitlines()[-1]
        assert err.startswith("usage: covertdht")

    @pytest.mark.parametrize("argv", HELP, ids=" ".join)
    def test_help_exits_0_and_names_the_oracle_flags(self, argv, capsys):
        code, out, err = self.exit_of(parse_args, argv, capsys)
        want_code, want_out, _ = self.exit_of(oracles.build_parser().parse_args, argv, capsys)
        assert code == want_code == 0
        assert err == ""
        assert out.startswith("usage: covertdht")
        assert set(re.findall(r"--[a-z]+", out)) == set(re.findall(r"--[a-z]+", want_out))

    @staticmethod
    def outcome(parse, argv):
        """The namespace `parse` gives `argv`, as the repr of its sorted items
        (so that NaN values compare equal), or its exit code and last stderr
        line."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return repr(sorted(vars(parse(list(argv))).items()))
            except SystemExit as exc:
                return exc.code, err.getvalue().rstrip("\n").rpartition("\n")[2]

    #: built once: a parse leaves an argparse parser as it was
    ORACLE = oracles.build_parser()

    @given(argv=command_lines())
    @settings(max_examples=600, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_argv_gives_the_oracle_outcome(self, argv):
        assert self.outcome(parse_args, argv) == self.outcome(self.ORACLE.parse_args, argv)

    def test_negative_mu_is_a_value_that_config_validation_rejects(self, example_cfg_path,
                                                                    capsys):
        assert main(["simulate", example_cfg_path, "--mu", "-0.1"]) == 2
        assert capsys.readouterr().err == "error: scheme: mu must be positive and finite\n"


@pytest.mark.parametrize("argv", [
    ["simulate", str(REPO / "perfbench" / "workloads" / "exact-sweep-b.json")],
    ["verify-covertness", str(REPO / "perfbench" / "workloads" / "covert-sweep-b.json")],
    ["-h"],
])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    # the read end is closed before the command writes its first byte
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(covertdht.__file__))}
    proc = subprocess.Popen([sys.executable, "-m", "covertdht.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


def test_exponents_loads_no_argparse(tmp_path):
    # argparse's messages import gettext, whose first lookup imports locale:
    # a fixed cost of about 4 ms, which the plain command lines that the
    # benchmark and CI run do not pay; the exact commands run no Monte Carlo
    # cell, so they do not pay the 2 ms import of its thread pool either
    path = write_config(tmp_path, EXAMPLE_CONFIG)
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from covertdht.cli import main
        for argv in (["exponents", {path!r}, "--json"], ["simulate", {path!r}, "--seed", "7"],
                     ["simulate", {path!r}, "--n", "24", "--trials", "2000"],
                     ["verify-covertness", {path!r}, "--n=80", "--n", "160"], ["example"]):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0, argv
            loaded = [m for m in ("argparse", "gettext", "locale", "concurrent.futures")
                      if m in sys.modules]
            assert not loaded, (argv, loaded)
    """)
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(covertdht.__file__))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
