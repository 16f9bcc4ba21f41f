"""Command-line surface: channel checks, exponent reports, scheme simulation
sweeps, covertness verification, and the built-in worked example.

Exit codes: 0 success, 1 validation/condition failure, 2 parse error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import covertness as cov
from . import exponents as expo
from . import simulation as sim
from .channel import validate_covert_conditions
from .config import ExperimentConfig
from .errors import AlphabetTooLarge, ConfigError, CovertDhtError, NoConvergence
from .probability import LN2

# named, not __name__, so that `python -m covertdht.cli` logs under covertdht too
logger = logging.getLogger("covertdht.cli")

SIM_SCHEMA = "covertdht-sim-2"
SIM_HEADER = [
    "schema", "scheme", "n", "mu", "k", "alpha", "alpha_ci", "beta", "beta_ci",
    "method", "seed", "trials", "beta_is_upper_bound", "weight_mean", "a_bar",
]
COV_SCHEMA = "covertdht-cov-1"
COV_HEADER = ["schema", "n", "delta_n", "d_n_exact", "quad_bound", "type_bound"]


def write_rows(out: dict, header: list[str], schema: str, rows: list[dict]) -> None:
    """Write sweep rows to ``out["path"]`` ("-" is stdout) in ``out["format"]``:
    CSV with the schema tag in every row, or JSON {"schema": ..., "rows": [...]}."""
    fh = sys.stdout if out["path"] == "-" else open(out["path"], "w", newline="")
    try:
        if out["format"] == "json":
            json.dump({"schema": schema, "rows": rows}, fh, indent=2)
        else:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows({**row, "schema": schema} for row in rows)
    finally:
        if fh is not sys.stdout:
            fh.close()


def read_csv(path: str, header: list[str], schema: str) -> list[dict]:
    """Read back a sweep CSV; a header or schema mismatch is a hard error."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != header:
            raise ConfigError(f"CSV header mismatch: expected {header}, got {reader.fieldnames}")
        rows = list(reader)
    for row in rows:
        if row["schema"] != schema:
            raise ConfigError(f"CSV schema mismatch: expected {schema}, got {row['schema']}")
    return rows


def cmd_check_channel(cfg: ExperimentConfig) -> int:
    dmc = cfg.dmc()
    report = validate_covert_conditions(dmc)
    for name, ok, wit in (
        ("mixture condition (zero row not a mixture of others)", report.mixture_ok,
         report.mixture_weights),
        ("warden support inclusion", report.warden_support_ok, report.warden_support_witness),
        ("decision-center support inclusion", report.center_support_ok, report.center_support_witness),
    ):
        status = "PASS" if ok else f"FAIL (witness: {wit})"
        print(f"{name}: {status}")
    if report.partially_connected is not None:
        x_hat, y_star = report.partially_connected
        print(f"connectivity: partially connected (x_hat={x_hat}, y_star={y_star})")
    else:
        print("connectivity: fully connected")
    return 0 if report.all_pass else 1


def cmd_exponents(cfg: ExperimentConfig, as_json: bool = False) -> int:
    p_uv, q_uv = cfg.source_pmfs()
    dmc = cfg.dmc()
    report = expo.achievable_exponent(p_uv, q_uv, dmc)
    data = report.as_dict()
    if as_json:
        json.dump(data, sys.stdout, indent=2)
        print()
        return 0
    print(f"case:        {data['connectivity']}")
    print(f"E1:          {data['e1']:.4f} bits")
    for x1, v in data["e2_by_x1"].items():
        print(f"E2(x1={x1}):   {v:.4f} bits")
    for x1, v in data["e3_by_x1"].items():
        print(f"E3(x1={x1}):   {v['total']:.4f} bits "
              f"(source {v['inner']:.4f} + channel {v['channel']:.4f})")
    print(f"local:       {data['local']:.4f} bits")
    print(f"T_U:         {data['T_U']}")
    print(f"improvement: {data['improvement']}")
    print(f"theta:       {data['theta']:.4f} bits")
    if data["connectivity"] == "fully_connected":
        print(f"theta (literal min of E2, E3): {data['theta_literal_min']:.4f} bits")
    return 0


def _require_admissible(dmc) -> None:
    report = validate_covert_conditions(dmc)
    if not report.all_pass:
        raise CovertDhtError("channel fails the covert admissibility conditions; "
                             "run check-channel for details")


def _sim_results(cfg: ExperimentConfig) -> list[sim.SimulationResult]:
    """One record per (mu, n) cell, mu-major: exact, else Monte Carlo with a
    warning. The exact engine runs once per n, for the whole mu grid, when
    the sweep first meets that n; a cell whose n it refuses runs Monte Carlo
    at its own mu, in the sweep's order."""
    p_uv, q_uv = cfg.source_pmfs()
    dmc = cfg.dmc()
    _require_admissible(dmc)
    base_scheme = cfg.scheme()
    sweep = cfg.sweep()
    pbar = expo.pbar_threshold(dmc, base_scheme.x1) if base_scheme.scheme == "B" else None
    mus = sweep["mu_grid"] or [base_scheme.mu]
    exact = {}  # n -> one record per mu, or None where the engine refused n
    results = []
    for i, mu in enumerate(mus):
        scheme = dataclasses.replace(base_scheme, mu=mu)
        for n in sweep["n_grid"]:
            if n not in exact:
                try:
                    exact[n] = sim.exact_error_probs(base_scheme, mus, p_uv, q_uv, dmc, n, pbar)
                except AlphabetTooLarge:
                    if sweep["trials"] < 1:
                        raise
                    exact[n] = None
            if exact[n] is not None:
                results.append(exact[n][i])
                continue
            # with no handler configured, logging's last-resort handler
            # writes the bare message to stderr
            logger.warning(
                "warning: exact engine infeasible at n=%d; falling back to Monte Carlo", n
            )
            results.append(sim.run_trials(
                scheme, p_uv, q_uv, dmc, n, sweep["trials"], sweep["seed"], pbar
            ))
    return results


def cmd_simulate(cfg: ExperimentConfig) -> int:
    results = _sim_results(cfg)
    write_rows(cfg.output(), SIM_HEADER, SIM_SCHEMA, [res.as_row() for res in results])
    # each distinct (mu, n) cell once, in order of n: a mu or an n the grid
    # repeats gives the same record again
    by_mu = {}
    for res in results:
        by_mu.setdefault(res.mu, {}).setdefault(res.n, res)
    for mu, cells in by_mu.items():
        group = [cells[n] for n in sorted(cells)]
        # rule-of-three betas are bounds, not estimates, and a beta of exactly
        # 0 has no exponent: left out of the fit only; exact cells give log
        # beta, which does not underflow with beta
        fitted = [g for g in group if not g.beta_is_upper_bound and g.log_beta > -np.inf]
        if len(fitted) >= 3:
            fit = sim.empirical_exponent(
                [g.n for g in fitted], log_betas=[g.log_beta for g in fitted]
            )
            print(
                f"mu={mu}: exponent trend slope {fit.slope_bits:.4f} bits/use, "
                f"per-n exponents {[round(e, 4) for e in fit.exponents_bits]}",
                file=sys.stderr,
            )
            if not fit.monotone_increasing:
                print(f"mu={mu}: per-n exponent sequence is {fit.direction}",
                      file=sys.stderr)
        mean_w = float(np.mean([g.weight_mean for g in group]))
        print(f"mu={mu}: mean input weight fraction under the null {mean_w:.3e}",
              file=sys.stderr)
    return 0


def cmd_verify_covertness(cfg: ExperimentConfig) -> int:
    p_uv, _ = cfg.source_pmfs()
    dmc = cfg.dmc()
    _require_admissible(dmc)
    scheme = cfg.scheme()
    scheme.validate_against(dmc)
    sweep = cfg.sweep()
    p_u = p_uv.row_marginal()
    g0 = dmc.z_row(dmc.zero_symbol)
    if scheme.scheme == "B":
        g1, pbar = dmc.z_row(scheme.x1), expo.pbar_threshold(dmc, scheme.x1)
    else:
        g1, pbar = dmc.z_row(scheme.x_hat), None
    rows = []
    violations = 0
    for n in sweep["n_grid"]:
        # the burst scheme's padded zero tail adds nothing to the divergence
        block = scheme.k(n) if scheme.scheme == "A" else n
        delta = sim.transmit_probability(scheme, p_u, n, pbar)
        rep = cov.CovertnessReport(n, delta, *cov.warden_divergence(g0, g1, delta, block))
        if rep.d_n_exact > rep.quad_bound * (1 + 1e-9):
            violations += 1
        rows.append(rep.as_row())
    write_rows(cfg.output(), COV_HEADER, COV_SCHEMA, rows)
    ns = [row["n"] for row in rows]
    d_n = [row["d_n_exact"] for row in rows]
    zeros = [n for n, d in zip(ns, d_n) if d == 0.0]
    if len(ns) - len(zeros) >= 3:
        fit = sim.empirical_exponent(ns, betas=d_n)
        print(f"log2 d_n decay slope: {-fit.slope_bits:.4f} per channel use", file=sys.stderr)
    if zeros:
        print(f"d_n is 0.0 (underflow, or delta_n = 0) at n = {zeros}: "
              "left out of the decay slope and the bound check", file=sys.stderr)
    print(f"bound violations: {violations}", file=sys.stderr)
    return 0 if violations == 0 else 1


EXAMPLE_CONFIG = {
    "sources": {
        "u_symbols": ["0", "1"],
        "v_symbols": ["c"],
        "p_uv": [[0.8], [0.2]],
        "q_uv": [[0.3], [0.7]],
    },
    "channel": {
        "x_symbols": ["0", "1"],
        "y_symbols": ["0", "1"],
        "z_symbols": ["0", "1"],
        "zero_symbol": "0",
        "y_given_x": [[0.6, 0.4], [0.4, 0.6]],
        "z_given_x": [[0.6, 0.4], [0.4, 0.6]],
    },
    "scheme": {"scheme": "B", "x1": "1", "mu": 0.02, "k_rule": "sqrt"},
    "sweep": {"n_grid": [40, 80, 120, 160, 200], "mu_grid": [], "trials": 0, "seed": 1},
    "output": {"path": "-", "format": "csv"},
}

#: Value printed alongside the self-consistent no-transmission exponent; the
#: quoted reference figure is not reproducible under any single logarithm base
#: (see README), so it is reported for comparison, never asserted.
REFERENCE_E2_BITS = 0.2095


def cmd_example() -> int:
    cfg = ExperimentConfig.from_dict(EXAMPLE_CONFIG)
    p_uv, q_uv = cfg.source_pmfs()
    dmc = cfg.dmc()
    p_u = p_uv.row_marginal()
    pbar = expo.pbar_threshold(dmc, "1")
    report = expo.achievable_exponent(p_uv, q_uv, dmc)
    qstar = pbar.maximizer["1"]
    tau_bits = pbar.tau_bits
    # boundary of the transmission set on the high side of P_U
    boundary = expo.sphere_point(p_u.probs, [0.0, 1.0], pbar.tau_nats)[1]
    e1_bits = report.e1_nats / LN2
    e2_bits = report.e2_by_x1["1"] / LN2
    e3_bits = report.e3_by_x1["1"][2] / LN2
    theta_bits = report.theta_nats / LN2
    checks = [
        ("q*", qstar, 0.884, 1e-3),
        ("tau (bits)", tau_bits, 0.306, 2e-3),
        ("E1 (bits)", e1_bits, 0.7706, 1e-3),
        ("E3 (bits)", e3_bits, 0.1170, 1e-3),
    ]
    ok = True
    for name, got, want, tol in checks:
        passed = abs(got - want) <= tol
        ok = ok and passed
        print(f"{name}: {got:.4f} (reference {want} +- {tol:g}) "
              f"{'PASS' if passed else 'FAIL'}")
    print(f"transmission-set boundary: pi_U(1) >= {boundary:.4f}")
    print(f"E2 (bits, self-consistent): {e2_bits:.4f}")
    print(f"E2 (bits, reference figure, for comparison only): {REFERENCE_E2_BITS}")
    print("  note: the reference no-transmission exponent and set boundary are not")
    print("  consistent with the reference threshold under any single log base;")
    print("  the self-consistent value is reported and the reference one shown.")
    print(f"theta (bits): {theta_bits:.4f}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertdht",
        description="Covert distributed hypothesis testing: exponents, "
        "covertness bounds, and scheme simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check-channel", "exponents", "simulate", "verify-covertness"):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to the JSON experiment config")
        if name == "exponents":
            sp.add_argument("--json", action="store_true", help="emit JSON")
        if name == "simulate":
            sp.add_argument("--trials", type=int, default=None)
            sp.add_argument("--seed", type=int, default=None)
        if name in ("simulate", "verify-covertness"):
            sp.add_argument("--mu", type=float, default=None,
                            help="override scheme.mu; replaces sweep.mu_grid")
            sp.add_argument("--n", type=int, action="append", default=None,
                            help="override the blocklength grid (repeatable)")
    sub.add_parser("example", help="reproduce the built-in worked example")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """`cfg` with the command's override flags applied; `cfg` itself when none is given."""
    if all(getattr(args, key, None) is None for key in ("trials", "seed", "mu", "n")):
        return cfg
    data = cfg.to_dict()
    if getattr(args, "trials", None) is not None:
        data.setdefault("sweep", {})["trials"] = args.trials
    if getattr(args, "seed", None) is not None:
        data.setdefault("sweep", {})["seed"] = args.seed
    if getattr(args, "mu", None) is not None:
        data.setdefault("scheme", {})["mu"] = args.mu
        data.get("sweep", {}).pop("mu_grid", None)
    if getattr(args, "n", None):
        data.setdefault("sweep", {})["n_grid"] = args.n
    return ExperimentConfig.from_dict(data)


def _check_output_path(path: str) -> None:
    """Raise ConfigError where a sweep could not write its rows to `path`,
    before its first cell is computed; the file itself is not touched."""
    if path == "-":
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"output.path: directory {parent!r} does not exist")
    if os.path.isdir(path) or not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise ConfigError(f"output.path: {path!r} is not a writable file")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "example":
        return cmd_example()
    try:
        cfg = ExperimentConfig.load(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.command in ("simulate", "verify-covertness"):
            _check_output_path(cfg.output()["path"])
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "check-channel":
            return cmd_check_channel(cfg)
        if args.command == "exponents":
            return cmd_exponents(cfg, as_json=args.json)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "verify-covertness":
            return cmd_verify_covertness(cfg)
    except (NoConvergence, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except CovertDhtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
