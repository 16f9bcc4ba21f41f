"""Command-line surface: channel checks, exponent reports, scheme simulation
sweeps, covertness verification, and the built-in worked example.

The grammar is the table `COMMANDS`: each command's flags, with their type,
whether they repeat, and their help. `parse_args` reads argv against it as
argparse would, and renders usage, ``-h`` and argparse's error lines from
it: flags go before or after the config path, as ``--flag VALUE`` or
``--flag=VALUE``, by any unique prefix (``--tri 5``, ``--j``); a repeated
``--n`` appends, any other flag keeps its last value.

Exit codes: 0 success (and ``-h``), 1 validation/condition failure, or a
reader that closed stdout before the output was written (no traceback), 2
parse error (argparse's ``prog: error: message`` line on stderr) or a
config field out of range, 3 numerical failure.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import re
import sys
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

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


def write_rows(out: dict, header: list[str], schema: str, records: list[NamedTuple]) -> None:
    """Write sweep records to ``out["path"]`` ("-" is stdout) in ``out["format"]``,
    one row of the fields ``header`` names after the schema tag (None as "")
    per record: CSV with the schema tag in every row, or JSON {"schema": ...,
    "rows": [...]}."""
    rows = [{key: "" if (value := getattr(rec, key)) is None else value for key in header[1:]}
            for rec in records]
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
        # RFC 8259 JSON has no Infinity: a copy of the report with each
        # infinite exponent as null (floats round-trip through repr exactly)
        strict = json.loads(json.dumps(data), parse_constant=lambda _: None)
        json.dump(strict, sys.stdout, indent=2, allow_nan=False)
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
        scheme = base_scheme.replace(mu=mu)
        for n in sweep["n_grid"]:
            if n not in exact:
                try:
                    exact[n] = sim.exact_error_probs(base_scheme, mus, p_uv, q_uv, dmc, n, pbar)
                except AlphabetTooLarge as exc:
                    if sweep["trials"] < 1:
                        raise AlphabetTooLarge(f"{exc}; set sweep.trials or --trials above 0 "
                                               "to run the refused cells on Monte Carlo") from None
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
    write_rows(cfg.output(), SIM_HEADER, SIM_SCHEMA, results)
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
    reps = []
    violations = 0
    for n in sweep["n_grid"]:
        # the burst scheme's padded zero tail adds nothing to the divergence
        block = scheme.k(n) if scheme.scheme == "A" else n
        delta = sim.transmit_probability(scheme, p_u, n, pbar)
        rep = cov.CovertnessReport(n, delta, *cov.warden_divergence(g0, g1, delta, block))
        if rep.d_n_exact > rep.quad_bound * (1 + 1e-9):
            violations += 1
        reps.append(rep)
    write_rows(cfg.output(), COV_HEADER, COV_SCHEMA, reps)
    ns = [rep.n for rep in reps]
    d_n = [rep.d_n_exact for rep in reps]
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


PROG = "covertdht"
DESCRIPTION = ("Covert distributed hypothesis testing: exponents, covertness bounds,\n"
               "and scheme simulation.")
CONFIG_HELP = "path to the JSON experiment config"


class Option(NamedTuple):
    """One ``--flag`` of a command."""

    flag: str
    type: type | None  # int or float converts the value; None: a switch, stored as True
    repeats: bool  # each use appends its value to a list; else the last use wins
    help: str

    @property
    def dest(self) -> str:
        return self.flag[2:]

    @property
    def invocation(self) -> str:
        return self.flag if self.type is None else f"{self.flag} {self.dest.upper()}"


class Command(NamedTuple):
    help: str
    config: bool  # takes the config path, its one positional argument
    options: tuple[Option, ...]


_HELP = Option("--help", None, False, "show this help message and exit")
_MU = Option("--mu", float, False, "override scheme.mu; replaces sweep.mu_grid")
_N = Option("--n", int, True, "override the blocklength grid (repeatable)")

#: The command-line grammar: parsing, usage, ``-h`` and every parse error are
#: read from this table.
COMMANDS = {
    "check-channel": Command("check the covert admissibility conditions", True, ()),
    "exponents": Command("report the achievable exponents", True,
                         (Option("--json", None, False, "emit JSON"),)),
    "simulate": Command("sweep the error probabilities of the scheme", True, (
        Option("--trials", int, False, "override sweep.trials"),
        Option("--seed", int, False, "override sweep.seed"),
        _MU, _N,
    )),
    "verify-covertness": Command("sweep the warden's divergence against its bounds", True,
                                 (_MU, _N)),
    "example": Command("reproduce the built-in worked example", False, ()),
}

# argparse reads an argument that matches no flag and looks like a negative
# number as a value (`--mu -0.1`), since no flag looks like one
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: {PROG} [-h] {{{','.join(COMMANDS)}}} ..."
    cmd = COMMANDS[command]
    parts = [f"usage: {PROG} {command} [-h]", *(f"[{o.invocation}]" for o in cmd.options)]
    return " ".join(parts + ["config"] * cmd.config)


def _help(command: str | None) -> str:
    """The ``-h`` text of the top level (`command` None) or of one command."""
    options = [("-h, --help", _HELP.help)]
    if command is None:
        intro, title = DESCRIPTION, "commands"
        positionals = [(name, cmd.help) for name, cmd in COMMANDS.items()]
    else:
        cmd = COMMANDS[command]
        intro, title = cmd.help, "positional arguments"
        positionals = [("config", CONFIG_HELP)] * cmd.config
        options += [(o.invocation, o.help) for o in cmd.options]
    width = max(len(left) for left, _ in positionals + options) + 2
    lines = [_usage(command), "", intro]
    for heading, rows in ((title, positionals), ("options", options)):
        if rows:
            lines += ["", f"{heading}:", *(f"  {left:<{width}}{text}" for left, text in rows)]
    return "\n".join(lines) + "\n"


def _fail(command: str | None, message: str) -> NoReturn:
    """argparse's parse error: usage and ``prog: error: message`` on stderr, exit 2."""
    prog = PROG if command is None else f"{PROG} {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


class _Level:
    """argparse's reading of `argv` at one level of the grammar: the top
    level (`command` None), whose options come before the command, or one
    command's, whose one positional argument is the config path."""

    def __init__(self, command: str | None, argv: list[str]):
        self.command, self.argv, self.extras = command, argv, []
        cmd = COMMANDS[command] if command else Command("", False, ())
        self.flags = {"-h": _HELP, "--help": _HELP, **{o.flag: o for o in cmd.options}}
        # argparse's namespace: the config path, then each flag's default
        self.values = {"config": None} if cmd.config else {}
        self.values.update((o.dest, False if o.type is None else None) for o in cmd.options)
        # every argument is read before any is acted on, as argparse does:
        # "--" marks the first "--", after which all are positional (None)
        self.kinds = []
        for arg in argv:
            if "--" in self.kinds:
                self.kinds.append(None)
            else:
                self.kinds.append("--" if arg == "--" else self._classify(arg))

    def _classify(self, arg: str):
        """None for a positional or a value, else (Option, or None for an
        unknown flag, the flag as matched, the value after "=" or None)."""
        if not arg.startswith("-") or arg == "-":
            return None
        if arg in self.flags:
            return self.flags[arg], arg, None
        head, eq, value = arg.partition("=")
        if eq and head in self.flags:
            return self.flags[head], head, value
        if arg[1] == "-":  # a prefix of long flags
            found = [(self.flags[f], f, value if eq else None)
                     for f in self.flags if f.startswith(head)]
        else:  # a short flag with its value attached
            found = [(self.flags[f], f, arg[2:]) for f in self.flags if f == arg[:2]]
        if len(found) > 1:
            matches = ", ".join(f for _, f, _ in found)
            _fail(self.command, f"ambiguous option: {arg} could match {matches}")
        if found:
            return found[0]
        if _NEGATIVE_NUMBER.match(arg) or " " in arg:
            return None
        return None, arg, None

    def take_option(self, i: int) -> int:
        """Act on the flag at `i` and return the index after it and its value."""
        option, flag, value = self.kinds[i]
        if option is None:
            self.extras.append(self.argv[i])
            return i + 1
        taken = []
        while value is not None and option.type is None:
            # a switch given a value: "-hh" is -h twice, anything else is refused
            if flag[1] == "-" or value == "" or "-" + value[0] not in self.flags:
                _fail(self.command,
                      f"argument {self._name(option)}: ignored explicit argument {value!r}")
            taken.append((option, None))
            flag = "-" + value[0]
            option, value = self.flags[flag], value[1:] or None
        stop = i + 1
        if value is None and option.type is not None:
            if stop == len(self.argv) or self.kinds[stop] is not None:
                _fail(self.command, f"argument {self._name(option)}: expected one argument")
            value, stop = self.argv[stop], stop + 1
        for option, value in taken + [(option, value)]:
            self._store(option, value)
        return stop

    def _store(self, option: Option, value: str | None) -> None:
        if option is _HELP:
            sys.stdout.write(_help(self.command))
            raise SystemExit(0)
        if option.type is None:
            self.values[option.dest] = True
            return
        try:
            value = option.type(value)
        except ValueError:
            _fail(self.command, f"argument {option.flag}: "
                  f"invalid {option.type.__name__} value: {value!r}")
        if option.repeats:
            self.values[option.dest] = (self.values[option.dest] or []) + [value]
        else:
            self.values[option.dest] = value

    @staticmethod
    def _name(option: Option) -> str:
        return "-h/--help" if option is _HELP else option.flag


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Parse `argv` against `COMMANDS` as argparse did: flags before or after
    the config path, ``--flag VALUE`` or ``--flag=VALUE``, unique prefixes of
    long flags, the last value of a flag or each value of a repeatable one;
    a bad command line prints usage and argparse's error line to stderr and
    raises SystemExit(2), ``-h`` prints help and raises SystemExit(0). The
    namespace holds `command` and the command's own names, as argparse's."""
    top = _Level(None, argv)
    i = 0
    while i < len(argv) and isinstance(top.kinds[i], tuple):
        i = top.take_option(i)
    # the command is the first positional, or a "--" with anything after it
    if i == len(argv) or (top.kinds[i] == "--" and i + 1 == len(argv)):
        _fail(None, "the following arguments are required: command")
    command = argv[i]
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    level = _Level(command, argv[i + 1:])
    want_config = COMMANDS[command].config
    j = 0
    while j < len(level.argv):
        kind = level.kinds[j]
        if isinstance(kind, tuple):
            j = level.take_option(j)
            continue
        # argparse takes the config path with a "--" just before or after it
        k = j + (kind == "--")
        if want_config and k < len(level.argv) and level.kinds[k] is None:
            level.values["config"], want_config = level.argv[k], False
            j = k + 1 + (level.kinds[k + 1:k + 2] == ["--"])
        else:
            level.extras.append(level.argv[j])
            j += 1
    if want_config:
        _fail(command, "the following arguments are required: config")
    extras = top.extras + level.extras
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **level.values)


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
    try:
        try:
            return _run(parse_args(sys.argv[1:] if argv is None else argv))
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`covertdht simulate cfg | head -1`):
        # Python's recipe points stdout at devnull, so that the flush at exit
        # fails no more, and exits 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(args: SimpleNamespace) -> int:
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
