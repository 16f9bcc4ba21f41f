"""Comparison of one CLI output against the stored reference output.

Exact quantities must agree to a relative tolerance of ``REL_TOL``. A Monte
Carlo alpha or beta must lie within ``MC_WIDTHS`` combined Wilson half-widths
of the reference, the two half-widths added in quadrature (about five standard
deviations). The run's own half-width is 0 when its cell was computed exactly,
so a later engine may turn an MC cell exact, or draw a different stream, and
still pass.

Rows are matched by key, and only the columns the reference has are compared,
so added output columns do not fail the check.
"""

from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-6
MC_WIDTHS = 2.5

SIM_KEY = ("scheme", "n", "mu")
SIM_EXACT = ("k",)
SIM_ESTIMATES = (("alpha", "alpha_ci"), ("beta", "beta_ci"))
COV_KEY = ("n",)
COV_VALUES = ("delta_n", "d_n_exact", "quad_bound", "type_bound")


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def _rows(text: str, key: tuple[str, ...]) -> dict[tuple, dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    return {tuple(row[k] for k in key): row for row in rows}


def _compare_json(got, want, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object"]
        problems = []
        for k, v in want.items():
            if k not in got:
                problems.append(f"{where}.{k}: missing")
            else:
                problems += _compare_json(got[k], v, f"{where}.{k}")
        return problems
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: expected a list of {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in _compare_json(g, w, f"{where}[{i}]")]
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or not _close(got, want):
            return [f"{where}: {got!r} != reference {want!r}"]
        return []
    return [] if got == want else [f"{where}: {got!r} != reference {want!r}"]


def _compare_sim_row(got: dict, want: dict, where: str) -> list[str]:
    problems = [f"{where} {col}: {got.get(col)!r} != reference {want[col]!r}"
                for col in SIM_EXACT if got.get(col) != want[col]]
    for col, ci in SIM_ESTIMATES:
        try:
            g, g_ci = float(got[col]), float(got[ci])
        except (KeyError, ValueError):
            problems.append(f"{where} {col}: missing or not a number")
            continue
        w = float(want[col])
        width = MC_WIDTHS * math.hypot(g_ci, float(want[ci]))
        ok = _close(g, w) if width == 0.0 else abs(g - w) <= width
        if not ok:
            problems.append(f"{where} {col}: {g!r} outside tolerance of reference {w!r}")
    return problems


def _compare_cov_row(got: dict, want: dict, where: str) -> list[str]:
    problems = []
    for col in COV_VALUES:
        g, w = got.get(col), want[col]
        try:
            # "" marks a row without an exact divergence
            same = g == w if g in (None, "") or w == "" else _close(float(g), float(w))
        except ValueError:
            same = False
        if not same:
            problems.append(f"{where} {col}: {g!r} != reference {w!r}")
    return problems


def compare(command: str, got: str, want: str, ns: list[int] | None = None) -> list[str]:
    """Problems found comparing output ``got`` of ``command`` to reference ``want``.

    ``ns`` restricts the reference rows to those blocklengths (a run at
    reduced size); None expects every reference row.
    """
    if command == "exponents":
        try:
            parsed = json.loads(got)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        return _compare_json(parsed, json.loads(want), "exponents")
    key, compare_row = ((SIM_KEY, _compare_sim_row) if command == "simulate"
                        else (COV_KEY, _compare_cov_row))
    got_rows, want_rows = _rows(got, key), _rows(want, key)
    if ns is not None:
        want_rows = {k: r for k, r in want_rows.items() if int(r["n"]) in ns}
    if set(got_rows) != set(want_rows):
        return [f"rows {sorted(got_rows)} != reference rows {sorted(want_rows)}"]
    return [p for k, w in want_rows.items() for p in compare_row(got_rows[k], w, f"row {k}")]
