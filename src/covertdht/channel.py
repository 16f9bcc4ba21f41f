"""DMC representation and covert-channel admissibility checks.

A channel is stored through its two conditional marginals Y|X and Z|X only.
Every quantity computed in this library (warden divergence, error
probabilities, all exponents) depends on the joint law Y,Z|X exclusively
through these marginals.

Admissibility, in the covert-communication convention, requires that
(a) the zero-input warden row is not a mixture of the non-zero-input rows,
(b) every warden row's support is contained in the zero row's support, and
(c) the same support inclusion holds on the decision-center side.
`ConditionReport` records their outcome.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NoConvergence
from .probability import Alphabet, Frozen, Pmf, cached_method

#: Absolute tolerance for "row equals mixture" feasibility. Exact zeros in
#: channel matrices are compared exactly: matrices are model inputs, not
#: estimates.
_MIX_TOL = 1e-9


def _check_row_stochastic(mat: np.ndarray, rows: int, cols: int, name: str) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.shape != (rows, cols):
        raise ValueError(f"{name} must have shape ({rows}, {cols}), got {arr.shape}")
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative entries")
    if np.any(np.abs(arr.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError(f"{name} rows must each sum to 1")
    arr = arr / arr.sum(axis=1, keepdims=True)
    arr.flags.writeable = False
    return arr


class Dmc(Frozen):
    """Discrete memoryless channel with designated zero input symbol.
    Equality and hash are by identity."""

    _repr = ("input_alphabet", "y_alphabet", "z_alphabet", "zero_symbol")

    def __init__(self, input_alphabet: Alphabet, y_alphabet: Alphabet, z_alphabet: Alphabet,
                 y_given_x: np.ndarray, z_given_x: np.ndarray, zero_symbol: object = 0):
        rows = input_alphabet.size
        self._set(input_alphabet=input_alphabet, y_alphabet=y_alphabet, z_alphabet=z_alphabet,
                  y_given_x=_check_row_stochastic(y_given_x, rows, y_alphabet.size, "y_given_x"),
                  z_given_x=_check_row_stochastic(z_given_x, rows, z_alphabet.size, "z_given_x"),
                  zero_symbol=zero_symbol)
        # raises KeyError if the zero symbol is missing
        input_alphabet.index(zero_symbol)

    @property
    def zero_index(self) -> int:
        return self.input_alphabet.index(self.zero_symbol)

    @cached_method
    def y_row(self, x) -> Pmf:
        """Output pmf of the decision-center channel for input symbol x."""
        return Pmf(self.y_alphabet, self.y_given_x[self.input_alphabet.index(x)])

    @cached_method
    def z_row(self, x) -> Pmf:
        """Output pmf of the warden channel for input symbol x."""
        return Pmf(self.z_alphabet, self.z_given_x[self.input_alphabet.index(x)])

    def nonzero_inputs(self) -> list:
        zi = self.zero_index
        return [s for i, s in enumerate(self.input_alphabet.symbols) if i != zi]


class ConditionReport(NamedTuple):
    """Outcome of the three admissibility checks plus connectivity, compared
    field by field."""

    mixture_ok: bool
    warden_support_ok: bool
    center_support_ok: bool
    mixture_weights: np.ndarray | None = None  # mixture weights over non-zero inputs
    warden_support_witness: tuple | None = None  # (input symbol, z symbol)
    center_support_witness: tuple | None = None  # (input symbol, y symbol)
    partially_connected: tuple | None = None  # (x_hat, y_star)

    @property
    def all_pass(self) -> bool:
        return self.mixture_ok and self.warden_support_ok and self.center_support_ok


def _nnls(a: np.ndarray, b: np.ndarray, max_iter: int | None = None) -> np.ndarray:
    """argmin ||a x - b|| over x >= 0, by the Lawson-Hanson active-set method
    (Lawson & Hanson 1974, "Solving Least Squares Problems", ch. 23).

    Raises NoConvergence when the optimality test still fails after max_iter
    (default 3k) outer steps, rather than return an iterate that may not be
    optimal."""
    k = a.shape[1]
    max_iter = 3 * k if max_iter is None else max_iter
    tol = 10.0 * max(a.shape) * np.finfo(float).eps
    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    for outer in range(max_iter + 1):
        w = a.T @ (b - a @ x)  # minus the gradient
        if passive.all() or w[~passive].max() <= tol:
            return x
        if outer == max_iter:
            break
        passive[np.argmax(np.where(passive, -np.inf, w))] = True
        while True:
            s = np.zeros(k)
            s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if np.all(s[passive] > 0.0):
                break
            # move toward s until the first passive entry hits zero; drop it
            neg = passive & (s <= 0.0)
            gap = x[neg] - s[neg]
            step = np.min(np.divide(x[neg], gap, out=np.zeros_like(gap), where=gap > 0))
            x += step * (s - x)
            passive &= x > tol
        x = s
    raise NoConvergence(f"NNLS did not reach its optimality test in {max_iter} steps")


def _mixture_witness(dmc: Dmc) -> np.ndarray | None:
    """Weights psi over non-zero inputs with sum psi(x) Gz(.|x) = Gz(.|0), or None.

    Solved as non-negative least squares on [rows^T; 1] psi = [target; 1];
    the zero row is a mixture when the residual vanishes. Point-mass psi are
    included (they are pmfs over the non-zero inputs).
    """
    zi = dmc.zero_index
    others = [i for i in range(dmc.input_alphabet.size) if i != zi]
    target = dmc.z_given_x[zi]
    rows = dmc.z_given_x[others]  # shape (m, |Z|)
    m = len(others)
    if m == 1:
        if np.max(np.abs(rows[0] - target)) <= _MIX_TOL:
            return np.array([1.0])
        return None
    a_eq = np.vstack([rows.T, np.ones((1, m))])
    b_eq = np.concatenate([target, [1.0]])
    psi = _nnls(a_eq, b_eq)
    if np.max(np.abs(a_eq @ psi - b_eq)) <= _MIX_TOL:
        return psi
    return None


def _support_inclusion(dmc: Dmc, mat: np.ndarray, out: Alphabet) -> tuple | None:
    """The first (input symbol, output symbol) with mat[x, y] > 0 but
    mat[zero, y] == 0, or None; ``out`` is the alphabet of mat's columns."""
    zero_supp = mat[dmc.zero_index] > 0.0
    for i in range(mat.shape[0]):
        if i == dmc.zero_index:
            continue
        viol = np.nonzero((mat[i] > 0.0) & ~zero_supp)[0]
        if viol.size:
            return dmc.input_alphabet.symbols[i], out.symbols[int(viol[0])]
    return None


def find_partial_connectivity(dmc: Dmc) -> tuple | None:
    """Some (x_hat, y_star) with Gy(y*|0) > 0 and Gy(y*|x_hat) = 0, if any.

    Tie-break is deterministic: smallest x_hat index, then smallest y_star
    index. Zero entries are compared exactly.
    """
    zi = dmc.zero_index
    zero_row = dmc.y_given_x[zi]
    for i in range(dmc.input_alphabet.size):
        if i == zi:
            continue
        hits = np.nonzero((zero_row > 0.0) & (dmc.y_given_x[i] == 0.0))[0]
        if hits.size:
            return (dmc.input_alphabet.symbols[i], dmc.y_alphabet.symbols[int(hits[0])])
    return None


def validate_covert_conditions(dmc: Dmc) -> ConditionReport:
    """Run the three admissibility checks and the connectivity probe."""
    psi = _mixture_witness(dmc)
    wit_b = _support_inclusion(dmc, dmc.z_given_x, dmc.z_alphabet)
    wit_c = _support_inclusion(dmc, dmc.y_given_x, dmc.y_alphabet)
    return ConditionReport(
        mixture_ok=psi is None,
        warden_support_ok=wit_b is None,
        center_support_ok=wit_c is None,
        mixture_weights=psi,
        warden_support_witness=wit_b,
        center_support_witness=wit_c,
        partially_connected=find_partial_connectivity(dmc),
    )

