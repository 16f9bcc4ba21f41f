"""Warden-side metrics: exact mixture divergence, its quadratic and
type-based bounds, and the positivity margins behind the exponential
covertness decay.

The warden sees either the all-zero product law G0^n or, with probability
delta, the constant-codeword product law G1^n. The exact divergence of the
mixture to G0^n collapses to a sum over n-types because the likelihood ratio
of two product laws with constant inputs depends on the output sequence only
through its type. Each type contributes

    p0 * [ (1+t) log1p(t) - t ],   t = delta * (p1/p0 - 1),

which is non-negative, so the sum is cancellation-free; the linear term
sums to zero exactly and is dropped analytically, not numerically.

``warden_divergence`` walks the (n, |Z|) type lattice of ``typesum`` once, a
band at a time, and takes the exact divergence and the type-based bound
from the same bands, so the divergence is available whenever the bounds
are. Each type's log-likelihood ratio sum_z c_z log(G1_z/G0_z), G0 class
log-probability and divergence from G0 are sums of count tables built
before the walk, with no logarithm per type; the ell > 500 branch and the
kernel's log1p are evaluated only on the types that select them.
delta itself, the probability that the encoder fires under the null,
is ``simulation.transmit_probability``: the encoder rule lives with the
decision kernel, not here.

The positivity margins are closed forms in Renyi divergences of the warden
rows, with no sum and no grid; the first is identically 0. A sweep's row is
a `CovertnessReport` record.

All divergences are in nats.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SupportViolation
from .exponents import PbarSet
from .probability import Pmf, chi_squared
from .typesum import (NEG_INF, check_enumerable, class_tables, kl_table, log_class_probs,
                      log_count_table, table_sum, type_bands)

_INF = math.inf


def _check_rows(g0: Pmf, g1: Pmf) -> None:
    if g0.alphabet != g1.alphabet:
        raise SupportViolation("warden rows over different output alphabets")
    if np.any((g1.probs > 0.0) & (g0.probs == 0.0)):
        raise SupportViolation("codeword row puts mass outside the zero row's support")


def _mix_term(t: np.ndarray) -> np.ndarray:
    """(1+t) log1p(t) - t elementwise, the per-type divergence kernel; >= 0
    for t >= -1. Near 0 a series avoids cancellation, and log1p is taken only
    where the series is not used."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        # series to avoid cancellation: t^2/2 - t^3/6 + t^4/12
        series = t * t * (0.5 + t * (-1.0 / 6.0 + t / 12.0))
        near = np.abs(t) < 1e-4
        if near.all():
            return series
        # (1+t) log1p(t), taken as 0 at t = -1 (delta = 1, a type G1 cannot emit)
        log1p = np.log1p(t, out=np.zeros_like(t), where=~near & (t != -1.0))
        return np.where(near, series, (1.0 + t) * log1p - t)


def _mixture_terms(lp0: np.ndarray, ell: np.ndarray, delta: float, log_delta: float) -> np.ndarray:
    """The per-type terms p0 [(1+t) log1p(t) - t], t = delta (p1/p0 - 1) =
    delta expm1(ell), of the exact divergence, from the types' log
    G0-probabilities and log-likelihood ratios; impossible types add p0 = 0.

    t is astronomically large past ell = 500: there (1+t)log1p(t) - t =
    log1p(t) + t*(log1p(t)-1), with p0*t = delta*(p1-p0), in logs. Each
    branch is evaluated only on the types that select it.
    """
    p0 = np.exp(lp0)
    small = ell <= 500.0
    with np.errstate(over="ignore"):
        t = delta * np.expm1(ell, out=np.zeros_like(ell), where=small)
    terms = p0 * _mix_term(t)
    if not small.all():
        big = ~small
        lt = log_delta + ell[big]  # log t up to the negligible -delta term
        p0_big = p0[big]
        with np.errstate(over="ignore", invalid="ignore"):
            terms[big] = p0_big * lt + delta * (np.exp(lp0[big] + ell[big]) - p0_big) * (lt - 1.0)
    return terms


def chi_squared_product(g0: Pmf, g1: Pmf, n: int) -> float:
    """Chi-squared distance between the product laws G1^n and G0^n.

    Equals (1 + chi2(G1||G0))^n - 1; evaluated as expm1(n log1p(chi2)).
    """
    _check_rows(g0, g1)
    c = chi_squared(g1, g0)
    return float(math.expm1(n * math.log1p(c)))


def warden_divergence(g0: Pmf, g1: Pmf, delta: float, n: int) -> tuple[float, float, float]:
    """Exact D( (1-delta) G0^n + delta G1^n  ||  G0^n ) and its quadratic and
    type-based upper bounds, in nats, from one pass over the n-types of the
    output alphabet.

    The exact divergence is a sum of O(n^(|Z|-1)) non-negative terms.
    quad_bound = delta^2 * chi2(G1^n || G0^n).
    type_bound = (n+1)^|Z| * max over n-types pi of
        exp(-n D(pi||G0)) * (exp(-n (D(pi||G1) - D(pi||G0))) - 1)^2,
    with the type probability taken under G0. The exponent in the second
    factor is the type's log-likelihood ratio that the mixture sum uses, and
    the maximum is taken in logs. It does not depend on delta, so it is
    computed even where the divergence is 0 (delta = 0 or G1 = G0).
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_rows(g0, g1)
    quad = delta * delta * chi_squared_product(g0, g1, n)
    check_enumerable(n, g0.alphabet.size, "warden divergence")
    mixed = delta > 0.0 and not np.array_equal(g0.probs, g1.probs)
    log_ratio = np.full(g0.alphabet.size, NEG_INF)
    mask = g1.probs > 0.0
    log_ratio[mask] = np.log(g1.probs[mask]) - np.log(g0.probs[mask])
    log_delta = math.log(delta) if mixed else NEG_INF
    # the tables of each type's log-likelihood ratio log(p1/p0) (-inf off
    # supp G1), G0 class log-probability and divergence from G0
    ratio = log_count_table(log_ratio, n)
    classes, divergence = class_tables(g0.probs[None], n), kl_table(g0.probs, n)
    total, best = 0.0, NEG_INF
    for band in type_bands(n, g0.alphabet.size):
        ell = table_sum(ratio, band)
        if mixed:
            [lp0] = log_class_probs(classes, band)
            total += float(_mixture_terms(lp0, ell, delta, log_delta).sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            # log of e^{-n D(pi||G0)} expm1(ell)^2, with
            # log|expm1 ell| = max(ell, 0) + log(-expm1(-|ell|)); -inf where
            # ell = 0 or pi leaves supp G0
            log_terms = -n * np.maximum(table_sum(divergence, band), 0.0) + 2.0 * (
                np.maximum(ell, 0.0) + np.log(-np.expm1(-np.abs(ell))))
        best = max(best, float(log_terms.max()))
    return max(total, 0.0), quad, (n + 1) ** g0.alphabet.size * math.exp(best)


def scheme_B_positivity(p_u: Pmf, pbar: PbarSet, g0: Pmf, g1: Pmf) -> tuple[float, float, float]:
    """Minima of the three covertness decay exponents, in closed form.

    The three expressions, minimized over warden-output pmfs pi and source
    types pi_U inside the transmission set D(pi_U||P_U) >= tau, are

        3 D(pi||G1) - 2 D(pi||G0) + 2 D(pi_U||P_U)
        2 D(pi||G1) -   D(pi||G0) + 2 D(pi_U||P_U)
          D(pi||G1)               + 2 D(pi_U||P_U)

    The joint minimum separates into a channel part plus twice the source
    part. The channel parts are min_pi [a D(pi||G1) - (a-1) D(pi||G0)] =
    -(a-1) D_a(G1||G0), the Renyi divergence of order a = 3, 2, 1:
    -log sum G1^3/G0^2, -log(1 + chi2(G1||G0)) and 0. The source part is tau
    when some pi_U on supp(P_U) reaches the threshold (tau at most -log of
    the smallest positive P_U entry) and +inf otherwise, when only types off
    the support of P_U, of probability zero, transmit.

    ``pbar_threshold`` sets tau = (1/2) log sum G1^3/G0^2 = D_3(G1||G0), so
    for its rows the first margin is identically 0; the other two are
    positive unless G1 = G0.
    """
    _check_rows(g0, g1)
    mask = g1.probs > 0.0
    sum_cubes = float(np.sum(g1.probs[mask] ** 3 / g0.probs[mask] ** 2))
    tau = pbar.tau_nats
    reachable = tau <= -math.log(p_u.probs[p_u.probs > 0.0].min())
    two_b = 2.0 * tau if reachable else _INF
    return two_b - math.log(sum_cubes), two_b - math.log1p(chi_squared(g1, g0)), two_b


class CovertnessReport(NamedTuple):
    """One row of a covertness sweep (divergences in nats), compared field by field."""

    n: int
    delta_n: float
    d_n_exact: float
    quad_bound: float
    type_bound: float
