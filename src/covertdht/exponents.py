"""Stein-exponent machinery: transmission-triggering type sets, the three
error exponents, the local exponent, and the improvement classification.

The inner maximization defining the transmission threshold tau(x1),

    max_pi [ D(pi || G0) - 3/2 D(pi || G1) ],    G0 = Z-row of input 0,
                                                 G1 = Z-row of input x1,

is a concave free-energy problem with the closed form

    tau = 1/2 log sum_z G1(z)^3 / G0(z)^2,   pi*(z) proportional to G1^3/G0^2.

The joint-pmf minimizations behind the exponents fix one or both marginals;
with both marginals fixed they are I-projections computed by iterative
proportional fitting (IPF). With only the column marginal P_V fixed, the
partial minimum g(pi_U) over couplings is a convex function of the free row
marginal whose unconstrained minimum D(P_V || Q_V) is attained at T_U by the
coupling P_V(v) Q(u|v). E2 minimizes g over the ball D(pi_U || P_U) <= tau
and E3 over its complement D >= tau, both in `_constrained_min`: the closed
form when T_U is feasible, otherwise a minimum on the sphere D = tau, found
from its two brentq roots (binary row alphabet) or by a simplex grid plus a
constrained polish (larger alphabets).

All values are stored in nats; callers convert via LogBase.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize

from .channel import Dmc, find_partial_connectivity, validate_covert_conditions
from .errors import (
    AlphabetMismatch,
    ConditionalUndefined,
    EmptyFeasibleSet,
    Infeasible,
    InvalidChannel,
    NoConvergence,
    SupportViolation,
)
from .probability import (
    LN2,
    JointPmf,
    LogBase,
    Pmf,
    kl_divergence,
    kl_divergence_vec,
    kl_rows,
)
from .typesum import type_blocks

_INF = math.inf
# simplex-grid step of the |U| >= 3 search in `_constrained_min_grid`
_GRID_STEP = 1e-2

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PbarSet:
    """Divergence-threshold description of the transmission-triggering set.

    A source type belongs to the set iff its divergence to the true source pmf
    is at least ``tau_nats``. ``maximizer`` is the warden-output pmf achieving
    the threshold value. ``tau_nats`` can be negative when the two warden rows
    are close; membership is then vacuous (the whole simplex qualifies).
    """

    x1: object
    tau_nats: float
    maximizer: Pmf

    @property
    def tau_bits(self) -> float:
        return self.tau_nats / LN2

    def tau(self, base: LogBase = LogBase.NATS) -> float:
        return base.from_nats(self.tau_nats)


def pbar_threshold(dmc: Dmc, x1) -> PbarSet:
    """Closed-form threshold tau(x1) and its maximizing warden-output pmf."""
    if x1 == dmc.zero_symbol:
        raise ValueError("x1 must differ from the zero symbol")
    g0 = dmc.z_row(dmc.zero_symbol).probs
    g1 = dmc.z_row(x1).probs
    if np.any((g1 > 0.0) & (g0 == 0.0)):
        raise SupportViolation(
            "warden row of x1 puts mass outside the zero row's support; "
            "the threshold supremum is infinite"
        )
    mask = g1 > 0.0
    weights = np.zeros_like(g0)
    weights[mask] = g1[mask] ** 3 / g0[mask] ** 2
    total = float(weights.sum())
    tau = 0.5 * math.log(total)
    maximizer = Pmf(dmc.z_alphabet, weights / total)
    return PbarSet(x1=x1, tau_nats=tau, maximizer=maximizer)


def pbar_objective(pi_z: np.ndarray, g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """D(pi||G0) - 3/2 D(pi||G1) in nats over the last axis of `pi_z` (a
    scalar for one pmf); -inf where either divergence is infinite (off the
    support of G1)."""
    d0, d1 = kl_rows(pi_z, g0), kl_rows(pi_z, g1)
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(d0) & np.isfinite(d1), d0 - 1.5 * d1, -_INF)[()]


def pbar_contains(pi_u: Pmf, p_u: Pmf, pbar: PbarSet) -> bool:
    """Membership test D(pi_u || p_u) >= tau; infinite divergence counts as in."""
    if pi_u.alphabet != p_u.alphabet:
        raise AlphabetMismatch(f"{pi_u.alphabet.symbols} vs {p_u.alphabet.symbols}")
    return bool(kl_rows(pi_u.probs, p_u.probs) >= pbar.tau_nats)


def _ipf_feasible(support: np.ndarray, row_t: np.ndarray, col_t: np.ndarray) -> bool:
    """Existence of a coupling with the given marginals on a restricted support.

    Hall-type condition on the bipartite support graph: for every subset S of
    rows, the row mass of S must not exceed the column mass of its
    neighborhood. Row counts in scope are small, so subsets are enumerated.
    """
    rows = np.nonzero(row_t > 0)[0]
    for r in range(1, len(rows) + 1):
        for sub in itertools.combinations(rows, r):
            cols = np.any(support[list(sub)], axis=0)
            if row_t[list(sub)].sum() > col_t[cols].sum() + 1e-12:
                return False
    return True


def i_projection_coupling(
    q: JointPmf,
    target_row: Pmf,
    target_col: Pmf,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> JointPmf:
    """I-projection of q onto couplings with the given marginals, via IPF.

    Alternately rescales rows then columns of q (on its support) until both
    marginals match the targets to within ``tol`` in L-infinity.
    """
    if target_row.alphabet != q.row_alphabet or target_col.alphabet != q.col_alphabet:
        raise Infeasible("target marginal alphabets do not match the reference joint pmf")
    support = q.probs > 0.0
    r = np.asarray(target_row.probs, dtype=float)
    c = np.asarray(target_col.probs, dtype=float)
    if not _ipf_feasible(support, r, c):
        raise Infeasible("no coupling with these marginals exists on the support of q")
    k = q.probs.copy()
    # rows/columns with zero target mass are fixed at zero up front
    k[r == 0.0, :] = 0.0
    k[:, c == 0.0] = 0.0
    for _ in range(max_iter):
        row_sums = k.sum(axis=1)
        scale = np.divide(r, row_sums, out=np.zeros_like(r), where=row_sums > 0)
        k = k * scale[:, None]
        col_sums = k.sum(axis=0)
        scale = np.divide(c, col_sums, out=np.zeros_like(c), where=col_sums > 0)
        k = k * scale[None, :]
        err = max(
            float(np.max(np.abs(k.sum(axis=1) - r))),
            float(np.max(np.abs(k.sum(axis=0) - c))),
        )
        if err <= tol:
            return JointPmf(q.row_alphabet, q.col_alphabet, k)
    raise NoConvergence(f"IPF did not reach marginal error {tol} in {max_iter} iterations")


@dataclass(frozen=True)
class ExponentTerm:
    """One exponent value (nats) with its minimizing joint type, when finite."""

    value_nats: float
    minimizer: JointPmf | None = None

    def value(self, base: LogBase = LogBase.NATS) -> float:
        return base.from_nats(self.value_nats)


def _coupling_divergence(q: JointPmf, row_t: Pmf, col_t: Pmf) -> tuple[float, JointPmf | None]:
    """min over couplings with both marginals fixed of D(. || q), in nats."""
    try:
        coupling = i_projection_coupling(q, row_t, col_t)
    except Infeasible:
        return _INF, None
    return kl_divergence_vec(coupling.probs.ravel(), q.probs.ravel()), coupling


def compute_E1(p_uv: JointPmf, q_uv: JointPmf) -> ExponentTerm:
    """Exponent with both marginals pinned to the null-hypothesis marginals."""
    if np.any((p_uv.probs > 0.0) & (q_uv.probs == 0.0)):
        raise SupportViolation("P_UV is not absolutely continuous w.r.t. Q_UV")
    value, coupling = _coupling_divergence(q_uv, p_uv.row_marginal(), p_uv.col_marginal())
    return ExponentTerm(value, coupling)


def _v_conditional_coupling(p_v: Pmf, q_uv: JointPmf) -> np.ndarray:
    """P_V(v) Q(u|v) as a |U| x |V| array: the coupling with column marginal
    P_V closest to Q_UV, at divergence D(P_V || Q_V) by the chain rule."""
    q_v = q_uv.col_marginal().probs
    needed = p_v.probs > 0.0
    if np.any(needed & (q_v == 0.0)):
        raise ConditionalUndefined(
            "Q_V vanishes at a V-value with positive null probability"
        )
    k = np.zeros_like(q_uv.probs)
    k[:, needed] = p_v.probs[needed] * q_uv.probs[:, needed] / q_v[needed]
    return k


def compute_T_U(p_v: Pmf, q_uv: JointPmf) -> Pmf:
    """Mixture of the alternative's U|V conditionals under the null V-marginal."""
    return Pmf(q_uv.row_alphabet, _v_conditional_coupling(p_v, q_uv).sum(axis=1))


def binary_sphere_roots(p_u: Pmf, tau: float) -> tuple[float | None, float | None]:
    """For binary U, the points m below and above P_U(1) where
    D(Bern(m) || P_U) = tau (nats); None on a side where the divergence
    stays below tau up to the simplex edge."""
    p1 = p_u.probs[1]

    def excess(m):
        return float(kl_rows(np.array([1.0 - m, m]), p_u.probs)) - tau

    low = brentq(excess, 0.0, p1, xtol=1e-14) if excess(0.0) >= 0.0 else None
    high = brentq(excess, p1, 1.0, xtol=1e-14) if excess(1.0) >= 0.0 else None
    return low, high


def _simplex_grid(dim: int, step: float) -> np.ndarray:
    """All pmfs on `dim` symbols with entries that are multiples of ~step."""
    k = max(int(round(1.0 / step)), 1)
    # cap total grid size; coarser grids are refined locally afterwards
    while math.comb(k + dim - 1, dim - 1) > 400_000:
        k //= 2
    # the k-type lattice, reversed into the first-symbol-descending order the
    # grid has always had; the minimizers break ties by that order
    return np.concatenate(list(type_blocks(k, dim)))[::-1] / k


def _coupling_objective(q_uv: JointPmf, p_v: Pmf):
    """g(pi_U) = min over couplings with marginals (pi_U, P_V) of D(.||q)."""

    def g(pi_u_probs: np.ndarray) -> float:
        pi_u_probs = np.clip(np.asarray(pi_u_probs, dtype=float), 0.0, None)
        total = pi_u_probs.sum()
        if total <= 0:
            return _INF
        try:
            pmf = Pmf(q_uv.row_alphabet, pi_u_probs / total)
        except ValueError:
            return _INF
        try:
            value, _ = _coupling_divergence(q_uv, pmf, p_v)
        except NoConvergence as exc:
            logger.warning("g(pi_U) set to +inf at pi_U = %s: %s", pmf.probs.tolist(), exc)
            return _INF
        return value

    return g


def _constrained_min_grid(g, p_u: Pmf, tau: float, upper: bool):
    """Grid-plus-polish minimization of g under the divergence constraint."""
    grid = _simplex_grid(p_u.alphabet.size, _GRID_STEP)
    d = kl_rows(grid, p_u.probs)
    feasible = d >= tau if upper else d <= tau
    best_val, best_pt = _INF, None
    for pt in grid[feasible]:
        val = g(pt)
        if val < best_val:
            best_val, best_pt = val, pt
    if best_pt is None:
        return _INF, None
    # one local polish pass with the divergence constraint
    sign = 1.0 if upper else -1.0

    def cons(x):
        return sign * (kl_rows(_normalize(x), p_u.probs) - tau)

    res = minimize(
        lambda x: g(_normalize(x)),
        best_pt,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * p_u.alphabet.size,
        constraints=[
            {"type": "eq", "fun": lambda x: x.sum() - 1.0},
            {"type": "ineq", "fun": cons},
        ],
        options={"maxiter": 200, "ftol": 1e-12},
    )
    if res.success and np.isfinite(res.fun) and res.fun < best_val and cons(res.x) >= -1e-9:
        return float(res.fun), _normalize(res.x)
    return best_val, best_pt


def _normalize(x: np.ndarray) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=float), 0.0, None)
    s = x.sum()
    return x / s if s > 0 else np.full_like(x, 1.0 / len(x))


def _constrained_min(q_uv: JointPmf, p_u: Pmf, p_v: Pmf, tau: float,
                     upper: bool) -> ExponentTerm:
    """min of g over the ball D(pi_U || P_U) <= tau (upper=False) or over its
    complement D >= tau (upper=True), with the minimizing coupling.

    g is convex with its unconstrained minimum at T_U, so when T_U is not
    feasible the minimum lies on the sphere D = tau.
    """
    k = _v_conditional_coupling(p_v, q_uv)
    d_t = kl_rows(k.sum(axis=1), p_u.probs)  # D(T_U || P_U)
    if (d_t >= tau) if upper else (d_t <= tau):
        coupling = JointPmf(q_uv.row_alphabet, q_uv.col_alphabet, k)
        return ExponentTerm(local_exponent(p_v, q_uv.col_marginal()), coupling)
    g = _coupling_objective(q_uv, p_v)
    if p_u.alphabet.size == 2:
        cands = [(g(np.array([1.0 - m, m])), m)
                 for m in binary_sphere_roots(p_u, tau) if m is not None]
        value, m = min(cands, default=(_INF, None))
        pt = None if m is None else np.array([1.0 - m, m])
    else:
        value, pt = _constrained_min_grid(g, p_u, tau, upper)
    if pt is None or not math.isfinite(value):
        return ExponentTerm(value)
    _, coupling = _coupling_divergence(q_uv, Pmf(p_u.alphabet, pt), p_v)
    return ExponentTerm(value, coupling)


def compute_E2(p_uv: JointPmf, q_uv: JointPmf, p_u: Pmf, pbar: PbarSet) -> ExponentTerm:
    """Exponent of the no-transmission branch: V-marginal pinned, U-type kept
    outside the transmission-triggering set (minimized over its closure)."""
    if pbar.tau_nats <= 0:
        raise EmptyFeasibleSet("tau <= 0: every type triggers transmission")
    return _constrained_min(q_uv, p_u, p_uv.col_marginal(), pbar.tau_nats, upper=False)


@dataclass(frozen=True)
class E3Result:
    """Max over non-zero inputs of (inner source exponent + channel divergence)."""

    value_nats: float
    best_x1: object
    per_x1: dict = field(default_factory=dict)  # symbol -> (inner, channel, total), nats
    minimizer: JointPmf | None = None

    def value(self, base: LogBase = LogBase.NATS) -> float:
        return base.from_nats(self.value_nats)


def compute_E3(p_uv: JointPmf, q_uv: JointPmf, p_u: Pmf, dmc: Dmc) -> E3Result:
    """Exponent of the transmission branch, maximized over non-zero inputs;
    the inner term minimizes g over the triggering set D >= tau."""
    p_v = p_uv.col_marginal()
    per_x1 = {}
    best = (-_INF, None, None)
    for x1 in dmc.nonzero_inputs():
        pbar = pbar_threshold(dmc, x1)
        try:
            chan = kl_divergence(dmc.y_row(dmc.zero_symbol), dmc.y_row(x1))
        except SupportViolation:
            chan = _INF
        inner = _constrained_min(q_uv, p_u, p_v, pbar.tau_nats, upper=True)
        total = inner.value_nats + chan
        per_x1[x1] = (inner.value_nats, chan, total)
        if total > best[0]:
            best = (total, x1, inner.minimizer)
    return E3Result(value_nats=best[0], best_x1=best[1], per_x1=per_x1, minimizer=best[2])


def local_exponent(p_v: Pmf, q_v: Pmf) -> float:
    """Exponent of the decision center alone, D(P_V || Q_V) in nats."""
    return kl_divergence(p_v, q_v)


class Improvement(enum.Enum):
    NO_IMPROVEMENT = "no_improvement"
    STRICT_IMPROVEMENT_PARTIAL = "strict_improvement_partial"
    STRICT_IMPROVEMENT_FULL = "strict_improvement_full"


def improvement_check(p_uv: JointPmf, q_uv: JointPmf, dmc: Dmc,
                      atol: float = 1e-9) -> Improvement:
    """Does sensor communication beat the local test at the decision center?"""
    p_u = p_uv.row_marginal()
    p_v = p_uv.col_marginal()
    t_u = compute_T_U(p_v, q_uv)
    if np.max(np.abs(t_u.probs - p_u.probs)) <= atol:
        return Improvement.NO_IMPROVEMENT
    if find_partial_connectivity(dmc) is not None:
        return Improvement.STRICT_IMPROVEMENT_PARTIAL
    for x1 in dmc.nonzero_inputs():
        pbar = pbar_threshold(dmc, x1)
        if pbar_contains(t_u, p_u, pbar):
            return Improvement.STRICT_IMPROVEMENT_FULL
    return Improvement.NO_IMPROVEMENT


class ConnectivityCase(enum.Enum):
    PARTIALLY_CONNECTED = "partially_connected"
    FULLY_CONNECTED = "fully_connected"


@dataclass(frozen=True)
class ExponentReport:
    """All main-result quantities for one source pair and channel, in nats.

    In the fully-connected case two readings of the achievable exponent are
    reported: ``theta_nats`` pairs the no-transmission and transmission
    exponents per candidate input and takes the best input (what the scheme
    actually delivers); ``theta_literal_nats`` takes the literal min of the
    globally-computed pair. They coincide for a single non-zero input. In the
    partially-connected case both equal the exact characterization e1.
    """

    e1_nats: float
    e2_by_x1: dict  # symbol -> nats
    e3_by_x1: dict  # symbol -> (inner, channel, total) nats
    local_nats: float
    connectivity: ConnectivityCase
    theta_nats: float
    theta_literal_nats: float
    eps: float
    improvement: Improvement
    minimizers: dict = field(default_factory=dict)

    def as_dict(self, base: LogBase = LogBase.BITS) -> dict:
        conv = base.from_nats
        return {
            "base": base.value,
            "e1": conv(self.e1_nats),
            "e2_by_x1": {str(k): conv(v) for k, v in self.e2_by_x1.items()},
            "e3_by_x1": {
                str(k): {"inner": conv(v[0]), "channel": conv(v[1]), "total": conv(v[2])}
                for k, v in self.e3_by_x1.items()
            },
            "local": conv(self.local_nats),
            "connectivity": self.connectivity.value,
            "theta": conv(self.theta_nats),
            "theta_literal_min": conv(self.theta_literal_nats),
            "eps": self.eps,
            "improvement": self.improvement.value,
        }


def achievable_exponent(
    p_uv: JointPmf,
    q_uv: JointPmf,
    dmc: Dmc,
    eps: float = 0.0,
) -> ExponentReport:
    """Main-result exponent with the connectivity case split.

    ``eps`` (the Type-I ceiling) is recorded but has no numerical effect: the
    exponents do not depend on it.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    report = validate_covert_conditions(dmc)
    if not report.all_pass:
        raise InvalidChannel("channel fails the covert admissibility conditions")
    p_u = p_uv.row_marginal()
    p_v = p_uv.col_marginal()
    q_v = q_uv.col_marginal()
    e1 = compute_E1(p_uv, q_uv)
    local = local_exponent(p_v, q_v)
    e3 = compute_E3(p_uv, q_uv, p_u, dmc)
    e2_by_x1 = {}
    for x1 in dmc.nonzero_inputs():
        pbar = pbar_threshold(dmc, x1)
        try:
            e2_by_x1[x1] = compute_E2(p_uv, q_uv, p_u, pbar).value_nats
        except EmptyFeasibleSet:
            e2_by_x1[x1] = _INF
    verdict = improvement_check(p_uv, q_uv, dmc)
    connectivity = find_partial_connectivity(dmc)
    if connectivity is not None:
        case = ConnectivityCase.PARTIALLY_CONNECTED
        theta = theta_literal = e1.value_nats
    else:
        case = ConnectivityCase.FULLY_CONNECTED
        theta = max(
            min(e2_by_x1[x1], e3.per_x1[x1][2]) for x1 in dmc.nonzero_inputs()
        )
        theta_literal = min(e2_by_x1[e3.best_x1], e3.value_nats)
    return ExponentReport(
        e1_nats=e1.value_nats,
        e2_by_x1=e2_by_x1,
        e3_by_x1=e3.per_x1,
        local_nats=local,
        connectivity=case,
        theta_nats=theta,
        theta_literal_nats=theta_literal,
        eps=eps,
        improvement=verdict,
        minimizers={"e1": e1.minimizer, "e3": e3.minimizer},
    )
