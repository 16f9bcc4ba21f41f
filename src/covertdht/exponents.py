"""Stein-exponent machinery: transmission-triggering type sets, the three
error exponents, the local exponent, and the improvement classification.

Every per-input quantity is computed in one pass over the non-zero inputs
x1 (`achievable_exponent`): the threshold tau(x1), the silent-branch
exponent E2, the transmit-branch exponent E3 and the test of T_U against
the threshold.

The inner maximization defining the transmission threshold tau(x1),

    max_pi [ D(pi || G0) - 3/2 D(pi || G1) ],    G0 = Z-row of input 0,
                                                 G1 = Z-row of input x1,

is a concave free-energy problem with the closed form

    tau = 1/2 log sum_z G1(z)^3 / G0(z)^2,   pi*(z) proportional to G1^3/G0^2.

With only the column marginal P_V fixed, the partial minimum g(pi_U) of
D(. || Q_UV) over couplings is a convex function of the free row marginal
whose unconstrained minimum D(P_V || Q_V) is attained at T_U by the coupling
P_V(v) Q(u|v). E2 minimizes g over the ball D(pi_U || P_U) <= tau and E3
over its complement D >= tau, both in `_constrained_min`: the closed form
when T_U is feasible, otherwise a minimum on the sphere D = tau.

There the minimizers of D(pi || Q) + lambda D(pi_U || P_U) over couplings
with column marginal P_V form a one-parameter family (Csiszar 1975, Ann.
Probab. 3(1)), pi(u, v) = Q(u, v) e^beta_v w_u with log pi_U =
(1 - kappa) log sum_v Q(u, v) e^beta_v + kappa log P_U, kappa =
lambda / (1 + lambda): kappa = 0 is the closed form, kappa = 1 the
I-projection with both marginals fixed (E1, and g at each point). For each
kappa, Newton's method on the |V| potentials beta meets P_V, and the
tangent dbeta/dkappa from its last Jacobian predicts the next kappa's start
and gives dD(pi_U || P_U)/dkappa, so Newton steps in kappa, kept inside a
bracket, put D on tau. E2 is its crossing for kappa in [0, 1]. E3's is on
the branch kappa < 0 (lambda = -nu, 0 < nu < 1), where D(pi || Q) -
nu D(pi_U || P_U) is jointly convex, so a crossing there is the global
minimum, certified by the Lagrangian bound. E3 is +inf
where tau > -log min P_U on the face. Elsewhere, where that branch does
not cross, E3 falls back to a search of the sphere: the crossings of the
rays from P_U to the boundary points of a small type lattice, the best
polished by a Nelder-Mead search over the ray directions, every trial ray
retracted onto the sphere; rays that miss it inside the face land on its
rim, and a minimum on the rim is searched again inside that face.

All values are stored in nats; `ExponentReport.as_dict` reports bits.
"""

from __future__ import annotations

import enum
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .channel import Dmc, validate_covert_conditions
from .errors import (
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
    Pmf,
    kl_divergence,
    kl_divergence_vec,
    kl_rows,
)
from .typesum import type_blocks

_INF = math.inf
# denominator of the type lattice whose boundary points aim the rays of the
# sphere search in `_sphere_min`
_RAY_LATTICE = 10
# a polished minimizer with a coordinate at most this far above zero lies on
# the rim of the sphere, and the sphere inside that face is searched as well
_RIM_TOL = 1e-9
# T_U within this of P_U in every coordinate: communication cannot help
_T_U_ATOL = 1e-9
# Newton's method on the column potentials of the Lagrangian family stops
# once the column sums match P_V to this, times 1 + |kappa|, gives up after
# this many steps, and moves no potential by more than the last in one step
_NEWTON_TOL = 1e-13
_NEWTON_MAX_ITER = 100
_NEWTON_MAX_STEP = 8.0
# E3 looks for the crossing of its certified branch at kappa >= 1 - 2^this
# (lambda = -nu, nu up to 1 - 2^-16), then falls back to the sphere search
_KAPPA_SCAN = 16
# the search for the crossing in kappa ends once a Newton step is within
# this absolute plus relative tolerance (Brent's at xtol = 1e-14), and gives
# up after this many solves
_KAPPA_XTOL = 1e-14
_KAPPA_RTOL = 4 * np.finfo(float).eps
_ROOT_MAX_ITER = 100
# the DEBUG record of each constrained minimum
_MIN_RECORD = ("%s minimum at tau = %.6g nats: %s, kappa = %.17g, %d Newton steps, "
               "value - L(lambda) = %.3g nats")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PbarSet:
    """Divergence-threshold description of the transmission-triggering set.

    A source type belongs to the set iff its divergence to the true source pmf
    is at least ``tau_nats``; `triggers` is the one definition of that test.
    ``maximizer`` is the warden-output pmf achieving the threshold value.
    ``tau_nats`` is the Renyi divergence D_3(G1||G0) of the two warden rows,
    so it is >= 0, with equality only when G1 = G0 (then every source type
    qualifies).
    """

    x1: object
    tau_nats: float
    maximizer: Pmf

    @property
    def tau_bits(self) -> float:
        return self.tau_nats / LN2

    def triggers(self, types: np.ndarray, p_u: Pmf) -> np.ndarray:
        """The threshold predicate D(t || P_U) >= tau over the last axis of
        `types`: True where a type triggers transmission. Infinite divergence
        (mass off the support of P_U) triggers."""
        return kl_rows(types, p_u.probs) >= self.tau_nats


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


def _coupling_exists(support: np.ndarray, row_t: np.ndarray, col_t: np.ndarray) -> bool:
    """Existence of a coupling with the given marginals on a restricted support.

    Hall-type condition on the bipartite support graph: for every subset S of
    rows, the row mass of S must not exceed the column mass of its
    neighborhood. Row counts in scope are small, so subsets are enumerated,
    unless the support fills the positive-target block: then row_t col_t^T is
    a coupling.
    """
    if support[row_t > 0.0][:, col_t > 0.0].all():
        return True
    rows = np.nonzero(row_t > 0)[0]
    for r in range(1, len(rows) + 1):
        for sub in itertools.combinations(rows, r):
            cols = np.any(support[list(sub)], axis=0)
            if row_t[list(sub)].sum() > col_t[cols].sum() + 1e-12:
                return False
    return True


def _live_block(q: np.ndarray, p_u: np.ndarray, p_v: np.ndarray):
    """`_lagrangian_point`'s inputs on the lines of positive target that meet
    supp Q (one that does not, as Hall's 1e-12 slack allows, stays zero): the
    block's index, log Q, log P_U (a column), P_V, and beta at kappa = 0."""
    live = (q > 0.0) & (p_u > 0.0)[:, None] & (p_v > 0.0)
    block = np.ix_(live.any(axis=1), live.any(axis=0))  # index arrays, (k, 1) and (1, m)
    with np.errstate(divide="ignore"):  # the holes of Q
        log_q = np.log(q[block])
    p_v = p_v[block[1][0]]
    return block, log_q, np.log(p_u[block[0]]), p_v, np.log(p_v / q[block].sum(axis=0))


def i_projection_coupling(q: JointPmf, target_row: Pmf, target_col: Pmf) -> JointPmf:
    """I-projection of q onto couplings with the given marginals: the point
    of the Lagrangian family at kappa = 1 with the target row as P_U, so its
    row marginal is exact and Newton's method on beta fits the columns.
    Raises Infeasible where no coupling exists on supp q and NoConvergence
    where Newton's method fails."""
    if target_row.alphabet != q.row_alphabet or target_col.alphabet != q.col_alphabet:
        raise Infeasible("target marginal alphabets do not match the reference joint pmf")
    r, c = target_row.probs, target_col.probs
    if not _coupling_exists(q.probs > 0.0, r, c):
        raise Infeasible("no coupling with these marginals exists on the support of q")
    block, log_q, log_r, c_block, beta = _live_block(q.probs, r, c)
    out = np.zeros_like(q.probs)
    out[block] = _lagrangian_point(log_q, log_r, c_block, 1.0, beta)[0]
    return JointPmf(q.row_alphabet, q.col_alphabet, out)


@dataclass(frozen=True)
class ExponentTerm:
    """One exponent value (nats) with its minimizing joint type, when finite."""

    value_nats: float
    minimizer: JointPmf | None = None


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
    return ExponentTerm(*_coupling_divergence(q_uv, p_uv.row_marginal(), p_uv.col_marginal()))


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


def _brentq(f, a: float, b: float, xtol: float = 2e-12) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method: a line-for-line port of scipy.optimize.brentq with its default
    rtol and iteration cap (same steps, same stopping rule, so the same root
    bit for bit)."""
    rtol, max_iter = 4 * np.finfo(float).eps, 100
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(max_iter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NoConvergence(f"Brent's method did not converge in {max_iter} iterations")


def sphere_point(p_u, b, tau: float) -> np.ndarray | None:
    """Where the segment from P_U to `b` (on the face supp(P_U)) crosses the
    sphere D(. || P_U) = tau (nats); None when D(b || P_U) < tau. D is convex
    along the segment and 0 at P_U, so this is its one root."""
    p_u, b = np.asarray(p_u, dtype=float), np.asarray(b, dtype=float)
    end = float(kl_rows(b, p_u)) - tau
    if end < 0.0:
        return None
    face = p_u > 0.0
    p, d = p_u[face], b[face]

    def excess(r):
        # short of the end every face letter keeps mass, so D needs no guard
        if r == 1.0:
            return end
        x = (1.0 - r) * p + r * d
        return max(float((x * np.log(x / p)).sum()), 0.0) - tau

    r = _brentq(excess, 0.0, 1.0, xtol=1e-14)
    return (1.0 - r) * p_u + r * b


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


def _nelder_mead(f, x0: np.ndarray, step: float, xatol: float = 1e-8,
                 fatol: float = 1e-13, max_iter: int = 400):
    """Minimize f from x0 by the Nelder-Mead simplex search (Nelder & Mead
    1965, Comput. J. 7(4)), starting from the simplex x0, x0 + step e_i.

    Returns (x, f(x), converged): converged once the simplex spans at most
    xatol in every coordinate and its values at most fatol.
    """
    sim = np.vstack((x0, x0 + step * np.eye(len(x0))))
    fs = np.array([f(x) for x in sim])
    for _ in range(max_iter):
        order = np.argsort(fs, kind="stable")
        sim, fs = sim[order], fs[order]
        with np.errstate(invalid="ignore"):  # inf - inf while the simplex is off the sphere
            if np.abs(sim[1:] - sim[0]).max() <= xatol and np.abs(fs[1:] - fs[0]).max() <= fatol:
                return sim[0], float(fs[0]), True
        centroid = sim[:-1].mean(axis=0)
        xr = 2.0 * centroid - sim[-1]  # reflect the worst vertex
        fr = f(xr)
        if fr < fs[0]:
            xe = 3.0 * centroid - 2.0 * sim[-1]  # expand
            fe = f(xe)
            sim[-1], fs[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fs[-2]:
            sim[-1], fs[-1] = xr, fr
        else:  # contract outside (fr < worst) or inside
            xc = centroid + 0.5 * ((xr if fr < fs[-1] else sim[-1]) - centroid)
            fc = f(xc)
            if fc < min(fr, fs[-1]):
                sim[-1], fs[-1] = xc, fc
            else:  # shrink toward the best vertex
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fs[1:] = [f(x) for x in sim[1:]]
    order = np.argsort(fs, kind="stable")
    return sim[order[0]], float(fs[order[0]]), False


def _ray_exit(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Where the ray from `p` in direction `d` (summing to zero) leaves the
    face supp(p): the first face coordinate to reach zero is set to 0."""
    face = p > 0.0
    down = np.flatnonzero(face & (d < 0.0))
    first = down[np.argmin(p[down] / -d[down])]
    b = np.where(face, np.clip(p + (p[first] / -d[first]) * d, 0.0, None), 0.0)
    b[first] = 0.0
    return b / b.sum()


def _retract(p_u: np.ndarray, b: np.ndarray, tau: float) -> tuple[np.ndarray | None, float]:
    """The point of the sphere D(. || P_U) = tau on the ray from P_U through
    `b`, a point on the boundary of the face supp(P_U) (None if there is
    none), and by how much the ray fell short of the sphere.

    Where `b` lies inside the ball, the ray is continued inside the facet
    pi(j) = 0 that holds `b`: on it the sphere is D(. || P') = tau +
    log(1 - P_U(j)) around P' = P_U conditioned on the facet, and the ray
    from P' through `b` is retracted the same way. So rays that miss the
    sphere inside the face land on its rim; the shortfall, the sum of
    tau - D(b || P_U) over these steps, is 0 exactly for the rays that reach
    the sphere inside the face. Where `b` is P' itself there is no ray from
    P', and the result is None. So it is where `b - P'` has no negative
    coordinate on the face: it sums to 0, so it is rounding noise.
    """
    pt = sphere_point(p_u, b, tau)
    if pt is not None or (p_u > 0.0).sum() <= 2:
        return pt, 0.0
    short = tau - float(kl_rows(b, p_u))
    j = np.flatnonzero((b == 0.0) & (p_u > 0.0))[0]
    tau += math.log1p(-p_u[j])
    p_u = np.where(np.arange(len(p_u)) == j, 0.0, p_u) / (1.0 - p_u[j])
    if (b - p_u)[p_u > 0.0].min() >= 0.0:  # b is P' itself: no ray to continue
        return None, 0.0
    pt, rest = _retract(p_u, _ray_exit(p_u, b - p_u), tau)
    return pt, short + rest


def _sphere_min(g, p_u: np.ndarray, tau: float):
    """min of g on the sphere D(pi_U || P_U) = tau in the face supp(P_U) and
    its minimizer (None if no ray reaches the sphere): the best point where
    the rays from P_U to the boundary points of the face's type lattice are
    retracted onto the sphere, then, with three or more face symbols, one
    Nelder-Mead polish.

    The polish varies the ray direction d(w) = d0 + B w, d0 toward the best
    point and the columns of B spanning the face directions normal to d0
    (scaled by |d0|), and retracts each trial ray with `_retract`, so every
    iterate lies on D = tau. It minimizes g plus the retraction's shortfall,
    which keeps it off the flat stretches where many rays land on one rim
    point. A minimizer on the rim (coordinates of at most _RIM_TOL) is then
    searched for again on the sphere inside that smaller face.
    """
    face = p_u > 0.0
    lattice = np.concatenate(list(type_blocks(_RAY_LATTICE, int(face.sum()))))
    ends = np.zeros((len(lattice), len(p_u)))
    ends[:, face] = lattice / _RAY_LATTICE
    crossings = (_retract(p_u, b, tau)[0] for b in ends[(lattice == 0).any(axis=1)])
    value, pt = min(((g(pt), pt) for pt in crossings if pt is not None),
                    key=lambda c: c[0], default=(_INF, None))
    if face.sum() < 3 or not math.isfinite(value):
        return value, pt

    d0 = pt - p_u
    # rows 2.. of V^T span the null space of [1; d0] on the face: the
    # directions that keep the sum and are normal to d0
    basis = np.zeros((len(p_u), int(face.sum()) - 2))
    basis[face] = (np.linalg.svd(np.vstack((np.ones(int(face.sum())), d0[face])))[2][2:].T
                   * np.linalg.norm(d0))

    def retract(w):
        return _retract(p_u, _ray_exit(p_u, d0 + basis @ w), tau)

    def penalized(w):
        x, short = retract(w)
        return _INF if x is None else g(x) + short

    w, _, converged = _nelder_mead(penalized, np.zeros(basis.shape[1]), step=0.05)
    x = retract(w)[0]
    fx = _INF if x is None else g(x)
    if not converged:
        logger.warning("sphere polish failed (no convergence, g = %g); keeping the best "
                       "ray crossing pi_U = %s", fx, pt.tolist())
    elif fx < value:
        value, pt = fx, x
    rim = face & (pt <= _RIM_TOL)
    mass = p_u[face & ~rim].sum()
    if rim.any() and face.sum() - rim.sum() >= 2 and tau + math.log(mass) > 0.0:
        # the minimum is on (or next to) the rim, where the polish stalls:
        # search the sphere inside that face, D(. || P') = tau + log P_U(face)
        rim_value, rim_pt = _sphere_min(g, np.where(rim, 0.0, p_u) / mass, tau + math.log(mass))
        if rim_value < value:
            value, pt = rim_value, rim_pt
    return value, pt


def _lagrangian_point(log_q: np.ndarray, log_p_u: np.ndarray, p_v: np.ndarray,
                      kappa: float, beta: np.ndarray):
    """The coupling of the Lagrangian family at `kappa`, its column
    potentials beta, the Newton steps taken from the start `beta`, and (for
    kappa < 1) the tangent of the family: dbeta/dkappa and dD/dkappa, D =
    D(pi_U || P_U) (None, None at kappa = 1).

    On the block of rows and columns it is pi(u, v) = Q(u, v) e^beta_v
    (P_U(u) / A_u)^kappa with A_u = sum_v Q(u, v) e^beta_v, so that
    log pi_U = (1 - kappa) log A + kappa log P_U; Newton's method solves the
    column condition pi_V = P_V for beta. It is the gradient of the convex
    sum_u P_U^kappa A_u^(1 - kappa) / (1 - kappa) - P_V . beta (at kappa = 1,
    sum_u P_U log A_u - P_V . beta), so the Jacobian J = diag(pi_V) - kappa
    sum_u pi(u, .) pi(u, .)^T / pi_U(u) is symmetric. The sum lies between 0
    and diag(pi_V) (Jensen's inequality), so for kappa < 1 J is positive
    definite, at least min(1, 1 - kappa) diag(pi_V), and a step is a plain
    solve; at kappa = 1 it is singular along shifts of beta, which a
    least-squares step leaves out. Each step is cut to _NEWTON_MAX_STEP, as
    a longer one can put a row on one column, where the Jacobian has nothing
    left to steer by, then halved until the residual shrinks and the
    potential does not rise (to the tolerance).

    The tangent reuses the converged J: with g_u = log P_U(u) - log A_u,
    dbeta/dkappa = -J^-1 sum_u pi(u, .) g_u, d log pi_U(u)/dkappa = g_u +
    (1 - kappa) pi(. | u) . dbeta/dkappa, and as log(pi_U / P_U) =
    -(1 - kappa) g, dD/dkappa = -(1 - kappa) sum_u pi_U(u) g_u
    d log pi_U(u)/dkappa.
    """

    def point(beta):
        x = log_q + beta
        top = x.max(axis=1, keepdims=True)
        log_a = top + np.log(np.exp(x - top).sum(axis=1, keepdims=True))
        # pi and pi(v | u) = Q e^beta / A, so no row of pi_U is divided by
        return np.exp(x + kappa * (log_p_u - log_a)), np.exp(x - log_a), log_a[:, 0]

    tol = _NEWTON_TOL * (1.0 + abs(kappa))  # rounding grows with the exponents
    s, diag = 1.0 - kappa, slice(None, None, len(p_v) + 1)
    pi, cond, log_a = point(beta)
    pi_v = pi.sum(axis=0)
    resid = pi_v - p_v
    for step in range(_NEWTON_MAX_ITER + 1):
        jac = pi.T @ cond
        jac *= -kappa
        jac.flat[diag] += pi_v
        if np.abs(resid).max() <= tol:
            if not s:
                return pi, beta, step, None, None
            g = log_p_u[:, 0] - log_a
            dbeta = np.linalg.solve(jac, -(g @ pi))
            pi_u = pi.sum(axis=1)
            return pi, beta, step, dbeta, float(-s * ((pi_u * g) @ (g + s * (cond @ dbeta))))
        if step == _NEWTON_MAX_ITER:
            break
        if s:
            delta = np.linalg.solve(jac, -resid)
        else:
            delta = np.linalg.lstsq(jac, -resid, rcond=None)[0]
            delta -= delta.mean()  # rounding's share of a shift
        norm2, pi_u = resid @ resid, pi.sum(axis=1)
        t = _NEWTON_MAX_STEP / max(np.abs(delta).max(), _NEWTON_MAX_STEP)
        with np.errstate(over="ignore", invalid="ignore"):  # a step too long
            for _ in range(60):
                new_pi, new_cond, new_log_a = point(beta + t * delta)
                new_pi_v = new_pi.sum(axis=0)
                new_resid = new_pi_v - p_v
                # the potential's rise: pi_U(u) / s grows by the factor
                # (A_u' / A_u)^s, at s = 0 by P_U(u) log(A_u' / A_u)
                d = new_log_a - log_a
                rise = pi_u @ (np.expm1(s * d) / s if s else d) - t * (p_v @ delta)
                if rise <= tol and new_resid @ new_resid <= (1.0 - 1e-4 * t) ** 2 * norm2:
                    break
                t /= 2.0
            else:
                break
        beta, pi, cond, log_a = beta + t * delta, new_pi, new_cond, new_log_a
        pi_v, resid = new_pi_v, new_resid
    raise NoConvergence(f"Newton's method left the column sums {np.abs(resid).max():.3g} "
                        f"from P_V at kappa = {kappa}")


def _lagrangian_min(q: np.ndarray, p_u: np.ndarray, p_v: np.ndarray, tau: float,
                    upper: bool, coupling: np.ndarray, d_t: float):
    """The point of the Lagrangian family on the sphere D(pi_U || P_U) = tau,
    on its feasible side: (pi, kappa, Newton steps, value - L(lambda)), with
    pi None (and the last kappa tried) where the E3 branch kappa < 0 has no
    crossing. kappa = 0 is `coupling`, the closed form with D(T_U || P_U) =
    d_t; for E2 kappa = 1 is E1's I-projection, at D = 0.

    D - tau falls as kappa rises, and each solved point carries its slope
    dD/dkappa, so the crossing is found by Newton steps in kappa from
    kappa = 0, each kept inside the bracket [a, b] of the points solved so
    far and bisecting it where a step would leave it: [0, 1] for E2; for E3
    [1 - 2^_KAPPA_SCAN, 0], whose far end joins the bracket once solved, and
    where D stays below tau even there the branch does not cross. Until
    then no E3 step more than doubles 1 - kappa, the reach of the former
    scan kappa = 1 - 2^k. A step from the infeasible side aims half the
    tolerance past the crossing, so the search ends on the feasible side,
    once a step is within the tolerance. Each solve starts from the beta of
    the solved point nearest its kappa, moved along that point's tangent
    (predictor-corrector continuation).

    pi minimizes D(. || Q) + lambda (D(._U || P_U) - tau), lambda =
    kappa / (1 - kappa) > -1, over the couplings with column marginal P_V,
    a jointly convex function also on E3's branch (kappa < 0, lambda = -nu,
    nu < 1). So its minimum L(lambda) bounds the constrained minimum from
    below, and the gap value - L(lambda) = -lambda (D - tau) >= 0 certifies
    it; at kappa = 1, lambda is infinite and certifies nothing.
    """
    block, log_q, log_p_u, p_v, beta = _live_block(q, p_u, p_v)
    # kappa -> (D(pi_U || P_U) - tau, pi, beta, dbeta/dkappa, dD/dkappa)
    points = {}

    def solve(kappa):
        nonlocal steps
        if kappa not in points:
            # the nearest point's beta moved along its tangent: linear in
            # kappa for E2, for E3 in 1 / (1 - kappa) = 1 + lambda, in which
            # beta tends to a limit as kappa falls
            near = min(points, key=lambda k: abs(k - kappa))
            _, _, start, dbeta, _ = points[near]
            scale = (1.0 - near) / (1.0 - kappa) if upper else 1.0
            pi, beta, n, dbeta, slope = _lagrangian_point(
                log_q, log_p_u, p_v, kappa, start + (kappa - near) * scale * dbeta)
            steps += n
            full = np.zeros_like(q)
            full[block] = pi
            points[kappa] = (float(kl_rows(full.sum(axis=1), p_u)) - tau, full, beta, dbeta,
                             slope)
        return points[kappa][0]

    _, beta, steps, dbeta, slope = _lagrangian_point(log_q, log_p_u, p_v, 0.0, beta)
    points[0.0] = (d_t - tau, coupling, beta, dbeta, slope)
    # the bracket: D - tau >= 0 at a, <= 0 at b; E3's end a is in it once solved
    a, b = (1.0 - 2.0**_KAPPA_SCAN, 0.0) if upper else (0.0, 1.0)
    known = not upper
    kappa = 0.0
    for _ in range(_ROOT_MAX_ITER):
        excess, slope = points[kappa][0], points[kappa][4]
        if excess > 0.0:
            a, known = kappa, True
        elif excess < 0.0:
            if kappa == a:  # E3's far end: the branch does not cross the sphere
                return None, kappa, steps, math.nan
            b = kappa
        xtol = _KAPPA_XTOL + _KAPPA_RTOL * abs(kappa)
        step = -excess / slope if slope < 0.0 else math.nan
        feasible = excess >= 0.0 if upper else excess <= 0.0
        if excess == 0.0 or (known and b - a <= xtol) or (feasible and abs(step) <= xtol):
            break
        if not feasible:  # aim past the crossing, onto the feasible side
            step += math.copysign(xtol / 2.0, step)
        # short of E3's end, no step more than doubles 1 - kappa
        lo = a if known else max(a, 1.0 - 2.0 * (1.0 - b))
        kappa += step
        if not lo < kappa < b:
            kappa = (a + b) / 2.0 if known else lo
        solve(kappa)
    else:
        raise NoConvergence(f"no crossing of D = {tau} found in {_ROOT_MAX_ITER} kappa steps")
    # of the points solved, the one nearest the sphere on its feasible side;
    # none when the sphere is within xtol of E2's end kappa = 1, then that end
    feasible = [k for k, p in points.items() if (p[0] >= 0.0 if upper else p[0] <= 0.0)]
    kappa = min(feasible, key=lambda k: abs(points[k][0])) if feasible else 1.0
    excess = solve(kappa)
    gap = _INF if kappa == 1.0 else kappa / (kappa - 1.0) * excess
    return points[kappa][1], kappa, steps, gap


def _constrained_min(q_uv: JointPmf, p_u: Pmf, p_v: Pmf, tau: float,
                     upper: bool) -> ExponentTerm:
    """min of g over the ball D(pi_U || P_U) <= tau (upper=False) or over its
    complement D >= tau (upper=True), with the minimizing coupling.

    g is convex with its unconstrained minimum at T_U, so when T_U is not
    feasible the minimum lies on the sphere D = tau, where the Lagrangian
    family of `_lagrangian_min` crosses it: for E2 at some kappa in [0, 1]
    (whenever a coupling of P_U and P_V exists on supp Q; else the sphere
    search), for E3 on the branch kappa < 0 if it crosses, and there the
    crossing is certified. Elsewhere E3 is +inf if tau > -log min P_U on the
    face (all of it is in the ball), else the sphere search's minimum. The
    ball lies in the face supp(P_U), so E2 first conditions Q on that face.
    E3 need not: T_U off the face is feasible, and T_U on it makes g +inf
    off the face. One DEBUG record names the branch taken (closed form,
    sphere out of reach, Lagrangian, sphere fallback, or no coupling on the
    face), kappa, the Newton steps and the gap value - L(lambda).
    """
    face = p_u.probs > 0.0
    log_mass = 0.0
    what = "E3 inner" if upper else "E2"
    if not upper and not face.all():
        q = np.where(face[:, None], q_uv.probs, 0.0)
        if np.any((p_v.probs > 0.0) & (q.sum(axis=0) == 0.0)):
            logger.debug(_MIN_RECORD, what, tau, "no coupling on the face", math.nan, 0,
                         math.nan)
            return ExponentTerm(_INF)
        # a coupling on the face has D(. || Q) = D(. || Q / Q(face)) - log Q(face)
        log_mass = math.log(q.sum())
        q_uv = JointPmf(q_uv.row_alphabet, q_uv.col_alphabet, q / q.sum())
    k = _v_conditional_coupling(p_v, q_uv)
    d_t = float(kl_rows(k.sum(axis=1), p_u.probs))  # D(T_U || P_U)
    if (d_t >= tau) if upper else (d_t <= tau):
        logger.debug(_MIN_RECORD, what, tau, "closed form", 0.0, 0, 0.0)
        coupling = JointPmf(q_uv.row_alphabet, q_uv.col_alphabet, k)
        return ExponentTerm(local_exponent(p_v, q_uv.col_marginal()) - log_mass, coupling)
    if upper and tau > -math.log(p_u.probs[face].min()):
        logger.debug(_MIN_RECORD, what, tau, "sphere out of reach", math.nan, 0, math.nan)
        return ExponentTerm(_INF)
    pi, kappa, steps, gap = None, math.nan, 0, math.nan
    if upper or _coupling_exists(q_uv.probs > 0.0, p_u.probs, p_v.probs):
        pi, kappa, steps, gap = _lagrangian_min(q_uv.probs, p_u.probs, p_v.probs, tau,
                                                upper, k, d_t)
    if pi is None:
        value, pt = _sphere_min(_coupling_objective(q_uv, p_v), p_u.probs, tau)
        logger.debug(_MIN_RECORD, what, tau, "sphere fallback", kappa, steps, gap)
        if pt is None or not math.isfinite(value):
            return ExponentTerm(value)
        _, coupling = _coupling_divergence(q_uv, Pmf(p_u.alphabet, pt), p_v)
        return ExponentTerm(value - log_mass, coupling)
    coupling = JointPmf(q_uv.row_alphabet, q_uv.col_alphabet, pi)
    value = kl_divergence_vec(coupling.probs.ravel(), q_uv.probs.ravel())
    logger.debug(_MIN_RECORD, what, tau, "Lagrangian", kappa, steps, gap)
    return ExponentTerm(value - log_mass, coupling)


def compute_E2(p_uv: JointPmf, q_uv: JointPmf, p_u: Pmf, pbar: PbarSet) -> ExponentTerm:
    """Exponent of the no-transmission branch: V-marginal pinned, U-type kept
    outside the transmission-triggering set (minimized over its closure)."""
    if pbar.tau_nats <= 0:
        raise EmptyFeasibleSet("tau <= 0: every type triggers transmission")
    return _constrained_min(q_uv, p_u, p_uv.col_marginal(), pbar.tau_nats, upper=False)


def compute_E3(p_uv: JointPmf, q_uv: JointPmf, p_u: Pmf, dmc: Dmc,
               pbar: PbarSet) -> tuple[float, float, float]:
    """Exponent of the transmission branch for the input pbar.x1, in nats:
    (inner, channel, total). The inner term minimizes g over the triggering
    set D >= tau; the channel term is D(W_Y(.|0) || W_Y(.|x1)), +inf off its
    support."""
    try:
        chan = kl_divergence(dmc.y_row(dmc.zero_symbol), dmc.y_row(pbar.x1))
    except SupportViolation:
        chan = _INF
    inner = _constrained_min(q_uv, p_u, p_uv.col_marginal(), pbar.tau_nats, upper=True)
    return inner.value_nats, chan, inner.value_nats + chan


def local_exponent(p_v: Pmf, q_v: Pmf) -> float:
    """Exponent of the decision center alone, D(P_V || Q_V) in nats."""
    return kl_divergence(p_v, q_v)


class Improvement(enum.Enum):
    NO_IMPROVEMENT = "no_improvement"
    STRICT_IMPROVEMENT_PARTIAL = "strict_improvement_partial"
    STRICT_IMPROVEMENT_FULL = "strict_improvement_full"


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
    ``t_u`` is T_U, against which the ``improvement`` verdict is decided.
    """

    e1_nats: float
    e2_by_x1: dict  # symbol -> nats
    e3_by_x1: dict  # symbol -> (inner, channel, total) nats
    local_nats: float
    connectivity: ConnectivityCase
    theta_nats: float
    theta_literal_nats: float
    improvement: Improvement
    t_u: Pmf

    def as_dict(self) -> dict:
        """The report in bits, as ``covertdht exponents --json`` writes it."""

        def bits(nats: float) -> float:
            return nats / LN2

        return {
            "base": "bits",
            "e1": bits(self.e1_nats),
            "e2_by_x1": {str(k): bits(v) for k, v in self.e2_by_x1.items()},
            "e3_by_x1": {
                str(k): {"inner": bits(v[0]), "channel": bits(v[1]), "total": bits(v[2])}
                for k, v in self.e3_by_x1.items()
            },
            "local": bits(self.local_nats),
            "connectivity": self.connectivity.value,
            "theta": bits(self.theta_nats),
            "theta_literal_min": bits(self.theta_literal_nats),
            "eps": 0.0,
            "improvement": self.improvement.value,
            "T_U": [float(x) for x in self.t_u.probs],
        }


def achievable_exponent(
    p_uv: JointPmf,
    q_uv: JointPmf,
    dmc: Dmc,
) -> ExponentReport:
    """Main-result exponent with the connectivity case split, from one pass
    over the non-zero inputs.

    Communication improves on the local test unless T_U is P_U; it does so
    strictly on a partially connected channel, and on a fully connected one
    when T_U triggers some input's transmission.

    The exponents are the same for every Type-I ceiling in [0, 1), so none is
    taken; the JSON report still carries ``"eps": 0.0`` for its readers.
    """
    conditions = validate_covert_conditions(dmc)
    if not conditions.all_pass:
        raise InvalidChannel("channel fails the covert admissibility conditions")
    p_u = p_uv.row_marginal()
    p_v = p_uv.col_marginal()
    e1 = compute_E1(p_uv, q_uv).value_nats
    local = local_exponent(p_v, q_uv.col_marginal())
    t_u = compute_T_U(p_v, q_uv)
    e2_by_x1, e3_by_x1, triggered = {}, {}, False
    for x1 in dmc.nonzero_inputs():
        # admissibility rules out G1 = G0, so tau > 0 and E2 is defined
        pbar = pbar_threshold(dmc, x1)
        e2_by_x1[x1] = compute_E2(p_uv, q_uv, p_u, pbar).value_nats
        e3_by_x1[x1] = compute_E3(p_uv, q_uv, p_u, dmc, pbar)
        triggered |= bool(pbar.triggers(t_u.probs, p_u))
    partial = conditions.partially_connected is not None
    if np.max(np.abs(t_u.probs - p_u.probs)) <= _T_U_ATOL or not (partial or triggered):
        verdict = Improvement.NO_IMPROVEMENT
    elif partial:
        verdict = Improvement.STRICT_IMPROVEMENT_PARTIAL
    else:
        verdict = Improvement.STRICT_IMPROVEMENT_FULL
    if partial:
        case = ConnectivityCase.PARTIALLY_CONNECTED
        theta = theta_literal = e1
    else:
        case = ConnectivityCase.FULLY_CONNECTED
        theta = max(min(e2_by_x1[x1], e3[2]) for x1, e3 in e3_by_x1.items())
        best = max(e3_by_x1, key=lambda x1: e3_by_x1[x1][2])  # first of the maxima
        theta_literal = min(e2_by_x1[best], e3_by_x1[best][2])
    return ExponentReport(
        e1_nats=e1,
        e2_by_x1=e2_by_x1,
        e3_by_x1=e3_by_x1,
        local_nats=local,
        connectivity=case,
        theta_nats=theta,
        theta_literal_nats=theta_literal,
        improvement=verdict,
        t_u=t_u,
    )
