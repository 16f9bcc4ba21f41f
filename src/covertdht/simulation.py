"""Exact error probabilities and Monte-Carlo estimation for the two covert
testing schemes.

Scheme A (sublinear burst): the sensor checks whether its source block is
strongly typical; if so it stays silent (all zeros), otherwise it sends the
designated non-zero symbol over the first k(n) channel uses and zeros after.
The decision center declares the null hypothesis iff the marker output
appears among the first k(n) outputs and its own observations are typical.
The marker scan is restricted to the burst window: the zero-input tail emits
the marker with positive probability, so scanning the whole block would
saturate the Type-II error.

Scheme B (full block): the sensor transmits the constant codeword iff its
observed source type crosses the divergence threshold, else all zeros. The
decision center declares the null hypothesis iff its observations and the
channel outputs are both strongly typical (outputs tested against the
zero-input row).

Both encoders depend on the block only through the type of U^n and both
decisions only through the types of V^n and Y^n, so the library works on
types alone and never on symbol sequences. The encoder rule is written once,
in ``_transmits`` (scheme B's threshold test is ``PbarSet.triggers``), and so
is the V test's per-letter condition, ``probability.typical_letters``. The
center accepts the null when its V test passes and the branch passes, the
part of the test that reads the channel output. Given the encoder's
decision the branch passes with a probability f, the branch factor, and one
function gives f to both engines (``_log_branch_factors``): scheme A's in
closed form, scheme B's from the box chain ``typesum.log_prob_boxes``, with
no Y lattice. ``transmit_probability`` sums the encoder rule over the bands
of the U lattice: delta_n. Both engines, ``exact_error_probs`` and
``run_trials``, return the cell's ``SimulationResult`` record (``log_beta``
included, exact also where beta underflows), built by one helper that also
derives the weight statistics from the firing probability (delta_n, or its
sampled frequency).

The exact engine works on a whole mu grid at one n, a validated copy
``cfg.replace(mu=mu)`` of the scheme per mu. It walks the bands of joint
types once: a band row fixes T_U, so ``_transmits`` decides each row once,
the V test reads a table of ``typical_letters`` on the counts 0..n at each
type's V counts, and each band's class log-probabilities under each law are
computed once and decided at each mu with the same predicates. Each mu's
sums are the same floating-point operations, in the same order and over the
same band partition, as a pass at that mu alone on materialized blocks.

The Monte Carlo engine, ``run_trials``, is conditional Monte Carlo: it draws
the pair (T_U, T_V) of each trial, never the branch, and weights the
V-typical trials of each decision by f. A law whose V marginal is typical
for P_V (the null's always is) draws U first, then T_V given T_U; any other
law draws V first, letter by letter, and prunes a trial at its first
atypical letter (``_trial_chunk``). Chunks of trials run on threads, one per
core the process may run on (numpy's samplers release the interpreter lock),
and return integer counts, so seeded results do not depend on the core count
or the block size.
"""

from __future__ import annotations

import logging
import math
import os
import time
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .channel import Dmc
from .errors import ConfigMismatch, DegenerateInput
from .exponents import PbarSet
from .probability import LN2, Frozen, JointPmf, Pmf, typical, typical_letters
from .typesum import (
    NEG_INF,
    check_enumerable,
    log_multinomial,
    log_prob_boxes,
    log_sequence_prob,
    logsumexp,
    prob_type_event,
    type_bands,
)

logger = logging.getLogger(__name__)

# Monte Carlo trials drawn and decided at a time (bounds a task's memory)
BLOCK_TRIALS = 1 << 13
# Monte Carlo trials per task; a task's generators are seeded by its index
CHUNK_TRIALS = 50_000


def make_k_rule(spec: str) -> Callable[[int], int]:
    """Burst-length rules: 'sqrt', 'log', or 'pow:a' with 0 < a < 1."""
    if spec == "sqrt":
        return lambda n: max(1, math.isqrt(n - 1) + 1)  # ceil(sqrt(n))
    if spec == "log":
        return lambda n: max(1, math.ceil(math.log(n + 1)))
    if spec.startswith("pow:"):
        a = float(spec.split(":", 1)[1])
        if not 0.0 < a < 1.0:
            raise ValueError("power rule requires 0 < a < 1")
        return lambda n: max(1, math.ceil(n**a))
    raise ValueError(f"unknown k-rule {spec!r}")


class SchemeConfig(Frozen):
    """Configuration of one coding-and-testing scheme.

    ``x1`` is the full-block codeword symbol (scheme B), ``x_hat``/``y_star``
    the burst symbol and marker output (scheme A). ``k_rule`` maps n to the
    burst length and must satisfy k(n) <= n on the blocklengths in use.
    Configs with equal fields are equal, and a config is hashable; `replace`
    copies one with some fields changed.
    """

    _repr = ("scheme", "mu", "x1", "x_hat", "y_star", "k_spec")

    def __init__(self, scheme: str, mu: float = 0.05, x1: object = None, x_hat: object = None,
                 y_star: object = None, k_spec: str = "sqrt"):
        self._set(scheme=scheme, mu=mu, x1=x1, x_hat=x_hat, y_star=y_star, k_spec=k_spec)
        if scheme not in ("A", "B"):
            raise ValueError("scheme must be 'A' or 'B'")
        if isinstance(mu, bool) or not 0 < mu < math.inf:  # NaN as well
            raise ValueError("mu must be positive and finite")
        if scheme == "A" and (x_hat is None or y_star is None):
            raise ValueError("scheme A requires x_hat and y_star")
        if scheme == "B" and x1 is None:
            raise ValueError("scheme B requires x1")

    def _values(self) -> tuple:
        return self.scheme, self.mu, self.x1, self.x_hat, self.y_star, self.k_spec

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is SchemeConfig else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def replace(self, **changes) -> "SchemeConfig":
        """A copy with the named fields changed, validated as a new config."""
        return SchemeConfig(**{**dict(zip(self._repr, self._values())), **changes})

    def k(self, n: int) -> int:
        kv = make_k_rule(self.k_spec)(n)
        if kv > n:
            raise ConfigMismatch(f"k({n}) = {kv} exceeds the blocklength")
        return kv

    def validate_against(self, dmc: Dmc) -> None:
        """Scheme A needs the (x_hat, y_star) pairing to be a real dead edge."""
        if self.scheme == "A":
            if dmc.y_row(dmc.zero_symbol)[self.y_star] <= 0.0:
                raise ConfigMismatch("y_star has zero probability under the zero input")
            if dmc.y_row(self.x_hat)[self.y_star] != 0.0:
                raise ConfigMismatch("y_star is reachable from x_hat; marker is ambiguous")
        else:
            if self.x1 == dmc.zero_symbol:
                raise ConfigMismatch("x1 must differ from the zero symbol")


def _transmits(cfg: SchemeConfig, t_u: np.ndarray, p_u: Pmf, pbar: PbarSet | None) -> np.ndarray:
    """The encoder rule on a ``(rows, |U|)`` array of source types: True
    where the sensor transmits. Scheme B transmits when the type crosses
    the divergence threshold, scheme A when it is atypical."""
    if cfg.scheme == "A":
        return ~typical(t_u, p_u.probs, cfg.mu)
    if pbar is None:
        raise ConfigMismatch("scheme B needs the threshold set")
    return pbar.triggers(t_u, p_u)


def _v_typical(cfg: SchemeConfig, c_v: np.ndarray, p_v: Pmf, n: int) -> np.ndarray:
    """The V test on a ``(rows, |V|)`` array of V counts: True where V^n is
    typical."""
    return typical(c_v / n, p_v.probs, cfg.mu)


def transmit_probability(
    cfg: SchemeConfig, p_u: Pmf, n: int, pbar: PbarSet | None = None
) -> float:
    """delta_n, the exact probability that the encoder fires under the null,
    summed over the transmitting types of U^n (not as 1 - Pr[silent], which
    rounds to zero once delta_n drops below machine epsilon), one band of
    the U lattice at a time."""
    return prob_type_event(p_u, n, lambda t: _transmits(cfg, t, p_u, pbar))


def _log_branch_factors(
    cfg: SchemeConfig, dmc: Dmc, n: int, mus: Sequence[float]
) -> list[tuple[float, float]]:
    """(log f_silent, log f_active) at each mu of ``mus``: given the
    encoder's decision, the probability that the branch passes. Scheme A's
    marker appears among a silent sensor's k(n) burst outputs, never among
    an active one's (``validate_against``). Scheme B's Y^n is mu-typical for
    the zero-input row given the constant codeword 0 or x1, by the box chain
    on the boxes of ``typical_letters`` on the counts 0..n."""
    if cfg.scheme == "A":
        p_star0 = dmc.y_row(dmc.zero_symbol)[cfg.y_star]
        log_silent = math.log1p(-((1.0 - p_star0) ** cfg.k(n))) if p_star0 > 0 else NEG_INF
        return [(log_silent, NEG_INF)] * len(mus)
    ref = dmc.y_row(dmc.zero_symbol).probs
    rows = np.stack([dmc.y_row(x).probs for x in (dmc.zero_symbol, cfg.x1)])
    column = np.arange(n + 1)[:, None] / n
    return [tuple(log_prob_boxes(rows, n, typical_letters(column, ref, mu).T)) for mu in mus]


def _log_accept_probs(
    cfgs: Sequence[SchemeConfig],
    p_uv: JointPmf,
    q_uv: JointPmf,
    dmc: Dmc,
    n: int,
    pbar: PbarSet | None,
) -> list[tuple[float, float]]:
    """log Pr[decide 0] under the null and under the alternative, for each
    config of ``cfgs`` (one scheme at several mu), in one walk of the bands
    of joint source types.

    A band's class log-probabilities come from its count tables and serve
    every mu. A band row, which fixes the first |U||V| - 2 cells, fixes T_U
    where |V| >= 2 (its last two cells share the last U letter), so
    ``_transmits`` decides each row once (scheme B) or once per row and mu
    (scheme A). The V test reads a per-mu table of ``typical_letters`` on the
    counts 0..n. With |V| = 1 the joint type is T_U. The branch factors and
    each type's decisions serve both laws. Every test reads integer counts
    divided by n, so enumerated and sampled counts meet the closed
    typicality boundary at the same place.
    """
    cfg = cfgs[0]
    p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
    du, dv = p_u.alphabet.size, p_v.alphabet.size
    check_enumerable(n, du * dv, "joint source type enumeration")
    factors = _log_branch_factors(cfg, dmc, n, [c.mu for c in cfgs])
    v_tables = [typical_letters(np.arange(n + 1)[:, None] / n, p_v.probs, c.mu) for c in cfgs]
    laws = [joint.probs.ravel() for joint in (p_uv, q_uv)]
    logs = [([], []) for _ in cfgs]
    for band in type_bands(n, du * dv):
        log_coef = log_multinomial(band)
        lps = [log_coef + log_sequence_prob(band, law) for law in laws]
        if dv == 1:  # the joint type is T_U, and T_V = (1)
            t_u, row = band, slice(None)
        else:
            heads, rest, row, j, last = band.rows()
            cells = np.zeros((len(rest), du, dv), dtype=np.int64)
            cells.reshape(len(rest), -1)[:, :-2] = heads
            c_u, c_v = cells.sum(axis=2), cells.sum(axis=1)  # c_v: the partial V counts
            c_u[:, -1] += rest
            t_u, v_j, v_last = c_u / n, c_v[row, -2] + j, c_v[row, -1] + last
        if cfg.scheme == "B":
            active = _transmits(cfg, t_u, p_u, pbar)[row]
        for c, table, (log_silent, log_active), out in zip(cfgs, v_tables, factors, logs):
            if cfg.scheme == "A":
                active = _transmits(c, t_u, p_u, pbar)[row]
            if dv == 1:
                accept = np.full(len(band), table[n, 0])
            else:
                accept = table[v_j, -2] & table[v_last, -1]
                if dv > 2:
                    accept &= table[c_v[:, :-2], np.arange(dv - 2)].all(axis=1)[row]
            factor = np.where(active[accept], log_active, log_silent)
            for part, lp in zip(out, lps):
                part.append(logsumexp(lp[accept] + factor))
    return [(min(logsumexp(h0), 0.0), min(logsumexp(h1), 0.0)) for h0, h1 in logs]


def exact_error_probs(
    cfg: SchemeConfig,
    mus: Sequence[float],
    p_uv: JointPmf,
    q_uv: JointPmf,
    dmc: Dmc,
    n: int,
    pbar: PbarSet | None = None,
) -> list[SimulationResult]:
    """Exact alpha_n, beta_n and log beta_n by joint-type enumeration, with
    the weight statistics of delta_n: the record of the cell of ``cfg`` at
    each mu of ``mus``, in that order (``cfg.mu`` itself is not read).

    One walk of the joint-type lattice serves the whole mu grid
    (``_log_accept_probs``). Scheme B's delta_n does not depend on mu and is
    summed once; scheme A's encoder reads mu, so its delta_n is summed at
    each mu. Raises AlphabetTooLarge where the joint lattice exceeds the cap.
    """
    if not mus:
        raise ValueError("the mu grid is empty")
    cfg.validate_against(dmc)
    cfgs = [cfg.replace(mu=mu) for mu in mus]
    log_accepts = _log_accept_probs(cfgs, p_uv, q_uv, dmc, n, pbar)
    p_u = p_uv.row_marginal()
    if cfg.scheme == "B":
        deltas = [transmit_probability(cfg, p_u, n, pbar)] * len(cfgs)
    else:
        deltas = [transmit_probability(c, p_u, n, pbar) for c in cfgs]
    results = []
    for c, delta, (log_acc_h0, log_acc_h1) in zip(cfgs, deltas, log_accepts):
        alpha = -math.expm1(log_acc_h0) if log_acc_h0 > NEG_INF else 1.0
        beta = math.exp(log_acc_h1) if log_acc_h1 > NEG_INF else 0.0
        # -expm1(0.0) is -0.0, and max keeps its first argument on a tie
        results.append(_result(c, n, delta, alpha=max(0.0, alpha), beta=beta,
                               log_beta=log_acc_h1, method="exact"))
    return results


class SimulationResult(NamedTuple):
    """Error estimates for one (scheme, n) cell, compared field by field."""

    scheme: str
    n: int
    mu: float
    k: int | None
    alpha: float
    beta: float
    log_beta: float  # natural log of beta, exact also where beta underflows to 0
    method: str  # "exact" or "mc"
    alpha_ci: float = 0.0  # 95% Wilson half-width (mc only)
    beta_ci: float = 0.0
    trials: int = 0
    seed: int | None = None
    beta_is_upper_bound: bool = False  # rule-of-three stand-in for zero counts
    weight_mean: float = 0.0  # mean Hamming-weight fraction of X^n under H0
    a_bar: float = 0.0  # sqrt of the mean per-position activity under H0


def _result(cfg: SchemeConfig, n: int, p_fire: float, **estimates) -> SimulationResult:
    """The record of one cell: the fields both engines share, and the weight
    statistics of a codeword on k(n) uses (scheme A) or all n (scheme B)
    that fires with probability ``p_fire`` under the null."""
    k = cfg.k(n) if cfg.scheme == "A" else None
    weight_mean = p_fire * (n if k is None else k) / n
    return SimulationResult(scheme=cfg.scheme, n=n, mu=cfg.mu, k=k, weight_mean=weight_mean,
                            a_bar=math.sqrt(weight_mean), **estimates)


def _wilson_halfwidth(phat: float, trials: int, z: float = 1.959963984540054) -> float:
    """The 95% Wilson score half-width at the mean ``phat`` of ``trials``
    draws in [0, 1]: the distance from ``phat`` to the further bound."""
    if trials == 0:
        return 0.0
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(abs(center + half - phat), abs(center - half - phat))


def _usable_cores() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _v_first(cfg: SchemeConfig, law: JointPmf, p_v: Pmf) -> bool:
    """The draw order of ``law``'s trials: V first where its own V marginal
    is atypical for P_V, so that the V test rejects most of them, else U
    first. The null's V marginal is P_V itself, so the null draws U first.
    A marginal on the edge of the mu-box may fall on either side by a float
    rounding: the order changes the speed and the stream, not the law."""
    return not typical(law.probs.sum(axis=0), p_v.probs, cfg.mu)


def _rows_given(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A joint pmf's row marginal and its rows conditioned on it; a row of
    zero mass is only ever drawn with 0 trials, so any pmf does there."""
    first = joint.sum(axis=1)
    cond = np.divide(joint, first[:, None], out=np.ones_like(joint) / joint.shape[1],
                     where=first[:, None] > 0)
    return first, cond


def _typical_letters(
    rngs: list, law_v: np.ndarray, ref: np.ndarray, mu: float, n: int, size: int
) -> np.ndarray:
    """The V counts of ``size`` trials under ``law_v``, drawn letter by letter
    as the multinomial's chain of binomials, letter j from ``rngs[j]`` and
    the last letter taking the remainder. A trial leaves at its first letter
    that fails the V test's per-letter condition; the rows of the trials
    that pass every letter are returned, in trial order."""
    tail = np.cumsum(law_v[::-1])[::-1]
    step = np.divide(law_v, tail, out=np.zeros_like(law_v), where=tail > 0)
    remaining = np.full(size, n, dtype=np.int64)
    cols = []
    for j in range(len(law_v)):
        c_j = rngs[j].binomial(remaining, step[j]) if j < len(rngs) else remaining
        ok = typical((c_j / n)[:, None], ref[j : j + 1], mu)
        cols = [c[ok] for c in cols] + [c_j[ok]]
        remaining = (remaining - c_j)[ok]
    return np.stack(cols, axis=1)


def _trial_chunk(
    cfg: SchemeConfig,
    law: JointPmf,
    p_u: Pmf,
    p_v: Pmf,
    n: int,
    pbar: PbarSet | None,
    branch: np.ndarray,
    m: int,
    key: tuple[int, int, int],
) -> tuple[int, int, int, int]:
    """Draw ``m`` trials under ``law`` up to the V test: the counts of
    V-typical trials whose sensor stays silent and of those whose sensor
    transmits, then of active and of pruned trials. The branch is not drawn;
    ``branch[a]`` is False where decision a's branch factor is 0 (scheme A's
    active sensor), and a U-first trial with that decision draws no V.

    A block of at most ``BLOCK_TRIALS`` trials is drawn in two stages, each
    from its own generator, seeded by ``key`` (seed, hypothesis, chunk) and
    the stage number. A law whose own V marginal is typical for P_V draws,
    in stage 0, the U counts, which fix the encoder decision, and in stage
    2 the V counts as the sum over u of Mult(c_u[u], P_{V|U=u}), exactly
    T_V given T_U. Any other law, whose trials the V test almost all
    rejects, draws the same joint law in the other order: in stage 0 the V
    counts letter by letter, letter j from a generator seeded by (``key``,
    0, j), pruning a trial at its first atypical letter; in stage 2, for the
    trials left, the U counts as the sum over v of Mult(c_v[v], P_{U|V=v}).
    Each generator draws in trial order, so blocked draws equal one draw of
    all ``m`` trials. The active count is that of the trials left, so it is
    the firing count only under U first.
    """
    v_first = _v_first(cfg, law, p_v)
    law_first, cond = _rows_given(law.probs.T if v_first else law.probs)
    if v_first:
        rng_first = [np.random.default_rng([*key, 0, j]) for j in range(len(law_first) - 1)]
    else:
        rng_first = np.random.default_rng([*key, 0])
    rng_second = np.random.default_rng([*key, 2])
    typical_active = typical_silent = active_total = pruned = 0
    for lo in range(0, m, BLOCK_TRIALS):
        size = min(BLOCK_TRIALS, m - lo)
        if v_first:
            c_v = _typical_letters(rng_first, law_first, p_v.probs, cfg.mu, n, size)
            pruned += size - len(c_v)
            c_u = rng_second.multinomial(c_v, cond).sum(axis=1)
            active = live_active = _transmits(cfg, c_u / n, p_u, pbar)
        else:
            c_u = rng_first.multinomial(n, law_first, size=size)
            active = _transmits(cfg, c_u / n, p_u, pbar)
            live = branch[active.astype(np.intp)]
            live_active = active[live]
            c_v = rng_second.multinomial(c_u[live], cond).sum(axis=1)
        accepted = _v_typical(cfg, c_v, p_v, n)
        hits = int(np.count_nonzero(accepted & live_active))
        typical_active += hits
        typical_silent += int(np.count_nonzero(accepted)) - hits
        active_total += int(np.count_nonzero(active))
    return typical_silent, typical_active, active_total, pruned


def run_trials(
    cfg: SchemeConfig,
    p_uv: JointPmf,
    q_uv: JointPmf,
    dmc: Dmc,
    n: int,
    trials: int,
    seed: int,
    pbar: PbarSet | None = None,
) -> SimulationResult:
    """Monte-Carlo estimate of (alpha_n, beta_n) with Wilson 95% intervals.

    Per-trial type counts are sampled directly and decided by the same
    predicates as in the exact engine (``_trial_chunk``). The branch is not
    drawn: a V-typical trial is accepted with its decision's branch factor f
    (``_log_branch_factors``, as in the exact engine). So beta is the
    alternative's mean weight (f_silent c_silent + f_active c_active) /
    trials over its counts c of V-typical trials per decision, and alpha the
    null's mean of 1 - w, with 1 - f taken as -expm1(log f) so that a small
    alpha keeps its digits. This conditional Monte Carlo is never noisier
    than drawing the branch. Intervals are Wilson's at the weighted mean;
    they stay conservative, as a weight in [0, 1] with mean p has variance
    at most p (1 - p). A beta of 0 (no trial accepted with a positive
    weight) is reported as the rule-of-three bound 3/trials. The null draws
    U first, so alpha and the firing statistics read every trial's U
    counts; seeded beta values of a law drawn V first differ from those of
    the U-first order (the same law, another stream).

    Each hypothesis's trials split into chunks of ``CHUNK_TRIALS``; chunk i
    under hypothesis h draws its stage j from its own generator, seeded by
    (seed, h, i, j), and V letter l of the V-first order by (seed, h, i, 0,
    l). The chunks run concurrently on every core the process may run on,
    each drawing at most ``BLOCK_TRIALS`` trials at a time, and return
    integer counts, so a seeded result is the same bit for bit on any core
    count. The cell's DEBUG record names each hypothesis's order and the
    number of trials its V letters pruned.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    cfg.validate_against(dmc)
    p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
    [log_f] = _log_branch_factors(cfg, dmc, n, [cfg.mu])
    branch = np.array([lf > NEG_INF for lf in log_f])

    tasks = [
        (hyp, law, idx, min(CHUNK_TRIALS, trials - start))
        for hyp, law in ((0, p_uv), (1, q_uv))
        for idx, start in enumerate(range(0, trials, CHUNK_TRIALS))
    ]

    def work(task):
        hyp, law, idx, m = task
        return hyp, _trial_chunk(cfg, law, p_u, p_v, n, pbar, branch, m, (seed, hyp, idx))

    threads = min(len(tasks), _usable_cores())
    from concurrent.futures import ThreadPoolExecutor  # only Monte Carlo pays its 2 ms import

    with ThreadPoolExecutor(threads) as pool:
        outcomes = list(pool.map(work, tasks))
    counts = np.zeros((2, 4), dtype=np.int64)  # per hypothesis, as _trial_chunk counts
    for hyp, chunk in outcomes:
        counts[hyp] += chunk
    (*typical_h0, active_total, pruned_h0), (*typical_h1, _, pruned_h1) = counts.tolist()
    first = ["V" if _v_first(cfg, law, p_v) else "U" for law in (p_uv, q_uv)]
    logger.debug("Monte Carlo cell n=%d: %d trials, %d tasks, %d threads, %.3f s; "
                 "H0 drew %s first, %d pruned; H1 drew %s first, %d pruned",
                 n, trials, len(tasks), threads, time.perf_counter() - t0,
                 first[0], pruned_h0, first[1], pruned_h1)

    alpha = (trials - sum(typical_h0)
             - sum(math.expm1(lf) * c for lf, c in zip(log_f, typical_h0))) / trials
    beta = sum(math.exp(lf) * c for lf, c in zip(log_f, typical_h1)) / trials
    beta_ci = _wilson_halfwidth(beta, trials)
    beta_is_ub = beta == 0.0
    if beta_is_ub:
        beta = 3.0 / trials  # rule of three: no trial accepted with a positive weight
    return _result(
        cfg, n, active_total / trials, alpha=alpha, beta=beta, log_beta=math.log(beta),
        method="mc", alpha_ci=_wilson_halfwidth(alpha, trials), beta_ci=beta_ci,
        trials=trials, seed=seed, beta_is_upper_bound=beta_is_ub,
    )


class ExponentFit(NamedTuple):
    """Per-blocklength Type-II exponents and linear trend (bits), compared field by field."""

    ns: tuple
    exponents_bits: tuple  # -(1/n) log2 beta_n
    slope_bits: float  # least-squares slope of -log2 beta_n vs n
    intercept_bits: float
    monotone_increasing: bool
    excluded_ns: tuple = ()

    @property
    def direction(self) -> str:
        """The trend of the per-n exponents: "increasing" as the flag above
        has it, "decreasing" when no step up exceeds the same 1e-12, else
        "not monotone"."""
        steps = np.diff(self.exponents_bits)
        if self.monotone_increasing:
            return "increasing"
        return "decreasing" if bool(np.all(steps < 1e-12)) else "not monotone"


def empirical_exponent(ns, betas=None, log_betas=None) -> ExponentFit:
    """Fit the exponential decay of beta_n over a blocklength grid.

    Accepts either raw beta values or natural-log values (preferred when
    beta underflows). Points with beta exactly zero are excluded and listed.
    Non-monotone finite-n behavior is flagged, never smoothed.
    """
    ns = list(ns)
    if log_betas is None:
        if betas is None:
            raise ValueError("provide betas or log_betas")
        log_betas = [math.log(b) if b > 0 else NEG_INF for b in betas]
    pts = [(n, lb) for n, lb in zip(ns, log_betas) if lb > NEG_INF]
    excluded = tuple(n for n, lb in zip(ns, log_betas) if lb == NEG_INF)
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 blocklengths with positive beta")
    xs = np.array([p[0] for p in pts], dtype=float)
    neg_log2_beta = np.array([-p[1] / LN2 for p in pts])
    slope, intercept = np.polyfit(xs, neg_log2_beta, 1)
    exps = neg_log2_beta / xs
    mono = bool(np.all(np.diff(exps) > -1e-12))
    return ExponentFit(
        ns=tuple(int(x) for x in xs),
        exponents_bits=tuple(float(e) for e in exps),
        slope_bits=float(slope),
        intercept_bits=float(-intercept),
        monotone_increasing=mono,
        excluded_ns=excluded,
    )
