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
types alone and never on symbol sequences. Both engines decide on integer
counts, by count tables built once per walk or cell: the encoder rule is
written once, in ``_encoder`` (scheme B's table, ``typesum.kl_table``, holds
the terms of ``PbarSet.triggers``), and so is the V test, ``_in_box`` on
the mu-box of P_V (``_mu_box``: ``probability.typical_letters`` on c/n).
The center accepts the null when its V test passes and the branch passes, the
part of the test that reads the channel output. Given the encoder's
decision the branch passes with a probability f, the branch factor, and one
function gives f to both engines (``_log_branch_factors``): scheme A's in
closed form, scheme B's from the box chain ``typesum.BoxChain``, with no Y
lattice. ``transmit_probability`` gives delta_n with no cap: scheme A's
from the complement of its mu-box, ``typesum.BoxComplement``, scheme B's by
rows of the U lattice, two binomial tails each
(``typesum.log_prob_divergence_at_least``). Both engines,
``exact_error_probs`` and ``run_trials``, return the cell's
``SimulationResult`` record (``log_beta`` included, exact also where beta
underflows), built by one helper that also derives the weight statistics
from the firing probability (delta_n, or its sampled frequency).

The exact engine works on a whole mu grid at one n, a validated copy
``cfg.replace(mu=mu)`` of the scheme per mu. It walks the bands of joint
types once: a band row fixes T_U, so the encoder rule decides each row
once, the V test reads each type's V counts, and each band's class
log-probabilities under each law are computed once and decided at each mu.
Each mu's sums are the same floating-point operations, in the same order
and over the same band partition, as a pass at that mu alone on
materialized blocks. The null's mass is also summed once per band row, and
its sum over the rows where the encoder fires is delta_n.

The Monte Carlo engine, ``run_trials``, is conditional Monte Carlo: it never
draws the branch, and weights the V-typical trials of each decision by f.
Per law it counts the trials of one encoder decision d
(``_drawn_decisions``: the rare one where that cannot make the estimate
noisier) and takes the other decision's share from the exact Pr[T_V
typical] of the box chain, a control variate whose coefficient is known
exactly. It is also stratified: each law draws its first marginal only
inside an event E whose probability the box chain gives exactly and that
holds wherever a trial can count, and scales the fraction it counts by
Pr[E]. A law whose V marginal is atypical for P_V draws T_V inside the V
test's box (``typesum.BoxChain``), then T_U given T_V. Every other law
takes one path (``_trial_chunk``): it draws T_U, decides, and draws T_V
given T_U for the trials of decision d alone. Scheme A's, the null among
them, draw T_U inside decision d, the U box (``BoxChain``) or its
complement (``typesum.BoxComplement``), so every trial takes d; scheme B's
draw every trial by a plain multinomial, as its threshold is no box.
Chunks of trials run on threads, one per core the process may run on
(numpy's samplers release the interpreter lock), and return integer counts,
so seeded results do not depend on the core count.
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
    BoxChain,
    BoxComplement,
    NEG_INF,
    check_enumerable,
    class_tables,
    kl_table,
    log_class_probs,
    log_prob_divergence_at_least,
    logsumexp,
    num_types,
    table_sum,
    type_bands,
)

logger = logging.getLogger(__name__)

# Monte Carlo trials per task, drawn and decided at once (bounds a task's
# memory); a task's generators are seeded by its index
CHUNK_TRIALS = 1 << 12

# scheme B's Monte Carlo sums its exact Pr[active] by rows of the U lattice
# (so that it can draw V for the rarer decision alone) where the cell has at
# least this many trials per row: at |U| = 4, where the rows grow as n^2 / 2,
# a row costs about what the V draws of 2 to 2.5 trials cost
TRIALS_PER_ROW = 3


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


def _mu_box(ref: np.ndarray, n: int, mu: float) -> np.ndarray:
    """The mu-box of ``ref`` on the counts 0..n, as a ``(letters, n + 1)``
    table: True where count c of a letter passes the per-letter condition
    ``typical_letters`` on c / n."""
    return typical_letters(np.arange(n + 1)[:, None] / n, ref, mu).T


def _in_box(box: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The test that a type lies in ``box`` (a ``(letters, n + 1)`` boolean
    table), on a ``(rows, letters)`` count array or a band: True where the
    type has no letter out of its box, the ``table_sum`` of the count table
    of letters out being 0. On a mu-box it is ``typical`` on counts / n."""
    out = np.where(box, 0.0, 1.0)
    return lambda counts: table_sum(out, counts) == 0.0


def _threshold(pbar: PbarSet | None) -> float:
    """Scheme B's threshold tau in nats."""
    if pbar is None:
        raise ConfigMismatch("scheme B needs the threshold set")
    return pbar.tau_nats


def _encoder(cfg: SchemeConfig, p_u: Pmf, n: int,
             pbar: PbarSet | None) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray | None]:
    """The encoder rule at blocklength n on U counts (a ``(rows, |U|)``
    count array or a band), True where the sensor transmits, and scheme A's
    mu-box of P_U (None for scheme B), built once for whoever needs both.
    Scheme A transmits when T_U leaves its mu-box; scheme B when D(T_U ||
    P_U), the ``table_sum`` of ``typesum.kl_table`` clamped at 0, reaches
    the threshold, as ``PbarSet.triggers`` decides on counts / n."""
    if cfg.scheme == "A":
        box = _mu_box(p_u.probs, n, cfg.mu)
        typical_u = _in_box(box)
        return (lambda c_u: ~typical_u(c_u)), box
    tau, divergence = _threshold(pbar), kl_table(p_u.probs, n)
    return (lambda c_u: np.maximum(table_sum(divergence, c_u), 0.0) >= tau), None


def transmit_probability(
    cfg: SchemeConfig, p_u: Pmf, n: int, pbar: PbarSet | None = None
) -> float:
    """delta_n, the exact probability that the encoder fires under the null,
    summed where it fires (1 - Pr[silent] rounds to zero once delta_n drops
    below machine epsilon), with no cap: scheme A's box complement
    (``typesum.BoxComplement``), scheme B's rows of binomial tails
    (``typesum.log_prob_divergence_at_least``)."""
    p = p_u.probs[None]
    if cfg.scheme == "B":
        return math.exp(log_prob_divergence_at_least(p, p_u.probs, n, _threshold(pbar))[0])
    return math.exp(BoxComplement(p, n, _mu_box(p_u.probs, n, cfg.mu)).log_probs[0])


def _log_branch_factors(
    cfg: SchemeConfig, dmc: Dmc, n: int, mus: Sequence[float]
) -> list[tuple[float, float]]:
    """(log f_silent, log f_active) at each mu of ``mus``: given the
    encoder's decision, the probability that the branch passes. Scheme A's
    marker appears among a silent sensor's k(n) burst outputs, never among
    an active one's (``validate_against``). Scheme B's Y^n is mu-typical for
    the zero-input row given the constant codeword 0 or x1, by the box chain
    on its mu-box (``_mu_box``)."""
    if cfg.scheme == "A":
        p_star0 = dmc.y_row(dmc.zero_symbol)[cfg.y_star]
        log_silent = math.log1p(-((1.0 - p_star0) ** cfg.k(n))) if p_star0 > 0 else NEG_INF
        return [(log_silent, NEG_INF)] * len(mus)
    ref = dmc.y_row(dmc.zero_symbol).probs
    rows = np.stack([dmc.y_row(x).probs for x in (dmc.zero_symbol, cfg.x1)])
    return [tuple(BoxChain(rows, n, _mu_box(ref, n, mu)).log_probs) for mu in mus]


def _log_accept_probs(
    cfgs: Sequence[SchemeConfig],
    p_uv: JointPmf,
    q_uv: JointPmf,
    dmc: Dmc,
    n: int,
    pbar: PbarSet | None,
) -> list[tuple[float, float, float]]:
    """log Pr[decide 0] under the null and under the alternative, and log
    delta_n, the null's mass where the encoder fires, for each config of
    ``cfgs`` (one scheme at several mu), in one walk of the bands of joint
    source types.

    Its count tables are built once per walk: both laws' class tables,
    each mu's V test and the encoder rule (per mu for scheme A alone). A
    band row, which fixes the first |U||V| - 2 cells, fixes T_U where |V|
    >= 2 (its last two cells share the last U letter), so each rule decides
    each row once; the V test reads each type's V counts. With |V| = 1 the
    joint type is T_U. Class log-probabilities serve every mu, and decisions
    and branch factors both laws. Every test reads integer counts, so
    enumerated and sampled counts meet the closed typicality boundary at
    the same place.
    """
    cfg = cfgs[0]
    p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
    du, dv = p_u.alphabet.size, p_v.alphabet.size
    check_enumerable(n, du * dv, "joint source type enumeration")
    factors = _log_branch_factors(cfg, dmc, n, [c.mu for c in cfgs])
    v_tests = [_in_box(_mu_box(p_v.probs, n, c.mu)) for c in cfgs]
    # scheme B's rule reads no mu: its one decision per row serves every mu
    encoders = [_encoder(c, p_u, n, pbar)[0] for c in (cfgs if cfg.scheme == "A" else cfgs[:1])]
    tables = class_tables([joint.probs.ravel() for joint in (p_uv, q_uv)], n)
    logs = [([], [], []) for _ in cfgs]  # accepted under each law, fired under the null
    reps = len(cfgs) // len(encoders)
    for band in type_bands(n, du * dv):
        lps = log_class_probs(tables, band)
        if dv == 1:  # the joint type is T_U, and T_V = (n)
            c_u, row, c_v, null_mass = band, slice(None), np.full((len(band), 1), n), lps[0]
        else:
            heads, rest, row, j, last = band.rows()
            cells = np.zeros((len(rest), du, dv), dtype=np.int64)
            cells.reshape(len(rest), -1)[:, :-2] = heads
            c_u, c_v = cells.sum(axis=2), cells.sum(axis=1)  # c_v: the head cells' V counts
            c_u[:, -1] += rest
            c_v = np.column_stack((c_v[row, :-2], c_v[row, -2] + j, c_v[row, -1] + last))
            # the null's mass per row, once for every mu: each row's types are consecutive
            first = np.flatnonzero(np.diff(row, prepend=-1))
            top = np.maximum.reduceat(lps[0], first)
            top[top == NEG_INF] = 0.0
            with np.errstate(divide="ignore"):
                null_mass = np.log(np.add.reduceat(np.exp(lps[0] - top[row]), first)) + top
        rules = np.array([transmits(c_u) for transmits in encoders])
        masked = np.where(rules, null_mass, NEG_INF)  # the null's mass where each rule fires
        top = masked.max(axis=1, keepdims=True)
        top[top == NEG_INF] = 0.0
        with np.errstate(divide="ignore"):
            fires = list(np.log(np.exp(masked - top).sum(axis=1)) + top[:, 0]) * reps
        for active, fire, v_test, (log_silent, log_active), (*out, fired) in zip(
                [rule[row] for rule in rules] * reps, fires, v_tests, factors, logs):
            accept = v_test(c_v)
            factor = np.where(active[accept], log_active, log_silent)
            for part, lp in zip(out, lps):
                part.append(logsumexp(lp[accept] + factor))
            fired.append(fire)
    return [tuple(min(logsumexp(part), 0.0) for part in out) for out in logs]


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

    One walk of the joint-type lattice serves the whole mu grid and gives
    delta_n too, where the encoder fires (``_log_accept_probs``). Raises
    AlphabetTooLarge where the joint lattice exceeds the cap.
    """
    if not mus:
        raise ValueError("the mu grid is empty")
    cfg.validate_against(dmc)
    cfgs = [cfg.replace(mu=mu) for mu in mus]
    # -expm1(0.0) is -0.0, and max keeps its first argument on a tie
    return [_result(c, n, math.exp(log_delta), alpha=max(0.0, -math.expm1(log_h0)),
                    beta=math.exp(log_h1), log_beta=log_h1, method="exact")
            for c, (log_h0, log_h1, log_delta) in zip(
                cfgs, _log_accept_probs(cfgs, p_uv, q_uv, dmc, n, pbar))]


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


def _drawn_decisions(
    p_active: Sequence[float], log_v_typical: Sequence[float], log_f: tuple[float, float]
) -> list[bool]:
    """The encoder decision d whose trials count under each law, True for
    active, from each law's Pr[active] (``p_active``, NaN where it is not
    known) and log Pr[T_V typical], chosen before any draw. Either choice
    keeps the estimate unbiased; it sets the variance and, under U first,
    which event the trials are drawn inside.

    With q_x = Pr_law[decision x, T_V typical] and t = q_silent + q_active,
    a trial's weight is f_d' 1{T_V typical} + (f_d - f_d') 1{d, T_V
    typical}: the weight w of the engine that drew V for every trial, less
    the control variate c (1{T_V typical} - t) at c = f_d'. Its variance is
    smallest at c* = (f_silent q_silent + f_active q_active) / t, a mean of
    the two factors, and grows with (c - c*)^2, so it is never above w's (c
    = 0) where f_d' is the smaller factor or q_d <= q_d' (f_d' the nearer to
    c*). A decision x with 2 Pr_law[x] <= Pr_law[T_V typical] has q_x <=
    Pr[x] <= t - Pr[x] <= q_x': a law counts it where it has one (the rarer
    decision, so fewer trials are drawn under U first), and otherwise the
    decision of the larger factor. Drawing a law's trials inside an event E
    that holds wherever 1{d, T_V typical} does (``run_trials``) only lowers
    this variance, so the rule holds there too. Scheme A's Pr_law[active]
    comes from its U box's complement (``typesum.BoxComplement``), scheme B's
    by rows or NaN (``_scheme_b_active``); a NaN compares False and draws
    the larger factor."""
    larger = log_f[1] > log_f[0]
    drawn = []
    for p, lt in zip(p_active, log_v_typical):
        half = 0.5 * math.exp(lt)
        drawn.append(True if p <= half else False if 1.0 - p <= half else larger)
    return drawn


class _Event(NamedTuple):
    """An event E that a law's trials are drawn inside: its name in the
    DEBUG record, the box object it is (a ``typesum.BoxChain`` or
    ``BoxComplement``; None: E holds for every trial) with the law's row
    ``law`` in it, and whether E is the V box, so the trials draw V first."""

    name: str
    source: BoxChain | BoxComplement | None
    law: int
    v_first: bool = False

    @property
    def log_prob(self) -> float:
        """log Pr_law[E]."""
        return 0.0 if self.source is None else self.source.log_probs[self.law]


def _scheme_b_active(marginals: np.ndarray, p_u: Pmf, n: int, tau: float,
                     trials: int) -> list[float]:
    """Scheme B's Pr[active], D(T_U || P_U) >= tau, under each U law of
    ``marginals``, by rows (``typesum.log_prob_divergence_at_least``) where
    the cell has ``TRIALS_PER_ROW`` trials per row of the U lattice, else
    NaN."""
    if TRIALS_PER_ROW * num_types(n, max(marginals.shape[1] - 1, 1)) > trials:
        return [math.nan] * len(marginals)
    return [math.exp(lp) for lp in log_prob_divergence_at_least(marginals, p_u.probs, n, tau)]


def _trial_chunk(
    law: JointPmf,
    n: int,
    transmits: Callable[[np.ndarray], np.ndarray],
    v_typical: Callable[[np.ndarray], np.ndarray],
    drawn: bool,
    event: _Event,
    m: int,
    key: tuple[int, int, int],
) -> tuple[int, int]:
    """Draw ``m`` trials under ``law`` inside ``event`` up to the V test:
    the counts of trials that take decision ``drawn`` (True for active)
    and are V-typical, and of active trials, decided by ``transmits`` and
    ``v_typical`` on the drawn counts. The branch is not drawn.

    Two stages draw, each from its own generator, seeded by ``key`` (seed,
    hypothesis, chunk) and the stage number. Stage 0 draws the first
    marginal's counts from the event's box object (a plain multinomial
    where E holds for every trial). Inside the V box, stage 2 draws T_U
    given T_V, the sum over v of Mult(c_v[v], P_{U|V=v}). Otherwise stage 2
    draws T_V given T_U for the trials of decision ``drawn`` alone (inside
    scheme A's decision events, every trial).
    """
    first, cond = _rows_given(law.probs.T if event.v_first else law.probs)
    rng_first, rng_second = (np.random.default_rng([*key, stage]) for stage in (0, 2))
    c_first = (rng_first.multinomial(n, first, size=m) if event.source is None
               else event.source.sample(event.law, m, rng_first))
    if event.v_first:
        active = transmits(rng_second.multinomial(c_first, cond).sum(axis=1))
        hits = (active == drawn) & v_typical(c_first)
    else:
        active = transmits(c_first)
        c_v = rng_second.multinomial(c_first[active == drawn], cond).sum(axis=1)
        hits = v_typical(c_v)
    return int(np.count_nonzero(hits)), int(np.count_nonzero(active))


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

    Per-trial type counts are sampled directly and decided by the exact
    engine's rules, on count tables built once per cell (``_trial_chunk``,
    ``_encoder``, ``_in_box``). The branch is not
    drawn: a V-typical trial is accepted with its decision's branch factor f
    (``_log_branch_factors``, as in the exact engine). With d the decision
    whose trials count (``_drawn_decisions``) and d' the other, a trial's
    weight is f_d' 1{T_V typical} + (f_d - f_d') 1{decision d, T_V typical},
    and Pr_law[T_V typical] is the box probability of Mult(n, law_V) on the
    V test's boxes (a ``typesum.BoxChain`` for both laws). So the acceptance
    probability is f_d' Pr_law[T_V typical] + (f_d - f_d') p, with p the
    probability that a trial takes decision d and is V-typical.

    p is estimated by exact stratification: each law draws its first
    marginal conditioned on an event E that holds wherever {d, T_V
    typical} does and whose probability is exact. A law whose V marginal
    is atypical for P_V (``_v_first``) draws inside the V box; scheme A's
    U-first laws (the null among them) inside decision d, T_U in P_U's
    mu-box or out of it (a ``BoxChain`` or its ``BoxComplement``); scheme
    B's U-first laws, whose threshold is no box, draw every trial (E holds
    always). A law
    draws M = ceil(Pr[E] trials) trials, and p = Pr[E] hits / M, hits
    counting the drawn trials that take d and are V-typical (p = 0 where
    M = 0). Its variance, Pr[E]^2 q (1 - q) / M with q = Pr[d, T_V typical
    | E], is at most Pr[E] q (1 - q) / trials, and so at most that of the
    fraction of all ``trials`` that take d and are V-typical.

    beta is the estimate under the alternative and alpha one minus it under
    the null, with 1 - f_d' Pr taken as -expm1(log f_d' + log Pr) so that a
    small alpha keeps its digits. The exact term carries the box chain's
    absolute error of about n log n times 1e-16, far below any half-width.
    d is chosen so that the estimate is never noisier than that of the
    engine that drew V for every trial, whose weights lie in [0, 1]; so
    each half-width is the larger of Wilson's at the estimate over
    ``trials``, conservative as for that engine (a weight in [0, 1] with
    mean m has variance at most m (1 - m)), and |f_d - f_d'| times p's,
    the image of p's Wilson interval over ``trials``. An estimate outside
    [0, 1] is clamped to it; a beta clamped to 0 is reported as 0 (log
    beta -inf) with its interval. A beta estimate of exactly 0 (no drawn
    trial takes d and is V-typical, and f_d' Pr_Q[T_V typical] = 0) is
    reported as the rule-of-three bound 3/trials, which stays a 95% bound
    on p: with no hit among M draws, q <= 1 - 0.05^(1/M) <= 3/M, and
    Pr[E] <= M / trials. Scheme A's weight statistics come from the null's
    exact Pr[active], delta_n, scheme B's from the null's firing frequency
    over all its trials.

    Each law's M trials split into chunks of ``CHUNK_TRIALS``; chunk i
    under hypothesis h draws its stage j from its own generator, seeded by
    (seed, h, i, j). The chunks run concurrently on every core the process
    may run on and return integer counts, so a seeded result is the same
    bit for bit on any core count. The cell's DEBUG record names, per
    hypothesis, the draw order, the decision d, the event E, log Pr[E] and
    M.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    cfg.validate_against(dmc)
    laws = (p_uv, q_uv)
    p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
    [log_f] = _log_branch_factors(cfg, dmc, n, [cfg.mu])
    box = _mu_box(p_v.probs, n, cfg.mu)
    v_box = BoxChain(np.stack([law.probs.sum(axis=0) for law in laws]), n, box)
    log_v_typical, v_typical = v_box.log_probs, _in_box(box)
    transmits, box = _encoder(cfg, p_u, n, pbar)
    marginals = np.stack([law.probs.sum(axis=1) for law in laws])
    if cfg.scheme == "A":
        u_events = BoxChain(marginals, n, box), BoxComplement(marginals, n, box)  # silent, active
        p_active = [math.exp(lp) for lp in u_events[1].log_probs]
    else:
        p_active = _scheme_b_active(marginals, p_u, n, pbar.tau_nats, trials)
    drawn = _drawn_decisions(p_active, log_v_typical, log_f)
    events = [_Event("V box", v_box, hyp, True) if _v_first(cfg, law, p_v)
              else _Event(("silent", "active")[d], u_events[d], hyp) if cfg.scheme == "A"
              else _Event("all", None, hyp)
              for hyp, (law, d) in enumerate(zip(laws, drawn))]
    sizes = [math.ceil(math.exp(e.log_prob) * trials) for e in events]

    tasks = [
        (hyp, idx, min(CHUNK_TRIALS, size - start))
        for hyp, size in enumerate(sizes)
        for idx, start in enumerate(range(0, size, CHUNK_TRIALS))
    ]

    def work(task):
        hyp, idx, m = task
        return hyp, _trial_chunk(laws[hyp], n, transmits, v_typical, drawn[hyp], events[hyp], m,
                                 (seed, hyp, idx))

    threads = min(len(tasks), _usable_cores())
    from concurrent.futures import ThreadPoolExecutor  # only Monte Carlo pays its 2 ms import

    with ThreadPoolExecutor(max(threads, 1)) as pool:
        outcomes = list(pool.map(work, tasks))
    counts = np.zeros((2, 2), dtype=np.int64)  # per hypothesis, as _trial_chunk counts
    for hyp, chunk in outcomes:
        counts[hyp] += chunk
    counts = counts.tolist()
    parts = []
    for d, e, size in zip(drawn, events, sizes):
        parts += ["V" if e.v_first else "U", "active" if d else "silent", e.name, e.log_prob,
                  size]
    logger.debug("Monte Carlo cell n=%d: %d trials, %d tasks, %d threads, %.3f s; "
                 "H0 drew %s first, d=%s, E=%s, log Pr[E]=%.6g, M=%d; "
                 "H1 drew %s first, d=%s, E=%s, log Pr[E]=%.6g, M=%d",
                 n, trials, len(tasks), threads, time.perf_counter() - t0, *parts)

    p_hats = [math.exp(e.log_prob) * hits / size if size else 0.0
              for e, size, (hits, _) in zip(events, sizes, counts)]
    # per hypothesis, log f_d' Pr_law[T_V typical] and f_d - f_d'
    log_exact = [log_f[not d] + lp for d, lp in zip(drawn, log_v_typical)]
    slopes = [math.expm1(log_f[d]) - math.expm1(log_f[not d]) for d in drawn]
    alpha_hat = -math.expm1(log_exact[0]) - slopes[0] * p_hats[0]
    beta_hat = math.exp(log_exact[1]) + slopes[1] * p_hats[1]
    # -expm1(0.0) is -0.0, and max keeps its first argument on a tie
    alpha, beta = (min(max(0.0, x), 1.0) for x in (alpha_hat, beta_hat))
    alpha_ci, beta_ci = (max(abs(sl) * _wilson_halfwidth(p, trials), _wilson_halfwidth(x, trials))
                         for sl, p, x in zip(slopes, p_hats, (alpha, beta)))
    # rule of three: no trial weighs in and the exact term is 0, not a clamp
    beta_is_ub = beta_hat == 0.0
    if beta_is_ub:
        beta = 3.0 / trials
    p_fire = p_active[0] if cfg.scheme == "A" else counts[0][1] / trials
    return _result(
        cfg, n, p_fire, alpha=alpha, beta=beta,
        log_beta=math.log(beta) if beta > 0.0 else NEG_INF, method="mc", alpha_ci=alpha_ci,
        beta_ci=beta_ci, trials=trials, seed=seed, beta_is_upper_bound=beta_is_ub,
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
