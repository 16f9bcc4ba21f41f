"""Slow or independent implementations kept as test oracles.

Most are the scalar loops the library used before its sums moved onto the
batched type lattice: one recursive generator of count vectors and one
Python iteration per type; `conditional_type_law` is the law of a type
given an event that way, and `chi_square` compares draws with it. The
rest check the exponent minimizers: the former binary-U
golden-section/root search, the former simplex grid plus
SLSQP polish for larger U, a closed-form 2x2 coupling divergence with a
zooming 1-D scan, the objective whose maximum is the closed-form threshold
tau, and the former sphere crossing that evaluates `kl_rows` along the
whole segment. The I-projection with both marginals fixed is iterative
proportional fitting (IPF) on the full matrix with its Hall enumeration, an
independent solver for the library's Newton solve at kappa = 1, and
`coupling_objective` builds the partial minimum g on it for the grid
oracle. `transmits` and `v_typical` are the encoder rule and the V test on
counts / n by the float predicates `typical` and `PbarSet.triggers`, which
the engines' count tables replaced; the oracles below decide with them.
`log_accept_probs_at_mu` is the exact engine's pass at one mu, which the
engine's one pass for a whole mu grid replaced.
`log_prob_y_typical` is the walk of the Y type lattice, under several laws
from one walk (`log_prob_type_events`), that gave scheme B's branch factors
before the box chain `typesum.BoxChain`. `log_prob_type_event` is the walk of
the bands of the lattice for any event that gave scheme B's delta_n and
Pr[active] before `typesum.log_prob_divergence_at_least` summed them by rows;
`log_prob_type_event_loop` is the same sum one Python iteration per type.
`type_blocks` materializes the bands of `typesum.type_bands` as count
arrays. `trial_chunk_branch` and
`run_trials_branch` are the Monte Carlo engine that drew the branch (scheme
A's marker scan, scheme B's output counts) in a stage of its own, before
the engine weighted its V-typical counts by the branch factors;
`trial_chunk_weighted` and `run_trials_weighted` are that weighting engine,
which drew V for every trial a positive branch factor left, before the
engine took Pr[T_V typical] from the box chain and drew V only for one
decision; `trial_chunk_every_trial` and `run_trials_every_trial` are that
engine, which still drew every trial, before it drew each law's trials
inside an event of exact probability. All three draw V first, where they
do, letter by letter (`typical_letters_pruned`), pruning a trial at its
first atypical letter. `log_prob_boxes_windowed` is the box chain before
its first step started from the point mass at m = n: every step, the
first too, sums windows of L. The `*_rows`
functions are the row path that the band walk of `typesum` replaced: each
block of the lattice materialized as a `(rows, d)` count array, every
logarithm taken per type, and the letters summed by numpy's
`sum(axis=-1)`. `lagrangian_min_brent` is the former crossing search of
the E2/E3 Lagrangian family: a least-squares Newton step, each solve
started from the nearest solved point's potentials, and Brent's method on
kappa. `build_parser` is the argparse grammar of the command line that the
table-driven parser in `covertdht.cli` replaced. Tests compare the library
against them on small inputs; nothing in the package imports this module.
"""

import argparse
import itertools
import math

import numpy as np
from scipy.optimize import brentq, minimize, minimize_scalar
from scipy.special import gammaln, logsumexp

from covertdht import covertness as cov
from covertdht import simulation as sim
from covertdht import typesum
from covertdht.errors import Infeasible, NoConvergence
from covertdht import exponents as expo
from covertdht.exponents import _brentq
from covertdht.probability import JointPmf, Pmf, kl_rows, typical

NEG_INF = -math.inf
# IPF stops once both marginals match their targets to this in L-infinity,
# and gives up after this many row-and-column sweeps
IPF_TOL = 1e-10
IPF_MAX_ITER = 100_000


def type_blocks(n, dim):
    """The bands of `typesum.type_bands`, materialized: `(rows, dim)` int64
    count arrays of at most `typesum.BLOCK_ROWS` rows, first symbol slowest."""
    for band in typesum.type_bands(n, dim):
        yield band.counts()


def iter_types(n, dim):
    """All count vectors of length `dim` summing to n, first symbol slowest."""
    if dim == 1:
        yield np.array([n])
        return
    for head in range(n + 1):
        for tail in iter_types(n - head, dim - 1):
            yield np.concatenate(([head], tail))


def log_type_class_prob(counts, p):
    counts = np.asarray(counts)
    n = int(counts.sum())
    p = np.asarray(p, dtype=float)
    if np.any((counts > 0) & (p == 0.0)):
        return NEG_INF
    mask = counts > 0
    log_multinom = gammaln(n + 1) - gammaln(counts + 1).sum()
    return float(log_multinom + np.sum(counts[mask] * np.log(p[mask])))


def conditional_type_law(probs, n, event):
    """The law of the type counts of X^n, X i.i.d. `probs`, given that they
    satisfy `event` (a predicate on one count vector), by one Python
    iteration per type: {count tuple: probability}, types of probability 0
    left out, and log Pr[event]; an empty dict and -inf where no type of
    positive probability satisfies it."""
    logs = {tuple(int(c) for c in counts): log_type_class_prob(counts, probs)
            for counts in iter_types(n, len(probs)) if event(counts)}
    logs = {key: lp for key, lp in logs.items() if lp > NEG_INF}
    if not logs:
        return {}, NEG_INF
    total = float(logsumexp(list(logs.values())))
    return {key: math.exp(lp - total) for key, lp in logs.items()}, total


def chi_square(samples, law, pool=5.0):
    """Pearson's statistic of the rows of `samples` (count vectors) against
    `law` ({count tuple: probability}) and its degrees of freedom: the
    cells whose expected count is below `pool` merged into one, and a row
    outside the law's support an infinite statistic."""
    keys, freq = np.unique(np.asarray(samples), axis=0, return_counts=True)
    seen = {tuple(int(c) for c in key): int(f) for key, f in zip(keys, freq)}
    if set(seen) - set(law):
        return math.inf, 0
    m = len(samples)
    stat, cells, pooled_want, pooled_got = 0.0, 0, 0.0, 0
    for key, prob in law.items():
        want, got = m * prob, seen.get(key, 0)
        if want < pool:
            pooled_want, pooled_got = pooled_want + want, pooled_got + got
        else:
            stat, cells = stat + (got - want) ** 2 / want, cells + 1
    if pooled_want > 0:
        stat, cells = stat + (pooled_got - pooled_want) ** 2 / pooled_want, cells + 1
    return stat, max(cells - 1, 1)


def kl(t, q):
    """D(t||q) in nats, +inf off the support of q."""
    mask = t > 0.0
    if np.any(q[mask] <= 0.0):
        return math.inf
    return max(float(np.sum(t[mask] * np.log(t[mask] / q[mask]))), 0.0)


def pbar_objective(pi_z, g0, g1):
    """D(pi||G0) - 3/2 D(pi||G1) in nats over the last axis of `pi_z` (a
    scalar for one pmf); -inf where either divergence is infinite (off the
    support of G1). Its maximum over pi is the threshold tau."""
    d0, d1 = kl_rows(pi_z, g0), kl_rows(pi_z, g1)
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(d0) & np.isfinite(d1), d0 - 1.5 * d1, -math.inf)[()]


def transmits(cfg, t_u, p_u, pbar):
    """The encoder rule on a `(rows, |U|)` array of source types, by the
    float predicates: scheme A transmits where the type is atypical, scheme
    B where it crosses the divergence threshold (`PbarSet.triggers`)."""
    if cfg.scheme == "A":
        return ~typical(t_u, p_u.probs, cfg.mu)
    return pbar.triggers(t_u, p_u)


def v_typical(cfg, c_v, p_v, n):
    """The V test on a `(rows, |V|)` array of V counts, by the float
    predicate on counts / n: True where V^n is typical."""
    return typical(c_v / n, p_v.probs, cfg.mu)


def is_typical(t, ref, mu):
    if np.any((ref == 0.0) & (t > 0.0)):
        return False
    return bool(np.all(np.abs(t - ref) <= mu))


def log_prob_type_event_loop(probs, n, predicate):
    """log Pr[type(X^n) satisfies predicate]; predicate takes one type."""
    logs = []
    for counts in iter_types(n, len(probs)):
        if predicate(counts / n):
            lp = log_type_class_prob(counts, probs)
            if lp > NEG_INF:
                logs.append(lp)
    if not logs:
        return NEG_INF
    return float(min(logsumexp(logs), 0.0))


def mix_term(t):
    if abs(t) < 1e-4:
        return t * t * (0.5 + t * (-1.0 / 6.0 + t / 12.0))
    return (1.0 + t) * math.log1p(t) - t


def two_point_divergence(g0, g1, delta, n):
    log_ratio = np.full(len(g0), NEG_INF)
    mask = g1 > 0.0
    log_ratio[mask] = np.log(g1[mask]) - np.log(g0[mask])
    total = 0.0
    log_delta = math.log(delta)
    for counts in iter_types(n, len(g0)):
        lp0 = log_type_class_prob(counts, g0)
        if lp0 == NEG_INF:
            continue
        active = counts > 0
        ell = float(np.sum(counts[active] * log_ratio[active]))
        if ell <= 500.0:
            total += math.exp(lp0) * mix_term(delta * math.expm1(ell))
        else:
            lt = log_delta + ell
            p0 = math.exp(lp0)
            p1 = math.exp(lp0 + ell)
            total += p0 * lt + delta * (p1 - p0) * (lt - 1.0)
    return max(total, 0.0)


def type_bound(g0, g1, n):
    best = 0.0
    for counts in iter_types(n, len(g0)):
        t = counts / n
        d0, d1 = kl(t, g0), kl(t, g1)
        if d0 == math.inf:
            continue
        if d1 == math.inf:
            term = math.exp(-n * d0)
        else:
            exps = [-n * d0 - 2.0 * n * (d1 - d0), -n * d0 - n * (d1 - d0), -n * d0]
            term = math.exp(exps[0]) - 2.0 * math.exp(exps[1]) + math.exp(exps[2])
        best = max(best, term)
    return (n + 1) ** len(g0) * best


def delta_scheme_B(p_u, tau, n):
    logs = []
    for counts in iter_types(n, len(p_u)):
        if kl(counts / n, p_u) < tau:
            continue
        lp = log_type_class_prob(counts, p_u)
        if lp > NEG_INF:
            logs.append(lp)
    return float(min(math.exp(logsumexp(logs)), 1.0)) if logs else 0.0


def log_accept_prob(cfg, joint, p_u, p_v, dmc, n, tau=None):
    """log Pr[decide 0] and the transmission probability of one scheme."""
    if cfg.scheme == "B":
        ref = dmc.y_row(dmc.zero_symbol).probs
        log_acc = {
            which: log_prob_type_event_loop(dmc.y_row(x).probs, n,
                                       lambda t: is_typical(t, ref, cfg.mu))
            for which, x in (("silent", dmc.zero_symbol), ("active", cfg.x1))
        }
    else:
        k = cfg.k(n)
        p_star0 = dmc.y_row(dmc.zero_symbol)[cfg.y_star]
        p_star1 = dmc.y_row(cfg.x_hat)[cfg.y_star]
        log_acc = {
            "silent": math.log1p(-((1.0 - p_star0) ** k)) if p_star0 > 0 else NEG_INF,
            "active": math.log1p(-((1.0 - p_star1) ** k)) if p_star1 > 0 else NEG_INF,
        }
    du, dv = len(p_u), len(p_v)
    logs, logs_active = [], []
    for counts in iter_types(n, du * dv):
        lp = log_type_class_prob(counts, joint.ravel())
        if lp == NEG_INF:
            continue
        mat = counts.reshape(du, dv)
        t_u, t_v = mat.sum(axis=1) / n, mat.sum(axis=0) / n
        if cfg.scheme == "B":
            active = kl(t_u, p_u) >= tau
        else:
            active = not is_typical(t_u, p_u, cfg.mu)
        if active:
            logs_active.append(lp)
        if not is_typical(t_v, p_v, cfg.mu):
            continue
        la = log_acc["active"] if active else log_acc["silent"]
        if la > NEG_INF:
            logs.append(lp + la)
    log_accept = float(min(logsumexp(logs), 0.0)) if logs else NEG_INF
    p_active = float(min(math.exp(logsumexp(logs_active)), 1.0)) if logs_active else 0.0
    return log_accept, p_active


def log_accept_probs_at_mu(cfg, p_uv, q_uv, dmc, n, pbar):
    """The exact engine's former pass at the one mu of `cfg`: (log Pr[decide
    0] under the null, under the alternative, log delta_n), one walk of the
    joint lattice per mu, on the library's blocks and branch factors at that
    mu alone, deciding by the float predicates on counts / n (`transmits`,
    `v_typical`), not by the engine's count tables."""
    p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
    cells = p_u.alphabet.size * p_v.alphabet.size
    typesum.check_enumerable(n, cells, "joint source type enumeration")
    [(log_silent, log_active)] = sim._log_branch_factors(cfg, dmc, n, [cfg.mu])
    tables = typesum.class_tables([joint.probs.ravel() for joint in (p_uv, q_uv)], n)
    logs = ([], [], [])
    for counts in type_blocks(n, cells):
        mat = counts.reshape(len(counts), p_u.alphabet.size, p_v.alphabet.size)
        active = transmits(cfg, mat.sum(axis=2) / n, p_u, pbar)
        accept = v_typical(cfg, mat.sum(axis=1), p_v, n)
        factor = np.where(active[accept], log_active, log_silent)
        lps = typesum.log_class_probs(tables, counts)
        for out, lp in zip(logs, lps):
            out.append(typesum.logsumexp(lp[accept] + factor))
        logs[2].append(typesum.logsumexp(lps[0][active]))
    return tuple(min(typesum.logsumexp(out), 0.0) for out in logs)


def log_prob_type_event(laws, n, predicate):
    """log Pr[type(X^n) satisfies predicate], X i.i.d. p, for each law p of
    the `(k, d)` array `laws`, in one walk of the bands of the n-type
    lattice; -inf where impossible. The predicate maps a band
    (`typesum.Band`) to a boolean mask over its types, on its counts or as
    a table sum; the class tables are built once per walk."""
    laws = np.asarray(laws, dtype=float)
    typesum.check_enumerable(n, laws.shape[1])
    tables = typesum.class_tables(laws, n)
    parts = [[] for _ in laws]
    for band in typesum.type_bands(n, laws.shape[1]):
        counts = band.counts()[predicate(band)]
        for part, lp in zip(parts, typesum.log_class_probs(tables, counts)):
            part.append(typesum.logsumexp(lp))
    return [min(typesum.logsumexp(part), 0.0) for part in parts]


def log_prob_type_events(laws, n, predicates):
    """log Pr[type(X^n) satisfies predicate] for each of `laws` (pmfs over
    one alphabet) and each of `predicates` (on a band's `(rows, d)` array
    of types counts/n), indexed [law][predicate], from one walk of the band
    lattice: a band's masks and the log class probabilities of the types
    some predicate holds for are computed once and serve every law."""
    dim = laws[0].alphabet.size
    typesum.check_enumerable(n, dim)
    tables = typesum.class_tables([p.probs for p in laws], n)
    parts = [[[] for _ in predicates] for _ in laws]
    for band in typesum.type_bands(n, dim):
        counts = band.counts()
        masks = [predicate(counts / n) for predicate in predicates]
        held = np.logical_or.reduce(masks)
        picks = [mask[held] for mask in masks]
        for law_parts, lp in zip(parts, typesum.log_class_probs(tables, counts[held])):
            for part, pick in zip(law_parts, picks):
                part.append(typesum.logsumexp(lp[pick]))
    return [[min(typesum.logsumexp(part), 0.0) for part in law_parts] for law_parts in parts]


def log_prob_y_typical(dmc, x_symbols, n, mus):
    """log Pr[Y^n mu-typical for the zero-input row | X^n = x^n constant],
    indexed [symbol][mu], from one walk of the Y lattice."""
    ref = dmc.y_row(dmc.zero_symbol).probs
    return log_prob_type_events([dmc.y_row(x) for x in x_symbols], n,
                                [lambda t, mu=mu: typical(t, ref, mu) for mu in mus])


# the chunk and block sizes of the Monte Carlo engine whose streams the
# stream oracles below keep: a chunk's generators are seeded by its index,
# and a chunk draws a block of trials at a time
CHUNK_TRIALS = 50_000
BLOCK_TRIALS = 1 << 13


def typical_letters_pruned(rngs, law_v, ref, mu, n, size):
    """The V counts of `size` trials under `law_v`, drawn letter by letter
    as the multinomial's chain of binomials, letter j from `rngs[j]` and
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


def _first_draws(cfg, law, p_v, key):
    """The draw order of `law` (V first where its V marginal is atypical
    for P_V), its first marginal and the other's rows given it, and the
    generators of the first marginal: one per V letter but the last, V
    first, or one."""
    v_first = sim._v_first(cfg, law, p_v)
    law_first, cond = sim._rows_given(law.probs.T if v_first else law.probs)
    if v_first:
        rng_first = [np.random.default_rng([*key, 0, j]) for j in range(len(law_first) - 1)]
    else:
        rng_first = np.random.default_rng([*key, 0])
    return v_first, law_first, cond, rng_first


def trial_chunk_branch(cfg, law, p_u, p_v, dmc, n, pbar, m, key):
    """The Monte Carlo chunk that drew the branch: the counts of accepted,
    active and pruned trials among `m` under `law`. Stage 0 draws the U
    counts (or the V letters, V first), stage 1 the branch (scheme A's
    marker scan of the k(n) burst outputs, scheme B's output counts for each
    trial's codeword), stage 2 the V counts of the trials the branch leaves
    undecided (or the U counts, V first), each generator seeded by `key` and
    the stage."""
    v_first, law_first, cond, rng_first = _first_draws(cfg, law, p_v, key)
    rng_branch, rng_second = (np.random.default_rng([*key, stage]) for stage in (1, 2))
    zero_row = dmc.y_row(dmc.zero_symbol)
    if cfg.scheme == "B":
        y_rows = np.stack([zero_row.probs, dmc.y_row(cfg.x1).probs])  # silent, active
    else:
        p_star0, k = zero_row[cfg.y_star], cfg.k(n)
    accepted = active_total = pruned = 0
    for lo in range(0, m, BLOCK_TRIALS):
        size = min(BLOCK_TRIALS, m - lo)
        if v_first:
            c_v = typical_letters_pruned(rng_first, law_first, p_v.probs, cfg.mu, n, size)
            pruned += size - len(c_v)
            c_u = rng_second.multinomial(c_v, cond).sum(axis=1)
        else:
            c_u = rng_first.multinomial(n, law_first, size=size)
        active = transmits(cfg, c_u / n, p_u, pbar)
        if cfg.scheme == "B":
            c_y = rng_branch.multinomial(n, y_rows[active.astype(np.intp)])
            live = typical(c_y / n, zero_row.probs, cfg.mu)
        else:
            live = ~active & (rng_branch.binomial(k, p_star0, size=len(c_u)) > 0)
        c_v = c_v[live] if v_first else rng_second.multinomial(c_u[live], cond).sum(axis=1)
        accepted += int(np.count_nonzero(v_typical(cfg, c_v, p_v, n)))
        active_total += int(np.count_nonzero(active))
    return accepted, active_total, pruned


def run_trials_branch(cfg, p_uv, q_uv, dmc, n, trials, seed, pbar=None, chunk=CHUNK_TRIALS):
    """(alpha, beta, alpha_ci, beta_ci) of the Monte Carlo engine that drew
    the branch, in one thread, chunk i of `chunk` trials under hypothesis h
    seeded by (seed, h, i):
    error frequencies with Wilson half-widths, beta's rule-of-three bound
    where no miss was observed."""
    p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
    errors = [0, 0]
    for hyp, law in ((0, p_uv), (1, q_uv)):
        for idx, start in enumerate(range(0, trials, chunk)):
            m = min(chunk, trials - start)
            accepted, _, _ = trial_chunk_branch(cfg, law, p_u, p_v, dmc, n, pbar, m,
                                                (seed, hyp, idx))
            errors[hyp] += m - accepted if hyp == 0 else accepted
    alpha, beta = errors[0] / trials, errors[1] / trials
    return (alpha, beta if errors[1] else 3.0 / trials,
            sim._wilson_halfwidth(alpha, trials), sim._wilson_halfwidth(beta, trials))


def trial_chunk_weighted(cfg, law, p_u, p_v, n, pbar, branch, m, key):
    """The Monte Carlo chunk that weighted each decision's V-typical count
    by its branch factor: the counts of V-typical trials whose sensor stays
    silent and of those whose sensor transmits, then of active and of pruned
    trials, among `m` under `law`. Under U first every trial whose decision
    has a positive factor (`branch[a]`) draws V; the stages and their seeds
    are those of `trial_chunk_branch` without the branch."""
    v_first, law_first, cond, rng_first = _first_draws(cfg, law, p_v, key)
    rng_second = np.random.default_rng([*key, 2])
    typical_active = typical_silent = active_total = pruned = 0
    for lo in range(0, m, BLOCK_TRIALS):
        size = min(BLOCK_TRIALS, m - lo)
        if v_first:
            c_v = typical_letters_pruned(rng_first, law_first, p_v.probs, cfg.mu, n, size)
            pruned += size - len(c_v)
            c_u = rng_second.multinomial(c_v, cond).sum(axis=1)
            active = live_active = transmits(cfg, c_u / n, p_u, pbar)
        else:
            c_u = rng_first.multinomial(n, law_first, size=size)
            active = transmits(cfg, c_u / n, p_u, pbar)
            live = branch[active.astype(np.intp)]
            live_active = active[live]
            c_v = rng_second.multinomial(c_u[live], cond).sum(axis=1)
        accepted = v_typical(cfg, c_v, p_v, n)
        hits = int(np.count_nonzero(accepted & live_active))
        typical_active += hits
        typical_silent += int(np.count_nonzero(accepted)) - hits
        active_total += int(np.count_nonzero(active))
    return typical_silent, typical_active, active_total, pruned


def run_trials_weighted(cfg, p_uv, q_uv, dmc, n, trials, seed, pbar=None,
                        chunk=CHUNK_TRIALS):
    """The record of the Monte Carlo engine that drew V for every trial
    whose decision has a positive branch factor, on the chunks and seeds of
    `run_trials_branch`, in one thread: beta the alternative's mean weight
    f_silent c_silent / trials + f_active c_active / trials, alpha the
    null's mean of 1 - w, each with Wilson's half-width at the weighted
    mean; beta's rule-of-three bound where no trial had a positive
    weight."""
    p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
    [log_f] = sim._log_branch_factors(cfg, dmc, n, [cfg.mu])
    branch = np.array([lf > NEG_INF for lf in log_f])
    counts = np.zeros((2, 4), dtype=np.int64)
    for hyp, law in ((0, p_uv), (1, q_uv)):
        for idx, start in enumerate(range(0, trials, chunk)):
            m = min(chunk, trials - start)
            counts[hyp] += trial_chunk_weighted(cfg, law, p_u, p_v, n, pbar, branch, m,
                                                (seed, hyp, idx))
    (*typical_h0, active_total, _), (*typical_h1, _, _) = counts.tolist()
    alpha = (trials - sum(typical_h0)
             - sum(math.expm1(lf) * c for lf, c in zip(log_f, typical_h0))) / trials
    beta = sum(math.exp(lf) * c for lf, c in zip(log_f, typical_h1)) / trials
    beta_ci = sim._wilson_halfwidth(beta, trials)
    beta_is_ub = beta == 0.0
    if beta_is_ub:
        beta = 3.0 / trials
    return sim._result(
        cfg, n, active_total / trials, alpha=alpha, beta=beta, log_beta=math.log(beta),
        method="mc", alpha_ci=sim._wilson_halfwidth(alpha, trials), beta_ci=beta_ci,
        trials=trials, seed=seed, beta_is_upper_bound=beta_is_ub)


def trial_chunk_every_trial(cfg, law, p_u, p_v, n, pbar, drawn, m, key):
    """The Monte Carlo chunk that drew every trial up to the V test: the
    counts of trials that take decision `drawn` (True for active) and are
    V-typical, and of active trials, among `m` under `law`. Under U first
    only the trials of decision `drawn` draw V; V first, the letters prune
    a trial at its first atypical letter. The stages and their seeds are
    those of `trial_chunk_weighted`."""
    v_first, law_first, cond, rng_first = _first_draws(cfg, law, p_v, key)
    rng_second = np.random.default_rng([*key, 2])
    hits = active_total = 0
    for lo in range(0, m, BLOCK_TRIALS):
        size = min(BLOCK_TRIALS, m - lo)
        if v_first:
            c_v = typical_letters_pruned(rng_first, law_first, p_v.probs, cfg.mu, n, size)
            c_u = rng_second.multinomial(c_v, cond).sum(axis=1)
            active = transmits(cfg, c_u / n, p_u, pbar)
            c_v = c_v[active == drawn]
        else:
            c_u = rng_first.multinomial(n, law_first, size=size)
            active = transmits(cfg, c_u / n, p_u, pbar)
            c_v = rng_second.multinomial(c_u[active == drawn], cond).sum(axis=1)
        hits += int(np.count_nonzero(v_typical(cfg, c_v, p_v, n)))
        active_total += int(np.count_nonzero(active))
    return hits, active_total


def run_trials_every_trial(cfg, p_uv, q_uv, dmc, n, trials, seed, pbar=None,
                           chunk=CHUNK_TRIALS):
    """The record of the Monte Carlo engine that drew every trial up to the
    V test, before the engine drew each law's trials inside an event of
    exact probability, on the chunks and seeds of `run_trials_branch`, in
    one thread: the estimates of `simulation.run_trials` with p the
    fraction of all `trials` that take the drawn decision d and are
    V-typical, and the weight statistics from the null's firing frequency.
    d is `simulation._drawn_decisions`' with scheme A's Pr[active] taken as
    1 - Pr[T_U in its box]."""
    laws = (p_uv, q_uv)
    p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
    [log_f] = sim._log_branch_factors(cfg, dmc, n, [cfg.mu])
    log_t = typesum.BoxChain(np.stack([law.probs.sum(axis=0) for law in laws]), n,
                             sim._mu_box(p_v.probs, n, cfg.mu)).log_probs
    if cfg.scheme == "A":
        marginals = np.stack([law.probs.sum(axis=1) for law in laws])
        p_active = [-math.expm1(lp) for lp in typesum.BoxChain(
            marginals, n, sim._mu_box(p_u.probs, n, cfg.mu)).log_probs]
    elif typesum.num_types(n, p_u.alphabet.size) <= min(trials, typesum.MAX_TYPES):
        p_active = [math.exp(log_prob_type_event(
            law.row_marginal().probs[None], n,
            lambda band: transmits(cfg, band.counts() / n, p_u, pbar))[0])
            for law in laws]
    else:
        p_active = [math.nan] * 2
    drawn = sim._drawn_decisions(p_active, log_t, log_f)
    counts = np.zeros((2, 2), dtype=np.int64)
    for hyp, law in enumerate(laws):
        for idx, start in enumerate(range(0, trials, chunk)):
            m = min(chunk, trials - start)
            counts[hyp] += trial_chunk_every_trial(cfg, law, p_u, p_v, n, pbar, drawn[hyp], m,
                                                   (seed, hyp, idx))
    (hits_h0, active_total), (hits_h1, _) = counts.tolist()
    p_hats = [hits_h0 / trials, hits_h1 / trials]
    log_exact = [log_f[not d] + lt for d, lt in zip(drawn, log_t)]
    slopes = [math.expm1(log_f[d]) - math.expm1(log_f[not d]) for d in drawn]
    alpha_hat = -math.expm1(log_exact[0]) - slopes[0] * p_hats[0]
    beta_hat = math.exp(log_exact[1]) + slopes[1] * p_hats[1]
    alpha, beta = (min(max(x, 0.0), 1.0) for x in (alpha_hat, beta_hat))
    alpha_ci, beta_ci = (max(abs(sl) * sim._wilson_halfwidth(p, trials),
                             sim._wilson_halfwidth(x, trials))
                         for sl, p, x in zip(slopes, p_hats, (alpha, beta)))
    beta_is_ub = beta_hat == 0.0
    if beta_is_ub:
        beta = 3.0 / trials
    return sim._result(
        cfg, n, active_total / trials, alpha=alpha, beta=beta,
        log_beta=math.log(beta) if beta > 0.0 else NEG_INF, method="mc", alpha_ci=alpha_ci,
        beta_ci=beta_ci, trials=trials, seed=seed, beta_is_upper_bound=beta_is_ub)


def kl_rows_rows(t, q):
    """D(t || q) over the last axis of `t` with numpy's letter sum; +inf off
    the support of q."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = t * np.log(t / q)
    return np.maximum(np.where(t > 0.0, terms, 0.0).sum(axis=-1), 0.0)


def log_type_class_prob_rows(counts, p):
    """log Pr[type = counts/n] over the last axis of `counts`, with numpy's
    letter sums; -inf on impossible types."""
    counts = np.asarray(counts)
    n = counts.sum(axis=-1)
    log_fact = typesum._log_factorials(int(n.max(initial=0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(counts == 0, 0.0, counts * np.log(p))
    return log_fact[n] - log_fact[counts].sum(axis=-1) + log_p.sum(axis=-1)


def log_prob_type_events_rows(p, n, predicates):
    """log Pr[type(X^n) satisfies predicate] for each predicate on `(rows,
    d)` arrays of types counts/n, one walk of the materialized blocks."""
    typesum.check_enumerable(n, p.alphabet.size)
    parts = [[] for _ in predicates]
    for counts in type_blocks(n, p.alphabet.size):
        t = counts / n
        masks = [predicate(t) for predicate in predicates]
        held = np.logical_or.reduce(masks)
        lp = log_type_class_prob_rows(counts[held], p.probs)
        for part, mask in zip(parts, masks):
            part.append(typesum.logsumexp(lp[mask[held]]))
    return [min(typesum.logsumexp(part), 0.0) for part in parts]


def transmit_probability_rows(cfg, p_u, n, pbar=None):
    """delta_n on the row path: the encoder rule of `cfg` on each block of U
    types (scheme A: atypical; scheme B: D(t || P_U) >= tau)."""
    if cfg.scheme == "A":
        def fires(t):
            return ~typical(t, p_u.probs, cfg.mu)
    else:
        def fires(t):
            return kl_rows_rows(t, p_u.probs) >= pbar.tau_nats
    lp = log_prob_type_events_rows(p_u, n, [fires])[0]
    return 0.0 if lp == NEG_INF else math.exp(lp)


def log_prob_boxes_windowed(laws, n, boxes):
    """`typesum.BoxChain`'s log_probs with every step of the chain, the
    first as well, a logsumexp over each window of L(m) m!."""
    laws = np.asarray(laws, dtype=float)
    if not boxes.any(axis=1).all():
        return [NEG_INF] * len(laws)
    lo, hi = boxes.argmax(axis=1).tolist(), (n - boxes[:, ::-1].argmax(axis=1)).tolist()
    log_fact = typesum._log_factorials(n)
    tail = np.cumsum(laws[:, ::-1], axis=1)[:, ::-1]
    a = b = n
    log_left = np.zeros((len(laws), 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_tail = np.log(tail)
        log_tail_j = np.where(tail[:, :-1] > 0.0, log_tail[:, :-1], 0.0)
        log_q, log_not_q = np.log(laws[:, :-1]) - log_tail_j, log_tail[:, 1:] - log_tail_j
        for j in range(laws.shape[1] - 1):
            r_lo, r_hi = max(a - hi[j], sum(lo[j + 1:])), min(b - lo[j], sum(hi[j + 1:]))
            if r_lo > r_hi:
                return [NEG_INF] * len(laws)
            c, r = np.arange(lo[j], hi[j] + 1), np.arange(r_lo, r_hi + 1)
            g = np.full((len(laws), len(r) + len(c) - 1), NEG_INF)
            g[:, a - r_lo - lo[j] : b - r_lo - lo[j] + 1] = log_left + log_fact[a : b + 1]
            h = np.where(boxes[j, lo[j] : hi[j] + 1], np.where(c > 0, c * log_q[:, j, None], 0.0),
                         NEG_INF)
            h = (h - log_fact[c])[:, None, :]
            sums = np.empty((len(laws), len(r)))
            rows = max(1, (typesum.BLOCK_ROWS << 6) // (len(laws) * len(c)))
            windows = np.lib.stride_tricks.sliding_window_view(g, len(c), axis=1)
            for k in range(0, len(r), rows):
                terms = windows[:, k : k + rows] + h
                top = terms.max(axis=2, keepdims=True)
                top[top == NEG_INF] = 0.0
                terms -= top
                sums[:, k : k + rows] = np.log(np.exp(terms, out=terms).sum(axis=2)) + top[..., 0]
            log_left = sums + np.where(r > 0, r * log_not_q[:, j, None], 0.0) - log_fact[r]
            a, b = r_lo, r_hi
    return [min(typesum.logsumexp(row[boxes[-1, a : b + 1]]), 0.0) for row in log_left]


def log_prob_y_typical_rows(dmc, x_symbol, n, mus):
    """log Pr[Y^n mu-typical for the zero-input row | X^n = x^n constant] at
    each mu, on the row path."""
    ref = dmc.y_row(dmc.zero_symbol).probs
    return log_prob_type_events_rows(dmc.y_row(x_symbol), n,
                                     [lambda t, mu=mu: typical(t, ref, mu) for mu in mus])


def mix_term_rows(t):
    """(1+t) log1p(t) - t, with the series near 0, both branches computed on
    every entry."""
    t = np.asarray(t, dtype=float)
    series = t * t * (0.5 + t * (-1.0 / 6.0 + t / 12.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        xlog1py = np.where(t == -1.0, 0.0, (1.0 + t) * np.log1p(t))
    return np.where(np.abs(t) < 1e-4, series, xlog1py - t)


def warden_divergence_rows(g0, g1, delta, n):
    """`covertness.warden_divergence` on the row path: the exact divergence
    and both bounds, every term computed for every type of each block."""
    quad = delta * delta * cov.chi_squared_product(g0, g1, n)
    typesum.check_enumerable(n, g0.alphabet.size, "warden divergence")
    mixed = delta > 0.0 and not np.array_equal(g0.probs, g1.probs)
    log_ratio = np.full(g0.alphabet.size, NEG_INF)
    mask = g1.probs > 0.0
    log_ratio[mask] = np.log(g1.probs[mask]) - np.log(g0.probs[mask])
    log_delta = math.log(delta) if mixed else NEG_INF
    total, best = 0.0, NEG_INF
    for counts in type_blocks(n, g0.alphabet.size):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ell = np.where(counts > 0, counts * log_ratio, 0.0).sum(axis=-1)
            if mixed:
                lp0 = log_type_class_prob_rows(counts, g0.probs)
                p0 = np.exp(lp0)
                lt = log_delta + ell
                huge = p0 * lt + delta * (np.exp(lp0 + ell) - p0) * (lt - 1.0)
                terms = np.where(ell <= 500.0, p0 * mix_term_rows(delta * np.expm1(ell)), huge)
                total += float(terms.sum())
            log_terms = -n * kl_rows_rows(counts / n, g0.probs) + 2.0 * (
                np.maximum(ell, 0.0) + np.log(-np.expm1(-np.abs(ell))))
        best = max(best, float(log_terms.max()))
    return max(total, 0.0), quad, (n + 1) ** g0.alphabet.size * math.exp(best)


def simplex_grid(dim, step):
    """All pmfs over `dim` symbols with entries in multiples of 1/k, k =
    round(1/step), first symbol descending; more than 400,000 points raise
    ValueError rather than scan a coarser grid than the one asked for."""
    k = max(int(round(1.0 / step)), 1)
    points = math.comb(k + dim - 1, dim - 1)
    if points > 400_000:
        raise ValueError(f"simplex_grid: {points} points over {dim} symbols at k = {k} "
                         "exceed 400,000")
    # stars and bars: dim - 1 bars among k + dim - 1 slots, in lexicographic
    # order of the bar positions (first count ascending), then reversed
    bars = np.array(list(itertools.combinations(range(k + dim - 1), dim - 1)),
                    dtype=np.int64)
    edges = np.column_stack((np.full(len(bars), -1), bars, np.full(len(bars), k + dim - 1)))
    return (np.diff(edges, axis=1) - 1)[::-1] / k


def constrained_min_grid(g, p_u, tau, upper, step=1e-2):
    """The E2/E3 minimizer used for |U| >= 3 before the sphere search.

    g at every point of `simplex_grid` with D(pi||P_U) <= tau (upper=False)
    or >= tau (upper=True), then one SLSQP polish of the best point under
    that constraint. Returns (value, pi_U), or (inf, None) on an empty set.
    """
    def normalize(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, None)
        s = x.sum()
        return x / s if s > 0 else np.full_like(x, 1.0 / len(x))

    grid = simplex_grid(len(p_u), step)
    d = np.array([kl(pt, p_u) for pt in grid])
    feasible = d >= tau if upper else d <= tau
    best_val, best_pt = math.inf, None
    for pt in grid[feasible]:
        val = g(pt)
        if val < best_val:
            best_val, best_pt = val, pt
    if best_pt is None:
        return math.inf, None
    sign = 1.0 if upper else -1.0

    def cons(x):
        return sign * (kl(normalize(x), p_u) - tau)

    res = minimize(
        lambda x: g(normalize(x)),
        best_pt,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * len(p_u),
        constraints=[
            {"type": "eq", "fun": lambda x: x.sum() - 1.0},
            {"type": "ineq", "fun": cons},
        ],
        options={"maxiter": 200, "ftol": 1e-12},
    )
    if res.success and np.isfinite(res.fun) and res.fun < best_val and cons(res.x) >= -1e-9:
        return float(res.fun), normalize(res.x)
    return best_val, best_pt


def constrained_min_binary(g, t_u, p_u, tau, upper):
    """The binary-U minimizer E2/E3 used before their closed form at T_U.

    min of g over {D(Bern(m)||P_U) <= tau} by golden-section search plus the
    interval ends (upper=False), or over {D >= tau}: g(T_U) when T_U is in
    the set, else the boundary roots (upper=True). Returns (value, m).
    """
    p1 = p_u[1]

    def dv(m):
        return kl(np.array([1.0 - m, m]), p_u)

    if not upper:
        m_lo = 0.0 if dv(0.0) <= tau else brentq(lambda m: dv(m) - tau, 0.0, p1, xtol=1e-14)
        m_hi = 1.0 if dv(1.0) <= tau else brentq(lambda m: dv(m) - tau, p1, 1.0, xtol=1e-14)
        res = minimize_scalar(lambda m: g(np.array([1.0 - m, m])), bounds=(m_lo, m_hi),
                              method="bounded", options={"xatol": 1e-12})
        cands = [(float(res.fun), float(res.x)), (g(np.array([1 - m_lo, m_lo])), m_lo),
                 (g(np.array([1 - m_hi, m_hi])), m_hi)]
        return min(cands)
    if kl(t_u, p_u) >= tau:
        return g(t_u), t_u[1]
    cands = []
    if dv(0.0) >= tau:
        m = brentq(lambda m: dv(m) - tau, 0.0, p1, xtol=1e-14)
        cands.append((g(np.array([1.0 - m, m])), m))
    if dv(1.0) >= tau:
        m = brentq(lambda m: dv(m) - tau, p1, 1.0, xtol=1e-14)
        cands.append((g(np.array([1.0 - m, m])), m))
    return min(cands, default=(math.inf, None))


def bisect_increasing(f, lo, hi, iters=200):
    """Root of a nondecreasing f on [lo, hi] (arrays allowed) by bisection."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = f(mid) < 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def binary_sphere_roots(p_u, tau):
    """Points m below and above p_u[1] with D(Bern(m)||p_u) = tau, by
    bisection; None on a side where the divergence stays below tau."""
    def excess(m):
        return kl(np.array([1.0 - float(m), float(m)]), p_u) - tau

    p1 = p_u[1]
    low = float(bisect_increasing(lambda m: -excess(m), 0.0, p1)) if excess(0.0) >= 0 else None
    high = float(bisect_increasing(excess, p1, 1.0)) if excess(1.0) >= 0 else None
    return low, high


def coupling_divergence_2x2(q, r0, c0):
    """min D(k||q) over 2x2 couplings k with k[0].sum() = r0 (an array) and
    k[:, 0].sum() = c0, in nats.

    The I-projection keeps the cross ratio of q: with a = k[0, 0],
    a (s + a) = rho (r0 - a)(c0 - a), s = 1 - r0 - c0, rho = q00 q11 / (q01 q10).
    The left side minus the right is nondecreasing in a on the feasible
    interval, so bisection finds a.
    """
    q = np.asarray(q, dtype=float)
    r0 = np.asarray(r0, dtype=float)
    rho = q[0, 0] * q[1, 1] / (q[0, 1] * q[1, 0])
    s = 1.0 - r0 - c0
    a = bisect_increasing(lambda a: a * (s + a) - rho * (r0 - a) * (c0 - a),
                          np.maximum(0.0, -s), np.minimum(r0, c0))
    k = np.stack([a, r0 - a, c0 - a, s + a], axis=-1).clip(0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(k > 0, k * np.log(k / q.ravel()), 0.0).sum(axis=-1)


def scan_min_convex(f, lo, hi, points=2001, stages=5):
    """min of a convex f (vectorized) on [lo, hi]: a dense scan, then zoomed
    scans around the best point, always keeping the interval ends."""
    best = math.inf
    a, b = lo, hi
    for _ in range(stages):
        xs = np.linspace(a, b, points)
        vals = f(xs)
        i = int(np.argmin(vals))
        best = min(best, float(vals[i]))
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, points - 1)]
    return best


def ipf_feasible(support, row_t, col_t):
    """Hall's condition by enumeration alone: for every subset S of the rows
    of positive target, the row mass of S is at most the column mass of its
    neighborhood on the support (to 1e-12)."""
    rows = np.nonzero(row_t > 0)[0]
    for r in range(1, len(rows) + 1):
        for sub in itertools.combinations(rows, r):
            cols = np.any(support[list(sub)], axis=0)
            if row_t[list(sub)].sum() > col_t[cols].sum() + 1e-12:
                return False
    return True


def i_projection_coupling(q, target_row, target_col):
    """IPF on the full |U| x |V| matrix: rows and columns of zero target
    zeroed up front, every division guarded (scale 0 on a zero sum), the
    row sums taken again for the stopping test. Raises Infeasible where
    Hall's condition fails and NoConvergence after IPF_MAX_ITER sweeps, as
    where the projection needs a zero on the support."""
    support = q.probs > 0.0
    r = np.asarray(target_row.probs, dtype=float)
    c = np.asarray(target_col.probs, dtype=float)
    if not ipf_feasible(support, r, c):
        raise Infeasible("no coupling with these marginals exists on the support of q")
    k = q.probs.copy()
    k[r == 0.0, :] = 0.0
    k[:, c == 0.0] = 0.0
    for _ in range(IPF_MAX_ITER):
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
        if err <= IPF_TOL:
            return JointPmf(q.row_alphabet, q.col_alphabet, k)
    raise NoConvergence(f"IPF did not converge in {IPF_MAX_ITER} iterations")


def coupling_objective(q_uv, p_v):
    """g(pi_U) = min over couplings with marginals (pi_U, P_V) of D(. || Q_UV)
    by `i_projection_coupling`: +inf where no coupling exists, and where IPF
    does not converge."""
    def g(pi_u):
        pi_u = np.clip(np.asarray(pi_u, dtype=float), 0.0, None)
        try:
            coupling = i_projection_coupling(
                q_uv, Pmf(q_uv.row_alphabet, pi_u / pi_u.sum()), p_v)
        except (Infeasible, NoConvergence):
            return math.inf
        return kl(coupling.probs.ravel(), q_uv.probs.ravel())

    return g


def sphere_point(p_u, b, tau):
    """The crossing of the segment from P_U to `b` with D(. || P_U) = tau by
    the library's Brent port on `kl_rows` over the whole alphabet at every
    step; None when D(b || P_U) < tau."""
    p_u, b = np.asarray(p_u, dtype=float), np.asarray(b, dtype=float)

    def excess(r):
        return float(kl_rows((1.0 - r) * p_u + r * b, p_u)) - tau

    if excess(1.0) < 0.0:
        return None
    r = _brentq(excess, 0.0, 1.0, xtol=1e-14)
    return (1.0 - r) * p_u + r * b


def lagrangian_point_lstsq(log_q, log_p_u, p_v, kappa, beta):
    """The coupling of the Lagrangian family at `kappa`, its column
    potentials and the Newton steps taken from `beta`, by the former solve:
    each step a least-squares solve with the Jacobian, the same cut to
    _NEWTON_MAX_STEP and the same line search as the library's."""

    def point(beta):
        x = log_q + beta
        top = x.max(axis=1, keepdims=True)
        log_a = top + np.log(np.exp(x - top).sum(axis=1, keepdims=True))
        return np.exp(x + kappa * (log_p_u - log_a)), np.exp(x - log_a), log_a[:, 0]

    tol = expo._NEWTON_TOL * (1.0 + abs(kappa))
    pi, cond, log_a = point(beta)
    resid = pi.sum(axis=0) - p_v
    for step in range(expo._NEWTON_MAX_ITER):
        if np.abs(resid).max() <= tol:
            return pi, beta, step
        jac = np.diag(pi.sum(axis=0)) - kappa * (pi.T @ cond)
        delta = np.linalg.lstsq(jac, -resid, rcond=None)[0]
        if kappa == 1.0:
            delta -= delta.mean()
        norm, pi_u, s = np.linalg.norm(resid), pi.sum(axis=1), 1.0 - kappa
        t = expo._NEWTON_MAX_STEP / max(np.abs(delta).max(), expo._NEWTON_MAX_STEP)
        for _ in range(60):
            with np.errstate(over="ignore", invalid="ignore"):
                new_pi, new_cond, new_log_a = point(beta + t * delta)
                new_resid = new_pi.sum(axis=0) - p_v
                d = new_log_a - log_a
                rise = pi_u @ (np.expm1(s * d) / s if s else d) - t * (p_v @ delta)
                accept = rise <= tol and np.linalg.norm(new_resid) <= (1.0 - 1e-4 * t) * norm
            if accept:
                break
            t /= 2.0
        else:
            break
        beta, pi, cond, log_a, resid = beta + t * delta, new_pi, new_cond, new_log_a, new_resid
    raise NoConvergence(f"Newton's method left the column sums {np.abs(resid).max():.3g} "
                        f"from P_V at kappa = {kappa}")


def lagrangian_min_brent(q, p_u, p_v, tau, upper, coupling, d_t):
    """`_lagrangian_min` by the former search, with its arguments and
    result: E3 scans kappa = 1 - 2^k, k = 1 .. _KAPPA_SCAN, for a bracket,
    then Brent's method (xtol 1e-14) puts D(pi_U || P_U) on tau; E2 runs
    Brent's method on [0, 1]. Each solve starts cold, from the potentials of
    the solved point nearest its kappa."""
    block, log_q, log_p_u, p_v, beta = expo._live_block(q, p_u, p_v)
    points = {0.0: (d_t - tau, coupling, beta)}
    steps = 0

    def solve(kappa):
        nonlocal steps
        if kappa not in points:
            start = points[min(points, key=lambda k: abs(k - kappa))][2]
            pi, beta, n = lagrangian_point_lstsq(log_q, log_p_u, p_v, kappa, start)
            steps += n
            full = np.zeros_like(q)
            full[block] = pi
            points[kappa] = (float(kl_rows(full.sum(axis=1), p_u)) - tau, full, beta)
        return points[kappa][0]

    if upper:
        inside = 0.0
        for k in range(1, expo._KAPPA_SCAN + 1):
            if solve(1.0 - 2.0**k) >= 0.0:
                break
            inside = 1.0 - 2.0**k
        else:
            return None, inside, steps, math.nan
        _brentq(solve, 1.0 - 2.0**k, inside, xtol=1e-14)
    else:
        _brentq(lambda kappa: -tau if kappa == 1.0 else solve(kappa), 0.0, 1.0, xtol=1e-14)
    feasible = [k for k, p in points.items() if (p[0] >= 0.0 if upper else p[0] <= 0.0)]
    kappa = min(feasible, key=lambda k: abs(points[k][0])) if feasible else 1.0
    excess = solve(kappa)
    gap = math.inf if kappa == 1.0 else kappa / (kappa - 1.0) * excess
    return points[kappa][1], kappa, steps, gap


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
