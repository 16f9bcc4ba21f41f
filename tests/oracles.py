"""Per-type loop implementations of the exact sums, kept as test oracles.

These are the scalar loops the library used before its sums moved onto the
batched type lattice: one recursive generator of count vectors and one
Python iteration per type. Tests compare the array code against them on
small n; nothing in the package imports this module.
"""

import itertools
import math

import numpy as np
from scipy.special import gammaln, logsumexp

NEG_INF = -math.inf


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


def kl(t, q):
    """D(t||q) in nats, +inf off the support of q."""
    mask = t > 0.0
    if np.any(q[mask] <= 0.0):
        return math.inf
    return max(float(np.sum(t[mask] * np.log(t[mask] / q[mask]))), 0.0)


def is_typical(t, ref, mu):
    if np.any((ref == 0.0) & (t > 0.0)):
        return False
    return bool(np.all(np.abs(t - ref) <= mu))


def log_prob_type_event(probs, n, predicate):
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


def type_bound(g0, g1, n, literal=False):
    best = 0.0
    for counts in iter_types(n, len(g0)):
        t = counts / n
        d0, d1 = kl(t, g0), kl(t, g1)
        if d0 == math.inf:
            continue
        lead = d1 if literal else d0
        if d1 == math.inf:
            term = math.exp(-n * lead) if lead < math.inf else 0.0
        else:
            exps = [-n * lead - 2.0 * n * (d1 - d0), -n * lead - n * (d1 - d0), -n * lead]
            term = math.exp(exps[0]) - 2.0 * math.exp(exps[1]) + math.exp(exps[2])
        best = max(best, term)
    return (n + 1) ** len(g0) * best


def delta_scheme_B(p_u, tau, n):
    logs = []
    best_exp = NEG_INF
    for counts in iter_types(n, len(p_u)):
        d = kl(counts / n, p_u)
        if d < tau:
            continue
        if d < math.inf:
            best_exp = max(best_exp, -n * d)
        lp = log_type_class_prob(counts, p_u)
        if lp > NEG_INF:
            logs.append(lp)
    exact = float(min(math.exp(logsumexp(logs)), 1.0)) if logs else 0.0
    bound = (n + 1) ** len(p_u) * math.exp(best_exp) if best_exp > NEG_INF else 0.0
    return exact, bound


def log_accept_prob(cfg, joint, p_u, p_v, dmc, n, tau=None):
    """log Pr[decide 0] and the transmission probability of one scheme."""
    if cfg.scheme == "B":
        ref = dmc.y_row(dmc.zero_symbol).probs
        log_acc = {
            which: log_prob_type_event(dmc.y_row(x).probs, n,
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
        mat = (counts / n).reshape(du, dv)
        t_u, t_v = mat.sum(axis=1), mat.sum(axis=0)
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


def simplex_grid(dim, step):
    k = max(int(round(1.0 / step)), 1)
    while math.comb(k + dim - 1, dim - 1) > 400_000:
        k //= 2
    pts = []
    for comp in itertools.combinations_with_replacement(range(dim), k):
        pts.append(np.bincount(np.array(comp), minlength=dim) / k)
    return np.array(pts)
