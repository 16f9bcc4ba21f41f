"""Method-of-types enumeration helpers.

Exact probabilities of type-level events for i.i.d. sequences are computed by
summing over all n-types (compositions of n) in the log domain. The number of
n-types over an alphabet of size d is C(n+d-1, d-1); callers are expected to
keep d small and are rejected beyond a hard cap rather than silently thrashing.

The lattice of n-types is one array layer: :func:`type_blocks` yields it as
``(rows, d)`` count arrays in blocks of at most ``BLOCK_ROWS`` rows, so the
memory of an exact sum stays bounded however many types it visits. Class
log-probabilities and event predicates are evaluated a block at a time, and
several events can share one walk (:func:`log_prob_type_events`).

The log-domain primitives are numpy only: log-factorials come from a cached
``math.lgamma`` table indexed by the counts, and :func:`logsumexp` splits
off the maximum as ``scipy.special.logsumexp`` does.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from .errors import AlphabetTooLarge
from .probability import Pmf

#: Upper bound on enumerated types per call.
MAX_TYPES = 5_000_000

#: Upper bound on the rows of one block of the type lattice; keeps the
#: temporaries of one block to a few hundred KiB.
BLOCK_ROWS = 1 << 12

NEG_INF = -math.inf


def num_types(n: int, dim: int) -> int:
    return math.comb(n + dim - 1, dim - 1)


def check_enumerable(n: int, dim: int, what: str = "type enumeration") -> None:
    if num_types(n, dim) > MAX_TYPES:
        raise AlphabetTooLarge(
            f"{what}: {num_types(n, dim)} n-types over {dim} symbols exceeds the "
            f"cap {MAX_TYPES}; use Monte Carlo instead"
        )


def _extend(heads: np.ndarray, rest: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Append one more count to each partial type in every possible way.

    Row i of ``heads`` has ``rest[i]`` of its mass left; its children follow
    it in place, new count ascending, so lexicographic order is kept.
    """
    reps = rest + 1
    offsets = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    heads = np.column_stack((np.repeat(heads, reps, axis=0), offsets))
    return heads, np.repeat(rest, reps) - offsets


def type_blocks(n: int, dim: int) -> Iterator[np.ndarray]:
    """All count vectors of length `dim` summing to n, first symbol slowest.

    Yields ``(rows, dim)`` int64 arrays of at most ``BLOCK_ROWS`` rows. The
    leading ``split`` counts are enumerated up front so that the completions
    of any one prefix fit in a block; consecutive prefixes are then grouped
    and completed together.
    """
    split = 0
    while num_types(n, dim - split) > BLOCK_ROWS:
        split += 1
    heads, rest = np.zeros((1, 0), dtype=np.int64), np.array([n], dtype=np.int64)
    for _ in range(split):
        heads, rest = _extend(heads, rest)
    ends = np.cumsum([num_types(int(r), dim - split) for r in rest])
    start = 0
    while start < len(rest):
        done = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, done + BLOCK_ROWS, side="right"))
        h, r = heads[start:stop], rest[start:stop]
        for _ in range(dim - split - 1):
            h, r = _extend(h, r)
        yield np.column_stack((h, r))
        start = stop


def logsumexp(a) -> float:
    """log sum exp(a) over a 1-D sequence; -inf when it is empty or all -inf.

    The maxima are split off the sum, log1p(s / m) + log m + max with m the
    number of maxima, so the result matches scipy.special.logsumexp bit for
    bit; where that is not finite (a +inf entry), log sum exp(a) directly.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    if not a.size:
        return NEG_INF
    top = a.max(keepdims=True)
    tied = a == top
    m = np.count_nonzero(tied, keepdims=True).astype(float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(tied, NEG_INF, a) - top).sum(keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + top
        if not np.isfinite(out[0]):
            out = np.log(np.exp(a).sum(keepdims=True))
    return float(out[0])


@functools.lru_cache(maxsize=16)
def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, from math.lgamma."""
    table = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    table.flags.writeable = False
    return table


def log_type_class_prob(counts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """log Pr[type(X^n) = counts/n] for X i.i.d. p, over the last axis of
    `counts` (non-negative integers); -inf on impossible types."""
    counts = np.asarray(counts)
    n = counts.sum(axis=-1)
    log_fact = _log_factorials(int(n.max(initial=0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(counts == 0, 0.0, counts * np.log(p))  # 0 log 0 = 0
    return log_fact[n] - log_fact[counts].sum(axis=-1) + log_p.sum(axis=-1)


def log_prob_type_event(
    p: Pmf, n: int, predicate: Callable[[np.ndarray], np.ndarray]
) -> float:
    """log Pr[type(X^n) satisfies predicate], X i.i.d. p; -inf when impossible.

    The predicate maps a ``(rows, d)`` array of types, as probability vectors
    counts/n, to a boolean mask over its rows.
    """
    return log_prob_type_events(p, n, [predicate])[0]


def log_prob_type_events(
    p: Pmf, n: int, predicates: Sequence[Callable[[np.ndarray], np.ndarray]]
) -> list[float]:
    """``log_prob_type_event`` for each of ``predicates``, from one walk of
    the lattice: a block's class log-probabilities are computed once, on the
    types that some predicate holds for, and serve every predicate."""
    check_enumerable(n, p.alphabet.size)
    parts = [[] for _ in predicates]
    for counts in type_blocks(n, p.alphabet.size):
        t = counts / n
        masks = [predicate(t) for predicate in predicates]
        held = np.logical_or.reduce(masks)
        lp = log_type_class_prob(counts[held], p.probs)
        for part, mask in zip(parts, masks):
            part.append(logsumexp(lp[mask[held]]))
    return [min(logsumexp(part), 0.0) for part in parts]


def prob_type_event(p: Pmf, n: int, predicate: Callable[[np.ndarray], np.ndarray]) -> float:
    """Exact Pr[type(X^n) satisfies predicate], X i.i.d. p."""
    lp = log_prob_type_event(p, n, predicate)
    return 0.0 if lp == NEG_INF else math.exp(lp)

