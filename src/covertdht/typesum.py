"""Method-of-types enumeration helpers.

Exact probabilities of type-level events for i.i.d. sequences are computed by
summing over all n-types (compositions of n) in the log domain. The number of
n-types over an alphabet of size d is C(n+d-1, d-1); callers are expected to
keep d small and are rejected beyond a hard cap rather than silently thrashing.

The lattice of n-types is one array layer, walked a band at a time by
:func:`type_bands`, in lexicographic order, so the memory of an exact sum
stays bounded however many types it visits: a band holds at most
``BLOCK_ROWS`` types. Its rows are the enumerated counts of the first d - 2
letters, and each row's last two letters run densely over c_{d-2} = j,
c_{d-1} = rest - j. A :class:`Band` stands for its ``(types, d)`` array of
types counts/n without building it. Every per-type quantity of the exact
sums is a left-to-right sum over the letters of a per-letter table T[c, z],
or an AND of per-letter boolean tables: log c!, c log p_z, the divergence
terms (c/n) log((c/n)/q_z), c log(G1_z/G0_z) and the mu-box |c/n - ref_z|
<= mu. A band looks each letter's count up in its table, built once per walk
by the same elementwise kernel the row path applies to a ``(rows, d)``
array, so the exact sums take no logarithm per type and decide every tie as
the row path and Monte Carlo do. A quantity constant along a band row is
computed once per row and read at each type's row (:meth:`Band.rows`): the
joint-type engine decides T_U that way. :func:`type_blocks` yields the same
bands materialized as ``(rows, d)`` count arrays; no exact sum walks it, only
the sphere search's ray lattice in ``exponents`` and the tests' oracles.

An event that is a box, each letter's count in a set of its own, needs no
lattice and no cap: :func:`log_prob_boxes` follows the multinomial's chain
of binomials.

The log-domain primitives are numpy only: log-factorials come from a cached
``math.lgamma`` table indexed by the counts, and :func:`logsumexp` splits
off the maximum as ``scipy.special.logsumexp`` does.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import math
from collections.abc import Callable, Iterator

import numpy as np

from .errors import AlphabetTooLarge
from .probability import Pmf, letter_sum

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
            f"{what}: {num_types(n, dim)} n-types over {dim} symbols exceeds the cap {MAX_TYPES}"
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


class Band:
    """One band of the n-type lattice: it stands for the ``(len, d)`` array
    of its types counts/n, in lexicographic order, without building it.

    Row i holds the counts ``heads[i]`` of the first d - 2 letters and has
    ``rest[i]`` left for the last two; its types take c_{d-2} = j for j from
    ``lo[i]`` to ``hi[i]`` and c_{d-1} = rest[i] - j (a one-letter band has
    j = 0 and c_0 = rest). :meth:`letter_sum`, :meth:`count_sum` and
    :meth:`letter_all` reduce a per-letter table, built once per walk from an
    elementwise kernel and shared by the walk's bands (``tables``), over the
    band's types: ``probability.kl_rows`` and ``probability.typical`` take a
    band in place of a ``(rows, d)`` array this way. Anything else sees the
    materialized array (``np.asarray(band)``, ``band[key]``).
    """

    def __init__(self, n: int, dim: int, tables: dict, heads: np.ndarray,
                 rest: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.n, self.dim = n, dim
        self._tables = tables
        sizes = hi - lo + 1
        self._heads, self._rest = heads, rest
        self._row = np.repeat(np.arange(len(rest)), sizes)
        self._j = np.arange(len(self._row)) - np.repeat(np.cumsum(sizes) - sizes - lo, sizes)
        self._last = rest[self._row] - self._j

    def __len__(self) -> int:
        return len(self._row)

    def counts(self) -> np.ndarray:
        """The band's types as a ``(len, d)`` int64 count array."""
        if self.dim == 1:
            return self._last[:, None]
        return np.column_stack((self._heads[self._row], self._j, self._last))

    def rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The band by rows: ``(heads, rest, row, j, last)``. Row r fixes the
        counts ``heads[r]`` of the first d - 2 letters and leaves ``rest[r]``
        for the last two; type i lies in row ``row[i]``, with c_{d-2} =
        ``j[i]`` and c_{d-1} = ``last[i]``. A quantity that depends on a type
        only through its row is computed once per row and read at ``row``."""
        return self._heads, self._rest, self._row, self._j, self._last

    def __array__(self, dtype=None, copy=None):
        t = self.counts() / self.n
        return t if dtype is None else t.astype(dtype, copy=False)

    def __getitem__(self, key):
        return np.asarray(self)[key]

    def subset(self, mask: np.ndarray) -> "Band":
        """The band's types where `mask` holds, in order, as a band that
        shares this one's tables."""
        sub = copy.copy(self)
        sub._row, sub._j, sub._last = self._row[mask], self._j[mask], self._last[mask]
        return sub

    def _table(self, kernel, args: tuple, on_counts: bool) -> np.ndarray:
        """``kernel(column, *args)`` as a ``(d, n+1)`` table indexed [letter,
        count], the column being the counts 0..n or the frequencies c/n;
        -0.0 is stored as +0.0, which is where ``letter_sum`` starts."""
        # keyed by the arguments' identities; an entry keeps its arguments,
        # so an id is not reused while the walk lasts
        key = (kernel, on_counts, tuple(map(id, args)))
        entry = self._tables.get(key)
        if entry is None:
            column = np.arange(self.n + 1)[:, None]
            table = kernel(column if on_counts else column / self.n, *args)
            if table.dtype != bool:
                table = table + 0.0
            table = np.broadcast_to(table, (self.n + 1, self.dim))
            entry = self._tables[key] = (args, np.ascontiguousarray(table.T))
        return entry[1]

    def _letters(self, table: np.ndarray) -> list[np.ndarray]:
        """The band's per-type entries of a ``(d, n+1)`` table, letter by
        letter; the head letters come reduced to one column (left to right,
        per row)."""
        lead = self._heads.shape[1]
        cols = []
        if lead:
            heads = table[np.arange(lead), self._heads]
            if table.dtype == bool:
                cols.append(heads.all(axis=-1)[self._row])
            else:
                cols.append(letter_sum(heads)[self._row])
        if self.dim > 1:
            cols.append(table[self.dim - 2][self._j])
        cols.append(table[self.dim - 1][self._last])
        return cols

    def _reduce_sum(self, table: np.ndarray) -> np.ndarray:
        # letter_sum's order; the first column is a fresh array without -0.0,
        # equal to 0.0 plus itself
        first, *others = self._letters(table)
        for col in others:
            first += col
        return first

    def letter_sum(self, kernel, *args) -> np.ndarray:
        """Per type, the sum over letters of ``kernel(c/n, *args)``, left to
        right (``probability.letter_sum``'s order)."""
        return self._reduce_sum(self._table(kernel, args, on_counts=False))

    def count_sum(self, kernel, *args) -> np.ndarray:
        """Per type, the sum over letters of ``kernel(c, *args)`` on the
        counts, left to right."""
        return self._reduce_sum(self._table(kernel, args, on_counts=True))

    def letter_all(self, kernel, *args) -> np.ndarray:
        """Per type, True where the boolean ``kernel(c/n, *args)`` holds on
        every letter."""
        first, *others = self._letters(self._table(kernel, args, on_counts=False))
        for col in others:
            first &= col
        return first


def type_bands(n: int, dim: int) -> Iterator[Band]:
    """All count vectors of length `dim` summing to n, first symbol slowest,
    as bands of at most ``BLOCK_ROWS`` types.

    The leading ``split`` counts are enumerated up front so that the
    completions of any one prefix fit in a band; consecutive prefixes are
    then grouped and completed together, to d - 2 letters. Where n + 1 >
    ``BLOCK_ROWS``, every prefix is a single type (``split`` = d - 1), and
    bands cut the rows' j ranges every ``BLOCK_ROWS`` types. The walk's
    bands share one cache of per-letter tables.
    """
    split = 0
    while num_types(n, dim - split) > BLOCK_ROWS:
        split += 1
    lead, tables = max(dim - 2, 0), {}
    heads, rest = np.zeros((1, 0), dtype=np.int64), np.array([n], dtype=np.int64)
    for _ in range(min(split, lead)):
        heads, rest = _extend(heads, rest)
    if split > lead:
        ends = np.cumsum(rest + 1)
        starts = ends - rest - 1
        for a in range(0, int(ends[-1]), BLOCK_ROWS):
            b = min(a + BLOCK_ROWS, int(ends[-1]))
            rows = slice(np.searchsorted(ends, a, side="right"),
                         np.searchsorted(ends, b - 1, side="right") + 1)
            yield Band(n, dim, tables, heads[rows], rest[rows],
                       np.maximum(a - starts[rows], 0), np.minimum(b - 1 - starts[rows], rest[rows]))
        return
    completions = np.ones_like(rest)  # num_types(r, dim - split) for each r of rest
    for i in range(1, dim - split):
        completions = completions * (rest + i) // i
    ends = np.cumsum(completions)
    start = 0
    while start < len(rest):
        done = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, done + BLOCK_ROWS, side="right"))
        h, r = heads[start:stop], rest[start:stop]
        for _ in range(lead - split):
            h, r = _extend(h, r)
        yield Band(n, dim, tables, h, r, np.zeros_like(r), r if dim > 1 else np.zeros_like(r))
        start = stop


def type_blocks(n: int, dim: int) -> Iterator[np.ndarray]:
    """The bands of :func:`type_bands`, materialized: ``(rows, dim)`` int64
    count arrays of at most ``BLOCK_ROWS`` rows, first symbol slowest."""
    for band in type_bands(n, dim):
        yield band.counts()


def logsumexp(a) -> float:
    """log sum exp(a) over a 1-D sequence; -inf when it is empty or all -inf.

    The maxima are split off the sum, log1p(s / m) + log m + max with m the
    number of maxima, so the result matches scipy.special.logsumexp bit for
    bit; where the maximum is not finite (all -inf, or a +inf entry), log
    sum exp(a) directly. Only the sum of exp(a - max) is an array operation;
    the logarithms are numpy's ufuncs on scalars, as scipy takes them (math's
    may differ in the last bit).
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    if not a.size:
        return NEG_INF
    top = a.max()
    if not NEG_INF < top < math.inf:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return float(np.log(np.exp(a).sum()))
    tied = a == top
    m = np.float64(np.count_nonzero(tied))
    # a - top overflows to -inf (where exp is 0) only below a positive maximum
    with np.errstate(over="ignore") if top > 0.0 else contextlib.nullcontext():
        terms = np.exp(a - top)
    terms[tied] = 0.0
    s = terms.sum()
    return float(np.log1p(s / m if s else s) + np.log(m) + top)


@functools.lru_cache(maxsize=16)
def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, from math.lgamma."""
    table = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    table.flags.writeable = False
    return table


def _lookup(counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``table[counts]``: a table over the counts 0..n, read at each count."""
    return table[counts]


def count_logs(counts: np.ndarray, log_v: np.ndarray) -> np.ndarray:
    """counts * log_v elementwise, 0 where the count is 0 (0 log 0 = 0)."""
    with np.errstate(invalid="ignore"):
        return np.where(counts == 0, 0.0, counts * log_v)


def _count_sum(counts, kernel, *args) -> np.ndarray:
    """Per type, the letter sum of ``kernel(counts, *args)``, over the last
    axis of `counts` or over a band."""
    if isinstance(counts, Band):
        return counts.count_sum(kernel, *args)
    return letter_sum(kernel(np.asarray(counts), *args))


def log_multinomial(counts) -> np.ndarray:
    """log n! - sum_z log c_z!, the log of the number of sequences of each
    type, over the last axis of `counts` (non-negative integers) or over a
    band."""
    if isinstance(counts, Band):
        n = counts.n
    else:
        counts = np.asarray(counts)
        n = counts.sum(axis=-1)
    log_fact = _log_factorials(int(np.max(n, initial=0)))
    return log_fact[n] - _count_sum(counts, _lookup, log_fact)


def _count_log_probs(counts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """c log p elementwise, 0 where the count is 0."""
    with np.errstate(divide="ignore"):
        return count_logs(counts, np.log(p))


def log_sequence_prob(counts, p: np.ndarray) -> np.ndarray:
    """sum_z c_z log p_z, the log-probability under i.i.d. p of any one
    sequence of each type, over the last axis of `counts` or over a band;
    -inf where a count falls on a zero of p."""
    return _count_sum(counts, _count_log_probs, p)


def log_type_class_prob(counts, p: np.ndarray) -> np.ndarray:
    """log Pr[type(X^n) = counts/n] for X i.i.d. p, over the last axis of
    `counts` (non-negative integers) or over a band; -inf on impossible
    types."""
    return log_multinomial(counts) + log_sequence_prob(counts, p)


def log_prob_type_event(p: Pmf, n: int, predicate: Callable[[Band], np.ndarray]) -> float:
    """log Pr[type(X^n) satisfies predicate], X i.i.d. p; -inf when impossible.

    The predicate maps a band of types (:class:`Band`, standing for the
    ``(rows, d)`` array of types counts/n) to a boolean mask over its types.
    """
    check_enumerable(n, p.alphabet.size)
    parts = []
    for band in type_bands(n, p.alphabet.size):
        mask = predicate(band)
        parts.append(logsumexp(log_type_class_prob(band if mask.all() else band.subset(mask),
                                                   p.probs)))
    return min(logsumexp(parts), 0.0)


def log_prob_boxes(laws: np.ndarray, n: int, boxes: np.ndarray) -> list[float]:
    """log Pr[every letter's count lies in its box] under Mult(n, p), for
    each law p of the ``(k, d)`` array ``laws``, where ``boxes[z, c]`` says
    whether count c of letter z lies in letter z's box (a ``(d, n + 1)``
    boolean array); -inf where no type does.

    Given the m trials the letters before it leave, letter j's count is
    Bin(m, q_j), q_j = p_j / sum_{i>=j} p_i, and the last letter takes the
    rest. A dynamic program carries log L(m), the probability that the
    letters so far lie in their boxes and leave m trials; letter j's step
    is L'(r) = sum over c in its box of L(r + c) Bin(c; r + c, q_j), one
    logsumexp per r. m stays on the window that the earlier letters' boxes
    can leave and the later letters' boxes can fill.
    """
    laws = np.asarray(laws, dtype=float)
    if not boxes.any(axis=1).all():
        return [NEG_INF] * len(laws)
    lo, hi = boxes.argmax(axis=1).tolist(), (n - boxes[:, ::-1].argmax(axis=1)).tolist()
    log_fact = _log_factorials(n)
    tail = np.cumsum(laws[:, ::-1], axis=1)[:, ::-1]  # tail[:, j] = sum_{i>=j} p_i
    a = b = n  # L lives on m = a..b
    log_left = np.zeros((len(laws), 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        # log q_j and log(1 - q_j) = log(tail_{j+1} / tail_j); q_j = 0 where tail_j = 0
        log_tail = np.log(tail)
        log_tail_j = np.where(tail[:, :-1] > 0.0, log_tail[:, :-1], 0.0)
        log_q, log_not_q = np.log(laws[:, :-1]) - log_tail_j, log_tail[:, 1:] - log_tail_j
        for j in range(laws.shape[1] - 1):
            r_lo, r_hi = max(a - hi[j], sum(lo[j + 1:])), min(b - lo[j], sum(hi[j + 1:]))
            if r_lo > r_hi:
                return [NEG_INF] * len(laws)
            c, r = np.arange(lo[j], hi[j] + 1), np.arange(r_lo, r_hi + 1)
            # log(L(m) m!) on m = r_lo + lo_j .. r_hi + hi_j, -inf off a..b
            g = np.full((len(laws), len(r) + len(c) - 1), NEG_INF)
            g[:, a - r_lo - lo[j] : b - r_lo - lo[j] + 1] = log_left + log_fact[a : b + 1]
            # c log q_j - log c! on the box, -inf off it (0 log 0 = 0)
            h = np.where(boxes[j, lo[j] : hi[j] + 1], np.where(c > 0, c * log_q[:, j, None], 0.0),
                         NEG_INF)
            h = (h - log_fact[c])[:, None, :]
            sums = np.empty((len(laws), len(r)))
            rows = max(1, (BLOCK_ROWS << 6) // (len(laws) * len(c)))
            for k in range(0, len(r), rows):
                # terms[law, i, l]: m = r[k + i] + c[l]
                terms = g[:, np.arange(k, min(k + rows, len(r)))[:, None] + np.arange(len(c))] + h
                top = terms.max(axis=2, keepdims=True)
                top[top == NEG_INF] = 0.0
                sums[:, k : k + rows] = np.log(np.exp(terms - top).sum(axis=2)) + top[..., 0]
            log_left = sums + np.where(r > 0, r * log_not_q[:, j, None], 0.0) - log_fact[r]
            a, b = r_lo, r_hi
    return [min(logsumexp(row[boxes[-1, a : b + 1]]), 0.0) for row in log_left]


def prob_type_event(p: Pmf, n: int, predicate: Callable[[Band], np.ndarray]) -> float:
    """Exact Pr[type(X^n) satisfies predicate], X i.i.d. p."""
    lp = log_prob_type_event(p, n, predicate)
    return 0.0 if lp == NEG_INF else math.exp(lp)

