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
c_{d-1} = rest - j. A :class:`Band` holds its types by rows, without
their ``(types, d)`` count array.

Every per-type quantity is a count-table sum: for a ``(d, n + 1)`` table T,
the sum over the letters of T[z, c_z], added left to right
(``probability.letter_sum``'s order). The tables are log c! and c log p_z
for class probabilities (:func:`class_tables`), the divergence terms
``kl_terms(c/n, q)`` (:func:`kl_table`), c log v_z for any v
(:func:`log_count_table`), and a box's letters out of their box. Whoever
owns a walk or a cell builds each table once, by the same elementwise
kernel that the row path (``probability.kl_rows`` and ``typical`` on
counts / n among it) applies to a ``(rows, d)`` array, so no logarithm is
taken per type and every tie falls as on the row path. One function,
:func:`table_sum`, sums a table over a ``(rows, d)`` count array or over a
band, and is the only place that tells the two apart. A quantity constant
along a band row is computed once per row and read at each type's row
(:meth:`Band.rows`): the joint-type engine decides T_U that way.

An event that is a box, each letter's count in a set of its own, needs no
lattice and no cap: :class:`BoxChain` follows the multinomial's chain of
binomials, for its probability (``log_probs``) and for draws conditioned on
it (``sample``); :class:`BoxComplement` does the same for the box's
complement, as a union of first-letter-out strata, one chain each. Nor
does the divergence event D(T || p) >= tau, which
:func:`log_prob_divergence_at_least` sums by rows that leave two letters
free: each row's silent counts are one interval, its tails binomial.

The log-domain primitives are numpy only: log-factorials come from a cached
``math.lgamma`` table, and :func:`logsumexp` splits off the maximum as
``scipy.special.logsumexp`` does.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections.abc import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import AlphabetTooLarge
from .probability import kl_terms, letter_sum

#: Upper bound on enumerated types per call.
MAX_TYPES = 5_000_000

#: Upper bound on the rows of one block of the type lattice; keeps the
#: temporaries of one block to a few hundred KiB.
BLOCK_ROWS = 1 << 12

NEG_INF = -math.inf

#: A binomial tail's window stops where the rest is at most this share of it.
TAIL_REST = math.exp(-40.0)


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
    """One band of the n-type lattice: ``len`` types over d letters, in
    lexicographic order, without their ``(len, d)`` count array.

    Row i holds the counts ``heads[i]`` of the first d - 2 letters and has
    ``rest[i]`` left for the last two; its types take c_{d-2} = j for j from
    ``lo[i]`` to ``hi[i]`` and c_{d-1} = rest[i] - j (a one-letter band has
    j = 0 and c_0 = rest). :func:`table_sum` sums a count table over the
    band's types; :meth:`counts` builds their count array.
    """

    def __init__(self, dim: int, heads: np.ndarray, rest: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray):
        self.dim = dim
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


def type_bands(n: int, dim: int) -> Iterator[Band]:
    """All count vectors of length `dim` summing to n, first symbol slowest,
    as bands of at most ``BLOCK_ROWS`` types.

    The leading ``split`` counts are enumerated up front so that the
    completions of any one prefix fit in a band; consecutive prefixes are
    then grouped and completed together, to d - 2 letters. Where n + 1 >
    ``BLOCK_ROWS``, every prefix is a single type (``split`` = d - 1), and
    bands cut the rows' j ranges every ``BLOCK_ROWS`` types.
    """
    split = 0
    while num_types(n, dim - split) > BLOCK_ROWS:
        split += 1
    lead = max(dim - 2, 0)
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
            yield Band(dim, heads[rows], rest[rows],
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
        yield Band(dim, h, r, np.zeros_like(r), r if dim > 1 else np.zeros_like(r))
        start = stop


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


def count_table(values: np.ndarray) -> np.ndarray:
    """A per-letter kernel's values on the counts 0..n, an ``(n + 1, d)``
    array whose row c holds every letter's value at count c, as a count
    table: the ``(d, n + 1)`` array T[z, c]. -0.0 is stored as +0.0, where
    ``letter_sum`` starts."""
    return np.ascontiguousarray(values.T + 0.0)


def table_sum(table: np.ndarray, types) -> np.ndarray:
    """Per type, sum_z T[z, c_z] over the letters, left to right
    (``probability.letter_sum``'s order), for a ``(d, n + 1)`` count table
    T; `types` is a ``(rows, d)`` count array, one ``(d,)`` type or a
    :class:`Band`. Every per-type quantity of the exact sums and every
    decision of the engines is one such sum.

    The one place that tells a band from an array: a band adds its head
    letters once per row and reads that sum at each type's row, then adds
    c_{d-2} and c_{d-1}. Its first column is a fresh array without -0.0,
    equal to 0.0 plus itself, so both forms give the same bits.
    """
    if not isinstance(types, Band):
        return letter_sum(table[np.arange(len(table)), types])
    heads, _, row, j, last = types.rows()
    lead = heads.shape[1]
    cols = [letter_sum(table[np.arange(lead), heads])[row]] if lead else []
    if types.dim > 1:
        cols.append(table[-2][j])
    first, *others = cols + [table[-1][last]]
    for col in others:
        first += col
    return first


def log_count_table(log_v: np.ndarray, n: int) -> np.ndarray:
    """The count table of sum_z c_z log_v[z]: c log v_z on the counts 0..n,
    0 at c = 0 (0 log 0 = 0)."""
    column = np.arange(n + 1)[:, None]
    with np.errstate(invalid="ignore"):
        return count_table(np.where(column == 0, 0.0, column * log_v))


def kl_table(q: np.ndarray, n: int) -> np.ndarray:
    """The count table of D(c/n || q): ``probability.kl_terms`` on the
    frequencies c/n of the counts 0..n, so its table sum, clamped at 0, is
    ``probability.kl_rows`` on counts / n, bit for bit."""
    return count_table(kl_terms(np.arange(n + 1)[:, None] / n, q))


def class_tables(laws: np.ndarray, n: int) -> list[np.ndarray]:
    """The count tables of the n-type classes under each law p of the
    ``(k, d)`` array `laws`, for :func:`log_class_probs`: log c!, then c
    log p_z for each law (-inf where a count falls on a zero of p)."""
    laws = np.asarray(laws, dtype=float)
    log_fact = np.broadcast_to(_log_factorials(n)[:, None], (n + 1, laws.shape[1]))
    with np.errstate(divide="ignore"):
        return [count_table(log_fact), *(log_count_table(np.log(p), n) for p in laws)]


def log_class_probs(tables: list[np.ndarray], types) -> list[np.ndarray]:
    """Per law of the :func:`class_tables` `tables`, log Pr[type(X^n) = c/n]
    for X i.i.d. p at each type c of `types` (a count array or a band of
    types summing to n): log n! - sum_z log c_z! + sum_z c_z log p_z, -inf
    on impossible types."""
    log_fact, *log_probs = tables
    log_coef = log_fact[0, -1] - table_sum(log_fact, types)
    return [log_coef + table_sum(table, types) for table in log_probs]


def _log_binomial_walks(log_q: np.ndarray, law: np.ndarray, m: np.ndarray, start: np.ndarray,
                        step: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Per walk, log sum_{t < length} Bin(start + step t; m, q), -inf where
    length is 0, ``log_q[law]`` the count table of j log q and c log(1 - q).
    A window of terms doubles until it holds the walk or the ratio r < 1 of
    its last two terms bounds the rest, last r / (1 - r), by ``TAIL_REST``
    of its sum: away from its mode a binomial's ratios only fall."""
    log_fact, out = _log_factorials(log_q.shape[-1] - 1), np.full(len(m), NEG_INF)
    todo, width = np.flatnonzero(length > 0), 32
    while len(todo):
        t, undone, per = np.arange(width), [], max(1, (BLOCK_ROWS << 4) // width)
        for w in (todo[a : a + per] for a in range(0, len(todo), per)):
            mw, lw = m[w, None], law[w, None]
            j = start[w, None] + step[w, None] * np.minimum(t, length[w, None] - 1)
            terms = (log_fact[mw] - log_fact[j] - log_fact[mw - j]
                     + log_q[lw, 0, j] + log_q[lw, 1, mw - j])
            inside = np.where(t < length[w, None], terms, NEG_INF)
            top = inside.max(axis=1)  # finite: the first term is inside
            out[w] = np.log(np.exp(inside - top[:, None]).sum(axis=1)) + top
            r = np.exp(np.minimum(terms[:, -1] - terms[:, -2], 0.0))
            done = r * (np.exp(terms[:, -1] - out[w]) + TAIL_REST) <= TAIL_REST
            undone.append(w[(length[w] > width) & ~done])
        todo, width = np.concatenate(undone), 2 * width
    return out


def log_prob_divergence_at_least(laws: np.ndarray, p: np.ndarray, n: int,
                                 tau: float) -> list[float]:
    """log Pr[D(type(X^n) || p) >= tau], X i.i.d. law, for each law of the
    ``(k, d)`` array ``laws``, by rows of the lattice, with no cap and no 1 -
    Pr; D is the table sum of ``kl_table(p, n)`` clamped at 0, the encoder's.

    A row fixes all counts but those of the pair i, k, the last two letters
    of positive p (a zero letter, then the positive one, where p has one),
    and leaves them m: a type of the (n, d - 1) lattice, the pair merged last.
    Along a row D is convex in c_i = j (Cover & Thomas, Thm 2.7.2) and least
    at floor(m p_i / (p_i + p_k)) or the next j, so the silent set {D < tau}
    is one interval; bisection finds its ends on head + T_i[j] + T_k[m - j],
    ``letter_sum``'s order bit for bit, as the other letters after i have
    zero p and add +0.0, or +inf at a positive count. Given the row c_i is
    Bin(m, law_i / (law_i + law_k)), so a row transmits its class
    probability times the binomial's tails walked outward from the interval
    (:func:`_log_binomial_walks`), or all of it where no j is silent.
    """
    laws, p = np.asarray(laws, dtype=float), np.asarray(p, dtype=float)
    if len(p) == 1:  # a zero letter first, so that a pair exists
        laws, p = np.column_stack((np.zeros(len(laws)), laws)), np.concatenate(([0.0], p))
    i, k = np.argsort(p > 0.0, kind="stable")[-2:]
    others = [z for z in range(len(p)) if z not in (i, k)]
    div = kl_table(p, n)
    head_table = np.vstack((div[others], np.zeros((1, n + 1))))  # the merged pair adds +0.0
    row_tables = class_tables(np.column_stack((laws[:, others], laws[:, i] + laws[:, k])), n)
    q = laws[:, [i, k]] / np.maximum(laws[:, [i]] + laws[:, [k]], 5e-324)  # 0 where both are
    with np.errstate(divide="ignore"):  # j log q and c log(1 - q) per law
        log_q = np.stack([log_count_table(np.log(law_q), n) for law_q in q])
    step, law = np.array([-1, 1])[:, None, None], np.arange(len(laws))[None, :, None]
    parts = [[] for _ in laws]
    for band in type_bands(n, len(p) - 1):
        m, r = np.tile(band.rows()[4], 2), len(band)  # a copy of the rows per end
        heads, upper = np.tile(table_sum(head_table, band), 2), np.arange(2 * r) >= r

        def silent(j):
            return np.maximum(heads + div[i][j] + div[k][m - j], 0.0) < tau

        near = np.minimum((m * (p[i] / (p[i] + p[k]))).astype(np.int64) + upper, m)
        hit = silent(near)
        c, found = np.where(hit[:r], near[:r], near[r:]), hit[:r] | hit[r:]
        # the first j of [a, b) where silent(j) != upper, else b
        a, b = np.concatenate((0 * c, c + 1)), np.concatenate((c, m[:r] + 1))
        for _ in range(int(m.max(initial=0) + 1).bit_length()):
            mid = (a + b) >> 1
            hit = silent(np.minimum(mid, m)) != upper
            a, b = np.where(hit, a, np.minimum(mid + 1, b)), np.where(hit, mid, b)
        # per end, law and row, the walk down from lo - 1 or up from hi + 1,
        # in the binomial's support (one point where q is 0 or 1)
        first, last = np.where(q[:, 1:] > 0.0, 0, m[:r]), np.where(q[:, :1] > 0.0, m[:r], 0)
        start = np.stack((np.minimum(a[:r] - 1, last), np.maximum(a[r:], first)))
        length = np.where(found, np.maximum(np.stack((start[0] - first, last - start[1])) + 1, 0), 0)
        tails = _log_binomial_walks(log_q, *(np.broadcast_to(v, length.shape).ravel()
                                             for v in (law, m[:r], start, step, length)))
        for part, log_row, low, up in zip(parts, log_class_probs(row_tables, band),
                                          *tails.reshape(length.shape)):
            part.append(logsumexp(np.concatenate((log_row[~found], log_row + low, log_row + up))))
    return [min(logsumexp(part), 0.0) for part in parts]


def _inverse_cdf(log_w: np.ndarray, row: np.ndarray, u: np.ndarray, first: int = 0) -> np.ndarray:
    """Per draw i, a column of row ``row[i]`` of the ``(rows, cols)`` log
    weights ``log_w``, whose rows are numbered from ``first`` on, drawn
    with probability proportional to its weight by inverting the row's CDF
    at ``u[i]`` in [0, 1): one searchsorted over the rows' CDFs laid end to
    end, row k offset by k. The offsets do not depend on ``first``, so a
    table split into row blocks draws what the whole table draws. A sum k +
    u that rounds up to k + 1 returns the row's last column of positive
    weight."""
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    cdf = np.cumsum(w, axis=1)
    cdf /= cdf[:, -1:]
    stop = (cdf < 1.0).sum(axis=1)
    cdf += np.arange(first, first + len(cdf))[:, None]
    local = row - first
    col = np.searchsorted(cdf.ravel(), row + u, side="right") - local * cdf.shape[1]
    return np.minimum(col, stop[local])


class BoxChain:
    """The multinomial's chain of binomials on a box event, each letter's
    count in a set of its own, for each law p of the ``(k, d)`` array
    ``laws``, where ``boxes[z, c]`` says whether count c of letter z lies in
    letter z's box (a ``(d, n + 1)`` boolean array). It gives log Pr[box]
    under Mult(n, p) (:attr:`log_probs`, -inf where no type lies in the
    box) and draws of Mult(n, p) conditioned on the box (:meth:`sample`).

    Given the m trials the letters before it leave, letter j's count is
    Bin(m, q_j), q_j = p_j / sum_{i>=j} p_i, and the last letter takes the
    rest. A dynamic program carries log L(m), the probability that the
    letters so far lie in their boxes and leave m trials; letter j's step
    is L'(r) = sum over c in its box of L(r + c) Bin(c; r + c, q_j), one
    logsumexp per r; the first step starts from the point mass L(n) = 1, so
    each r takes its one term c = n - r. m stays on the window that the
    earlier letters' boxes can leave and the later letters' boxes can fill.
    The terms of each step are the weights of the backward draw.

    log L adds log-factorials of size n log n, so a log probability near 0
    carries an absolute error of about n log n * 1e-16: at n = 10^4 a
    complement 1 - Pr below about 1e-11 is rounding.
    """

    def __init__(self, laws: np.ndarray, n: int, boxes: np.ndarray):
        laws = np.asarray(laws, dtype=float)
        self.n, self.dim = n, laws.shape[1]
        # letter j >= 1's step: (r_lo, lo_j, g, h), its terms g[:, r - r_lo + c - lo_j]
        # + h[:, c - lo_j]; and the last letter's log weights on its window a..b
        self._steps: dict[int, tuple] = {}
        self._last: tuple[int, np.ndarray] | None = None
        self.log_probs = self._forward(laws, boxes)

    def _forward(self, laws: np.ndarray, boxes: np.ndarray) -> list[float]:
        n = self.n
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
            for j in range(self.dim - 1):
                r_lo, r_hi = max(a - hi[j], sum(lo[j + 1:])), min(b - lo[j], sum(hi[j + 1:]))
                if r_lo > r_hi:
                    return [NEG_INF] * len(laws)
                c, r = np.arange(lo[j], hi[j] + 1), np.arange(r_lo, r_hi + 1)
                # c log q_j - log c! on the box, -inf off it (0 log 0 = 0)
                h = np.where(boxes[j, lo[j] : hi[j] + 1],
                             np.where(c > 0, c * log_q[:, j, None], 0.0), NEG_INF) - log_fact[c]
                if j == 0:  # L is the point mass at m = n: each r takes its one c = n - r
                    sums = log_fact[n] + h[:, n - lo[0] - r]
                else:
                    # log(L(m) m!) on m = r_lo + lo_j .. r_hi + hi_j, -inf off a..b
                    g = np.full((len(laws), len(r) + len(c) - 1), NEG_INF)
                    g[:, a - r_lo - lo[j] : b - r_lo - lo[j] + 1] = log_left + log_fact[a : b + 1]
                    self._steps[j] = (r_lo, lo[j], g, h)
                    sums = np.empty((len(laws), len(r)))
                    rows = max(1, (BLOCK_ROWS << 4) // (len(laws) * len(c)))
                    windows = as_strided(g, (len(laws), len(r), len(c)), (*g.strides, g.strides[1]))
                    for k in range(0, len(r), rows):
                        # terms[law, i, l]: m = r[k + i] + c[l]
                        terms = windows[:, k : k + rows] + h[:, None, :]
                        top = terms.max(axis=2, keepdims=True)
                        top[top == NEG_INF] = 0.0
                        terms -= top
                        sums[:, k : k + rows] = np.log(np.exp(terms, out=terms).sum(2)) + top[..., 0]
                log_left = sums + np.where(r > 0, r * log_not_q[:, j, None], 0.0) - log_fact[r]
                a, b = r_lo, r_hi
        last = boxes[-1, a : b + 1]
        self._last = (a, np.where(last, log_left, NEG_INF))
        return [min(logsumexp(row[last]), 0.0) for row in log_left]

    def sample(self, law: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """``size`` draws of Mult(n, ``laws[law]``) conditioned on the box,
        as a ``(size, d)`` int64 count array, drawn backward along the
        chain: the last letter's count m with probability proportional to
        L(m) on its box; then, for each letter j from d - 2 down to 1, given
        the r trials the letters after it took, c_j with probability
        proportional to its step's term L(r + c_j) Bin(c_j; r + c_j, q_j);
        and letter 0 takes what is left. Each letter after the first reads
        one array of ``size`` uniforms from ``rng``, the last letter first.
        The term table of a step is built for the values of r drawn, at
        most ``BLOCK_ROWS << 3`` entries at a time; the draws do not depend
        on that block."""
        counts = np.empty((size, self.dim), dtype=np.int64)
        if not size:
            return counts
        if self.log_probs[law] == NEG_INF:
            raise ValueError("the box has probability 0 under this law")
        if self.dim == 1:
            counts[:, 0] = self.n
            return counts
        u = rng.random((self.dim - 1, size))
        a, last = self._last
        rest = a + _inverse_cdf(last[law][None], np.zeros(size, dtype=np.intp), u[0])
        counts[:, -1] = rest
        for j in range(self.dim - 2, 0, -1):
            r_lo, lo_j, g, h = self._steps[j]
            cols = h.shape[1]
            at = rest - r_lo
            present = np.bincount(at) > 0
            rows = np.flatnonzero(present)
            inv = (np.cumsum(present) - 1)[at]
            per = max(1, (BLOCK_ROWS << 3) // cols)
            c_j = np.empty(size, dtype=np.int64)
            for k in range(0, len(rows), per):
                terms = g[law][rows[k : k + per, None] + np.arange(cols)] + h[law]
                pick = slice(None) if len(rows) <= per else (inv >= k) & (inv < k + per)
                c_j[pick] = _inverse_cdf(terms, inv[pick], u[self.dim - 1 - j][pick], k)
            counts[:, j] = c_j + lo_j
            rest += counts[:, j]
        counts[:, 0] = self.n - rest
        return counts


class BoxComplement:
    """The complement of a box event, some letter's count out of its set,
    with :class:`BoxChain`'s arguments and interface. It is the disjoint
    union of its first-letter-out strata: stratum j, a box chain, has the
    letters before j in their boxes, letter j out of its box, and the
    letters after j merged into one free letter (none after the last
    letter). :attr:`log_probs` sums the strata, never 1 - Pr[box], which
    rounds to 0 once the complement drops below machine epsilon.
    """

    def __init__(self, laws: np.ndarray, n: int, boxes: np.ndarray):
        self._laws = laws = np.asarray(laws, dtype=float)
        self.dim = d = laws.shape[1]
        rows = np.vstack((boxes, ~boxes, np.ones(n + 1, dtype=bool)))  # in, out, free
        self._strata = [
            BoxChain(np.column_stack((laws[:, : j + 1], laws[:, j + 1 :].sum(axis=1)))[:, :d], n,
                     rows[[*range(j), d + j, 2 * d][:d]])
            for j in range(d)]
        self.log_probs = [min(logsumexp(parts), 0.0)
                          for parts in zip(*(stratum.log_probs for stratum in self._strata))]

    def sample(self, law: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """``size`` draws of Mult(n, ``laws[law]``) conditioned on the
        complement, as a ``(size, d)`` int64 count array, grouped by
        stratum: one multinomial draw from ``rng`` gives each stratum its
        exact share, each stratum draws its chain, and a stratum j before
        the last two letters splits its free letter by a plain multinomial
        draw."""
        if not size:
            return np.empty((0, self.dim), dtype=np.int64)
        if self.log_probs[law] == NEG_INF:
            raise ValueError("the complement has probability 0 under this law")
        shares = np.exp(np.array([s.log_probs[law] for s in self._strata]) - self.log_probs[law])
        parts = []
        sizes = rng.multinomial(size, shares / shares.sum())
        for j, (stratum, m) in enumerate(zip(self._strata, sizes)):
            counts = stratum.sample(law, m, rng)
            if j < self.dim - 2:
                free = self._laws[law, j + 1 :]
                split = np.divide(free, free.sum(), out=np.full_like(free, 1.0 / len(free)),
                                  where=free.sum() > 0)
                counts = np.column_stack((counts[:, :-1], rng.multinomial(counts[:, -1], split)))
            parts.append(counts)
        return np.concatenate(parts)
