import itertools
import math

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

import covertdht.typesum as typesum
import oracles
from covertdht.errors import AlphabetTooLarge
from covertdht.probability import Alphabet, Pmf, kl_rows, typical
from covertdht.typesum import (
    check_enumerable,
    log_prob_type_event,
    log_type_class_prob,
    num_types,
    prob_type_event,
    type_blocks,
)

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
ABCD = Alphabet(("a", "b", "c", "d"))

LATTICE_CASES = ((0, 1), (6, 1), (0, 3), (5, 2), (7, 3), (4, 4), (9, 5), (30, 4))


def _lattice(n, dim):
    return np.concatenate(list(type_blocks(n, dim)))


def test_num_types_matches_enumeration():
    for n, dim in ((5, 2), (7, 3), (4, 4)):
        types = _lattice(n, dim)
        assert len(types) == num_types(n, dim) == math.comb(n + dim - 1, dim - 1)
        assert np.all(types.sum(axis=1) == n)
        assert len({tuple(t) for t in types}) == len(types)


@pytest.mark.parametrize("block_rows", [1, 7, typesum.BLOCK_ROWS])
def test_lattice_reproduces_recursive_order(monkeypatch, block_rows):
    monkeypatch.setattr(typesum, "BLOCK_ROWS", block_rows)
    for n, dim in LATTICE_CASES:
        blocks = list(type_blocks(n, dim))
        assert all(b.dtype == np.int64 and 1 <= len(b) <= block_rows for b in blocks)
        want = np.array(list(oracles.iter_types(n, dim)))
        np.testing.assert_array_equal(np.concatenate(blocks), want)


def test_type_class_probs_sum_to_one():
    p = np.array([0.2, 0.3, 0.5])
    assert logsumexp(log_type_class_prob(_lattice(9, 3), p)) == pytest.approx(0.0, abs=1e-12)


def test_type_class_probs_match_loop():
    for p in (np.array([0.3, 0.7]), np.array([0.2, 0.0, 0.8]), np.array([0.1, 0.2, 0.3, 0.4])):
        counts = _lattice(8, len(p))
        got = log_type_class_prob(counts, p)
        want = np.array([oracles.log_type_class_prob(c, p) for c in counts])
        np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0.0)


def _logsumexp_cases():
    """Seeded arrays for the logsumexp comparison, edge cases first: empty,
    all -inf, +inf, tied maxima, overflowing and underflowing values, a
    subtraction past the largest double; then short arrays, and lengths up
    to 5000, past numpy's blocked summation."""
    inf = math.inf
    yield from ([], [-inf], [-inf, -inf], [inf], [inf, 1.0], [inf, inf], [-inf, 2.0],
                [0.0], [1.0, 1.0, 1.0], [3.0, 3.0, -inf, 1.0], [710.0, 709.0],
                [-1000.0, -1000.0], [-745.5, -746.0], [1e308, 1e308], [-1e308, 1e308],
                [-inf, inf])
    rng = np.random.default_rng(20)
    sizes = [*rng.integers(1, 40, size=5000), *range(1, 10), *rng.integers(1, 5001, size=300)]
    for size in sizes:
        a = rng.normal(0.0, 10.0 ** rng.integers(-2, 4), size=size)
        if rng.random() < 0.3:
            a[rng.random(a.size) < 0.3] = -inf
        if rng.random() < 0.2:
            a[rng.integers(a.size, size=2)] = a.max()  # ties at the maximum
        yield a.tolist()


def test_logsumexp_matches_scipy_bit_for_bit():
    for a in _logsumexp_cases():
        with np.errstate(all="ignore"):
            want = float(logsumexp(np.array(a, dtype=float)))
        got = typesum.logsumexp(a)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), a


def test_logsumexp_raises_no_floating_point_warning():
    # the subtraction past the largest double and the non-finite maxima take
    # the guarded paths (underflow of exp is no error, as numpy has it)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for a in _logsumexp_cases():
            typesum.logsumexp(a)


def test_log_factorials_match_gammaln():
    k = np.arange(5001)
    got, want = typesum._log_factorials(5000), gammaln(k + 1.0)
    assert got[0] == got[1] == want[0] == want[1] == 0.0
    np.testing.assert_allclose(got[2:], want[2:], rtol=1e-15, atol=0.0)


def test_impossible_type_has_zero_prob():
    p = np.array([1.0, 0.0])
    assert log_type_class_prob(np.array([3, 1]), p) == -math.inf
    assert log_type_class_prob(np.array([4, 0]), p) == 0.0


@pytest.mark.parametrize("alphabet, probs", [
    (AB, [0.7, 0.3]),
    (ABC, [0.5, 0.3, 0.2]),
    (ABC, [0.6, 0.0, 0.4]),
    (ABCD, [0.1, 0.2, 0.3, 0.4]),
])
def test_events_match_loop(monkeypatch, alphabet, probs):
    monkeypatch.setattr(typesum, "BLOCK_ROWS", 5)  # many blocks even at small n
    p = Pmf(alphabet, np.array(probs))
    ref = np.full(alphabet.size, 1.0 / alphabet.size)
    tau = 0.05
    for n in (1, 6, 13):
        for batch, single in (
            (lambda t: typical(t, p.probs, 0.15), lambda t: oracles.is_typical(t, p.probs, 0.15)),
            (lambda t: typical(t, ref, 0.2), lambda t: oracles.is_typical(t, ref, 0.2)),
            (lambda t: kl_rows(t, p.probs) >= tau, lambda t: oracles.kl(t, p.probs) >= tau),
        ):
            got = log_prob_type_event(p, n, batch)
            want = oracles.log_prob_type_event(p.probs, n, single)
            if want == -math.inf:
                assert got == -math.inf
            else:
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def test_prob_typical_against_sequence_enumeration():
    p = Pmf(AB, np.array([0.7, 0.3]))
    n, mu = 8, 0.12
    total = 0.0
    for seq in itertools.product(range(2), repeat=n):
        t = np.bincount(seq, minlength=2) / n
        if np.all(np.abs(t - p.probs) <= mu):
            total += math.prod(p.probs[i] for i in seq)
    got = prob_type_event(p, n, lambda t: typical(t, p.probs, mu))
    assert got == pytest.approx(total, rel=1e-12)


def test_prob_typical_for_other_reference():
    source = Pmf(AB, np.array([0.5, 0.5]))
    ref = np.array([0.9, 0.1])
    # typicality window for ref is far from the source mean: small probability
    val = prob_type_event(source, 40, lambda t: typical(t, ref, 0.05))
    assert 0.0 < val < prob_type_event(source, 40, lambda t: typical(t, source.probs, 0.05))


def test_prob_type_event_complement():
    p = Pmf(ABC, np.array([0.2, 0.3, 0.5]))

    def high_first(t):
        return t[:, 0] >= 0.5

    a = prob_type_event(p, 12, high_first)
    b = prob_type_event(p, 12, lambda t: ~high_first(t))
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_empty_event_is_impossible():
    p = Pmf(ABC, np.array([0.2, 0.3, 0.5]))
    assert log_prob_type_event(p, 7, lambda t: np.zeros(len(t), dtype=bool)) == -math.inf
    assert prob_type_event(p, 7, lambda t: t[:, 0] > 1.0) == 0.0


def test_enumeration_cap():
    with pytest.raises(AlphabetTooLarge):
        check_enumerable(10_000, 5)
    check_enumerable(200, 3)
