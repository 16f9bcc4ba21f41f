import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp
from scipy.stats import chi2

import covertdht.typesum as typesum
import oracles
from covertdht.errors import AlphabetTooLarge
from covertdht.probability import Alphabet, Pmf, kl_rows, typical, typical_letters
from covertdht.typesum import (
    check_enumerable,
    log_prob_divergence_at_least,
    num_types,
)
from oracles import log_prob_type_event, type_blocks

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


def log_type_class_prob(counts, p, n):
    """log Pr[type(X^n) = counts/n] for X i.i.d. p, from the class tables."""
    return typesum.log_class_probs(typesum.class_tables(p[None], n), counts)[0]


def test_type_class_probs_sum_to_one():
    p = np.array([0.2, 0.3, 0.5])
    assert logsumexp(log_type_class_prob(_lattice(9, 3), p, 9)) == pytest.approx(0.0, abs=1e-12)


def test_type_class_probs_match_loop():
    for p in (np.array([0.3, 0.7]), np.array([0.2, 0.0, 0.8]), np.array([0.1, 0.2, 0.3, 0.4])):
        counts = _lattice(8, len(p))
        got = log_type_class_prob(counts, p, 8)
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
    assert log_type_class_prob(np.array([3, 1]), p, 4) == -math.inf
    assert log_type_class_prob(np.array([4, 0]), p, 4) == 0.0


@pytest.mark.parametrize("alphabet, probs", [
    (AB, [0.7, 0.3]),
    (ABC, [0.5, 0.3, 0.2]),
    (ABC, [0.6, 0.0, 0.4]),
    (ABCD, [0.1, 0.2, 0.3, 0.4]),
])
def test_events_match_loop(monkeypatch, alphabet, probs):
    # the band walk kept as the reference, and the divergence event by rows,
    # against one Python iteration per type
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
            [got] = log_prob_type_event(p.probs[None], n, _on_frequencies(batch, n))
            want = oracles.log_prob_type_event_loop(p.probs, n, single)
            if want == -math.inf:
                assert got == -math.inf
            else:
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)
        [got] = log_prob_divergence_at_least(p.probs[None], p.probs, n, tau)
        want = oracles.log_prob_type_event_loop(p.probs, n, lambda t: oracles.kl(t, p.probs) >= tau)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def _on_frequencies(predicate, n):
    """A predicate on a ``(rows, d)`` array of types counts/n as one on a
    band of n-types."""
    return lambda band: predicate(band.counts() / n)


def prob_type_event(p, n, predicate):
    """Pr[type(X^n) satisfies predicate], X i.i.d. p, for a predicate on
    types counts/n."""
    return math.exp(log_prob_type_event(p.probs[None], n, _on_frequencies(predicate, n))[0])


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
        return np.asarray(t)[:, 0] >= 0.5

    a = prob_type_event(p, 12, high_first)
    b = prob_type_event(p, 12, lambda t: ~high_first(t))
    assert a + b == pytest.approx(1.0, abs=1e-12)


def test_empty_event_is_impossible():
    p = Pmf(ABC, np.array([0.2, 0.3, 0.5]))
    assert log_prob_type_event(p.probs[None], 7, lambda t: np.zeros(len(t), dtype=bool)) == [
        -math.inf]
    assert prob_type_event(p, 7, lambda t: np.asarray(t)[:, 0] > 1.0) == 0.0


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_several_laws_in_one_walk_match_one_law_at_a_time(monkeypatch, dim):
    # the walk's tables serve every law: each law's value keeps its bits,
    # over many bands, a law with a zero letter and an empty event included
    monkeypatch.setattr(typesum, "BLOCK_ROWS", 7)
    rng = np.random.default_rng(dim)
    laws = rng.dirichlet(np.ones(dim), size=3)
    laws[2, 0] = 0.0
    laws[2] /= laws[2].sum()
    ref = rng.dirichlet(np.ones(dim))
    for n in (1, 9, 25):
        for on_types in (lambda t: typical(t, ref, 0.15), lambda t: kl_rows(t, ref) >= 0.05,
                         lambda t: np.zeros(len(t), dtype=bool)):
            predicate = _on_frequencies(on_types, n)
            got = log_prob_type_event(laws, n, predicate)
            want = [log_prob_type_event(law.copy()[None], n, predicate)[0] for law in laws]
            assert np.array(got).tobytes() == np.array(want).tobytes()


def test_enumeration_cap():
    with pytest.raises(AlphabetTooLarge):
        check_enumerable(10_000, 5)
    check_enumerable(200, 3)


def _box_chain(laws, n, ref, mu):
    """``BoxChain``'s log_probs on the mu-box of ``typical`` around ``ref``, each
    letter's box ``typical_letters`` on the counts 0..n, as the library
    builds it."""
    boxes = typical_letters(np.arange(n + 1)[:, None] / n, ref, mu).T
    return typesum.BoxChain([p.probs for p in laws], n, boxes).log_probs


def _lattice_walk(laws, n, ref, mu):
    """The same probabilities from one walk of the n-type lattice."""
    return [got for [got] in oracles.log_prob_type_events(
        laws, n, [lambda t: typical(t, ref, mu)])]


def _assert_logs_close(got, want):
    for g, w in zip(got, want, strict=True):
        assert g == w or abs(g - w) <= 1e-12 * max(1.0, abs(w)), (g, w)


class TestBoxChain:
    """The box chain ``typesum.BoxChain`` against a walk of the
    type lattice: |delta log f| <= 1e-12 max(1, |log f|)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_laws_match_the_lattice(self, seed):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 3
        alphabet = Alphabet(tuple(range(dim)))
        for n in (1, 7, 24, 100) + ((400,) if dim < 4 else ()):
            laws = [Pmf(alphabet, rng.dirichlet(np.ones(dim))) for _ in range(2)]
            ref, mu = rng.dirichlet(np.ones(dim)), float(rng.uniform(0.02, 0.3))
            _assert_logs_close(_box_chain(laws, n, ref, mu), _lattice_walk(laws, n, ref, mu))

    def test_zero_letters(self):
        # the reference never emits letter "c", so its box is {0}; the second
        # law (a codeword row) never emits "a", the third emits "c"
        laws = [Pmf(ABC, np.array(probs)) for probs in
                ([0.6, 0.4, 0.0], [0.0, 0.7, 0.3], [0.5, 0.3, 0.2])]
        ref = np.array([0.55, 0.45, 0.0])
        for n in (1, 5, 40, 300):
            for mu in (0.05, 0.2, 1.0):
                _assert_logs_close(_box_chain(laws, n, ref, mu), _lattice_walk(laws, n, ref, mu))
            # at mu = 1 only the box {0} of "c" binds
            _assert_logs_close(_box_chain(laws, n, ref, 1.0),
                               [0.0, n * math.log(0.7), n * math.log(0.8)])

    def test_empty_box_is_impossible_without_a_warning(self):
        # at n = 3 no count of the first letter lies within 0.1 of 0.5
        laws = np.array([[0.5, 0.5], [0.2, 0.8]])
        boxes = typical_letters(np.arange(4)[:, None] / 3, np.array([0.5, 0.5]), 0.1).T
        assert not boxes[0].any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert typesum.BoxChain(laws, 3, boxes).log_probs == [-math.inf] * 2
            # a box that the other boxes leave no room for
            boxes = np.zeros((2, 4), dtype=bool)
            boxes[0, 3] = boxes[1, 2] = True
            assert typesum.BoxChain(laws, 3, boxes).log_probs == [-math.inf] * 2
            # a law that puts no mass in a box: only (3, 0) lies in these
            boxes[1] = np.arange(4) == 0
            got = typesum.BoxChain([[0.0, 1.0], [0.5, 0.5]], 3, boxes).log_probs
            assert got[0] == -math.inf and math.isclose(got[1], math.log(1 / 8))

    def test_mu_on_a_box_edge(self):
        # |c/n - ref| equals mu in floats for c = 9 at n = 24, so that count
        # is inside the first letter's box, as typical decides it
        laws = [Pmf(ABC, np.array([0.3, 0.3, 0.4])), Pmf(ABC, np.array([0.2, 0.5, 0.3]))]
        ref, n = np.array([0.29, 0.36, 0.35]), 24
        mu = float(np.abs(np.array([9]) / n - ref[:1])[0])
        assert typical(np.array([[9, 8, 7]]) / n, ref, mu)[0]
        assert not typical(np.array([[10, 7, 7]]) / n, ref, mu)[0]
        _assert_logs_close(_box_chain(laws, n, ref, mu), _lattice_walk(laws, n, ref, mu))
        # the edge type's mass moves the value: it is counted, not missed
        below = _box_chain(laws, n, ref, np.nextafter(mu, 0.0))
        assert all(g > b for g, b in zip(_box_chain(laws, n, ref, mu), below))

    @pytest.mark.parametrize("laws", [1, 2])
    def test_equals_the_windowed_loop_bit_for_bit(self, laws):
        # the first step's point-mass start takes each window's one term, so
        # every mu-box call gives the bits of the chain that sums windows
        # there too; seeded laws and references with zero letters, radii on
        # a box edge and boxes that no count or every count meets
        rng = np.random.default_rng(100 + laws)
        for _ in range(150):
            dim, n = int(rng.integers(1, 6)), int(rng.choice([1, 2, 5, 17, 40, 150, 600]))
            p = rng.dirichlet(np.ones(dim), size=laws)
            ref = rng.dirichlet(np.ones(dim))
            if dim > 1 and rng.random() < 0.3:
                p[:, rng.integers(dim)] = 0.0
                p /= p.sum(axis=1, keepdims=True)
            if dim > 1 and rng.random() < 0.3:
                ref[rng.integers(dim)] = 0.0
                ref /= ref.sum()
            mu = float(rng.choice([rng.uniform(0.005, 0.5), 1.0,
                                   abs(rng.integers(n + 1) / n - ref[0])]))
            boxes = typical_letters(np.arange(n + 1)[:, None] / n, ref, mu).T
            got = typesum.BoxChain(p, n, boxes).log_probs
            want = oracles.log_prob_boxes_windowed(p, n, boxes)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (dim, n, mu)

    def test_one_trial(self):
        laws = [Pmf(ABC, np.array([0.2, 0.3, 0.5]))]
        ref = np.array([0.1, 0.2, 0.7])
        # mu = 0.35 admits only the type of "c", 0.85 those of "b" and "c"
        for mu, want in ((0.35, math.log(0.5)), (0.85, math.log(0.8)), (0.05, -math.inf)):
            _assert_logs_close(_box_chain(laws, 1, ref, mu), [want])
            _assert_logs_close(_lattice_walk(laws, 1, ref, mu), [want])

    def test_two_thousand_trials_over_three_letters(self):
        # 2.0 M lattice types, under the cap; the chain's terms stay in
        # logs, so the atypical law's factor far below 1e-308 is exact
        assert num_types(2000, 3) == 2_003_001 <= typesum.MAX_TYPES
        laws = [Pmf(ABC, np.array([0.6, 0.2, 0.2])), Pmf(ABC, np.array([0.1, 0.6, 0.3]))]
        got = _box_chain(laws, 2000, laws[0].probs, 0.05)
        _assert_logs_close(got, _lattice_walk(laws, 2000, laws[0].probs, 0.05))
        assert got[1] < math.log(1e-308)


class TestBoxChainDraws:
    """``BoxChain.sample`` against the law of the type given its box,
    enumerated one type at a time (``oracles.conditional_type_law``): for
    |X| = 2-4 and n <= 30, M = 50,000 draws from a fixed seed and Pearson's
    statistic below the chi-square quantile at 1 - 1e-6 (cells expected
    below 5 pooled), which a correct sampler exceeds with probability 1e-6.
    The chain's log Pr[box] is the enumerated one to 1e-12 relative."""

    M = 50_000

    def _assert_draws_follow(self, laws, n, boxes, seed):
        chain = typesum.BoxChain(laws, n, boxes)
        assert max(chain.log_probs) > -math.inf
        for i, probs in enumerate(laws):
            law, log_prob = oracles.conditional_type_law(
                probs, n, lambda c: boxes[np.arange(len(c)), c].all())
            assert chain.log_probs[i] == pytest.approx(log_prob, rel=1e-12, abs=1e-12)
            if log_prob == -math.inf:
                continue
            draws = chain.sample(i, self.M, np.random.default_rng([seed, i]))
            assert draws.shape == (self.M, len(probs)) and (draws.sum(axis=1) == n).all()
            stat, df = oracles.chi_square(draws, law)
            assert stat <= chi2.isf(1e-6, df), (stat, df)

    @pytest.mark.parametrize("seed", range(6))
    def test_mu_boxes_of_seeded_laws(self, seed):
        # two laws in one chain, the box of a third pmf's mu-box
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 3
        for n in (5, 12, 30):
            laws = rng.dirichlet(np.ones(dim), size=2)
            ref, mu = rng.dirichlet(np.ones(dim)), float(rng.uniform(0.08, 0.3))
            boxes = typical_letters(np.arange(n + 1)[:, None] / n, ref, mu).T
            self._assert_draws_follow(laws, n, boxes, seed)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_boxes_with_gaps(self, dim):
        # a box out of a mu-box (two runs of counts) before free letters,
        # as scheme A's first-letter-out strata have them, and boxes with
        # holes
        rng = np.random.default_rng(dim)
        n = 30 if dim < 4 else 20
        laws = rng.dirichlet(np.ones(dim), size=2)
        boxes = typical_letters(np.arange(n + 1)[:, None] / n, laws[0], 0.1).T
        boxes[0] = ~boxes[0]
        boxes[2:] = True
        if dim > 2:  # two letters: the second is out of its box with the first
            self._assert_draws_follow(laws, n, boxes, dim)
        holes = rng.random((dim, n + 1)) < 0.6
        self._assert_draws_follow(laws, n, holes, dim + 10)

    def test_a_law_with_a_zero_entry(self):
        # a letter that never occurs is drawn with its count 0 alone
        laws = np.array([[0.5, 0.0, 0.3, 0.2], [0.25, 0.25, 0.0, 0.5]])
        n = 16
        ref = np.array([0.4, 0.1, 0.1, 0.4])
        boxes = typical_letters(np.arange(n + 1)[:, None] / n, ref, 0.2).T
        self._assert_draws_follow(laws, n, boxes, 7)

    def test_one_letter(self):
        chain = typesum.BoxChain([[1.0]], 9, np.ones((1, 10), dtype=bool))
        assert chain.log_probs == [0.0]
        assert (chain.sample(0, 4, np.random.default_rng(0)) == 9).all()

    def test_impossible_box_draws_nothing(self):
        # no count of the first letter lies within 0.1 of 0.5 at n = 3
        boxes = typical_letters(np.arange(4)[:, None] / 3, np.array([0.5, 0.5]), 0.1).T
        chain = typesum.BoxChain([[0.5, 0.5]], 3, boxes)
        assert chain.log_probs == [-math.inf]
        assert chain.sample(0, 0, np.random.default_rng(0)).shape == (0, 2)
        with pytest.raises(ValueError, match="probability 0"):
            chain.sample(0, 5, np.random.default_rng(0))

    def test_draws_do_not_depend_on_the_table_block(self, monkeypatch):
        # at BLOCK_ROWS = 1 each step's term table is built a row at a time
        law = np.array([[0.2, 0.25, 0.27, 0.28]])
        n = 400
        boxes = typical_letters(np.arange(n + 1)[:, None] / n, law[0], 0.06).T
        boxes[2] = ~boxes[2]
        got = []
        for block in (typesum.BLOCK_ROWS, 1):
            monkeypatch.setattr(typesum, "BLOCK_ROWS", block)
            got.append(typesum.BoxChain(law, n, boxes).sample(0, 20_000, np.random.default_rng(3)))
        assert np.array_equal(got[0], got[1])


class TestBoxComplement:
    """``typesum.BoxComplement``, some letter's count out of its box, against
    the complement enumerated one type at a time
    (``oracles.conditional_type_law``), under two laws, on seeded boxes that
    mu-boxes never produce: gaps inside every letter's set, a letter's box
    empty or full, letters of probability 0, |X| = 1-4. Its log probability
    is the enumerated one to 1e-12 max(1, |log|), and logaddexp with the box
    chain's is 0 to 1e-12; M = 50,000 draws from a fixed seed stay below the
    chi-square quantile at 1 - 1e-6 (cells expected below 5 pooled)."""

    M = 50_000

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["gaps", "empty", "full", "zeros"])
    def test_matches_the_enumerated_complement(self, dim, case):
        rng = np.random.default_rng([dim, ["gaps", "empty", "full", "zeros"].index(case)])
        n = 12 if dim == 4 else 20
        laws = rng.dirichlet(np.ones(dim), size=2)
        boxes = rng.random((dim, n + 1)) < 0.6
        if case == "empty":
            boxes[rng.integers(dim)] = False
        elif case == "full":
            boxes[rng.integers(dim)] = True
        elif case == "zeros" and dim > 1:
            laws[0, 0] = laws[1, dim - 1] = 0.0
            laws /= laws.sum(axis=1, keepdims=True)
        chain, complement = typesum.BoxChain(laws, n, boxes), typesum.BoxComplement(laws, n, boxes)
        for i, probs in enumerate(laws):
            law, log_prob = oracles.conditional_type_law(
                probs, n, lambda c: not boxes[np.arange(dim), c].all())
            _assert_logs_close([complement.log_probs[i]], [log_prob])
            assert abs(np.logaddexp(chain.log_probs[i], complement.log_probs[i])) <= 1e-12
            if log_prob == -math.inf:
                with pytest.raises(ValueError, match="probability 0"):
                    complement.sample(i, 5, np.random.default_rng(0))
                continue
            draws = complement.sample(i, self.M, np.random.default_rng([dim, i]))
            assert draws.shape == (self.M, dim) and (draws.sum(axis=1) == n).all()
            stat, df = oracles.chi_square(draws, law)
            assert stat <= chi2.isf(1e-6, df), (stat, df)

    def test_full_boxes_leave_no_complement(self):
        laws = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
        complement = typesum.BoxComplement(laws, 9, np.ones((3, 10), dtype=bool))
        assert complement.log_probs == [-math.inf] * 2
        with pytest.raises(ValueError, match="probability 0"):
            complement.sample(1, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_no_draws_on_an_impossible_event(self, dim):
        # full boxes leave the complement probability 0, and empty boxes the
        # box itself: both classes return an empty (0, d) array for size 0,
        # read nothing from the generator, and still refuse a positive size
        laws = np.full((1, dim), 1.0 / dim)
        full, empty = np.ones((dim, 6), dtype=bool), np.zeros((dim, 6), dtype=bool)
        for event in (typesum.BoxComplement(laws, 5, full), typesum.BoxChain(laws, 5, empty)):
            assert event.log_probs == [-math.inf]
            rng = np.random.default_rng(0)
            draws = event.sample(0, 0, rng)
            assert draws.shape == (0, dim) and draws.dtype == np.int64
            assert rng.random() == np.random.default_rng(0).random()
            with pytest.raises(ValueError, match="probability 0"):
                event.sample(0, 1, rng)


# covert-sweep-b's P_U and its threshold tau (pbar_threshold of its channel, x1 = "1")
SWEEP_B_P_U = np.array([0.5, 0.3, 0.2])
SWEEP_B_TAU = 0.08781628432157898


def _divergence_case(rng, d, n):
    """Seeded (laws, p, tau): p and a second law from Dirichlet(1), each
    with a zero letter a third of the time; tau a random type's own
    divergence (a tie) a third of the time, 0 a tenth of the time, else
    uniform on [0, 0.5)."""
    p, other = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
    for law in (p, other):
        if d > 1 and rng.random() < 1 / 3:
            law[rng.integers(d)] = 0.0
            law /= law.sum()
    draw = rng.random()
    if draw < 1 / 3:
        tie = typesum.table_sum(typesum.kl_table(p, n), rng.multinomial(n, p))
        tau = float(np.maximum(tie, 0.0))
    else:
        tau = 0.0 if draw < 0.43 else float(rng.uniform(0.0, 0.5))
    return np.stack((p, other)), p, tau


def _fires(p, n, tau):
    """The encoder rule D(T || p) >= tau on a band or a count array, as
    the engines decide it."""
    table = typesum.kl_table(p, n)
    return lambda types: np.maximum(typesum.table_sum(table, types), 0.0) >= tau


class TestDivergenceRows:
    """``log_prob_divergence_at_least``: Pr[D(T || p) >= tau] by rows of the
    lattice that leave the last two letters of positive p free, each row's
    silent counts one interval and its tails binomial."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_lattice_walk(self, monkeypatch, seed):
        # two laws, |U| 1-4, n from 1, ties, tau = 0 and zero letters in
        # both laws, over many bands and walk blocks
        monkeypatch.setattr(typesum, "BLOCK_ROWS", 7 if seed % 2 else typesum.BLOCK_ROWS)
        rng = np.random.default_rng([35, seed])
        for d in (1, 2, 3, 4):
            for n in (1, 2, *rng.integers(3, 150 if d < 4 else 60, size=3).tolist()):
                laws, p, tau = _divergence_case(rng, d, n)
                got = log_prob_divergence_at_least(laws, p, n, tau)
                want = log_prob_type_event(laws, n, _fires(p, n, tau))
                for g, w in zip(got, want, strict=True):
                    assert g == w or abs(math.expm1(g - w)) <= 1e-12, (d, n, p, laws, tau, g, w)

    def test_ties_fall_where_the_encoder_puts_them(self):
        # tau is a random type's own divergence, so that type sits on the
        # threshold: its decision turns on the last bit of the letter sum,
        # which the rows keep by leaving the last two letters of positive p
        # free (the two likeliest letters as the pair miss it on 9 of these 120)
        rng = np.random.default_rng(37)
        for _ in range(120):
            d, n = int(rng.integers(3, 5)), int(rng.integers(5, 60))
            p, other = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
            tie = typesum.table_sum(typesum.kl_table(p, n), rng.multinomial(n, p))
            tau, laws = float(np.maximum(tie, 0.0)), np.stack((p, other))
            got = log_prob_divergence_at_least(laws, p, n, tau)
            want = log_prob_type_event(laws, n, _fires(p, n, tau))
            for g, w in zip(got, want, strict=True):
                assert g == w or abs(math.expm1(g - w)) <= 1e-12, (d, n, p, tau, g, w)

    def test_edges_of_the_threshold(self):
        # tau = 0 fires on every type; one letter never diverges; a letter
        # off the support of p always fires
        p = np.array([0.6, 0.4])
        assert log_prob_divergence_at_least(p[None], p, 9, 0.0) == [0.0]
        assert log_prob_divergence_at_least(np.ones((1, 1)), np.ones(1), 5, 0.1) == [-math.inf]
        assert log_prob_divergence_at_least(np.ones((1, 1)), np.ones(1), 5, 0.0) == [0.0]
        laws = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        got = log_prob_divergence_at_least(laws, laws[0], 6, 10.0)
        assert got[0] == -math.inf
        assert math.isclose(got[1], math.log1p(-0.5**6), rel_tol=1e-12)

    @pytest.mark.parametrize("d, ns", [(2, (1, 7, 200)), (3, (1, 9, 60, 200)), (4, (5, 30, 200))])
    def test_silent_set_is_one_interval_per_row(self, d, ns):
        # on the whole lattice, the types where the rule is silent, ordered
        # by c_i in each row (the counts of the letters other than the pair
        # i, k), form at most one run per row
        rng = np.random.default_rng([36, d])
        mixed = 0
        for n in ns:
            counts = _lattice(n, d)
            for _ in range(4 if n < 200 else 2):
                _, p, tau = _divergence_case(rng, d, n)
                i, k = np.argsort(p > 0.0, kind="stable")[-2:]
                others = [z for z in range(d) if z not in (i, k)]
                row = counts[:, others] @ (n + 1) ** np.arange(len(others))
                order = np.lexsort((counts[:, i], row))
                silent, row = ~_fires(p, n, tau)(counts)[order], row[order]
                starts = silent & ~(np.r_[False, silent[:-1]] & (row == np.r_[-1, row[:-1]]))
                assert np.bincount(row[starts]).max(initial=0) <= 1, (n, p, tau)
                mixed += len(np.intersect1d(row[silent], row[~silent]))
        assert mixed > 0

    def test_rows_match_the_incomplete_beta_at_n_1000(self):
        # each row fixes c_0 = n - m, and given it c_1 is Bin(m, q), q =
        # p_1 / (p_1 + p_2): the row's silent counts [lo, hi] are found on
        # the row itself, and its tails are regularized incomplete beta
        # functions in 40 digits, Pr[Bin(m, q) >= k] = I_q(k, m - k + 1) and
        # Pr[Bin(m, q) < k] = I_{1-q}(m - k + 1, k)
        mpmath = pytest.importorskip("mpmath")
        n, p, tau = 1000, SWEEP_B_P_U, SWEEP_B_TAU
        fires = _fires(p, n, tau)
        with mpmath.workdps(40):
            q, total = mpmath.mpf(p[1]) / (mpmath.mpf(p[1]) + mpmath.mpf(p[2])), mpmath.mpf(0)
            for c0 in range(n + 1):
                m = n - c0
                j = np.arange(m + 1)
                silent = np.flatnonzero(~fires(np.column_stack((np.full(m + 1, c0), j, m - j))))
                weight = mpmath.binomial(n, c0) * mpmath.mpf(p[0]) ** c0 * (1 - mpmath.mpf(p[0])) ** m
                if not len(silent):
                    total += weight
                    continue
                lo, hi = int(silent[0]), int(silent[-1])
                assert hi - lo + 1 == len(silent)
                tails = mpmath.mpf(0)
                if lo > 0:
                    tails += mpmath.betainc(m - lo + 1, lo, 0, 1 - q, regularized=True)
                if hi < m:
                    tails += mpmath.betainc(hi + 1, m - hi, 0, q, regularized=True)
                total += weight * tails
            want = float(mpmath.log(total))
        [got] = log_prob_divergence_at_least(p[None], p, n, tau)
        assert abs(got - want) <= 1e-12  # delta_n to rel 1e-12

    def test_sanov_bound_at_n_ten_thousand(self):
        # 50 M types, past the lattice cap: at most (n + 1)^|U| type classes,
        # each of probability at most e^{-n D} <= e^{-n tau}
        n = 10_000
        [got] = log_prob_divergence_at_least(SWEEP_B_P_U[None], SWEEP_B_P_U, n, SWEEP_B_TAU)
        assert -math.inf < got <= 3 * math.log(n + 1) - n * SWEEP_B_TAU
