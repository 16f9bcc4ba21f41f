import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertdht.errors import AlphabetMismatch, DivisionBySupportZero, SupportViolation
from covertdht.probability import (
    Alphabet,
    JointPmf,
    Pmf,
    chi_squared,
    kl_divergence,
    kl_divergence_vec,
    typical,
)

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


def bernoulli(p: float) -> Pmf:
    """Bern(p) on {0, 1}: probability p on symbol 1."""
    return Pmf(Alphabet((0, 1)), np.array([1.0 - p, p]))


def pmf_strategy(alphabet):
    return (
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0),
            min_size=alphabet.size,
            max_size=alphabet.size,
        )
        .map(lambda w: Pmf(alphabet, np.array(w) / sum(w)))
    )


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet(())

    def test_index_roundtrip(self):
        assert ABC.index("c") == 2
        assert ABC.symbols[ABC.index("b")] == "b"

    def test_unknown_symbol(self):
        with pytest.raises(KeyError):
            ABC.index("z")


class TestPmf:
    def test_normalizes_within_slack(self):
        p = Pmf(AB, np.array([0.6, 0.4 + 5e-10]))
        assert math.isclose(p.probs.sum(), 1.0, abs_tol=1e-15)

    def test_rejects_large_mass_error(self):
        with pytest.raises(ValueError):
            Pmf(AB, np.array([0.6, 0.5]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf(AB, np.array([1.1, -0.1]))

    def test_getitem(self):
        p = Pmf(AB, np.array([0.25, 0.75]))
        assert p["b"] == 0.75

    def test_bernoulli(self):
        p = bernoulli(0.3)
        assert p[1] == pytest.approx(0.3)

    def test_immutable(self):
        p = Pmf(AB, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestJointPmf:
    def test_marginals(self):
        j = JointPmf(AB, ABC, np.array([[0.1, 0.2, 0.3], [0.2, 0.1, 0.1]]))
        assert j.row_marginal().probs == pytest.approx([0.6, 0.4])
        assert j.col_marginal().probs == pytest.approx([0.3, 0.3, 0.4])

    def test_marginals_are_built_once(self):
        j = JointPmf(AB, ABC, np.array([[0.1, 0.2, 0.3], [0.2, 0.1, 0.1]]))
        assert j.row_marginal() is j.row_marginal()
        assert j.col_marginal() is j.col_marginal()
        # the cache is not a field: a copy built from the fields builds its own
        copy = JointPmf(j.row_alphabet, j.col_alphabet, j.probs)
        assert copy.row_marginal() is not j.row_marginal()

    def test_product(self):
        j = JointPmf.product(Pmf(AB, np.array([0.3, 0.7])), Pmf(ABC, np.array([0.2, 0.3, 0.5])))
        assert j.probs[1, 2] == pytest.approx(0.35)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            JointPmf(AB, ABC, np.array([[0.5, 0.5], [0.0, 0.0]]))


class TestKl:
    def test_known_value(self):
        p = bernoulli(0.2)
        q = bernoulli(0.7)
        want = 0.2 * math.log(0.2 / 0.7) + 0.8 * math.log(0.8 / 0.3)
        assert kl_divergence(p, q) == pytest.approx(want, rel=1e-12)

    def test_support_violation(self):
        p = Pmf(AB, np.array([0.5, 0.5]))
        q = Pmf(AB, np.array([1.0, 0.0]))
        with pytest.raises(SupportViolation):
            kl_divergence(p, q)

    def test_zero_mass_term_dropped(self):
        p = Pmf(AB, np.array([1.0, 0.0]))
        q = Pmf(AB, np.array([0.5, 0.5]))
        assert kl_divergence(p, q) == pytest.approx(math.log(2.0))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            kl_divergence(Pmf(AB, np.array([0.5, 0.5])), bernoulli(0.5))

    @given(pmf_strategy(ABC), pmf_strategy(ABC))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, p, q):
        d = kl_divergence(p, q)
        assert d >= 0.0
        if np.allclose(p.probs, q.probs, atol=1e-12):
            assert d <= 1e-9

    @given(pmf_strategy(AB), pmf_strategy(ABC), pmf_strategy(AB), pmf_strategy(ABC))
    @settings(max_examples=50, deadline=None)
    def test_product_joints_add(self, p1, p2, q1, q2):
        jp = JointPmf.product(p1, p2)
        jq = JointPmf.product(q1, q2)
        want = kl_divergence(p1, q1) + kl_divergence(p2, q2)
        got = kl_divergence_vec(jp.probs.ravel(), jq.probs.ravel())
        assert got == pytest.approx(want, abs=1e-10)


class TestChiSquared:
    def test_known_value(self):
        g0 = Pmf(AB, np.array([0.6, 0.4]))
        g1 = Pmf(AB, np.array([0.4, 0.6]))
        assert chi_squared(g1, g0) == pytest.approx(0.04 / 0.6 + 0.04 / 0.4, rel=1e-12)

    def test_division_by_zero_support(self):
        p = Pmf(AB, np.array([0.5, 0.5]))
        q = Pmf(AB, np.array([1.0, 0.0]))
        with pytest.raises(DivisionBySupportZero):
            chi_squared(p, q)

    @given(pmf_strategy(ABC), pmf_strategy(ABC))
    @settings(max_examples=100, deadline=None)
    def test_dominates_kl(self, p, q):
        # log x <= x - 1 gives D(p||q) <= chi2(p||q)
        assert kl_divergence(p, q) <= chi_squared(p, q) + 1e-12


class TestTypicality:
    def test_boundary_is_typical(self):
        # |type - p| equal to mu exactly: the closed condition accepts it
        p = np.array([0.5, 0.5])
        t = np.array([3, 1]) / 4  # type (0.75, 0.25)
        assert typical(t, p, 0.25)
        assert not typical(t, p, 0.24)

    def test_zero_preservation(self):
        # mass where the reference is zero is atypical however wide mu is
        p = np.array([1.0, 0.0])
        assert not typical(np.array([3, 1]) / 4, p, 0.5)
        assert typical(np.array([1.0, 0.0]), p, 0.5)
