"""The band walk of the type lattice against the row path it replaced, bit
for bit.

A band reduces one table per letter over its types; the row path evaluates
the same kernels on the materialized ``(rows, d)`` count array and sums the
letters with numpy's ``sum(axis=-1)``, which adds up to seven letters left
to right, as the bands do. Every sum compared here is equal to the last bit.
"""

import math

import numpy as np
import pytest

import covertdht.covertness as cov
import covertdht.exponents as expo
import covertdht.simulation as sim
import covertdht.typesum as typesum
import oracles
from covertdht import Dmc
from covertdht.probability import Alphabet, Pmf, kl_rows, typical, typical_letters
from covertdht.typesum import (
    count_logs,
    log_multinomial,
    log_sequence_prob,
    log_type_class_prob,
    num_types,
    type_bands,
)

DEFAULT_ROWS = typesum.BLOCK_ROWS
# a walk of more bands than this is left out: the Python work per band, not
# the sums, would dominate the suite's time
MAX_BANDS = 3000


def _cases():
    """(block_rows, n, d): n = block_rows + 3 makes the walk split d - 1
    letters (every prefix a single type, rows cut across bands)."""
    for block_rows in (1, 5, DEFAULT_ROWS):
        for n in (1, 7, 40, block_rows + 3):
            for d in range(1, 6):
                types = num_types(n, d)
                if types <= typesum.MAX_TYPES and types <= MAX_BANDS * block_rows:
                    yield block_rows, n, d


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _law(rng, d):
    """A pmf over d letters with a zero letter (d >= 2)."""
    p = rng.random(d)
    if d > 1:
        p[rng.integers(d)] = 0.0
    return p / p.sum()


@pytest.mark.parametrize("block_rows, n, d", list(_cases()))
def test_letter_sums_equal_row_sums(monkeypatch, block_rows, n, d):
    monkeypatch.setattr(typesum, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng([n, d])
    p, q, ref = _law(rng, d), _law(rng, d), _law(rng, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(q) - np.log(p)  # -inf, +inf and nan entries
    # a radius some type meets exactly on letter 0, where ref is positive
    mu = abs(round(ref[0] * n + 0.5) / n - ref[0]) if ref[0] > 0 else 0.1
    seen = []
    for band in type_bands(n, d):
        assert 1 <= len(band) <= block_rows
        counts = band.counts()
        assert counts.dtype == np.int64 and counts.shape == (len(band), d)
        seen.append(counts)
        # by rows: the heads of each type's row, then j and the last count
        heads, rest, row, j, last = band.rows()
        lead = max(d - 2, 0)
        np.testing.assert_array_equal(heads[row], counts[:, :lead])
        np.testing.assert_array_equal(np.column_stack((j, last))[:, -min(d, 2):],
                                      counts[:, lead:])
        np.testing.assert_array_equal(rest[row], j + last)
        t = counts / n
        _same_bits(np.asarray(band), t)
        log_fact = typesum._log_factorials(n)
        _same_bits(log_multinomial(band), log_fact[n] - log_fact[counts].sum(axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            _same_bits(log_sequence_prob(band, p),
                       np.where(counts == 0, 0.0, counts * np.log(p)).sum(axis=-1))
            _same_bits(band.count_sum(count_logs, log_ratio),
                       np.where(counts > 0, counts * log_ratio, 0.0).sum(axis=-1))
        # numpy's sum starts from +0.0, so letters of -0.0 alone sum to +0.0
        negative_zeros = np.full(d, -0.0)
        _same_bits(band.count_sum(count_logs, negative_zeros),
                   np.where(counts > 0, counts * negative_zeros, 0.0).sum(axis=-1))
        _same_bits(log_type_class_prob(band, q), oracles.log_type_class_prob_rows(counts, q))
        _same_bits(kl_rows(band, q), oracles.kl_rows_rows(t, q))
        _same_bits(kl_rows(band, p), oracles.kl_rows_rows(t, p))
        for radius in (mu, 0.3):
            _same_bits(typical(band, ref, radius), typical_letters(t, ref, radius).all(axis=-1))
        # the row path of the library on the materialized types
        _same_bits(log_type_class_prob(band, q), log_type_class_prob(counts, q))
        _same_bits(kl_rows(band, q), kl_rows(t, q))
    np.testing.assert_array_equal(np.concatenate(seen), np.array(list(oracles.iter_types(n, d))))


def test_band_stands_for_its_type_array():
    band = next(type_bands(6, 3))
    t = band.counts() / 6
    assert len(band) == len(t) == 28
    np.testing.assert_array_equal(band[:, 0], t[:, 0])
    np.testing.assert_array_equal(np.asarray(band, dtype=np.float32), t.astype(np.float32))


def test_letter_sums_add_left_to_right():
    # eight letters: numpy's sum(axis=-1) adds pairwise there, the library
    # left to right, for rows and bands alike
    q = np.full(8, 1.0 / 8.0)
    band = next(type_bands(3, 8))
    terms = oracles.kl_rows_rows(band.counts() / 3, q)  # numpy's order
    want = np.zeros(len(band))
    for z in range(8):
        t_z = band.counts()[:, z] / 3
        with np.errstate(divide="ignore", invalid="ignore"):
            want = want + np.where(t_z > 0, t_z * np.log(t_z / q[z]), 0.0)
    want = np.maximum(want, 0.0)
    _same_bits(kl_rows(band, q), want)
    _same_bits(kl_rows(band.counts() / 3, q), want)
    np.testing.assert_allclose(kl_rows(band, q), terms, rtol=1e-15, atol=1e-16)


# moved sums: delta_n, the Y factors and the warden triple, against the
# row path kept in tests/oracles.py, at several band sizes

ABC = Alphabet(("a", "b", "c"))
ABCD = Alphabet(("a", "b", "c", "d"))

P_US = [
    Pmf(Alphabet(("a", "b")), np.array([0.75, 0.25])),
    Pmf(ABC, np.array([0.5, 0.25, 0.25])),
    Pmf(ABC, np.array([0.6, 0.0, 0.4])),
    Pmf(ABCD, np.array([0.1, 0.2, 0.3, 0.4])),
]


@pytest.fixture(params=[5, 64, DEFAULT_ROWS])
def block_rows(request, monkeypatch):
    monkeypatch.setattr(typesum, "BLOCK_ROWS", request.param)
    return request.param


@pytest.mark.parametrize("p_u", P_US)
def test_transmit_probability_equals_row_path(block_rows, p_u):
    # mu = 0.125 puts a box edge on a type at n = 8 and 40 (|3/8 - 1/4|,
    # |15/40 - 1/4|), read in binary exactly
    for n in (1, 7, 8, 40):
        for mu in (0.125, 0.05, 0.3):
            cfg = sim.SchemeConfig(scheme="A", mu=mu, x_hat="1", y_star="1")
            assert sim.transmit_probability(cfg, p_u, n) == \
                oracles.transmit_probability_rows(cfg, p_u, n)
        for tau in (0.02, 0.3):
            pbar = expo.PbarSet(x1="1", tau_nats=tau, maximizer=p_u)
            cfg = sim.SchemeConfig(scheme="B", x1="1")
            assert sim.transmit_probability(cfg, p_u, n, pbar) == \
                oracles.transmit_probability_rows(cfg, p_u, n, pbar)


Y_DMC = Dmc(
    input_alphabet=Alphabet(("0", "1", "2")),
    y_alphabet=ABCD,
    z_alphabet=Alphabet(("a", "b")),
    y_given_x=[[0.5, 0.25, 0.25, 0.0], [0.1, 0.2, 0.3, 0.4], [0.0, 0.5, 0.5, 0.0]],
    z_given_x=[[0.6, 0.4], [0.4, 0.6], [0.5, 0.5]],
    zero_symbol="0",
)


def test_y_factors_equal_row_path(block_rows):
    # scheme B's branch factors from the box chain against the Y lattice on
    # the row path: the zero row has a zero letter, codeword "2" two, and
    # 0.125 is a box edge at n = 8 and 40
    mus = [0.125, 0.05, 0.3, 0.125, 1.0]
    for n in (1, 7, 8, 40):
        silent = oracles.log_prob_y_typical_rows(Y_DMC, "0", n, mus)
        for x in ("1", "2"):
            cfg = sim.SchemeConfig(scheme="B", x1=x)
            want = zip(silent, oracles.log_prob_y_typical_rows(Y_DMC, x, n, mus))
            for got, expected in zip(sim._log_branch_factors(cfg, Y_DMC, n, mus), want):
                for g, w in zip(got, expected):
                    assert g == w or abs(g - w) <= 1e-12 * max(1.0, abs(w))


AB = Alphabet(("a", "b"))

# a binary pair whose ell passes 500 at n = 80, codeword rows with a zero,
# a letter outside both supports, and equal rows
WARDEN_PAIRS = [
    (Pmf(AB, np.array([0.999, 0.001])), Pmf(AB, np.array([0.001, 0.999]))),
    (Pmf(AB, np.array([0.6, 0.4])), Pmf(AB, np.array([1.0, 0.0]))),
    (Pmf(ABC, np.array([0.5, 0.3, 0.2])), Pmf(ABC, np.array([0.0, 0.3, 0.7]))),
    (Pmf(ABC, np.array([0.6, 0.4, 0.0])), Pmf(ABC, np.array([0.3, 0.7, 0.0]))),
    (Pmf(ABC, np.array([0.5, 0.25, 0.25])), Pmf(ABC, np.array([0.5, 0.25, 0.25]))),
    (Pmf(ABCD, np.array([0.4, 0.3, 0.2, 0.1])), Pmf(ABCD, np.array([0.1, 0.2, 0.3, 0.4]))),
]


@pytest.mark.parametrize("g0, g1", WARDEN_PAIRS)
def test_warden_triple_equals_row_path(block_rows, g0, g1):
    ns = (1, 7, 40, 80) if g0.alphabet.size == 2 else (1, 7, 40)
    for n in ns:
        for delta in (1.0, 0.999, 0.3, 1e-6, 0.0):
            got = cov.warden_divergence(g0, g1, delta, n)
            assert got == oracles.warden_divergence_rows(g0, g1, delta, n)


def test_warden_reaches_both_mixture_branches():
    # the binary pair at n = 80 has types on both sides of ell = 500, and
    # terms on both sides of |t| = 1e-4, so each branch is evaluated
    g0, g1 = WARDEN_PAIRS[0]
    n, delta = 80, 1e-6
    ell = np.array([c * math.log(999.0) for c in range(-n, n + 1, 2)])
    assert (ell > 500).any() and (ell <= 500).any()
    t = delta * np.expm1(ell[ell <= 500])
    assert (np.abs(t) < 1e-4).any() and (np.abs(t) >= 1e-4).any()
    assert cov.warden_divergence(g0, g1, delta, n) == \
        oracles.warden_divergence_rows(g0, g1, delta, n)


def test_mix_term_branches_equal_row_path():
    t = np.concatenate([[-1.0, -0.5, -1e-4, -0.99e-4, 0.0, 0.99e-4, 1e-4, 3.0, 1e200],
                        np.random.default_rng(3).normal(0.0, 1e-3, 200)])
    with np.errstate(over="ignore"):
        _same_bits(cov._mix_term(t), oracles.mix_term_rows(t))
        _same_bits(cov._mix_term(t[3:6]), oracles.mix_term_rows(t[3:6]))  # all near 0
        _same_bits(cov._mix_term(t[4]), oracles.mix_term_rows(t[4]))  # a 0-d input
