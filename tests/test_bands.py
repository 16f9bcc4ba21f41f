"""The band walk of the type lattice and its count tables against the row
path they replaced, bit for bit.

``typesum.table_sum`` reduces one count table over the types of a band or
of a ``(rows, d)`` count array; the row path evaluates the same kernels on
the materialized count array and sums the letters with numpy's
``sum(axis=-1)``, which adds up to seven letters left to right, as
``table_sum`` does. Every sum compared here is equal to the last bit, and
every decision read from a table equals the float predicate on counts / n.
"""

import collections
import math

import numpy as np
import pytest

import covertdht.covertness as cov
import covertdht.exponents as expo
import covertdht.simulation as sim
import covertdht.typesum as typesum
import oracles
from covertdht import Dmc
from covertdht.probability import Alphabet, JointPmf, Pmf, kl_rows, typical, typical_letters
from covertdht.typesum import (
    class_tables,
    count_table,
    kl_table,
    log_class_probs,
    log_count_table,
    num_types,
    table_sum,
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


def _frequencies(band, n, dtype=float):
    """The band's ``(len, d)`` array of types counts/n, one table sum per
    letter: the table that holds c/n on letter z and 0 elsewhere."""
    d = band.dim
    column = (np.arange(n + 1) / n).astype(dtype)[:, None]
    return np.column_stack([table_sum(count_table(np.where(np.arange(d) == z, column, 0)), band)
                            for z in range(d)])


def _in_mu_box(types, ref, n, mu):
    """The mu-box test of the library on counts, a count array or a band."""
    return sim._in_box(sim._mu_box(ref, n, mu))(types)


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
        _same_bits(_frequencies(band, n), t)
        log_fact = typesum._log_factorials(n)
        log_fact_table, log_p = class_tables(p[None], n)
        _same_bits(log_fact[n] - table_sum(log_fact_table, band),
                   log_fact[n] - log_fact[counts].sum(axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            _same_bits(table_sum(log_p, band),
                       np.where(counts == 0, 0.0, counts * np.log(p)).sum(axis=-1))
            _same_bits(table_sum(log_count_table(log_ratio, n), band),
                       np.where(counts > 0, counts * log_ratio, 0.0).sum(axis=-1))
        # numpy's sum starts from +0.0, so letters of -0.0 alone sum to +0.0
        negative_zeros = np.full(d, -0.0)
        _same_bits(table_sum(log_count_table(negative_zeros, n), band),
                   np.where(counts > 0, counts * negative_zeros, 0.0).sum(axis=-1))
        [log_class_q] = log_class_probs(class_tables(q[None], n), band)
        _same_bits(log_class_q, oracles.log_type_class_prob_rows(counts, q))
        divergence_q = np.maximum(table_sum(kl_table(q, n), band), 0.0)
        _same_bits(divergence_q, oracles.kl_rows_rows(t, q))
        _same_bits(np.maximum(table_sum(kl_table(p, n), band), 0.0), oracles.kl_rows_rows(t, p))
        for radius in (mu, 0.3):
            _same_bits(_in_mu_box(band, ref, n, radius),
                       typical_letters(t, ref, radius).all(axis=-1))
        # the row path of the library on the materialized types
        _same_bits(log_class_q, log_class_probs(class_tables(q[None], n), counts)[0])
        _same_bits(divergence_q, kl_rows(t, q))
    np.testing.assert_array_equal(np.concatenate(seen), np.array(list(oracles.iter_types(n, d))))


def test_band_stands_for_its_type_array():
    band = next(type_bands(6, 3))
    t = band.counts() / 6
    assert len(band) == len(t) == 28
    np.testing.assert_array_equal(_frequencies(band, 6)[:, 0], t[:, 0])
    # a table's dtype is its sum's
    frequencies = _frequencies(band, 6, np.float32)
    assert frequencies.dtype == np.float32
    np.testing.assert_array_equal(frequencies, t.astype(np.float32))


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
    divergence = np.maximum(table_sum(kl_table(q, 3), band), 0.0)
    _same_bits(divergence, want)
    _same_bits(np.maximum(table_sum(kl_table(q, 3), band.counts()), 0.0), want)
    _same_bits(kl_rows(band.counts() / 3, q), want)
    np.testing.assert_allclose(divergence, terms, rtol=1e-15, atol=1e-16)


# decisions read from count tables against the float predicates on counts / n


def _edge_radius(rng, ref, counts, n):
    """A positive radius that some type of ``counts`` meets exactly on a
    letter of positive probability, |c/n - ref_z| as the float predicate
    computes it: a type on the mu-box edge (1/n where every type sits at
    ref)."""
    dist = np.abs(counts / n - ref)[:, ref > 0]
    dist = dist[dist > 0]
    return rng.choice(dist) if dist.size else 1.0 / n


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_table_decisions_equal_the_float_predicates(monkeypatch, d, n):
    # seeded laws with a letter of probability 0 (d >= 2); mu on the box
    # edge, at 1/n and elsewhere; tau at some type's divergence (a tie),
    # at 0 and elsewhere; on the whole lattice as count arrays, as bands
    # of at most 7 types, and on sampled counts
    monkeypatch.setattr(typesum, "BLOCK_ROWS", 7)
    rng = np.random.default_rng([33, d, n])
    counts = np.concatenate([*oracles.type_blocks(n, d),
                             rng.multinomial(n, rng.dirichlet(np.ones(d)), size=200)])
    bands = list(type_bands(n, d))
    alphabet = Alphabet(tuple(range(d)))
    for _ in range(3):
        p = _law(rng, d) if d > 1 else np.ones(1)
        p_u = Pmf(alphabet, p)
        edge = _edge_radius(rng, p, counts, n)
        for mu in (edge, 1.0 / n, rng.uniform(0.01, 0.5)):
            in_box = sim._in_box(sim._mu_box(p, n, mu))
            cfg = sim.SchemeConfig(scheme="A", mu=mu, x_hat="1", y_star="1")
            transmits = sim._encoder(cfg, p_u, n, None)[0]
            want = typical(counts / n, p, mu)
            _same_bits(in_box(counts), want)
            _same_bits(transmits(counts), ~want)
            for band in bands:
                want = typical(band.counts() / n, p, mu)
                _same_bits(in_box(band), want)
                _same_bits(transmits(band), ~want)
        # some type meets the edge radius exactly, unless d = 1
        assert (np.abs(counts / n - p) == edge).any() or d == 1
        tie = kl_rows(counts[rng.integers(len(counts))] / n, p)
        cfg = sim.SchemeConfig(scheme="B", mu=0.1, x1="1")
        for tau in (tie, 0.0, rng.uniform(0.0, 1.0)):
            pbar = expo.PbarSet(x1="1", tau_nats=tau, maximizer=p_u)
            transmits = sim._encoder(cfg, p_u, n, pbar)[0]
            _same_bits(transmits(counts), pbar.triggers(counts / n, p_u))
            for band in bands:
                _same_bits(transmits(band), pbar.triggers(band.counts() / n, p_u))
        assert (kl_rows(counts / n, p) == tie).any()


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
    # |15/40 - 1/4|), read in binary exactly; scheme A's delta_n is the box
    # chain's sum over the first letter out, scheme B's a sum by rows of
    # binomial tails: other algorithms, so they agree to rounding
    for n in (1, 7, 8, 40):
        for mu in (0.125, 0.05, 0.3):
            cfg = sim.SchemeConfig(scheme="A", mu=mu, x_hat="1", y_star="1")
            assert math.isclose(sim.transmit_probability(cfg, p_u, n),
                                oracles.transmit_probability_rows(cfg, p_u, n), rel_tol=1e-12)
        for tau in (0.02, 0.3):
            pbar = expo.PbarSet(x1="1", tau_nats=tau, maximizer=p_u)
            cfg = sim.SchemeConfig(scheme="B", x1="1")
            assert math.isclose(sim.transmit_probability(cfg, p_u, n, pbar),
                                oracles.transmit_probability_rows(cfg, p_u, n, pbar), rel_tol=1e-12)


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


def test_tables_are_built_once_per_walk(monkeypatch):
    # every walk spans at least 4 bands, and each count table is built once
    # per walk, each mu-box once per marginal, n and mu: scheme B's delta_n
    # walks the rows of its lattice with its divergence table, the rows'
    # class tables (log c!, c log p) and the binomial's (j log q); the
    # warden's walk its likelihood-ratio, class and divergence tables; the
    # exact engine at two mu builds the joint walk's class tables (two laws)
    # and scheme B's encoder table, takes delta_n from that walk, and builds
    # the V box at each mu, and the U box (scheme A) or the Y box (scheme B);
    # Monte Carlo builds each box of its cell once, scheme A's U box for its
    # encoder and its events alike
    monkeypatch.setattr(typesum, "BLOCK_ROWS", 2)
    builds, walks = collections.Counter(), []
    real_table, real_box, real_bands = typesum.count_table, sim._mu_box, typesum.type_bands

    def count_table(values):
        builds["table"] += 1
        return real_table(values)

    def mu_box(ref, n, mu):
        builds[(tuple(ref), n, mu)] += 1
        return real_box(ref, n, mu)

    def type_bands(n, dim):
        walks.append(0)
        for band in real_bands(n, dim):
            walks[-1] += 1
            yield band

    monkeypatch.setattr(typesum, "count_table", count_table)
    monkeypatch.setattr(sim, "_mu_box", mu_box)
    for module in (typesum, sim, cov):
        monkeypatch.setattr(module, "type_bands", type_bands)

    def check(want_walks, want_builds):
        assert len(walks) == want_walks and min(walks) >= 4, walks
        assert builds == collections.Counter(want_builds)
        walks.clear()
        builds.clear()

    p_u = P_US[1]
    pbar = expo.PbarSet(x1="1", tau_nats=0.05, maximizer=p_u)
    cfg = sim.SchemeConfig(scheme="B", x1="1")
    sim.transmit_probability(cfg, p_u, 12, pbar)
    check(1, {"table": 4})
    cov.warden_divergence(*WARDEN_PAIRS[2], 0.3, 12)
    check(1, {"table": 4})
    p_uv = JointPmf(AB, AB, np.array([[0.4, 0.1], [0.2, 0.3]]))
    q_uv = JointPmf(AB, AB, np.array([[0.1, 0.3], [0.4, 0.2]]))
    p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
    pbar = expo.PbarSet(x1="1", tau_nats=0.05, maximizer=p_u)
    y_zero = tuple(Y_DMC.y_row("0").probs)
    sim.exact_error_probs(cfg, [0.1, 0.2], p_uv, q_uv, Y_DMC, 8, pbar)
    check(1, {"table": 4, (tuple(p_v.probs), 8, 0.1): 1, (tuple(p_v.probs), 8, 0.2): 1,
              (y_zero, 8, 0.1): 1, (y_zero, 8, 0.2): 1})
    cfg_a = sim.SchemeConfig(scheme="A", x_hat="2", y_star="a")
    sim.exact_error_probs(cfg_a, [0.1, 0.2], p_uv, q_uv, Y_DMC, 8, None)
    check(1, {"table": 3, (tuple(p_u.probs), 8, 0.1): 1, (tuple(p_u.probs), 8, 0.2): 1,
              (tuple(p_v.probs), 8, 0.1): 1, (tuple(p_v.probs), 8, 0.2): 1})
    for c, boxes in ((cfg.replace(mu=0.1), (p_v.probs, y_zero)),
                     (cfg_a.replace(mu=0.1), (p_v.probs, p_u.probs))):
        sim.run_trials(c, p_uv, q_uv, Y_DMC, 8, 500, 0, pbar)
        del builds["table"]
        assert builds == collections.Counter({(tuple(ref), 8, 0.1): 1 for ref in boxes})
        builds.clear()
