import copy
import itertools
import json
import math

import numpy as np
import pytest

import covertdht.covertness as cov
import covertdht.exponents as expo
import covertdht.simulation as sim
import covertdht.typesum as typesum
import oracles
from covertdht.cli import COV_HEADER, COV_SCHEMA, EXAMPLE_CONFIG, main
from covertdht.errors import SupportViolation
from covertdht import Dmc
from covertdht.probability import Alphabet, Pmf, chi_squared, kl_divergence, kl_rows

from conftest import read_csv

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
ABCD = Alphabet(("a", "b", "c", "d"))

G0 = Pmf(AB, np.array([0.6, 0.4]))
G1 = Pmf(AB, np.array([0.4, 0.6]))

# the encoders behind delta_n (the codeword symbols are never read by it)
SCHEME_B = sim.SchemeConfig(scheme="B", x1="1")


def scheme_A(mu, k_spec="sqrt"):
    return sim.SchemeConfig(scheme="A", mu=mu, x_hat="1", y_star="1", k_spec=k_spec)

# warden row pairs of 2, 3 and 4 symbols: a codeword row with a zero, a
# symbol outside both supports, and a likelihood ratio large enough to reach
# the ell > 500 branch at n = 80
ROW_PAIRS = [
    (Pmf(AB, np.array([0.999, 0.001])), Pmf(AB, np.array([0.001, 0.999]))),
    (Pmf(ABC, np.array([0.5, 0.3, 0.2])), Pmf(ABC, np.array([0.0, 0.3, 0.7]))),
    (Pmf(ABC, np.array([0.6, 0.4, 0.0])), Pmf(ABC, np.array([0.3, 0.7, 0.0]))),
    (Pmf(ABCD, np.array([0.4, 0.3, 0.2, 0.1])), Pmf(ABCD, np.array([0.1, 0.2, 0.3, 0.4]))),
]


def brute_force_mixture_divergence(g0, g1, delta, n, k=None):
    """Direct sum over all output sequences, in 50-digit arithmetic (the
    naive double-precision sum cancels catastrophically for small delta).
    With `k`, the codeword law is G1 on the first k uses and G0 after."""
    import mpmath

    k = n if k is None else k
    with mpmath.workdps(50):
        d = mpmath.mpf(delta)
        total = mpmath.mpf(0)
        for seq in itertools.product(range(len(g0)), repeat=n):
            p0 = mpmath.mpf(1)
            p1 = mpmath.mpf(1)
            for pos, i in enumerate(seq):
                p0 *= mpmath.mpf(g0[i])
                p1 *= mpmath.mpf(g1[i] if pos < k else g0[i])
            mix = (1 - d) * p0 + d * p1
            if mix > 0:
                total += mix * mpmath.log(mix / p0)
        return float(total)


class TestMixTerm:
    def test_matches_direct_formula(self):
        for t in (-0.5, -1e-2, 0.3, 2.0, 1e3):
            direct = (1 + t) * math.log1p(t) - t
            assert cov._mix_term(t) == pytest.approx(direct, rel=1e-12)

    def test_series_region_continuity(self):
        # values straddling the series cutoff agree with each other
        below = cov._mix_term(0.99e-4)
        above = cov._mix_term(1.01e-4)
        assert below < above
        assert above / below == pytest.approx((1.01 / 0.99) ** 2, rel=1e-3)

    def test_nonnegative(self):
        for t in (-0.999, -1e-8, 0.0, 1e-8, 5.0):
            assert cov._mix_term(t) >= 0.0


def exact_divergence(g0, g1, delta, n):
    return cov.warden_divergence(g0, g1, delta, n)[0]


class TestExactDivergence:
    def test_zero_cases(self):
        assert exact_divergence(G0, G1, 0.0, 10) == 0.0
        assert exact_divergence(G0, G0, 0.5, 10) == 0.0

    def test_type_bound_kept_without_mixture(self):
        # the type bound does not depend on delta: only the mixture sum is
        # skipped at delta = 0 or G1 = G0
        for n in (1, 10, 40):
            _, _, type_b = cov.warden_divergence(G0, G1, 0.3, n)
            assert type_b > 0.0
            assert cov.warden_divergence(G0, G1, 0.0, n) == (0.0, 0.0, type_b)
            _, _, same_rows = cov.warden_divergence(G0, G0, 0.0, n)
            assert cov.warden_divergence(G0, G0, 0.3, n) == (0.0, 0.0, same_rows)
            assert same_rows == oracles.type_bound(G0.probs, G0.probs, n)

    def test_delta_one_is_product_divergence(self):
        for n in (1, 3, 17, 400):
            want = n * kl_divergence(G1, G0)
            got = exact_divergence(G0, G1, 1.0, n)
            assert got == pytest.approx(want, rel=1e-10)

    def test_matches_sequence_enumeration(self):
        g0 = Pmf(ABC, np.array([0.5, 0.3, 0.2]))
        g1 = Pmf(ABC, np.array([0.2, 0.3, 0.5]))
        for delta in (0.7, 0.05, 1e-4):
            for n in (1, 2, 4, 6):
                brute = brute_force_mixture_divergence(g0.probs, g1.probs, delta, n)
                got = exact_divergence(g0, g1, delta, n)
                assert got == pytest.approx(brute, rel=1e-9, abs=1e-18)

    def test_monotone_in_delta(self):
        vals = [exact_divergence(G0, G1, d, 12) for d in (0.1, 0.3, 0.6, 0.9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_tiny_delta_no_cancellation(self):
        # quadratic regime: d ~ delta^2 chi2, far below float epsilon of 1
        d = exact_divergence(G0, G1, 1e-14, 8)
        quad = 1e-28 * cov.chi_squared_product(G0, G1, 8)
        assert 0.0 < d < quad
        assert d == pytest.approx(quad / 2, rel=0.1)

    def test_delta_range_check(self):
        with pytest.raises(ValueError):
            exact_divergence(G0, G1, 1.5, 4)

    def test_support_check(self):
        bad = Pmf(AB, np.array([1.0, 0.0]))
        with pytest.raises(SupportViolation):
            exact_divergence(bad, G1, 0.5, 4)


class TestAgainstLoopOracles:
    """The batched sums against the per-type loops they replaced."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(typesum, "BLOCK_ROWS", 64)  # several blocks per sum

    @pytest.mark.parametrize("g0, g1", ROW_PAIRS)
    def test_exact_divergence(self, g0, g1):
        # at delta = 1 the loop fails once expm1(ell) rounds to -1; the
        # ell > 500 branch needs the binary pair at n = 80
        for delta in (0.999, 0.3, 1e-6):
            for n in (1, 7, 25, 80) if g0.alphabet.size == 2 else (1, 7, 25):
                got = exact_divergence(g0, g1, delta, n)
                want = oracles.two_point_divergence(g0.probs, g1.probs, delta, n)
                assert math.isclose(got, want, rel_tol=1e-12)

    @pytest.mark.parametrize("g0, g1", ROW_PAIRS)
    def test_type_bound(self, g0, g1):
        for n in (1, 7, 25):
            _, _, got = cov.warden_divergence(g0, g1, 0.1, n)
            want = oracles.type_bound(g0.probs, g1.probs, n)
            assert math.isclose(got, want, rel_tol=1e-12)

    def test_type_bound_past_expm1_overflow(self):
        # at the all-"a" type ell = 70 log(0.05 / 1e-6) = 757, where expm1
        # overflows a double; every term of the oracle's expansion stays
        # below e^{n log(1 + chi2(G1||G0))} = e^{548}
        g0 = Pmf(AB, np.array([1e-6, 1.0 - 1e-6]))
        g1 = Pmf(AB, np.array([0.05, 0.95]))
        n = 70
        assert n * math.log(g1.probs[0] / g0.probs[0]) > 709.0
        for delta in (0.0, 0.1):
            _, _, got = cov.warden_divergence(g0, g1, delta, n)
            want = oracles.type_bound(g0.probs, g1.probs, n)
            assert math.isclose(got, want, rel_tol=1e-12)

    @pytest.mark.parametrize("probs", [[0.8, 0.2], [0.5, 0.0, 0.5], [0.1, 0.2, 0.3, 0.4]])
    def test_transmission_probability(self, probs):
        alphabet = Alphabet(tuple(range(len(probs))))
        p_u = Pmf(alphabet, np.array(probs))
        for tau in (0.02, 0.3):
            pbar = expo.PbarSet(x1="1", tau_nats=tau, maximizer=p_u)
            for n in (1, 9, 30):
                got = sim.transmit_probability(SCHEME_B, p_u, n, pbar)
                want = oracles.delta_scheme_B(p_u.probs, tau, n)
                assert math.isclose(got, want, rel_tol=1e-12)


class TestChiSquaredProduct:
    def test_single_use_matches_plain_chi_squared(self):
        assert cov.chi_squared_product(G0, G1, 1) == pytest.approx(chi_squared(G1, G0))

    def test_tensorization(self):
        c1 = chi_squared(G1, G0)
        for n in (2, 5, 40):
            want = (1 + c1) ** n - 1
            assert cov.chi_squared_product(G0, G1, n) == pytest.approx(want, rel=1e-12)


class TestWardenDivergenceBounds:
    def test_quadratic_bound_dominates_exact(self):
        for delta in (0.8, 0.2, 1e-3):
            for n in (2, 10, 40):
                exact, quad, type_b = cov.warden_divergence(G0, G1, delta, n)
                assert exact <= quad * (1 + 1e-12)
                assert type_b > 0.0

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("z_size", [2, 3])
    def test_type_bound_times_delta_squared_dominates_quadratic(self, seed, z_size):
        # the type bound leaves out delta^2: chi2(G1^n || G0^n) is the G0 sum
        # over type classes of expm1(ell)^2, each class has G0-probability at
        # most e^{-n D(pi||G0)}, and there are at most (n+1)^|Z| classes, so
        # delta^2 type_bound >= delta^2 chi2(G1^n || G0^n) = quad_bound >= d_n
        rng = np.random.default_rng([seed, z_size])
        alphabet = Alphabet(tuple(range(z_size)))
        g0 = Pmf(alphabet, rng.dirichlet(np.ones(z_size)))
        p1 = rng.dirichlet(np.ones(z_size))
        if seed % 2:  # a codeword row with a zero
            p1[rng.integers(z_size)] = 0.0
        g1 = Pmf(alphabet, p1 / p1.sum())
        for n in (1, 3, 12, 40):
            for delta in (1.0, 0.3, 1e-3, 1e-9):
                exact, quad, type_b = cov.warden_divergence(g0, g1, delta, n)
                assert 0.0 < exact <= quad * (1 + 1e-12)
                assert quad <= delta**2 * type_b * (1 + 1e-12)


def scheme_B_report(p_u, pbar, g0, g1, n):
    delta = sim.transmit_probability(SCHEME_B, p_u, n, pbar)
    return cov.CovertnessReport(n, delta, *cov.warden_divergence(g0, g1, delta, n))


class TestSchemeB:
    def test_delta_matches_sequence_enumeration(self, example_dmc, example_p_u):
        pbar = expo.pbar_threshold(example_dmc, "1")
        n = 10
        total = 0.0
        for seq in itertools.product(range(2), repeat=n):
            t = np.bincount(seq, minlength=2) / n
            mask = t > 0
            if np.any(mask & (example_p_u.probs == 0.0)):
                d = math.inf
            else:
                d = float(np.sum(t[mask] * np.log(t[mask] / example_p_u.probs[mask])))
            if d >= pbar.tau_nats:
                total += math.prod(example_p_u.probs[i] for i in seq)
        exact = sim.transmit_probability(SCHEME_B, example_p_u, n, pbar)
        assert exact == pytest.approx(total, rel=1e-12)

    def test_delta_decays(self, example_dmc, example_p_u):
        pbar = expo.pbar_threshold(example_dmc, "1")
        deltas = [sim.transmit_probability(SCHEME_B, example_p_u, n, pbar)
                  for n in (20, 60, 120, 200)]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))

    def test_covertness_report(self, example_dmc, example_p_u):
        pbar = expo.pbar_threshold(example_dmc, "1")
        rep = scheme_B_report(example_p_u, pbar, G0, G1, 80)
        assert rep.n == 80
        assert 0.0 < rep.d_n_exact <= rep.quad_bound

    def test_exact_for_large_output_alphabet(self, example_p_u):
        z4 = Alphabet(("p", "q", "r", "s"))
        g0 = Pmf(z4, np.array([0.4, 0.3, 0.2, 0.1]))
        g1 = Pmf(z4, np.array([0.1, 0.2, 0.3, 0.4]))
        dmc_pbar = expo.PbarSet(x1="1", tau_nats=0.2, maximizer=g1)
        rep = scheme_B_report(example_p_u, dmc_pbar, g0, g1, 30)
        want = oracles.two_point_divergence(g0.probs, g1.probs, rep.delta_n, 30)
        assert math.isclose(rep.d_n_exact, want, rel_tol=1e-12)
        assert 0.0 < rep.d_n_exact <= rep.quad_bound


class TestSchemeA:
    def test_atypicality_matches_enumeration(self, example_p_u):
        n, mu = 9, 0.1
        total = 0.0
        for seq in itertools.product(range(2), repeat=n):
            t = np.bincount(seq, minlength=2) / n
            if np.any(np.abs(t - example_p_u.probs) > mu):
                total += math.prod(example_p_u.probs[i] for i in seq)
        got = sim.transmit_probability(scheme_A(mu), example_p_u, n)
        assert got == pytest.approx(total, rel=1e-12)

    def test_atypicality_survives_underflow_of_complement(self, example_p_u):
        # at this blocklength 1 - Pr[typical] rounds to zero in doubles,
        # but the direct sum keeps the true magnitude
        val = sim.transmit_probability(scheme_A(0.05), example_p_u, 10_000)
        assert 0.0 < val < 1e-30

    def test_divergence_depends_only_on_burst(self, tmp_path, example_p_u):
        # the verify-covertness row at blocklength n is the mixture's at the
        # burst length k (pow:0.537 gives k(400) = 25); EXAMPLE_CONFIG has
        # P_U = example_p_u and warden rows G0, G1, and its decision-center
        # channel is made partially connected for the marker
        n, k, mu = 400, 25, 0.05
        data = copy.deepcopy(EXAMPLE_CONFIG)
        data["channel"]["y_given_x"] = [[0.5, 0.5], [1.0, 0.0]]
        data["scheme"] = {"scheme": "A", "mu": mu, "x_hat": "1", "y_star": "1",
                          "k_rule": "pow:0.537"}
        data["sweep"]["n_grid"] = [n]
        data["output"] = {"path": str(tmp_path / "cov.csv"), "format": "csv"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["verify-covertness", str(path)]) == 0
        [row] = read_csv(data["output"]["path"], COV_HEADER, COV_SCHEMA)
        cfg = scheme_A(mu, "pow:0.537")
        assert cfg.k(n) == k
        delta = sim.transmit_probability(cfg, example_p_u, n)
        exact, quad, type_b = cov.warden_divergence(G0, G1, delta, k)
        assert float(row["delta_n"]) == delta
        assert float(row["d_n_exact"]) == exact
        assert (float(row["quad_bound"]), float(row["type_bound"])) == (quad, type_b)
        assert exact <= quad

    def test_padded_tail_adds_nothing(self):
        # a codeword on the first k uses and zeros after: the divergence at
        # blocklength n is the two-point mixture's at blocklength k
        g0 = Pmf(ABC, np.array([0.5, 0.3, 0.2]))
        g1 = Pmf(ABC, np.array([0.2, 0.3, 0.5]))
        for n, k in ((4, 1), (5, 2), (6, 3)):
            brute = brute_force_mixture_divergence(g0.probs, g1.probs, 0.3, n, k)
            assert exact_divergence(g0, g1, 0.3, k) == pytest.approx(brute, rel=1e-9)

    def test_k_validation(self):
        # a zero-length burst (or block) has no warden divergence
        with pytest.raises(ValueError):
            cov.warden_divergence(G0, G1, 0.05, 0)


# grid steps of `grid_margins` by dimension: coarse, and the finest the
# oracle scans (k = 1000 for two symbols, k = 500 for three)
COARSE_STEPS = {2: 1e-2, 3: 1e-2}
FINE_STEPS = {2: 1e-3, 3: 1 / 500}


def grid_margins(p_u, tau, g0, g1, steps):
    """The three positivity margins as the former library code scanned them:
    the channel and source minima over `oracles.simplex_grid` separately,
    with the grid step ``steps[dim]`` for each dimension."""
    pi = oracles.simplex_grid(len(g0), steps[len(g0)])
    d0, d1 = kl_rows(pi, g0), kl_rows(pi, g1)
    finite = d1 < math.inf  # all three terms are +inf in the other directions
    d0, d1 = d0[finite], d1[finite]
    du = kl_rows(oracles.simplex_grid(len(p_u), steps[len(p_u)]), p_u)
    b = du[du >= tau].min(initial=math.inf)
    return [float(c.min()) + 2.0 * b for c in (3.0 * d1 - 2.0 * d0, 2.0 * d1 - d0, d1)]


class TestPositivity:
    def test_margins_positive_on_example(self, example_dmc, example_p_u):
        # tau = D_3(G1||G0): the first margin is identically zero, the other
        # two are 2 tau - log(1 + chi2(G1||G0)) and 2 tau
        pbar = expo.pbar_threshold(example_dmc, "1")
        a1, a2, a3 = cov.scheme_B_positivity(example_p_u, pbar, G0, G1)
        assert a1 == pytest.approx(0.0, abs=1e-12)
        assert a2 == pytest.approx(0.269663566949, abs=1e-9) and a2 > 0.0
        assert a3 == pytest.approx(0.423814246776, abs=1e-9) and a3 > 0.0

    @pytest.mark.parametrize("seed, z_size, u_size, g1_zero", [
        (1, 2, 2, False), (2, 2, 3, False), (3, 3, 2, False), (4, 3, 3, False),
        (5, 3, 3, True),
    ])
    @pytest.mark.parametrize("tau_scale", [1.0, 0.5])
    def test_closed_forms_bound_the_grid(self, seed, z_size, u_size, g1_zero, tau_scale):
        rng = np.random.default_rng(seed)
        # concentrated rows keep tau below -log min P_U
        g0, g1 = (rng.dirichlet(np.full(z_size, 5.0)) for _ in range(2))
        if g1_zero:
            g1[0] = 0.0
            g1 /= g1.sum()
        p_u = rng.dirichlet(np.ones(u_size))
        z = Alphabet(tuple(range(z_size)))
        dmc = Dmc(AB, AB, z, [[0.5, 0.5]] * 2, [g0, g1], "a")
        tau = tau_scale * expo.pbar_threshold(dmc, "b").tau_nats
        assert 0.0 < tau < -math.log(p_u.min())  # the transmission set is non-empty
        pbar = expo.PbarSet(x1="b", tau_nats=tau, maximizer=dmc.z_row("b"))
        got = cov.scheme_B_positivity(Pmf(Alphabet(tuple(range(u_size))), p_u), pbar,
                                      dmc.z_row("a"), dmc.z_row("b"))
        if tau_scale == 1.0:
            assert got[0] == pytest.approx(0.0, abs=1e-12)
        coarse = grid_margins(p_u, tau, g0, g1, COARSE_STEPS)
        fine = grid_margins(p_u, tau, g0, g1, FINE_STEPS)
        for c, f, a in zip(coarse, fine, got):
            assert f >= a - 1e-12
            assert f - a < c - a

    @pytest.mark.parametrize("probs, tau", [([0.8, 0.2], 2.0), ([0.5, 0.5, 0.0], 1.0)])
    def test_empty_transmission_set(self, probs, tau):
        # tau exceeds D(pi_U||P_U) on all of supp(P_U); outside it only types
        # of probability zero transmit, so every margin is +inf
        p_u = Pmf(Alphabet(tuple(range(len(probs)))), np.array(probs))
        pbar = expo.PbarSet(x1="1", tau_nats=tau, maximizer=G1)
        assert cov.scheme_B_positivity(p_u, pbar, G0, G1) == (math.inf,) * 3
        assert grid_margins(p_u.probs, tau, G0.probs, G1.probs, COARSE_STEPS) == [math.inf] * 3
