import itertools
import logging
import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest

import covertdht.exponents as expo
import covertdht.simulation as sim
import covertdht.typesum as typesum
import oracles
from covertdht import Dmc
from covertdht.config import ExperimentConfig
from covertdht.errors import AlphabetTooLarge, ConfigMismatch, DegenerateInput
from covertdht.probability import Alphabet, JointPmf, Pmf, typical

X2 = Alphabet(("0", "1"))

# small two-sided source pair for brute-force checks (V is informative here)
U2 = Alphabet((0, 1))
V2 = Alphabet(("x", "y"))
P_UV = JointPmf(U2, V2, np.array([[0.5, 0.1], [0.2, 0.2]]))
Q_UV = JointPmf(U2, V2, np.array([[0.1, 0.2], [0.3, 0.4]]))

# a law whose V marginal (0.3, 0.4, 0.3) is atypical for P3_V at mu = 0.17,
# so Monte Carlo draws it V first, and each of its three letters prunes
LAW3 = JointPmf(U2, Alphabet(("x", "y", "z")), np.array([[0.2, 0.1, 0.15], [0.1, 0.3, 0.15]]))
P3_V = Pmf(LAW3.col_alphabet, np.array([0.1, 0.5, 0.4]))


class TestKRule:
    def test_sqrt_is_ceiling(self):
        k = sim.make_k_rule("sqrt")
        assert k(16) == 4
        assert k(17) == 5
        assert k(1) == 1

    def test_log(self):
        k = sim.make_k_rule("log")
        assert k(100) == math.ceil(math.log(101))

    def test_power(self):
        k = sim.make_k_rule("pow:0.5")
        assert k(100) == 10
        with pytest.raises(ValueError):
            sim.make_k_rule("pow:1.5")

    def test_unknown(self):
        with pytest.raises(ValueError):
            sim.make_k_rule("cube")


class TestSchemeConfig:
    def test_scheme_a_requires_marker(self):
        with pytest.raises(ValueError):
            sim.SchemeConfig(scheme="A", x_hat="1")

    def test_scheme_b_requires_codeword(self):
        with pytest.raises(ValueError):
            sim.SchemeConfig(scheme="B")

    def test_mu_positive(self):
        with pytest.raises(ValueError):
            sim.SchemeConfig(scheme="B", mu=0.0, x1="1")
        with pytest.raises(ValueError):
            sim.SchemeConfig(scheme="B", mu=math.nan, x1="1")

    @pytest.mark.parametrize("mu", [True, False])
    def test_mu_is_not_a_bool(self, mu):
        # True would pass 0 < mu < inf as 1; the config loader refuses a
        # JSON true, and so does the library type, built or copied
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            sim.SchemeConfig("B", mu=mu, x1="1")
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            sim.SchemeConfig("B", mu=0.1, x1="1").replace(mu=mu)

    def test_validate_against_checks_dead_edge(self, example_dmc, partial_dmc):
        cfg = sim.SchemeConfig(scheme="A", x_hat="1", y_star="1")
        cfg.validate_against(partial_dmc)  # the edge (1 -> output 1) is dead
        with pytest.raises(ConfigMismatch):
            cfg.validate_against(example_dmc)  # fully connected: no dead edge

    def test_validate_against_rejects_zero_codeword(self, example_dmc):
        cfg = sim.SchemeConfig(scheme="B", x1="0")
        with pytest.raises(ConfigMismatch):
            cfg.validate_against(example_dmc)


class TestEncoders:
    """The encoder rule ``_transmits`` on the U counts of one block over n."""

    def test_scheme_a_silent_when_typical(self, example_p_u):
        cfg = sim.SchemeConfig(scheme="A", mu=0.05, x_hat="1", y_star="1")
        # U counts (80, 20) match P_U = (0.8, 0.2); (60, 40) is 0.2 off
        active = sim._transmits(cfg, np.array([[80, 20], [60, 40]]) / 100, example_p_u, None)
        assert active.tolist() == [False, True]

    def test_scheme_b_codeword_when_threshold_crossed(self, example_dmc, example_p_u):
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.05, x1="1")
        active = sim._transmits(cfg, np.array([[32, 8], [16, 24]]) / 40, example_p_u, pbar)
        assert active.tolist() == [False, True]

    def test_scheme_a_decision_scans_burst_only(self, example_sources, partial_dmc):
        # mu = 1 makes every source block typical, so the sensor never
        # transmits and a Type-I error is a burst of k zero-input outputs
        # without the marker (probability 1/2 each): (1/2)^k, not (1/2)^n
        p_uv, q_uv = example_sources
        cfg = sim.SchemeConfig(scheme="A", mu=1.0, x_hat="1", y_star="1")
        n, k = 100, cfg.k(100)
        alpha = sim.exact_error_probs(cfg, [cfg.mu], p_uv, q_uv, partial_dmc, n)[0].alpha
        assert alpha == pytest.approx(0.5**k, rel=1e-12)
        res = sim.run_trials(cfg, p_uv, q_uv, partial_dmc, n, 20_000, seed=2)
        assert abs(res.alpha - 0.5**k) <= res.alpha_ci


    @pytest.mark.parametrize("scheme", ["A", "B"])
    def test_transmit_probability_is_the_kernel_rule(self, scheme):
        # delta_n, summed over the U types alone, is the mass of the joint
        # types whose U counts _transmits marks active on the whole lattice
        p_uv, _ = _source_pair(3, 2, seed=32)
        p_u = p_uv.row_marginal()
        pbar = expo.PbarSet(x1="1", tau_nats=0.05, maximizer=p_u)
        cfg = (sim.SchemeConfig(scheme="B", mu=0.2, x1="1") if scheme == "B"
               else sim.SchemeConfig(scheme="A", mu=0.2, x_hat="1", y_star="1"))
        deltas = []
        for n in (1, 5, 11):
            parts = []
            for counts in typesum.type_blocks(n, 6):
                c_u = counts.reshape(len(counts), 3, 2).sum(axis=2)
                active = sim._transmits(cfg, c_u / n, p_u, pbar)
                lp = typesum.log_type_class_prob(counts[active], p_uv.probs.ravel())
                parts.append(typesum.logsumexp(lp))
            want = math.exp(typesum.logsumexp(parts))
            got = sim.transmit_probability(cfg, p_u, n, pbar)
            assert math.isclose(got, want, rel_tol=1e-12)
            deltas.append(got)
        assert 0.0 < min(deltas) and max(deltas[1:]) < 1.0  # both decisions occur


def _typical_exact(counts, probs, mu):
    """Strong typicality of a count vector in exact rational arithmetic."""
    n = sum(counts)
    for c, p in zip(counts, probs):
        t, p = Fraction(int(c), n), Fraction(p)
        if (p == 0 and t > 0) or abs(t - p) > Fraction(mu):
            return False
    return True


class TestDecideSchemeB:
    """``_transmits`` and ``_v_typical`` on the marginal counts of every
    joint count vector of a 3x3 source at n = 4, against exact rational
    typicality."""

    U3 = Alphabet(("a", "b", "c"))
    V3 = Alphabet(("x", "y", "z"))

    def test_matches_brute_force_typicality(self):
        # P_V has a zero, so the support rule is exercised; all probabilities
        # and mu are dyadic, so the closed boundary |t - p| = mu is reached
        # exactly in floating point
        p_u = Pmf(self.U3, np.array([0.5, 0.25, 0.25]))
        p_v = Pmf(self.V3, np.array([0.5, 0.5, 0.0]))
        mu, tau, n = 0.25, 0.3, 4
        pbar = expo.PbarSet(x1="1", tau_nats=tau, maximizer=p_u)
        counts = np.array(list(oracles.iter_types(n, 9)))
        mats = counts.reshape(-1, 3, 3)
        cu, cv = mats.sum(axis=2), mats.sum(axis=1)
        # no U type lies near the threshold, so the float divergence decides
        assert min(abs(oracles.kl(c / n, p_u.probs) - tau) for c in cu) > 1e-3
        want_b = [oracles.kl(c / n, p_u.probs) >= tau for c in cu]
        want_a = [not _typical_exact(c, p_u.probs, mu) for c in cu]
        want_v = [_typical_exact(c, p_v.probs, mu) for c in cv]
        for cfg, want_active in (
            (sim.SchemeConfig(scheme="B", mu=mu, x1="1"), want_b),
            (sim.SchemeConfig(scheme="A", mu=mu, x_hat="1", y_star="1"), want_a),
        ):
            active = sim._transmits(cfg, cu / n, p_u, pbar)
            accept_v = sim._v_typical(cfg, cv, p_v, n)
            assert active.tolist() == want_active
            assert accept_v.tolist() == want_v
            assert set(want_active) == {True, False}
        assert set(want_v) == {True, False}
        # a V type within mu of P_V letter by letter is still rejected for
        # its mass on the zero of P_V
        assert any(c[2] > 0 and np.all(np.abs(c / n - p_v.probs) <= mu) for c in cv)


def brute_force_error_probs(cfg, p_uv, q_uv, dmc, n, pbar=None):
    """Exhaustive enumeration of every source and output sequence."""
    p_u = p_uv.row_marginal()
    p_v = p_uv.col_marginal()
    du, dv = p_u.alphabet.size, p_v.alphabet.size
    ref_y = dmc.y_row(dmc.zero_symbol).probs

    def accept_prob_given_codeword(row):
        if cfg.scheme == "A":
            k = cfg.k(n)
            star = dmc.y_alphabet.index(cfg.y_star)
            return 1.0 - (1.0 - row[star]) ** k
        total = 0.0
        for y_seq in itertools.product(range(dmc.y_alphabet.size), repeat=n):
            t = np.bincount(y_seq, minlength=dmc.y_alphabet.size) / n
            if np.any((ref_y == 0.0) & (t > 0.0)):
                continue
            if np.all(np.abs(t - ref_y) <= cfg.mu):
                total += math.prod(row[i] for i in y_seq)
        return total

    acc_silent = accept_prob_given_codeword(dmc.y_row(dmc.zero_symbol).probs)
    active_symbol = cfg.x1 if cfg.scheme == "B" else cfg.x_hat
    acc_active = accept_prob_given_codeword(dmc.y_row(active_symbol).probs)

    out = {}
    for law in (p_uv, q_uv):
        accept = 0.0
        for joint_seq in itertools.product(range(du * dv), repeat=n):
            prob = math.prod(law.probs.ravel()[i] for i in joint_seq)
            if prob == 0.0:
                continue
            us = [i // dv for i in joint_seq]
            vs = [i % dv for i in joint_seq]
            t_u = np.bincount(us, minlength=du) / n
            t_v = np.bincount(vs, minlength=dv) / n
            if cfg.scheme == "B":
                mask = t_u > 0
                if np.any(mask & (p_u.probs == 0.0)):
                    active = True
                else:
                    active = (
                        float(np.sum(t_u[mask] * np.log(t_u[mask] / p_u.probs[mask])))
                        >= pbar.tau_nats
                    )
            else:
                active = not (
                    np.all(np.abs(t_u - p_u.probs) <= cfg.mu)
                    and not np.any((p_u.probs == 0.0) & (t_u > 0))
                )
            v_typ = np.all(np.abs(t_v - p_v.probs) <= cfg.mu) and not np.any(
                (p_v.probs == 0.0) & (t_v > 0)
            )
            if v_typ:
                accept += prob * (acc_active if active else acc_silent)
        out[id(law)] = accept
    return 1.0 - out[id(p_uv)], out[id(q_uv)]


class TestExactEngine:
    def test_scheme_b_matches_brute_force(self, example_dmc):
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.2, x1="1")
        n = 6
        exact = sim.exact_error_probs(cfg, [cfg.mu], P_UV, Q_UV, example_dmc, n, pbar)[0]
        alpha, beta = exact.alpha, exact.beta
        want_a, want_b = brute_force_error_probs(cfg, P_UV, Q_UV, example_dmc, n, pbar)
        assert alpha == pytest.approx(want_a, rel=1e-10)
        assert beta == pytest.approx(want_b, rel=1e-10)

    def test_scheme_b_on_the_typicality_boundary(self, example_dmc):
        # T_V = 3/5 lies exactly mu = 0.1 from P_V = 1/2 at n = 5; summed as
        # float cell frequencies (0.2 + 0.2 + 0.2) it falls outside
        p_uv = JointPmf(U2, V2, np.array([[0.3, 0.2], [0.2, 0.3]]))
        q_uv = JointPmf(U2, V2, np.array([[0.1, 0.4], [0.3, 0.2]]))
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.1, x1="1")
        exact = sim.exact_error_probs(cfg, [cfg.mu], p_uv, q_uv, example_dmc, 5, pbar)[0]
        alpha, beta = exact.alpha, exact.beta
        want_a, want_b = brute_force_error_probs(cfg, p_uv, q_uv, example_dmc, 5, pbar)
        assert alpha == pytest.approx(want_a, rel=1e-10)
        assert beta == pytest.approx(want_b, rel=1e-10)

    def test_output_typicality_once_per_cell(self, example_dmc, monkeypatch):
        # Pr[Y^n typical] per codeword depends on neither hypothesis: one call
        # of the branch factors per n serves both codewords, alpha and beta
        # at every mu of the grid, and walks no Y lattice; an n the joint
        # lattice cap refuses computes nothing (every walk goes through
        # typesum.type_bands, the joint engine's too)
        calls, walks = [], []
        factors, bands = sim._log_branch_factors, typesum.type_bands

        def counted(cfg, dmc, n, mus):
            calls.append((cfg.x1, n, tuple(mus)))
            return factors(cfg, dmc, n, mus)

        def walked(n, dim):
            walks.append((n, dim))
            return bands(n, dim)

        monkeypatch.setattr(sim, "_log_branch_factors", counted)
        monkeypatch.setattr(typesum, "type_bands", walked)
        monkeypatch.setattr(sim, "type_bands", walked)
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.2, x1="1")
        mus = (0.2, 0.1, 0.3)
        for n in (6, 8):
            sim.exact_error_probs(cfg, mus, P_UV, Q_UV, example_dmc, n, pbar)
        assert sorted(calls) == [("1", n, mus) for n in (6, 8)]
        # per n, the U lattice of delta_n (binary) and the joint lattice (4
        # cells)
        assert sorted(walks) == [(n, dim) for n in (6, 8) for dim in (2, 4)]
        calls.clear()
        walks.clear()
        with pytest.raises(AlphabetTooLarge):
            sim.exact_error_probs(cfg, mus, P_UV, Q_UV, example_dmc, 2000, pbar)
        assert calls == walks == []

    def test_scheme_a_matches_brute_force(self, partial_dmc):
        cfg = sim.SchemeConfig(scheme="A", mu=0.2, x_hat="1", y_star="1")
        n = 6
        exact = sim.exact_error_probs(cfg, [cfg.mu], P_UV, Q_UV, partial_dmc, n)[0]
        alpha, beta = exact.alpha, exact.beta
        want_a, want_b = brute_force_error_probs(cfg, P_UV, Q_UV, partial_dmc, n)
        assert alpha == pytest.approx(want_a, rel=1e-10)
        assert beta == pytest.approx(want_b, rel=1e-10)

    def test_log_beta_consistent(self, example_sources, example_dmc):
        p_uv, q_uv = example_sources
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.02, x1="1")
        res = sim.exact_error_probs(cfg, [cfg.mu], p_uv, q_uv, example_dmc, 50, pbar)[0]
        beta, lb = res.beta, res.log_beta
        assert lb == pytest.approx(math.log(beta), rel=1e-12)

    def test_weight_stats_reflect_transmission_prob(self, example_sources, example_dmc):
        p_uv, q_uv = example_sources
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.02, x1="1")
        res = sim.exact_error_probs(cfg, [cfg.mu], p_uv, q_uv, example_dmc, 60, pbar)[0]
        w, a_bar = res.weight_mean, res.a_bar
        assert 0.0 < w < 1.0
        assert a_bar == pytest.approx(math.sqrt(w))
        with pytest.raises(ConfigMismatch):
            sim.exact_error_probs(cfg, [cfg.mu], p_uv, q_uv, example_dmc, 60)


def _dmc_with_outputs(size):
    """Fully connected channel with `size` decision-center outputs."""
    ys = Alphabet(tuple(f"y{i}" for i in range(size)))
    zero_row = np.arange(1, size + 1, dtype=float)
    return Dmc(X2, ys, X2, [zero_row / zero_row.sum(), np.full(size, 1.0 / size)],
               [[0.6, 0.4], [0.4, 0.6]], "0")


def _source_pair(du, dv, seed):
    rng = np.random.default_rng(seed)
    u = Alphabet(tuple(range(du)))
    v = Alphabet(tuple(f"v{j}" for j in range(dv)))
    p = rng.dirichlet(np.ones(du * dv)).reshape(du, dv)
    q = rng.dirichlet(np.ones(du * dv))
    q[0] = 0.0  # an impossible cell under the alternative
    return JointPmf(u, v, p), JointPmf(u, v, (q / q.sum()).reshape(du, dv))


def _small_ns(du, dv):
    """The blocklengths of the engine-against-oracle comparisons: up to 11,
    or 8 over 3x3 sources (12,870 joint types; 75,582 at n = 11)."""
    return (1, 5, 8) if du * dv > 6 else (1, 5, 11)


class TestExactEngineAgainstLoop:
    """The batched exact engine against the per-type loop it replaced, at
    2 to 9 joint source cells and 2, 3 and 4 decision-center outputs."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(typesum, "BLOCK_ROWS", 16)  # several blocks per sum

    @pytest.mark.parametrize("du, dv", [(2, 1), (3, 1), (1, 3), (2, 2), (3, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("y_size", [2, 3, 4])
    def test_scheme_b(self, du, dv, y_size):
        dmc = _dmc_with_outputs(y_size)
        pbar = expo.PbarSet(x1="1", tau_nats=0.05, maximizer=dmc.z_row("1"))
        cfg = sim.SchemeConfig(scheme="B", mu=0.2, x1="1")
        self._compare(cfg, dmc, du, dv, pbar)

    @pytest.mark.parametrize("du, dv", [(2, 1), (3, 1), (1, 3), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_scheme_a(self, partial_dmc, du, dv):
        cfg = sim.SchemeConfig(scheme="A", mu=0.2, x_hat="1", y_star="1")
        self._compare(cfg, partial_dmc, du, dv, None)

    def _compare(self, cfg, dmc, du, dv, pbar):
        p_uv, q_uv = _source_pair(du, dv, seed=du * 10 + dv)
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        tau = pbar.tau_nats if pbar is not None else None
        for n in _small_ns(du, dv):
            (want_h0, p_active), (want_h1, _) = (
                oracles.log_accept_prob(cfg, law.probs, p_u.probs, p_v.probs, dmc, n, tau)
                for law in (p_uv, q_uv)
            )
            [got] = sim._log_accept_probs([cfg], p_uv, q_uv, dmc, n, pbar)
            for got, want in zip(got, (want_h0, want_h1)):
                assert got == want or math.isclose(got, want, rel_tol=1e-12)
            # the weight stats take delta_n from the U-type lattice alone; the
            # oracle sums the transmission probability over joint types
            frac = p_active * (cfg.k(n) if cfg.scheme == "A" else n) / n
            res = sim.exact_error_probs(cfg, [cfg.mu], p_uv, q_uv, dmc, n, pbar)[0]
            w, a_bar = res.weight_mean, res.a_bar
            assert math.isclose(w, frac, rel_tol=1e-12)
            assert math.isclose(a_bar, math.sqrt(frac), rel_tol=1e-12)


def _box_edge(probs, n):
    """A mu on whose box edge around ``probs`` the types over n with k of
    the first letter lie exactly: |k/n - probs[0]| as ``typical`` computes
    it, for a k two above n probs[0] (two below where that exceeds n)."""
    k = int(probs[0] * n) + 2
    if k > n:
        k -= 4
    return float(np.abs(np.array([k]) / n - probs[:1])[0])


class TestMuGrid:
    """The exact engine's one pass for a whole mu grid against the former
    pass at each mu, bit for bit, on grids that are unsorted, repeat a mu
    and hold a mu with types on the edge of the V box (and of the U box)."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(typesum, "BLOCK_ROWS", 16)  # several blocks per sum

    @pytest.mark.parametrize("du, dv", [(2, 1), (3, 1), (1, 3), (2, 2), (3, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("y_size", [2, 3])
    def test_scheme_b(self, du, dv, y_size):
        dmc = _dmc_with_outputs(y_size)
        pbar = expo.PbarSet(x1="1", tau_nats=0.05, maximizer=dmc.z_row("1"))
        cfg = sim.SchemeConfig(scheme="B", mu=0.2, x1="1")
        self._compare(cfg, dmc, *_source_pair(du, dv, seed=du * 10 + dv), _small_ns(du, dv),
                      pbar)

    @pytest.mark.parametrize("du, dv", [(2, 1), (3, 1), (1, 3), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_scheme_a(self, partial_dmc, du, dv):
        cfg = sim.SchemeConfig(scheme="A", mu=0.2, x_hat="1", y_star="1")
        self._compare(cfg, partial_dmc, *_source_pair(du, dv, seed=du * 10 + dv),
                      _small_ns(du, dv), None)

    @pytest.mark.parametrize("du, dv", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("scheme", ["A", "B"])
    def test_rows_cut_across_bands(self, partial_dmc, monkeypatch, du, dv, scheme):
        # at n = 9 > BLOCK_ROWS - 1 each band row's j range is cut, so the
        # decisions of one row serve types of two bands (2x2 sources meet
        # this in test_exact_sweep_b_sources)
        monkeypatch.setattr(typesum, "BLOCK_ROWS", 8)
        if scheme == "B":
            dmc = _dmc_with_outputs(3)
            pbar = expo.PbarSet(x1="1", tau_nats=0.05, maximizer=dmc.z_row("1"))
            cfg = sim.SchemeConfig(scheme="B", mu=0.2, x1="1")
        else:
            dmc, pbar = partial_dmc, None
            cfg = sim.SchemeConfig(scheme="A", mu=0.2, x_hat="1", y_star="1")
        assert any(band.rows()[3][0] > 0 for band in typesum.type_bands(9, du * dv))
        self._compare(cfg, dmc, *_source_pair(du, dv, seed=du * 10 + dv), (5, 9), pbar)

    @pytest.mark.parametrize("scheme", ["A", "B"])
    def test_exact_sweep_b_sources(self, partial_dmc, scheme):
        # the benchmark's exact-sweep-b sources, under its channel (scheme B)
        # or the partially connected one (scheme A)
        path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads",
                            "exact-sweep-b.json")
        config = ExperimentConfig.load(path)
        p_uv, q_uv = config.source_pmfs()
        if scheme == "B":
            cfg, dmc = config.scheme(), config.dmc()
            pbar = expo.pbar_threshold(dmc, cfg.x1)
        else:
            cfg = sim.SchemeConfig(scheme="A", mu=0.2, x_hat="1", y_star="1")
            dmc, pbar = partial_dmc, None
        self._compare(cfg, dmc, p_uv, q_uv, (12, 24), pbar)

    def _compare(self, cfg, dmc, p_uv, q_uv, ns, pbar):
        p_u, p_v = p_uv.row_marginal().probs, p_uv.col_marginal().probs
        v_edge, u_edge = _box_edge(p_v, ns[1]), _box_edge(p_u, ns[1])
        grid = [0.3, v_edge, 0.1, 0.3, u_edge]
        for n in ns:
            cfgs = [cfg.replace(mu=mu) for mu in grid]
            want = [oracles.log_accept_probs_at_mu(c, p_uv, q_uv, dmc, n, pbar) for c in cfgs]
            assert sim._log_accept_probs(cfgs, p_uv, q_uv, dmc, n, pbar) == want
            got = sim.exact_error_probs(cfg, grid, p_uv, q_uv, dmc, n, pbar)
            assert got == [sim.exact_error_probs(cfg, [mu], p_uv, q_uv, dmc, n, pbar)[0]
                           for mu in grid]
            assert [res.mu for res in got] == grid
        # a count of V's first letter at the middle n meets the edge exactly
        assert (np.abs(np.arange(ns[1] + 1) / ns[1] - p_v[0]) == v_edge).any()

    def test_empty_grid_is_refused(self, example_dmc):
        cfg = sim.SchemeConfig(scheme="B", mu=0.2, x1="1")
        with pytest.raises(ValueError, match="empty"):
            sim.exact_error_probs(cfg, [], P_UV, Q_UV, example_dmc, 6)


class TestMonteCarlo:
    def test_scheme_b_needs_threshold_set(self, example_sources, example_dmc):
        p_uv, q_uv = example_sources
        cfg = sim.SchemeConfig(scheme="B", mu=0.02, x1="1")
        with pytest.raises(ConfigMismatch, match="threshold set"):
            sim.run_trials(cfg, p_uv, q_uv, example_dmc, 20, 100, seed=1)

    def test_deterministic_given_seed(self, example_sources, example_dmc):
        p_uv, q_uv = example_sources
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.02, x1="1")
        r1 = sim.run_trials(cfg, p_uv, q_uv, example_dmc, 40, 50_000, seed=3, pbar=pbar)
        r2 = sim.run_trials(cfg, p_uv, q_uv, example_dmc, 40, 50_000, seed=3, pbar=pbar)
        assert r1 == r2
        r3 = sim.run_trials(cfg, p_uv, q_uv, example_dmc, 40, 50_000, seed=4, pbar=pbar)
        assert (r3.alpha, r3.beta) != (r1.alpha, r1.beta)

    def test_chunking_does_not_change_results(self, example_sources, example_dmc, monkeypatch):
        p_uv, q_uv = example_sources
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.02, x1="1")
        whole = sim.run_trials(cfg, p_uv, q_uv, example_dmc, 40, 60_000, seed=3, pbar=pbar)
        monkeypatch.setattr(sim, "CHUNK_TRIALS", 7_000)
        split = sim.run_trials(cfg, p_uv, q_uv, example_dmc, 40, 60_000, seed=3, pbar=pbar)
        # chunking changes the RNG stream, not the statistics
        assert abs(whole.alpha - split.alpha) <= whole.alpha_ci + split.alpha_ci

    def test_rule_of_three_flag(self, example_sources, partial_dmc):
        p_uv, q_uv = example_sources
        # beta is ~1e-21 exactly here, so no trial is accepted with a positive weight
        cfg = sim.SchemeConfig(scheme="A", mu=0.05, x_hat="1", y_star="1")
        res = sim.run_trials(cfg, p_uv, q_uv, partial_dmc, 100, 10_000, seed=0)
        assert res.beta_is_upper_bound
        assert res.beta == pytest.approx(3.0 / 10_000)

    @pytest.mark.parametrize("scheme, want, drawn", [
        ("B", sim.SimulationResult(
            scheme="B", n=30, mu=0.2, k=None, alpha=0.040694953954329594,
            beta=0.13723627951869752, log_beta=-1.9860511706664234, method="mc",
            alpha_ci=0.002827664996418802, beta_ci=0.004838562845119437, trials=20000,
            seed=11, weight_mean=0.0005, a_bar=0.022360679774997897),
         (0.04275, 0.1371, 0.0028924998839409827, 0.00483659784764956)),
        ("A", sim.SimulationResult(
            scheme="A", n=30, mu=0.2, k=6, alpha=0.05337578125, beta=0.02308359375,
            log_beta=-3.768633141057988, method="mc", alpha_ci=0.0032019073806225165,
            beta_ci=0.002174598177184524, trials=20000, seed=11,
            weight_mean=0.0049299999999999995, a_bar=0.07021395872616783),
         (0.0554, 0.02325, 0.0032566089193636558, 0.0021818672332369164)),
    ], ids=["B", "A"])
    def test_seeded_result_is_pinned(self, example_dmc, partial_dmc, monkeypatch, scheme, want,
                                     drawn):
        # values recorded from an earlier version of the engine: a change to
        # the sampling order or to any decision shows up here bit for bit.
        # The engine that drew the branch gave the alpha, beta and intervals
        # of ``drawn`` on the same seeds, and the same weight statistics.
        if scheme == "B":
            cfg = sim.SchemeConfig(scheme="B", mu=0.2, x1="1")
            dmc, pbar = example_dmc, expo.pbar_threshold(example_dmc, "1")
        else:
            cfg = sim.SchemeConfig(scheme="A", mu=0.2, x_hat="1", y_star="1")
            dmc, pbar = partial_dmc, None
        monkeypatch.setattr(sim, "CHUNK_TRIALS", 7_000)
        got = sim.run_trials(cfg, P_UV, Q_UV, dmc, 30, 20_000, seed=11, pbar=pbar)
        assert got == want
        assert oracles.run_trials_branch(cfg, P_UV, Q_UV, dmc, 30, 20_000, 11, pbar) == drawn

    def test_trials_validation(self, example_sources, example_dmc):
        p_uv, q_uv = example_sources
        cfg = sim.SchemeConfig(scheme="B", mu=0.02, x1="1")
        with pytest.raises(ValueError):
            sim.run_trials(cfg, p_uv, q_uv, example_dmc, 40, 0, seed=1)

    @staticmethod
    def _case(scheme, example_dmc, partial_dmc):
        if scheme == "B":
            cfg = sim.SchemeConfig(scheme="B", mu=0.2, x1="1")
            return cfg, example_dmc, expo.pbar_threshold(example_dmc, "1")
        return sim.SchemeConfig(scheme="A", mu=0.2, x_hat="1", y_star="1"), partial_dmc, None

    @pytest.mark.parametrize("scheme", ["A", "B"])
    def test_core_count_and_block_size_do_not_change_results(
        self, example_dmc, partial_dmc, monkeypatch, scheme
    ):
        # 20,001 trials in chunks of 7,000: three chunks per hypothesis, so
        # six tasks, more than one per thread at every core count tried; the
        # smallest block splits every draw of a chunk
        cfg, dmc, pbar = self._case(scheme, example_dmc, partial_dmc)
        monkeypatch.setattr(sim, "CHUNK_TRIALS", 7_000)
        got = []
        for cores, block in ((1, sim.BLOCK_TRIALS), (3, sim.BLOCK_TRIALS), (3, 999)):
            monkeypatch.setattr(sim, "_usable_cores", lambda cores=cores: cores)
            monkeypatch.setattr(sim, "BLOCK_TRIALS", block)
            got.append(sim.run_trials(cfg, P_UV, Q_UV, dmc, 30, 20_001, seed=11, pbar=pbar))
        assert got[0] == got[1] == got[2]

    def test_v_first_letters_do_not_depend_on_the_block_size(self, partial_dmc, monkeypatch):
        # a letter draws only for the trials the letters before it left, so
        # blocked draws equal one draw only with a generator per letter
        cfg = sim.SchemeConfig(scheme="A", mu=0.17, x_hat="1", y_star="1")
        assert sim._v_first(cfg, LAW3, P3_V)
        got = []
        branch = np.array([True, False])
        for block in (sim.BLOCK_TRIALS, 999):
            monkeypatch.setattr(sim, "BLOCK_TRIALS", block)
            got.append(sim._trial_chunk(cfg, LAW3, LAW3.row_marginal(), P3_V, 30, None,
                                        branch, 20_001, (11, 1, 0)))
        assert got[0] == got[1]
        assert 0 < got[0][3] < 20_001 and got[0][0] > 0

    def test_worker_error_reaches_the_caller(self, example_dmc, partial_dmc, monkeypatch):
        # two tasks on two threads: the alternative's chunk runs on the worker
        cfg, dmc, pbar = self._case("A", example_dmc, partial_dmc)
        monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
        real = sim._trial_chunk

        def fail_under_h1(cfg, law, *args):
            if law is Q_UV:
                raise DegenerateInput("worker failure")
            return real(cfg, law, *args)

        monkeypatch.setattr(sim, "_trial_chunk", fail_under_h1)
        with pytest.raises(DegenerateInput, match="worker failure"):
            sim.run_trials(cfg, P_UV, Q_UV, dmc, 30, 1_000, seed=11, pbar=pbar)

    def test_a_zero_branch_factor_draws_no_v(self, partial_dmc, monkeypatch):
        # scheme A's active sensor is never accepted: under U first, its
        # trials draw no V counts, and the V-typical count per decision is
        # zero for it
        cfg = sim.SchemeConfig(scheme="A", mu=0.2, x_hat="1", y_star="1")
        rows = []
        real_v_typical = sim._v_typical

        def v_typical(cfg, counts, p_v, n):
            rows.append(len(counts))
            return real_v_typical(cfg, counts, p_v, n)

        monkeypatch.setattr(sim, "_v_typical", v_typical)
        assert not sim._v_first(cfg, P_UV, P_UV.col_marginal())
        silent, active_typical, active, pruned = sim._trial_chunk(
            cfg, P_UV, P_UV.row_marginal(), P_UV.col_marginal(), 30, None,
            np.array([True, False]), 20_000, (11, 0, 0))
        assert 0 < active < 20_000 and pruned == active_typical == 0
        assert sum(rows) == 20_000 - active and silent > 0

    def test_cell_is_logged_at_debug(self, example_dmc, partial_dmc, monkeypatch, caplog):
        cfg, dmc, pbar = self._case("B", example_dmc, partial_dmc)
        monkeypatch.setattr(sim, "_usable_cores", lambda: 3)
        monkeypatch.setattr(sim, "CHUNK_TRIALS", 7_000)
        with caplog.at_level(logging.DEBUG, logger="covertdht.simulation"):
            sim.run_trials(cfg, P_UV, Q_UV, dmc, 30, 20_001, seed=11, pbar=pbar)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert "n=30: 20001 trials, 6 tasks, 3 threads" in message
        # Q_V = (0.4, 0.6) is atypical for P_V = (0.7, 0.3) at mu = 0.2: the
        # alternative draws V first, and its letter tests prune the trials
        # whose T_V is atypical, a Bin(20001, Pr_Q[T_V atypical]) count
        found = re.search(r"H0 drew U first, 0 pruned; H1 drew V first, (\d+) pruned", message)
        assert found
        p_v = P_UV.col_marginal()
        p_typical = typesum.prob_type_event(
            Q_UV.col_marginal(), 30, lambda t: typical(t, p_v.probs, cfg.mu))
        frac = int(found.group(1)) / 20_001
        assert abs(frac - (1.0 - p_typical)) <= math.sqrt(math.log(1e9) / (2 * 20_001))


class TestMarginalPairLaw:
    """The Monte Carlo engine draws the pair (T_U, T_V) in one of two orders:
    T_U, then T_V given T_U as a sum of one multinomial per U symbol; or T_V
    letter by letter, pruning the trials at their first atypical letter,
    then T_U given T_V as a sum of one multinomial per V symbol. The pair's
    sampled frequencies are compared with its exact law, summed from the
    joint-type lattice into marginal pairs (and conditioned on T_V being
    typical where the letters prune).

    Total variation is the statistic. For M trials over cells of mass p_i,
    E|f_i - p_i| <= sqrt(p_i (1 - p_i) / M), so E[TV] <= sum_i sqrt(p_i
    (1 - p_i) / M) / 2; and one trial moves TV by at most 1/M, so by
    McDiarmid's inequality TV exceeds that mean bound by t with probability
    at most exp(-2 M t^2). The tolerance takes t for a false failure
    probability of 1e-9, so no seed is picked to pass. Where the letters
    prune, M is the number of trials left, and those trials are i.i.d. from
    the conditioned law given that number."""

    M = 400_000
    LAWS = pytest.mark.parametrize("probs", [
        [[0.30, 0.10], [0.05, 0.25], [0.20, 0.10]],
        [[0.35], [0.65]],
        # a U symbol of zero mass: its V|U row is 0/0
        [[0.30, 0.10], [0.0, 0.0], [0.15, 0.45]],
    ], ids=["3x2", "2x1", "zero-row"])

    @staticmethod
    def _law(probs):
        probs = np.array(probs)
        return JointPmf(Alphabet(tuple(range(probs.shape[0]))),
                        Alphabet(tuple("vwxyz"[:probs.shape[1]])), probs)

    @staticmethod
    def _exact_pairs(law, n):
        pmf = {}
        for counts in typesum.type_blocks(n, law.probs.size):
            mat = counts.reshape(len(counts), *law.probs.shape)
            probs = np.exp(typesum.log_type_class_prob(counts, law.probs.ravel()))
            for c_u, c_v, prob in zip(mat.sum(axis=2), mat.sum(axis=1), probs):
                key = (*c_u, *c_v)
                pmf[key] = pmf.get(key, 0.0) + prob
        return pmf

    def _sampled_pairs(self, law, n, monkeypatch, mu=1.0, p_v=None):
        """The pair frequencies of the trials that reach the V test, and
        their number. A silent encoder with a positive branch factor sends
        every trial the letters leave on to it; the two predicates record
        the engine's counts."""
        c_u, c_v = [], []
        real_v_typical = sim._v_typical

        def silent(cfg, t_u, p_u, pbar):
            c_u.append(np.rint(t_u * n).astype(int))
            return np.zeros(len(t_u), dtype=bool)

        def v_typical(cfg, counts, p_v, n):
            c_v.append(counts)
            return real_v_typical(cfg, counts, p_v, n)

        monkeypatch.setattr(sim, "_transmits", silent)
        monkeypatch.setattr(sim, "_v_typical", v_typical)
        cfg = sim.SchemeConfig(scheme="B", mu=mu, x1="1")
        p_u, p_v = law.row_marginal(), law.col_marginal() if p_v is None else p_v
        sim._trial_chunk(cfg, law, p_u, p_v, n, None, np.array([True, True]), self.M, (0, 0, 0))
        pairs = np.concatenate([np.concatenate(c_u), np.concatenate(c_v)], axis=1)
        keys, freq = np.unique(pairs, axis=0, return_counts=True)
        total = len(pairs)
        return {tuple(int(c) for c in key): f / total for key, f in zip(keys, freq)}, total

    @staticmethod
    def _assert_close(sampled, exact, trials):
        assert set(sampled) <= {key for key, prob in exact.items() if prob > 0}
        p = np.array(list(exact.values()))
        assert math.isclose(p.sum(), 1.0, rel_tol=1e-12)
        tv = 0.5 * sum(abs(sampled.get(key, 0.0) - prob) for key, prob in exact.items())
        tol = 0.5 * np.sqrt(p * (1 - p) / trials).sum() + math.sqrt(math.log(1e9) / (2 * trials))
        assert tv <= tol

    @LAWS
    def test_pair_frequencies_match_the_exact_law(self, probs, monkeypatch):
        n = 5
        law = self._law(probs)
        sampled, trials = self._sampled_pairs(law, n, monkeypatch)
        assert trials == self.M
        self._assert_close(sampled, self._exact_pairs(law, n), trials)

    @LAWS
    def test_v_first_pair_frequencies_match_the_exact_law(self, probs, monkeypatch):
        # every law is typical for its own V marginal, so the order is forced;
        # at mu = 1 no letter prunes
        n = 5
        law = self._law(probs)
        monkeypatch.setattr(sim, "_v_first", lambda cfg, law, p_v: True)
        sampled, trials = self._sampled_pairs(law, n, monkeypatch)
        assert trials == self.M
        self._assert_close(sampled, self._exact_pairs(law, n), trials)

    def test_pruned_pairs_match_the_law_given_typical_v(self, monkeypatch):
        # LAW3 draws V first by the engine's own rule; at n = 5 the typical V
        # counts are (1, 2, 2) and (0, 3, 2)
        n, mu, law, p_v = 5, 0.17, LAW3, P3_V
        sampled, trials = self._sampled_pairs(law, n, monkeypatch, mu=mu, p_v=p_v)
        exact = {key: prob for key, prob in self._exact_pairs(law, n).items()
                 if typical(np.array(key[2:]) / n, p_v.probs, mu)}
        p_typical = sum(exact.values())
        assert {key[2:] for key in exact} == {(1, 2, 2), (0, 3, 2)}
        # the letters leave Bin(M, Pr[T_V typical]) trials (Hoeffding, 1e-9)
        assert abs(trials / self.M - p_typical) <= math.sqrt(math.log(2e9) / (2 * self.M))
        self._assert_close(sampled, {key: prob / p_typical for key, prob in exact.items()},
                           trials)

    @pytest.mark.parametrize("scheme", ["A", "B"])
    def test_v_first_beta_matches_the_exact_engine(self, example_dmc, partial_dmc, scheme):
        # Q_V = (0.4, 0.6) is atypical for P_V = (0.7, 0.3) at mu = 0.2, so
        # the alternative draws V first; 2.5 Wilson half-widths are about
        # five standard deviations
        cfg, dmc, pbar = TestMonteCarlo._case(scheme, example_dmc, partial_dmc)
        assert sim._v_first(cfg, Q_UV, P_UV.col_marginal())
        mc = sim.run_trials(cfg, P_UV, Q_UV, dmc, 30, 40_000, seed=0, pbar=pbar)
        exact = sim.exact_error_probs(cfg, [cfg.mu], P_UV, Q_UV, dmc, 30, pbar)[0]
        assert abs(mc.beta - exact.beta) <= 2.5 * mc.beta_ci


class TestConditionalMonteCarlo:
    """Monte Carlo weights each decision's V-typical count by its branch
    factor instead of drawing the branch: on the benchmark's exact-sweep-b
    sources, over seeds 0-19 at 20k trials, its alpha and beta scatter less
    than those of the engine that drew the branch (kept as an oracle, on the
    same seeds), and its Wilson intervals at the weighted mean cover the
    exact values."""

    SEEDS, TRIALS = range(20), 20_000

    @pytest.mark.parametrize("n, mu", [(24, 0.08), (36, 0.12)])
    def test_less_scatter_and_covering_intervals(self, n, mu):
        config = ExperimentConfig.load(os.path.join(
            os.path.dirname(__file__), "..", "perfbench", "workloads", "exact-sweep-b.json"))
        p_uv, q_uv = config.source_pmfs()
        dmc, cfg = config.dmc(), config.scheme().replace(mu=mu)
        pbar = expo.pbar_threshold(dmc, cfg.x1)
        exact = sim.exact_error_probs(cfg, [mu], p_uv, q_uv, dmc, n, pbar)[0]
        weighted = [sim.run_trials(cfg, p_uv, q_uv, dmc, n, self.TRIALS, seed, pbar)
                    for seed in self.SEEDS]
        drawn = [oracles.run_trials_branch(cfg, p_uv, q_uv, dmc, n, self.TRIALS, seed, pbar)
                 for seed in self.SEEDS]
        assert np.std([r.alpha for r in weighted]) < np.std([d[0] for d in drawn])
        assert np.std([r.beta for r in weighted]) < np.std([d[1] for d in drawn])
        covered = sum(abs(r.alpha - exact.alpha) <= r.alpha_ci
                      and abs(r.beta - exact.beta) <= r.beta_ci for r in weighted)
        assert covered >= 19


class TestBlockedDraws:
    """The numpy properties the Monte Carlo engine relies on: rows drawn a
    block at a time from one Generator equal one draw of all the rows, for
    each kind of draw the engine makes (a fixed pmf, in multinomial and
    binomial draws; an array of counts with one pmf per count, the second
    marginal's draw; an array of counts with one probability, a V letter's
    draw). The engine that drew the branch, kept as a test oracle, also drew
    one pmf row per trial (scheme B's outputs) on a generator of its own. If
    a numpy release breaks one, seeded results start to depend on
    BLOCK_TRIALS."""

    P16 = np.arange(1, 17) / np.arange(1, 17).sum()
    COND = np.array([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25], [0.7, 0.0, 0.2, 0.1]])
    Y_ROWS = np.array([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])

    @staticmethod
    def _sliced(draw, m, block=999):
        return np.concatenate([draw(slice(lo, min(lo + block, m))) for lo in range(0, m, block)])

    @classmethod
    def _blocked(cls, draw, m, block=999):
        return cls._sliced(lambda blk: draw(blk.stop - blk.start), m, block)

    def test_multinomial(self):
        whole = np.random.default_rng([7, 0, 1]).multinomial(100, self.P16, size=10_000)
        rng = np.random.default_rng([7, 0, 1])
        blocked = self._blocked(lambda size: rng.multinomial(100, self.P16, size=size), 10_000)
        assert np.array_equal(whole, blocked)

    # numpy draws by inversion for n p <= 30 and by BTPE above
    @pytest.mark.parametrize("k, p", [(20, 0.2), (400, 0.3)])
    def test_binomial(self, k, p):
        whole = np.random.default_rng([7, 1, 0]).binomial(k, p, size=10_000)
        rng = np.random.default_rng([7, 1, 0])
        blocked = self._blocked(lambda size: rng.binomial(k, p, size=size), 10_000)
        assert np.array_equal(whole, blocked)

    @pytest.mark.parametrize("k, p", [(20, 0.2), (400, 0.3)])
    def test_binomial_with_an_array_of_counts(self, k, p):
        # a V letter drawn V first: Bin(remaining, p) for each trial left,
        # where some trials have no count left
        counts = np.random.default_rng(5).integers(0, k + 1, size=10_000)
        counts[::7] = 0
        whole = np.random.default_rng([7, 0, 1, 0, 2]).binomial(counts, p)
        rng = np.random.default_rng([7, 0, 1, 0, 2])
        blocked = self._sliced(lambda blk: rng.binomial(counts[blk], p), 10_000)
        assert np.array_equal(whole, blocked)

    def test_multinomial_with_an_array_of_counts(self):
        # the V draw: row i of COND for count i of each trial's U counts
        c_u = np.random.default_rng(5).multinomial(300, [0.5, 0.3, 0.2], size=10_000)
        whole = np.random.default_rng([7, 0, 1, 2]).multinomial(c_u, self.COND)
        rng = np.random.default_rng([7, 0, 1, 2])
        blocked = self._sliced(lambda blk: rng.multinomial(c_u[blk], self.COND), 10_000)
        assert whole.shape == (10_000, 3, 4)
        assert np.array_equal(whole, blocked)

    def test_multinomial_with_a_pmf_row_per_trial(self):
        # the branch-drawing oracle's scheme B outputs: the silent or the
        # active row for each trial
        rows = self.Y_ROWS[(np.arange(10_000) % 3 == 0).astype(np.intp)]
        whole = np.random.default_rng([7, 0, 1, 1]).multinomial(60, rows)
        rng = np.random.default_rng([7, 0, 1, 1])
        blocked = self._sliced(lambda blk: rng.multinomial(60, rows[blk]), 10_000)
        assert np.array_equal(whole, blocked)

    def test_scheme_b_order(self):
        # the branch-drawing oracle's three stages on their own generators:
        # sources; an output row per trial, by its encoder decision; V counts
        # for the trials whose outputs are typical
        def draw(block):
            rng_u, rng_y, rng_v = (np.random.default_rng([7, 0, 0, stage]) for stage in range(3))
            sources, outputs, v_counts = [], [], []
            for lo in range(0, 5_000, block):
                c_u = rng_u.multinomial(60, [0.5, 0.3, 0.2], size=min(block, 5_000 - lo))
                c_y = rng_y.multinomial(60, self.Y_ROWS[(c_u[:, 2] > 12).astype(np.intp)])
                live = c_y[:, 0] > 20
                sources.append(c_u)
                outputs.append(c_y)
                v_counts.append(rng_v.multinomial(c_u[live], self.COND))
            return [np.concatenate(parts) for parts in (sources, outputs, v_counts)]

        whole, blocked = draw(5_000), draw(999)
        assert 999 < len(whole[2]) < 4_001  # the V draw spans several blocks
        for a, b in zip(whole, blocked):
            assert np.array_equal(a, b)


class TestEmpiricalExponent:
    def test_recovers_synthetic_slope(self):
        ns = [50, 100, 150, 200, 250]
        betas = [2.0 ** (-0.3 * n) for n in ns]
        fit = sim.empirical_exponent(ns, betas=betas)
        assert fit.slope_bits == pytest.approx(0.3, abs=1e-9)
        assert fit.exponents_bits == pytest.approx([0.3] * 5)
        assert fit.monotone_increasing
        assert fit.excluded_ns == ()

    def test_zero_betas_excluded(self):
        fit = sim.empirical_exponent([10, 20, 30, 40], betas=[0.5, 0.0, 0.1, 0.02])
        assert fit.excluded_ns == (20,)
        assert len(fit.ns) == 3

    def test_log_beta_input(self):
        ns = [100, 200, 300]
        log_betas = [-0.2 * n for n in ns]
        fit = sim.empirical_exponent(ns, log_betas=log_betas)
        assert fit.slope_bits == pytest.approx(0.2 / math.log(2), abs=1e-9)

    def test_needs_three_points(self):
        with pytest.raises(DegenerateInput):
            sim.empirical_exponent([10, 20], betas=[0.1, 0.01])
        with pytest.raises(ValueError):
            sim.empirical_exponent([10, 20, 30])

    def test_non_monotone_flagged(self):
        fit = sim.empirical_exponent([10, 20, 30], betas=[1e-3, 1e-4, 1e-4])
        assert not fit.monotone_increasing

    @pytest.mark.parametrize("exponents, direction", [
        ([0.3, 0.4, 0.4], "increasing"),
        ([0.9, 0.6, 0.5], "decreasing"),
        ([0.5, 0.5, 0.4], "decreasing"),
        ([0.3, 0.5, 0.4], "not monotone"),
    ])
    def test_direction_names_the_trend(self, exponents, direction):
        ns = [10, 20, 30]
        fit = sim.empirical_exponent(ns, log_betas=[-e * n * math.log(2) for e, n in zip(exponents, ns)])
        assert fit.direction == direction
        assert fit.monotone_increasing == (direction == "increasing")
