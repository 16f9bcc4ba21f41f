import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import covertdht.exponents as expo
import covertdht.simulation as sim
import covertdht.typesum as typesum
import oracles
from covertdht import Dmc
from covertdht.errors import AlphabetTooLarge, ConfigMismatch, DegenerateInput
from covertdht.probability import Alphabet, JointPmf, Pmf, SymbolSequence

X2 = Alphabet(("0", "1"))

# small two-sided source pair for brute-force checks (V is informative here)
U2 = Alphabet((0, 1))
V2 = Alphabet(("x", "y"))
P_UV = JointPmf(U2, V2, np.array([[0.5, 0.1], [0.2, 0.2]]))
Q_UV = JointPmf(U2, V2, np.array([[0.1, 0.2], [0.3, 0.4]]))


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
    def test_scheme_a_silent_when_typical(self, partial_dmc):
        cfg = sim.SchemeConfig(scheme="A", mu=0.05, x_hat="1", y_star="1")
        p_u = Pmf(U2, np.array([0.8, 0.2]))
        u_alpha = Alphabet((0, 1))
        typical = SymbolSequence(u_alpha, np.array([1, 0, 0, 0, 0] * 20))
        # the encoder's input alphabet must match the source alphabet used
        x = sim.encode_scheme_A(typical, cfg, Pmf(u_alpha, np.array([0.8, 0.2])), partial_dmc)
        assert x.hamming_weight(partial_dmc.zero_index) == 0
        atypical = SymbolSequence(u_alpha, np.array([1, 1, 0, 0, 0] * 20))
        x = sim.encode_scheme_A(atypical, cfg, Pmf(u_alpha, np.array([0.8, 0.2])), partial_dmc)
        k = cfg.k(100)
        assert x.hamming_weight(partial_dmc.zero_index) == k
        assert np.all(x.data[:k] == partial_dmc.input_alphabet.index("1"))
        assert np.all(x.data[k:] == partial_dmc.zero_index)

    def test_scheme_b_codeword_when_threshold_crossed(self, example_dmc, example_p_u):
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.05, x1="1")
        u_alpha = example_p_u.alphabet
        near_null = SymbolSequence(u_alpha, np.array([1, 0, 0, 0, 0] * 8))
        x = sim.encode_scheme_B(near_null, cfg, example_p_u, pbar, example_dmc)
        assert x.hamming_weight(example_dmc.zero_index) == 0
        far = SymbolSequence(u_alpha, np.array([1, 1, 1, 0, 0] * 8))
        x = sim.encode_scheme_B(far, cfg, example_p_u, pbar, example_dmc)
        assert x.hamming_weight(example_dmc.zero_index) == len(far)

    def test_scheme_a_decision_scans_burst_only(self, partial_dmc):
        cfg = sim.SchemeConfig(scheme="A", mu=0.4, x_hat="1", y_star="1")
        v = SymbolSequence(Alphabet(("c",)), np.zeros(100, dtype=np.int64))
        p_v = Pmf(Alphabet(("c",)), np.array([1.0]))
        k = cfg.k(100)
        marker_late = np.zeros(100, dtype=np.int64)
        marker_late[k] = 1  # just outside the scan window
        y = SymbolSequence(partial_dmc.y_alphabet, marker_late)
        assert sim.decide_scheme_A(v, y, cfg, p_v, partial_dmc) == 1
        marker_in = np.zeros(100, dtype=np.int64)
        marker_in[k - 1] = 1
        y = SymbolSequence(partial_dmc.y_alphabet, marker_in)
        assert sim.decide_scheme_A(v, y, cfg, p_v, partial_dmc) == 0


def _typical_counts(seq, probs, mu, size):
    """Strong typicality of a sequence in exact rational arithmetic."""
    n = len(seq)
    for a in range(size):
        c, p = Fraction(seq.count(a), n), Fraction(probs[a])
        if (p == 0 and c > 0) or abs(c - p) > Fraction(mu):
            return False
    return True


class TestDecideSchemeB:
    Y3 = Alphabet(("0", "1", "2"))
    V3 = Alphabet(("a", "b", "c"))

    def _setup(self):
        # the zero-input row has a zero, so the support rule is exercised; all
        # probabilities and mu are dyadic, so the closed boundary |t - p| = mu
        # is reached exactly in floating point
        dmc = Dmc(X2, self.Y3, X2, [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]],
                  [[0.6, 0.4], [0.4, 0.6]], "0")
        p_v = Pmf(self.V3, np.array([0.5, 0.25, 0.25]))
        return dmc, p_v, sim.SchemeConfig(scheme="B", mu=0.25, x1="1")

    def test_matches_brute_force_typicality(self):
        dmc, p_v, cfg = self._setup()
        n = 4
        ref_y = dmc.y_row("0").probs
        seqs = list(itertools.product(range(3), repeat=n))
        decisions = {}
        for v in seqs:
            v_seq = SymbolSequence(self.V3, np.array(v))
            v_typ = _typical_counts(v, p_v.probs, cfg.mu, 3)
            for y in seqs:
                got = sim.decide_scheme_B(v_seq, SymbolSequence(self.Y3, np.array(y)),
                                          cfg, p_v, dmc)
                want = 0 if v_typ and _typical_counts(y, ref_y, cfg.mu, 3) else 1
                assert got == want, (v, y)
                decisions[(v_typ, want)] = decisions.get((v_typ, want), 0) + 1
        # every branch occurs: accept, reject on V, reject on Y alone
        assert set(decisions) == {(True, 0), (True, 1), (False, 1)}

    def test_length_mismatch(self):
        dmc, p_v, cfg = self._setup()
        v = SymbolSequence(self.V3, np.zeros(4, dtype=np.int64))
        y = SymbolSequence(self.Y3, np.zeros(5, dtype=np.int64))
        with pytest.raises(ConfigMismatch):
            sim.decide_scheme_B(v, y, cfg, p_v, dmc)


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
        alpha, beta = sim.exact_error_probs(cfg, P_UV, Q_UV, example_dmc, n, pbar)
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
        alpha, beta = sim.exact_error_probs(cfg, p_uv, q_uv, example_dmc, 5, pbar)
        want_a, want_b = brute_force_error_probs(cfg, p_uv, q_uv, example_dmc, 5, pbar)
        assert alpha == pytest.approx(want_a, rel=1e-10)
        assert beta == pytest.approx(want_b, rel=1e-10)

    def test_output_typicality_once_per_cell(self, example_dmc, monkeypatch):
        # Pr[Y^n typical] per codeword depends on neither hypothesis: one
        # enumeration per codeword serves alpha and beta, and a cell the
        # joint lattice cap refuses enumerates none
        calls = []
        y_typical = sim._log_prob_y_typical

        def counted(dmc, x_symbol, n, mu):
            calls.append(x_symbol)
            return y_typical(dmc, x_symbol, n, mu)

        monkeypatch.setattr(sim, "_log_prob_y_typical", counted)
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.2, x1="1")
        sim.exact_error_probs(cfg, P_UV, Q_UV, example_dmc, 6, pbar)
        assert sorted(calls) == ["0", "1"]
        calls.clear()
        with pytest.raises(AlphabetTooLarge):
            sim.exact_error_probs(cfg, P_UV, Q_UV, example_dmc, 2000, pbar)
        assert calls == []

    def test_scheme_a_matches_brute_force(self, partial_dmc):
        cfg = sim.SchemeConfig(scheme="A", mu=0.2, x_hat="1", y_star="1")
        n = 6
        alpha, beta = sim.exact_error_probs(cfg, P_UV, Q_UV, partial_dmc, n)
        want_a, want_b = brute_force_error_probs(cfg, P_UV, Q_UV, partial_dmc, n)
        assert alpha == pytest.approx(want_a, rel=1e-10)
        assert beta == pytest.approx(want_b, rel=1e-10)

    def test_log_beta_consistent(self, example_sources, example_dmc):
        p_uv, q_uv = example_sources
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.02, x1="1")
        _, beta = sim.exact_error_probs(cfg, p_uv, q_uv, example_dmc, 50, pbar)
        lb = sim.exact_log_beta(cfg, p_uv, q_uv, example_dmc, 50, pbar)
        assert lb == pytest.approx(math.log(beta), rel=1e-12)

    def test_weight_stats_reflect_transmission_prob(self, example_sources, example_dmc):
        p_uv, _ = example_sources
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.02, x1="1")
        w, a_bar = sim.exact_weight_stats(cfg, p_uv, 60, pbar)
        assert 0.0 < w < 1.0
        assert a_bar == pytest.approx(math.sqrt(w))
        with pytest.raises(ConfigMismatch):
            sim.exact_weight_stats(cfg, p_uv, 60)


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


class TestExactEngineAgainstLoop:
    """The batched exact engine against the per-type loop it replaced, at
    2, 3 and 4 joint source cells and 2, 3 and 4 decision-center outputs."""

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(typesum, "BLOCK_ROWS", 16)  # several blocks per sum

    @pytest.mark.parametrize("du, dv", [(2, 1), (3, 1), (1, 3), (2, 2)])
    @pytest.mark.parametrize("y_size", [2, 3, 4])
    def test_scheme_b(self, du, dv, y_size):
        dmc = _dmc_with_outputs(y_size)
        pbar = expo.PbarSet(x1="1", tau_nats=0.05, maximizer=dmc.z_row("1"))
        cfg = sim.SchemeConfig(scheme="B", mu=0.2, x1="1")
        self._compare(cfg, dmc, du, dv, pbar)

    @pytest.mark.parametrize("du, dv", [(2, 1), (3, 1), (1, 3), (2, 2)])
    def test_scheme_a(self, partial_dmc, du, dv):
        cfg = sim.SchemeConfig(scheme="A", mu=0.2, x_hat="1", y_star="1")
        self._compare(cfg, partial_dmc, du, dv, None)

    def _compare(self, cfg, dmc, du, dv, pbar):
        p_uv, q_uv = _source_pair(du, dv, seed=du * 10 + dv)
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        tau = pbar.tau_nats if pbar is not None else None
        for n in (1, 5, 11):
            (want_h0, p_active), (want_h1, _) = (
                oracles.log_accept_prob(cfg, law.probs, p_u.probs, p_v.probs, dmc, n, tau)
                for law in (p_uv, q_uv)
            )
            got = sim._log_accept_probs(cfg, (p_uv, q_uv), p_u, p_v, dmc, n, pbar)
            for got, want in zip(got, (want_h0, want_h1)):
                assert got == want or math.isclose(got, want, rel_tol=1e-12)
            # the weight stats take delta_n from the U-type lattice alone; the
            # oracle sums the transmission probability over joint types
            frac = p_active * (cfg.k(n) if cfg.scheme == "A" else n) / n
            w, a_bar = sim.exact_weight_stats(cfg, p_uv, n, pbar)
            assert math.isclose(w, frac, rel_tol=1e-12)
            assert math.isclose(a_bar, math.sqrt(frac), rel_tol=1e-12)


class TestMonteCarlo:
    def test_deterministic_given_seed(self, example_sources, example_dmc):
        p_uv, q_uv = example_sources
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.02, x1="1")
        r1 = sim.run_trials(cfg, p_uv, q_uv, example_dmc, 40, 50_000, seed=3, pbar=pbar)
        r2 = sim.run_trials(cfg, p_uv, q_uv, example_dmc, 40, 50_000, seed=3, pbar=pbar)
        assert r1 == r2
        r3 = sim.run_trials(cfg, p_uv, q_uv, example_dmc, 40, 50_000, seed=4, pbar=pbar)
        assert (r3.alpha, r3.beta) != (r1.alpha, r1.beta)

    def test_chunking_does_not_change_results(self, example_sources, example_dmc):
        p_uv, q_uv = example_sources
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.02, x1="1")
        whole = sim.run_trials(cfg, p_uv, q_uv, example_dmc, 40, 60_000, seed=3, pbar=pbar)
        split = sim.run_trials(
            cfg, p_uv, q_uv, example_dmc, 40, 60_000, seed=3, pbar=pbar, chunk=7_000
        )
        # chunking changes the RNG stream, not the statistics
        assert abs(whole.alpha - split.alpha) <= whole.alpha_ci + split.alpha_ci

    def test_rule_of_three_flag(self, example_sources, partial_dmc):
        p_uv, q_uv = example_sources
        # beta is ~1e-21 exactly here, so no misses are ever observed
        cfg = sim.SchemeConfig(scheme="A", mu=0.05, x_hat="1", y_star="1")
        res = sim.run_trials(cfg, p_uv, q_uv, partial_dmc, 100, 10_000, seed=0)
        assert res.beta_is_upper_bound
        assert res.beta == pytest.approx(3.0 / 10_000)

    def test_trials_validation(self, example_sources, example_dmc):
        p_uv, q_uv = example_sources
        cfg = sim.SchemeConfig(scheme="B", mu=0.02, x1="1")
        with pytest.raises(ValueError):
            sim.run_trials(cfg, p_uv, q_uv, example_dmc, 40, 0, seed=1)


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
