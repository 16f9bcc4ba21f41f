import glob
import itertools
import logging
import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

import covertdht.exponents as expo
import covertdht.simulation as sim
import covertdht.typesum as typesum
import oracles
from covertdht import Dmc
from covertdht.config import ExperimentConfig
from covertdht.errors import AlphabetTooLarge, ConfigMismatch, DegenerateInput
from covertdht.probability import Alphabet, JointPmf, Pmf, typical, typical_letters

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
    """The encoder rule ``_encoder`` on the U counts of one block."""

    def test_scheme_a_silent_when_typical(self, example_p_u):
        cfg = sim.SchemeConfig(scheme="A", mu=0.05, x_hat="1", y_star="1")
        # U counts (80, 20) match P_U = (0.8, 0.2); (60, 40) is 0.2 off
        active = sim._encoder(cfg, example_p_u, 100, None)[0](np.array([[80, 20], [60, 40]]))
        assert active.tolist() == [False, True]

    def test_scheme_b_codeword_when_threshold_crossed(self, example_dmc, example_p_u):
        pbar = expo.pbar_threshold(example_dmc, "1")
        cfg = sim.SchemeConfig(scheme="B", mu=0.05, x1="1")
        active = sim._encoder(cfg, example_p_u, 40, pbar)[0](np.array([[32, 8], [16, 24]]))
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
        # types whose U counts the encoder rule marks active on the whole lattice
        p_uv, _ = _source_pair(3, 2, seed=32)
        p_u = p_uv.row_marginal()
        pbar = expo.PbarSet(x1="1", tau_nats=0.05, maximizer=p_u)
        cfg = (sim.SchemeConfig(scheme="B", mu=0.2, x1="1") if scheme == "B"
               else sim.SchemeConfig(scheme="A", mu=0.2, x_hat="1", y_star="1"))
        deltas = []
        for n in (1, 5, 11):
            parts = []
            transmits = sim._encoder(cfg, p_u, n, pbar)[0]
            tables = typesum.class_tables(p_uv.probs.ravel()[None], n)
            for counts in oracles.type_blocks(n, 6):
                active = transmits(counts.reshape(len(counts), 3, 2).sum(axis=2))
                [lp] = typesum.log_class_probs(tables, counts[active])
                parts.append(typesum.logsumexp(lp))
            want = math.exp(typesum.logsumexp(parts))
            got = sim.transmit_probability(cfg, p_u, n, pbar)
            assert math.isclose(got, want, rel_tol=1e-12)
            deltas.append(got)
        assert 0.0 < min(deltas) and max(deltas[1:]) < 1.0  # both decisions occur


class TestSchemeADelta:
    """Scheme A's delta_n from the box chain, summed over the first letter
    out of its mu-box, against the U lattice on the row path."""

    # |U| = 2-4, one P_U with a zero letter (its box is {0}, never left)
    P_US = [np.array([0.75, 0.25]), np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.0, 0.4]),
            np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.25, 0.25, 0.0, 0.5])]

    @pytest.mark.parametrize("probs", P_US, ids=lambda p: "-".join(map(str, p)))
    def test_equals_the_lattice(self, probs):
        rng = np.random.default_rng(len(probs))
        p_u = Pmf(Alphabet(tuple(range(len(probs)))), probs)
        ns = (1, 2, 9, 40, 150) + ((400,) if len(probs) < 4 else ())
        for n in ns:
            for mu in (_box_edge(probs, n), float(rng.uniform(0.01, 0.3)), 1.0):
                cfg = sim.SchemeConfig(scheme="A", mu=mu, x_hat="1", y_star="1")
                got = sim.transmit_probability(cfg, p_u, n)
                want = oracles.transmit_probability_rows(cfg, p_u, n)
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (n, mu, got, want)

    def test_needs_no_type_lattice(self, monkeypatch):
        # mc-sweep-a's P_U (|U| = 4) at mu = 0.06: 10.8 M U types at n = 400,
        # past the real cap, and none allowed here; scheme B's delta_n, by
        # rows, needs no cap either
        monkeypatch.setattr(typesum, "MAX_TYPES", 1)
        probs = np.array([0.2, 0.25, 0.28, 0.27])
        p_u = Pmf(Alphabet(tuple(range(4))), probs)
        cfg = sim.SchemeConfig(scheme="A", mu=0.06, x_hat="1", y_star="2")
        for n, want in ((100, 0.4259674323048), (200, 0.1550390148306), (400, 0.0200541278299)):
            assert math.isclose(sim.transmit_probability(cfg, p_u, n), want, rel_tol=1e-12)
        pbar = expo.PbarSet(x1="1", tau_nats=0.05, maximizer=p_u)
        cfg = sim.SchemeConfig(scheme="B", x1="1")
        delta = sim.transmit_probability(cfg, p_u, 100, pbar)
        monkeypatch.undo()
        [want] = oracles.log_prob_type_event(probs[None], 100, sim._encoder(cfg, p_u, 100, pbar)[0])
        assert math.isclose(delta, math.exp(want), rel_tol=1e-12)



class TestSchemeAEvents:
    """Scheme A's decisions as the events Monte Carlo draws inside, under a
    law's U marginal: the silent one, T_U in P_U's mu-box
    (``typesum.BoxChain``), and the active one, its complement
    (``typesum.BoxComplement``). Their probabilities are the enumerated ones
    and delta_n's to 1e-12 relative, and M = 50,000 draws (``sample``)
    follow the law of T_U given the event, enumerated one type at a time
    (``oracles.conditional_type_law``), to the chi-square quantile at
    1 - 1e-6 (cells expected below 5 pooled)."""

    M = 50_000

    @staticmethod
    def _events(laws, p_u, n, mu):
        """(silent, active) on the U marginals of ``laws``, as Monte Carlo
        builds them."""
        marginals = np.stack([law.probs.sum(axis=1) for law in laws])
        box = sim._mu_box(p_u.probs, n, mu)
        return typesum.BoxChain(marginals, n, box), typesum.BoxComplement(marginals, n, box)

    @pytest.mark.parametrize("probs", TestSchemeADelta.P_US, ids=lambda p: "-".join(map(str, p)))
    def test_draws_follow_the_law_given_the_decision(self, probs):
        rng = np.random.default_rng(len(probs))
        d = len(probs)
        p_u = Pmf(Alphabet(tuple(range(d))), probs)
        # under the null and under a law of its own, zero letters included
        other = rng.dirichlet(np.ones(d))
        other[d // 2] = 0.0
        laws = [JointPmf(p_u.alphabet, Alphabet(("v",)), np.array(law)[:, None] / sum(law))
                for law in (probs, other)]
        for n, mu in ((7, 0.2), (20, 0.1), (30 if d < 4 else 24, _box_edge(probs, 12))):
            cfg = sim.SchemeConfig(scheme="A", mu=mu, x_hat="1", y_star="1")
            events = self._events(laws, p_u, n, mu)
            delta = sim.transmit_probability(cfg, p_u, n)
            assert math.exp(events[1].log_probs[0]) == pytest.approx(delta, rel=1e-12, abs=0.0)
            for i, law in enumerate(laws):
                marginal = law.probs[:, 0]
                for active, event in enumerate(events):
                    want, log_prob = oracles.conditional_type_law(
                        marginal, n, lambda c: oracles.is_typical(c / n, probs, mu) != active)
                    assert event.log_probs[i] == pytest.approx(log_prob, rel=1e-12, abs=1e-12)
                    if log_prob == -math.inf:
                        continue
                    draws = event.sample(i, self.M, np.random.default_rng([n, i, active]))
                    assert draws.shape == (self.M, d) and (draws.sum(axis=1) == n).all()
                    stat, df = oracles.chi_square(draws, want)
                    assert stat <= chi2.isf(1e-6, df), (n, mu, i, active, stat, df)

    def test_silent_event_is_the_box_chain(self):
        probs = np.array([0.2, 0.25, 0.28, 0.27])
        p_u = Pmf(Alphabet(tuple(range(4))), probs)
        law = JointPmf(p_u.alphabet, Alphabet(("v",)), probs[:, None])
        cfg = sim.SchemeConfig(scheme="A", mu=0.06, x_hat="1", y_star="2")
        for n in (100, 400):
            silent, active = self._events([law], p_u, n, 0.06)
            assert silent.log_probs == typesum.BoxChain(
                probs[None], n, sim._mu_box(probs, n, 0.06)).log_probs
            assert math.exp(active.log_probs[0]) == pytest.approx(
                sim.transmit_probability(cfg, p_u, n), rel=1e-12, abs=0.0)
            assert -math.expm1(silent.log_probs[0]) == pytest.approx(
                math.exp(active.log_probs[0]), rel=1e-9)


def _typical_exact(counts, probs, mu):
    """Strong typicality of a count vector in exact rational arithmetic."""
    n = sum(counts)
    for c, p in zip(counts, probs):
        t, p = Fraction(int(c), n), Fraction(p)
        if (p == 0 and t > 0) or abs(t - p) > Fraction(mu):
            return False
    return True


class TestDecideSchemeB:
    """The encoder rule and the V test on the marginal counts of every
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
            active = sim._encoder(cfg, p_u, n, pbar)[0](cu)
            accept_v = sim._in_box(sim._mu_box(p_v.probs, n, mu))(cv)
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
        # per n, the joint lattice (4 cells) alone: its walk gives delta_n too
        assert sorted(walks) == [(n, 4) for n in (6, 8)]
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
            [(got_h0, got_h1, log_delta)] = sim._log_accept_probs([cfg], p_uv, q_uv, dmc, n, pbar)
            for got, want in ((got_h0, want_h0), (got_h1, want_h1)):
                assert got == want or math.isclose(got, want, rel_tol=1e-12)
            assert math.isclose(math.exp(log_delta), p_active, rel_tol=1e-12)
            # the weight stats take delta_n from the engine's joint walk, the
            # oracle's from one Python iteration per joint type
            frac = p_active * (cfg.k(n) if cfg.scheme == "A" else n) / n
            res = sim.exact_error_probs(cfg, [cfg.mu], p_uv, q_uv, dmc, n, pbar)[0]
            w, a_bar = res.weight_mean, res.a_bar
            assert math.isclose(w, frac, rel_tol=1e-12)
            assert math.isclose(a_bar, math.sqrt(frac), rel_tol=1e-12)


def test_walk_delta_is_transmit_probability_on_golden_cells():
    # delta_n from the exact engine's joint walk against transmit_probability
    # (scheme A's box complement, scheme B's rows of binomial tails), on
    # every cell of the golden sweeps and the benchmark workloads whose joint
    # lattice the walk reaches
    root = os.path.join(os.path.dirname(__file__), "..")
    paths = [*sorted(glob.glob(os.path.join(root, "tests", "golden", "*.json"))),
             *sorted(glob.glob(os.path.join(root, "perfbench", "workloads", "*.json")))]
    schemes = set()
    for path in paths:
        config = ExperimentConfig.load(path)
        p_uv, q_uv = config.source_pmfs()
        dmc, cfg, sweep = config.dmc(), config.scheme(), config.sweep()
        pbar = expo.pbar_threshold(dmc, cfg.x1) if cfg.scheme == "B" else None
        cfgs = [cfg.replace(mu=mu) for mu in sweep["mu_grid"] or [cfg.mu]]
        for n in sweep["n_grid"]:
            if typesum.num_types(n, p_uv.probs.size) > typesum.MAX_TYPES:
                continue
            walk = sim._log_accept_probs(cfgs, p_uv, q_uv, dmc, n, pbar)
            for c, (_, _, log_delta) in zip(cfgs, walk, strict=True):
                delta = sim.transmit_probability(c, p_uv.row_marginal(), n, pbar)
                assert math.isclose(math.exp(log_delta), delta, rel_tol=1e-12), (path, n, c.mu)
                schemes.add(c.scheme)
    assert schemes == {"A", "B"}


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
            walk = sim._log_accept_probs(cfgs, p_uv, q_uv, dmc, n, pbar)
            # the accept probabilities bit for bit; delta_n, which the walk
            # sums by band rows and the oracle by types, to rel 1e-12
            assert [got[:2] for got in walk] == [w[:2] for w in want]
            for got, w in zip(walk, want):
                assert math.isclose(math.exp(got[2]), math.exp(w[2]), rel_tol=1e-12)
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
        # Q_U = (0, 1) is never typical for P_U = (0.8, 0.2), so every
        # alternative trial is active and scheme A never accepts one: beta
        # is 0 exactly. The alternative counts its silent trials, whose
        # event has probability 0, so it draws none (M = 0)
        p_uv, _ = example_sources
        q_uv = JointPmf(p_uv.row_alphabet, p_uv.col_alphabet, np.array([[0.0], [1.0]]))
        cfg = sim.SchemeConfig(scheme="A", mu=0.05, x_hat="1", y_star="1")
        res = sim.run_trials(cfg, p_uv, q_uv, partial_dmc, 100, 10_000, seed=0)
        assert sim.exact_error_probs(cfg, [cfg.mu], p_uv, q_uv, partial_dmc, 100)[0].beta == 0.0
        assert res.beta_is_upper_bound
        assert res.beta == pytest.approx(3.0 / 10_000)

    def test_rare_silent_event_gives_the_exact_beta(self, example_sources, partial_dmc):
        # beta is ~3e-21 here, f_silent Pr_Q[T_U typical]: the alternative
        # counts its silent trials and draws them inside the U box, whose
        # probability is exact; one trial is drawn, V has one letter, so it
        # is V-typical and the estimate is beta itself
        p_uv, q_uv = example_sources
        cfg = sim.SchemeConfig(scheme="A", mu=0.05, x_hat="1", y_star="1")
        res = sim.run_trials(cfg, p_uv, q_uv, partial_dmc, 100, 10_000, seed=0)
        exact = sim.exact_error_probs(cfg, [cfg.mu], p_uv, q_uv, partial_dmc, 100)[0]
        assert 0.0 < exact.beta < 1e-20
        assert not res.beta_is_upper_bound
        assert res.beta == pytest.approx(exact.beta, rel=1e-9)
        assert res.log_beta == pytest.approx(exact.log_beta, rel=1e-9)

    @pytest.mark.parametrize("scheme, want, every_trial, weighted, drawn", [
        ("B", sim.SimulationResult(
            scheme="B", n=30, mu=0.2, k=None, alpha=0.040954275003917365,
            beta=0.13667195298872026, log_beta=-1.9901717282946907, method="mc",
            alpha_ci=0.002835947988099871, beta_ci=0.004830415603806454, trials=20000,
            seed=11, weight_mean=0.0005, a_bar=0.022360679774997897),
         sim.SimulationResult(
            scheme="B", n=30, mu=0.2, k=None, alpha=0.040954275003917365,
            beta=0.13682043419574785, log_beta=-1.9890859121727547, method="mc",
            alpha_ci=0.002835947988099871, beta_ci=0.004832561874333813, trials=20000,
            seed=11, weight_mean=0.0005, a_bar=0.022360679774997897),
         (0.040694953954329594, 0.13723627951869752, -1.9860511706664234,
          0.002827664996418802, 0.004838562845119437),
         (0.04275, 0.1371, 0.0028924998839409827, 0.00483659784764956)),
        ("A", sim.SimulationResult(
            scheme="A", n=30, mu=0.2, k=6, alpha=0.0548743028831911, beta=0.02189847731545556,
            log_beta=-3.821338173551565, method="mc", alpha_ci=0.0032425190945284746,
            beta_ci=0.0021219942966449884, trials=20000, seed=11,
            weight_mean=0.005096921876534547, a_bar=0.07139272985770012),
         sim.SimulationResult(
            scheme="A", n=30, mu=0.2, k=6, alpha=0.05375664941209867, beta=0.02308359375,
            log_beta=-3.768633141057988, method="mc", alpha_ci=0.003212293139889695,
            beta_ci=0.002174598177184524, trials=20000, seed=11,
            weight_mean=0.0049299999999999995, a_bar=0.07021395872616783),
         (0.05337578125, 0.02308359375, -3.768633141057988, 0.0032019073806225165,
          0.002174598177184524),
         (0.0554, 0.02325, 0.0032566089193636558, 0.0021818672332369164)),
    ], ids=["B", "A"])
    def test_seeded_result_is_pinned(self, example_dmc, partial_dmc, monkeypatch, scheme, want,
                                     every_trial, weighted, drawn):
        # values recorded from an earlier version of the engine: a change to
        # the sampling order or to any decision shows up here bit for bit.
        # On the same seeds, the engine that drew every trial up to the V
        # test gave the record ``every_trial``; the engine that drew V for
        # every trial with a positive branch factor the (alpha, beta, log
        # beta, alpha_ci, beta_ci) of ``weighted``, and the engine that drew
        # the branch the alpha, beta and intervals of ``drawn``. Scheme B's
        # null draws every trial in both engines and keeps its bytes;
        # scheme A's weight statistics are the exact delta_n
        if scheme == "B":
            cfg = sim.SchemeConfig(scheme="B", mu=0.2, x1="1")
            dmc, pbar = example_dmc, expo.pbar_threshold(example_dmc, "1")
        else:
            cfg = sim.SchemeConfig(scheme="A", mu=0.2, x_hat="1", y_star="1")
            dmc, pbar = partial_dmc, None
        monkeypatch.setattr(sim, "CHUNK_TRIALS", 7_000)
        got = sim.run_trials(cfg, P_UV, Q_UV, dmc, 30, 20_000, seed=11, pbar=pbar)
        assert got == want
        args = (cfg, P_UV, Q_UV, dmc, 30, 20_000, 11, pbar)
        old = oracles.run_trials_every_trial(*args, chunk=7_000)
        assert old == every_trial
        if scheme == "B":
            assert (got.alpha, got.alpha_ci, got.weight_mean) == (
                old.alpha, old.alpha_ci, old.weight_mean)
        else:
            exact = sim.exact_error_probs(cfg, [cfg.mu], P_UV, Q_UV, dmc, 30, pbar)[0]
            assert got.weight_mean == pytest.approx(exact.weight_mean, rel=1e-12, abs=0.0)
            assert got.a_bar == pytest.approx(exact.a_bar, rel=1e-12, abs=0.0)
        w = oracles.run_trials_weighted(*args, chunk=7_000)
        assert (w.alpha, w.beta, w.log_beta, w.alpha_ci, w.beta_ci) == weighted
        assert (w.weight_mean, w.a_bar) == (old.weight_mean, old.a_bar)
        assert oracles.run_trials_branch(*args, chunk=7_000) == drawn

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
        # 20,001 trials in chunks of 2,000: every law draws several chunks,
        # more than one per thread at every core count tried (scheme A's
        # null draws its active strata, its alternative the V box; scheme
        # B's null every trial). The smallest block of the lattice also
        # builds each step's term table of the box chain's draws one row at
        # a time
        cfg, dmc, pbar = self._case(scheme, example_dmc, partial_dmc)
        monkeypatch.setattr(sim, "CHUNK_TRIALS", 2_000)
        got = []
        for cores, block in ((1, typesum.BLOCK_ROWS), (3, typesum.BLOCK_ROWS), (3, 1)):
            monkeypatch.setattr(sim, "_usable_cores", lambda cores=cores: cores)
            monkeypatch.setattr(typesum, "BLOCK_ROWS", block)
            got.append(sim.run_trials(cfg, P_UV, Q_UV, dmc, 30, 20_001, seed=11, pbar=pbar))
        assert got[0] == got[1] == got[2]

    def test_worker_error_reaches_the_caller(self, example_dmc, partial_dmc, monkeypatch):
        # two tasks on two threads: the alternative's chunk runs on the worker
        cfg, dmc, pbar = self._case("A", example_dmc, partial_dmc)
        monkeypatch.setattr(sim, "_usable_cores", lambda: 2)
        real = sim._trial_chunk

        def fail_under_h1(law, *args):
            if law is Q_UV:
                raise DegenerateInput("worker failure")
            return real(law, *args)

        monkeypatch.setattr(sim, "_trial_chunk", fail_under_h1)
        with pytest.raises(DegenerateInput, match="worker failure"):
            sim.run_trials(cfg, P_UV, Q_UV, dmc, 30, 1_000, seed=11, pbar=pbar)

    def test_only_the_drawn_decision_draws_v(self, example_dmc, partial_dmc):
        # scheme A's null draws its trials inside the decision d it counts,
        # whichever d is, so every trial takes d and draws V; scheme B's
        # draws every trial, and only those of decision d draw V. The count
        # of V-typical trials is taken among those that draw V
        rows = []
        p_u, p_v = P_UV.row_marginal(), P_UV.col_marginal()
        events = TestSchemeAEvents._events(
            [P_UV], p_u, 30, self._case("A", example_dmc, partial_dmc)[0].mu)
        for scheme, drawn in itertools.product("AB", (True, False)):
            cfg, _, pbar = self._case(scheme, example_dmc, partial_dmc)
            event = sim._Event("all", None, 0) if scheme == "B" else sim._Event(
                ("silent", "active")[drawn], events[drawn], 0)
            assert not sim._v_first(cfg, P_UV, p_v) and not event.v_first
            rows.clear()
            real_v_typical = sim._in_box(sim._mu_box(p_v.probs, 30, cfg.mu))

            def v_typical(counts):
                rows.append(len(counts))
                return real_v_typical(counts)

            transmits = sim._encoder(cfg, p_u, 30, pbar)[0]
            hits, active = sim._trial_chunk(P_UV, 30, transmits, v_typical, drawn, event, 20_000,
                                            (11, 0, 0))
            if scheme == "A":
                assert active == (20_000 if drawn else 0) and rows == [20_000]
            else:
                assert 0 < active < 20_000
                assert sum(rows) == (active if drawn else 20_000 - active)
            assert 0 < hits <= sum(rows)

    @staticmethod
    def _want_decisions(cfg, dmc, n, pbar, fallback=False):
        """The drawn decision under P_UV and Q_UV from probabilities summed on
        the U and V lattices: the decision x with 2 Pr[x] <= Pr[T_V typical]
        where one has it, else the larger branch factor's."""
        p_u, p_v = P_UV.row_marginal(), P_UV.col_marginal()
        f_silent, f_active = sim._log_branch_factors(cfg, dmc, n, [cfg.mu])[0]
        want = []
        for law in (P_UV, Q_UV):
            active = math.exp(oracles.log_prob_type_event(
                law.row_marginal().probs[None], n, sim._encoder(cfg, p_u, n, pbar)[0])[0])
            v_typical = math.exp(oracles.log_prob_type_event(
                law.col_marginal().probs[None], n,
                lambda band: typical(band.counts() / n, p_v.probs, cfg.mu))[0])
            if fallback or v_typical < 2 * min(active, 1 - active):
                want.append(f_active > f_silent)
            else:
                want.append(2 * active <= v_typical)
        return want

    @staticmethod
    def _decisions(cfg, dmc, n, pbar, trials=20_000):
        log_f = sim._log_branch_factors(cfg, dmc, n, [cfg.mu])[0]
        box = typical_letters(np.arange(n + 1)[:, None] / n, P_UV.col_marginal().probs, cfg.mu).T
        log_t = typesum.BoxChain(np.stack([P_UV.probs.sum(axis=0), Q_UV.probs.sum(axis=0)]),
                                 n, box).log_probs
        laws, p_u = (P_UV, Q_UV), P_UV.row_marginal()
        if cfg.scheme == "A":
            p_active = [math.exp(lp) for lp in
                        TestSchemeAEvents._events(laws, p_u, n, cfg.mu)[1].log_probs]
        else:
            marginals = np.stack([law.row_marginal().probs for law in laws])
            p_active = sim._scheme_b_active(marginals, p_u, n, pbar.tau_nats, trials)
        return sim._drawn_decisions(p_active, log_t, log_f)

    def test_drawn_decision_holds_at_most_half_the_v_typical_trials(
        self, example_dmc, partial_dmc
    ):
        # each law draws the decision x with 2 Pr[x] <= Pr[T_V typical]
        # where it has one, else the larger branch factor's (scheme A's
        # silent one); scheme B, where the cell has fewer than
        # TRIALS_PER_ROW trials per row of its U lattice (|U| = 2 leaves one
        # row), always draws the larger factor's
        seen = set()
        for n, mu in itertools.product((12, 30, 100, 400), (0.03, 0.1, 0.2)):
            cfg = sim.SchemeConfig(scheme="A", mu=mu, x_hat="1", y_star="1")
            got = self._decisions(cfg, partial_dmc, n, None)
            assert got == self._want_decisions(cfg, partial_dmc, n, None)
            seen.update(got)
        assert seen == {True, False}
        cfg = sim.SchemeConfig(scheme="B", mu=0.2, x1="1")
        pbar = expo.pbar_threshold(example_dmc, "1")
        assert self._decisions(cfg, example_dmc, 30, pbar) == \
            self._want_decisions(cfg, example_dmc, 30, pbar) == [True, False]
        rows = sim.TRIALS_PER_ROW
        assert self._decisions(cfg, example_dmc, 30, pbar, trials=rows) == [True, False]
        assert self._decisions(cfg, example_dmc, 30, pbar, trials=rows - 1) == \
            self._want_decisions(cfg, example_dmc, 30, pbar, fallback=True) == [False, False]

    def test_cell_is_logged_at_debug(self, example_dmc, partial_dmc, monkeypatch, caplog):
        monkeypatch.setattr(sim, "_usable_cores", lambda: 3)
        monkeypatch.setattr(sim, "CHUNK_TRIALS", 7_000)
        messages = {}
        for scheme in ("B", "A"):
            cfg, dmc, pbar = self._case(scheme, example_dmc, partial_dmc)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="covertdht.simulation"):
                sim.run_trials(cfg, P_UV, Q_UV, dmc, 30, 20_001, seed=11, pbar=pbar)
            [record] = caplog.records
            assert record.levelno == logging.DEBUG
            messages[scheme] = record.getMessage()
        p_v = P_UV.col_marginal()
        p_typical = [math.exp(lp) for lp in oracles.log_prob_type_event(
            np.stack([law.col_marginal().probs for law in (P_UV, Q_UV)]), 30,
            lambda band: typical(band.counts() / 30, p_v.probs, 0.2))]
        number = r"(-?[\d.e+-]+)"

        def check(message, events):
            """Each hypothesis drew M = ceil(Pr[E] 20001) trials inside an
            event E of the given name and probability, in chunks of 7,000
            on at most 3 threads."""
            found = re.search(
                rf"H0 drew U first, d=active, E={events[0][0]}, log Pr\[E\]={number}, M=(\d+); "
                rf"H1 drew V first, d=silent, E={events[1][0]}, log Pr\[E\]={number}, M=(\d+)$",
                message)
            assert found
            tasks = 0
            for (_, prob), log_prob, m in zip(events, found.groups()[::2], found.groups()[1::2]):
                assert float(log_prob) == pytest.approx(math.log(prob), rel=1e-5, abs=1e-12)
                assert 0 <= int(m) - prob * 20_001 < 1 + 1e-6
                tasks += math.ceil(int(m) / 7_000)
            assert f"n=30: 20001 trials, {tasks} tasks, {min(tasks, 3)} threads" in message

        # Q_V = (0.4, 0.6) is atypical for P_V = (0.7, 0.3) at mu = 0.2: the
        # alternative draws inside the V box. Scheme B's null draws every
        # trial; scheme A's null fires with probability delta_n, below half
        # its Pr[T_V typical], so it draws inside its active strata alone
        check(messages["B"], [("all", 1.0), ("V box", p_typical[1])])
        cfg = self._case("A", example_dmc, partial_dmc)[0]
        delta = sim.transmit_probability(cfg, P_UV.row_marginal(), 30)
        assert 0 < 2 * delta <= p_typical[0]
        check(messages["A"], [("active", delta), ("V box", p_typical[1])])

    def test_scheme_b_active_is_exact_from_trials_per_row(self, caplog):
        # covert-sweep-b at n = 80 has 81 rows of the U lattice. With
        # TRIALS_PER_ROW trials per row, the null's exact Pr[active], 9.6e-4,
        # makes it count its active trials; one trial fewer, and it counts
        # the decision of the larger branch factor, silent
        path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads",
                            "covert-sweep-b.json")
        config = ExperimentConfig.load(path)
        p_uv, q_uv = config.source_pmfs()
        dmc, cfg = config.dmc(), config.scheme()
        pbar = expo.pbar_threshold(dmc, cfg.x1)
        trials = sim.TRIALS_PER_ROW * typesum.num_types(80, 2)
        for m, d in ((trials, "active"), (trials - 1, "silent")):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="covertdht.simulation"):
                sim.run_trials(cfg, p_uv, q_uv, dmc, 80, m, seed=1, pbar=pbar)
            assert f"H0 drew U first, d={d}, E=all," in caplog.records[-1].getMessage()

    def test_event_of_probability_zero_draws_no_trial(self, example_dmc, caplog):
        # Q_V = (1, 0) leaves no V type in P_V's box at mu = 0.2, so the
        # alternative's V box has probability 0: it draws no trial (M = 0),
        # and beta is its exact term, 0, reported as the rule-of-three bound
        q_uv = JointPmf(U2, V2, np.array([[0.3, 0.0], [0.7, 0.0]]))
        cfg = sim.SchemeConfig(scheme="B", mu=0.2, x1="1")
        pbar = expo.pbar_threshold(example_dmc, "1")
        with caplog.at_level(logging.DEBUG, logger="covertdht.simulation"):
            res = sim.run_trials(cfg, P_UV, q_uv, example_dmc, 30, 5_000, seed=3, pbar=pbar)
        assert "E=V box, log Pr[E]=-inf, M=0" in caplog.records[-1].getMessage()
        assert res.beta_is_upper_bound and res.beta == 3.0 / 5_000
        assert sim.exact_error_probs(cfg, [cfg.mu], P_UV, q_uv, example_dmc, 30, pbar)[0].beta == 0.0


class TestMarginalPairLaw:
    """The Monte Carlo engine draws the pair (T_U, T_V) in one of two orders:
    T_U, then T_V given T_U as a sum of one multinomial per U symbol; or T_V
    inside the V box, backward along its box chain, then T_U given T_V as a
    sum of one multinomial per V symbol. The pair's sampled frequencies are
    compared with its exact law, summed from the joint-type lattice into
    marginal pairs (and conditioned on T_V being typical inside a V box
    that some types leave).

    Total variation is the statistic. For M trials over cells of mass p_i,
    E|f_i - p_i| <= sqrt(p_i (1 - p_i) / M), so E[TV] <= sum_i sqrt(p_i
    (1 - p_i) / M) / 2; and one trial moves TV by at most 1/M, so by
    McDiarmid's inequality TV exceeds that mean bound by t with probability
    at most exp(-2 M t^2). The tolerance takes t for a false failure
    probability of 1e-9, so no seed is picked to pass."""

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
        tables = typesum.class_tables(law.probs.ravel()[None], n)
        for counts in oracles.type_blocks(n, law.probs.size):
            mat = counts.reshape(len(counts), *law.probs.shape)
            probs = np.exp(typesum.log_class_probs(tables, counts)[0])
            for c_u, c_v, prob in zip(mat.sum(axis=2), mat.sum(axis=1), probs):
                key = (*c_u, *c_v)
                pmf[key] = pmf.get(key, 0.0) + prob
        return pmf

    def _sampled_pairs(self, law, n, v_first=False, mu=1.0, p_v=None):
        """The pair frequencies of the trials that reach the V test, drawn
        U first (every trial) or inside the V box, and their number. Every
        encoder is silent and silent is the drawn decision, so every trial
        draws V and reaches the V test; the two decisions record the
        engine's counts."""
        c_u, c_v = [], []
        p_v = law.col_marginal() if p_v is None else p_v
        real_v_typical = sim._in_box(sim._mu_box(p_v.probs, n, mu))

        def silent(counts):
            c_u.append(counts)
            return np.zeros(len(counts), dtype=bool)

        def v_typical(counts):
            c_v.append(counts)
            return real_v_typical(counts)

        if v_first:
            box = typesum.BoxChain(law.probs.sum(axis=0)[None], n, sim._mu_box(p_v.probs, n, mu))
            event = sim._Event("V box", box, 0, True)
        else:
            event = sim._Event("all", None, 0)
        sim._trial_chunk(law, n, silent, v_typical, False, event, self.M, (0, 0, 0))
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
    def test_pair_frequencies_match_the_exact_law(self, probs):
        n = 5
        law = self._law(probs)
        sampled, trials = self._sampled_pairs(law, n)
        assert trials == self.M
        self._assert_close(sampled, self._exact_pairs(law, n), trials)

    @LAWS
    def test_v_first_pair_frequencies_match_the_exact_law(self, probs):
        # at mu = 1 the V box holds every V type
        n = 5
        law = self._law(probs)
        sampled, trials = self._sampled_pairs(law, n, v_first=True)
        assert trials == self.M
        self._assert_close(sampled, self._exact_pairs(law, n), trials)

    def test_v_box_pairs_match_the_law_given_typical_v(self):
        # LAW3 draws V first by the engine's own rule; at n = 5 the typical V
        # counts are (1, 2, 2) and (0, 3, 2)
        n, mu, law, p_v = 5, 0.17, LAW3, P3_V
        assert sim._v_first(sim.SchemeConfig(scheme="B", mu=mu, x1="1"), law, p_v)
        sampled, trials = self._sampled_pairs(law, n, v_first=True, mu=mu, p_v=p_v)
        exact = {key: prob for key, prob in self._exact_pairs(law, n).items()
                 if typical(np.array(key[2:]) / n, p_v.probs, mu)}
        p_typical = sum(exact.values())
        assert {key[2:] for key in exact} == {(1, 2, 2), (0, 3, 2)}
        assert trials == self.M
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
    """Monte Carlo draws neither the branch nor the V counts of the decision
    d' it does not count: it weights by the branch factors, takes f_d'
    Pr[T_V typical] from the box chain, and draws each law's trials inside
    an event E of exact probability. On the benchmark's exact-sweep-b
    sources and on cells built around them, its variance, summed on the
    joint-type lattice, is at most that of the engine that drew every trial
    up to the V test and of the engine that drew V for every trial (both
    kept as oracles); over seeds 0-19 at 20k trials its alpha and beta
    scatter less than an oracle's where the variances differ by 4x or more
    (two 20-seed variances of the same law differ by that factor with
    probability 0.2%), and its intervals cover the exact values on at least
    19 of 20 seeds, a rule-of-three bound where it holds."""

    SEEDS, TRIALS = range(20), 20_000
    SOURCES = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads",
                           "exact-sweep-b.json")
    CELLS = ["24-0.08", "36-0.12", "u-first-alternative", "a-silent", "clamp"]

    def _cell(self, partial_dmc, name):
        """(cfg, p_uv, q_uv, dmc, n, pbar) of a named cell."""
        config = ExperimentConfig.load(self.SOURCES)
        p_uv, q_uv = config.source_pmfs()
        dmc = config.dmc()
        pbar = expo.pbar_threshold(dmc, "1")
        scheme_a = sim.SchemeConfig(scheme="A", mu=0.05, x_hat="1", y_star="1")
        if name == "24-0.08":
            return config.scheme().replace(mu=0.08), p_uv, q_uv, dmc, 24, pbar
        if name == "36-0.12":
            return config.scheme().replace(mu=0.12), p_uv, q_uv, dmc, 36, pbar
        if name == "u-first-alternative":
            # Q_V = P_V = (0.6, 0.4), typical for P_V
            q_uv = JointPmf(p_uv.row_alphabet, p_uv.col_alphabet,
                            np.array([[0.15, 0.30], [0.45, 0.10]]))
            return config.scheme().replace(mu=0.08), p_uv, q_uv, dmc, 24, pbar
        if name == "a-silent":
            return scheme_a.replace(mu=0.04), p_uv, q_uv, partial_dmc, 36, None
        # "clamp": U = V under the alternative, Q_U = P_U = (0.75, 0.25); at
        # mu = 0.06 and n = 36 the U box holds the counts 25..29 of U = 0 and
        # the V box (P_V = (0.6, 0.4)) the counts 20..23, so every V-typical
        # trial is active and beta = 0 exactly
        q_uv = JointPmf(p_uv.row_alphabet, p_uv.col_alphabet, np.array([[0.75, 0.0], [0.0, 0.25]]))
        return scheme_a.replace(mu=0.06), p_uv, q_uv, partial_dmc, 36, None

    def _runs(self, cfg, p_uv, q_uv, dmc, n, pbar, engine=sim.run_trials):
        return [engine(cfg, p_uv, q_uv, dmc, n, self.TRIALS, seed, pbar) for seed in self.SEEDS]

    @classmethod
    def _variances(cls, cfg, p_uv, q_uv, dmc, n, pbar):
        """Per hypothesis, the variance of the engine's estimate and of the
        two oracles', times the trials, from q_x = Pr[decision x, T_V
        typical], Pr[active] and Pr[T_V typical] summed on the joint-type
        lattice: the engine's is (f_d - f_d')^2 Pr[E]^2 q_E (1 - q_E) / M,
        q_E = q_d / Pr[E] and M = ceil(Pr[E] trials); the engine that drew
        every trial's (f_d - f_d')^2 q_d (1 - q_d) / trials; the weighted
        engine's that of its weight over trials."""
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        [log_f] = sim._log_branch_factors(cfg, dmc, n, [cfg.mu])
        f = np.exp(log_f)
        box = typical_letters(np.arange(n + 1)[:, None] / n, p_v.probs, cfg.mu).T
        laws = (p_uv, q_uv)
        log_t = typesum.BoxChain(np.stack([law.probs.sum(axis=0) for law in laws]), n,
                                 box).log_probs
        p_active = ([math.exp(lp) for lp in
                     TestSchemeAEvents._events(laws, p_u, n, cfg.mu)[1].log_probs]
                    if cfg.scheme == "A" else
                    sim._scheme_b_active(np.stack([law.row_marginal().probs for law in laws]),
                                         p_u, n, pbar.tau_nats, cls.TRIALS))
        drawn = sim._drawn_decisions(p_active, log_t, log_f)
        du, dv = p_uv.probs.shape
        out = []
        for law, d in zip(laws, drawn):
            q, fires = np.zeros(2), 0.0
            transmits, v_typical = sim._encoder(cfg, p_u, n, pbar)[0], sim._in_box(box)
            tables = typesum.class_tables(law.probs.ravel()[None], n)
            for counts in oracles.type_blocks(n, du * dv):
                cells = counts.reshape(len(counts), du, dv)
                active = transmits(cells.sum(axis=2))
                accepted = v_typical(cells.sum(axis=1))
                prob = np.exp(typesum.log_class_probs(tables, counts)[0])
                q += [prob[accepted & ~active].sum(), prob[accepted & active].sum()]
                fires += prob[active].sum()
            if sim._v_first(cfg, law, p_v):
                p_event = q.sum()
            else:
                p_event = (fires if d else 1.0 - fires) if cfg.scheme == "A" else 1.0
            m = math.ceil(p_event * cls.TRIALS)
            q_event = q[int(d)] / p_event if p_event > 0 else 0.0
            slope2 = (f[1] - f[0]) ** 2
            engine = slope2 * p_event ** 2 * q_event * (1 - q_event) * cls.TRIALS / m if m else 0.0
            every_trial = slope2 * q[int(d)] * (1 - q[int(d)])
            out.append((engine, every_trial, f @ (f * q) - (f @ q) ** 2))
        return out

    @staticmethod
    def _assert_cover(runs, exact):
        covered = sum(abs(r.alpha - exact.alpha) <= r.alpha_ci
                      and (exact.beta <= r.beta if r.beta_is_upper_bound
                           else abs(r.beta - exact.beta) <= r.beta_ci) for r in runs)
        assert covered >= 19

    @pytest.mark.parametrize("name", CELLS)
    def test_less_scatter_and_covering_intervals(self, partial_dmc, name):
        cfg, p_uv, q_uv, dmc, n, pbar = cell = self._cell(partial_dmc, name)
        assert sim._v_first(cfg, q_uv, p_uv.col_marginal()) == (name != "u-first-alternative")
        exact = sim.exact_error_probs(cfg, [cfg.mu], p_uv, q_uv, dmc, n, pbar)[0]
        runs = self._runs(*cell)
        oracle_runs = [self._runs(*cell, engine=oracles.run_trials_every_trial),
                       self._runs(*cell, engine=oracles.run_trials_weighted)]
        for field, variances in zip(("alpha", "beta"), self._variances(*cell)):
            var, *oracle_vars = variances
            for oracle_var, others in zip(oracle_vars, oracle_runs):
                assert var <= oracle_var * (1 + 1e-9)
                if oracle_var > 0 and 4 * var <= oracle_var:
                    assert (np.std([getattr(r, field) for r in runs])
                            < np.std([getattr(o, field) for o in others]))
        if cfg.scheme == "B":
            # less scatter than the engine that drew the branch
            drawn = [oracles.run_trials_branch(cfg, p_uv, q_uv, dmc, n, self.TRIALS, seed, pbar)
                     for seed in self.SEEDS]
            assert np.std([r.alpha for r in runs]) < np.std([d[0] for d in drawn])
            assert np.std([r.beta for r in runs]) < np.std([d[1] for d in drawn])
        self._assert_cover(runs, exact)

    @pytest.mark.parametrize("name", ["a-silent", "clamp"])
    def test_a_silent_decision_draws_inside_the_silent_box(self, partial_dmc, caplog, name):
        # no decision holds at most half the V-typical trials under either
        # law (at a-silent delta_n > 1/2; at clamp the active trials hold
        # them all under the alternative), so both count the silent one,
        # the larger factor's. The null draws M = ceil((1 - delta_n) trials)
        # inside the silent box, and scheme A's active factor is 0, so
        # alpha = 1 - f_silent (1 - delta_n) hits / M for a whole number of
        # V-typical hits among the M
        cfg, p_uv, q_uv, dmc, n, pbar = cell = self._cell(partial_dmc, name)
        p_u = p_uv.row_marginal()
        delta = sim.transmit_probability(cfg, p_u, n)
        if name == "a-silent":
            assert delta > 0.5
        m = math.ceil((1.0 - delta) * self.TRIALS)
        [(log_f_silent, log_f_active)] = sim._log_branch_factors(cfg, dmc, n, [cfg.mu])
        assert log_f_active == -math.inf
        for seed in self.SEEDS[:5]:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="covertdht.simulation"):
                r = sim.run_trials(*cell[:5], self.TRIALS, seed, pbar)
            message = caplog.records[-1].getMessage()
            assert "H0 drew U first, d=silent, E=silent, log Pr[E]=" in message
            assert f"M={m}; H1 drew V first, d=silent, E=V box" in message
            hits = (1.0 - r.alpha) / math.exp(log_f_silent) / (1.0 - delta) * m
            assert 0 < round(hits) <= m and hits == pytest.approx(round(hits), abs=1e-6)

    def test_an_estimate_below_zero_is_clamped(self, partial_dmc, monkeypatch):
        # drawing the active decision at the clamp cell, U first (inside its
        # active strata), beta = f_silent (Pr_Q[T_V typical] - p) with p
        # Pr_Q[active] times the V-typical fraction of the drawn trials, an
        # unbiased estimate of Pr_Q[T_V typical] here: the estimate falls
        # below 0 on about half the seeds (all or none of 20 with
        # probability 2e-6). Those report beta = 0, not a rule-of-three
        # bound, with the interval of p's Wilson image around it. (Inside
        # the V box, its own draw order, every trial is active and
        # V-typical, so p is Pr_Q[T_V typical] itself.)
        cfg, p_uv, q_uv, dmc, n, pbar = cell = self._cell(partial_dmc, "clamp")
        monkeypatch.setattr(sim, "_drawn_decisions", lambda *args: [False, True])
        monkeypatch.setattr(sim, "_v_first", lambda *args: False)
        exact = sim.exact_error_probs(cfg, [cfg.mu], p_uv, q_uv, dmc, n, pbar)[0]
        assert exact.beta == 0.0
        runs = self._runs(*cell)
        assert not any(r.beta_is_upper_bound for r in runs)
        clamped = [r for r in runs if r.beta == 0.0]
        assert 0 < len(clamped) < 20
        assert all(r.log_beta == -math.inf and r.beta_ci > 0.0 for r in clamped)
        self._assert_cover(runs, exact)


class TestBlockedDraws:
    """The numpy properties behind the streams of the Monte Carlo engines
    kept as oracles, which drew a chunk a block of ``oracles.BLOCK_TRIALS``
    trials at a time: rows drawn a block at a time from one Generator equal
    one draw of all the rows, for each kind of draw those engines made (a
    fixed pmf, in multinomial and binomial draws; an array of counts with
    one pmf per count, the second marginal's draw; an array of counts with
    one probability, a V letter's draw). The engine that drew the branch
    also drew one pmf row per trial (scheme B's outputs) on a generator of
    its own. The engine draws each chunk at once, so its scheme-B null,
    which draws every trial, keeps the bytes of the blocked engines through
    the first two. If a numpy release breaks one, the oracles' pinned
    values start to depend on their block size."""

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
