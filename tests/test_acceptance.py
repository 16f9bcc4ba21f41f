"""End-to-end acceptance checks for the worked example and its variants.

Each test pins one externally meaningful property: reproduction of the
reference numbers, agreement with independent brute-force oracles, the
warden-divergence bounds, exact-vs-Monte-Carlo consistency, and finite-
blocklength convergence of the schemes toward the asymptotic exponents.
"""

import itertools
import math
import time

import numpy as np
import pytest

import covertdht.covertness as cov
import covertdht.exponents as expo
import covertdht.simulation as sim
from covertdht import Dmc
from covertdht.cli import REFERENCE_E2_BITS, cmd_example
from covertdht.probability import (
    LN2,
    Alphabet,
    JointPmf,
    Pmf,
    kl_divergence,
    kl_divergence_vec,
)

from conftest import REF_E1_BITS, REF_E3_BITS, REF_QSTAR, REF_TAU_BITS


def test_01_threshold_reproduction(example_dmc):
    """q* and tau on the BSC(0.4) example, in under a second."""
    t0 = time.perf_counter()
    pbar = expo.pbar_threshold(example_dmc, "1")
    elapsed = time.perf_counter() - t0
    assert abs(pbar.maximizer["1"] - REF_QSTAR) <= 1e-3
    assert abs(pbar.tau_bits - REF_TAU_BITS) <= 2e-3
    assert elapsed < 1.0


def test_02_e1_e3_reproduction(example_sources, example_dmc, example_p_u):
    p_uv, q_uv = example_sources
    e1 = expo.compute_E1(p_uv, q_uv)
    assert abs(e1.value_nats / LN2 - REF_E1_BITS) <= 1e-3
    pbar = expo.pbar_threshold(example_dmc, "1")  # the only non-zero input
    _, _, e3 = expo.compute_E3(p_uv, q_uv, example_p_u, example_dmc, pbar)
    assert abs(e3 / LN2 - REF_E3_BITS) <= 1e-3


def _e2_grid_oracle(p_u, q_u, tau_nats, step=1e-4):
    """Independent 1-D minimization of D(Bern(m)||q_u) over the closure of
    {D(Bern(m)||p_u) < tau}: dense grid plus bisected constraint boundary."""

    def d(m, ref):
        val = 0.0
        for prob, r in ((1.0 - m, ref[0]), (m, ref[1])):
            if prob > 0.0:
                val += prob * math.log(prob / r)
        return val

    ms = np.arange(0.0, 1.0 + step / 2, step)
    feas = [m for m in ms if d(m, p_u) <= tau_nats]
    cands = list(feas)
    # bisect every sign change of the constraint onto the boundary
    vals = [d(m, p_u) - tau_nats for m in ms]
    for i in range(len(ms) - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] > 0.0:
            continue
        lo, hi = ms[i], ms[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (d(mid, p_u) - tau_nats) * vals[i] > 0.0:
                lo = mid
            else:
                hi = mid
        cands.append(0.5 * (lo + hi))
    assert cands, "empty feasible set in the oracle"
    return min(d(m, q_u) for m in cands)


def test_03_e2_against_grid_oracle(example_sources, example_dmc, example_p_u, capsys):
    p_uv, q_uv = example_sources
    pbar = expo.pbar_threshold(example_dmc, "1")
    e2 = expo.compute_E2(p_uv, q_uv, example_p_u, pbar)
    oracle = _e2_grid_oracle(
        example_p_u.probs, q_uv.row_marginal().probs, pbar.tau_nats
    )
    assert abs(e2.value_nats - oracle) <= 1e-5
    # the report prints the reference figure with the consistency caveat
    cmd_example()
    out = capsys.readouterr().out
    assert f"{REFERENCE_E2_BITS}" in out
    assert "not" in out and "consistent" in out


def _brute_force_coupling_min_2x2(q, r, c):
    """Dense scan of the single degree of freedom of 2x2 couplings, vectorized
    over the scan points."""
    lo = max(0.0, r[0] + c[0] - 1.0)
    hi = min(r[0], c[0])
    best = math.inf
    ts = np.linspace(lo, hi, 20001)
    for stage in range(3):
        k = np.column_stack((ts, r[0] - ts, c[0] - ts, 1.0 - r[0] - c[0] + ts))
        k = np.clip(k, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(k > 0, k * np.log(k / q.ravel()), 0.0).sum(axis=1)
        i = int(np.argmin(vals))
        best = min(best, vals[i])
        span = ts[1] - ts[0]
        ts = np.linspace(max(lo, ts[i] - span), min(hi, ts[i] + span), 2001)
    return best


def _brute_force_coupling_min_3x3(q, r, c):
    """Multi-stage grid over the 4-dimensional null space of the marginal
    constraints, vectorized; the objective is strictly convex so shrinking
    windows cannot lose the optimum."""
    basis = np.zeros((4, 3, 3))
    for idx, (a, b) in enumerate(itertools.product(range(2), range(2))):
        basis[idx, a, b] = 1.0
        basis[idx, a, 2] = -1.0
        basis[idx, 2, b] = -1.0
        basis[idx, 2, 2] = 1.0
    center = np.zeros(4)
    base = np.outer(r, c)
    width, pts = 1.0, 15
    best = math.inf
    logq = np.log(q).ravel()
    for stage in range(12):
        axes = [np.linspace(center[i] - width, center[i] + width, pts) for i in range(4)]
        coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        k = base.ravel()[None, :] + coords @ basis.reshape(4, 9)
        ok = np.all(k >= -1e-12, axis=1)
        coords, k = coords[ok], np.clip(k[ok], 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(k > 0, k * (np.log(k) - logq[None, :]), 0.0)
        vals = terms.sum(axis=1)
        i = int(np.argmin(vals))
        best = min(best, float(vals[i]))
        center = coords[i]
        width *= 0.35
    return best


def test_04_ipf_matches_brute_force():
    rng = np.random.default_rng(20260823)
    ipf_s = 0.0
    for dim, oracle in ((2, _brute_force_coupling_min_2x2), (3, _brute_force_coupling_min_3x3)):
        rows = Alphabet(tuple(range(dim)))
        cols = Alphabet(tuple(f"c{i}" for i in range(dim)))
        for _ in range(25):
            q = rng.dirichlet(np.ones(dim * dim)).reshape(dim, dim)
            q = np.clip(q, 1e-4, None)
            q /= q.sum()
            r = np.clip(rng.dirichlet(np.ones(dim)), 1e-3, None)
            r /= r.sum()
            c = np.clip(rng.dirichlet(np.ones(dim)), 1e-3, None)
            c /= c.sum()
            joint = JointPmf(rows, cols, q)
            t_ipf = time.perf_counter()
            coupling = expo.i_projection_coupling(joint, Pmf(rows, r), Pmf(cols, c))
            ipf_s += time.perf_counter() - t_ipf
            value = kl_divergence_vec(coupling.probs.ravel(), q.ravel())
            assert abs(value - oracle(q, r, c)) <= 1e-5
    assert ipf_s < 2.0  # the code under test alone, without the oracles


def _brute_force_chi2_product(g0, g1, n):
    total = 0.0
    for seq in itertools.product(range(len(g0)), repeat=n):
        p0 = math.prod(g0[i] for i in seq)
        p1 = math.prod(g1[i] for i in seq)
        total += p1 * p1 / p0
    return total - 1.0


def test_05_quadratic_bound_sweep():
    rng = np.random.default_rng(7)
    z2 = Alphabet(("a", "b"))
    z3 = Alphabet(("a", "b", "c"))
    combos = 0
    for alpha_dim, alphabet in ((2, z2), (3, z3)):
        for _ in range(10):
            g0 = Pmf(alphabet, np.clip(rng.dirichlet(np.ones(alpha_dim)), 1e-3, None))
            g1 = Pmf(alphabet, np.clip(rng.dirichlet(np.ones(alpha_dim)), 1e-3, None))
            for delta in (0.9, 0.5, 0.1, 1e-3, 1e-8):
                for n in (1, 5, 10, 25, 50):
                    exact, _, _ = cov.warden_divergence(g0, g1, delta, n)
                    quad = delta * delta * cov.chi_squared_product(g0, g1, n)
                    assert exact <= quad * (1 + 1e-12) + 1e-300
                    combos += 1
    assert combos >= 500
    # product chi-squared against full sequence enumeration
    g0 = Pmf(z2, np.array([0.6, 0.4]))
    g1 = Pmf(z2, np.array([0.4, 0.6]))
    for n in range(1, 7):
        brute = _brute_force_chi2_product(g0.probs, g1.probs, n)
        assert math.isclose(cov.chi_squared_product(g0, g1, n), brute, rel_tol=1e-10)
    g0 = Pmf(z3, np.array([0.5, 0.3, 0.2]))
    g1 = Pmf(z3, np.array([0.3, 0.3, 0.4]))
    for n in range(1, 7):
        brute = _brute_force_chi2_product(g0.probs, g1.probs, n)
        assert math.isclose(cov.chi_squared_product(g0, g1, n), brute, rel_tol=1e-10)


def test_06_covertness_decay(example_dmc, example_p_u):
    g0 = example_dmc.z_row("0")
    g1 = example_dmc.z_row("1")
    pbar = expo.pbar_threshold(example_dmc, "1")
    # full-block scheme: exact warden divergence decays exponentially
    scheme_b = sim.SchemeConfig(scheme="B", x1="1")
    ns = list(range(20, 201, 20))
    d_exact = []
    for n in ns:
        delta = sim.transmit_probability(scheme_b, example_p_u, n, pbar)
        rep = cov.CovertnessReport(n, delta, *cov.warden_divergence(g0, g1, delta, n))
        assert rep.d_n_exact is not None and rep.d_n_exact > 0.0
        d_exact.append(rep.d_n_exact)
    slope = float(np.polyfit(ns, np.log2(d_exact), 1)[0])
    assert slope < -0.01
    # burst scheme with k = ceil(sqrt(n)): decreasing, tiny by n = 10^4
    scheme_a = sim.SchemeConfig(scheme="A", mu=0.05, x_hat="1", y_star="1")
    prev = math.inf
    for n in (100, 400, 900, 2500, 10_000):
        k = math.isqrt(n - 1) + 1
        delta = sim.transmit_probability(scheme_a, example_p_u, n)
        rep = cov.CovertnessReport(n, delta, *cov.warden_divergence(g0, g1, delta, k))
        assert rep.d_n_exact is not None
        assert rep.d_n_exact < prev
        prev = rep.d_n_exact
    assert prev < 1e-6


def test_07_exact_vs_monte_carlo(example_sources, example_dmc):
    p_uv, q_uv = example_sources
    pbar = expo.pbar_threshold(example_dmc, "1")
    cfg = sim.SchemeConfig(scheme="B", mu=0.02, x1="1")
    trials = 10**6
    t0 = time.perf_counter()
    for n in (40, 60):
        exact = sim.exact_error_probs(cfg, [cfg.mu], p_uv, q_uv, example_dmc, n, pbar)[0]
        alpha, beta = exact.alpha, exact.beta
        res = sim.run_trials(cfg, p_uv, q_uv, example_dmc, n, trials, seed=11, pbar=pbar)
        sd_a = math.sqrt(alpha * (1 - alpha) / trials)
        sd_b = math.sqrt(beta * (1 - beta) / trials)
        assert abs(res.alpha - alpha) <= 3 * sd_a
        assert abs(res.beta - beta) <= 3 * sd_b
    assert time.perf_counter() - t0 < 60.0


def test_08_exponent_convergence(example_sources, example_dmc, example_p_u, partial_dmc):
    p_uv, q_uv = example_sources
    pbar = expo.pbar_threshold(example_dmc, "1")
    e2 = expo.compute_E2(p_uv, q_uv, example_p_u, pbar).value_nats / LN2
    e3 = expo.compute_E3(p_uv, q_uv, example_p_u, example_dmc, pbar)[2] / LN2
    target = min(e2, e3)
    cfg = sim.SchemeConfig(scheme="B", mu=0.02, x1="1")
    exps = []
    for n in range(160, 201, 10):
        lb = sim.exact_error_probs(cfg, [cfg.mu], p_uv, q_uv, example_dmc, n, pbar)[0].log_beta
        exps.append(-lb / LN2 / n)
    # the exact per-n exponent climbs toward the asymptotic target on this
    # tail grid and lands within 25% of it at n = 200
    assert all(b > a for a, b in zip(exps, exps[1:]))
    assert all(e < target for e in exps)
    assert abs(exps[-1] - target) <= 0.25 * target
    # burst scheme on the partially connected variant approaches e1
    e1 = expo.compute_E1(p_uv, q_uv).value_nats / LN2
    cfg_a = sim.SchemeConfig(scheme="A", mu=0.05, x_hat="1", y_star="1")
    beta = sim.exact_error_probs(cfg_a, [cfg_a.mu], p_uv, q_uv, partial_dmc, 300)[0].beta
    exp_a = -math.log2(beta) / 300
    assert abs(exp_a - e1) <= 0.30 * e1


def test_09_transition_law_independence(example_sources, binary_alphabet):
    """With a dead decision-center edge the achievable exponent depends on
    the channel only through the existence of that edge."""
    p_uv, q_uv = example_sources
    z3 = Alphabet(("a", "b", "c"))
    y_rows = np.array([[0.5, 0.3, 0.2], [0.6, 0.4, 0.0]])
    base = Dmc(
        input_alphabet=binary_alphabet,
        y_alphabet=z3,
        z_alphabet=binary_alphabet,
        y_given_x=y_rows,
        z_given_x=[[0.6, 0.4], [0.4, 0.6]],
        zero_symbol="0",
    )
    ref = expo.achievable_exponent(p_uv, q_uv, base)
    assert ref.connectivity is expo.ConnectivityCase.PARTIALLY_CONNECTED
    assert ref.theta_nats == ref.e1_nats
    rng = np.random.default_rng(3)
    for _ in range(5):
        factors = rng.uniform(0.8, 1.2, size=y_rows.shape)
        pert = np.where(y_rows > 0.0, y_rows * factors, 0.0)
        pert /= pert.sum(axis=1, keepdims=True)
        dmc = Dmc(
            input_alphabet=binary_alphabet,
            y_alphabet=z3,
            z_alphabet=binary_alphabet,
            y_given_x=pert,
            z_given_x=[[0.6, 0.4], [0.4, 0.6]],
            zero_symbol="0",
        )
        rep = expo.achievable_exponent(p_uv, q_uv, dmc)
        assert rep.theta_nats == ref.theta_nats  # bit-identical


def test_10_positivity_margins(example_dmc, example_p_u):
    pbar = expo.pbar_threshold(example_dmc, "1")
    g0 = example_dmc.z_row("0")
    g1 = example_dmc.z_row("1")
    a1, a2, a3 = cov.scheme_B_positivity(example_p_u, pbar, g0, g1)
    # tau = D_3(G1||G0), so the first margin is identically zero
    assert a1 == pytest.approx(0.0, abs=1e-12)
    assert a2 == pytest.approx(0.269663566949, abs=1e-9) and a2 > 0.0
    assert a3 == pytest.approx(0.423814246776, abs=1e-9) and a3 > 0.0
