import itertools
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import covertdht.exponents as expo
import oracles
from covertdht import Dmc
from covertdht.cli import main
from covertdht.config import ExperimentConfig
from covertdht.errors import (
    ConditionalUndefined,
    EmptyFeasibleSet,
    Infeasible,
    InvalidChannel,
    NoConvergence,
    SupportViolation,
)
from covertdht.probability import (
    LN2,
    Alphabet,
    JointPmf,
    Pmf,
    kl_divergence,
    kl_divergence_vec,
    kl_rows,
)

from conftest import TERNARY_CONFIG

AB = Alphabet(("a", "b"))
Z3 = Alphabet(("z0", "z1", "z2"))
# seeds of `seeded_binary_sources`: T_U(1) lies above P_U(1) for 0, 5, 9 and
# below it for 1, 2, 8
BINARY_SEEDS = (0, 1, 2, 5, 8, 9)


def seeded_binary_sources(seed):
    """2x2 source pair (P_UV, Q_UV) from a seeded Dirichlet; V is non-degenerate."""
    rng = np.random.default_rng(seed)
    u, v = Alphabet((0, 1)), Alphabet(("x", "y"))
    p_uv = JointPmf(u, v, rng.dirichlet(np.ones(4)).reshape(2, 2))
    q_uv = JointPmf(u, v, rng.dirichlet(np.ones(4)).reshape(2, 2))
    return p_uv, q_uv


def positive_pmf(alphabet):
    return (
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0),
            min_size=alphabet.size,
            max_size=alphabet.size,
        )
        .map(lambda w: Pmf(alphabet, np.array(w) / sum(w)))
    )


class TestThreshold:
    def test_closed_form_matches_grid_maximum(self, example_dmc):
        pbar = expo.pbar_threshold(example_dmc, "1")
        g0 = example_dmc.z_row("0").probs
        g1 = example_dmc.z_row("1").probs
        ms = np.linspace(1e-9, 1 - 1e-9, 200_001)
        vals = oracles.pbar_objective(np.column_stack((1 - ms, ms)), g0, g1)
        assert pbar.tau_nats == pytest.approx(max(vals), abs=1e-8)
        assert pbar.maximizer["1"] == pytest.approx(ms[int(np.argmax(vals))], abs=1e-4)

    def test_ternary_grid_maximum(self):
        dmc = Dmc(
            AB,
            AB,
            Z3,
            [[0.5, 0.5], [0.3, 0.7]],
            [[0.5, 0.3, 0.2], [0.2, 0.4, 0.4]],
            "a",
        )
        pbar = expo.pbar_threshold(dmc, "b")
        g0 = dmc.z_row("a").probs
        g1 = dmc.z_row("b").probs
        grid = oracles.simplex_grid(3, 1 / 500)  # k = 500: 125,751 points
        best = oracles.pbar_objective(grid, g0, g1).max()
        assert best <= pbar.tau_nats + 1e-12
        assert pbar.tau_nats - best <= 1e-4
        # stationarity: the closed-form maximizer attains the value exactly
        attained = oracles.pbar_objective(pbar.maximizer.probs, g0, g1)
        assert attained == pytest.approx(pbar.tau_nats, abs=1e-12)

    def test_grid_oracle_refuses_oversized_grids(self):
        # step 1e-3 over three symbols is C(1002, 2) = 501,501 points
        with pytest.raises(ValueError, match="501501 points"):
            oracles.simplex_grid(3, 1e-3)
        assert len(oracles.simplex_grid(3, 1 / 500)) == math.comb(502, 2)

    @given(positive_pmf(Z3), positive_pmf(Z3), positive_pmf(Z3))
    @settings(max_examples=100, deadline=None)
    def test_tau_is_an_upper_bound(self, g0, g1, pi):
        dmc = Dmc(AB, AB, Z3, [[0.5, 0.5]] * 2, [g0.probs, g1.probs], "a")
        pbar = expo.pbar_threshold(dmc, "b")
        assert oracles.pbar_objective(pi.probs, g0.probs, g1.probs) <= pbar.tau_nats + 1e-9

    def test_batched_objective_matches_single_calls(self):
        g0 = np.array([0.5, 0.3, 0.2])
        g1 = np.array([0.2, 0.0, 0.8])  # off its support the objective is -inf
        grid = oracles.simplex_grid(3, 0.1)
        batch = oracles.pbar_objective(grid, g0, g1)
        single = [oracles.pbar_objective(pi, g0, g1) for pi in grid]
        np.testing.assert_array_equal(batch, single)
        assert np.isneginf(batch).any() and np.isfinite(batch).any()

    def test_identical_rows_give_zero_tau(self):
        dmc = Dmc(AB, AB, AB, [[0.5, 0.5]] * 2, [[0.4, 0.6], [0.4, 0.6]], "a")
        assert expo.pbar_threshold(dmc, "b").tau_nats == pytest.approx(0.0, abs=1e-15)

    def test_support_violation(self):
        dmc = Dmc(AB, AB, AB, [[0.5, 0.5]] * 2, [[1.0, 0.0], [0.5, 0.5]], "a")
        with pytest.raises(SupportViolation):
            expo.pbar_threshold(dmc, "b")

    def test_zero_symbol_rejected(self, example_dmc):
        with pytest.raises(ValueError):
            expo.pbar_threshold(example_dmc, "0")

    def test_membership(self, example_dmc, example_p_u):
        pbar = expo.pbar_threshold(example_dmc, "1")
        inside, near = np.array([0.2, 0.8]), np.array([0.79, 0.21])
        assert pbar.triggers(inside, example_p_u)
        assert not pbar.triggers(near, example_p_u)
        # a batch of types gives one decision per row
        np.testing.assert_array_equal(pbar.triggers(np.stack((inside, near)), example_p_u),
                                      [True, False])
        # infinite divergence counts as membership
        degenerate_ref = Pmf(example_p_u.alphabet, np.array([1.0, 0.0]))
        assert pbar.triggers(inside, degenerate_ref)


def ipf_case(seed, nu, nv, hole_p, zero_p):
    """q over nu x nv with each cell a hole with probability hole_p, and row
    and column targets with each entry zero with probability zero_p (at
    least one cell and one entry of each kept), from a seeded Dirichlet."""
    rng = np.random.default_rng(seed)
    rows, cols = Alphabet(tuple(range(nu))), Alphabet(tuple(f"v{j}" for j in range(nv)))

    def masked(shape, p):
        keep = rng.random(shape) >= p
        keep.flat[rng.integers(keep.size)] = True
        w = rng.dirichlet(np.ones(keep.size)).reshape(shape) * keep
        return w / w.sum()

    return (JointPmf(rows, cols, masked((nu, nv), hole_p)),
            Pmf(rows, masked(nu, zero_p)), Pmf(cols, masked(nv, zero_p)))


class TestIProjection:
    @given(st.sampled_from([2, 3, 4]), st.sampled_from([2, 3, 4]),
           st.sampled_from([0.0, 0.25, 0.5]), st.sampled_from([0.0, 0.3]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_block_ipf_equals_full_matrix_oracle(self, nu, nv, hole_p, zero_p, seed):
        # the Newton solve at kappa = 1 on the positive-target block gives the
        # full-matrix IPF coupling to IPF's own tolerance, and Hall's fast path
        # agrees with enumeration; where IPF does not converge (the projection
        # needs a zero on the support) the solve still meets both marginals
        q, r, c = ipf_case(seed, nu, nv, hole_p, zero_p)
        support = q.probs > 0.0
        assert expo._coupling_exists(support, r.probs, c.probs) == \
            oracles.ipf_feasible(support, r.probs, c.probs)
        try:
            want = oracles.i_projection_coupling(q, r, c)
        except Infeasible:
            with pytest.raises(Infeasible):
                expo.i_projection_coupling(q, r, c)
            return
        except NoConvergence:
            want = None
        with np.errstate(divide="raise", invalid="raise"):
            got = expo.i_projection_coupling(q, r, c)
        if want is None:
            np.testing.assert_allclose(got.probs.sum(axis=1), r.probs, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(got.probs.sum(axis=0), c.probs, rtol=0.0, atol=1e-12)
        else:
            np.testing.assert_allclose(got.probs, want.probs, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("q, r, c", [
        # no hole: fast path, and enumeration agrees
        ([[0.2, 0.3], [0.1, 0.4]], [0.5, 0.5], [0.3, 0.7]),
        # holes only in a zero-target row and column: fast path
        ([[0.2, 0.3, 0.0], [0.1, 0.4, 0.0], [0.0, 0.0, 0.0]], [0.5, 0.5, 0.0], [0.3, 0.7, 0.0]),
        # a hole in the block: enumeration, feasible
        ([[0.2, 0.0], [0.3, 0.5]], [0.4, 0.6], [0.7, 0.3]),
        # a hole in the block: enumeration, infeasible
        ([[0.2, 0.0], [0.3, 0.5]], [0.8, 0.2], [0.3, 0.7]),
    ], ids=["full", "holes-off-block", "hole-feasible", "hole-infeasible"])
    def test_feasibility_fast_path_agrees_with_enumeration(self, q, r, c):
        support, r, c = np.array(q) > 0.0, np.array(r), np.array(c)
        assert expo._coupling_exists(support, r, c) == oracles.ipf_feasible(support, r, c)

    @pytest.mark.parametrize("q, r, c, empty", [
        # column 2 has target 1e-13 and no supported row: Hall passes by its
        # 1e-12 slack, and the column stays empty
        ([[0.3, 0.2, 0.0], [0.1, 0.4, 0.0]], [0.5, 0.5], [0.4, 0.6 - 1e-13, 1e-13],
         np.s_[:, 2]),
        # the same for row 2, whose only support is a zero-target column
        ([[0.15, 0.1, 0.0], [0.05, 0.2, 0.0], [0.0, 0.0, 0.5]],
         [0.5, 0.5 - 1e-13, 1e-13], [0.4, 0.6, 0.0], np.s_[2]),
    ], ids=["column", "row"])
    def test_hall_slack_leaves_an_empty_line(self, q, r, c, empty):
        rows, cols = Alphabet(tuple(range(len(r)))), Alphabet(tuple(range(len(c))))
        q, r, c = JointPmf(rows, cols, np.array(q)), Pmf(rows, np.array(r)), Pmf(cols, np.array(c))
        with np.errstate(divide="raise", invalid="raise"):
            got = expo.i_projection_coupling(q, r, c)
        np.testing.assert_allclose(got.probs, oracles.i_projection_coupling(q, r, c).probs,
                                   rtol=0.0, atol=1e-12)
        assert not got.probs[empty].any()

    def test_every_row_nearly_on_one_column(self):
        # a point where the E3 sphere search of a seeded 4x2 pair evaluates
        # g: column x keeps 2.4e-7 for row 0, so every row of the projection
        # is nearly on one column, the Jacobian is nearly zero, and rounding
        # in a least-squares step shifted beta by thousands a step until the
        # column sums could no longer meet P_V (IPF stops short here too)
        rows, cols = Alphabet((0, 1, 2, 3)), Alphabet(("x", "y"))
        q = JointPmf(rows, cols, np.array([
            [0.04471283886678493, 0.5684408652708416], [0.12623398401980288, 0.0],
            [0.23115348220666335, 0.0], [0.0, 0.029458829635907288]]))
        r = Pmf(rows, np.array([0.0023967934448497472, 0.0, 0.31923108083238083,
                                0.6783721257227695]))
        c = Pmf(cols, np.array([0.3192313156435979, 0.6807686843564021]))
        k = expo.i_projection_coupling(q, r, c)
        np.testing.assert_allclose(k.probs.sum(axis=1), r.probs, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(k.probs.sum(axis=0), c.probs, rtol=0.0, atol=2e-13)
        assert k.probs[0, 0] == pytest.approx(c.probs[0] - r.probs[2], rel=1e-6)

    def test_marginals_and_product_form(self):
        rng = np.random.default_rng(0)
        rows = Alphabet((0, 1, 2))
        cols = Alphabet(("x", "y", "z"))
        for _ in range(20):
            q = JointPmf(rows, cols, rng.dirichlet(np.ones(9)).reshape(3, 3))
            r = Pmf(rows, rng.dirichlet(np.ones(3)))
            c = Pmf(cols, rng.dirichlet(np.ones(3)))
            k = expo.i_projection_coupling(q, r, c)
            assert np.allclose(k.probs.sum(axis=1), r.probs, atol=1e-9)
            assert np.allclose(k.probs.sum(axis=0), c.probs, atol=1e-9)
            # the projection is q rescaled by a rank-one positive factor
            ratio = k.probs / q.probs
            assert np.linalg.matrix_rank(ratio, tol=1e-6) == 1

    def test_projection_beats_random_couplings(self):
        rng = np.random.default_rng(1)
        rows = Alphabet((0, 1))
        cols = Alphabet(("x", "y"))
        q = JointPmf(rows, cols, np.array([[0.4, 0.1], [0.2, 0.3]]))
        r = Pmf(rows, np.array([0.35, 0.65]))
        c = Pmf(cols, np.array([0.55, 0.45]))
        k = expo.i_projection_coupling(q, r, c)
        best = kl_divergence_vec(k.probs.ravel(), q.probs.ravel())
        lo = max(0.0, r.probs[0] + c.probs[0] - 1.0)
        hi = min(r.probs[0], c.probs[0])
        for t in rng.uniform(lo, hi, size=500):
            other = np.array([
                [t, r.probs[0] - t],
                [c.probs[0] - t, 1 - r.probs[0] - c.probs[0] + t],
            ])
            assert best <= kl_divergence_vec(other.ravel(), q.probs.ravel()) + 1e-10

    def test_infeasible_support(self):
        rows = Alphabet((0, 1))
        cols = Alphabet(("x", "y"))
        q = JointPmf(rows, cols, np.array([[0.5, 0.0], [0.0, 0.5]]))
        with pytest.raises(Infeasible):
            expo.i_projection_coupling(
                q, Pmf(rows, np.array([0.3, 0.7])), Pmf(cols, np.array([0.7, 0.3]))
            )

    def test_alphabet_mismatch(self):
        rows = Alphabet((0, 1))
        cols = Alphabet(("x", "y"))
        q = JointPmf(rows, cols, np.full((2, 2), 0.25))
        with pytest.raises(Infeasible):
            expo.i_projection_coupling(
                q, Pmf(cols, np.array([0.5, 0.5])), Pmf(cols, np.array([0.5, 0.5]))
            )


class TestE1:
    def test_product_reference_splits(self):
        u = Alphabet((0, 1))
        v = Alphabet(("x", "y", "z"))
        p_uv = JointPmf(u, v, np.array([[0.1, 0.2, 0.15], [0.25, 0.1, 0.2]]))
        q_u = Pmf(u, np.array([0.6, 0.4]))
        q_v = Pmf(v, np.array([0.2, 0.5, 0.3]))
        q_uv = JointPmf.product(q_u, q_v)
        e1 = expo.compute_E1(p_uv, q_uv)
        want = kl_divergence(p_uv.row_marginal(), q_u) + kl_divergence(
            p_uv.col_marginal(), q_v
        )
        assert e1.value_nats == pytest.approx(want, abs=1e-8)

    def test_degenerate_v_reduces_to_marginal_divergence(self, example_sources):
        p_uv, q_uv = example_sources
        e1 = expo.compute_E1(p_uv, q_uv)
        want = kl_divergence(p_uv.row_marginal(), q_uv.row_marginal())
        assert e1.value_nats == pytest.approx(want, rel=1e-10)

    def test_support_violation(self):
        u = Alphabet((0, 1))
        v = Alphabet(("x",))
        p_uv = JointPmf(u, v, np.array([[0.5], [0.5]]))
        q_uv = JointPmf(u, v, np.array([[1.0], [0.0]]))
        with pytest.raises(SupportViolation):
            expo.compute_E1(p_uv, q_uv)


class TestTU:
    def test_degenerate_v_gives_alternative_marginal(self, example_sources):
        _, q_uv = example_sources
        p_v = Pmf(Alphabet(("c",)), np.array([1.0]))
        t_u = expo.compute_T_U(p_v, q_uv)
        assert np.allclose(t_u.probs, q_uv.row_marginal().probs)

    def test_direct_formula(self):
        u = Alphabet((0, 1))
        v = Alphabet(("x", "y"))
        q_uv = JointPmf(u, v, np.array([[0.1, 0.3], [0.4, 0.2]]))
        p_v = Pmf(v, np.array([0.6, 0.4]))
        t_u = expo.compute_T_U(p_v, q_uv)
        want = 0.6 * q_uv.probs[:, 0] / 0.5 + 0.4 * q_uv.probs[:, 1] / 0.5
        assert np.allclose(t_u.probs, want)

    def test_undefined_conditional(self):
        u = Alphabet((0, 1))
        v = Alphabet(("x", "y"))
        q_uv = JointPmf(u, v, np.array([[0.5, 0.0], [0.5, 0.0]]))
        p_v = Pmf(v, np.array([0.5, 0.5]))
        with pytest.raises(ConditionalUndefined):
            expo.compute_T_U(p_v, q_uv)


class TestE2E3:
    def test_e2_empty_feasible_set(self, example_sources, example_p_u):
        p_uv, q_uv = example_sources
        dmc = Dmc(AB, AB, AB, [[0.5, 0.5]] * 2, [[0.4, 0.6], [0.4, 0.6]], "a")
        pbar = expo.pbar_threshold(dmc, "b")
        with pytest.raises(EmptyFeasibleSet):
            expo.compute_E2(p_uv, q_uv, example_p_u, pbar)

    def test_e2_minimizer_on_constraint_boundary(
        self, example_sources, example_dmc, example_p_u
    ):
        p_uv, q_uv = example_sources
        pbar = expo.pbar_threshold(example_dmc, "1")
        e2 = expo.compute_E2(p_uv, q_uv, example_p_u, pbar)
        min_u = e2.minimizer.row_marginal()
        # the unconstrained minimizer (the alternative marginal) lies inside
        # the transmission set, so the constrained optimum sits on tau
        assert kl_divergence(min_u, example_p_u) == pytest.approx(pbar.tau_nats, abs=1e-6)
        assert e2.value_nats == pytest.approx(
            kl_divergence(min_u, q_uv.row_marginal()), abs=1e-8
        )

    def test_e3_example_decomposition(self, example_sources, example_dmc, example_p_u):
        p_uv, q_uv = example_sources
        pbar = expo.pbar_threshold(example_dmc, "1")
        inner, channel, total = expo.compute_E3(p_uv, q_uv, example_p_u, example_dmc, pbar)
        # the alternative's U-marginal already triggers transmission, so the
        # source part vanishes and only the channel divergence remains
        assert inner == pytest.approx(0.0, abs=1e-12)
        want = kl_divergence(example_dmc.y_row("0"), example_dmc.y_row("1"))
        assert channel == pytest.approx(want, rel=1e-12)
        assert total == inner + channel

    def test_e2_ternary_upper_bound_property(self):
        # T_U lies outside the ball, so a ternary source alphabet exercises
        # the sphere search with its SLSQP polish; the returned value must
        # not exceed the objective at any feasible point
        u = Alphabet((0, 1, 2))
        v = Alphabet(("x", "y"))
        p_uv = JointPmf(u, v, np.array([[0.3, 0.1], [0.2, 0.1], [0.1, 0.2]]))
        q_uv = JointPmf(u, v, np.array([[0.1, 0.1], [0.1, 0.3], [0.25, 0.15]]))
        p_u = p_uv.row_marginal()
        dmc = Dmc(
            AB, AB, AB, [[0.6, 0.4], [0.4, 0.6]], [[0.6, 0.4], [0.4, 0.6]], "a"
        )
        pbar = expo.pbar_threshold(dmc, "b")
        e2 = expo.compute_E2(p_uv, q_uv, p_u, pbar)
        g = expo._coupling_objective(q_uv, p_uv.col_marginal())
        rng = np.random.default_rng(4)
        for _ in range(2000):
            pt = rng.dirichlet(np.ones(3))
            if kl_rows(pt, p_u.probs) <= pbar.tau_nats:
                assert e2.value_nats <= g(pt) + 1e-7


    @pytest.mark.parametrize("case", ["ternary", "binary"])
    def test_e2_is_local_exponent_when_t_u_is_in_the_ball(
        self, case, example_dmc, monkeypatch
    ):
        if case == "ternary":
            cfg = ExperimentConfig.from_dict(TERNARY_CONFIG)
            (p_uv, q_uv), dmc, x1 = cfg.source_pmfs(), cfg.dmc(), "2"
        else:
            (p_uv, q_uv), dmc, x1 = seeded_binary_sources(1), example_dmc, "1"
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        pbar = expo.pbar_threshold(dmc, x1)
        t_u = expo.compute_T_U(p_v, q_uv)
        assert kl_divergence(t_u, p_u) < pbar.tau_nats

        def no_solve(*args, **kwargs):
            raise AssertionError("the closed form needs no coupling solve")

        monkeypatch.setattr(expo, "i_projection_coupling", no_solve)
        e2 = expo.compute_E2(p_uv, q_uv, p_u, pbar)
        assert e2.value_nats == expo.local_exponent(p_v, q_uv.col_marginal())
        np.testing.assert_allclose(e2.minimizer.row_marginal().probs, t_u.probs, rtol=1e-12)
        np.testing.assert_allclose(e2.minimizer.col_marginal().probs, p_v.probs, rtol=1e-12)
        assert kl_divergence_vec(
            e2.minimizer.probs.ravel(), q_uv.probs.ravel()
        ) == pytest.approx(e2.value_nats, rel=1e-12)

    def test_solver_failure_is_logged(self, monkeypatch, caplog):
        def no_convergence(*args, **kwargs):
            raise NoConvergence("stub")

        monkeypatch.setattr(expo, "i_projection_coupling", no_convergence)
        p_uv, q_uv = seeded_binary_sources(1)
        g = expo._coupling_objective(q_uv, p_uv.col_marginal())
        with caplog.at_level(logging.WARNING, logger="covertdht.exponents"):
            assert g(np.array([0.25, 0.75])) == math.inf
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert record.name == "covertdht.exponents"
        assert "pi_U = [0.25, 0.75]" in record.getMessage()

    def test_g_with_the_projection_on_the_support_boundary(self, caplog):
        # Q(a, y) = 0 forces pi(a, x) = 0.6 and so pi(b, x) = 0 at pi_U =
        # (0.6, 0.4, 0): one coupling, whose divergence is g there
        q = np.array(TIE_CONFIG["sources"]["q_uv"])
        q_uv = JointPmf(Alphabet(("a", "b", "c")), Alphabet(("x", "y")), q)
        g = expo._coupling_objective(q_uv, Pmf(q_uv.col_alphabet, np.array([0.6, 0.4])))
        with caplog.at_level(logging.WARNING, logger="covertdht.exponents"):
            value = g(np.array([0.6, 0.4, 0.0]))
        assert not caplog.records
        want = 0.6 * math.log(0.6 / q[0, 0]) + 0.4 * math.log(0.4 / q[1, 1])
        assert value == pytest.approx(want, rel=0.0, abs=1e-9)


class TestBinaryConstrainedMin:
    """Binary-U E2 (upper=False) and E3 inner term (upper=True) against the
    former golden-section/root minimizer on the tests' own IPF objective
    (``oracles.coupling_objective``) and against a zoomed scan of the
    closed-form 2x2 coupling divergence over the feasible m. tau is a multiple
    of D(T_U || P_U), so T_U lies inside the sphere D = tau or outside it."""

    @pytest.mark.parametrize("seed", BINARY_SEEDS)
    @pytest.mark.parametrize("upper", [False, True])
    @pytest.mark.parametrize("tau_scale", [0.5, 2.0])
    def test_against_old_minimizer_and_scan(self, seed, upper, tau_scale):
        p_uv, q_uv = seeded_binary_sources(seed)
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        t_u = expo.compute_T_U(p_v, q_uv)
        tau = tau_scale * kl_divergence(t_u, p_u)
        term = expo._constrained_min(q_uv, p_u, p_v, tau, upper)

        g = oracles.coupling_objective(q_uv, p_v)
        old, _ = oracles.constrained_min_binary(g, t_u.probs, p_u.probs, tau, upper)

        def g_closed_form(m):
            return oracles.coupling_divergence_2x2(q_uv.probs, 1.0 - m, p_v.probs[0])

        lo, hi = oracles.binary_sphere_roots(p_u.probs, tau)
        if upper:
            pieces = [(0.0, lo)] * (lo is not None) + [(hi, 1.0)] * (hi is not None)
        else:
            pieces = [(0.0 if lo is None else lo, 1.0 if hi is None else hi)]
        scan = min((oracles.scan_min_convex(g_closed_form, a, b) for a, b in pieces),
                   default=math.inf)

        assert term.value_nats == pytest.approx(old, abs=1e-9)
        assert term.value_nats == pytest.approx(scan, abs=1e-9)
        if not pieces:  # D(. || P_U) < tau on the whole simplex: E3 is +inf
            assert term.value_nats == math.inf and term.minimizer is None
            return
        # the coupling's row marginal is the minimizer to the solver's tolerance
        d = kl_divergence(term.minimizer.row_marginal(), p_u)
        assert d >= tau - 1e-8 if upper else d <= tau + 1e-8
        np.testing.assert_allclose(term.minimizer.col_marginal().probs, p_v.probs,
                                   atol=1e-9)

    def test_sphere_roots_match_bisection(self):
        p_u = np.array([0.8, 0.2])
        for tau in (0.01, 0.1, 0.2, 1.0, 2.0):
            # the rays toward the two vertices cross below and above P_U(1)
            got = [None if pt is None else pt[1]
                   for pt in (expo.sphere_point(p_u, b, tau) for b in ([1, 0], [0, 1]))]
            want = oracles.binary_sphere_roots(p_u, tau)
            for a, b in zip(got, want):
                assert (a is None) == (b is None)
                if a is not None:
                    assert a == pytest.approx(b, abs=1e-12)


def _brentq_cases():
    """(f, a, b, xtol) for the Brent comparison: the sphere crossings the
    library solves, on seeded pmfs, rays and radii, then textbook roots."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        dim = int(rng.integers(2, 6))
        p_u = rng.dirichlet(np.ones(dim))
        b = np.zeros(dim)
        b[rng.permutation(dim)[1:]] = rng.dirichlet(np.ones(dim - 1))
        d_b = kl_rows(b, p_u)
        for tau in (0.01 * d_b, 0.5 * d_b, d_b * (1.0 - 1e-9), d_b):
            def excess(r, p_u=p_u, b=b, tau=tau):
                return float(kl_rows((1.0 - r) * p_u + r * b, p_u)) - tau
            yield excess, 0.0, 1.0, 1e-14
    yield (lambda x: x**3 - 2.0 * x - 5.0), 2.0, 3.0, 2e-12
    yield (lambda x: math.cos(x) - x), 0.0, 1.0, 2e-12
    yield (lambda x: -1.0 if x < 0.3 else 1.0), 0.0, 1.0, 2e-12  # a jump
    yield (lambda x: x - 0.25), 0.25, 1.0, 2e-12  # root at an end


def test_brentq_matches_scipy_bit_for_bit():
    from scipy.optimize import brentq

    for f, a, b, xtol in _brentq_cases():
        assert expo._brentq(f, a, b, xtol=xtol) == brentq(f, a, b, xtol=xtol)
    with pytest.raises(ValueError):
        expo._brentq(lambda x: x + 1.0, 0.0, 1.0)


@pytest.mark.parametrize("face_size", [2, 3, 4])
def test_sphere_point_matches_kl_rows_oracle(face_size):
    # seeded segments from P_U, positive on `face_size` of 2-4 letters, to
    # ends b with one or more zeros on that face; the radii put b outside the
    # ball, on the sphere and inside it (None)
    rng = np.random.default_rng(face_size)
    for _ in range(100):
        dim = int(rng.integers(face_size, 5))
        face = rng.permutation(dim)[:face_size]
        p_u, b = np.zeros(dim), np.zeros(dim)
        p_u[face] = rng.dirichlet(np.ones(face_size))
        kept = face[int(rng.integers(1, face_size)):]
        b[kept] = rng.dirichlet(np.ones(len(kept)))
        d_b = float(kl_rows(b, p_u))
        for tau in (0.01 * d_b, 0.5 * d_b, d_b, 1.5 * d_b):
            got, want = expo.sphere_point(p_u, b, tau), oracles.sphere_point(p_u, b, tau)
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)


def seeded_ternary_sources(seed):
    """3x2 source pair (P_UV, Q_UV) from a seeded Dirichlet."""
    rng = np.random.default_rng(seed)
    u, v = Alphabet((0, 1, 2)), Alphabet(("x", "y"))
    p_uv = JointPmf(u, v, rng.dirichlet(np.ones(6)).reshape(3, 2))
    q_uv = JointPmf(u, v, rng.dirichlet(np.ones(6)).reshape(3, 2))
    return p_uv, q_uv


# 4x2 source pair on which the former grid needed 65 s for the E3 inner term
P_UV_4X2 = [[0.35, 0.05], [0.10, 0.20], [0.05, 0.10], [0.05, 0.10]]
Q_UV_4X2 = [[0.10, 0.10], [0.15, 0.15], [0.20, 0.05], [0.15, 0.10]]
# (tau as a multiple of D(T_U || P_U), upper, value in nats from the grid oracle)
SPHERE_CASES_4X2 = [(0.5, False, 0.015601915240777), (2.0, True, 0.026554539418449)]


# scheme B with tau = 0.585 nats: E3's sphere search conditions P_U =
# (0.2, 0.32, 0.48) on pi(a) = 0, and the lattice end (0, 0.4, 0.6) is that
# conditioned center only up to rounding
TIE_CONFIG = {
    "sources": {"u_symbols": ["a", "b", "c"], "v_symbols": ["x", "y"],
                "p_uv": [[0.2, 0.0], [0.18, 0.14], [0.22, 0.26]],
                "q_uv": [[0.08, 0.0], [0.36, 0.05], [0.31, 0.2]]},
    "channel": {"x_symbols": ["0", "1"], "y_symbols": ["0", "1"], "z_symbols": ["0", "1"],
                "zero_symbol": "0", "y_given_x": [[0.6, 0.4], [0.4, 0.6]],
                "z_given_x": [[0.6, 0.4], [0.2, 0.8]]},
    "scheme": {"scheme": "B", "x1": "1", "mu": 0.05},
}


class TestTernaryConstrainedMin:
    """E2 (upper=False) and E3 inner term (upper=True) for |U| = 3 and 4
    against the former simplex grid plus SLSQP polish. tau is a multiple of
    D(T_U || P_U), so T_U lies inside the sphere D = tau or outside it; on
    the feasible side the former minimizer returned g(T_U)."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("upper", [False, True])
    @pytest.mark.parametrize("tau_scale", [0.5, 2.0])
    def test_against_grid_oracle(self, seed, upper, tau_scale, caplog):
        p_uv, q_uv = seeded_ternary_sources(seed)
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        t_u = expo.compute_T_U(p_v, q_uv)
        tau = tau_scale * kl_divergence(t_u, p_u)
        with caplog.at_level(logging.WARNING, logger="covertdht.exponents"):
            term = expo._constrained_min(q_uv, p_u, p_v, tau, upper)
        assert not caplog.records  # the polish succeeded
        g = oracles.coupling_objective(q_uv, p_v)
        if (tau_scale > 1.0) != upper:  # T_U is feasible
            want = g(t_u.probs)
        else:
            want, _ = oracles.constrained_min_grid(g, p_u.probs, tau, upper)
            if want < math.inf:
                d = kl_divergence(term.minimizer.row_marginal(), p_u)
                assert d == pytest.approx(tau, abs=1e-8)
        assert term.value_nats == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("tau_scale, upper, want", SPHERE_CASES_4X2)
    def test_4x2_pinned(self, tau_scale, upper, want, monkeypatch):
        u, v = Alphabet((0, 1, 2, 3)), Alphabet(("x", "y"))
        p_uv, q_uv = JointPmf(u, v, np.array(P_UV_4X2)), JointPmf(u, v, np.array(Q_UV_4X2))
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        tau = tau_scale * kl_divergence(expo.compute_T_U(p_v, q_uv), p_u)
        calls = []
        ipf = expo.i_projection_coupling

        def counted(*args, **kwargs):
            calls.append(None)
            return ipf(*args, **kwargs)

        monkeypatch.setattr(expo, "i_projection_coupling", counted)
        solve = expo._lagrangian_point

        def counted_solve(*args, **kwargs):
            calls.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(expo, "_lagrangian_point", counted_solve)
        term = expo._constrained_min(q_uv, p_u, p_v, tau, upper)
        assert term.value_nats == pytest.approx(want, abs=1e-9)
        # guard against a dense grid on the solver's work, Newton solves plus
        # IPF calls: a grid made 7,516 and 125,779 IPF calls here, the sphere
        # search hundreds
        assert 0 < len(calls) < 100

    @pytest.mark.parametrize("tau, want", [(0.05, 0.617423358911979),
                                           (0.3, 0.578693799462149)])
    def test_e2_on_the_face_of_a_zero_source_symbol(self, tau, want):
        # P_U(2) = 0, so the ball D(pi_U || P_U) <= tau lies in the face
        # pi_U(2) = 0; at tau = 0.3 the face's own closed form is feasible
        u, v = Alphabet((0, 1, 2)), Alphabet(("x", "y"))
        p_uv = JointPmf(u, v, np.array([[0.5, 0.2], [0.1, 0.2], [0.0, 0.0]]))
        q_uv = JointPmf(u, v, np.array([[0.10, 0.15], [0.15, 0.20], [0.30, 0.10]]))
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        term = expo._constrained_min(q_uv, p_u, p_v, tau, upper=False)
        assert term.value_nats == pytest.approx(want, abs=1e-9)
        assert term.minimizer.row_marginal().probs[2] == 0.0
        assert kl_divergence(term.minimizer.row_marginal(), p_u) <= tau + 1e-9
        assert kl_divergence_vec(term.minimizer.probs.ravel(),
                                 q_uv.probs.ravel()) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("q, tau, upper", [
        ([[0.1, 0.2], [0.3, 0.1], [0.2, 0.1]], 0.8, True),
        ([[0.1, 0.2], [0.3, 0.1], [0.2, 0.1]], 1.0, True),
        ([[0.02, 0.01], [0.45, 0.47], [0.01, 0.04]], 0.75, False),
    ])
    def test_ray_ending_at_the_conditioned_center(self, q, tau, upper):
        # P_U = (1/2, 1/4, 1/4) has exact row sums, so the lattice end
        # (0, 1/2, 1/2) is P_U conditioned on pi(0) = 0 bit for bit; with
        # tau > log 2 it lies inside the ball and has no ray to continue
        u, v = Alphabet((0, 1, 2)), Alphabet(("x", "y"))
        p_uv = JointPmf(u, v, np.array([[0.25, 0.25], [0.125, 0.125], [0.125, 0.125]]))
        q_uv = JointPmf(u, v, np.array(q))
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        end = np.array([0.0, 0.5, 0.5])
        assert kl_rows(end, p_u.probs) == pytest.approx(math.log(2.0))
        assert math.log(2.0) < tau
        assert expo._retract(p_u.probs, end, tau) == (None, 0.0)
        t_u = expo.compute_T_U(p_v, q_uv)
        assert (kl_divergence(t_u, p_u) < tau) == upper  # T_U is infeasible
        term = expo._constrained_min(q_uv, p_u, p_v, tau, upper)
        want, _ = oracles.constrained_min_grid(oracles.coupling_objective(q_uv, p_v),
                                               p_u.probs, tau, upper)
        assert term.value_nats == pytest.approx(want, abs=1e-9)
        assert kl_divergence(term.minimizer.row_marginal(), p_u) == pytest.approx(tau, abs=1e-8)

    def test_ray_ending_at_the_conditioned_center_up_to_rounding(self, tmp_path):
        # the end (0, 0.4, 0.6) differs from P_U conditioned on pi(a) = 0 by
        # (0, 5.6e-17, 0): no face coordinate decreases, so it is the center
        # and has no ray to continue, as in the exact case above
        cfg = ExperimentConfig.from_dict(TIE_CONFIG)
        (p_uv, q_uv), dmc = cfg.source_pmfs(), cfg.dmc()
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        tau = expo.pbar_threshold(dmc, "1").tau_nats
        center = np.array([0.0, *p_u.probs[1:]]) / (1.0 - p_u.probs[0])
        end = np.array([0.0, 0.4, 0.6])
        assert (end - center).any() and not (end - center < 0.0).any()
        assert expo._retract(p_u.probs, end, tau) == (None, 0.0)
        term = expo._constrained_min(q_uv, p_u, p_v, tau, upper=True)
        assert kl_divergence(term.minimizer.row_marginal(), p_u) == pytest.approx(tau, abs=1e-9)
        # oracles.constrained_min_grid takes 12 s here; it gives 0.5296487
        assert term.value_nats <= 0.52965
        path = tmp_path / "tie.json"
        path.write_text(json.dumps(TIE_CONFIG))
        assert main(["exponents", str(path), "--json"]) == 0

    def test_e2_is_infinite_without_a_coupling_on_the_face(self):
        # Q puts all of V = "y" on the symbol P_U never emits
        u, v = Alphabet((0, 1, 2)), Alphabet(("x", "y"))
        p_uv = JointPmf(u, v, np.array([[0.5, 0.2], [0.1, 0.2], [0.0, 0.0]]))
        q_uv = JointPmf(u, v, np.array([[0.3, 0.0], [0.3, 0.0], [0.2, 0.2]]))
        term = expo._constrained_min(q_uv, p_uv.row_marginal(), p_uv.col_marginal(),
                                     0.3, upper=False)
        assert term.value_nats == math.inf and term.minimizer is None

    def test_failed_polish_is_logged(self, monkeypatch, caplog):
        # the sphere search, E3's fallback, on E2's sphere here
        cfg = ExperimentConfig.from_dict(TERNARY_CONFIG)
        (p_uv, q_uv), dmc = cfg.source_pmfs(), cfg.dmc()
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        tau = expo.pbar_threshold(dmc, "1").tau_nats  # T_U is outside the ball
        g = expo._coupling_objective(q_uv, p_v)
        polished, _ = expo._sphere_min(g, p_u.probs, tau)

        def stub(f, x0, step, **kwargs):
            return x0, math.inf, False  # the search reports no convergence

        monkeypatch.setattr(expo, "_nelder_mead", stub)
        with caplog.at_level(logging.WARNING, logger="covertdht.exponents"):
            value, pi_u = expo._sphere_min(g, p_u.probs, tau)
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "sphere polish failed (no convergence" in record.getMessage()
        # the result is the best ray crossing, on the sphere and above the
        # polished minimum
        assert kl_rows(pi_u, p_u.probs) == pytest.approx(tau, abs=1e-9)
        assert polished < value < polished + 1e-3

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("upper", [False, True])
    def test_polished_minimizer_is_on_the_sphere(self, seed, upper, monkeypatch):
        # every trial direction of the polish is retracted onto the sphere,
        # so the polished point, not only the ray crossings, has D = tau
        p_uv, q_uv = seeded_ternary_sources(seed)
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        tau = (2.0 if upper else 0.5) * kl_divergence(expo.compute_T_U(p_v, q_uv), p_u)
        polished = []
        search = expo._nelder_mead

        def recorded(*args, **kwargs):
            polished.append(search(*args, **kwargs))
            return polished[-1]

        monkeypatch.setattr(expo, "_nelder_mead", recorded)
        value, pi_u = expo._sphere_min(expo._coupling_objective(q_uv, p_v), p_u.probs, tau)
        [(_, polished_value, converged)] = polished
        assert converged and value == polished_value
        assert kl_rows(pi_u, p_u.probs) == pytest.approx(tau, abs=1e-9)

    def test_e3_minimum_on_an_edge(self, caplog):
        # 4x2 pair whose E3 inner minimum lies on the edge pi(0) = pi(3) = 0,
        # where the sphere meets the boundary of the simplex; the rays toward
        # that edge end inside the ball, and the former search (ray
        # crossings, SLSQP polish) stopped at 1.1739929164 on another edge
        rng = np.random.default_rng(9)
        u, v = Alphabet((0, 1, 2, 3)), Alphabet(("x", "y"))
        p_uv = JointPmf(u, v, rng.dirichlet(np.ones(8)).reshape(4, 2))
        q_uv = JointPmf(u, v, rng.dirichlet(np.ones(8)).reshape(4, 2))
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        tau = 2.0 * kl_divergence(expo.compute_T_U(p_v, q_uv), p_u)
        with caplog.at_level(logging.WARNING, logger="covertdht.exponents"):
            term = expo._constrained_min(q_uv, p_u, p_v, tau, upper=True)
        assert not caplog.records
        pi_u = term.minimizer.row_marginal().probs
        assert pi_u[0] == pi_u[3] == 0.0
        assert kl_rows(pi_u, p_u.probs) == pytest.approx(tau, abs=1e-9)
        # the sphere point on that edge, by bisection on the conditioned pmf
        cond = p_u.probs[1:3] / p_u.probs[1:3].sum()
        lo, hi = oracles.binary_sphere_roots(cond, tau + math.log(p_u.probs[1:3].sum()))
        g = expo._coupling_objective(q_uv, p_v)
        want = min(g(np.array([0.0, 1.0 - m, m, 0.0])) for m in (lo, hi) if m is not None)
        assert term.value_nats == pytest.approx(want, abs=1e-9)
        # no feasible point of any edge does better
        for i, j in itertools.combinations(range(4), 2):
            for m in np.linspace(0.0, 1.0, 201):
                x = np.zeros(4)
                x[i], x[j] = m, 1.0 - m
                if kl_rows(x, p_u.probs) >= tau:
                    assert g(x) >= term.value_nats - 1e-12


class TestSphereSearchDefects:
    """Inputs with zeros in Q_UV on which the E2/E3 sphere search is known
    to overestimate; every reference value comes from public functions and
    the test oracles."""

    U3, V2 = Alphabet(("a", "b", "c")), Alphabet(("x", "y"))

    @pytest.mark.parametrize("tau", [0.031, 0.078])
    def test_e2_at_most_e1(self, tau):
        # the ball D(pi_U || P_U) <= tau holds P_U, so E2 <= E1; supp(Q)
        # forces pi_U(b) = P_V(x), a line that no lattice ray hits
        p_uv = JointPmf(self.U3, self.V2, np.array([[0, 0.07], [0.41, 0], [0, 0.52]]))
        q_uv = JointPmf(self.U3, self.V2, np.array([[0, 0.37], [0.09, 0], [0, 0.54]]))
        p_u = p_uv.row_marginal()
        pbar = expo.PbarSet(x1="1", tau_nats=tau, maximizer=p_u)
        e1 = expo.compute_E1(p_uv, q_uv).value_nats
        assert e1 == pytest.approx(0.4855, abs=1e-4)
        assert expo.compute_E2(p_uv, q_uv, p_u, pbar).value_nats <= e1

    @pytest.mark.parametrize("p, q, tau", [
        ([[0.26, 0], [0.18, 0.3], [0, 0.26]], [[0.32, 0], [0.22, 0.2], [0, 0.26]], 0.5),
        ([[0.36, 0], [0.02, 0.33], [0, 0.29]], [[0.4, 0], [0.1, 0.07], [0, 0.43]], 0.446),
        ([[0.02, 0], [0.21, 0.42], [0, 0.35]], [[0.26, 0], [0.04, 0.41], [0, 0.29]], 1.0),
    ])
    def test_e3_inner_at_most_g_on_the_sphere(self, example_dmc, p, q, tau):
        # the segment from P_U to (P_V(x), 0, P_V(y)) crosses the sphere
        # D = tau at a point of the triggering set, so the inner minimum is
        # at most g there
        p_uv = JointPmf(self.U3, self.V2, np.array(p))
        q_uv = JointPmf(self.U3, self.V2, np.array(q))
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        pt = oracles.sphere_point(p_u.probs, (p_v.probs[0], 0.0, p_v.probs[1]), tau)
        assert kl_divergence(Pmf(self.U3, pt), p_u) == pytest.approx(tau, abs=1e-12)
        coupling = oracles.i_projection_coupling(q_uv, Pmf(self.U3, pt), p_v)
        g = oracles.kl(coupling.probs.ravel(), q_uv.probs.ravel())
        pbar = expo.PbarSet(x1="1", tau_nats=tau, maximizer=p_u)
        inner, _, _ = expo.compute_E3(p_uv, q_uv, p_u, example_dmc, pbar)
        assert inner <= g + 1e-9


def logged_constrained_min(caplog, q_uv, p_u, p_v, tau, upper):
    """`_constrained_min` and the fields of its one DEBUG record: (term,
    branch, kappa, Newton steps, value - L(lambda))."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="covertdht.exponents"):
        term = expo._constrained_min(q_uv, p_u, p_v, tau, upper)
    [record] = [r for r in caplog.records if r.levelno == logging.DEBUG]
    assert record.name == "covertdht.exponents"
    what, rec_tau, branch, kappa, steps, gap = record.args
    assert what == ("E3 inner" if upper else "E2") and rec_tau == tau
    return term, branch, kappa, steps, gap


def lagrangian_case(seed, nu, nv, holes, zero_row):
    """Seeded (P_UV, Q_UV) with P_UV << Q_UV: Dirichlet entries, a quarter of
    Q's cells empty if `holes`, and row 0 of P ("p") or of both ("pq") empty;
    None where that leaves P or Q with no mass."""
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(nu * nv)).reshape(nu, nv)
    p = rng.dirichlet(np.ones(nu * nv)).reshape(nu, nv)
    if holes:
        q[rng.random((nu, nv)) < 0.25] = 0.0
    if zero_row == "pq":
        q[0] = 0.0
    p[q == 0.0] = 0.0
    if zero_row == "p":
        p[0] = 0.0
    if p.sum() == 0.0:
        return None
    u, v = Alphabet(tuple(range(nu))), Alphabet(tuple("wxyz"[:nv]))
    return JointPmf(u, v, p / p.sum()), JointPmf(u, v, q / q.sum())


class TestLagrangianPath:
    """The Lagrangian path against the sphere search, E3's fallback."""

    @given(nu=st.integers(2, 6), nv=st.integers(2, 4), holes=st.booleans(),
           zero_row=st.sampled_from(["", "p", "pq"]),
           tau_scale=st.sampled_from([0.3, 0.7, 1.5, 3.0]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_agrees_with_the_sphere_search(self, nu, nv, holes, zero_row, tau_scale, seed,
                                           caplog):
        case = lagrangian_case(seed, nu, nv, holes, zero_row)
        if case is None:
            return
        p_uv, q_uv = case
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        upper = tau_scale > 1.0
        # the sphere search's reference: E2 keeps to the face of P_U
        q, log_mass = q_uv.probs, 0.0
        if not upper and zero_row:
            q = np.where(p_u.probs[:, None] > 0.0, q, 0.0)
            log_mass = math.log(q.sum())
            q = q / q.sum()
        q_ref = JointPmf(q_uv.row_alphabet, q_uv.col_alphabet, q)
        try:
            d_t = float(kl_rows(expo.compute_T_U(p_v, q_ref).probs, p_u.probs))
        except ConditionalUndefined:
            return
        # tau is a multiple of D(T_U || P_U), which must be clear of rounding
        # for the sphere to have a side that T_U is on
        if not 1e-6 < d_t < math.inf:
            return
        tau = tau_scale * d_t
        term, branch, kappa, steps, gap = logged_constrained_min(caplog, q_uv, p_u, p_v,
                                                                 tau, upper)
        if branch != "Lagrangian":
            assert upper and branch in ("sphere fallback", "sphere out of reach")
            return
        assert kappa < 0.0 if upper else 0.0 < kappa < 1.0
        pi, value = term.minimizer.probs, term.value_nats
        pi_u = pi.sum(axis=1)
        np.testing.assert_allclose(pi.sum(axis=0), p_v.probs, rtol=0.0, atol=1e-12)
        assert kl_rows(pi_u, p_u.probs) == pytest.approx(tau, abs=1e-12)
        assert value == pytest.approx(kl_divergence_vec(pi.ravel(), q_uv.probs.ravel()),
                                      abs=1e-15)
        # pi is stationary for D(. || Q) + lambda D(._U || P_U) on its
        # support: log(pi / Q) + lambda log(pi_U / P_U) depends on v alone
        lam = kappa / (1.0 - kappa)
        live = pi > 0.0
        h = np.zeros_like(pi)
        h[live] = np.log(pi[live] / q_uv.probs[live])
        ratio = np.ones_like(pi_u)
        ratio[pi_u > 0.0] = pi_u[pi_u > 0.0] / p_u.probs[pi_u > 0.0]
        h += lam * np.log(ratio)[:, None]
        for col in range(nv):
            assert not live[:, col].any() or np.ptp(h[live[:, col], col]) <= 1e-8
        # so L(lambda) bounds the minimum from below, within 1e-9; from the
        # returned pmf, which JointPmf renormalized, up to lambda times rounding
        lower = value + lam * (kl_rows(pi_u, p_u.probs) - tau)
        assert 0.0 <= gap <= 1e-9
        assert value - lower == pytest.approx(gap, abs=1e-12)
        # and the sphere search agrees, except that on inputs with zeros in Q
        # it can stay above the minimum (TestSphereSearchDefects)
        want, _ = expo._sphere_min(expo._coupling_objective(q_ref, p_v), p_u.probs, tau)
        want -= log_mass
        if (q_uv.probs == 0.0).any():
            assert value <= want + 1e-9
        else:
            assert value == pytest.approx(want, abs=1e-9)

    @staticmethod
    def _rim_case(caplog):
        """E3's inner term on seeded 4x2 sources at tau = 3 D(T_U || P_U),
        whose certified minimizer has a coordinate just above _RIM_TOL: the
        term, its branch and the sphere search's value."""
        p_uv, q_uv = lagrangian_case(0, 4, 2, False, "")
        p_u, p_v = p_uv.row_marginal(), p_uv.col_marginal()
        tau = 3.0 * float(kl_rows(expo.compute_T_U(p_v, q_uv).probs, p_u.probs))
        term, branch, _, _, _ = logged_constrained_min(caplog, q_uv, p_u, p_v, tau, True)
        sphere, _ = expo._sphere_min(expo._coupling_objective(q_uv, p_v), p_u.probs, tau)
        return term, branch, sphere

    def test_certified_minimum_on_the_rim(self, caplog):
        term, branch, _ = self._rim_case(caplog)
        assert branch == "Lagrangian"
        assert term.value_nats == pytest.approx(0.479632842917, abs=1e-11)
        pi_u1 = term.minimizer.probs.sum(axis=1)[1]
        assert expo._RIM_TOL < pi_u1 < 1e-8

    @pytest.mark.xfail(strict=True, reason="the sphere search misses the rim minimum "
                       "when a coordinate (pi_U(1) = 5.5e-9) lies just above _RIM_TOL")
    def test_sphere_search_finds_the_rim_minimum(self, caplog):
        term, _, sphere = self._rim_case(caplog)
        assert sphere == pytest.approx(term.value_nats, abs=1e-9)

    @pytest.mark.parametrize("case, upper, branch", [
        ("3x2-1", False, "Lagrangian"),
        ("3x2-1", True, "closed form"),
        ("3x2-2", False, "closed form"),
        ("3x2-2", True, "Lagrangian"),
        ("edge", True, "sphere fallback"),
        ("no-coupling", False, "no coupling on the face"),
        ("out-of-reach", True, "sphere out of reach"),
    ])
    def test_each_branch_is_logged(self, case, upper, branch, caplog, monkeypatch):
        u3, u4, v = Alphabet((0, 1, 2)), Alphabet((0, 1, 2, 3)), Alphabet(("x", "y"))
        calls = {"_lagrangian_point": 0, "_sphere_min": 0}
        for name in calls:
            def counted(*args, name=name, fn=getattr(expo, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(expo, name, counted)
        if case == "out-of-reach":
            # tau beyond -log min P_U, the divergence of the face's farthest
            # vertex: the whole face lies inside the ball, and E3 is +inf
            rng = np.random.default_rng(3)
            v3 = Alphabet(("x", "y", "z"))
            p_uv = JointPmf(u4, v3, rng.dirichlet(np.ones(12)).reshape(4, 3))
            q_uv = JointPmf(u4, v3, rng.dirichlet(np.ones(12)).reshape(4, 3))
            tau = -1.01 * math.log(p_uv.row_marginal().probs.min())
        elif case == "edge":  # the input of test_e3_minimum_on_an_edge
            rng = np.random.default_rng(9)
            p_uv = JointPmf(u4, v, rng.dirichlet(np.ones(8)).reshape(4, 2))
            q_uv = JointPmf(u4, v, rng.dirichlet(np.ones(8)).reshape(4, 2))
            tau = 2.0 * kl_divergence(expo.compute_T_U(p_uv.col_marginal(), q_uv),
                                      p_uv.row_marginal())
        elif case == "no-coupling":  # test_e2_is_infinite_without_a_coupling_on_the_face
            p_uv = JointPmf(u3, v, np.array([[0.5, 0.2], [0.1, 0.2], [0.0, 0.0]]))
            q_uv = JointPmf(u3, v, np.array([[0.3, 0.0], [0.3, 0.0], [0.2, 0.2]]))
            tau = 0.3
        else:  # TERNARY_CONFIG at x1 = "1" or "2"
            cfg = ExperimentConfig.from_dict(TERNARY_CONFIG)
            (p_uv, q_uv), dmc = cfg.source_pmfs(), cfg.dmc()
            tau = expo.pbar_threshold(dmc, case[-1]).tau_nats
        term, got, kappa, steps, gap = logged_constrained_min(
            caplog, q_uv, p_uv.row_marginal(), p_uv.col_marginal(), tau, upper)
        assert got == branch
        if branch == "closed form":
            assert (kappa, steps, gap) == (0.0, 0, 0.0)
        elif branch == "Lagrangian":
            assert (kappa < 0.0) == upper and steps > 0 and 0.0 <= gap <= 1e-9
        elif branch == "sphere fallback":  # the certified branch, scanned to its end
            assert kappa == 1.0 - 2.0**expo._KAPPA_SCAN and steps > 0 and math.isnan(gap)
        else:
            assert math.isnan(kappa) and steps == 0 and term.value_nats == math.inf
            assert calls == {"_lagrangian_point": 0, "_sphere_min": 0}
            return
        assert math.isfinite(term.value_nats)

    @pytest.mark.parametrize("case, max_step", [
        ("edge", 1e300), ("edge", None), ("saturated", None),
    ], ids=["edge-uncut", "edge", "saturated"])
    def test_kappa_one_from_a_cold_start(self, case, max_step, monkeypatch):
        # from the kappa = 0 start, Newton's first full step shrinks the
        # residual but puts all of a row's mass on one column, where Newton's
        # method stalls. "edge": the sources of test_e3_minimum_on_an_edge at
        # the row marginal (0, 0.1331, 0.8642, 0.0027), where that step
        # (beta_x up by 48.7) raises the potential, so the potential alone
        # refuses it; "saturated": Q puts about 1e-9 where row 1 must send
        # most of its mass, and the step that empties column 0 lowers the
        # potential, so only the cut to _NEWTON_MAX_STEP keeps it off
        if case == "edge":
            rng = np.random.default_rng(9)
            p_v = rng.dirichlet(np.ones(8)).reshape(4, 2).sum(axis=0)
            q = rng.dirichlet(np.ones(8)).reshape(4, 2)[1:]  # the rows of positive mass
            r = np.array([0.1331, 0.8642, 0.0027])
        else:
            q = np.array([[0.002, 0.84, 0.158], [0.0025, 2e-9, 1.4e-9]])
            q, r, p_v = q / q.sum(), np.array([0.2, 0.8]), np.array([0.1, 0.55, 0.35])
        if max_step is not None:
            monkeypatch.setattr(expo, "_NEWTON_MAX_STEP", max_step)
        beta = np.log(p_v / q.sum(axis=0))
        pi, _, steps = expo._lagrangian_point(np.log(q), np.log(r)[:, None], p_v, 1.0, beta)
        np.testing.assert_allclose(pi.sum(axis=1), r, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(pi.sum(axis=0), p_v, rtol=0.0, atol=2e-13)
        assert 0 < steps < expo._NEWTON_MAX_ITER

    def test_newton_failure_raises(self, monkeypatch):
        # a solve that cannot meet P_V is an error (the CLI's exit 3), never
        # a value: with one step allowed, E2 on TERNARY_CONFIG at x1 = "1"
        cfg = ExperimentConfig.from_dict(TERNARY_CONFIG)
        (p_uv, q_uv), dmc = cfg.source_pmfs(), cfg.dmc()
        monkeypatch.setattr(expo, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(NoConvergence, match="Newton's method"):
            expo.compute_E2(p_uv, q_uv, p_uv.row_marginal(), expo.pbar_threshold(dmc, "1"))


class TestImprovement:
    def test_full_improvement_on_example(self, example_sources, example_dmc):
        p_uv, q_uv = example_sources
        verdict = expo.achievable_exponent(p_uv, q_uv, example_dmc).improvement
        assert verdict is expo.Improvement.STRICT_IMPROVEMENT_FULL

    def test_partial_improvement(self, example_sources, partial_dmc):
        p_uv, q_uv = example_sources
        verdict = expo.achievable_exponent(p_uv, q_uv, partial_dmc).improvement
        assert verdict is expo.Improvement.STRICT_IMPROVEMENT_PARTIAL

    def test_no_improvement_when_mixture_matches(self, example_dmc):
        u = Alphabet((0, 1))
        v = Alphabet(("x", "y"))
        p_uv = JointPmf.product(Pmf(u, np.array([0.8, 0.2])), Pmf(v, np.array([0.5, 0.5])))
        q_uv = JointPmf.product(Pmf(u, np.array([0.8, 0.2])), Pmf(v, np.array([0.9, 0.1])))
        verdict = expo.achievable_exponent(p_uv, q_uv, example_dmc).improvement
        assert verdict is expo.Improvement.NO_IMPROVEMENT

    def test_no_improvement_when_t_u_triggers_no_input(self, example_dmc):
        # T_U differs from P_U but lies inside the ball D < tau of the only
        # non-zero input, so the fully connected channel never carries it
        p_uv, q_uv = seeded_binary_sources(1)
        rep = expo.achievable_exponent(p_uv, q_uv, example_dmc)
        assert np.abs(rep.t_u.probs - p_uv.row_marginal().probs).max() > 1e-3
        assert not expo.pbar_threshold(example_dmc, "1").triggers(rep.t_u.probs,
                                                                  p_uv.row_marginal())
        assert rep.improvement is expo.Improvement.NO_IMPROVEMENT


class TestAchievableExponent:
    def test_invalid_channel_rejected(self, example_sources):
        p_uv, q_uv = example_sources
        dmc = Dmc(AB, AB, AB, [[0.5, 0.5]] * 2, [[0.4, 0.6], [0.4, 0.6]], "a")
        with pytest.raises(InvalidChannel):
            expo.achievable_exponent(p_uv, q_uv, dmc)

    def test_partially_connected_theta_is_e1(self, example_sources, partial_dmc):
        p_uv, q_uv = example_sources
        rep = expo.achievable_exponent(p_uv, q_uv, partial_dmc)
        assert rep.connectivity is expo.ConnectivityCase.PARTIALLY_CONNECTED
        assert rep.theta_nats == rep.e1_nats == rep.theta_literal_nats

    def test_fully_connected_theta(self, example_sources, example_dmc):
        p_uv, q_uv = example_sources
        rep = expo.achievable_exponent(p_uv, q_uv, example_dmc)
        assert rep.connectivity is expo.ConnectivityCase.FULLY_CONNECTED
        want = min(rep.e2_by_x1["1"], rep.e3_by_x1["1"][2])
        assert rep.theta_nats == pytest.approx(want)
        assert rep.theta_literal_nats == pytest.approx(want)  # single non-zero input

    def test_report_base_conversion(self, example_sources, example_dmc):
        p_uv, q_uv = example_sources
        rep = expo.achievable_exponent(p_uv, q_uv, example_dmc)
        d = rep.as_dict()
        assert d["base"] == "bits"
        assert d["e1"] == pytest.approx(rep.e1_nats / LN2)
        assert d["improvement"] == "strict_improvement_full"

    def test_one_pass_over_the_non_zero_inputs(self, monkeypatch):
        # TERNARY_CONFIG has two non-zero inputs: one threshold, one E2 and
        # one E3 term each, and one admissibility check in all
        cfg = ExperimentConfig.from_dict(TERNARY_CONFIG)
        (p_uv, q_uv), dmc = cfg.source_pmfs(), cfg.dmc()
        calls = {}

        def counting(name):
            fn = getattr(expo, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        for name in ("validate_covert_conditions", "pbar_threshold", "compute_E2",
                     "compute_E3"):
            monkeypatch.setattr(expo, name, counting(name))
        rep = expo.achievable_exponent(p_uv, q_uv, dmc)
        assert calls == {"validate_covert_conditions": 1, "pbar_threshold": 2,
                         "compute_E2": 2, "compute_E3": 2}
        assert list(rep.e2_by_x1) == list(rep.e3_by_x1) == ["1", "2"]
        # T_U is reported last, as `exponents --json` has always written it
        d = rep.as_dict()
        assert list(d)[-1] == "T_U"
        assert d["T_U"] == expo.compute_T_U(p_uv.col_marginal(), q_uv).probs.tolist()

    def test_source_relabelling_invariance(self, example_sources, example_dmc):
        """Swapping the order of the U symbols changes nothing numerical."""
        p_uv, q_uv = example_sources
        u_swapped = Alphabet((1, 0))
        v = p_uv.col_alphabet
        p_sw = JointPmf(u_swapped, v, p_uv.probs[::-1])
        q_sw = JointPmf(u_swapped, v, q_uv.probs[::-1])
        a = expo.achievable_exponent(p_uv, q_uv, example_dmc)
        b = expo.achievable_exponent(p_sw, q_sw, example_dmc)
        assert b.e1_nats == pytest.approx(a.e1_nats, abs=1e-9)
        assert b.e2_by_x1["1"] == pytest.approx(a.e2_by_x1["1"], abs=1e-9)
        assert b.e3_by_x1["1"][2] == pytest.approx(a.e3_by_x1["1"][2], abs=1e-9)
        assert b.theta_nats == pytest.approx(a.theta_nats, abs=1e-9)


def test_local_exponent(example_sources):
    p_uv, q_uv = example_sources
    assert expo.local_exponent(p_uv.col_marginal(), q_uv.col_marginal()) == 0.0
