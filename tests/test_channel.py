import numpy as np
import pytest

from covertdht import Dmc, find_partial_connectivity, validate_covert_conditions
from covertdht.channel import _nnls
from covertdht.errors import NoConvergence
from covertdht.probability import Alphabet

X2 = Alphabet(("0", "1"))
X3 = Alphabet(("0", "1", "2"))
Y2 = Alphabet(("0", "1"))
Y3 = Alphabet(("y0", "y1", "y2"))


def test_row_stochastic_validation():
    with pytest.raises(ValueError):
        Dmc(X2, Y2, Y2, [[0.6, 0.5], [0.4, 0.6]], [[0.5, 0.5], [0.5, 0.5]], "0")
    with pytest.raises(ValueError):
        Dmc(X2, Y2, Y2, [[1.1, -0.1], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], "0")
    with pytest.raises(ValueError):
        Dmc(X2, Y2, Y2, [[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], "0")


def test_zero_symbol_must_exist():
    with pytest.raises(KeyError):
        Dmc(X2, Y2, Y2, [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], "z")


def test_rows_and_nonzero_inputs(example_dmc):
    assert example_dmc.y_row("0").probs == pytest.approx([0.6, 0.4])
    assert example_dmc.z_row("1").probs == pytest.approx([0.4, 0.6])
    assert example_dmc.nonzero_inputs() == ["1"]
    assert example_dmc.zero_index == 0


def test_rows_are_built_once_per_input_and_side(example_dmc):
    assert example_dmc.y_row("1") is example_dmc.y_row("1")
    assert example_dmc.z_row("1") is example_dmc.z_row("1")
    assert example_dmc.y_row("0") is not example_dmc.y_row("1")
    assert example_dmc.z_row("0") is not example_dmc.y_row("0")
    with pytest.raises(KeyError):
        example_dmc.y_row("2")


def test_example_channel_is_admissible(example_dmc):
    report = validate_covert_conditions(example_dmc)
    assert report.all_pass
    assert report.partially_connected is None


def test_partial_variant_detected(partial_dmc):
    report = validate_covert_conditions(partial_dmc)
    assert report.all_pass
    assert report.partially_connected == ("1", "1")
    assert find_partial_connectivity(partial_dmc) == ("1", "1")


def test_partial_connectivity_tie_break():
    # inputs 1 and 2 both have dead edges; smallest input index wins,
    # then the smallest output index within that row
    dmc = Dmc(
        X3,
        Y3,
        Y2,
        [[0.2, 0.4, 0.4], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]],
        [[0.4, 0.6], [0.5, 0.5], [0.6, 0.4]],
        "0",
    )
    assert find_partial_connectivity(dmc) == ("1", "y1")


def test_mixture_condition_fails_for_average():
    # zero warden row equals the average of the other two rows
    dmc = Dmc(
        X3,
        Y2,
        Y2,
        [[0.5, 0.5]] * 3,
        [[0.5, 0.5], [0.3, 0.7], [0.7, 0.3]],
        "0",
    )
    report = validate_covert_conditions(dmc)
    assert not report.mixture_ok
    assert report.mixture_weights is not None
    w = report.mixture_weights
    rows = np.array([[0.3, 0.7], [0.7, 0.3]])
    assert np.allclose(w @ rows, [0.5, 0.5], atol=1e-8)
    assert not report.all_pass


def test_mixture_condition_single_nonzero_input():
    same = Dmc(X2, Y2, Y2, [[0.5, 0.5]] * 2, [[0.4, 0.6], [0.4, 0.6]], "0")
    assert not validate_covert_conditions(same).mixture_ok
    diff = Dmc(X2, Y2, Y2, [[0.5, 0.5]] * 2, [[0.4, 0.6], [0.6, 0.4]], "0")
    assert validate_covert_conditions(diff).mixture_ok


def test_support_inclusion_witnesses():
    dmc = Dmc(
        X2,
        Y3,
        Y2,
        [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]],  # input 1 reaches y2, zero row cannot
        [[1.0, 0.0], [0.5, 0.5]],  # warden: input 1 reaches z=1, zero row cannot
        "0",
    )
    report = validate_covert_conditions(dmc)
    assert not report.warden_support_ok and report.warden_support_witness == ("1", "1")
    assert not report.center_support_ok and report.center_support_witness == ("1", "y2")


def _warden_rows(seed):
    """Seeded zero row and non-zero rows of a warden channel: (target, rows,
    kind), kind "random" (any target) or "mixture" (a convex combination of
    the rows by construction, every third with one weight set to zero)."""
    rng = np.random.default_rng(seed)
    m, z = (int(k) for k in rng.integers(2, 6, size=2))
    rows = rng.dirichlet(np.full(z, rng.choice([0.3, 1.0, 5.0])), size=m)
    if seed % 2 == 0:
        return rng.dirichlet(np.ones(z)), rows, "random"
    w = rng.dirichlet(np.ones(m))
    if seed % 3 == 0:
        w[rng.integers(m)] = 0.0
        w /= w.sum()
    return w @ rows, rows, "mixture"


def _dmc_from_rows(target, rows):
    x = Alphabet(tuple(str(i) for i in range(len(rows) + 1)))
    z = Alphabet(tuple(f"z{i}" for i in range(len(target))))
    return Dmc(x, Y2, z, [[0.5, 0.5]] * x.size, np.vstack([target, rows]), "0")


def test_mixture_verdict_matches_linprog():
    # the linear program the check used to solve is the reference verdict
    from scipy.optimize import linprog

    verdicts = {"random": set(), "mixture": set()}
    for seed in range(1200):
        target, rows, kind = _warden_rows(seed)
        report = validate_covert_conditions(_dmc_from_rows(target, rows))
        a_eq = np.vstack([rows.T, np.ones((1, len(rows)))])
        b_eq = np.concatenate([target, [1.0]])
        res = linprog(np.zeros(len(rows)), A_eq=a_eq, b_eq=b_eq,
                      bounds=[(0, None)] * len(rows), method="highs")
        mixture = res.status == 0 and np.max(np.abs(a_eq @ res.x - b_eq)) <= 1e-9
        assert report.mixture_ok == (not mixture), seed
        if mixture:
            psi = report.mixture_weights
            assert np.all(psi >= 0.0)
            assert np.max(np.abs(a_eq @ psi - b_eq)) <= 1e-9
        verdicts[kind].add(mixture)
    # both verdicts occur among the random rows; constructed mixtures are all found
    assert verdicts == {"random": {True, False}, "mixture": {True}}


def test_nnls_raises_at_its_step_cap():
    # both coordinates must enter the passive set, one per outer step; a cap
    # that cuts the search short raises instead of returning the iterate
    a, b = np.eye(2), np.ones(2)
    assert np.array_equal(_nnls(a, b), np.ones(2))
    assert np.array_equal(_nnls(a, b, max_iter=2), np.ones(2))
    with pytest.raises(NoConvergence):
        _nnls(a, b, max_iter=1)
