"""The library's value types and records: read-only fields, repr, equality,
and an import that generates no code.

Records (`typing.NamedTuple`) compare field by field. Of the value types
(`probability.Frozen`), `Alphabet` and `SchemeConfig` compare and hash by
value, `Pmf`, `JointPmf` and `Dmc` by identity, and `ExperimentConfig`
compares its documents and is not hashable.
"""

import copy
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import covertdht
import covertdht.exponents as expo
from covertdht.channel import ConditionReport, Dmc
from covertdht.cli import EXAMPLE_CONFIG
from covertdht.config import ExperimentConfig
from covertdht.covertness import CovertnessReport
from covertdht.exponents import ConnectivityCase, ExponentReport, ExponentTerm, Improvement, PbarSet
from covertdht.probability import Alphabet, JointPmf, Pmf
from covertdht.simulation import ExponentFit, SchemeConfig, SimulationResult

from conftest import TERNARY_CONFIG

B = Alphabet(("0", "1"))
PMF = Pmf(B, [0.25, 0.75])
BSC = [[0.6, 0.4], [0.4, 0.6]]
B_REPR = "Alphabet(symbols=('0', '1'))"

# one fixed instance of each type, the field assigned and deleted, and its
# repr as the frozen dataclasses these types replaced rendered it
CASES = {
    "Alphabet": (B, "symbols", B_REPR),
    "Pmf": (PMF, "probs", f"Pmf(alphabet={B_REPR})"),
    "JointPmf": (JointPmf(B, Alphabet(("x",)), [[0.25], [0.75]]), "probs",
                 f"JointPmf(row_alphabet={B_REPR}, col_alphabet=Alphabet(symbols=('x',)))"),
    "Dmc": (Dmc(B, B, B, BSC, BSC, zero_symbol="0"), "y_given_x",
            f"Dmc(input_alphabet={B_REPR}, y_alphabet={B_REPR}, z_alphabet={B_REPR}, "
            "zero_symbol='0')"),
    "ConditionReport": (
        ConditionReport(True, False, True, np.array([0.5, 0.5]), ("1", "0")), "mixture_ok",
        "ConditionReport(mixture_ok=True, warden_support_ok=False, center_support_ok=True, "
        "mixture_weights=array([0.5, 0.5]), warden_support_witness=('1', '0'), "
        "center_support_witness=None, partially_connected=None)"),
    "PbarSet": (PbarSet(x1="1", tau_nats=0.25, maximizer=PMF), "tau_nats",
                f"PbarSet(x1='1', tau_nats=0.25, maximizer=Pmf(alphabet={B_REPR}))"),
    "ExponentTerm": (ExponentTerm(0.5), "value_nats",
                     "ExponentTerm(value_nats=0.5, minimizer=None)"),
    "ExponentReport": (
        ExponentReport(0.5, {"1": 0.25}, {"1": (0.1, 0.2, 0.3)}, 0.125,
                       ConnectivityCase.FULLY_CONNECTED, 0.25, 0.25,
                       Improvement.NO_IMPROVEMENT, PMF), "e1_nats",
        "ExponentReport(e1_nats=0.5, e2_by_x1={'1': 0.25}, e3_by_x1={'1': (0.1, 0.2, 0.3)}, "
        "local_nats=0.125, connectivity=<ConnectivityCase.FULLY_CONNECTED: "
        "'fully_connected'>, theta_nats=0.25, theta_literal_nats=0.25, "
        f"improvement=<Improvement.NO_IMPROVEMENT: 'no_improvement'>, t_u=Pmf(alphabet={B_REPR}))"),
    "CovertnessReport": (
        CovertnessReport(10, 0.1, 0.01, 0.02, 0.03), "n",
        "CovertnessReport(n=10, delta_n=0.1, d_n_exact=0.01, quad_bound=0.02, type_bound=0.03)"),
    "SchemeConfig": (
        SchemeConfig("B", x1="1"), "mu",
        "SchemeConfig(scheme='B', mu=0.05, x1='1', x_hat=None, y_star=None, k_spec='sqrt')"),
    "SimulationResult": (
        SimulationResult("A", 24, 0.05, 5, 0.1, 0.2, -1.5, "mc", trials=100, seed=3), "alpha",
        "SimulationResult(scheme='A', n=24, mu=0.05, k=5, alpha=0.1, beta=0.2, log_beta=-1.5, "
        "method='mc', alpha_ci=0.0, beta_ci=0.0, trials=100, seed=3, beta_is_upper_bound=False, "
        "weight_mean=0.0, a_bar=0.0)"),
    "ExponentFit": (
        ExponentFit((10, 20, 30), (0.1, 0.2, 0.3), 0.01, 0.5, True), "slope_bits",
        "ExponentFit(ns=(10, 20, 30), exponents_bits=(0.1, 0.2, 0.3), slope_bits=0.01, "
        "intercept_bits=0.5, monotone_increasing=True, excluded_ns=())"),
    "ExperimentConfig": (ExperimentConfig.from_dict(EXAMPLE_CONFIG), "raw", "ExperimentConfig()"),
}


@pytest.mark.parametrize("name", CASES)
class TestContract:
    def test_fields_are_read_only(self, name):
        obj, field, _ = CASES[name]
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is before

    def test_repr(self, name):
        obj, _, want = CASES[name]
        assert type(obj).__name__ == name
        assert repr(obj) == want


class TestSchemeConfigReplace:
    def test_copy_is_validated(self):
        with pytest.raises(ValueError, match="mu must be positive"):
            SchemeConfig("B", x1="1").replace(mu=-1)
        with pytest.raises(ValueError, match="scheme B requires x1"):
            SchemeConfig("B", x1="1").replace(x1=None)

    def test_copy_equals_a_fresh_config(self):
        base = SchemeConfig("A", x_hat="1", y_star="1", k_spec="log")
        copy_ = base.replace(mu=0.2)
        assert copy_ == SchemeConfig("A", mu=0.2, x_hat="1", y_star="1", k_spec="log")
        assert hash(copy_) == hash(SchemeConfig("A", 0.2, None, "1", "1", "log"))
        assert copy_ != base and base.mu == 0.05
        with pytest.raises(TypeError):
            base.replace(nu=0.1)


class TestEquality:
    """Array-holding types compare by identity and never raise; records
    compare field by field; configs compare their documents."""

    def test_array_types_compare_by_identity(self):
        cfg = ExperimentConfig.from_dict(TERNARY_CONFIG)
        cfg2 = ExperimentConfig.from_dict(TERNARY_CONFIG)
        p_uv, q_uv = cfg.source_pmfs()
        assert p_uv in [q_uv, p_uv]
        assert p_uv != cfg2.source_pmfs()[0]
        assert len({cfg.dmc(), cfg2.dmc(), cfg.dmc()}) == 2
        assert len({PMF, Pmf(B, [0.25, 0.75])}) == 2
        pbar = expo.pbar_threshold(cfg.dmc(), "1")
        # the maximizers are two Pmf objects: the records differ there only
        assert pbar != expo.pbar_threshold(cfg.dmc(), "1")
        assert pbar == PbarSet(pbar.x1, pbar.tau_nats, pbar.maximizer)

    def test_value_types(self):
        assert Alphabet(["0", "1"]) == B and hash(Alphabet(("0", "1"))) == hash(B)
        assert Alphabet(("1", "0")) != B
        assert SchemeConfig("B", x1="1") == CASES["SchemeConfig"][0]
        assert len({SchemeConfig("B", x1="1"), SchemeConfig("B", x1="1")}) == 1

    def test_records_compare_field_by_field(self):
        rep = CovertnessReport(10, 0.1, 0.01, 0.02, 0.03)
        assert rep == CASES["CovertnessReport"][0]
        assert rep != rep._replace(n=11)
        assert hash(rep) == hash(CovertnessReport(10, 0.1, 0.01, 0.02, 0.03))

    def test_configs_compare_documents(self):
        cfg = ExperimentConfig.from_dict(TERNARY_CONFIG)
        assert cfg == ExperimentConfig.from_dict(copy.deepcopy(TERNARY_CONFIG))
        assert cfg != ExperimentConfig.from_dict(EXAMPLE_CONFIG)
        with pytest.raises(TypeError, match="unhashable"):
            hash(cfg)


def test_import_generates_no_code(tmp_path):
    # dataclasses compiles each generated method with its own exec; a
    # command imports none of it (numpy itself does not import dataclasses)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TERNARY_CONFIG))
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        import numpy
        before = set(sys.modules)
        from covertdht.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["exponents", {str(path)!r}, "--json"]) == 0
        new = set(sys.modules) - before
        assert "covertdht.cli" in new
        assert "dataclasses" not in new, sorted(new)
    """)
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(covertdht.__file__))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
