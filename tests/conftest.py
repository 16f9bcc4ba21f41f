"""Shared fixtures: the worked example's sources and channels.

The running example everywhere: U is Bern(0.2) under the null and Bern(0.7)
under the alternative, V is degenerate (the decision center observes
nothing), and both the decision-center and warden channels are BSC(0.4)
with zero input 0.
"""

import csv

import numpy as np
import pytest

from covertdht import Dmc
from covertdht.errors import ConfigError
from covertdht.probability import Alphabet, JointPmf, Pmf

BSC04 = [[0.6, 0.4], [0.4, 0.6]]

# Reference values for the worked example (bits unless noted).
REF_QSTAR = 0.884
REF_TAU_BITS = 0.306
REF_E1_BITS = 0.7706
REF_E3_BITS = 0.1170

# 3x2 sources with a non-degenerate V and a three-input channel (the
# benchmark's `exponents-3x2` workload). At x1 = "2", D(T_U || P_U) lies
# below tau, so E2 is the local exponent; at x1 = "1" it lies above.
TERNARY_CONFIG = {
    "sources": {
        "u_symbols": ["a", "b", "c"],
        "v_symbols": ["x", "y"],
        "p_uv": [[0.45, 0.05], [0.10, 0.20], [0.05, 0.15]],
        "q_uv": [[0.10, 0.15], [0.15, 0.20], [0.30, 0.10]],
    },
    "channel": {
        "x_symbols": ["0", "1", "2"],
        "y_symbols": ["0", "1", "2"],
        "z_symbols": ["0", "1", "2"],
        "zero_symbol": "0",
        "y_given_x": [[0.6, 0.2, 0.2], [0.25, 0.55, 0.2], [0.2, 0.3, 0.5]],
        "z_given_x": [[0.5, 0.25, 0.25], [0.4, 0.35, 0.25], [0.35, 0.25, 0.4]],
    },
    "scheme": {"scheme": "B", "x1": "1", "mu": 0.05},
}


@pytest.fixture(scope="session")
def u_alphabet():
    return Alphabet((0, 1))


@pytest.fixture(scope="session")
def binary_alphabet():
    return Alphabet(("0", "1"))


@pytest.fixture(scope="session")
def example_sources(u_alphabet):
    v = Alphabet(("c",))
    p_uv = JointPmf(u_alphabet, v, np.array([[0.8], [0.2]]))
    q_uv = JointPmf(u_alphabet, v, np.array([[0.3], [0.7]]))
    return p_uv, q_uv


@pytest.fixture(scope="session")
def example_dmc(binary_alphabet):
    return Dmc(
        input_alphabet=binary_alphabet,
        y_alphabet=binary_alphabet,
        z_alphabet=binary_alphabet,
        y_given_x=BSC04,
        z_given_x=BSC04,
        zero_symbol="0",
    )


@pytest.fixture(scope="session")
def partial_dmc(binary_alphabet):
    """Partially connected variant: input 1 can never produce output 1 at
    the decision center, while the warden channel stays BSC(0.4)."""
    return Dmc(
        input_alphabet=binary_alphabet,
        y_alphabet=binary_alphabet,
        z_alphabet=binary_alphabet,
        y_given_x=[[0.5, 0.5], [1.0, 0.0]],
        z_given_x=BSC04,
        zero_symbol="0",
    )


@pytest.fixture(scope="session")
def example_p_u(u_alphabet):
    return Pmf(u_alphabet, np.array([0.8, 0.2]))


@pytest.fixture(scope="session")
def example_q_u(u_alphabet):
    return Pmf(u_alphabet, np.array([0.3, 0.7]))


def read_csv(path: str, header: list[str], schema: str) -> list[dict]:
    """Read back a sweep CSV; a header or schema mismatch is a hard error."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != header:
            raise ConfigError(f"CSV header mismatch: expected {header}, got {reader.fieldnames}")
        rows = list(reader)
    for row in rows:
        if row["schema"] != schema:
            raise ConfigError(f"CSV schema mismatch: expected {schema}, got {row['schema']}")
    return rows
