"""Covert distributed hypothesis testing over discrete memoryless channels.

Computes the achievable Stein exponents of remote hypothesis testing under a
warden's divergence covertness constraint, verifies the warden-side bounds
exactly, and simulates the two coding-and-testing schemes that achieve them.
"""

from .channel import ConditionReport, Dmc, find_partial_connectivity, validate_covert_conditions
from .covertness import (
    CovertnessReport,
    chi_squared_product,
    scheme_B_positivity,
    warden_divergence,
)
from .exponents import (
    ExponentReport,
    ExponentTerm,
    Improvement,
    PbarSet,
    ConnectivityCase,
    compute_E1,
    compute_E2,
    compute_E3,
    compute_T_U,
    i_projection_coupling,
    local_exponent,
    pbar_threshold,
    achievable_exponent,
)
from .probability import (
    Alphabet,
    JointPmf,
    Pmf,
    chi_squared,
    kl_divergence,
)
from .simulation import (
    ExponentFit,
    SchemeConfig,
    SimulationResult,
    empirical_exponent,
    exact_error_probs,
    run_trials,
    transmit_probability,
)

__version__ = "0.1.0"
