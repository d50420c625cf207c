"""BB84 key rates, bound verification and simulation under leaky randomness.

The library splits into five parts: exact two-qubit algebra
(:mod:`.quantum_core`), closed-form rate calculators, the two-step worst
case included (:mod:`.keyrate`), the worst-case scenario search
(:mod:`.optimizer`), brute-force verification of the error-gap bounds
(:mod:`.bound_oracle`) and a pulse-level Monte-Carlo simulator
(:mod:`.simulator`).  The command-line
front end lives in :mod:`.cli`.
"""

__version__ = "0.1.0"

from .errors import InfeasibilityError, InsufficientDataError, ValidationError
from .keyrate import (
    DeviationParams,
    HiddenVariableModel,
    KeyRateResult,
    StrongRandomnessInputs,
    TwoStepScenario,
    evaluate_two_step_scenario,
    one_step_delta,
    one_step_rate,
    phase_gap_bound,
    strong_randomness_rate,
    two_step_rate,
    two_step_worst_scenario,
    worst_case_phase_error,
)
from .quantum_core import (
    BELL,
    BellBasis,
    ErrorRatePair,
    PauliChannel,
    TwoQubitState,
    apply_channel,
    bell_diagonal_probs,
    binary_entropy,
    build_source_state,
    error_rates,
)

__all__ = [
    "__version__",
    "BELL",
    "BellBasis",
    "DeviationParams",
    "ErrorRatePair",
    "HiddenVariableModel",
    "InfeasibilityError",
    "InsufficientDataError",
    "KeyRateResult",
    "PauliChannel",
    "StrongRandomnessInputs",
    "TwoQubitState",
    "TwoStepScenario",
    "ValidationError",
    "apply_channel",
    "bell_diagonal_probs",
    "binary_entropy",
    "build_source_state",
    "error_rates",
    "evaluate_two_step_scenario",
    "one_step_delta",
    "one_step_rate",
    "phase_gap_bound",
    "strong_randomness_rate",
    "two_step_rate",
    "two_step_worst_scenario",
    "worst_case_phase_error",
]
