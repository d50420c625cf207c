"""BB84 key rates, bound verification and simulation under leaky randomness.

The library splits into six parts: the scalar probability range rule and
binary entropy (:mod:`.probability`), exact two-qubit algebra
(:mod:`.quantum_core`), closed-form rate calculators, the two-step worst
case included (:mod:`.keyrate`), the worst-case scenario search
(:mod:`.optimizer`), brute-force verification of the error-gap bounds
(:mod:`.bound_oracle`) and a pulse-level Monte-Carlo simulator
(:mod:`.simulator`).  The command-line front end lives in :mod:`.cli`.

:mod:`.quantum_core`, :mod:`.optimizer`, :mod:`.bound_oracle` and
:mod:`.simulator` need numpy; the rest is plain :mod:`math`.  The names
exported from :mod:`.quantum_core` are looked up on first access, so
importing the package, or running ``sweep`` or the closed-form ``rate``
methods, does not import numpy.
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
from .probability import binary_entropy

# Exported lazily (PEP 562), since quantum_core imports numpy.
_QUANTUM_CORE = (
    "BELL",
    "BellBasis",
    "ErrorRatePair",
    "PauliChannel",
    "TwoQubitState",
    "apply_channel",
    "bell_diagonal_probs",
    "build_source_state",
    "error_rates",
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


def __getattr__(name: str):
    if name in _QUANTUM_CORE:
        from . import quantum_core

        return getattr(quantum_core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_QUANTUM_CORE})
