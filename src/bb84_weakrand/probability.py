"""Scalar probability helpers shared by every layer: the range rule and h(e).

Only :mod:`math` is needed here, so the closed-form rates in
:mod:`bb84_weakrand.keyrate`, and the ``rate`` and ``sweep`` commands built
on them, run without importing numpy.
"""

from __future__ import annotations

import math

from .errors import ValidationError

PROB_ATOL = 1e-12


def check_prob(name: str, value: float, upper: float = 1.0) -> float:
    """``value`` clamped into [0, upper], which absorbs rounding within PROB_ATOL.

    A value further outside raises ValidationError naming ``name``.
    """
    if not -PROB_ATOL <= value <= upper + PROB_ATOL:
        raise ValidationError(f"{name}={value!r} outside [0, {upper:g}]")
    return min(max(value, 0.0), upper)


def binary_entropy(e: float) -> float:
    """Binary Shannon entropy h(e) in bits, with h(0) = h(1) = 0.

    Inputs within 1e-12 of the [0, 1] bounds are clamped to the exact
    bound; anything further out raises ValidationError.
    """
    if 0.0 < e < 1.0:
        return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)
    # Only the bounds, rounding just past them, and invalid inputs get here.
    check_prob("binary_entropy argument", e)
    return 0.0
