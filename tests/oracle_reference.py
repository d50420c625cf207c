"""The error-gap scan as it was written without the vertex bound.

:func:`_scan` runs the mat-vec of every case, in order, and keeps the
first strict maximum.  The oracle's scan skips the cases that the
simplex vertices bound below the maximum; it must report the same
value, location and count, which ``tests/test_bound_oracle.py`` checks
by running both on the same cases.
"""

from __future__ import annotations

import numpy as np

from bb84_weakrand.bound_oracle import OracleReport, simplex_grid
from bb84_weakrand.errors import ValidationError


def _scan(
    target: str, bound: float, grid_res: int, cases, points: int, absolute: bool
) -> OracleReport:
    """Largest ``channels @ gap`` (or its magnitude) over the simplex grid.

    ``cases`` yields ``(gap, where)``: the gaps of the four one-operator
    channels and the band coordinates they belong to.  It is only read
    after ``grid_res`` is checked.  ``points`` counts its band points.
    """
    if grid_res < 3:
        raise ValidationError(f"grid_res must be at least 3, got {grid_res}")
    channels = simplex_grid(grid_res)
    best = -np.inf
    location: dict = {}
    for gap, where in cases:
        values = channels @ gap
        if absolute:
            values = np.abs(values)
        idx = int(np.argmax(values))
        if values[idx] > best:
            best = float(values[idx])
            q00, q01, q10, q11 = channels[idx].tolist()
            location = {
                "q00": q00, "q01": q01, "q10": q10, "q11": q11, **where, "difference": best
            }
    return OracleReport(
        target, bound, best, best - bound, bound - best, location, len(channels) * points, grid_res
    )
