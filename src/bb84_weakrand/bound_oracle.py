"""Brute-force grid verification of the worst-case error-gap bounds.

Channels are enumerated over an exact probability-simplex grid (integer
compositions, so every vertex is covered) and the biased-choice
probabilities over their deviation bands with endpoints always
included.  Error rates come from first principles through
:mod:`bb84_weakrand.quantum_core`, and three linearities keep the scan
fast without approximating anything.  The output state and its Bell
projections are linear in the channel, so the rates of the whole
simplex follow from the four one-operator channels: at most one mat-vec
per band point.  The state is also linear in the basis probability, so
each channel's basis band is mixed from its two basis outputs, built
once per bit probability, with ``apply_channel``'s own operations in its
order (the same bits).  And a value linear in the channel is at most its
largest vertex value, which the grid holds exactly: a band point whose
best one-operator gap stays below the best of all band points cannot
hold the maximum, so its mat-vec is skipped (:func:`_scan` bounds the
rounding).  Every band state is still built and validated as a density
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MEMORY_BUDGET, ValidationError
from .keyrate import DeviationParams, one_step_delta, phase_gap_bound
from .quantum_core import (
    PauliChannel,
    apply_channel,
    bell_error_rates,
    build_source_state,
    check_density_matrices,
)

VIOLATION_TOL = 1e-9

# A scan holds about SIMPLEX_BYTES_PER_ROW bytes per simplex row at its
# peak (the integer compositions while the float grid is built, then the
# float grid and the values of one mat-vec; the slope of peak RSS over
# grids of 100 to 250).
# MAX_SIMPLEX_ROWS keeps a scan within MEMORY_BUDGET.
SIMPLEX_BYTES_PER_ROW = 120
MAX_SIMPLEX_ROWS = MEMORY_BUDGET // SIMPLEX_BYTES_PER_ROW

_PURE_CHANNELS = (
    PauliChannel(1.0, 0.0, 0.0, 0.0),
    PauliChannel(0.0, 1.0, 0.0, 0.0),
    PauliChannel(0.0, 0.0, 1.0, 0.0),
    PauliChannel(0.0, 0.0, 0.0, 1.0),
)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one grid scan against a closed-form bound.

    ``max_violation`` is the scanned maximum minus the bound (positive
    means the bound failed); ``tightness_gap`` is its negation, i.e. how
    far below the bound the scan stayed.  ``max_gap_location`` holds the
    grid point achieving the extreme.
    """

    target: str
    bound: float
    max_difference: float
    max_violation: float
    tightness_gap: float
    max_gap_location: dict
    points_checked: int
    grid_resolution: int

    @property
    def passed(self) -> bool:
        return self.max_violation <= VIOLATION_TOL

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "bound": self.bound,
            "max_difference": self.max_difference,
            "max_violation": self.max_violation,
            "tightness_gap": self.tightness_gap,
            "max_gap_location": dict(self.max_gap_location),
            "points_checked": self.points_checked,
            "grid_resolution": self.grid_resolution,
            "passed": self.passed,
        }


def simplex_grid(resolution: int) -> np.ndarray:
    """All channel probability vectors with denominator ``resolution``.

    Rows are (q00, q01, q10, q11) built from integer compositions, so
    the simplex vertices are always present exactly.  There are
    C(resolution + 3, 3) of them, at most ``MAX_SIMPLEX_ROWS``
    (35,791,394, a 4 GiB scan: resolution 596 or less); a larger grid is
    rejected before anything is built.
    """
    if resolution < 1:
        raise ValidationError("simplex grid resolution must be positive")
    n_rows = math.comb(resolution + 3, 3)
    if n_rows > MAX_SIMPLEX_ROWS:
        raise ValidationError(
            f"a simplex grid of resolution {resolution} has {n_rows} rows, "
            f"above the cap of {MAX_SIMPLEX_ROWS}; use a smaller grid"
        )
    # The compositions (a, b, c, resolution - a - b - c) in lexicographic
    # order: each a is followed by resolution + 1 - a values of b, each
    # (a, b) by resolution + 1 - a - b values of c.
    a = np.repeat(np.arange(resolution + 1), np.arange(resolution + 1, 0, -1))
    b = _ramps(np.arange(resolution + 1, 0, -1))
    c_counts = resolution + 1 - a - b
    a, b, c = np.repeat(a, c_counts), np.repeat(b, c_counts), _ramps(c_counts)
    return np.stack((a, b, c, resolution - a - b - c), axis=1) / float(resolution)


def _ramps(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., n - 1 for each n of ``lengths``, concatenated."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def deviation_band(eps: float, resolution: int) -> np.ndarray:
    """Grid over [1/2 - eps, 1/2 + eps] with both endpoints included."""
    return np.linspace(0.5 - eps, 0.5 + eps, resolution)


def _pure_rates(p_bit0: float, basis_band: np.ndarray) -> np.ndarray:
    """(e_bit, e_phase) per basis probability and channel I, Z, X, XZ.

    Shape ``(len(basis_band), 4, 2)``.  Each band state is ``0 + p * rec
    + (1 - p) * dia``, as ``apply_channel`` forms it.
    """
    source = build_source_state(p_bit0)
    rec = np.stack([apply_channel(source, channel, 1.0).matrix for channel in _PURE_CHANNELS])
    dia = np.stack([apply_channel(source, channel, 0.0).matrix for channel in _PURE_CHANNELS])
    p = basis_band[:, None, None, None]
    states = 0.0 + p * rec + (1.0 - p) * dia
    check_density_matrices(states)
    return bell_error_rates(states)


def _scan(
    target: str, bound: float, grid_res: int, cases, points: int, absolute: bool
) -> OracleReport:
    """Largest ``channels @ gap`` (or its magnitude) over the simplex grid.

    ``cases`` yields ``(gap, where)``: the gaps of the four one-operator
    channels and the band coordinates they belong to.  It is only read
    after ``grid_res`` is checked.  ``points`` counts its band points,
    and ``points_checked`` every row of every case: each is either
    evaluated or bounded below the maximum as follows.

    Only a case that can hold the maximum runs its mat-vec.  Each simplex
    vertex is a grid row exactly (``g / g`` is 1.0, ``0 / g`` is 0.0), and
    its value is ``gap[i]`` bit for bit, so the scan reaches ``floor``,
    the largest ``top = max(gap)`` (``max|gap|`` when ``absolute``) of
    any case.  Any row's entries are the weights ``k / g``, which sum to
    1, each rounded once (relative error at most ``u = 2**-53``), and its
    4-term dot product adds at most ``gamma_4 = 4u / (1 - 4u)`` in any summation
    order, with or without FMA.  So a rounded value (or its magnitude)
    is at most ``top + 5.01u * max|gap|``.  ``slack = 1e-12 * max|gap|``
    over all cases covers that and the rounding of ``top + slack`` by
    orders of magnitude, so every row of a case with
    ``top + slack < floor`` is below the final maximum.  The loop only
    takes a strictly larger value, so the first case that reaches the
    maximum still wins, at the same row, and skipping the others changes
    neither value nor location.  When every gap is 0 the slack is 0 and
    no case is skipped.
    """
    if grid_res < 3:
        raise ValidationError(f"grid_res must be at least 3, got {grid_res}")
    channels = simplex_grid(grid_res)
    cases = list(cases)
    gaps = np.array([gap for gap, _ in cases])
    tops = (np.abs(gaps) if absolute else gaps).max(axis=1)
    floor = float(tops.max())
    slack = 1e-12 * float(np.abs(gaps).max())
    best = -np.inf
    location: dict = {}
    for (gap, where), top in zip(cases, tops.tolist()):
        if top + slack < floor:
            continue
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


def verify_one_step_bound(dev: DeviationParams, grid_res: int) -> OracleReport:
    """Scan the phase-over-bit error excess against its closed-form bound.

    Enumerates every simplex channel against every banded pair of choice
    probabilities and records the largest e_phase - e_bit found.
    """
    def cases():
        basis_band = deviation_band(dev.eps1, grid_res)
        for p_bit0 in deviation_band(dev.eps0, grid_res):
            rates = _pure_rates(p_bit0, basis_band)
            for p_basis0, gap in zip(basis_band, rates[..., 1] - rates[..., 0]):
                yield gap, {"p_bit0": float(p_bit0), "p_basis0": float(p_basis0)}

    return _scan("one-step", one_step_delta(dev), grid_res, cases(), grid_res**2, absolute=False)


def _cross_basis_pure(p_bit0: float) -> tuple[np.ndarray, np.ndarray]:
    """Signed cross-basis gaps per one-operator channel.

    Returns (rec-phase minus dia-bit, dia-phase minus rec-bit), each a
    length-4 array over the channels I, Z, X, XZ: the p_z = 1 and p_z = 0
    rows of :func:`_pure_rates`.
    """
    in_rec, in_dia = _pure_rates(p_bit0, np.array([1.0, 0.0]))
    return in_rec[:, 1] - in_dia[:, 0], in_dia[:, 1] - in_rec[:, 0]


def verify_cross_basis_bound(eps0: float, grid_res: int) -> OracleReport:
    """Scan both cross-basis phase/bit gaps against the bit-bias bound.

    For each banded encoding probability the basis-conditional states
    are built per channel operator; the checked quantities are the
    absolute differences between the phase error in one basis and the
    bit error in the other.
    """
    def cases():
        for p_bit0 in deviation_band(eps0, grid_res):
            rec_vs_dia, dia_vs_rec = _cross_basis_pure(p_bit0)
            yield rec_vs_dia, {"p_bit0": float(p_bit0), "family": "rec_phase_vs_dia_bit"}
            yield dia_vs_rec, {"p_bit0": float(p_bit0), "family": "dia_phase_vs_rec_bit"}

    return _scan("cross-basis", phase_gap_bound(eps0), grid_res, cases(), grid_res, absolute=True)
