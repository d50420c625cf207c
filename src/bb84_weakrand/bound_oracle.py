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
matrix.  The simplex is streamed through the scan in blocks of a few
hundred KiB, so a scan's memory does not grow with the grid.
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

# A scan streams the simplex in blocks of whole slabs, each of about
# SIMPLEX_BLOCK_ROWS rows (512 KiB as floats), and holds one block and one
# value column at a time.  SIMPLEX_BYTES_PER_ROW is the peak per row that
# a scan of the whole grid at once was measured to hold; MAX_SIMPLEX_ROWS
# keeps that within MEMORY_BUDGET.  It now bounds simplex_grid, which
# holds the blocks and their concatenation (64 B/row), and the rows one
# scanned case runs through.
SIMPLEX_BLOCK_ROWS = 2**14
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
    the simplex vertices are always present exactly: the blocks of
    :func:`_simplex_blocks`, concatenated.  There are C(resolution + 3,
    3) of them, at most ``MAX_SIMPLEX_ROWS``; a larger grid is rejected
    before anything is built.
    """
    return np.concatenate(list(_simplex_blocks(resolution)))


def _simplex_blocks(resolution: int):
    """The rows of :func:`simplex_grid`, in its order, as float blocks.

    The resolution and the row cap are checked when this is called, not
    when the first block is taken.  Each block holds whole slabs of one
    ``a = q00 * resolution``; consecutive slabs are grouped up to
    ``SIMPLEX_BLOCK_ROWS`` rows, and a larger slab is a block on its own.
    """
    if resolution < 1:
        raise ValidationError("simplex grid resolution must be positive")
    n_rows = math.comb(resolution + 3, 3)
    if n_rows > MAX_SIMPLEX_ROWS:
        raise ValidationError(
            f"a simplex grid of resolution {resolution} has {n_rows} rows, "
            f"above the cap of {MAX_SIMPLEX_ROWS}; use a smaller grid"
        )
    return _slab_blocks(resolution)


def _slab_blocks(resolution: int):
    start, rows = 0, 0
    for a in range(resolution + 1):
        slab = math.comb(resolution - a + 2, 2)
        if rows and rows + slab > SIMPLEX_BLOCK_ROWS:
            yield _compositions(resolution, start, a)
            start, rows = a, 0
        rows += slab
    yield _compositions(resolution, start, resolution + 1)


def _compositions(resolution: int, a_start: int, a_stop: int) -> np.ndarray:
    """The slabs ``a_start <= a < a_stop`` of the simplex grid.

    Rows are (a, b, c, resolution - a - b - c) / resolution in
    lexicographic order: each a is followed by resolution + 1 - a values
    of b, each (a, b) by resolution + 1 - a - b values of c.  The
    integers are exact as floats, so each entry is ``k /
    float(resolution)`` rounded once.
    """
    a_values = np.arange(a_start, a_stop)
    a = np.repeat(a_values, resolution + 1 - a_values)
    b = _ramps(resolution + 1 - a_values)
    c_counts = resolution + 1 - a - b
    rows = np.empty((int(c_counts.sum()), 4))
    rows[:, 0] = np.repeat(a, c_counts)
    rows[:, 1] = np.repeat(b, c_counts)
    rows[:, 2] = _ramps(c_counts)
    rows[:, 3] = resolution - rows[:, 0] - rows[:, 1] - rows[:, 2]
    rows /= float(resolution)
    return rows


def _ramps(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., n - 1 for each n of ``lengths``, concatenated."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def deviation_band(eps: float, resolution: int) -> np.ndarray:
    """Grid over [1/2 - eps, 1/2 + eps] with both endpoints included.

    An end that ``0.5 - eps`` or ``0.5 + eps`` rounds outside the exact
    band is moved one ULP inward, so every band point is a probability
    the bound covers.  For ``0 <= eps <= 1/2`` the rounding error of
    ``0.5 + x`` (``x = -eps`` or ``eps``) is exactly ``x - (end - 0.5)``
    in floats (Fast2Sum), so its sign says which side of the band an
    end fell on.
    """
    lo, hi = 0.5 - eps, 0.5 + eps
    if (0.5 - lo) - eps > 0.0:
        lo = math.nextafter(lo, 0.5)
    if (hi - 0.5) - eps > 0.0:
        hi = math.nextafter(hi, 0.5)
    return np.linspace(lo, hi, resolution)


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
    after ``grid_res`` and the row cap are checked.  ``points`` counts its
    band points, and ``points_checked`` every row of every case: each is
    either evaluated or bounded below the maximum as follows.

    The grid is streamed in the blocks of :func:`_simplex_blocks`, so the
    scan holds one block and one value column, never the whole grid.
    Each row's value is the same 4-term product whichever block holds it,
    and each case keeps its first strict maximum over the blocks in row
    order, which is the row ``argmax`` over the whole grid would give.

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
    blocks = _simplex_blocks(grid_res)
    cases = list(cases)
    gaps = np.array([gap for gap, _ in cases])
    tops = (np.abs(gaps) if absolute else gaps).max(axis=1)
    floor = float(tops.max())
    slack = 1e-12 * float(np.abs(gaps).max())
    live = [k for k, top in enumerate(tops.tolist()) if not top + slack < floor]
    # Each live case's first strict maximum so far, as (value, row).
    case_best = dict.fromkeys(live, (-np.inf, None))
    for block in blocks:
        for k in live:
            values = block @ cases[k][0]
            if absolute:
                np.abs(values, out=values)
            idx = int(np.argmax(values))
            if values[idx] > case_best[k][0]:
                case_best[k] = (float(values[idx]), block[idx].tolist())
    best = -np.inf
    location: dict = {}
    for k in live:
        value, row = case_best[k]
        if value > best:
            best = value
            q00, q01, q10, q11 = row
            location = {
                "q00": q00, "q01": q01, "q10": q10, "q11": q11, **cases[k][1], "difference": best
            }
    points_checked = math.comb(grid_res + 3, 3) * points
    return OracleReport(
        target, bound, best, best - bound, bound - best, location, points_checked, grid_res
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
