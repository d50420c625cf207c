"""Full-scan reference of the optimizer's box search.

:func:`box_search` evaluates the objective at every cell of a problem's
grid before it picks the refinement starts and polishes them,
so the scan in :mod:`bb84_weakrand.optimizer`, which evaluates only the
cells that can be among the best, can be checked against it bit for bit.
It calls the optimizer's own grid axes, objective, selection and polish.

:func:`_feasibility` is a separate numpy form of the elimination of
``a1`` and ``e11`` that the optimizer runs in plain floats: the reference
for the optimizer's grid pre-pass and the elimination of the tests'
independent sampler.
"""

from __future__ import annotations

import numpy as np

from bb84_weakrand import optimizer
from bb84_weakrand.optimizer import (
    _TINY,
    _grid_axes,
    _reduced_objective_scalar,
    _refine,
    _smallest,
)


def grid_points_array(axes: list[np.ndarray]) -> np.ndarray:
    """Every combination of the axis values, one row each, last axis fastest."""
    grid = np.empty([len(axis) for axis in axes] + [len(axes)])
    for i, axis in enumerate(axes):
        shape = [1] * len(axes)
        shape[i] = len(axis)
        grid[..., i] = axis.reshape(shape)
    return grid.reshape(-1, len(axes))


def box_search(constants):
    """Grid scan of every cell of one problem's box, then a polish of its best cells.

    ``constants`` is the problem's ``search_constants``; its box is the
    unit cube with the basis band on the ``a0`` axis.  The search keeps the
    best cell of the grid and polishes its ``optimizer.REFINE_STARTS`` best
    cells.  Returns ``(point, report)``.  The settings are read from
    :mod:`bb84_weakrand.optimizer` at call time, so a test that patches
    them there patches them here too.
    """
    grid_points, n_starts = optimizer.GRID_POINTS, optimizer.REFINE_STARTS
    *_, band_lo, band_hi = constants
    bounds = [(0.0, 1.0), (band_lo, band_hi), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]

    def objective(point):
        return _reduced_objective_scalar(constants, *point)

    points = grid_points_array(_grid_axes(bounds, grid_points)).tolist()
    values = np.array([objective(point) for point in points])
    # Grid enumeration is lexicographic, so breaking ties by index makes
    # the choice of the best cells deterministic.
    order = _smallest(values, n_starts).tolist()
    best_point, best_value = points[order[0]], float(values[order[0]])

    trace = [best_value]
    iterations = 0
    for i in order:
        point, value, count = _refine(objective, points[i], bounds)
        iterations += count
        if value < best_value or (value == best_value and tuple(point) < tuple(best_point)):
            best_value = value
            best_point = point
        trace.append(best_value)
    report = {
        "grid_points_per_axis": grid_points,
        "grid_evaluations": len(points),
        "restarts": n_starts,
        "iterations": iterations,
        "best_objective_trace": trace,
    }
    return best_point, report


def _eliminate(numerator, weight, fallback):
    """``numerator / weight`` as :func:`_reduced_point` forms it, elementwise.

    Where ``weight < _TINY`` the quotient is ``fallback`` and the entry is
    charged ``abs(numerator)`` as penalty.  Returns ``(quotient, penalty)``.
    """
    small = weight < _TINY
    quotient = numerator / np.where(small, 1.0, weight)
    return np.where(small, fallback, quotient), np.where(small, np.abs(numerator), 0.0)


def _feasibility(p, a0, e00, e01, e10, constants):
    """The eliminated ``a1`` and ``e11`` at (p_lambda1, a0, e_b00, e_b01, e_b10).

    The grid scan's pre-pass: :func:`_reduced_point`'s elimination on
    numpy arrays.  The arguments broadcast together: rows of points, or
    grid axes each on its own dimension.  ``a1`` comes from the basis
    balance of 1/2 and ``e11`` from the observed QBER; both are clamped to
    their bounds.  ``constants`` is the problem's ``search_constants``.
    Returns ``(a1, (w00, w01, w10, w11), e11, penalty)``: the clamped
    values, the weight ``w_hs`` of hidden value ``h`` on side ``s`` (side 0
    the rectilinear basis), and the distance to feasibility, 0 exactly
    where :func:`_reduced_point`'s penalty is 0: the unclamped variables'
    distances to their bounds, plus abs(numerator) where a weight vanishes.
    """
    q, _, band_lo, band_hi = constants
    one_minus_p = 1.0 - p
    a1, collapsed = _eliminate(0.5 - p * a0, one_minus_p, 0.5)
    # np.clip keeps the bound on a tie where _reduced_point keeps a1, the same
    # bits: a1 is never -0.0 (a vanishing numerator is +0.0), nor is the band.
    clamped = a1.clip(band_lo, band_hi)
    w00, w01 = a0 * p, (1.0 - a0) * p
    w10, w11 = clamped * one_minus_p, (1.0 - clamped) * one_minus_p

    e11, weightless = _eliminate(q - w00 * e00 - w10 * e10 - w01 * e01, w11, 0.0)
    # _reduced_point's clamp, which keeps e11 on a tie: -0.0 stays -0.0.
    e11_clamped = np.where(0.0 > e11, 0.0, np.where(1.0 < e11, 1.0, e11))
    penalty = collapsed + np.abs(a1 - clamped) + weightless + np.abs(e11 - e11_clamped)
    return clamped, (w00, w01, w10, w11), e11_clamped, penalty
