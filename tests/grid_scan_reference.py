"""Full-scan reference of the optimizer's box search.

:func:`box_search` evaluates the objective at every cell of a problem's
grid before it picks the refinement starts and polishes them,
so the scan in :mod:`bb84_weakrand.optimizer`, which evaluates only the
cells that can be among the best, can be checked against it bit for bit.
It calls the optimizer's own grid axes, objective, selection and polish.
"""

from __future__ import annotations

import numpy as np

from bb84_weakrand import optimizer
from bb84_weakrand.optimizer import (
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
