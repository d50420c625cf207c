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
    GRID_CHUNK,
    _grid_axes,
    _reduced_objective_vec,
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
    """Grid scan of one problem's box, then a lockstep polish of its best cells.

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
    points = grid_points_array(_grid_axes(bounds, grid_points))
    values = np.concatenate(
        [
            _reduced_objective_vec(points[j:j + GRID_CHUNK], constants)
            for j in range(0, len(points), GRID_CHUNK)
        ]
    )
    # Grid enumeration is lexicographic, so breaking ties by index makes
    # the choice of the best cells deterministic.
    order = _smallest(values, n_starts)
    starts = points[order]
    best_point, best_value = starts[0].copy(), float(values[order[0]])

    lower, upper = np.array(bounds).T
    polished, polished_values, polish_iterations = _refine(
        lambda x: _reduced_objective_vec(x, constants), starts, lower, upper
    )
    trace = [best_value]
    for point, value in zip(polished, polished_values):
        value = float(value)
        if value < best_value or (value == best_value and tuple(point) < tuple(best_point)):
            best_value = value
            best_point = point
        trace.append(best_value)
    report = {
        "grid_points_per_axis": grid_points,
        "grid_evaluations": len(points),
        "restarts": n_starts,
        "iterations": int(polish_iterations.sum()),
        "best_objective_trace": [float(v) for v in trace],
    }
    return best_point, report
