"""Deterministic box-constrained minimization of the split-processing rate.

The worst case over eavesdropper strategies reduces to a five-variable
box search: the basis-side hidden-variable weight, one conditional
basis probability, and three of the four bit error rates.  The second
conditional basis probability is eliminated by the basis balance of 1/2,
the fourth bit error rate by the observed QBER, and the phase
errors by their closed-form adversarial worst case.  A coarse
deterministic grid of ``GRID_POINTS`` points per free axis seeds
``REFINE_STARTS`` Nelder-Mead refinements of at most ``MAX_ITERATIONS``
iterations each.  These settings are fixed, and nothing in the search is
random, so it needs no seed.

The grid scan, the refinement and the scenario rebuild all evaluate one
plain-float elimination, :func:`_reduced_point`; only the scan's
feasibility pre-pass, :func:`_feasibility`, runs on numpy arrays.  The
refinement is an in-package bounded Nelder-Mead that repeats the steps of
``scipy.optimize.minimize(method="Nelder-Mead", bounds=...)`` (scipy
1.17) operation for operation, one start at a time, so it returns the
same bits without depending on scipy.

The exact minimum has a closed form, :func:`keyrate.two_step_rate`,
which sweeps use directly.  :func:`solve_two_step` still runs the search,
because its argmin fixes the derived diagnostics of ``simulate``, and
returns the closed form's attaining scenario instead wherever the
search's minimum lies more than ``CLOSED_FORM_MARGIN`` above it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibilityError, ValidationError
from .keyrate import (
    DeviationParams,
    HiddenVariableModel,
    KeyRateResult,
    TwoStepScenario,
    evaluate_two_step_scenario,
    one_step_delta,
    phase_gap_bound,
    two_step_worst_scenario,
)
from .probability import binary_entropy

PENALTY_BASE = 1e3
PENALTY_CAP = 1e6
DEGENERATE_AXIS_TOL = 1e-15
# The search's settings: grid points per free axis of each problem's box,
# the best grid cells polished per problem, and the polish's iteration cap
# (scipy's ``maxiter``).
GRID_POINTS = 9
REFINE_STARTS = 10
MAX_ITERATIONS = 500
# How far the search's minimum may lie above the closed form's attaining
# scenario before that scenario is returned instead.  Rounding puts some
# searches a few ULPs above it (1.4e-15 on the `simulate` golden), and
# swapping there would only move digits.
CLOSED_FORM_MARGIN = 1e-12
# The polish's stop test: scipy's Nelder-Mead ``fatol`` and ``xatol``.
OBJECTIVE_TOL = 1e-6
VARIABLE_TOL = 1e-8
_TINY = 1e-15


@dataclass(frozen=True)
class TwoStepProblem:
    """Observed quantities pinning the worst-case search.

    q_target is the total sifted QBER.  The basis balance is 1/2: the
    threat model lets the hidden variables bias Alice's choices only while
    every observable marginal stays balanced.
    """

    q_target: float
    dev: DeviationParams

    def __post_init__(self):
        if not 0.0 <= self.q_target <= 0.5:
            raise ValidationError(f"q_target={self.q_target!r} outside [0, 0.5]")

    @cached_property
    def search_constants(self) -> tuple[float, float, float, float]:
        """The objective's per-problem constants, computed once.

        ``(q_target, phase gap bound, basis band low, basis band high)``.
        """
        eps1 = self.dev.eps1
        return (
            self.q_target,
            phase_gap_bound(self.dev.eps0),
            0.5 - eps1,
            0.5 + eps1,
        )


@dataclass(frozen=True)
class OptimizationResult:
    """Worst-case rate, the scenario achieving it, and solver bookkeeping."""

    min_rate: KeyRateResult
    argmin: TwoStepScenario
    solver_report: dict

    def to_dict(self) -> dict:
        return {
            "min_rate": self.min_rate.to_dict(),
            "argmin": self.argmin.to_dict(),
            "solver_report": dict(self.solver_report),
        }


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


def _side(w_a, w_b, bit_a, bit_b, cross_a, cross_b, gap):
    """One basis of a reduced scenario, or None when its weight is not positive.

    ``w_a``, ``w_b`` are the weights of hidden values 0 and 1 on this side,
    ``bit_a``, ``bit_b`` their bit error rates, and ``cross_a``, ``cross_b``
    their bit error rates on the other side, which bound their phase
    errors to within ``gap``.  Returns ``(weight, bit, worst, bands)``: the
    side's weight, its weighted bit error rate, the point of its phase band
    nearest 1/2 (the adversarial phase error, as in
    :func:`keyrate.worst_case_phase_error`), and the phase bands
    ``((lo_a, hi_a), (lo_b, hi_b), (lo, hi))`` of each hidden value and of
    the side.

    ``b if b > a else a`` and ``b if b < a else a`` spell ``max(a, b)`` and
    ``min(a, b)`` without the call, keeping their tie rule (``a`` wins).
    """
    weight = w_a + w_b
    if not weight > 0.0:
        return None
    bit = (w_a * bit_a + w_b * bit_b) / weight
    lo_a, lo_b, hi_a, hi_b = cross_a - gap, cross_b - gap, cross_a + gap, cross_b + gap
    lo_a = 0.0 if 0.0 > lo_a else lo_a
    lo_b = 0.0 if 0.0 > lo_b else lo_b
    hi_a = 1.0 if 1.0 < hi_a else hi_a
    hi_b = 1.0 if 1.0 < hi_b else hi_b
    lo = (w_a * lo_a + w_b * lo_b) / weight
    hi = (w_a * hi_a + w_b * hi_b) / weight
    worst = 0.5 if lo <= 0.5 <= hi else (hi if hi < 0.5 else lo)
    return weight, bit, worst, ((lo_a, hi_a), (lo_b, hi_b), (lo, hi))


def _reduced_point(constants, p, a0, e00, e01, e10):
    """The scenario that the box point (p_lambda1, a0, e_b00, e_b01, e_b10) stands for.

    ``a1`` comes from the basis balance of 1/2 and ``e11`` from the
    observed QBER, each clamped to its bounds; where the weight that
    divides vanishes (below ``_TINY``) the variable takes a fallback.
    ``constants`` is the problem's ``search_constants``.  Returns ``(a1,
    e11, penalty, rec, dia)``: the clamped values, the distance to
    feasibility (0 exactly at a feasible point: the unclamped variables'
    distances to their bounds, plus abs(numerator) where a weight
    vanishes), and the rectilinear and diagonal sides from :func:`_side`.
    """
    q, gap, band_lo, band_hi = constants

    penalty = 0.0
    one_minus_p = 1.0 - p
    if one_minus_p < _TINY:
        a1 = 0.5
        penalty += abs(p * a0 - 0.5)
    else:
        a1 = (0.5 - p * a0) / one_minus_p
    below, above = band_lo - a1, a1 - band_hi
    penalty += (0.0 if 0.0 > below else below) + (0.0 if 0.0 > above else above)
    a1 = band_lo if band_lo > a1 else a1
    a1 = band_hi if band_hi < a1 else a1

    p_rec1, p_rec2 = p * a0, one_minus_p * a1
    p_dia1, p_dia2 = p * (1.0 - a0), one_minus_p * (1.0 - a1)

    residual = q - p_rec1 * e00 - p_rec2 * e10 - p_dia1 * e01
    if p_dia2 < _TINY:
        e11 = 0.0
        penalty += abs(residual)
    else:
        e11 = residual / p_dia2
    below, above = -e11, e11 - 1.0
    penalty += (0.0 if 0.0 > below else below) + (0.0 if 0.0 > above else above)
    e11 = 0.0 if 0.0 > e11 else e11
    e11 = 1.0 if 1.0 < e11 else e11

    rec = _side(p_rec1, p_rec2, e00, e10, e01, e11, gap)
    dia = _side(p_dia1, p_dia2, e01, e11, e00, e10, gap)
    return a1, e11, penalty, rec, dia


def _reduced_objective_scalar(constants, p, a0, e00, e01, e10) -> float:
    """Penalised rate at the box point (p_lambda1, a0, e_b00, e_b01, e_b10).

    A feasible point gets the exact split-processing rate with worst-case
    phase errors; a point whose eliminated variables fall outside their
    own bounds gets the rate at the clamped point plus a large finite
    penalty and the distance to feasibility.  ``constants`` is the
    problem's ``search_constants``.  The error rates are convex
    combinations of values in [0, 1], so they go to
    :func:`binary_entropy` unclamped; it clamps the rounding.
    """
    _, _, penalty, *sides = _reduced_point(constants, p, a0, e00, e01, e10)
    rate = 0.0
    for side in sides:
        if side is not None:
            weight, bit, worst, _ = side
            rate += weight * (1.0 - binary_entropy(bit) - binary_entropy(worst))
    if penalty > 0.0:
        return rate + PENALTY_BASE + (PENALTY_CAP if PENALTY_CAP < penalty else penalty)
    return rate


def _grid_axes(bounds: list[tuple[float, float]], grid_points: int) -> list[np.ndarray]:
    return [
        np.linspace(lo, hi, grid_points) if hi - lo > DEGENERATE_AXIS_TOL else np.array([lo])
        for lo, hi in bounds
    ]


def _grid_points_array(axes: list[np.ndarray], cells: np.ndarray) -> np.ndarray:
    """The grid points at the flat indices ``cells``, one row each, last axis fastest."""
    index = np.unravel_index(cells, [len(axis) for axis in axes])
    return np.stack([axis[i] for axis, i in zip(axes, index)], axis=1)


def _penalty_free_cells(axes: list[np.ndarray], constants) -> np.ndarray:
    """Flat indices, ascending, of the grid cells that carry no penalty.

    Runs :func:`_feasibility` on the grid axes (p_lambda1, a0, e_b00,
    e_b01, e_b10), each set on its own dimension, one slab of fixed
    p_lambda1 at a time, so no temporary spans the grid, and keeps the
    cells whose penalty is 0.
    """
    p_axis, a0, e00, e01, e10 = axes
    slab = math.prod(len(axis) for axis in axes[1:])
    found = []
    for i, p in enumerate(p_axis):
        *_, penalty = _feasibility(
            p, a0[:, None, None, None], e00[:, None, None], e01[:, None], e10, constants
        )
        found.append(i * slab + np.flatnonzero(penalty == 0.0))
    return np.concatenate(found)


def _smallest(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` smallest values, ties in index order.

    The first ``count`` entries of ``np.argsort(values, kind="stable")``,
    without sorting every value: NaN sorts last there and is kept here.
    """
    kth = np.partition(values, count - 1)[count - 1]
    candidates = np.flatnonzero(~(values > kth))
    return candidates[np.argsort(values[candidates], kind="stable")[:count]]


# Initial-simplex steps of scipy's Nelder-Mead: 5 % of a nonzero coordinate,
# an absolute step for a zero one.
_NONZDELT = 0.05
_ZDELT = 0.00025


def _clip(x: list[float], lower: list[float], upper: list[float]) -> list[float]:
    """``np.clip`` of 1-D arrays: max then min, the first operand kept on ties."""
    return [m if (m := v if v > lo else lo) < hi else hi for v, lo, hi in zip(x, lower, upper)]


def _converged(sim, fsim) -> bool:
    """scipy's stop test: every vertex within ``VARIABLE_TOL`` and ``OBJECTIVE_TOL`` of the best."""
    best, f_best = sim[0], fsim[0]
    for f in fsim[1:]:
        if not abs(f_best - f) <= OBJECTIVE_TOL:
            return False
    for x in sim[1:]:
        for v, b in zip(x, best):
            if not abs(v - b) <= VARIABLE_TOL:
                return False
    return True


def _sort(sim, fsim):
    """The simplex's vertices and values, best first, in scipy's order.

    np.argsort is not stable, and the tied vertex it puts first steers the
    simplex, so ties go through it as in scipy.
    """
    order = np.argsort(fsim).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _refine(objective, start: list[float], bounds: list[tuple[float, float]]):
    """Bounded Nelder-Mead polish of one start, degenerate axes held fixed.

    Repeats ``scipy.optimize.minimize(method="Nelder-Mead", bounds=...)``
    of scipy 1.17 over the free axes of ``bounds`` (at least one, as the
    two-step box's p_lambda1 axis always is), from the full point
    ``start`` inside them, with ``MAX_ITERATIONS``, ``OBJECTIVE_TOL`` and
    ``VARIABLE_TOL`` as ``maxiter``, ``fatol`` and ``xatol``.  Every IEEE
    step, clip and tie rule is scipy's, and ``objective`` is called on
    exactly scipy's points in scipy's order, so the polish ends on scipy's
    bits and iteration count.  Coefficients are scipy's defaults:
    reflection 1, expansion 2, contraction and shrink 1/2.
    ``objective`` gets a full point as a list of floats.  Returns
    ``(point, value, iterations)``.
    """
    free = [i for i, (lo, hi) in enumerate(bounds) if hi - lo > DEGENERATE_AXIS_TOL]
    lower = [bounds[i][0] for i in free]
    upper = [bounds[i][1] for i in free]
    n = len(free)

    def full(x):
        point = list(start)
        for i, v in zip(free, x):
            point[i] = v
        return point

    def func(x):
        return objective(full(x))

    best = _clip([start[i] for i in free], lower, upper)
    sim = [best]
    for k in range(n):
        vertex = list(best)
        vertex[k] = (1 + _NONZDELT) * vertex[k] if vertex[k] != 0 else _ZDELT
        sim.append(vertex)
    # Steps that overshoot an upper bound are reflected inside, then clipped.
    sim = [
        _clip([2 * hi - v if v > hi else v for v, hi in zip(x, upper)], lower, upper)
        for x in sim
    ]
    fsim = [func(x) for x in sim]
    sim, fsim = _sort(*_sort(sim, fsim))  # scipy sorts the initial simplex twice
    iterations = 1
    while iterations < MAX_ITERATIONS and not _converged(sim, fsim):
        best = sim[0]
        # Left-to-right column sums, as np.add.reduce(sim[:-1], 0).
        total = best
        for x in sim[1:-1]:
            total = map(operator.add, total, x)
        xbar = [t / n for t in total]
        worst = sim[-1]
        xr = _clip([2 * b - w for b, w in zip(xbar, worst)], lower, upper)
        fxr = func(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = _clip([3 * b - 2 * w for b, w in zip(xbar, worst)], lower, upper)
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = _clip([1.5 * b - 0.5 * w for b, w in zip(xbar, worst)], lower, upper)
            fxc = func(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = _clip([0.5 * b + 0.5 * w for b, w in zip(xbar, worst)], lower, upper)
            fxcc = func(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = _clip([b + 0.5 * (v - b) for b, v in zip(best, sim[j])], lower, upper)
                fsim[j] = func(sim[j])
        iterations += 1
        sim, fsim = _sort(sim, fsim)
    return full(sim[0]), fsim[0], iterations


def _box_search(constants):
    """Grid scan of one problem's box, then a polish of each of its best cells.

    ``constants`` is the problem's ``search_constants``; its box is the
    unit cube with the basis band on the ``a0`` axis.  The search keeps the
    best cell of the grid and polishes its ``REFINE_STARTS`` best cells,
    one at a time.  Returns ``(point, report)``.

    The scan evaluates the objective only where it can matter.  A
    pre-pass, :func:`_penalty_free_cells`, runs the objective's
    feasibility step on numpy arrays, :func:`_feasibility`, and finds the
    cells that carry no penalty (886 of the 59,049 cells for the problem
    that the `pulses` benchmark derives), at least g**3 of g**5 (g**2 at
    eps1 = 0): those at p_lambda1 = 0 and e_b10 = 0, where a1 = 1/2 and
    e_b11 = 2 q.  At g = ``GRID_POINTS`` that is more than
    ``REFINE_STARTS``.  A penalised value exceeds ``PENALTY_BASE - 1`` and
    an unpenalised one is at most 1, so no other cell can be among the
    best, and the scan evaluates the penalty-free cells alone, in
    ascending order; the best cells and their index tie order are those
    of a scan of every cell, and the best cell, and so the argmin, carries
    no penalty.  ``grid_evaluations`` reports the grid's cells, evaluated
    or not.
    """
    *_, band_lo, band_hi = constants
    bounds = [(0.0, 1.0), (band_lo, band_hi), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]

    def objective(point):
        return _reduced_objective_scalar(constants, *point)

    axes = _grid_axes(bounds, GRID_POINTS)
    cells = _grid_points_array(axes, _penalty_free_cells(axes, constants)).tolist()
    values = np.array([objective(cell) for cell in cells])
    # Grid enumeration is lexicographic, so breaking ties by index makes
    # the choice of the best cells deterministic.
    best = _smallest(values, REFINE_STARTS).tolist()
    best_point, best_value = cells[best[0]], float(values[best[0]])

    trace = [best_value]
    iterations = 0
    for i in best:
        point, value, count = _refine(objective, cells[i], bounds)
        iterations += count
        if value < best_value or (value == best_value and tuple(point) < tuple(best_point)):
            best_value = value
            best_point = point
        trace.append(best_value)
    report = {
        "grid_points_per_axis": GRID_POINTS,
        "grid_evaluations": math.prod(len(axis) for axis in axes),
        "restarts": REFINE_STARTS,
        "iterations": iterations,
        "best_objective_trace": trace,
    }
    return best_point, report


def _reconstruct_scenario(problem: TwoStepProblem, point) -> TwoStepScenario:
    """The full scenario at ``point``, (p_lambda1, a0, e_b00, e_b01, e_b10).

    The eliminated variables and each side's phase band come from
    :func:`_reduced_point`.  Each side's phase errors reach its worst
    weighted average: every component sits at the fraction ``t`` of its
    own band at which the worst point sits in the side's band (0 for a
    band of no width).  A side of zero weight takes the cross-basis bit
    error rates as its phase errors.
    """
    p, a0, e00, e01, e10 = (float(x) for x in point)
    a1, e11, _, rec, dia = _reduced_point(problem.search_constants, p, a0, e00, e01, e10)

    def phases(side, cross):
        if side is None:
            return cross
        _, _, worst, ((lo_a, hi_a), (lo_b, hi_b), (lo, hi)) = side
        t = 0.0 if hi - lo <= 0.0 else (worst - lo) / (hi - lo)
        return lo_a + t * (hi_a - lo_a), lo_b + t * (hi_b - lo_b)

    e_p00, e_p10 = phases(rec, (e01, e11))
    e_p01, e_p11 = phases(dia, (e00, e10))
    eps0 = problem.dev.eps0
    hv = HiddenVariableModel(
        p_lambda0=0.5,
        p_lambda1=p,
        p_x0_given_l0=(0.5 + eps0, 0.5 - eps0),
        p_x1_given_l1=(a0, a1),
    )
    return TwoStepScenario(
        hv=hv, e_b00=e00, e_b01=e01, e_b10=e10, e_b11=e11,
        e_p00=e_p00, e_p01=e_p01, e_p10=e_p10, e_p11=e_p11,
    )


def constraint_residuals(problem: TwoStepProblem, scenario: TwoStepScenario) -> dict:
    """Violation amounts (zero when satisfied) of every search constraint."""
    gap = phase_gap_bound(problem.dev.eps0)
    res = {}
    res["basis_balance_rec"] = abs(scenario.p_rec - 0.5)
    res["basis_balance_dia"] = abs(scenario.p_dia - 0.5)
    e_recbit = (
        scenario.p_rec1 * scenario.e_b00 + scenario.p_rec2 * scenario.e_b10
    ) / scenario.p_rec if scenario.p_rec > 0 else 0.0
    e_diabit = (
        scenario.p_dia1 * scenario.e_b01 + scenario.p_dia2 * scenario.e_b11
    ) / scenario.p_dia if scenario.p_dia > 0 else 0.0
    res["qber"] = abs(
        scenario.p_rec * e_recbit + scenario.p_dia * e_diabit - problem.q_target
    )
    for i, prob in enumerate(scenario.hv.p_x1_given_l1):
        res[f"basis_band_{i}"] = max(0.0, abs(prob - 0.5) - problem.dev.eps1)
    for i, prob in enumerate(scenario.hv.p_x0_given_l0):
        res[f"bit_band_{i}"] = max(0.0, abs(prob - 0.5) - problem.dev.eps0)
    bands = (
        ("phase_band_rec_0", scenario.e_p00, scenario.e_b01),
        ("phase_band_rec_1", scenario.e_p10, scenario.e_b11),
        ("phase_band_dia_0", scenario.e_p01, scenario.e_b00),
        ("phase_band_dia_1", scenario.e_p11, scenario.e_b10),
    )
    for name, e_p, cross in bands:
        res[name] = max(0.0, abs(e_p - cross) - gap)
    for name in ("e_b00", "e_b01", "e_b10", "e_b11", "e_p00", "e_p01", "e_p10", "e_p11"):
        value = getattr(scenario, name)
        res[f"range_{name}"] = max(0.0, -value) + max(0.0, value - 1.0)
    return res


def solve_two_step(problem: TwoStepProblem) -> OptimizationResult:
    """Worst-case split-processing rate compatible with the observations.

    The reduced five-variable box is searched, the minimizer's eliminated
    variables are reconstructed, and it is re-evaluated through the exact
    scenario calculator, so the reported rate and the reported scenario
    cannot drift apart.  Where :func:`keyrate.two_step_worst_scenario`
    rates lower by more than ``CLOSED_FORM_MARGIN``, that scenario and its
    rate are returned instead, with the search's report.

    Every valid problem has penalty-free grid cells, so the search always
    ends on a feasible point.  The check that the minimizer meets every
    constraint to within 1e-9 (its ``feasibility_residual``) guards against
    a fault in the search, not against an input: a minimizer that fails it
    raises InfeasibilityError carrying that residual.
    """
    point, report = _box_search(problem.search_constants)
    scenario = _reconstruct_scenario(problem, point)
    residual = max(constraint_residuals(problem, scenario).values())
    if residual > 1e-9:
        raise InfeasibilityError(
            f"no feasible eavesdropper strategy found for Q={problem.q_target!r}",
            residual=residual,
        )
    min_rate = evaluate_two_step_scenario(scenario, problem.dev, use_worst_phase=True)
    closed = two_step_worst_scenario(problem.q_target, problem.dev)
    closed_rate = evaluate_two_step_scenario(closed, problem.dev, use_worst_phase=True)
    if min_rate.rate - closed_rate.rate > CLOSED_FORM_MARGIN:
        scenario, min_rate = closed, closed_rate
        residual = max(constraint_residuals(problem, closed).values())
    report["feasibility_residual"] = residual
    report["one_step_delta"] = one_step_delta(problem.dev)
    return OptimizationResult(min_rate=min_rate, argmin=scenario, solver_report=report)
