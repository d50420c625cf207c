"""Deterministic box-constrained minimization of the split-processing rate.

The worst case over eavesdropper strategies reduces to a five-variable
box search: the basis-side hidden-variable weight, one conditional
basis probability, and three of the four bit error rates.  The second
conditional basis probability is eliminated by the observed basis
balance, the fourth bit error rate by the observed QBER, and the phase
errors by their closed-form adversarial worst case.  A coarse
deterministic grid seeds a handful of Nelder-Mead refinements;
reproducibility is favoured over solver sophistication.

The refinement is an in-package bounded Nelder-Mead on plain floats
that repeats the steps of ``scipy.optimize.minimize(method="Nelder-Mead",
bounds=...)`` (scipy 1.17) operation for operation, so it returns the
same bits without depending on scipy.
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
)

PENALTY_BASE = 1e3
PENALTY_CAP = 1e6
DEGENERATE_AXIS_TOL = 1e-15
# The grid scan holds about GRID_BYTES_PER_CELL bytes per cell at its peak
# (points, mesh and the vectorised objective's temporaries; measured on
# 10**5 to 16**5 cells).  MAX_GRID_CELLS keeps it within GRID_MEMORY_BUDGET.
GRID_BYTES_PER_CELL = 290
GRID_MEMORY_BUDGET = 4 * 2**30
MAX_GRID_CELLS = GRID_MEMORY_BUDGET // GRID_BYTES_PER_CELL
_TINY = 1e-15


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the grid-plus-simplex search; defaults favour reproducibility.

    The scan grid has ``grid_points`` to the power of the number of
    non-degenerate axes cells, at most ``MAX_GRID_CELLS`` (14,810,232: the
    cells that fit a 4 GiB scan at about 290 B each, so up to 27 points on
    each of the five two-step axes).  A larger grid is rejected with a
    ValidationError before any array is built.
    """

    grid_points: int = 9
    refine_starts: int = 10
    max_iterations: int = 500
    objective_tol: float = 1e-6
    variable_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.grid_points < 2:
            raise ValidationError("grid_points must be at least 2")
        if self.refine_starts < 0:
            raise ValidationError("refine_starts must be non-negative")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be positive")


@dataclass(frozen=True)
class TwoStepProblem:
    """Observed quantities pinning the worst-case search.

    q_target is the total sifted QBER; observed_basis_prob the measured
    rectilinear-basis probability (1/2 in the symmetric protocol).
    """

    q_target: float
    dev: DeviationParams
    observed_basis_prob: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.q_target <= 0.5:
            raise ValidationError(f"q_target={self.q_target!r} outside [0, 0.5]")
        if not 0.0 < self.observed_basis_prob < 1.0:
            raise ValidationError(
                f"observed_basis_prob={self.observed_basis_prob!r} outside (0, 1)"
            )

    @cached_property
    def search_constants(self) -> tuple[float, float, float, float, float]:
        """The objective's per-problem constants, computed once.

        ``(q_target, observed_basis_prob, phase gap bound, basis band low,
        basis band high)``.
        """
        eps1 = self.dev.eps1
        return (
            self.q_target,
            self.observed_basis_prob,
            phase_gap_bound(self.dev.eps0),
            max(0.0, 0.5 - eps1),
            min(1.0, 0.5 + eps1),
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


def _entropy_vec(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(x)
    interior = (x > 0.0) & (x < 1.0)
    xi = x[interior]
    out[interior] = -xi * np.log2(xi) - (1.0 - xi) * np.log2(1.0 - xi)
    return out


def _worst_phase_vec(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.where((lo <= 0.5) & (0.5 <= hi), 0.5, np.where(hi < 0.5, hi, lo))


def _reduced_objective_vec(problem: TwoStepProblem, points: np.ndarray) -> np.ndarray:
    """Penalised rate at each row (p_lambda1, a0, e_b00, e_b01, e_b10).

    Feasible rows get the exact split-processing rate with worst-case
    phase errors; rows whose eliminated variables fall outside their own
    bounds get the rate at the clamped point plus a large finite penalty
    and the distance to feasibility.
    """
    p = points[:, 0]
    a0 = points[:, 1]
    e00 = points[:, 2]
    e01 = points[:, 3]
    e10 = points[:, 4]
    q, rec_target, gap, band_lo, band_hi = problem.search_constants

    penalty = np.zeros_like(p)
    one_minus_p = 1.0 - p
    collapsed = one_minus_p < _TINY

    # Eliminate the second basis probability via the observed basis balance.
    a1 = np.where(collapsed, 0.5, (rec_target - p * a0) / np.maximum(one_minus_p, _TINY))
    penalty += np.where(collapsed, np.abs(p * a0 - rec_target), 0.0)
    penalty += np.maximum(band_lo - a1, 0.0) + np.maximum(a1 - band_hi, 0.0)
    a1 = np.clip(a1, band_lo, band_hi)

    p_rec1 = p * a0
    p_rec2 = one_minus_p * a1
    p_dia1 = p * (1.0 - a0)
    p_dia2 = one_minus_p * (1.0 - a1)

    # Eliminate the last bit error rate via the observed QBER.
    residual = q - p_rec1 * e00 - p_rec2 * e10 - p_dia1 * e01
    weightless = p_dia2 < _TINY
    e11 = np.where(weightless, 0.0, residual / np.maximum(p_dia2, _TINY))
    penalty += np.where(weightless, np.abs(residual), 0.0)
    penalty += np.maximum(-e11, 0.0) + np.maximum(e11 - 1.0, 0.0)
    e11 = np.clip(e11, 0.0, 1.0)

    p_rec = p_rec1 + p_rec2
    p_dia = p_dia1 + p_dia2
    rec_safe = np.maximum(p_rec, _TINY)
    dia_safe = np.maximum(p_dia, _TINY)

    e_recbit = (p_rec1 * e00 + p_rec2 * e10) / rec_safe
    e_diabit = (p_dia1 * e01 + p_dia2 * e11) / dia_safe

    # Adversarial phase errors: the weighted cross-basis band point nearest 1/2.
    rec_lo = (p_rec1 * np.maximum(e01 - gap, 0.0) + p_rec2 * np.maximum(e11 - gap, 0.0)) / rec_safe
    rec_hi = (p_rec1 * np.minimum(e01 + gap, 1.0) + p_rec2 * np.minimum(e11 + gap, 1.0)) / rec_safe
    dia_lo = (p_dia1 * np.maximum(e00 - gap, 0.0) + p_dia2 * np.maximum(e10 - gap, 0.0)) / dia_safe
    dia_hi = (p_dia1 * np.minimum(e00 + gap, 1.0) + p_dia2 * np.minimum(e10 + gap, 1.0)) / dia_safe
    e_recpha = _worst_phase_vec(rec_lo, rec_hi)
    e_diapha = _worst_phase_vec(dia_lo, dia_hi)

    rec_term = np.where(
        p_rec > 0.0, p_rec * (1.0 - _entropy_vec(e_recbit) - _entropy_vec(e_recpha)), 0.0
    )
    dia_term = np.where(
        p_dia > 0.0, p_dia * (1.0 - _entropy_vec(e_diabit) - _entropy_vec(e_diapha)), 0.0
    )
    rate = rec_term + dia_term
    penalty = np.minimum(penalty, PENALTY_CAP)
    return np.where(penalty > 0.0, rate + PENALTY_BASE + penalty, rate)


def _entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _reduced_objective_scalar(
    problem: TwoStepProblem, p: float, a0: float, e00: float, e01: float, e10: float
) -> float:
    """Plain-float twin of :func:`_reduced_objective_vec` for simplex calls.

    ``b if b > a else a`` and ``b if b < a else a`` spell ``max(a, b)`` and
    ``min(a, b)`` without the call, keeping their tie rule (``a`` wins).
    The bit error rates go to :func:`_entropy` unclamped: it is 0 outside
    (0, 1), as it would be at the clamped value.
    """
    q, rec_target, gap, band_lo, band_hi = problem.search_constants

    penalty = 0.0
    one_minus_p = 1.0 - p
    if one_minus_p < _TINY:
        a1 = 0.5
        penalty += abs(p * a0 - rec_target)
    else:
        a1 = (rec_target - p * a0) / one_minus_p
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

    p_rec = p_rec1 + p_rec2
    p_dia = p_dia1 + p_dia2
    rate = 0.0
    if p_rec > 0.0:
        e_recbit = (p_rec1 * e00 + p_rec2 * e10) / p_rec
        lo0, lo1, hi0, hi1 = e01 - gap, e11 - gap, e01 + gap, e11 + gap
        lo = (p_rec1 * (0.0 if 0.0 > lo0 else lo0) + p_rec2 * (0.0 if 0.0 > lo1 else lo1)) / p_rec
        hi = (p_rec1 * (1.0 if 1.0 < hi0 else hi0) + p_rec2 * (1.0 if 1.0 < hi1 else hi1)) / p_rec
        e_recpha = 0.5 if lo <= 0.5 <= hi else (hi if hi < 0.5 else lo)
        rate += p_rec * (1.0 - _entropy(e_recbit) - _entropy(e_recpha))
    if p_dia > 0.0:
        e_diabit = (p_dia1 * e01 + p_dia2 * e11) / p_dia
        lo0, lo1, hi0, hi1 = e00 - gap, e10 - gap, e00 + gap, e10 + gap
        lo = (p_dia1 * (0.0 if 0.0 > lo0 else lo0) + p_dia2 * (0.0 if 0.0 > lo1 else lo1)) / p_dia
        hi = (p_dia1 * (1.0 if 1.0 < hi0 else hi0) + p_dia2 * (1.0 if 1.0 < hi1 else hi1)) / p_dia
        e_diapha = 0.5 if lo <= 0.5 <= hi else (hi if hi < 0.5 else lo)
        rate += p_dia * (1.0 - _entropy(e_diabit) - _entropy(e_diapha))

    if penalty > 0.0:
        return rate + PENALTY_BASE + (PENALTY_CAP if PENALTY_CAP < penalty else penalty)
    return rate


def _grid_axes(bounds: list[tuple[float, float]], grid_points: int) -> list[np.ndarray]:
    cells = 1
    for lo, hi in bounds:
        if hi < lo:
            raise ValidationError(f"empty box: bound ({lo!r}, {hi!r})")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError(f"bounds must be finite, got ({lo!r}, {hi!r})")
        if hi - lo > DEGENERATE_AXIS_TOL:
            cells *= grid_points
    if cells > MAX_GRID_CELLS:
        raise ValidationError(
            f"a grid of {grid_points} points per axis has {cells} cells, "
            f"above the cap of {MAX_GRID_CELLS}; use fewer grid points"
        )
    return [
        np.linspace(lo, hi, grid_points) if hi - lo > DEGENERATE_AXIS_TOL else np.array([lo])
        for lo, hi in bounds
    ]


def _grid_points_array(axes: list[np.ndarray]) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# Initial-simplex steps of scipy's Nelder-Mead: 5 % of a nonzero coordinate,
# an absolute step for a zero one.
_NONZDELT = 0.05
_ZDELT = 0.00025


def _clip(x: list[float], lower: list[float], upper: list[float]) -> list[float]:
    """``np.clip`` of 1-D arrays: max then min, the first operand kept on ties."""
    return [m if (m := v if v > lo else lo) < hi else hi for v, lo, hi in zip(x, lower, upper)]


def _converged(sim, fsim, xatol, fatol) -> bool:
    """scipy's stop test: every vertex within ``xatol`` and ``fatol`` of the best."""
    best, f_best = sim[0], fsim[0]
    for f in fsim[1:]:
        if not abs(f_best - f) <= fatol:
            return False
    for x in sim[1:]:
        for v, b in zip(x, best):
            if not abs(v - b) <= xatol:
                return False
    return True


def _nelder_mead(func, x0, lower, upper, max_iterations, fatol, xatol):
    """Bounded Nelder-Mead on plain floats; returns ``(x, func(x), iterations)``.

    Repeats ``scipy.optimize.minimize(func, x0, method="Nelder-Mead",
    bounds=list(zip(lower, upper)), options={"maxiter": max_iterations,
    "fatol": fatol, "xatol": xatol})`` of scipy 1.17 operation for
    operation: the same IEEE steps in the same order, the same clipping
    and the same tie rules, so the result and the iteration count are bit
    for bit scipy's.  Coefficients are scipy's defaults:
    reflection 1, expansion 2, contraction and shrink 1/2.  ``func`` gets
    a list of floats it must not modify.
    """
    n = len(x0)
    best = _clip(x0, lower, upper)
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
    for _ in range(2):  # scipy sorts the initial simplex twice
        # np.argsort is not stable, and the tied vertex it puts first steers
        # the simplex, so ties must go through it as in scipy.
        order = np.argsort(fsim).tolist()
        sim = [sim[i] for i in order]
        fsim = [fsim[i] for i in order]

    iterations = 1
    while iterations < max_iterations:
        best, f_best = sim[0], fsim[0]
        if _converged(sim, fsim, xatol, fatol):
            break
        # Left-to-right column sums, as np.add.reduce(sim[:-1], 0).
        total = best
        for x in sim[1:-1]:
            total = map(operator.add, total, x)
        xbar = [t / n for t in total]
        worst = sim[-1]
        xr = _clip([2 * b - w for b, w in zip(xbar, worst)], lower, upper)
        fxr = func(xr)
        shrink = False
        if fxr < f_best:
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
        order = np.argsort(fsim).tolist()
        sim = [sim[i] for i in order]
        fsim = [fsim[i] for i in order]
    return sim[0], fsim[0], iterations


def _refine(objective, start, bounds, opts):
    """Nelder-Mead polish of one start, with degenerate axes held fixed.

    ``objective`` takes the full point as a list of floats.
    """
    point = [float(v) for v in start]
    free = [i for i, (lo, hi) in enumerate(bounds) if hi - lo > DEGENERATE_AXIS_TOL]
    iterations = 0
    if free:
        def reduced(x):
            full = point[:]
            for i, v in zip(free, x):
                full[i] = v
            return objective(full)

        x, _, iterations = _nelder_mead(
            reduced,
            [point[i] for i in free],
            [bounds[i][0] for i in free],
            [bounds[i][1] for i in free],
            opts.max_iterations,
            opts.objective_tol,
            opts.variable_tol,
        )
        for i, v in zip(free, x):
            point[i] = v
    return np.array(point), float(objective(point)), iterations


def _box_search(objective, bounds, opts, vectorized=None):
    """Grid scan plus simplex refinement; returns (point, value, report).

    ``objective`` takes a point as a sequence of floats: a grid row when
    ``vectorized`` is not given, a list during refinement.
    """
    axes = _grid_axes(bounds, opts.grid_points)
    points = _grid_points_array(axes)
    if vectorized is not None:
        values = np.asarray(vectorized(points), dtype=float)
    else:
        values = np.array([objective(row) for row in points], dtype=float)

    # Grid enumeration is lexicographic, so a stable sort makes tie-breaking
    # on the best cells deterministic.
    order = np.argsort(values, kind="stable")
    best_idx = order[0]
    best_point = points[best_idx].copy()
    best_value = float(values[best_idx])
    trace = [best_value]

    total_iterations = 0
    n_starts = min(opts.refine_starts, len(points))
    for idx in order[:n_starts]:
        point, value, iterations = _refine(objective, points[idx], bounds, opts)
        total_iterations += iterations
        if value < best_value or (
            value == best_value and tuple(point) < tuple(best_point)
        ):
            best_value = value
            best_point = point
        trace.append(best_value)

    report = {
        "grid_points_per_axis": opts.grid_points,
        "grid_evaluations": int(len(points)),
        "restarts": int(n_starts),
        "iterations": int(total_iterations),
        "best_objective_trace": [float(v) for v in trace],
        "seed": int(opts.seed),
    }
    return best_point, best_value, report


def minimize_box(objective, bounds, opts: SolverOptions | None = None):
    """Deterministic minimum of ``objective`` over a finite box.

    Scans a uniform grid (``opts.grid_points`` per non-degenerate axis),
    then polishes the best ``opts.refine_starts`` cells with Nelder-Mead.
    ``objective`` takes a point as a sequence of floats.  Returns
    ``(point, value)``; identical inputs give identical output.
    """
    opts = opts or SolverOptions()
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    point, value, _ = _box_search(objective, bounds, opts)
    return point, value


def _reconstruct_scenario(problem: TwoStepProblem, v: np.ndarray) -> TwoStepScenario:
    """Rebuild the full scenario (eliminated variables included) from a point."""
    p, a0, e00, e01, e10 = (float(x) for x in v)
    q, rec_target, gap, band_lo, band_hi = problem.search_constants

    if 1.0 - p < _TINY:
        a1 = 0.5
    else:
        a1 = (rec_target - p * a0) / (1.0 - p)
    a1 = min(max(a1, band_lo), band_hi)

    p_rec1, p_rec2 = p * a0, (1.0 - p) * a1
    p_dia1, p_dia2 = p * (1.0 - a0), (1.0 - p) * (1.0 - a1)
    residual = q - p_rec1 * e00 - p_rec2 * e10 - p_dia1 * e01
    e11 = 0.0 if p_dia2 < _TINY else residual / p_dia2
    e11 = min(max(e11, 0.0), 1.0)

    def realize(weights: tuple[float, float], cross: tuple[float, float]) -> tuple[float, float]:
        """Per-component phase errors achieving the worst weighted average."""
        total = weights[0] + weights[1]
        if total <= 0.0:
            return cross
        los = [max(0.0, c - gap) for c in cross]
        his = [min(1.0, c + gap) for c in cross]
        lo = (weights[0] * los[0] + weights[1] * los[1]) / total
        hi = (weights[0] * his[0] + weights[1] * his[1]) / total
        if lo <= 0.5 <= hi:
            worst = 0.5
        else:
            worst = hi if hi < 0.5 else lo
        t = 0.0 if hi - lo <= 0.0 else (worst - lo) / (hi - lo)
        return (
            los[0] + t * (his[0] - los[0]),
            los[1] + t * (his[1] - los[1]),
        )

    e_p00, e_p10 = realize((p_rec1, p_rec2), (e01, e11))
    e_p01, e_p11 = realize((p_dia1, p_dia2), (e00, e10))

    eps0 = problem.dev.eps0
    hv = HiddenVariableModel(
        p_lambda0=0.5,
        p_lambda1=p,
        p_x0_given_l0=(min(1.0, 0.5 + eps0), max(0.0, 0.5 - eps0)),
        p_x1_given_l1=(a0, a1),
    )
    return TwoStepScenario(
        hv=hv,
        e_b00=e00,
        e_b01=e01,
        e_b10=e10,
        e_b11=e11,
        e_p00=e_p00,
        e_p01=e_p01,
        e_p10=e_p10,
        e_p11=e_p11,
    )


def constraint_residuals(problem: TwoStepProblem, scenario: TwoStepScenario) -> dict:
    """Violation amounts (zero when satisfied) of every search constraint."""
    gap = phase_gap_bound(problem.dev.eps0)
    res = {}
    res["basis_balance_rec"] = abs(scenario.p_rec - problem.observed_basis_prob)
    res["basis_balance_dia"] = abs(scenario.p_dia - (1.0 - problem.observed_basis_prob))
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


def solve_two_step(
    problem: TwoStepProblem, opts: SolverOptions | None = None
) -> OptimizationResult:
    """Worst-case split-processing rate compatible with the observations.

    Searches the reduced five-variable box, reconstructs the eliminated
    variables for the minimizer, and re-evaluates it through the exact
    scenario calculator so the reported rate and the reported scenario
    cannot drift apart.
    """
    opts = opts or SolverOptions()
    _, _, _, band_lo, band_hi = problem.search_constants
    bounds = [(0.0, 1.0), (band_lo, band_hi), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]

    def scalar(v: list[float]) -> float:
        return _reduced_objective_scalar(problem, *v)

    def vectorized(points: np.ndarray) -> np.ndarray:
        return _reduced_objective_vec(problem, points)

    point, value, report = _box_search(scalar, bounds, opts, vectorized=vectorized)

    if value >= PENALTY_BASE:
        raise InfeasibilityError(
            f"no feasible eavesdropper strategy found for Q={problem.q_target!r}",
            residual=value - PENALTY_BASE,
        )

    scenario = _reconstruct_scenario(problem, point)
    min_rate = evaluate_two_step_scenario(scenario, problem.dev, use_worst_phase=True)
    residuals = constraint_residuals(problem, scenario)
    report["feasibility_residual"] = max(residuals.values())
    report["one_step_delta"] = one_step_delta(problem.dev)
    return OptimizationResult(min_rate=min_rate, argmin=scenario, solver_report=report)
