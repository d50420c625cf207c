"""Deterministic box-constrained minimization of the split-processing rate.

The worst case over eavesdropper strategies reduces to a five-variable
box search: the basis-side hidden-variable weight, one conditional
basis probability, and three of the four bit error rates.  The second
conditional basis probability is eliminated by the basis balance of 1/2,
the fourth bit error rate by the observed QBER, and the phase
errors by their closed-form adversarial worst case.  A coarse
deterministic grid seeds a handful of Nelder-Mead refinements;
reproducibility is favoured over solver sophistication.

The refinement is an in-package bounded Nelder-Mead that repeats the
steps of ``scipy.optimize.minimize(method="Nelder-Mead", bounds=...)``
(scipy 1.17) operation for operation, so it returns the same bits
without depending on scipy.  It polishes every start of every problem
in one lockstep batch over numpy arrays: :func:`solve_two_step_many`
solves a whole sweep's problems together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MEMORY_BUDGET, InfeasibilityError, ValidationError
from .keyrate import (
    DeviationParams,
    HiddenVariableModel,
    KeyRateResult,
    TwoStepScenario,
    evaluate_two_step_scenario,
    one_step_delta,
    phase_gap_bound,
)
from .quantum_core import binary_entropy

PENALTY_BASE = 1e3
PENALTY_CAP = 1e6
DEGENERATE_AXIS_TOL = 1e-15
# MAX_GRID_CELLS keeps the grid scan within MEMORY_BUDGET at
# GRID_BYTES_PER_CELL, an upper bound on the slope of the peak RSS of a
# two-step solve over --grid 10 to 20: 2.0 B per cell when the scan keeps
# only the penalty-free cells (`rate --method two-step --qber 0.05 --eps1
# 0.1`), 23 B when it scans every cell (each cell's index and value and the
# partial sort's copy and masks), which it does only when --starts exceeds
# the penalty-free cells.  56 B, a scan that built every cell's point, keeps
# the cap in place.
GRID_BYTES_PER_CELL = 56
MAX_GRID_CELLS = MEMORY_BUDGET // GRID_BYTES_PER_CELL
# MAX_POLISH_ROWS keeps one batch's polished starts within the same budget:
# `rate --method two-step --eps1 0.1 --grid 9` peaks 4,745 B higher per start
# over 20,000 to 59,049 starts (--maxiter 2; 4,858 B over 10 to 20,000 at 60).
POLISH_BYTES_PER_ROW = 4864
MAX_POLISH_ROWS = MEMORY_BUDGET // POLISH_BYTES_PER_ROW
# The polish's stop test: scipy's Nelder-Mead ``fatol`` and ``xatol``.
OBJECTIVE_TOL = 1e-6
VARIABLE_TOL = 1e-8
# Grid cells per objective call in the scan: small enough for the
# objective's temporaries to stay in cache (measured fastest on 9**5 cells).
GRID_CHUNK = 8192
_TINY = 1e-15


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the grid-plus-simplex search; defaults favour reproducibility.

    The scan grid has ``grid_points`` to the power of the number of
    non-degenerate axes cells, at most ``MAX_GRID_CELLS`` (76,695,844 at 56
    B each, above the measured slopes: up to 37 points on each of the
    five two-step axes).  A batch of problems polishes ``min(refine_starts,
    cells)`` starts each, at most ``MAX_POLISH_ROWS`` (883,011 at 4,864 B)
    in all.  Larger inputs raise ValidationError before any grid is built.
    """

    grid_points: int = 9
    refine_starts: int = 10
    max_iterations: int = 500
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


def _libm_log2(x: np.ndarray) -> np.ndarray:
    """``math.log2`` of each entry of a contiguous 1-D array.

    numpy's own log2 differs from the C library's in the last bit for
    about 0.2 % of inputs, so the vectorised objective, which must repeat
    the plain-float objective bit for bit, takes its logarithms from here.
    """
    return np.fromiter(map(math.log2, memoryview(x)), float, len(x))


def _minus_entropy(x: np.ndarray) -> np.ndarray:
    """``x log2 x + (1 - x) log2 (1 - x)`` of each entry, 0 outside (0, 1).

    That is minus :func:`binary_entropy`, bit for bit: ``-x * log2(x) - (1 - x) *
    log2(1 - x)`` only negates this sum, and ``1 - h_a - h_b`` is exactly
    ``(1 + s_a) + s_b`` for ``s = -h``.
    """
    both = np.concatenate((x, 1.0 - x), axis=None)
    if both.min() > 0.0:
        terms = both * _libm_log2(both)
        return (terms[: x.size] + terms[x.size:]).reshape(x.shape)
    inside = (x > 0.0) & (x < 1.0)
    out = np.zeros(x.shape)
    if inside.any():
        out[inside] = _minus_entropy(x[inside])
    return out


def _eliminate(numerator, weight, fallback):
    """``numerator / weight`` as the scalar objective forms it.

    Where ``weight < _TINY`` the quotient is ``fallback`` and the row is
    charged ``abs(numerator)`` as penalty.  Returns ``(quotient, penalty)``,
    the penalty None when no weight is that small.

    The None returns, ``weighted = None`` in :func:`_elimination` and the no-penalty
    return of :func:`_reduced_objective_vec` skip unneeded masks: without them the
    `pulses` and `transcript` derived solves ran 11-14 % slower (10 pairs, 2-core Xeon).
    """
    if not weight.min() < _TINY:
        return numerator / weight, None
    small = weight < _TINY
    quotient = numerator / np.where(small, 1.0, weight)
    return np.where(small, fallback, quotient), np.where(small, np.abs(numerator), 0.0)


def _feasibility(p, a0, e00, e01, e10, constants):
    """The eliminated ``a1`` and ``e11`` at (p_lambda1, a0, e_b00, e_b01, e_b10).

    The search's one feasibility step.  The arguments broadcast together:
    rows of points, or grid axes each on its own dimension.  ``a1`` comes
    from the basis balance of 1/2 and ``e11`` from the observed QBER; both
    are clamped to their bounds.  ``constants`` is a problem's
    ``search_constants``, or four arrays that give each row its own
    problem's.  Returns ``(a1, (w00, w01, w10, w11), e11, penalty)``: the
    clamped values, the weight ``w_hs`` of hidden value ``h`` on side
    ``s`` (side 0 the rectilinear basis), and the distance to feasibility,
    0 exactly at a feasible point: the unclamped variables' distances to
    their bounds, plus abs(numerator) where a weight vanishes.  The bits
    are :func:`_reduced_objective_scalar`'s, as for :func:`_elimination`.
    """
    q, _, band_lo, band_hi = constants
    one_minus_p = 1.0 - p
    a1, collapsed = _eliminate(0.5 - p * a0, one_minus_p, 0.5)
    # np.clip keeps the bound on a tie where the scalar keeps a1, the same
    # bits: a1 is never -0.0 (a vanishing numerator is +0.0), nor is the band.
    clamped = a1.clip(band_lo, band_hi)
    band_gap = np.abs(a1 - clamped)
    w00, w01 = a0 * p, (1.0 - a0) * p
    w10, w11 = clamped * one_minus_p, (1.0 - clamped) * one_minus_p

    e11, weightless = _eliminate(q - w00 * e00 - w10 * e10 - w01 * e01, w11, 0.0)
    # The scalar's clamp, which keeps e11 on a tie: -0.0 stays -0.0.
    e11_clamped = np.where(0.0 > e11, 0.0, np.where(1.0 < e11, 1.0, e11))
    # A zero penalty's sign never matters.  e11 is not needed after this.
    range_gap = np.abs(np.subtract(e11, e11_clamped, out=e11), out=e11)
    # The scalar's sum starts from 0.0; band_gap is never -0.0, so leaving
    # that 0.0 out keeps the bits.
    penalty = band_gap if collapsed is None else collapsed + band_gap
    if weightless is not None:
        penalty = penalty + weightless
    penalty = penalty + range_gap
    return clamped, (w00, w01, w10, w11), e11_clamped, penalty


def _elimination(points: np.ndarray, constants):
    """The scenario that each row (p_lambda1, a0, e_b00, e_b01, e_b10) stands for.

    Takes ``a1``, ``e11``, the weights and the penalty from
    :func:`_feasibility`, and bounds each side's phase error by the band
    that its cross-basis bit error rates allow.  ``constants`` is as for
    :func:`_feasibility`.  Returns ``(a1, rates, side, weighted, errors,
    worst, penalty)``, where side 0 is the rectilinear basis and side 1
    the diagonal one:

    - ``a1``, clamped to the basis band
    - ``rates[h, k, s]`` for hidden value ``h`` on side ``s``: its bit error
      rate (``k = 0``; ``rates[1, 0, 1]`` is the clamped ``e11``) and the
      low (1) and high (2) ends of the band of its phase error
    - ``side[s]``, the side's weight, and ``weighted``: None when every
      side weight is positive, else where they are
    - ``errors[k, s]``, the hidden values' ``rates`` averaged by weight
    - ``worst[s]``, the point of the side's phase band ``errors[1:, s]``
      nearest 1/2, the adversarial phase error
    - ``penalty``, :func:`_feasibility`'s distance to feasibility

    Every value repeats :func:`_reduced_objective_scalar` operation for
    operation: the same rounding steps in the same order, divisions by the
    same weights, and clamps with the scalar's tie rules, signed zeros
    included (where a numpy clamp stands in, the comment says why its ties
    give the same bits).
    """
    a1, weights, e11, penalty = _feasibility(*points.T, constants)
    gap = constants[1]
    # weights[h, s] is the weight of hidden value h on side s.
    weights = np.reshape(weights, (2, 2, len(points)))
    rates = np.empty((2, 3, 2, len(points)))
    rates[0, 0] = points[:, 2:4].T
    rates[1, 0, 0] = points[:, 4]
    rates[1, 0, 1] = e11
    cross = rates[:, 0, ::-1]
    np.subtract(cross, gap, out=rates[:, 1])
    np.copyto(rates[:, 1], 0.0, where=0.0 > rates[:, 1])
    np.add(cross, gap, out=rates[:, 2])
    np.copyto(rates[:, 2], 1.0, where=1.0 < rates[:, 2])

    side = weights[0] + weights[1]
    weighted = None if side.min() > 0.0 else side > 0.0
    products = weights[:, None] * rates
    errors = np.add(products[0], products[1], out=products[0])
    errors /= side if weighted is None else np.where(weighted, side, 1.0)
    # ``0.5 if lo <= 0.5 <= hi else (hi if hi < 0.5 else lo)``.  As lo <= hi,
    # that is 1/2 clamped to [lo, hi]; a tie is with 0.5 itself.
    worst = np.maximum(errors[1], 0.5)
    np.minimum(worst, errors[2], out=worst)
    return a1, rates, side, weighted, errors, worst, penalty


def _reduced_objective_vec(points: np.ndarray, constants) -> np.ndarray:
    """Penalised rate at each row (p_lambda1, a0, e_b00, e_b01, e_b10).

    Feasible rows get the exact split-processing rate with worst-case
    phase errors; rows whose eliminated variables fall outside their own
    bounds get the rate at the clamped point plus a large finite penalty
    and the distance to feasibility.

    ``constants`` is as for :func:`_elimination`.  Each value is
    :func:`_reduced_objective_scalar`'s bit for bit, in the grid scan and
    in the polish alike.
    """
    _, _, side, weighted, errors, worst, penalty = _elimination(points, constants)
    s_bit, s_pha = _minus_entropy(np.stack((errors[0], worst)))
    terms = side * (1.0 + s_bit + s_pha)
    if weighted is not None:
        terms = np.where(weighted, terms, 0.0)
    rate = terms[0] + terms[1]
    if not penalty.max() > 0.0:
        return rate
    # A positive penalty and its cap are never zero, so np.minimum's ties
    # are exact.
    return np.where(penalty > 0.0, rate + PENALTY_BASE + np.minimum(penalty, PENALTY_CAP), rate)


def _reduced_objective_scalar(
    problem: TwoStepProblem, p: float, a0: float, e00: float, e01: float, e10: float
) -> float:
    """Plain-float twin of :func:`_reduced_objective_vec` for simplex calls.

    ``b if b > a else a`` and ``b if b < a else a`` spell ``max(a, b)`` and
    ``min(a, b)`` without the call, keeping their tie rule (``a`` wins).
    The error rates are convex combinations of values in [0, 1], so they
    go to :func:`binary_entropy` unclamped; it clamps the rounding.
    """
    q, gap, band_lo, band_hi = problem.search_constants

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

    p_rec = p_rec1 + p_rec2
    p_dia = p_dia1 + p_dia2
    rate = 0.0
    if p_rec > 0.0:
        e_recbit = (p_rec1 * e00 + p_rec2 * e10) / p_rec
        lo0, lo1, hi0, hi1 = e01 - gap, e11 - gap, e01 + gap, e11 + gap
        lo = (p_rec1 * (0.0 if 0.0 > lo0 else lo0) + p_rec2 * (0.0 if 0.0 > lo1 else lo1)) / p_rec
        hi = (p_rec1 * (1.0 if 1.0 < hi0 else hi0) + p_rec2 * (1.0 if 1.0 < hi1 else hi1)) / p_rec
        e_recpha = 0.5 if lo <= 0.5 <= hi else (hi if hi < 0.5 else lo)
        rate += p_rec * (1.0 - binary_entropy(e_recbit) - binary_entropy(e_recpha))
    if p_dia > 0.0:
        e_diabit = (p_dia1 * e01 + p_dia2 * e11) / p_dia
        lo0, lo1, hi0, hi1 = e00 - gap, e10 - gap, e00 + gap, e10 + gap
        lo = (p_dia1 * (0.0 if 0.0 > lo0 else lo0) + p_dia2 * (0.0 if 0.0 > lo1 else lo1)) / p_dia
        hi = (p_dia1 * (1.0 if 1.0 < hi0 else hi0) + p_dia2 * (1.0 if 1.0 < hi1 else hi1)) / p_dia
        e_diapha = 0.5 if lo <= 0.5 <= hi else (hi if hi < 0.5 else lo)
        rate += p_dia * (1.0 - binary_entropy(e_diabit) - binary_entropy(e_diapha))

    if penalty > 0.0:
        return rate + PENALTY_BASE + (PENALTY_CAP if PENALTY_CAP < penalty else penalty)
    return rate


def _grid_axes(bounds: list[tuple[float, float]], grid_points: int) -> list[np.ndarray]:
    cells = 1
    for lo, hi in bounds:
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


def _scan_cells(axes, constants, cells: np.ndarray) -> np.ndarray:
    """The objective at each of the grid ``cells``, in their order."""
    values = np.empty(len(cells))
    for j in range(0, len(cells), GRID_CHUNK):
        points = _grid_points_array(axes, cells[j:j + GRID_CHUNK])
        values[j:j + GRID_CHUNK] = _reduced_objective_vec(points, constants)
    return values


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
# The trial points of a Nelder-Mead step (reflection 1, expansion 2,
# contraction 1/2) as MOVE_A * centroid + MOVE_B * worst vertex, in the
# order reflection, expansion, outside and inside contraction.  Adding a
# negated product is the subtraction scipy does, bit for bit.
_MOVE_A = np.array([2.0, 3.0, 1.5, 0.5])[:, None, None]
_MOVE_B = np.array([-1.0, -2.0, -0.5, 0.5])[:, None, None]
_REFLECT, _EXPAND, _OUTSIDE, _INSIDE, _SHRINK = range(5)


class _Simplices:
    """Nelder-Mead simplices, one per start, over the same free axes.

    ``sim[v, r]`` is vertex ``v`` of row ``r`` over its free axes, best
    first, and ``fsim[v, r]`` its objective value.
    """

    def __init__(self, rows, free, starts, labels, lower, upper):
        self.free = free
        self.base = starts[rows]
        self.labels = labels[rows]
        self.lower = lower[rows][:, free]
        self.upper = upper[rows][:, free]
        self._set_rows(rows)
        n = len(free)
        # ndarray.clip is np.clip, whose rule scipy's bounds follow: the
        # bound wins a tie, so a zero bound turns -0.0 into 0.0.
        best = self.base[:, free].clip(self.lower, self.upper)
        sim = np.repeat(best[None], n + 1, axis=0)
        axes = np.arange(n)
        sim[axes + 1, :, axes] = np.where(best != 0, (1 + _NONZDELT) * best, _ZDELT).T
        # Steps that overshoot an upper bound are reflected inside, then clipped.
        sim = np.where(sim > self.upper, 2 * self.upper - sim, sim)
        self.sim = sim.clip(self.lower, self.upper)
        self.fsim = None

    def _set_rows(self, rows):
        self.rows = rows
        self.trial_labels = np.tile(self.labels, len(_MOVE_A))
        self.index = np.arange(len(rows))
        # The trial points as full points; each step refills the free axes.
        self.trials_full = np.repeat(self.base[None], len(_MOVE_A), axis=0)

    def keep(self, mask):
        for name in ("base", "labels", "lower", "upper"):
            setattr(self, name, getattr(self, name)[mask])
        self.sim = self.sim[:, mask]
        self.fsim = self.fsim[:, mask]
        self._set_rows(self.rows[mask])

    def points(self, x, base):
        """Full points: ``x`` on the free axes, ``base`` elsewhere."""
        full = np.empty(x.shape[:-1] + base.shape[-1:])
        full[...] = base
        full[..., self.free] = x
        return full

    def sort(self):
        # np.argsort is not stable, and the tied vertex it puts first steers
        # the simplex, so ties go through it as in scipy; each row's
        # vertices are ordered as a 1-D argsort of their values would order
        # them.
        order = np.argsort(self.fsim, axis=0)
        self.sim = self.sim[order, self.index]
        self.fsim = self.fsim[order, self.index]

    def converged(self, xatol, fatol):
        """scipy's stop test per row, or None when no row meets it.

        The values are sorted, NaN last, so ``max(abs(fsim[0] - fsim[1:]))``
        is ``fsim[-1] - fsim[0]``.
        """
        sim, fsim = self.sim, self.fsim
        done = fsim[-1] - fsim[0] <= fatol
        if done.any():
            done &= (np.abs(sim[1:] - sim[0]) <= xatol).all(axis=(0, 2))
            if done.any():
                return done
        return None

    def trial_points(self):
        """Reflection, expansion and both contractions of every row, clipped.

        Returns them over the free axes and as full points.
        """
        sim = self.sim
        # np.add.reduce over the vertex axis adds the vertices left to
        # right, as scipy's np.add.reduce(sim[:-1], 0) does.
        centroid = np.add.reduce(sim[:-1], axis=0) / len(self.free)
        trials = (_MOVE_A * centroid + _MOVE_B * sim[-1]).clip(self.lower, self.upper)
        self.trials_full[..., self.free] = trials
        return trials, self.trials_full

    def replace_worst(self, trials, values):
        """scipy's choice among the trial points, given all their values.

        The worst vertex of each row takes the trial point scipy would
        keep.  Returns the indices of the rows that shrink instead, and
        their shrunk vertices 1..n, whose values go to :meth:`set_shrunk`;
        ``shrunk`` is None when no row shrinks.
        """
        sim, fsim = self.sim, self.fsim
        f_reflect, f_expand, f_outside, f_inside = values
        f_worst = fsim[-1]
        expand = f_reflect < fsim[0]
        move = np.where(
            expand | (f_reflect < fsim[-2]),
            expand & (f_expand < f_reflect),  # True is _EXPAND, False _REFLECT
            np.where(
                f_reflect < f_worst,
                np.where(f_outside <= f_reflect, _OUTSIDE, _SHRINK),
                np.where(f_inside < f_worst, _INSIDE, _SHRINK),
            ),
        )
        shrink = move == _SHRINK
        shrunk = None
        if shrink.any():
            shrink = np.flatnonzero(shrink)
            best = sim[0, shrink]
            shrunk = (best + 0.5 * (sim[1:, shrink] - best)).clip(
                self.lower[shrink], self.upper[shrink]
            )
            move[shrink] = _REFLECT  # overwritten by set_shrunk
        sim[-1] = trials[move, self.index]
        fsim[-1] = values[move, self.index]
        return shrink, shrunk

    def set_shrunk(self, shrink, shrunk, values):
        self.sim[1:, shrink] = shrunk
        self.fsim[1:, shrink] = values


def _refine(objective, starts, labels, lower, upper, opts):
    """Nelder-Mead polish of many starts at once, degenerate axes held fixed.

    Each row of ``starts`` (a full point with its own ``lower`` and
    ``upper`` bounds and at least one free axis, as the two-step box's
    p_lambda1 axis always is) follows ``scipy.optimize.minimize(method=
    "Nelder-Mead", bounds=...)`` of scipy 1.17 over its free axes, with
    ``opts.max_iterations``, ``OBJECTIVE_TOL`` and ``VARIABLE_TOL`` as
    ``maxiter``, ``fatol`` and ``xatol``.  Every IEEE step, clip and tie
    rule is scipy's, so each row ends on scipy's bits and iteration count.

    The rows run in lockstep.  Each step evaluates the reflection,
    expansion and both contractions of every active row in one call
    ``objective(points, labels)``, which gets full points and, for each,
    the entry of ``labels`` for the row it belongs to; it must be pure, so
    that the evaluations scipy would skip change nothing.  Shrunk vertices go in a second call, only
    when some row shrinks.  A row leaves the batch when it meets scipy's
    stop test or reaches ``opts.max_iterations``.  Returns ``(points,
    values, iterations)``, one entry per row.
    """
    n_rows, dim = starts.shape
    points = starts.copy()
    values = np.empty(n_rows)
    iterations = np.zeros(n_rows, dtype=int)
    if n_rows == 0:
        return points, values, iterations

    def evaluate(parts):
        """One objective call for several ``(points, labels)`` pairs."""
        # Without this path the derived solves of the `pulses` and
        # `transcript` benchmark workloads ran 3 % and 14 % slower.
        if len(parts) == 1:
            x, tags = parts[0]
            return [objective(x.reshape(-1, dim), tags.ravel()).reshape(x.shape[:-1])]
        out = objective(
            np.concatenate([x.reshape(-1, dim) for x, _ in parts]),
            np.concatenate([tags.ravel() for _, tags in parts]),
        )
        ends = np.cumsum([tags.size for _, tags in parts])
        return [v.reshape(x.shape[:-1]) for v, (x, _) in zip(np.split(out, ends[:-1]), parts)]

    def finish(group, done, count):
        rows = group.rows[done]
        points[rows] = group.points(group.sim[0, done], group.base[done])
        values[rows] = group.fsim[0, done]
        iterations[rows] = count

    by_axes = {}
    for row, mask in enumerate(((upper - lower) > DEGENERATE_AXIS_TOL).tolist()):
        by_axes.setdefault(tuple(mask), []).append(row)
    groups = [
        _Simplices(np.array(rows), np.flatnonzero(mask), starts, labels, lower, upper)
        for mask, rows in by_axes.items()
    ]

    initial = evaluate(
        [(g.points(g.sim, g.base), np.broadcast_to(g.labels, g.sim.shape[:2])) for g in groups]
    )
    for group, fsim in zip(groups, initial):
        group.fsim = fsim
        group.sort()  # scipy sorts the initial simplex twice
        group.sort()

    count = 1
    while count < opts.max_iterations and groups:
        finished = False
        for group in groups:
            done = group.converged(VARIABLE_TOL, OBJECTIVE_TOL)
            if done is not None:
                finish(group, done, count)
                group.keep(~done)
                finished = True
        if finished:
            groups = [group for group in groups if len(group.rows)]
            if not groups:
                break
        trials = [group.trial_points() for group in groups]
        trial_values = evaluate([(full, g.trial_labels) for g, (_, full) in zip(groups, trials)])
        shrinking = []
        for group, (t, _), v in zip(groups, trials, trial_values):
            shrink, shrunk = group.replace_worst(t, v)
            if shrunk is not None:
                shrinking.append((group, shrink, shrunk))
        if shrinking:
            shrunk_values = evaluate(
                [
                    (g.points(x, g.base[s]), np.broadcast_to(g.labels[s], x.shape[:2]))
                    for g, s, x in shrinking
                ]
            )
            for (group, shrink, shrunk), v in zip(shrinking, shrunk_values):
                group.set_shrunk(shrink, shrunk, v)
        for group in groups:
            group.sort()
        count += 1
    for group in groups:
        finish(group, group.index >= 0, count)
    return points, values, iterations


def _box_search(constants, opts):
    """Grid scan of every problem's box, then one lockstep polish of all their starts.

    ``constants`` lists each problem's ``search_constants``; its box is the
    unit cube with the basis band on the ``a0`` axis.  Each box keeps the
    best cell of its grid and polishes its ``opts.refine_starts`` best
    cells.  Returns one ``(point, report)`` per problem, in order.  The
    caps of :class:`SolverOptions` are checked before any grid is built.

    The scan evaluates the objective only where it can matter.  A
    pre-pass, :func:`_penalty_free_cells`, runs the objective's own
    feasibility step, :func:`_feasibility`, and finds the cells that carry
    no penalty (3.1 % of the cells of a 36-point sweep over QBERs up to 0.11
    at the default grid), at least g**3 of g**5 (g**2 at eps1 = 0): those
    at p_lambda1 = 0 and e_b10 = 0, where a1 = 1/2 and e_b11 = 2 q.  A
    penalised value exceeds ``PENALTY_BASE - 1`` and an unpenalised one is
    at most 1, so when ``max(refine_starts, 1)`` cells are penalty-free no
    other cell can be among the best, and the one scan evaluates those
    alone; otherwise it evaluates every cell.  Every value is the
    elementwise objective, the same bits in any chunk, and the scanned
    cells are in ascending order, so the best cells and their index tie
    order are those of a scan of every cell; the best cell, and so the
    argmin, carries no penalty.  ``grid_evaluations`` reports the grid's
    cells, evaluated or not.
    """
    boxes = [
        [(0.0, 1.0), (band_lo, band_hi), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
        for *_, band_lo, band_hi in constants
    ]
    grids = [_grid_axes(bounds, opts.grid_points) for bounds in boxes]
    sizes = [math.prod(len(axis) for axis in axes) for axes in grids]
    rows = sum(min(opts.refine_starts, n_cells) for n_cells in sizes)
    if rows > MAX_POLISH_ROWS:
        raise ValidationError(
            f"{opts.refine_starts} refinement starts per problem give {rows} polish rows, "
            f"above the cap of {MAX_POLISH_ROWS}; use fewer starts"
        )
    seeds, starts = [], []
    for own, axes, n_cells in zip(constants, grids, sizes):
        n_starts = min(opts.refine_starts, n_cells)
        cells = _penalty_free_cells(axes, own)
        if len(cells) < max(n_starts, 1):
            cells = np.arange(n_cells)
        values = _scan_cells(axes, own, cells)
        # Grid enumeration is lexicographic, so breaking ties by index makes
        # the choice of the best cells deterministic.
        best = _smallest(values, max(n_starts, 1))
        points = _grid_points_array(axes, cells[best])
        starts.append(points[:n_starts])
        seeds.append((points[0], float(values[best[0]]), n_cells, n_starts))
        del values, cells  # one grid at a time

    owners = np.repeat(np.arange(len(boxes)), [seed[3] for seed in seeds])
    table = np.array(constants).T
    box = np.array(boxes)
    polished, polished_values, polish_iterations = _refine(
        lambda points, labels: _reduced_objective_vec(points, table[:, labels]),
        np.concatenate(starts),
        owners,
        box[owners, :, 0],
        box[owners, :, 1],
        opts,
    )

    searches, first = [], 0
    for best_point, best_value, n_points, n_starts in seeds:
        trace = [best_value]
        for row in range(first, first + n_starts):
            point, value = polished[row], float(polished_values[row])
            if value < best_value or (
                value == best_value and tuple(point) < tuple(best_point)
            ):
                best_value = value
                best_point = point
            trace.append(best_value)
        report = {
            "grid_points_per_axis": opts.grid_points,
            "grid_evaluations": int(n_points),
            "restarts": int(n_starts),
            "iterations": int(polish_iterations[first:first + n_starts].sum()),
            "best_objective_trace": [float(v) for v in trace],
            "seed": int(opts.seed),
        }
        searches.append((best_point, report))
        first += n_starts
    return searches


def _reconstruct_scenario(problems, points: np.ndarray) -> list[TwoStepScenario]:
    """The full scenario of each problem at its row of ``points``.

    The eliminated variables come from :func:`_elimination`.  Each side's
    phase errors reach its worst weighted average: every component sits at
    the fraction ``t`` of its own band at which the worst point sits in the
    side's band (0 for a band of no width).  A side of zero weight takes
    the cross-basis bit error rates as its phase errors.
    """
    constants = np.array([problem.search_constants for problem in problems]).T
    a1, rates, side, _, errors, worst, _ = _elimination(points, constants)
    lo, hi = errors[1:]
    width = hi - lo
    t = np.divide(worst - lo, width, out=np.zeros(width.shape), where=~(width <= 0.0))
    phases = rates[:, 1] + t * (rates[:, 2] - rates[:, 1])
    phases = np.where(side <= 0.0, rates[:, 0, ::-1], phases)
    # Per problem: e_b00, e_b01, e_b10, e_b11, then the e_p in the same order.
    fields = np.concatenate((rates[:, 0], phases)).reshape(8, -1).T.tolist()
    names = ("e_b00", "e_b01", "e_b10", "e_b11", "e_p00", "e_p01", "e_p10", "e_p11")
    scenarios = []
    for problem, (p, a0), a1_value, row in zip(
        problems, points[:, :2].tolist(), a1.tolist(), fields
    ):
        eps0 = problem.dev.eps0
        hv = HiddenVariableModel(
            p_lambda0=0.5,
            p_lambda1=p,
            p_x0_given_l0=(0.5 + eps0, 0.5 - eps0),
            p_x1_given_l1=(a0, a1_value),
        )
        scenarios.append(TwoStepScenario(hv=hv, **dict(zip(names, row))))
    return scenarios


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


def solve_two_step_many(
    problems, opts: SolverOptions | None = None
) -> list[OptimizationResult]:
    """Worst-case split-processing rates of several problems, in input order.

    Each problem's reduced five-variable box is scanned on its own grid;
    then the refinement starts of all problems are polished together in
    one lockstep batch, which gives every problem the same bits as
    solving it alone.  Each minimizer's eliminated variables are
    reconstructed and it is re-evaluated through the exact scenario
    calculator, so the reported rate and the reported scenario cannot
    drift apart.

    Every valid problem has penalty-free grid cells, so the search always
    ends on a feasible point.  The check that each minimizer meets every
    constraint to within 1e-9 (its ``feasibility_residual``) guards against
    a fault in the search, not against an input: the first problem whose
    minimizer fails it raises InfeasibilityError carrying that residual.
    """
    opts = opts or SolverOptions()
    problems = list(problems)
    if not problems:
        return []
    searches = _box_search([problem.search_constants for problem in problems], opts)
    scenarios = _reconstruct_scenario(problems, np.array([point for point, _ in searches]))
    results = []
    for problem, scenario, (_, report) in zip(problems, scenarios, searches):
        residual = max(constraint_residuals(problem, scenario).values())
        if residual > 1e-9:
            raise InfeasibilityError(
                f"no feasible eavesdropper strategy found for Q={problem.q_target!r}",
                residual=residual,
            )
        min_rate = evaluate_two_step_scenario(scenario, problem.dev, use_worst_phase=True)
        report["feasibility_residual"] = residual
        report["one_step_delta"] = one_step_delta(problem.dev)
        results.append(
            OptimizationResult(min_rate=min_rate, argmin=scenario, solver_report=report)
        )
    return results


def solve_two_step(
    problem: TwoStepProblem, opts: SolverOptions | None = None
) -> OptimizationResult:
    """Worst-case split-processing rate compatible with the observations.

    The one-problem case of :func:`solve_two_step_many`.
    """
    return solve_two_step_many([problem], opts)[0]
