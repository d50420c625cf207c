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

The refinement is an in-package bounded Nelder-Mead that repeats the
steps of ``scipy.optimize.minimize(method="Nelder-Mead", bounds=...)``
(scipy 1.17) operation for operation, so it returns the same bits
without depending on scipy.  It polishes a problem's starts in one
lockstep batch over numpy arrays.

The exact minimum has a closed form, :func:`keyrate.two_step_rate`,
which sweeps use directly.  :func:`solve_two_step` still runs the search,
because its argmin fixes the derived diagnostics of ``simulate``, and
returns the closed form's attaining scenario instead wherever the
search's minimum lies more than ``CLOSED_FORM_MARGIN`` above it.
"""

from __future__ import annotations

import math
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
from .quantum_core import binary_entropy

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
# Grid cells per objective call in the scan: small enough for the
# objective's temporaries to stay in cache (measured fastest on 9**5 cells).
GRID_CHUNK = 8192
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
    are clamped to their bounds.  ``constants`` is the problem's
    ``search_constants``.  Returns ``(a1, (w00, w01, w10, w11), e11,
    penalty)``: the clamped values, the weight ``w_hs`` of hidden value
    ``h`` on side ``s`` (side 0 the rectilinear basis), and the distance
    to feasibility, 0 exactly at a feasible point: the unclamped
    variables' distances to their bounds, plus abs(numerator) where a
    weight vanishes.  The bits are :func:`_reduced_objective_scalar`'s,
    as for :func:`_elimination`.
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
    """Nelder-Mead simplices, one per start, over the box's free axes.

    ``sim[v, r]`` is vertex ``v`` of row ``r`` over the free axes, best
    first, and ``fsim[v, r]`` its objective value.
    """

    def __init__(self, starts, free, lower, upper):
        self.free = free
        self.base = starts
        self.lower = lower[free]
        self.upper = upper[free]
        self._set_rows(np.arange(len(starts)))
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
        self.index = np.arange(len(rows))
        # The trial points as full points; each step refills the free axes.
        self.trials_full = np.repeat(self.base[None], len(_MOVE_A), axis=0)

    def keep(self, mask):
        self.base = self.base[mask]
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
            shrunk = (best + 0.5 * (sim[1:, shrink] - best)).clip(self.lower, self.upper)
            move[shrink] = _REFLECT  # overwritten by set_shrunk
        sim[-1] = trials[move, self.index]
        fsim[-1] = values[move, self.index]
        return shrink, shrunk

    def set_shrunk(self, shrink, shrunk, values):
        self.sim[1:, shrink] = shrunk
        self.fsim[1:, shrink] = values


def _refine(objective, starts, lower, upper):
    """Nelder-Mead polish of many starts in one box, degenerate axes held fixed.

    Each row of ``starts`` (a full point inside the box ``lower``..``upper``,
    which has at least one free axis, as the two-step box's p_lambda1 axis
    always is) follows ``scipy.optimize.minimize(method="Nelder-Mead",
    bounds=...)`` of scipy 1.17 over the free axes, with
    ``MAX_ITERATIONS``, ``OBJECTIVE_TOL`` and ``VARIABLE_TOL`` as
    ``maxiter``, ``fatol`` and ``xatol``.  Every IEEE step, clip and tie
    rule is scipy's, so each row ends on scipy's bits and iteration count.

    The rows run in lockstep.  Each step evaluates the reflection,
    expansion and both contractions of every active row in one call
    ``objective(points)`` on full points; it must be pure, so that the
    evaluations scipy would skip change nothing.  Shrunk vertices go in a
    second call, only when some row shrinks.  A row leaves the batch when
    it meets scipy's stop test or reaches ``MAX_ITERATIONS``.  Returns
    ``(points, values, iterations)``, one entry per row.
    """
    n_rows, dim = starts.shape
    points = starts.copy()
    values = np.empty(n_rows)
    iterations = np.zeros(n_rows, dtype=int)

    def evaluate(x):
        return objective(x.reshape(-1, dim)).reshape(x.shape[:-1])

    def finish(done, count):
        rows = simplices.rows[done]
        points[rows] = simplices.points(simplices.sim[0, done], simplices.base[done])
        values[rows] = simplices.fsim[0, done]
        iterations[rows] = count

    free = np.flatnonzero(upper - lower > DEGENERATE_AXIS_TOL)
    simplices = _Simplices(starts, free, lower, upper)
    simplices.fsim = evaluate(simplices.points(simplices.sim, simplices.base))
    simplices.sort()  # scipy sorts the initial simplex twice
    simplices.sort()

    count = 1
    while count < MAX_ITERATIONS:
        done = simplices.converged(VARIABLE_TOL, OBJECTIVE_TOL)
        if done is not None:
            finish(done, count)
            simplices.keep(~done)
            if not len(simplices.rows):
                break
        trials, full = simplices.trial_points()
        shrink, shrunk = simplices.replace_worst(trials, evaluate(full))
        if shrunk is not None:
            shrunk_values = evaluate(simplices.points(shrunk, simplices.base[shrink]))
            simplices.set_shrunk(shrink, shrunk, shrunk_values)
        simplices.sort()
        count += 1
    finish(simplices.index >= 0, count)
    return points, values, iterations


def _box_search(constants):
    """Grid scan of one problem's box, then a lockstep polish of its best cells.

    ``constants`` is the problem's ``search_constants``; its box is the
    unit cube with the basis band on the ``a0`` axis.  The search keeps the
    best cell of the grid and polishes its ``REFINE_STARTS`` best cells.
    Returns ``(point, report)``.

    The scan evaluates the objective only where it can matter.  A
    pre-pass, :func:`_penalty_free_cells`, runs the objective's own
    feasibility step, :func:`_feasibility`, and finds the cells that carry
    no penalty (3.1 % of the cells of a 36-point sweep over QBERs up to 0.11),
    at least g**3 of g**5 (g**2 at eps1 = 0): those at p_lambda1 = 0 and
    e_b10 = 0, where a1 = 1/2 and e_b11 = 2 q.  At g = ``GRID_POINTS`` that
    is more than ``REFINE_STARTS``.  A penalised value exceeds
    ``PENALTY_BASE - 1`` and an unpenalised one is at most 1, so no other
    cell can be among the best, and the scan evaluates the penalty-free
    cells alone.  Every value is the elementwise objective, the same bits
    in any chunk, and the scanned cells are in ascending order, so the
    best cells and their index tie order are those of a scan of every
    cell; the best cell, and so the argmin, carries no penalty.
    ``grid_evaluations`` reports the grid's cells, evaluated or not.
    """
    *_, band_lo, band_hi = constants
    bounds = [(0.0, 1.0), (band_lo, band_hi), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
    axes = _grid_axes(bounds, GRID_POINTS)
    cells = _penalty_free_cells(axes, constants)
    values = _scan_cells(axes, constants, cells)
    # Grid enumeration is lexicographic, so breaking ties by index makes
    # the choice of the best cells deterministic.
    best = _smallest(values, REFINE_STARTS)
    starts = _grid_points_array(axes, cells[best])
    best_point, best_value = starts[0], float(values[best[0]])

    lower, upper = np.array(bounds).T
    polished, polished_values, iterations = _refine(
        lambda points: _reduced_objective_vec(points, constants), starts, lower, upper
    )
    trace = [best_value]
    for point, value in zip(polished, polished_values.tolist()):
        if value < best_value or (value == best_value and tuple(point) < tuple(best_point)):
            best_value = value
            best_point = point
        trace.append(best_value)
    report = {
        "grid_points_per_axis": GRID_POINTS,
        "grid_evaluations": math.prod(len(axis) for axis in axes),
        "restarts": REFINE_STARTS,
        "iterations": int(iterations.sum()),
        "best_objective_trace": trace,
    }
    return best_point, report


def _reconstruct_scenario(problem: TwoStepProblem, point: np.ndarray) -> TwoStepScenario:
    """The full scenario at ``point``, a row (p_lambda1, a0, e_b00, e_b01, e_b10).

    The eliminated variables come from :func:`_elimination`.  Each side's
    phase errors reach its worst weighted average: every component sits at
    the fraction ``t`` of its own band at which the worst point sits in the
    side's band (0 for a band of no width).  A side of zero weight takes
    the cross-basis bit error rates as its phase errors.
    """
    a1, rates, side, _, errors, worst, _ = _elimination(point[None], problem.search_constants)
    lo, hi = errors[1:]
    width = hi - lo
    t = np.divide(worst - lo, width, out=np.zeros(width.shape), where=~(width <= 0.0))
    phases = rates[:, 1] + t * (rates[:, 2] - rates[:, 1])
    phases = np.where(side <= 0.0, rates[:, 0, ::-1], phases)
    # e_b00, e_b01, e_b10, e_b11, then the e_p in the same order.
    fields = np.concatenate((rates[:, 0], phases)).ravel().tolist()
    names = ("e_b00", "e_b01", "e_b10", "e_b11", "e_p00", "e_p01", "e_p10", "e_p11")
    eps0 = problem.dev.eps0
    hv = HiddenVariableModel(
        p_lambda0=0.5,
        p_lambda1=float(point[0]),
        p_x0_given_l0=(0.5 + eps0, 0.5 - eps0),
        p_x1_given_l1=(float(point[1]), float(a1[0])),
    )
    return TwoStepScenario(hv=hv, **dict(zip(names, fields)))


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
