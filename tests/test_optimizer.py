"""Tests for the box search and the worst-case scenario minimization."""

import hashlib
import math

import numpy as np
import pytest

from grid_scan_reference import box_search as grid_scan_box_search
from grid_scan_reference import grid_points_array
from nelder_mead_reference import clip, nelder_mead
from rebuild_reference import reconstruct_scenario

from bb84_weakrand import optimizer
from bb84_weakrand.cli import SOLVE_BLOCK
from bb84_weakrand.errors import MEMORY_BUDGET, InfeasibilityError, ValidationError
from bb84_weakrand.keyrate import (
    DeviationParams,
    HiddenVariableModel,
    TwoStepScenario,
    evaluate_two_step_scenario,
    one_step_rate,
)
from bb84_weakrand.optimizer import (
    DEGENERATE_AXIS_TOL,
    GRID_BYTES_PER_CELL,
    MAX_GRID_CELLS,
    MAX_POLISH_ROWS,
    OBJECTIVE_TOL,
    PENALTY_BASE,
    POLISH_BYTES_PER_ROW,
    VARIABLE_TOL,
    SolverOptions,
    TwoStepProblem,
    _box_search,
    _elimination,
    _grid_axes,
    _grid_points_array,
    _penalty_free_cells,
    _reduced_objective_scalar,
    _reduced_objective_vec,
    _reconstruct_scenario,
    _refine,
    _smallest,
    constraint_residuals,
    solve_two_step,
    solve_two_step_many,
)
from bb84_weakrand.output import canonical_json

# 50-digit decimal references.
ONE_STEP_ZERO_DEV = 0.71711891491635870969124200559121606641
TWO_STEP_BASIS_LEAK = 0.66416759962660319398002667314973674707

FAST = SolverOptions(grid_points=7, refine_starts=6, max_iterations=300)


def rosenbrock(v):
    return (1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2


class TestTwoStepProblem:
    def test_qber_range(self):
        with pytest.raises(ValidationError):
            TwoStepProblem(q_target=0.6, dev=DeviationParams(0.0, 0.0))
        with pytest.raises(ValidationError):
            TwoStepProblem(q_target=-0.1, dev=DeviationParams(0.0, 0.0))


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestObjectiveConsistency:
    def test_scalar_matches_vectorized(self, rng):
        problem = TwoStepProblem(q_target=0.07, dev=DeviationParams(0.08, 0.2))
        points = rng.uniform([0, 0.3, 0, 0, 0], [1, 0.7, 1, 1, 1], size=(2000, 5))
        scalar = [_reduced_objective_scalar(problem, *row) for row in points.tolist()]
        assert hexes(_reduced_objective_vec(points, problem.search_constants)) == hexes(scalar)
        # The cells the grid scan evaluates with the default starts: the
        # penalty-free ones, or every cell of a grid with fewer (grid 2).
        for q, eps0, eps1, grid in [(0.02, 0.0, 0.1, 9), (0.07, 0.08, 0.2, 9), (0.02, 0.0, 0.1, 2)]:
            problem = TwoStepProblem(q, DeviationParams(eps0, eps1))
            own = problem.search_constants
            axes = _grid_axes([(0.0, 1.0), own[2:], (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)], grid)
            cells = _penalty_free_cells(axes, own)
            if len(cells) < SolverOptions().refine_starts:
                cells = np.arange(grid**5)
            points = _grid_points_array(axes, cells)
            scalar = [_reduced_objective_scalar(problem, *row) for row in points.tolist()]
            assert hexes(optimizer._scan_cells(axes, own, cells)) == hexes(scalar)

    def test_per_row_constants_match_scalar(self, rng):
        problems = [
            TwoStepProblem(q_target=q, dev=DeviationParams(eps0, eps1))
            for q, eps0, eps1 in [
                (0.0, 0.0, 0.0), (-0.0, 0.1, 0.1), (0.07, 0.08, 0.2), (0.3, 0.2, 0.5), (0.5, 0.3, 0.45),
            ]
        ]
        owners = rng.integers(0, len(problems), size=3000)
        points = rng.uniform(0.0, 1.0, size=(3000, 5))
        table = np.array([problem.search_constants for problem in problems]).T
        # Exact zeros and ones, the box's corners, hit every tie of the clamps.
        points[rng.random(points.shape) < 0.2] = 0.0
        points[rng.random(points.shape) < 0.1] = 1.0
        band_lo, band_hi = table[2, owners], table[3, owners]
        points[:, 1] = band_lo + points[:, 1] * (band_hi - band_lo)
        values = _reduced_objective_vec(points, table[:, owners])
        expected = [
            _reduced_objective_scalar(problems[owner], *row)
            for owner, row in zip(owners.tolist(), points.tolist())
        ]
        assert hexes(values) == hexes(expected)

    def test_weights_below_tiny_match_scalar(self, rng):
        """Vanishing weights take the scalar's fallbacks; a side weight in
        (0, 1e-15) divides as in the scalar: by itself."""
        # eps1 = 1/2 lets a0 reach 0 and 1.  At p_lambda1 = 1 the a1 and e11
        # fallbacks apply and a0 near 0 or 1 leaves one side a weight below
        # 1e-15; just below p_lambda1 = 1, a0 in {0, 1} does the same.
        problem = TwoStepProblem(q_target=0.05, dev=DeviationParams(0.1, 0.5))
        n = 200
        p = np.concatenate([np.ones(2 * n), 1.0 - rng.uniform(0.0, 2e-15, size=2 * n)])
        tiny = rng.uniform(0.0, 1e-15, size=2 * n)
        a0 = np.concatenate([tiny[:n], 1.0 - tiny[n:], rng.choice([0.0, 1.0], size=2 * n)])
        points = np.column_stack([p, a0, rng.uniform(0.0, 0.5, size=(4 * n, 3))])
        # At p_lambda1 = 1 and a0 = 1/2, e_b00 = e_b01 = q leaves no e11
        # residual: both weights of hidden value 1 vanish with no penalty.
        exact = [[1.0, 0.5, 0.05, 0.05, e10] for e10 in (0.0, 0.3, 1.0)]
        points = np.concatenate([points, exact])
        values = _reduced_objective_vec(points, problem.search_constants)
        expected = [_reduced_objective_scalar(problem, *row) for row in points.tolist()]
        assert hexes(values) == hexes(expected)
        sides = [(s.p_rec, s.p_dia) for s in map(reconstruct_scenario, [problem] * len(points), points)]
        assert any(0.0 < rec < 1e-15 for rec, _ in sides)
        assert any(0.0 < dia < 1e-15 for _, dia in sides)
        assert max(expected[-len(exact):]) < PENALTY_BASE

    def test_feasible_points_match_scenario_evaluation(self, rng):
        """The fast objective and the exact scenario calculator agree."""
        problem = TwoStepProblem(q_target=0.05, dev=DeviationParams(0.05, 0.1))
        accepted = 0
        while accepted < 200:
            v = rng.uniform([0, 0.4, 0, 0, 0], [1, 0.6, 0.2, 0.2, 0.2], size=5)
            value = _reduced_objective_scalar(problem, *v)
            if value >= 1e3:  # infeasible elimination, penalized
                continue
            [scenario] = _reconstruct_scenario([problem], v[None])
            exact = evaluate_two_step_scenario(
                scenario, problem.dev, use_worst_phase=True
            )
            assert value == pytest.approx(exact.rate, abs=1e-12)
            accepted += 1


# Problems for the rebuild: signed-zero QBER, eps1 = 0 (a degenerate basis
# band) and 0.5 (a band reaching 0 and 1), and q up to 1/2.
REBUILD_PROBLEMS = [
    TwoStepProblem(q_target=q, dev=DeviationParams(eps0, eps1))
    for q, eps0, eps1 in [
        (0.0, 0.0, 0.0), (-0.0, 0.1, 0.1), (0.02, 0.0, 0.5), (0.07, 0.08, 0.2),
        (0.3, 0.2, 0.5), (0.5, 0.5, 0.45), (0.03, 0.0, 0.1), (0.1, 0.3, 0.0),
    ]
]
SCENARIO_FIELDS = ("e_b00", "e_b01", "e_b10", "e_b11", "e_p00", "e_p01", "e_p10", "e_p11")


def scenario_hexes(scenario):
    hv = scenario.hv
    values = [hv.p_lambda1, *hv.p_x0_given_l0, *hv.p_x1_given_l1]
    return hexes(values + [getattr(scenario, name) for name in SCENARIO_FIELDS])


class TestRebuild:
    def test_batched_rebuild_matches_reference(self, rng):
        """Every field of every rebuilt scenario is the reference's, bit for bit."""
        owners = rng.integers(0, len(REBUILD_PROBLEMS), size=4000)
        points = rng.uniform(0.0, 1.0, size=(len(owners), 5))
        # Exact zeros and ones, the box's corners, hit the clamps' ties, the
        # vanishing weights and the phase bands of no width.
        points[rng.random(points.shape) < 0.25] = 0.0
        points[rng.random(points.shape) < 0.15] = 1.0
        bands = np.array([problem.search_constants[2:] for problem in REBUILD_PROBLEMS])
        band_lo, band_hi = bands[owners].T
        points[:, 1] = band_lo + points[:, 1] * (band_hi - band_lo)
        problems = [REBUILD_PROBLEMS[owner] for owner in owners.tolist()]

        rebuilt = _reconstruct_scenario(problems, points)

        expected = [reconstruct_scenario(p, row) for p, row in zip(problems, points)]
        assert [scenario_hexes(s) for s in rebuilt] == [scenario_hexes(s) for s in expected]
        # The corners reach both fallbacks and a side of zero weight.
        assert (points[:, 0] == 1.0).any()
        assert any(s.p_rec == 0.0 or s.p_dia == 0.0 for s in expected)


class TestSolveTwoStep:
    def test_basis_leak_reference_point(self):
        result = solve_two_step(
            TwoStepProblem(q_target=0.02, dev=DeviationParams(0.0, 0.1))
        )
        assert result.min_rate.rate == pytest.approx(TWO_STEP_BASIS_LEAK, abs=1e-4)
        assert result.min_rate.rate == pytest.approx(0.6642, abs=5e-3)

    def test_zero_deviation_reduces_to_symmetric_errors(self):
        result = solve_two_step(
            TwoStepProblem(q_target=0.02, dev=DeviationParams(0.0, 0.0))
        )
        assert result.min_rate.rate == pytest.approx(ONE_STEP_ZERO_DEV, abs=1e-4)

    def test_bit_leak_matches_one_step(self):
        result = solve_two_step(
            TwoStepProblem(q_target=0.02, dev=DeviationParams(0.1, 0.0))
        )
        one_step = one_step_rate(0.02, DeviationParams(0.1, 0.0)).rate
        assert result.min_rate.rate == pytest.approx(one_step, abs=2e-3)

    def test_argmin_is_feasible(self):
        problem = TwoStepProblem(q_target=0.03, dev=DeviationParams(0.05, 0.1))
        result = solve_two_step(problem, FAST)
        residuals = constraint_residuals(problem, result.argmin)
        assert max(residuals.values()) <= 1e-9
        assert result.solver_report["feasibility_residual"] <= 1e-9
        # Every q, deviation and grid, with and without a polish.
        problems = [
            TwoStepProblem(q, DeviationParams(eps0, eps1))
            for q in (0.0, 0.05, 0.25, 0.5)
            for eps0 in (0.0, 0.3)
            for eps1 in (0.0, 0.1, 0.5)
        ]
        for grid in (2, 3, 4):
            for starts in (0, 10):
                opts = SolverOptions(grid_points=grid, refine_starts=starts, max_iterations=2)
                for result in solve_two_step_many(problems, opts):
                    assert result.solver_report["feasibility_residual"] <= 1e-9

    def test_min_rate_matches_argmin_evaluation(self):
        problem = TwoStepProblem(q_target=0.03, dev=DeviationParams(0.05, 0.1))
        result = solve_two_step(problem, FAST)
        check = evaluate_two_step_scenario(
            result.argmin, problem.dev, use_worst_phase=True
        )
        assert result.min_rate.rate == pytest.approx(check.rate, abs=1e-10)

    def test_deterministic_report(self):
        problem = TwoStepProblem(q_target=0.02, dev=DeviationParams(0.0, 0.1))
        first = solve_two_step(problem, FAST)
        second = solve_two_step(problem, FAST)
        assert canonical_json(first.to_dict()) == canonical_json(second.to_dict())

    def test_never_above_a_known_feasible_scenario(self, rng):
        """The reported minimum is an upper-bound-sound lower envelope."""
        dev = DeviationParams(0.05, 0.1)
        checked = 0
        while checked < 10:
            p = rng.uniform()
            a0 = rng.uniform(0.4, 0.6)
            if 1.0 - p < 1e-9:
                continue
            a1 = (0.5 - p * a0) / (1.0 - p)
            if not 0.4 <= a1 <= 0.6:
                continue
            hv = HiddenVariableModel(0.5, p, (0.55, 0.45), (a0, a1))
            e_b = rng.uniform(0.0, 0.12, size=4)
            scenario = TwoStepScenario(
                hv=hv,
                e_b00=e_b[0], e_b01=e_b[1], e_b10=e_b[2], e_b11=e_b[3],
                e_p00=e_b[1], e_p10=e_b[3], e_p01=e_b[0], e_p11=e_b[2],
            )
            q = (
                scenario.p_rec1 * e_b[0]
                + scenario.p_rec2 * e_b[2]
                + scenario.p_dia1 * e_b[1]
                + scenario.p_dia2 * e_b[3]
            )
            if q > 0.5:
                continue
            evaluated = evaluate_two_step_scenario(scenario, dev, use_worst_phase=True)
            result = solve_two_step(TwoStepProblem(q_target=q, dev=dev), FAST)
            assert result.min_rate.rate <= evaluated.rate + 1e-6
            checked += 1

    def test_monotone_in_qber(self):
        dev = DeviationParams(0.0, 0.1)
        rates = [
            solve_two_step(TwoStepProblem(q_target=q, dev=dev), FAST).min_rate.rate
            for q in (0.01, 0.02, 0.04, 0.08)
        ]
        assert all(b <= a + 1e-4 for a, b in zip(rates, rates[1:]))

    def test_dominates_one_step_for_basis_leak(self):
        for q in (0.01, 0.03, 0.05):
            for eps1 in (0.1, 0.25):
                dev = DeviationParams(0.0, eps1)
                two = solve_two_step(TwoStepProblem(q_target=q, dev=dev), FAST)
                one = one_step_rate(q, dev)
                assert two.min_rate.rate >= one.rate - 1e-6

    def test_report_structure(self):
        result = solve_two_step(
            TwoStepProblem(q_target=0.02, dev=DeviationParams(0.0, 0.1)), FAST
        )
        report = result.solver_report
        assert report["restarts"] == 6
        assert report["iterations"] > 0
        trace = report["best_objective_trace"]
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert report["grid_evaluations"] == 7**5


class TestGridCap:
    BOX = [(0.0, 1.0), (0.4, 0.6), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]

    def test_cap_admits_up_to_27_points_per_axis(self):
        assert 27**5 <= MAX_GRID_CELLS
        for grid in (16, 20, 25, 27):
            assert [len(axis) for axis in _grid_axes(self.BOX, grid)] == [grid] * 5

    def test_cap_is_the_budget_at_the_measured_slope(self):
        assert MAX_GRID_CELLS == MEMORY_BUDGET // GRID_BYTES_PER_CELL == 76_695_844
        assert 37**5 <= MAX_GRID_CELLS < 38**5
        assert [len(axis) for axis in _grid_axes(self.BOX, 37)] == [37] * 5
        with pytest.raises(ValidationError):
            _grid_axes(self.BOX, 38)

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_GRID_CELLS", 9**5)
        assert len(_grid_axes(self.BOX, 9)) == 5
        monkeypatch.setattr(optimizer, "MAX_GRID_CELLS", 9**5 - 1)
        with pytest.raises(ValidationError):
            _grid_axes(self.BOX, 9)

    def test_degenerate_axes_do_not_count(self):
        box = [(0.0, 1.0), (0.5, 0.5), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
        assert [len(axis) for axis in _grid_axes(box, 60)] == [60, 1, 60, 60, 60]

    def test_oversized_grid_rejected_before_allocation(self, monkeypatch):
        def unreachable(_axes):
            raise AssertionError("grid built despite the cap")

        monkeypatch.setattr(optimizer, "_grid_points_array", unreachable)
        problem = TwoStepProblem(q_target=0.02, dev=DeviationParams(0.0, 0.1))
        with pytest.raises(ValidationError, match="40 points per axis has 102400000 cells"):
            solve_two_step(problem, SolverOptions(grid_points=40))
        with pytest.raises(ValidationError, match="above the cap of 76695844"):
            _grid_axes(self.BOX[:1], 10**9)


class TestPolishCap:
    # A 5-axis box of 2**5 cells and a 4-axis one (eps1 = 0) of 2**4.
    PROBLEMS = [
        TwoStepProblem(q_target=0.02, dev=DeviationParams(0.0, 0.1)),
        TwoStepProblem(q_target=0.02, dev=DeviationParams(0.0, 0.0)),
    ]

    def test_cap_is_the_budget_at_the_measured_slope(self):
        assert MAX_POLISH_ROWS == MEMORY_BUDGET // POLISH_BYTES_PER_ROW == 883_011
        # The default starts of a whole sweep block.
        assert SOLVE_BLOCK * SolverOptions().refine_starts <= MAX_POLISH_ROWS

    def test_cap_counts_each_problem_up_to_its_cells_and_is_inclusive(self, monkeypatch):
        opts = SolverOptions(grid_points=2, refine_starts=20, max_iterations=1)
        # min(20, 32) + min(20, 16) = 36 rows.
        monkeypatch.setattr(optimizer, "MAX_POLISH_ROWS", 36)
        assert len(solve_two_step_many(self.PROBLEMS, opts)) == 2
        monkeypatch.setattr(optimizer, "MAX_POLISH_ROWS", 35)

        def unreachable(*_args):
            raise AssertionError("grid scanned despite the cap")

        for scan in ("_penalty_free_cells", "_scan_cells"):
            monkeypatch.setattr(optimizer, scan, unreachable)
        with pytest.raises(ValidationError, match="give 36 polish rows, above the cap of 35"):
            solve_two_step_many(self.PROBLEMS, opts)


# (q, eps0, eps1): a degenerate basis axis (eps1 = 0) and the widest one
# (eps1 = 1/2), q at both ends and in between.
GRID_SCAN_PROBLEMS = [
    (0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.02, 0.0, 0.1), (0.0, 0.1, 0.5),
    (0.5, 0.5, 0.5), (0.03, 0.1, 0.1), (0.1, 0.05, 0.2), (0.04, 0.0, 0.45),
    (0.25, 0.2, 0.5), (0.02, 0.3, 0.0), (0.45, 0.0, 0.3), (0.3, 0.1, 0.1),
]
# (grid points, refine starts): no start, one, the default ten, and more
# starts than a grid has penalty-free cells (grid 2 at the default ten),
# over grids 2 to 9.
GRID_SCAN_OPTIONS = [
    (2, 0), (3, 1), (4, 100), (5, 10), (6, 40), (7, 1), (8, 0), (9, 10), (2, 10),
]


def _grid_scan_case(grid, refine_starts):
    constants = [
        TwoStepProblem(q, DeviationParams(eps0, eps1)).search_constants
        for q, eps0, eps1 in GRID_SCAN_PROBLEMS
    ]
    opts = SolverOptions(grid_points=grid, refine_starts=refine_starts, max_iterations=40)
    return constants, opts


def _grid_scan_axes(constants, grid):
    """The grid axes of a problem's box: the unit cube with the basis band on ``a0``."""
    return _grid_axes([(0.0, 1.0), constants[2:], (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)], grid)


def _penalty_free_reference(axes, constants):
    """Flat indices of the cells whose ``_elimination`` penalty is 0, from every row."""
    *_, penalty = _elimination(grid_points_array(axes), constants)
    return np.flatnonzero(penalty == 0.0)


class TestGridScan:
    """The scan of the penalty-free cells picks what a scan of every cell picks."""

    @pytest.mark.parametrize("grid, refine_starts", GRID_SCAN_OPTIONS)
    def test_box_search_matches_full_scan(self, grid, refine_starts, monkeypatch):
        constants, opts = _grid_scan_case(grid, refine_starts)
        scanned = []
        scan = optimizer._scan_cells
        monkeypatch.setattr(
            optimizer, "_scan_cells", lambda *args: scanned.append(len(args[2])) or scan(*args)
        )
        ours = _box_search(constants, opts)
        expected = grid_scan_box_search(constants, opts)
        assert [hexes(point) for point, _ in ours] == [hexes(point) for point, _ in expected]
        assert [repr(report) for _, report in ours] == [repr(report) for _, report in expected]
        # One scan per problem: of its penalty-free cells, or of every cell
        # when there are fewer of those than its starts.
        assert len(scanned) == len(constants)
        for own, count in zip(constants, scanned):
            axes = _grid_scan_axes(own, grid)
            free = len(_penalty_free_cells(axes, own))
            n_cells = math.prod(len(axis) for axis in axes)
            assert count == (free if free >= max(refine_starts, 1) else n_cells)

    def test_cases_reach_both_passes(self):
        """Some cases pick their starts from the penalty-free cells alone, some scan every cell."""
        passes = set()
        for grid, refine_starts in GRID_SCAN_OPTIONS:
            constants, _ = _grid_scan_case(grid, refine_starts)
            for own in constants:
                free = _penalty_free_cells(_grid_scan_axes(own, grid), own)
                passes.add(len(free) >= max(refine_starts, 1))
        assert passes == {True, False}
        # Below q = 1/2, grid 2 has at most 8 penalty-free cells, fewer than
        # the default starts: its scans are of every cell.
        for own in _grid_scan_case(2, 10)[0]:
            free = _penalty_free_cells(_grid_scan_axes(own, 2), own)
            assert len(free) < SolverOptions().refine_starts or own[0] == 0.5

    def test_every_problem_has_penalty_free_cells(self):
        """The cells at p_lambda1 = 0 and e_b10 = 0 meet every bound: a1 = 1/2, e_b11 = 2 q."""
        for grid in range(2, 10):
            for q in (0.0, 0.05, 0.25, 0.5):
                for eps0, eps1 in ((0.0, 0.0), (0.2, 0.1), (0.5, 0.5)):
                    own = TwoStepProblem(q, DeviationParams(eps0, eps1)).search_constants
                    axes = _grid_scan_axes(own, grid)
                    free = _penalty_free_cells(axes, own)
                    points = _grid_points_array(axes, free)
                    corner = (points[:, 0] == 0.0) & (points[:, 4] == 0.0)
                    assert np.count_nonzero(corner) == (grid**3 if eps1 else grid**2)

    def test_flags_exactly_the_penalty_free_cells(self, rng):
        for _ in range(40):
            eps1 = float(rng.choice([0.0, 0.5, rng.uniform(0.0, 0.5)]))
            problem = TwoStepProblem(
                q_target=float(rng.choice([0.0, 0.5, rng.uniform(0.0, 0.5)])),
                dev=DeviationParams(float(rng.uniform(0.0, 0.5)), eps1),
            )
            own = problem.search_constants
            axes = _grid_scan_axes(own, int(rng.integers(2, 13)))
            flagged = _penalty_free_cells(axes, own)
            assert flagged.tolist() == _penalty_free_reference(axes, own).tolist()


class TestSimplexHelpers:
    def test_clip_matches_numpy_on_ties_and_signed_zeros(self):
        cases = [
            (-0.0, 0.0, 1.0), (0.0, -0.0, 1.0), (0.0, -1.0, -0.0), (-0.0, -1.0, 0.0),
            (0.5, 0.5, 0.5), (2.0, 0.0, 1.0), (-2.0, 0.0, 1.0), (0.3, 0.0, 1.0),
        ]
        # scipy clips 1-D arrays; numpy's 0-d path keeps different zeros.
        for width in (1, 16):
            for v, lo, hi in cases:
                ours = clip([v] * width, [lo] * width, [hi] * width)
                ref = np.clip(np.full(width, v), np.full(width, lo), np.full(width, hi))
                assert [x.hex() for x in ours] == [float(x).hex() for x in ref]


def _refinement_starts(batched, bounds, opts):
    """The grid cells :func:`_box_search` polishes, best first."""
    points = grid_points_array(_grid_axes(bounds, opts.grid_points))
    order = np.argsort(batched(points), kind="stable")
    return points[order[: opts.refine_starts]]


def _two_step_case(q, eps0, eps1):
    problem = TwoStepProblem(q_target=q, dev=DeviationParams(eps0, eps1))
    *_, band_lo, band_hi = problem.search_constants
    bounds = [(0.0, 1.0), (band_lo, band_hi), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]

    def objective(v):
        return _reduced_objective_scalar(problem, *v)

    def batched(points):
        return _reduced_objective_vec(points, problem.search_constants)

    return objective, bounds, batched


def _rosenbrock_case():
    def batched(points):
        return np.array([rosenbrock(row) for row in points.tolist()])

    return rosenbrock, [(-2.0, 2.0), (-2.0, 2.0)], batched


CROSS_CHECK_CASES = {
    "ties-at-zero-qber": lambda: _two_step_case(0.0, 0.0, 0.0),
    "degenerate-basis-axis": lambda: _two_step_case(0.02, 0.1, 0.0),
    "active-phase-gap": lambda: _two_step_case(0.03, 0.1, 0.1),
    "saturated-cells": lambda: _two_step_case(0.04, 0.0, 0.45),
    "rosenbrock": _rosenbrock_case,
}


def _logged_polish(batched, starts, bounds, opts):
    """:func:`_refine` over ``starts``, with each row's evaluated points in call order."""
    calls = [[] for _ in starts]

    def objective(points, rows):
        for point, row in zip(points.tolist(), rows.tolist()):
            calls[row].append([v.hex() for v in point])
        return batched(points)

    lower = np.array([[lo for lo, _ in bounds]] * len(starts))
    upper = np.array([[hi for _, hi in bounds]] * len(starts))
    return _refine(objective, starts, np.arange(len(starts)), lower, upper, opts), calls


def _is_subsequence(short, long):
    remaining = iter(long)
    return all(any(item == other for other in remaining) for item in short)


class TestNelderMeadMatchesScipy:
    """Each row of the batched polish repeats scipy's bounded Nelder-Mead bit for bit."""

    @pytest.mark.parametrize("case", sorted(CROSS_CHECK_CASES))
    def test_same_points_values_and_iterations(self, case):
        minimize = pytest.importorskip("scipy.optimize").minimize
        objective, bounds, batched = CROSS_CHECK_CASES[case]()
        opts = SolverOptions()
        free = [i for i, (lo, hi) in enumerate(bounds) if hi - lo > DEGENERATE_AXIS_TOL]
        lower = [bounds[i][0] for i in free]
        upper = [bounds[i][1] for i in free]
        starts = _refinement_starts(batched, bounds, opts)
        (points, values, iterations), ours = _logged_polish(batched, starts, bounds, opts)
        for row, start in enumerate(starts):
            calls = []

            def reduced(x):
                full = [float(v) for v in start]
                for i, v in zip(free, x):
                    full[i] = float(v)
                calls.append([v.hex() for v in full])
                return objective(full)

            ref = minimize(
                reduced,
                x0=start[free],
                method="Nelder-Mead",
                bounds=list(zip(lower, upper)),
                options={
                    "maxiter": opts.max_iterations,
                    "fatol": OBJECTIVE_TOL,
                    "xatol": VARIABLE_TOL,
                },
            )
            # The polish also evaluates the trial points scipy skips.
            assert _is_subsequence(calls, ours[row])
            assert hexes(points[row, free]) == hexes(ref.x)
            assert values[row].hex() == float(ref.fun).hex()
            assert iterations[row] == ref.nit


# Mixed lockstep batch: a 4-axis problem (eps1 = 0) and three 5-axis ones,
# a small iteration cap that some rows reach, and rows that shrink.
MIXED_BATCH = [
    (0.24893123976187623, 0.0, 0.0), (0.02, 0.0, 0.1), (0.03, 0.1, 0.1), (0.04, 0.0, 0.45),
]


class TestBatchedPolish:
    def test_mixed_batch_matches_reference(self, monkeypatch):
        opts = SolverOptions(max_iterations=120)
        problems = [TwoStepProblem(q, DeviationParams(e0, e1)) for q, e0, e1 in MIXED_BATCH]
        starts, owners, cases = [], [], []
        for owner, (q, e0, e1) in enumerate(MIXED_BATCH):
            case = _two_step_case(q, e0, e1)
            rows = _refinement_starts(case[2], case[1], opts)
            starts.append(rows)
            owners += [owner] * len(rows)
            cases += [case] * len(rows)
        starts, owners = np.concatenate(starts), np.array(owners)
        table = np.array([problem.search_constants for problem in problems]).T
        boxes = np.array([case[1] for case in cases])
        shrunk = []
        original = optimizer._Simplices.set_shrunk
        monkeypatch.setattr(
            optimizer._Simplices,
            "set_shrunk",
            lambda self, rows, x, v: shrunk.append(len(rows)) or original(self, rows, x, v),
        )

        points, values, iterations = _refine(
            lambda x, labels: _reduced_objective_vec(x, table[:, labels]),
            starts,
            owners,
            boxes[:, :, 0],
            boxes[:, :, 1],
            opts,
        )

        for row, (objective, bounds, _) in enumerate(cases):
            free = [i for i, (lo, hi) in enumerate(bounds) if hi - lo > DEGENERATE_AXIS_TOL]
            start = starts[row].tolist()

            def reduced(x):
                full = list(start)
                for i, v in zip(free, x):
                    full[i] = v
                return objective(full)

            x, fun, nit = nelder_mead(
                reduced,
                [start[i] for i in free],
                [bounds[i][0] for i in free],
                [bounds[i][1] for i in free],
                opts.max_iterations,
                OBJECTIVE_TOL,
                VARIABLE_TOL,
            )
            assert hexes(points[row, free]) == hexes(x)
            assert values[row].hex() == fun.hex()
            assert iterations[row] == nit
        free_axes = (boxes[:, :, 1] - boxes[:, :, 0] > DEGENERATE_AXIS_TOL).sum(axis=1)
        assert set(free_axes.tolist()) == {4, 5}
        assert 0 < (iterations < opts.max_iterations).sum() < len(starts)
        assert shrunk

    def test_degenerate_axes_keep_their_start(self):
        # The row holds its degenerate first axis and polishes the second.
        starts = np.array([[0.7, 0.9]])
        lower = np.array([[0.7, -1.0]])
        upper = np.array([[0.7, 1.0]])

        def objective(points, labels):
            return (points[:, 0] - 0.3) ** 2 + points[:, 1] ** 2

        points, _, iterations = _refine(
            objective, starts, np.arange(1), lower, upper, SolverOptions()
        )
        assert points[0, 0] == 0.7
        assert points[0, 1] == pytest.approx(0.0, abs=1e-6)
        assert iterations[0] > 0

    def test_smallest_is_the_stable_argsort_prefix(self, rng):
        for _ in range(200):
            values = rng.integers(0, 6, size=rng.integers(1, 60)).astype(float)
            values[rng.random(len(values)) < 0.1] = np.nan
            count = int(rng.integers(1, len(values) + 1))
            expected = np.argsort(values, kind="stable")[:count]
            assert _smallest(values, count).tolist() == expected.tolist()

    def test_grid_points_are_lexicographic(self):
        axes = [np.array([0.0, 0.5, 1.0]), np.array([-0.0, 2.0]), np.array([0.25])]
        mesh = np.meshgrid(*axes, indexing="ij")
        expected = np.stack([m.ravel() for m in mesh], axis=1)
        assert hexes(_grid_points_array(axes, np.arange(6))) == hexes(expected)
        assert hexes(_grid_points_array(axes, np.array([5, 0, 3]))) == hexes(expected[[5, 0, 3]])


# The two-step points of the benchmark's `curves` sweep.
CURVES_PROBLEMS = [
    TwoStepProblem(q_target=i * 0.01, dev=DeviationParams(eps0, eps1))
    for i in range(12)
    for eps0, eps1 in [(0.0, 0.0), (0.0, 0.1), (0.1, 0.1)]
]


class TestSolveTwoStepMany:
    def test_batch_equals_one_at_a_time(self):
        # repr round-trips every float, signed zeros included.
        alone = [repr(solve_two_step(problem).to_dict()) for problem in CURVES_PROBLEMS]
        batch = solve_two_step_many(CURVES_PROBLEMS)
        assert [repr(result.to_dict()) for result in batch] == alone

    def test_empty(self):
        assert solve_two_step_many([]) == []

    def test_first_infeasible_problem_raises(self, monkeypatch):
        break_search(monkeypatch, broken_qbers=(0.01, 0.02))
        dev = DeviationParams(0.0, 0.1)
        with pytest.raises(InfeasibilityError) as alone:
            solve_two_step_many([TwoStepProblem(0.01, dev)], FAST)
        with pytest.raises(InfeasibilityError) as batch:
            solve_two_step_many(
                [TwoStepProblem(0.03, dev), TwoStepProblem(0.01, dev), TwoStepProblem(0.02, dev)],
                FAST,
            )
        assert str(batch.value) == str(alone.value) == (
            "no feasible eavesdropper strategy found for Q=0.01"
        )
        assert batch.value.residual == alone.value.residual > 1e-9

    def test_no_rate_without_a_feasible_scenario(self, monkeypatch):
        """An argmin off the constraints raises with its residual instead of giving a rate."""
        break_search(monkeypatch, broken_qbers=(0.0,))
        with pytest.raises(InfeasibilityError) as info:
            solve_two_step(TwoStepProblem(0, DeviationParams(0, 0)))
        # The rebuilt scenario has QBER 1/2 where 0 was observed.
        assert info.value.residual == 0.5


# A point whose rebuilt scenario has QBER 1/2: p_lambda1 = 0 puts all weight
# on hidden value 1, with e_b10 = 1 and e_b11 clamped up to 0.
INFEASIBLE_POINT = [0.0, 0.5, 1.0, 1.0, 1.0]


def break_search(monkeypatch, broken_qbers):
    """Make the search end at INFEASIBLE_POINT for the problems at ``broken_qbers``."""
    search = optimizer._box_search

    def broken(constants, opts):
        return [
            (INFEASIBLE_POINT if own[0] in broken_qbers else point, report)
            for own, (point, report) in zip(constants, search(constants, opts))
        ]

    monkeypatch.setattr(optimizer, "_box_search", broken)


# sha256 of canonical_json(solve_two_step(...).to_dict()) with default
# options, recorded while scipy's Nelder-Mead did the polish (x86-64 with
# AVX-512, numpy 2.4); pins the exact output on machines without scipy.
# Every one of these solves sorts simplices with tied vertex values, and
# np.argsort's order among ties depends on the CPU (and may depend on the
# numpy version); scipy's result moves with it.  Here the eps1 = 0 and
# eps1 = 0.45 cases at q > 0 sort some ties out of index order; the other
# four keep their ties in index order, so their results do not move when
# np.argsort orders ties stably.  The (0.05, 0.05, 0.2) golden was recorded
# from the in-package polish, which the scipy cross-check pins to scipy's
# bits.
GOLDEN_SOLVES = {
    (0.02, 0.0, 0.1): "8014ddce05ef5c7b3658ca46c18626cdc69fd74b315576c500c878c2fba7f0af",
    (0.0, 0.0, 0.0): "7a50c95ff086588bbca5b6455a08d4fd45d5391fcc185c6bf94c0bee5e99e18e",
    (0.02, 0.0, 0.0): "8efd585f8772493b019842804c81acecd7d27f022b00da3d1a68561db0343667",
    (0.03, 0.1, 0.1): "cf4fbcbe94ad8a9834dc30bf8d73e154205c8f87bc5b83e5b8daa0e65efbc139",
    (0.04, 0.0, 0.45): "369f47a0cdfbc84cc2064869dee07946d7c009a34e18b4385dd91e091b39230d",
    (0.05, 0.05, 0.2): "467050ae790a50589a25f160c0658511d531e43140aa3fd1cf8893a3280e7516",
}

# For each golden: a tied simplex its solve sorts, and the order np.argsort
# gave it when the golden was recorded.
TIED_SORTS = {
    (0.02, 0.0, 0.1): (
        ["0x1.540dc68eeb194p-1", "0x1.540dc68eeb1bbp-1", "0x1.540dc68eeb1c6p-1",
         "0x1.540dc68eeb1eep-1", "0x1.540dc68eeb200p-1", "0x1.540dc68eeb1eep-1"],
        [0, 1, 2, 3, 5, 4],
    ),
    (0.0, 0.0, 0.0): (
        ["0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
         "0x1.0000000000000p+0", "0x1.f47f9a59e936cp+9"],
        [0, 1, 2, 3, 4],
    ),
    (0.02, 0.0, 0.0): (
        ["0x1.6f8269eaa2190p-1", "0x1.6fa77a5809343p-1", "0x1.6fa77a5809343p-1",
         "0x1.6fd21121bb485p-1", "0x1.6f4fced2eb968p-1"],
        [4, 0, 2, 1, 3],
    ),
    (0.03, 0.1, 0.1): (
        ["0x1.fddf100a241a8p-2", "0x1.fddf100a24286p-2", "0x1.fddf100a242e5p-2",
         "0x1.fddf100a24402p-2", "0x1.fddf100a2442ep-2", "0x1.fddf100a24402p-2"],
        [0, 1, 2, 3, 5, 4],
    ),
    (0.04, 0.0, 0.45): (
        ["-0x1.f036e3217b53cp-3", "-0x1.f036e3217b534p-3", "-0x1.f036e3217b534p-3",
         "-0x1.f036e3217b525p-3", "-0x1.f036e3217b524p-3", "-0x1.f036e3217b538p-3"],
        [0, 5, 2, 1, 3, 4],
    ),
    (0.05, 0.05, 0.2): (
        ["0x1.7e34d35f3dcfap-3", "0x1.7e34d35f3df54p-3", "0x1.7e34d35f3dff0p-3",
         "0x1.7e34d35f3e022p-3", "0x1.7e34d35f3e03ap-3", "0x1.7e34d35f3e03ap-3"],
        [0, 1, 2, 3, 4, 5],
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SOLVES))
def test_golden_solver_output(case):
    values, recorded = TIED_SORTS[case]
    order = np.argsort([float.fromhex(v) for v in values]).tolist()
    if order != recorded:
        pytest.skip(f"np.argsort orders ties as {order} here, {recorded} when recorded")
    q, eps0, eps1 = case
    problem = TwoStepProblem(q_target=q, dev=DeviationParams(eps0, eps1))
    payload = canonical_json(solve_two_step(problem).to_dict())
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == GOLDEN_SOLVES[case]
