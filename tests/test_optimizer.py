"""Tests for the box search and the worst-case scenario minimization."""

import hashlib

import numpy as np
import pytest

from grid_scan_reference import box_search as grid_scan_box_search
from grid_scan_reference import grid_points_array
from nelder_mead_reference import clip, nelder_mead
from rebuild_reference import reconstruct_scenario

from bb84_weakrand import optimizer
from bb84_weakrand.errors import InfeasibilityError, ValidationError
from bb84_weakrand.keyrate import (
    DeviationParams,
    HiddenVariableModel,
    TwoStepScenario,
    evaluate_two_step_scenario,
    one_step_rate,
    phase_gap_bound,
    two_step_rate,
    two_step_worst_scenario,
)
from bb84_weakrand.optimizer import (
    DEGENERATE_AXIS_TOL,
    GRID_POINTS,
    MAX_ITERATIONS,
    OBJECTIVE_TOL,
    PENALTY_BASE,
    REFINE_STARTS,
    VARIABLE_TOL,
    TwoStepProblem,
    _box_search,
    _elimination,
    _feasibility,
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
)
from bb84_weakrand.output import canonical_json

# 50-digit decimal references.
ONE_STEP_ZERO_DEV = 0.71711891491635870969124200559121606641
TWO_STEP_BASIS_LEAK = 0.66416759962660319398002667314973674707


@pytest.fixture
def fast(monkeypatch):
    """A coarser search than the fixed one, for tests that solve many problems."""
    monkeypatch.setattr(optimizer, "GRID_POINTS", 7)
    monkeypatch.setattr(optimizer, "REFINE_STARTS", 6)
    monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 300)


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
        # The cells the grid scan evaluates: the penalty-free ones.
        for q, eps0, eps1 in [(0.02, 0.0, 0.1), (0.07, 0.08, 0.2)]:
            problem = TwoStepProblem(q, DeviationParams(eps0, eps1))
            own = problem.search_constants
            axes = _grid_axes([(0.0, 1.0), own[2:], (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)], GRID_POINTS)
            cells = _penalty_free_cells(axes, own)
            points = _grid_points_array(axes, cells)
            scalar = [_reduced_objective_scalar(problem, *row) for row in points.tolist()]
            assert hexes(optimizer._scan_cells(axes, own, cells)) == hexes(scalar)

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
            scenario = _reconstruct_scenario(problem, v)
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
    def test_rebuild_matches_reference(self, rng):
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

        rebuilt = [_reconstruct_scenario(p, row) for p, row in zip(problems, points)]

        expected = [reconstruct_scenario(p, row) for p, row in zip(problems, points)]
        assert [scenario_hexes(s) for s in rebuilt] == [scenario_hexes(s) for s in expected]
        # The corners reach both fallbacks and a side of zero weight.
        assert (points[:, 0] == 1.0).any()
        assert any(s.p_rec == 0.0 or s.p_dia == 0.0 for s in expected)


# A point whose rebuilt scenario has QBER 1/2: p_lambda1 = 0 puts all weight
# on hidden value 1, with e_b10 = 1 and e_b11 clamped up to 0.
INFEASIBLE_POINT = np.array([0.0, 0.5, 1.0, 1.0, 1.0])


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

    def test_argmin_is_feasible(self, monkeypatch):
        problem = TwoStepProblem(q_target=0.03, dev=DeviationParams(0.05, 0.1))
        result = solve_two_step(problem)
        residuals = constraint_residuals(problem, result.argmin)
        assert max(residuals.values()) <= 1e-9
        assert result.solver_report["feasibility_residual"] <= 1e-9
        # Every q and deviation, with the full polish and with the polish
        # stopped at its first simplex.
        problems = [
            TwoStepProblem(q, DeviationParams(eps0, eps1))
            for q in (0.0, 0.05, 0.25, 0.5)
            for eps0 in (0.0, 0.3)
            for eps1 in (0.0, 0.1, 0.5)
        ]
        for max_iterations in (MAX_ITERATIONS, 1):
            monkeypatch.setattr(optimizer, "MAX_ITERATIONS", max_iterations)
            for problem in problems:
                assert solve_two_step(problem).solver_report["feasibility_residual"] <= 1e-9

    def test_min_rate_matches_argmin_evaluation(self, fast):
        problem = TwoStepProblem(q_target=0.03, dev=DeviationParams(0.05, 0.1))
        result = solve_two_step(problem)
        check = evaluate_two_step_scenario(
            result.argmin, problem.dev, use_worst_phase=True
        )
        assert result.min_rate.rate == pytest.approx(check.rate, abs=1e-10)

    def test_deterministic_report(self, fast):
        problem = TwoStepProblem(q_target=0.02, dev=DeviationParams(0.0, 0.1))
        first = solve_two_step(problem)
        second = solve_two_step(problem)
        assert canonical_json(first.to_dict()) == canonical_json(second.to_dict())

    def test_never_above_a_known_feasible_scenario(self, rng, fast):
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
            result = solve_two_step(TwoStepProblem(q_target=q, dev=dev))
            assert result.min_rate.rate <= evaluated.rate + 1e-6
            checked += 1

    def test_monotone_in_qber(self, fast):
        dev = DeviationParams(0.0, 0.1)
        rates = [
            solve_two_step(TwoStepProblem(q_target=q, dev=dev)).min_rate.rate
            for q in (0.01, 0.02, 0.04, 0.08)
        ]
        assert all(b <= a + 1e-4 for a, b in zip(rates, rates[1:]))

    def test_dominates_one_step_for_basis_leak(self, fast):
        for q in (0.01, 0.03, 0.05):
            for eps1 in (0.1, 0.25):
                dev = DeviationParams(0.0, eps1)
                two = solve_two_step(TwoStepProblem(q_target=q, dev=dev))
                one = one_step_rate(q, dev)
                assert two.min_rate.rate >= one.rate - 1e-6

    def test_report_structure(self, fast):
        result = solve_two_step(TwoStepProblem(q_target=0.02, dev=DeviationParams(0.0, 0.1)))
        report = result.solver_report
        assert report["restarts"] == 6
        assert report["iterations"] > 0
        trace = report["best_objective_trace"]
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert report["grid_evaluations"] == 7**5

    def test_no_rate_without_a_feasible_scenario(self, monkeypatch):
        """An argmin off the constraints raises with its residual instead of giving a rate."""
        search = optimizer._box_search
        monkeypatch.setattr(
            optimizer, "_box_search", lambda constants: (INFEASIBLE_POINT, search(constants)[1])
        )
        with pytest.raises(InfeasibilityError) as info:
            solve_two_step(TwoStepProblem(0, DeviationParams(0, 0)))
        assert str(info.value) == "no feasible eavesdropper strategy found for Q=0"
        # The rebuilt scenario has QBER 1/2 where 0 was observed.
        assert info.value.residual == 0.5


# Points where the search's own minimum lies above the closed form by more
# than CLOSED_FORM_MARGIN, with the rate the search alone ends on there.
SEARCH_ABOVE_CLOSED_FORM = {
    (0.005, 0.1, 0.4): 0.6468984667667625,
    (0.04, 0.2, 0.4): -0.2142528212870714,
    (0.03, 0.1, 0.4): -0.0499816830487132,
    (0.18, 0.0, 0.2): -0.6615309402301306,
    (0.32, 0.0, 0.1): -0.90322699333071,
}


def _sampled_rates(points, problem):
    """Worst-phase rate and feasibility penalty at each sampled box point.

    The eliminated ``a1`` and ``e11`` come from :func:`_feasibility`; the
    rate is formed here from the weights, with each basis's phase error at
    the point of its band nearest 1/2.
    """
    _, (w00, w01, w10, w11), e11, penalty = _feasibility(*points.T, problem.search_constants)
    e00, e01, e10 = points[:, 2:].T
    gap = phase_gap_bound(problem.dev.eps0)

    def entropy(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
        return np.where((x > 0.0) & (x < 1.0), h, 0.0)

    def side(w_a, w_b, bit_a, bit_b, cross_a, cross_b):
        total = w_a + w_b
        bit = (w_a * bit_a + w_b * bit_b) / total
        lo = (w_a * np.maximum(cross_a - gap, 0.0) + w_b * np.maximum(cross_b - gap, 0.0)) / total
        hi = (w_a * np.minimum(cross_a + gap, 1.0) + w_b * np.minimum(cross_b + gap, 1.0)) / total
        return total * (1.0 - entropy(bit) - entropy(np.minimum(np.maximum(0.5, lo), hi)))

    rate = side(w00, w10, e00, e10, e01, e11) + side(w01, w11, e01, e11, e00, e10)
    return rate, penalty


class TestClosedFormBound:
    """The solve never reports a rate above the proven minimum, ``keyrate.two_step_rate``."""

    def test_never_above_the_closed_form(self):
        for q in (0.0, 0.01, 0.03, 0.06, 0.1, 0.2, 0.35, 0.5):
            for eps0 in (0.0, 0.1, 0.5):
                for eps1 in (0.0, 0.1, 0.2, 0.4, 0.5):
                    dev = DeviationParams(eps0, eps1)
                    result = solve_two_step(TwoStepProblem(q, dev))
                    assert result.min_rate.rate <= two_step_rate(q, dev).rate + 1e-12

    @pytest.mark.parametrize("case", sorted(SEARCH_ABOVE_CLOSED_FORM))
    def test_a_search_above_the_closed_form_returns_its_scenario(self, case):
        q, eps0, eps1 = case
        dev = DeviationParams(eps0, eps1)
        result = solve_two_step(TwoStepProblem(q, dev))
        assert result.min_rate.rate == pytest.approx(two_step_rate(q, dev).rate, abs=1e-15)
        assert result.min_rate.rate < SEARCH_ABOVE_CLOSED_FORM[case] - 1e-12
        assert result.argmin == two_step_worst_scenario(q, dev)
        assert result.solver_report["feasibility_residual"] <= 1e-15

    @pytest.mark.parametrize("eps0", [0.0, 0.1, 0.3])
    def test_fully_leaked_basis_choice_at_zero_qber(self, eps0):
        """Hidden values of zero weight in a basis let the adversary saturate its phase error."""
        dev = DeviationParams(eps0, 0.5)
        assert solve_two_step(TwoStepProblem(0.0, dev)).min_rate.rate == 0.0
        assert two_step_rate(0.0, dev).rate == 0.0

    def test_no_feasible_sample_below_the_closed_form(self, rng):
        """A plain sampler over the box finds no penalty-free point below R2."""
        feasible = 0
        for _ in range(40):
            q = float(rng.choice([0.0, 0.5, rng.uniform(0.0, 0.5)]))
            eps1 = float(rng.choice([0.0, 0.5, rng.uniform(0.0, 0.5)]))
            problem = TwoStepProblem(q, DeviationParams(float(rng.uniform(0.0, 0.5)), eps1))
            *_, band_lo, band_hi = problem.search_constants
            # Bit errors up to 3 q keep most samples near the observed QBER,
            # where the penalty-free points are.
            top = min(1.0, 3.0 * q + 1e-3)
            points = rng.uniform([0, band_lo, 0, 0, 0], [1, band_hi, top, top, top], size=(20000, 5))
            points[rng.random(points.shape) < 0.05] = 0.0
            points[:, 1] = np.clip(points[:, 1], band_lo, band_hi)
            rate, penalty = _sampled_rates(points, problem)
            free = penalty == 0.0
            feasible += int(free.sum())
            closed = two_step_rate(problem.q_target, problem.dev).rate
            assert not (rate[free] < closed - 1e-15).any()
        assert feasible > 100_000


# (q, eps0, eps1): a degenerate basis axis (eps1 = 0) and the widest one
# (eps1 = 1/2), q at both ends and in between.
GRID_SCAN_PROBLEMS = [
    (0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.02, 0.0, 0.1), (0.0, 0.1, 0.5),
    (0.5, 0.5, 0.5), (0.03, 0.1, 0.1), (0.1, 0.05, 0.2), (0.04, 0.0, 0.45),
    (0.25, 0.2, 0.5), (0.02, 0.3, 0.0), (0.45, 0.0, 0.3), (0.3, 0.1, 0.1),
]
# (grid points, refine starts), patched over the fixed settings: one start,
# the fixed ten, and nearly all the penalty-free cells of a problem (grid 6
# has at least 41), over grids 3 to 9.
GRID_SCAN_OPTIONS = [(3, 1), (5, 10), (6, 40), (7, 1), (9, 10)]
GRID_SCAN_CONSTANTS = [
    TwoStepProblem(q, DeviationParams(eps0, eps1)).search_constants
    for q, eps0, eps1 in GRID_SCAN_PROBLEMS
]


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
        monkeypatch.setattr(optimizer, "GRID_POINTS", grid)
        monkeypatch.setattr(optimizer, "REFINE_STARTS", refine_starts)
        monkeypatch.setattr(optimizer, "MAX_ITERATIONS", 40)
        scanned = []
        scan = optimizer._scan_cells
        monkeypatch.setattr(
            optimizer, "_scan_cells", lambda *args: scanned.append(len(args[2])) or scan(*args)
        )
        ours = [_box_search(own) for own in GRID_SCAN_CONSTANTS]
        expected = [grid_scan_box_search(own) for own in GRID_SCAN_CONSTANTS]
        assert [hexes(point) for point, _ in ours] == [hexes(point) for point, _ in expected]
        assert [repr(report) for _, report in ours] == [repr(report) for _, report in expected]
        # One scan per problem, of its penalty-free cells.
        assert scanned == [
            len(_penalty_free_cells(_grid_scan_axes(own, grid), own)) for own in GRID_SCAN_CONSTANTS
        ]

    def test_every_problem_has_penalty_free_cells(self):
        """The cells at p_lambda1 = 0 and e_b10 = 0 meet every bound: a1 = 1/2, e_b11 = 2 q.

        At the fixed grid they outnumber the fixed starts, so the scan of the
        penalty-free cells always has its starts.
        """
        for grid in range(2, GRID_POINTS + 1):
            for q in (0.0, 0.05, 0.25, 0.5):
                for eps0, eps1 in ((0.0, 0.0), (0.2, 0.1), (0.5, 0.5)):
                    own = TwoStepProblem(q, DeviationParams(eps0, eps1)).search_constants
                    axes = _grid_scan_axes(own, grid)
                    free = _penalty_free_cells(axes, own)
                    points = _grid_points_array(axes, free)
                    corner = (points[:, 0] == 0.0) & (points[:, 4] == 0.0)
                    assert np.count_nonzero(corner) == (grid**3 if eps1 else grid**2)
                    if grid == GRID_POINTS:
                        assert len(free) >= REFINE_STARTS

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


def _refinement_starts(batched, bounds):
    """The grid cells :func:`_box_search` polishes, best first."""
    points = grid_points_array(_grid_axes(bounds, GRID_POINTS))
    order = np.argsort(batched(points), kind="stable")
    return points[order[:REFINE_STARTS]]


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


def _logged_polish(batched, starts, bounds):
    """:func:`_refine` over ``starts``, and each row polished alone with its evaluated points.

    Returns the lockstep result and, per row, ``(calls, result)``: the
    points the row's own polish evaluated, in call order, and its result.
    """
    lower, upper = np.array(bounds).T
    alone = []
    for row in range(len(starts)):
        calls = []

        def objective(points):
            calls.extend([v.hex() for v in point] for point in points.tolist())
            return batched(points)

        alone.append((calls, _refine(objective, starts[row:row + 1], lower, upper)))
    return _refine(batched, starts, lower, upper), alone


def _is_subsequence(short, long):
    remaining = iter(long)
    return all(any(item == other for other in remaining) for item in short)


class TestNelderMeadMatchesScipy:
    """Each row of the lockstep polish repeats scipy's bounded Nelder-Mead bit for bit."""

    @pytest.mark.parametrize("case", sorted(CROSS_CHECK_CASES))
    def test_same_points_values_and_iterations(self, case):
        minimize = pytest.importorskip("scipy.optimize").minimize
        objective, bounds, batched = CROSS_CHECK_CASES[case]()
        free = [i for i, (lo, hi) in enumerate(bounds) if hi - lo > DEGENERATE_AXIS_TOL]
        lower = [bounds[i][0] for i in free]
        upper = [bounds[i][1] for i in free]
        starts = _refinement_starts(batched, bounds)
        (points, values, iterations), alone = _logged_polish(batched, starts, bounds)
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
                    "maxiter": MAX_ITERATIONS,
                    "fatol": OBJECTIVE_TOL,
                    "xatol": VARIABLE_TOL,
                },
            )
            # The polish also evaluates the trial points scipy skips.
            own_calls, (own_points, own_values, own_iterations) = alone[row]
            assert _is_subsequence(calls, own_calls)
            assert hexes(points[row, free]) == hexes(ref.x)
            assert values[row].hex() == float(ref.fun).hex()
            assert iterations[row] == ref.nit
            # Polished alone, the row ends on the same bits.
            assert hexes(own_points[0]) == hexes(points[row])
            assert (own_values[0], own_iterations[0]) == (values[row], iterations[row])


class TestBatchedPolish:
    def test_rows_match_reference_polish(self, monkeypatch):
        """Every row of each two-step cross-check case ends on the plain-float
        reference's bits, also where it reaches a small iteration cap or shrinks."""
        max_iterations = 120
        monkeypatch.setattr(optimizer, "MAX_ITERATIONS", max_iterations)
        shrunk = []
        original = optimizer._Simplices.set_shrunk
        monkeypatch.setattr(
            optimizer._Simplices,
            "set_shrunk",
            lambda self, rows, x, v: shrunk.append(len(rows)) or original(self, rows, x, v),
        )
        capped = finished = 0
        for case in sorted(CROSS_CHECK_CASES):
            objective, bounds, batched = CROSS_CHECK_CASES[case]()
            starts = _refinement_starts(batched, bounds)
            lower, upper = np.array(bounds).T
            points, values, iterations = _refine(batched, starts, lower, upper)
            free = [i for i, (lo, hi) in enumerate(bounds) if hi - lo > DEGENERATE_AXIS_TOL]
            for row, start in enumerate(starts.tolist()):

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
                    max_iterations,
                    OBJECTIVE_TOL,
                    VARIABLE_TOL,
                )
                assert hexes(points[row, free]) == hexes(x)
                assert values[row].hex() == fun.hex()
                assert iterations[row] == nit
            capped += int((iterations == max_iterations).sum())
            finished += int((iterations < max_iterations).sum())
        assert capped and finished
        assert shrunk

    def test_degenerate_axes_keep_their_start(self):
        # The row holds its degenerate first axis and polishes the second.
        starts = np.array([[0.7, 0.9]])
        lower = np.array([0.7, -1.0])
        upper = np.array([0.7, 1.0])

        def objective(points):
            return (points[:, 0] - 0.3) ** 2 + points[:, 1] ** 2

        points, _, iterations = _refine(objective, starts, lower, upper)
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


# sha256 of canonical_json(solve_two_step(...).to_dict()), recorded while
# scipy's Nelder-Mead did the polish (x86-64 with AVX-512, numpy 2.4); pins
# the exact output on machines without scipy.  The solver report then also
# held a "seed": 0 key; putting it back into each payload gives the hash
# recorded with it.  Every one of these solves sorts simplices with tied
# vertex values, and np.argsort's order among ties depends on the CPU (and
# may depend on the numpy version); scipy's result moves with it.  Here the
# eps1 = 0 and eps1 = 0.45 cases at q > 0 sort some ties out of index order;
# the other four keep their ties in index order, so their results do not
# move when np.argsort orders ties stably.  The (0.05, 0.05, 0.2) golden was
# recorded from the in-package polish, which the scipy cross-check pins to
# scipy's bits.
GOLDEN_SOLVES = {
    (0.02, 0.0, 0.1): "924679f40fd047e38be882ca39a440e6e210ec1d39858b078da158cb53901889",
    (0.0, 0.0, 0.0): "97bd1dbd35bcc4b879d5858298b5a6e4d6f7fb254b6f0d2ee83f7067a00e08f9",
    (0.02, 0.0, 0.0): "6214e95a47ea01459e93fc00041b84539403e08a4c1aabbd435fb0f97d512ec2",
    (0.03, 0.1, 0.1): "12c97b9daa2a6ae25b01e9b20c6db5b3e91b4e348dc255b3eb18fd9ef8a07cc2",
    (0.04, 0.0, 0.45): "9cf2325dc33aba1ca2c264b0aa108c1491f031276040a06d3745b1802d0850be",
    (0.05, 0.05, 0.2): "a0bfdac8c5fff3eb5c2fe2282763a822c16060c4554f263db97532e73debe56a",
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
