"""Tests for the box search and the worst-case scenario minimization."""

import hashlib

import numpy as np
import pytest

from bb84_weakrand import optimizer
from bb84_weakrand.errors import ValidationError
from bb84_weakrand.keyrate import (
    DeviationParams,
    HiddenVariableModel,
    TwoStepScenario,
    evaluate_two_step_scenario,
    one_step_rate,
)
from bb84_weakrand.optimizer import (
    DEGENERATE_AXIS_TOL,
    MAX_GRID_CELLS,
    SolverOptions,
    TwoStepProblem,
    _clip,
    _grid_axes,
    _grid_points_array,
    _nelder_mead,
    _reduced_objective_scalar,
    _reduced_objective_vec,
    _reconstruct_scenario,
    constraint_residuals,
    minimize_box,
    solve_two_step,
)
from bb84_weakrand.output import canonical_json

# 50-digit decimal references.
ONE_STEP_ZERO_DEV = 0.71711891491635870969124200559121606641
TWO_STEP_BASIS_LEAK = 0.66416759962660319398002667314973674707

FAST = SolverOptions(grid_points=7, refine_starts=6, max_iterations=300)


def rosenbrock(v):
    return (1.0 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2


class TestMinimizeBox:
    def test_interior_quadratic(self):
        point, value = minimize_box(lambda v: (v[0] - 1.0) ** 2, [(0.0, 2.0)])
        assert point[0] == pytest.approx(1.0, abs=1e-6)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_boundary_minimum(self):
        point, value = minimize_box(lambda v: v[0], [(3.0, 5.0)])
        assert point[0] == pytest.approx(3.0, abs=1e-9)
        assert value == pytest.approx(3.0, abs=1e-9)

    def test_rosenbrock(self):
        point, value = minimize_box(rosenbrock, [(-2.0, 2.0), (-2.0, 2.0)])
        assert point[0] == pytest.approx(1.0, abs=1e-4)
        assert point[1] == pytest.approx(1.0, abs=1e-4)
        assert value <= 1e-8

    def test_degenerate_axis_held_fixed(self):
        point, value = minimize_box(
            lambda v: (v[0] - 0.3) ** 2 + v[1] ** 2, [(0.7, 0.7), (-1.0, 1.0)]
        )
        assert point[0] == 0.7
        assert point[1] == pytest.approx(0.0, abs=1e-6)

    def test_empty_box_rejected(self):
        with pytest.raises(ValidationError):
            minimize_box(lambda v: v[0], [(1.0, 0.0)])


class TestTwoStepProblem:
    def test_qber_range(self):
        with pytest.raises(ValidationError):
            TwoStepProblem(q_target=0.6, dev=DeviationParams(0.0, 0.0))
        with pytest.raises(ValidationError):
            TwoStepProblem(q_target=-0.1, dev=DeviationParams(0.0, 0.0))

    def test_basis_probability_open_interval(self):
        with pytest.raises(ValidationError):
            TwoStepProblem(q_target=0.1, dev=DeviationParams(0.0, 0.0), observed_basis_prob=0.0)


class TestObjectiveConsistency:
    def test_scalar_matches_vectorized(self, rng):
        problem = TwoStepProblem(q_target=0.07, dev=DeviationParams(0.08, 0.2))
        points = rng.uniform([0, 0.3, 0, 0, 0], [1, 0.7, 1, 1, 1], size=(2000, 5))
        vectorized = _reduced_objective_vec(problem, points)
        for row, expected in zip(points, vectorized):
            assert _reduced_objective_scalar(problem, *row) == pytest.approx(
                expected, abs=1e-12
            )

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
        assert 27**5 <= MAX_GRID_CELLS < 28**5
        for grid in (16, 20, 25, 27):
            assert [len(axis) for axis in _grid_axes(self.BOX, grid)] == [grid] * 5
        with pytest.raises(ValidationError):
            _grid_axes(self.BOX, 28)

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
        with pytest.raises(ValidationError, match="above the cap of 14810232"):
            _grid_axes(self.BOX[:1], 10**9)


class TestSimplexHelpers:
    def test_clip_matches_numpy_on_ties_and_signed_zeros(self):
        cases = [
            (-0.0, 0.0, 1.0), (0.0, -0.0, 1.0), (0.0, -1.0, -0.0), (-0.0, -1.0, 0.0),
            (0.5, 0.5, 0.5), (2.0, 0.0, 1.0), (-2.0, 0.0, 1.0), (0.3, 0.0, 1.0),
        ]
        # scipy clips 1-D arrays; numpy's 0-d path keeps different zeros.
        for width in (1, 16):
            for v, lo, hi in cases:
                ours = _clip([v] * width, [lo] * width, [hi] * width)
                ref = np.clip(np.full(width, v), np.full(width, lo), np.full(width, hi))
                assert [x.hex() for x in ours] == [float(x).hex() for x in ref]


def _refinement_starts(values_of, bounds, opts):
    """The grid cells :func:`_box_search` polishes, best first."""
    points = _grid_points_array(_grid_axes(bounds, opts.grid_points))
    order = np.argsort(values_of(points), kind="stable")
    return points[order[: opts.refine_starts]]


def _two_step_case(q, eps0, eps1):
    problem = TwoStepProblem(q_target=q, dev=DeviationParams(eps0, eps1))
    _, _, _, band_lo, band_hi = problem.search_constants
    bounds = [(0.0, 1.0), (band_lo, band_hi), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]

    def objective(v):
        return _reduced_objective_scalar(problem, *v)

    return objective, bounds, lambda points: _reduced_objective_vec(problem, points)


def _rosenbrock_case():
    def values_of(points):
        return np.array([rosenbrock(row) for row in points])

    return rosenbrock, [(-2.0, 2.0), (-2.0, 2.0)], values_of


CROSS_CHECK_CASES = {
    "ties-at-zero-qber": lambda: _two_step_case(0.0, 0.0, 0.0),
    "degenerate-basis-axis": lambda: _two_step_case(0.02, 0.1, 0.0),
    "active-phase-gap": lambda: _two_step_case(0.03, 0.1, 0.1),
    "saturated-cells": lambda: _two_step_case(0.04, 0.0, 0.45),
    "rosenbrock": _rosenbrock_case,
}


class TestNelderMeadMatchesScipy:
    """The in-package simplex repeats scipy's bounded Nelder-Mead bit for bit."""

    @pytest.mark.parametrize("case", sorted(CROSS_CHECK_CASES))
    def test_same_points_values_and_iterations(self, case):
        minimize = pytest.importorskip("scipy.optimize").minimize
        objective, bounds, values_of = CROSS_CHECK_CASES[case]()
        opts = SolverOptions()
        free = [i for i, (lo, hi) in enumerate(bounds) if hi - lo > DEGENERATE_AXIS_TOL]
        lower = [bounds[i][0] for i in free]
        upper = [bounds[i][1] for i in free]
        for start in _refinement_starts(values_of, bounds, opts):
            calls = {"ours": [], "scipy": []}

            def reduced(x, log):
                full = [float(v) for v in start]
                for i, v in zip(free, x):
                    full[i] = float(v)
                log.append([v.hex() for v in full])
                return objective(full)

            x0 = [float(start[i]) for i in free]
            x, fun, nit = _nelder_mead(
                lambda x: reduced(x, calls["ours"]),
                x0, lower, upper,
                opts.max_iterations, opts.objective_tol, opts.variable_tol,
            )
            ref = minimize(
                lambda x: reduced(x, calls["scipy"]),
                x0=np.array(x0),
                method="Nelder-Mead",
                bounds=list(zip(lower, upper)),
                options={
                    "maxiter": opts.max_iterations,
                    "fatol": opts.objective_tol,
                    "xatol": opts.variable_tol,
                },
            )
            assert calls["ours"] == calls["scipy"]
            assert [v.hex() for v in x] == [float(v).hex() for v in ref.x]
            assert fun.hex() == float(ref.fun).hex()
            assert nit == ref.nit


# sha256 of canonical_json(solve_two_step(...).to_dict()) with default
# options, recorded while scipy's Nelder-Mead did the polish (x86-64 with
# AVX-512, numpy 2.4); pins the exact output on machines without scipy.
# The eps1 = 0 and eps1 = 0.45 cases at q > 0 hit tied vertex values,
# ordered by np.argsort, whose order among ties depends on the CPU (and
# may depend on the numpy version); scipy's result moves with it.
GOLDEN_SOLVES = {
    (0.02, 0.0, 0.1, 0.5): "8014ddce05ef5c7b3658ca46c18626cdc69fd74b315576c500c878c2fba7f0af",
    (0.0, 0.0, 0.0, 0.5): "7a50c95ff086588bbca5b6455a08d4fd45d5391fcc185c6bf94c0bee5e99e18e",
    (0.02, 0.0, 0.0, 0.5): "8efd585f8772493b019842804c81acecd7d27f022b00da3d1a68561db0343667",
    (0.03, 0.1, 0.1, 0.5): "cf4fbcbe94ad8a9834dc30bf8d73e154205c8f87bc5b83e5b8daa0e65efbc139",
    (0.04, 0.0, 0.45, 0.5): "369f47a0cdfbc84cc2064869dee07946d7c009a34e18b4385dd91e091b39230d",
    (0.05, 0.05, 0.2, 0.45): "defaa22609d2b8e6269704a54b19d9fccecb406747ffda8a849109e353c05c81",
}

# For each tie-dependent golden: a tied simplex its solve sorts, and the
# order np.argsort gave it when the golden was recorded.
TIED_SORTS = {
    (0.02, 0.0, 0.0, 0.5): (
        ["0x1.6f8269eaa2190p-1", "0x1.6fa77a5809343p-1", "0x1.6fa77a5809343p-1",
         "0x1.6fd21121bb485p-1", "0x1.6f4fced2eb968p-1"],
        [4, 0, 2, 1, 3],
    ),
    (0.04, 0.0, 0.45, 0.5): (
        ["-0x1.f036e3217b53cp-3", "-0x1.f036e3217b534p-3", "-0x1.f036e3217b534p-3",
         "-0x1.f036e3217b525p-3", "-0x1.f036e3217b524p-3", "-0x1.f036e3217b538p-3"],
        [0, 5, 2, 1, 3, 4],
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SOLVES))
def test_golden_solver_output(case):
    if case in TIED_SORTS:
        values, recorded = TIED_SORTS[case]
        order = np.argsort([float.fromhex(v) for v in values]).tolist()
        if order != recorded:
            pytest.skip(f"np.argsort orders ties as {order} here, {recorded} when recorded")
    q, eps0, eps1, basis_prob = case
    problem = TwoStepProblem(
        q_target=q, dev=DeviationParams(eps0, eps1), observed_basis_prob=basis_prob
    )
    payload = canonical_json(solve_two_step(problem).to_dict())
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == GOLDEN_SOLVES[case]
