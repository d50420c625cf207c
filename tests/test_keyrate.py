"""Tests for the closed-form rate calculators and scenario evaluation."""

import hashlib

import numpy as np
import pytest

from bb84_weakrand.errors import InfeasibilityError, ValidationError
from bb84_weakrand.keyrate import (
    DeviationParams,
    HiddenVariableModel,
    StrongRandomnessInputs,
    TwoStepScenario,
    evaluate_two_step_scenario,
    one_step_delta,
    one_step_rate,
    phase_gap_bound,
    strong_randomness_rate,
    two_step_rate,
    two_step_worst_scenario,
    worst_case_phase_error,
)
from bb84_weakrand.optimizer import TwoStepProblem, constraint_residuals
from bb84_weakrand.quantum_core import binary_entropy

# 50-digit decimal references.
H_OF_002 = 0.14144054254182064515437899720439196679
STRONG_REFERENCE = 0.25855945745817935484562100279560803321
GAP_AT_01 = 0.01010205144336438036054318505882172161  # 1/2 - sqrt(0.24)
ONE_STEP_BASIS_LEAK_POINT = 0.09839195449621376211227226069602090145
ONE_STEP_ZERO_DEV = 0.71711891491635870969124200559121606641
ONE_STEP_BIT_ONLY = 0.66365607458319982524473845719937027540
TWO_STEP_BASIS_LEAK = 0.66416759962660319398002667314973674707


def balanced_scenario(e_b, e_p=None) -> TwoStepScenario:
    """All hidden-variable weights 1/2; uniform error rates."""
    e_p = e_b if e_p is None else e_p
    return TwoStepScenario(
        hv=HiddenVariableModel.balanced(),
        e_b00=e_b, e_b01=e_b, e_b10=e_b, e_b11=e_b,
        e_p00=e_p, e_p01=e_p, e_p10=e_p, e_p11=e_p,
    )


class TestDeviationParams:
    def test_bounds(self):
        DeviationParams(0.0, 0.5)
        with pytest.raises(ValidationError):
            DeviationParams(0.6, 0.0)
        with pytest.raises(ValidationError):
            DeviationParams(0.0, -0.1)

    def test_values_within_tolerance_are_clamped(self):
        dev = DeviationParams(-1e-13, 0.5 + 1e-13)
        assert (dev.eps0, dev.eps1) == (0.0, 0.5)
        assert DeviationParams(-1e-13, 0.0) == DeviationParams(0.0, 0.0)
        hv = HiddenVariableModel(0.5, 0.5, (0.5, 0.5), (1.0 + 1e-13, 0.5))
        assert hv.deviation() == DeviationParams(0.0, 0.5)


class TestStrongRandomnessRate:
    def test_perfect_single_photon_channel(self):
        result = strong_randomness_rate(StrongRandomnessInputs(1.0, 1.0, 1.0, 0.0))
        assert result.rate == 1.0
        assert result.rate_clamped == 1.0

    def test_no_valid_counts_is_pure_correction_cost(self):
        result = strong_randomness_rate(StrongRandomnessInputs(0.0, 0.7, 1.0, 0.1))
        assert result.rate == pytest.approx(-binary_entropy(0.1), abs=1e-15)
        assert result.rate_clamped == 0.0

    def test_reference_value(self):
        result = strong_randomness_rate(StrongRandomnessInputs(0.5, 0.8, 1.0, 0.02))
        assert result.rate == pytest.approx(STRONG_REFERENCE, abs=1e-12)

    def test_inefficient_correction_rejected(self):
        with pytest.raises(ValidationError):
            StrongRandomnessInputs(1.0, 1.0, 0.9, 0.0)


class TestOneStepDelta:
    def test_perfect_randomness(self):
        assert one_step_delta(DeviationParams(0.0, 0.0)) == 0.0

    def test_basis_branch(self):
        assert one_step_delta(DeviationParams(0.0, 0.1)) == pytest.approx(0.2, abs=1e-15)

    def test_bit_branch(self):
        assert one_step_delta(DeviationParams(0.1, 0.0)) == pytest.approx(
            GAP_AT_01, abs=1e-12
        )

    def test_full_leak_saturates(self):
        assert one_step_delta(DeviationParams(0.5, 0.0)) == pytest.approx(0.5, abs=1e-15)
        assert one_step_delta(DeviationParams(0.0, 0.5)) == pytest.approx(1.0, abs=1e-15)

    def test_monotone_in_each_parameter(self):
        grid = [i * 0.05 for i in range(11)]
        for fixed in grid:
            along_0 = [one_step_delta(DeviationParams(e, fixed)) for e in grid]
            along_1 = [one_step_delta(DeviationParams(fixed, e)) for e in grid]
            assert all(b >= a - 1e-15 for a, b in zip(along_0, along_0[1:]))
            assert all(b >= a - 1e-15 for a, b in zip(along_1, along_1[1:]))


class TestOneStepRate:
    def test_reference_operating_point(self):
        result = one_step_rate(0.02, DeviationParams(0.0, 0.1))
        assert result.rate == pytest.approx(ONE_STEP_BASIS_LEAK_POINT, abs=1e-12)
        assert result.rate == pytest.approx(0.0984, abs=5e-4)
        assert result.diagnostics["delta"] == pytest.approx(0.2, abs=1e-15)

    def test_zero_deviation_reference(self):
        result = one_step_rate(0.02, DeviationParams(0.0, 0.0))
        assert result.rate == pytest.approx(ONE_STEP_ZERO_DEV, abs=1e-12)

    def test_noiseless_perfect_randomness(self):
        assert one_step_rate(0.0, DeviationParams(0.0, 0.0)).rate == 1.0

    def test_zero_deviation_identity(self):
        for i in range(51):
            q = i / 100.0
            expected = 1.0 - 2.0 * binary_entropy(q)
            assert one_step_rate(q, DeviationParams(0.0, 0.0)).rate == pytest.approx(
                expected, abs=1e-12
            )

    def test_monotone_in_qber_and_deviations(self):
        qs = [i * 0.01 for i in range(26)]
        rates = [one_step_rate(q, DeviationParams(0.05, 0.05)).rate for q in qs]
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))
        for eps_grid in ([0.0, 0.05, 0.1, 0.2], [0.0, 0.02, 0.05, 0.08]):
            by_eps0 = [one_step_rate(0.02, DeviationParams(e, 0.0)).rate for e in eps_grid]
            by_eps1 = [one_step_rate(0.02, DeviationParams(0.0, e)).rate for e in eps_grid]
            assert all(b <= a + 1e-9 for a, b in zip(by_eps0, by_eps0[1:]))
            assert all(b <= a + 1e-9 for a, b in zip(by_eps1, by_eps1[1:]))

    def test_phase_error_capped_at_half(self):
        result = one_step_rate(0.4, DeviationParams(0.0, 0.5))
        assert result.diagnostics["e_phase_worst"] == 0.5
        assert result.rate == pytest.approx(-binary_entropy(0.4), abs=1e-12)

    def test_qber_above_half_rejected(self):
        with pytest.raises(ValidationError):
            one_step_rate(0.51, DeviationParams(0.0, 0.0))

    def test_negative_rate_clamped(self):
        result = one_step_rate(0.1, DeviationParams(0.0, 0.1))
        assert result.rate < 0.0
        assert result.rate_clamped == 0.0


class TestEntropyMixtureStep:
    def test_average_rate_lower_bounds_mixtures(self, rng):
        """1 - h(avg+d) - h(avg) never exceeds the mixture of per-part rates."""
        for _ in range(500):
            delta = rng.uniform(0.0, 0.3)
            parts = rng.uniform(0.0, 0.5 - delta, size=4)
            weights = rng.dirichlet(np.ones(4))
            avg = float(weights @ parts)
            lhs = 1.0 - binary_entropy(avg + delta) - binary_entropy(avg)
            rhs = sum(
                wk * (1.0 - binary_entropy(ek + delta) - binary_entropy(ek))
                for wk, ek in zip(weights, parts)
            )
            assert lhs <= rhs + 1e-12


class TestHiddenVariableModel:
    def test_balanced_marginals(self):
        hv = HiddenVariableModel.balanced()
        assert hv.marginal_x0_zero() == 0.5
        assert hv.marginal_x1_zero() == 0.5
        assert hv.deviation() == DeviationParams(0.0, 0.0)

    def test_marginal_can_hide_bias(self):
        """An unbiased observable marginal does not mean unbiased conditionals."""
        hv = HiddenVariableModel(0.5, 0.5, (0.9, 0.1), (0.6, 0.4))
        assert hv.marginal_x0_zero() == pytest.approx(0.5, abs=1e-15)
        assert hv.marginal_x1_zero() == pytest.approx(0.5, abs=1e-15)
        dev = hv.deviation()
        assert dev.eps0 == pytest.approx(0.4, abs=1e-15)
        assert dev.eps1 == pytest.approx(0.1, abs=1e-15)
        assert hv.within(DeviationParams(0.4, 0.1))
        assert not hv.within(DeviationParams(0.4, 0.05))

    def test_validation(self):
        with pytest.raises(ValidationError):
            HiddenVariableModel(1.2, 0.5, (0.5, 0.5), (0.5, 0.5))
        with pytest.raises(ValidationError):
            HiddenVariableModel(0.5, 0.5, (0.5,), (0.5, 0.5))


class TestTwoStepScenario:
    def test_weights_partition_unity(self):
        sc = balanced_scenario(0.0)
        assert sc.p_rec1 + sc.p_rec2 + sc.p_dia1 + sc.p_dia2 == pytest.approx(
            1.0, abs=1e-15
        )
        assert sc.p_rec == pytest.approx(0.5, abs=1e-15)

    def test_error_rates_validated(self):
        with pytest.raises(ValidationError):
            balanced_scenario(1.3)


class TestEvaluateTwoStepScenario:
    def test_noiseless_scenario_rate_one(self):
        result = evaluate_two_step_scenario(
            balanced_scenario(0.0), DeviationParams(0.0, 0.0), use_worst_phase=True
        )
        assert result.rate == 1.0

    def test_uniform_errors_reduce_to_one_step(self):
        result = evaluate_two_step_scenario(
            balanced_scenario(0.02), DeviationParams(0.0, 0.0), use_worst_phase=True
        )
        assert result.rate == pytest.approx(ONE_STEP_ZERO_DEV, abs=1e-12)
        assert result.diagnostics["e_recpha"] == pytest.approx(0.02, abs=1e-15)

    def test_rectilinear_only_errors(self):
        scenario = TwoStepScenario(
            hv=HiddenVariableModel.balanced(),
            e_b00=0.04, e_b01=0.0, e_b10=0.04, e_b11=0.0,
            e_p00=0.0, e_p01=0.04, e_p10=0.0, e_p11=0.04,
        )
        result = evaluate_two_step_scenario(
            scenario, DeviationParams(0.0, 0.0), use_worst_phase=True
        )
        assert result.rate == pytest.approx(1.0 - binary_entropy(0.04), abs=1e-12)
        assert result.diagnostics["e_recbit"] == pytest.approx(0.04, abs=1e-15)
        assert result.diagnostics["e_diapha"] == pytest.approx(0.04, abs=1e-15)
        assert result.diagnostics["e_recpha"] == pytest.approx(0.0, abs=1e-15)

    def test_stored_phases_used_when_in_band(self):
        scenario = balanced_scenario(0.02, e_p=0.02)
        result = evaluate_two_step_scenario(scenario, DeviationParams(0.0, 0.0))
        assert result.rate == pytest.approx(ONE_STEP_ZERO_DEV, abs=1e-12)

    def test_stored_phases_outside_band_rejected(self):
        scenario = balanced_scenario(0.02, e_p=0.05)
        with pytest.raises(InfeasibilityError):
            evaluate_two_step_scenario(scenario, DeviationParams(0.0, 0.0))
        # A wider bit-bias band makes the same phases feasible.
        evaluate_two_step_scenario(scenario, DeviationParams(0.25, 0.0))

    def test_hidden_variables_must_respect_bounds(self):
        scenario = TwoStepScenario(
            hv=HiddenVariableModel(0.5, 0.5, (0.5, 0.5), (0.7, 0.3)),
            e_b00=0.0, e_b01=0.0, e_b10=0.0, e_b11=0.0,
            e_p00=0.0, e_p01=0.0, e_p10=0.0, e_p11=0.0,
        )
        with pytest.raises(ValidationError):
            evaluate_two_step_scenario(scenario, DeviationParams(0.0, 0.1))

    def test_empty_basis_contributes_zero(self):
        hv = HiddenVariableModel(0.5, 0.5, (0.5, 0.5), (1.0, 1.0))
        scenario = TwoStepScenario(
            hv=hv,
            e_b00=0.1, e_b01=0.0, e_b10=0.1, e_b11=0.0,
            e_p00=0.0, e_p01=0.1, e_p10=0.0, e_p11=0.1,
        )
        result = evaluate_two_step_scenario(
            scenario, DeviationParams(0.0, 0.5), use_worst_phase=True
        )
        assert result.diagnostics["p_dia"] == 0.0
        assert result.rate == pytest.approx(
            1.0 - binary_entropy(0.1) - binary_entropy(0.0), abs=1e-12
        )

    def test_worst_phase_dominates_any_feasible_scenario(self, rng):
        """The adversarial phase replacement never reports a higher rate."""
        for _ in range(300):
            eps0 = rng.uniform(0.0, 0.3)
            gap = phase_gap_bound(eps0)
            hv = HiddenVariableModel(
                rng.uniform(), rng.uniform(),
                (0.5, 0.5),
                tuple(rng.uniform(0.3, 0.7, size=2)),
            )
            dev = DeviationParams(eps0, max(abs(p - 0.5) for p in hv.p_x1_given_l1))
            e_b = rng.uniform(0.0, 1.0, size=4)
            crosses = (e_b[1], e_b[3], e_b[0], e_b[2])  # bands pair across bases
            e_p = tuple(
                float(np.clip(c + rng.uniform(-gap, gap), 0.0, 1.0)) for c in crosses
            )
            scenario = TwoStepScenario(
                hv=hv,
                e_b00=e_b[0], e_b01=e_b[1], e_b10=e_b[2], e_b11=e_b[3],
                e_p00=e_p[0], e_p10=e_p[1], e_p01=e_p[2], e_p11=e_p[3],
            )
            explicit = evaluate_two_step_scenario(scenario, dev)
            worst = evaluate_two_step_scenario(scenario, dev, use_worst_phase=True)
            assert worst.rate <= explicit.rate + 1e-12


class TestCrossBasisAggregation:
    def test_mixtures_stay_inside_band(self, rng):
        """Per-part band membership survives probabilistic mixing."""
        for _ in range(500):
            gap = phase_gap_bound(rng.uniform(0.0, 0.5))
            weights = rng.dirichlet([1.0, 1.0])
            bits = rng.uniform(0.0, 1.0, size=2)
            phases = np.clip(bits + rng.uniform(-gap, gap, size=2), 0.0, 1.0)
            mixed_gap = abs(float(weights @ phases) - float(weights @ bits))
            assert mixed_gap <= gap + 1e-12


class TestWorstCasePhaseError:
    def test_interval_below_half_takes_upper_edge(self):
        assert worst_case_phase_error((0.5, 0.5), (0.1, 0.2), 0.05) == pytest.approx(
            0.2, abs=1e-15
        )

    def test_interval_containing_half_takes_half(self):
        assert worst_case_phase_error((0.5, 0.5), (0.45, 0.5), 0.1) == 0.5

    def test_interval_above_half_takes_lower_edge(self):
        assert worst_case_phase_error((0.5, 0.5), (0.8, 0.9), 0.05) == pytest.approx(
            0.8, abs=1e-15
        )

    @pytest.mark.parametrize("cross_bits", [(0.4, 0.5), (0.5, 0.6)])
    def test_interval_edge_at_half_takes_half(self, cross_bits):
        """An interval whose upper or lower edge is exactly 1/2 gives 1/2."""
        assert worst_case_phase_error((0.5, 0.5), cross_bits, 0.05) == 0.5


# The attaining scenario's check grid: q in steps of 0.005 and eps1 in
# steps of 1/16, both ends included (3,636 points).
CLOSED_FORM_GRID = [
    (i * 0.005, eps0, k / 16)
    for i in range(101)
    for eps0 in (0.0, 0.1, 0.3, 0.5)
    for k in range(9)
]


class TestTwoStepRate:
    def test_basis_leak_reference_point(self):
        rate = two_step_rate(0.02, DeviationParams(0.0, 0.1)).rate
        assert rate == pytest.approx(TWO_STEP_BASIS_LEAK, abs=1e-15)
        assert round(rate, 4) == 0.6642

    def test_unbiased_basis_choice_is_the_one_step_rate(self):
        for q in (0.0, 0.02, 0.11, 0.3, 0.5):
            for eps0 in (0.0, 0.1, 0.5):
                dev = DeviationParams(eps0, 0.0)
                assert two_step_rate(q, dev).rate == pytest.approx(
                    one_step_rate(q, dev).rate, abs=1e-15
                )

    @pytest.mark.parametrize("eps0", [0.0, 0.1, 0.3, 0.5])
    def test_fully_leaked_basis_choice_leaves_minus_h_of_q(self, eps0):
        """At eps1 = 1/2 the phase error is 1/2 at every q, q = 0 included."""
        dev = DeviationParams(eps0, 0.5)
        assert two_step_rate(0.0, dev).rate == 0.0
        for q in [0.0, 1e-300, 0.005, 0.02, 0.25, 0.5]:
            result = two_step_rate(q, dev)
            assert result.rate == pytest.approx(-binary_entropy(q), abs=1e-15)
            assert result.diagnostics["e_phase_worst"] == 0.5

    def test_monotone_in_qber_and_deviations(self):
        base = two_step_rate(0.03, DeviationParams(0.1, 0.1)).rate
        assert two_step_rate(0.04, DeviationParams(0.1, 0.1)).rate < base
        assert two_step_rate(0.03, DeviationParams(0.2, 0.1)).rate < base
        assert two_step_rate(0.03, DeviationParams(0.1, 0.2)).rate < base

    def test_qber_above_half_rejected(self):
        with pytest.raises(ValidationError):
            two_step_rate(0.6, DeviationParams(0.0, 0.1))


class TestTwoStepWorstScenario:
    def test_attains_the_closed_form_and_meets_every_constraint(self):
        worst_residual = worst_gap = 0.0
        for q, eps0, eps1 in CLOSED_FORM_GRID:
            dev = DeviationParams(eps0, eps1)
            scenario = two_step_worst_scenario(q, dev)
            residuals = constraint_residuals(TwoStepProblem(q, dev), scenario)
            worst_residual = max(worst_residual, *residuals.values())
            closed = two_step_rate(q, dev).rate
            worst = evaluate_two_step_scenario(scenario, dev, use_worst_phase=True).rate
            # The stored phase errors are the worst case too.
            stored = evaluate_two_step_scenario(scenario, dev).rate
            worst_gap = max(worst_gap, abs(worst - closed), abs(stored - closed))
        assert worst_residual <= 1e-15
        assert worst_gap <= 1e-15

    def test_grid_bits_are_recorded(self):
        """sha256 of every error rate's float.hex on the grid, in grid order,
        recorded when the worst phase was an inline ``min(max(1/2, lo), hi)``."""
        digest = hashlib.sha256()
        for q, eps0, eps1 in CLOSED_FORM_GRID:
            scenario = two_step_worst_scenario(q, DeviationParams(eps0, eps1)).to_dict()
            for name in ("e_b00", "e_b01", "e_b10", "e_b11", "e_p00", "e_p01", "e_p10", "e_p11"):
                digest.update(scenario[name].hex().encode())
        assert digest.hexdigest() == (
            "6514905ab4c4f048ac07bf631f6425671e63416b2505910819b58077ab6b2f12"
        )

    def test_both_regimes_are_on_the_grid(self):
        """Some points have q r <= 1/2 (u = 0) and some a cross-basis average of 1/2."""
        us = [two_step_worst_scenario(q, DeviationParams(e0, e1)).e_b01 for q, e0, e1 in CLOSED_FORM_GRID]
        assert 0 < us.count(0.0) < len(us)
