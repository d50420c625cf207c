"""Tests for the brute-force verification of the error-gap bounds."""

import math

import numpy as np
import pytest

from bb84_weakrand import bound_oracle
from bb84_weakrand.errors import ValidationError
from bb84_weakrand.bound_oracle import (
    MAX_SIMPLEX_ROWS,
    deviation_band,
    evaluate_cross_basis_point,
    evaluate_one_step_point,
    simplex_grid,
    verify_cross_basis_bound,
    verify_one_step_bound,
)
from bb84_weakrand.keyrate import DeviationParams
from bb84_weakrand.quantum_core import PauliChannel

# 50-digit decimal reference for 1/2 - sqrt(0.24).
GAP_AT_01 = 0.01010205144336438036054318505882172161


def algebraic_gap(q: PauliChannel, p_bit0: float, p_basis0: float) -> float:
    """Independent expansion of the phase-over-bit excess.

    Derived by projecting each channel branch onto the Bell states by
    hand: the identity and XZ branches contribute the bit-bias gap with
    opposite signs, the Z and X branches the basis-bias imbalance
    scaled by the complementary factor.
    """
    spread = math.sqrt(p_bit0 * (1.0 - p_bit0))
    bias_gap = 0.5 - spread
    basis_factor = (2.0 * p_basis0 - 1.0) * (0.5 + spread)
    return bias_gap * (q.q00 - q.q11) + basis_factor * (q.q01 - q.q10)


def location_channel(location: dict) -> PauliChannel:
    return PauliChannel(
        location["q00"], location["q01"], location["q10"], location["q11"]
    )


class TestGrids:
    def test_simplex_size_and_coverage(self):
        grid = simplex_grid(21)
        assert len(grid) == math.comb(24, 3)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        for vertex in np.eye(4):
            assert any(np.array_equal(row, vertex) for row in grid)

    def test_band_includes_endpoints(self):
        band = deviation_band(0.1, 21)
        assert band[0] == pytest.approx(0.4, abs=1e-15)
        assert band[-1] == pytest.approx(0.6, abs=1e-15)
        assert len(band) == 21
        assert deviation_band(0.0, 5).tolist() == [0.5] * 5

    def test_simplex_cap_rejects_before_building(self, monkeypatch):
        assert math.comb(596 + 3, 3) <= MAX_SIMPLEX_ROWS < math.comb(597 + 3, 3)
        with pytest.raises(ValidationError, match="above the cap"):
            simplex_grid(597)
        monkeypatch.setattr(bound_oracle, "MAX_SIMPLEX_ROWS", math.comb(5 + 3, 3))
        assert len(simplex_grid(5)) == 56
        with pytest.raises(ValidationError, match="above the cap"):
            simplex_grid(6)

    def test_grid_res_minimum(self):
        with pytest.raises(ValidationError):
            verify_one_step_bound(DeviationParams(0.0, 0.0), 2)
        with pytest.raises(ValidationError):
            verify_cross_basis_bound(0.1, 2)


class TestOneStepBound:
    def test_perfect_randomness_gap_vanishes(self):
        report = verify_one_step_bound(DeviationParams(0.0, 0.0), 7)
        assert report.bound == 0.0
        assert report.max_difference == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_basis_leak_extreme(self):
        report = verify_one_step_bound(DeviationParams(0.0, 0.1), 5)
        assert report.max_difference == pytest.approx(0.2, abs=1e-12)
        assert report.tightness_gap <= 1e-9
        loc = report.max_gap_location
        assert loc["q01"] == 1.0
        assert loc["p_basis0"] == pytest.approx(0.6, abs=1e-12)
        assert report.points_checked == math.comb(8, 3) * 5 * 5

    def test_bit_leak_extreme(self):
        report = verify_one_step_bound(DeviationParams(0.1, 0.0), 5)
        assert report.max_difference == pytest.approx(GAP_AT_01, abs=1e-12)
        assert report.tightness_gap <= 1e-6
        loc = report.max_gap_location
        assert loc["q00"] == 1.0
        assert abs(loc["p_bit0"] - 0.5) == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("eps0", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("eps1", [0.0, 0.25, 0.5])
    def test_bound_holds_on_battery(self, eps0, eps1):
        report = verify_one_step_bound(DeviationParams(eps0, eps1), 9)
        assert report.max_violation <= 1e-9

    def test_location_reproduces_extreme(self):
        report = verify_one_step_bound(DeviationParams(0.1, 0.2), 7)
        loc = report.max_gap_location
        direct = evaluate_one_step_point(
            location_channel(loc), loc["p_bit0"], loc["p_basis0"]
        )
        assert direct == pytest.approx(report.max_difference, abs=1e-12)

    def test_location_matches_algebraic_expansion(self):
        for dev in (DeviationParams(0.1, 0.0), DeviationParams(0.0, 0.1),
                    DeviationParams(0.2, 0.15)):
            report = verify_one_step_bound(dev, 7)
            loc = report.max_gap_location
            expected = algebraic_gap(
                location_channel(loc), loc["p_bit0"], loc["p_basis0"]
            )
            assert report.max_difference == pytest.approx(expected, abs=1e-12)


class TestCrossBasisBound:
    def test_unbiased_encoding_gaps_vanish(self):
        report = verify_cross_basis_bound(0.0, 7)
        assert report.max_difference == pytest.approx(0.0, abs=1e-12)
        assert report.bound == 0.0
        assert report.passed

    def test_band_boundary_extreme(self):
        report = verify_cross_basis_bound(0.1, 7)
        assert report.max_difference == pytest.approx(GAP_AT_01, abs=1e-12)
        assert report.tightness_gap <= 1e-6
        assert abs(report.max_gap_location["p_bit0"] - 0.5) == pytest.approx(
            0.1, abs=1e-12
        )

    def test_deterministic_encoding_extreme(self):
        report = verify_cross_basis_bound(0.5, 7)
        assert report.max_difference == pytest.approx(0.5, abs=1e-12)
        assert report.bound == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("eps0", [0.0, 0.05, 0.1, 0.25, 0.5])
    def test_bound_holds_on_battery(self, eps0):
        report = verify_cross_basis_bound(eps0, 9)
        assert report.max_violation <= 1e-9

    def test_location_reproduces_extreme(self):
        report = verify_cross_basis_bound(0.3, 7)
        loc = report.max_gap_location
        rec_gap, dia_gap = evaluate_cross_basis_point(
            location_channel(loc), loc["p_bit0"]
        )
        direct = rec_gap if loc["family"] == "rec_phase_vs_dia_bit" else dia_gap
        assert abs(direct) == pytest.approx(report.max_difference, abs=1e-12)


class TestReportShape:
    def test_serializable(self):
        report = verify_one_step_bound(DeviationParams(0.0, 0.1), 5)
        data = report.to_dict()
        assert data["passed"] is True
        assert data["points_checked"] == report.points_checked
        assert set(data["max_gap_location"]) >= {"q00", "q01", "q10", "q11"}
