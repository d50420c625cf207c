"""Tests for the brute-force verification of the error-gap bounds."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracle_reference
from bb84_weakrand import bound_oracle
from bb84_weakrand.errors import MEMORY_BUDGET, ValidationError
from bb84_weakrand.bound_oracle import (
    MAX_SIMPLEX_ROWS,
    SIMPLEX_BYTES_PER_ROW,
    _PURE_CHANNELS,
    _cross_basis_pure,
    _pure_rates,
    _scan,
    deviation_band,
    simplex_grid,
    verify_cross_basis_bound,
    verify_one_step_bound,
)
from bb84_weakrand.keyrate import DeviationParams
from bb84_weakrand.output import canonical_json, checksum_of
from bb84_weakrand.quantum_core import (
    PauliChannel,
    apply_channel,
    build_source_state,
    error_rates,
)

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


def evaluate_one_step_point(
    channel: PauliChannel, p_bit0: float, p_basis0: float
) -> float:
    """e_phase - e_bit of the channel output state, built directly."""
    pair = error_rates(apply_channel(build_source_state(p_bit0), channel, p_basis0))
    return pair.e_phase - pair.e_bit


def evaluate_cross_basis_point(
    channel: PauliChannel, p_bit0: float
) -> tuple[float, float]:
    """Signed cross-basis gaps of one channel, built directly per basis."""
    source = build_source_state(p_bit0)
    in_rec = error_rates(apply_channel(source, channel, 1.0))
    in_dia = error_rates(apply_channel(source, channel, 0.0))
    return (in_rec.e_phase - in_dia.e_bit, in_dia.e_phase - in_rec.e_bit)


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

    def test_simplex_rows_are_the_composition_loop(self):
        for resolution in range(1, 41):
            rows = [
                (a, b, c, resolution - a - b - c)
                for a in range(resolution + 1)
                for b in range(resolution + 1 - a)
                for c in range(resolution + 1 - a - b)
            ]
            expected = np.array(rows, dtype=float) / float(resolution)
            grid = simplex_grid(resolution)
            assert grid.shape == expected.shape
            assert grid.tobytes() == expected.tobytes()

    def test_band_includes_endpoints(self):
        band = deviation_band(0.1, 21)
        assert band[0] == pytest.approx(0.4, abs=1e-15)
        assert band[-1] == pytest.approx(0.6, abs=1e-15)
        assert len(band) == 21
        assert deviation_band(0.0, 5).tolist() == [0.5] * 5

    def test_simplex_cap_rejects_before_building(self, monkeypatch):
        assert MAX_SIMPLEX_ROWS == MEMORY_BUDGET // SIMPLEX_BYTES_PER_ROW == 35_791_394
        assert math.comb(596 + 3, 3) <= MAX_SIMPLEX_ROWS < math.comb(597 + 3, 3)
        with pytest.raises(ValidationError, match="above the cap"):
            simplex_grid(597)
        monkeypatch.setattr(bound_oracle, "MAX_SIMPLEX_ROWS", math.comb(5 + 3, 3))
        assert len(simplex_grid(5)) == 56
        with pytest.raises(ValidationError, match="above the cap"):
            simplex_grid(6)

    def test_blocks_are_whole_slabs_in_grid_order(self, monkeypatch):
        for block_rows in (1, 7, 56, 2**14):
            monkeypatch.setattr(bound_oracle, "SIMPLEX_BLOCK_ROWS", block_rows)
            for resolution in (1, 3, 10, 40):
                blocks = list(bound_oracle._simplex_blocks(resolution))
                assert np.concatenate(blocks).tobytes() == simplex_grid(resolution).tobytes()
                firsts = [round(block[0, 0] * resolution) for block in blocks]
                lasts = [round(block[-1, 0] * resolution) for block in blocks]
                assert firsts == [0] + [last + 1 for last in lasts[:-1]]
                for block, first, last in zip(blocks, firsts, lasts):
                    whole = sum(math.comb(resolution - a + 2, 2) for a in range(first, last + 1))
                    assert len(block) == whole
                    assert len(block) <= block_rows or first == last

    def test_blocks_check_their_input_when_called(self):
        with pytest.raises(ValidationError, match="must be positive"):
            bound_oracle._simplex_blocks(0)
        with pytest.raises(ValidationError, match="above the cap"):
            bound_oracle._simplex_blocks(597)

    def test_scan_rejects_the_cap_before_reading_a_case(self):
        def cases():
            raise AssertionError("a case was built")
            yield

        with pytest.raises(ValidationError, match="above the cap"):
            _scan("cap", 0.0, 597, cases(), 1, absolute=False)

    def test_band_lies_in_the_exact_band(self):
        named = [0.01, 0.05, 0.3, 0.4999999999999997, 0.49999999999999994, 5e-324, 1e-17]
        seeded = np.random.default_rng(2000).uniform(0.0, 0.5, 2000).tolist()
        moved = 0
        for eps in named + seeded:
            lo, hi = Fraction(0.5) - Fraction(eps), Fraction(0.5) + Fraction(eps)
            band = deviation_band(eps, 5)
            assert all(lo <= Fraction(p) <= hi for p in band.tolist()), eps
            for end, rounded in ((band[0], 0.5 - eps), (band[-1], 0.5 + eps)):
                assert end in (rounded, math.nextafter(rounded, 0.5)), eps
            moved += (band[0], band[-1]) != (0.5 - eps, 0.5 + eps)
        assert moved >= 400

    def test_grid_res_minimum(self):
        with pytest.raises(ValidationError, match="at least 3, got 2"):
            verify_one_step_bound(DeviationParams(0.0, 0.0), 2)
        with pytest.raises(ValidationError, match="at least 3, got 2"):
            verify_cross_basis_bound(0.1, 2)
        with pytest.raises(ValidationError, match="at least 3, got -1"):
            verify_one_step_bound(DeviationParams(0.1, 0.1), -1)


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


@pytest.mark.parametrize("grid", [3, 4])
def test_bounds_hold_just_below_one_half(grid):
    """A band end rounded to 0 or 1 would put the rounding of sqrt(p0 (1 - p0))
    far above the bound; the 60 doubles below 1/2 include such eps0."""
    eps0 = 0.5
    for _ in range(60):
        eps0 = math.nextafter(eps0, 0.0)
        for report in (
            verify_cross_basis_bound(eps0, grid),
            verify_one_step_bound(DeviationParams(eps0, 0.0), grid),
            verify_one_step_bound(DeviationParams(eps0, eps0), grid),
        ):
            assert report.passed, (eps0, report.max_violation)
            assert 0.0 < report.max_gap_location["p_bit0"] < 1.0


class TestReportShape:
    def test_serializable(self):
        report = verify_one_step_bound(DeviationParams(0.0, 0.1), 5)
        data = report.to_dict()
        assert data["passed"] is True
        assert data["points_checked"] == report.points_checked
        assert set(data["max_gap_location"]) >= {"q00", "q01", "q10", "q11"}


# Canonical-JSON checksums of reports as the per-point oracle wrote them:
# (target, eps0, eps1, grid) -> checksum.  The first two are the
# benchmark's `bounds` goldens.
REPORT_CHECKSUMS = {
    ("one-step", 0.1, 0.1, 41):
        "sha256:7d33f31bf4b1787d83e68b5d3eb219afe364ac36de90618e2a87140aaad86414",
    ("cross-basis", 0.1, None, 81):
        "sha256:61e7cfcf2714d723b2840d9bafb5ba7ae04db3697b9bf2f4655fbb553055651b",
    ("one-step", 0.1, 0.0, 3):
        "sha256:e3b30417be8d5799eb4250389095a47a7ea49d207f0cafdd2787c8e5be423ad0",
    ("one-step", 0.0, 0.1, 5):
        "sha256:8c8ba8620e7bb8ad7e5c588040cd6daa859d80a03bc8d4987b34c05b50b5531f",
    ("one-step", 0.25, 0.5, 7):
        "sha256:707b2086cd33b00a269a27b88ba3f3671e18eccb1b78e3a7a8d05a245344ab3b",
    ("one-step", 0.5, 0.5, 9):
        "sha256:b260587812e86aeba51c141dff0bb48169ded64fbeb157cb8af1882b1a7a1336",
    # eps1 = 0.01's band ends round outside the exact band and are moved
    # one ULP inward, so its tied basis band picks another first point.
    ("one-step", 0.37, 0.01, 12):
        "sha256:0c2a3b9d60816dcdf36939fb8e535b701c73e8c60faa0863c8ddeb244b1f617c",
    ("cross-basis", 0.0, None, 3):
        "sha256:2cb5856b9edfa0e8f783b0e1a31615aad79144aa455aba5bd082d12cab810092",
    ("cross-basis", 0.3, None, 7):
        "sha256:bf90fe3513f75c6c54ebee7d08b2bdd656747520f8a98a1081506d9301e2064d",
    ("cross-basis", 0.5, None, 9):
        "sha256:095b2dc06041f9603fafc8360e72310f356e787e1eaaa4ef1ec5cfc94b9318e7",
    ("cross-basis", 0.05, None, 12):
        "sha256:0c2e031db60e4272b8b17690050bd4effa6236ca3d7ec3b84a275fe3af8f1ede",
}


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


class TestSameBytes:
    @pytest.mark.parametrize(
        "case", list(REPORT_CHECKSUMS), ids=lambda case: "-".join(map(str, case))
    )
    def test_report_checksum(self, case):
        target, eps0, eps1, grid = case
        if target == "one-step":
            report = verify_one_step_bound(DeviationParams(eps0, eps1), grid)
        else:
            report = verify_cross_basis_bound(eps0, grid)
        assert checksum_of(canonical_json(report.to_dict())) == REPORT_CHECKSUMS[case]

    @pytest.mark.parametrize("eps0", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("eps1", [0.0, 0.1, 0.5])
    def test_band_rates_match_direct_states(self, eps0, eps1):
        basis_band = deviation_band(eps1, 9)
        for p_bit0 in deviation_band(eps0, 9):
            source = build_source_state(p_bit0)
            direct = [
                [
                    (pair.e_bit, pair.e_phase)
                    for pair in (
                        error_rates(apply_channel(source, channel, p_basis0))
                        for channel in _PURE_CHANNELS
                    )
                ]
                for p_basis0 in basis_band
            ]
            assert hexes(_pure_rates(p_bit0, basis_band)) == hexes(direct)

    @pytest.mark.parametrize("p_bit0", [0.0, 0.1, 0.4, 0.5, 0.75, 1.0])
    def test_cross_basis_rows_match_direct_states(self, p_bit0):
        direct = [evaluate_cross_basis_point(channel, p_bit0) for channel in _PURE_CHANNELS]
        rec_vs_dia, dia_vs_rec = _cross_basis_pure(p_bit0)
        assert hexes(rec_vs_dia) == hexes([rec for rec, _ in direct])
        assert hexes(dia_vs_rec) == hexes([dia for _, dia in direct])

    def test_every_band_state_is_validated(self, monkeypatch):
        checked = []
        original = bound_oracle.check_density_matrices
        monkeypatch.setattr(
            bound_oracle,
            "check_density_matrices",
            lambda states: checked.append(states.shape) or original(states),
        )
        verify_one_step_bound(DeviationParams(0.1, 0.2), 5)
        assert checked == [(5, 4, 4, 4)] * 5


def verify(target: str, eps0: float, eps1: float, grid: int):
    if target == "one-step":
        return verify_one_step_bound(DeviationParams(eps0, eps1), grid)
    return verify_cross_basis_bound(eps0, grid)


def hexed(report) -> dict:
    """``to_dict()`` with every float spelled by ``float.hex``."""
    def spell(value):
        if isinstance(value, dict):
            return {key: spell(item) for key, item in value.items()}
        return value.hex() if isinstance(value, float) else value
    return spell(report.to_dict())


class CountingGrid(np.ndarray):
    """A simplex block that counts the mat-vecs run against it."""

    matvecs = 0

    def __matmul__(self, other):
        CountingGrid.matvecs += 1
        return np.asarray(self) @ other


@pytest.fixture
def counted_matvecs(monkeypatch):
    """Count the cases the oracle scans; returns the counting class.

    Every scanned case runs one mat-vec per block, so only the first
    block of each grid counts: one count per case, whatever the blocks.
    """
    original = bound_oracle._simplex_blocks

    def counted(resolution):
        blocks = original(resolution)
        return itertools.chain([next(blocks).view(CountingGrid)], blocks)

    monkeypatch.setattr(bound_oracle, "_simplex_blocks", counted)
    CountingGrid.matvecs = 0
    return CountingGrid


def unpruned(monkeypatch, target: str, eps0: float, eps1: float, grid: int):
    """The report of the scan that runs every case's mat-vec."""
    with monkeypatch.context() as patch:
        patch.setattr(bound_oracle, "_scan", oracle_reference._scan)
        return verify(target, eps0, eps1, grid)


EDGE_EPS = (0.0, 0.01, 0.123, 0.25, 0.49, 0.5)


def assert_same_reports_at_edges(monkeypatch, target: str, grid: int):
    """The oracle reports what the unpruned scan reports at every EDGE_EPS."""
    eps1_values = EDGE_EPS if target == "one-step" else (None,)
    for eps0 in EDGE_EPS:
        for eps1 in eps1_values:
            expected = hexed(unpruned(monkeypatch, target, eps0, eps1, grid))
            assert hexed(verify(target, eps0, eps1, grid)) == expected, (grid, eps0, eps1)


def assert_synthetic_gaps_match(rng, absolute: bool, grid_stop: int):
    """50 random cases of tied, signed and zero gaps scan as the reference does."""
    levels = np.array([-0.3, -0.1, -0.0, 0.0, 0.1, 0.2, 0.3])
    for trial in range(50):
        gaps = rng.choice(levels, size=(int(rng.integers(1, 12)), 4))
        cases = [(gap, {"case": k}) for k, gap in enumerate(gaps)]
        args = ("synthetic", 0.25, int(rng.integers(3, grid_stop)))
        expected = oracle_reference._scan(*args, cases, len(cases), absolute)
        assert hexed(_scan(*args, cases, len(cases), absolute)) == hexed(expected), trial


class TestVertexBound:
    """The pruned scan reports what the scan of every case reports."""

    @pytest.mark.parametrize("grid", [3, 4, 5, 7, 10, 21])
    @pytest.mark.parametrize("target", ["one-step", "cross-basis"])
    def test_same_report_as_unpruned_scan(self, target, grid, monkeypatch):
        assert_same_reports_at_edges(monkeypatch, target, grid)

    @pytest.mark.parametrize(
        "target, eps0, eps1", [("one-step", 0.1, 0.0), ("cross-basis", 0.5, None)]
    )
    def test_tie_between_band_points_keeps_the_first(self, target, eps0, eps1, monkeypatch):
        seen = []

        def recording_scan(target, bound, grid_res, cases, points, absolute):
            cases = list(cases)
            channels = simplex_grid(grid_res)
            for gap, where in cases:
                values = channels @ gap
                seen.append((float((np.abs(values) if absolute else values).max()), where))
            return oracle_reference._scan(target, bound, grid_res, cases, points, absolute)

        with monkeypatch.context() as patch:
            patch.setattr(bound_oracle, "_scan", recording_scan)
            expected = hexed(verify(target, eps0, eps1, 5))
        top = max(value for value, _ in seen)
        tied = {tuple(where.items()) for value, where in seen if value == top}
        assert len(tied) >= 2
        assert hexed(verify(target, eps0, eps1, 5)) == expected

    @pytest.mark.parametrize("absolute", [False, True])
    def test_tied_and_signed_gaps_match_unpruned_scan(self, absolute):
        assert_synthetic_gaps_match(np.random.default_rng(20), absolute, grid_stop=9)

    @pytest.mark.parametrize("absolute", [False, True])
    def test_all_zero_gaps_skip_nothing(self, absolute, counted_matvecs):
        cases = [(np.array([0.0, -0.0, 0.0, 0.0]), {"case": k}) for k in range(6)]
        report = _scan("zero", 0.0, 7, cases, len(cases), absolute)
        assert counted_matvecs.matvecs == len(cases)
        expected = oracle_reference._scan("zero", 0.0, 7, cases, len(cases), absolute)
        assert hexed(report) == hexed(expected)
        assert report.max_gap_location["case"] == 0

    @pytest.mark.parametrize(
        "target, eps0, eps1, grid, cases",
        [("one-step", 0.1, 0.1, 41, 41**2), ("cross-basis", 0.1, None, 81, 2 * 81)],
    )
    def test_bench_inputs_run_a_handful_of_matvecs(
        self, target, eps0, eps1, grid, cases, counted_matvecs
    ):
        verify(target, eps0, eps1, grid)
        assert 1 <= counted_matvecs.matvecs <= 4 < cases


class TestStreamedGrid:
    """The scan over small blocks reports what the whole-grid scan reports."""

    @pytest.fixture(params=[7, 56])
    def small_blocks(self, request, monkeypatch):
        monkeypatch.setattr(bound_oracle, "SIMPLEX_BLOCK_ROWS", request.param)
        return request.param

    @pytest.mark.parametrize("absolute", [False, True])
    def test_tied_and_signed_gaps(self, absolute, small_blocks):
        assert_synthetic_gaps_match(np.random.default_rng(small_blocks), absolute, grid_stop=11)

    @pytest.mark.parametrize("target", ["one-step", "cross-basis"])
    def test_both_targets(self, target, small_blocks, monkeypatch):
        for grid in range(3, 11):
            assert_same_reports_at_edges(monkeypatch, target, grid)

    def test_scan_memory_stays_within_a_few_blocks(self):
        """The whole grid-161 simplex would be 23 MB of floats alone."""
        verify_cross_basis_bound(0.1, 11)  # first-call set-up is not the scan's
        tracemalloc.start()
        try:
            verify_cross_basis_bound(0.1, 161)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
