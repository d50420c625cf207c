"""Unit and property tests for the two-qubit density-matrix layer."""

import math

import numpy as np
import pytest

from bb84_weakrand.errors import ValidationError
from bb84_weakrand.quantum_core import (
    BELL,
    HERMITIAN_ATOL,
    PSD_EIGENVALUE_FLOOR,
    TRACE_ATOL,
    ErrorRatePair,
    PauliChannel,
    TwoQubitState,
    apply_channel,
    bell_diagonal_probs,
    bell_error_rates,
    binary_entropy,
    build_source_state,
    check_density_matrices,
    error_rates,
)

# Reference: -0.02*log2(0.02) - 0.98*log2(0.98) at 50-digit decimal arithmetic.
H_OF_002 = 0.14144054254182064515437899720439196679


def random_channel(rng) -> PauliChannel:
    return PauliChannel(*rng.dirichlet(np.ones(4)))


def random_state(rng) -> TwoQubitState:
    """Random mixture of random pure states: PSD and unit trace by construction."""
    weights = rng.dirichlet(np.ones(3))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        rho += w * np.outer(vec, vec.conj())
    return TwoQubitState(rho)


def projector(vec: np.ndarray) -> TwoQubitState:
    return TwoQubitState(np.outer(vec, vec.conj()).astype(complex))


class TestBellBasis:
    def test_orthonormal(self):
        basis = BELL.as_matrix()
        np.testing.assert_allclose(basis @ basis.T, np.eye(4), rtol=0, atol=1e-12)

    def test_exact_amplitudes(self):
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(BELL.phi1, [s, 0, 0, s], rtol=0, atol=1e-15)
        np.testing.assert_allclose(BELL.phi2, [0, s, s, 0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(BELL.phi3, [s, 0, 0, -s], rtol=0, atol=1e-15)
        np.testing.assert_allclose(BELL.phi4, [0, s, -s, 0], rtol=0, atol=1e-15)


class TestBinaryEntropy:
    def test_limit_convention_at_bounds(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_reference_value(self):
        assert binary_entropy(0.02) == pytest.approx(H_OF_002, abs=1e-12)

    def test_noise_clamped_to_bounds(self):
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1.0 + 1e-13) == 0.0

    # Recorded from the definition that ran check_prob on every input: the
    # direct path for 0 < e < 1 gives the same bits.
    @pytest.mark.parametrize(
        "e, bits",
        [
            (-1e-13, "0x0.0p+0"),
            (0.0, "0x0.0p+0"),
            (-0.0, "0x0.0p+0"),
            (5e-324, "0x0.0000000000432p-1022"),
            (0.02, "0x1.21ab94445d6c3p-3"),
            (0.5, "0x1.0000000000000p+0"),
            (1.0 - 2.0**-53, "0x1.b38aa3b295c18p-48"),
            (1.0, "0x0.0p+0"),
            (1.0 + 1e-13, "0x0.0p+0"),
        ],
    )
    def test_recorded_bits(self, e, bits):
        value = binary_entropy(e)
        assert type(value) is float
        assert value.hex() == bits

    @pytest.mark.parametrize("e", [-2e-12, 1.5, math.nan, math.inf, -math.inf])
    def test_outside_the_tolerance_raises(self, e):
        with pytest.raises(ValidationError) as info:
            binary_entropy(e)
        assert str(info.value) == f"binary_entropy argument={e!r} outside [0, 1]"

    def test_out_of_range_names_value(self):
        with pytest.raises(ValidationError, match="-0.2"):
            binary_entropy(-0.2)
        with pytest.raises(ValidationError, match="1.5"):
            binary_entropy(1.5)

    def test_symmetry(self, rng):
        for e in rng.uniform(0.0, 1.0, size=1000):
            assert abs(binary_entropy(e) - binary_entropy(1.0 - e)) <= 1e-12

    def test_concavity(self, rng):
        for a, b in rng.uniform(0.0, 1.0, size=(1000, 2)):
            mid = binary_entropy((a + b) / 2.0)
            chord = (binary_entropy(a) + binary_entropy(b)) / 2.0
            assert mid >= chord - 1e-12


class TestBuildSourceState:
    def test_balanced_bias_gives_first_bell_state(self):
        state = build_source_state(0.5)
        np.testing.assert_allclose(
            state.matrix, np.outer(BELL.phi1, BELL.phi1), rtol=0, atol=1e-12
        )

    def test_deterministic_bias_gives_ground_projector(self):
        state = build_source_state(1.0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(state.matrix, expected, rtol=0, atol=1e-15)

    def test_biased_amplitudes(self):
        state = build_source_state(0.36)
        m = state.matrix
        assert m[0, 0].real == pytest.approx(0.36, abs=1e-12)
        assert m[0, 3].real == pytest.approx(0.48, abs=1e-12)
        assert m[3, 0].real == pytest.approx(0.48, abs=1e-12)
        assert m[3, 3].real == pytest.approx(0.64, abs=1e-12)
        assert np.abs(m).sum() == pytest.approx(0.36 + 0.64 + 2 * 0.48, abs=1e-12)

    def test_rank_one_unit_trace(self, rng):
        for p0 in rng.uniform(0.0, 1.0, size=50):
            eigenvalues = np.linalg.eigvalsh(build_source_state(p0).matrix)
            np.testing.assert_allclose(eigenvalues[:3], 0.0, atol=1e-12)
            assert eigenvalues[3] == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_raises(self):
        with pytest.raises(ValidationError):
            build_source_state(-0.1)
        with pytest.raises(ValidationError):
            build_source_state(1.1)


class TestApplyChannel:
    def test_identity_channel_is_identity(self):
        source = build_source_state(0.5)
        out = apply_channel(source, PauliChannel.identity(), 0.7)
        np.testing.assert_allclose(out.matrix, source.matrix, rtol=0, atol=1e-12)

    def test_bit_flip_maps_phi1_to_phi2(self):
        source = projector(BELL.phi1)
        out = apply_channel(source, PauliChannel(0, 0, 1, 0), 1.0)
        np.testing.assert_allclose(
            out.matrix, np.outer(BELL.phi2, BELL.phi2), rtol=0, atol=1e-12
        )

    def test_depolarizing_gives_maximally_mixed(self):
        source = projector(BELL.phi1)
        out = apply_channel(source, PauliChannel(0.25, 0.25, 0.25, 0.25), 1.0)
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4.0, rtol=0, atol=1e-12)

    def test_preserves_state_invariants(self, rng):
        for _ in range(1000):
            out = apply_channel(
                random_state(rng), random_channel(rng), rng.uniform()
            )
            m = out.matrix
            assert abs(m.trace() - 1.0) <= 1e-12
            np.testing.assert_allclose(m, m.conj().T, rtol=0, atol=1e-12)
            assert np.linalg.eigvalsh(m)[0] >= -1e-10

    def test_linearity(self, rng):
        for _ in range(100):
            rho1, rho2 = random_state(rng), random_state(rng)
            alpha = rng.uniform()
            channel = random_channel(rng)
            p_z = rng.uniform()
            mixed = TwoQubitState(alpha * rho1.matrix + (1 - alpha) * rho2.matrix)
            direct = apply_channel(mixed, channel, p_z).matrix
            combined = (
                alpha * apply_channel(rho1, channel, p_z).matrix
                + (1 - alpha) * apply_channel(rho2, channel, p_z).matrix
            )
            np.testing.assert_allclose(direct, combined, rtol=0, atol=1e-12)

    def test_invalid_basis_weight_raises(self):
        with pytest.raises(ValidationError):
            apply_channel(build_source_state(0.5), PauliChannel.identity(), 1.2)


class TestErrorRates:
    def test_bell_projectors(self):
        assert error_rates(projector(BELL.phi1)) == ErrorRatePair(0.0, 0.0)
        pair = error_rates(projector(BELL.phi2))
        assert pair.e_bit == pytest.approx(1.0, abs=1e-12)
        assert pair.e_phase == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        pair = error_rates(TwoQubitState(np.eye(4) / 4.0))
        assert pair.e_bit == pytest.approx(0.5, abs=1e-12)
        assert pair.e_phase == pytest.approx(0.5, abs=1e-12)

    def test_projection_identity(self, rng):
        for _ in range(200):
            state = random_state(rng)
            probs = bell_diagonal_probs(state)
            pair = error_rates(state)
            lhs = pair.e_bit + pair.e_phase - 2.0 * probs[3]
            assert lhs == pytest.approx(probs[1] + probs[2], abs=1e-12)

    def test_stack_rates_match_per_state(self, rng):
        states = [random_state(rng) for _ in range(12)]
        stack = np.stack([state.matrix for state in states]).reshape(3, 4, 4, 4)
        rates = bell_error_rates(stack)
        assert rates.shape == (3, 4, 2)
        for state, (e_bit, e_phase) in zip(states, rates.reshape(-1, 2).tolist()):
            assert error_rates(state) == ErrorRatePair(e_bit, e_phase)

    def test_stack_rates_clamped_or_rejected_like_pairs(self):
        near = np.diag([0.5, -1e-14, -1e-14, 0.5 + 2e-14]).astype(complex)
        assert bell_error_rates(near[None]).tolist() == [[0.0, 0.5]]
        far = np.diag([0.5, -0.1, -0.1, 0.7]).astype(complex)
        with pytest.raises(ValidationError, match="outside"):
            bell_error_rates(np.stack([near, far]))

    def test_bell_completeness(self, rng):
        for _ in range(200):
            assert bell_diagonal_probs(random_state(rng)).sum() == pytest.approx(
                1.0, abs=1e-12
            )


def allclose_check(matrices: np.ndarray) -> None:
    """``check_density_matrices`` as written with ``np.allclose``: the reference verdict."""
    if not np.allclose(matrices, matrices.conj().swapaxes(-1, -2), rtol=0.0, atol=HERMITIAN_ATOL):
        raise ValidationError("density matrix is not Hermitian within 1e-12")
    trace = np.trace(matrices, axis1=-2, axis2=-1)
    off = np.abs(trace - 1.0) > TRACE_ATOL
    if off.any():
        raise ValidationError(f"density matrix trace {trace[off][0]} is not 1 within 1e-12")
    lowest = float(np.linalg.eigvalsh(matrices)[..., 0].min())
    if lowest < PSD_EIGENVALUE_FLOOR:
        raise ValidationError(
            f"density matrix eigenvalue {lowest} below the {PSD_EIGENVALUE_FLOOR} floor"
        )


def outcome(check, matrices) -> tuple:
    """("ok",) or the type and message of what ``check`` raised."""
    try:
        check(matrices)
    except Exception as exc:  # the verdict includes non-validation errors
        return type(exc), str(exc)
    return ("ok",)


def allclose_outcome(matrices) -> tuple:
    """``outcome(allclose_check, matrices)`` with numpy's overflow warning ignored."""
    with np.errstate(over="ignore"):
        return outcome(allclose_check, matrices)


def quarter_identity_with(entries: dict, dtype=complex) -> np.ndarray:
    """I/4 with the ``{(row, column): value}`` entries set."""
    m = np.eye(4, dtype=dtype) / 4
    for index, value in entries.items():
        m[index] = value
    return m


def wrapping_int_state() -> np.ndarray:
    """A unit-trace int64 matrix whose m - m^H would wrap to a small value."""
    m = np.zeros((4, 4), dtype=np.int64)
    m[0, 0] = 1
    m[0, 1] = np.iinfo(np.int64).min
    return m


INF, NAN, ABOVE_ATOL = np.inf, np.nan, np.nextafter(HERMITIAN_ATOL, 1.0)
HOSTILE_STACKS = {
    "nan-off-diagonal": lambda: quarter_identity_with({(0, 1): NAN}),
    "nan-at-conjugate-positions": lambda: quarter_identity_with({(0, 1): NAN, (1, 0): NAN}),
    "nan-on-diagonal": lambda: quarter_identity_with({(2, 2): NAN}),
    "inf-at-conjugate-positions": lambda: quarter_identity_with({(0, 1): INF, (1, 0): INF}),
    "minus-inf-at-conjugate-positions": lambda: quarter_identity_with(
        {(0, 3): -INF, (3, 0): -INF}
    ),
    "complex-inf-at-conjugate-positions": lambda: quarter_identity_with(
        {(1, 2): complex(INF, INF), (2, 1): complex(INF, -INF)}
    ),
    "imaginary-inf-at-conjugate-positions": lambda: quarter_identity_with(
        {(0, 1): complex(0.0, INF), (1, 0): complex(0.0, -INF)}
    ),
    "inf-at-one-position": lambda: quarter_identity_with({(0, 1): INF}),
    "inf-on-diagonal": lambda: quarter_identity_with({(0, 0): INF}),
    "overflowing-difference": lambda: quarter_identity_with(
        {(0, 1): 1.7e308, (1, 0): -1.7e308}
    ),
    "asymmetry-at-atol": lambda: quarter_identity_with({(0, 1): HERMITIAN_ATOL}),
    "asymmetry-above-atol": lambda: quarter_identity_with({(0, 1): ABOVE_ATOL}),
    "imaginary-asymmetry-at-atol": lambda: quarter_identity_with({(2, 3): 1j * HERMITIAN_ATOL}),
    "imaginary-asymmetry-above-atol": lambda: quarter_identity_with({(2, 3): 1j * ABOVE_ATOL}),
    "real-stack-above-atol": lambda: quarter_identity_with({(0, 1): ABOVE_ATOL}, float),
    "empty-stack": lambda: np.zeros((0, 4, 4), dtype=complex),
    "stack-with-one-nan": lambda: np.stack(
        [quarter_identity_with({}), quarter_identity_with({(3, 3): NAN})]
    ),
    "int-stack-that-wraps": wrapping_int_state,
    "bool-stack": lambda: np.diag([True, False, False, False])[None],
    "real-stack-with-trace-2": lambda: np.eye(4) / 2,
    "real-stack-below-the-eigenvalue-floor": lambda: np.diag([0.8, 0.4, -0.2, 0.0]),
    "none-entries": lambda: np.full((4, 4), None),
    "string-entries": lambda: np.full((4, 4), "a"),
    "ragged-rows": lambda: np.array([[0.25] * 4] * 3 + [[0.25] * 3], dtype=object),
    "one-row": lambda: np.full(4, 0.25),
}


class TestTypeValidation:
    def test_channel_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum"):
            PauliChannel(0.5, 0.5, 0.5, 0.5)

    def test_channel_probabilities_in_range(self):
        with pytest.raises(ValidationError):
            PauliChannel(1.5, -0.5, 0.0, 0.0)

    def test_state_must_be_hermitian(self):
        bad = np.eye(4, dtype=complex) / 4.0
        bad[0, 1] = 0.3
        with pytest.raises(ValidationError, match="Hermitian"):
            TwoQubitState(bad)

    def test_state_must_have_unit_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            TwoQubitState(np.eye(4, dtype=complex))

    def test_state_must_be_positive(self):
        bad = np.diag([0.8, 0.4, -0.2, 0.0]).astype(complex)
        with pytest.raises(ValidationError, match="eigenvalue"):
            TwoQubitState(bad)

    @pytest.mark.parametrize(
        "name, match",
        [("hermitian", "Hermitian"), ("trace", "trace"), ("positive", "eigenvalue")],
    )
    def test_stack_check_rejects_one_bad_state(self, rng, name, match):
        stack = np.stack([random_state(rng).matrix for _ in range(6)]).reshape(2, 3, 4, 4)
        check_density_matrices(stack)
        bad = {
            "hermitian": np.eye(4) / 4.0 + 0.3 * np.eye(4, k=1),
            "trace": np.eye(4),
            "positive": np.diag([0.8, 0.4, -0.2, 0.0]),
        }[name]
        stack[1, 2] = bad
        with pytest.raises(ValidationError, match=match):
            check_density_matrices(stack)

    @pytest.mark.parametrize("name", sorted(HOSTILE_STACKS))
    def test_hostile_stack_gets_the_allclose_verdict(self, name):
        """Every hostile stack passes or raises ValidationError.

        A non-empty ``(..., 4, 4)`` stack of finite floats or complex numbers
        gets the verdict and message of the check as written with
        ``np.allclose``, without the overflow warning that ``np.allclose``
        gives on a difference too large for a float.
        """
        stack = HOSTILE_STACKS[name]()
        found = outcome(check_density_matrices, stack)
        assert found == ("ok",) or found[0] is ValidationError, found
        finite = (
            stack.dtype.kind in "fc"
            and stack.shape[-2:] == (4, 4)
            and stack.size
            and np.isfinite(stack).all()
        )
        if finite:
            assert found == allclose_outcome(stack)
        if stack.shape == (4, 4):
            state = outcome(TwoQubitState, stack)
            assert state == ("ok",) or state[0] is ValidationError, state
            if finite:
                assert state == allclose_outcome(np.array(stack, dtype=complex))

    @pytest.mark.parametrize(
        "name, message",
        [
            ("empty-stack", "density matrix stack is empty"),
            ("nan-on-diagonal", "density matrix has a non-finite entry"),
            ("inf-at-conjugate-positions", "density matrix has a non-finite entry"),
            ("one-row", "density matrices must be 4x4, got shape (4,)"),
            ("string-entries", "density matrix entries are not numbers: "),
        ],
    )
    def test_hostile_stack_reports_what_is_wrong(self, name, message):
        found = outcome(check_density_matrices, HOSTILE_STACKS[name]())
        assert found[0] is ValidationError and found[1].startswith(message)

    def test_error_rate_pair_range(self):
        with pytest.raises(ValidationError):
            ErrorRatePair(1.2, 0.0)
        pair = ErrorRatePair(-1e-14, 1.0 + 1e-14)
        assert pair.e_bit == 0.0
        assert pair.e_phase == 1.0
