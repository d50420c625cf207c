"""Exact 4x4 density-matrix algebra for entanglement-based BB84 analysis.

The source emits a two-qubit state whose second half travels through a
Pauli channel; bit and phase error rates are read off as projections
onto the Bell states.  Everything is small, exact and purely functional,
so all operations here are safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
# binary_entropy is re-exported: quantum_core.binary_entropy is the one
# function of the numpy-free probability module.
from .probability import PROB_ATOL, binary_entropy, check_prob

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10

# Single-qubit operators.  Channel operators act on the second
# (transmitted) tensor factor only.
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _bell_vector(i: int, j: int, sign: float) -> np.ndarray:
    v = np.zeros(4)
    v[i] = 1.0
    v[j] = sign
    v /= math.sqrt(2)
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class BellBasis:
    """The four maximally entangled two-qubit states as real amplitude vectors.

    phi1/phi3 live on the |00>,|11> diagonal, phi2/phi4 on |01>,|10>.
    Projections onto phi2 and phi4 count bit errors; phi3 and phi4 count
    phase errors.
    """

    phi1: np.ndarray = field(default_factory=lambda: _bell_vector(0, 3, +1.0))
    phi2: np.ndarray = field(default_factory=lambda: _bell_vector(1, 2, +1.0))
    phi3: np.ndarray = field(default_factory=lambda: _bell_vector(0, 3, -1.0))
    phi4: np.ndarray = field(default_factory=lambda: _bell_vector(1, 2, -1.0))

    def as_matrix(self) -> np.ndarray:
        """Rows phi1..phi4 stacked into a 4x4 orthogonal matrix."""
        return np.stack([self.phi1, self.phi2, self.phi3, self.phi4])


BELL = BellBasis()
_BELL_MATRIX = BELL.as_matrix()


@dataclass(frozen=True)
class TwoQubitState:
    """A 4x4 density matrix in the basis |00>, |01>, |10>, |11>.

    The matrix is validated on construction (Hermitian, unit trace,
    positive semidefinite up to a -1e-10 eigenvalue floor for rounding)
    and stored read-only.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValidationError(f"density matrix must be 4x4, got shape {m.shape}")
        check_density_matrices(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def check_density_matrices(matrices: np.ndarray) -> None:
    """Raise ValidationError unless every matrix of a ``(..., 4, 4)`` stack is a state.

    Each must be Hermitian and of unit trace within 1e-12, with no
    eigenvalue below the -1e-10 floor.
    """
    if not _is_hermitian(matrices):
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


def _is_hermitian(matrices: np.ndarray) -> bool:
    """``np.allclose(m, m^H, rtol=0, atol=1e-12)``, without its overhead when it passes.

    On finite float or complex entries, ``|m - m^H| <= atol`` is what
    ``isclose`` tests when ``rtol`` is 0.  A non-finite entry fails that
    test (``inf - inf`` is NaN) and a stack of another dtype skips it
    (bool cannot subtract, int can wrap); ``allclose`` decides those, so
    the verdict, and any warning, is always its own.
    """
    adj = matrices.conj().swapaxes(-1, -2)
    if matrices.dtype.kind in "fc":
        with np.errstate(invalid="ignore", over="ignore"):
            if bool((np.abs(matrices - adj) <= HERMITIAN_ATOL).all()):
                return True
    return np.allclose(matrices, adj, rtol=0.0, atol=HERMITIAN_ATOL)


@dataclass(frozen=True)
class PauliChannel:
    """Probabilities of the channel applying I, Z, X or XZ to Bob's qubit.

    q00 is the identity, q01 the phase flip Z, q10 the bit flip X and
    q11 the combined flip XZ.  The four probabilities must sum to one.
    """

    q00: float
    q01: float
    q10: float
    q11: float

    def __post_init__(self):
        for name, q in zip(("q00", "q01", "q10", "q11"), self.probabilities()):
            check_prob(f"channel probability {name}", q)
        total = self.q00 + self.q01 + self.q10 + self.q11
        if abs(total - 1.0) > PROB_ATOL:
            raise ValidationError(f"channel probabilities sum to {total!r}, expected 1")

    def probabilities(self) -> tuple[float, float, float, float]:
        return (self.q00, self.q01, self.q10, self.q11)

    @classmethod
    def identity(cls) -> "PauliChannel":
        return cls(1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ErrorRatePair:
    """Bit and phase error rates extracted from a two-qubit state."""

    e_bit: float
    e_phase: float

    def __post_init__(self):
        for name in ("e_bit", "e_phase"):
            object.__setattr__(self, name, check_prob(name, getattr(self, name)))


# Channel operators indexed like the channel probabilities: I, Z, X, XZ.
_PAULI_PRODUCTS = (IDENTITY_2, PAULI_Z, PAULI_X, PAULI_X @ PAULI_Z)
_RECTILINEAR_OPS = tuple(np.kron(IDENTITY_2, op) for op in _PAULI_PRODUCTS)
_DIAGONAL_OPS = tuple(
    np.kron(IDENTITY_2, HADAMARD @ op @ HADAMARD) for op in _PAULI_PRODUCTS
)


def build_source_state(p0: float) -> TwoQubitState:
    """Projector onto sqrt(p0)|00> + sqrt(1-p0)|11>.

    p0 is the conditional probability of encoding classical bit 0; the
    returned state is the rank-one purification of that biased coin.
    """
    p0 = check_prob("source bias p0", p0)
    ket = np.zeros(4)
    ket[0] = math.sqrt(p0)
    ket[3] = math.sqrt(1.0 - p0)
    return TwoQubitState(np.outer(ket, ket).astype(complex))


def apply_channel(
    source: TwoQubitState, channel: PauliChannel, p_z_basis: float
) -> TwoQubitState:
    """Send the second qubit through the Pauli channel.

    With probability p_z_basis the pulse is prepared in the rectilinear
    basis and the channel operator acts directly; otherwise the pulse is
    diagonal-encoded and the operator acts conjugated by Hadamards.  The
    output is the mixture over the four channel operators.
    """
    p_z = check_prob("p_z_basis", p_z_basis)
    rho = source.matrix
    out = np.zeros((4, 4), dtype=complex)
    for q, op_z, op_x in zip(channel.probabilities(), _RECTILINEAR_OPS, _DIAGONAL_OPS):
        if q == 0.0:
            continue
        if p_z > 0.0:
            out += (q * p_z) * (op_z @ rho @ op_z.conj().T)
        if p_z < 1.0:
            out += (q * (1.0 - p_z)) * (op_x @ rho @ op_x.conj().T)
    return TwoQubitState(out)


def bell_projections(matrices: np.ndarray) -> np.ndarray:
    """<phi_a| rho |phi_a> for a = 1..4 of each matrix of a ``(..., 4, 4)`` stack."""
    return np.einsum("ai,...ij,aj->...a", _BELL_MATRIX, matrices, _BELL_MATRIX).real


def bell_error_rates(matrices: np.ndarray) -> np.ndarray:
    """(e_bit, e_phase) of each matrix of a ``(..., 4, 4)`` stack, shape ``(..., 2)``.

    Each rate is range-checked and clamped as :class:`ErrorRatePair` does.
    """
    p = bell_projections(matrices)
    rates = np.stack((p[..., 1] + p[..., 3], p[..., 2] + p[..., 3]), axis=-1)
    outside = ~((rates >= -PROB_ATOL) & (rates <= 1.0 + PROB_ATOL))
    if outside.any():
        raise ValidationError(f"error rate {float(rates[outside][0])!r} outside [0, 1]")
    rates[rates < 0.0] = 0.0
    rates[rates > 1.0] = 1.0
    return rates


def bell_diagonal_probs(state: TwoQubitState) -> np.ndarray:
    """<phi_a| rho |phi_a> for a = 1..4, as a length-4 array."""
    return bell_projections(state.matrix)


def error_rates(state: TwoQubitState) -> ErrorRatePair:
    """Bit error (phi2 + phi4 weight) and phase error (phi3 + phi4 weight)."""
    e_bit, e_phase = bell_error_rates(state.matrix).tolist()
    return ErrorRatePair(e_bit, e_phase)
