"""Pulse-level Monte-Carlo BB84 with hidden-variable biased choices.

Per pulse: hidden variables pick Alice's bit and basis biases, a Pauli
operator is drawn for the channel, Bob measures in an independently
drawn basis, and pulses with mismatched bases are sifted away.  Matched
bases reduce exactly to per-basis flip probabilities (bit flips from X
in the rectilinear basis, from Z in the diagonal one), so measurement
is sampled from those flips rather than by collapsing a state vector;
the equivalence with the density-matrix route is covered by tests.

The optional eavesdropper measures each pulse in the basis its
basis-side hidden variable makes more likely and resends what it saw.
The channel here is one fixed Pauli map, independent of the hidden
variables; attacks that correlate the channel with the hidden variables
are outside this model and belong to the worst-case optimizer instead.
No detector loss or dark counts are modelled: imperfections on the
detection side are handled by the discounted-rate calculator, not the
simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import TIME_BUDGET_S, InsufficientDataError, ValidationError
from .keyrate import HiddenVariableModel, one_step_rate
from .output import MAX_SEED
from .quantum_core import PauliChannel

# Pulses drawn and reduced at a time.  A chunk's draws take 1 MiB; on 4M
# pulses 2**14 ran as fast as 2**16 and peaked 5 MB lower, and 2**18 and
# above were slower.
CHUNK_PULSES = 2**14

# Pulses per second that a run without a dump draws and tallies: 4M pulses
# took 0.13 s in-process on an idle 2-vCPU Xeon and 0.25 s on a loaded one
# (Python 3.11, numpy 2.4).  The loaded rate keeps the cap within budget.
PULSES_PER_S = 16_000_000
# The largest run that fits TIME_BUDGET_S at that rate, rounded down to a
# power of two: 2**40 pulses, about 19 hours.  A dump makes a run slower.
MAX_PULSES = 1 << ((TIME_BUDGET_S * PULSES_PER_S).bit_length() - 1)

# Columns of the per-pulse dump; ``eve_guess`` is empty without an attacker.
DUMP_HEADER = ("lambda0", "lambda1", "x0", "x1", "y", "bob_bit", "sifted", "eve_guess")

# Uniform variates consumed per pulse, in fixed column order, so a run
# is reproducible across batch splits of the same seed.
_DRAWS_PER_PULSE = 8
(_COL_L0, _COL_L1, _COL_X0, _COL_X1, _COL_CHAN, _COL_Y, _COL_EVE, _COL_MISMATCH) = range(
    _DRAWS_PER_PULSE
)


class Attacker(str, enum.Enum):
    NONE = "none"
    INTERCEPT_RESEND_WITH_HINTS = "intercept-resend-with-hints"


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run; ``seed`` makes the run reproducible."""

    n_pulses: int
    hv: HiddenVariableModel
    channel: PauliChannel
    bob_basis_prob: float = 0.5
    attacker: Attacker = Attacker.NONE
    seed: int = 0

    def __post_init__(self):
        if self.n_pulses < 1:
            raise ValidationError(f"n_pulses={self.n_pulses!r} must be at least 1")
        if self.n_pulses > MAX_PULSES:
            raise ValidationError(
                f"n_pulses={self.n_pulses!r} is above the cap of {MAX_PULSES} pulses, "
                f"the run that fits a {TIME_BUDGET_S // 3600}-hour time budget"
            )
        if not 0.0 <= self.bob_basis_prob <= 1.0:
            raise ValidationError(
                f"bob_basis_prob={self.bob_basis_prob!r} outside [0, 1]"
            )
        if not 0 <= self.seed <= MAX_SEED:
            raise ValidationError(f"seed={self.seed!r} outside [0, 2^64)")
        try:
            attacker = Attacker(self.attacker)
        except ValueError:
            raise ValidationError(
                f"attacker={self.attacker!r} is not one of: "
                + ", ".join(member.value for member in Attacker)
            ) from None
        object.__setattr__(self, "attacker", attacker)


@dataclass(frozen=True)
class SimReport:
    """Aggregated outcome of a run, plus rates derived from the QBER."""

    n_pulses: int
    seed: int
    sifted_count: int
    qber_estimate: float
    qber_std_error: float
    basis_counts: tuple[int, int]
    qber_rec: float | None
    qber_dia: float | None
    p_x0_zero_observed: float
    p_x1_zero_observed: float
    eve_agreement: float | None
    derived_rates: dict | None

    def to_dict(self) -> dict:
        return {
            "n_pulses": self.n_pulses,
            "seed": self.seed,
            "sifted_count": self.sifted_count,
            "qber_estimate": self.qber_estimate,
            "qber_std_error": self.qber_std_error,
            "basis_counts": {"rec": self.basis_counts[0], "dia": self.basis_counts[1]},
            "qber_rec": self.qber_rec,
            "qber_dia": self.qber_dia,
            "p_x0_zero_observed": self.p_x0_zero_observed,
            "p_x1_zero_observed": self.p_x1_zero_observed,
            "eve_agreement": self.eve_agreement,
            "derived_rates": self.derived_rates,
        }


def basis_flip_probabilities(channel: PauliChannel) -> tuple[float, float]:
    """Bit-flip probability in the rectilinear and diagonal bases.

    X and XZ flip rectilinear encodings; Z and XZ flip diagonal ones.
    """
    return (channel.q10 + channel.q11, channel.q01 + channel.q11)


def predicted_basis(hv: HiddenVariableModel, lambda1: int) -> int:
    """Eve's basis guess given the hidden variable: the likelier one, ties rectilinear."""
    return 0 if hv.p_x1_given_l1[lambda1] >= 0.5 else 1


def _qber_with_error(n_errors: int, n_sifted: int) -> tuple[float, float]:
    p_hat = n_errors / n_sifted
    return p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / n_sifted))


def _run_pulses(cfg: SimConfig, rng: np.random.Generator, k: int, buf: np.ndarray) -> dict:
    """Draw and play out the next ``k`` pulses of the run's stream.

    The ``k`` rows of draws go into ``buf[:k]``, a float64 buffer of
    ``_DRAWS_PER_PULSE`` columns that the caller reuses chunk after
    chunk; they are the values, in the order, of ``rng.random((k, 8))``.
    Each outcome is a bool column of threshold comparisons, and every
    choice between two columns is bit logic, ``(c & a) | (b & ~c)``:
    ``np.where`` on bools costs tens of times more per pulse.

    Returns the pulses' columns by ``DUMP_HEADER`` name, as 0/1 int8
    views of those bool columns, none of which shares memory with
    ``buf``; ``eve_guess`` is None without an attacker.
    """
    u = buf[:k]
    rng.random(out=u)
    hv = cfg.hv

    # A column compared more than once is copied out of the row-major
    # buffer first: one strided pass costs more than the copy.
    bit_draw, basis_draw, channel = (u[:, col].copy() for col in (_COL_X0, _COL_X1, _COL_CHAN))
    lambda0 = u[:, _COL_L0] >= hv.p_lambda0
    lambda1 = u[:, _COL_L1] >= hv.p_lambda1
    x0 = _pick(lambda0, *(bit_draw >= p for p in hv.p_x0_given_l0))
    x1 = _pick(lambda1, *(basis_draw >= p for p in hv.p_x1_given_l1))
    y = u[:, _COL_Y] >= cfg.bob_basis_prob

    # Channel operator per pulse: I, Z, X or XZ as the draw passes none,
    # one, two or all three of the probabilities' running sums t.  X and
    # XZ flip rectilinear bits (u >= t1); Z and XZ flip diagonal ones.
    t0, t1, t2, _ = np.cumsum(cfg.channel.probabilities())
    flip_rec = channel >= t1
    flip_dia = ((channel >= t0) & ~flip_rec) | (channel >= t2)
    travelling_bit = x0 ^ _pick(x1, flip_rec, flip_dia)

    mismatch_bit = u[:, _COL_MISMATCH] < 0.5
    sifted = ~(x1 ^ y)

    if cfg.attacker is Attacker.NONE:
        bob_bit = _pick(sifted, mismatch_bit, travelling_bit)
        eve_guess = None
    else:
        # Eve's basis given lambda1, as a column: predicted_basis is a
        # constant per hidden value.
        eve_basis = _pick(lambda1, *(predicted_basis(hv, lam) == 1 for lam in (0, 1)))
        eve_random = u[:, _COL_EVE] < 0.5
        eve_guess = _pick(~(eve_basis ^ x1), eve_random, travelling_bit)
        # Eve resends her outcome in her own basis; Bob reads it exactly
        # when his basis matches hers and uniformly otherwise.
        bob_bit = _pick(~(y ^ eve_basis), mismatch_bit, eve_guess)

    columns = (lambda0, lambda1, x0, x1, y, bob_bit, sifted, eve_guess)
    return {
        name: None if column is None else column.view(np.int8)
        for name, column in zip(DUMP_HEADER, columns)
    }


def _pick(choice: np.ndarray, if_false, if_true) -> np.ndarray:
    """``np.where(choice, if_true, if_false)`` on bools, as bit logic.

    Either branch may be a bool column or a Python bool.
    """
    return (choice & if_true) | (if_false & ~choice)


def _tally(run: dict) -> np.ndarray:
    """The chunk's counts: sifted, errors, rec, dia, rec errors, dia
    errors, Eve agreements, ``x0 == 0`` and ``x1 == 0``."""
    sifted, x0, x1, guess = run["sifted"], run["x0"], run["x1"], run["eve_guess"]
    errors = (run["bob_bit"] != x0) & sifted
    rec = sifted & (x1 == 0)
    dia = sifted & (x1 == 1)
    agree = False if guess is None else (guess == x0) & sifted
    masks = (sifted, errors, rec, dia, errors & rec, errors & dia, agree, x0 == 0, x1 == 0)
    return np.array([np.count_nonzero(mask) for mask in masks], dtype=np.int64)


def _dump_rows(run: dict) -> str:
    """The chunk's dump rows, built from the columns as one byte buffer.

    Field i's digit sits at offset 2i with a comma after it, and the last
    comma is the newline.  With no attacker the last field is empty, so
    the row is one byte shorter and ends ",\n".
    """
    columns = [run[name] for name in DUMP_HEADER if run[name] is not None]
    width = 2 * len(DUMP_HEADER) - (run["eve_guess"] is None)
    buf = np.full((len(run["x0"]), width), ord(","), dtype=np.uint8)
    for i, column in enumerate(columns):
        buf[:, 2 * i] = column + ord("0")
    buf[:, -1] = ord("\n")
    return buf.tobytes().decode("ascii")


def _derive_rates(qber: float, hv: HiddenVariableModel) -> dict | None:
    if qber > 0.5:
        return None
    from .optimizer import TwoStepProblem, solve_two_step

    dev = hv.deviation()
    one_step = one_step_rate(qber, dev)
    two_step = solve_two_step(TwoStepProblem(q_target=qber, dev=dev))
    return {
        "deviation": {"eps0": dev.eps0, "eps1": dev.eps1},
        "one_step": one_step.to_dict(),
        "two_step": two_step.min_rate.to_dict(),
    }


def simulate(cfg: SimConfig, dump: TextIO | None = None) -> SimReport:
    """Run the protocol and aggregate a report; deterministic given the seed.

    Pulses are drawn and reduced ``CHUNK_PULSES`` at a time into one
    reused draw buffer, so memory does not grow with ``n_pulses``: only
    integer counts outlive a chunk.
    When ``dump`` is a text handle, the ``DUMP_HEADER`` line and one CSV
    row per pulse are written to it as the chunks go.  The dump is
    therefore complete even when the run then raises
    InsufficientDataError because no pulse was sifted.
    """
    rng = np.random.default_rng(cfg.seed)
    if dump is not None:
        dump.write(",".join(DUMP_HEADER) + "\n")
    totals = np.zeros(9, dtype=np.int64)
    buf = np.empty((min(CHUNK_PULSES, cfg.n_pulses), _DRAWS_PER_PULSE))
    for start in range(0, cfg.n_pulses, CHUNK_PULSES):
        run = _run_pulses(cfg, rng, min(CHUNK_PULSES, cfg.n_pulses - start), buf)
        totals += _tally(run)
        if dump is not None:
            dump.write(_dump_rows(run))
    # The derived-rate solve sets the run's peak memory; the last chunk's
    # arrays need not be part of it.
    del buf, run
    n_sifted, n_errors, n_rec, n_dia, rec_errors, dia_errors, agreements, x0_zero, x1_zero = (
        int(count) for count in totals
    )
    if n_sifted == 0:
        raise InsufficientDataError(
            f"no pulses survived sifting out of {cfg.n_pulses}"
        )
    qber, std_error = _qber_with_error(n_errors, n_sifted)
    return SimReport(
        n_pulses=cfg.n_pulses,
        seed=cfg.seed,
        sifted_count=n_sifted,
        qber_estimate=qber,
        qber_std_error=std_error,
        basis_counts=(n_rec, n_dia),
        qber_rec=rec_errors / n_rec if n_rec else None,
        qber_dia=dia_errors / n_dia if n_dia else None,
        p_x0_zero_observed=x0_zero / cfg.n_pulses,
        p_x1_zero_observed=x1_zero / cfg.n_pulses,
        eve_agreement=None if cfg.attacker is Attacker.NONE else agreements / n_sifted,
        derived_rates=_derive_rates(qber, cfg.hv),
    )
