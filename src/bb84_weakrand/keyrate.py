"""Closed-form BB84 secret-key rates under bounded randomness leakage.

Four calculators live here: the discounted rate for events an
eavesdropper fully controls, the single-pass rate where one error
correction and privacy amplification round covers both bases, the
deterministic evaluation of a split (per-basis) post-processing
scenario, and the split rate's worst case over scenarios in closed form
with a scenario that attains it.  The numerical search over split
scenarios is in :mod:`bb84_weakrand.optimizer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InfeasibilityError, ValidationError
from .probability import PROB_ATOL, binary_entropy, check_prob

PHASE_BAND_TOL = 1e-9


@dataclass(frozen=True)
class DeviationParams:
    """Bounds on how far conditional choice probabilities sit from 1/2.

    eps0 bounds the classical-bit encoding bias, eps1 the basis-selection
    bias, each conditioned on the eavesdropper's hidden variable.  Zero
    means perfect randomness; 1/2 means the choice is fully known.  A
    value within PROB_ATOL outside [0, 1/2] is stored clamped into it.
    """

    eps0: float
    eps1: float

    def __post_init__(self):
        for name in ("eps0", "eps1"):
            object.__setattr__(self, name, check_prob(name, getattr(self, name), 0.5))


def phase_gap_bound(eps0: float) -> float:
    """Worst-case conjugate-basis error gap for a bit bias bounded by eps0.

    Equals 1/2 - sqrt(1/4 - eps0^2): zero for unbiased encoding, 1/2 for
    a fully deterministic one.
    """
    eps0 = check_prob("eps0", eps0, 0.5)
    return 0.5 - math.sqrt(0.25 - eps0 * eps0)


def one_step_delta(dev: DeviationParams) -> float:
    """Worst-case excess of the phase error over the bit error.

    The bit-bias contribution and the basis-bias contribution cannot be
    realised by the same channel operator simultaneously, so the bound
    is the larger of the two rather than their sum.
    """
    return max(phase_gap_bound(dev.eps0), 2.0 * dev.eps1)


@dataclass(frozen=True)
class KeyRateResult:
    """A key rate in bits per sifted pulse plus the values that produced it.

    ``rate`` may be negative (no key can be distilled); ``rate_clamped``
    floors it at zero.  ``diagnostics`` maps intermediate quantities by
    name.
    """

    rate: float
    diagnostics: dict[str, float] = field(default_factory=dict)
    rate_clamped: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rate_clamped", max(0.0, self.rate))

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "rate_clamped": self.rate_clamped,
            "diagnostics": dict(self.diagnostics),
        }


@dataclass(frozen=True)
class StrongRandomnessInputs:
    """Inputs for the discounted rate when Eve controls some counting events.

    p_valid is the fraction of counts Eve provably cannot control,
    s_a_given_e her entropy about the key bit on those counts, f_ec the
    error-correction inefficiency and e_obs the observed bit error rate.
    """

    p_valid: float
    s_a_given_e: float
    f_ec: float
    e_obs: float

    def __post_init__(self):
        check_prob("p_valid", self.p_valid)
        check_prob("s_a_given_e", self.s_a_given_e)
        if not (math.isfinite(self.f_ec) and self.f_ec >= 1.0 - PROB_ATOL):
            raise ValidationError(f"f_ec={self.f_ec!r} is not a finite value of at least 1")
        check_prob("e_obs", self.e_obs)


def strong_randomness_rate(inputs: StrongRandomnessInputs) -> KeyRateResult:
    """Rate = p_valid * s_a_given_e - f_ec * h(e_obs)."""
    secret = inputs.p_valid * inputs.s_a_given_e
    ec_cost = inputs.f_ec * binary_entropy(inputs.e_obs)
    return KeyRateResult(
        rate=secret - ec_cost,
        diagnostics={"secret_fraction": secret, "ec_cost": ec_cost},
    )


def one_step_rate(q_bit: float, dev: DeviationParams) -> KeyRateResult:
    """Single-pass rate 1 - h(q_bit + delta) - h(q_bit).

    The worst-case phase error q_bit + delta is capped at 1/2: the
    adversarial phase error is the feasible value nearest 1/2, and
    letting it pass 1/2 would spuriously lower the entropy cost.
    """
    q_bit = check_prob("sifted QBER q_bit", q_bit, 0.5)
    delta = one_step_delta(dev)
    e_phase = min(q_bit + delta, 0.5)
    rate = 1.0 - binary_entropy(e_phase) - binary_entropy(q_bit)
    return KeyRateResult(
        rate=rate,
        diagnostics={"delta": delta, "e_phase_worst": e_phase, "e_bit": q_bit},
    )


@dataclass(frozen=True)
class HiddenVariableModel:
    """Two-valued hidden variables biasing Alice's bit and basis choices.

    p_lambda0 and p_lambda1 are the probabilities that the bit-side and
    basis-side hidden variables take value 0.  The pairs hold the
    conditional probabilities of choosing bit 0 (respectively the
    rectilinear basis) given each hidden-variable value.
    """

    p_lambda0: float
    p_lambda1: float
    p_x0_given_l0: tuple[float, float]
    p_x1_given_l1: tuple[float, float]

    def __post_init__(self):
        check_prob("p_lambda0", self.p_lambda0)
        check_prob("p_lambda1", self.p_lambda1)
        for name, pair in (
            ("p_x0_given_l0", self.p_x0_given_l0),
            ("p_x1_given_l1", self.p_x1_given_l1),
        ):
            if len(pair) != 2:
                raise ValidationError(f"{name} must hold exactly two probabilities")
            for i, p in enumerate(pair):
                check_prob(f"{name}[{i}]", p)
        object.__setattr__(self, "p_x0_given_l0", tuple(self.p_x0_given_l0))
        object.__setattr__(self, "p_x1_given_l1", tuple(self.p_x1_given_l1))

    @classmethod
    def balanced(cls) -> "HiddenVariableModel":
        """Every probability 1/2: no leakage at all."""
        return cls(0.5, 0.5, (0.5, 0.5), (0.5, 0.5))

    def marginal_x0_zero(self) -> float:
        """Observable probability of encoding bit 0."""
        return self.p_lambda0 * self.p_x0_given_l0[0] + (
            1.0 - self.p_lambda0
        ) * self.p_x0_given_l0[1]

    def marginal_x1_zero(self) -> float:
        """Observable probability of selecting the rectilinear basis."""
        return self.p_lambda1 * self.p_x1_given_l1[0] + (
            1.0 - self.p_lambda1
        ) * self.p_x1_given_l1[1]

    def deviation(self) -> DeviationParams:
        """Smallest deviation bounds this model satisfies."""
        dev0 = max(abs(p - 0.5) for p in self.p_x0_given_l0)
        dev1 = max(abs(p - 0.5) for p in self.p_x1_given_l1)
        return DeviationParams(dev0, dev1)

    def within(self, dev: DeviationParams, atol: float = PROB_ATOL) -> bool:
        """Whether all conditional probabilities respect the given bounds."""
        own = self.deviation()
        return own.eps0 <= dev.eps0 + atol and own.eps1 <= dev.eps1 + atol


@dataclass(frozen=True)
class TwoStepScenario:
    """Per-hidden-variable error bookkeeping for split post-processing.

    The bit (e_b) and phase (e_p) error rates are indexed first by the
    basis-side hidden variable value and then by the basis (0 =
    rectilinear, 1 = diagonal).
    """

    hv: HiddenVariableModel
    e_b00: float
    e_b01: float
    e_b10: float
    e_b11: float
    e_p00: float
    e_p01: float
    e_p10: float
    e_p11: float

    def __post_init__(self):
        for name in ("e_b00", "e_b01", "e_b10", "e_b11", "e_p00", "e_p01", "e_p10", "e_p11"):
            check_prob(name, getattr(self, name))
        total = self.p_rec1 + self.p_rec2 + self.p_dia1 + self.p_dia2
        if abs(total - 1.0) > PROB_ATOL:
            raise ValidationError(f"basis weights sum to {total!r}, expected 1")

    @property
    def p_rec1(self) -> float:
        return self.hv.p_lambda1 * self.hv.p_x1_given_l1[0]

    @property
    def p_rec2(self) -> float:
        return (1.0 - self.hv.p_lambda1) * self.hv.p_x1_given_l1[1]

    @property
    def p_dia1(self) -> float:
        return self.hv.p_lambda1 * (1.0 - self.hv.p_x1_given_l1[0])

    @property
    def p_dia2(self) -> float:
        return (1.0 - self.hv.p_lambda1) * (1.0 - self.hv.p_x1_given_l1[1])

    @property
    def p_rec(self) -> float:
        return self.p_rec1 + self.p_rec2

    @property
    def p_dia(self) -> float:
        return self.p_dia1 + self.p_dia2

    def to_dict(self) -> dict:
        return {
            "p_lambda1": self.hv.p_lambda1,
            "p_x1_given_l1": list(self.hv.p_x1_given_l1),
            "p_lambda0": self.hv.p_lambda0,
            "p_x0_given_l0": list(self.hv.p_x0_given_l0),
            "e_b00": self.e_b00,
            "e_b01": self.e_b01,
            "e_b10": self.e_b10,
            "e_b11": self.e_b11,
            "e_p00": self.e_p00,
            "e_p01": self.e_p01,
            "e_p10": self.e_p10,
            "e_p11": self.e_p11,
        }


def worst_case_phase_error(
    weights: tuple[float, float], cross_bits: tuple[float, float], gap: float
) -> float:
    """Adversarial weighted phase error given cross-basis bit errors.

    Each component phase error may sit anywhere within ``gap`` of its
    cross-basis bit error (clipped to [0, 1]); the weighted average
    therefore spans an interval, and the adversary picks the point of
    that interval nearest 1/2, where the entropy cost peaks.  Weights
    must sum to 1.
    """
    lo = sum(w * max(0.0, c - gap) for w, c in zip(weights, cross_bits))
    hi = sum(w * min(1.0, c + gap) for w, c in zip(weights, cross_bits))
    return _nearest_half(lo, hi)


def _nearest_half(lo: float, hi: float) -> float:
    """The point of the interval ``[lo, hi]`` nearest 1/2: the worst phase error."""
    if lo <= 0.5 <= hi:
        return 0.5
    return hi if hi < 0.5 else lo


def evaluate_two_step_scenario(
    scenario: TwoStepScenario,
    dev: DeviationParams,
    *,
    use_worst_phase: bool = False,
) -> KeyRateResult:
    """Rate of a fully specified split post-processing scenario.

    With ``use_worst_phase`` the stored phase errors are ignored and each
    basis gets the adversarial worst phase error compatible with the
    cross-basis gap bound; otherwise the stored phase errors are used
    after checking they respect that bound (violations beyond 1e-9 raise
    InfeasibilityError).
    """
    if not scenario.hv.within(dev):
        raise ValidationError(
            "hidden-variable model exceeds the stated deviation bounds "
            f"(model {scenario.hv.deviation()}, allowed {dev})"
        )
    gap = phase_gap_bound(dev.eps0)
    rec_w = (scenario.p_rec1, scenario.p_rec2)
    dia_w = (scenario.p_dia1, scenario.p_dia2)
    rec_bits = (scenario.e_b00, scenario.e_b10)
    dia_bits = (scenario.e_b01, scenario.e_b11)
    p_rec, p_dia = scenario.p_rec, scenario.p_dia

    e_recbit = sum(w * e for w, e in zip(rec_w, rec_bits)) / p_rec if p_rec > 0 else 0.0
    e_diabit = sum(w * e for w, e in zip(dia_w, dia_bits)) / p_dia if p_dia > 0 else 0.0

    if use_worst_phase:
        # Rectilinear phase errors are banded to diagonal bit errors and
        # vice versa; the bands pair up per hidden-variable value.
        e_recpha = (
            worst_case_phase_error((rec_w[0] / p_rec, rec_w[1] / p_rec), dia_bits, gap)
            if p_rec > 0
            else 0.0
        )
        e_diapha = (
            worst_case_phase_error((dia_w[0] / p_dia, dia_w[1] / p_dia), rec_bits, gap)
            if p_dia > 0
            else 0.0
        )
    else:
        checks = (
            ("e_p00", scenario.e_p00, scenario.e_b01),
            ("e_p10", scenario.e_p10, scenario.e_b11),
            ("e_p01", scenario.e_p01, scenario.e_b00),
            ("e_p11", scenario.e_p11, scenario.e_b10),
        )
        for name, e_p, cross in checks:
            excess = abs(e_p - cross) - gap
            if excess > PHASE_BAND_TOL:
                raise InfeasibilityError(
                    f"stored {name}={e_p!r} sits {excess:.3e} outside the "
                    f"cross-basis band around {cross!r}",
                    residual=excess,
                )
        rec_phases = (scenario.e_p00, scenario.e_p10)
        dia_phases = (scenario.e_p01, scenario.e_p11)
        e_recpha = (
            sum(w * e for w, e in zip(rec_w, rec_phases)) / p_rec if p_rec > 0 else 0.0
        )
        e_diapha = (
            sum(w * e for w, e in zip(dia_w, dia_phases)) / p_dia if p_dia > 0 else 0.0
        )

    h_recbit, h_recpha = binary_entropy(e_recbit), binary_entropy(e_recpha)
    h_diabit, h_diapha = binary_entropy(e_diabit), binary_entropy(e_diapha)
    # Each basis adds p * (1 - h(e_bit) - h(e_phase)); a zero-weight basis adds 0.
    rate = (p_rec * (1.0 - h_recbit - h_recpha) if p_rec > 0.0 else 0.0) + (
        p_dia * (1.0 - h_diabit - h_diapha) if p_dia > 0.0 else 0.0
    )
    diagnostics = {
        "delta0": gap,
        "p_rec": p_rec,
        "p_dia": p_dia,
        "e_recbit": e_recbit,
        "e_recpha": e_recpha,
        "e_diabit": e_diabit,
        "e_diapha": e_diapha,
        "h_recbit": h_recbit,
        "h_recpha": h_recpha,
        "h_diabit": h_diabit,
        "h_diapha": h_diapha,
    }
    return KeyRateResult(rate=rate, diagnostics=diagnostics)


def two_step_rate(q: float, dev: DeviationParams) -> KeyRateResult:
    """Worst-case split-processing rate 1 - h(q) - h(min(1/2, q r + delta)).

    The exact minimum over eavesdropper scenarios at basis balance 1/2,
    ``r = (1/2 + eps1) / (1/2 - eps1)`` and ``delta = phase_gap_bound(eps0)``;
    :func:`two_step_worst_scenario` attains it.  The proof is in
    ``docs/two_step_closed_form.md``.
    """
    q = check_prob("sifted QBER q", q, 0.5)
    delta = phase_gap_bound(dev.eps0)
    eps1 = dev.eps1
    # At eps1 = 1/2 (r infinite) a hidden value can carry no weight in one
    # basis; its unobserved bit errors there put the phase error at 1/2,
    # q = 0 included, where q * r would be nan.
    cross = 0.5 if eps1 == 0.5 else q * (0.5 + eps1) / (0.5 - eps1)
    e_phase = min(0.5, cross + delta)
    rate = 1.0 - binary_entropy(q) - binary_entropy(e_phase)
    return KeyRateResult(
        rate=rate,
        diagnostics={"delta0": delta, "e_phase_worst": e_phase, "e_bit": q},
    )


def two_step_worst_scenario(q: float, dev: DeviationParams) -> TwoStepScenario:
    """A feasible scenario whose worst-phase rate is :func:`two_step_rate`'s.

    Both hidden values weigh 1/2 and choose the rectilinear basis with
    probabilities ``1/2 - eps1`` and ``1/2 + eps1``; ``e_b00 = e_b11 = t``
    and ``e_b01 = e_b10 = u``.  While ``q r <= 1/2``, ``t = q / (1/2 - eps1)``
    and ``u = 0``, so each basis's cross-basis bit error average is ``q r``;
    past that, ``t`` and ``u`` set it to 1/2.  Each phase error sits at
    the same fraction of its band around its cross-basis bit error, the
    fraction that puts the basis's phase error nearest 1/2.
    """
    q = check_prob("sifted QBER q", q, 0.5)
    eps0, eps1 = dev.eps0, dev.eps1
    low, high = 0.5 - eps1, 0.5 + eps1
    if eps1 < 0.5 and q * high <= 0.5 * low:  # q r <= 1/2
        t, u = q / low, 0.0
    else:
        t = (0.5 * high - q * low) / (2.0 * eps1)
        u = (q * high - 0.5 * low) / (2.0 * eps1)
    gap = phase_gap_bound(eps0)
    # Each basis weighs its hidden values by (low, high), with cross-basis
    # bit errors (u, t): e_p00 and e_p11 band around u, e_p01 and e_p10 around t.
    bands = [(max(0.0, c - gap), min(1.0, c + gap)) for c in (u, t)]
    lo = low * bands[0][0] + high * bands[1][0]
    hi = low * bands[0][1] + high * bands[1][1]
    worst = _nearest_half(lo, hi)
    fraction = (worst - lo) / (hi - lo) if hi > lo else 0.0
    phase_u, phase_t = (a + fraction * (b - a) for a, b in bands)
    hv = HiddenVariableModel(
        p_lambda0=0.5,
        p_lambda1=0.5,
        p_x0_given_l0=(0.5 + eps0, 0.5 - eps0),
        p_x1_given_l1=(low, high),
    )
    return TwoStepScenario(
        hv=hv,
        e_b00=t,
        e_b01=u,
        e_b10=u,
        e_b11=t,
        e_p00=phase_u,
        e_p01=phase_t,
        e_p10=phase_t,
        e_p11=phase_u,
    )
