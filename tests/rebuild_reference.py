"""Plain-float reference of the optimizer's scenario rebuild.

:func:`reconstruct_scenario` rebuilds one worst-case scenario from one
point of the reduced five-variable box, one float at a time, so the
batched rebuild in :mod:`bb84_weakrand.optimizer` can be checked against
it bit for bit.
"""

from __future__ import annotations

from bb84_weakrand.keyrate import HiddenVariableModel, TwoStepScenario

# Weights below this are treated as zero when the eliminated variables are
# solved for.
TINY = 1e-15


def reconstruct_scenario(problem, v) -> TwoStepScenario:
    """The full scenario (eliminated variables included) at one point."""
    p, a0, e00, e01, e10 = (float(x) for x in v)
    q, gap, band_lo, band_hi = problem.search_constants

    if 1.0 - p < TINY:
        a1 = 0.5
    else:
        a1 = (0.5 - p * a0) / (1.0 - p)
    a1 = min(max(a1, band_lo), band_hi)

    p_rec1, p_rec2 = p * a0, (1.0 - p) * a1
    p_dia1, p_dia2 = p * (1.0 - a0), (1.0 - p) * (1.0 - a1)
    residual = q - p_rec1 * e00 - p_rec2 * e10 - p_dia1 * e01
    e11 = 0.0 if p_dia2 < TINY else residual / p_dia2
    e11 = min(max(e11, 0.0), 1.0)

    def realize(weights: tuple[float, float], cross: tuple[float, float]) -> tuple[float, float]:
        """Per-component phase errors achieving the worst weighted average."""
        total = weights[0] + weights[1]
        if total <= 0.0:
            return cross
        los = [max(0.0, c - gap) for c in cross]
        his = [min(1.0, c + gap) for c in cross]
        lo = (weights[0] * los[0] + weights[1] * los[1]) / total
        hi = (weights[0] * his[0] + weights[1] * his[1]) / total
        if lo <= 0.5 <= hi:
            worst = 0.5
        else:
            worst = hi if hi < 0.5 else lo
        t = 0.0 if hi - lo <= 0.0 else (worst - lo) / (hi - lo)
        return (
            los[0] + t * (his[0] - los[0]),
            los[1] + t * (his[1] - los[1]),
        )

    e_p00, e_p10 = realize((p_rec1, p_rec2), (e01, e11))
    e_p01, e_p11 = realize((p_dia1, p_dia2), (e00, e10))

    eps0 = problem.dev.eps0
    hv = HiddenVariableModel(
        p_lambda0=0.5,
        p_lambda1=p,
        p_x0_given_l0=(min(1.0, 0.5 + eps0), max(0.0, 0.5 - eps0)),
        p_x1_given_l1=(a0, a1),
    )
    return TwoStepScenario(
        hv=hv,
        e_b00=e00,
        e_b01=e01,
        e_b10=e10,
        e_b11=e11,
        e_p00=e_p00,
        e_p01=e_p01,
        e_p10=e_p10,
        e_p11=e_p11,
    )
