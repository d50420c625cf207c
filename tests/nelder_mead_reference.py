"""Plain-float reference of the bounded Nelder-Mead the optimizer batches.

:func:`nelder_mead` repeats ``scipy.optimize.minimize(method="Nelder-Mead",
bounds=...)`` of scipy 1.17 for one start, one objective call at a time,
so the batched polish in :mod:`bb84_weakrand.optimizer` can be checked
row by row against it on machines without scipy.
"""

from __future__ import annotations

import operator

import numpy as np

# Initial-simplex steps of scipy's Nelder-Mead: 5 % of a nonzero coordinate,
# an absolute step for a zero one.
NONZDELT = 0.05
ZDELT = 0.00025


def clip(x: list[float], lower: list[float], upper: list[float]) -> list[float]:
    """``np.clip`` of 1-D arrays: max then min, the first operand kept on ties."""
    return [m if (m := v if v > lo else lo) < hi else hi for v, lo, hi in zip(x, lower, upper)]


def converged(sim, fsim, xatol, fatol) -> bool:
    """scipy's stop test: every vertex within ``xatol`` and ``fatol`` of the best."""
    best, f_best = sim[0], fsim[0]
    for f in fsim[1:]:
        if not abs(f_best - f) <= fatol:
            return False
    for x in sim[1:]:
        for v, b in zip(x, best):
            if not abs(v - b) <= xatol:
                return False
    return True


def nelder_mead(func, x0, lower, upper, max_iterations, fatol, xatol):
    """Bounded Nelder-Mead on plain floats; returns ``(x, func(x), iterations)``.

    Repeats ``scipy.optimize.minimize(func, x0, method="Nelder-Mead",
    bounds=list(zip(lower, upper)), options={"maxiter": max_iterations,
    "fatol": fatol, "xatol": xatol})`` of scipy 1.17 operation for
    operation: the same IEEE steps in the same order, the same clipping
    and the same tie rules, so the result and the iteration count are bit
    for bit scipy's.  Coefficients are scipy's defaults:
    reflection 1, expansion 2, contraction and shrink 1/2.  ``func`` gets
    a list of floats it must not modify.
    """
    n = len(x0)
    best = clip(x0, lower, upper)
    sim = [best]
    for k in range(n):
        vertex = list(best)
        vertex[k] = (1 + NONZDELT) * vertex[k] if vertex[k] != 0 else ZDELT
        sim.append(vertex)
    # Steps that overshoot an upper bound are reflected inside, then clipped.
    sim = [
        clip([2 * hi - v if v > hi else v for v, hi in zip(x, upper)], lower, upper)
        for x in sim
    ]
    fsim = [func(x) for x in sim]
    for _ in range(2):  # scipy sorts the initial simplex twice
        # np.argsort is not stable, and the tied vertex it puts first steers
        # the simplex, so ties must go through it as in scipy.
        order = np.argsort(fsim).tolist()
        sim = [sim[i] for i in order]
        fsim = [fsim[i] for i in order]

    iterations = 1
    while iterations < max_iterations:
        best, f_best = sim[0], fsim[0]
        if converged(sim, fsim, xatol, fatol):
            break
        # Left-to-right column sums, as np.add.reduce(sim[:-1], 0).
        total = best
        for x in sim[1:-1]:
            total = map(operator.add, total, x)
        xbar = [t / n for t in total]
        worst = sim[-1]
        xr = clip([2 * b - w for b, w in zip(xbar, worst)], lower, upper)
        fxr = func(xr)
        shrink = False
        if fxr < f_best:
            xe = clip([3 * b - 2 * w for b, w in zip(xbar, worst)], lower, upper)
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = clip([1.5 * b - 0.5 * w for b, w in zip(xbar, worst)], lower, upper)
            fxc = func(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = clip([0.5 * b + 0.5 * w for b, w in zip(xbar, worst)], lower, upper)
            fxcc = func(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = clip([b + 0.5 * (v - b) for b, v in zip(best, sim[j])], lower, upper)
                fsim[j] = func(sim[j])
        iterations += 1
        order = np.argsort(fsim).tolist()
        sim = [sim[i] for i in order]
        fsim = [fsim[i] for i in order]
    return sim[0], fsim[0], iterations
