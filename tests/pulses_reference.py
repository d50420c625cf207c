"""The pulse play-out and tally as they were written with ``np.where``.

:func:`_run_pulses` draws ``rng.random((k, 8))`` and builds every column
with float probability columns, ``np.where``, ``searchsorted`` and
int8 copies; :func:`_tally` counts its masks.  The simulator's
bit-logic play-out must give the same columns, counts and dump bytes
from the same stream, which ``tests/test_simulator.py`` checks.
"""

from __future__ import annotations

import numpy as np

from bb84_weakrand.simulator import (
    _COL_CHAN,
    _COL_EVE,
    _COL_L0,
    _COL_L1,
    _COL_MISMATCH,
    _COL_X0,
    _COL_X1,
    _COL_Y,
    _DRAWS_PER_PULSE,
    DUMP_HEADER,
    Attacker,
    SimConfig,
    predicted_basis,
)


def _run_pulses(cfg: SimConfig, rng: np.random.Generator, k: int) -> dict:
    """Draw and play out the next ``k`` pulses of the run's stream.

    Returns the pulses' columns by ``DUMP_HEADER`` name; ``eve_guess`` is
    None without an attacker.
    """
    u = rng.random((k, _DRAWS_PER_PULSE))
    hv = cfg.hv

    lambda0 = (u[:, _COL_L0] >= hv.p_lambda0).astype(np.int8)
    lambda1 = (u[:, _COL_L1] >= hv.p_lambda1).astype(np.int8)
    p_bit0 = np.where(lambda0 == 0, hv.p_x0_given_l0[0], hv.p_x0_given_l0[1])
    p_basis0 = np.where(lambda1 == 0, hv.p_x1_given_l1[0], hv.p_x1_given_l1[1])
    x0 = (u[:, _COL_X0] >= p_bit0).astype(np.int8)
    x1 = (u[:, _COL_X1] >= p_basis0).astype(np.int8)
    y = (u[:, _COL_Y] >= cfg.bob_basis_prob).astype(np.int8)

    # Channel operator per pulse: 0=I, 1=Z, 2=X, 3=XZ.
    thresholds = np.cumsum(cfg.channel.probabilities())
    op = np.searchsorted(thresholds, u[:, _COL_CHAN], side="right").astype(np.int8)
    op = np.minimum(op, 3)
    flip_rec = (op >= 2).astype(np.int8)
    flip_dia = (op % 2).astype(np.int8)
    flip = np.where(x1 == 0, flip_rec, flip_dia)
    travelling_bit = x0 ^ flip

    mismatch_bit = (u[:, _COL_MISMATCH] < 0.5).astype(np.int8)

    if cfg.attacker is Attacker.NONE:
        bob_bit = np.where(y == x1, travelling_bit, mismatch_bit).astype(np.int8)
        eve_guess = None
    else:
        eve_basis = np.where(
            lambda1 == 0,
            predicted_basis(hv, 0),
            predicted_basis(hv, 1),
        ).astype(np.int8)
        eve_random = (u[:, _COL_EVE] < 0.5).astype(np.int8)
        eve_guess = np.where(eve_basis == x1, travelling_bit, eve_random).astype(np.int8)
        # Eve resends her outcome in her own basis; Bob reads it exactly
        # when his basis matches hers and uniformly otherwise.
        bob_bit = np.where(y == eve_basis, eve_guess, mismatch_bit).astype(np.int8)

    sifted = x1 == y
    columns = (lambda0, lambda1, x0, x1, y, bob_bit, sifted, eve_guess)
    return dict(zip(DUMP_HEADER, columns))


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

