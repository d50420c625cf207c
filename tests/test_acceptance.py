"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Criteria exercising the command-line surface go through real
subprocesses; property batteries run in-process.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from bb84_weakrand.keyrate import (
    DeviationParams,
    one_step_rate,
)
from bb84_weakrand.optimizer import (
    TwoStepProblem,
    constraint_residuals,
    solve_two_step,
)
from bb84_weakrand.output import canonical_json
from bb84_weakrand.quantum_core import (
    PauliChannel,
    TwoQubitState,
    apply_channel,
    binary_entropy,
    build_source_state,
    error_rates,
)
from bb84_weakrand.simulator import basis_flip_probabilities

EPS_BATTERY = (0.0, 0.05, 0.1, 0.25, 0.5)


def run_cli(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bb84_weakrand", *args],
        capture_output=True,
        text=True,
    )


def report(criterion: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {status} {criterion}: {detail}", flush=True)
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module", autouse=True)
def warm_interpreter():
    """One throwaway run so bytecode caches do not bill the timed criteria."""
    run_cli("rate", "--method", "strong", "--p", "1", "--s", "1", "--f", "1", "--e", "0")


def test_criterion_1_one_step_reference_number():
    start = time.perf_counter()
    proc = run_cli(
        "rate", "--method", "one-step", "--qber", "0.02", "--eps0", "0", "--eps1", "0.1"
    )
    elapsed = time.perf_counter() - start
    rate = json.loads(proc.stdout)["result"]["rate"]
    ok = proc.returncode == 0 and abs(rate - 0.0984) <= 5e-4 and elapsed < 1.0
    report(
        "criterion 1 (one-step 0.0984)",
        ok,
        f"rate={rate:.6f}, wall={elapsed:.2f}s",
    )


def test_criterion_2_two_step_reference_number():
    start = time.perf_counter()
    proc = run_cli(
        "rate", "--method", "two-step", "--qber", "0.02", "--eps0", "0",
        "--eps1", "0.1", "--seed", "1",
    )
    elapsed = time.perf_counter() - start
    rate = json.loads(proc.stdout)["result"]["min_rate"]["rate"]
    ok = proc.returncode == 0 and abs(rate - 0.6642) <= 5e-3 and elapsed < 60.0
    report(
        "criterion 2 (two-step 0.6642)",
        ok,
        f"rate={rate:.6f}, wall={elapsed:.2f}s",
    )


def test_criterion_3_zero_deviation_equivalence():
    dev = DeviationParams(0.0, 0.0)
    worst_one = worst_two = 0.0
    for i in range(11):
        q = i / 100.0
        analytic = 1.0 - 2.0 * binary_entropy(q)
        worst_one = max(worst_one, abs(one_step_rate(q, dev).rate - analytic))
        solved = solve_two_step(TwoStepProblem(q_target=q, dev=dev))
        worst_two = max(worst_two, abs(solved.min_rate.rate - analytic))
    ok = worst_one <= 1e-12 and worst_two <= 1e-4
    report(
        "criterion 3 (zero-deviation equivalence)",
        ok,
        f"max|one-step - analytic|={worst_one:.2e}, max|two-step - analytic|={worst_two:.2e}",
    )


def test_criterion_4_bit_leak_equivalence():
    dev = DeviationParams(0.1, 0.0)
    one = one_step_rate(0.02, dev).rate
    two = solve_two_step(TwoStepProblem(q_target=0.02, dev=dev)).min_rate.rate
    ok = abs(two - one) <= 2e-3 and abs(one - 0.6636) <= 1e-3
    report(
        "criterion 4 (bit-leak one/two-step equivalence)",
        ok,
        f"one-step={one:.6f}, two-step={two:.6f}, |diff|={abs(two - one):.2e}",
    )


def test_criterion_5_bound_soundness_battery():
    start = time.perf_counter()
    worst_violation = -math.inf
    worst_single_gap = 0.0
    for eps0 in EPS_BATTERY:
        for eps1 in EPS_BATTERY:
            proc = run_cli(
                "verify", "--target", "one-step",
                "--eps0", str(eps0), "--eps1", str(eps1), "--grid", "21",
            )
            assert proc.returncode == 0, f"one-step verify failed at ({eps0}, {eps1})"
            result = json.loads(proc.stdout)["result"]
            assert result["points_checked"] >= 10**4
            worst_violation = max(worst_violation, result["max_violation"])
            if (eps0 == 0.0) != (eps1 == 0.0):
                worst_single_gap = max(worst_single_gap, result["tightness_gap"])

            proc = run_cli(
                "verify", "--target", "cross-basis",
                "--eps0", str(eps0), "--eps1", str(eps1), "--grid", "21",
            )
            assert proc.returncode == 0, f"cross-basis verify failed at ({eps0}, {eps1})"
            result = json.loads(proc.stdout)["result"]
            worst_violation = max(worst_violation, result["max_violation"])
    elapsed = time.perf_counter() - start
    ok = worst_violation <= 1e-9 and worst_single_gap <= 1e-6 and elapsed < 300.0
    report(
        "criterion 5 (bound soundness battery)",
        ok,
        f"max violation={worst_violation:.2e}, single-leak gap={worst_single_gap:.2e}, "
        f"wall={elapsed:.1f}s",
    )


def _sweep_rows(*args) -> list[dict]:
    proc = run_cli("sweep", *args, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["result"]


def _bisect_sign_change(lo: float, hi: float) -> float:
    """Root of 1 - h(e + 0.2) - h(e) by bisection; the independent locator."""

    def f(e):
        return 1.0 - binary_entropy(e + 0.2) - binary_entropy(e)

    assert f(lo) > 0.0 > f(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_6_rate_curve_shapes():
    qber_range = "0:0.1225:0.005"  # 25 points covering [0, 0.12]
    one_step_rows = _sweep_rows(
        "--qber", qber_range, "--dev", "0,0", "--dev", "0.1,0", "--dev", "0,0.1",
        "--method", "one-step",
    )
    two_step_rows = _sweep_rows(
        "--qber", qber_range, "--dev", "0,0.1", "--method", "two-step", "--seed", "1"
    )

    def curve(rows, eps0, eps1):
        selected = [
            r for r in rows if r["eps0"] == eps0 and r["eps1"] == eps1
        ]
        return [r["rate"] for r in sorted(selected, key=lambda r: r["qber"])]

    curves = {
        "one(0,0)": curve(one_step_rows, 0.0, 0.0),
        "one(0.1,0)": curve(one_step_rows, 0.1, 0.0),
        "one(0,0.1)": curve(one_step_rows, 0.0, 0.1),
        "two(0,0.1)": curve(two_step_rows, 0.0, 0.1),
    }
    assert all(len(c) == 25 for c in curves.values())

    monotone = all(
        b <= a + (1e-4 if name.startswith("two") else 1e-9)
        for name, c in curves.items()
        for a, b in zip(c, c[1:])
    )
    ordered = all(
        two >= one - 1e-9
        for one, two in zip(curves["one(0,0.1)"], curves["two(0,0.1)"])
    )
    qbers = sorted({r["qber"] for r in one_step_rows})
    by_q = dict(zip(qbers, curves["one(0,0.1)"]))
    sign_change = by_q[0.03] > 0.0 > by_q[0.04]
    root = _bisect_sign_change(0.03, 0.04)
    ok = monotone and ordered and sign_change and 0.03 < root < 0.04
    report(
        "criterion 6 (curve shapes)",
        ok,
        f"monotone={monotone}, two>=one pointwise={ordered}, "
        f"zero crossing at {root:.5f}",
    )


def _simulate_cli(*args) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = run_cli("simulate", "--pulses", "1000000", *args)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["result"], elapsed


def test_criterion_7_simulator_statistics():
    checks = []

    result, wall_a = _simulate_cli("--seed", "101")
    checks.append(("identity QBER", result["qber_estimate"] == 0.0))

    result, wall_b = _simulate_cli("--seed", "102", "--q00", "0.95", "--q10", "0.05")
    n_rec = result["basis_counts"]["rec"]
    sigma = 3.0 * math.sqrt(0.05 * 0.95 / n_rec)
    checks.append(("bit-flip rec QBER", abs(result["qber_rec"] - 0.05) <= sigma))
    checks.append(("bit-flip dia QBER", result["qber_dia"] == 0.0))

    result, wall_c = _simulate_cli(
        "--seed", "103", "--p-x1-l0", "1", "--p-x1-l1", "0",
        "--attacker", "intercept-resend-with-hints",
    )
    checks.append(("known-basis attack QBER", result["qber_estimate"] == 0.0))
    checks.append(("known-basis attack agreement", result["eve_agreement"] == 1.0))

    result, wall_d = _simulate_cli(
        "--seed", "104", "--attacker", "intercept-resend-with-hints"
    )
    sigma = 3.0 * math.sqrt(0.25 * 0.75 / result["sifted_count"])
    checks.append(("blind attack QBER", abs(result["qber_estimate"] - 0.25) <= sigma))

    slowest = max(wall_a, wall_b, wall_c, wall_d)
    checks.append(("runtime", slowest < 30.0))
    failed = [name for name, ok in checks if not ok]
    report(
        "criterion 7 (simulator statistics)",
        not failed,
        f"failed={failed or 'none'}, slowest scenario {slowest:.1f}s",
    )


def _random_state(rng) -> TwoQubitState:
    weights = rng.dirichlet(np.ones(3))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        rho += w * np.outer(vec, vec.conj())
    return TwoQubitState(rho)


def test_criterion_8_property_suites():
    rng = np.random.default_rng(88)
    failures = []

    # Channel action preserves the state invariants and is linear.
    for _ in range(1000):
        state = _random_state(rng)
        channel = PauliChannel(*rng.dirichlet(np.ones(4)))
        p_z = rng.uniform()
        out = apply_channel(state, channel, p_z).matrix
        if abs(out.trace() - 1.0) > 1e-12 or np.linalg.eigvalsh(out)[0] < -1e-10:
            failures.append("state invariants")
            break
    for _ in range(200):
        rho1, rho2 = _random_state(rng), _random_state(rng)
        alpha = rng.uniform()
        channel = PauliChannel(*rng.dirichlet(np.ones(4)))
        p_z = rng.uniform()
        mixed = apply_channel(
            TwoQubitState(alpha * rho1.matrix + (1 - alpha) * rho2.matrix), channel, p_z
        ).matrix
        split = alpha * apply_channel(rho1, channel, p_z).matrix + (
            1 - alpha
        ) * apply_channel(rho2, channel, p_z).matrix
        if not np.allclose(mixed, split, rtol=0, atol=1e-12):
            failures.append("linearity")
            break

    # Entropy symmetry and concavity.
    for e in rng.uniform(0.0, 1.0, size=1000):
        if abs(binary_entropy(e) - binary_entropy(1.0 - e)) > 1e-12:
            failures.append("entropy symmetry")
            break
    for a, b in rng.uniform(0.0, 1.0, size=(1000, 2)):
        if binary_entropy((a + b) / 2) < (binary_entropy(a) + binary_entropy(b)) / 2 - 1e-12:
            failures.append("entropy concavity")
            break

    # Optimizer determinism and feasibility of the reported minimizer.
    problem = TwoStepProblem(q_target=0.03, dev=DeviationParams(0.05, 0.1))
    first = solve_two_step(problem)
    second = solve_two_step(problem)
    if canonical_json(first.to_dict()) != canonical_json(second.to_dict()):
        failures.append("optimizer determinism")
    if max(constraint_residuals(problem, first.argmin).values()) > 1e-9:
        failures.append("argmin feasibility")

    # Per-basis flip sampling matches the density-matrix route exactly.
    source = build_source_state(0.5)
    for _ in range(1000):
        channel = PauliChannel(*rng.dirichlet(np.ones(4)))
        flip_rec, flip_dia = basis_flip_probabilities(channel)
        if (
            abs(flip_rec - error_rates(apply_channel(source, channel, 1.0)).e_bit) > 1e-12
            or abs(flip_dia - error_rates(apply_channel(source, channel, 0.0)).e_bit) > 1e-12
        ):
            failures.append("flip shortcut")
            break

    report(
        "criterion 8 (property suites)",
        not failures,
        f"failed={failures or 'none'}",
    )
