"""Tests of the benchmark's own arithmetic and checks; no CLI runs."""

import hashlib
import json
import sys
import types

import pytest

from layers import layer_metrics
from run import Run
from spans import Tracer, self_times
from workloads import (
    SWEEP_DEVS,
    SWEEP_HEADER,
    SWEEP_QBERS,
    WORKLOADS,
    Invocation,
    check_pulses,
    check_sweep,
    json_result_checksum,
    one_step_closed_form,
)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("output.csv_text", 1.0, 3.0, 0),
        ("output.canonical_json", 2.0, 4.0, 0),  # overlaps its sibling
        ("simulator.simulate", 8.0, 12.0, 0),  # runs past its parent
        ("quantum_core.error_rates", 8.5, 9.0, 3),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 3.5, 0.5])


def test_layer_self_times_partition_the_wall_time():
    tracer = Tracer("unused")
    tracer.spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("optimizer.solve_two_step", 1.0, 9.0, 0),
        ("optimizer._box_search", 2.0, 8.0, 1),
        ("optimizer._refine", 3.0, 7.0, 2),
        ("keyrate.evaluate_two_step_scenario", 8.0, 8.5, 1),
    ]
    metrics = layer_metrics(tracer, wall_s=10.0)
    assert metrics["optimizer.refine_s"] == pytest.approx(4.0)
    assert metrics["optimizer.grid_s"] == pytest.approx(2.0)
    assert metrics["optimizer.rebuild_s"] == pytest.approx(2.0)
    assert metrics["keyrate.busy_s"] == pytest.approx(0.5)
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["optimizer.solves"] == 1
    assert metrics["trace.accounted_ratio"] == pytest.approx(1.0)


def test_tracer_sees_aliases_and_restores_every_original():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    core.work = work
    user.work = work  # as ``from .core import work`` would bind it
    sys.modules.update({"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user})
    try:
        tracer = Tracer("fakepkg")
        tracer.span(core, "work", "core.work")
        assert user.work(1) == 2 and core.work(2) == 3
        assert [span[0] for span in tracer.spans] == ["core.work", "core.work"]
        assert tracer.unrestored() == ["fakepkg.core.work", "fakepkg.user.work"]
        tracer.restore()
        assert tracer.unrestored() == []
        assert core.work is work and user.work is work
    finally:
        for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
            del sys.modules[name]


def _json_payload(result_text: str) -> str:
    checksum = "sha256:" + hashlib.sha256(result_text.encode()).hexdigest()
    nested = result_text.replace("\n", "\n  ")
    return f'{{\n  "manifest": {{\n    "checksum": "{checksum}"\n  }},\n  "result": {nested}\n}}'


def test_result_checksum_matches_the_program():
    output = pytest.importorskip("bb84_weakrand.output")
    result = {"rate": 0.5, "nested": {"rows": [1, 2.5, "x"]}, "passed": True}
    payload = output.canonical_json({"manifest": {"checksum": "c"}, "result": result})
    recomputed, _ = json_result_checksum(payload)
    assert recomputed == output.checksum_of(output.canonical_json(result))


def test_wrong_golden_checksum_is_a_failure_not_a_crash(tmp_path):
    out = tmp_path / "out.json"
    out.write_text(_json_payload('{\n  "a": 1\n}'))
    wrong = Invocation("x", (), out, lambda inv: [], {"checksum": "sha256:" + "0" * 64})
    right = Invocation("x", (), out, lambda inv: [], {"checksum": json_result_checksum(out.read_text())[1]})
    missing = Invocation("x", (), tmp_path / "absent.json", lambda inv: [], None)
    assert right.problems(0) == []
    run = Run(WORKLOADS["bounds"], trace=False)
    for problems in (wrong.problems(0), missing.problems(0), right.problems(2)):
        assert len(problems) == 1
        run.record(problems)
    assert "golden" in run.problems[0] and "unreadable" in run.problems[1]
    assert (run.attempted, run.failed) == (3, 3)


def _sweep_csv(path, perturb=0.0):
    lines = [",".join(SWEEP_HEADER)]
    for q in SWEEP_QBERS:
        for eps0, eps1 in SWEEP_DEVS:
            one = one_step_closed_form(q, eps0, eps1) + perturb
            two = 0.6642 if (round(q, 9), eps1) == (0.02, 0.1) and eps0 == 0.0 else 0.5
            for method, rate in (("one-step", one), ("two-step", two)):
                lines.append(f"{q:.9g},{eps0!r},{eps1!r},{method},{rate:.9g},{max(rate, 0.0):.9g}")
    path.write_text("\n".join(lines) + "\n")
    return Invocation("curves", (), path, check_sweep, None)


def test_sweep_invariants_reject_a_perturbed_rate(tmp_path):
    assert check_sweep(_sweep_csv(tmp_path / "ok.csv")) == []
    problems = check_sweep(_sweep_csv(tmp_path / "bad.csv", perturb=-1e-6))
    assert len(problems) == len(SWEEP_QBERS) * len(SWEEP_DEVS)
    assert all("closed form" in p for p in problems)


def _pulses_payload(path, one_step_rate):
    qber, sifted = 0.025, 2_000_000
    result = {
        "n_pulses": 4_000_000, "seed": 3, "sifted_count": sifted,
        "basis_counts": {"rec": 1_000_000, "dia": 1_000_000},
        "qber_estimate": qber, "qber_std_error": (qber * (1 - qber) / sifted) ** 0.5,
        "derived_rates": {"deviation": {"eps0": 0.0, "eps1": 0.1}, "one_step": {"rate": one_step_rate}},
    }
    path.write_text('{"manifest": {}, "result": ' + json.dumps(result) + "}")
    return Invocation("pulses", (), path, lambda inv: check_pulses(inv, 3), None)


def test_pulse_invariants_reject_a_perturbed_rate(tmp_path):
    closed = one_step_closed_form(0.025, 0.0, 0.1)
    assert check_pulses(_pulses_payload(tmp_path / "ok.json", closed), 3) == []
    problems = check_pulses(_pulses_payload(tmp_path / "bad.json", closed + 1e-4), 3)
    assert len(problems) == 1 and "closed form" in problems[0]


def test_benchmark_json_names_every_reported_metric():
    from pathlib import Path

    from layers import PER_LAYER

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s", "items_per_s"]
