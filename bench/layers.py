"""Which functions of ``bb84_weakrand`` are traced, and the per-layer metrics.

A layer is one module of the package.  Each spanned function is named
``<module>.<function>``; its self time is charged to its module, so the
layer self times partition the traced wall time of the replay.
Functions called once per objective evaluation or per pulse are only
counted, or left alone, because a span would cost more than their work:
``optimizer._reduced_objective_scalar`` is counted, and
``keyrate.phase_gap_bound``, which it calls, is not wrapped at all.
"""

from __future__ import annotations

import importlib
import statistics

from spans import Tracer, self_times

PACKAGE = "bb84_weakrand"
MODULES = ("cli", "output", "keyrate", "optimizer", "bound_oracle", "simulator", "quantum_core")
DRAWS_PER_PULSE = 8
BYTES_PER_DRAW = 8

SPANNED = {
    "cli": ("main",),
    "output": ("canonical_json", "csv_text", "checksum_of"),
    "keyrate": (
        "one_step_rate",
        "one_step_delta",
        "strong_randomness_rate",
        "evaluate_two_step_scenario",
        "worst_case_phase_error",
    ),
    "optimizer": (
        "solve_two_step",
        "_box_search",
        "_refine",
        "_reconstruct_scenario",
        "constraint_residuals",
    ),
    "bound_oracle": (
        "verify_one_step_bound",
        "verify_cross_basis_bound",
        "simplex_grid",
        "_pure_rates",
        "_cross_basis_pure",
    ),
    "simulator": ("simulate", "_run_pulses", "_derive_rates"),
    "quantum_core": ("build_source_state", "apply_channel", "error_rates", "binary_entropy"),
}

# Metric name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "optimizer.solves": ("count", "higher"),
    "optimizer.solve_s.p50": ("s", "lower"),
    "optimizer.solve_s.p90": ("s", "lower"),
    "optimizer.grid_s": ("s", "lower"),
    "optimizer.refine_s": ("s", "lower"),
    "optimizer.rebuild_s": ("s", "lower"),
    "optimizer.objective_evals": ("count", "lower"),
    "optimizer.grid_evals": ("count", "lower"),
    "optimizer.iterations": ("count", "lower"),
    "optimizer.starts": ("count", "lower"),
    "optimizer.useful_start_ratio": ("ratio", "higher"),
    "optimizer.residual_max": ("prob", "lower"),
    "bound_oracle.scan_s": ("s", "lower"),
    "bound_oracle.points": ("count", "higher"),
    "bound_oracle.band_evals": ("count", "lower"),
    "quantum_core.busy_s": ("s", "lower"),
    "quantum_core.states": ("count", "lower"),
    "simulator.draw_s": ("s", "lower"),
    "simulator.derive_s": ("s", "lower"),
    "simulator.self_s": ("s", "lower"),
    "simulator.pulses": ("count", "higher"),
    "simulator.bytes_drawn": ("B_computed", "lower"),
    "simulator.sifted_ratio": ("ratio", "higher"),
    "output.busy_s": ("s", "lower"),
    "output.bytes": ("B", "lower"),
    "output.fields": ("count", "lower"),
    "keyrate.busy_s": ("s", "lower"),
    "keyrate.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.base_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.accounted_ratio": ("ratio", "higher"),
}

# Self-time metrics, printed as shares of the traced wall time.
SELF_TIMES = (
    "optimizer.grid_s",
    "optimizer.refine_s",
    "bound_oracle.scan_s",
    "quantum_core.busy_s",
    "simulator.draw_s",
    "simulator.self_s",
    "output.busy_s",
    "keyrate.busy_s",
    "cli.self_s",
)

# Counts the program makes deterministically: a replay that disagrees with
# the first one is a failure, not noise.
EXACT = (
    "optimizer.solves",
    "optimizer.objective_evals",
    "optimizer.grid_evals",
    "optimizer.iterations",
    "optimizer.starts",
    "bound_oracle.points",
    "bound_oracle.band_evals",
    "quantum_core.states",
    "simulator.pulses",
    "output.bytes",
    "output.fields",
    "keyrate.calls",
)


def _on_solve(tracer: Tracer, result, _args) -> None:
    report = result.solver_report
    trace = report["best_objective_trace"]
    tracer.counts["optimizer.grid_evals"] += report["grid_evaluations"]
    tracer.counts["optimizer.iterations"] += report["iterations"]
    tracer.counts["optimizer.starts"] += report["restarts"]
    tracer.counts["optimizer.useful_starts"] += sum(
        1 for before, after in zip(trace, trace[1:]) if after < before
    )
    tracer.values["optimizer.residual"].append(report["feasibility_residual"])


def _on_verify(tracer: Tracer, report, _args) -> None:
    tracer.counts["bound_oracle.points"] += report.points_checked


def _on_simulate(tracer: Tracer, result, _args) -> None:
    report = result[0] if isinstance(result, tuple) else result
    tracer.counts["simulator.pulses"] += report.n_pulses
    tracer.counts["simulator.sifted"] += report.sifted_count


def _scalar_leaves(value) -> int:
    if isinstance(value, dict):
        return sum(_scalar_leaves(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_scalar_leaves(item) for item in value)
    return 1


def _on_json(tracer: Tracer, text: str, args) -> None:
    tracer.counts["output.bytes"] += len(text.encode("utf-8"))
    tracer.counts["output.fields"] += _scalar_leaves(args[0])


def _on_csv(tracer: Tracer, text: str, args) -> None:
    header, rows = args
    tracer.counts["output.bytes"] += len(text.encode("utf-8"))
    tracer.counts["output.fields"] += len(header) + sum(len(row) for row in rows)


ON_RETURN = {
    "optimizer.solve_two_step": _on_solve,
    "bound_oracle.verify_one_step_bound": _on_verify,
    "bound_oracle.verify_cross_basis_bound": _on_verify,
    "simulator.simulate": _on_simulate,
    "output.canonical_json": _on_json,
    "output.csv_text": _on_csv,
}


def import_layers() -> dict:
    """Import every traced module, so wrapping also reaches lazy imports."""
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    importlib.import_module("scipy.optimize")
    return modules


def install(tracer: Tracer) -> None:
    modules = import_layers()
    for layer, funcs in SPANNED.items():
        for func in funcs:
            name = f"{layer}.{func}"
            tracer.span(modules[layer], func, name, ON_RETURN.get(name))
    tracer.count(modules["optimizer"], "_reduced_objective_scalar", "optimizer.objective_evals")
    tracer.count(modules["quantum_core"].TwoQubitState, "__post_init__", "quantum_core.states")


def _quantile(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced replay that took ``wall_s``."""
    spans = tracer.spans
    own = self_times(spans)
    counts = tracer.counts
    busy = dict.fromkeys(MODULES, 0.0)
    by_name: dict[str, list[float]] = {}
    self_by_name: dict[str, float] = {}
    for (name, start, end, _parent), self_s in zip(spans, own):
        busy[name.split(".", 1)[0]] += self_s
        by_name.setdefault(name, []).append(end - start)
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s

    def total(name: str) -> float:
        return sum(by_name.get(name, ()), 0.0)

    def calls(*names: str) -> int:
        return sum(len(by_name.get(name, ())) for name in names)

    solves = by_name.get("optimizer.solve_two_step", [])
    starts = counts["optimizer.starts"]
    pulses = counts["simulator.pulses"]
    return {
        "optimizer.solves": len(solves),
        "optimizer.solve_s.p50": _quantile(solves, 0.5),
        "optimizer.solve_s.p90": _quantile(solves, 0.9),
        "optimizer.grid_s": self_by_name.get("optimizer._box_search", 0.0),
        "optimizer.refine_s": self_by_name.get("optimizer._refine", 0.0),
        # Everything a solve does outside the search: rebuilding the
        # scenario, its residuals and the exact re-evaluation.
        "optimizer.rebuild_s": sum(solves, 0.0) - total("optimizer._box_search"),
        "optimizer.objective_evals": counts["optimizer.objective_evals"],
        "optimizer.grid_evals": counts["optimizer.grid_evals"],
        "optimizer.iterations": counts["optimizer.iterations"],
        "optimizer.starts": starts,
        "optimizer.useful_start_ratio": counts["optimizer.useful_starts"] / starts if starts else 0.0,
        "optimizer.residual_max": max(tracer.values["optimizer.residual"], default=0.0),
        "bound_oracle.scan_s": busy["bound_oracle"],
        "bound_oracle.points": counts["bound_oracle.points"],
        "bound_oracle.band_evals": calls("bound_oracle._pure_rates", "bound_oracle._cross_basis_pure"),
        "quantum_core.busy_s": busy["quantum_core"],
        "quantum_core.states": counts["quantum_core.states"],
        "simulator.draw_s": total("simulator._run_pulses"),
        "simulator.derive_s": total("simulator._derive_rates"),
        "simulator.self_s": self_by_name.get("simulator.simulate", 0.0),
        "simulator.pulses": pulses,
        "simulator.bytes_drawn": pulses * DRAWS_PER_PULSE * BYTES_PER_DRAW,
        "simulator.sifted_ratio": counts["simulator.sifted"] / pulses if pulses else 0.0,
        "output.busy_s": busy["output"],
        "output.bytes": counts["output.bytes"],
        "output.fields": counts["output.fields"],
        "keyrate.busy_s": busy["keyrate"],
        "keyrate.calls": calls(*(f"keyrate.{func}" for func in SPANNED["keyrate"])),
        "cli.self_s": busy["cli"],
        "trace.wall_s": wall_s,
        "trace.accounted_ratio": sum(busy.values()) / wall_s,
    }
