"""Benchmark of the ``bb84_weakrand`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload curves --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all    # every workload, both modes

``--trace 0`` runs the workload's CLI invocations, one fresh
``python -m bb84_weakrand`` subprocess at a time (a closed loop with one
client), for at least ``--seconds``, after one discarded warm-up pass,
and reports wall time, child peak RSS, set-up time and throughput.
Each time is the median of its wall-clock samples in the run.

``--trace 1`` replays the same argument lists in this process through
``cli.main``, alternating untraced and traced replays, and reports the
per-layer figures derived from spans recorded around the package's
functions (see ``layers.py``); the package's own files are not edited.
The traced outputs must equal the untraced ones byte for byte, apart
from the manifest timestamp, and every wrapped function must be back in
place afterwards.  The last traced replay's spans are written to
``.bench_work/spans-<workload>.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run fails when an invocation's exit code or output is
wrong; ``failed / attempted`` is the fail ratio.  Scratch files go to
``.bench_work/`` in the checkout.  The benchmark's own tests run with
``python -m pytest bench``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from layers import SELF_TIMES
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
# Every run must end well inside three minutes, whatever --seconds says.
DEADLINE_S = 160.0

# Share of the traced wall that the layer self times may leave unexplained.
ACCOUNTED_TOL = 0.01

TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


class Run:
    """Outcome of one workload in one mode."""

    def __init__(self, workload: Workload, trace: bool):
        self.workload = workload
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.samples: dict[str, int] = {}

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (value, unit)
        self.samples[name] = samples


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict, deadline: float, stderr_path: Path) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one child, from spawn to exit."""
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=stderr,
        )
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_end_to_end(workload: Workload, seed: int, seconds: float, out: Path) -> Run:
    run = Run(workload, trace=False)
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    err = out / "stderr.txt"
    invocations = workload.build(seed, out)
    cli = [sys.executable, "-m", "bb84_weakrand"]

    for inv in invocations:  # warm-up: settles the page cache, discarded
        inv.clear()
        spawn(cli + list(inv.args), env, deadline, err)

    setup = []
    import_argv = [sys.executable, "-c", "import " + ", ".join(workload.imports)]
    for _ in range(SETUP_SAMPLES):
        wall, _rss, code = spawn(import_argv, env, deadline, err)
        setup.append(wall)
        run.record([] if code == 0 else [f"set-up import exited {code}: {err.read_text()[-300:]}"])

    walls, rates, peak = [], [], 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and time.monotonic() < deadline:
        wall = 0.0
        for inv in invocations:
            inv.clear()
            elapsed, rss, code = spawn(cli + list(inv.args), env, deadline, err)
            wall += elapsed
            peak = max(peak, rss)
            problems = inv.problems(code)
            if problems and code != inv.expect_exit:
                problems.append(err.read_text()[-300:])
            run.record(problems)
        walls.append(wall)
        rates.append(workload.items / wall)

    run.put("wall_s", statistics.median(walls), "s", len(walls))
    run.put("peak_rss_mb", peak, "MB", run.attempted - SETUP_SAMPLES)
    run.put("setup_s", statistics.median(setup), "s", len(setup))
    run.put("items_per_s", statistics.median(rates), "1/s", len(rates))
    return run


def _replay(cli, invocations) -> tuple[float, list]:
    for inv in invocations:
        inv.clear()
    codes = []
    start = time.perf_counter()
    for inv in invocations:
        try:
            codes.append(cli.main(list(inv.args)))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            codes.append(exc.code)
    return time.perf_counter() - start, codes


def _same_bytes(plain, traced) -> list[str]:
    problems = []
    for a, b in zip(plain, traced):
        for path_a, path_b in zip(a.paths(), b.paths()):
            if not (path_a.exists() and path_b.exists()):
                continue  # a missing output already fails the run's own checks
            if TIMESTAMP.sub(b"", path_a.read_bytes()) != TIMESTAMP.sub(b"", path_b.read_bytes()):
                problems.append(f"{b.label}: traced {path_b.name} differs from the untraced run")
    return problems


def run_traced(workload: Workload, seed: int, seconds: float, out: Path) -> Run:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from layers import EXACT, PACKAGE, PER_LAYER, import_layers, install, layer_metrics
    from spans import Tracer

    run = Run(workload, trace=True)
    cli = import_layers()["cli"]
    plain = workload.build(seed, out / "plain")
    traced = workload.build(seed, out / "traced")
    for directory in (out / "plain", out / "traced"):
        directory.mkdir()

    _replay(cli, plain)  # warm-up: first calls and caches, discarded
    bases, replays, tracer = [], [], None
    deadline = time.monotonic() + DEADLINE_S
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and time.monotonic() < deadline:
        base, codes = _replay(cli, plain)
        for inv, code in zip(plain, codes):
            run.record(inv.problems(code))
        bases.append(base)

        tracer = Tracer(PACKAGE)
        install(tracer)
        try:
            wall, codes = _replay(cli, traced)
        finally:
            tracer.restore()
        integrity = [f"{name} still wrapped after the traced run" for name in tracer.unrestored()]
        integrity += _same_bytes(plain, traced)
        for inv, code in zip(traced, codes):
            run.record(inv.problems(code) + integrity)
            integrity = []
        metrics = layer_metrics(tracer, wall)
        if abs(metrics["trace.accounted_ratio"] - 1.0) > ACCOUNTED_TOL:
            run.record([f"layer self times cover {metrics['trace.accounted_ratio']:.4f} of the traced wall"])
        replays.append(metrics)

    for name, (unit, _better) in PER_LAYER.items():
        values = [r[name] for r in replays if name in r]
        if name in EXACT:
            if len(set(values)) > 1:
                run.record([f"{name} differs between replays: {sorted(set(values))}"])
            run.put(name, values[0], unit, len(values))
        elif values:
            run.put(name, statistics.median(values), unit, len(values))
    base = statistics.median(bases)
    run.put("trace.base_s", base, "s", len(bases))
    run.put("trace.overhead_ratio", run.metrics["trace.wall_s"][0] / base, "ratio", len(bases))
    run.metrics = {name: run.metrics[name] for name in PER_LAYER}

    WORK.mkdir(exist_ok=True)
    spans = {"workload": workload.name, "seed": seed, "spans": tracer.spans}
    (WORK / f"spans-{workload.name}.json").write_text(json.dumps(spans))
    return run


def environment(seed: int) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def report(run: Run, seed: int) -> None:
    w = run.workload
    mode = "per-layer (traced, in-process)" if run.trace else "end-to-end (tracing off)"
    print(f"== {w.name}: {mode}, seed {seed}")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name:30s} {value:>16.6g} {unit:10s} n={run.samples[name]}")
    if not run.trace:
        print(f"  items_per_s counts {w.item}: {w.items} per pass over the workload")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'fail_ratio':30s} {ratio:>16.6g} {'ratio':10s} {run.failed}/{run.attempted}")
    for problem in run.problems[:20]:
        print(f"  FAIL {problem}")
    if run.trace:
        wall = run.metrics["trace.wall_s"][0]
        shares = sorted(((run.metrics[name][0] / wall, name) for name in SELF_TIMES), reverse=True)
        print("  share of traced wall: " + ", ".join(f"{n} {s:.1%}" for s, n in shares[:5]))
    for text, figure, unit, metric in w.baselines:
        if metric in run.metrics:
            print(f"  baseline {text}: {figure:.4g} {unit}; measured {metric} {run.metrics[metric][0]:.4g}")
    env = environment(seed) | {"samples": run.samples}
    print("  env " + json.dumps(env, sort_keys=True))


def result_line(runs: list[Run], prefix: bool) -> str:
    metrics = {}
    for run in runs:
        for name, (value, unit) in run.metrics.items():
            key = f"{run.workload.name}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    correct = attempted > 0 and failed == 0
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def _terminate(_signum, _frame):
    sys.exit(1)  # unwinds through spawn(), which kills and reaps its child


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end to end, 1: per layer; all workloads run both when omitted")
    args = parser.parse_args()
    if not (SRC / "bb84_weakrand" / "cli.py").is_file():
        print(f"error: no bb84_weakrand sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        print("error: --seed must be in [0, 2^64) and --seconds positive", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    WORK.mkdir(exist_ok=True)
    runs = []
    for trace in modes:
        for name in names:
            out = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
            try:
                runner = run_traced if trace else run_end_to_end
                run = runner(WORKLOADS[name], args.seed, args.seconds, out)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            report(run, args.seed)
            runs.append(run)
    print(result_line(runs, prefix=len(runs) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
