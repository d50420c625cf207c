"""The benchmark's workloads: CLI argument lists, golden outputs and invariants.

Each workload is a fixed list of ``python -m bb84_weakrand`` invocations.
The workload seed reaches the program only as each invocation's
``--seed``: it changes the simulator's random stream and nothing else,
so the work done, and hence the timings, stay comparable across seeds.
The solver and the oracle are deterministic, so their result checksums
are golden for every seed; the simulator's are golden for
``DEFAULT_SEED`` only.  Every seed is also checked against invariants
the benchmark recomputes itself, without importing the program.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
EXIT_OK = 0
VIOLATION_TOL = 1e-9
SIGMAS = 6.0

SWEEP_QBERS = [i * 0.01 for i in range(12)]
SWEEP_DEVS = [(0.0, 0.0), (0.0, 0.1), (0.1, 0.1)]
SWEEP_HEADER = ["qber", "eps0", "eps1", "method", "rate", "rate_clamped"]
DUMP_HEADER = ["lambda0", "lambda1", "x0", "x1", "y", "bob_bit", "sifted", "eve_guess"]
ONE_STEP_GRID = 41
CROSS_BASIS_GRID = 81
PULSES = 4_000_000
DUMP_PULSES = 200_000

# Checksums recorded when this benchmark was added.  "checksum" is the manifest
# checksum of the result (the sidecar's for the sweep CSV); "dump" is the
# sha256 of the per-pulse dump file.
GOLDEN = {
    "curves": {
        "checksum": "sha256:78e9c69bb26453ca72342548f0554741296381d789fb24754afd971ea35f1e64",
    },
    "bounds.one-step": {
        "checksum": "sha256:7d33f31bf4b1787d83e68b5d3eb219afe364ac36de90618e2a87140aaad86414",
    },
    "bounds.cross-basis": {
        "checksum": "sha256:61e7cfcf2714d723b2840d9bafb5ba7ae04db3697b9bf2f4655fbb553055651b",
    },
    "pulses": {
        "checksum": "sha256:8977e58ff5e989df7256c10a8fd4c3bfd020966a1607bf08513b41500c3cc384",
    },
    "transcript": {
        "checksum": "sha256:712d1eb2dd7534adf809a7055c6448cf6b43e0432c89c3c25c603394be9bbf8e",
        "dump": "sha256:b1e932c2a556affe8f4af572fc75b17c908f22966814f9d7bd463efa04c44b91",
    },
}


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def phase_gap(eps0: float) -> float:
    return 0.5 - math.sqrt(0.25 - eps0 * eps0)


def one_step_closed_form(q: float, eps0: float, eps1: float) -> float:
    """1 - h(min(q + max(gap(eps0), 2 eps1), 1/2)) - h(q)."""
    delta = max(phase_gap(eps0), 2.0 * eps1)
    return 1.0 - binary_entropy(min(q + delta, 0.5)) - binary_entropy(q)


def simplex_size(grid: int) -> int:
    return math.comb(grid + 3, 3)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def json_result_checksum(text: str) -> tuple[str, str]:
    """(recomputed, recorded) checksum of a JSON payload's ``result`` subtree.

    The payload is canonical JSON with two-space indentation and the keys
    ``manifest`` and ``result`` in that order, so the subtree's own
    canonical text is its slice with one indentation level removed.
    """
    marker = '\n  "result": '
    start = text.index(marker) + len(marker)
    if not text.endswith("\n}"):
        raise ValueError("payload does not end with a closing brace")
    lines = text[start:-2].split("\n")
    subtree = "\n".join(lines[:1] + [line[2:] for line in lines[1:]])
    recomputed = "sha256:" + hashlib.sha256(subtree.encode("utf-8")).hexdigest()
    return recomputed, json.loads(text)["manifest"]["checksum"]


@dataclass(frozen=True)
class Invocation:
    """One CLI run and how to check what it wrote."""

    label: str
    args: tuple[str, ...]
    out: Path
    invariants: Callable[["Invocation"], list[str]]
    golden: dict | None
    dump: Path | None = None
    expect_exit: int = EXIT_OK

    def paths(self) -> list[Path]:
        sidecar = [Path(f"{self.out}.manifest.json")] if self.out.suffix == ".csv" else []
        return [self.out, *sidecar, *([self.dump] if self.dump else [])]

    def clear(self) -> None:
        for path in self.paths():
            path.unlink(missing_ok=True)

    def checksums(self) -> dict[str, str]:
        """Output checksums, after checking each against its manifest."""
        if self.out.suffix == ".csv":
            recomputed = sha256_file(self.out)
            recorded = json.loads(Path(f"{self.out}.manifest.json").read_text())["checksum"]
        else:
            recomputed, recorded = json_result_checksum(self.out.read_text(encoding="utf-8"))
        if recomputed != recorded:
            raise ValueError(f"manifest checksum {recorded} but the data hash to {recomputed}")
        found = {"checksum": recomputed}
        if self.dump is not None:
            found["dump"] = sha256_file(self.dump)
        return found

    def problems(self, exit_code: int) -> list[str]:
        """Everything wrong with this run's exit code and outputs; [] when correct."""
        if exit_code != self.expect_exit:
            return [f"{self.label}: exit code {exit_code}, expected {self.expect_exit}"]
        try:
            found = self.checksums()
            wrong = [
                f"{self.label}: {key} {found.get(key)} differs from golden {value}"
                for key, value in (self.golden or {}).items()
                if found.get(key) != value
            ]
            return wrong + [f"{self.label}: {p}" for p in self.invariants(self)]
        except Exception as exc:  # a malformed output is a failed run, not a crash
            return [f"{self.label}: unreadable output: {type(exc).__name__}: {exc}"]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError("CSV does not end with a newline")
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


def _result(inv: Invocation) -> dict:
    return json.loads(inv.out.read_text(encoding="utf-8"))["result"]


def check_sweep(inv: Invocation) -> list[str]:
    header, rows = _read_csv(inv.out)
    if header != SWEEP_HEADER:
        return [f"header {header}"]
    expected = [
        (q, eps0, eps1, method)
        for q in SWEEP_QBERS
        for eps0, eps1 in SWEEP_DEVS
        for method in ("one-step", "two-step")
    ]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    problems = []
    for row, (q, eps0, eps1, method) in zip(rows, expected):
        point = (float(row[0]), float(row[1]), float(row[2]), row[3])
        rate, clamped = float(row[4]), float(row[5])
        if not (_close(point[0], q, 1e-12) and point[1:] == (eps0, eps1, method)):
            problems.append(f"row {row[:4]} where {(q, eps0, eps1, method)} was expected")
            continue
        if not (math.isfinite(rate) and rate <= 1.0 + 1e-9 and _close(clamped, max(rate, 0.0), 1e-9)):
            problems.append(f"row {row}: rate or clamp out of range")
        if method == "one-step" and not _close(rate, one_step_closed_form(q, eps0, eps1), 1e-8):
            problems.append(f"row {row}: one-step rate is not the closed form")
        if (round(q, 9), eps0, eps1) == (0.02, 0.0, 0.1):
            reference = 0.0984 if method == "one-step" else 0.6642
            if round(rate, 4) != reference:
                problems.append(f"row {row}: {method} reference {reference} not reproduced")
    return problems


def _check_bound(inv: Invocation, target: str, bound: float, points: int, grid: int) -> list[str]:
    result = _result(inv)
    problems = []
    if result["target"] != target or result["grid_resolution"] != grid:
        problems.append(f"target {result['target']} grid {result['grid_resolution']}")
    if result["passed"] is not True or result["max_violation"] > VIOLATION_TOL:
        problems.append(f"bound violated by {result['max_violation']}")
    if not _close(result["bound"], bound, 1e-9):
        problems.append(f"bound {result['bound']}, closed form {bound}")
    if result["points_checked"] != points:
        problems.append(f"{result['points_checked']} points checked, expected {points}")
    return problems


def _qber_problems(result: dict, n_pulses: int, seed: int, expected_qber: float) -> list[str]:
    problems = []
    sifted = result["sifted_count"]
    if result["n_pulses"] != n_pulses or result["seed"] != seed:
        problems.append(f"n_pulses {result['n_pulses']} seed {result['seed']}")
    if result["basis_counts"]["rec"] + result["basis_counts"]["dia"] != sifted:
        problems.append("basis counts do not add up to the sifted count")
    if abs(sifted - n_pulses / 2) > SIGMAS * math.sqrt(n_pulses) / 2:
        problems.append(f"sifted count {sifted} is implausible for {n_pulses} pulses")
    qber = result["qber_estimate"]
    sigma = math.sqrt(expected_qber * (1.0 - expected_qber) / sifted)
    if abs(qber - expected_qber) > SIGMAS * sigma:
        problems.append(f"QBER {qber} is more than {SIGMAS} sigma from {expected_qber}")
    if not _close(result["qber_std_error"], math.sqrt(qber * (1.0 - qber) / sifted), 1e-9):
        problems.append("QBER standard error is not the binomial one")
    return problems


def check_pulses(inv: Invocation, seed: int) -> list[str]:
    result = _result(inv)
    # Rectilinear flips are X or XZ (0.05), diagonal ones Z or XZ (0), and
    # the biased basis choices (0.6, 0.4) still balance to 1/2.
    problems = _qber_problems(result, PULSES, seed, expected_qber=0.5 * 0.05)
    derived = result["derived_rates"]
    if derived["deviation"] != {"eps0": 0.0, "eps1": 0.1}:
        problems.append(f"derived deviation {derived['deviation']}")
    closed = one_step_closed_form(result["qber_estimate"], 0.0, 0.1)
    if not _close(derived["one_step"]["rate"], closed, 1e-7):
        problems.append(f"derived one-step rate {derived['one_step']['rate']}, closed form {closed}")
    return problems


def check_transcript(inv: Invocation, seed: int) -> list[str]:
    result = _result(inv)
    # Eve always measures rectilinearly (the fair basis coin ties), so
    # diagonal pulses carry a 1/2 error and rectilinear ones none.
    problems = _qber_problems(result, DUMP_PULSES, seed, expected_qber=0.25)
    header, rows = _read_csv(inv.dump)
    if header != DUMP_HEADER or len(rows) != DUMP_PULSES:
        return problems + [f"dump has header {header} and {len(rows)} rows"]
    sifted = [row for row in rows if row[6] == "1"]
    errors = sum(1 for row in sifted if row[5] != row[2])
    agree = sum(1 for row in sifted if row[7] == row[2])
    rec = sum(1 for row in sifted if row[3] == "0")
    if len(sifted) != result["sifted_count"]:
        problems.append(f"dump has {len(sifted)} sifted rows, report {result['sifted_count']}")
    elif not (
        _close(errors / len(sifted), result["qber_estimate"], 1e-9)
        and _close(agree / len(sifted), result["eve_agreement"], 1e-9)
        and rec == result["basis_counts"]["rec"]
    ):
        problems.append("dump rows disagree with the report's QBER, Eve agreement or basis counts")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str
    items: int
    # Modules the command imports, lazily included: the fresh-interpreter
    # import of these is the workload's set-up time.
    imports: tuple[str, ...]
    build: Callable[[int, Path], list[Invocation]]
    # Earlier 2-core measurements, from ROADMAP Open item 1 and before,
    # printed next to the measured ones: (description, figure, unit, metric).
    baselines: tuple


def _golden(label: str, seed: int, seed_free: bool) -> dict | None:
    return GOLDEN[label] if seed_free or seed == DEFAULT_SEED else None


def _curves(seed: int, out: Path) -> list[Invocation]:
    path = out / "curves.csv"
    args = ["sweep", "--qber", "0:0.12:0.01"]
    for eps0, eps1 in SWEEP_DEVS:
        args += ["--dev", f"{eps0:g},{eps1:g}"]
    args += ["--method", "one-step", "--method", "two-step", "--seed", str(seed), "--out", str(path)]
    return [Invocation("curves", tuple(args), path, check_sweep, _golden("curves", seed, True))]


def _bounds(seed: int, out: Path) -> list[Invocation]:
    one, cross = out / "bounds-one-step.json", out / "bounds-cross-basis.json"
    return [
        Invocation(
            "bounds.one-step",
            ("verify", "--target", "one-step", "--eps0", "0.1", "--eps1", "0.1",
             "--grid", str(ONE_STEP_GRID), "--seed", str(seed), "--out", str(one)),
            one,
            lambda inv: _check_bound(
                inv, "one-step", max(phase_gap(0.1), 0.2),
                simplex_size(ONE_STEP_GRID) * ONE_STEP_GRID**2, ONE_STEP_GRID,
            ),
            _golden("bounds.one-step", seed, True),
        ),
        Invocation(
            "bounds.cross-basis",
            ("verify", "--target", "cross-basis", "--eps0", "0.1",
             "--grid", str(CROSS_BASIS_GRID), "--seed", str(seed), "--out", str(cross)),
            cross,
            lambda inv: _check_bound(
                inv, "cross-basis", phase_gap(0.1),
                simplex_size(CROSS_BASIS_GRID) * CROSS_BASIS_GRID, CROSS_BASIS_GRID,
            ),
            _golden("bounds.cross-basis", seed, True),
        ),
    ]


def _pulses(seed: int, out: Path) -> list[Invocation]:
    path = out / "pulses.json"
    args = ("simulate", "--pulses", str(PULSES), "--q00", "0.95", "--q10", "0.05",
            "--p-x1-l0", "0.6", "--p-x1-l1", "0.4", "--seed", str(seed), "--out", str(path))
    return [Invocation("pulses", args, path, lambda inv: check_pulses(inv, seed),
                       _golden("pulses", seed, False))]


def _transcript(seed: int, out: Path) -> list[Invocation]:
    path, dump = out / "transcript.json", out / "transcript.csv"
    args = ("simulate", "--pulses", str(DUMP_PULSES), "--attacker", "intercept-resend-with-hints",
            "--dump-pulses", str(dump), "--seed", str(seed), "--out", str(path))
    return [Invocation("transcript", args, path, lambda inv: check_transcript(inv, seed),
                       _golden("transcript", seed, False), dump=dump)]


_CLI = "bb84_weakrand.cli"
_SOLVER = ("bb84_weakrand.optimizer", "scipy.optimize")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "curves",
            "72-row sweep with 36 two-step solves: nearly all optimizer grid scan and Nelder-Mead polish",
            "two-step solves", 36, (_CLI, *_SOLVER), _curves,
            (("sweep of 25 two-step points (CLI) 8.2 s, x 36/25", 8.2 * 36 / 25, "s", "wall_s"),
             ("solve_two_step in-process", 0.48, "s", "optimizer.solve_s.p50"),
             ("import of the package plus scipy (earlier measurement)", 0.65, "s", "setup_s")),
        ),
        Workload(
            "bounds",
            "two brute-force error-gap scans: bound_oracle and quantum_core work with no optimizer",
            "points checked",
            simplex_size(ONE_STEP_GRID) * ONE_STEP_GRID**2 + simplex_size(CROSS_BASIS_GRID) * CROSS_BASIS_GRID,
            (_CLI, "bb84_weakrand.bound_oracle"), _bounds,
            (("the same verify pair (earlier measurement)", 1.2, "s", "wall_s"),
             ("rate --method one-step (CLI), mostly start-up", 0.31, "s", "setup_s")),
        ),
        Workload(
            "pulses",
            "4M-pulse simulation: simulator draw and aggregation, memory that grows with pulses, one derived solve",
            "pulses", PULSES, (_CLI, "bb84_weakrand.simulator", *_SOLVER), _pulses,
            (("simulate 4M pulses (earlier measurement)", 1.5, "s", "wall_s"),
             ("simulate 4M pulses peak RSS (earlier measurement)", 424.0, "MB", "peak_rss_mb"),
             ("draws 0.17 s per 1M pulses, x 4", 0.68, "s", "simulator.draw_s"),
             ("import of the package plus scipy (earlier measurement)", 0.65, "s", "setup_s")),
        ),
        Workload(
            "transcript",
            "200k-pulse simulation with a per-pulse CSV dump: record building and CSV formatting, tiny draw",
            "dumped rows", DUMP_PULSES, (_CLI, "bb84_weakrand.simulator", *_SOLVER), _transcript,
            (("1M-pulse dump (CLI) 17.8 s, x 0.2", 17.8 * 0.2, "s", "wall_s"),
             ("200k-pulse dump peak RSS (earlier measurement)", 158.0, "MB", "peak_rss_mb")),
        ),
    )
}
