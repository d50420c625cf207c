"""Command-line front end: rate queries, sweeps, bound checks, simulations.

Every command prints machine-readable output (JSON by default, CSV for
sweeps) with a run manifest recording the resolved parameters, the tool
version, the seed and a checksum of the data payload.  Exit codes: 0
success, 2 validation failure, 3 infeasibility or bound violation, 4
output I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from . import __version__
from .errors import MEMORY_BUDGET, InfeasibilityError, InsufficientDataError, ValidationError
from .keyrate import (
    DeviationParams,
    StrongRandomnessInputs,
    one_step_rate,
    strong_randomness_rate,
    two_step_rate,
)
from .output import MAX_SEED, RunManifest, canonical_json, csv_text, flatten

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

# Peak bytes per sweep row with JSON output (CSV needs half): the slope of
# peak RSS over 2e4 to 1.6e5 one-step rows.  The cap keeps a sweep in budget.
SWEEP_BYTES_PER_ROW = 1400
MAX_SWEEP_ROWS = MEMORY_BUDGET // SWEEP_BYTES_PER_ROW
# A config is a few short lines.  Reading stops one byte past this, so a
# longer file, /dev/zero included, is rejected without being read in full.
MAX_CONFIG_BYTES = 1 << 20

_SIM_DEFAULTS = {
    "q00": 1.0,
    "q01": 0.0,
    "q10": 0.0,
    "q11": 0.0,
    "p-lambda0": 0.5,
    "p-lambda1": 0.5,
    "p-x0-l0": 0.5,
    "p-x0-l1": 0.5,
    "p-x1-l0": 0.5,
    "p-x1-l1": 0.5,
    "bob-basis-prob": 0.5,
    "attacker": "none",
}
_SIM_REQUIRED = ("pulses", "seed")
_SIM_FIELD_TYPES = {
    "pulses": int,
    "seed": int,
    **{key: type(value) for key, value in _SIM_DEFAULTS.items()},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bb84-weakrand",
        description="BB84 key rates, bound verification and simulation "
        "under partially leaked randomness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default="-", help="output path, or - for stdout")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--seed", type=int, default=None, help="64-bit run seed")

    rate = sub.add_parser("rate", help="single-point secret-key rate")
    rate.add_argument(
        "--method", required=True, choices=("one-step", "two-step", "strong")
    )
    rate.add_argument("--qber", type=float, help="observed sifted QBER")
    rate.add_argument("--eps0", type=float, default=0.0, help="bit-encoding deviation bound")
    rate.add_argument("--eps1", type=float, default=0.0, help="basis-selection deviation bound")
    rate.add_argument("--p", type=float, help="probability of uncontrolled counts (strong)")
    rate.add_argument("--s", type=float, help="eavesdropper entropy per bit (strong)")
    rate.add_argument("--f", type=float, help="error-correction inefficiency (strong)")
    rate.add_argument("--e", type=float, help="observed bit error rate (strong)")
    add_common(rate)

    sweep = sub.add_parser("sweep", help="rate curves over a QBER range")
    sweep.add_argument("--qber", required=True, metavar="START:STOP:STEP")
    sweep.add_argument(
        "--dev",
        action="append",
        required=True,
        metavar="EPS0,EPS1",
        help="deviation pair; repeatable",
    )
    sweep.add_argument(
        "--method",
        action="append",
        required=True,
        choices=("one-step", "two-step"),
        help="rate method; repeatable",
    )
    add_common(sweep)

    verify = sub.add_parser("verify", help="brute-force check of an error-gap bound")
    verify.add_argument("--target", required=True, choices=("one-step", "cross-basis"))
    verify.add_argument("--eps0", type=float, default=0.0)
    verify.add_argument("--eps1", type=float, default=0.0)
    verify.add_argument("--grid", type=int, default=21, help="grid resolution")
    add_common(verify)

    simulate = sub.add_parser("simulate", help="pulse-level protocol simulation")
    simulate.add_argument("--config", help="flat key=value config file")
    # One flag per field; the seed is the common --seed.  An unknown
    # --attacker is rejected by SimConfig, as in a config file.
    for key, kind in _SIM_FIELD_TYPES.items():
        if key != "seed":
            simulate.add_argument("--" + key, type=kind)
    simulate.add_argument("--dump-pulses", metavar="PATH", help="per-pulse CSV dump")
    add_common(simulate)

    return parser


def _require(args, names: list[str]) -> None:
    missing = [name for name in names if getattr(args, name.lstrip("-")) is None]
    if missing:
        raise ValidationError(
            f"--method {args.method} requires " + ", ".join("--" + n for n in missing)
        )


def _cmd_rate(args) -> tuple[dict, object, int]:
    if args.method == "strong":
        _require(args, ["p", "s", "f", "e"])
        inputs = StrongRandomnessInputs(
            p_valid=args.p, s_a_given_e=args.s, f_ec=args.f, e_obs=args.e
        )
        params = {"method": "strong", "p": args.p, "s": args.s, "f": args.f, "e": args.e}
        return params, strong_randomness_rate(inputs).to_dict(), EXIT_OK

    _require(args, ["qber"])
    dev = DeviationParams(args.eps0, args.eps1)
    params = {
        "method": args.method,
        "qber": args.qber,
        "eps0": args.eps0,
        "eps1": args.eps1,
    }
    if args.method == "one-step":
        return params, one_step_rate(args.qber, dev).to_dict(), EXIT_OK

    from .optimizer import TwoStepProblem, solve_two_step

    result = solve_two_step(TwoStepProblem(q_target=args.qber, dev=dev))
    return params, result.to_dict(), EXIT_OK


def _parse_qber_range(text: str, rows_per_point: int) -> list[float]:
    """START, START + STEP, ... below STOP, at least START; the rows (points
    times ``rows_per_point``) are checked against ``MAX_SWEEP_ROWS`` first."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--qber range {text!r} is not START:STOP:STEP")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--qber range {text!r} has a non-numeric part") from None
    if not all(math.isfinite(value) for value in (start, stop, step)):
        raise ValidationError(f"--qber range {text!r} has a non-finite part")
    if not 0.0 <= start < stop <= 0.5:
        raise ValidationError(
            f"--qber range needs 0 <= start < stop <= 0.5, got {text!r}"
        )
    if step <= 0.0:
        raise ValidationError(f"--qber range step must be positive, got {step!r}")
    # Checked before ceil, which overflows on a subnormal step's infinite span.
    span = (stop - start) / step - 1e-9
    if span > MAX_SWEEP_ROWS // rows_per_point:
        raise ValidationError(
            f"--qber range {text!r} gives about {span:.3g} points x {rows_per_point} "
            f"rows, above the cap of {MAX_SWEEP_ROWS} rows; use a larger step"
        )
    count = max(1, math.ceil(span))
    return [start + i * step for i in range(count)]


def _parse_dev(text: str) -> DeviationParams:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"--dev {text!r} is not EPS0,EPS1")
    try:
        eps0, eps1 = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--dev {text!r} has a non-numeric part") from None
    return DeviationParams(eps0, eps1)


def _cmd_sweep(args) -> tuple[dict, object, int, list[str], list[list]]:
    devs = [_parse_dev(text) for text in args.dev]
    methods = list(args.method)
    qbers = _parse_qber_range(args.qber, len(devs) * len(methods))

    rate_of = {"one-step": one_step_rate, "two-step": two_step_rate}
    rows = []
    for qber in qbers:
        for dev in devs:
            for method in methods:
                res = rate_of[method](qber, dev)
                rows.append([qber, dev.eps0, dev.eps1, method, res.rate, res.rate_clamped])

    header = ["qber", "eps0", "eps1", "method", "rate", "rate_clamped"]
    result = [dict(zip(header, row)) for row in rows]
    params = {"qber": args.qber, "dev": list(args.dev), "method": methods}
    return params, result, EXIT_OK, header, rows


def _cmd_verify(args) -> tuple[dict, object, int]:
    from .bound_oracle import verify_cross_basis_bound, verify_one_step_bound

    params = {
        "target": args.target,
        "eps0": args.eps0,
        "eps1": args.eps1,
        "grid": args.grid,
    }
    # Both deviations are validated for either target, though the
    # cross-basis scan reads eps0 alone.
    dev = DeviationParams(args.eps0, args.eps1)
    if args.target == "one-step":
        report = verify_one_step_bound(dev, args.grid)
    else:
        report = verify_cross_basis_bound(dev.eps0, args.grid)
    return params, report.to_dict(), EXIT_OK if report.passed else EXIT_INFEASIBLE


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    # A config is input: a file that cannot be read is a validation failure
    # (exit 2), not an output I/O failure (exit 4).
    try:
        with open(path, "rb") as handle:
            data = handle.read(MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read ({exc.strerror})") from None
    if len(data) > MAX_CONFIG_BYTES:
        raise ValidationError(f"{path}: longer than {MAX_CONFIG_BYTES} bytes, not a config file")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    # The newlines a text-mode read would translate: \r\n, \r and \n.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if key not in _SIM_FIELD_TYPES:
            raise ValidationError(f"{path}:{lineno}: unknown field {key!r}")
        values[key] = value.strip()
    return values


def _resolve_sim_settings(args) -> dict:
    settings: dict[str, object] = dict(_SIM_DEFAULTS)
    if args.config:
        for key, text in _load_config_file(args.config).items():
            kind = _SIM_FIELD_TYPES[key]
            if kind is str:
                settings[key] = text
            else:
                try:
                    settings[key] = kind(text)
                except ValueError:
                    raise ValidationError(
                        f"config field {key!r}: cannot parse {text!r} as {kind.__name__}"
                    ) from None
    for key in _SIM_FIELD_TYPES:
        flag_value = getattr(args, key.replace("-", "_"), None)
        if flag_value is not None:
            settings[key] = flag_value
    for key in _SIM_REQUIRED:
        if key not in settings:
            raise ValidationError(f"field {key!r} is required (flag or config file)")
    return settings


def _cmd_simulate(args) -> tuple[dict, object, int]:
    from .keyrate import HiddenVariableModel
    from .quantum_core import PauliChannel
    from .simulator import SimConfig, simulate

    settings = _resolve_sim_settings(args)
    hv = HiddenVariableModel(
        p_lambda0=settings["p-lambda0"],
        p_lambda1=settings["p-lambda1"],
        p_x0_given_l0=(settings["p-x0-l0"], settings["p-x0-l1"]),
        p_x1_given_l1=(settings["p-x1-l0"], settings["p-x1-l1"]),
    )
    channel = PauliChannel(
        settings["q00"], settings["q01"], settings["q10"], settings["q11"]
    )
    cfg = SimConfig(
        n_pulses=settings["pulses"],
        hv=hv,
        channel=channel,
        bob_basis_prob=settings["bob-basis-prob"],
        attacker=settings["attacker"],
        seed=settings["seed"],
    )
    if not args.dump_pulses:
        dump = contextlib.nullcontext(None)
    elif args.dump_pulses == "-":
        dump = contextlib.nullcontext(sys.stdout)
    else:
        dump = open(args.dump_pulses, "w", encoding="utf-8", newline="")
    with dump as handle:
        report = simulate(cfg, handle)
    params = {key: settings[key] for key in sorted(settings)}
    return params, report.to_dict(), EXIT_OK


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _emit(args, command: str, params: dict, result, csv_header=None, csv_rows=None):
    fmt = args.format or ("csv" if command == "sweep" else "json")
    if fmt == "json":
        payload = canonical_json(result)
        manifest = RunManifest.build(command, params, __version__, args.seed, payload)
        _write_text(args.out, canonical_json({"manifest": manifest.to_dict(), "result": result}))
        return
    if csv_rows is None:
        csv_header = ["key", "value"]
        csv_rows = [[key, value] for key, value in flatten(result)]
    text = csv_text(csv_header, csv_rows)
    manifest = RunManifest.build(command, params, __version__, args.seed, text)
    _write_text(args.out, text)
    if args.out != "-":
        _write_text(args.out + ".manifest.json", canonical_json(manifest.to_dict()))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    csv_header = csv_rows = None
    try:
        if args.seed is not None and not 0 <= args.seed <= MAX_SEED:
            raise ValidationError(f"--seed {args.seed} outside [0, 2^64)")
        if args.command == "rate":
            params, result, code = _cmd_rate(args)
        elif args.command == "sweep":
            params, result, code, csv_header, csv_rows = _cmd_sweep(args)
        elif args.command == "verify":
            params, result, code = _cmd_verify(args)
        else:
            params, result, code = _cmd_simulate(args)
        _emit(args, args.command, params, result, csv_header, csv_rows)
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibilityError as exc:
        detail = "" if exc.residual is None else f" (smallest residual {exc.residual:.3e})"
        print(f"error: {exc}{detail}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())
