"""End-to-end tests of the command-line interface via subprocesses."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from bb84_weakrand import cli, optimizer, simulator
from bb84_weakrand.cli import (
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from bb84_weakrand.errors import MEMORY_BUDGET
from bb84_weakrand.output import canonical_json, checksum_of


# sha256 of the curves sweep CSV (the benchmark's `curves` workload, seed 1),
# as the search wrote it before sweeps took the two-step closed form.
CURVES_SHA256 = "78e9c69bb26453ca72342548f0554741296381d789fb24754afd971ea35f1e64"
# The benchmark's `pulses` and `transcript` runs (seed 1): the checksums of
# their results and the sha256 of the transcript's pulse dump.  Each result
# holds the derived diagnostics of a two-step solve, so these pin the
# search's argmin where `simulate` uses it.
PULSES_ARGS = [
    "simulate", "--pulses", "4000000", "--q00", "0.95", "--q10", "0.05",
    "--p-x1-l0", "0.6", "--p-x1-l1", "0.4", "--seed", "1",
]
PULSES_CHECKSUM = "sha256:8977e58ff5e989df7256c10a8fd4c3bfd020966a1607bf08513b41500c3cc384"
TRANSCRIPT_ARGS = [
    "simulate", "--pulses", "200000", "--attacker", "intercept-resend-with-hints", "--seed", "1",
]
TRANSCRIPT_CHECKSUM = "sha256:712d1eb2dd7534adf809a7055c6448cf6b43e0432c89c3c25c603394be9bbf8e"
TRANSCRIPT_DUMP_SHA256 = "b1e932c2a556affe8f4af572fc75b17c908f22966814f9d7bd463efa04c44b91"
# The transcript's solve (eps = 0) sorts simplices with tied vertex values,
# some out of index order; np.argsort's order among ties depends on the CPU
# (see the solver goldens in test_optimizer.py).  A tied simplex it sorts,
# and the order np.argsort gave it when the checksum was recorded.  The
# pulses solve sorts no ties.
TRANSCRIPT_TIED_SORT = (
    ["-0x1.3d01753e49d65p-1", "-0x1.3d0153aa06b05p-1", "-0x1.3d0153aa06b05p-1",
     "-0x1.3d0153aa06b05p-1", "-0x1.3d0237c0a1732p-1"],
    [4, 0, 2, 1, 3],
)


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "bb84_weakrand", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestRateCommand:
    def test_one_step_reference_point(self):
        proc = run_cli(
            "rate", "--method", "one-step", "--qber", "0.02", "--eps0", "0", "--eps1", "0.1"
        )
        assert proc.returncode == EXIT_OK
        doc = json.loads(proc.stdout)
        assert doc["result"]["rate"] == pytest.approx(0.0984, abs=5e-4)
        assert doc["manifest"]["command"] == "rate"

    def test_one_step_noiseless(self):
        proc = run_cli(
            "rate", "--method", "one-step", "--qber", "0", "--eps0", "0", "--eps1", "0"
        )
        assert json.loads(proc.stdout)["result"]["rate"] == 1.0

    def test_strong_trivial(self):
        proc = run_cli(
            "rate", "--method", "strong", "--p", "1", "--s", "1", "--f", "1", "--e", "0"
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["result"]["rate"] == 1.0

    @pytest.mark.parametrize("f_ec", ["nan", "inf"])
    def test_strong_non_finite_inefficiency_exits_validation(self, f_ec, capsys):
        argv = ["rate", "--method", "strong", "--p", "0.5", "--s", "0.5", "--f", f_ec, "--e", "0.02"]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"f_ec={float(f_ec)!r}" in captured.err

    def test_two_step_runs_with_seed(self):
        """--seed stays accepted; the manifest records it and the search ignores it."""
        proc = run_cli(
            "rate", "--method", "two-step", "--qber", "0.02", "--eps0", "0",
            "--eps1", "0.1", "--seed", "1",
        )
        assert proc.returncode == EXIT_OK
        doc = json.loads(proc.stdout)
        assert doc["manifest"]["seed"] == 1
        assert "rate" in doc["result"]["min_rate"]
        assert doc["result"]["solver_report"]["restarts"] == optimizer.REFINE_STARTS
        assert "seed" not in doc["result"]["solver_report"]

    def test_two_step_runs_without_seed(self, capsys):
        """The search draws nothing random, so it needs no seed."""
        assert main(["rate", "--method", "two-step", "--qber", "0.02", "--eps1", "0.1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["manifest"]["seed"] is None
        assert round(doc["result"]["min_rate"]["rate"], 4) == 0.6642

    def test_two_step_does_not_import_scipy(self):
        code = (
            "import sys\n"
            "from bb84_weakrand.cli import main\n"
            "argv = ['rate', '--method', 'two-step', '--qber', '0.02', '--eps1', '0.1',\n"
            "        '--out', '-']\n"
            "assert main(argv) == 0\n"
            "assert 'scipy' not in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("flag", ["--grid", "--starts", "--maxiter"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--method", "two-step", "--qber", "0.02"],
            ["rate", "--method", "one-step", "--qber", "0.02"],
            ["sweep", "--qber", "0:0.02:0.01", "--dev", "0,0.1", "--method", "two-step"],
        ],
        ids=["rate-two-step", "rate-one-step", "sweep"],
    )
    def test_removed_solver_flags_exit_validation(self, argv, flag, capsys):
        """The search runs at fixed settings: its old flags are usage errors."""
        with pytest.raises(SystemExit) as info:
            main([*argv, flag, "5"])
        assert info.value.code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 5" in captured.err

    def test_infeasible_argmin_exits_infeasible(self, capsys, monkeypatch):
        """The solver's feasibility guard ends a run with exit 3 and the residual."""
        search = optimizer._box_search
        # p_lambda1 = 0 and e_b10 = 1 rebuild to a QBER of 1/2, not the 0.02 observed.
        monkeypatch.setattr(
            optimizer,
            "_box_search",
            lambda constants: (np.array([0.0, 0.5, 1.0, 1.0, 1.0]), search(constants)[1]),
        )
        argv = ["rate", "--method", "two-step", "--qber", "0.02", "--eps1", "0.1"]
        assert main(argv) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: no feasible eavesdropper strategy found for Q=0.02 (smallest residual 4.800e-01)\n"
        )

    def test_two_step_clamps_a_deviation_within_tolerance(self):
        """An eps1 a hair below 0 solves as eps1 = 0 (it used to be an empty box)."""
        base = ["rate", "--method", "two-step", "--qber", "0.05", "--seed", "1"]
        checksums = []
        for eps1 in ("--eps1=-1e-13", "--eps1=0"):
            proc = run_cli(*base, eps1)
            assert proc.returncode == EXIT_OK, proc.stderr
            checksums.append(json.loads(proc.stdout)["manifest"]["checksum"])
        assert checksums[0] == checksums[1]

    def test_sweep_prints_a_clamped_deviation(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--qber", "0:0.01:0.01", "--dev=0,-1e-13", "--method", "two-step",
                "--format", "csv", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert out.read_text().splitlines()[1].startswith("0.0,0.0,0.0,two-step,")

    def test_invalid_qber_exits_validation(self):
        proc = run_cli("rate", "--method", "one-step", "--qber", "0.7")
        assert proc.returncode == EXIT_VALIDATION
        assert "error:" in proc.stderr

    def test_missing_method_is_usage_error(self):
        proc = run_cli("rate", "--qber", "0.02")
        assert proc.returncode == EXIT_VALIDATION

    def test_manifest_checksum_covers_result(self):
        proc = run_cli("rate", "--method", "one-step", "--qber", "0.01")
        doc = json.loads(proc.stdout)
        assert doc["manifest"]["checksum"] == checksum_of(canonical_json(doc["result"]))

    def test_json_round_trips_byte_identically(self):
        proc = run_cli("rate", "--method", "one-step", "--qber", "0.0123")
        text = proc.stdout.rstrip("\n")
        assert canonical_json(json.loads(text)) == text

    def test_csv_format_flattens_result(self):
        proc = run_cli(
            "rate", "--method", "one-step", "--qber", "0.02", "--format", "csv"
        )
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "key,value"
        assert any(line.startswith("rate,") for line in lines)


class TestSweepCommand:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "sweep", "--qber", "0:0.12:0.005", "--dev", "0,0", "--method", "one-step",
            "--out", str(out),
        )
        assert proc.returncode == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "qber,eps0,eps1,method,rate,rate_clamped"
        assert len(lines) == 1 + 24

    def test_deterministic_output_and_manifest(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--qber", "0:0.05:0.01", "--dev", "0,0.1", "--method", "one-step"]
        run_cli(*args, "--out", str(out_a))
        run_cli(*args, "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["checksum"] == checksum_of(out_a.read_text())

    def test_json_format(self):
        proc = run_cli(
            "sweep", "--qber", "0:0.02:0.01", "--dev", "0,0", "--dev", "0.1,0",
            "--method", "one-step", "--format", "json",
        )
        doc = json.loads(proc.stdout)
        assert len(doc["result"]) == 2 * 2
        assert doc["result"][0]["method"] == "one-step"

    def test_two_step_runs_without_seed(self, capsys):
        argv = ["sweep", "--qber", "0:0.02:0.01", "--dev", "0,0", "--method", "two-step",
                "--format", "json"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["manifest"]["seed"] is None
        assert len(doc["result"]) == 2

    def test_curves_sweep_matches_the_recorded_csv(self, tmp_path):
        out = tmp_path / "curves.csv"
        args = ["sweep", "--qber", "0:0.12:0.01", "--dev", "0,0", "--dev", "0,0.1",
                "--dev", "0.1,0.1", "--method", "one-step", "--method", "two-step",
                "--seed", "1", "--out", str(out)]
        assert main(args) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == CURVES_SHA256

    def test_two_step_sweep_does_not_import_the_optimizer(self):
        """Two-step rows come from the closed form in keyrate, not from the search."""
        code = (
            "import sys\n"
            "from bb84_weakrand.cli import main\n"
            "argv = ['sweep', '--qber', '0:0.05:0.01', '--dev', '0,0.1', '--dev', '0.1,0.5',\n"
            "        '--method', 'two-step', '--out', '-']\n"
            "assert main(argv) == 0\n"
            "assert 'bb84_weakrand.optimizer' not in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_bad_range_rejected(self):
        for bad in ("0:0.6:0.01", "0.1:0.05:0.01", "0:0.1:0", "nope"):
            proc = run_cli("sweep", "--qber", bad, "--dev", "0,0", "--method", "one-step")
            assert proc.returncode == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "bad", ["0:0.1:nan", "nan:0.1:0.01", "0:nan:0.01", "0:inf:0.1", "0:0.1:inf", "-inf:0.1:0.1"]
    )
    def test_non_finite_range_rejected(self, bad, capsys):
        argv = ["sweep", f"--qber={bad}", "--dev", "0,0", "--method", "one-step"]
        assert main(argv) == EXIT_VALIDATION
        assert "non-finite" in capsys.readouterr().err

    def test_step_beyond_stop_emits_start_point(self, capsys):
        argv = ["sweep", "--qber", "0.01:0.1:1e300", "--dev", "0,0", "--method", "one-step"]
        assert main(argv) == EXIT_OK
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "qber,eps0,eps1,method,rate,rate_clamped"
        assert len(rows) == 1
        assert rows[0].startswith("0.01,0.0,0.0,one-step,")

    @pytest.mark.parametrize("step", ["1e-12", "5e-324"])
    def test_too_many_points_rejected_before_building(self, step, capsys):
        argv = ["sweep", "--qber", f"0:0.5:{step}", "--dev", "0,0", "--method", "one-step"]
        assert main(argv) == EXIT_VALIDATION
        assert "above the cap" in capsys.readouterr().err

    def test_row_cap_counts_points_devs_and_methods(self, monkeypatch, capsys):
        assert cli.MAX_SWEEP_ROWS == MEMORY_BUDGET // cli.SWEEP_BYTES_PER_ROW == 3_067_833
        monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 10)
        five_points = ["sweep", "--qber", "0:0.05:0.01", "--method", "one-step"]
        assert main([*five_points, "--dev", "0,0", "--dev", "0.1,0"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1 + 10
        assert main([*five_points, "--dev", "0,0", "--dev", "0.1,0", "--dev", "0,0.1"]) == (
            EXIT_VALIDATION
        )
        assert main([*five_points, "--dev", "0,0", "--method", "one-step"]) == EXIT_OK
        six_points = ["sweep", "--qber", "0:0.06:0.01", "--method", "one-step"]
        assert main([*six_points, "--dev", "0,0", "--dev", "0.1,0"]) == EXIT_VALIDATION
        capsys.readouterr()


# The numpy-free commands, each with the file its --out names: the
# closed-form rates and the benchmark's `curves` sweep (seed 1).
NUMPY_FREE_COMMANDS = [
    ("one-step.json", ["rate", "--method", "one-step", "--qber", "0.02", "--eps1", "0.1"]),
    ("strong.json", ["rate", "--method", "strong", "--p", "0.9", "--s", "1", "--f", "1.1",
                     "--e", "0.02"]),
    ("curves.csv", ["sweep", "--qber", "0:0.12:0.01", "--dev", "0,0", "--dev", "0,0.1",
                    "--dev", "0.1,0.1", "--method", "one-step", "--method", "two-step",
                    "--seed", "1"]),
]
# The supported interpreters besides 3.11, which CI's tier-1 job runs the tests on.
OTHER_INTERPRETERS = ["python3.10", "python3.12", "python3.13"]


def numpy_free_outputs(python: str, out) -> dict[str, bytes]:
    """The files the numpy-free commands write into ``out`` under ``python``, numpy blocked.

    Keyed by file name, with each manifest's timestamp blanked.
    """
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from bb84_weakrand.cli import main\n"
        f"for name, argv in {NUMPY_FREE_COMMANDS!r}:\n"
        "    assert main(argv + ['--out', sys.argv[1] + '/' + name]) == 0, argv\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [python, "-c", code, str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return {
        file.name: re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', file.read_bytes())
        for file in sorted(out.iterdir())
    }


@pytest.fixture(scope="module")
def own_numpy_free_outputs(tmp_path_factory):
    outputs = numpy_free_outputs(sys.executable, tmp_path_factory.mktemp("own"))
    assert hashlib.sha256(outputs["curves.csv"]).hexdigest() == CURVES_SHA256
    return outputs


class TestNumpyFreeCommands:
    @pytest.mark.parametrize("python", OTHER_INTERPRETERS)
    def test_same_bytes_under_every_interpreter(self, python, own_numpy_free_outputs, tmp_path):
        """Each supported interpreter writes the running one's bytes, timestamps aside."""
        found = shutil.which(python)
        if found is None or subprocess.run([found, "-c", ""], capture_output=True).returncode:
            pytest.skip(f"{python} cannot be started here")
        outputs = numpy_free_outputs(found, tmp_path)
        assert sorted(outputs) == [
            "curves.csv", "curves.csv.manifest.json", "one-step.json", "strong.json"
        ]
        assert outputs == own_numpy_free_outputs

    def test_closed_form_commands_do_not_import_numpy(self):
        """Importing the package, sweeps and the closed-form rates need no numpy."""
        argvs = [
            ["rate", "--method", "one-step", "--qber", "0.02", "--eps1", "0.1"],
            ["rate", "--method", "strong", "--p", "0.9", "--s", "1", "--f", "1.1", "--e", "0.02"],
            ["sweep", "--qber", "0:0.05:0.01", "--dev", "0,0.1", "--method", "one-step"],
            ["sweep", "--qber", "0:0.12:0.01", "--dev", "0,0", "--dev", "0,0.1",
             "--dev", "0.1,0.1", "--method", "one-step", "--method", "two-step", "--seed", "1"],
        ]
        code = (
            "import sys\n"
            "import bb84_weakrand\n"
            "assert 'numpy' not in sys.modules, 'import bb84_weakrand'\n"
            "from bb84_weakrand.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv + ['--out', '-']) == 0, argv\n"
            "    assert 'numpy' not in sys.modules, argv\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


class TestVerifyCommand:
    def test_one_step_passes(self):
        proc = run_cli(
            "verify", "--target", "one-step", "--eps0", "0", "--eps1", "0.1", "--grid", "7"
        )
        assert proc.returncode == EXIT_OK
        result = json.loads(proc.stdout)["result"]
        assert result["passed"] is True
        assert result["max_violation"] <= 1e-9
        assert result["tightness_gap"] <= 1e-6

    def test_cross_basis_passes(self):
        proc = run_cli("verify", "--target", "cross-basis", "--eps0", "0.1", "--grid", "7")
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["result"]["passed"] is True

    def test_perfect_randomness_gap_zero(self):
        proc = run_cli("verify", "--target", "one-step", "--grid", "5")
        result = json.loads(proc.stdout)["result"]
        assert abs(result["max_difference"]) <= 1e-12

    def test_small_grid_rejected(self):
        proc = run_cli("verify", "--target", "one-step", "--grid", "2")
        assert proc.returncode == EXIT_VALIDATION

    @pytest.mark.parametrize("target", ["one-step", "cross-basis"])
    def test_grid_below_three_rejected(self, target, capsys):
        assert main(["verify", "--target", target, "--grid", "2"]) == EXIT_VALIDATION
        assert "at least 3, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["one-step", "cross-basis"])
    def test_grid_above_cap_rejected(self, target, capsys):
        assert main(["verify", "--target", target, "--grid", "1000"]) == EXIT_VALIDATION
        assert "above the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["one-step", "cross-basis"])
    @pytest.mark.parametrize("eps1", ["0.9", "nan"])
    def test_eps1_outside_its_band_rejected(self, target, eps1, capsys):
        """The cross-basis scan reads only eps0, but eps1 is validated for it too."""
        assert main(["verify", "--target", target, "--eps1", eps1, "--grid", "3"]) == (
            EXIT_VALIDATION
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: eps1={float(eps1)!r} outside [0, 0.5]\n"


class TestSimulateCommand:
    def test_flags_only(self):
        proc = run_cli("simulate", "--pulses", "5000", "--seed", "3")
        assert proc.returncode == EXIT_OK
        result = json.loads(proc.stdout)["result"]
        assert result["qber_estimate"] == 0.0
        assert result["sifted_count"] > 0

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# channel with rectilinear flips\n"
            "pulses=20000\n"
            "seed=11\n"
            "q00=0.95\n"
            "q10=0.05\n"
        )
        proc = run_cli("simulate", "--config", str(cfg))
        assert proc.returncode == EXIT_OK
        result = json.loads(proc.stdout)["result"]
        assert result["qber_rec"] > 0.0
        assert result["qber_dia"] == 0.0

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pulses=5000\nseed=11\nq00=0.95\nq10=0.05\n")
        proc = run_cli("simulate", "--config", str(cfg), "--q10", "0", "--q00", "1")
        result = json.loads(proc.stdout)["result"]
        assert result["qber_estimate"] == 0.0

    def test_missing_seed_rejected(self):
        proc = run_cli("simulate", "--pulses", "1000")
        assert proc.returncode == EXIT_VALIDATION
        assert "seed" in proc.stderr

    def test_unknown_config_field_named(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pulses=100\nseed=1\nbogus=3\n")
        proc = run_cli("simulate", "--config", str(cfg))
        assert proc.returncode == EXIT_VALIDATION
        assert "bogus" in proc.stderr

    def test_unknown_attacker_in_config_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pulses=100\nseed=1\nattacker=eve\n")
        proc = run_cli("simulate", "--config", str(cfg))
        assert proc.returncode == EXIT_VALIDATION
        assert "'eve'" in proc.stderr and "intercept-resend-with-hints" in proc.stderr

    def test_pulses_over_the_cap_exit_before_any_file_is_opened(self, tmp_path, capsys):
        """A run too long for the time budget exits 2 at once: no draw, no
        dump and no report file."""
        dump, out = tmp_path / "pulses.csv", tmp_path / "report.json"
        argv = ["simulate", "--pulses", "99999999999999999999", "--seed", "1",
                "--dump-pulses", str(dump), "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: n_pulses=99999999999999999999 is above the cap of 1099511627776 "
            "pulses, the run that fits a 24-hour time budget\n"
        )
        assert not dump.exists() and not out.exists()

    def test_pulses_at_the_cap_run(self, monkeypatch, capsys):
        monkeypatch.setattr(simulator, "MAX_PULSES", 1000)
        assert main(["simulate", "--pulses", "1000", "--seed", "1"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["result"]["n_pulses"] == 1000
        assert main(["simulate", "--pulses", "1001", "--seed", "1"]) == EXIT_VALIDATION
        assert "above the cap of 1000 pulses" in capsys.readouterr().err

    def test_unknown_attacker_flag_rejected(self, capsys):
        argv = ["simulate", "--pulses", "100", "--seed", "1", "--attacker", "eve"]
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "'eve'" in err and "intercept-resend-with-hints" in err

    @pytest.mark.parametrize(
        "name, reason", [("missing.cfg", "No such file or directory"), (".", "Is a directory")]
    )
    def test_unreadable_config_exits_validation(self, name, reason, tmp_path, capsys):
        """A config is input: one that cannot be read exits 2, not the output failure 4."""
        path = tmp_path / name
        assert main(["simulate", "--config", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: cannot read ({reason})\n"

    def test_config_at_the_size_cap_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        head = b"pulses=1000\nseed=1\n"
        cfg.write_bytes(head + b"#" * (cli.MAX_CONFIG_BYTES - len(head)))
        assert main(["simulate", "--config", str(cfg)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["result"]["n_pulses"] == 1000

    def test_config_over_the_size_cap_exits_validation(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"pulses=1000\nseed=1\n" + b"#" * cli.MAX_CONFIG_BYTES)
        assert main(["simulate", "--config", str(cfg)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {cfg}: longer than {cli.MAX_CONFIG_BYTES} bytes, not a config file\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_config_exits_validation(self, capsys):
        """An endless file is read only to one byte past the cap."""
        assert main(["simulate", "--config", "/dev/zero"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: /dev/zero: longer than ")

    def test_config_file_not_utf8_exits_validation(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe\n")
        proc = run_cli("simulate", "--config", str(cfg))
        assert proc.returncode == EXIT_VALIDATION
        assert f"{cfg}: not UTF-8 text" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_malformed_config_value_named(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pulses=100\nseed=1\nq10=fast\n")
        proc = run_cli("simulate", "--config", str(cfg))
        assert proc.returncode == EXIT_VALIDATION
        assert "q10" in proc.stderr

    def test_pulse_dump(self, tmp_path):
        dump = tmp_path / "pulses.csv"
        proc = run_cli(
            "simulate", "--pulses", "200", "--seed", "5",
            "--attacker", "intercept-resend-with-hints",
            "--dump-pulses", str(dump),
        )
        assert proc.returncode == EXIT_OK
        lines = dump.read_text().strip().split("\n")
        assert lines[0] == "lambda0,lambda1,x0,x1,y,bob_bit,sifted,eve_guess"
        assert len(lines) == 1 + 200

    def test_dump_written_when_nothing_is_sifted(self, tmp_path, capsys):
        """The dump is streamed, so it is complete even when the run exits 3."""
        dump = tmp_path / "pulses.csv"
        argv = [
            "simulate", "--pulses", "100", "--seed", "5", "--bob-basis-prob", "1",
            "--p-x1-l0", "0", "--p-x1-l1", "0", "--dump-pulses", str(dump),
        ]
        assert main(argv) == EXIT_INFEASIBLE
        assert capsys.readouterr().out == ""
        lines = dump.read_text().splitlines()
        assert len(lines) == 1 + 100
        assert {line.split(",")[6] for line in lines[1:]} == {"0"}

    def test_dump_to_stdout_comes_before_the_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["simulate", "--pulses", "50", "--seed", "5", "--dump-pulses", "-", "--out", str(out)]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "lambda0,lambda1,x0,x1,y,bob_bit,sifted,eve_guess"
        assert len(lines) == 1 + 50
        assert json.loads(out.read_text())["result"]["n_pulses"] == 50

    def test_benchmark_pulses_run_matches_the_recorded_checksum(self, tmp_path):
        out = tmp_path / "pulses.json"
        assert main([*PULSES_ARGS, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["manifest"]["checksum"] == PULSES_CHECKSUM
        assert checksum_of(canonical_json(doc["result"])) == PULSES_CHECKSUM

    def test_benchmark_transcript_run_matches_the_recorded_checksums(self, tmp_path):
        values, recorded = TRANSCRIPT_TIED_SORT
        order = np.argsort([float.fromhex(v) for v in values]).tolist()
        if order != recorded:
            pytest.skip(f"np.argsort orders ties as {order} here, {recorded} when recorded")
        out, dump = tmp_path / "transcript.json", tmp_path / "transcript.csv"
        assert main([*TRANSCRIPT_ARGS, "--dump-pulses", str(dump), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["manifest"]["checksum"] == TRANSCRIPT_CHECKSUM
        assert checksum_of(canonical_json(doc["result"])) == TRANSCRIPT_CHECKSUM
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == TRANSCRIPT_DUMP_SHA256

    def test_determinism_across_runs(self):
        first = run_cli("simulate", "--pulses", "3000", "--seed", "42")
        second = run_cli("simulate", "--pulses", "3000", "--seed", "42")
        assert json.loads(first.stdout)["result"] == json.loads(second.stdout)["result"]


class TestOutputHandling:
    def test_unwritable_path_exits_io(self, tmp_path):
        proc = run_cli(
            "rate", "--method", "one-step", "--qber", "0.02",
            "--out", str(tmp_path / "missing" / "out.json"),
        )
        assert proc.returncode == EXIT_IO

    def test_out_file_has_no_trailing_newline_in_json(self, tmp_path):
        out = tmp_path / "rate.json"
        run_cli("rate", "--method", "one-step", "--qber", "0.02", "--out", str(out))
        text = out.read_text()
        assert not text.endswith("\n")
        assert canonical_json(json.loads(text)) == text

    def test_exit_code_contract(self):
        assert EXIT_OK == 0
        assert EXIT_VALIDATION == 2
        assert EXIT_INFEASIBLE == 3
        assert EXIT_IO == 4

    def test_in_process_exit_codes(self, capsys):
        assert main(["rate", "--method", "one-step", "--qber", "0.02"]) == EXIT_OK
        assert main(["rate", "--method", "one-step", "--qber", "2"]) == EXIT_VALIDATION
        capsys.readouterr()


# One cheap invocation of each subcommand that takes --seed.
SEED_ARGV = {
    "rate": ["rate", "--method", "two-step", "--qber", "0.02"],
    "sweep": ["sweep", "--qber", "0:0.02:0.01", "--dev", "0,0.1", "--method", "two-step"],
    "verify": ["verify", "--target", "cross-basis", "--eps0", "0.1", "--grid", "3"],
    "simulate": ["simulate", "--pulses", "10"],
}


class TestSeedRange:
    @pytest.mark.parametrize("command", sorted(SEED_ARGV))
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_validation(self, command, seed, capsys):
        assert main([*SEED_ARGV[command], "--seed", str(seed)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--seed {seed} outside [0, 2^64)" in captured.err

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_is_inclusive(self, seed, capsys):
        assert main([*SEED_ARGV["rate"], "--seed", str(seed)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["manifest"]["seed"] == seed
