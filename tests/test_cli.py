"""End-to-end tests of the command line, driven in-process through main()."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from bellcast import cli, harness
from bellcast.cli import main

SWEEP_HEADER = "value,D1,D2,D4,D3C,D3ST,D3SL,NONE"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_of(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestVerifyObservables:
    def test_reports_table_and_vanishing_commutators(self, capsys):
        code, out, err = run_cli(capsys, "verify-observables")
        assert code == 0
        assert err == ""
        assert "eigenvalue table" in out
        assert "PsiMinus" in out and "PhiPlus" in out
        assert "commutator max-abs norms" in out
        assert "minimal distinguishing pairs" in out
        assert "(sx_sq, sy_sq)" in out


class TestRunCommands:
    def test_spin_batch_summary(self, capsys):
        summary = summary_of(capsys, "run-spin", "--trials", "25", "--seed", "3")
        assert summary["mode"] == "spin"
        assert summary["trials"] == 25
        assert summary["success_rate"] == 1.0
        assert summary["min_fidelity"] == 1.0

    def test_swap_batch_summary(self, capsys):
        summary = summary_of(capsys, "run-swap", "--trials", "25", "--seed", "4")
        assert summary["success_rate"] == 1.0
        assert set(summary["counts"]) <= {"PsiMinus", "PsiPlus", "PhiMinus", "PhiPlus"}

    def test_baseline_batch_summary(self, capsys):
        summary = summary_of(
            capsys, "run-baseline", "--trials", "300", "--seed", "5",
            "--input", "fixed:0.6,0.8",
        )
        assert summary["mode"] == "baseline"
        assert 0.15 < summary["success_rate"] < 0.35

    def test_photon_batch_with_efficiency_flags(self, capsys, tmp_path):
        path = tmp_path / "records.jsonl"
        summary = summary_of(
            capsys, "run-photon", "--trials", "40", "--seed", "6",
            "--eta-abs", "0.5", "--output", str(path),
        )
        assert summary["chi_square"] is not None
        lines = path.read_text().splitlines()
        assert len(lines) == 40
        assert all("event" in json.loads(line) for line in lines)

    def test_stdout_summary_is_deterministic(self, capsys):
        args = ("run-photon", "--trials", "30", "--seed", "11")
        first = summary_of(capsys, *args)
        second = summary_of(capsys, *args)
        first.pop("duration_seconds")
        second.pop("duration_seconds")
        assert first == second

    def test_csv_summary_file(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        summary_of(
            capsys, "run-spin", "--trials", "20", "--seed", "2",
            "--csv", str(path),
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "outcome,count,frequency"
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 20

    @pytest.mark.parametrize(
        "csv", ["missing/counts.csv", ""], ids=["missing", "empty"]
    )
    def test_bad_csv_path_fails_before_any_trial(
        self, capsys, tmp_path, monkeypatch, csv
    ):
        monkeypatch.chdir(tmp_path)
        calls = []
        teleport_rows = harness.teleport_rows
        monkeypatch.setattr(
            harness, "teleport_rows",
            lambda *args: calls.append(1) or teleport_rows(*args),
        )
        code, out, err = run_cli(
            capsys, "run-spin", "--trials", "10", "--csv", csv,
            "--output", "records.jsonl",
        )
        assert code == 1
        assert out == ""
        assert "cannot write output path" in err
        assert calls == []
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "csv, config",
        [
            ("records", False),
            ("sub/../records", False),
            ("link", False),
            ("records", True),
        ],
        ids=["same", "dotdot", "symlink", "output-from-config"],
    )
    def test_csv_on_the_record_file_fails_before_any_trial(
        self, capsys, tmp_path, monkeypatch, csv, config
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to("records")
        calls = []
        teleport_rows = harness.teleport_rows
        monkeypatch.setattr(
            harness, "teleport_rows",
            lambda *args: calls.append(1) or teleport_rows(*args),
        )
        argv = ["run-spin", "--trials", "5", "--csv", csv]
        if config:
            (tmp_path / "batch.cfg").write_text("mode = spin\noutput = records\n")
            argv += ["--config", "batch.cfg"]
        else:
            argv += ["--output", "records"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: --output and --csv name the same file {csv!r}\n"
        assert calls == []
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["sub", "link"] + (["batch.cfg"] if config else [])
        )

    def test_bad_input_argument_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "run-spin", "--input", "sideways")
        assert code == 1
        assert "input must be" in err

    def test_unnormalized_input_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "run-spin", "--input", "fixed:1,1")
        assert code == 1
        assert "not normalized" in err

    @pytest.mark.parametrize("command", ["run-spin", "run-photon"])
    def test_nan_input_fails_cleanly(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--input", "fixed:nan,0")
        assert code == 1
        assert "not normalized" in err

    @pytest.mark.parametrize("command", ["run-spin", "run-photon"])
    def test_overflowing_input_fails_cleanly(self, capsys, command):
        argv = (command, "--trials", "3", "--input", "fixed:1e200,0")
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err == "error: input not normalized (|a|^2+|b|^2 = inf)\n"

    def test_malformed_amplitudes_fail_cleanly(self, capsys):
        code, _, err = run_cli(capsys, "run-spin", "--input", "fixed:one,two")
        assert code == 1
        assert "cannot parse input amplitudes" in err


class TestConfigFile:
    def write_config(self, tmp_path, text):
        path = tmp_path / "batch.cfg"
        path.write_text(text)
        return str(path)

    def test_config_drives_the_run(self, capsys, tmp_path):
        path = self.write_config(
            tmp_path, "mode = photon\ntrials = 35\nmaster_seed = 9\neta_det = 0.5\n"
        )
        summary = summary_of(capsys, "run-photon", "--config", path)
        assert summary["trials"] == 35
        assert "NONE" in summary["counts"]

    def test_flags_override_the_config(self, capsys, tmp_path):
        path = self.write_config(tmp_path, "mode = spin\ntrials = 5\n")
        summary = summary_of(capsys, "run-spin", "--config", path, "--trials", "9")
        assert summary["trials"] == 9

    def test_mode_mismatch_is_rejected(self, capsys, tmp_path):
        path = self.write_config(tmp_path, "mode = spin\n")
        code, _, err = run_cli(capsys, "run-photon", "--config", path)
        assert code == 1
        assert "config sets mode" in err

    def test_parse_errors_surface_with_line_numbers(self, capsys, tmp_path):
        path = self.write_config(tmp_path, "mode = spin\nbogus = 1\n")
        code, _, err = run_cli(capsys, "run-spin", "--config", path)
        assert code == 1
        assert "line 2" in err


class TestSeedEnvOverride:
    def test_env_beats_the_flag(self, capsys, tmp_path, monkeypatch):
        flag_path = tmp_path / "flag.jsonl"
        env_path = tmp_path / "env.jsonl"
        summary_of(
            capsys, "run-spin", "--trials", "15", "--seed", "99",
            "--output", str(flag_path),
        )
        monkeypatch.setenv("BELLCAST_SEED", "99")
        summary_of(
            capsys, "run-spin", "--trials", "15", "--seed", "1",
            "--output", str(env_path),
        )
        assert flag_path.read_bytes() == env_path.read_bytes()

    def test_invalid_env_value_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.setenv("BELLCAST_SEED", "lots")
        code, _, err = run_cli(capsys, "run-spin", "--trials", "1")
        assert code == 1
        assert "BELLCAST_SEED" in err

    @pytest.mark.parametrize("value", ["-5", str(2**64)])
    def test_out_of_range_env_value_names_the_variable(
        self, capsys, monkeypatch, value
    ):
        monkeypatch.setenv("BELLCAST_SEED", value)
        code, out, err = run_cli(capsys, "run-spin", "--trials", "1", "--seed", "3")
        assert code == 1
        assert out == ""
        assert err == f"error: BELLCAST_SEED must fit in 64 bits, got '{value}'\n"


class TestSweep:
    def test_analytic_sweep_to_stdout(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep-efficiency", "--param", "eta_abs",
            "--from", "0", "--to", "1", "--steps", "3",
        )
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 4
        values = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in values] == ["0", "0.5", "1"]
        # D1 column climbs linearly at a quarter of the absorber efficiency.
        assert [float(row[1]) for row in values] == [0.0, 0.125, 0.25]

    def test_sweep_to_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep-efficiency", "--param", "eta_det",
            "--from", "0.2", "--to", "0.8", "--steps", "2",
            "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert path.read_text().splitlines()[0] == SWEEP_HEADER

    def test_failed_sweep_leaves_existing_file_and_no_temp(
        self, capsys, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.csv"
        path.write_text("previous sweep\n")
        analytic = cli.analytic_distribution
        calls = []

        def failing_on_second_step(*args):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("analytic table failed")
            return analytic(*args)

        monkeypatch.setattr(cli, "analytic_distribution", failing_on_second_step)
        code, out, err = run_cli(
            capsys, "sweep-efficiency", "--param", "eta_det",
            "--from", "0.2", "--to", "0.8", "--steps", "3",
            "--output", str(path),
        )
        assert code == 1
        assert out == ""
        assert "analytic table failed" in err
        assert path.read_bytes() == b"previous sweep\n"
        assert os.listdir(tmp_path) == ["sweep.csv"]

    def test_last_row_is_the_endpoint(self, capsys):
        # 0.059 -> 1 in 7 steps and 0.007 -> 0 in 11 steps are grid points
        # whose last step, by the interpolation formula, leaves [0, 1].
        endpoints = ["0", "0.007", "0.059", "0.3", "0.5", "0.9", "1"]
        for start in endpoints:
            for stop in endpoints:
                for steps in ("2", "3", "7", "10", "11"):
                    code, out, err = run_cli(
                        capsys, "sweep-efficiency", "--param", "eta_abs",
                        "--from", start, "--to", stop, "--steps", steps,
                    )
                    assert code == 0, (start, stop, steps, err)
                    rows = out.splitlines()[1:]
                    assert len(rows) == int(steps)
                    assert float(rows[-1].split(",")[0]) == float(stop)

    def test_rejects_single_step(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep-efficiency", "--param", "eta_abs",
            "--from", "0", "--to", "1", "--steps", "1",
        )
        assert code == 1
        assert "steps" in err

    def test_rejects_out_of_range_endpoints(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep-efficiency", "--param", "eta_abs",
            "--from", "0", "--to", "1.5", "--steps", "2",
        )
        assert code == 1
        assert "endpoints" in err


class TestArgumentErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-spin", "--warp", "9"])
        assert excinfo.value.code == 2

    def test_swap_takes_no_input_flag(self, capsys):
        # A swap batch teleports half of a second pair; it has no input to set.
        with pytest.raises(SystemExit) as excinfo:
            main(["run-swap", "--trials", "3", "--input", "fixed:1,0"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --input fixed:1,0" in capsys.readouterr().err

    def test_run_subcommands_follow_the_mode_table(self, capsys):
        parser = cli.build_parser()
        for mode in harness.Mode:
            name = f"run-{mode.value}"
            assert parser.parse_args([name]).command == name
            argv = [name, "--input", "haar-random"]
            if harness.MODE_SPECS[mode].takes_input:
                assert parser.parse_args(argv).input == "haar-random"
            else:
                with pytest.raises(SystemExit) as excinfo:
                    main(argv)
                assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["run-swap", "--input", "haar-random"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_out_of_range_seed_flag_names_the_flag(self, capsys, tmp_path, value):
        output = tmp_path / "records.jsonl"
        code, out, err = run_cli(
            capsys, "run-spin", "--trials", "1", "--seed", value,
            "--output", str(output),
        )
        assert code == 1
        assert out == ""
        assert err == f"error: --seed must fit in 64 bits, got {value}\n"
        assert not output.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bellcast", "verify-observables"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "projector routes max deviation" in proc.stdout
