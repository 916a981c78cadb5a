import dataclasses
import hashlib
import json

import pytest

from futurity import SolverFailure, chain, cli, format_machine_file, mills_modes, simulate
from futurity.cli import UsageError, _grid, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse JSON, failing on the NaN and Infinity tokens strict parsers refuse."""

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def assert_one_line(err, prefix):
    """The run failed with one stderr line starting with prefix, no traceback."""
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def unreachable(*args):
    raise AssertionError("a coup was drawn before the input was checked")


def csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestExact:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7")
        assert code == 0
        assert "0.0916432785" in out
        assert "oracle" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--strategy", "AABB", "--pa", "0.3", "--pb", "0.7",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["profit"] == pytest.approx(0.007952515906215223, rel=1e-10)
        assert payload["abs_difference"] <= 1e-9
        assert (payload["h"], payload["r"], payload["s"]) == (1, 2, 2)

    def test_diagonal_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--strategy", "AABB", "--pa", "0.5", "--pb", "0.5",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["profit"] == 0.0

    def test_missing_arm_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--strategy", "AAA", "--pa", ".3", "--pb", ".7")
        assert code == 2
        assert "both arms" in err

    def test_bad_probability_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--strategy", "AB", "--pa", "0", "--pb", ".7")
        assert code == 2
        assert "error" in err

    def test_paper_sign(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7", "--paper-sign"
        )
        assert code == 0
        assert "uncorrected-sign" in out

    @pytest.mark.parametrize(
        "strategy, p_a, p_b",
        [("AABB", "1e-9", "3e-9"), ("AABAB", "1e-9", "3e-9"), ("AB", "1e-12", "1e-12")],
    )
    def test_tiny_probabilities_pass_the_oracle_check(self, capsys, strategy, p_a, p_b):
        code, out, err = run_cli(
            capsys, "exact", "--strategy", strategy, "--pa", p_a, "--pb", p_b, "--format", "json"
        )
        assert code == 0, err
        assert strict_json(out)["abs_difference"] <= 1e-15


class TestSweep:
    def test_grid_shape_and_properties(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--strategy", "AB", "--grid-step", "0.1", "--out", str(out_path)
        )
        assert code == 0
        header, rows = csv_rows(out_path.read_text(encoding="utf-8"))
        assert header == ["strategy", "p_a", "p_b", "r_exact", "q", "s"]
        assert len(rows) == 81
        values = {(row[1], row[2]): float(row[3]) for row in rows}
        for (p_a, p_b), r in values.items():
            assert r >= 0.0
            if p_a == p_b:
                assert r == 0.0
            # equal-play symmetry: swapping the arms leaves profit unchanged
            assert r == values[(p_b, p_a)]

    def test_fix_pb_slice(self, capsys, tmp_path):
        out_path = tmp_path / "slice.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--strategy", "AAABB", "--fix-pb", "0.5", "--out", str(out_path)
        )
        assert code == 0
        _, rows = csv_rows(out_path.read_text(encoding="utf-8"))
        assert len(rows) == 9
        assert {row[2] for row in rows} == {"0.5"}

    @pytest.mark.parametrize("fix_pb", ["0", "1", "nan", "1e-17"])
    def test_fix_pb_out_of_range_exits_2(self, capsys, tmp_path, fix_pb):
        out_path = tmp_path / "slice.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--strategy", "AB", "--fix-pb", fix_pb, "--out", str(out_path)
        )
        assert code == 2
        assert_one_line(err, "error: p_b must lie")
        assert out == ""
        assert not out_path.exists()

    def test_multiple_strategies_sorted(self, capsys, tmp_path):
        out_path = tmp_path / "multi.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--strategy", "AABB", "--strategy", "AB",
            "--grid-step", "0.2", "--out", str(out_path),
        )
        assert code == 0
        _, rows = csv_rows(out_path.read_text(encoding="utf-8"))
        strategies = [row[0] for row in rows]
        assert strategies == sorted(strategies)

    def test_spellings_of_one_pattern_merge(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--strategy", "a b", "--strategy", "AB", "--grid-step", "0.4"
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 4
        assert {row[0] for row in rows} == {"AB"}

    def test_byte_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_cli(capsys, "sweep", "--strategy", "ABB", "--out", str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_bad_step(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--strategy", "AB", "--grid-step", "0.6")
        assert code == 2

    def test_grid_point_cap(self):
        with pytest.raises(UsageError, match="points per axis"):
            _grid(1e-5)
        assert len(_grid(0.001)) == 999

    @pytest.mark.parametrize("command", [["sweep", "--strategy", "AB"], ["random-sweep"]])
    def test_tiny_step_exits_2(self, capsys, command):
        # refused before the grid is built, so this returns at once
        code, out, err = run_cli(capsys, *command, "--grid-step", "1e-9")
        assert code == 2
        assert "points per axis" in err
        assert out == ""


class TestRandomSweep:
    def test_default_gammas(self, capsys, tmp_path):
        out_path = tmp_path / "random.csv"
        code, _, _ = run_cli(capsys, "random-sweep", "--out", str(out_path))
        assert code == 0
        header, rows = csv_rows(out_path.read_text(encoding="utf-8"))
        assert header == ["gamma", "p_a", "p_b", "r_c"]
        assert len(rows) == 5 * 81
        assert all(float(row[3]) >= -1e-12 for row in rows)

    def test_gamma_zero_surface_is_zero(self, capsys, tmp_path):
        out_path = tmp_path / "zero.csv"
        code, _, _ = run_cli(capsys, "random-sweep", "--gamma", "0", "--out", str(out_path))
        assert code == 0
        _, rows = csv_rows(out_path.read_text(encoding="utf-8"))
        assert all(row[3] == "0" for row in rows)

    def test_known_cell(self, capsys, tmp_path):
        out_path = tmp_path / "cell.csv"
        run_cli(capsys, "random-sweep", "--gamma", "0.5", "--out", str(out_path))
        _, rows = csv_rows(out_path.read_text(encoding="utf-8"))
        cell = [row for row in rows if row[1] == "0.3" and row[2] == "0.7"]
        assert float(cell[0][3]) == pytest.approx(0.0241327, abs=1e-6)

    def test_paper_sign_column(self, capsys, tmp_path):
        out_path = tmp_path / "signed.csv"
        run_cli(capsys, "random-sweep", "--gamma", "0.5", "--paper-sign", "--out", str(out_path))
        header, rows = csv_rows(out_path.read_text(encoding="utf-8"))
        assert header[-1] == "r_c_uncorrected_sign"
        assert float(rows[0][4]) == -float(rows[0][3])

    @pytest.mark.parametrize("gamma", ["-0.1", "1.5", "nan", "inf"])
    def test_gamma_out_of_range_exits_2(self, capsys, tmp_path, gamma):
        out_path = tmp_path / "random.csv"
        code, out, err = run_cli(
            capsys, "random-sweep", "--gamma", "0.5", "--gamma", gamma, "--out", str(out_path)
        )
        assert code == 2
        assert_one_line(err, "error: gamma must lie")
        assert out == ""
        assert not out_path.exists()


class TestSimulate:
    def test_summary_and_csv(self, capsys, tmp_path):
        out_path = tmp_path / "means.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--strategy", "AAABB", "--pa", "0.3", "--pb", "0.7",
            "--coups", "2000", "--reps", "50", "--seed", "7", "--out", str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["schema_version"] == 1
        assert summary["master_seed"] == 7
        assert abs(summary["z_score"]) < 6.0
        header, rows = csv_rows(out_path.read_text(encoding="utf-8"))
        assert header == ["replication", "mean_profit"]
        assert len(rows) == 50

    def test_same_seed_identical_bytes(self, capsys, tmp_path):
        paths = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for path in paths:
            run_cli(
                capsys, "simulate", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
                "--coups", "1000", "--reps", "20", "--seed", "42", "--out", str(path),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_workers_do_not_change_output(self, capsys, tmp_path):
        outputs = []
        for workers in ("1", "4", "16"):
            path = tmp_path / f"w{workers}.csv"
            code, _, _ = run_cli(
                capsys, "simulate", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
                "--coups", "1000", "--reps", "32", "--seed", "11",
                "--workers", workers, "--out", str(path),
            )
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_entropy_seed_announced(self, capsys, tmp_path):
        out_path = tmp_path / "noseed.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            "--coups", "500", "--reps", "5", "--out", str(out_path),
        )
        assert code == 0
        assert "entropy seed" in err
        assert json.loads(out)["master_seed"] > 0

    def test_machine_file_run(self, capsys, tmp_path):
        machine_path = tmp_path / "mills.machine"
        mode_e, mode_o = mills_modes()
        machine_path.write_text(format_machine_file(mode_e, mode_o), encoding="utf-8")
        out_path = tmp_path / "mills.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--strategy", "AB", "--machine", str(machine_path),
            "--coups", "2000", "--reps", "20", "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["reduction"] == "fair"
        assert summary["oracle_value"] > 0.0

    def test_raw_multipoint_reduction(self, capsys, tmp_path):
        machine_path = tmp_path / "mills.machine"
        mode_e, mode_o = mills_modes()
        machine_path.write_text(format_machine_file(mode_e, mode_o), encoding="utf-8")
        out_path = tmp_path / "raw.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--strategy", "AB", "--machine", str(machine_path),
            "--reduction", "multipoint",
            "--coups", "2000", "--reps", "20", "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["reduction"] == "multipoint"
        # uncalibrated Mills arms under a 2-loss refund favor the player
        assert summary["oracle_value"] < 0.0
        assert abs(summary["z_score"]) < 6.0

    def test_zero_standard_error_gives_null_z_score(self, capsys, tmp_path):
        # both modes always pay, so every replication has the same mean
        machine_path = tmp_path / "sure.machine"
        machine_path.write_text("5 1.0\n\n3 1.0\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "simulate", "--strategy", "AB", "--machine", str(machine_path),
            "--reduction", "multipoint",
            "--coups", "100", "--reps", "4", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 0
        summary = strict_json(out)
        assert summary["standard_error"] == 0.0
        assert summary["z_score"] is None
        assert summary["grand_mean"] == summary["oracle_value"] == -3.0

    def test_single_replication_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "simulate", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            "--coups", "100", "--reps", "1", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--reps" in err
        assert out == ""

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, tmp_path, workers):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            "--coups", "100", "--reps", "4", "--seed", "1", "--workers", workers,
            "--out", str(out_path),
        )
        assert code == 2
        assert "workers" in err
        assert out == ""
        assert not out_path.exists()

    def test_too_many_workers_exit_2(self, capsys, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built before workers were checked")

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            "--coups", "100", "--reps", "4", "--seed", "1", "--workers", "1000000",
            "--out", str(out_path),
        )
        assert code == 2
        assert "workers" in err
        assert out == ""
        assert not out_path.exists()

    def test_oversized_reps_exit_2(self, capsys, tmp_path):
        # rejected before any per-replication array is allocated
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            "--coups", "100", "--reps", "100000000000", "--seed", "1", "--out", str(out_path),
        )
        assert code == 2
        assert "cap" in err
        assert out == ""
        assert not out_path.exists()

    def test_missing_probs_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--strategy", "AB", "--coups", "100", "--reps", "2",
            "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--pa and --pb" in err

    def test_oversized_chain_exit_2(self, capsys, tmp_path, monkeypatch):
        # the oracle's state cap is checked before any solve or draw
        def unreachable(*args):
            raise AssertionError("the run was solved or drawn before its size was checked")

        monkeypatch.setattr(simulate, "_pattern_chunks", unreachable)
        monkeypatch.setattr(chain, "_streak_distributions", unreachable)
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            "--coups", "100", "--reps", "4", "--seed", "1", "--j", "100000000",
            "--out", str(out_path),
        )
        assert code == 2
        assert "cap" in err
        assert out == ""
        assert not out_path.exists()


class TestTrajectory:
    def test_rows_and_stride(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            capsys, "trajectory", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            "--coups", "100000", "--stride", "1000", "--seed", "9", "--out", str(out_path),
        )
        assert code == 0
        header, rows = csv_rows(out_path.read_text(encoding="utf-8"))
        assert header == ["coup", "cumulative_profit"]
        assert len(rows) == 100
        assert rows[0][0] == "1000" and rows[-1][0] == "100000"

    @pytest.mark.parametrize(
        "reduction, strategy, digest",
        [
            ("fair", "AAABB", "32706af4cab917ce779a29224eaf9ff4a45b4b3120db29685ff3d97afcb91103"),
            ("multipoint", "AB", "552b58a9077faca93a90aa28f74b36d2b742c882f89f220e13bd77e4f31f34d7"),
        ],
    )
    def test_mills_csv_digest(self, capsys, tmp_path, reduction, strategy, digest):
        # sha256 of the whole CSV. Multipoint rows are integers, exact in any order of
        # summation; fair rows round, so their digest pins the order the counts are summed in.
        machine_path = tmp_path / "mills.machine"
        machine_path.write_text(format_machine_file(*mills_modes()), encoding="utf-8")
        out_path = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            capsys, "trajectory", "--strategy", strategy, "--machine", str(machine_path),
            "--reduction", reduction, "--coups", "300001", "--stride", "7", "--seed", "2026",
            "--out", str(out_path),
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_single_point(self, capsys, tmp_path):
        out_path = tmp_path / "one.csv"
        run_cli(
            capsys, "trajectory", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            "--coups", "5000", "--stride", "5000", "--seed", "9", "--out", str(out_path),
        )
        _, rows = csv_rows(out_path.read_text(encoding="utf-8"))
        assert len(rows) == 1

    def test_stride_above_coups_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "none.csv"
        code, _, err = run_cli(
            capsys, "trajectory", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            "--coups", "100", "--stride", "1000", "--seed", "9", "--out", str(out_path),
        )
        assert code == 2
        assert "exceeds" in err
        assert not out_path.exists()

    def test_probabilities_with_machine_exit_2(self, capsys, tmp_path):
        machine_path = tmp_path / "mills.machine"
        machine_path.write_text(format_machine_file(*mills_modes()), encoding="utf-8")
        out_path = tmp_path / "traj.csv"
        code, _, err = run_cli(
            capsys, "trajectory", "--strategy", "AB", "--machine", str(machine_path),
            "--pa", "0.3", "--pb", "0.7", "--coups", "1000", "--stride", "100", "--seed", "9",
            "--out", str(out_path),
        )
        assert code == 2
        assert "--machine" in err
        assert not out_path.exists()

    def test_reduction_without_machine_exit_2(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, err = run_cli(
            capsys, "trajectory", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            "--reduction", "multipoint", "--coups", "1000", "--stride", "100", "--seed", "9",
            "--out", str(out_path),
        )
        assert code == 2
        assert "--reduction" in err
        assert not out_path.exists()

    def test_too_many_points_exit_2(self, capsys, tmp_path):
        # 10**11 rows would be drawn for hours; the cap rejects them before any draw
        out_path = tmp_path / "huge.csv"
        code, _, err = run_cli(
            capsys, "trajectory", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            "--coups", "100000000000", "--stride", "1", "--seed", "9", "--out", str(out_path),
        )
        assert code == 2
        assert "cap" in err
        assert not out_path.exists()


class TestBadSeeds:
    RUN_FLAGS = {
        "simulate": ["--coups", "100", "--reps", "4"],
        "trajectory": ["--coups", "100", "--stride", "10"],
    }

    @pytest.mark.parametrize("command", ["simulate", "trajectory"])
    def test_negative_seed_exits_2(self, capsys, tmp_path, command):
        out_path = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, command, "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            *self.RUN_FLAGS[command], "--seed", "-5", "--out", str(out_path),
        )
        assert code == 2
        assert "seed" in err
        assert out == ""
        assert not out_path.exists()


class TestNonFiniteRewards:
    RUN_FLAGS = {
        "simulate": ["--strategy", "AB", "--reduction", "multipoint", "--coups", "100",
                     "--reps", "4", "--seed", "1"],
        "trajectory": ["--strategy", "AB", "--reduction", "multipoint", "--coups", "100",
                       "--stride", "10", "--seed", "1"],
        "machine-info": ["--format", "json"],
    }

    @pytest.mark.parametrize("reward", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["simulate", "trajectory", "machine-info"])
    def test_exits_2(self, capsys, tmp_path, command, reward):
        machine_path = tmp_path / "bad.machine"
        machine_path.write_text(f"0 0.5\n{reward} 0.5\n\n0 0.25\n1.5 0.75\n", encoding="utf-8")
        out_path = tmp_path / "out.csv"
        out_flags = [] if command == "machine-info" else ["--out", str(out_path)]
        code, out, err = run_cli(
            capsys, command, "--machine", str(machine_path), *self.RUN_FLAGS[command], *out_flags
        )
        assert code == 2
        assert "non-finite reward" in err
        assert out == ""
        assert not out_path.exists()


class TestMachineInfo:
    def test_mills_text(self, capsys):
        code, out, _ = run_cli(capsys, "machine-info", "--mills")
        assert code == 0
        assert "mode A" in out and "mode B" in out
        assert "0.968" in out and "0.357" in out

    def test_mills_json(self, capsys):
        code, out, _ = run_cli(capsys, "machine-info", "--mills", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        modes = payload["modes"]
        assert modes[0]["win_probability"] == pytest.approx(0.032, abs=1e-12)
        assert abs(modes[0]["fair_single_arm_profit"]) <= 1e-12
        assert abs(modes[1]["fair_single_arm_profit"]) <= 1e-12

    def test_requires_source(self, capsys):
        code, _, err = run_cli(capsys, "machine-info")
        assert code == 2
        assert "--machine" in err

    def test_machine_file(self, capsys, tmp_path):
        path = tmp_path / "m.machine"
        path.write_text("0 0.5\n2 0.5\n\n0 0.25\n1.5 0.75\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "machine-info", "--machine", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["modes"][0]["win_probability"] == 0.5

    def test_bad_machine_file(self, capsys, tmp_path):
        path = tmp_path / "bad.machine"
        path.write_text("0 0.7\n2 0.5\n\n0 0.25\n1.5 0.75\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "machine-info", "--machine", str(path))
        assert code == 2

    def test_mills_with_machine_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "machine-info", "--mills", "--machine", str(tmp_path / "absent.machine")
        )
        assert code == 2
        assert "not both" in err
        assert out == ""

    def test_oversized_chain_exits_2(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the chain was solved before its size was checked")

        monkeypatch.setattr(chain, "_streak_distributions", unreachable)
        code, out, err = run_cli(
            capsys, "machine-info", "--mills", "--j", str(chain.MAX_CHAIN_STATES + 1)
        )
        assert code == 2
        assert "cap" in err
        assert out == ""


class TestBadFiles:
    def test_missing_machine_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "machine-info", "--machine", str(tmp_path / "absent.machine"))
        assert code == 2
        assert_one_line(err, "error:")
        assert "absent.machine" in err
        assert out == ""

    def test_machine_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.machine"
        path.write_bytes("0 0.5\n2 0.5\n\n# caf\u00e9\n0 0.25\n1.5 0.75\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "machine-info", "--machine", str(path))
        assert code == 2
        assert_one_line(err, "error:")
        assert str(path) in err and "UTF-8" in err
        assert out == ""

    def test_sweep_out_in_missing_directory(self, capsys, tmp_path):
        out_path = tmp_path / "absent" / "sweep.csv"
        code, out, err = run_cli(capsys, "sweep", "--strategy", "AB", "--out", str(out_path))
        assert code == 2
        assert_one_line(err, "error:")
        assert str(out_path) in err
        assert out == ""

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    @pytest.mark.parametrize("command", ["simulate", "trajectory"])
    def test_out_refused_before_drawing(self, capsys, tmp_path, monkeypatch, command, where):
        monkeypatch.setattr(simulate, "_pattern_chunks", unreachable)
        out_path = tmp_path if where == "directory" else tmp_path / "absent" / "out.csv"
        code, out, err = run_cli(
            capsys, command, "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            *TestBadSeeds.RUN_FLAGS[command], "--seed", "1", "--out", str(out_path),
        )
        assert code == 2
        assert_one_line(err, f"error: --out {out_path}")
        assert out == ""

    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    @pytest.mark.parametrize("command", ["sweep", "random-sweep"])
    def test_out_refused_before_rows(self, capsys, tmp_path, monkeypatch, command, where):
        monkeypatch.setattr(cli, "_checked_profit", unreachable)
        monkeypatch.setattr(cli, "random_mix_profit", unreachable)
        out_path = tmp_path if where == "directory" else tmp_path / "absent" / "out.csv"
        flags = ["--strategy", "AB"] if command == "sweep" else []
        code, out, err = run_cli(capsys, command, *flags, "--out", str(out_path))
        assert code == 2
        assert_one_line(err, f"error: --out {out_path}")
        assert out == ""


class TestNumericFailure:
    @pytest.fixture
    def skewed_oracle(self, monkeypatch):
        """The oracle's profit moved by 1e-6, far beyond the 1e-9 agreement gate."""
        exact_oracle = cli.oracle_profit

        def skewed(spec, *args, **kwargs):
            solution = exact_oracle(spec, *args, **kwargs)
            return dataclasses.replace(solution, casino_profit=solution.casino_profit + 1e-6)

        monkeypatch.setattr(cli, "oracle_profit", skewed)

    def test_exact_prints_then_exits_3(self, capsys, skewed_oracle):
        code, out, err = run_cli(capsys, "exact", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7")
        assert code == 3
        assert "profit R" in out and "oracle R" in out
        assert_one_line(err, "numeric failure:")

    def test_sweep_writes_no_rows(self, capsys, tmp_path, skewed_oracle):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run_cli(capsys, "sweep", "--strategy", "AB", "--out", str(out_path))
        assert code == 3
        assert_one_line(err, "numeric failure:")
        assert out == ""
        assert not out_path.exists()

    def test_simulate_solver_failure_before_drawing(self, capsys, tmp_path, monkeypatch):
        def failing(*args):
            raise SolverFailure("streak recurrence did not close over one period", 1.0)

        monkeypatch.setattr(chain, "_streak_distributions", failing)
        monkeypatch.setattr(simulate, "_pattern_chunks", unreachable)
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "simulate", "--strategy", "AB", "--pa", "0.3", "--pb", "0.7",
            "--coups", "100", "--reps", "4", "--seed", "1", "--out", str(out_path),
        )
        assert code == 3
        assert_one_line(err, "numeric failure:")
        assert out == ""
        assert not out_path.exists()
