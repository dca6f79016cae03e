import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import robustmc
from robustmc import numeric, sim
from robustmc.cli import run
from robustmc.pattern import NoiseBudget, SamplingPattern, serialize_pattern

from oracles import parse_sweep_csv, serialize_observations


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def full_pattern_file(tmp_path):
    path = tmp_path / "full.pat"
    path.write_text(serialize_pattern(SamplingPattern.full(3, 4)))
    return str(path)


class TestVerify:
    def test_positive_verdict_exit_zero(self, full_pattern_file):
        code, text = invoke(["verify", "--pattern", full_pattern_file, "--rank", "1"])
        assert code == 0
        assert "FinitelyCompletable" in text

    def test_unique_flag(self, full_pattern_file):
        code, text = invoke(
            ["verify", "--pattern", full_pattern_file, "--rank", "1", "--unique"]
        )
        assert code == 0
        assert "UniquelyCompletable" in text

    def test_refuted_exit_one(self, tmp_path):
        p = tmp_path / "thin.pat"
        p.write_text(serialize_pattern(SamplingPattern.full(3, 1)))
        code, text = invoke(["verify", "--pattern", str(p), "--rank", "1"])
        assert code == 1
        assert "Refuted" in text

    def test_indeterminate_exit_two(self, full_pattern_file):
        code, _ = invoke(
            ["verify", "--pattern", full_pattern_file, "--rank", "1",
             "--noise", "global:1", "--cap", "2"]
        )
        assert code == 2

    def test_negative_cap_is_usage_error(self, full_pattern_file):
        code, text = invoke(
            ["verify", "--pattern", full_pattern_file, "--rank", "1",
             "--noise", "global:1", "--cap", "-5"]
        )
        assert code == 64
        assert text == ""

    @pytest.mark.parametrize("flag", ["--search-budget", "--threads", "--prescreen", "--seed"])
    def test_removed_tuning_flags_are_usage_errors(self, full_pattern_file, flag):
        code, _ = invoke(["verify", "--pattern", full_pattern_file, "--rank", "1", flag, "2"])
        assert code == 64

    def test_duplicate_cell_file_is_data_error(self, tmp_path):
        p = tmp_path / "dup.pat"
        p.write_text("2 2\n0 0\n0 0\n")
        code, _ = invoke(["verify", "--pattern", str(p), "--rank", "1"])
        assert code == 65

    def test_missing_file_is_data_error(self):
        code, _ = invoke(["verify", "--pattern", "/nonexistent.pat", "--rank", "1"])
        assert code == 65

    def test_directory_path_is_data_error(self, tmp_path, capsys):
        code, _ = invoke(["verify", "--pattern", str(tmp_path), "--rank", "1"])
        assert code == 65
        assert "Traceback" not in capsys.readouterr().err

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"\xff\xfe2 2\n0 0\n")
        code, _ = invoke(["verify", "--pattern", str(path), "--rank", "1"])
        assert code == 65
        assert "Traceback" not in capsys.readouterr().err

    def test_json_output_parses_and_is_deterministic(self, full_pattern_file):
        code, text1 = invoke(
            ["verify", "--pattern", full_pattern_file, "--rank", "1", "--format", "json"]
        )
        _, text2 = invoke(
            ["verify", "--pattern", full_pattern_file, "--rank", "1", "--format", "json"]
        )
        assert code == 0
        assert text1 == text2
        doc = json.loads(text1)
        assert doc["verdict"] == "FinitelyCompletable"


class TestBounds:
    def test_rank_branch_reference(self):
        code, text = invoke(
            ["bounds", "--d", "600", "--r", "100", "--eps", "0.01", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["l_min"] == 201
        assert doc["binding"] == "2r"

    def test_noise_budget_accepted(self):
        code, text = invoke(
            ["bounds", "--d", "600", "--r", "10", "--eps", "0.01",
             "--noise", "percolumn:1", "--format", "json"]
        )
        assert code == 0
        assert json.loads(text)["l_min"] == 275

    def test_bad_noise_spec_is_usage_error(self):
        for spec in ("sideways:2", "global", "global:x"):
            code, _ = invoke(["bounds", "--d", "10", "--r", "1", "--eps", "0.1",
                              "--noise", spec])
            assert code == 64, spec

    def test_bound_beyond_ten_million_samples(self):
        code, text = invoke(
            ["bounds", "--d", "6000000", "--r", "1000000", "--eps", "0.01",
             "--noise", "percolumn:1000000", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["l_min"] == 61_411_447
        assert doc["feasible"] is False


class TestSweep:
    def test_reference_sweep(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _ = invoke(
            ["sweep", "--d", "600", "--N", "60000", "--eps", "0.01",
             "--rmax", "100", "--g-list", "-1,1,2", "--out", str(out_file)]
        )
        assert code == 0
        rows = parse_sweep_csv(out_file.read_text())
        assert len(rows) == 300
        noiseless = {row.r: row for row in rows if row.g == -1}
        assert noiseless[10].l_min == 145
        assert noiseless[100].l_min == 201

    def test_stdout_and_determinism(self):
        args = ["sweep", "--d", "60", "--N", "100", "--eps", "0.1", "--rmax", "5",
                "--g-list", "-1,1"]
        code1, text1 = invoke(args)
        code2, text2 = invoke(args)
        assert code1 == code2 == 0
        assert text1 == text2
        assert text1.splitlines()[0] == "r,g,l_min,portion,binding,feasible,premise_ok"

    def test_directory_out_is_data_error(self, tmp_path, capsys):
        code, _ = invoke(["sweep", "--d", "60", "--N", "100", "--eps", "0.1", "--rmax", "2",
                          "--out", str(tmp_path)])
        assert code == 65
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--rmax", "0"], ["--rmax", "-2"], ["--rmax", "3", "--g-list", ""],
                                       ["--rmax", "3", "--g-list", ","],
                                       ["--rmax", "3", "--g-list", "1,x"]])
    def test_empty_sweep_is_usage_error(self, extra, capsys):
        # a sweep with no rank or no noise level would print only the header;
        # a noise level that is no integer is refused the same way
        code, text = invoke(["sweep", "--d", "60", "--N", "100", "--eps", "0.1", *extra])
        assert code == 64
        assert text == ""
        assert "usage error" in capsys.readouterr().err


class TestRank:
    def test_ceiling_report(self, full_pattern_file):
        code, text = invoke(["rank", "--pattern", full_pattern_file, "--format", "json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["r_star"] >= 1
        assert doc["exact"] is True

    def test_hopeless_pattern_exit_one(self, tmp_path):
        p = tmp_path / "sparse.pat"
        p.write_text("3 2\n0 0\n0 1\n")
        code, text = invoke(["rank", "--pattern", str(p), "--format", "json"])
        assert code == 1
        assert json.loads(text)["r_star"] == 0

    def test_capped_scan_exit_two(self, tmp_path):
        p = tmp_path / "full.pat"
        p.write_text(serialize_pattern(SamplingPattern.full(4, 3)))
        code, text = invoke(["rank", "--pattern", str(p), "--noise", "global:1", "--cap", "0",
                             "--format", "json"])
        assert code == 2
        doc = json.loads(text)
        assert doc["exact"] is False
        assert doc["r_star"] == 0


class TestIdentify:
    def test_recovers_planted_support(self, tmp_path):
        inst = numeric.generate_instance(
            6, 10, 2, NoiseBudget.global_noise(1), planted=True, seed=8
        )
        path = tmp_path / "obs.txt"
        path.write_text(serialize_observations(inst.pattern, inst.observations()))
        code, text = invoke(
            ["identify", "--data", str(path), "--rank", "2", "--s", "1", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(text)
        assert {tuple(c) for c in doc["support"]} == inst.noise_support()

    def test_no_support_exit_one(self, tmp_path):
        inst = numeric.generate_instance(
            6, 10, 2, NoiseBudget.global_noise(2), planted=True, seed=9
        )
        path = tmp_path / "obs.txt"
        path.write_text(serialize_observations(inst.pattern, inst.observations()))
        code, text = invoke(["identify", "--data", str(path), "--rank", "2", "--s", "0"])
        assert code == 1
        assert "no-support-found" in text

    def test_no_support_json_parses(self, tmp_path):
        # a 2x2 matrix of rank 2 with no cell to remove: its one minor is flagged
        path = tmp_path / "obs.txt"
        path.write_text("2 2\n0 0 1.0\n0 1 2.0\n1 0 3.0\n1 1 5.0\n")
        code, text = invoke(
            ["identify", "--data", str(path), "--rank", "1", "--s", "0", "--format", "json"]
        )
        assert code == 1
        doc = json.loads(text)
        assert "no-support-found" in doc
        assert doc["best_residual"] is None

    @pytest.mark.parametrize(
        "text", ["2 2\n0 0 1.0\n5 1 2.0\n", "0 2\n", "2 2\n0 0 1.0\n1 1 nan\n",
                 "2 2 2\n0 0 1.0\n", "2 x\n0 0 1.0\n", "2 2\n0 0 one\n"]
    )
    def test_malformed_observation_file_is_data_error(self, tmp_path, text):
        path = tmp_path / "obs.txt"
        path.write_text(text)
        code, _ = invoke(["identify", "--data", str(path), "--rank", "1", "--s", "0"])
        assert code == 65

    def test_non_utf8_observation_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bin.txt"
        path.write_bytes(b"\xff\xfe2 2\n0 0 1.0\n")
        code, _ = invoke(["identify", "--data", str(path), "--rank", "1", "--s", "0"])
        assert code == 65
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_meaningless_tolerance_is_usage_error(self, tmp_path, capsys, tol):
        path = tmp_path / "obs.txt"
        path.write_text("2 2\n0 0 1.0\n0 1 2.0\n1 0 3.0\n1 1 4.0\n")
        code, text = invoke(
            ["identify", "--data", str(path), "--rank", "1", "--s", "0", "--tol", tol]
        )
        assert code == 64
        assert text == ""
        assert "Traceback" not in capsys.readouterr().err


class TestSimulate:
    def test_single_l_csv(self):
        code, text = invoke(
            ["simulate", "--d", "5", "--N", "8", "--r", "2", "--l", "5",
             "--trials", "5", "--seed", "1"]
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "l,pass,trials,estimate,ci_lo,ci_hi,theory_lmin"
        assert lines[1].startswith("5,5,5,1.000000")

    def test_bad_eps_rejected_before_any_trial(self, monkeypatch):
        def no_trials(cfg):
            raise AssertionError("trials ran before --eps was checked")

        monkeypatch.setattr(sim, "estimate_pass_probability", no_trials)
        code, _ = invoke(
            ["simulate", "--d", "12", "--N", "60", "--r", "2", "--l", "8",
             "--trials", "2000", "--eps", "0"]
        )
        assert code == 64

    def test_readme_commands_pinned(self):
        # README's two simulate commands; every trial draws its pattern from
        # the sampler's stream, so a change to that stream shows here
        base = ["simulate", "--d", "12", "--N", "24", "--r", "2", "--trials", "200", "--seed", "1"]
        header = "l,pass,trials,estimate,ci_lo,ci_hi,theory_lmin\n"
        assert invoke(base + ["--l", "6"]) == (
            0, header + "6,200,200,1.000000,0.981155,1.000000,70\n"
        )
        assert invoke(base + ["--scan", "--eps", "0.1"]) == (
            0,
            header
            + "2,0,200,0.000000,0.000000,0.018845,70\n"
            + "3,169,200,0.845000,0.788393,0.888604,70\n"
            + "4,199,200,0.995000,0.972226,0.999117,70\n"
            + "# threshold=4 theory_capped=12\n",
        )

    @pytest.mark.parametrize(
        "d, N, trials, rows",
        [
            (20, 600, 200, ["2,0,200,0.000000,0.000000,0.018845,76", "3,200,200,1.000000,0.981155,1.000000,76"]),
            (8, 40, 30, ["2,0,30,0.000000,0.000000,0.113513,65", "3,30,30,1.000000,0.886487,1.000000,65"]),
        ],
    )
    def test_scan_from_the_rank_level_pinned(self, d, N, trials, rows):
        # the l = r row is known without sampling, and stays what sampling gave
        argv = ["simulate", "--scan", "--d", str(d), "--N", str(N), "--r", "2", "--trials", str(trials)]
        header = "l,pass,trials,estimate,ci_lo,ci_hi,theory_lmin"
        footer = f"# threshold=3 theory_capped={d}"
        assert invoke(argv) == (0, "\n".join([header, *rows, footer]) + "\n")

    def test_rows_beyond_32_bits_rejected(self):
        code, _ = invoke(
            ["simulate", "--d", str(2**32 + 1), "--N", "2", "--r", "1", "--l", "2",
             "--trials", "1"]
        )
        assert code == 64

    def test_scan_mode(self):
        code, text = invoke(
            ["simulate", "--d", "6", "--N", "10", "--r", "2", "--scan",
             "--trials", "10", "--seed", "2", "--eps", "0.2"]
        )
        assert code == 0
        assert "# threshold=" in text


class TestUsage:
    def test_unknown_flag(self):
        code, _ = invoke(["bounds", "--d", "10", "--r", "1", "--eps", "0.1", "--bogus"])
        assert code == 64

    def test_unknown_subcommand(self):
        code, _ = invoke(["transmogrify"])
        assert code == 64

    def test_missing_required(self):
        code, _ = invoke(["verify", "--rank", "1"])
        assert code == 64


class _ClosedStream:
    """A stream whose reader has gone, like a pipe into `head -1` that has exited."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.fixture
def thin_pattern_file(tmp_path):
    path = tmp_path / "thin.pat"
    path.write_text(serialize_pattern(SamplingPattern.full(3, 1)))
    return str(path)


class TestClosedOutput:
    @pytest.mark.parametrize("command, code", [("verify", 1), ("simulate", 0)])
    def test_command_keeps_its_exit_code(self, thin_pattern_file, capsys, command, code):
        argv = {
            "verify": ["verify", "--pattern", thin_pattern_file, "--rank", "1"],
            "simulate": ["simulate", "--d", "5", "--N", "8", "--r", "2", "--l", "5", "--trials", "2"],
        }[command]
        assert run(argv, out=_ClosedStream()) == code
        assert capsys.readouterr().err == ""

    def test_main_keeps_its_exit_code_at_the_exit_flush(self, thin_pattern_file):
        # stdout is a pipe whose read end is closed before the command writes
        env = dict(os.environ, PYTHONPATH=str(Path(robustmc.__file__).parent.parent))
        proc = subprocess.Popen(
            [sys.executable, "-c", "from robustmc.cli import main; main()",
             "verify", "--pattern", thin_pattern_file, "--rank", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""
