"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

import repro.cli
from repro.cli import build_parser, main


class TestStats:
    def test_stats_generate(self, capsys):
        assert main(["stats", "--generate", "adder", "--width", "8"]) == 0
        out = capsys.readouterr().out
        assert "16 PIs" in out and "size" in out

    def test_unknown_generator(self):
        with pytest.raises(SystemExit):
            main(["stats", "--generate", "nonexistent"])

    def test_missing_input(self):
        with pytest.raises(SystemExit):
            main(["stats"])


class TestOptimize:
    def test_optimize_with_verify(self, capsys):
        code = main(
            ["optimize", "--generate", "square-root", "--width", "6",
             "--variant", "BF", "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "equivalence: OK" in out

    def test_optimize_writes_blif(self, capsys, tmp_path):
        out_file = tmp_path / "out.blif"
        code = main(
            ["optimize", "--generate", "adder", "--width", "6",
             "--variant", "TF", "-o", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        from repro.io.blif import read_blif

        with open(out_file) as fp:
            mig = read_blif(fp)
        assert mig.num_pis == 12

    def test_optimize_writes_verilog(self, tmp_path):
        out_file = tmp_path / "out.v"
        assert main(
            ["optimize", "--generate", "adder", "--width", "4", "-o", str(out_file)]
        ) == 0
        assert "module" in out_file.read_text()

    def test_optimize_from_blif(self, capsys, tmp_path, full_adder):
        from repro.io.blif import write_blif

        path = tmp_path / "fa.blif"
        with open(path, "w") as fp:
            write_blif(full_adder, fp)
        assert main(["optimize", "--blif", str(path), "--verify"]) == 0

    def test_depth_opt_baseline(self, capsys):
        assert main(
            ["optimize", "--generate", "adder", "--width", "8", "--depth-opt"]
        ) == 0


class TestMap:
    def test_map_unoptimized(self, capsys):
        assert main(["map", "--generate", "sine", "--width", "6"]) == 0
        assert "area=" in capsys.readouterr().out

    def test_map_with_variant(self, capsys):
        assert main(
            ["map", "--generate", "square", "--width", "5", "--variant", "BF"]
        ) == 0


class TestExact:
    def test_exact_xor(self, capsys):
        assert main(["exact", "--tt", "0x6", "--vars", "2"]) == 0
        out = capsys.readouterr().out
        assert "size 3" in out and "proven minimal" in out

    def test_exact_budget_failure(self, capsys):
        code = main(["exact", "--tt", "0x1668", "--vars", "4", "--budget", "10"])
        assert code == 1


class TestFlow:
    def test_flow_with_verify(self, capsys):
        code = main(
            ["flow", "--generate", "square-root", "--width", "6",
             "--script", "BF,TFD,fraig", "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "equivalence: OK" in out
        assert "final:" in out

    def test_flow_writes_bench(self, tmp_path):
        out_file = tmp_path / "out.bench"
        assert main(
            ["flow", "--generate", "adder", "--width", "4",
             "--script", "strash", "-o", str(out_file)]
        ) == 0
        text = out_file.read_text()
        assert "INPUT(" in text and "OUTPUT(" in text

    def test_flow_from_bench_file(self, tmp_path, full_adder):
        from repro.io.bench import write_bench

        path = tmp_path / "fa.bench"
        with open(path, "w") as fp:
            write_bench(full_adder, fp)
        assert main(["flow", "--bench", str(path), "--script", "BF", "--verify"]) == 0

    def test_flow_bad_step(self, capsys):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            main(["flow", "--generate", "adder", "--width", "4",
                  "--script", "nonsense"])


class TestBatch:
    def test_batch_runs_and_writes_outputs(self, capsys, tmp_path):
        workdir = tmp_path / "batch"
        code = main(
            ["batch", "--generate", "adder", "--width", "6",
             "--jobs", "2", "--backoff", "0.05",
             "--workdir", str(workdir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1/1 done" in out
        assert (workdir / "outputs" / "adder-w6.blif").exists()
        assert (workdir / "journal.jsonl").exists()
        assert (workdir / "report.json").exists()

    def test_batch_refuses_to_clobber_a_journal(self, capsys, tmp_path):
        workdir = tmp_path / "batch"
        workdir.mkdir()
        (workdir / "journal.jsonl").write_text("")
        with pytest.raises(SystemExit, match="resume"):
            main(["batch", "--generate", "adder", "--width", "6",
                  "--workdir", str(workdir)])

    def test_batch_requires_circuits(self, tmp_path):
        with pytest.raises(SystemExit, match="generate"):
            main(["batch", "--workdir", str(tmp_path / "batch")])

    def test_batch_resume_completed_is_noop(self, capsys, tmp_path):
        workdir = tmp_path / "batch"
        assert main(
            ["batch", "--generate", "adder", "--width", "6",
             "--workdir", str(workdir), "--backoff", "0.05"]
        ) == 0
        capsys.readouterr()
        assert main(["batch", "--workdir", str(workdir), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "1/1 done" in out

    def test_batch_nonzero_exit_on_quarantine(self, capsys, tmp_path):
        code = main(
            ["batch", "--blif", str(tmp_path / "missing.blif"),
             "--workdir", str(tmp_path / "batch"),
             "--max-attempts", "1", "--backoff", "0.01"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "quarantined" in out

    def test_batch_report_dump(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "report.json"
        assert main(
            ["batch", "--generate", "adder", "--width", "6",
             "--workdir", str(tmp_path / "batch"), "--backoff", "0.05",
             "--report", str(report_path)]
        ) == 0
        payload = json.loads(report_path.read_text())
        assert payload["done"] == 1
        assert payload["jobs"][0]["job_id"] == "adder-w6"

    def test_batch_in_a_relative_workdir(self, capsys, tmp_path, monkeypatch):
        """Workers run inside the workdir; a relative --workdir must not
        send them looking for their spec relative to it a second time."""
        monkeypatch.chdir(tmp_path)
        assert main(
            ["batch", "--generate", "adder", "--width", "6",
             "--workdir", "batch", "--backoff", "0.05"]
        ) == 0
        assert "1/1 done" in capsys.readouterr().out
        assert (tmp_path / "batch" / "outputs" / "adder-w6.blif").exists()


class TestSweep:
    def _spec(self, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-sweep",
            "instances": [
                {"generate": "adder", "width": 6},
                {"generate": "max", "width": 6},
            ],
            "verify": "sim",
            "time_limit": 60,
        }))
        return spec_path

    def test_sweep_runs_and_reports(self, capsys, tmp_path):
        import json

        workdir = tmp_path / "sweep"
        matrix = tmp_path / "MATRIX.jsonl"
        report_path = tmp_path / "report.json"
        code = main(
            ["sweep", "--workdir", str(workdir),
             "--spec", str(self._spec(tmp_path)),
             "--jobs", "2", "--backoff", "0.05", "--grace", "1",
             "--matrix", str(matrix), "--report", str(report_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep: 2/2 done" in out
        assert "shard" not in out
        assert "matrix: 2 trend rows" in out
        assert len(matrix.read_text().splitlines()) == 2
        payload = json.loads(report_path.read_text())
        assert payload["done"] == 2
        assert "shards" not in payload

    def test_sweep_requires_spec_or_resume(self, tmp_path):
        with pytest.raises(SystemExit, match="spec"):
            main(["sweep", "--workdir", str(tmp_path / "sweep")])

    def test_sweep_rejects_bad_spec(self, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text('{"name": "x", "instances": []}')
        with pytest.raises(SystemExit, match="bad sweep spec"):
            main(["sweep", "--workdir", str(tmp_path / "sweep"),
                  "--spec", str(spec_path)])

    def test_sweep_refuses_to_clobber_state(self, capsys, tmp_path):
        workdir = tmp_path / "sweep"
        spec_path = self._spec(tmp_path)
        assert main(
            ["sweep", "--workdir", str(workdir), "--spec", str(spec_path),
             "--backoff", "0.05", "--grace", "1"]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="resume"):
            main(["sweep", "--workdir", str(workdir),
                  "--spec", str(spec_path)])


_WORKDIR = ["--workdir", "state"]

#: every --verify spelling each command accepted before the flag was
#: declared once, with the policy it selected then
VERIFY_SPELLINGS = [
    (["optimize"], "off"),
    (["optimize", "--verify"], "sim"),
    (["flow"], "off"),
    (["flow", "--verify"], "sim"),
    (["flow", "--verify", "off"], "off"),
    (["flow", "--verify", "sim"], "sim"),
    (["flow", "--verify", "cec"], "cec"),
    (["batch", *_WORKDIR], "sim"),
    (["batch", *_WORKDIR, "--verify", "off"], "off"),
    (["batch", *_WORKDIR, "--verify", "sim"], "sim"),
    (["batch", *_WORKDIR, "--verify", "cec"], "cec"),
    (["serve", *_WORKDIR], "sim"),
    (["serve", *_WORKDIR, "--verify", "off"], "off"),
    (["serve", *_WORKDIR, "--verify", "sim"], "sim"),
    (["serve", *_WORKDIR, "--verify", "cec"], "cec"),
]


class TestSharedFlags:
    @pytest.mark.parametrize(
        "argv, policy", VERIFY_SPELLINGS,
        ids=[" ".join(argv) for argv, _ in VERIFY_SPELLINGS],
    )
    def test_verify_spelling_keeps_its_policy(self, argv, policy):
        assert build_parser().parse_args(argv).verify == policy

    def test_per_command_defaults_do_not_leak(self):
        parser = build_parser()
        serve = parser.parse_args(["serve", *_WORKDIR])
        batch = parser.parse_args(["batch", *_WORKDIR])
        sweep = parser.parse_args(["sweep", *_WORKDIR])
        assert (serve.max_attempts, batch.max_attempts, sweep.max_attempts) == (2, 3, 3)
        assert (serve.jobs, batch.jobs, sweep.jobs) == (2, 1, 2)
        assert parser.parse_args(["flow"]).script == "depth,BF,TFD"
        assert batch.script == "BF"
        assert parser.parse_args(["exact", "--tt", "0x6"]).budget == 200000

    def test_optimize_verify_runs_the_verify_rewrite_policy(
        self, capsys, monkeypatch
    ):
        modes = []
        original = repro.cli.verify_rewrite

        def spy(before, after, mode):
            modes.append(mode)
            return original(before, after, mode)

        monkeypatch.setattr(repro.cli, "verify_rewrite", spy)
        assert main(["optimize", "--generate", "adder", "--width", "4",
                     "--verify"]) == 0
        assert main(["optimize", "--generate", "adder", "--width", "4"]) == 0
        assert modes == ["sim"]
        assert capsys.readouterr().out.count("equivalence: OK") == 1
