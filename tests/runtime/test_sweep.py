"""Tests for the sweep layer: matrix expansion, one supervised run, and
the trend rows it publishes.

A sweep is one batch on one Supervisor, so exactly-once resume, torn
journal tails and result adoption are the batch journal's and are
tested with it (``test_jobs.py``, ``test_supervisor.py``).  The live
SIGKILL drill of a sweep is ``tools/sweep_smoke.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.runtime.jobs import BatchReport
from repro.runtime.supervisor import Supervisor
from repro.runtime.sweep import (
    SweepConflictError,
    SweepSpec,
    expand_sweep,
    matrix_rows,
    publish_matrix,
    run_sweep,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
from matrix_report import load_rows  # noqa: E402

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="the sweep runtime relies on POSIX process groups and signals",
)


def make_spec(**overrides) -> SweepSpec:
    base = {
        "name": "test-sweep",
        "instances": [
            {"generate": "adder", "width": 6},
            {"generate": "max", "width": 6},
        ],
        "verify": "sim",
        "time_limit": 60,
    }
    base.update(overrides)
    return SweepSpec.from_dict(base)


class TestExpandSweep:
    def test_axes_multiply(self):
        spec = make_spec(
            scripts=[["BF"], ["BF", "BF"]],
            cut_sizes=[4, 5],
            npn_store="store.db",
        )
        jobs = expand_sweep(spec)
        # 2 instances x 2 scripts x 2 cuts x 1 backend x 1 limit
        assert len(jobs) == 8
        ids = {job.job_id for job in jobs}
        assert "adder-w6.BF.c4.internal" in ids
        assert "adder-w6.BF+BF.c5.internal" in ids
        assert "max-w6.BF.c4.internal" in ids

    def test_cut4_is_the_unset_default(self):
        """cut_size=4 maps to None so worker specs stay byte-stable."""
        spec = make_spec(cut_sizes=[4, 5], npn_store="store.db")
        by_id = {job.job_id: job for job in expand_sweep(spec)}
        assert by_id["adder-w6.BF.c4.internal"].cut_size is None
        assert by_id["adder-w6.BF.c4.internal"].npn_store is None
        assert by_id["adder-w6.BF.c5.internal"].cut_size == 5
        # Large cuts route through the persistent NPN store.
        assert by_id["adder-w6.BF.c5.internal"].npn_store == "store.db"

    def test_conflict_limit_names_the_cell(self):
        spec = make_spec(conflict_limits=[None, 1000])
        ids = {job.job_id for job in expand_sweep(spec)}
        assert "adder-w6.BF.c4.internal" in ids
        assert "adder-w6.BF.c4.internal.k1000" in ids

    def test_per_instance_overrides(self):
        """A round-trip scenario rides along with its plain sibling."""
        spec = make_spec(instances=[
            {"generate": "adder", "width": 6},
            {"generate": "adder", "width": 6,
             "scripts": [["BF", "remap", "BF"]]},
        ])
        jobs = expand_sweep(spec)
        ids = sorted(job.job_id for job in jobs)
        assert ids == [
            "adder-w6.BF+remap+BF.c4.internal",
            "adder-w6.BF.c4.internal",
        ]
        roundtrip = next(j for j in jobs if "remap" in j.job_id)
        assert roundtrip.script == ("BF", "remap", "BF")
        # Axis keys never leak into the worker's network locator.
        assert roundtrip.network == {"generate": "adder", "width": 6}

    def test_duplicate_scenario_ids_are_refused(self):
        spec = make_spec(instances=[
            {"generate": "adder", "width": 6},
            {"generate": "adder", "width": 6},
        ])
        with pytest.raises(SweepConflictError):
            expand_sweep(spec)
        # A distinct slug resolves the collision.
        spec = make_spec(instances=[
            {"generate": "adder", "width": 6},
            {"generate": "adder", "width": 6, "slug": "adder-w6-again"},
        ])
        assert len(expand_sweep(spec)) == 2

    def test_instance_without_a_source_is_refused(self):
        with pytest.raises(ValueError):
            expand_sweep(make_spec(instances=[{"width": 6}]))


class TestMatrixRows:
    def _report(self) -> BatchReport:
        report = BatchReport()
        report.jobs = [
            {"job_id": "adder-w6.BF.c4.internal", "state": "done",
             "size_before": 30, "size_after": 25,
             "depth_before": 9, "depth_after": 8, "runtime": 0.5,
             "verify": "sim", "steps": [{"step": "BF", "status": "ok"}]},
            {"job_id": "max-w6.BF.c4.internal", "state": "quarantined"},
        ]
        return report

    def test_rows_carry_provenance_and_verification(self, tmp_path):
        spec = make_spec()
        specs_by_id = {job.job_id: job for job in expand_sweep(spec)}
        rows = matrix_rows(self._report(), "test-sweep", specs_by_id, ts=123.0)
        # Quarantined cells publish nothing.
        assert len(rows) == 1
        (row,) = rows
        assert row["scenario"] == "adder-w6.BF.c4.internal"
        assert row["sweep"] == "test-sweep"
        assert row["verified"] is True
        assert row["network"] == {"generate": "adder", "width": 6}
        assert row["cut_size"] == 4
        assert row["ts"] == 123.0

        matrix = tmp_path / "MATRIX.jsonl"
        assert publish_matrix(matrix, rows) == 1
        assert publish_matrix(matrix, rows) == 1  # append-only history
        lines = matrix.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["scenario"] == row["scenario"]

    def test_unverified_and_failed_steps_are_flagged(self):
        report = self._report()
        report.jobs[0]["verify"] = "off"
        rows = matrix_rows(report, "s", {}, ts=1.0)
        assert rows[0]["verified"] is False
        report = self._report()
        report.jobs[0]["steps"] = [{"step": "BF", "status": "failed"}]
        rows = matrix_rows(report, "s", {}, ts=1.0)
        assert rows[0]["verified"] is False


def test_publish_after_torn_tail_keeps_every_row(tmp_path):
    """A publisher killed mid-row leaves a torn line; the next publish
    starts a fresh line, so only the torn row is lost."""
    matrix = tmp_path / "MATRIX.jsonl"
    publish_matrix(matrix, [{"scenario": "a"}])
    with open(matrix, "ab") as fp:
        fp.write(b'{"scenario": "b", "size_')
    publish_matrix(matrix, [{"scenario": "c"}, {"scenario": "d"}])
    assert [row["scenario"] for row in load_rows(matrix)] == ["a", "c", "d"]


def make_supervisor(workdir) -> Supervisor:
    return Supervisor(workdir, num_workers=2, grace=1.0, backoff_base=0.05)


class TestRunSweepEndToEnd:
    def test_sweep_runs_resumes_and_publishes(self, tmp_path):
        spec = make_spec()
        workdir = tmp_path / "sweep"
        matrix = tmp_path / "MATRIX.jsonl"
        run = run_sweep(make_supervisor(workdir), spec=spec, matrix_path=matrix)
        report = run.report
        assert (report.total, report.done, report.quarantined) == (2, 2, 0)
        assert not report.interrupted
        assert run.published_rows == 2
        assert len(matrix.read_text(encoding="utf-8").splitlines()) == 2
        assert (workdir / "report.json").exists()
        state = json.loads((workdir / "sweep.json").read_text(encoding="utf-8"))
        assert SweepSpec.from_dict(state["spec"]) == spec
        for job in report.jobs:
            assert job["state"] == "done"
            assert job["attempts"] == 1
            assert Path(job["output"]).parent == workdir / "outputs"

        # Same workdir without --resume is refused.
        with pytest.raises(FileExistsError):
            run_sweep(make_supervisor(workdir), spec=spec)

        # A resume of the finished sweep is a no-op: nothing reruns,
        # nothing publishes twice.
        resumed = run_sweep(make_supervisor(workdir), resume=True)
        assert resumed.report.done == 2
        assert resumed.report.workers_used == 0
        assert all(job["attempts"] == 1 for job in resumed.report.jobs)
        assert len(matrix.read_text(encoding="utf-8").splitlines()) == 2

    def test_interrupted_sweep_resumes_to_completion(self, tmp_path):
        """A shutdown before any job launches; a resume without a spec
        picks the persisted one up and finishes every cell exactly once."""
        workdir = tmp_path / "sweep"
        matrix = tmp_path / "MATRIX.jsonl"
        interrupted = make_supervisor(workdir)
        interrupted.request_shutdown()
        run = run_sweep(interrupted, spec=make_spec(), matrix_path=matrix)
        assert run.report.interrupted
        assert (run.report.done, run.published_rows) == (0, 0)
        assert not matrix.exists()

        resumed = run_sweep(make_supervisor(workdir), resume=True)
        assert not resumed.report.interrupted
        assert resumed.report.done == 2
        assert all(job["attempts"] == 1 for job in resumed.report.jobs)

    def test_resume_without_spec_or_state_is_refused(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_sweep(make_supervisor(tmp_path / "sweep"), resume=True)
