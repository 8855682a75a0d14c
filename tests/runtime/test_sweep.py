"""Tests for the sweep layer: matrix expansion, sharding, and the merge.

The journal-merge edge cases here are the satellite coverage the sharded
design demands: duplicate job ids across shards (must refuse loudly), a
shard journal with a torn tail (must replay), and adoption of a result
artifact whose shard died mid-write (must count exactly once, durably).
The live SIGKILL version of the same drill is ``tools/sweep_smoke.py``.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.runtime.jobs import BatchReport, JobJournal, JobSpec
from repro.runtime.sweep import (
    HostSpec,
    SweepConflictError,
    SweepSpec,
    assign_shards,
    expand_sweep,
    matrix_rows,
    merge_sweep,
    parse_hosts,
    publish_matrix,
    run_sweep,
    shard_dir,
)

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


class TestHostParsing:
    def test_default_pseudo_hosts(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_HOSTS", raising=False)
        hosts = parse_hosts(default_shards=3)
        assert [h.name for h in hosts] == ["h0", "h1", "h2"]
        assert all(h.template is None for h in hosts)

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_SWEEP_HOSTS",
            "local; remote=ssh buildbox {cmd}",
        )
        hosts = parse_hosts(default_shards=1)
        assert [h.name for h in hosts] == ["local", "remote"]
        assert hosts[0].template is None
        assert hosts[1].wrap(["migopt", "batch"]) == [
            "ssh", "buildbox", "migopt", "batch",
        ]

    def test_rejects_duplicate_and_unsafe_names(self):
        with pytest.raises(ValueError):
            parse_hosts("a;a")
        with pytest.raises(ValueError):
            parse_hosts("../evil")

    def test_template_without_cmd_token_appends(self):
        host = HostSpec("h", template=("nice", "-n", "10"))
        assert host.wrap(["echo", "hi"]) == ["nice", "-n", "10", "echo", "hi"]


class TestAssignShards:
    HOSTS = [HostSpec("h0"), HostSpec("h1")]

    def test_round_robin_is_deterministic_and_balanced(self):
        jobs = [f"job{i}" for i in range(5)]
        assignment = assign_shards(jobs, self.HOSTS)
        assert assignment == assign_shards(jobs, self.HOSTS)
        load = {"h0": 0, "h1": 0}
        for host in assignment.values():
            load[host] += 1
        assert sorted(load.values()) == [2, 3]

    def test_existing_assignments_are_kept_verbatim(self):
        """A resumed sweep must not move jobs between shard journals."""
        existing = {"job0": "h1", "job1": "h1"}
        assignment = assign_shards(
            ["job0", "job1", "job2", "job3"], self.HOSTS, existing
        )
        assert assignment["job0"] == "h1"
        assert assignment["job1"] == "h1"
        # New jobs flow to the least-loaded host first.
        assert assignment["job2"] == "h0"
        assert assignment["job3"] == "h0"


def shard_journal(workdir, host: str) -> JobJournal:
    directory = shard_dir(workdir, host)
    directory.mkdir(parents=True, exist_ok=True)
    return JobJournal(directory / "journal.jsonl")


def tiny_spec(job_id: str, workdir, host: str) -> JobSpec:
    return JobSpec(
        job_id=job_id,
        network={"generate": "adder", "width": 6},
        script=("BF",),
        verify="sim",
        time_limit=60.0,
        output=str(shard_dir(workdir, host) / "outputs" / f"{job_id}.blif"),
    )


OK_RESULT = {
    "size_before": 30, "size_after": 25,
    "depth_before": 9, "depth_after": 8,
    "runtime": 0.5, "verify": "sim",
    "steps": [{"step": "BF", "status": "ok"}],
}


class TestMergeEdgeCases:
    def test_duplicate_job_ids_across_shards_conflict(self, tmp_path):
        for host in ("h0", "h1"):
            with shard_journal(tmp_path, host) as journal:
                journal.submit(tiny_spec("dup.BF.c4.internal", tmp_path, host))
        with pytest.raises(SweepConflictError, match="dup.BF.c4.internal"):
            merge_sweep(tmp_path, ["h0", "h1"])

    def test_torn_tail_shard_journal_is_tolerated(self, tmp_path):
        with shard_journal(tmp_path, "h0") as journal:
            journal.submit(tiny_spec("a.BF.c4.internal", tmp_path, "h0"))
            journal.done("a.BF.c4.internal", dict(OK_RESULT))
        journal_path = shard_dir(tmp_path, "h0") / "journal.jsonl"
        # A shard SIGKILLed mid-append leaves a half-written last line.
        with open(journal_path, "ab") as fp:
            fp.write(b'{"event": "done", "job": "a.BF.c4.in')
        report = merge_sweep(tmp_path, ["h0"])
        assert (report.total, report.done) == (1, 1)
        assert report.jobs[0]["state"] == "done"

    def test_adoption_of_artifact_from_dead_shard(self, tmp_path):
        """A job left 'running' with a valid result artifact is adopted —
        durably, so a re-merge still counts it exactly once."""
        job_id = "a.BF.c4.internal"
        spec = tiny_spec(job_id, tmp_path, "h0")
        directory = shard_dir(tmp_path, "h0")
        with shard_journal(tmp_path, "h0") as journal:
            journal.submit(spec)
            journal.start(job_id, attempt=1, pid=4242, spec=spec)
        results = directory / "results"
        results.mkdir(parents=True)
        payload = {"job_id": job_id, "status": "ok", **OK_RESULT}
        (results / f"{job_id}.json").write_text(
            json.dumps(payload), encoding="utf-8"
        )

        report = merge_sweep(tmp_path, ["h0"])
        assert (report.total, report.done, report.adopted) == (1, 1, 1)
        (summary,) = report.jobs
        assert summary["state"] == "done"
        assert summary["adopted"] is True
        assert summary["size_after"] == 25

        # The adoption was journaled: merging again must not double-count
        # (and must not need the artifact any more).
        (results / f"{job_id}.json").unlink()
        again = merge_sweep(tmp_path, ["h0"])
        assert (again.total, again.done, again.adopted) == (1, 1, 1)

    def test_corrupt_artifact_is_not_adopted(self, tmp_path):
        job_id = "a.BF.c4.internal"
        spec = tiny_spec(job_id, tmp_path, "h0")
        directory = shard_dir(tmp_path, "h0")
        with shard_journal(tmp_path, "h0") as journal:
            journal.submit(spec)
            journal.start(job_id, attempt=1, pid=4242, spec=spec)
        results = directory / "results"
        results.mkdir(parents=True)
        (results / f"{job_id}.json").write_text(
            '{"job_id": "a.BF.c4.internal", "status"', encoding="utf-8"
        )
        report = merge_sweep(tmp_path, ["h0"])
        assert report.done == 0
        assert report.jobs[0]["state"] == "running"


class TestShardSlotAccounting:
    def test_merge_shard_namespaces_and_sums_utilization(self):
        """Regression: slot utilization was keyed by bare slot index, so
        slot 0 of every shard collapsed into one counter."""
        merged = BatchReport()
        shard_a = BatchReport()
        shard_a.total = shard_a.done = 3
        shard_a.jobs_per_slot = {0: 2, 1: 1}
        shard_a.max_concurrent = 2
        shard_b = BatchReport()
        shard_b.total = shard_b.done = 2
        shard_b.jobs_per_slot = {0: 2}
        shard_b.max_concurrent = 1
        merged.merge_shard("h0", shard_a)
        merged.merge_shard("h1", shard_b)
        assert merged.jobs_per_slot == {"h0/0": 2, "h0/1": 1, "h1/0": 2}
        assert sum(merged.jobs_per_slot.values()) == 5
        assert merged.max_concurrent == 3
        assert merged.total == merged.done == 5
        assert set(merged.shards) == {"h0", "h1"}
        # Round-trips through the persisted form.
        revived = BatchReport.from_dict(merged.to_dict())
        assert revived.jobs_per_slot == merged.jobs_per_slot


class TestMatrixRows:
    def _report(self) -> BatchReport:
        report = BatchReport()
        report.jobs = [
            {"job_id": "adder-w6.BF.c4.internal", "state": "done",
             "shard": "h0", "size_before": 30, "size_after": 25,
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
        assert row["shard"] == "h0"
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


class TestRunSweepEndToEnd:
    def test_sweep_runs_resumes_and_publishes(self, tmp_path):
        spec = make_spec()
        workdir = tmp_path / "sweep"
        matrix = tmp_path / "MATRIX.jsonl"
        run = run_sweep(
            workdir, spec=spec, hosts=parse_hosts("h0;h1"),
            jobs_per_shard=1, grace=1.0, backoff_base=0.05,
            matrix_path=matrix,
        )
        report = run.report
        assert (report.total, report.done, report.quarantined) == (2, 2, 0)
        assert not report.interrupted
        # Per-shard utilization: namespaced slots, one job each.
        assert set(report.jobs_per_slot) == {"h0/0", "h1/0"}
        assert sum(report.jobs_per_slot.values()) == 2
        assert set(report.shards) == {"h0", "h1"}
        assert run.published_rows == 2
        assert (workdir / "report.json").exists()
        assert (workdir / "sweep.json").exists()
        for job in report.jobs:
            assert job["state"] == "done"
            assert job["attempts"] == 1

        # Same workdir without --resume is refused.
        with pytest.raises(FileExistsError):
            run_sweep(workdir, spec=spec, jobs_per_shard=1)

        # A resume of the finished sweep is a no-op: nothing reruns,
        # nothing publishes twice.
        resumed = run_sweep(workdir, resume=True, jobs_per_shard=1,
                            grace=1.0, backoff_base=0.05)
        assert resumed.report.done == 2
        assert all(job["attempts"] == 1 for job in resumed.report.jobs)
        assert len(matrix.read_text(encoding="utf-8").splitlines()) == 2

    def test_template_host_wraps_its_shard_command(self, tmp_path):
        """One plain host and one templated host run the same sweep."""
        marker = tmp_path / "wrapped"
        # The template records its invocation, then runs the shard argv.
        template = HostSpec("h1", template=(
            sys.executable, "-c",
            "import subprocess, sys, pathlib; "
            f"pathlib.Path({str(marker)!r}).write_text('ran'); "
            "sys.exit(subprocess.call(sys.argv[1:]))",
            "{cmd}",
        ))
        run = run_sweep(
            tmp_path / "sweep", spec=make_spec(),
            hosts=[HostSpec("h0"), template],
            jobs_per_shard=1, grace=1.0, backoff_base=0.05,
        )
        assert run.report.total == 2
        assert all(job["state"] == "done" for job in run.report.jobs)
        assert set(run.report.shards) == {"h0", "h1"}
        assert marker.read_text(encoding="utf-8") == "ran"

    def test_interrupted_sweep_resumes_to_completion(self, tmp_path):
        """Coordinator shutdown before any shard launches; --resume picks
        the persisted plan up and finishes every cell exactly once."""
        spec = make_spec()
        workdir = tmp_path / "sweep"
        run = run_sweep(
            workdir, spec=spec, hosts=parse_hosts("h0;h1"),
            jobs_per_shard=1, grace=1.0, backoff_base=0.05,
            shutdown_check=lambda: True,
        )
        assert run.report.interrupted
        assert run.report.done == 0
        # The plan is durable: assignment fixed before any launch.
        state = json.loads(
            (workdir / "sweep.json").read_text(encoding="utf-8")
        )
        assert len(state["assignment"]) == 2

        resumed = run_sweep(workdir, resume=True, jobs_per_shard=1,
                            grace=1.0, backoff_base=0.05)
        assert not resumed.report.interrupted
        assert resumed.report.done == 2
        assert resumed.assignment == state["assignment"]
        assert all(job["attempts"] == 1 for job in resumed.report.jobs)
