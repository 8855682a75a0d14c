"""Integration tests for the supervised parallel batch runtime.

These tests spawn real worker subprocesses: process isolation, the
SIGTERM→SIGKILL watchdog, retry-with-degradation, and crash-recoverable
resume are exercised against live processes, not mocks.  The chaos test
additionally ``kill -9``s the *supervisor* mid-batch and proves the
resumed run completes every job exactly once.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.simulate import equivalent_random
from repro.io.blif import read_blif, write_blif
from repro.runtime import faults
from repro.runtime.jobs import JobJournal, JobSpec, load_network
from repro.runtime.supervisor import Supervisor, run_batch, spec_for_attempt

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="the supervisor's orphan check and watchdog tests assume /proc",
)

#: generous bound for one tiny optimization job, interpreter start included
JOB_TIME = 60.0


def tiny_spec(job_id: str, workdir: Path, name: str = "adder", width: int = 6,
              **overrides) -> JobSpec:
    defaults = dict(
        job_id=job_id,
        network={"generate": name, "width": width},
        script=("BF",),
        verify="sim",
        time_limit=JOB_TIME,
        output=str(workdir / "outputs" / f"{job_id}.blif"),
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


def journal_events(path: Path) -> list[dict]:
    events = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            pass
    return events


def assert_output_valid(output: Path, reference_network: dict) -> None:
    """The surviving output must parse, validate, and stay equivalent."""
    with open(output, encoding="utf-8") as fp:
        optimized = read_blif(fp)
    optimized.check()
    original = load_network(reference_network)
    assert equivalent_random(original, optimized, num_rounds=4)


class TestSpecForAttempt:
    def test_attempt_one_is_the_base(self):
        base = JobSpec(job_id="j", network={"blif": "x"}, verify="cec",
                       conflict_limit=1000)
        spec, notes = spec_for_attempt(base, 1)
        assert spec == base and notes == []

    def test_later_attempts_descend_deterministically(self):
        base = JobSpec(job_id="j", network={"blif": "x"}, verify="cec",
                       conflict_limit=1000)
        spec3a, _ = spec_for_attempt(base, 3)
        spec3b, _ = spec_for_attempt(base, 3)
        assert spec3a == spec3b
        assert spec3a.verify == "sim"
        assert spec3a.conflict_limit == 250
        assert spec3a.cut_limit == 2


class TestWorkerJob:
    def test_remap_only_script_gets_the_database(self, tmp_path):
        """``remap`` reads the NPN database, so the worker opens one."""
        from repro.runtime.worker import run_job

        payload = run_job(tiny_spec("remap", tmp_path, script=("remap",)))
        assert payload["status"] == "ok"
        assert [step["status"] for step in payload["steps"]] == ["ok"]
        assert_output_valid(Path(payload["output"]), {"generate": "adder", "width": 6})


class TestBatch:
    def test_batch_completes_and_uses_the_pool(self, tmp_path, full_adder):
        blif_path = tmp_path / "full_adder.blif"
        with open(blif_path, "w", encoding="utf-8") as fp:
            write_blif(full_adder, fp)
        specs = [
            tiny_spec("adder-a", tmp_path),
            tiny_spec("sine-a", tmp_path, name="sine"),
            tiny_spec("fa", tmp_path, network={"blif": str(blif_path)}),
            tiny_spec("adder-b", tmp_path, width=7),
        ]
        report = run_batch(specs, tmp_path / "batch", num_workers=2,
                           backoff_base=0.05)

        assert report.total == 4
        assert report.done == 4
        assert report.quarantined == 0
        # Acceptance criterion: --jobs N really spreads the batch.
        assert report.max_concurrent == 2
        assert report.workers_used > 1
        assert sum(report.jobs_per_slot.values()) == 4
        for spec in specs:
            assert_output_valid(Path(spec.output), spec.network)
        # Worker results carry merged pass counters back to the batch.
        assert report.metrics.cuts_enumerated > 0

        report_path = tmp_path / "batch" / "report.json"
        persisted = json.loads(report_path.read_text(encoding="utf-8"))
        assert persisted["done"] == 4
        assert persisted["workers_used"] == report.workers_used

    def test_existing_journal_requires_resume(self, tmp_path):
        workdir = tmp_path / "batch"
        workdir.mkdir()
        (workdir / "journal.jsonl").write_text("")
        with pytest.raises(FileExistsError):
            run_batch([tiny_spec("j", tmp_path)], workdir)

    def test_invalid_worker_counts_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            Supervisor(tmp_path, num_workers=0)
        with pytest.raises(ValueError):
            Supervisor(tmp_path, max_attempts=0)


class TestFailureHandling:
    def test_worker_crash_is_retried_with_degradation(self, tmp_path):
        faults.reset()
        try:
            with faults.inject("worker.crash", times=1):
                report = run_batch(
                    [tiny_spec("j", tmp_path, verify="cec")],
                    tmp_path / "batch", backoff_base=0.05,
                )
        finally:
            faults.reset()
        assert report.done == 1
        assert report.failed_attempts == 1
        assert report.retries == 1
        job = report.jobs[0]
        assert job["attempts"] == 2
        assert "verify:cec->sim" in job["degradations"]
        events = journal_events(tmp_path / "batch" / "journal.jsonl")
        crash = [e for e in events if e["event"] == "failed"]
        assert len(crash) == 1
        assert "exited with code 77" in crash[0]["error"]
        # The degraded retry really ran with the weaker spec.
        starts = [e for e in events if e["event"] == "start"]
        assert starts[0]["spec"]["verify"] == "cec"
        assert starts[1]["spec"]["verify"] == "sim"
        assert_output_valid(Path(report.jobs[0]["output"]),
                            {"generate": "adder", "width": 6})

    def test_hanging_worker_is_hard_killed_within_grace(self, tmp_path):
        """A busy-looping worker that ignores SIGTERM only dies to SIGKILL."""
        faults.reset()
        started = time.monotonic()
        try:
            with faults.inject("worker.hang", times=1):
                report = run_batch(
                    [tiny_spec("j", tmp_path, time_limit=1.0)],
                    tmp_path / "batch",
                    grace=1.0,
                    startup_margin=0.5,
                    backoff_base=0.05,
                )
        finally:
            faults.reset()
        elapsed = time.monotonic() - started
        assert report.done == 1
        assert report.failed_attempts == 1
        events = journal_events(tmp_path / "batch" / "journal.jsonl")
        hang = [e for e in events if e["event"] == "failed"]
        assert len(hang) == 1
        assert "SIGKILL" in hang[0]["error"]
        # Deadline math: the hung attempt is dead by limit+margin+grace
        # (2.5s); everything else is one healthy retry.  A generous bound
        # still proves the batch did not wait on the hung worker.
        assert elapsed < 2.5 + JOB_TIME

    def test_poison_job_is_quarantined_with_evidence(self, tmp_path):
        spec = tiny_spec("poison", tmp_path,
                         network={"blif": str(tmp_path / "missing.blif")})
        report = run_batch([spec], tmp_path / "batch", max_attempts=2,
                           backoff_base=0.02)
        assert report.done == 0
        assert report.quarantined == 1
        assert report.failed_attempts == 2
        job = report.jobs[0]
        assert job["state"] == "quarantined"
        assert "FileNotFoundError" in job["error"]
        events = journal_events(tmp_path / "batch" / "journal.jsonl")
        quarantine = [e for e in events if e["event"] == "quarantined"]
        assert len(quarantine) == 1
        assert "missing.blif" in quarantine[0]["traceback"]
        assert quarantine[0]["rusage"] is not None

    def test_in_worker_fault_arrives_via_env_handshake(self, tmp_path):
        """A fault injected in this process fires inside the worker."""
        faults.reset()
        try:
            with faults.inject("flow.corrupt-structure", times=1):
                report = run_batch([tiny_spec("j", tmp_path)],
                                   tmp_path / "batch", backoff_base=0.05)
        finally:
            faults.reset()
        # The worker's structural check caught the corruption and rolled
        # the step back; the job still completes with a valid result.
        assert report.done == 1
        statuses = [s["status"] for s in report.jobs[0]["steps"]]
        assert "rolled-back" in statuses
        assert_output_valid(Path(report.jobs[0]["output"]),
                            {"generate": "adder", "width": 6})


class TestResume:
    def test_resume_adopts_completed_result_without_rerun(self, tmp_path):
        workdir = tmp_path / "batch"
        # The spec points at a nonexistent input: if the resumed run tried
        # to re-execute the job it would fail, so success proves adoption.
        spec = tiny_spec("j", tmp_path,
                         network={"blif": str(tmp_path / "gone.blif")})
        (workdir / "results").mkdir(parents=True)
        with JobJournal(workdir / "journal.jsonl") as journal:
            journal.submit(spec)
            journal.start("j", attempt=1, pid=2 ** 22 + 12345, spec=spec)
        (workdir / "results" / "j.json").write_text(json.dumps(
            {"job_id": "j", "status": "ok", "size_before": 9, "size_after": 5}
        ))
        report = run_batch([], workdir, resume=True)
        assert report.done == 1
        assert report.adopted == 1
        job = report.jobs[0]
        assert job["adopted"] is True
        assert job["size_after"] == 5
        events = journal_events(workdir / "journal.jsonl")
        assert [e["event"] for e in events] == ["submit", "start", "done"]
        assert events[-1]["adopted"] is True

    def test_resume_of_finished_batch_is_a_noop(self, tmp_path):
        specs = [tiny_spec("j", tmp_path)]
        workdir = tmp_path / "batch"
        first = run_batch(specs, workdir)
        assert first.done == 1
        starts_before = len(
            [e for e in journal_events(workdir / "journal.jsonl")
             if e["event"] == "start"]
        )
        second = run_batch(specs, workdir, resume=True)
        assert second.done == 1
        assert second.total == 1
        starts_after = len(
            [e for e in journal_events(workdir / "journal.jsonl")
             if e["event"] == "start"]
        )
        assert starts_after == starts_before

    def test_resume_requeues_interrupted_job(self, tmp_path):
        """A job left 'running' by a dead supervisor is re-run, once."""
        workdir = tmp_path / "batch"
        spec = tiny_spec("j", tmp_path)
        workdir.mkdir(parents=True)
        with JobJournal(workdir / "journal.jsonl") as journal:
            journal.submit(spec)
            journal.start("j", attempt=1, pid=2 ** 22 + 4242, spec=spec)
        report = run_batch([], workdir, resume=True)
        assert report.done == 1
        assert report.adopted == 0
        job = report.jobs[0]
        assert job["attempts"] == 1  # same attempt number, not a retry
        assert_output_valid(Path(job["output"]), spec.network)


def _cli_batch_argv(workdir: Path, poison: Path) -> list[str]:
    return [
        sys.executable, "-c",
        "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
        "batch",
        "--generate", "adder,sine,max",
        "--width", "6",
        "--blif", str(poison),
        "--script", "BF",
        "--jobs", "2",
        "--time-limit", "30",
        "--grace", "1",
        "--max-attempts", "2",
        "--backoff", "0.05",
        "--workdir", str(workdir),
    ]


class TestChaos:
    def test_kill_supervisor_midbatch_then_resume_completes_exactly_once(
        self, tmp_path
    ):
        """The acceptance chaos run: worker crash + hang faults armed, the
        supervisor SIGKILLed mid-batch, then ``--resume`` finishes every
        job exactly once, quarantining only the poison job."""
        workdir = tmp_path / "batch"
        poison = tmp_path / "poison.blif"  # never created: fails every try
        journal = workdir / "journal.jsonl"

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # skip=1 staggers the hang onto the second spawn so both faults
        # materialize (a worker doomed to hang never reaches the crash).
        env["REPRO_FAULTS"] = "worker.crash:times=1,worker.hang:times=1:skip=1"

        proc = subprocess.Popen(
            _cli_batch_argv(workdir, poison), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            # Let real work land first: wait for one completed job.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # batch finished before we could kill it
                if journal.exists() and any(
                    e["event"] == "done" for e in journal_events(journal)
                ):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("no job completed within 120s")
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=30)
                assert proc.returncode == -signal.SIGKILL
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        report = run_batch([], workdir, resume=True, num_workers=2,
                           grace=1.0, max_attempts=2, backoff_base=0.05)

        assert report.total == 4
        assert report.done == 3
        assert report.quarantined == 1
        by_id = {job["job_id"]: job for job in report.jobs}
        assert by_id["poison"]["state"] == "quarantined"

        # Exactly once: every surviving job has exactly one done event
        # across both runs; the poison job has none.
        events = journal_events(journal)
        done_counts: dict[str, int] = {}
        for event in events:
            if event["event"] == "done":
                done_counts[event["job"]] = done_counts.get(event["job"], 0) + 1
        assert done_counts == {
            "adder-w6": 1, "sine-w6": 1, "max-w6": 1,
        }

        # Surviving outputs verify and validate structurally.
        for name in ("adder", "sine", "max"):
            assert_output_valid(
                workdir / "outputs" / f"{name}-w6.blif",
                {"generate": name, "width": 6},
            )
