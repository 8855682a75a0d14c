"""Graceful interrupt of ``migopt batch`` (SIGINT/SIGTERM drain).

The contract: a signal mid-batch stops scheduling, kills live workers
through the supervisor's SIGTERM→grace→SIGKILL ladder, journals every
unfinished job resumable, and exits 130 — and a later ``--resume``
completes the batch with exactly-once semantics.

The in-process tests drive :meth:`Supervisor.request_shutdown` directly
(it is exactly what the CLI signal handler calls); the subprocess drill
sends a real SIGINT to the real CLI.  Both pin a worker in a guaranteed
hang (the ``worker.hang`` fault) so something is always mid-flight when
the shutdown lands.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runtime.faults import inject
from repro.runtime.jobs import JobJournal, JobSpec
from repro.runtime.supervisor import Supervisor, run_batch

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _spec(job_id="adder", width=4, **overrides) -> JobSpec:
    fields = dict(
        job_id=job_id,
        network={"generate": "adder", "width": width},
        script=("BF",),
        verify="sim",
    )
    fields.update(overrides)
    return JobSpec(**fields)


def _journal_events(path: Path) -> list[dict]:
    events = []
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                events.append(json.loads(line))
            except ValueError:
                pass
    return events


class TestRequestShutdown:
    def test_interrupt_with_hung_worker_journals_resumable(self, tmp_path):
        supervisor = Supervisor(
            tmp_path / "batch", num_workers=1, grace=0.5, max_attempts=2,
            backoff_base=0.05,
        )
        journal = supervisor.journal_path
        result = {}

        def run():
            with inject("worker.hang"):
                result["report"] = supervisor.run([_spec()])

        thread = threading.Thread(target=run)
        thread.start()
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if any(e["event"] == "start" for e in _journal_events(journal)):
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("worker never started")
            supervisor.request_shutdown()
            thread.join(timeout=30)
            assert not thread.is_alive(), "drain must terminate the batch"
        finally:
            supervisor.request_shutdown()
            thread.join(timeout=30)

        report = result["report"]
        assert report.interrupted is True
        assert report.done == 0
        events = [e["event"] for e in _journal_events(journal)]
        assert "requeued" in events  # the hung job went back to pending

        # No orphaned worker: the journaled pid must be gone (or at least
        # not our worker module anymore).
        for event in _journal_events(journal):
            if event["event"] == "start":
                cmdline = Path(f"/proc/{event['pid']}/cmdline")
                assert (
                    not cmdline.exists()
                    or b"repro.runtime.worker" not in cmdline.read_bytes()
                )

        # Resume (fault exhausted): completes exactly once at the same
        # attempt number — the interrupted attempt did not count.
        resumed = run_batch(
            [], tmp_path / "batch", resume=True, num_workers=1,
            grace=0.5, max_attempts=2, backoff_base=0.05,
        )
        assert resumed.done == 1 and resumed.interrupted is False
        done_events = [e for e in _journal_events(journal) if e["event"] == "done"]
        assert len(done_events) == 1
        assert resumed.jobs[0]["attempts"] == 1
        assert "resume:interrupted" in resumed.jobs[0]["degradations"]

    def test_completed_work_is_kept_on_interrupt(self, tmp_path):
        """A job that completed before the interrupt stays journaled done,
        not requeued — interrupt never discards finished work."""
        supervisor = Supervisor(
            tmp_path / "batch", num_workers=2, grace=1.0, max_attempts=2,
            backoff_base=0.05,
        )
        journal = supervisor.journal_path
        result = {}

        def run():
            # Slot A: the first spawn hangs, so the loop is still
            # mid-batch when the shutdown request lands.  Slot B: a
            # healthy tiny job.
            with inject("worker.hang", times=1):
                result["report"] = supervisor.run(
                    [_spec(job_id="hung", width=5), _spec(job_id="ok", width=3)]
                )

        thread = threading.Thread(target=run)
        thread.start()
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if any(e["event"] == "done" and e["job"] == "ok"
                       for e in _journal_events(journal)):
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("the healthy job never completed")
            supervisor.request_shutdown()
            thread.join(timeout=90)
            assert not thread.is_alive()
        finally:
            supervisor.request_shutdown()
            thread.join(timeout=90)

        report = result["report"]
        assert report.interrupted is True
        states = {j["job_id"]: j["state"] for j in report.jobs}
        assert states["ok"] == "done"
        assert states["hung"] == "pending"

    def test_interrupt_before_any_start_leaves_all_pending(self, tmp_path):
        supervisor = Supervisor(tmp_path / "batch", num_workers=1)
        supervisor.request_shutdown()  # before run()
        report = supervisor.run([_spec()])
        assert report.interrupted is True
        assert report.done == 0
        resumed = run_batch([], tmp_path / "batch", resume=True, num_workers=1)
        assert resumed.done == 1


@pytest.mark.slow
class TestCliSignalDrill:
    def _launch(self, workdir, faults=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        if faults:
            env["REPRO_FAULTS"] = faults
        return subprocess.Popen(
            [
                sys.executable, "-c",
                "from repro.cli import main; raise SystemExit(main())",
                "batch", "--generate", "adder,max", "--width", "5",
                "--script", "BF", "--jobs", "2", "--grace", "0.5",
                "--max-attempts", "2", "--backoff", "0.05",
                "--workdir", str(workdir),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def test_sigint_mid_batch_exits_130_and_resumes(self, tmp_path):
        workdir = tmp_path / "batch"
        journal = workdir / "journal.jsonl"
        # Hang the first worker so the batch is guaranteed mid-flight.
        proc = self._launch(workdir, faults="worker.hang:times=1")
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if any(e["event"] == "start" for e in _journal_events(journal)):
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("no worker started within 60s")
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, out
        assert "draining" in out
        assert "--resume" in out

        # The journal must be resumable: resume completes everything,
        # each job exactly once.
        report = run_batch(
            [], workdir, resume=True, num_workers=2,
            grace=0.5, max_attempts=2, backoff_base=0.05,
        )
        assert report.done == 2 and report.quarantined == 0
        done = {}
        for event in _journal_events(journal):
            if event["event"] == "done":
                done[event["job"]] = done.get(event["job"], 0) + 1
        assert all(count == 1 for count in done.values()), done
        replay = JobJournal.replay(journal)
        assert {r.state for r in replay.records.values()} == {"done"}
