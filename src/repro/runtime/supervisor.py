"""The supervised parallel batch runtime: scheduler + journal over an executor.

PR 1's in-process budgets make a single optimization trustworthy *when
the code cooperates*; this module contains the cases where it does not —
a CDCL run that ignores its poll points, a memory blowup, a hard crash —
by moving each job into its own subprocess and supervising it at the OS
level:

* **process isolation** — every job runs the worker
  (:mod:`repro.runtime.worker`) in its own process, forked from a
  pre-imported fork server, with its own address-space rlimit; spec
  and result travel through atomically written JSON files;
* **hard wall-clock watchdog** — a job past its time limit is sent
  SIGTERM; one that ignores it (see the ``worker.hang`` fault) is
  SIGKILLed after a grace period.  The batch always finishes;
* **retry with degradation** — a failed attempt is re-queued with
  exponential backoff and *weaker parameters*
  (:func:`repro.runtime.jobs.degraded`) until it succeeds or exhausts
  ``max_attempts`` and is quarantined with the captured traceback and
  rusage;
* **crash-recoverable journal** — every state transition is fsynced to
  the JSONL journal *before* the supervisor acts on it.  ``kill -9`` of
  the supervisor or any worker mid-batch loses nothing: a resumed run
  re-queues orphaned ``running`` jobs (adopting an already-written valid
  result instead of re-running), skips terminal ones, and completes
  every job exactly once.

Since the executor-layer refactor the Supervisor is a pure *scheduler*:
process launching, polling and the SIGTERM→grace→SIGKILL ladder (for
the watchdog and for a drain alike) live in the
:class:`~repro.runtime.executors.LocalExecutor` each :meth:`Supervisor.run`
creates and closes.  It reproduces the historic fork pool exactly
(``tests/runtime/test_executor_differential.py`` pins it against the
frozen pre-refactor monolith).  Its workers fork from the
:class:`~repro.runtime.executors.ForkServer` the Supervisor is given
(serve shares one across requests), or else from one that
:meth:`Supervisor.run` starts and ends itself.  A sweep
(:mod:`repro.runtime.sweep`) is one batch on one Supervisor.

The public entry point is :func:`run_batch`; the ``migopt batch`` CLI
subcommand and ``benchmarks/flows.py`` are thin wrappers around it.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .artifacts import atomic_write_text
from .executors import (
    POLL_INTERVAL,
    WORKER_MODULE,
    ExecutorTask,
    ForkServer,
    LocalExecutor,
    TaskExit,
    child_env,
    kill_if_worker,
)
from .jobs import (
    BatchReport,
    JobJournal,
    JobRecord,
    JobSpec,
    adopt_result,
    degraded,
    job_summary,
    load_result_artifact,
)

__all__ = ["Supervisor", "run_batch", "spec_for_attempt"]


def spec_for_attempt(base: JobSpec, attempt: int) -> tuple[JobSpec, list[str]]:
    """The (possibly degraded) spec used by attempt *attempt* (1-based).

    Attempt 1 runs the base spec; each further attempt descends one rung
    of the degradation ladder.  Computed, not stored, so a resumed
    supervisor reconstructs the identical spec from the attempt number
    alone.  Returns the spec and the notes for the *last* rung applied.
    """
    spec = base
    notes: list[str] = []
    for _ in range(max(0, attempt - 1)):
        spec, notes = degraded(spec)
    return spec, notes


@dataclass
class _Pending:
    """Supervisor-side bookkeeping for one submitted attempt."""

    job_id: str
    attempt: int
    result_path: Path
    time_limit: float | None


class Supervisor:
    """Schedules jobs from the journal across a worker pool's slots.

    *workdir* holds everything the batch persists::

        workdir/
          journal.jsonl     the crash-safe event log
          specs/<job>.json  the spec each worker reads (per attempt)
          results/<job>.json  the artifact each worker writes
          report.json       the final merged BatchReport

    *grace* is the SIGTERM→SIGKILL escalation window;
    *startup_margin* pads the watchdog for interpreter start-up so a
    healthy worker that honors its in-process budget is never killed;
    *backoff_base* seconds doubles per failed attempt (kept small in
    tests); *default_time_limit* applies to specs without their own.
    Workers fork from *fork_server* when given (the caller owns it), else
    from a server each :meth:`run` starts and ends.
    """

    def __init__(
        self,
        workdir: str | Path,
        num_workers: int = 1,
        grace: float = 2.0,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        default_time_limit: float | None = None,
        startup_margin: float = 1.0,
        verbose: bool = False,
        fork_server: ForkServer | None = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        # Workers run in the workdir, so every path they are handed must
        # be absolute.
        self.workdir = Path(workdir).absolute()
        self.num_workers = num_workers
        self.grace = grace
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.default_time_limit = default_time_limit
        self.startup_margin = startup_margin
        self.verbose = verbose
        self.fork_server = fork_server
        self.specs_dir = self.workdir / "specs"
        self.results_dir = self.workdir / "results"
        self._shutdown = threading.Event()

    def request_shutdown(self) -> None:
        """Ask a running batch to drain and return early (signal-safe).

        The scheduling loop stops launching new attempts, SIGTERMs every
        live worker (SIGKILL after the grace window), journals each
        unfinished job as interrupted — re-runnable at the same attempt
        number — and returns a report flagged ``interrupted``.  The
        journal is left in exactly the state ``resume=True`` expects, so
        a Ctrl-C'd batch loses no completed work and orphans no worker.
        """
        self._shutdown.set()

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown.is_set()

    # -- paths ------------------------------------------------------------

    @property
    def journal_path(self) -> Path:
        return self.workdir / "journal.jsonl"

    @property
    def report_path(self) -> Path:
        return self.workdir / "report.json"

    def _spec_path(self, job_id: str) -> Path:
        return self.specs_dir / f"{job_id}.json"

    def _result_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    # -- batch entry ------------------------------------------------------

    def run(self, specs: list[JobSpec], resume: bool = False) -> BatchReport:
        """Run (or resume) a batch; returns the merged report.

        Without *resume* an existing journal is an error — accidentally
        pointing two different batches at one workdir must not silently
        merge them.  With *resume*, *specs* may be empty (the journal
        already knows the jobs) or repeat the original submission
        (idempotent: known job ids are not re-submitted).
        """
        if self.journal_path.exists() and not resume:
            raise FileExistsError(
                f"{self.journal_path} already exists; pass resume=True "
                "(or --resume) to continue it, or use a fresh workdir"
            )
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.specs_dir.mkdir(parents=True, exist_ok=True)
        self.results_dir.mkdir(parents=True, exist_ok=True)

        replay = JobJournal.replay(self.journal_path)
        started = time.monotonic()
        executor = LocalExecutor(
            num_workers=self.num_workers,
            grace=self.grace,
            startup_margin=self.startup_margin,
            fork_server=self.fork_server,
        )
        try:
            with JobJournal(self.journal_path) as journal:
                records = replay.records
                order = replay.order
                for spec in specs:
                    if spec.job_id in records:
                        continue
                    journal.submit(spec)
                    records[spec.job_id] = JobRecord(spec=spec)
                    order.append(spec.job_id)

                ready, delayed = self._recover(
                    journal, records, order, executor.fork_server.pid
                )
                report = self._loop(journal, records, order, ready, delayed, executor)
        finally:
            executor.close()

        report.wall_seconds = time.monotonic() - started
        report.total = len(order)
        report.jobs = [job_summary(records[job_id]) for job_id in order]
        atomic_write_text(
            self.report_path, json.dumps(report.to_dict(), sort_keys=True) + "\n"
        )
        return report

    # -- recovery ---------------------------------------------------------

    def _recover(
        self,
        journal: JobJournal,
        records: dict[str, JobRecord],
        order: list[str],
        server_pid: int | None,
    ) -> tuple[list[str], dict[str, float]]:
        """Re-queue interrupted jobs; returns (ready ids, delayed id->eligible_at).

        ``running`` records belong to a supervisor that died: their
        orphaned workers are killed (sparing *server_pid*, the fork
        server in use), and each job either adopts an
        already-complete valid result artifact (exactly-once: no re-run)
        or is re-queued at the same attempt number.  ``failed`` records
        (a crash between the failure and its requeue/quarantine decision)
        go back through the retry policy.
        """
        ready: list[str] = []
        delayed: dict[str, float] = {}
        for job_id in order:
            record = records[job_id]
            if record.state == "running":
                self._kill_orphan(record.pid, server_pid)
                if adopt_result(
                    journal, record, self._result_path(job_id), adopted=True
                ):
                    continue
                _requeue_interrupted(journal, record)
                ready.append(job_id)
            elif record.state == "failed":
                self._retry_or_quarantine(journal, record, delayed, ready, None)
            elif record.state == "pending":
                ready.append(job_id)
        return ready, delayed

    @staticmethod
    def _kill_orphan(pid: int | None, server_pid: int | None = None) -> None:
        """Kill a worker left over from a dead supervisor (Linux-only check).

        The pid is only signalled when ``/proc`` shows it still runs our
        worker module — a recycled pid must never be shot.  A fork server
        shows the same command line as its children, so *server_pid*, the
        server this supervisor uses, is spared.
        """
        if pid is not None and pid != server_pid:
            kill_if_worker(pid)

    # -- scheduling loop --------------------------------------------------

    def _loop(
        self,
        journal: JobJournal,
        records: dict[str, JobRecord],
        order: list[str],
        ready: list[str],
        delayed: dict[str, float],
        executor: LocalExecutor,
    ) -> BatchReport:
        report = BatchReport()
        for record in records.values():
            report.count_journaled(record)
        pending: dict[str, _Pending] = {}

        while ready or delayed or pending:
            if self._shutdown.is_set():
                self._drain(journal, records, pending, report, executor)
                break
            now = time.monotonic()
            progressed = False

            # Promote delayed retries whose backoff elapsed.
            for job_id in [j for j, at in delayed.items() if at <= now]:
                del delayed[job_id]
                ready.append(job_id)
                progressed = True

            # Fill free executor slots.
            while ready and executor.has_capacity():
                job_id = ready.pop(0)
                pending[job_id] = self._spawn(
                    journal, records[job_id], job_id, executor
                )
                report.max_concurrent = max(
                    report.max_concurrent, executor.running_count
                )
                progressed = True

            # Collect exits; the executor escalates overdue watchdogs.
            for task_exit in executor.poll():
                attempt = pending.pop(task_exit.task_id)
                self._finish(
                    journal, records[attempt.job_id], attempt, task_exit,
                    report, ready, delayed,
                )
                progressed = True

            if not progressed:
                # Nothing to do but wait: for an exit, or one tick until
                # the next deadline of interest (retry eligibility or
                # watchdog escalation).
                executor.wait(POLL_INTERVAL)
        return report

    def _drain(
        self,
        journal: JobJournal,
        records: dict[str, JobRecord],
        pending: dict[str, _Pending],
        report: BatchReport,
        executor: LocalExecutor,
    ) -> None:
        """Stop the batch cleanly: no orphans, journal fully resumable.

        Every live worker is SIGTERMed at once; one that ignores it (the
        ``worker.hang`` fault models exactly this) is SIGKILLed after the
        grace window.  A worker that managed to complete its result
        artifact before dying is journaled ``done`` — its work is kept —
        while every other interrupted job is journaled ``requeued`` with
        the ``resume:interrupted`` note, which replay treats as "the
        attempt never concluded": a later ``--resume`` re-runs it under
        the same attempt number, preserving exactly-once semantics.
        """
        report.interrupted = True
        for task_exit in executor.drain():
            attempt = pending.pop(task_exit.task_id)
            record = records[attempt.job_id]
            if adopt_result(journal, record, attempt.result_path):
                report.count_done(record.result, slot=task_exit.slot)
            else:
                _requeue_interrupted(journal, record)
            if self.verbose:
                print(f"[supervisor] drained {attempt.job_id} ({record.state})")

    def _spawn(
        self,
        journal: JobJournal,
        record: JobRecord,
        job_id: str,
        executor: LocalExecutor,
    ) -> _Pending:
        attempt = record.attempts + 1
        spec, notes = spec_for_attempt(record.spec, attempt)
        if spec.time_limit is None and self.default_time_limit is not None:
            spec = replace(spec, time_limit=self.default_time_limit)
        record.attempt_spec = spec
        if notes:
            for note in notes:
                if note not in record.degradations:
                    record.degradations.append(note)

        spec_path = self._spec_path(job_id)
        result_path = self._result_path(job_id)
        # A stale artifact from a previous attempt must not be mistaken
        # for this attempt's result.
        try:
            os.unlink(result_path)
        except OSError:
            pass
        atomic_write_text(spec_path, json.dumps(spec.to_dict(), sort_keys=True) + "\n")

        task = ExecutorTask(
            task_id=job_id,
            argv=(sys.executable, "-m", WORKER_MODULE,
                  str(spec_path), str(result_path)),
            env=child_env(),
            cwd=str(self.workdir),
            log_path=str(self.workdir / "logs" / f"{job_id}.log"),
            time_limit=spec.time_limit,
        )
        handle = executor.submit(task)
        journal.start(job_id, attempt, handle.pid, spec)
        record.state = "running"
        record.attempts = attempt
        record.pid = handle.pid
        if self.verbose:
            print(f"[supervisor] start {job_id} attempt {attempt} pid {handle.pid}"
                  + (f" degraded {notes}" if notes else ""))
        return _Pending(
            job_id=job_id, attempt=attempt, result_path=result_path,
            time_limit=spec.time_limit,
        )

    # -- completion -------------------------------------------------------

    def _finish(
        self,
        journal: JobJournal,
        record: JobRecord,
        attempt: _Pending,
        task_exit: TaskExit,
        report: BatchReport,
        ready: list[str],
        delayed: dict[str, float],
    ) -> None:
        job_id = attempt.job_id
        payload = adopt_result(journal, record, attempt.result_path)
        if payload is not None:
            report.count_done(record.result, slot=task_exit.slot)
            if self.verbose:
                print(f"[supervisor] done {job_id} "
                      f"({payload.get('size_before')}->{payload.get('size_after')})")
            return

        traceback = rusage = None
        # Not adoptable: a controlled in-worker failure still left its
        # artifact (error, traceback, rusage) behind.
        payload = load_result_artifact(attempt.result_path, job_id)
        if payload is not None:
            error = str(payload.get("error", "worker reported failure"))
            traceback = payload.get("traceback")
            rusage = payload.get("rusage")
        elif task_exit.killed:
            error = (
                f"SIGKILLed by watchdog after {task_exit.runtime:.1f}s "
                f"(limit {record.effective_spec.time_limit}s + grace {self.grace}s)"
            )
        elif task_exit.termed:
            error = (
                f"SIGTERMed by watchdog after {task_exit.runtime:.1f}s "
                f"(limit {record.effective_spec.time_limit}s)"
            )
        elif task_exit.returncode < 0:
            error = f"worker died on signal {-task_exit.returncode}"
        else:
            error = (
                f"worker exited with code {task_exit.returncode} "
                "and no result artifact"
            )
        report.failed_attempts += 1
        journal.failed(job_id, attempt.attempt, error, traceback, rusage)
        record.state = "failed"
        record.last_error = error
        record.traceback = traceback
        record.rusage = rusage
        if self.verbose:
            print(f"[supervisor] failed {job_id} attempt {attempt.attempt}: {error}")
        self._retry_or_quarantine(journal, record, delayed, ready, report)

    def _retry_or_quarantine(
        self,
        journal: JobJournal,
        record: JobRecord,
        delayed: dict[str, float],
        ready: list[str],
        report: BatchReport | None,
    ) -> None:
        """Requeue a ``failed`` job (after a backoff), or quarantine it
        once its attempts are spent."""
        job_id = record.spec.job_id
        if record.attempts >= self.max_attempts:
            error = record.last_error or "unknown failure"
            journal.quarantined(job_id, error, record.traceback, record.rusage)
            record.state = "quarantined"
            if report is not None:
                report.quarantined += 1
            if self.verbose:
                print(f"[supervisor] quarantined {job_id}: {error}")
            return
        _, notes = spec_for_attempt(record.spec, record.attempts + 1)
        journal.requeued(job_id, notes)
        record.state = "pending"
        if report is not None:
            report.retries += 1
        backoff = self.backoff_base * (2 ** max(0, record.attempts - 1))
        if backoff > 0:
            delayed[job_id] = time.monotonic() + backoff
        else:
            ready.append(job_id)


def _requeue_interrupted(journal: JobJournal, record: JobRecord) -> None:
    """Journal an attempt that never concluded for a re-run at the same
    attempt number; a replay after *another* crash stays consistent."""
    journal.requeued(record.spec.job_id, ["resume:interrupted"])
    record.state = "pending"
    record.attempts = max(0, record.attempts - 1)


def run_batch(
    specs: list[JobSpec],
    workdir: str | Path,
    num_workers: int = 1,
    resume: bool = False,
    **kwargs,
) -> BatchReport:
    """Run *specs* under a :class:`Supervisor` in *workdir*; see class docs."""
    supervisor = Supervisor(workdir, num_workers=num_workers, **kwargs)
    return supervisor.run(specs, resume=resume)
