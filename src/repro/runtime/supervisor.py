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
:class:`~repro.runtime.executors.LocalExecutor` (and its fork server)
that the scheduling loop creates and closes.  It reproduces the historic
fork pool exactly (``tests/runtime/test_executor_differential.py`` pins
it against the frozen pre-refactor monolith).  A batch (and a sweep,
:mod:`repro.runtime.sweep`) runs the loop inline; serve runs one loop in
a thread for the daemon's lifetime, handing it each request through
:meth:`~Supervisor.submit`.

The public entry point is :func:`run_batch`; the ``migopt batch`` CLI
subcommand and ``benchmarks/flows.py`` are thin wrappers around it.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from concurrent.futures import Future
from contextlib import suppress
from dataclasses import dataclass, replace
from pathlib import Path

from .artifacts import atomic_write_text
from .executors import (
    POLL_INTERVAL,
    WORKER_MODULE,
    ExecutorTask,
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

__all__ = ["JobFuture", "Supervisor", "run_batch", "spec_for_attempt"]


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


class JobFuture(Future):
    """What :meth:`Supervisor.submit` returns: resolves with the job's
    :func:`~repro.runtime.jobs.job_summary` once it is ``done`` or
    ``quarantined`` or a shutdown interrupts its run, and fails with the
    error that stopped a launch or the loop.  Before the first launch,
    :meth:`cancel`, a shutdown or a passed *not_after* (``time.time()``)
    cancels it: the job stays ``pending`` in the journal for the next start."""

    def __init__(self, not_after: float | None = None) -> None:
        super().__init__()
        self.not_after = not_after
        #: ``time.time()`` of the job's first launch
        self.started_at: float | None = None


class Supervisor:
    """Schedules jobs from the journal across a worker pool's slots.

    *workdir* holds everything the batch persists::

        workdir/
          journal.jsonl     the crash-safe event log
          specs/<job>.json  the spec each worker reads (per attempt)
          results/<job>.json  the artifact each worker writes
          report.json       the final merged BatchReport

    *grace* is the SIGTERM→SIGKILL escalation window;
    *backoff_base* seconds doubles per failed attempt (kept small in
    tests); *default_time_limit* applies to specs without their own.
    A supervisor is single-use: one :meth:`run`, or one :meth:`start`
    with submissions until :meth:`close` or :meth:`request_shutdown`.
    """

    def __init__(
        self,
        workdir: str | Path,
        num_workers: int = 1,
        grace: float = 2.0,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        default_time_limit: float | None = None,
        verbose: bool = False,
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
        self.verbose = verbose
        self.specs_dir = self.workdir / "specs"
        self.results_dir = self.workdir / "results"
        self._shutdown = threading.Event()
        self._lock = threading.Lock()  # the inbox and the closed flag
        self._inbox: list[tuple[JobSpec, JobFuture]] = []
        #: no submission is taken (after :meth:`close` or the loop's end)
        self.closed = False
        #: while the loop runs, a byte written to this pair wakes it
        self._wake: tuple[socket.socket, socket.socket] | None = None
        self._thread: threading.Thread | None = None
        self._futures: dict[str, JobFuture] = {}  # the unsettled handles

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
        self._wake_loop()

    def submit(self, spec: JobSpec, not_after: float | None = None) -> JobFuture:
        """Hand *spec* to the loop (thread-safe).  A job id the journal
        knows is not submitted again: the handle follows the known job.
        Raises ``RuntimeError`` after :meth:`close` or the loop's end."""
        future = JobFuture(not_after)
        with self._lock:
            if self.closed:
                raise RuntimeError("supervisor is closed")
            self._inbox.append((spec, future))
        self._wake_loop()
        return future

    def close(self) -> None:
        """Take no more submissions, and wait for the loop :meth:`start`
        began to end: once idle, or at once after :meth:`request_shutdown`."""
        with self._lock:
            self.closed = True
        self._wake_loop()
        if self._thread is not None:
            self._thread.join()

    def start(self) -> None:
        """Run the loop in a thread, once, resuming the journal if any."""
        with self._lock:
            if self._thread is None and not self.closed:
                self._thread = threading.Thread(
                    target=self._serve, args=(True,), name="supervisor", daemon=True
                )
                self._thread.start()

    def _wake_loop(self) -> None:
        """Wake a waiting loop (signal-safe: takes no lock, never blocks)."""
        wake = self._wake
        if wake is not None:
            with suppress(OSError):  # a wake-up is pending, or the loop ended
                wake[1].send(b"\0", socket.MSG_DONTWAIT)

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
        for spec in specs:
            self.submit(spec)
        self.close()
        return self._serve(resume)

    def _serve(self, resume: bool) -> BatchReport:
        """The scheduling loop behind :meth:`run` and :meth:`start`."""
        executor = LocalExecutor(num_workers=self.num_workers, grace=self.grace)
        self._wake = socket.socketpair()
        try:
            if self.journal_path.exists() and not resume:
                raise FileExistsError(
                    f"{self.journal_path} already exists; pass resume=True "
                    "(or --resume) to continue it, or use a fresh workdir"
                )
            self.specs_dir.mkdir(parents=True, exist_ok=True)  # and the workdir
            self.results_dir.mkdir(parents=True, exist_ok=True)

            replay = JobJournal.replay(self.journal_path)
            records = replay.records
            order = replay.order
            started = time.monotonic()
            with JobJournal(self.journal_path) as journal:
                self._take_inbox(journal, records, order)
                ready, delayed = self._recover(journal, records, order)
                report = self._loop(journal, records, order, ready, delayed, executor)
        except BaseException as exc:
            # The loop failed: every handle, submitted or still in the
            # inbox, fails with its error.  Closed first, so that a
            # handle's owner can tell this from a failed launch.
            with self._lock:
                self.closed = True
                inbox, self._inbox = self._inbox, []
            for future in [*self._futures.values(), *(f for _, f in inbox)]:
                if future.running() or future.set_running_or_notify_cancel():
                    future.set_exception(exc)
            raise
        finally:
            executor.close()
            with self._lock:
                self.closed = True
                leftover, self._inbox = self._inbox, []
                wake, self._wake = self._wake, None
            for end in wake:
                end.close()
            for _, future in leftover:
                future.cancel()
        # A drain interrupted these: the launched resolve, the rest cancel.
        for job_id, future in self._futures.items():
            if not future.cancel():
                future.set_result(job_summary(records[job_id]))

        report.wall_seconds = time.monotonic() - started
        report.total = len(order)
        report.jobs = [job_summary(records[job_id]) for job_id in order]
        atomic_write_text(
            self.report_path, json.dumps(report.to_dict(), sort_keys=True) + "\n"
        )
        return report

    # -- recovery ---------------------------------------------------------

    def _recover(
        self, journal: JobJournal, records: dict[str, JobRecord], order: list[str]
    ) -> tuple[list[str], dict[str, float]]:
        """Re-queue interrupted jobs; returns (ready ids, delayed id->eligible_at).

        ``running`` records belong to a supervisor that died: their
        orphaned workers are killed (only while ``/proc`` shows our
        worker module, see :func:`kill_if_worker`; no fork server of
        ours runs yet), and each job either adopts an already-complete
        valid result artifact (exactly-once: no re-run) or is re-queued
        at the same attempt number.  ``failed`` records
        (a crash between the failure and its requeue/quarantine decision)
        go back through the retry policy.
        """
        ready: list[str] = []
        delayed: dict[str, float] = {}
        for job_id in order:
            record = records[job_id]
            if record.state == "running":
                if record.pid is not None:
                    kill_if_worker(record.pid)
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

    # -- scheduling loop --------------------------------------------------

    def _take_inbox(
        self, journal: JobJournal, records: dict[str, JobRecord], order: list[str]
    ) -> None:
        """Journal the submissions since the last tick (a new job id joins
        *order*; a known one is only followed)."""
        with suppress(BlockingIOError):
            self._wake[0].recv(4096, socket.MSG_DONTWAIT)
        with self._lock:
            inbox, self._inbox = self._inbox, []
        # Every handle is registered before any journal write, so one
        # that fails settles them all (see _serve).
        self._futures.update((spec.job_id, future) for spec, future in inbox)
        for spec, _ in inbox:
            if spec.job_id not in records:
                journal.submit(spec)
                records[spec.job_id] = JobRecord(spec=spec)
                order.append(spec.job_id)

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

        while True:
            known = len(order)
            # Read before the inbox is taken, so a closed loop has every
            # submission in hand.
            closed = self.closed
            self._take_inbox(journal, records, order)
            ready.extend(order[known:])
            # Resolve the handles of terminal jobs; an unlaunched one
            # resolves too, unless its caller cancelled it.
            for job_id in [j for j in self._futures
                           if records[j].state in ("done", "quarantined")]:
                future = self._futures.pop(job_id)
                if future.running() or future.set_running_or_notify_cancel():
                    future.set_result(job_summary(records[job_id]))
            idle = not (ready or delayed or pending)
            if idle and (closed or self._shutdown.is_set()):
                break
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
                future = self._futures.get(job_id)
                if future is not None and not future.running():  # first launch
                    if future.not_after is not None and time.time() >= future.not_after:
                        future.cancel()
                    if not future.set_running_or_notify_cancel():
                        del self._futures[job_id]  # stays pending in the journal
                        continue
                    future.started_at = time.time()
                attempt = self._spawn(journal, records[job_id], job_id, executor)
                if attempt is not None:
                    pending[job_id] = attempt
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
                # Nothing to do but wait: for an exit, a submission, or
                # one tick until the next deadline of interest (retry
                # eligibility or watchdog escalation); idle, until woken.
                executor.wait(None if idle else POLL_INTERVAL, self._wake[0])
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
    ) -> _Pending | None:
        attempt = record.attempts + 1
        spec, notes = spec_for_attempt(record.spec, attempt)
        if spec.time_limit is None and self.default_time_limit is not None:
            spec = replace(spec, time_limit=self.default_time_limit)
        record.attempt_spec = spec
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
        task = ExecutorTask(
            task_id=job_id,
            argv=(sys.executable, "-m", WORKER_MODULE,
                  str(spec_path), str(result_path)),
            env=child_env(),
            cwd=str(self.workdir),
            log_path=str(self.workdir / "logs" / f"{job_id}.log"),
            time_limit=spec.time_limit,
        )
        try:
            atomic_write_text(
                spec_path, json.dumps(spec.to_dict(), sort_keys=True) + "\n"
            )
            handle = executor.submit(task)
        except OSError as exc:  # e.g. a full disk or no fork: it stays pending
            record.last_error = f"could not launch: {exc}"
            if job_id in self._futures:
                self._futures.pop(job_id).set_exception(exc)
            return None
        journal.start(job_id, attempt, handle.pid, spec)
        record.state = "running"
        record.attempts = attempt
        record.pid = handle.pid
        if self.verbose:
            print(f"[supervisor] start {job_id} attempt {attempt} pid {handle.pid}"
                  + (f" degraded {notes}" if notes else ""))
        return _Pending(job_id=job_id, attempt=attempt, result_path=result_path)

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
