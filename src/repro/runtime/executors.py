"""The process pool: *where* a runtime child runs and *how* it stops.

The :class:`~repro.runtime.supervisor.Supervisor` is the batch
*scheduler* (journal, retry ladder, adoption); this module is its
*process pool* (fork, poll, SIGTERM→SIGKILL watchdog), the one place a
runtime child process is launched and stopped:

* :class:`LocalExecutor` — ``submit`` / ``poll`` / ``drain`` over
  :class:`ExecutorTask` descriptions (an argv, an environment, an
  optional wall-clock watchdog), re-platformed from the pre-refactor
  supervisor (slot allocation and watchdog pinned by
  ``tests/runtime/test_executor_differential``).  It owns the one stop
  ladder: each task has a SIGTERM instant and a SIGKILL instant
  ``grace`` seconds later, and :meth:`~LocalExecutor.poll` sends each
  signal once its instant passes.  The watchdog sets the instants at
  launch; :meth:`~LocalExecutor.drain` moves them to now;
* :func:`child_env` — the environment every worker process gets;
* :func:`handle_signals` — the one place SIGINT/SIGTERM handlers are
  installed and restored (``migopt batch`` / ``sweep`` / ``serve``).

Every executor is single-use: create, submit/poll until done (or
``drain``), ``close``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from . import faults

__all__ = [
    "ExecutorTask",
    "TaskHandle",
    "TaskExit",
    "LocalExecutor",
    "child_env",
    "handle_signals",
]

#: scheduler tick shared with the supervisor loop
POLL_INTERVAL = 0.02


@dataclass(frozen=True)
class ExecutorTask:
    """One process-shaped unit of work an executor can run.

    ``time_limit`` arms the wall-clock watchdog: the process is SIGTERMed
    at ``launch + time_limit + startup_margin`` and SIGKILLed ``grace``
    seconds later (both executor parameters).  ``None`` disables it.
    """

    task_id: str
    argv: tuple[str, ...]
    env: dict | None = None
    cwd: str | None = None
    log_path: str | None = None
    time_limit: float | None = None


@dataclass(frozen=True)
class TaskHandle:
    """What ``submit`` returns: enough to journal the launch durably."""

    task_id: str
    pid: int
    slot: int


@dataclass
class TaskExit:
    """One finished task, as reported by ``poll`` or ``drain``."""

    task_id: str
    returncode: int
    slot: int
    runtime: float
    #: the watchdog fired (SIGTERM)
    termed: bool = False
    #: the watchdog escalated (SIGKILL)
    killed: bool = False


@dataclass
class _Live:
    """Executor-side state of one running process."""

    task_id: str
    proc: subprocess.Popen
    slot: int
    started: float
    #: SIGTERM instant (None = no wall-clock watchdog for this task)
    term_at: float | None
    #: SIGKILL instant
    kill_at: float | None
    termed: bool = False
    killed: bool = False

    def to_exit(self, returncode: int) -> TaskExit:
        return TaskExit(
            task_id=self.task_id,
            returncode=returncode,
            slot=self.slot,
            runtime=time.monotonic() - self.started,
            termed=self.termed,
            killed=self.killed,
        )


class LocalExecutor:
    """The fork-based worker pool, extracted from the PR 3 supervisor.

    *num_workers* slots are allocated lowest-index-first and returned to
    the free list on exit (identical to the pre-refactor supervisor, so
    per-slot utilization accounting is unchanged).  *startup_margin* pads
    every task watchdog for interpreter start-up; *grace* is the
    SIGTERM→SIGKILL escalation window.
    """

    def __init__(
        self,
        num_workers: int = 1,
        grace: float = 2.0,
        startup_margin: float = 1.0,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers
        self.grace = grace
        self.startup_margin = startup_margin
        self._live: dict[str, _Live] = {}
        self._free_slots: list[int] = list(range(num_workers))
        self._closed = False

    # -- capacity ----------------------------------------------------------

    @property
    def running_count(self) -> int:
        return len(self._live)

    def has_capacity(self) -> bool:
        return bool(self._free_slots)

    # -- lifecycle ---------------------------------------------------------

    def submit(self, task: ExecutorTask) -> TaskHandle:
        if self._closed:
            raise RuntimeError("executor is closed")
        if task.task_id in self._live:
            raise ValueError(f"task {task.task_id!r} is already running")
        if not self.has_capacity():
            raise RuntimeError("no free executor slot")
        slot = self._free_slots.pop(0)
        stderr = subprocess.DEVNULL
        log_fp = None
        if task.log_path is not None:
            log_path = Path(task.log_path)
            log_path.parent.mkdir(parents=True, exist_ok=True)
            log_fp = open(log_path, "ab")
            stderr = log_fp
        try:
            proc = subprocess.Popen(
                task.argv,
                env=task.env,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                cwd=task.cwd,
            )
        except Exception:
            self._free_slots.append(slot)
            self._free_slots.sort()
            raise
        finally:
            if log_fp is not None:
                log_fp.close()
        started = time.monotonic()
        term_at = kill_at = None
        if task.time_limit is not None:
            term_at = started + task.time_limit + self.startup_margin
            kill_at = term_at + self.grace
        self._live[task.task_id] = _Live(
            task_id=task.task_id, proc=proc, slot=slot, started=started,
            term_at=term_at, kill_at=kill_at,
        )
        return TaskHandle(task_id=task.task_id, pid=proc.pid, slot=slot)

    def _reap(self, live: _Live, returncode: int) -> TaskExit:
        """Retire a finished task and free its slot."""
        del self._live[live.task_id]
        self._free_slots.append(live.slot)
        self._free_slots.sort()
        return live.to_exit(returncode)

    def poll(self) -> list[TaskExit]:
        exits: list[TaskExit] = []
        for task_id in list(self._live):
            live = self._live[task_id]
            rc = live.proc.poll()
            if rc is not None:
                exits.append(self._reap(live, rc))
                continue
            now = time.monotonic()
            if live.kill_at is not None and now >= live.kill_at and not live.killed:
                live.proc.kill()
                live.killed = True
            elif live.term_at is not None and now >= live.term_at and not live.termed:
                live.proc.terminate()
                live.termed = True
        return exits

    def drain(self) -> list[TaskExit]:
        """Stop everything through the watchdog ladder, then reap it.

        Each task not yet SIGTERMed gets its SIGTERM instant set to now
        and its SIGKILL instant to ``grace`` later; a task the watchdog
        already SIGTERMed keeps its own SIGKILL instant, so no task is
        SIGKILLed sooner than ``grace`` after its SIGTERM.  :meth:`poll`
        then runs until the pool is empty.  The caller decides per exit
        whether the task's work survives (result adoption) or is
        requeued.
        """
        now = time.monotonic()
        for live in self._live.values():
            if not live.termed:
                live.term_at, live.kill_at = now, now + self.grace
        exits: list[TaskExit] = []
        while True:
            exits.extend(self.poll())
            if not self._live:
                return exits
            time.sleep(POLL_INTERVAL)

    def close(self) -> None:
        if self._live:
            self.drain()
        self._closed = True


def child_env() -> dict[str, str]:
    """Environment for a worker process.

    The parent's environment with this package's source root first on
    ``PYTHONPATH``, and the armed fault table handed over:
    non-``worker.*`` faults are copied into ``REPRO_FAULTS`` so
    in-worker fault points fire end to end, while the ``worker.*``
    family is *consumed here*, one probe per spawn — a firing probe
    dooms exactly the worker being spawned, which keeps ``times=N``
    accounting in one process even across retries.
    """
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    entries = []
    passthrough = faults.env_spec(exclude_prefix="worker.")
    if passthrough:
        entries.append(passthrough)
    for name in faults.armed_names(prefix="worker."):
        if faults.fault_active(name):
            entries.append(f"{name}:times=1")
    if entries:
        env[faults.FAULTS_ENV_VAR] = ",".join(entries)
    else:
        env.pop(faults.FAULTS_ENV_VAR, None)
    return env


@contextmanager
def handle_signals(
    handler, signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM)
) -> Iterator[None]:
    """Install *handler* for *signals* inside the block, then restore.

    The caller owns the policy (what the first and a repeated signal
    do); this owns the mechanics.  A signal that cannot be handled here
    (off the main thread, unsupported platform) is left alone.
    """
    previous = {}
    for sig in signals:
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):
            pass
    try:
        yield
    finally:
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):
                pass
