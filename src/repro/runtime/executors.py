"""The process pool: *where* a runtime child runs and *how* it stops.

The :class:`~repro.runtime.supervisor.Supervisor` is the batch
*scheduler* (journal, retry ladder, adoption); this module is its
*process pool* (fork server, poll, SIGTERM→SIGKILL watchdog), the one
place a runtime child process is launched and stopped:

* :class:`ForkServer` — how a child starts.  On its first spawn it
  execs ``python -m repro.runtime.worker --fork-server FD``
  (:func:`repro.runtime.worker.serve_forks`), a single-threaded process
  that imports the worker, flow and parser modules once and then forks
  one child per task, so a job no longer pays for interpreter start-up
  and ``import repro``.  The child applies its task's stdio, log, cwd
  and environment, then runs the worker in-process; any other argv is
  ``exec``'d.  The server reports each child's pid and then its exit
  code over that task's own channel.  Only the server forks: its owner,
  a :class:`LocalExecutor`, starts it by fork + exec, as it would any
  subprocess;
* :class:`LocalExecutor` — ``submit`` / ``poll`` / ``drain`` over
  :class:`ExecutorTask` descriptions (an argv, an environment, an
  optional wall-clock watchdog), re-platformed from the pre-refactor
  supervisor (slot allocation and watchdog pinned by
  ``tests/runtime/test_executor_differential``).  It owns the one stop
  ladder: each task has a SIGTERM instant and a SIGKILL instant
  ``grace`` seconds later, and :meth:`~LocalExecutor.poll` sends each
  signal to the child's pid once its instant passes.  The watchdog sets
  the instants at launch; :meth:`~LocalExecutor.drain` moves them to
  now.  Each executor owns one fork server, and only the thread that
  drives the executor (a supervisor's loop) spawns through it;
* :func:`child_env` — the environment every worker process gets;
* :func:`kill_if_worker` — the ``/proc``-checked SIGKILL of a worker
  whose owner is gone;
* :func:`handle_signals` — the one place SIGINT/SIGTERM handlers are
  installed and restored (``migopt batch`` / ``sweep`` / ``serve``).

Every executor is single-use: create, submit/poll until done (or
``drain``), ``close``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
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
    "ForkServer",
    "LocalExecutor",
    "child_env",
    "kill_if_worker",
    "handle_signals",
]

#: scheduler tick shared with the supervisor loop
POLL_INTERVAL = 0.02

#: seconds every task watchdog is padded with, so a healthy worker that
#: honors its in-process budget is never killed
STARTUP_MARGIN = 1.0

#: the module every worker runs, and the fork server too; a task whose
#: argv is ``python -m`` this module runs in a fork-server child without
#: an exec
WORKER_MODULE = "repro.runtime.worker"

#: seconds to wait for the fork server to report a fork, or to exit
_SERVER_TIMEOUT = 30.0


@dataclass(frozen=True)
class ExecutorTask:
    """One process-shaped unit of work an executor can run.

    ``time_limit`` arms the wall-clock watchdog: the process is SIGTERMed
    at ``launch + time_limit +`` :data:`STARTUP_MARGIN`, and SIGKILLed
    the executor's ``grace`` seconds later.  ``None`` disables it.
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
    pid: int
    #: carries the exit code from the fork server (end-of-file: it died)
    channel: socket.socket
    slot: int
    started: float
    #: SIGTERM instant (None = no wall-clock watchdog for this task)
    term_at: float | None
    #: SIGKILL instant
    kill_at: float | None
    termed: bool = False
    killed: bool = False

    def returncode(self) -> int | None:
        """The exit code once the server reported it, else None."""
        try:
            message = self.channel.recv(64)
        except BlockingIOError:
            return None
        except OSError:
            message = b""
        if message:
            return int(message)
        # The server died before the child: stop the child if it still
        # runs our worker, and report it killed so the retry ladder runs.
        kill_if_worker(self.pid)
        return -signal.SIGKILL

    def send_signal(self, signum: int) -> None:
        try:
            os.kill(self.pid, signum)
        except ProcessLookupError:
            pass  # exited; the server reports its exit code

    def to_exit(self, returncode: int) -> TaskExit:
        return TaskExit(
            task_id=self.task_id,
            returncode=returncode,
            slot=self.slot,
            runtime=time.monotonic() - self.started,
            termed=self.termed,
            killed=self.killed,
        )


class ForkServer:
    """A pre-imported process that forks every worker (see module docs).

    Nothing starts at construction: the server process starts on the
    first :meth:`spawn`, and a fresh one on the spawn after it died.
    :meth:`close` ends and reaps it, so worker rusage still reaches the
    owner's ``RUSAGE_CHILDREN``.  One thread spawns through it: the one
    driving its :class:`LocalExecutor`.  When the owner dies the server
    exits on end-of-file of its control channel and leaves running
    children alone, as cold workers outlive a killed supervisor.
    """

    def __init__(self) -> None:
        self._proc: subprocess.Popen | None = None
        self._control: socket.socket | None = None

    @property
    def pid(self) -> int | None:
        """The pid of the running server, or None."""
        proc = self._proc
        if proc is None or proc.poll() is not None:
            return None
        return proc.pid

    def spawn(
        self, task: ExecutorTask, log_fd: int | None = None
    ) -> tuple[int, socket.socket]:
        """Fork a child for *task*, its stderr on *log_fd* (else /dev/null).

        Returns the child's pid and a non-blocking channel that becomes
        readable when the child exits: it then reads the exit code, in
        ``Popen.returncode`` form, or end-of-file if the server died.
        """
        request = json.dumps({
            "argv": list(task.argv),
            "env": dict(os.environ) if task.env is None else task.env,
            "cwd": task.cwd or os.getcwd(),
        }).encode()
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            fds = [theirs.fileno()] + ([] if log_fd is None else [log_fd])
            if self._control is None:
                self._start()
            try:
                socket.send_fds(self._control, [request], fds)
            except ConnectionError:
                # The server died since the last spawn.
                self._start()
                socket.send_fds(self._control, [request], fds)
            theirs.close()
            ours.settimeout(_SERVER_TIMEOUT)
            reply = ours.recv(64)
            if not reply:
                raise ChildProcessError("the fork server did not fork")
            ours.setblocking(False)
            return int(reply), ours
        except BaseException:
            ours.close()
            theirs.close()
            raise

    def close(self) -> None:
        """End the server (if it runs) and reap it."""
        if self._control is not None:
            self._control.close()
            self._control = None
        if self._proc is not None:
            # The server exits on end-of-file of its control channel.
            try:
                self._proc.wait(timeout=_SERVER_TIMEOUT)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc = None

    def _start(self) -> None:
        """Start a fresh server in place of any previous one."""
        self.close()
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        env = _import_env()
        env.pop(faults.FAULTS_ENV_VAR, None)
        # numpy's OpenBLAS starts a thread pool at import.  Its fork
        # handler stops the pool first, but Python 3.12 warns on any fork
        # of a process with threads; no worker calls into BLAS.
        env["OPENBLAS_NUM_THREADS"] = "1"
        try:
            self._proc = subprocess.Popen(
                (sys.executable, "-m", WORKER_MODULE,
                 "--fork-server", str(theirs.fileno())),
                env=env,
                # Every child keeps these, as a worker's stdin and stdout.
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                pass_fds=(theirs.fileno(),),
            )
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self._control = ours


class LocalExecutor:
    """The worker pool, extracted from the original supervisor.

    *num_workers* slots are allocated lowest-index-first and returned to
    the free list on exit (identical to the pre-refactor supervisor, so
    per-slot utilization accounting is unchanged).  *grace* is the
    SIGTERM→SIGKILL escalation window.  Every task is forked from the
    executor's own :class:`ForkServer`, started on the first submit and
    ended by :meth:`close`.
    """

    def __init__(self, num_workers: int = 1, grace: float = 2.0) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers
        self.grace = grace
        self.fork_server = ForkServer()
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
        log_fp = None
        try:
            if task.log_path is not None:
                log_path = Path(task.log_path)
                log_path.parent.mkdir(parents=True, exist_ok=True)
                log_fp = open(log_path, "ab")
            pid, channel = self.fork_server.spawn(
                task, None if log_fp is None else log_fp.fileno()
            )
        except BaseException:
            self._free_slots.append(slot)
            self._free_slots.sort()
            raise
        finally:
            if log_fp is not None:
                log_fp.close()
        started = time.monotonic()
        term_at = kill_at = None
        if task.time_limit is not None:
            term_at = started + task.time_limit + STARTUP_MARGIN
            kill_at = term_at + self.grace
        self._live[task.task_id] = _Live(
            task_id=task.task_id, pid=pid, channel=channel, slot=slot,
            started=started, term_at=term_at, kill_at=kill_at,
        )
        return TaskHandle(task_id=task.task_id, pid=pid, slot=slot)

    def _reap(self, live: _Live, returncode: int) -> TaskExit:
        """Retire a finished task and free its slot."""
        del self._live[live.task_id]
        live.channel.close()
        self._free_slots.append(live.slot)
        self._free_slots.sort()
        return live.to_exit(returncode)

    def poll(self) -> list[TaskExit]:
        exits: list[TaskExit] = []
        for task_id in list(self._live):
            live = self._live[task_id]
            rc = live.returncode()
            if rc is not None:
                exits.append(self._reap(live, rc))
                continue
            now = time.monotonic()
            if live.kill_at is not None and now >= live.kill_at and not live.killed:
                live.send_signal(signal.SIGKILL)
                live.killed = True
            elif live.term_at is not None and now >= live.term_at and not live.termed:
                live.send_signal(signal.SIGTERM)
                live.termed = True
        return exits

    def wait(self, timeout: float, wake: socket.socket | None = None) -> None:
        """Sleep until a task exits, *wake* is readable, or *timeout* passes."""
        channels = [live.channel for live in self._live.values()]
        if wake is not None:
            channels.append(wake)
        select.select(channels, [], [], timeout)  # with none, a plain sleep

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
            self.wait(POLL_INTERVAL)

    def close(self) -> None:
        if self._live:
            self.drain()
        self._closed = True
        self.fork_server.close()


def kill_if_worker(pid: int) -> None:
    """SIGKILL *pid* if ``/proc`` shows it still runs our worker module.

    A fork-server child carries the server's command line, which names
    the worker module too.  A recycled pid must never be shot, so
    without ``/proc`` (off Linux) nothing is killed.
    """
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return
    if WORKER_MODULE.encode() not in cmdline:
        return
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


def _import_env() -> dict[str, str]:
    """The parent's environment with this package's source root first on
    ``PYTHONPATH``."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


def child_env() -> dict[str, str]:
    """Environment for a worker process.

    The parent's environment with this package's source root first on
    ``PYTHONPATH``, and the armed fault table handed over:
    non-``worker.*`` faults are copied into ``REPRO_FAULTS`` so
    in-worker fault points fire end to end, while the ``worker.*``
    family is *consumed here*, one probe per spawn — a firing probe
    dooms exactly the worker being spawned, which keeps ``times=N``
    accounting in one process even across retries.  A fork-server child
    takes this environment in place of the server's before the worker
    arms its faults from it.
    """
    env = _import_env()
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
