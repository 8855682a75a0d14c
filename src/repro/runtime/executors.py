"""The pluggable executor layer: *where* job processes run.

PR 3's :class:`~repro.runtime.supervisor.Supervisor` was both the batch
*scheduler* (journal, retry ladder, adoption) and the *process pool*
(fork, poll, SIGTERM→SIGKILL watchdog).  This module extracts the second
role so the scheduler no longer cares whether an attempt runs as a local
fork, or — one level up — a whole journal shard runs as an independent
``migopt batch --shard`` invocation on another host:

* :class:`LocalExecutor` — ``submit`` / ``poll`` / ``drain`` over
  :class:`ExecutorTask` descriptions (an argv, an environment, an
  optional wall-clock watchdog): today's fork-based worker pool, re-platformed
  byte-for-byte: slot allocation, the startup-margin-padded watchdog and
  the SIGTERM→grace→SIGKILL escalation are exactly the pre-refactor
  supervisor's (pinned by ``tests/runtime/test_executor_differential``);
* :class:`ShardExecutor` — one task per *journal shard*: the argv is
  wrapped in a per-host command template (``$REPRO_SWEEP_HOSTS``; plain
  names run local subprocesses, ``name=ssh hostA {cmd}``-style templates
  reach real fleets) and pinned to its host slot, so a sweep coordinator
  (:mod:`repro.runtime.sweep`) schedules shards exactly the way the
  supervisor schedules workers;
* :func:`child_env` — the environment every runtime child process gets;
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
    "HostSpec",
    "ShardExecutor",
    "child_env",
    "handle_signals",
    "parse_hosts",
    "HOSTS_ENV_VAR",
]

#: scheduler tick shared with the supervisor loop
POLL_INTERVAL = 0.02

#: environment variable naming the sweep fleet (see :func:`parse_hosts`)
HOSTS_ENV_VAR = "REPRO_SWEEP_HOSTS"


@dataclass(frozen=True)
class ExecutorTask:
    """One process-shaped unit of work an executor can run.

    ``time_limit`` arms the wall-clock watchdog: the process is SIGTERMed
    at ``launch + time_limit + startup_margin`` and SIGKILLed ``grace``
    seconds later (both executor parameters).  ``None`` disables it —
    shard tasks supervise their own workers and get no outer deadline.
    ``host`` pins the task to a named host slot; only executors with
    named slots (:class:`ShardExecutor`) honor it.
    """

    task_id: str
    argv: tuple[str, ...]
    env: dict | None = None
    cwd: str | None = None
    log_path: str | None = None
    time_limit: float | None = None
    host: str | None = None


@dataclass(frozen=True)
class TaskHandle:
    """What ``submit`` returns: enough to journal the launch durably."""

    task_id: str
    pid: int
    slot: int | str


@dataclass
class TaskExit:
    """One finished task, as reported by ``poll`` or ``drain``."""

    task_id: str
    returncode: int
    slot: int | str
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
    slot: int | str
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
        self._free_slots: list[int | str] = list(range(num_workers))
        self._closed = False

    # -- capacity ----------------------------------------------------------

    @property
    def running_count(self) -> int:
        return len(self._live)

    def has_capacity(self, task: ExecutorTask) -> bool:  # noqa: ARG002
        return bool(self._free_slots)

    # -- lifecycle ---------------------------------------------------------

    def _spawn_argv(self, task: ExecutorTask, slot: int | str) -> list[str]:
        """The concrete argv for *task* (hook for host wrapping)."""
        del slot
        return list(task.argv)

    def _take_slot(self, task: ExecutorTask) -> int | str:
        return self._free_slots.pop(0)

    def submit(self, task: ExecutorTask) -> TaskHandle:
        if self._closed:
            raise RuntimeError("executor is closed")
        if task.task_id in self._live:
            raise ValueError(f"task {task.task_id!r} is already running")
        if not self.has_capacity(task):
            raise RuntimeError("no free executor slot")
        slot = self._take_slot(task)
        argv = self._spawn_argv(task, slot)
        stderr = subprocess.DEVNULL
        log_fp = None
        if task.log_path is not None:
            log_path = Path(task.log_path)
            log_path.parent.mkdir(parents=True, exist_ok=True)
            log_fp = open(log_path, "ab")
            stderr = log_fp
        try:
            proc = subprocess.Popen(
                argv,
                env=task.env,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                cwd=task.cwd,
            )
        except Exception:
            self._free_slots.append(slot)
            self._sort_free()
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

    def _sort_free(self) -> None:
        try:
            self._free_slots.sort()
        except TypeError:  # mixed named/indexed slots — keep FIFO order
            pass

    def _reap(self, live: _Live, returncode: int) -> TaskExit:
        """Retire a finished task and free its slot."""
        del self._live[live.task_id]
        self._free_slots.append(live.slot)
        self._sort_free()
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
        """Stop everything: SIGTERM at once, SIGKILL after the grace window.

        Identical escalation to the pre-refactor supervisor's drain; the
        caller decides per exit whether the task's work survives (result
        adoption) or is requeued.
        """
        for live in self._live.values():
            if not live.termed:
                live.proc.terminate()
                live.termed = True
        kill_deadline = time.monotonic() + self.grace
        exits: list[TaskExit] = []
        while self._live:
            now = time.monotonic()
            for task_id in list(self._live):
                live = self._live[task_id]
                rc = live.proc.poll()
                if rc is None:
                    if now >= kill_deadline and not live.killed:
                        live.proc.kill()
                        live.killed = True
                    continue
                exits.append(self._reap(live, rc))
            if self._live:
                time.sleep(POLL_INTERVAL)
        return exits

    def close(self) -> None:
        if self._live:
            self.drain()
        self._closed = True


def child_env(fault_handshake: bool = False) -> dict[str, str]:
    """Environment for a runtime child process (a worker or a shard batch).

    The parent's environment with this package's source root first on
    ``PYTHONPATH``.  With *fault_handshake* (worker spawns) the armed
    fault table is handed over: non-``worker.*`` faults are copied into
    ``REPRO_FAULTS`` so in-worker fault points fire end to end, while
    the ``worker.*`` family is *consumed here*, one probe per spawn — a
    firing probe dooms exactly the worker being spawned, which keeps
    ``times=N`` accounting in one process even across retries.
    """
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    if not fault_handshake:
        return env
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


# ----------------------------------------------------------------------
# sharded execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HostSpec:
    """One host of a sweep fleet.

    Without a *template* the task argv runs as a plain local subprocess
    (the "subprocess per host" mode every test and the CI drill use).
    With one, the template tokens are executed instead, with the
    ``{cmd}`` token replaced by the task argv — e.g. ``ssh hostA {cmd}``
    prepends an ssh hop.  A template without ``{cmd}`` has the argv
    appended.
    """

    name: str
    template: tuple[str, ...] | None = None

    def wrap(self, argv: list[str]) -> list[str]:
        if not self.template:
            return list(argv)
        wrapped: list[str] = []
        spliced = False
        for token in self.template:
            if token == "{cmd}":
                wrapped.extend(argv)
                spliced = True
            else:
                wrapped.append(token)
        if not spliced:
            wrapped.extend(argv)
        return wrapped


def parse_hosts(
    value: str | None = None, default_shards: int = 2
) -> list[HostSpec]:
    """The sweep fleet from ``$REPRO_SWEEP_HOSTS`` (or *value*).

    Entries are ``;``-separated (templates contain spaces and commas):
    a bare ``name`` runs shards as local subprocesses, ``name=ssh node7
    {cmd}`` runs them through the given command template.  Unset or
    empty, the fleet defaults to *default_shards* local pseudo-hosts
    named ``h0..hN`` — multi-host semantics, one machine.
    """
    if value is None:
        value = os.environ.get(HOSTS_ENV_VAR, "")
    entries = [entry.strip() for entry in value.split(";") if entry.strip()]
    if not entries:
        return [HostSpec(f"h{i}") for i in range(max(1, default_shards))]
    hosts: list[HostSpec] = []
    seen: set[str] = set()
    for entry in entries:
        name, _, template = entry.partition("=")
        name = name.strip()
        if not name or "/" in name or name != Path(name).name:
            raise ValueError(f"invalid sweep host name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate sweep host {name!r}")
        seen.add(name)
        tokens = tuple(template.split()) if template.strip() else None
        hosts.append(HostSpec(name=name, template=tokens))
    return hosts


class ShardExecutor(LocalExecutor):
    """Runs one task per host slot, through each host's command template.

    The slots are the host *names*; a task with ``host`` set is pinned
    to that slot (a sweep shard must land on the host that owns its
    journal shard), an unpinned task takes any free host.  Everything
    else — watchdog, drain, exits — is inherited.
    """

    def __init__(self, hosts: list[HostSpec], grace: float = 5.0,
                 startup_margin: float = 1.0) -> None:
        if not hosts:
            raise ValueError("ShardExecutor needs at least one host")
        super().__init__(num_workers=len(hosts), grace=grace,
                         startup_margin=startup_margin)
        self.hosts = {host.name: host for host in hosts}
        if len(self.hosts) != len(hosts):
            raise ValueError("duplicate host names in sweep fleet")
        self._free_slots = [host.name for host in hosts]

    def has_capacity(self, task: ExecutorTask) -> bool:
        if task.host is not None:
            return task.host in self._free_slots
        return bool(self._free_slots)

    def _take_slot(self, task: ExecutorTask) -> int | str:
        if task.host is not None:
            if task.host not in self.hosts:
                raise ValueError(f"unknown sweep host {task.host!r}")
            self._free_slots.remove(task.host)
            return task.host
        return self._free_slots.pop(0)

    def _spawn_argv(self, task: ExecutorTask, slot: int | str) -> list[str]:
        return self.hosts[str(slot)].wrap(list(task.argv))
