"""Unit tests for the executor layer, the one process pool.

These drive :class:`LocalExecutor` with plain Python subprocesses,
independent of the optimization worker — the executor contract (slot
accounting, watchdog escalation, drain) must hold for any
process-shaped task.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import pytest

from repro.runtime.executors import (
    ExecutorTask,
    LocalExecutor,
    TaskExit,
    handle_signals,
)

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="executor process-group and watchdog semantics assume POSIX",
)


def wait_exits(executor, count: int, timeout: float = 30.0) -> list[TaskExit]:
    exits: list[TaskExit] = []
    deadline = time.monotonic() + timeout
    while len(exits) < count and time.monotonic() < deadline:
        exits.extend(executor.poll())
        time.sleep(0.01)
    assert len(exits) == count, f"expected {count} exits, saw {exits}"
    return exits


def sleeper(task_id: str, seconds: float, **kwargs) -> ExecutorTask:
    return ExecutorTask(
        task_id=task_id,
        argv=(sys.executable, "-c", f"import time; time.sleep({seconds})"),
        **kwargs,
    )


def stubborn(task_id: str, tmp_path, **kwargs):
    """A task that survives SIGTERM, noting each one in a ``termed`` file.

    Returns the task and its ``ready`` and ``termed`` paths; the child
    writes ``ready`` only once its SIGTERM handler is installed.
    """
    ready, termed = tmp_path / f"{task_id}.ready", tmp_path / f"{task_id}.termed"
    code = (
        "import pathlib, signal, sys, time\n"
        "termed = pathlib.Path(sys.argv[2])\n"
        "signal.signal(signal.SIGTERM, lambda *_: termed.write_text('termed'))\n"
        "pathlib.Path(sys.argv[1]).write_text('ready')\n"
        "while True:\n"
        "    time.sleep(0.01)\n"
    )
    task = ExecutorTask(
        task_id=task_id,
        argv=(sys.executable, "-c", code, str(ready), str(termed)),
        **kwargs,
    )
    return task, ready, termed


def poll_until(executor, path, timeout: float = 30.0) -> None:
    """Poll *executor* (which runs its watchdog) until *path* exists."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        assert not executor.poll(), "the task exited early"
        time.sleep(0.01)


class TestLocalExecutor:
    def test_capacity_and_slot_reuse(self, tmp_path):
        executor = LocalExecutor(num_workers=2)
        try:
            a = executor.submit(sleeper("a", 0))
            b = executor.submit(sleeper("b", 0))
            # Historic fork-pool discipline: lowest free slot first.
            assert (a.slot, b.slot) == (0, 1)
            assert not executor.has_capacity()
            exits = wait_exits(executor, 2)
            assert {e.task_id for e in exits} == {"a", "b"}
            assert all(e.returncode == 0 for e in exits)
            # Freed slots are handed out lowest-first again.
            c = executor.submit(sleeper("c", 0))
            assert c.slot == 0
            wait_exits(executor, 1)
        finally:
            executor.close()

    def test_watchdog_escalates_overrunning_tasks(self):
        executor = LocalExecutor(num_workers=1, grace=0.5, startup_margin=0.0)
        try:
            executor.submit(sleeper("hog", 60, time_limit=0.2))
            (task_exit,) = wait_exits(executor, 1, timeout=20.0)
            assert task_exit.task_id == "hog"
            assert task_exit.termed
            assert task_exit.returncode != 0
        finally:
            executor.close()

    def test_drain_reaps_everything(self):
        executor = LocalExecutor(num_workers=2, grace=0.5)
        try:
            executor.submit(sleeper("x", 60))
            executor.submit(sleeper("y", 60))
            exits = executor.drain()
            assert {e.task_id for e in exits} == {"x", "y"}
            assert all(e.termed for e in exits)
            assert executor.running_count == 0
            # The pool is reusable after a drain.
            executor.submit(sleeper("z", 0))
            wait_exits(executor, 1)
        finally:
            executor.close()

    def test_drain_kills_a_task_that_ignores_sigterm_after_grace(self, tmp_path):
        grace = 0.5
        executor = LocalExecutor(num_workers=1, grace=grace)
        try:
            task, ready, _ = stubborn("stubborn", tmp_path)
            executor.submit(task)
            poll_until(executor, ready)
            began = time.monotonic()
            (task_exit,) = executor.drain()
            elapsed = time.monotonic() - began
        finally:
            executor.close()
        assert task_exit.termed and task_exit.killed
        assert task_exit.returncode == -signal.SIGKILL
        assert elapsed >= grace

    def test_drain_keeps_the_watchdogs_kill_instant(self, tmp_path):
        """A task the watchdog already SIGTERMed dies at its own SIGKILL
        instant when a drain lands, not a full grace after the drain."""
        grace = 3.0
        executor = LocalExecutor(num_workers=1, grace=grace, startup_margin=0.0)
        try:
            task, ready, termed = stubborn("hog", tmp_path, time_limit=0.2)
            executor.submit(task)
            poll_until(executor, ready)
            poll_until(executor, termed)  # the watchdog's SIGTERM landed
            termed_at = time.monotonic()
            time.sleep(1.5)
            (task_exit,) = executor.drain()
            drained_at = time.monotonic()
        finally:
            executor.close()
        assert task_exit.termed and task_exit.killed
        # Killed about grace after the watchdog's SIGTERM: well before
        # grace after the drain began (1.5 s after that SIGTERM).
        assert grace - 0.5 < drained_at - termed_at < grace + 1.0

    def test_task_log_is_captured(self, tmp_path):
        log = tmp_path / "task.log"
        executor = LocalExecutor(num_workers=1)
        try:
            executor.submit(ExecutorTask(
                task_id="echo",
                argv=(sys.executable, "-c",
                      "import sys; print('hello from task', file=sys.stderr)"),
                log_path=str(log),
            ))
            wait_exits(executor, 1)
        finally:
            executor.close()
        assert "hello from task" in log.read_text(encoding="utf-8")


class TestHandleSignals:
    def test_handler_is_installed_then_the_previous_one_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        seen = []
        with handle_signals(lambda signum, frame: seen.append(signum)):
            os.kill(os.getpid(), signal.SIGTERM)
            deadline = time.monotonic() + 5.0
            while not seen and time.monotonic() < deadline:
                time.sleep(0.01)
        assert seen == [signal.SIGTERM]
        assert signal.getsignal(signal.SIGTERM) is before

    def test_off_the_main_thread_it_leaves_handlers_alone(self):
        before = signal.getsignal(signal.SIGINT)
        entered = []

        def body():
            with handle_signals(signal.SIG_IGN):
                entered.append(signal.getsignal(signal.SIGINT))

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert entered == [before]
        assert signal.getsignal(signal.SIGINT) is before
