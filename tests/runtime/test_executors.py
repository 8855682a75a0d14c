"""Unit tests for the pluggable executor layer.

These drive :class:`LocalExecutor` and :class:`ShardExecutor` with plain
shell-level subprocesses (``sleep``, ``true``), independent of the
optimization worker — the executor contract (slot accounting, watchdog
escalation, drain, host pinning) must hold for any process-shaped task.
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
    HostSpec,
    LocalExecutor,
    ShardExecutor,
    TaskExit,
    handle_signals,
    parse_hosts,
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


class TestLocalExecutor:
    def test_capacity_and_slot_reuse(self, tmp_path):
        executor = LocalExecutor(num_workers=2)
        try:
            a = executor.submit(sleeper("a", 0))
            b = executor.submit(sleeper("b", 0))
            # Historic fork-pool discipline: lowest free slot first.
            assert (a.slot, b.slot) == (0, 1)
            assert not executor.has_capacity(sleeper("c", 0))
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


class TestShardExecutor:
    def test_host_pinning(self):
        hosts = parse_hosts("h0;h1")
        executor = ShardExecutor(hosts)
        try:
            pinned = sleeper("s1", 0, host="h1")
            assert executor.has_capacity(pinned)
            handle = executor.submit(pinned)
            assert handle.slot == "h1"
            # h1 is busy: another h1-pinned task must wait, h0 is free.
            assert not executor.has_capacity(sleeper("s2", 0, host="h1"))
            assert executor.has_capacity(sleeper("s3", 0, host="h0"))
            (task_exit,) = wait_exits(executor, 1)
            assert task_exit.slot == "h1"
        finally:
            executor.close()

    def test_unknown_host_is_rejected(self):
        executor = ShardExecutor(parse_hosts("h0"))
        try:
            # An unknown host never has capacity, so submit refuses it.
            assert not executor.has_capacity(sleeper("bad", 0, host="h9"))
            with pytest.raises((ValueError, RuntimeError)):
                executor.submit(sleeper("bad", 0, host="h9"))
        finally:
            executor.close()

    def test_template_wraps_the_command(self, tmp_path):
        marker = tmp_path / "wrapped"
        # A template that records its invocation proves the argv splice.
        hosts = [HostSpec("h0", template=(
            sys.executable, "-c",
            "import subprocess, sys, pathlib; "
            f"pathlib.Path({str(marker)!r}).write_text('ran'); "
            "sys.exit(subprocess.call(sys.argv[1:]))",
            "{cmd}",
        ))]
        executor = ShardExecutor(hosts)
        try:
            executor.submit(ExecutorTask(
                task_id="t",
                argv=(sys.executable, "-c", "pass"),
                host="h0",
            ))
            (task_exit,) = wait_exits(executor, 1)
            assert task_exit.returncode == 0
        finally:
            executor.close()
        assert marker.read_text(encoding="utf-8") == "ran"


class TestSupervisorIntegration:
    def test_supervisor_accepts_an_injected_executor(self, tmp_path):
        """An explicitly owned executor is reused and left open."""
        from repro.runtime.jobs import JobSpec
        from repro.runtime.supervisor import Supervisor

        executor = LocalExecutor(num_workers=1)
        try:
            supervisor = Supervisor(
                tmp_path / "batch", num_workers=1, backoff_base=0.05,
                executor=executor,
            )
            spec = JobSpec(
                job_id="fa",
                network={"generate": "adder", "width": 6},
                script=("BF",),
                verify="sim",
                time_limit=60.0,
            )
            report = supervisor.run([spec])
            assert report.done == 1
            # Still usable: the supervisor must not have closed it.
            executor.submit(sleeper("post", 0))
            wait_exits(executor, 1)
        finally:
            executor.close()


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
