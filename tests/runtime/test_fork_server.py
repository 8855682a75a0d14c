"""Contract tests for the fork server every runtime worker starts from.

:class:`~repro.runtime.executors.ForkServer` forks each task from one
pre-imported process instead of starting a fresh interpreter; every
:class:`~repro.runtime.executors.LocalExecutor` owns one.  These tests
pin what that must not change: exit codes as ``Popen`` reports them,
each child's stdio, cwd and environment, fault isolation between tasks,
the server's death mid-task, its owner's death and the orphan check,
and a lazy start.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.runtime import executors
from repro.runtime.executors import (
    ExecutorTask,
    LocalExecutor,
    child_env,
    kill_if_worker,
)
from repro.runtime.jobs import JobSpec

from .test_executors import wait_exits

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="the fork server and its /proc checks assume Linux",
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: seconds any single wait in this module may take
TIMEOUT = 30.0


def names_worker(pid: int) -> bool:
    """``/proc`` shows *pid* running our worker module (not gone, not a zombie)."""
    try:
        return b"repro.runtime.worker" in Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False


def wait_until(predicate, what: str) -> None:
    deadline = time.monotonic() + TIMEOUT
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


def worker_argv(tmp_path: Path, name: str, spec: JobSpec | None = None) -> tuple:
    """A worker's argv; writes *spec* (when given) to its spec path."""
    spec_path = tmp_path / f"{name}.spec.json"
    if spec is not None:
        spec_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    return (sys.executable, "-m", "repro.runtime.worker",
            str(spec_path), str(tmp_path / f"{name}.result.json"))


def adder_spec(job_id: str) -> JobSpec:
    return JobSpec(job_id=job_id, network={"generate": "adder", "width": 3},
                   script=("BF",), verify="sim")


def faulted_env(fault: str) -> dict[str, str]:
    env = child_env()
    env["REPRO_FAULTS"] = fault
    return env


def run_all(tasks: list[ExecutorTask], **kwargs) -> dict[str, int]:
    """Run *tasks* side by side on one executor; task id -> return code."""
    executor = LocalExecutor(num_workers=len(tasks), **kwargs)
    try:
        for task in tasks:
            executor.submit(task)
        return {e.task_id: e.returncode for e in wait_exits(executor, len(tasks))}
    finally:
        executor.close()


class TestExitCodes:
    def test_execd_exit_codes_match_popen(self):
        codes = {
            "zero": "pass",
            "exit3": "import sys; sys.exit(3)",
            "crash": "import os; os._exit(77)",
            "term": "import os, signal; os.kill(os.getpid(), signal.SIGTERM)",
            "kill": "import os, signal; os.kill(os.getpid(), signal.SIGKILL)",
        }
        forked = run_all([
            ExecutorTask(name, (sys.executable, "-c", code))
            for name, code in codes.items()
        ])
        cold = {
            name: subprocess.run([sys.executable, "-c", code], timeout=TIMEOUT).returncode
            for name, code in codes.items()
        }
        assert forked == cold == {
            "zero": 0, "exit3": 3, "crash": 77,
            "term": -signal.SIGTERM, "kill": -signal.SIGKILL,
        }

    def test_in_process_worker_exit_codes_match_a_cold_worker(self, tmp_path):
        cases = {
            "ok": (worker_argv(tmp_path, "ok", adder_spec("ok")), child_env()),
            # worker.crash: os._exit(77) without a result artifact
            "crash": (worker_argv(tmp_path, "crash", adder_spec("crash")),
                      faulted_env("worker.crash")),
            # an unhandled exception (no spec file): traceback, exit 1
            "missing": (worker_argv(tmp_path, "missing"), child_env()),
            # the usage error
            "usage": (worker_argv(tmp_path, "usage")[:4], child_env()),
        }
        forked = run_all([
            ExecutorTask(name, argv, env=env) for name, (argv, env) in cases.items()
        ])
        cold = {
            name: subprocess.run(argv, env=env, stderr=subprocess.DEVNULL,
                                 timeout=TIMEOUT).returncode
            for name, (argv, env) in cases.items()
        }
        assert forked == cold == {"ok": 0, "crash": 77, "missing": 1, "usage": 2}

    def test_sigkill_of_an_in_process_worker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(executors, "STARTUP_MARGIN", 0.0)
        executor = LocalExecutor(num_workers=1, grace=0.2)
        try:
            executor.submit(ExecutorTask(
                "hang", worker_argv(tmp_path, "hang", adder_spec("hang")),
                env=faulted_env("worker.hang"), time_limit=0.2,
            ))
            (task_exit,) = wait_exits(executor, 1, timeout=TIMEOUT)
        finally:
            executor.close()
        assert task_exit.termed and task_exit.killed
        assert task_exit.returncode == -signal.SIGKILL


class TestTaskSetup:
    def test_execd_child_gets_env_cwd_log_and_null_stdout(self, tmp_path):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        log = tmp_path / "logs" / "probe.log"
        env = dict(os.environ, PROBE="from-the-task")
        code = ("import os, sys; print(os.getcwd(), os.environ['PROBE'], "
                "os.readlink('/proc/self/fd/1'), file=sys.stderr)")
        assert run_all([ExecutorTask(
            "probe", (sys.executable, "-c", code), env=env, cwd=str(cwd),
            log_path=str(log),
        )]) == {"probe": 0}
        assert log.read_text(encoding="utf-8").split() == [
            str(cwd), "from-the-task", os.devnull,
        ]

    def test_in_process_worker_gets_cwd_log_and_only_stdio(self, tmp_path):
        # Relative spec and result paths resolve only in the task's cwd.
        (tmp_path / "rel.json").write_text(
            json.dumps(adder_spec("rel").to_dict()), encoding="utf-8")
        log = tmp_path / "worker.log"
        executor = LocalExecutor(num_workers=1, grace=0.2)
        try:
            handle = executor.submit(ExecutorTask(
                "rel", (sys.executable, "-m", "repro.runtime.worker",
                        "rel.json", "rel.result.json"),
                env=faulted_env("worker.hang"), cwd=str(tmp_path),
                log_path=str(log),
            ))
            fd_dir = Path(f"/proc/{handle.pid}/fd")
            wait_until(lambda: os.readlink(f"/proc/{handle.pid}/cwd") == str(tmp_path),
                       "the child's chdir")
            targets = {int(fd.name): os.readlink(fd) for fd in fd_dir.iterdir()}
            executor.drain()
        finally:
            executor.close()
        assert targets[0] == targets[1] == os.devnull
        assert targets[2] == str(log)
        # Nothing of the server's survives in the child: no control
        # channel, no other task's channel, no wake-up pipe.
        inherited = [t for t in targets.values() if t.startswith(("socket:", "pipe:"))]
        assert inherited == []

    def test_in_process_worker_traceback_reaches_the_task_log(self, tmp_path):
        log = tmp_path / "missing.log"
        assert run_all([ExecutorTask(
            "missing", worker_argv(tmp_path, "missing"), env=child_env(),
            log_path=str(log),
        )]) == {"missing": 1}
        text = log.read_text(encoding="utf-8")
        assert "Traceback" in text and "FileNotFoundError" in text


class TestFaultIsolation:
    def test_a_crash_fault_arms_only_its_own_child(self, tmp_path):
        executor = LocalExecutor(num_workers=2)
        try:
            for name, env in (("crash", faulted_env("worker.crash")),
                              ("clean", child_env())):
                executor.submit(ExecutorTask(
                    name, worker_argv(tmp_path, name, adder_spec(name)), env=env))
            server = executor.fork_server.pid
            codes = {e.task_id: e.returncode for e in wait_exits(executor, 2)}
            assert codes == {"crash": 77, "clean": 0}
            # The server itself never armed the fault.
            executor.submit(ExecutorTask(
                "after", worker_argv(tmp_path, "after", adder_spec("after")),
                env=child_env(),
            ))
            assert executor.fork_server.pid == server
            (task_exit,) = wait_exits(executor, 1)
            assert task_exit.returncode == 0
        finally:
            executor.close()
        assert not (tmp_path / "crash.result.json").exists()
        for name in ("clean", "after"):
            result = json.loads((tmp_path / f"{name}.result.json").read_text())
            assert result["status"] == "ok"


class TestServerDeath:
    def test_server_killed_mid_task_reports_killed_and_restarts(self, tmp_path):
        executor = LocalExecutor(num_workers=1)
        handle = None
        try:
            handle = executor.submit(ExecutorTask(
                "hang", worker_argv(tmp_path, "hang", adder_spec("hang")),
                env=faulted_env("worker.hang"),
            ))
            first_server = executor.fork_server.pid
            os.kill(first_server, signal.SIGKILL)
            (task_exit,) = wait_exits(executor, 1, timeout=TIMEOUT)
            assert task_exit.returncode == -signal.SIGKILL
            wait_until(lambda: not names_worker(handle.pid), "the orphan's SIGKILL")

            executor.submit(ExecutorTask(
                "next", worker_argv(tmp_path, "next", adder_spec("next")),
                env=child_env(),
            ))
            assert executor.fork_server.pid not in (None, first_server)
            (task_exit,) = wait_exits(executor, 1, timeout=TIMEOUT)
            assert task_exit.returncode == 0
        finally:
            executor.close()
            if handle is not None and names_worker(handle.pid):
                os.kill(handle.pid, signal.SIGKILL)

    def test_owner_death_ends_the_server_and_leaves_the_orphan(self, tmp_path):
        owner_code = textwrap.dedent(f"""
            import json, sys, time
            from repro.runtime.executors import ExecutorTask, LocalExecutor
            executor = LocalExecutor()
            handle = executor.submit(ExecutorTask(
                "hang", tuple(json.loads(sys.argv[1])), env=json.loads(sys.argv[2])))
            print(json.dumps([executor.fork_server.pid, handle.pid]), flush=True)
            time.sleep({TIMEOUT * 4})
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        owner = subprocess.Popen(
            [sys.executable, "-c", owner_code,
             json.dumps(worker_argv(tmp_path, "hang", adder_spec("hang"))),
             json.dumps(faulted_env("worker.hang"))],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        child = None
        try:
            server, child = json.loads(owner.stdout.readline())
            assert names_worker(server) and names_worker(child)
            owner.kill()
            owner.wait(timeout=TIMEOUT)
            wait_until(lambda: not names_worker(server), "the server's exit")
            # The orphan runs on, as a cold worker outlives its supervisor...
            time.sleep(0.2)
            assert names_worker(child)
            # ...until a resumed supervisor's orphan check kills it.
            kill_if_worker(child)
            wait_until(lambda: not names_worker(child), "the orphan's SIGKILL")
        finally:
            if owner.poll() is None:
                owner.kill()
                owner.wait(timeout=TIMEOUT)
            owner.stdout.close()
            if child is not None and names_worker(child):
                os.kill(child, signal.SIGKILL)


def test_nothing_starts_before_the_first_spawn(tmp_path):
    """Importing the executors, building an executor or a service, and
    starting the daemon start no process."""
    code = textwrap.dedent("""
        import os, sys
        from pathlib import Path

        def children():
            me = str(os.getpid())
            found = []
            for entry in Path("/proc").iterdir():
                try:
                    stat = (entry / "stat").read_text()
                except OSError:
                    continue
                if entry.name.isdigit() and stat.rsplit(")", 1)[1].split()[1] == me:
                    found.append(entry.name)
            return found

        from repro.runtime.executors import LocalExecutor
        seen = children()
        executor = LocalExecutor()
        seen += children()
        from repro.runtime.serve import OptimizationService, ServeDaemon
        service = OptimizationService(sys.argv[1])
        seen += children()
        daemon = ServeDaemon(service)
        daemon.start()
        seen += children()
        daemon.stop()
        print(seen, executor.fork_server.pid)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "serve")],
        env=env, capture_output=True, text=True, timeout=TIMEOUT * 2,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "None"]
