"""Worker subprocess entry point: ``python -m repro.runtime.worker``.

One worker runs exactly one :class:`~repro.runtime.jobs.JobSpec` and
exits.  The process boundary is the isolation unit the in-process
runtime cannot provide: a CDCL run that ignores its poll points, a
memory blowup, or a hard crash takes down *this* process only — the
supervisor's watchdog and rlimits contain it.

The runtime forks its workers from a fork server
(:class:`~repro.runtime.executors.ForkServer`), which is this module run
as ``--fork-server FD`` (:func:`serve_forks`): each forked child runs
:func:`main` on its own ``SPEC_PATH RESULT_PATH``, as if started cold.
Started on its own, the worker runs the same way.

Protocol (see :mod:`repro.runtime.supervisor` for the other side):

* argv: ``worker SPEC_PATH RESULT_PATH`` — the spec is a JSON file
  written atomically by the supervisor; the result is written atomically
  by the worker (so a kill at any instant leaves either no result or a
  complete one, never a torn file);
* env: ``REPRO_FAULTS`` arms :mod:`repro.runtime.faults` in the child so
  fault-injection tests exercise the supervised path end-to-end;
* exit code 0 means "a result artifact was written" — its ``status``
  field says whether the job succeeded (``ok``) or failed in a
  controlled way (``failed``, with the traceback captured).  Any other
  exit (nonzero, signal) means "no trustworthy result": the supervisor
  treats it as a crash.

The worker applies its own safety rails before touching the job: the
address-space rlimit from the spec, and an in-process
:class:`~repro.runtime.budget.Budget` built from the spec's limits so a
healthy job exits politely well before the supervisor's hard watchdog
(SIGTERM → grace → SIGKILL) has to fire.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import select
import signal
import socket
import sys
import time
import traceback as traceback_module
from typing import NoReturn

from .artifacts import atomic_write_text
from .budget import Budget
from .executors import WORKER_MODULE, handle_signals
from .faults import arm_from_env, fault_active
from .jobs import JobSpec, append_record, load_network, open_log
from .metrics import PassMetrics

__all__ = ["run_job", "serve_forks", "main"]

#: exit code for the injected hard-crash fault (any nonzero would do;
#: a distinctive value makes supervisor logs readable)
CRASH_EXIT_CODE = 77


def _set_memory_limit(mem_limit_mb: int) -> None:
    """Cap the worker's address space (best effort; Linux/macOS only)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return
    limit = mem_limit_mb * 1024 * 1024
    try:
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError):
        pass


def _rusage_dict() -> dict | None:
    """Self rusage snapshot for the result artifact (None off-POSIX)."""
    try:
        import resource
    except ImportError:
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "utime": usage.ru_utime,
        "stime": usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def _open_progress(spec: JobSpec):
    """Per-step progress appender for ``spec.progress`` (None when unset).

    Each record is one fsynced JSON line, so the serving tier's poll
    endpoint reads a prefix of complete events plus at most one torn
    tail (the journal discipline applied to a progress feed).  Any
    failure to report progress is swallowed: observability must never
    fail the job it observes.
    """
    if spec.progress is None:
        return None
    try:
        fp = open_log(spec.progress)
    except OSError:
        return None

    def append(record: dict) -> None:
        try:
            append_record(fp, {**record, "ts": time.time()})
        except (OSError, ValueError, TypeError):
            pass

    return append


def _run_db_improve_job(spec: JobSpec, start: float) -> dict:
    """One NPN class of SAT-phase database improvement (``db-improve``).

    The payload carries the class representative and the current entry
    (JSONL line); the result carries the improved entry the same way.
    The heavy lifting is :func:`repro.database.generate.improve_class` —
    the exact function the serial path runs, so the database content is
    identical whether or not it was produced under supervision.
    """
    from ..database.generate import improve_class
    from ..database.npn_db import entry_from_json, entry_to_json

    payload = spec.payload or {}
    try:
        rep = int(payload["rep"])
        num_vars = int(payload["num_vars"])
        entry = entry_from_json(payload["entry"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed db-improve payload: {exc}") from exc
    # The SAT budget rides in spec.conflict_limit so the supervisor's
    # retry-with-degradation ladder can actually degrade it; the payload
    # copy is only a fallback for hand-built specs.
    budget = spec.conflict_limit
    if budget is None and payload.get("budget") is not None:
        budget = int(payload["budget"])

    deadline = None
    if spec.time_limit is not None:
        # Leave the watchdog's grace window to write the result artifact.
        deadline = time.monotonic() + max(0.5, spec.time_limit - 0.5)

    new_entry, conflicts = improve_class(
        rep, entry, num_vars, budget, deadline, sat_backend=spec.sat_backend
    )
    if new_entry.to_mig().simulate()[0] != rep:
        raise AssertionError(f"db-improve produced wrong function for 0x{rep:x}")
    return {
        "job_id": spec.job_id,
        "status": "ok",
        "rep": rep,
        "entry": entry_to_json(new_entry),
        "size_before": entry.size,
        "size_after": new_entry.size,
        "proven": new_entry.proven,
        "conflicts": conflicts,
        "runtime": round(time.perf_counter() - start, 6),
        "rusage": _rusage_dict(),
        "pid": os.getpid(),
    }


def _step_record(stats) -> dict:
    """One flow step as the result artifact and the progress feed show it."""
    return {
        "step": stats.step,
        "status": stats.status,
        "verified": stats.verified,
        "runtime": round(stats.runtime, 6),
        "size_after": stats.size_after,
        "depth_after": stats.depth_after,
    }


def run_job(spec: JobSpec) -> dict:
    """Execute one job in-process and return the result payload.

    Factored out of :func:`main` so tests can exercise the job semantics
    without a subprocess; the supervised path adds the isolation around
    exactly this function.
    """
    from ..opt.flow import needs_database, optimize_until_convergence, run_flow
    from ..rewriting.dynamic_db import open_database

    start = time.perf_counter()

    if spec.mode == "db-improve":
        return _run_db_improve_job(spec, start)

    mig = load_network(spec.network)

    progress = _open_progress(spec)
    if progress is not None:
        progress(
            {
                "event": "start",
                "size_before": mig.num_gates,
                "depth_before": mig.depth(),
                "total_steps": len(spec.script) if spec.mode == "flow" else None,
            }
        )

    db = store = None
    if spec.mode == "converge" or needs_database(spec.script):
        # The large-cut tiers share the persistent store the spec names.
        db = open_database(spec.cut_size, spec.db, spec.npn_store)
        store = getattr(db, "store", None)

    budget = None
    if spec.time_limit is not None or spec.conflict_limit is not None:
        budget = Budget.from_limits(
            time_limit=spec.time_limit, conflict_limit=spec.conflict_limit
        )

    metrics = PassMetrics()
    steps_payload: list[dict] = []
    if spec.mode == "converge":
        result, passes = optimize_until_convergence(
            mig,
            db,
            variant=spec.variant,
            max_passes=spec.max_passes,
            budget=budget,
            verify=spec.verify,
            on_error="rollback",
            metrics=metrics,
            cut_limit=spec.cut_limit,
            cut_size=spec.cut_size,
            sat_backend=spec.sat_backend,
        )
        steps_payload.append({"step": spec.variant, "status": "ok", "passes": passes})
        if progress is not None:
            progress({
                "event": "step", **steps_payload[-1],
                "size_after": result.num_gates, "depth_after": result.depth(),
            })
    elif spec.mode == "flow":
        on_step = None
        if progress is not None:
            def on_step(stats):
                progress({"event": "step", **_step_record(stats)})

        result, history = run_flow(
            mig,
            db,
            list(spec.script),
            budget=budget,
            verify=spec.verify,
            on_error="rollback",
            cut_limit=spec.cut_limit,
            cut_size=spec.cut_size,
            on_step=on_step,
            sat_backend=spec.sat_backend,
        )
        for stats in history:
            entry = _step_record(stats)
            if stats.error is not None:
                entry["error"] = stats.error
            if stats.metrics is not None:
                metrics.merge(stats.metrics)
            steps_payload.append(entry)
    else:
        raise ValueError(
            f"unknown job mode {spec.mode!r}; use 'flow', 'converge' or 'db-improve'"
        )

    if spec.output is not None:
        import io as io_module
        from pathlib import Path

        from ..io.blif import write_blif

        buf = io_module.StringIO()
        write_blif(result, buf)
        Path(spec.output).parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(spec.output, buf.getvalue())

    payload = {
        "job_id": spec.job_id,
        "status": "ok",
        "size_before": mig.num_gates,
        "depth_before": mig.depth(),
        "size_after": result.num_gates,
        "depth_after": result.depth(),
        "runtime": round(time.perf_counter() - start, 6),
        "verify": spec.verify,
        "steps": steps_payload,
        "metrics": metrics.to_dict(),
        "output": spec.output,
        "rusage": _rusage_dict(),
        "pid": os.getpid(),
    }
    if store is not None:
        payload["npn_store"] = store.stats()
        store.close()
    return payload


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--fork-server":
        serve_forks(int(argv[1]))
        return 0
    if len(argv) != 2:
        print("usage: python -m repro.runtime.worker SPEC_PATH RESULT_PATH",
              file=sys.stderr)
        return 2
    spec_path, result_path = argv

    arm_from_env()

    with open(spec_path, "r", encoding="utf-8") as fp:
        spec = JobSpec.from_dict(json.load(fp))

    if spec.mem_limit_mb is not None:
        _set_memory_limit(spec.mem_limit_mb)

    if fault_active("worker.hang"):
        # Model a worker stuck in native code that ignores every deadline
        # *and* SIGTERM — only the supervisor's SIGKILL escalation ends it.
        with handle_signals(signal.SIG_IGN, (signal.SIGTERM,)):
            while True:
                pass

    if fault_active("worker.crash"):
        # Model a segfault: vanish without a result artifact.
        os._exit(CRASH_EXIT_CODE)

    try:
        payload = run_job(spec)
    except BaseException as exc:  # noqa: BLE001 - process boundary
        payload = {
            "job_id": spec.job_id,
            "status": "failed",
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback_module.format_exc(),
            "rusage": _rusage_dict(),
            "pid": os.getpid(),
        }
    atomic_write_text(result_path, json.dumps(payload, sort_keys=True) + "\n")
    return 0


#: what the fork server imports besides this module before its first
#: fork: the flow and its databases, the generators and the readers
PRELOAD = (
    "repro.opt.flow",
    "repro.rewriting.dynamic_db",
    "repro.database.generate",
    "repro.database.store",
    "repro.generators",
    "repro.io.blif",
    "repro.io.bench",
    "repro.io.aiger",
)

#: largest spawn request (argv, environment, cwd) in bytes
_MAX_REQUEST = 1 << 18


def serve_forks(control_fd: int) -> None:
    """The fork server's loop: ``python -m repro.runtime.worker --fork-server FD``.

    The owner's side is :class:`~repro.runtime.executors.ForkServer`.
    Returns once the owner closes the control channel (or dies).  Each
    forked child runs :func:`main` on its own argv and exits with its
    result; it never returns here.  Children are reaped as SIGCHLD wakes
    the loop; a child that outlives the server is left running.
    """
    # A terminal's Ctrl-C reaches the whole process group; the owner's
    # drain, not the server, decides what happens to the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for name in PRELOAD:
        try:
            importlib.import_module(name)
        except Exception:  # noqa: BLE001 - each child fails on it, as a cold worker would
            pass
    # The preloaded objects stay out of every child's collections: the
    # child neither scans them nor copies their pages by touching them.
    gc.freeze()
    control = socket.socket(fileno=control_fd)
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_r, False)
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w, warn_on_full_buffer=False)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    channels: dict[int, socket.socket] = {}
    while True:
        readable, _, _ = select.select([control, wake_r], [], [])
        if wake_r in readable:
            os.read(wake_r, 4096)  # SIGCHLD woke us; any rest wakes us again
        _reap_children(channels)
        if control not in readable:
            continue
        message, fds, _, _ = socket.recv_fds(control, _MAX_REQUEST, 2)
        if not message:
            return
        channel = socket.socket(fileno=fds[0])
        log_fd = fds[1] if len(fds) > 1 else None
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            pid = os.fork()
        except OSError:
            # Out of processes or memory: this spawn fails in its owner,
            # and the server keeps serving the children it has.
            pid = None
        if pid == 0:
            _run_child(
                json.loads(message), log_fd,
                [control, channel, *channels.values()], (wake_r, wake_w),
            )
        if log_fd is not None:
            os.close(log_fd)
        if pid is None:
            channel.close()
            continue
        channels[pid] = channel
        _report(channel, pid)


def _run_child(request: dict, log_fd, sockets, pipe) -> NoReturn:
    """Run a fork-server child's task and exit with its code.

    The worker exits as an interpreter would (``SystemExit``'s code; a
    traceback and 1 on an uncaught exception), but without tearing the
    preloaded modules down, which costs more than a small job's work.
    """
    code = 1
    try:
        try:
            code = main(_enter_child(request, log_fd, sockets, pipe))
        except SystemExit as exc:
            code = exc.code
        if code is None:
            code = 0
        elif not isinstance(code, int):
            print(code, file=sys.stderr)
            code = 1
    except BaseException:  # noqa: BLE001 - the child must never return to the loop
        code = 1
        traceback_module.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _enter_child(request: dict, log_fd, sockets, pipe) -> list[str]:
    """Turn a fork-server child into its task: return the worker's argv,
    or exec any other argv."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # A child holding the server's ends would hide the server's death
    # from the owner, and another task's exit with it.
    for sock in sockets:
        sock.close()
    for fd in pipe:
        os.close(fd)
    # stdin and stdout are the server's, /dev/null; stderr is the log.
    if log_fd is None:
        log_fd = os.open(os.devnull, os.O_WRONLY)
    os.dup2(log_fd, 2)
    os.close(log_fd)
    os.chdir(request["cwd"])
    env = request["env"]
    os.environ.clear()
    os.environ.update(env)
    argv = request["argv"]
    if argv[0] == sys.executable and argv[1:3] == ["-m", WORKER_MODULE]:
        sys.argv[1:] = argv[3:]
        return argv[3:]
    # As Popen does: an exec'd program starts with the signals the
    # interpreter ignores back at their defaults.
    for signum in (signal.SIGPIPE, signal.SIGXFSZ):
        signal.signal(signum, signal.SIG_DFL)
    os.execvpe(argv[0], argv, env)


def _reap_children(channels: dict[int, socket.socket]) -> None:
    """Report the exit code of every exited child on its channel."""
    while channels:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
        channel = channels.pop(pid, None)
        if channel is not None:
            _report(channel, os.waitstatus_to_exitcode(status))
            channel.close()


def _report(channel: socket.socket, value: int) -> None:
    try:
        channel.send(str(value).encode())
    except OSError:
        pass  # the owner stopped listening: it closed the task, or died


if __name__ == "__main__":
    sys.exit(main())
