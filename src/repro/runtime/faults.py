"""Fault injection for testing the fault-tolerant runtime.

The rollback / quarantine / budget machinery is only trustworthy if it is
exercised against *real* failures, so production code carries explicit,
zero-cost-when-idle fault hooks.  Tests arm them with the
:func:`inject` context manager::

    with inject("flow.wrong-rewrite"):
        result, history = run_flow(mig, db, ["BF"], verify="sim",
                                   on_error="rollback")
    assert history[0].status == "rolled-back"

Registered fault points (grep for ``fault_active`` to find the hooks):

``solver.timeout``
    :meth:`repro.sat.solver.Solver.solve` returns UNKNOWN immediately, as
    if the conflict budget were exhausted on entry.
``db.corrupt-entry``
    :class:`repro.database.npn_db.NpnDatabase` hands out an entry whose
    gate structure has been silently corrupted (output inverted), once
    per answer of ``lookup`` or ``lookup_batch``, modeling a bad
    database row reaching the rewriting engine.
``flow.wrong-rewrite``
    :func:`repro.opt.flow.run_flow` inverts the first output of a step's
    result, modeling a miscompiling pass.
``flow.corrupt-structure``
    :func:`repro.opt.flow.run_flow` mangles the structural invariants of
    a step's result (unsorted fanin triple), modeling a buggy pass that
    corrupts the network representation — caught by :meth:`Mig.check`.
``worker.crash``
    :mod:`repro.runtime.worker` exits abruptly without writing a result
    artifact, modeling a segfault.  Probed by the *supervisor* at spawn
    time (one firing dooms one worker), so ``times=1`` crashes exactly
    one attempt.
``worker.hang``
    :mod:`repro.runtime.worker` ignores SIGTERM and busy-loops past every
    deadline, modeling a worker stuck in native code; only the
    supervisor's SIGKILL escalation ends it.  Spawn-time probed like
    ``worker.crash``.
``cache.corrupt``
    :meth:`repro.runtime.cache.ResultCache.put` writes truncated garbage
    in place of the entry (atomically, so this models bad bytes — a
    partial upload, bit rot — not a torn write).  The next ``get`` must
    detect, quarantine, and miss.
``serve.crash``
    :meth:`repro.runtime.serve.OptimizationService.submit` kills the
    daemon with ``os._exit`` right after persisting an accepted request,
    modeling a crash between acceptance and execution; the restarted
    daemon must recover the job from disk.

Each armed fault fires ``times`` times (default: unlimited within the
``with`` block) and counts its activations for assertions.

Cross-process propagation: the supervisor serializes the armed table
into the ``REPRO_FAULTS`` environment variable (:func:`env_spec`) and
worker subprocesses re-arm from it (:func:`arm_from_env`), so a fault
injected in a test process is live inside every worker it supervises.
Activation counts do *not* propagate back — each process consumes its
own copy — which is why the ``worker.*`` faults are consumed on the
supervisor side instead.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Mapping

__all__ = [
    "inject",
    "fault_active",
    "fired_count",
    "reset",
    "armed_names",
    "env_spec",
    "arm_from_spec",
    "arm_from_env",
    "FAULTS_ENV_VAR",
]

#: environment variable carrying the armed-fault table across processes
FAULTS_ENV_VAR = "REPRO_FAULTS"

# name -> remaining activations (None = unlimited while armed)
_armed: dict[str, int | None] = {}
# name -> probes to let pass before the fault starts firing
_skip: dict[str, int] = {}
_fired: dict[str, int] = {}


def fault_active(name: str) -> bool:
    """Check-and-consume: True when fault *name* should fire now.

    Called from production hook points; O(1) dict probe when nothing is
    armed, so the hooks are effectively free outside tests.
    """
    if name not in _armed:
        return False
    pending_skips = _skip.get(name, 0)
    if pending_skips > 0:
        _skip[name] = pending_skips - 1
        return False
    remaining = _armed[name]
    if remaining is not None:
        if remaining <= 0:
            return False
        _armed[name] = remaining - 1
    _fired[name] = _fired.get(name, 0) + 1
    return True


def fired_count(name: str) -> int:
    """How many times fault *name* has fired since the last reset."""
    return _fired.get(name, 0)


def reset() -> None:
    """Disarm every fault and clear fire counters."""
    _armed.clear()
    _skip.clear()
    _fired.clear()


def armed_names(prefix: str = "") -> list[str]:
    """Names of currently armed faults (optionally filtered by prefix)."""
    return sorted(name for name in _armed if name.startswith(prefix))


def env_spec(exclude_prefix: str | None = None) -> str:
    """Serialize the armed table for a child process's environment.

    Format: ``name[:times=N][:skip=M]`` entries joined with ``,``;
    omitted ``times`` means unlimited.  Faults whose remaining count is
    zero are dropped.  *exclude_prefix* filters out families handled on
    the parent side (the supervisor excludes ``worker.``).
    """
    parts = []
    for name in sorted(_armed):
        if exclude_prefix is not None and name.startswith(exclude_prefix):
            continue
        remaining = _armed[name]
        if remaining is not None and remaining <= 0:
            continue
        entry = name
        if remaining is not None:
            entry += f":times={remaining}"
        skip = _skip.get(name, 0)
        if skip > 0:
            entry += f":skip={skip}"
        parts.append(entry)
    return ",".join(parts)


def arm_from_spec(spec: str) -> None:
    """Arm faults from an :func:`env_spec` string (malformed entries ignored)."""
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        fields = entry.split(":")
        name = fields[0]
        times: int | None = None
        skip = 0
        valid = bool(name)
        for option in fields[1:]:
            key, _, value = option.partition("=")
            try:
                if key == "times":
                    times = int(value)
                elif key == "skip":
                    skip = int(value)
                else:
                    valid = False
            except ValueError:
                valid = False
        if not valid:
            continue
        _armed[name] = times
        if skip > 0:
            _skip[name] = skip


def arm_from_env(environ: Mapping[str, str] | None = None) -> None:
    """Arm faults from ``REPRO_FAULTS`` (no-op when unset/empty)."""
    environ = os.environ if environ is None else environ
    spec = environ.get(FAULTS_ENV_VAR, "")
    if spec:
        arm_from_spec(spec)


@contextmanager
def inject(name: str, times: int | None = None, skip: int = 0) -> Iterator[None]:
    """Arm fault *name* for the duration of the block.

    *times* bounds how often it fires (``None`` = every probe); *skip*
    lets the first *skip* probes pass unharmed before firing starts —
    e.g. ``skip=1`` faults the second pass of an iteration.  Nested
    injections of the same name restore the previous arming on exit.
    """
    previous = _armed.get(name, _MISSING)
    previous_skip = _skip.get(name, _MISSING)
    _armed[name] = times
    _skip[name] = skip
    try:
        yield
    finally:
        if previous is _MISSING:
            _armed.pop(name, None)
        else:
            _armed[name] = previous
        if previous_skip is _MISSING:
            _skip.pop(name, None)
        else:
            _skip[name] = previous_skip


class _Missing:
    pass


_MISSING = _Missing()
