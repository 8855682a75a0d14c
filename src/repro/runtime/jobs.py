"""Batch jobs: specs, the retry/degradation ladder, and the crash-safe journal.

One *job* is one optimization of one network — a scripted flow
(:func:`repro.opt.flow.run_flow`) or a convergence iteration
(:func:`repro.opt.flow.optimize_until_convergence`) — executed by a
worker subprocess under :mod:`repro.runtime.supervisor`.  This module
holds everything about jobs that must survive a crash:

* :class:`JobSpec` — the serializable description of what to run, and
  :func:`load_network`, which builds the circuit its ``network``
  locator names (for the worker, the CLI and the serving tier alike);
* :func:`degraded` — the retry ladder: each retry runs with *weaker
  parameters* (``verify=cec → sim``, halved conflict budget, halved cut
  limit, large cuts back to the precomputed NPN-4 tier) so a job that
  failed on resource pressure still produces a verified, if less
  optimized, result before quarantine;
* :class:`JobJournal` — an append-only JSONL event log.  Every event is
  flushed and fsynced before the supervisor acts on it, and replay
  tolerates a torn final line (the artifact rules applied to a log: a
  crash mid-append loses at most the event being written, never the
  file).  Replaying the journal reconstructs the exact batch state, so a
  ``kill -9`` of the supervisor loses nothing.  :func:`open_log` and
  :func:`append_record` are that discipline for every JSONL log the
  runtime appends to (the journal, a worker's progress feed, the sweep
  trend matrix);
* :func:`result_summary` / :func:`adopt_result` / :func:`job_summary` —
  the one projection of a worker result into the journal and the
  report, and the one routine that adopts a finished result artifact;
* :class:`BatchReport` — the outcome (per-job statuses, worker
  utilization, merged :class:`~repro.runtime.metrics.PassMetrics`),
  written atomically next to the journal.

Job lifecycle (journal events in parentheses)::

    pending (submit) -> running (start) -> done (done)
                             |                ^
                             v (failed)       | adopted on resume when a
                        pending (requeued) ---+ valid result artifact
                             |                  already exists
                             v after max attempts
                        quarantined (quarantined)

Exactly-once resume: ``done``/``quarantined`` are terminal — a resumed
supervisor never re-runs them.  A job left ``running`` by a dead
supervisor is re-queued, unless its result artifact is already on disk
and validates, in which case it is adopted as ``done`` without re-running.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from .codec import Record, rounded, then
from .metrics import PassMetrics

__all__ = [
    "JobSpec",
    "JobRecord",
    "JobJournal",
    "BatchReport",
    "RESULT_KEYS",
    "adopt_result",
    "append_record",
    "degraded",
    "job_summary",
    "load_network",
    "load_result_artifact",
    "network_kind",
    "open_log",
    "result_fields",
    "result_summary",
]

#: Floors for the degradation ladder — degrade, never disable.
MIN_CONFLICT_LIMIT = 100
MIN_CUT_LIMIT = 2


@dataclass(frozen=True)
class JobSpec(Record):
    """Serializable description of one batch optimization job.

    ``network`` locates the input circuit (see :func:`load_network`):
    ``{"generate": name}`` with an optional ``"width"`` for the built-in
    EPFL generators, or ``{"blif": path}`` / ``{"bench": path}`` /
    ``{"aag": path}`` for files.  ``mode`` selects
    the runner: ``"flow"`` applies ``script`` once, ``"converge"``
    repeats ``variant`` to a fixpoint (``max_passes`` bound).
    """

    job_id: str
    network: dict
    script: tuple[str, ...] = ("BF",)
    mode: str = "flow"
    variant: str = "BF"
    max_passes: int = 10
    #: verification policy inside the worker: "off", "sim", or "cec"
    verify: str = "sim"
    time_limit: float | None = None
    conflict_limit: int | None = None
    cut_limit: int | None = None
    #: cut width for functional-hashing steps (None = engine default 4;
    #: 5 or 6 runs against a lazily-populated DynamicDatabase)
    cut_size: int | None = None
    #: persistent NPN store path backing cut_size > 4 (see
    #: repro.database.store.NpnStore); ignored at the default cut size
    npn_store: str | None = None
    #: address-space rlimit for the worker process, in MiB
    mem_limit_mb: int | None = None
    #: alternative NPN database path (None = packaged default)
    db: str | None = None
    #: where the worker writes the optimized network (BLIF), if anywhere
    output: str | None = None
    #: where the worker appends per-step progress JSONL lines while the
    #: job runs (the serving tier polls this); None = no streaming
    progress: str | None = None
    #: mode-specific extra data (JSON-serializable dict); used by modes
    #: that do not operate on a network, e.g. "db-improve"
    payload: dict | None = None


def _optional(cast, value):
    return None if value is None else cast(value)


# ----------------------------------------------------------------------
# network locators
# ----------------------------------------------------------------------

#: the circuit sources a network locator can name
NETWORK_KINDS = ("generate", "blif", "bench", "aag")


def network_kind(locator) -> str:
    """Validate a network locator and return the source it names.

    Raises :class:`ValueError` unless *locator* is a dict with exactly
    one of :data:`NETWORK_KINDS`, and a file source is a string.
    """
    if not isinstance(locator, dict):
        raise ValueError("'network' must be an object")
    kinds = [kind for kind in NETWORK_KINDS if kind in locator]
    if len(kinds) != 1:
        raise ValueError(
            "network needs exactly one of 'generate', 'blif', 'bench', 'aag'"
        )
    kind = kinds[0]
    if kind != "generate" and not isinstance(locator[kind], str):
        raise ValueError(f"'{kind}' must be a string")
    return kind


def load_network(locator: dict, inline: bool = False):
    """Build the MIG that a network locator names.

    ``{"generate": name[, "width": w]}`` runs a built-in generator;
    ``{"blif" | "bench" | "aag": source}`` parses a circuit (ASCII
    AIGER through the AIG facade), where *source* is a file path, or the
    text itself with *inline* (serve uploads).  Locator errors raise
    :class:`ValueError` (:func:`network_kind`); generator and parser
    errors propagate unchanged.  Imports stay local so loading a
    worker does not pay for parsers it never uses.
    """
    kind = network_kind(locator)
    if kind == "generate":
        from ..generators import resolve_generator

        return resolve_generator(
            str(locator["generate"]),
            width=_optional(int, locator.get("width")),
        )
    source = locator[kind]
    with io.StringIO(source) if inline else open(source, encoding="utf-8") as fp:
        if kind == "blif":
            from ..io.blif import read_blif

            return read_blif(fp)
        if kind == "bench":
            from ..io.bench import read_bench

            return read_bench(fp)
        from ..aig.convert import aig_to_mig
        from ..io.aiger import read_aag

        return aig_to_mig(read_aag(fp))


def degraded(spec: JobSpec) -> tuple[JobSpec, list[str]]:
    """One rung down the retry ladder: weaker parameters, same job.

    Returns the degraded spec and a human-readable list of the applied
    degradations (empty when the spec is already at the floor — the
    retry then only buys a fresh process).  Verification is weakened from
    ``cec`` to ``sim`` but never below: a retried job must still produce
    a verified result.
    """
    notes: list[str] = []
    changes: dict = {}
    if spec.verify == "cec":
        changes["verify"] = "sim"
        notes.append("verify:cec->sim")
    if spec.cut_size is not None and spec.cut_size > 4:
        # Large-cut hashing puts on-demand synthesis on the hot path; a
        # struggling job retries at the precomputed NPN-4 tier first.
        changes["cut_size"] = 4
        notes.append(f"cut_size:{spec.cut_size}->4")
    if spec.conflict_limit is not None and spec.conflict_limit > MIN_CONFLICT_LIMIT:
        new_limit = max(MIN_CONFLICT_LIMIT, spec.conflict_limit // 2)
        changes["conflict_limit"] = new_limit
        notes.append(f"conflict_limit:{spec.conflict_limit}->{new_limit}")
    # The engine default cut limit is 8; an unset spec degrades from there.
    effective_cuts = spec.cut_limit if spec.cut_limit is not None else 8
    if effective_cuts > MIN_CUT_LIMIT:
        new_cuts = max(MIN_CUT_LIMIT, effective_cuts // 2)
        changes["cut_limit"] = new_cuts
        notes.append(f"cut_limit:{effective_cuts}->{new_cuts}")
    if not changes:
        return spec, notes
    return replace(spec, **changes), notes


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------


@dataclass
class JobRecord:
    """Replayed state of one job (see :meth:`JobJournal.replay`)."""

    spec: JobSpec
    state: str = "pending"
    attempts: int = 0
    pid: int | None = None
    #: spec actually used by the latest attempt (after degradation)
    attempt_spec: JobSpec | None = None
    degradations: list[str] = field(default_factory=list)
    last_error: str | None = None
    traceback: str | None = None
    rusage: dict | None = None
    result: dict | None = None
    #: True when a resume adopted an existing result artifact
    adopted: bool = False

    @property
    def effective_spec(self) -> JobSpec:
        return self.attempt_spec if self.attempt_spec is not None else self.spec


class JournalReplay:
    """Outcome of replaying a journal file."""

    def __init__(self) -> None:
        self.records: dict[str, JobRecord] = {}
        #: submit order, so scheduling is stable across resumes
        self.order: list[str] = []
        self.skipped_lines = 0


def open_log(path: str | Path):
    """Open the JSONL log at *path* for appending, creating its directory.

    A crash mid-append leaves a torn last line.  When the file does not
    end in a newline, one is written first, so the next record starts a
    line of its own instead of being glued onto the torn one (a reader
    would then skip both).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fp = open(path, "a+b")
    try:
        end = fp.seek(0, os.SEEK_END)
        if end:
            fp.seek(end - 1)
            if fp.read(1) != b"\n":
                fp.write(b"\n")
    except BaseException:
        fp.close()
        raise
    return fp


def append_record(fp, record: dict) -> None:
    """Append *record* to a log from :func:`open_log` as one JSON line,
    flushed and fsynced before returning."""
    fp.write((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
    fp.flush()
    os.fsync(fp.fileno())


class JobJournal:
    """Append-only, fsynced JSONL event log for a batch.

    Writes follow the crash-safety rules adapted to a log: each event is
    one JSON line appended with ``O_APPEND`` semantics, flushed and
    fsynced before :meth:`append` returns, so the supervisor never acts
    on an event that could be lost.  A crash mid-append leaves at most
    one torn final line, which :meth:`replay` discards (torn or
    otherwise malformed lines are counted in ``skipped_lines``, mirroring
    the NPN database loader); :func:`open_log` starts the next event on
    a fresh line.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fp = open_log(self.path)

    def close(self) -> None:
        if self._fp is not None:
            self._fp.close()
            self._fp = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writing -----------------------------------------------------------

    def append(self, event: str, job_id: str, **payload) -> None:
        """Durably record one event before the caller acts on it."""
        append_record(self._fp, {"event": event, "job": job_id, **payload})

    def submit(self, spec: JobSpec) -> None:
        self.append("submit", spec.job_id, spec=spec.to_dict())

    def start(self, job_id: str, attempt: int, pid: int, spec: JobSpec) -> None:
        self.append("start", job_id, attempt=attempt, pid=pid, spec=spec.to_dict())

    def done(self, job_id: str, result: dict, adopted: bool = False) -> None:
        self.append("done", job_id, result=result, adopted=adopted)

    def failed(
        self,
        job_id: str,
        attempt: int,
        error: str,
        traceback: str | None = None,
        rusage: dict | None = None,
    ) -> None:
        self.append(
            "failed", job_id, attempt=attempt, error=error,
            traceback=traceback, rusage=rusage,
        )

    def requeued(self, job_id: str, degradations: list[str]) -> None:
        self.append("requeued", job_id, degradations=degradations)

    def quarantined(
        self,
        job_id: str,
        error: str,
        traceback: str | None = None,
        rusage: dict | None = None,
    ) -> None:
        self.append(
            "quarantined", job_id, error=error, traceback=traceback, rusage=rusage
        )

    # -- replay ------------------------------------------------------------

    @classmethod
    def replay(cls, path: str | Path) -> JournalReplay:
        """Reconstruct batch state from the journal at *path*.

        Unknown events and malformed lines are skipped (and counted), so
        a journal written by a newer version or torn by a crash still
        replays; the state machine is driven only by events whose job is
        known (except ``submit``, which introduces it).
        """
        state = JournalReplay()
        path = Path(path)
        if not path.exists():
            return state
        with open(path, "rb") as fp:
            for raw in fp:
                try:
                    data = json.loads(raw.decode("utf-8"))
                    event = data["event"]
                    job_id = str(data["job"])
                except (ValueError, KeyError, UnicodeDecodeError):
                    state.skipped_lines += 1
                    continue
                if event == "submit":
                    if job_id not in state.records:
                        try:
                            spec = JobSpec.from_dict(data["spec"])
                        except (KeyError, TypeError, ValueError):
                            state.skipped_lines += 1
                            continue
                        state.records[job_id] = JobRecord(spec=spec)
                        state.order.append(job_id)
                    continue
                record = state.records.get(job_id)
                if record is None or record.state in ("done", "quarantined"):
                    # Terminal states are immutable: a duplicate or stale
                    # event (e.g. replayed from a pre-crash attempt) is
                    # ignored rather than double-counting the job.
                    continue
                if event == "start":
                    record.state = "running"
                    record.attempts = int(data.get("attempt", record.attempts + 1))
                    record.pid = _optional(int, data.get("pid"))
                    try:
                        record.attempt_spec = JobSpec.from_dict(data["spec"])
                    except (KeyError, TypeError, ValueError):
                        record.attempt_spec = None
                elif event == "done":
                    record.state = "done"
                    record.result = data.get("result")
                    record.adopted = bool(data.get("adopted", False))
                elif event in ("failed", "quarantined"):
                    record.state = event
                    record.last_error = _optional(str, data.get("error"))
                    record.traceback = _optional(str, data.get("traceback"))
                    record.rusage = data.get("rusage")
                elif event == "requeued":
                    record.state = "pending"
                    degradations = list(data.get("degradations", []))
                    record.degradations.extend(degradations)
                    if "resume:interrupted" in degradations:
                        # The interrupted attempt never concluded; it is
                        # re-run under the same attempt number.
                        record.attempts = max(0, record.attempts - 1)
                else:
                    state.skipped_lines += 1
        return state


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

#: keys a worker result artifact must carry to be adopted
_RESULT_REQUIRED_KEYS = ("job_id", "status")

#: the worker-result fields that travel into the journal and the report
RESULT_KEYS = (
    "size_before", "size_after", "depth_before", "depth_after",
    "runtime", "verify", "output", "pid", "metrics", "steps",
)

#: the per-step fields a journaled result keeps
_STEP_KEYS = ("step", "status", "verified", "runtime")


def load_result_artifact(path: str | Path, job_id: str) -> dict | None:
    """Load and validate a worker result artifact.

    Returns the payload dict, or ``None`` when the file is missing,
    unparsable, or belongs to a different job (the corrupt file is
    quarantined so the evidence survives, per the artifact rules).
    """
    from .artifacts import quarantine

    path = Path(path)
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as fp:
            payload = json.load(fp)
    except (ValueError, OSError):
        quarantine(path)
        return None
    if (
        not isinstance(payload, dict)
        or any(key not in payload for key in _RESULT_REQUIRED_KEYS)
        or str(payload["job_id"]) != job_id
    ):
        quarantine(path)
        return None
    return payload


def result_fields(result: dict, drop: tuple[str, ...] = ()) -> dict:
    """The :data:`RESULT_KEYS` present in *result*, minus *drop*."""
    return {
        key: result[key] for key in RESULT_KEYS if key in result and key not in drop
    }


def result_summary(payload: dict) -> dict:
    """The journal-worthy slice of a worker result (drop bulky fields)."""
    summary = result_fields(payload, drop=("steps",))
    summary["steps"] = [
        {key: step.get(key) for key in _STEP_KEYS if key in step}
        for step in payload.get("steps", [])
    ]
    return summary


def adopt_result(
    journal: JobJournal, record: JobRecord, path: str | Path, adopted: bool = False
) -> dict | None:
    """Journal *record* ``done`` if its result artifact at *path* is ok.

    The one way a finished worker result enters the journal: a normal
    exit, a drained worker that still completed, and a resume adopting
    the artifact of a job a dead supervisor left ``running``
    (*adopted*).  The ``done`` event is fsynced before the
    record changes.  Returns the worker payload, or ``None`` when there
    is no valid successful result.
    """
    job_id = record.spec.job_id
    payload = load_result_artifact(path, job_id)
    if payload is None or payload.get("status") != "ok":
        return None
    summary = result_summary(payload)
    journal.done(job_id, summary, adopted=adopted)
    record.state = "done"
    record.result = summary
    record.adopted = adopted
    return payload


def job_summary(record: JobRecord) -> dict:
    """One job's entry in :attr:`BatchReport.jobs`."""
    summary = {
        "job_id": record.spec.job_id,
        "state": record.state,
        "attempts": record.attempts,
    }
    if record.adopted:
        summary["adopted"] = True
    if record.degradations:
        summary["degradations"] = list(record.degradations)
    if record.result is not None:
        summary.update(result_fields(record.result, drop=("pid",)))
    if record.last_error is not None:
        summary["error"] = record.last_error
    return summary


# ----------------------------------------------------------------------
# batch report
# ----------------------------------------------------------------------

@dataclass
class BatchReport(Record):
    """Outcome of one supervised batch run.

    ``to_dict`` rounds ``wall_seconds`` to 6 digits and adds the derived
    ``workers_used``; ``from_dict`` ignores it (:mod:`repro.runtime.codec`).
    """

    total: int = 0
    done: int = 0
    quarantined: int = 0
    #: failed attempts across all jobs (retries included)
    failed_attempts: int = 0
    retries: int = 0
    #: jobs whose result was adopted from a previous run on resume
    adopted: int = 0
    wall_seconds: float = field(default=0.0, metadata=rounded(6))
    #: True when the run was stopped early by a shutdown request (the
    #: journal is resumable; unfinished jobs are pending, not lost)
    interrupted: bool = False
    #: peak number of simultaneously live workers
    max_concurrent: int = field(default=0, metadata=then("workers_used"))
    #: executor slot name (``"0"``, ``"1"``, …) -> number of jobs that
    #: slot completed
    jobs_per_slot: dict[str, int] = field(default_factory=dict)
    #: merged hot-path counters from every successful job
    metrics: PassMetrics = field(default_factory=PassMetrics)
    #: per-job summaries in submit order
    jobs: list[dict] = field(default_factory=list)

    @property
    def workers_used(self) -> int:
        """Distinct worker slots that completed a job."""
        return sum(1 for count in self.jobs_per_slot.values() if count)

    def count_done(
        self, result: dict | None, adopted: bool = False, slot: int | str | None = None
    ) -> None:
        """Credit one ``done`` job (to executor slot *slot* when a worker
        just finished it) and merge the metrics of its *result*."""
        self.done += 1
        if adopted:
            self.adopted += 1
        if slot is not None:
            self.jobs_per_slot[str(slot)] = self.jobs_per_slot.get(str(slot), 0) + 1
        metrics = (result or {}).get("metrics")
        if isinstance(metrics, dict):
            self.metrics.merge(PassMetrics.from_dict(metrics))

    def count_journaled(self, record: JobRecord) -> None:
        """Credit a job the journal already shows as terminal."""
        if record.state == "done":
            self.count_done(record.result, adopted=record.adopted)
        elif record.state == "quarantined":
            self.quarantined += 1
