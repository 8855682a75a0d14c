"""``migopt serve`` — hardened optimization-as-a-service on the batch runtime.

A long-lived, stdlib-only HTTP/JSON daemon that turns the supervised
batch runtime (:mod:`repro.runtime.supervisor`) into a serving tier:
requests carry a network (inline BLIF/bench/AIGER-ASCII upload or a
generator spec) plus flow parameters, each request becomes a
:class:`~repro.runtime.jobs.JobSpec` submitted to the daemon's one
long-lived :class:`~repro.runtime.supervisor.Supervisor` (process
isolation, watchdog, retry-with-degradation, crash-safe journal), whose
workers fork from one pre-imported fork server (started by the first
cold job, so a request pays no interpreter start-up or
``import repro``), and results are memoized in a content-addressed
:class:`~repro.runtime.cache.ResultCache` keyed by the canonical
structural hash of (network, flow, budgets) — the paper's functional
hashing premise applied to whole requests, so duplicate-laden traffic
is absorbed by disk lookups instead of re-optimizations.

API (all JSON)::

    POST /jobs          submit; 200 done-from-cache, 202 accepted,
                        202 coalesced onto an identical in-flight job,
                        429 queue full, 503 draining, 400/413 bad input
    GET  /jobs/<id>     poll: state, per-step progress, result
    GET  /stats         serve + cache counters (hits, evictions, ...)
    GET  /healthz       process liveness (always 200 while alive)
    GET  /readyz        admission readiness (503 while draining)

Robustness properties, each drilled by tests or the CI smoke:

* **admission control** — a bounded queue; requests past it get ``429``
  with a ``Retry-After`` hint instead of unbounded memory growth;
* **deadlines** — a request deadline becomes the worker's in-process
  :class:`~repro.runtime.budget.Budget` (polite partial results) *and*
  the supervisor's SIGTERM→SIGKILL watchdog (impolite workers die); a
  request whose deadline lapses while queued gets a typed ``timeout``
  response, never a hung connection;
* **crash safety** — every accepted request is persisted atomically
  before it is acknowledged, every job state transition lives in the
  supervisor's job journal, and the cache follows the artifact rules, so
  a ``kill -9`` at any instant loses at most work in flight — never
  completed results, and never serves torn bytes.  On restart the
  daemon recovers: finished jobs are adopted (exactly-once, no re-run),
  interrupted jobs re-enter the queue;
* **graceful drain** — SIGTERM stops admission (``/readyz`` flips to
  503), running jobs finish (or are journaled resumable after the drain
  grace), queued jobs stay journaled for the next start, a final stats
  snapshot is flushed, and the process exits 0 (1 when a failure of
  the supervisor's loop began the drain);
* **chaos hooks** — ``serve.crash`` (die right after accepting a
  request) and ``cache.corrupt`` (bad bytes reach the cache) are
  ``REPRO_FAULTS``-injectable fault points for drills.
"""

from __future__ import annotations

import io
import json
import os
import threading
import time
import uuid
from concurrent.futures import wait
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .artifacts import atomic_write_text, quarantine
from .cache import ResultCache, request_key
from .executors import handle_signals
from .faults import arm_from_env, fault_active
from .jobs import JobJournal, JobSpec, load_network, network_kind, result_fields
from .supervisor import JobFuture, Supervisor
from .verify import VERIFY_MODES

__all__ = ["OptimizationService", "ServeDaemon", "run_server"]

#: request body cap — a network upload past this is a 413, not an OOM
MAX_BODY_BYTES = 32 * 1024 * 1024

#: exit code of the injected serve.crash fault
CRASH_EXIT_CODE = 86

#: the header of a response sent without reading the request body: the
#: connection closes, so the body is never parsed as the next request
_CLOSE = (("Connection", "close"),)


class BadRequest(ValueError):
    """A request the client must fix (maps to HTTP 400)."""


def _parse_network(network):
    """Parse the request's inline network upload (see :func:`load_network`);
    returns its kind (:func:`network_kind`) and the MIG.

    Parsing happens in the daemon because the canonical structural hash
    — the cache key — must be computed before any work is scheduled.
    """
    try:
        kind = network_kind(network)
    except ValueError as exc:
        raise BadRequest(str(exc)) from None
    try:
        return kind, load_network(network, inline=True)
    except Exception as exc:  # noqa: BLE001 - client input boundary
        if kind == "generate" and isinstance(exc, ValueError):
            raise BadRequest(str(exc)) from exc
        raise BadRequest(f"could not parse {kind} network: {exc}") from exc


def _parse_script(script) -> tuple[str, ...]:
    from ..opt.flow import check_steps

    if isinstance(script, str):
        script = [s for s in script.split(",") if s]
    if not isinstance(script, (list, tuple)) or not script:
        raise BadRequest("'script' must be a non-empty list of step names")
    steps = tuple(str(step).strip() for step in script)
    try:
        check_steps(steps)
    except ValueError as exc:
        raise BadRequest(str(exc)) from None
    return steps


def _opt_number(request: dict, key: str, cast, minimum=None):
    value = request.get(key)
    if value is None:
        return None
    try:
        value = cast(value)
    except (TypeError, ValueError):
        raise BadRequest(f"'{key}' must be a number") from None
    if minimum is not None and value < minimum:
        raise BadRequest(f"'{key}' must be >= {minimum}")
    return value


@dataclass
class ServeJob:
    """In-memory record of one submitted request."""

    job_id: str
    key: str
    spec: JobSpec
    workdir: Path
    submitted_at: float
    deadline_at: float | None = None
    #: queued (in flight) | done | failed | timeout; see :attr:`status`
    state: str = "queued"
    cached: bool = False
    finished_at: float | None = None
    result: dict | None = None
    error: str | None = None
    #: job ids coalesced onto this one (same cache key, still in flight)
    coalesced: int = 0
    #: the supervisor's handle while the job is in flight
    future: JobFuture | None = field(default=None, repr=False)

    @property
    def overdue(self) -> bool:
        """The request's deadline has passed."""
        return self.deadline_at is not None and time.time() >= self.deadline_at

    @property
    def started_at(self) -> float | None:
        """The ``time.time()`` of the job's first launch, once it had one."""
        return None if self.future is None else self.future.started_at

    @property
    def status(self) -> str:
        """``state``, with an in-flight job past its first launch ``running``."""
        if self.state == "queued" and self.started_at is not None:
            return "running"
        return self.state


class OptimizationService:
    """The daemon's engine: admission, scheduling, caching, recovery.

    Separable from the HTTP layer so tests can drive it directly.  The
    on-disk layout under *workdir*::

        cache/objects/<key>.json      the content-addressed result cache
        jobs/<job_id>/request.json    the accepted request (atomic write)
        jobs/<job_id>/input.blif      materialized upload, when any
        jobs/<job_id>/progress.jsonl  per-step progress from the worker
        super/                        the one supervisor's workdir
                                      (journal.jsonl, specs/, results/)
        stats.json                    final snapshot flushed on drain
    """

    def __init__(
        self,
        workdir: str | Path,
        num_workers: int = 2,
        queue_limit: int = 16,
        cache_max_bytes: int | None = None,
        max_attempts: int = 2,
        grace: float = 2.0,
        default_time_limit: float | None = None,
        default_verify: str = "sim",
        mem_limit_mb: int | None = None,
        default_cut_size: int | None = None,
        npn_store: str | Path | None = None,
        verbose: bool = False,
    ) -> None:
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if default_verify not in VERIFY_MODES:
            raise ValueError("default_verify must be off/sim/cec")
        if default_cut_size is not None and default_cut_size not in (4, 5, 6):
            raise ValueError("default_cut_size must be 4, 5, or 6")
        self.workdir = Path(workdir)
        self.jobs_dir = self.workdir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(self.workdir / "cache", max_bytes=cache_max_bytes)
        self.num_workers = num_workers
        self.queue_limit = queue_limit
        self.default_time_limit = default_time_limit
        self.default_verify = default_verify
        self.mem_limit_mb = mem_limit_mb
        self.default_cut_size = default_cut_size
        self.npn_store = None if npn_store is None else str(npn_store)
        self.verbose = verbose

        self._lock = threading.Lock()
        self.jobs: dict[str, ServeJob] = {}
        #: the jobs still queued or running, by job id
        self._in_flight: dict[str, ServeJob] = {}
        #: runs every request; its loop (never started for
        #: ``num_workers=0``) owns the daemon's one fork server
        self.supervisor = Supervisor(
            self.workdir / "super",
            num_workers=max(1, num_workers),
            grace=grace,
            max_attempts=max_attempts,
            backoff_base=0.1,
            default_time_limit=default_time_limit,
        )
        self.draining = threading.Event()
        self.started_at = time.time()
        self.counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "timeout": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "rejected": 0,
            "recovered": 0,
            "adopted": 0,
        }
        #: NPN-store tier counters aggregated from completed job metrics
        #: (the store itself lives in the worker subprocesses)
        self.store_counters = {
            "store_hits": 0,
            "store_disk_hits": 0,
            "store_synth": 0,
            "store_evictions": 0,
        }

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Recover persisted jobs; the supervisor's loop starts with a job."""
        self._recover()

    def close(self) -> None:
        """Stop the supervisor (stragglers are journaled resumable, and its
        loop's end reaps the fork server); flush the final stats snapshot."""
        self.supervisor.request_shutdown()
        self.supervisor.close()
        try:
            atomic_write_text(
                self.workdir / "stats.json",
                json.dumps(self.stats(), sort_keys=True) + "\n",
            )
        except OSError:
            pass

    # -- recovery ---------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild job state from disk after a restart (exactly-once).

        Each persisted ``request.json`` is checked against one replay of
        the supervisor's journal: a ``done`` job is reinstated without
        re-running anything (and back-fills the cache if the crash hit
        between completion and the cache write), a ``quarantined`` one
        is failed, and anything else is resubmitted; the supervisor's
        resume — killing orphans, adopting an already-written result
        artifact — guarantees the job completes exactly once.
        """
        records = JobJournal.replay(self.supervisor.journal_path).records
        resubmit = []
        for req_path in sorted(self.jobs_dir.glob("*/request.json")):
            try:
                with open(req_path, "r", encoding="utf-8") as fp:
                    req = json.load(fp)
                job_id = str(req["job_id"])
                key = str(req["key"])
                spec = JobSpec.from_dict(req["spec"])
            except (ValueError, KeyError, TypeError, OSError):
                quarantine(req_path)
                continue
            job = ServeJob(
                job_id=job_id,
                key=key,
                spec=spec,
                workdir=req_path.parent,
                submitted_at=float(req.get("submitted_at", time.time())),
                deadline_at=req.get("deadline_at"),
            )
            record = records.get(job_id)
            if record is not None and record.state == "done":
                self._finalize_done(job, record.result or {}, recovered=True)
            elif record is not None and record.state == "quarantined":
                self._finalize_failed(job, record.last_error or "quarantined")
            else:
                with self._lock:
                    self.jobs[job_id] = job
                    self._in_flight[job_id] = job
                    self.counters["recovered"] += 1
                resubmit.append(job)
            if self.verbose:
                print(f"[serve] recovered {job_id} -> {job.state}")
        # All at once: the loop then takes every handle before it
        # recovers the journal, so no recovered job launches unseen.
        self._launch(*resubmit)

    # -- admission --------------------------------------------------------

    def submit(self, request: dict) -> tuple[int, dict]:
        """Admit one request; returns ``(http_status, response_payload)``."""
        if self.draining.is_set():
            return 503, {"error": "draining", "detail": "daemon is shutting down"}
        if not isinstance(request, dict):
            return 400, {"error": "bad-request", "detail": "body must be a JSON object"}
        try:
            kind, mig = _parse_network(request.get("network"))
            spec_fields = self._spec_fields(request)
        except BadRequest as exc:
            return 400, {"error": "bad-request", "detail": str(exc)}

        structural = mig.structural_hash()
        probe = JobSpec(job_id="probe", network={}, **spec_fields)
        key = request_key(structural, probe)

        cached = self.cache.get(key)
        if cached is not None:
            job_id = f"{key[:12]}-hit-{uuid.uuid4().hex[:8]}"
            job = ServeJob(
                job_id=job_id,
                key=key,
                spec=probe,
                workdir=self.jobs_dir / job_id,
                submitted_at=time.time(),
                state="done",
                cached=True,
                result=cached,
                finished_at=time.time(),
            )
            with self._lock:
                self.jobs[job_id] = job
                self.counters["submitted"] += 1
                self.counters["cache_hits"] += 1
            return 200, {
                "job_id": job_id,
                "status": "done",
                "cached": True,
                "cache_key": key,
                "result": cached,
            }

        job_id = f"{key[:12]}-{uuid.uuid4().hex[:8]}"
        jobdir = self.jobs_dir / job_id
        network = request["network"]
        locator = dict(network)
        if kind != "generate":
            # An upload is persisted in the job directory; an AIGER one
            # as its parsed MIG, in BLIF.
            stored = "bench" if kind == "bench" else "blif"
            upload = jobdir / f"input.{stored}"
            locator = {stored: str(upload)}
        now = time.time()
        deadline = _opt_number(request, "deadline", float, minimum=0.0)
        spec = JobSpec(
            job_id=job_id,
            network=locator,
            output=str(jobdir / "result.blif"),
            progress=str(jobdir / "progress.jsonl"),
            **spec_fields,
        )
        job = ServeJob(
            job_id=job_id,
            key=key,
            spec=spec,
            workdir=jobdir,
            submitted_at=now,
            deadline_at=None if deadline is None else now + deadline,
        )
        # Coalescing, the queue limit and the reservation are one step.
        with self._lock:
            active = next((j for j in self._in_flight.values() if j.key == key), None)
            if active is not None:
                active.coalesced += 1
                self.counters["submitted"] += 1
                self.counters["coalesced"] += 1
                return 202, {
                    "job_id": active.job_id,
                    "status": active.status,
                    "coalesced": True,
                    "cache_key": key,
                    "poll": f"/jobs/{active.job_id}",
                }
            queued = sum(j.status == "queued" for j in self._in_flight.values())
            if queued >= self.queue_limit:
                self.counters["rejected"] += 1
                return 429, {
                    "error": "queue-full",
                    "detail": f"{queued} jobs already queued",
                    "retry_after": 1,
                }
            self.jobs[job_id] = job
            self._in_flight[job_id] = job
            self.counters["submitted"] += 1
        try:
            jobdir.mkdir(parents=True)
            if kind in ("blif", "bench"):
                atomic_write_text(upload, network[kind])
            elif kind == "aag":
                from ..io.blif import write_blif

                buf = io.StringIO()
                write_blif(mig, buf)
                atomic_write_text(upload, buf.getvalue())
            # Persist before acknowledging: an accepted request survives
            # any crash from this line on (the recovery scan re-queues it).
            atomic_write_text(
                jobdir / "request.json",
                json.dumps(
                    {
                        "job_id": job_id,
                        "key": key,
                        "structural_hash": structural,
                        "spec": spec.to_dict(),
                        "submitted_at": now,
                        "deadline_at": job.deadline_at,
                    },
                    sort_keys=True,
                )
                + "\n",
            )
        except BaseException:
            with self._lock:
                del self.jobs[job_id]
                del self._in_flight[job_id]
                self.counters["submitted"] -= 1
            raise
        if fault_active("serve.crash"):
            # Chaos hook: die between accepting a request and running it.
            os._exit(CRASH_EXIT_CODE)
        self._launch(job)
        return 202, {
            "job_id": job_id,
            "status": "queued",
            "cache_key": key,
            "poll": f"/jobs/{job_id}",
        }

    def _spec_fields(self, request: dict) -> dict:
        mode = str(request.get("mode", "flow"))
        if mode not in ("flow", "converge"):
            raise BadRequest("'mode' must be 'flow' or 'converge'")
        verify = str(request.get("verify", self.default_verify))
        if verify not in VERIFY_MODES:
            raise BadRequest("'verify' must be 'off', 'sim', or 'cec'")
        script = _parse_script(request.get("script", ["BF"]))
        variant = str(request.get("variant", "BF"))
        if mode == "converge":
            _parse_script([variant])
        deadline = _opt_number(request, "deadline", float, minimum=0.0)
        time_limit = _opt_number(request, "time_limit", float, minimum=0.0)
        if deadline is not None:
            time_limit = deadline if time_limit is None else min(time_limit, deadline)
        if time_limit is None:
            time_limit = self.default_time_limit
        cut_size = _opt_number(request, "cut_size", int)
        if cut_size is None:
            cut_size = self.default_cut_size
        if cut_size is not None and cut_size not in (4, 5, 6):
            raise BadRequest("'cut_size' must be 4, 5, or 6")
        return {
            "script": script,
            "mode": mode,
            "variant": variant,
            "max_passes": _opt_number(request, "max_passes", int, minimum=1) or 10,
            "verify": verify,
            "time_limit": time_limit,
            "conflict_limit": _opt_number(request, "conflict_limit", int, minimum=1),
            "cut_limit": _opt_number(request, "cut_limit", int, minimum=2),
            "cut_size": cut_size,
            # The store is daemon configuration, never client input: a
            # request must not be able to point workers at arbitrary
            # filesystem paths.
            "npn_store": (
                self.npn_store if cut_size is not None and cut_size > 4 else None
            ),
            "mem_limit_mb": self.mem_limit_mb,
        }

    # -- running ----------------------------------------------------------

    def _launch(self, *jobs: ServeJob) -> None:
        """Submit *jobs* to the supervisor, then start its loop (once); it
        reports back through :meth:`_settled` (a deadline that lapses
        first cancels the launch)."""
        for job in jobs:
            try:
                job.future = self.supervisor.submit(job.spec, not_after=job.deadline_at)
            except RuntimeError:  # closed by a drain or a failed loop
                # The job stays queued; request.json brings it back at
                # the next start, as it does a job a drain cancelled.
                self.initiate_drain()
                continue
            job.future.add_done_callback(
                lambda future, job=job: self._settled(job, future)
            )
        if jobs and self.num_workers:
            self.supervisor.start()

    def _settled(self, job: ServeJob, future: JobFuture) -> None:
        """Publish the supervisor's verdict on *job*, in the thread that
        settled *future* (so never raise; never cancel under the lock)."""
        try:
            if future.cancelled():
                # Never launched: a lapsed deadline, or a drain (the
                # journal keeps the job pending for the next start).
                if job.overdue:
                    error = "deadline expired while queued"
                    self._finalize_failed(job, error, "timeout")
                return
            summary = future.result()
            if summary["state"] == "done":
                self._finalize_done(job, summary)
            elif summary["state"] == "quarantined":
                error = str(summary.get("error") or "job did not complete")
                timeout = "watchdog" in error or job.overdue
                self._finalize_failed(job, error, "timeout" if timeout else "failed")
            else:
                # Drained mid-run: the journal holds a resumable state.
                with self._lock:
                    job.future = None
        except Exception as exc:  # noqa: BLE001 - the loop must survive
            if self.supervisor.closed:
                # The loop itself failed: stop admitting work that no
                # one would run (run_server then drains and exits 1).
                self.initiate_drain()
            self._finalize_failed(job, f"runner error: {type(exc).__name__}: {exc}")

    # -- outcomes ---------------------------------------------------------

    def _result_payload(self, job: ServeJob, summary: dict) -> dict:
        result = result_fields(summary, drop=("output", "pid"))
        result["cache_key"] = job.key
        blif_path = job.workdir / "result.blif"
        if blif_path.exists():
            try:
                result["blif"] = blif_path.read_text(encoding="utf-8")
            except OSError:
                pass
        return result

    @staticmethod
    def _fully_optimized(result: dict) -> bool:
        """Only complete, per-step-verified results are cache-worthy.

        A partial result (a step timed out, failed, or was rolled back)
        is still correct — verification guarantees equivalence — but
        caching it would pin a degraded answer under a key that promises
        the full flow, so it is served once and not memoized.
        """
        steps = result.get("steps") or []
        return bool(steps) and all(s.get("status") == "ok" for s in steps)

    def _finalize_done(
        self, job: ServeJob, summary: dict, recovered: bool = False
    ) -> None:
        result = self._result_payload(job, summary)
        metrics = result.get("metrics") or {}
        # Cache before publishing "done": a client that sees "done" and
        # resubmits at once must hit the entry, not start a second run.
        if job.spec.verify != "off" and self._fully_optimized(result):
            if self.cache.get(job.key) is None:
                self.cache.put(job.key, result)
        with self._lock:
            job.result = result
            if recovered:
                self.counters["adopted"] += 1
            for key in self.store_counters:
                try:
                    self.store_counters[key] += int(metrics.get(key, 0) or 0)
                except (TypeError, ValueError):
                    pass
            self._settle(job, "done")

    def _finalize_failed(
        self, job: ServeJob, error: str, state: str = "failed"
    ) -> None:
        """Publish a job that ended without a result (*state* ``failed``
        or ``timeout``)."""
        with self._lock:
            job.error = error
            self._settle(job, state)

    def _settle(self, job: ServeJob, state: str) -> None:
        """Publish *job*'s terminal *state*, count it, and take it out of
        flight (releasing its coalescing key).  The caller holds the lock."""
        job.state = state
        job.finished_at = time.time()
        self.jobs[job.job_id] = job
        self._in_flight.pop(job.job_id, None)
        self.counters["completed" if state == "done" else state] += 1

    # -- polling ----------------------------------------------------------

    def job_status(self, job_id: str) -> tuple[int, dict]:
        with self._lock:
            job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": "unknown-job", "job_id": job_id}
        if job.status == "queued" and job.future is not None and job.overdue:
            # Typed timeout even before the supervisor reaches the job:
            # the cancellation settles it (see _settled).
            job.future.cancel()
        payload = {
            "job_id": job.job_id,
            "status": job.status,
            "cached": job.cached,
            "cache_key": job.key,
            "submitted_at": job.submitted_at,
            "deadline_at": job.deadline_at,
            "coalesced": job.coalesced,
        }
        progress = self._read_progress(job)
        if progress:
            payload["progress"] = progress
        if job.result is not None:
            payload["result"] = job.result
        if job.error is not None:
            payload["error"] = job.error
        return 200, payload

    @staticmethod
    def _read_progress(job: ServeJob) -> list[dict]:
        """Parse the worker's progress feed (torn tail tolerated)."""
        path = job.workdir / "progress.jsonl"
        events: list[dict] = []
        try:
            with open(path, "r", encoding="utf-8") as fp:
                for line in fp:
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(event, dict):
                        events.append(event)
        except OSError:
            return []
        return events

    # -- observability ----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            jobs = dict(self.counters)
            running = sum(j.status == "running" for j in self._in_flight.values())
            jobs["queued"] = len(self._in_flight) - running
            jobs["running"] = running
            store = dict(self.store_counters)
        store["path"] = self.npn_store
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "draining": self.draining.is_set(),
            "queue_limit": self.queue_limit,
            "workers": self.num_workers,
            "jobs": jobs,
            "cache": self.cache.stats(),
            "npn_store": store,
        }

    # -- drain ------------------------------------------------------------

    def initiate_drain(self) -> None:
        """Stop admitting; ``/readyz`` flips to 503 immediately."""
        self.draining.set()

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for running jobs to finish; journal stragglers.

        Jobs that have not started are cancelled at once (they stay
        journaled for the next start: drain means "stop working", not
        "forget accepted work").  Returns True when every running job
        finished within *timeout*; False when the drain grace expired and
        the supervisor was asked to shut down (its jobs are journaled
        resumable — nothing is lost, the next start picks them up).
        """
        self.initiate_drain()
        with self._lock:
            futures = [job.future for job in self._in_flight.values() if job.future]
        for future in futures:
            future.cancel()  # only what has not started
        running = wait(futures, timeout).not_done
        self.supervisor.request_shutdown()
        self.supervisor.close()
        return not running


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the :class:`OptimizationService`."""

    service: OptimizationService  # injected by ServeDaemon
    verbose = False
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two sends; with Nagle's algorithm on,
    # the body waits for the client's delayed ACK (~40 ms per response).
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # noqa: D102 - quiet by default
        if self.verbose:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _send(self, code: int, payload: dict, extra_headers=()) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send(200, {"status": "ok"})
        elif path == "/readyz":
            if self.service.draining.is_set():
                self._send(503, {"status": "draining"})
            else:
                self._send(200, {"status": "ready"})
        elif path == "/stats":
            self._send(200, self.service.stats())
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            code, payload = self.service.job_status(job_id)
            self._send(code, payload)
        else:
            self._send(404, {"error": "not-found", "path": path})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/jobs":
            self._send(404, {"error": "not-found", "path": path}, _CLOSE)
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would read to end-of-file, past the body cap.
            self._send(400, {"error": "bad-request", "detail": "bad Content-Length"},
                       _CLOSE)
            return
        if length > MAX_BODY_BYTES:
            self._send(413, {"error": "too-large", "limit_bytes": MAX_BODY_BYTES},
                       _CLOSE)
            return
        try:
            body = self.rfile.read(length)
            request = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError, OSError):
            self._send(400, {"error": "bad-request", "detail": "body is not JSON"})
            return
        code, payload = self.service.submit(request)
        headers = ()
        if code == 429:
            headers = (("Retry-After", str(payload.get("retry_after", 1))),)
        self._send(code, payload, headers)


class ServeDaemon:
    """A :class:`ThreadingHTTPServer` bound to an :class:`OptimizationService`."""

    def __init__(
        self, service: OptimizationService, host: str = "127.0.0.1", port: int = 0,
        verbose: bool = False,
    ) -> None:
        handler = type(
            "BoundHandler", (_Handler,), {"service": service, "verbose": verbose}
        )
        self.service = service
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def start(self) -> None:
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="serve-http", daemon=True
        )
        self._thread.start()

    def stop(self, drain_grace: float | None = None) -> bool:
        """Drain the service, stop the listener; True on a clean drain."""
        clean = self.service.drain(timeout=drain_grace)
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.httpd.server_close()
        self.service.close()
        return clean


def run_server(
    workdir: str | Path,
    host: str = "127.0.0.1",
    port: int = 8731,
    drain_grace: float = 30.0,
    verbose: bool = False,
    **options,
) -> int:
    """Blocking entry point behind ``migopt serve``.

    *options* are :class:`OptimizationService`'s (``num_workers``,
    ``queue_limit``, ``default_verify``, ...).  Runs until SIGTERM/SIGINT,
    then drains: admission stops, in-flight jobs get *drain_grace*
    seconds to finish (stragglers are journaled resumable), the stats
    snapshot is flushed, and the process exits 0.  A failure of the
    supervisor's loop stops admission and drains the same way, and the
    process exits 1, for its process supervisor to restart it.
    """
    arm_from_env()
    service = OptimizationService(workdir, verbose=verbose, **options)
    daemon = ServeDaemon(service, host, port, verbose=verbose)

    def _handle(signum, frame):  # noqa: ARG001 - signal API
        # Every signal asks for the same drain; a repeat changes nothing.
        service.initiate_drain()

    with handle_signals(_handle):
        daemon.start()
        bound_host, bound_port = daemon.httpd.server_address[:2]
        print(
            f"migopt serve: listening on http://{bound_host}:{bound_port} "
            f"(workdir {service.workdir}, {service.num_workers} workers, "
            f"queue limit {service.queue_limit})",
            flush=True,
        )
        service.draining.wait()
        failed = service.supervisor.closed  # a drain has not closed it yet
        if failed:
            print("migopt serve: the supervisor failed", flush=True)
        print("migopt serve: draining...", flush=True)
        clean = daemon.stop(drain_grace=drain_grace)
        print(
            "migopt serve: drained "
            + ("cleanly" if clean else "with journaled stragglers"),
            flush=True,
        )
    return 1 if failed else 0
