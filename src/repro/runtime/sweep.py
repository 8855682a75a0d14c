"""Sharded multi-host sweeps over a declarative scenario matrix.

A *sweep* is the tier above a batch: the cross product of
``instances × scripts × cut sizes × SAT backends × budgets`` expands to
:class:`~repro.runtime.jobs.JobSpec` cells, the cells are partitioned
into per-host **journal shards** (``shard-<host>/journal.jsonl`` — each
shard is a complete, self-contained ``migopt batch`` workdir), and every
shard runs as one independent ``migopt batch --shard`` invocation
scheduled through a :class:`~repro.runtime.executors.ShardExecutor`
(local subprocess per host by default; ``$REPRO_SWEEP_HOSTS`` command
templates, e.g. ``ssh``, for real fleets).

The exactly-once semantics come for free from PR 3's journal: a shard
owns its jobs' journal, so killing any shard — or the coordinator — and
re-running ``migopt sweep --resume`` completes every cell exactly once.
The coordinator's own durable state is one atomic file, ``sweep.json``
(spec + host assignment), written *before* any shard launches, so a
crashed coordinator recomputes nothing: resumed shards keep the jobs
they were assigned.

Merging replays each shard journal into a per-shard
:class:`~repro.runtime.jobs.BatchReport` and folds them with
:meth:`~repro.runtime.jobs.BatchReport.merge_shard` (slot utilization
namespaced per shard), with

* **conflict detection** — one job id claimed by two shard journals is a
  :class:`SweepConflictError`, never a silent double count;
* **exactly-once artifact adoption** — a job left ``running`` by a dead
  shard whose result artifact is already on disk and valid is adopted as
  ``done`` (and the adoption journaled durably), not re-run;
* **provenance** — merged :class:`~repro.runtime.metrics.PassMetrics`
  and per-shard summaries in ``BatchReport.shards``.

Completed cells are published as trend rows to a standing matrix file
(``benchmarks/results/MATRIX.jsonl``; see ``tools/matrix_report.py``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .artifacts import atomic_write_text
from .codec import Record
from .errors import ReproRuntimeError
from .executors import ExecutorTask, HostSpec, ShardExecutor, child_env, parse_hosts
from .jobs import (
    NETWORK_KINDS,
    BatchReport,
    JobJournal,
    JobSpec,
    adopt_result,
    job_summary,
)

__all__ = [
    "SweepSpec",
    "SweepConflictError",
    "expand_sweep",
    "assign_shards",
    "shard_dir",
    "run_sweep",
    "merge_sweep",
    "matrix_rows",
    "publish_matrix",
]

#: coordinator tick while shards run
_POLL_INTERVAL = 0.1


class SweepConflictError(ReproRuntimeError):
    """One job id appears in more than one shard journal."""


# ----------------------------------------------------------------------
# the declarative matrix
# ----------------------------------------------------------------------


def _normalize_scripts(scripts) -> tuple[tuple[str, ...], ...]:
    """Step tuples; a script may also be written as a ``"step,step"`` string."""
    return tuple(
        tuple(step for step in script.split(",") if step)
        if isinstance(script, str)
        else tuple(str(step) for step in script)
        for script in scripts
    )


@dataclass(frozen=True)
class SweepSpec(Record):
    """A declarative scenario matrix.

    ``instances`` entries locate circuits the way job specs do
    (``{"generate": name, "width": w}`` / ``{"blif": path}`` /
    ``{"bench": path}``) and may override any axis locally (``"scripts"``,
    ``"cut_sizes"``, ``"sat_backends"``, ``"conflict_limits"``) or name
    themselves (``"slug"``) — that is how a round-trip scenario rides in
    one sweep with plain rewriting scenarios.  Axis values multiply; one
    cell becomes one :class:`JobSpec` whose id *is* the scenario id::

        <slug>.<step+step>.c<cut>.<backend>[.k<conflicts>]
    """

    name: str
    instances: tuple[dict, ...]
    scripts: tuple[tuple[str, ...], ...] = (("BF",),)
    cut_sizes: tuple[int, ...] = (4,)
    sat_backends: tuple[str, ...] = ("internal",)
    conflict_limits: tuple[int | None, ...] = (None,)
    verify: str = "sim"
    time_limit: float | None = None
    mem_limit_mb: int | None = None
    npn_store: str | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        if "instances" not in data or not data["instances"]:
            raise ValueError("sweep spec needs a non-empty 'instances' list")
        data = {"name": "sweep", **data}
        if "scripts" in data:
            data["scripts"] = _normalize_scripts(data["scripts"])
        return super().from_dict(data)


_AXIS_KEYS = ("scripts", "cut_sizes", "sat_backends", "conflict_limits", "slug")


def _instance_slug(inst: dict) -> str:
    if inst.get("slug"):
        return str(inst["slug"])
    if "generate" in inst:
        name = str(inst["generate"])
        width = inst.get("width")
        return name if width is None else f"{name}-w{int(width)}"
    for key in NETWORK_KINDS:
        if key in inst:
            return Path(str(inst[key])).stem
    raise ValueError(f"sweep instance {inst!r} names no circuit source")


def _instance_network(inst: dict) -> dict:
    network = {k: v for k, v in inst.items() if k not in _AXIS_KEYS}
    if not any(key in network for key in NETWORK_KINDS):
        raise ValueError(f"sweep instance {inst!r} names no circuit source")
    return network


def expand_sweep(spec: SweepSpec) -> list[JobSpec]:
    """Expand the matrix to one :class:`JobSpec` per cell.

    Scenario ids double as job ids; a collision (two instances sharing
    a slug, say) is refused up front — duplicate ids across shards are
    exactly the conflict the merge step must never see.
    """
    jobs: list[JobSpec] = []
    seen: set[str] = set()
    for inst in spec.instances:
        slug = _instance_slug(inst)
        network = _instance_network(inst)
        # Axis overrides decode exactly like the spec's own axes.
        overrides = {key: inst[key] for key in _AXIS_KEYS if key in inst}
        axes = SweepSpec.from_dict({**spec.to_dict(), **overrides})
        for script in axes.scripts:
            if not script:
                raise ValueError(f"empty script in sweep instance {inst!r}")
            for cut in axes.cut_sizes:
                for backend in axes.sat_backends:
                    for climit in axes.conflict_limits:
                        job_id = f"{slug}.{'+'.join(script)}.c{cut}.{backend}"
                        if climit is not None:
                            job_id += f".k{climit}"
                        if job_id in seen:
                            raise SweepConflictError(
                                f"duplicate scenario id {job_id!r} in sweep "
                                f"{spec.name!r}; give the instances distinct "
                                "'slug' values"
                            )
                        seen.add(job_id)
                        jobs.append(JobSpec(
                            job_id=job_id,
                            network=network,
                            script=script,
                            verify=spec.verify,
                            sat_backend=backend,
                            time_limit=spec.time_limit,
                            conflict_limit=climit,
                            cut_size=None if cut == 4 else cut,
                            npn_store=spec.npn_store if cut != 4 else None,
                            mem_limit_mb=spec.mem_limit_mb,
                        ))
    return jobs


def assign_shards(
    job_ids: list[str],
    hosts: list[HostSpec],
    existing: dict[str, str] | None = None,
) -> dict[str, str]:
    """Deterministic round-robin job→host assignment.

    *existing* assignments are kept verbatim (a resumed sweep must not
    move jobs between shards — their journals own them); only new jobs
    are balanced onto the least-loaded hosts.
    """
    assignment = dict(existing or {})
    names = [host.name for host in hosts]
    load = {name: 0 for name in names}
    for host in assignment.values():
        if host in load:
            load[host] += 1
    for job_id in job_ids:
        if job_id in assignment:
            continue
        target = min(names, key=lambda name: (load[name], names.index(name)))
        assignment[job_id] = target
        load[target] += 1
    return assignment


def shard_dir(workdir: str | Path, host: str) -> Path:
    return Path(workdir) / f"shard-{host}"


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------


def _state_path(workdir: Path) -> Path:
    return workdir / "sweep.json"


def _load_state(workdir: Path) -> dict | None:
    path = _state_path(workdir)
    if not path.exists():
        return None
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def _shard_argv(
    directory: Path,
    jobs_per_shard: int,
    grace: float,
    max_attempts: int,
    backoff_base: float,
) -> tuple[str, ...]:
    return (
        sys.executable, "-m", "repro.cli", "batch",
        "--shard",
        "--workdir", str(directory),
        "--jobs", str(jobs_per_shard),
        "--grace", str(grace),
        "--max-attempts", str(max_attempts),
        "--backoff", str(backoff_base),
    )


def _shard_unfinished(directory: Path) -> list[str]:
    """Job ids in the shard journal that are not yet terminal."""
    replay = JobJournal.replay(directory / "journal.jsonl")
    return [
        job_id for job_id in replay.order
        if replay.records[job_id].state not in ("done", "quarantined")
    ]


@dataclass
class _ShardState:
    host: HostSpec
    directory: Path
    attempts: int = 0
    running: bool = False
    finished: bool = False


@dataclass
class SweepRun:
    """Everything :func:`run_sweep` persists or returns."""

    report: BatchReport
    workdir: Path
    hosts: list[str] = field(default_factory=list)
    assignment: dict[str, str] = field(default_factory=dict)
    matrix_path: Path | None = None
    published_rows: int = 0


def run_sweep(
    workdir: str | Path,
    spec: SweepSpec | None = None,
    hosts: list[HostSpec] | None = None,
    shards: int = 2,
    jobs_per_shard: int = 1,
    resume: bool = False,
    grace: float = 2.0,
    max_attempts: int = 3,
    backoff_base: float = 0.5,
    shard_attempts: int = 3,
    matrix_path: str | Path | None = None,
    shutdown_check=None,
    verbose: bool = False,
) -> SweepRun:
    """Expand, shard, run, and merge one sweep; returns the merged run.

    Crash points and their recovery, in order:

    * before ``sweep.json`` lands — nothing happened, re-run plain;
    * after ``sweep.json``, before/while shards ran — ``resume=True``
      reuses the persisted assignment; shard journals make every cell
      exactly-once regardless of which shard or coordinator died;
    * a shard process dies (or exits with unfinished jobs) — it is
      relaunched with ``--shard`` (journal resume) up to
      *shard_attempts* times before the sweep reports it unfinished.

    *shutdown_check* is polled each tick (the CLI passes the SIGINT
    flag): when it returns True the shards are drained — each ``migopt
    batch --shard`` drains its own workers on SIGTERM — and the merged
    report is flagged ``interrupted``.
    """
    workdir = Path(workdir)
    state = _load_state(workdir)
    if state is not None and not resume:
        raise FileExistsError(
            f"{_state_path(workdir)} already exists; pass resume=True "
            "(or --resume) to continue it, or use a fresh workdir"
        )
    if state is None and spec is None:
        raise ValueError("a fresh sweep needs a SweepSpec")

    if state is not None:
        persisted_spec = SweepSpec.from_dict(state["spec"])
        if spec is None:
            spec = persisted_spec
        hosts = [
            HostSpec(
                name=entry["name"],
                template=tuple(entry["template"]) if entry.get("template") else None,
            )
            for entry in state["hosts"]
        ]
        assignment: dict[str, str] = dict(state["assignment"])
    else:
        assignment = {}
        if hosts is None:
            hosts = parse_hosts(default_shards=shards)

    jobs = expand_sweep(spec)
    by_id = {job.job_id: job for job in jobs}
    assignment = assign_shards([job.job_id for job in jobs], hosts, assignment)

    # Durably fix the plan before anything runs: a coordinator killed at
    # any later instant recomputes nothing on --resume.
    workdir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        _state_path(workdir),
        json.dumps({
            "name": spec.name,
            "spec": spec.to_dict(),
            "hosts": [
                {"name": host.name,
                 "template": list(host.template) if host.template else None}
                for host in hosts
            ],
            "assignment": assignment,
        }, sort_keys=True, indent=2) + "\n",
    )

    # Pre-submit every cell into its shard journal (idempotent: known
    # job ids are skipped), so `migopt batch --shard` needs no job list.
    shard_states: dict[str, _ShardState] = {}
    for host in hosts:
        directory = shard_dir(workdir, host.name)
        shard_states[host.name] = _ShardState(host=host, directory=directory)
        shard_jobs = [
            by_id[job_id] for job_id, target in assignment.items()
            if target == host.name and job_id in by_id
        ]
        if not shard_jobs and not (directory / "journal.jsonl").exists():
            shard_states[host.name].finished = True
            continue
        directory.mkdir(parents=True, exist_ok=True)
        replay = JobJournal.replay(directory / "journal.jsonl")
        with JobJournal(directory / "journal.jsonl") as journal:
            for job in shard_jobs:
                if job.job_id in replay.records:
                    continue
                journal.submit(replace(
                    job, output=str(directory / "outputs" / f"{job.job_id}.blif")
                ))

    executor = ShardExecutor(hosts, grace=max(grace, 5.0))
    env = child_env()
    interrupted = False
    try:
        while True:
            if shutdown_check is not None and shutdown_check():
                interrupted = True
                executor.drain()
                break
            progressed = False
            for name, shard in shard_states.items():
                if shard.running or shard.finished:
                    continue
                if (
                    not _shard_unfinished(shard.directory)
                    or shard.attempts >= shard_attempts
                ):
                    shard.finished = True
                    progressed = True
                    continue
                task = ExecutorTask(
                    task_id=name,
                    argv=_shard_argv(shard.directory, jobs_per_shard, grace,
                                     max_attempts, backoff_base),
                    env=env,
                    log_path=str(workdir / "logs" / f"shard-{name}.log"),
                    host=name,
                )
                if not executor.has_capacity(task):
                    continue
                shard.attempts += 1
                shard.running = True
                executor.submit(task)
                progressed = True
                if verbose:
                    print(f"[sweep] launch shard {name} "
                          f"attempt {shard.attempts}")
            for task_exit in executor.poll():
                shard = shard_states[str(task_exit.slot)]
                shard.running = False
                if not _shard_unfinished(shard.directory):
                    shard.finished = True
                elif shard.attempts >= shard_attempts:
                    shard.finished = True
                    if verbose:
                        print(f"[sweep] shard {shard.host.name} gave up after "
                              f"{shard.attempts} attempts "
                              f"(exit {task_exit.returncode})")
                progressed = True
            if all(s.finished and not s.running for s in shard_states.values()):
                break
            if not progressed:
                time.sleep(_POLL_INTERVAL)
    finally:
        executor.close()

    report = merge_sweep(workdir, [host.name for host in hosts])
    report.interrupted = report.interrupted or interrupted
    atomic_write_text(
        workdir / "report.json",
        json.dumps(report.to_dict(), sort_keys=True) + "\n",
    )

    run = SweepRun(
        report=report,
        workdir=workdir,
        hosts=[host.name for host in hosts],
        assignment=assignment,
    )
    if matrix_path is not None and not report.interrupted:
        rows = matrix_rows(report, spec.name, by_id)
        publish_matrix(matrix_path, rows)
        run.matrix_path = Path(matrix_path)
        run.published_rows = len(rows)
    return run


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------


def _shard_report_from_journal(directory: Path) -> BatchReport:
    """Rebuild a shard's outcome from its journal (the source of truth).

    ``report.json`` is preferred for *utilization* (slots, wall time)
    when the shard finished cleanly, but job states always come from the
    journal — a SIGKILLed shard has no report, and a stale one must not
    shadow newer journal events.  A job left ``running`` by a dead shard
    whose result artifact validates is adopted here, durably: the
    adoption event is appended to the shard journal first, so a later
    resume or re-merge counts it done exactly once.
    """
    journal_path = directory / "journal.jsonl"
    replay = JobJournal.replay(journal_path)
    records = [replay.records[job_id] for job_id in replay.order]
    running = [record for record in records if record.state == "running"]
    if running:
        with JobJournal(journal_path) as journal:
            for record in running:
                adopt_result(
                    journal, record,
                    directory / "results" / f"{record.spec.job_id}.json",
                    adopted=True,
                )
    report = BatchReport(total=len(records))
    for record in records:
        report.jobs.append(job_summary(record))
        report.count_journaled(record)

    report_path = directory / "report.json"
    if report_path.exists():
        try:
            persisted = BatchReport.from_dict(
                json.loads(report_path.read_text(encoding="utf-8"))
            )
        except (ValueError, OSError, KeyError, TypeError):
            persisted = None
        if persisted is not None:
            report.jobs_per_slot = dict(persisted.jobs_per_slot)
            report.max_concurrent = persisted.max_concurrent
            report.wall_seconds = persisted.wall_seconds
            report.retries = persisted.retries
            report.failed_attempts = persisted.failed_attempts
    return report


def merge_sweep(workdir: str | Path, hosts: list[str]) -> BatchReport:
    """Merge every shard of *workdir* into one report, exactly once.

    Raises :class:`SweepConflictError` when a job id appears in more
    than one shard journal — two shards both claiming a cell means the
    assignment was corrupted, and silently keeping either result would
    hide it.
    """
    merged = BatchReport()
    owner: dict[str, str] = {}
    for host in hosts:
        directory = shard_dir(workdir, host)
        if not (directory / "journal.jsonl").exists():
            continue
        shard_report = _shard_report_from_journal(directory)
        for summary in shard_report.jobs:
            job_id = summary["job_id"]
            if job_id in owner:
                raise SweepConflictError(
                    f"job {job_id!r} claimed by shards {owner[job_id]!r} "
                    f"and {host!r}; shard journals must partition the sweep"
                )
            owner[job_id] = host
        merged.merge_shard(host, shard_report)
    return merged


# ----------------------------------------------------------------------
# the standing matrix
# ----------------------------------------------------------------------


def matrix_rows(
    report: BatchReport,
    sweep_name: str,
    specs_by_id: dict[str, JobSpec],
    ts: float | None = None,
) -> list[dict]:
    """Trend rows for every completed cell of a merged sweep report."""
    if ts is None:
        ts = time.time()
    rows: list[dict] = []
    for summary in report.jobs:
        if summary.get("state") != "done":
            continue
        job_id = summary["job_id"]
        spec = specs_by_id.get(job_id)
        steps = summary.get("steps", [])
        row = {
            "ts": round(ts, 3),
            "sweep": sweep_name,
            "scenario": job_id,
            "shard": summary.get("shard"),
            "size_before": summary.get("size_before"),
            "size_after": summary.get("size_after"),
            "depth_before": summary.get("depth_before"),
            "depth_after": summary.get("depth_after"),
            "runtime": summary.get("runtime"),
            "verify": summary.get("verify"),
            "verified": (
                summary.get("verify") not in (None, "off")
                and all(step.get("status") == "ok" for step in steps)
            ),
        }
        if spec is not None:
            row["network"] = dict(spec.network)
            row["script"] = list(spec.script)
            row["cut_size"] = spec.cut_size if spec.cut_size is not None else 4
            row["sat_backend"] = spec.sat_backend
            row["conflict_limit"] = spec.conflict_limit
        rows.append(row)
    return rows


def publish_matrix(path: str | Path, rows: list[dict]) -> int:
    """Append *rows* to the standing matrix JSONL, fsynced (append-only:
    history is the point — ``tools/matrix_report.py`` reads trends from
    successive entries for the same scenario)."""
    if not rows:
        return 0
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "ab") as fp:
        for row in rows:
            fp.write((json.dumps(row, sort_keys=True) + "\n").encode("utf-8"))
        fp.flush()
        os.fsync(fp.fileno())
    return len(rows)
