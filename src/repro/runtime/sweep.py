"""Sweeps: a declarative scenario matrix run as one supervised batch.

A *sweep* is the tier above a batch: the cross product of
``instances × scripts × cut sizes × SAT backends × budgets`` expands to
:class:`~repro.runtime.jobs.JobSpec` cells whose job ids *are* the
scenario ids, and :func:`run_sweep` runs them on the caller's
:class:`~repro.runtime.supervisor.Supervisor`:

1. the spec expands to its cells; a duplicate scenario id is refused
   before anything is written;
2. the spec is written atomically to ``workdir/sweep.json`` before
   anything runs, so ``migopt sweep --resume`` needs no ``--spec``;
3. one :meth:`~repro.runtime.supervisor.Supervisor.run` runs the cells.
   The batch journal gives the sweep exactly-once resume, the retry
   ladder, the watchdog, orphan cleanup and result adoption;
4. unless the run was interrupted, every completed cell is published
   as a trend row to a standing matrix file
   (``benchmarks/results/MATRIX.jsonl``; see ``tools/matrix_report.py``).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .artifacts import atomic_write_text
from .codec import Record
from .errors import ReproRuntimeError
from .jobs import NETWORK_KINDS, BatchReport, JobSpec, append_record, open_log
from .supervisor import Supervisor

__all__ = [
    "SweepSpec",
    "SweepConflictError",
    "expand_sweep",
    "run_sweep",
    "matrix_rows",
    "publish_matrix",
]


class SweepConflictError(ReproRuntimeError):
    """Two cells of one sweep expand to the same scenario id."""


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
    a slug, say) is refused up front, because one journal cannot hold
    two jobs under one id.
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


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


@dataclass
class SweepRun:
    """What :func:`run_sweep` returns."""

    report: BatchReport
    matrix_path: Path | None = None
    published_rows: int = 0


def run_sweep(
    supervisor: Supervisor,
    spec: SweepSpec | None = None,
    resume: bool = False,
    matrix_path: str | Path | None = None,
) -> SweepRun:
    """Run one sweep as one batch on *supervisor*; returns the run.

    A workdir that already holds ``sweep.json`` is refused without
    *resume* (:class:`FileExistsError`); with it, *spec* may be omitted
    and the persisted one is used.  Every cell writes its optimized
    network to ``workdir/outputs/<scenario>.blif``.  A shutdown request
    on *supervisor* drains the batch resumably; an interrupted run
    publishes no trend rows.
    """
    state_path = supervisor.workdir / "sweep.json"
    if state_path.exists() and not resume:
        raise FileExistsError(
            f"{state_path} already exists; pass resume=True "
            "(or --resume) to continue it, or use a fresh workdir"
        )
    if spec is None:
        if not state_path.exists():
            raise FileNotFoundError(
                f"{state_path} does not exist; a fresh sweep needs a spec"
            )
        state = json.loads(state_path.read_text(encoding="utf-8"))
        spec = SweepSpec.from_dict(state["spec"])
    outputs = supervisor.workdir / "outputs"
    jobs = [
        replace(job, output=str(outputs / f"{job.job_id}.blif"))
        for job in expand_sweep(spec)
    ]
    supervisor.workdir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        state_path,
        json.dumps({"name": spec.name, "spec": spec.to_dict()},
                   sort_keys=True, indent=2) + "\n",
    )
    report = supervisor.run(jobs, resume=resume)

    run = SweepRun(report=report)
    if matrix_path is not None and not report.interrupted:
        rows = matrix_rows(report, spec.name, {job.job_id: job for job in jobs})
        run.published_rows = publish_matrix(matrix_path, rows)
        run.matrix_path = Path(matrix_path)
    return run


# ----------------------------------------------------------------------
# the standing matrix
# ----------------------------------------------------------------------


def matrix_rows(
    report: BatchReport,
    sweep_name: str,
    specs_by_id: dict[str, JobSpec],
    ts: float | None = None,
) -> list[dict]:
    """Trend rows for every completed cell of a sweep report."""
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
    """Append *rows* to the standing matrix JSONL, each fsynced.

    Append-only: history is the point (``tools/matrix_report.py`` reads
    trends from successive entries for the same scenario).  Returns the
    number of rows written.
    """
    if not rows:
        return 0
    with open_log(path) as fp:
        for row in rows:
            append_record(fp, row)
    return len(rows)
