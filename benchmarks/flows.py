"""The shared Table III / Table IV experiment flow.

Reproduces the paper's experimental setup: each arithmetic benchmark is
first brought to a "heavily optimized" state with the algebraic depth
optimization of refs [3]/[4] (the paper starts from the best-known MIGs,
which were produced by exactly that flow), then every functional-hashing
variant of Sec. V-C is applied once, as in the paper ("we have performed
the functional hashing algorithm only once").

The per-(instance, variant) optimizations run through the supervised
batch runtime (`repro.runtime.supervisor`): each is an isolated worker
subprocess scheduled from a crash-safe journal, so a pathological
instance cannot take down the whole table run, and the batch spreads
across `REPRO_BENCH_JOBS` workers (default: one per CPU, capped at 4).
Set ``REPRO_BENCH_JOBS=0`` to fall back to in-process execution.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from harness import PAPER_VARIANTS, full_size, write_json_result

from repro.core.mig import Mig
from repro.core.simulate import equivalent_random
from repro.generators.epfl import arithmetic_suite
from repro.io.blif import read_blif, write_blif
from repro.opt.depth_opt import optimize_depth
from repro.rewriting.engine import RewriteStats, functional_hashing
from repro.runtime.jobs import JobSpec
from repro.runtime.metrics import PassMetrics
from repro.runtime.supervisor import run_batch


@dataclass
class VariantResult:
    size: int
    depth: int
    runtime: float
    mig: Mig
    stats: RewriteStats


@dataclass
class BenchmarkRun:
    name: str
    baseline: Mig
    baseline_size: int
    baseline_depth: int
    variants: dict[str, VariantResult]


def _batch_jobs() -> int:
    """Worker count for the benchmark batch (0 = run in-process)."""
    value = os.environ.get("REPRO_BENCH_JOBS", "")
    if value:
        return max(0, int(value))
    return min(4, os.cpu_count() or 1)


def _baselines() -> dict[str, Mig]:
    return {
        name: optimize_depth(mig, rounds=2)
        for name, mig in arithmetic_suite(full_size=full_size()).items()
    }


def run_table3_flow(db, variants: tuple[str, ...] = PAPER_VARIANTS) -> list[BenchmarkRun]:
    """Generate, depth-optimize, and rewrite every suite instance."""
    baselines = _baselines()
    num_workers = _batch_jobs()
    if num_workers == 0:
        return _run_in_process(db, baselines, variants)
    return _run_supervised(baselines, variants, num_workers)


def _run_supervised(
    baselines: dict[str, Mig],
    variants: tuple[str, ...],
    num_workers: int,
) -> list[BenchmarkRun]:
    """One batch job per (instance, variant), isolated and journaled."""
    with tempfile.TemporaryDirectory(prefix="repro-table3-") as workdir:
        workdir = Path(workdir)
        inputs = workdir / "inputs"
        inputs.mkdir()
        specs = []
        for name, baseline in baselines.items():
            blif_path = inputs / f"{name}.blif"
            with open(blif_path, "w", encoding="utf-8") as fp:
                write_blif(baseline, fp)
            for variant in variants:
                job_id = f"{name}.{variant}"
                specs.append(
                    JobSpec(
                        job_id=job_id,
                        network={"blif": str(blif_path)},
                        script=(variant,),
                        verify="sim",
                        output=str(workdir / "outputs" / f"{job_id}.blif"),
                    )
                )
        report = run_batch(specs, workdir / "batch", num_workers=num_workers)
        write_json_result("table3_batch_report", report.to_dict())
        if report.done != report.total:
            quarantined = [
                job["job_id"] for job in report.jobs if job["state"] == "quarantined"
            ]
            raise AssertionError(
                f"batch finished {report.done}/{report.total} jobs; "
                f"quarantined: {quarantined}"
            )
        by_id = {job["job_id"]: job for job in report.jobs}

        runs = []
        for name, baseline in baselines.items():
            results: dict[str, VariantResult] = {}
            for variant in variants:
                job_id = f"{name}.{variant}"
                summary = by_id[job_id]
                with open(workdir / "outputs" / f"{job_id}.blif",
                          encoding="utf-8") as fp:
                    optimized = read_blif(fp)
                if not equivalent_random(baseline, optimized, num_rounds=4):
                    raise AssertionError(f"{name}/{variant} changed functionality")
                # The RT column of Table III times the rewriting pass, not
                # the worker's process overhead: use the step's runtime.
                step_runtime = sum(
                    step.get("runtime", 0.0) for step in summary.get("steps", [])
                )
                stats = RewriteStats(
                    variant=variant,
                    size_before=summary["size_before"],
                    depth_before=summary["depth_before"],
                    size_after=summary["size_after"],
                    depth_after=summary["depth_after"],
                    runtime=step_runtime or summary["runtime"],
                    metrics=PassMetrics.from_dict(summary.get("metrics", {})),
                )
                results[variant] = VariantResult(
                    optimized.num_gates, optimized.depth(), stats.runtime,
                    optimized, stats,
                )
            runs.append(
                BenchmarkRun(
                    name=name,
                    baseline=baseline,
                    baseline_size=baseline.num_gates,
                    baseline_depth=baseline.depth(),
                    variants=results,
                )
            )
        return runs


# ---------------------------------------------------------------------------
# the standing scenario matrix (`migopt sweep` / bench_matrix.py)
# ---------------------------------------------------------------------------

#: the sweep's instance axis: the 8 EPFL arithmetic instances at their
#: scaled benchmark widths, the 6 random/control instances, wider 64/128-bit
#: generator scenarios, and a mapped-then-reoptimized round trip — 18
#: scenarios per (script × cut × backend) cell.
STANDING_MATRIX_INSTANCES: tuple[dict, ...] = (
    # -- arithmetic half, scaled benchmark widths --
    {"generate": "adder", "width": 32},
    {"generate": "divisor", "width": 12},
    {"generate": "log2", "width": 10},
    {"generate": "max", "width": 24},
    {"generate": "multiplier", "width": 12},
    {"generate": "sine", "width": 10},
    {"generate": "square-root", "width": 10},
    {"generate": "square", "width": 14},
    # -- random/control half --
    {"generate": "arbiter", "width": 16},
    {"generate": "dec", "width": 5},
    {"generate": "int2float", "width": 8},
    {"generate": "priority", "width": 16},
    {"generate": "router"},
    {"generate": "voter", "width": 15},
    # -- 64/128-bit generator widths (linear-depth instances stay cheap) --
    {"generate": "adder", "width": 64},
    {"generate": "adder", "width": 128},
    {"generate": "priority", "width": 128},
    # -- mapped-then-reoptimized round trip --
    {
        "generate": "adder",
        "width": 32,
        "scripts": [["BF", "remap", "BF"]],
    },
)


def standing_sweep_spec(
    verify: str = "sim", time_limit: float | None = 600.0
) -> dict:
    """The standing matrix as a ``migopt sweep`` spec (JSON-ready dict).

    One ``BF`` cell per instance (the paper's best variant), every
    scenario sim-verified; the round-trip instance overrides its script
    axis locally.  ``bench_matrix.py`` runs it and appends trend rows to
    ``benchmarks/results/MATRIX.jsonl``.
    """
    return {
        "name": "standing-matrix",
        "instances": [dict(inst) for inst in STANDING_MATRIX_INSTANCES],
        "scripts": [["BF"]],
        "cut_sizes": [4],
        "verify": verify,
        "time_limit": time_limit,
    }


def _run_in_process(
    db, baselines: dict[str, Mig], variants: tuple[str, ...]
) -> list[BenchmarkRun]:
    """The pre-supervisor path, kept for REPRO_BENCH_JOBS=0 debugging."""
    runs = []
    for name, baseline in baselines.items():
        results: dict[str, VariantResult] = {}
        for variant in variants:
            optimized, stats = functional_hashing(
                baseline, db, variant, return_stats=True
            )
            if not equivalent_random(baseline, optimized, num_rounds=4):
                raise AssertionError(f"{name}/{variant} changed functionality")
            results[variant] = VariantResult(
                optimized.num_gates, optimized.depth(), stats.runtime, optimized,
                stats,
            )
        runs.append(
            BenchmarkRun(
                name=name,
                baseline=baseline,
                baseline_size=baseline.num_gates,
                baseline_depth=baseline.depth(),
                variants=results,
            )
        )
    return runs
