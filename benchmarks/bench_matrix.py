"""The standing scenario matrix — one supervised sweep into MATRIX.jsonl.

Runs the 18-scenario standing matrix (``flows.STANDING_MATRIX_INSTANCES``:
8 arithmetic + 6 random/control instances, 64/128-bit generator widths,
and a mapped-then-reoptimized round trip) as one sweep — one batch on
one :class:`~repro.runtime.supervisor.Supervisor` — and appends one
sim-verified trend row per scenario to
``benchmarks/results/MATRIX.jsonl``.  The file is append-only: each run
adds a generation, and ``tools/matrix_report.py`` renders the
per-scenario trend (and fails on a >5% quality regression against the
previous generation).

Environment knob: ``REPRO_BENCH_JOBS`` sets the worker count
(default: up to 4, one per core; 0 falls back to 2).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from flows import _batch_jobs, standing_sweep_spec
from harness import RESULTS_DIR

from repro.runtime.supervisor import Supervisor
from repro.runtime.sweep import SweepSpec, run_sweep

MATRIX_PATH = RESULTS_DIR / "MATRIX.jsonl"


def run_standing_matrix(matrix_path: Path = MATRIX_PATH):
    """Run the standing sweep; returns the :class:`SweepRun`."""
    spec = SweepSpec.from_dict(standing_sweep_spec())
    with tempfile.TemporaryDirectory(prefix="repro-matrix-") as workdir:
        supervisor = Supervisor(workdir, num_workers=_batch_jobs() or 2)
        return run_sweep(supervisor, spec=spec, matrix_path=matrix_path)


def test_standing_matrix(benchmark):
    run = benchmark.pedantic(run_standing_matrix, rounds=1, iterations=1)
    report = run.report
    print(
        f"\nstanding matrix: {report.done}/{report.total} scenarios done, "
        f"{report.quarantined} quarantined, {report.workers_used} workers, "
        f"{run.published_rows} trend rows -> {run.matrix_path}"
    )
    assert report.done == report.total, [
        job["job_id"] for job in report.jobs if job["state"] != "done"
    ]
    # Every published row carries a verification verdict (the acceptance
    # bar: each scenario CEC- or sim-verified).
    assert run.published_rows == report.total
