"""Micro-benchmark for the serving tier's cache and admission path.

Quantifies the claim behind ``migopt serve``: for duplicate-laden
request streams, the content-addressed result cache turns repeated
optimizations into disk lookups.  Three measurements against an
in-process :class:`repro.runtime.serve.OptimizationService`:

* **cold** — submit a network, run the full supervised optimization
  (worker subprocess, per-step verification), and time acceptance to
  completion.  The first cold job of a service also starts the fork
  server every worker is forked from, so it alone pays for interpreter
  start-up and ``import repro``; later cold jobs pay for a fork;
* **hit** — resubmit the identical request and time the synchronous
  cached answer (the entire request→hash→lookup→respond path);
* **ingest** — the daemon-side request overhead alone (parse + canonical
  structural hash + cache probe) for a never-cached network, i.e. what
  admission costs before any optimization runs.

Writes ``BENCH_serve.json`` and prints a table with the cold/hit
speedup.  No checked-in baseline: the interesting number (speedup) is
self-relative, so runner noise cancels out of the headline.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full run
    PYTHONPATH=src python benchmarks/bench_serve.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.runtime.serve import OptimizationService

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: (label, request) pairs; widths sized for minutes-not-hours runtimes.
CASES = [
    ("adder-w8", {"network": {"generate": "adder", "width": 8}}),
    ("max-w6", {"network": {"generate": "max", "width": 6}}),
    ("sine-w6", {"network": {"generate": "sine", "width": 6}}),
]
QUICK_CASES = [
    ("adder-w4", {"network": {"generate": "adder", "width": 4}}),
    ("max-w5", {"network": {"generate": "max", "width": 5}}),
]


def _wait_done(service: OptimizationService, job_id: str, timeout=600) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, status = service.job_status(job_id)
        if status["status"] in ("done", "failed", "timeout"):
            if status["status"] != "done":
                raise RuntimeError(f"job {job_id} ended {status['status']}: "
                                   f"{status.get('error')}")
            return status
        time.sleep(0.05)
    raise RuntimeError(f"job {job_id} did not finish within {timeout}s")


def bench_case(service: OptimizationService, label: str, request: dict) -> dict:
    body = dict(request)
    body.setdefault("script", ["BF"])
    body.setdefault("verify", "sim")

    start = time.perf_counter()
    code, accepted = service.submit(dict(body))
    if code != 202:
        raise RuntimeError(f"{label}: submit returned {code}: {accepted}")
    status = _wait_done(service, accepted["job_id"])
    cold = time.perf_counter() - start

    start = time.perf_counter()
    code, hit = service.submit(dict(body))
    hit_time = time.perf_counter() - start
    if code != 200 or not hit.get("cached"):
        raise RuntimeError(f"{label}: resubmission missed the cache: {hit}")

    # Ingest overhead: a distinct (never-cached) spec of the same
    # network exercises parse + hash + cache probe without a hit.  The
    # zero deadline makes the accepted job lapse in the queue instead of
    # burning a worker, so it cannot pollute later cold measurements.
    probe = dict(body)
    probe["deadline"] = 0.0  # changes the request key, not the parse cost
    start = time.perf_counter()
    service.submit(probe)
    ingest = time.perf_counter() - start

    result = status["result"]
    return {
        "label": label,
        "size_before": result["size_before"],
        "size_after": result["size_after"],
        "cold_seconds": round(cold, 4),
        "hit_seconds": round(hit_time, 6),
        "ingest_seconds": round(ingest, 6),
        "speedup": round(cold / hit_time, 1) if hit_time > 0 else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small cases for CI")
    parser.add_argument("-o", "--output", default=None,
                        help="result JSON path (default: results/BENCH_serve.json)")
    args = parser.parse_args(argv)

    cases = QUICK_CASES if args.quick else CASES
    rows = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        service = OptimizationService(Path(tmp) / "serve", num_workers=1,
                                      queue_limit=len(cases) + 1)
        service.start()
        try:
            for label, request in cases:
                rows.append(bench_case(service, label, request))
                print(f"{label:12} {rows[-1]['size_before']:>5} -> "
                      f"{rows[-1]['size_after']:>5} gates   "
                      f"cold {rows[-1]['cold_seconds']:>8.3f}s   "
                      f"hit {rows[-1]['hit_seconds'] * 1000:>7.2f}ms   "
                      f"ingest {rows[-1]['ingest_seconds'] * 1000:>7.2f}ms   "
                      f"{rows[-1]['speedup']:>7.1f}x")
        finally:
            service.drain(timeout=30.0)
            service.close()

    payload = {
        "benchmark": "serve",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "cases": rows,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = Path(args.output) if args.output else RESULTS_DIR / "BENCH_serve.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
