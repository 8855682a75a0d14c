"""Micro-benchmark for the persistent NPN-5 store and large-cut rewriting.

Two headline numbers for ``BENCH_npnstore.json``:

1. **Warm-store vs cold-synthesis lookup speedup.**  For every case the
   cut-function classes its flow actually encountered are resolved
   through a fresh :class:`DynamicDatabase` twice — once with no store
   attached (every class pays heuristic synthesis) and once against the
   populated store file (every class is a disk-tier probe).  Min-of-N
   per side, geomean across cases.  This is the quantity the store
   exists to improve: the second process to ever see a cut function
   should not pay for it again.

2. **cut_size=5 vs cut_size=4 size reduction on the Table III suite.**
   The same flow — converge the depth-optimized baseline under BF —
   runs once against the packaged exact NPN-4 database and once at
   ``cut_size=5`` through the full store lifecycle the PR ships:
   cold run populates the store, ``improve_store`` tightens the
   unproven entries in the background (the ``migopt db improve`` path),
   and the warm rerun harvests the improved witnesses.  Every cut-5
   result is asserted equivalent to its baseline.

Protocol notes: flows are deterministic, so sizes need no repetition;
only the lookup timings use the min-of-N cold protocol of
``bench_hotpath.py`` (fresh database per repetition, minimum kept).

Usage::

    PYTHONPATH=src python benchmarks/bench_npnstore.py           # full run
    PYTHONPATH=src python benchmarks/bench_npnstore.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_npnstore.py --check   # enforce floors

Exit status is non-zero in ``--check`` mode when the lookup-speedup
geomean falls below ``--min-warm-speedup`` (default 20x) or fewer than
``--min-wins`` cases see a strictly better cut-5 size.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

from repro.core.simulate import check_equivalence
from repro.database import NpnDatabase
from repro.database.store import NpnStore, improve_store
from repro.generators.epfl import arithmetic_suite
from repro.opt.depth_opt import optimize_depth
from repro.opt.flow import optimize_until_convergence
from repro.rewriting.dynamic_db import DynamicDatabase

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: the Table III instances (scaled widths; depth-optimized baselines as
#: in benchmarks/flows.py), in suite order
CASES = (
    "adder", "divisor", "log2", "max",
    "multiplier", "sine", "square-root", "square",
)

#: the CI smoke subset: cases whose improvement phase is sub-second
QUICK_CASES = ("adder", "max", "multiplier", "square")

#: always-on lookup case: random 5-var classes, synthesis-heavy enough
#: that the timing signal dwarfs canonization noise even in --quick
RANDOM_LOOKUP_CLASSES = 48


def geomean(values: list[float]) -> float | None:
    if not values:
        return None
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def time_lookups(tts: list[int], repeat: int, store_path: Path | None) -> float:
    """Min-of-N seconds to resolve *tts* through a fresh DynamicDatabase.

    A new database per repetition keeps the in-memory LRU cold, so the
    timing isolates the tier under test: heuristic synthesis with no
    store attached, the disk tier with ``store_path``.
    """
    best = None
    for _ in range(repeat):
        db = DynamicDatabase(num_vars=5, store=store_path)
        start = time.perf_counter()
        db.lookup_batch(tts)
        seconds = time.perf_counter() - start
        if store_path is not None:
            assert db.misses == 0, "warm store failed to cover its own classes"
            db.store.close()
        best = seconds if best is None else min(best, seconds)
    assert best is not None
    return best


def run_lookup_case(name: str, tts: list[int], repeat: int,
                    storedir: Path) -> dict:
    """Cold-synthesis vs warm-store resolution of one class set."""
    store_path = storedir / f"lookup-{name}.npn5"
    # Populate the store once (not timed), as the first process would.
    db = DynamicDatabase(num_vars=5, store=NpnStore.open(store_path, 5))
    db.lookup_batch(tts)
    db.store.close()
    cold = time_lookups(tts, repeat, None)
    warm = time_lookups(tts, repeat, store_path)
    return {
        "classes": len(set(tts)),
        "cold_seconds": round(cold, 5),
        "warm_seconds": round(warm, 5),
        "warm_speedup": round(cold / warm, 2),
    }


def run_quality_case(name: str, baseline, db4: NpnDatabase, budget: int,
                     storedir: Path) -> dict:
    """The same BF convergence flow at cut_size 4 and 5 (cold/warm)."""
    out4, _ = optimize_until_convergence(baseline, db4, variant="BF")

    store_path = storedir / f"{name}.npn5"
    cold_db = DynamicDatabase(num_vars=5, store=NpnStore.open(store_path, 5))
    start = time.perf_counter()
    cold, _ = optimize_until_convergence(
        baseline, cold_db, variant="BF", cut_size=5
    )
    cold_seconds = time.perf_counter() - start
    cold_db.store.close()

    store = NpnStore.open(store_path, 5)
    start = time.perf_counter()
    summary = improve_store(store, budget=budget)
    improve_seconds = time.perf_counter() - start

    warm_db = DynamicDatabase(num_vars=5, store=store)
    start = time.perf_counter()
    warm, _ = optimize_until_convergence(
        baseline, warm_db, variant="BF", cut_size=5
    )
    warm_seconds = time.perf_counter() - start
    store.close()

    assert check_equivalence(baseline, warm), f"{name}: cut-5 result diverges"
    return {
        "baseline_size": baseline.num_gates,
        "cut4_size": out4.num_gates,
        "cut5_cold_size": cold.num_gates,
        "cut5_warm_size": warm.num_gates,
        "cut5_wins": warm.num_gates < out4.num_gates,
        "cut4_reduction": round(1 - out4.num_gates / baseline.num_gates, 4),
        "cut5_reduction": round(1 - warm.num_gates / baseline.num_gates, 4),
        "classes_improved": summary["improved"],
        "classes_proven": summary["proven"],
        "improve_conflicts": summary["conflicts"],
        "cold_flow_seconds": round(cold_seconds, 3),
        "improve_seconds": round(improve_seconds, 3),
        "warm_flow_seconds": round(warm_seconds, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"only run the smoke cases {QUICK_CASES}")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per lookup timing; minimum kept")
    parser.add_argument("--budget", type=int, default=15000,
                        help="conflict budget per entry for the improve phase")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a floor below is missed")
    parser.add_argument("--min-warm-speedup", type=float, default=20.0,
                        help="floor for the warm-lookup geomean in --check")
    parser.add_argument("--min-wins", type=int, default=None,
                        help="cases where cut-5 must strictly beat cut-4 "
                        "(default: half the cases, i.e. 4 of 8 full, 2 quick)")
    parser.add_argument("-o", "--output", type=Path,
                        default=RESULTS_DIR / "BENCH_npnstore.json")
    args = parser.parse_args(argv)

    names = QUICK_CASES if args.quick else CASES
    min_wins = args.min_wins if args.min_wins is not None else len(names) // 2
    db4 = NpnDatabase.load()
    suite = arithmetic_suite()
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="bench-npnstore-") as tmp:
        storedir = Path(tmp)

        quality: dict[str, dict] = {}
        wins = 0
        for name in names:
            baseline = optimize_depth(suite[name], rounds=2)
            entry = run_quality_case(name, baseline, db4, args.budget, storedir)
            quality[name] = entry
            wins += entry["cut5_wins"]
            print(f"{name:12} cut4 {entry['cut4_size']:>5}  "
                  f"cut5 cold {entry['cut5_cold_size']:>5} -> warm "
                  f"{entry['cut5_warm_size']:>5}  "
                  f"({'win' if entry['cut5_wins'] else 'tie/loss'}, improve "
                  f"{entry['improve_seconds']:.1f}s)")
        print(f"cut-5 strictly better on {wins}/{len(names)} instances")
        if args.check and wins < min_wins:
            failures.append(
                f"cut-5 beat cut-4 on only {wins}/{len(names)} cases "
                f"(floor {min_wins})"
            )

        lookups: dict[str, dict] = {}
        speedups: list[float] = []
        rng = random.Random(0x5EED)
        lookup_sets = {
            "random": [rng.getrandbits(32) for _ in range(RANDOM_LOOKUP_CLASSES)],
        }
        for name in names:
            # Re-harvest each flow's real working set from its store.
            store = NpnStore.open(storedir / f"{name}.npn5", 5)
            reps = sorted(store.index)
            store.close()
            if len(reps) >= 8:  # tiny sets time the clock, not the tier
                lookup_sets[name] = reps
        for name, tts in lookup_sets.items():
            entry = run_lookup_case(name, tts, args.repeat, storedir)
            lookups[name] = entry
            speedups.append(entry["warm_speedup"])
            print(f"lookup {name:12} {entry['classes']:>3} classes  cold "
                  f"{entry['cold_seconds']:.4f}s -> warm "
                  f"{entry['warm_seconds']:.4f}s  ({entry['warm_speedup']}x)")

    lookup_geomean = round(geomean(speedups), 2)
    print(f"geomean warm-store lookup speedup: {lookup_geomean}x")
    if args.check and lookup_geomean < args.min_warm_speedup:
        failures.append(
            f"lookup geomean {lookup_geomean}x below the floor "
            f"{args.min_warm_speedup}x"
        )

    payload = {
        "benchmark": "npnstore",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "repeat": args.repeat,
        "improve_budget": args.budget,
        "geomean_warm_lookup_speedup": lookup_geomean,
        "cut5_wins": wins,
        "cases_total": len(names),
        "lookup_cases": lookups,
        "quality_cases": quality,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"wrote {args.output}")

    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
