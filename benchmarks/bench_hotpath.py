"""Micro-benchmark for the functional-hashing hot path.

Times one cold-cache BF pass over the word-level generator circuits and
writes ``BENCH_hotpath.json`` with wall-clock numbers, speedups against
the checked-in pre-optimization baseline
(``benchmarks/results/BENCH_hotpath_baseline.json``), and the hot-path
cache hit rates reported by :class:`repro.runtime.metrics.PassMetrics`.

Protocol (must match the baseline capture): before each case the global
NPN canonization memo is cleared, then a single BF pass runs and its
wall-clock time is recorded; with ``--repeat N`` each case is repeated
cold and the minimum is kept.  "Cold" is the honest setting for a
rewriting pass — a user optimizing one circuit pays the canonization
cost once, and warm-memo numbers would mostly measure the memo.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full run
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check    # fail on >2x regression

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

import random

from repro.core import npn
from repro.core.simengine import simulate_network
from repro.database import NpnDatabase
from repro.generators.epfl import adder, log2, multiplier, sine, square_root
from repro.rewriting.engine import functional_hashing
from repro.runtime.metrics import PassMetrics

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_hotpath_baseline.json"

#: name -> circuit factory; sizes chosen so the full run stays under a
#: minute while the biggest instances dominate the timing signal.
CASES = {
    "adder32": lambda: adder(32),
    "multiplier8": lambda: multiplier(8),
    "multiplier12": lambda: multiplier(12),
    "square_root10": lambda: square_root(10),
    "square_root16": lambda: square_root(16),
    "sine8": lambda: sine(8),
    "sine12": lambda: sine(12),
    "log2_10": lambda: log2(10),
}

#: the subset used by the CI smoke job
QUICK_CASES = ("adder32", "multiplier8", "square_root10", "sine8")

#: simulation microbench instances — all at least ~1k gates, spanning
#: shallow/wide (multiplier) to deep/narrow (square root) level shapes
SIM_CASES = {
    "multiplier20": lambda: multiplier(20),
    "sine12": lambda: sine(12),
    "log2_10": lambda: log2(10),
    "square_root24": lambda: square_root(24),
}

QUICK_SIM_CASES = ("multiplier20", "sine12")

#: fraig-style random-vector protocol: this many 64-bit rounds per case
SIM_ROUNDS = 16
SIM_WIDTH = 64


def run_sim_case(factory, repeat: int) -> dict:
    """Time random-vector simulation: per-round seed loop vs one packed call.

    The *seed* path is what the pre-kernel tree did for signatures and
    randomized equivalence: one big-int sweep over the network per
    64-bit round.  The *engine* path is what ``equivalent_random`` and
    fraig's signatures do now: all rounds packed into one wide word per
    PI (round ``r`` in bits ``[64r, 64r + 64)``) and one sweep.  Same
    vectors, same results (asserted); the speedup is what packing buys.
    """
    net = factory()
    rng = random.Random(0xC0FFEE)
    rounds = [
        [rng.getrandbits(SIM_WIDTH) for _ in range(net.num_pis)]
        for _ in range(SIM_ROUNDS)
    ]
    combined = [
        sum(rounds[r][i] << (SIM_WIDTH * r) for r in range(SIM_ROUNDS))
        for i in range(net.num_pis)
    ]
    mask = (1 << SIM_WIDTH) - 1
    best_seed = best_engine = None
    for _ in range(repeat):
        start = time.perf_counter()
        seed_out = [simulate_network(net, words, SIM_WIDTH) for words in rounds]
        seconds = time.perf_counter() - start
        best_seed = seconds if best_seed is None else min(best_seed, seconds)

        start = time.perf_counter()
        engine_out = simulate_network(net, combined, SIM_WIDTH * SIM_ROUNDS)
        seconds = time.perf_counter() - start
        best_engine = (
            seconds if best_engine is None else min(best_engine, seconds)
        )
    for r in range(SIM_ROUNDS):
        got = [(w >> (SIM_WIDTH * r)) & mask for w in engine_out]
        assert got == seed_out[r], f"packed mismatch in round {r}"
    return {
        "gates": net.num_gates,
        "depth": net.depth(),
        "rounds": SIM_ROUNDS,
        "width": SIM_WIDTH,
        "seed_seconds": round(best_seed, 5),
        "engine_seconds": round(best_engine, 5),
        "speedup_vs_seed": round(best_seed / best_engine, 2),
    }


def run_case(db: NpnDatabase, factory, variant: str, repeat: int) -> dict:
    """Time *repeat* cold BF passes over one circuit; keep the fastest."""
    mig = factory()
    best_seconds = None
    best_metrics: PassMetrics | None = None
    size_after = mig.num_gates
    for _ in range(repeat):
        # Cold protocol: drop the canonization memo — the pass must win
        # on genuinely cold canonizations, not by replaying a warm table
        # the baseline never had.
        npn.canonize_cache_clear()
        metrics = PassMetrics(variant=variant)
        start = time.perf_counter()
        result = functional_hashing(mig, db, variant, metrics=metrics)
        seconds = time.perf_counter() - start
        if best_seconds is None or seconds < best_seconds:
            best_seconds = seconds
            best_metrics = metrics
            size_after = result.num_gates
    assert best_seconds is not None and best_metrics is not None
    return {
        "size_before": mig.num_gates,
        "size_after": size_after,
        "pass_seconds": round(best_seconds, 4),
        "gates_per_second": round(mig.num_gates / best_seconds, 1),
        "db_hit_rate": round(best_metrics.db_hit_rate, 4),
        "npn_cache_hit_rate": round(best_metrics.npn_cache_hit_rate, 4),
        "cuts_considered": best_metrics.cuts_considered,
        "phase_seconds": {
            k: round(v, 6) for k, v in best_metrics.phase_seconds.items()
        },
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
    parser.add_argument("--variant", default="BF",
                        help="functional-hashing variant to time")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if any case regresses more than "
                        "--max-regression vs the checked-in baseline")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="allowed slowdown factor in --check mode")
    parser.add_argument("--min-sim-speedup", type=float, default=None,
                        help="in --check mode, fail when the simulation "
                        "microbench geomean falls below this factor")
    parser.add_argument("--min-rewrite-speedup", type=float, default=None,
                        help="in --check mode, fail when the rewriting "
                        "geomean speedup vs baseline falls below this floor")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument("-o", "--output", type=Path,
                        default=RESULTS_DIR / "BENCH_hotpath.json")
    args = parser.parse_args(argv)


    db = NpnDatabase.load()
    names = QUICK_CASES if args.quick else tuple(CASES)
    baseline = load_baseline(args.baseline)
    baseline_cases = (baseline or {}).get("cases", {})

    cases: dict[str, dict] = {}
    speedups: list[float] = []
    regressions: list[str] = []
    for name in names:
        entry = run_case(db, CASES[name], args.variant, args.repeat)
        base = baseline_cases.get(name)
        if base and base.get("pass_seconds"):
            speedup = base["pass_seconds"] / entry["pass_seconds"]
            entry["speedup_vs_baseline"] = round(speedup, 2)
            speedups.append(speedup)
            if speedup < 1.0 / args.max_regression:
                regressions.append(
                    f"{name}: {entry['pass_seconds']}s vs baseline "
                    f"{base['pass_seconds']}s ({1 / speedup:.2f}x slower)"
                )
        cases[name] = entry
        speedup_note = (
            f"  ({entry['speedup_vs_baseline']}x vs baseline)"
            if "speedup_vs_baseline" in entry else ""
        )
        print(f"{name:16} {entry['size_before']:>5} gates  "
              f"{entry['pass_seconds']:.4f}s{speedup_note}")

    geomean = None
    if speedups:
        product = 1.0
        for s in speedups:
            product *= s
        geomean = round(product ** (1.0 / len(speedups)), 2)
        print(f"geomean speedup vs baseline: {geomean}x")
        if args.min_rewrite_speedup and geomean < args.min_rewrite_speedup:
            regressions.append(
                f"rewriting geomean {geomean}x below the "
                f"--min-rewrite-speedup floor {args.min_rewrite_speedup}x"
            )

    sim_names = QUICK_SIM_CASES if args.quick else tuple(SIM_CASES)
    sim_cases: dict[str, dict] = {}
    sim_speedups: list[float] = []
    for name in sim_names:
        entry = run_sim_case(SIM_CASES[name], args.repeat)
        sim_cases[name] = entry
        sim_speedups.append(entry["speedup_vs_seed"])
        print(f"sim {name:16} {entry['gates']:>5} gates  "
              f"seed {entry['seed_seconds']:.4f}s -> engine "
              f"{entry['engine_seconds']:.4f}s  "
              f"({entry['speedup_vs_seed']}x)")
    sim_geomean = None
    if sim_speedups:
        product = 1.0
        for s in sim_speedups:
            product *= s
        sim_geomean = round(product ** (1.0 / len(sim_speedups)), 2)
        print(f"geomean simulation speedup vs seed big-int loop: {sim_geomean}x")
        if args.min_sim_speedup and sim_geomean < args.min_sim_speedup:
            regressions.append(
                f"simulation geomean {sim_geomean}x below the "
                f"--min-sim-speedup floor {args.min_sim_speedup}x"
            )

    payload = {
        "schema": "bench-hotpath/1",
        "label": "current tree",
        "variant": args.variant,
        "python": platform.python_version(),
        "quick": args.quick,
        "repeat": args.repeat,
        "geomean_speedup_vs_baseline": geomean,
        "cases": cases,
        "sim_geomean_speedup_vs_seed": sim_geomean,
        "sim_cases": sim_cases,
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
