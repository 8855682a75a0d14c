"""Micro-benchmark for SAT CEC: the monolithic miter vs the swept check.

Every case is a pair ``verify_rewrite(mode="cec")`` proves in a flow: a
depth-optimized circuit and its BF rewrite.  Both checks run in this one
process on the same pair, at ``verify_rewrite``'s default 50,000-conflict
cap: the monolithic miter the repository shipped before the swept check
(frozen in ``tests/sat/_frozen_cec.py``) and the shipped
:func:`repro.sat.cec.check_equivalence_sat`.  Each side records its
verdict, conflicts, solver calls and its minimum wall time over
``REPEAT`` runs.

* ``--quick`` — the six wide cut5-cec pairs: the migbench cut5-cec pool
  widths of the wide kinds, ``optimize_depth(rounds=2)``, read back from
  BLIF as the workload reads its inputs, then BF at cut 5 with a fresh
  ``DynamicDatabase(5, improve_budget=100)``.
* the full set adds cut-4 BF pairs with the packaged NPN-4 database:
  voter-61, arbiter-32, int2float-11, sine-8, adder-64 and multiplier-8.
  The monolithic miter runs multiplier-8 once: it spends the whole cap
  (about two minutes) without an answer.

Usage::

    PYTHONPATH=src python benchmarks/bench_cec.py           # full run
    PYTHONPATH=src python benchmarks/bench_cec.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_cec.py --quick --check

``--check`` exits non-zero when a verdict differs from a monolithic
verdict that concluded, when the swept check is inconclusive on any
case, or when the geomean speed-up over the quick cases falls below
``MIN_QUICK_SPEEDUP``.  Both sides are timed on one host in one process,
so the ratio does not depend on the runner's speed.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import sys
import time
from pathlib import Path

from repro.database import NpnDatabase
from repro.generators import GENERATORS
from repro.io.blif import read_blif, write_blif
from repro.opt.depth_opt import optimize_depth
from repro.rewriting.dynamic_db import DynamicDatabase
from repro.rewriting.engine import functional_hashing
from repro.sat import cec
from repro.sat.solver import Solver

# The frozen monolithic miter is a test reference; import it from the
# repository root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.sat._frozen_cec import frozen_check_equivalence_sat  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: verify_rewrite's default cec_conflict_cap
CONFLICT_CAP = 50_000

#: runs per check and case; the minimum is kept
REPEAT = 3

#: --check's floor for the geomean speed-up over the quick cases
MIN_QUICK_SPEEDUP = 3.0

#: the wide cut5-cec kinds at their migbench pool widths (cut 5)
QUICK_CASES = (
    ("priority", {"width": 20}),
    ("router", {"rows": 3, "cols": 4}),
    ("arbiter", {"width": 10}),
    ("voter", {"count": 19}),
    ("adder", {"width": 20}),
    ("max", {"width": 5}),
)

#: wider pairs, BF at cut 4 with the packaged database
WIDE_CASES = (
    ("voter", {"count": 61}),
    ("arbiter", {"width": 32}),
    ("int2float", {"width": 11}),
    ("sine", {"width": 8}),
    ("adder", {"width": 64}),
    ("multiplier", {"width": 8}),
)

#: cases whose monolithic miter runs once: it spends the whole cap
FROZEN_ONCE = {"multiplier-8"}


def case_name(kind: str, params: dict) -> str:
    return f"{kind}-" + "x".join(str(v) for v in params.values())


def build_pair(kind: str, params: dict, cut_size: int, db4: NpnDatabase):
    """The (input, BF output) pair a flow's ``--verify cec`` checks."""
    mig = optimize_depth(GENERATORS[kind][1](**params), rounds=2)
    if cut_size == 5:
        buf = io.StringIO()
        write_blif(mig, buf)
        mig = read_blif(io.StringIO(buf.getvalue()))
        db = DynamicDatabase(num_vars=5, improve_budget=100)
    else:
        db = db4
    return mig, functional_hashing(mig, db, "BF", cut_size=cut_size)


class SolveCounter:
    """Counts ``Solver.solve`` calls while installed."""

    def __init__(self) -> None:
        self.calls = 0
        self._solve = Solver.solve

    def __enter__(self) -> "SolveCounter":
        solve = self._solve

        def counted(solver, *args, **kwargs):
            self.calls += 1
            return solve(solver, *args, **kwargs)

        Solver.solve = counted
        return self

    def __exit__(self, *exc) -> None:
        Solver.solve = self._solve


def time_check(check, mig, out, repeat: int) -> dict:
    best = None
    for _ in range(repeat):
        with SolveCounter() as counter:
            start = time.perf_counter()
            result = check(mig, out, conflict_budget=CONFLICT_CAP)
            seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return {
        "equivalent": result.equivalent,
        "conflicts": result.conflicts,
        "solve_calls": counter.calls,
        "seconds": round(best, 5),
    }


def run_case(kind, params, cut_size, db4) -> dict:
    name = case_name(kind, params)
    mig, out = build_pair(kind, params, cut_size, db4)
    frozen = time_check(
        frozen_check_equivalence_sat, mig, out, 1 if name in FROZEN_ONCE else REPEAT
    )
    swept = time_check(cec.check_equivalence_sat, mig, out, REPEAT)
    return {
        "case": name,
        "cut_size": cut_size,
        "inputs": mig.num_pis,
        "gates_before": mig.num_gates,
        "gates_after": out.num_gates,
        "monolithic": frozen,
        "swept": swept,
        "speedup": round(frozen["seconds"] / max(swept["seconds"], 1e-6), 2),
    }


def geomean(values: list[float]) -> float:
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="only the six wide cut5-cec pairs")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a gate below fails")
    parser.add_argument("-o", "--output", type=Path,
                        default=RESULTS_DIR / "BENCH_cec.json")
    args = parser.parse_args(argv)

    db4 = NpnDatabase.load()
    plan = [(kind, params, 5) for kind, params in QUICK_CASES]
    if not args.quick:
        plan += [(kind, params, 4) for kind, params in WIDE_CASES]

    cases = []
    failures: list[str] = []
    for kind, params, cut_size in plan:
        entry = run_case(kind, params, cut_size, db4)
        cases.append(entry)
        frozen, swept = entry["monolithic"], entry["swept"]
        print(
            f"{entry['case']:14} cut {cut_size} "
            f"{entry['gates_before']:>4}/{entry['gates_after']:<4} "
            f"monolithic {frozen['seconds']:8.4f}s {frozen['conflicts']:>6} conflicts "
            f"{frozen['solve_calls']:>3} calls -> swept {swept['seconds']:8.4f}s "
            f"{swept['conflicts']:>6} conflicts {swept['solve_calls']:>3} calls "
            f"({entry['speedup']}x)",
            flush=True,
        )
        if frozen["equivalent"] is not None and swept["equivalent"] != frozen["equivalent"]:
            failures.append(
                f"{entry['case']}: swept verdict {swept['equivalent']} differs "
                f"from the monolithic {frozen['equivalent']}"
            )
        if swept["equivalent"] is None:
            failures.append(f"{entry['case']}: swept check inconclusive")

    quick_geomean = round(
        geomean([entry["speedup"] for entry in cases[: len(QUICK_CASES)]]), 2
    )
    print(f"geomean speed-up over the quick cases: {quick_geomean}x")
    if quick_geomean < MIN_QUICK_SPEEDUP:
        failures.append(
            f"quick geomean speed-up {quick_geomean}x below the floor "
            f"{MIN_QUICK_SPEEDUP}x"
        )

    payload = {
        "benchmark": "cec",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "repeat": REPEAT,
        "conflict_cap": CONFLICT_CAP,
        "quick_geomean_speedup": quick_geomean,
        "cases": cases,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    with open(args.output, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"wrote {args.output}")

    if not args.check:
        return 0
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
