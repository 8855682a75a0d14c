"""Micro-benchmark for the whole-network walks: frozen vs shipped.

Each case is a depth-optimized generator at its migbench flow-suite
width (``optimize_depth(rounds=2)``, as the workload builds its inputs),
the same network converted to an AIG, and the construction network a
BF pass on it hands to ``finish_pass`` (dead gates included).  Both
sides run in this one process on the same networks: the walks the
repository shipped before they were memoized, unrolled per arity or
turned into a renumbering (frozen in ``tests/core/_frozen_kernel.py``)
or made table-driven (``tests/io/_frozen_writer.py``) and the shipped
ones.

* ``levels`` — the per-node level walk.  The memo is dropped with
  ``invalidate_arrays()`` before every repetition, so the ratio measures
  the walk, not the memo.
* ``check`` — the structural validator on the valid network.
* ``maj`` — rebuilding every gate of the MIG, in node order, through the
  majority constructor into a fresh network (MIGs only).
* ``cleanup`` — the dead-gate removal: every reachable gate rebuilt
  through the facade constructor (frozen) against the renumbering walk
  (shipped), on the MIG, the AIG and the BF construction network.
* ``write_blif`` — the MIG written as BLIF text: one name-helper call
  per fanin and rows built a character at a time (frozen) against the
  table-driven writer (shipped).

Each side records its minimum wall time over ``REPEAT`` runs per case
and walk, and every walk's result must be identical on both sides: the
levels, the check's outcome, the rebuilt network's node array, strash
table, outputs and counters, the cleaned network's node array,
outputs, names and strash table, and the BLIF text byte for byte.

* ``--quick`` — seven kinds: the deepest, widest and largest shapes.
* the full set covers all 14 flow-suite kinds.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py           # full run
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick --check

``--check`` exits non-zero when any result differs, or when the geomean
speed-up over the walks (each walk's summed frozen time over its summed
shipped time) falls below ``MIN_QUICK_SPEEDUP``.  Both sides are timed
on one host in one process, so the ratio does not depend on the
runner's speed.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import sys
import time
from pathlib import Path

import repro.rewriting.bottom_up as bottom_up
from repro.aig.convert import mig_to_aig
from repro.core.mig import Mig
from repro.database.npn_db import NpnDatabase
from repro.generators import GENERATORS
from repro.io.blif import write_blif
from repro.opt.depth_opt import optimize_depth
from repro.rewriting.engine import functional_hashing

# The frozen walks are a test reference; import them from the
# repository root.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.core._frozen_kernel import (  # noqa: E402
    frozen_check,
    frozen_cleanup,
    frozen_levels,
    frozen_maj,
)
from tests.io._frozen_writer import write_blif as frozen_write_blif  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: runs per walk, side and case; the minimum is kept
REPEAT = 7

#: --check's floor for the geomean speed-up over the walks
MIN_QUICK_SPEEDUP = 2.0

#: the flow-suite kinds at their migbench pool widths (first choice)
QUICK_CASES = (
    ("log2", {"width": 14}),
    ("multiplier", {"width": 24}),
    ("sine", {"width": 14}),
    ("voter", {"count": 201}),
    ("adder", {"width": 124}),
    ("priority", {"width": 124}),
    ("router", {"rows": 6, "cols": 5}),
)

FULL_CASES = QUICK_CASES + (
    ("divisor", {"width": 16}),
    ("max", {"width": 48}),
    ("square-root", {"width": 18}),
    ("square", {"width": 28}),
    ("arbiter", {"width": 124}),
    ("dec", {"width": 8}),
    ("int2float", {"width": 11}),
)


def case_name(kind: str, params: dict) -> str:
    return f"{kind}-" + "x".join(str(v) for v in params.values())


def frozen_levels_walk(net) -> list[int]:
    net.invalidate_arrays()
    return frozen_levels(net)


def shipped_levels_walk(net) -> list[int]:
    net.invalidate_arrays()
    return list(net.levels())


def outcome(check, net) -> str:
    """``"ok"``, or the message of the ``ValueError`` *check* raised."""
    try:
        check(net)
    except ValueError as exc:
        return str(exc)
    return "ok"


def rebuild(net: Mig, maj) -> tuple:
    """Every gate of *net* through *maj*, in node order, into a fresh MIG."""
    new = Mig.like(net)
    mapping = [0] * net.num_nodes
    for i in range(1, net.num_pis + 1):
        mapping[i] = i << 1
    fanins = net._fanins
    for node in range(net.num_pis + 1, net.num_nodes):
        a, b, c = fanins[node]
        mapping[node] = maj(
            new,
            mapping[a >> 1] ^ (a & 1),
            mapping[b >> 1] ^ (b & 1),
            mapping[c >> 1] ^ (c & 1),
        )
    return (
        new._fanins,
        new._strash,
        [mapping[s >> 1] ^ (s & 1) for s in net._outputs],
        new.unit_rules,
        new.strash_hits,
    )


def cleaned(cleanup, net) -> tuple:
    """The network *cleanup* returns: nodes, outputs, names and strash."""
    new = cleanup(net)
    return (
        new._fanins,
        new._outputs,
        new._pi_names,
        new._output_names,
        new._strash,
    )


def blif_text(writer, net: Mig) -> str:
    buf = io.StringIO()
    writer(net, buf)
    return buf.getvalue()


def bf_construction(mig: Mig, db: NpnDatabase) -> Mig:
    """The network a BF pass on *mig* hands to ``finish_pass``."""
    seen = []
    finish_pass = bottom_up.finish_pass

    def recording(new, db, metrics):
        seen.append(new)
        return finish_pass(new, db, metrics)

    bottom_up.finish_pass = recording
    try:
        functional_hashing(mig, db, "BF")
    finally:
        bottom_up.finish_pass = finish_pass
    return seen[0]


#: walk -> (frozen, shipped, network kinds it runs on)
WALKS = {
    "levels": (frozen_levels_walk, shipped_levels_walk, ("mig", "aig")),
    "check": (
        lambda net: outcome(frozen_check, net),
        lambda net: outcome(type(net).check, net),
        ("mig", "aig"),
    ),
    "maj": (
        lambda net: rebuild(net, frozen_maj),
        lambda net: rebuild(net, Mig.maj),
        ("mig",),
    ),
    "cleanup": (
        lambda net: cleaned(frozen_cleanup, net),
        lambda net: cleaned(type(net).cleanup, net),
        ("mig", "aig", "bf"),
    ),
    "write_blif": (
        lambda net: blif_text(frozen_write_blif, net),
        lambda net: blif_text(write_blif, net),
        ("mig",),
    ),
}


def best_time(fn, net) -> tuple[float, object]:
    best = None
    result = None
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = fn(net)
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return best, result


def run_case(kind: str, params: dict, db: NpnDatabase) -> tuple[dict, list[str]]:
    mig = optimize_depth(GENERATORS[kind][1](**params), rounds=2)
    nets = {"mig": mig, "aig": mig_to_aig(mig), "bf": bf_construction(mig, db)}
    walks = {}
    failures = []
    name = case_name(kind, params)
    for walk, (frozen, shipped, kinds) in WALKS.items():
        for net_kind in kinds:
            net = nets[net_kind]
            t_frozen, r_frozen = best_time(frozen, net)
            t_shipped, r_shipped = best_time(shipped, net)
            label = f"{walk}-{net_kind}"
            if r_frozen != r_shipped:
                failures.append(f"{name}: {label} result differs from the frozen walk")
            walks[label] = {
                "frozen_s": round(t_frozen, 6),
                "shipped_s": round(t_shipped, 6),
                "identical": r_frozen == r_shipped,
            }
    entry = {
        "case": name,
        "inputs": mig.num_pis,
        "mig_gates": mig.num_gates,
        "aig_gates": nets["aig"].num_gates,
        "bf_gates": nets["bf"].num_gates,
        "bf_dead_gates": nets["bf"].num_gates - nets["bf"].cleanup().num_gates,
        "walks": walks,
    }
    return entry, failures


def geomean(values: list[float]) -> float:
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="only the seven quick kinds")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero when a gate below fails")
    parser.add_argument("-o", "--output", type=Path,
                        default=RESULTS_DIR / "BENCH_kernel.json")
    args = parser.parse_args(argv)

    cases = []
    failures: list[str] = []
    db = NpnDatabase.load()
    for kind, params in QUICK_CASES if args.quick else FULL_CASES:
        entry, case_failures = run_case(kind, params, db)
        cases.append(entry)
        failures += case_failures
        print(
            f"{entry['case']:16} {entry['mig_gates']:>5} MIG / "
            f"{entry['aig_gates']:>5} AIG / {entry['bf_gates']:>5} BF gates  "
            + "  ".join(
                f"{label} {w['frozen_s'] * 1e3:6.2f}->{w['shipped_s'] * 1e3:6.2f}ms"
                for label, w in entry["walks"].items()
            ),
            flush=True,
        )

    totals = {}
    for label in cases[0]["walks"]:
        frozen = sum(c["walks"][label]["frozen_s"] for c in cases)
        shipped = sum(c["walks"][label]["shipped_s"] for c in cases)
        totals[label] = {
            "frozen_s": round(frozen, 6),
            "shipped_s": round(shipped, 6),
            "speedup": round(frozen / max(shipped, 1e-9), 2),
        }
        print(
            f"{label:11} {frozen * 1e3:8.2f} ms frozen -> {shipped * 1e3:8.2f} ms "
            f"shipped ({totals[label]['speedup']}x)"
        )
    speedup = round(geomean([t["speedup"] for t in totals.values()]), 2)
    print(f"geomean speed-up over the walks: {speedup}x")
    if speedup < MIN_QUICK_SPEEDUP:
        failures.append(
            f"geomean speed-up {speedup}x below the floor {MIN_QUICK_SPEEDUP}x"
        )

    payload = {
        "benchmark": "kernel",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "repeat": REPEAT,
        "geomean_speedup": speedup,
        "totals": totals,
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
