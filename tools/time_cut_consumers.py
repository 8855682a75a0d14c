#!/usr/bin/env python
"""Time the cut consumers outside the rewriting passes.

Reports the median wall time of five repetitions of

* ``map_mig`` over all 14 registered generators at their default size,
* ``remap_resynth`` over the same networks,
* ``rewrite_aig`` over the 8 reduced-width arithmetic-suite instances
  (converted with ``mig_to_aig``),
* reading every cut table of one enumeration (``CutSet.slot_tables``
  plus ``CutSet.batch_tt4s``, enumeration not timed) at k = 4, 5 and 6,
  on log2-14, multiplier-24 and sine-14,

plus the gate count of each ``rewrite_aig`` result.  Prints one JSON
object.  Compare two trees by running it with each tree's ``src``
on ``PYTHONPATH``, alternating::

    PYTHONPATH=src python tools/time_cut_consumers.py
"""

from __future__ import annotations

import json
import statistics
import time

from repro.aig.convert import mig_to_aig
from repro.aig.rewrite import rewrite_aig
from repro.core.cuts import enumerate_cut_set
from repro.database.npn_db import NpnDatabase
from repro.generators import GENERATORS, resolve_generator
from repro.generators.epfl import arithmetic_suite
from repro.mapping.mapper import map_mig
from repro.opt.remap import remap_resynth

RUNS = 5

#: (generator, width, cut size) of the cut-table timings
TABLE_CASES = (("log2", 14, 4), ("multiplier", 24, 5), ("sine", 14, 6))


def median_seconds(fn) -> float:
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 4)


def table_seconds(mig, k: int) -> float:
    """Median time of reading every cut table of a fresh enumeration."""
    times = []
    for _ in range(RUNS):
        cuts = enumerate_cut_set(mig, k)
        start = time.perf_counter()
        cuts.slot_tables(k)
        cuts.batch_tt4s(k)
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 5)


def main() -> None:
    db = NpnDatabase.load()
    migs = [resolve_generator(name) for name in sorted(GENERATORS)]
    aigs = {name: mig_to_aig(mig) for name, mig in arithmetic_suite().items()}
    report = {
        "map_mig_s": median_seconds(lambda: [map_mig(m) for m in migs]),
        "remap_resynth_s": median_seconds(lambda: [remap_resynth(m, db) for m in migs]),
        "rewrite_aig_s": median_seconds(lambda: [rewrite_aig(a) for a in aigs.values()]),
        "cut_tables_s": {
            f"{name}-{width}/k{k}": table_seconds(resolve_generator(name, width), k)
            for name, width, k in TABLE_CASES
        },
        "rewrite_aig_gates": {
            name: rewrite_aig(aig).num_gates for name, aig in aigs.items()
        },
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
