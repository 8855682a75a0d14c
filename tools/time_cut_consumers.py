#!/usr/bin/env python
"""Time the cut consumers outside the rewriting passes.

Reports the median wall time of five repetitions of

* ``map_mig`` over all 14 registered generators at their default size,
* ``remap_resynth`` over the same networks,
* ``rewrite_aig`` over the 8 reduced-width arithmetic-suite instances
  (converted with ``mig_to_aig``), in its fanout-free default and with
  ``fanout_free=False``,

plus the gate count of each default ``rewrite_aig`` result.  Prints one
JSON object.  Compare two trees by running it with each tree's ``src``
on ``PYTHONPATH``, alternating::

    PYTHONPATH=src python tools/time_cut_consumers.py
"""

from __future__ import annotations

import json
import statistics
import time

from repro.aig.convert import mig_to_aig
from repro.aig.rewrite import rewrite_aig
from repro.database.npn_db import NpnDatabase
from repro.generators import GENERATORS, resolve_generator
from repro.generators.epfl import arithmetic_suite
from repro.mapping.mapper import map_mig
from repro.opt.remap import remap_resynth

RUNS = 5


def median_seconds(fn) -> float:
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 4)


def main() -> None:
    db = NpnDatabase.load()
    migs = [resolve_generator(name) for name in sorted(GENERATORS)]
    aigs = {name: mig_to_aig(mig) for name, mig in arithmetic_suite().items()}
    report = {
        "map_mig_s": median_seconds(lambda: [map_mig(m) for m in migs]),
        "remap_resynth_s": median_seconds(lambda: [remap_resynth(m, db) for m in migs]),
        "rewrite_aig_s": median_seconds(lambda: [rewrite_aig(a) for a in aigs.values()]),
        "rewrite_aig_unrestricted_s": median_seconds(
            lambda: [rewrite_aig(a, fanout_free=False) for a in aigs.values()]
        ),
        "rewrite_aig_gates": {
            name: rewrite_aig(aig).num_gates for name, aig in aigs.items()
        },
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
