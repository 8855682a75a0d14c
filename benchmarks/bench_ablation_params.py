"""Ablation — priority-cut and candidate-list budgets, and 5-input cuts.

Two design choices the implementation (like the paper's) must fix:

* the number of cuts kept per node (priority cuts, ref. [11]) and the
  number of candidates per node in Algorithm 2 ("to reduce the run-time
  requirements, we only store a predetermined number of best candidates");
* the cut arity: 4 inputs with the precomputed 222-class database versus
  5 inputs with the on-demand database (Sec. IV: "Already for 5 inputs,
  the enumeration of all NPN classes becomes impractical, which can be
  circumvented by considering a much smaller subset, see, e.g., [9]").

This benchmark sweeps both on one representative instance and records the
quality/run-time trade-off.  Timed kernel: BF at the default budgets.
"""

from __future__ import annotations

import time

from harness import render_table, write_result

from repro.core.simulate import equivalent_random
from repro.generators.epfl import square_root
from repro.rewriting.bottom_up import rewrite_bottom_up
from repro.rewriting.dynamic_db import DynamicDatabase
from repro.rewriting.engine import functional_hashing
from repro.runtime.metrics import PassMetrics


def test_ablation_cut_and_candidate_limits(db, benchmark):
    mig = square_root(10)
    headers = ["cut_limit", "candidate_limit", "size", "depth", "runtime [s]"]
    rows = []
    sizes = {}
    for cut_limit in (2, 8, 16):
        for candidate_limit in (1, 3):
            start = time.perf_counter()
            out = rewrite_bottom_up(
                mig, db, fanout_free=True,
                cut_limit=cut_limit, candidate_limit=candidate_limit,
            )
            runtime = time.perf_counter() - start
            assert equivalent_random(mig, out, num_rounds=4)
            sizes[(cut_limit, candidate_limit)] = out.num_gates
            rows.append(
                [str(cut_limit), str(candidate_limit), str(out.num_gates),
                 str(out.depth()), f"{runtime:.2f}"]
            )
    text = render_table(
        headers, rows, "Ablation — priority-cut and candidate budgets (BF on square-root)"
    )
    print("\n" + text)
    write_result("ablation_params", text)

    # More cuts can only help quality (same candidate budget).
    assert sizes[(8, 1)] <= sizes[(2, 1)]
    assert sizes[(16, 3)] <= sizes[(2, 3)]

    benchmark.pedantic(
        lambda: rewrite_bottom_up(mig, db, fanout_free=True),
        rounds=1, iterations=1,
    )


def test_ablation_five_input_cuts(db, benchmark):
    mig = square_root(8)
    headers = ["configuration", "size", "depth", "runtime [s]", "db entries built"]
    rows = []
    start = time.perf_counter()
    four = functional_hashing(mig, db, "TF", cut_size=4)
    t4 = time.perf_counter() - start
    rows.append(["4-cut, precomputed 222-class db", str(four.num_gates),
                 str(four.depth()), f"{t4:.2f}", "222 (offline)"])

    # The pass drains the database's counters into its metrics, so the
    # entries built are read there, not from db5.misses.
    db5 = DynamicDatabase(num_vars=5)
    metrics = PassMetrics()
    start = time.perf_counter()
    five = functional_hashing(mig, db5, "TF", cut_size=5, metrics=metrics)
    t5 = time.perf_counter() - start
    rows.append(["5-cut, on-demand db (ref. [9] idea)", str(five.num_gates),
                 str(five.depth()), f"{t5:.2f}", str(metrics.store_synth)])

    assert equivalent_random(mig, four, num_rounds=4)
    assert equivalent_random(mig, five, num_rounds=4)
    text = render_table(headers, rows, "Ablation — 4-input vs 5-input cut rewriting")
    print("\n" + text)
    write_result("ablation_cut5", text)

    # The on-demand database touches only the working set, far below the
    # 616 126 classes a full NPN-5 enumeration would need.
    assert 0 < metrics.store_synth < 5000

    benchmark.pedantic(
        lambda: functional_hashing(mig, DynamicDatabase(num_vars=5), "TF", cut_size=5),
        rounds=1, iterations=1,
    )
