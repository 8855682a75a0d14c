"""The set-up and tear-down shared by the rewriting passes.

Both traversals (Algorithms 1 and 2 of the paper) run one candidate
pipeline (docs/PERFORMANCE.md):

1. **Enumerate** — :func:`repro.core.cuts.enumerate_cut_set` collects the
   k-feasible cuts and records, in the same merge loop, the flat program
   that evaluates every cut truth table.
2. **Batch** — :meth:`repro.core.cuts.CutSet.batch_tt4s` runs that program
   and collects the deduplicated extended tables, and
   :meth:`repro.database.npn_db.NpnDatabase.lookup_batch` canonizes them
   in one vectorized NPN sweep.  The rewriter then reads each cut's table
   from :meth:`~repro.core.cuts.CutSet.slot_tables` by slot and answers
   each per-cut consult from the lookup table via ``db.lookup_in``.

Each cut table equals its re-simulated cone, and each canonization
equals the frozen pure-Python canonizer's (tie-breaks included), so the
*chosen rewrites cannot differ* from a scalar pass.
``tests/rewriting/test_differential.py`` pins this against a frozen
scalar oracle that reads every cut table by cone simulation and
canonizes through the frozen canonizer.

This module deliberately imports no numpy: the arrays flow opaquely from
``CutSet`` to ``NpnDatabase`` (enforced by ``tools/check_layers.py`` —
rewriting passes orchestrate batches, the kernel layer owns the math).
"""

from __future__ import annotations

from ..core.cuts import CutSet, enumerate_cut_set
from ..core.mig import Mig
from ..database.npn_db import NpnDatabase
from ..runtime.metrics import PassMetrics

__all__ = ["prepare_lookup_table", "start_pass", "finish_pass"]


def prepare_lookup_table(
    cuts: CutSet, db: NpnDatabase, metrics: PassMetrics | None = None
):
    """Canonize every gate-cut function of *cuts* in one sweep.

    With the table in hand a rewriter consults ``db.lookup_in(tt, table)``
    instead of ``db.lookup(tt)`` — identical contract (counters, fault
    hooks, ``KeyError`` on miss), canonization already paid.  Cut tables
    of up to ``db.num_vars`` (at most 6) inputs are covered.
    """
    table = db.lookup_batch(cuts.batch_tt4s(db.num_vars))
    if metrics is not None:
        metrics.batch_npn_lookups += len(table)
    return table


def start_pass(
    mig: Mig,
    db: NpnDatabase,
    fanout_free: bool,
    cut_size: int,
    cut_limit: int,
    metrics: PassMetrics,
):
    """Enumerate the cuts of *mig* and canonize their functions.

    Returns ``(levels, cuts, tables, lookup)``: the per-node levels of
    *mig*, the :class:`~repro.core.cuts.CutSet`, the per-slot cut truth
    tables extended to ``db.num_vars`` inputs, and ``db.lookup`` answered
    from the pass's batch table.  Callers hold *cuts* until the pass
    ends: freeing its program lists before the rewrite loop raised the
    flow-suite benchmark's peak RSS by about 8 % (glibc heap growth).
    """
    if cut_size > db.num_vars:
        raise ValueError(f"cut size {cut_size} exceeds database arity {db.num_vars}")
    levels = mig.levels()
    with metrics.phase("enumerate"):
        # F-variants enumerate only fanout-free cuts (shared gates become
        # leaves), so no per-cut admissibility walk is needed later.
        cuts = enumerate_cut_set(
            mig,
            k=cut_size,
            cut_limit=cut_limit,
            metrics=metrics,
            ffr_fanout=mig.fanout_counts() if fanout_free else None,
        )
    with metrics.phase("batch"):
        table = prepare_lookup_table(cuts, db, metrics)
        tables = cuts.slot_tables(db.num_vars)
    lookup_in = db.lookup_in
    return levels, cuts, tables, lambda tt: lookup_in(tt, table)


def finish_pass(new: Mig, db: NpnDatabase, metrics: PassMetrics) -> Mig:
    """Clean up the construction network *new*; account the pass."""
    with metrics.phase("cleanup"):
        # The construction network only ever saw new.maj, so the
        # renumbering fast path is byte-identical to cleanup().
        result = new.compact()
    # Kernel counters of the construction network and the cleaned copy.
    metrics.record_network(new)
    metrics.record_network(result)
    if hasattr(db, "drain_metrics"):
        # Dynamic databases account their tier counters per pass.
        db.drain_metrics(metrics)
    return result
