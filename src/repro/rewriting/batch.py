"""The set-up and tear-down shared by the rewriting passes.

Both traversals (Algorithms 1 and 2 of the paper) run one candidate
pipeline (docs/PERFORMANCE.md):

1. **Enumerate** — :func:`repro.core.cuts.enumerate_cut_set` collects the
   k-feasible cuts and records, in the same merge loop, the flat program
   that evaluates every cut truth table.
2. **Batch** — :meth:`repro.core.cuts.CutSet.batch_tt4s` runs that program
   and collects the deduplicated extended tables, and
   :meth:`repro.database.npn_db.NpnDatabase.lookup_batch` canonizes them
   in one vectorized NPN sweep and resolves their classes.
   :func:`prepare_lookup_table` spreads those answers over the cut slots
   (:meth:`~repro.core.cuts.CutSet.slot_tables`), so the rewriter reads
   each cut's database answer with one list index by slot.

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
from ..runtime.metrics import REJECT_REASONS, PassMetrics

__all__ = ["prepare_lookup_table", "start_pass", "flush_counts", "finish_pass"]


def prepare_lookup_table(
    cuts: CutSet, db: NpnDatabase, metrics: PassMetrics | None = None
) -> list:
    """Look up every gate-cut function of *cuts* in one sweep.

    Returns the database answers indexed by cut slot
    (``entries[node][i][3]``): ``(entry, transform)``, or ``None`` for a
    class without an entry.  Trivial cuts are not looked up: every PI
    and trivial gate cut shares one slot, which holds ``None`` unless a
    gate cut shares its table ``x0``.  Cut tables of up to
    ``db.num_vars`` (at most 6) inputs are covered.
    """
    num_vars = db.num_vars
    table = db.lookup_batch(cuts.batch_tt4s(num_vars))
    if metrics is not None:
        metrics.batch_npn_lookups += len(table)
    return list(map(table.get, cuts.slot_tables(num_vars)))


def start_pass(
    mig: Mig,
    db: NpnDatabase,
    fanout_free: bool,
    cut_size: int,
    cut_limit: int,
    metrics: PassMetrics,
):
    """Enumerate the cuts of *mig* and look up their functions.

    Returns ``(levels, cuts, answers)``: the per-node levels of *mig*,
    the :class:`~repro.core.cuts.CutSet`, and the database answer of
    every cut slot (:func:`prepare_lookup_table`).  Callers hold *cuts*
    until the pass ends: freeing its program lists before the rewrite
    loop raised the flow-suite benchmark's peak RSS by about 8 % (glibc
    heap growth).
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
        answers = prepare_lookup_table(cuts, db, metrics)
    return levels, cuts, answers


def flush_counts(
    metrics: PassMetrics,
    visited: int,
    considered: int,
    admitted: int,
    rebuilt: int,
    db_hits: int,
    db_misses: int,
    rejected: tuple[int, ...],
) -> None:
    """Add one pass's event counts, kept in locals by its loop, to *metrics*.

    *rejected* holds the rejected-cut counts in
    :data:`~repro.runtime.metrics.REJECT_REASONS` order; a reason that
    never occurred adds no key.
    """
    metrics.nodes_visited += visited
    metrics.cuts_considered += considered
    metrics.cuts_admitted += admitted
    metrics.nodes_rebuilt += rebuilt
    metrics.db_hits += db_hits
    metrics.db_misses += db_misses
    by_reason = metrics.cuts_rejected
    for reason, count in zip(REJECT_REASONS, rejected):
        if count:
            by_reason[reason] = by_reason.get(reason, 0) + count


def finish_pass(new: Mig, db: NpnDatabase, metrics: PassMetrics) -> Mig:
    """Clean up the construction network *new*; account the pass."""
    with metrics.phase("cleanup"):
        result = new.cleanup()
    # Kernel counters of the construction network and the cleaned copy.
    metrics.record_network(new)
    metrics.record_network(result)
    if hasattr(db, "drain_metrics"):
        # Dynamic databases account their tier counters per pass.
        db.drain_metrics(metrics)
    return result
