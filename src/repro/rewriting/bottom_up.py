"""Bottom-up functional hashing (Algorithm 2 of the paper).

Nodes are visited in topological order.  For every node, each 4-feasible
cut is matched against the precomputed minimum MIG of its function; the
resulting implementations — built over the *candidate* implementations of
the cut leaves — are collected as candidates ``(signal, size, depth)``.
Only a bounded number of best candidates per node is kept ("similar to
priority cuts in technology mapping", ref. [11]), and the best candidate
of each output node is selected at the end.

Size and depth of a candidate are estimates (leaf sizes plus database
size; sharing between leaf cones is not modelled), exactly as in the
paper's Algorithm 2 bookkeeping; the final network is measured after
dead-node cleanup.

Hot-path engineering (docs/PERFORMANCE.md): cut truth tables and their
NPN classes are precomputed for the whole pass
(:mod:`repro.rewriting.batch`) instead of cone re-simulation; for the
F-variants, cut enumeration itself is restricted to fanout-free cuts
(shared gates become leaves) so no per-cut admissibility walk runs at
all and exact cone sizes fall out of the merge; and every event is
counted in an optional :class:`~repro.runtime.metrics.PassMetrics`.
"""

from __future__ import annotations

from bisect import insort
from itertools import product
from typing import NamedTuple

from ..core.cuts import cut_cone_nodes
from ..core.mig import CONST0, Mig, make_signal
from ..database.npn_db import NpnDatabase
from ..runtime.metrics import PassMetrics
from .batch import finish_pass, start_pass

__all__ = ["rewrite_bottom_up"]


class _Candidate(NamedTuple):
    """A candidate implementation of a node in the new network.

    A NamedTuple rather than a (frozen) dataclass: one is built per
    visited node plus one per rebuilt implementation, and the tuple
    constructor is measurably cheaper than ``object.__setattr__`` per
    field on the hot path.
    """

    signal: int
    size: int
    depth: int


def _insert(
    candidates: list[_Candidate], new: _Candidate, limit: int
) -> list[_Candidate]:
    """Keep the best *limit* candidates, ordered by (size, depth).

    The list is always sorted, so one bisected insertion replaces the
    former sort-on-every-insert; with the tiny per-node candidate limits
    this loop runs for every (cut, leaf-combination) pair, which made the
    repeated full sorts a measurable slice of the bottom-up pass.

    A candidate for an already-present signal replaces the stored entry
    when its (size, depth) estimate is better: different cuts reach the
    same strashed signal with different leaf combinations, and keeping
    the first-seen (possibly worse) estimate would overstate the cost of
    every candidate built on top of this node downstream.

    Stored candidates are additionally kept dominance-free: a candidate
    no better than an existing one on *both* axes wastes a slot the
    sorted-by-size order would otherwise hand to a deeper-but-smaller
    (or shallower-but-larger) alternative — the insort key alone cannot
    see that an equal-size entry is strictly worse on depth.  Exact
    (size, depth) ties between different signals are kept: they cost the
    same but offer distinct sharing opportunities downstream.
    """
    dup = None
    for i, existing in enumerate(candidates):
        if existing.signal == new.signal:
            if (new.size, new.depth) >= (existing.size, existing.depth):
                return candidates
            dup = i
            break
    if any(
        existing.size <= new.size
        and existing.depth <= new.depth
        and (existing.size, existing.depth) != (new.size, new.depth)
        for existing in candidates
    ):
        return candidates
    if dup is not None:
        del candidates[dup]
    candidates[:] = [
        existing
        for existing in candidates
        if not (
            new.size <= existing.size
            and new.depth <= existing.depth
            and (new.size, new.depth) != (existing.size, existing.depth)
        )
    ]
    if len(candidates) >= limit:
        worst = candidates[-1]
        if (new.size, new.depth) >= (worst.size, worst.depth):
            return candidates
    insort(candidates, new, key=lambda cand: (cand.size, cand.depth))
    del candidates[limit:]
    return candidates


def rewrite_bottom_up(
    mig: Mig,
    db: NpnDatabase,
    depth_preserving: bool = False,
    fanout_free: bool = False,
    cut_size: int = 4,
    cut_limit: int = 8,
    candidate_limit: int = 3,
    combination_limit: int = 16,
    metrics: PassMetrics | None = None,
) -> Mig:
    """Run one bottom-up functional-hashing pass; returns the optimized MIG."""
    if metrics is None:
        metrics = PassMetrics()
    levels, cuts, tables, db_lookup = start_pass(
        mig, db, fanout_free, cut_size, cut_limit, metrics
    )
    all_entries = cuts.entries
    new = Mig.like(mig)

    cand: list[list[_Candidate] | None] = [None] * mig.num_nodes
    cand[0] = [_Candidate(CONST0, 0, 0)]
    for i in range(1, mig.num_pis + 1):
        cand[i] = [_Candidate(make_signal(i), 0, 0)]

    # Counters stay in locals inside the hot loop and are flushed into
    # *metrics* once per pass — attribute stores per cut are measurable.
    considered = admitted_total = rebuilt = db_hits = db_misses = 0
    trivial_r = invalid_r = miss_r = no_gain_r = depth_r = 0
    num_vars = db.num_vars
    new_maj = new.maj
    instantiated_depth_entry = db.instantiated_depth_entry
    rebuild_entry = db.rebuild_entry
    pad_signals = [CONST0] * num_vars
    pad_depths = [0] * num_vars

    with metrics.phase("rewrite"):
        for node in mig.gates():
            # Baseline candidate: rebuild the node from its fanins' best.
            a, b, c = mig.fanins(node)
            best_a = cand[a >> 1][0]
            best_b = cand[b >> 1][0]
            best_c = cand[c >> 1][0]
            baseline = _Candidate(
                new_maj(
                    best_a.signal ^ (a & 1),
                    best_b.signal ^ (b & 1),
                    best_c.signal ^ (c & 1),
                ),
                1 + best_a.size + best_b.size + best_c.size,
                1 + max(best_a.depth, best_b.depth, best_c.depth),
            )
            entries = _insert([], baseline, candidate_limit)

            for cut_entry in all_entries[node]:
                leaves = cut_entry[0]
                if leaves == (node,) or node in leaves:
                    trivial_r += 1
                    continue
                considered += 1
                if fanout_free:
                    # Restricted enumeration: fanout-free by construction,
                    # exact cone size rode along from the merge.
                    cone_gates = cut_entry[2]
                else:
                    internal = cut_cone_nodes(mig, node, leaves, None)
                    if internal is None:
                        invalid_r += 1
                        continue
                    cone_gates = len(internal)
                num_leaves = len(leaves)
                # The slot's table is already extended to num_vars.
                tt4 = tables[cut_entry[3]]
                try:
                    entry, transform = db_lookup(tt4)
                except KeyError:
                    db_misses += 1
                    miss_r += 1
                    continue
                db_hits += 1
                # Algorithm 2 admits replacements "that reduce the size";
                # equal-size replacements are kept only in depth-preserving
                # mode, where they may still help depth.
                gain = cone_gates - entry.size
                if gain < 0 or (gain == 0 and not depth_preserving):
                    no_gain_r += 1
                    continue
                leaf_options = [cand[leaf][:2] for leaf in leaves]
                pad_s = pad_signals[num_leaves:]
                pad_d = pad_depths[num_leaves:]
                combos = 0
                admitted = False
                for combo in product(*leaf_options):
                    combos += 1
                    if combos > combination_limit:
                        break
                    leaf_depths = [cnd.depth for cnd in combo] + pad_d
                    depth = instantiated_depth_entry(
                        entry, transform, leaf_depths
                    )
                    if depth_preserving and depth > levels[node]:
                        continue
                    if gain == 0 and depth >= levels[node]:
                        continue  # equal size must at least improve depth
                    size = entry.size + sum(cnd.size for cnd in combo)
                    leaf_signals = [cnd.signal for cnd in combo] + pad_s
                    signal = rebuild_entry(new, entry, transform, leaf_signals)
                    rebuilt += 1
                    admitted = True
                    entries = _insert(
                        entries, _Candidate(signal, size, depth), candidate_limit
                    )
                if admitted:
                    admitted_total += 1
                else:
                    depth_r += 1
            cand[node] = entries

        for s, name in zip(mig.outputs, mig.output_names):
            best = cand[s >> 1][0]
            new.add_po(best.signal ^ (s & 1), name)

    metrics.nodes_visited += mig.num_gates
    metrics.cuts_considered += considered
    metrics.cuts_admitted += admitted_total
    metrics.nodes_rebuilt += rebuilt
    metrics.db_hits += db_hits
    metrics.db_misses += db_misses
    rejected = {
        "trivial": trivial_r,
        "invalid-cone": invalid_r,
        "db-miss": miss_r,
        "no-gain": no_gain_r,
        "depth-increase": depth_r,
    }
    for reason, count in rejected.items():
        if count:
            metrics.cuts_rejected[reason] = (
                metrics.cuts_rejected.get(reason, 0) + count
            )
    return finish_pass(new, db, metrics)
