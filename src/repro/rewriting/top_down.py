"""Top-down functional hashing (Algorithm 1 of the paper).

Starting from every output, the pass looks for the 4-feasible cut of the
current node whose replacement by the precomputed minimum MIG yields the
largest size reduction.  If one exists, the cut's internal nodes are
skipped and optimization continues on the cut leaves; otherwise the node
is kept and optimization continues on its fanins.

Variants (Sec. IV / Sec. V-C acronyms):

* plain ``T`` — cuts are admitted regardless of internal fanout.  The
  *estimated* gain assumes all internal nodes disappear, which over-counts
  when internal nodes feed logic outside the cut; those nodes get rebuilt
  elsewhere and the network can *grow* — exactly the size increases the
  paper reports for variant T in Table III.
* ``..F`` (fanout-free) — only cuts whose internal nodes (other than the
  root) have a single fanout are admitted, so the estimate is exact and
  sharing is never duplicated.
* ``..D`` (depth-preserving) — cuts whose replacement would locally
  increase depth are discarded (the paper's "simple heuristic"; the
  *global* depth may still increase when a non-critical path lengthens,
  also noted in the paper).

Hot-path engineering (docs/PERFORMANCE.md): the traversal uses an
explicit work stack instead of recursion (no ``sys.setrecursionlimit``
games, deep chain MIGs are fine), cut truth tables and their NPN classes
are precomputed for the whole pass (:mod:`repro.rewriting.batch`), the
F-variants enumerate only fanout-free cuts (shared gates become leaves,
so no per-cut admissibility walk runs), and every event is counted in an
optional :class:`~repro.runtime.metrics.PassMetrics`.
"""

from __future__ import annotations

from ..core.cuts import cut_cone_nodes
from ..core.mig import CONST0, Mig, make_signal
from ..database.npn_db import NpnDatabase
from ..runtime.metrics import PassMetrics
from .batch import finish_pass, start_pass

__all__ = ["rewrite_top_down"]


def rewrite_top_down(
    mig: Mig,
    db: NpnDatabase,
    depth_preserving: bool = False,
    fanout_free: bool = False,
    cut_size: int = 4,
    cut_limit: int = 12,
    metrics: PassMetrics | None = None,
) -> Mig:
    """Run one top-down functional-hashing pass; returns the optimized MIG."""
    if metrics is None:
        metrics = PassMetrics()
    levels, cuts, tables, db_lookup = start_pass(
        mig, db, fanout_free, cut_size, cut_limit, metrics
    )
    all_entries = cuts.entries
    new = Mig.like(mig)

    memo: dict[int, int] = {0: 0}
    for i in range(1, mig.num_pis + 1):
        memo[i] = make_signal(i)

    def best_cut(node: int):
        """Pick the admissible cut with the largest estimated reduction.

        Returns ``(leaves, entry, transform)`` — the database answer is
        threaded to the emit step so rebuilding pays no second lookup.
        """
        best = None
        for cut_entry in all_entries[node]:
            leaves = cut_entry[0]
            if leaves == (node,) or node in leaves:
                metrics.reject("trivial")
                continue
            metrics.cuts_considered += 1
            if fanout_free:
                # Restricted enumeration: fanout-free by construction,
                # exact cone size rode along from the merge.
                cone_gates = cut_entry[2]
            else:
                internal = cut_cone_nodes(mig, node, leaves, None)
                if internal is None:
                    metrics.reject("invalid-cone")
                    continue
                cone_gates = len(internal)
            # The slot's table is already extended to db.num_vars.
            tt4 = tables[cut_entry[3]]
            try:
                entry, transform = db_lookup(tt4)
            except KeyError:
                metrics.db_misses += 1
                metrics.reject("db-miss")
                continue
            metrics.db_hits += 1
            gain = cone_gates - entry.size
            if gain <= 0:
                metrics.reject("no-gain")
                continue
            if depth_preserving:
                leaf_levels = [levels[leaf] for leaf in leaves]
                leaf_levels += [0] * (db.num_vars - len(leaves))
                new_level = db.instantiated_depth_entry(entry, transform, leaf_levels)
                if new_level > levels[node]:
                    metrics.reject("depth-increase")
                    continue
            metrics.cuts_admitted += 1
            if best is None or gain > best[0]:
                best = (gain, leaves, entry, transform)
        if best is None:
            return None
        return best[1], best[2], best[3]

    # Iterative replacement for the natural recursion: each node is
    # visited twice — first to decide (best cut vs. structural copy) and
    # schedule its dependencies, then to emit its signal once all
    # dependencies are memoized.  The chosen cut is cached between the
    # two visits so best_cut runs at most once per node.
    choice_cache: dict = {}

    def opt(root: int) -> int:
        stack = [root]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            if node not in choice_cache:
                metrics.nodes_visited += 1
                choice_cache[node] = best_cut(node)
            choice = choice_cache[node]
            if choice is not None:
                deps = list(choice[0])
            else:
                deps = [s >> 1 for s in mig.fanins(node)]
            missing = [d for d in deps if d not in memo]
            if missing:
                stack.extend(missing)
                continue
            if choice is not None:
                leaves, entry, transform = choice
                leaf_signals = [memo[leaf] for leaf in leaves]
                leaf_signals += [CONST0] * (db.num_vars - len(leaves))
                signal = db.rebuild_entry(new, entry, transform, leaf_signals)
                metrics.nodes_rebuilt += 1
            else:
                a, b, c = mig.fanins(node)
                signal = new.maj(
                    memo[a >> 1] ^ (a & 1),
                    memo[b >> 1] ^ (b & 1),
                    memo[c >> 1] ^ (c & 1),
                )
            memo[node] = signal
            stack.pop()
        return memo[root]

    with metrics.phase("rewrite"):
        for s, name in zip(mig.outputs, mig.output_names):
            new.add_po(opt(s >> 1) ^ (s & 1), name)
    return finish_pass(new, db, metrics)
