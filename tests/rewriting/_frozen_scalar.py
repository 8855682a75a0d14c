"""Frozen scalar reference for the rewriting differential oracle.

This module is a deliberate, self-contained snapshot of the *scalar*
functional-hashing decision pipeline — cut walk, per-cut truth table by
cone simulation (``mig.cut_function``), one canonization per lookup
through the frozen pure-Python canonizer (tests/core/_frozen_npn.py),
scalar rebuild — taken at the point the array-native batch pipeline was
introduced.  It shares neither the recorded cut program
(``CutSet.slot_tables``) nor the vectorized canonizer with production,
and bypasses ``NpnDatabase.lookup_batch`` and the database's
instrumented ``lookup`` (fault hooks, counters), so it cannot drift when
those are optimized.

**Do not refactor this file alongside src/** — its value is that it
stays behind as the oracle: the production pipeline under any ``batch``
setting must keep choosing byte-identical rewrites
(tests/rewriting/test_differential.py).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import product

from repro.core.cuts import cut_cone_nodes, enumerate_cut_set
from repro.core.mig import CONST0, Mig, make_signal, signal_not
from repro.core.truth_table import tt_extend

from ..core._frozen_npn import npn_canonize

__all__ = ["frozen_functional_hashing"]


def _lookup(db, tt):
    """Scalar database consult: one npn_canonize, no counters, no faults."""
    rep, transform = npn_canonize(tt, db.num_vars)
    entry = db.entries.get(rep)
    if entry is None:
        raise KeyError(f"no database entry for NPN class 0x{rep:x}")
    return entry, transform


def _rebuild(db, mig, entry, t, leaf_signals):
    input_signals = []
    for j in range(db.num_vars):
        s = leaf_signals[t.perm[j]]
        if (t.flips >> j) & 1:
            s = signal_not(s)
        input_signals.append(s)
    signals = [0] + input_signals
    for a, b, c in entry.gates:
        mapped = tuple(signals[s >> 1] ^ (s & 1) for s in (a, b, c))
        signals.append(mig.maj(*mapped))
    out = signals[entry.output >> 1] ^ (entry.output & 1)
    if t.output_flip:
        out = signal_not(out)
    return out


def _instantiated_depth(db, entry, t, leaf_levels):
    pins = entry.pin_depths()
    depth = 0
    for j in range(db.num_vars):
        if pins[j] < 0:
            continue
        depth = max(depth, leaf_levels[t.perm[j]] + pins[j])
    return depth


@dataclass(frozen=True)
class _Candidate:
    signal: int
    size: int
    depth: int


def _insert(candidates, new, limit):
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


def _bottom_up(
    mig,
    db,
    depth_preserving,
    fanout_free,
    cut_size=4,
    cut_limit=8,
    candidate_limit=3,
    combination_limit=16,
):
    fanout = mig.fanout_counts()
    cuts = enumerate_cut_set(
        mig,
        k=cut_size,
        cut_limit=cut_limit,
        ffr_fanout=fanout if fanout_free else None,
    )
    levels = mig.levels()
    new = Mig.like(mig)
    cand = {0: [_Candidate(CONST0, 0, 0)]}
    for i in range(1, mig.num_pis + 1):
        cand[i] = [_Candidate(make_signal(i), 0, 0)]
    num_vars = db.num_vars
    for node in mig.gates():
        entries = []
        a, b, c = mig.fanins(node)
        best_a, best_b, best_c = (cand[a >> 1][0], cand[b >> 1][0], cand[c >> 1][0])
        baseline = _Candidate(
            new.maj(
                best_a.signal ^ (a & 1),
                best_b.signal ^ (b & 1),
                best_c.signal ^ (c & 1),
            ),
            1 + best_a.size + best_b.size + best_c.size,
            1 + max(best_a.depth, best_b.depth, best_c.depth),
        )
        entries = _insert(entries, baseline, candidate_limit)
        for leaves in cuts[node]:
            if leaves == (node,) or node in leaves:
                continue
            if fanout_free:
                cone_gates = cuts.cone_size(node, leaves)
                if cone_gates is None:
                    continue
            else:
                internal = cut_cone_nodes(mig, node, leaves, None)
                if internal is None:
                    continue
                cone_gates = len(internal)
            tt = mig.cut_function(node, leaves)
            tt4 = tt_extend(tt, len(leaves), num_vars)
            try:
                entry, transform = _lookup(db, tt4)
            except KeyError:
                continue
            gain = cone_gates - entry.size
            if gain < 0 or (gain == 0 and not depth_preserving):
                continue
            leaf_options = [cand[leaf][:2] for leaf in leaves]
            combos = 0
            for combo in product(*leaf_options):
                combos += 1
                if combos > combination_limit:
                    break
                leaf_signals = [cnd.signal for cnd in combo]
                leaf_signals += [CONST0] * (num_vars - len(leaves))
                leaf_depths = [cnd.depth for cnd in combo]
                leaf_depths += [0] * (num_vars - len(leaves))
                depth = _instantiated_depth(db, entry, transform, leaf_depths)
                if depth_preserving and depth > levels[node]:
                    continue
                if gain == 0 and depth >= levels[node]:
                    continue
                size = entry.size + sum(cnd.size for cnd in combo)
                signal = _rebuild(db, new, entry, transform, leaf_signals)
                entries = _insert(
                    entries, _Candidate(signal, size, depth), candidate_limit
                )
        cand[node] = entries
    for s, name in zip(mig.outputs, mig.output_names):
        best = cand[s >> 1][0]
        new.add_po(best.signal ^ (s & 1), name)
    return new.cleanup()


def _top_down(
    mig,
    db,
    depth_preserving,
    fanout_free,
    cut_size=4,
    cut_limit=12,
):
    fanout = mig.fanout_counts()
    cuts = enumerate_cut_set(
        mig,
        k=cut_size,
        cut_limit=cut_limit,
        ffr_fanout=fanout if fanout_free else None,
    )
    levels = mig.levels()
    new = Mig.like(mig)
    memo = {0: 0}
    for i in range(1, mig.num_pis + 1):
        memo[i] = make_signal(i)

    def best_cut(node):
        best = None
        for leaves in cuts[node]:
            if leaves == (node,) or node in leaves:
                continue
            if fanout_free:
                cone_gates = cuts.cone_size(node, leaves)
                if cone_gates is None:
                    continue
            else:
                internal = cut_cone_nodes(mig, node, leaves, None)
                if internal is None:
                    continue
                cone_gates = len(internal)
            tt = mig.cut_function(node, leaves)
            tt4 = tt_extend(tt, len(leaves), db.num_vars)
            try:
                entry, transform = _lookup(db, tt4)
            except KeyError:
                continue
            gain = cone_gates - entry.size
            if gain <= 0:
                continue
            if depth_preserving:
                leaf_levels = [levels[leaf] for leaf in leaves]
                leaf_levels += [0] * (db.num_vars - len(leaves))
                new_level = _instantiated_depth(db, entry, transform, leaf_levels)
                if new_level > levels[node]:
                    continue
            if best is None or gain > best[0]:
                best = (gain, leaves, entry, transform)
        if best is None:
            return None
        return best[1], best[2], best[3]

    choice_cache = {}

    def opt(root):
        stack = [root]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            if node not in choice_cache:
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
                signal = _rebuild(db, new, entry, transform, leaf_signals)
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

    for s, name in zip(mig.outputs, mig.output_names):
        new.add_po(opt(s >> 1) ^ (s & 1), name)
    return new.cleanup()


def frozen_functional_hashing(mig, db, variant, cut_size=4, cut_limit=8):
    """Scalar oracle for one engine pass of the given paper variant.

    Defaults mirror :func:`repro.rewriting.engine.functional_hashing`
    (which hands ``cut_limit=8`` to both traversals).
    """
    name = variant.upper()
    top_down = name.startswith("T")
    fanout_free = "F" in name
    depth_preserving = name.endswith("D")
    if top_down:
        return _top_down(
            mig, db, depth_preserving, fanout_free, cut_size, cut_limit
        )
    return _bottom_up(
        mig, db, depth_preserving, fanout_free, cut_size, cut_limit
    )
