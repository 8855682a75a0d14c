"""Frozen small-MIG sweep for the enumerator differential test.

This module is a deliberate, self-contained snapshot of
``repro.exact.bounds.optimal_small_migs`` as it was before the numpy
level enumerator replaced it: the pure-Python sweep over every MIG of up
to three gates (two for ``num_vars > 4``).  The function body and the
two module-level names it reads are copied byte for byte; only the
module around them is new.

**Do not refactor this file alongside src/** — its value is that it
stays behind as the oracle: the enumerator must reach the same function
set with the same witness sizes (tests/exact/test_enumeration.py).
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.mig import CONST0, CONST1, make_signal, signal_not
from repro.core.truth_table import tt_maj, tt_mask, tt_var
from repro.exact.heuristic import single_gate_functions

__all__ = ["optimal_small_migs"]


# A witness is a tuple of gates; each gate is a triple of operand
# signals ``2 * node + complemented`` where node 0 is the constant,
# 1..n are primary inputs and n+1, n+2, ... are earlier witness gates.
Witness = tuple[tuple[int, int, int], ...]

#: Three-gate enumeration is O(|1-gate|^2) truth-table operations; past
#: this variable count we stop at the (cheap) two-gate sweep.
_THREE_GATE_MAX_VARS = 4


@lru_cache(maxsize=4)
def optimal_small_migs(num_vars: int) -> dict[int, Witness]:
    """Map truth table -> minimum witness gate list, for all small MIGs.

    Exhaustively enumerates every MIG structure with up to three gates
    (two for ``num_vars > 4``): every gate reads three *distinct* earlier
    nodes with arbitrary edge polarities, and every non-root gate feeds a
    later gate (dead gates never occur in a minimum MIG).  Functions of
    size 0 (constants and literals) are excluded — the synthesis driver
    handles them directly.  Witness length is the exact minimum size:
    each size layer only records functions absent from all smaller ones.
    """
    mask = tt_mask(num_vars)
    one_gate = single_gate_functions(num_vars)
    # Leaf operands: (signal, truth table) with distinct-node pairs only
    # (a node and its complement are the same node, as are 0 and 1).
    leaves = [(CONST0, 0), (CONST1, mask)]
    for i in range(num_vars):
        pos = make_signal(1 + i)
        v = tt_var(num_vars, i)
        leaves.append((pos, v))
        leaves.append((signal_not(pos), v ^ mask))
    leaf_pairs = [
        (leaves[ia], leaves[ib])
        for ia in range(len(leaves))
        for ib in range(ia + 1, len(leaves))
        if leaves[ia][0] >> 1 != leaves[ib][0] >> 1
    ]
    trivial = {0, mask}
    for _, v in leaves:
        trivial.add(v)

    table: dict[int, Witness] = {}
    # -- size 1 ----------------------------------------------------------
    for tt, ops in one_gate.items():
        if tt not in trivial:
            table.setdefault(tt, (ops,))
    one_tts = [tt for tt in one_gate if tt not in trivial]
    known = trivial | set(table)

    # -- size 2: root reads +/-g1 and two distinct leaf nodes ------------
    g1_ref = make_signal(num_vars + 1)
    two: dict[int, Witness] = {}
    for tt1 in one_tts:
        ops1 = one_gate[tt1]
        for g_sig, g_tt in ((g1_ref, tt1), (signal_not(g1_ref), tt1 ^ mask)):
            for (sa, va), (sb, vb) in leaf_pairs:
                tt = tt_maj(g_tt, va, vb)
                if tt not in known and tt not in two:
                    two[tt] = (ops1, (g_sig, sa, sb))
    table.update(two)
    known |= set(two)
    if num_vars > _THREE_GATE_MAX_VARS:
        return table

    # -- size 3 ----------------------------------------------------------
    g2_ref = make_signal(num_vars + 2)
    # (a) root reads the top of a two-gate chain plus two leaves.  The
    # exact-size-2 set is closed under complement (majority self-duality),
    # so iterating it positively covers both root polarities.
    for tt2, (w1, w2) in two.items():
        for (sa, va), (sb, vb) in leaf_pairs:
            tt = tt_maj(tt2, va, vb)
            if tt not in known:
                table[tt] = (w1, w2, (g2_ref, sa, sb))
    # (b) root reads g1, g2 and a leaf, where g2 also reads g1.  Root
    # polarities on g1/g2 are explicit: g2's construction pins g1.
    for tt1 in one_tts:
        ops1 = one_gate[tt1]
        for (sa, va), (sb, vb) in leaf_pairs:
            for g_sig, g_tt in ((g1_ref, tt1), (signal_not(g1_ref), tt1 ^ mask)):
                tt2 = tt_maj(g_tt, va, vb)
                if tt2 in trivial or tt2 in one_gate:
                    continue  # the whole network would shrink below 3 gates
                ops2 = (g_sig, sa, sb)
                for r1_sig, r1_tt in ((g1_ref, tt1), (signal_not(g1_ref), tt1 ^ mask)):
                    for r2_sig, r2_tt in ((g2_ref, tt2), (signal_not(g2_ref), tt2 ^ mask)):
                        for sc, vc in leaves:
                            tt = tt_maj(r1_tt, r2_tt, vc)
                            if tt not in known:
                                table[tt] = (ops1, ops2, (r1_sig, r2_sig, sc))
    # (c) root reads two independent single gates and a leaf.  The
    # one-gate truth-table set is closed under complement, so unordered
    # pairs over it cover all four root polarity combinations.
    for i1 in range(len(one_tts)):
        tt1 = one_tts[i1]
        ops1 = one_gate[tt1]
        for i2 in range(i1 + 1, len(one_tts)):
            tt2 = one_tts[i2]
            if tt2 == tt1 ^ mask:
                continue  # maj(f, ~f, c) = c: never a new function
            ops2 = one_gate[tt2]
            for sc, vc in leaves:
                tt = tt_maj(tt1, tt2, vc)
                if tt not in known:
                    table[tt] = (ops1, ops2, (g1_ref, g2_ref, sc))
    return table
