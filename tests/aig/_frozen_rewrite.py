"""Frozen reference: the recursive, per-cut AIG rewriting pass.

A verbatim copy of ``repro.aig.rewrite.rewrite_aig`` as it stood before
the pass moved onto the recorded cut program.  Per cut it walks the cone
(``cut_cone``, copied below), tests fanout-freeness on that walk,
re-simulates the cone (``Aig.cut_function``) and canonizes the table on
its own; the traversal is the natural recursion under a raised
recursion limit.

Two adaptations, neither of which changes a result:

* the deleted ``enumerate_cuts`` returned the leaf lists of the shared
  enumeration core; ``enumerate_cut_set(...).cuts`` returns the same
  lists, which ``tests/core/test_cuts_differential.py`` holds to a
  frozen enumerator;
* ``cut_cone`` left ``repro.core.cuts`` with its last caller, so its
  body lives here.

``tests/aig/test_rewrite.py`` holds the production pass, which
enumerates fanout-free cuts only, to this copy's default mode: equivalent
and no larger.  Do not "fix" this file — it is the spec.
"""

from __future__ import annotations

import sys

from repro.aig.aig import Aig
from repro.aig.rewrite import aig_class_cost, build_function_into_aig
from repro.core.cuts import enumerate_cut_set
from repro.core.truth_table import tt_extend

__all__ = ["frozen_rewrite_aig"]


def cut_cone(mig, root: int, leaves: tuple[int, ...]) -> list[int]:
    """Return the internal nodes of cut ``(root, leaves)`` in topological order.

    Internal nodes are the gates strictly inside the cut, *including* the
    root itself.  Raises ``ValueError`` when a non-constant terminal is
    reached that is not a leaf (i.e. ``leaves`` is not a valid cut).
    """
    leaf_set = set(leaves)
    visited: set[int] = set()
    order: list[int] = []
    # (node, expanded): post-order with an explicit stack.
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in leaf_set or node == 0 or node in visited:
            continue
        if not mig.is_gate(node):
            raise ValueError(f"node {node} is a terminal outside the cut leaves")
        visited.add(node)
        stack.append((node, True))
        for s in mig.fanins(node):
            stack.append((s >> 1, False))
    return order


def frozen_rewrite_aig(
    aig: Aig,
    cut_size: int = 4,
    cut_limit: int = 10,
    fanout_free: bool = True,
) -> Aig:
    """One top-down cut-rewriting pass over an AIG; function-preserving."""
    cuts = enumerate_cut_set(aig, k=cut_size, cut_limit=cut_limit).cuts
    fanout = aig.fanout_counts()
    new = Aig.like(aig)
    memo: dict[int, int] = {0: 0}
    for i in range(1, aig.num_pis + 1):
        memo[i] = i << 1

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 4 * (aig.num_pis + aig.num_gates) + 1000))

    def admissible(node: int, leaves: tuple[int, ...]) -> list[int] | None:
        try:
            internal = cut_cone(aig, node, leaves)
        except ValueError:
            return None
        if fanout_free and any(
            fanout[n] != 1 for n in internal if n != node
        ):
            return None
        return internal

    def best_cut(node: int) -> tuple[tuple[int, ...], int] | None:
        best = None
        for leaves in cuts[node]:
            if leaves == (node,) or node in leaves:
                continue
            internal = admissible(node, leaves)
            if internal is None:
                continue
            tt = aig.cut_function(node, leaves)
            tt4 = tt_extend(tt, len(leaves), cut_size)
            gain = len(internal) - aig_class_cost(tt4, cut_size)
            if gain <= 0:
                continue
            if best is None or gain > best[0]:
                best = (gain, leaves, tt4)
        if best is None:
            return None
        return best[1], best[2]

    def opt(node: int) -> int:
        cached = memo.get(node)
        if cached is not None:
            return cached
        choice = best_cut(node)
        if choice is not None:
            leaves, tt4 = choice
            leaf_signals = [opt(leaf) for leaf in leaves]
            leaf_signals += [0] * (cut_size - len(leaves))
            signal = build_function_into_aig(new, tt4, leaf_signals, cut_size)
        else:
            a, b = aig.fanins(node)
            signal = new.and_(
                opt(a >> 1) ^ (a & 1), opt(b >> 1) ^ (b & 1)
            )
        memo[node] = signal
        return signal

    try:
        for s, name in zip(aig.outputs, aig.output_names):
            new.add_po(opt(s >> 1) ^ (s & 1), name)
    finally:
        sys.setrecursionlimit(limit)
    return new.cleanup()
