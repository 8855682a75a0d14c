"""Frozen reference: the recursive AIG balancing pass.

A verbatim copy of ``repro.aig.balance.balance`` as it stood before the
pass moved onto an explicit stack: the natural recursion, under a raised
recursion limit.  ``tests/aig/test_balance.py`` holds the production
pass to it node for node.  Do not "fix" this file — it is the spec.
"""

from __future__ import annotations

import heapq
import sys

from repro.aig.aig import Aig

__all__ = ["frozen_balance"]


def frozen_balance(aig: Aig) -> Aig:
    """Return a depth-balanced, function-equivalent copy of *aig*."""
    fanout = [0] * (aig.num_pis + 1 + aig.num_gates)
    for node in aig.gates():
        for s in aig.fanins(node):
            fanout[s >> 1] += 1
    for s in aig.outputs:
        fanout[s >> 1] += 1

    new = Aig.like(aig)
    mapping: dict[int, int] = {0: 0}
    level: dict[int, int] = {0: 0}
    for i in range(1, aig.num_pis + 1):
        mapping[i] = i << 1
        level[i] = 0

    def operands_of_and_tree(node: int) -> list[int]:
        """Operand signals of the maximal single-fanout AND tree at *node*."""
        operands: list[int] = []
        stack = list(aig.fanins(node))
        while stack:
            s = stack.pop()
            child = s >> 1
            if not (s & 1) and aig.is_gate(child) and fanout[child] == 1:
                stack.extend(aig.fanins(child))
            else:
                operands.append(s)
        return operands

    def build(node: int) -> None:
        """Populate ``mapping[node]`` and ``level[node]``."""
        if node in mapping:
            return
        items: list[tuple[int, int]] = []
        for s in operands_of_and_tree(node):
            child = s >> 1
            if child not in mapping:
                build(child)
            items.append((level[child], mapping[child] ^ (s & 1)))
        heapq.heapify(items)
        while len(items) > 1:
            l1, s1 = heapq.heappop(items)
            l2, s2 = heapq.heappop(items)
            heapq.heappush(items, (max(l1, l2) + 1, new.and_(s1, s2)))
        lvl, signal = items[0]
        mapping[node] = signal
        level[node] = lvl

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * len(fanout) + 1000))
    try:
        for s in aig.outputs:
            if aig.is_gate(s >> 1):
                build(s >> 1)
        for s, name in zip(aig.outputs, aig.output_names):
            new.add_po(mapping[s >> 1] ^ (s & 1), name)
    finally:
        sys.setrecursionlimit(old_limit)
    return new.cleanup()
