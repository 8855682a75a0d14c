"""AIG balancing by algebraic tree-height reduction (refs [6], [7]).

DAG-aware AIG rewriting interleaves rewriting with *balancing*: maximal
multi-input AND trees are collected and rebuilt as minimum-height trees,
combining the shallowest operands first (a Huffman-style greedy, which is
optimal for tree height).  The paper cites this as the mechanism by which
the AIG flow controls depth; we provide it both for the AIG substrate and
for depth comparisons against MIG optimization.
"""

from __future__ import annotations

import heapq

from .aig import Aig

__all__ = ["balance"]


def balance(aig: Aig) -> Aig:
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

    def build(root: int) -> None:
        """Populate ``mapping`` and ``level`` for *root* and its operands.

        A post-order on an explicit stack: each tree is visited once to
        schedule its unbuilt operands, first operand on top, and again to
        combine them once they are built.
        """
        operands: dict[int, list[int]] = {}
        stack = [root]
        while stack:
            node = stack[-1]
            if node in mapping:
                stack.pop()
                continue
            ops = operands.get(node)
            if ops is None:
                ops = operands[node] = operands_of_and_tree(node)
            missing = [s >> 1 for s in ops if (s >> 1) not in mapping]
            if missing:
                stack.extend(reversed(missing))
                continue
            items = [(level[s >> 1], mapping[s >> 1] ^ (s & 1)) for s in ops]
            heapq.heapify(items)
            while len(items) > 1:
                l1, s1 = heapq.heappop(items)
                l2, s2 = heapq.heappop(items)
                heapq.heappush(items, (max(l1, l2) + 1, new.and_(s1, s2)))
            lvl, signal = items[0]
            mapping[node] = signal
            level[node] = lvl
            stack.pop()

    for s in aig.outputs:
        if aig.is_gate(s >> 1):
            build(s >> 1)
    for s, name in zip(aig.outputs, aig.output_names):
        new.add_po(mapping[s >> 1] ^ (s & 1), name)
    return new.cleanup()
