"""DAG-aware AIG rewriting — the ref. [6] baseline.

The paper positions MIG functional hashing against the classic AIG
rewriting of Mishchenko, Chatterjee and Brayton ("DAG-aware AIG rewriting
— a fresh look at combinational logic synthesis", DAC 2006): enumerate
4-input cuts, compare each cut's implementation against a precomputed
smaller structure, and replace greedily.

This implementation mirrors our MIG rewriter's top-down scheme over AND
gates.  Replacement structures are synthesized on demand per NPN class —
a memoized Shannon/xor-decomposition AIG factory — which plays the role
of [6]'s precomputed class library.  Combined with
:func:`repro.aig.balance.balance` this gives the size+depth AIG flow the
paper's related-work section describes, enabling head-to-head comparisons
with MIG functional hashing (``benchmarks/bench_aig_baseline.py``).
"""

from __future__ import annotations

import sys
from functools import lru_cache

from ..core.cuts import cut_cone, enumerate_cuts
from ..core.npn import apply_transform, npn_canonize
from ..core.truth_table import (
    tt_cofactor0,
    tt_cofactor1,
    tt_extend,
    tt_mask,
    tt_support,
    tt_var,
)
from .aig import Aig

__all__ = ["rewrite_aig", "aig_class_cost", "build_function_into_aig"]


@lru_cache(maxsize=1 << 16)
def _class_structure(rep: int, num_vars: int) -> tuple[tuple[int, int, int], ...]:
    """AND-gate structure for an NPN representative.

    Returns gate rows ``(lhs_node, rhs0_signal, rhs1_signal)`` over node
    numbering 0=const, 1..n = inputs; the last row's node drives the
    output, whose polarity is in the final sentinel row ``(-1, out, 0)``.
    """
    scratch = Aig(num_vars)
    signal = _build_recursive(scratch, rep, num_vars)
    scratch.add_po(signal)
    clean = scratch.cleanup()
    rows = []
    for node in clean.gates():
        a, b = clean.fanins(node)
        rows.append((node, a, b))
    rows.append((-1, clean.outputs[0], 0))
    return tuple(rows)


def _build_recursive(aig: Aig, tt: int, num_vars: int) -> int:
    """Heuristic AIG synthesis: memoized Shannon with xor detection."""
    mask = tt_mask(num_vars)
    memo: dict[int, int] = {0: 0, mask: 1}
    for i in range(num_vars):
        var = tt_var(num_vars, i)
        memo[var] = (1 + i) << 1
        memo[var ^ mask] = ((1 + i) << 1) ^ 1

    def build(f: int) -> int:
        cached = memo.get(f)
        if cached is not None:
            return cached
        comp = memo.get(f ^ mask)
        if comp is not None:
            return comp ^ 1
        support = tt_support(f, num_vars)
        best = None
        for i in support:
            f0 = tt_cofactor0(f, i, num_vars)
            f1 = tt_cofactor1(f, i, num_vars)
            score = -1 if f1 == f0 ^ mask else len(tt_support(f0, num_vars)) + len(
                tt_support(f1, num_vars)
            )
            if best is None or score < best[0]:
                best = (score, i, f0, f1)
        assert best is not None
        _, i, f0, f1 = best
        x = (1 + i) << 1
        if f1 == f0 ^ mask:
            g = build(f0)
            result = aig.xor(x, g)
        else:
            result = aig.mux(x, build(f1), build(f0))
        memo[f] = result
        return result

    return build(tt)


def aig_class_cost(tt: int, num_vars: int = 4) -> int:
    """AND-gate count of the synthesized structure for *tt*'s NPN class."""
    rep, _ = npn_canonize(tt, num_vars)
    return len(_class_structure(rep, num_vars)) - 1


def build_function_into_aig(
    aig: Aig, tt: int, leaf_signals: list[int], num_vars: int = 4
) -> int:
    """Instantiate the class structure of *tt* over *leaf_signals*."""
    if len(leaf_signals) != num_vars:
        raise ValueError(f"expected {num_vars} leaves")
    rep, t = npn_canonize(tt, num_vars)
    assert apply_transform(rep, t, num_vars) == tt
    structure = _class_structure(rep, num_vars)
    signals = [0] * (1 + num_vars)
    for j in range(num_vars):
        s = leaf_signals[t.perm[j]]
        if (t.flips >> j) & 1:
            s ^= 1
        signals[1 + j] = s
    node_map: dict[int, int] = {0: 0}
    for j in range(num_vars):
        node_map[1 + j] = signals[1 + j]
    out_signal = None
    for lhs, rhs0, rhs1 in structure:
        if lhs == -1:
            out_signal = node_map[rhs0 >> 1] ^ (rhs0 & 1)
            break
        a = node_map[rhs0 >> 1] ^ (rhs0 & 1)
        b = node_map[rhs1 >> 1] ^ (rhs1 & 1)
        node_map[lhs] = aig.and_(a, b)
    assert out_signal is not None
    if t.output_flip:
        out_signal ^= 1
    return out_signal


def rewrite_aig(
    aig: Aig,
    cut_size: int = 4,
    cut_limit: int = 10,
    fanout_free: bool = True,
) -> Aig:
    """One top-down cut-rewriting pass over an AIG; function-preserving."""
    cuts = enumerate_cuts(aig, k=cut_size, cut_limit=cut_limit)
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
