"""DAG-aware AIG rewriting — the ref. [6] baseline.

The paper positions MIG functional hashing against the classic AIG
rewriting of Mishchenko, Chatterjee and Brayton ("DAG-aware AIG rewriting
— a fresh look at combinational logic synthesis", DAC 2006): enumerate
4-input cuts, compare each cut's implementation against a precomputed
smaller structure, and replace greedily.

This implementation runs our MIG rewriter's top-down scheme over AND
gates, on the same cut pipeline: cut tables come from the program the
enumerator records and are canonized in one sweep, and only fanout-free
cuts are enumerated, as in the MIG F-variants.
Replacement structures are synthesized on demand per NPN class — a
memoized Shannon/xor-decomposition AIG factory — which plays the role
of [6]'s precomputed class library.  Combined with
:func:`repro.aig.balance.balance` this gives the size+depth AIG flow the
paper's related-work section describes, enabling head-to-head comparisons
with MIG functional hashing (``benchmarks/bench_aig_baseline.py``).
"""

from __future__ import annotations

from functools import lru_cache

from ..core.cuts import enumerate_cut_set
from ..core.npn import NPNTransform, apply_transform, npn_canonize, npn_canonize_batch
from ..core.truth_table import (
    tt_cofactor0,
    tt_cofactor1,
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
    return _instantiate(aig, rep, t, leaf_signals, num_vars)


def _instantiate(
    aig: Aig, rep: int, t: NPNTransform, leaf_signals: list[int], num_vars: int
) -> int:
    """Build the structure of class *rep* under transform *t* into *aig*."""
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


def rewrite_aig(aig: Aig, cut_size: int = 4, cut_limit: int = 10) -> Aig:
    """One top-down cut-rewriting pass over an AIG; function-preserving.

    Each cut's gain is its cone's gate count minus the AND count of its
    class structure.  Only fanout-free cuts are enumerated — shared
    gates become leaves — so the exact cone size comes from the merge.
    The walk is :func:`repro.rewriting.top_down.rewrite_top_down`'s, on
    an explicit stack, and emits each node's dependencies in order.
    """
    cuts = enumerate_cut_set(
        aig, k=cut_size, cut_limit=cut_limit, ffr_fanout=aig.fanout_counts()
    )
    all_entries = cuts.entries
    tables = cuts.slot_tables(cut_size)
    distinct = cuts.batch_tt4s(cut_size).tolist()
    classes = dict(zip(distinct, npn_canonize_batch(distinct, cut_size)))
    new = Aig.like(aig)
    memo: dict[int, int] = {0: 0}
    for i in range(1, aig.num_pis + 1):
        memo[i] = i << 1

    def best_cut(node: int):
        """``(leaves, rep, transform)`` of the best-gain cut, or None."""
        best = None
        for leaves, _, size, slot in all_entries[node]:
            if leaves == (node,) or node in leaves:
                continue
            rep, transform = classes[tables[slot]]
            gain = size - (len(_class_structure(rep, cut_size)) - 1)
            if gain <= 0:
                continue
            if best is None or gain > best[0]:
                best = (gain, leaves, rep, transform)
        if best is None:
            return None
        return best[1:]

    # Each node is visited twice: first to choose its cut and schedule
    # its dependencies, then to emit its signal once they are built.
    choices: dict = {}

    def opt(root: int) -> int:
        stack = [root]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            if node not in choices:
                choices[node] = best_cut(node)
            choice = choices[node]
            if choice is not None:
                deps = choice[0]
            else:
                deps = [s >> 1 for s in aig.fanins(node)]
            missing = [d for d in deps if d not in memo]
            if missing:
                # Reversed, so the first dependency is built first.
                stack.extend(reversed(missing))
                continue
            if choice is not None:
                leaves, rep, transform = choice
                leaf_signals = [memo[leaf] for leaf in leaves]
                leaf_signals += [0] * (cut_size - len(leaves))
                signal = _instantiate(new, rep, transform, leaf_signals, cut_size)
            else:
                a, b = aig.fanins(node)
                signal = new.and_(memo[a >> 1] ^ (a & 1), memo[b >> 1] ^ (b & 1))
            memo[node] = signal
            stack.pop()
        return memo[root]

    for s, name in zip(aig.outputs, aig.output_names):
        new.add_po(opt(s >> 1) ^ (s & 1), name)
    return new.cleanup()
