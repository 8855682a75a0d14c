"""Bit-parallel simulation engine for kernel-backed networks.

One engine serves every simulation consumer in the package — exhaustive
truth tables (:meth:`Mig.simulate`), pattern simulation
(``simulate_patterns``), fraig candidate signatures, randomized
equivalence checking, and cut-cone functions — where previously the MIG,
the AIG, ``core/simulate.py`` and ``opt/fraig.py`` each carried their own
big-int loop.

A network is simulated by one Python loop over its gates in node order,
on one arbitrary-width integer word per node: bit ``k`` of each input
word is the k-th test vector, and bitwise gate operations never mix bit
positions, so every caller hands over all of its patterns in one wide
word and pays the loop's per-gate cost once.  Word-width semantics match
the historical simulators: input words are masked to *width* bits,
complement is ``xor`` with the width mask, and outputs are returned
masked.

numpy serves only the cut-table program (:func:`insert_dont_care`,
:func:`evaluate_cut_program`), whose rows are fixed 64-bit tables.

This module imports only numpy, the standard library and
:mod:`repro.core.kernel` — enforced by ``tools/check_layers.py``.  In
particular it cannot use :mod:`repro.core.truth_table`; the projection
patterns are replicated locally (same definition, shared tests).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .kernel import Network

__all__ = [
    "simulate_network",
    "simulate_all_nodes",
    "cone_function",
    "insert_dont_care",
    "evaluate_cut_program",
    "projection_int",
    "random_pattern_round",
    "random_signature_words",
    "SimulationMixin",
]

_MAX_CONE_VARS = 16


# ---------------------------------------------------------------------------
# projection patterns (variable truth tables)
# ---------------------------------------------------------------------------

_PROJECTION_CACHE: dict[tuple[int, int], int] = {}


def projection_int(num_vars: int, i: int) -> int:
    """Truth table of the projection ``x_i`` over ``2**num_vars`` bits.

    Same definition as ``repro.core.truth_table.tt_var`` (bit ``m`` is bit
    ``i`` of the minterm index ``m``), replicated here because the
    layering forbids this module from importing above the kernel.
    """
    if not 0 <= num_vars <= _MAX_CONE_VARS:
        raise ValueError(
            f"num_vars must be in [0, {_MAX_CONE_VARS}], got {num_vars}"
        )
    if not 0 <= i < num_vars:
        raise ValueError(f"variable index {i} out of range for {num_vars} variables")
    key = (num_vars, i)
    cached = _PROJECTION_CACHE.get(key)
    if cached is None:
        num_bits = 1 << num_vars
        block = ((1 << (1 << i)) - 1) << (1 << i)
        period = 1 << (i + 1)
        pattern = 0
        for shift in range(0, num_bits, period):
            pattern |= block << shift
        cached = pattern & ((1 << num_bits) - 1)
        _PROJECTION_CACHE[key] = cached
    return cached


# ---------------------------------------------------------------------------
# network simulation
# ---------------------------------------------------------------------------


def _simulate(
    net: Network, pi_words: Sequence[int], width: int
) -> tuple[list[int], int]:
    """Evaluate every gate of *net*; the value word of each node, and the mask."""
    if len(pi_words) != net.num_pis:
        raise ValueError(
            f"expected {net.num_pis} pattern words, got {len(pi_words)}"
        )
    net.sim_words += net.num_gates * max(1, (width + 63) >> 6)
    mask = (1 << width) - 1
    values = [0] * net.num_nodes
    for i, w in enumerate(pi_words):
        values[1 + i] = w & mask
    fanins = net._fanins
    first_gate = net.num_pis + 1
    if net.ARITY == 3:
        for node in range(first_gate, len(fanins)):
            a, b, c = fanins[node]  # type: ignore[misc]
            va = values[a >> 1] ^ (mask if a & 1 else 0)
            vb = values[b >> 1] ^ (mask if b & 1 else 0)
            vc = values[c >> 1] ^ (mask if c & 1 else 0)
            values[node] = (va & vb) | (va & vc) | (vb & vc)
    elif net.ARITY == 2:
        for node in range(first_gate, len(fanins)):
            a, b = fanins[node]  # type: ignore[misc]
            va = values[a >> 1] ^ (mask if a & 1 else 0)
            vb = values[b >> 1] ^ (mask if b & 1 else 0)
            values[node] = va & vb
    else:
        raise ValueError(f"unsupported gate arity {net.ARITY}")
    return values, mask


def simulate_network(
    net: Network, pi_words: Sequence[int], width: int
) -> list[int]:
    """Simulate *net* on one *width*-bit word per PI; one word per output.

    Bit ``k`` of each input word forms the k-th test vector; bit ``k`` of
    each output word is that vector's response (inputs and outputs
    masked to *width*).
    """
    values, mask = _simulate(net, pi_words, width)
    return [values[s >> 1] ^ (mask if s & 1 else 0) for s in net._outputs]


def simulate_all_nodes(
    net: Network, pi_words: Sequence[int], width: int
) -> list[int]:
    """Like :func:`simulate_network` but returns the value word of EVERY node.

    Entry ``i`` is the (uncomplemented) value of node ``i`` — the
    signature material of SAT sweeping.
    """
    return _simulate(net, pi_words, width)[0]


def cone_function(net: Network, root: int, leaves: Sequence[int]) -> int:
    """Local function of *root* expressed over the cut *leaves*.

    Leaf ``j`` becomes variable ``x_j`` of the returned truth table.
    Raises ``ValueError`` if the cone of *root* is not covered by the
    leaves (the constant node is always allowed, mirroring the cut
    definition in Sec. II-C of the paper).  Explicit-stack evaluation:
    cut cones can be arbitrarily deep (chain-shaped networks), so no
    recursion here.
    """
    k = len(leaves)
    values: dict[int, int] = {0: 0}
    for j, leaf in enumerate(leaves):
        values[leaf] = projection_int(k, j)
    mask = (1 << (1 << k)) - 1
    fanins = net._fanins
    arity = net.ARITY
    stack = [root]
    while stack:
        node = stack[-1]
        if node in values:
            stack.pop()
            continue
        if not net.is_gate(node):
            raise ValueError(f"terminal node {node} reached but is not a cut leaf")
        fanin = fanins[node]
        missing = [s >> 1 for s in fanin if s >> 1 not in values]  # type: ignore[union-attr]
        if missing:
            stack.extend(missing)
            continue
        if arity == 3:
            a, b, c = fanin  # type: ignore[misc]
            va = values[a >> 1] ^ (mask if a & 1 else 0)
            vb = values[b >> 1] ^ (mask if b & 1 else 0)
            vc = values[c >> 1] ^ (mask if c & 1 else 0)
            values[node] = (va & vb) | (va & vc) | (vb & vc)
        else:
            a, b = fanin  # type: ignore[misc]
            va = values[a >> 1] ^ (mask if a & 1 else 0)
            vb = values[b >> 1] ^ (mask if b & 1 else 0)
            values[node] = va & vb
        stack.pop()
    return values[root]


# ---------------------------------------------------------------------------
# batched cut-function programs (the rewrite pipeline's batch entry point)
# ---------------------------------------------------------------------------

#: ``_KEEP_LOW[s]`` keeps the bits whose minterm index has bit ``s``
#: clear: the complement of the 6-variable projection ``x_s``
_KEEP_LOW = tuple(projection_int(6, s) ^ 0xFFFFFFFFFFFFFFFF for s in range(5))


def insert_dont_care(tables: np.ndarray, position: int) -> np.ndarray:
    """Insert a don't-care variable at *position* into uint64 *tables*.

    Each table is a function of ``n <= 5`` variables with
    ``position <= n``; the result is the same function over ``n + 1``
    variables, where variable *position* is new and ignored and the
    variables at or above it move up by one: ``tt_permute(tt_extend(t,
    n, n + 1), perm, n + 1)`` for the permutation that moves variable
    ``n`` down to *position*.  Minterm index bits ``4 .. position`` move
    up one place in fixed mask-and-shift steps, highest first, and one
    shift fills the freed half with a copy.
    """
    t = tables.copy()
    for s in range(4, position - 1, -1):
        t |= t << (1 << s)
        t &= _KEEP_LOW[s]
    t |= t << (1 << position)
    return t


def evaluate_cut_program(
    num_slots: int,
    init_idx: np.ndarray,
    init_vals: np.ndarray,
    lev: np.ndarray,
    out_idx: np.ndarray,
    child_idx: np.ndarray,
    comp_mask: np.ndarray,
    dc_mask: np.ndarray,
    arity: int,
) -> np.ndarray:
    """Run a flat cut-function program; returns the per-slot tables.

    The batch counterpart of :func:`cone_function`: the whole program
    arrives as flat arrays — one row per gate cut, ``(n, arity)`` child
    slots / complement masks / don't-care masks — already levelized by
    *lev*, the cut's depth in the **provenance DAG** (1 + max child
    level).  Provenance depth is bounded by the cut cone depth, not the
    network depth, so deep chain-shaped networks compress into a handful
    of wide sweeps.

    A child cut's leaves are a sorted subset of its row's leaves; bit
    ``p`` of a fanin's *dc_mask* marks a row leaf the child lacks.  Per
    level, every fanin table is re-expressed on its row's leaves by
    inserting a don't-care variable at each marked position, lowest
    first (:func:`insert_dont_care`); a mask of 0 keeps the table.
    Tables are uint64 at every cut width up to 6.

    Each slot's table equals :func:`cone_function` of its cut
    (tests/core/test_cuts_differential.py).
    """
    if arity not in (2, 3):
        raise ValueError(f"unsupported gate arity {arity}")
    values = np.zeros(num_slots, dtype=np.uint64)
    if init_idx.size:
        values[init_idx] = init_vals
    n = out_idx.size
    if not n:
        return values
    order = np.argsort(lev, kind="stable")
    starts = np.unique(lev[order], return_index=True)[1]
    bounds = np.append(starts[1:], n)
    for s, e in zip(starts.tolist(), bounds.tolist()):
        rows = order[s:e]
        v = values[child_idx[rows]]
        dc = dc_mask[rows]
        missing = int(np.bitwise_or.reduce(dc, axis=None))
        for p in range(6):
            if missing >> p & 1:
                np.copyto(v, insert_dont_care(v, p), where=(dc & (1 << p)) != 0)
        v ^= comp_mask[rows]
        if arity == 3:
            a, b, c = v[:, 0], v[:, 1], v[:, 2]
            res = (a & b) | (a & c) | (b & c)
        else:
            res = v[:, 0] & v[:, 1]
        values[out_idx[rows]] = res
    return values


# ---------------------------------------------------------------------------
# random-vector helpers (the historical draw orders, deduped)
# ---------------------------------------------------------------------------


def random_pattern_round(rng, num_pis: int, width: int) -> list[int]:
    """One round of random input words, **round-major** draw order.

    The draw order of ``equivalent_random`` since the first release (one
    word per PI, drawn per round): keep it so historical seeds reproduce.
    """
    mask = (1 << width) - 1
    return [rng.getrandbits(width) & mask for _ in range(num_pis)]


def random_signature_words(
    rng, num_pis: int, num_words: int, width: int
) -> list[list[int]]:
    """Random signature words per PI, **node-major** draw order.

    The draw order of the fraig pass since the first release (all words
    of PI 1, then all words of PI 2, ...): keep it so historical seeds
    reproduce.
    """
    return [
        [rng.getrandbits(width) for _ in range(num_words)]
        for _ in range(num_pis)
    ]


# ---------------------------------------------------------------------------
# facade mixin
# ---------------------------------------------------------------------------


class SimulationMixin:
    """Simulation methods shared by the kernel facades (Mig, Aig).

    Mixed into classes deriving from :class:`~repro.core.kernel.Network`;
    everything dispatches into the module-level engine so the facades
    carry no simulation code of their own.
    """

    def simulate(self) -> list[int]:
        """Exhaustively simulate; returns one truth table per output.

        Only feasible for small input counts (``num_pis <= 16``).  The
        tables share the network's one memo slot with its levels
        (:meth:`~repro.core.kernel.Network.invalidate_arrays` drops the
        slot), so a repeated call simulates nothing and counts no
        ``sim_words``; every call returns a fresh list.
        """
        if self.num_pis > 16:
            raise ValueError(
                "exhaustive simulation limited to 16 inputs; use simulate_patterns"
            )
        facts = self._facts()
        if facts.tables is None:
            n = self.num_pis
            facts.tables = tuple(
                simulate_network(self, [projection_int(n, i) for i in range(n)], 1 << n)
            )
        return list(facts.tables)

    def simulate_patterns(self, patterns: Sequence[int], width: int) -> list[int]:
        """Bit-parallel simulation of arbitrary input patterns.

        *patterns* holds one word per PI; bit ``k`` of each word forms the
        k-th test vector.  Returns one word per output.
        """
        return simulate_network(self, patterns, width)

    def cut_function(self, root: int, leaves: Sequence[int]) -> int:
        """Return the local function of *root* expressed over *leaves*.

        *leaves* are node indices; leaf ``j`` becomes variable ``x_j`` of
        the returned truth table.  Raises ``ValueError`` if the cone of
        *root* is not covered by the leaves.
        """
        return cone_function(self, root, leaves)
