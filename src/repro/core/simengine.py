"""Bit-parallel simulation engine for kernel-backed networks.

One engine serves every simulation consumer in the package — exhaustive
truth tables (:meth:`Mig.simulate`), pattern simulation
(``simulate_patterns``), fraig candidate signatures, randomized
equivalence checking, and cut-cone functions — where previously the MIG,
the AIG, ``core/simulate.py`` and ``opt/fraig.py`` each carried their own
big-int loop.

Two backends compute bit-identical results:

* **bigint** — the historical per-node Python loop over arbitrary-width
  integers.  Zero setup cost; fastest for small networks and narrow
  words.
* **numpy** — the network's gates evaluated level by level over a
  ``(num_nodes, columns)`` uint64 matrix (one column = one 64-bit word of
  the simulation vector).  Each level is a handful of vectorized gather /
  bitwise ops over every gate of that level at once, which is where large
  networks and wide vectors win by an order of magnitude.

The packing convention makes the two interchangeable: bit ``k`` of a
Python word is bit ``k % 64`` of column ``k // 64`` (little-endian
words).  ``backend="auto"`` picks by the work product ``num_gates *
columns``.

Word-width semantics match the historical simulators: input words are
masked to *width* bits, complement is ``xor`` with the width mask, and
outputs are returned masked.

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
    "simulate_words",
    "cone_function",
    "insert_dont_care",
    "evaluate_cut_program",
    "projection_int",
    "projection_columns",
    "pack_ints",
    "unpack_ints",
    "column_mask",
    "num_columns",
    "random_pattern_round",
    "random_signature_words",
    "SimulationMixin",
]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: below this many gate-words the big-int loop beats numpy's per-level
#: dispatch overhead (measured in benchmarks/bench_hotpath.py)
_NUMPY_MIN_WORK = 4096

_MAX_CONE_VARS = 16


# ---------------------------------------------------------------------------
# packing between Python ints and uint64 column matrices
# ---------------------------------------------------------------------------


def num_columns(width: int) -> int:
    """Number of 64-bit columns needed for *width*-bit words."""
    return max(1, (width + 63) >> 6)


def column_mask(width: int) -> np.ndarray:
    """Per-column mask of the valid bits of a *width*-bit word."""
    mask = np.full(num_columns(width), _ALL_ONES, dtype=np.uint64)
    rem = width & 63
    if rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


def pack_ints(words: Sequence[int], columns: int) -> np.ndarray:
    """Pack Python ints into a ``(len(words), columns)`` uint64 matrix.

    Bit ``k`` of a word becomes bit ``k % 64`` of column ``k // 64``.
    """
    n = len(words)
    stride = columns * 8
    buf = bytearray(n * stride)
    for i, w in enumerate(words):
        buf[i * stride : (i + 1) * stride] = w.to_bytes(stride, "little")
    return np.frombuffer(bytes(buf), dtype="<u8").reshape(n, columns)


def unpack_ints(matrix: np.ndarray) -> list[int]:
    """Inverse of :func:`pack_ints`: matrix rows back to Python ints."""
    matrix = np.ascontiguousarray(matrix, dtype="<u8")
    raw = matrix.tobytes()
    stride = matrix.shape[1] * 8
    return [
        int.from_bytes(raw[i * stride : (i + 1) * stride], "little")
        for i in range(matrix.shape[0])
    ]


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


def projection_columns(num_vars: int) -> np.ndarray:
    """``(num_vars, columns)`` matrix of the projections ``x_0 .. x_{n-1}``.

    Variables below 6 repeat a single 64-bit pattern per column; variable
    ``i >= 6`` alternates all-zero / all-one blocks of ``2**(i-6)``
    columns.
    """
    width = 1 << num_vars
    cols = num_columns(width)
    out = np.zeros((num_vars, cols), dtype=np.uint64)
    col_idx = np.arange(cols, dtype=np.uint64)
    for i in range(num_vars):
        if i < 6:
            word = projection_int(min(num_vars, 6), i) if num_vars < 6 else None
            if word is None:
                # Full-width repetition of the 64-bit base pattern.
                base = projection_int(6, i)
                out[i, :] = np.uint64(base)
            else:
                out[i, 0] = np.uint64(word)
        else:
            out[i] = np.where((col_idx >> np.uint64(i - 6)) & np.uint64(1), _ALL_ONES, np.uint64(0))
    return out


# ---------------------------------------------------------------------------
# the two backends
# ---------------------------------------------------------------------------


def _eval_gates_bigint(net: Network, values: list[int], mask: int) -> None:
    """Evaluate every gate into *values* — the historical big-int loop."""
    arity = net.ARITY
    fanins = net._fanins
    first_gate = net.num_pis + 1
    if arity == 3:
        for node in range(first_gate, len(fanins)):
            a, b, c = fanins[node]  # type: ignore[misc]
            va = values[a >> 1] ^ (mask if a & 1 else 0)
            vb = values[b >> 1] ^ (mask if b & 1 else 0)
            vc = values[c >> 1] ^ (mask if c & 1 else 0)
            values[node] = (va & vb) | (va & vc) | (vb & vc)
    elif arity == 2:
        for node in range(first_gate, len(fanins)):
            a, b = fanins[node]  # type: ignore[misc]
            va = values[a >> 1] ^ (mask if a & 1 else 0)
            vb = values[b >> 1] ^ (mask if b & 1 else 0)
            values[node] = va & vb
    else:
        raise ValueError(f"unsupported gate arity {arity}")


def _eval_gates_numpy(net: Network, values: np.ndarray) -> None:
    """Evaluate every gate into the column matrix, one level at a time.

    *values* uses the **permuted** row layout of
    :class:`~repro.core.kernel.NetworkArrays`: terminal rows in place,
    gate rows re-ordered by level so each level is one contiguous slice
    (``arr.sim_levels``).  All indices are precomputed at array-view
    build time; a level costs a handful of numpy calls regardless of its
    size, with the combine written straight into the level's slice.

    Complements are full-word xors, so rows carry garbage above the
    simulation width; callers mask the rows they hand out.
    """
    arr = net.arrays()
    arity = arr.arity
    if arity not in (2, 3):
        raise ValueError(f"unsupported gate arity {arity}")
    if arity == 3:
        for start, end, g, fan_pos, fan_comp in arr.sim_levels:
            x = values[fan_pos]
            x ^= fan_comp
            a = x[:g]
            b = x[g : 2 * g]
            c = x[2 * g :]
            t = a & b
            a |= b
            a &= c
            np.bitwise_or(a, t, out=values[start:end])
    else:
        for start, end, g, fan_pos, fan_comp in arr.sim_levels:
            x = values[fan_pos]
            x ^= fan_comp
            np.bitwise_and(x[:g], x[g:], out=values[start:end])


def _use_numpy(net: Network, columns: int, backend: str) -> bool:
    if backend == "numpy":
        return True
    if backend == "bigint":
        return False
    if backend != "auto":
        raise ValueError(f"unknown backend {backend!r}")
    return net.num_gates * columns >= _NUMPY_MIN_WORK


def _simulate_matrix(
    net: Network, pi_words: Sequence[int], width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Numpy backend: the full (permuted-layout) value matrix plus mask.

    Terminal rows sit at their node index; gate rows are level-ordered —
    read them through ``arrays().sim_pos`` / ``sim_out_pos``.
    """
    cols = num_columns(width)
    mask = (1 << width) - 1
    values = np.zeros((net.num_nodes, cols), dtype=np.uint64)
    if net.num_pis:
        values[1 : net.num_pis + 1] = pack_ints(
            [w & mask for w in pi_words], cols
        )
    _eval_gates_numpy(net, values)
    return values, column_mask(width)


# ---------------------------------------------------------------------------
# public simulation entry points
# ---------------------------------------------------------------------------


def simulate_network(
    net: Network,
    pi_words: Sequence[int],
    width: int,
    backend: str = "auto",
) -> list[int]:
    """Simulate *net* on one *width*-bit word per PI; one word per output.

    Bit ``k`` of each input word forms the k-th test vector; bit ``k`` of
    each output word is that vector's response.  Both backends return
    identical words (inputs masked to *width*, outputs masked to
    *width*).
    """
    if len(pi_words) != net.num_pis:
        raise ValueError(
            f"expected {net.num_pis} pattern words, got {len(pi_words)}"
        )
    cols = num_columns(width)
    net.sim_words += net.num_gates * cols
    mask = (1 << width) - 1
    if not _use_numpy(net, cols, backend):
        values = [0] * net.num_nodes
        for i, w in enumerate(pi_words):
            values[1 + i] = w & mask
        _eval_gates_bigint(net, values, mask)
        return [values[s >> 1] ^ (mask if s & 1 else 0) for s in net._outputs]
    values, cmask = _simulate_matrix(net, pi_words, width)
    arr = net.arrays()
    out = (values[arr.sim_out_pos] ^ arr.out_comp[:, None]) & cmask
    return unpack_ints(out)


def simulate_all_nodes(
    net: Network,
    pi_words: Sequence[int],
    width: int,
    backend: str = "auto",
) -> list[int]:
    """Like :func:`simulate_network` but returns the value word of EVERY node.

    Entry ``i`` is the (uncomplemented) value of node ``i`` — the
    signature material of SAT sweeping.
    """
    if len(pi_words) != net.num_pis:
        raise ValueError(
            f"expected {net.num_pis} pattern words, got {len(pi_words)}"
        )
    cols = num_columns(width)
    net.sim_words += net.num_gates * cols
    mask = (1 << width) - 1
    if not _use_numpy(net, cols, backend):
        values = [0] * net.num_nodes
        for i, w in enumerate(pi_words):
            values[1 + i] = w & mask
        _eval_gates_bigint(net, values, mask)
        return values
    matrix, cmask = _simulate_matrix(net, pi_words, width)
    matrix &= cmask
    return unpack_ints(matrix[net.arrays().sim_pos])


def simulate_words(net: Network, values: list[int], mask: int) -> list[int]:
    """Drop-in replacement for the historical ``_simulate_words`` loop.

    *values* holds one word per node with the terminal entries already
    filled; gate entries are computed in place and the masked output
    words returned.  Always the big-int backend — this is the
    compatibility surface for callers that pre-fill arbitrary node
    values.
    """
    net.sim_words += net.num_gates * num_columns(max(mask.bit_length(), 1))
    _eval_gates_bigint(net, values, mask)
    return [values[s >> 1] ^ (mask if s & 1 else 0) for s in net._outputs]


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

    def simulate(self, backend: str = "auto") -> list[int]:
        """Exhaustively simulate; returns one truth table per output.

        Only feasible for small input counts (``num_pis <= 16``).
        """
        if self.num_pis > 16:
            raise ValueError(
                "exhaustive simulation limited to 16 inputs; use simulate_patterns"
            )
        n = self.num_pis
        width = 1 << n
        cols = num_columns(width)
        self.sim_words += self.num_gates * cols
        mask = (1 << width) - 1
        if not _use_numpy(self, cols, backend):
            values = [0] * self.num_nodes
            for i in range(n):
                values[1 + i] = projection_int(n, i)
            _eval_gates_bigint(self, values, mask)
            return [
                values[s >> 1] ^ (mask if s & 1 else 0) for s in self._outputs
            ]
        values = np.zeros((self.num_nodes, cols), dtype=np.uint64)
        if n:
            values[1 : n + 1] = projection_columns(n)
        _eval_gates_numpy(self, values)
        arr = self.arrays()
        out = (values[arr.sim_out_pos] ^ arr.out_comp[:, None]) & column_mask(width)
        return unpack_ints(out)

    def simulate_patterns(
        self, patterns: Sequence[int], width: int, backend: str = "auto"
    ) -> list[int]:
        """Bit-parallel simulation of arbitrary input patterns.

        *patterns* holds one word per PI; bit ``k`` of each word forms the
        k-th test vector.  Returns one word per output.
        """
        return simulate_network(self, patterns, width, backend=backend)

    def _simulate_words(self, values: list[int], mask: int) -> list[int]:
        return simulate_words(self, values, mask)

    def cut_function(self, root: int, leaves: Sequence[int]) -> int:
        """Return the local function of *root* expressed over *leaves*.

        *leaves* are node indices; leaf ``j`` becomes variable ``x_j`` of
        the returned truth table.  Raises ``ValueError`` if the cone of
        *root* is not covered by the leaves.
        """
        return cone_function(self, root, leaves)
