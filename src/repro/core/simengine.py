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
    "expansion_lut",
    "expansion_pid",
    "expansion_lut2d",
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

_EXPANSION_LUTS: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}


def expansion_lut(dst_len: int, positions: tuple[int, ...]) -> np.ndarray:
    """Truth-table expansion as one lookup table, vectorized and cached.

    ``expansion_lut(d, p)[tt]`` re-expresses *tt* — a function of
    ``len(p)`` variables — over ``d`` variables, where source variable
    ``j`` becomes destination variable ``p[j]``.  Same definition as the
    scalar ``repro.core.cuts._expand`` (shared tests); replicated here
    because the layering forbids this module from importing above the
    kernel.

    The table covers every possible source function, so applying it to a
    whole batch is a single fancy-index gather.  Source arity is at most
    ``dst_len - 1 <= 3`` in practice (equal arities are the identity and
    never reach a LUT), so tables stay tiny (<= 256 entries).
    """
    key = (dst_len, positions)
    lut = _EXPANSION_LUTS.get(key)
    if lut is None:
        src_len = len(positions)
        # dst_len = 5 still fits: source tables index at most 2**16 rows
        # (src_len <= 4) and 5-variable values stay below 2**32.  Wider
        # destinations (values filling 64 bits) and 5-variable sources
        # (2**32 rows) have no materializable LUT — those patterns live
        # in the wide registry (negative ids from :func:`expansion_pid`).
        if src_len > dst_len or dst_len > 5 or src_len > 4:
            raise ValueError(f"unsupported expansion {positions} -> {dst_len} vars")
        # source minterm feeding each destination minterm m
        m = np.arange(1 << dst_len, dtype=np.int64)
        src_minterm = np.zeros_like(m)
        for j, p in enumerate(positions):
            src_minterm |= ((m >> p) & 1) << j
        tts = np.arange(1 << (1 << src_len), dtype=np.int64)
        bits = (tts[:, None] >> src_minterm[None, :]) & 1
        lut = bits @ np.left_shift(np.int64(1), m)
        _EXPANSION_LUTS[key] = lut
    return lut


# -- expansion pattern registry for flat cut programs -----------------------

#: (dst_len, positions) -> row index in :func:`expansion_lut2d`; row 0 is
#: reserved for the identity (no re-expression needed)
_PATTERN_IDS: dict[tuple[int, tuple[int, ...]], int] = {}

#: stacked expansion tables, one row per registered pattern, every row
#: padded to 2**16 columns so ``lut2d[pids, tts]`` is a single gather.
#: Row 0 is the identity.  Capacity grows geometrically (appending a
#: row must not copy the whole table — registrations happen mid-
#: enumeration); the universe of patterns for 4-variable cuts is ~20
#: rows (~10 MB), registered once per process.
_LUT2D: np.ndarray | None = None
_LUT2D_ROWS = 0

#: wide expansion patterns — those with no materializable LUT row
#: (destination of 6 variables, or a 5-variable source).  Keyed by the
#: *negative* pattern id handed out by :func:`expansion_pid`, so the
#: enumeration hot loop keeps its single ``_PATTERN_IDS`` dict probe;
#: each value is ``(src_minterm, weights)`` for the direct
#: bit-extraction evaluation ``((vals >> src_minterm) & 1) @ weights``.
_WIDE_PATTERNS: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def expansion_pid(dst_len: int, positions: tuple[int, ...]) -> int:
    """Register (or look up) an expansion pattern; returns its LUT2D row.

    ``expansion_lut2d()[pid][tt]`` equals ``expansion_lut(dst_len,
    positions)[tt]`` for every source table *tt*.  Pattern id 0 is the
    identity and is never returned here — callers use 0 directly when a
    child cut already lives on the destination leaf set.

    Patterns beyond LUT reach — 6-variable destinations or 5-variable
    sources — get a **negative** id backed by :data:`_WIDE_PATTERNS`;
    the executor evaluates those by bit extraction instead of a table
    gather.
    """
    global _LUT2D, _LUT2D_ROWS
    key = (dst_len, positions)
    pid = _PATTERN_IDS.get(key)
    if pid is None:
        src_len = len(positions)
        if dst_len > 5 or src_len > 4:
            m = np.arange(1 << dst_len, dtype=np.uint64)
            src_minterm = np.zeros_like(m)
            for j, p in enumerate(positions):
                src_minterm |= ((m >> np.uint64(p)) & np.uint64(1)) << np.uint64(j)
            weights = np.left_shift(np.uint64(1), m)
            pid = -(len(_WIDE_PATTERNS) + 1)
            _WIDE_PATTERNS[pid] = (src_minterm, weights)
            _PATTERN_IDS[key] = pid
            return pid
        if _LUT2D is None:
            _LUT2D = np.empty((8, 1 << 16), dtype=np.int64)
            _LUT2D[0] = np.arange(1 << 16, dtype=np.int64)
            _LUT2D_ROWS = 1
        elif _LUT2D_ROWS == _LUT2D.shape[0]:
            grown = np.empty((2 * _LUT2D.shape[0], 1 << 16), dtype=np.int64)
            grown[:_LUT2D_ROWS] = _LUT2D
            _LUT2D = grown
        lut = expansion_lut(dst_len, positions)
        pid = _LUT2D_ROWS
        row = _LUT2D[pid]
        # Source tables have len(positions) variables, so only the first
        # 2**2**len(positions) columns are ever indexed.
        row[: lut.size] = lut
        row[lut.size :] = 0
        _LUT2D_ROWS = pid + 1
        _PATTERN_IDS[key] = pid
    return pid


def expansion_lut2d() -> np.ndarray:
    """The stacked expansion table behind :func:`expansion_pid` (a view)."""
    global _LUT2D, _LUT2D_ROWS
    if _LUT2D is None:
        _LUT2D = np.empty((8, 1 << 16), dtype=np.int64)
        _LUT2D[0] = np.arange(1 << 16, dtype=np.int64)
        _LUT2D_ROWS = 1
    return _LUT2D[: _LUT2D_ROWS]


def _gather_expand(
    lut2d: np.ndarray, pid: np.ndarray, vals: np.ndarray, dtype
) -> np.ndarray:
    """Wide-program fanin re-expression: LUT rows plus special cases.

    The plain path gathers every fanin through ``lut2d[pid, vals]``; that
    needs every value to be a valid column (< 2**16) — true only when no
    cut exceeds 4 leaves.  Wide programs route per pattern class instead:
    identity (pid 0) copies the value (5/6-variable tables are *not*
    valid columns), positive pids gather (their sources are <= 4
    variables by construction), negative pids evaluate the registered
    wide pattern by bit extraction.
    """
    out = np.empty(pid.shape, dtype=dtype)
    ident = pid == 0
    if ident.any():
        out[ident] = vals[ident]
    reg = pid > 0
    if reg.any():
        out[reg] = lut2d[pid[reg], vals[reg].astype(np.int64)].astype(dtype)
    wide = pid < 0
    if wide.any():
        # A set, not np.unique: that would import numpy.ma on first use.
        for wpid in set(pid[wide].tolist()):
            rows = pid == wpid
            src_minterm, weights = _WIDE_PATTERNS[wpid]
            bits = (
                vals[rows].astype(np.uint64)[:, None] >> src_minterm[None, :]
            ) & np.uint64(1)
            out[rows] = (bits @ weights).astype(dtype)
    return out


def evaluate_cut_program(
    num_slots: int,
    init_idx: np.ndarray,
    init_vals: np.ndarray,
    lev: np.ndarray,
    out_idx: np.ndarray,
    out_mask: np.ndarray,
    child_idx: np.ndarray,
    comp_mask: np.ndarray,
    pid: np.ndarray,
    arity: int,
    width: int = 4,
) -> np.ndarray:
    """Run a flat cut-function program; returns the per-slot tables.

    The batch counterpart of :func:`cone_function` /
    ``CutSet.function``: the whole program arrives as flat arrays — one
    row per gate cut, ``(n, arity)`` child slots / complement masks /
    expansion pattern ids — already levelized by *lev*, the cut's depth
    in the **provenance DAG** (1 + max child level).  Provenance depth is
    bounded by the cut cone depth, not the network depth, so deep
    chain-shaped networks compress into a handful of wide sweeps.  Per
    level, one ``lut2d[pid, values[child]]`` gather re-expresses every
    fanin table onto its cut's leaf set in a single fancy index — no
    per-group scatter loops.

    Results are bit-identical to the scalar ``CutSet.function``
    derivation (same expansion tables, same gate semantics).

    *width* is the widest cut in the program.  Up to 4 the original
    int64 single-gather level loop runs untouched; 5 keeps int64 (those
    tables stay below 2**32) but routes fanins through
    :func:`_gather_expand` because 5-variable values are not valid LUT
    columns; 6 additionally computes in uint64 — those tables occupy the
    full 64 bits.
    """
    if arity not in (2, 3):
        raise ValueError(f"unsupported gate arity {arity}")
    dtype = np.uint64 if width >= 6 else np.int64
    wide = width >= 5
    values = np.zeros(num_slots, dtype=dtype)
    if init_idx.size:
        values[init_idx] = init_vals
    n = out_idx.size
    if not n:
        return values
    order = np.argsort(lev, kind="stable")
    lev = lev[order]
    out_idx = out_idx[order]
    out_mask = out_mask[order]
    child_idx = child_idx[order]
    comp_mask = comp_mask[order]
    pid = pid[order]
    lut2d = expansion_lut2d()
    starts = np.unique(lev, return_index=True)[1]
    bounds = np.append(starts[1:], n)
    for s, e in zip(starts.tolist(), bounds.tolist()):
        if wide:
            v = _gather_expand(
                lut2d, pid[s:e], values[child_idx[s:e]], dtype
            ) ^ comp_mask[s:e]
        else:
            v = lut2d[pid[s:e], values[child_idx[s:e]]] ^ comp_mask[s:e]
        if arity == 3:
            a, b, c = v[:, 0], v[:, 1], v[:, 2]
            res = (a & b) | (a & c) | (b & c)
        else:
            res = v[:, 0] & v[:, 1]
        values[out_idx[s:e]] = res & out_mask[s:e]
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
