"""NPN classification of Boolean functions (Sec. II-D of the paper).

Two functions are NPN-equivalent if one can be obtained from the other by
Negating inputs, Permuting inputs, and/or Negating the output.  As in the
paper, the representative of each class is the function with the smallest
truth table viewed as a ``2**n``-bit binary number.

The central entry point is :func:`npn_canonize` which returns the class
representative together with the :class:`NPNTransform` that rebuilds the
original function *from* the representative — exactly the information the
functional-hashing rewriter needs to instantiate a precomputed minimum MIG
in place of a cut (Sec. IV, Algorithm 1 line 6).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import NamedTuple, Sequence

import numpy as np

from .truth_table import tt_mask

__all__ = [
    "NPNTransform",
    "apply_transform",
    "invert_transform",
    "compose_transforms",
    "identity_transform",
    "npn_canonize",
    "npn_canonize_batch",
    "npn_representative",
    "npn_orbit",
    "enumerate_npn_classes",
    "npn_class_sizes",
    "canonize_cache_info",
    "canonize_cache_clear",
]


class NPNTransform(NamedTuple):
    """An NPN transform ``t`` mapping a function ``r`` to ``t(r)``.

    Semantics (checked by property tests): ``g = apply_transform(r, t, n)``
    satisfies::

        g(x_0, ..., x_{n-1}) = r(y_0, ..., y_{n-1}) ^ output_flip
        with  y_j = x_{perm[j]} ^ ((flips >> j) & 1)

    i.e. input ``j`` of ``r`` is driven by variable ``x_{perm[j]}``,
    complemented when bit ``j`` of ``flips`` is set.
    """

    perm: tuple[int, ...]
    flips: int
    output_flip: bool


def identity_transform(num_vars: int) -> NPNTransform:
    """Return the identity transform over *num_vars* variables."""
    return NPNTransform(tuple(range(num_vars)), 0, False)


@lru_cache(maxsize=8)
def _remap_tables(num_vars: int) -> dict[tuple[tuple[int, ...], int], tuple[int, ...]]:
    """Minterm remap tables for every (perm, flips) pair.

    ``table[m]`` is the source minterm of the base function whose value
    lands on output minterm ``m`` after the transform.  Key order —
    permutation-major, flips-minor, in ``itertools.permutations`` order —
    is the canonization tie-break; every consumer (scalar loop, batch
    argmin) walks it identically.

    Up to 4 variables the build is a trivial pure-Python loop; for 5/6
    (3 840 / 46 080 keys, up to ~17.7M table cells) the cells come from a
    vectorized numpy builder with identical output.
    """
    size = 1 << num_vars
    if num_vars >= 5:
        tables: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
        m = np.arange(size, dtype=np.int64)
        flip_bits = (m[:, None] >> np.arange(num_vars, dtype=np.int64)) & 1
        shifts = np.left_shift(
            np.int64(1), np.arange(num_vars, dtype=np.int64)
        )
        for perm in permutations(range(num_vars)):
            # bits[j, m] = bit perm[j] of output minterm m
            bits = np.stack([(m >> p) & 1 for p in perm])
            # rows[f, m] = sum_j ((bits[j, m] ^ flip_bit_j(f)) << j)
            rows = (
                (flip_bits[:, :, None] ^ bits[None, :, :]) * shifts[None, :, None]
            ).sum(axis=1)
            cells = rows.tolist()
            for flips in range(size):
                tables[(perm, flips)] = tuple(cells[flips])
        return tables
    tables = {}
    for perm in permutations(range(num_vars)):
        for flips in range(size if num_vars else 1):
            table = []
            for m in range(size):
                mp = 0
                for j in range(num_vars):
                    bit = ((m >> perm[j]) & 1) ^ ((flips >> j) & 1)
                    mp |= bit << j
                table.append(mp)
            tables[(perm, flips)] = tuple(table)
    return tables


def apply_transform(f: int, t: NPNTransform, num_vars: int) -> int:
    """Apply NPN transform *t* to truth table *f* (see :class:`NPNTransform`)."""
    table = _remap_tables(num_vars)[(t.perm, t.flips)]
    g = 0
    for m, mp in enumerate(table):
        if (f >> mp) & 1:
            g |= 1 << m
    if t.output_flip:
        g ^= tt_mask(num_vars)
    return g


def invert_transform(t: NPNTransform) -> NPNTransform:
    """Return the inverse transform: ``apply(apply(f, t), invert(t)) == f``."""
    n = len(t.perm)
    inv_perm = [0] * n
    inv_flips = 0
    for j, target in enumerate(t.perm):
        inv_perm[target] = j
    for i in range(n):
        j = inv_perm[i]
        if (t.flips >> j) & 1:
            inv_flips |= 1 << i
    return NPNTransform(tuple(inv_perm), inv_flips, t.output_flip)


def compose_transforms(outer: NPNTransform, inner: NPNTransform) -> NPNTransform:
    """Return the transform equivalent to applying *inner* then *outer*.

    ``apply(f, compose(outer, inner)) == apply(apply(f, inner), outer)``.
    """
    n = len(outer.perm)
    perm = []
    flips = 0
    for j in range(n):
        # Output var of the composite driving input j of the base function:
        # outer feeds inner's input j with x_{outer-chain}.
        k = inner.perm[j]
        perm.append(outer.perm[k])
        bit = ((inner.flips >> j) & 1) ^ ((outer.flips >> k) & 1)
        flips |= bit << j
    return NPNTransform(tuple(perm), flips, outer.output_flip ^ inner.output_flip)


@lru_cache(maxsize=8)
def _inverse_remap_tables(num_vars: int) -> dict[tuple[tuple[int, ...], int], tuple[int, ...]]:
    """Inverse minterm maps: ``inv[src]`` is the output minterm fed by ``src``.

    Lets canonization build a transformed table by iterating only the *set*
    minterms of the source function instead of all ``2**n`` positions.
    """
    inverses: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    for key, table in _remap_tables(num_vars).items():
        inv = [0] * len(table)
        for m, mp in enumerate(table):
            inv[mp] = m
        inverses[key] = tuple(inv)
    return inverses


@lru_cache(maxsize=1 << 18)
def _canonize_cached(f: int, num_vars: int) -> tuple[int, NPNTransform]:
    inverses = _inverse_remap_tables(num_vars)
    mask = tt_mask(num_vars)
    # Iterate only the set minterms: callers phase-normalize f so that at
    # most half the positions are set (the cheap symmetry pre-filter).
    ones = [src for src in range(1 << num_vars) if (f >> src) & 1]
    best = None
    best_key = None
    for key, inv in inverses.items():
        g = 0
        for src in ones:
            g |= 1 << inv[src]
        for cand, out_flip in ((g, False), (g ^ mask, True)):
            if best is None or cand < best:
                best = cand
                best_key = (key[0], key[1], out_flip)
    assert best is not None and best_key is not None
    forward = NPNTransform(best_key[0], best_key[1], best_key[2])
    # forward maps f -> representative; the caller wants rep -> f.
    return best, invert_transform(forward)


def npn_canonize(f: int, num_vars: int) -> tuple[int, NPNTransform]:
    """Canonize *f* under NPN equivalence.

    Returns ``(rep, t)`` where ``rep`` is the smallest truth table in the
    NPN orbit of *f* and ``t`` rebuilds *f* from it:
    ``apply_transform(rep, t, num_vars) == f``.
    """
    mask = tt_mask(num_vars)
    if f < 0 or f > mask:
        raise ValueError(f"truth table 0x{f:x} out of range for {num_vars} variables")
    # Phase pre-filter: f and its complement share one NPN orbit, so
    # canonize the sparser polarity (ties broken by value).  This halves
    # the memo-table footprint and bounds the set-minterm loop above.
    fc = f ^ mask
    ones_f = f.bit_count()
    ones_fc = fc.bit_count()
    if ones_fc < ones_f or (ones_fc == ones_f and fc < f):
        rep, t = _canonize_cached(fc, num_vars)
        # t rebuilds fc from rep; flipping the output rebuilds f.
        return rep, NPNTransform(t.perm, t.flips, not t.output_flip)
    return _canonize_cached(f, num_vars)


@lru_cache(maxsize=8)
def _batch_tables(num_vars: int):
    """Static arrays for :func:`npn_canonize_batch`.

    ``fwd`` stacks the forward minterm remap tables of every
    ``(perm, flips)`` key as one ``(K, 2**n)`` matrix **in the exact
    dict insertion order of** :func:`_remap_tables` — that order is the
    scalar tie-break, so the batch argmin must walk it identically.
    ``inv_perms``/``inv_flips`` pre-invert every key once (the caller
    wants representative -> f transforms, like the scalar path).
    """
    tables = _remap_tables(num_vars)
    keys = list(tables.keys())
    # 6-var truth tables occupy all 64 bits, so that arity computes in
    # uint64 end to end (left-shifting int64 by 63 is UB); narrower
    # arities keep the original int64 path byte-for-byte.
    dtype = np.uint64 if num_vars >= 6 else np.int64
    fwd = np.array([tables[k] for k in keys], dtype=dtype)
    inv = [
        invert_transform(NPNTransform(perm, flips, False)) for perm, flips in keys
    ]
    inv_perms = tuple(t.perm for t in inv)
    inv_flips = tuple(t.flips for t in inv)
    weights = np.left_shift(
        dtype(1), np.arange(1 << num_vars, dtype=dtype)
    )
    return fwd, inv_perms, inv_flips, weights


#: memo for batch canonizations, the batch-path twin of the
#: ``_canonize_cached`` lru (which cannot be fed externally).  Bounded:
#: for ``num_vars <= 4`` by construction (at most 65 536 keys per
#: arity); for 5/6 by :data:`_BATCH_MEMO_CAP` — once full, fresh wide
#: canonizations stop inserting (they are still computed correctly).
#: Cleared together with the lru by :func:`canonize_cache_clear` — the
#: cold-benchmark protocol clears both, warm multi-pass flows keep both.
_BATCH_MEMO: dict[tuple[int, int], tuple[int, NPNTransform]] = {}

#: insertion cap for 5/6-variable batch memo entries (~tens of MB worst
#: case; the persistent NPN store is the real cross-pass memory there)
_BATCH_MEMO_CAP = 1 << 17

#: [hits, misses] of :data:`_BATCH_MEMO`, one per input table of a
#: top-level :func:`npn_canonize_batch` call (see canonize_cache_info)
_BATCH_COUNTS = [0, 0]


def canonize_cache_clear() -> None:
    """Clear every canonization memo (scalar lru + batch dict) and its counts.

    The cold-path benchmark protocol calls this between repeats so both
    pipelines pay their full per-pass canonization cost.
    """
    _canonize_cached.cache_clear()
    _BATCH_MEMO.clear()
    _BATCH_COUNTS[:] = [0, 0]


def npn_canonize_batch(
    fs: Sequence[int] | np.ndarray, num_vars: int, *, chunk: int = 512
) -> list[tuple[int, NPNTransform]]:
    """Vectorized :func:`npn_canonize` over many truth tables at once.

    Returns one ``(rep, transform)`` pair per input, **bit-identical to
    the scalar path** including its tie-break: candidates are laid out
    key-major / polarity-minor exactly as ``_canonize_cached`` iterates
    them, and ``np.argmin`` picks the first occurrence of the minimum —
    the same winner the scalar strict-``<`` loop keeps.

    The scalar phase pre-filter (canonize the sparser polarity, ties by
    value) is replicated element-wise, so the representative *and* the
    returned transform match ``npn_canonize`` exactly, not just up to
    NPN equivalence.  Work is chunked to bound the ``(chunk, K, 2**n)``
    intermediate (~12 MB at the defaults for 4 variables).

    Results are memoized across calls: unboundedly for ``num_vars <= 4``
    (the whole function space fits), capped for 5/6 — repeated passes
    over the same design re-pay only the dict probes, mirroring the
    scalar path's lru behavior.

    Arities 5 and 6 run the same argmin over 3 840 / 46 080 keys with an
    inner key-block loop (a running strict-``<`` minimum, first
    occurrence winning — block order equals key order, so the tie-break
    is still exactly the scalar one) to bound the ``(chunk, K, 2**n)``
    intermediate; 6-variable tables fill all 64 bits and compute in
    uint64 end to end.
    """
    mask = tt_mask(num_vars)
    wide = num_vars >= 5
    dtype = np.uint64 if num_vars >= 6 else np.int64
    F = np.asarray(fs, dtype=dtype)
    if F.ndim != 1:
        raise ValueError("npn_canonize_batch expects a 1-D sequence of truth tables")
    if F.size and (int(F.min()) < 0 or int(F.max()) > mask):
        raise ValueError(f"truth table out of range for {num_vars} variables")
    memoize = num_vars <= 4 or len(_BATCH_MEMO) < _BATCH_MEMO_CAP
    if F.size:
        memo = _BATCH_MEMO
        known = [memo.get((num_vars, int(f))) for f in F]
        missing = [i for i, pair in enumerate(known) if pair is None]
        # Misses are counted below, where tables are computed: the
        # recursive call sees only this call's misses, so every input
        # of the top-level call counts exactly once.
        _BATCH_COUNTS[0] += F.size - len(missing)
        if not missing:
            return known  # type: ignore[return-value]
        if len(missing) < F.size:
            fresh = npn_canonize_batch(
                F[missing], num_vars, chunk=chunk
            )
            for i, pair in zip(missing, fresh):
                known[i] = pair
            return known  # type: ignore[return-value]
    _BATCH_COUNTS[1] += F.size
    fc = F ^ dtype(mask)
    ones_f = np.bitwise_count(F.astype(np.uint64)).astype(np.int64)
    ones_fc = np.bitwise_count(fc.astype(np.uint64)).astype(np.int64)
    use_fc = (ones_fc < ones_f) | ((ones_fc == ones_f) & (fc < F))
    norm = np.where(use_fc, fc, F)
    fwd, inv_perms, inv_flips, weights = _batch_tables(num_vars)
    n = F.size
    num_keys = fwd.shape[0]
    size = 1 << num_vars
    if wide:
        # Bound both loops so the bits intermediate stays ~2M cells
        # (~16 MB) whatever the arity (46 080 keys x 64 minterms at
        # n = 6); narrow arities keep the original single key block.
        chunk = max(1, min(chunk, (1 << 13) // size))
        kblock = max(1, (1 << 21) // (chunk * size))
    else:
        kblock = num_keys
    reps = np.empty(n, dtype=dtype)
    key_idx = np.empty(n, dtype=np.int64)
    out_flip = np.empty(n, dtype=np.int64)
    for lo in range(0, n, chunk):
        sub = norm[lo : lo + chunk]
        rows = np.arange(sub.size)
        best = None
        for klo in range(0, num_keys, kblock):
            fsub = fwd[klo : klo + kblock]
            # bits[i, k, m] = value of input i's table at the source
            # minterm that key k routes to output minterm m; packing with
            # the weight vector rebuilds the transformed table g = t_k(f_i).
            bits = (sub[:, None, None] >> fsub[None, :, :]) & dtype(1)
            g = bits @ weights[:size]
            cand = np.empty((sub.size, 2 * fsub.shape[0]), dtype=dtype)
            cand[:, 0::2] = g
            cand[:, 1::2] = g ^ dtype(mask)
            idx = np.argmin(cand, axis=1)
            val = cand[rows, idx]
            gidx = idx + 2 * klo
            if best is None:
                best, best_idx = val, gidx
            else:
                # Strict < keeps the earlier block on ties: combined with
                # argmin's first-occurrence rule inside a block, the
                # winner is exactly the scalar key-order tie-break.
                better = val < best
                best = np.where(better, val, best)
                best_idx = np.where(better, gidx, best_idx)
        reps[lo : lo + chunk] = best
        key_idx[lo : lo + chunk] = best_idx >> 1
        out_flip[lo : lo + chunk] = best_idx & 1
    out: list[tuple[int, NPNTransform]] = []
    for i in range(n):
        k = int(key_idx[i])
        # Forward transform maps (phase-normalized) f -> rep; the caller
        # wants rep -> f.  Pre-filtered inputs flip the output once more,
        # exactly as npn_canonize does.
        flip = bool(out_flip[i]) ^ bool(use_fc[i])
        pair = (int(reps[i]), NPNTransform(inv_perms[k], inv_flips[k], flip))
        if memoize:
            _BATCH_MEMO[(num_vars, int(F[i]))] = pair
        out.append(pair)
    return out


def canonize_cache_info():
    """Hit/miss statistics of the global canonization memo tables.

    ``hits`` and ``misses`` sum the scalar lru and the batch memo (one
    probe per input table of a :func:`npn_canonize_batch` call);
    ``maxsize`` and ``currsize`` describe the lru.  Passes snapshot this
    before/after to report per-pass NPN cache rates in
    :class:`repro.runtime.metrics.PassMetrics`.
    """
    info = _canonize_cached.cache_info()
    return info._replace(
        hits=info.hits + _BATCH_COUNTS[0],
        misses=info.misses + _BATCH_COUNTS[1],
    )


def npn_representative(f: int, num_vars: int) -> int:
    """Return only the NPN class representative of *f*."""
    return npn_canonize(f, num_vars)[0]


def npn_orbit(f: int, num_vars: int) -> np.ndarray:
    """Every function NPN-equivalent to *f*, sorted, without repeats (uint64)."""
    fwd, _, _, weights = _batch_tables(num_vars)
    one = fwd.dtype.type(1)
    g = (((fwd.dtype.type(f) >> fwd) & one) @ weights[: 1 << num_vars]).astype(np.uint64)
    return np.unique(np.concatenate([g, g ^ np.uint64(tt_mask(num_vars))]))


@lru_cache(maxsize=8)
def enumerate_npn_classes(num_vars: int) -> tuple[int, ...]:
    """Enumerate the representatives of all NPN classes over *num_vars* variables.

    For ``num_vars = 4`` this yields the 222 classes of the paper
    (Sec. II-D).  Feasible up to ``num_vars = 4``; 5 variables would give
    616 126 classes, which the paper also notes is impractical.
    """
    if num_vars > 4:
        raise ValueError("exhaustive NPN enumeration is only supported up to 4 variables")
    tables = _remap_tables(num_vars)
    size = 1 << (1 << num_vars)
    mask = tt_mask(num_vars)
    seen = bytearray(size)
    reps = []
    for f in range(size):
        if seen[f]:
            continue
        reps.append(f)
        for table in tables.values():
            g = 0
            for m, mp in enumerate(table):
                if (f >> mp) & 1:
                    g |= 1 << m
            seen[g] = 1
            seen[g ^ mask] = 1
    return tuple(reps)


def npn_class_sizes(num_vars: int) -> dict[int, int]:
    """Return a map representative → number of functions in its class."""
    if num_vars > 4:
        raise ValueError("exhaustive NPN enumeration is only supported up to 4 variables")
    tables = _remap_tables(num_vars)
    mask = tt_mask(num_vars)
    sizes: dict[int, int] = {}
    for rep in enumerate_npn_classes(num_vars):
        orbit = set()
        for table in tables.values():
            g = 0
            for m, mp in enumerate(table):
                if (rep >> mp) & 1:
                    g |= 1 << m
            orbit.add(g)
            orbit.add(g ^ mask)
        sizes[rep] = len(orbit)
    return sizes
