"""NPN classification of Boolean functions (Sec. II-D of the paper).

Two functions are NPN-equivalent if one can be obtained from the other by
Negating inputs, Permuting inputs, and/or Negating the output.  As in the
paper, the representative of each class is the function with the smallest
truth table viewed as a ``2**n``-bit binary number.

The central entry point is :func:`npn_canonize` which returns the class
representative together with the :class:`NPNTransform` that rebuilds the
original function *from* the representative — exactly the information the
functional-hashing rewriter needs to instantiate a precomputed minimum MIG
in place of a cut (Sec. IV, Algorithm 1 line 6).  It and
:func:`npn_canonize_batch` share one memo and one vectorized core that
tries every (permutation, input-flip, output-flip) transform at once.
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
    is the canonization tie-break; the batch argmin walks it.

    One vectorized numpy pass per permutation builds the cells (3 840 /
    46 080 keys and up to ~17.7M cells at 5 / 6 variables).
    """
    size = 1 << num_vars
    tables: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    m = np.arange(size, dtype=np.int64)
    flip_bits = (m[:, None] >> np.arange(num_vars, dtype=np.int64)) & 1
    shifts = np.left_shift(
        np.int64(1), np.arange(num_vars, dtype=np.int64)
    )
    for perm in permutations(range(num_vars)):
        # bits[j, m] = bit perm[j] of output minterm m
        bits = (m[None, :] >> np.array(perm, dtype=np.int64)[:, None]) & 1
        # rows[f, m] = sum_j ((bits[j, m] ^ flip_bit_j(f)) << j)
        rows = (
            (flip_bits[:, :, None] ^ bits[None, :, :]) * shifts[None, :, None]
        ).sum(axis=1)
        cells = rows.tolist()
        for flips in range(size):
            tables[(perm, flips)] = tuple(cells[flips])
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
def _batch_tables(num_vars: int):
    """Static arrays for the canonizer core.

    ``fwd`` stacks the forward minterm remap tables of every
    ``(perm, flips)`` key as one ``(K, 2**n)`` matrix **in the exact
    dict insertion order of** :func:`_remap_tables` — that order is the
    canonization tie-break, so the argmin must walk it identically.
    ``inv_perms``/``inv_flips`` pre-invert every key once (the caller
    wants representative -> f transforms).
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


#: canonization memo, ``(num_vars, f) -> (rep, transform)``.  Bounded:
#: for ``num_vars <= 4`` by construction (at most 65 536 keys per
#: arity); for 5/6 by :data:`_MEMO_CAP` — once full, fresh wide
#: canonizations stop inserting (they are still computed correctly).
#: The cold-benchmark protocol clears it, warm multi-pass flows keep it.
_MEMO: dict[tuple[int, int], tuple[int, NPNTransform]] = {}

#: insertion cap for 5/6-variable memo entries (~tens of MB worst
#: case; the persistent NPN store is the real cross-pass memory there)
_MEMO_CAP = 1 << 17

#: [hits, misses] of :data:`_MEMO`, one per input table of a
#: top-level call (see canonize_cache_info)
_COUNTS = [0, 0]


class CanonizeCacheInfo(NamedTuple):
    """Counters of the canonization memo (see :func:`canonize_cache_info`)."""

    hits: int
    misses: int
    currsize: int


def canonize_cache_clear() -> None:
    """Clear the canonization memo and its counts.

    The cold-path benchmark protocol calls this between repeats so every
    pass pays its full canonization cost.
    """
    _MEMO.clear()
    _COUNTS[:] = [0, 0]


def canonize_cache_info() -> CanonizeCacheInfo:
    """Hit/miss statistics of the canonization memo.

    ``hits`` and ``misses`` count one probe per :func:`npn_canonize`
    call and per input table of a :func:`npn_canonize_batch` call;
    ``currsize`` is the number of memoized functions.  Passes snapshot
    this before/after to report per-pass NPN cache rates in
    :class:`repro.runtime.metrics.PassMetrics`.
    """
    return CanonizeCacheInfo(_COUNTS[0], _COUNTS[1], len(_MEMO))


def npn_canonize(f: int, num_vars: int) -> tuple[int, NPNTransform]:
    """Canonize *f* under NPN equivalence.

    Returns ``(rep, t)`` where ``rep`` is the smallest truth table in the
    NPN orbit of *f* and ``t`` rebuilds *f* from it:
    ``apply_transform(rep, t, num_vars) == f``.  A memoized function
    costs one dict probe; any other runs the vectorized core of
    :func:`npn_canonize_batch` on a batch of one.
    """
    pair = _MEMO.get((num_vars, f))
    if pair is not None:
        _COUNTS[0] += 1
        return pair
    if f < 0 or f > tt_mask(num_vars):
        raise ValueError(f"truth table 0x{f:x} out of range for {num_vars} variables")
    return _canonize([f], num_vars)[0]


def npn_canonize_batch(
    fs: Sequence[int] | np.ndarray, num_vars: int, *, chunk: int = 512
) -> list[tuple[int, NPNTransform]]:
    """:func:`npn_canonize` over many truth tables in one numpy sweep.

    Returns one ``(rep, transform)`` pair per input, identical to
    :func:`npn_canonize` — representative *and* transform, tie-break
    included.  Memoized functions cost a dict probe each; the rest go
    through the core in one call, whose work is chunked to bound the
    ``(chunk, K, 2**n)`` intermediate (~12 MB at the defaults for 4
    variables).
    """
    mask = tt_mask(num_vars)
    F = np.asarray(fs, dtype=np.uint64 if num_vars >= 6 else np.int64)
    if F.ndim != 1:
        raise ValueError("npn_canonize_batch expects a 1-D sequence of truth tables")
    if F.size and (int(F.min()) < 0 or int(F.max()) > mask):
        raise ValueError(f"truth table out of range for {num_vars} variables")
    memo = _MEMO
    known = [memo.get((num_vars, f)) for f in F.tolist()]
    missing = [i for i, pair in enumerate(known) if pair is None]
    _COUNTS[0] += F.size - len(missing)
    if missing:
        fresh = _canonize(F[missing], num_vars, chunk)
        for i, pair in zip(missing, fresh):
            known[i] = pair
    return known  # type: ignore[return-value]


def _canonize(
    fs: Sequence[int] | np.ndarray, num_vars: int, chunk: int = 512
) -> list[tuple[int, NPNTransform]]:
    """The canonizer core: one argmin over every NPN transform.

    Candidates are laid out key-major / polarity-minor in the key order
    of :func:`_remap_tables`, and ``np.argmin`` picks the first
    occurrence of the minimum, so among equal representatives the
    earliest transform wins.  No key holds the minimum in both
    polarities, so ``f`` and its complement pick the same key, and no
    phase pre-filter (canonize the sparser polarity, flip the output
    back) could change a result.

    Every input counts as one memo miss and is memoized (always for
    ``num_vars <= 4``, while the memo is below :data:`_MEMO_CAP` for
    5/6).  Arities 5 and 6 run the same argmin over 3 840 / 46 080 keys
    with an inner key-block loop (a running strict-``<`` minimum, first
    occurrence winning — block order equals key order, so the tie-break
    is unchanged) to bound the ``(chunk, K, 2**n)`` intermediate;
    6-variable tables fill all 64 bits and compute in uint64 end to end.
    """
    mask = tt_mask(num_vars)
    wide = num_vars >= 5
    dtype = np.uint64 if num_vars >= 6 else np.int64
    F = np.asarray(fs, dtype=dtype)
    _COUNTS[1] += F.size
    memoize = num_vars <= 4 or len(_MEMO) < _MEMO_CAP
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
        sub = F[lo : lo + chunk]
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
                # winner is exactly the key-order tie-break.
                better = val < best
                best = np.where(better, val, best)
                best_idx = np.where(better, gidx, best_idx)
        reps[lo : lo + chunk] = best
        key_idx[lo : lo + chunk] = best_idx >> 1
        out_flip[lo : lo + chunk] = best_idx & 1
    out: list[tuple[int, NPNTransform]] = []
    for i, f in enumerate(F.tolist()):
        k = int(key_idx[i])
        # The forward transform maps f -> rep; the caller wants rep -> f.
        transform = NPNTransform(inv_perms[k], inv_flips[k], bool(out_flip[i]))
        pair = (int(reps[i]), transform)
        if memoize:
            _MEMO[(num_vars, f)] = pair
        out.append(pair)
    return out


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
    seen = np.zeros(1 << (1 << num_vars), dtype=bool)
    reps = []
    for f in range(seen.size):
        if not seen[f]:
            reps.append(f)
            seen[npn_orbit(f, num_vars)] = True
    return tuple(reps)


def npn_class_sizes(num_vars: int) -> dict[int, int]:
    """Return a map representative → number of functions in its class."""
    return {
        rep: len(npn_orbit(rep, num_vars))
        for rep in enumerate_npn_classes(num_vars)
    }
