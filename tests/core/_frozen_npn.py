"""Frozen scalar NPN canonizer for the canonization differential tests.

This module is a deliberate, self-contained snapshot of the pure-Python
canonizer of ``repro.core.npn`` as it was before the vectorized engine
became the only one: the remap-table builder (pure Python up to four
variables, numpy above), the inverse remap tables, the lru-memoized
set-minterm loop behind ``npn_canonize`` with its phase pre-filter, and
the orbit loops of ``enumerate_npn_classes`` and ``npn_class_sizes``.
The function bodies are copied byte for byte; only the module around
them is new, and ``NPNTransform`` and ``invert_transform`` are imported
(both are plain data and algebra, unchanged).

**Do not refactor this file alongside src/** — its value is that it
stays behind as the oracle: ``npn_canonize`` and ``npn_canonize_batch``
must return the same representative *and* transform, tie-breaks
included (tests/core/test_npn.py), and the rewriting oracle in
tests/rewriting/_frozen_scalar.py canonizes through it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from repro.core.npn import NPNTransform, invert_transform
from repro.core.truth_table import tt_mask

__all__ = [
    "npn_canonize",
    "enumerate_npn_classes",
    "npn_class_sizes",
    "remap_tables",
]


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


def remap_tables(num_vars: int) -> dict[tuple[tuple[int, ...], int], tuple[int, ...]]:
    """The frozen remap tables (content and key order)."""
    return _remap_tables(num_vars)


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
