"""Complexity measures of small functions: L(f) and D(f) of Table II.

The paper characterizes all 4-variable functions by three measures:

* ``C(f)`` — combinational complexity: gates in a minimum MIG (DAG).
  Computed by exact synthesis / the NPN database.
* ``L(f)`` — length: majority operators in the smallest *expression*
  (i.e. tree, no sharing).  Computed here by an exhaustive bit-parallel
  dynamic program over all ``2**2**n`` functions.
* ``D(f)`` — depth: the smallest possible longest root-to-terminal path.
  Computed here per NPN class from closure sets: the functions of depth
  at most 0, 1, 2 enumerated exhaustively, depth 3 by a vectorized
  membership test, and 4 otherwise.  A depth-bounded tree SAT encoding
  (:func:`tree_depth_feasible`) decides single cases independently.

Both measures are NPN-invariant (inverters are free on edges and outputs;
permutations relabel inputs), which the test-suite checks.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core.npn import enumerate_npn_classes, npn_class_sizes, npn_representative
from ..core.truth_table import tt_mask, tt_var
from ..sat.cnf import CnfBuilder

__all__ = [
    "compute_length_table",
    "length_distribution",
    "tree_depth_feasible",
    "compute_depth_by_class",
    "depth_distribution",
]


def _terminal_functions(num_vars: int) -> list[int]:
    """Constants and (complemented) projections — the cost-0 expressions."""
    mask = tt_mask(num_vars)
    terminals = [0, mask]
    for i in range(num_vars):
        var = tt_var(num_vars, i)
        terminals.append(var)
        terminals.append(var ^ mask)
    return terminals


def cached_length_table(num_vars: int = 4) -> np.ndarray:
    """L(f) table with a persistent on-disk cache.

    The exhaustive 4-variable DP takes a couple of minutes; the result is
    cached under the package data directory and reused by Table II and by
    database generation.  The load path is fault-tolerant: an unreadable,
    pickled, or mis-shaped cache file is quarantined (renamed to
    ``*.corrupt``) and the table regenerated and re-saved atomically, so
    a corrupt artifact can never crash the pipeline.
    """
    from ..runtime.artifacts import atomic_save_npy, load_validated_npy

    cache = Path(__file__).resolve().parent.parent / "database" / "data"
    path = cache / f"length{num_vars}.npy"
    table = load_validated_npy(
        path,
        expected_shape=(1 << (1 << num_vars),),
        expected_dtype=np.uint8,
    )
    if table is not None:
        return table
    table = compute_length_table(num_vars)
    try:
        cache.mkdir(parents=True, exist_ok=True)
        atomic_save_npy(path, table)
    except OSError:
        pass  # read-only installs just recompute
    return table


def cached_length_sets(num_vars: int = 4) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Cached L table plus the per-cost function sets derived from it."""
    table = cached_length_table(num_vars)
    by_cost: dict[int, np.ndarray] = {}
    for cost in range(int(table.max()) + 1):
        members = np.nonzero(table == cost)[0].astype(np.uint16)
        if members.size:
            by_cost[cost] = members
    return table, by_cost


def compute_length_table(num_vars: int = 4, max_length: int = 12) -> np.ndarray:
    """Compute ``L(f)`` for every function over *num_vars* variables.

    Returns an array of length ``2**2**n`` with the minimum expression
    length per truth table.  Exhaustive DP: functions of length ``c`` are
    majorities of three subfunctions whose lengths sum to ``c - 1``
    (optimal expressions decompose into optimal subexpressions).  The
    inner loops run bit-parallel in numpy; complement closure halves the
    outer enumeration since ``<a'b'c'> = <abc>'``.
    """
    if num_vars > 4:
        raise ValueError("length DP is exhaustive; supported up to 4 variables")
    size = 1 << (1 << num_vars)
    mask = tt_mask(num_vars)
    length = np.full(size, 255, dtype=np.uint8)
    terminals = np.array(sorted(set(_terminal_functions(num_vars))), dtype=np.uint16)
    length[terminals] = 0
    by_cost: dict[int, np.ndarray] = {0: terminals}

    remaining = size - len(terminals)
    for cost in range(1, max_length + 1):
        if remaining == 0:
            break
        partitions = []
        for c1 in range((cost - 1) // 3 + 1):
            for c2 in range(c1, cost - 1 - c1 + 1):
                c3 = cost - 1 - c1 - c2
                if c3 < c2:
                    continue
                if c1 in by_cost and c2 in by_cost and c3 in by_cost:
                    work = len(by_cost[c1]) * len(by_cost[c2]) * len(by_cost[c3])
                    partitions.append((work, c1, c2, c3))
        partitions.sort()
        new_found: list[np.ndarray] = []
        for _, c1, c2, c3 in partitions:
            # Loop over the smallest set in Python; broadcast the other two.
            costs = sorted((c1, c2, c3), key=lambda c: len(by_cost[c]))
            loop_set = by_cost[costs[0]]
            set_b, set_c = by_cost[costs[1]], by_cost[costs[2]]
            symmetric = costs[1] == costs[2]
            found = _dp_step(loop_set, set_b, set_c, symmetric, length, cost, mask)
            if found.size:
                new_found.append(found)
                remaining -= found.size
        if new_found:
            by_cost[cost] = np.unique(np.concatenate(new_found))
        else:
            by_cost[cost] = np.empty(0, dtype=np.uint16)
    return length


def _dp_step(
    set_a: np.ndarray,
    set_b: np.ndarray,
    set_c: np.ndarray,
    symmetric: bool,
    length: np.ndarray,
    cost: int,
    mask: int,
) -> np.ndarray:
    """Mark functions ``<abc>`` (a∈A, b∈B, c∈C) of length *cost*; return them.

    Only the half of ``A`` with even least-significant truth-table bit is
    enumerated; complements of results are marked too (see module doc).
    When ``symmetric`` (B and C are the same cost set) only the upper
    triangle of the B×C product is scanned, at chunk granularity.
    """
    half_a = set_a[(set_a & 1) == 0]
    found_chunks: list[np.ndarray] = []
    # Keep the broadcast below ~8M entries per chunk.
    chunk = max(1, (1 << 23) // max(1, len(set_c)))
    for a in half_a:
        a = int(a)
        ab = (a & set_b).astype(np.uint16, copy=False)
        ob = (a | set_b).astype(np.uint16, copy=False)
        for start in range(0, len(set_b), chunk):
            stop = start + chunk
            cols = set_c[start:] if symmetric else set_c
            res = ab[start:stop, None] | (cols[None, :] & ob[start:stop, None])
            flat = res.ravel()
            fresh_mask = length[flat] == 255
            if not fresh_mask.any():
                continue
            fresh = np.unique(flat[fresh_mask])
            length[fresh] = cost
            comp = fresh ^ mask
            comp_fresh = comp[length[comp] == 255]
            length[comp_fresh] = cost
            found_chunks.append(fresh)
            if comp_fresh.size:
                found_chunks.append(comp_fresh)
    if not found_chunks:
        return np.empty(0, dtype=np.uint16)
    return np.unique(np.concatenate(found_chunks))


def length_distribution(num_vars: int = 4) -> dict[int, tuple[int, int]]:
    """Return ``{L: (num_classes, num_functions)}`` — the L columns of Table II."""
    table = cached_length_table(num_vars)
    reps = enumerate_npn_classes(num_vars)
    class_sizes = npn_class_sizes(num_vars)
    dist: dict[int, tuple[int, int]] = {}
    for rep in reps:
        level = int(table[rep])
        classes, functions = dist.get(level, (0, 0))
        dist[level] = (classes + 1, functions + class_sizes[rep])
    return dict(sorted(dist.items()))


# ----------------------------------------------------------------------
# depth via tree SAT
# ----------------------------------------------------------------------


def tree_depth_feasible(
    spec: int, num_vars: int, depth: int, conflict_budget: int | None = None
) -> bool | None:
    """Decide whether ``D(spec) <= depth`` via a complete-ternary-tree SAT encoding.

    Every position of a complete ternary tree of the given depth is either
    a terminal (constant or literal) or — below the leaf level — a
    majority over its three children.  Depth needs no sharing, so the tree
    shape is complete without loss of generality.
    """
    mask = tt_mask(num_vars)
    if spec == 0 or spec == mask:
        return True
    terminals = _terminal_functions(num_vars)
    if depth == 0:
        return spec in terminals
    rows = 1 << num_vars

    builder = CnfBuilder()
    # Positions level by level; position p at level < depth has children.
    levels: list[list[dict]] = []
    positions: list[dict] = []
    prev_level: list[dict] = []
    for level in range(depth + 1):
        count = 3**level
        this_level = []
        for _ in range(count):
            pos = {
                "value": [builder.new_var() for _ in range(rows)],
                "is_terminal": builder.new_var(),
                "choice": [builder.new_var() for _ in range(len(terminals))],
                "children": [],
            }
            this_level.append(pos)
            positions.append(pos)
        levels.append(this_level)
    for level in range(depth):
        for idx, pos in enumerate(levels[level]):
            pos["children"] = [levels[level + 1][3 * idx + c] for c in range(3)]

    for level, this_level in enumerate(levels):
        for pos in this_level:
            is_term = pos["is_terminal"]
            if level == depth:
                builder.add_unit(is_term)
            # Terminal: exactly one choice, value fixed per row.
            builder.implies_clause(is_term, pos["choice"])
            builder.at_most_one(pos["choice"])
            for t_idx, t_func in enumerate(terminals):
                choice = pos["choice"][t_idx]
                for j in range(rows):
                    bit = (t_func >> j) & 1
                    v = pos["value"][j]
                    builder.add_clause([-is_term, -choice, v if bit else -v])
            if level < depth:
                # Internal: value = maj(children) on every row.
                kids = pos["children"]
                for j in range(rows):
                    a, b, c = (kid["value"][j] for kid in kids)
                    out = pos["value"][j]
                    builder.add_clause([is_term, -a, -b, out])
                    builder.add_clause([is_term, -a, -c, out])
                    builder.add_clause([is_term, -b, -c, out])
                    builder.add_clause([is_term, a, b, -out])
                    builder.add_clause([is_term, a, c, -out])
                    builder.add_clause([is_term, b, c, -out])

    root = levels[0][0]
    builder.add_unit(-root["is_terminal"])  # depth >= 1 here; terminals handled above
    for j in range(rows):
        bit = (spec >> j) & 1
        v = root["value"][j]
        builder.add_unit(v if bit else -v)
    return builder.solve(conflict_budget=conflict_budget)


def _depth_closure_sets(num_vars: int) -> list[np.ndarray]:
    """Sets ``R_d`` of functions with tree depth <= d, for d = 0, 1, 2.

    ``R_{d+1} = R_d ∪ maj(R_d, R_d, R_d)``; feasible exhaustively through
    ``R_2`` (|R_2| ≈ 10 350 for n = 4).  ``R_3`` would need ~10^12 triples,
    so membership in it is decided per function by :func:`_in_next_closure`.
    """
    terminals = np.array(
        sorted(set(_terminal_functions(num_vars))), dtype=np.int64
    )
    sets = [terminals]
    size = 1 << (1 << num_vars)
    for _ in range(2):
        current = sets[-1]
        member = np.zeros(size, dtype=bool)
        member[current] = True
        for a in current:
            a = int(a)
            ab = a & current
            ob = a | current
            for c_start in range(0, len(current), 4096):
                cols = current[c_start : c_start + 4096]
                res = ab[:, None] | (cols[None, :] & ob[:, None])
                member[res.ravel()] = True
        sets.append(np.nonzero(member)[0])
    return sets


def _in_next_closure(f: int, closure: np.ndarray, mask: int) -> bool:
    """Is ``f = <g1 g2 h>`` for g1, g2, h in *closure*?

    ``<g1 g2 h> = (g1 & g2) | (h & (g1 | g2))``, so a completing ``h``
    exists for a pair (g1, g2) iff ``g1&g2 ⊆ f ⊆ g1|g2`` and some member
    matches ``f`` on the disagreement bits ``g1 ^ g2``.
    """
    f_not = f ^ mask
    for g1 in closure:
        g1 = int(g1)
        ab = g1 & closure
        ob = g1 | closure
        ok = ((ab & f_not) == 0) & ((f & (ob ^ mask)) == 0)
        for idx in np.nonzero(ok)[0]:
            g2 = int(closure[idx])
            d = g1 ^ g2
            if ((closure & d) == (f & d)).any():
                return True
    return False


def compute_depth_by_class(num_vars: int = 4) -> dict[int, int]:
    """Compute ``D(f)`` for every NPN class representative.

    Depths 0-2 come from exhaustive closure sets; depth 3 from the
    vectorized triple-membership test.  Anything deeper is depth 4: every
    n-variable function has ``D <= 4`` for ``n = 4`` via the multiplexer
    construction over 3-variable cofactors (which all have ``D <= 2``).
    """
    sets = _depth_closure_sets(num_vars)
    mask = tt_mask(num_vars)
    size = 1 << (1 << num_vars)
    in_r = []
    for s in sets:
        member = np.zeros(size, dtype=bool)
        member[s] = True
        in_r.append(member)
    result: dict[int, int] = {}
    for rep in enumerate_npn_classes(num_vars):
        if in_r[0][rep]:
            result[rep] = 0
        elif in_r[1][rep]:
            result[rep] = 1
        elif in_r[2][rep]:
            result[rep] = 2
        elif _in_next_closure(rep, sets[2], mask):
            result[rep] = 3
        else:
            result[rep] = 4
    return result


def depth_distribution(num_vars: int = 4) -> dict[int, tuple[int, int]]:
    """Return ``{D: (num_classes, num_functions)}`` — the D columns of Table II."""
    by_class = compute_depth_by_class(num_vars)
    class_sizes = npn_class_sizes(num_vars)
    dist: dict[int, tuple[int, int]] = {}
    for rep, depth in by_class.items():
        classes, functions = dist.get(depth, (0, 0))
        dist[depth] = (classes + 1, functions + class_sizes[rep])
    return dict(sorted(dist.items()))
