"""k-feasible cut enumeration for kernel-backed networks (Sec. II-C).

Arity-generic since the kernel refactor: the same enumerator serves the
3-ary MIG and the 2-ary AIG.  Everything below that says "mig" accepts
any :class:`repro.core.kernel.Network` facade.

A cut ``(v, L)`` of a node ``v`` is a set of leaves ``L`` such that every
path from ``v`` to a non-terminal passes through a leaf, and every leaf
lies on such a path.  Paths to the constant node are exempt.  Cuts are
enumerated bottom-up with the saturating union ``⊗k`` of the paper::

    cuts_k(0) = {{}}
    cuts_k(x) = {{x}}                      for primary inputs x
    cuts_k(g) = cuts_k(g1) ⊗k ... ⊗k cuts_k(g_arity)

As is standard in cut-based rewriting (and implicit in the paper's use of
cuts as rewriting targets), the trivial cut ``{g}`` is additionally kept
for every gate so that enclosing nodes can treat ``g`` itself as a leaf.

Cuts are represented as sorted tuples of leaf node indices.  A 64-bit
signature provides a quick lower bound on union cardinality, and dominated
cuts (proper supersets of another cut of the same node) are pruned.  The
``cut_limit`` parameter bounds the number of cuts stored per node
(priority cuts, ref. [11] of the paper).

:func:`enumerate_cut_set` is the one entry point, shared by the
rewriters, the mapper and AIG rewriting: alongside the merge it records
the flat cut-function program (:class:`_CutProgram`) that evaluates
every cut truth table in one executor run.  Every PI cut and every
gate's trivial cut share one slot, whose table is ``x0``; a gate whose
fanins are all PIs, shared gates or the constant gets its one
non-trivial cut's table from :data:`_LEAF_TABLES` without a program
row.  That program is the only cut-table implementation;
:func:`repro.core.simengine.cone_function`, which re-simulates one cut
cone, is the reference the tests hold it to.

All traversals here are explicit-stack iterative so that deep (chain-
shaped) networks never hit Python's recursion limit.
"""

from __future__ import annotations

from array import array
from struct import Struct

import numpy as np

from ..runtime.metrics import PassMetrics
from .kernel import Network
from .simengine import evaluate_cut_program, projection_int

__all__ = ["CutSet", "enumerate_cut_set", "cut_cone_nodes"]

#: Truth table of the single-variable projection x0 (trivial/PI cuts).
_TT_X0 = 0b10

#: the constant's empty cut, and the ``x0`` cut every PI and every
#: gate's trivial cut share; gate cuts take the slots from 2 on
_CONST_SLOT, _X0_SLOT, _FIRST_GATE_SLOT = 0, 1, 2

#: width masks indexed by variable count; a program table fills at most
#: 64 bits, so recorded cuts have at most 6 leaves
_MASKS = (0b1, 0b11, 0xF, 0xFF, 0xFFFF, 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF)
_MAX_PROGRAM_VARS = len(_MASKS) - 1
_MASK_ARRAY = np.array(_MASKS, np.uint64)


def _leaf_tables(arity: int) -> tuple[int, ...]:
    """Tables of a gate's cut over its own fanins, when each fanin is a
    PI, a shared gate or the constant.

    Such a gate has one non-trivial cut: its fanin nodes, in fanin order,
    the constant dropped.  Its table is the gate function over
    projections of those leaves.  Index: bit ``i`` is fanin ``i``'s
    complement bit, and bit ``arity`` is set when the first fanin is the
    constant (sorted fanins put it first).
    """
    tables = []
    for const in (0, 1):
        n = arity - const
        mask = _MASKS[n]
        inputs = [0] * const + [projection_int(n, i) for i in range(n)]
        for bits in range(1 << arity):
            v = [x ^ mask if bits >> i & 1 else x for i, x in enumerate(inputs)]
            if arity == 3:
                tables.append((v[0] & v[1]) | (v[0] & v[2]) | (v[1] & v[2]))
            else:
                tables.append(v[0] & v[1])
    return tuple(tables)


#: leaf-level cut tables per arity (see :func:`_leaf_tables`)
_LEAF_TABLES = {3: _leaf_tables(3), 2: _leaf_tables(2)}


class _CutProgram:
    """Flat cut-function program recorded *during* enumeration.

    Each enumerated cut owns a slot, with its leaf count in ``nv`` and
    its **provenance-DAG level** in ``slot_lev``.  Init slots have known
    tables: slot 0 is the constant's empty cut, slot 1 the ``x0`` that
    every PI cut and every gate's trivial cut share, and a gate whose
    fanins are all PIs, shared gates or the constant records its one
    non-trivial cut as an init slot of level 1 with a
    :data:`_LEAF_TABLES` table.  Every other merged gate cut is one
    program row in ``rows``: its output slot and level (1 + max child
    level), then per fanin position the child cut's slot, inversion bit
    and don't-care mask (bit ``p`` set when the row's leaf ``p`` is not
    a child leaf; 0 = child already on the union leaf set).  Levels let
    the executor sweep a few wide levels even on chain-shaped networks
    whose *network* depth is in the hundreds.

    Recording rides along the merge loop — the slots and leaf walks are
    captured while the enumerator already holds them.  ``nv``,
    ``init_idx``, ``init_vals`` and ``rows`` are typed arrays, each row
    packed into ``rows`` as int64 fields in one call, and
    :meth:`evaluate` reads them with ``np.frombuffer``; ``slot_lev``
    stays a list, which the merge loop reads per child
    (docs/PERFORMANCE.md).
    """

    __slots__ = ("arity", "nv", "slot_lev", "init_idx", "init_vals", "rows")

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.nv = array("B", (0, 1))
        self.slot_lev = [0, 0]
        self.init_idx = array("q", (_CONST_SLOT, _X0_SLOT))
        self.init_vals = array("Q", (0, _TT_X0))
        self.rows = array("q")

    @property
    def num_gate_cuts(self) -> int:
        """Non-trivial gate cuts: every slot but the two shared ones."""
        return len(self.nv) - _FIRST_GATE_SLOT

    def evaluate(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Run the executor once on the recorded arrays.

        Returns the per-slot tables, the per-slot variable counts and
        the number of provenance levels.  Only inversion *bits* are
        recorded per fanin; the width masks of the rows' variable counts
        are broadcast onto them here, so the hot recording loop never
        evaluates a conditional per fanin.
        """
        arity = self.arity
        rows = np.frombuffer(self.rows, np.int64).reshape(-1, 2 + 3 * arity)
        nv = np.frombuffer(self.nv, np.uint8)
        out = rows[:, 0]
        lev = rows[:, 1]
        comp = rows[:, 3::3].astype(np.uint64)
        comp *= _MASK_ARRAY[nv[out]][:, None]
        values = evaluate_cut_program(
            len(nv),
            np.frombuffer(self.init_idx, np.int64),
            np.frombuffer(self.init_vals, np.uint64),
            lev,
            out,
            rows[:, 2::3],
            comp,
            rows[:, 4::3],
            arity,
        )
        levels = int(lev.max()) if lev.size else 0
        if len(self.init_idx) > _FIRST_GATE_SLOT and levels < 1:
            levels = 1  # leaf-level cuts sit at level 1
        return values, nv, levels


def _merge3(
    set1: list[tuple[tuple[int, ...], int, int, int]],
    set2: list[tuple[tuple[int, ...], int, int, int]],
    set3: list[tuple[tuple[int, ...], int, int, int]],
    k: int,
) -> list[tuple[tuple[int, ...], int, int, tuple]]:
    """Saturating union ``⊗k`` over three cut sets, with domination pruning.

    Inputs are ``(leaves, signature, cone_size, slot)`` entries; the
    result carries the three child *entries* each union was merged from,
    whose leaves and slots feed the recorded program.  The merged cone
    size is ``1 + size1 + size2 + size3``; it equals the true
    cone gate count only when the fanin cones are disjoint, which the
    FFR-restricted enumeration mode guarantees (see :func:`_enumerate`).
    """
    result: dict[tuple[int, ...], tuple[int, int, tuple]] = {}
    for e1 in set1:
        sig1 = e1[1]
        size1_plus1 = 1 + e1[2]
        union1 = set(e1[0]).union
        for e2 in set2:
            sig12 = sig1 | e2[1]
            if sig12.bit_count() > k:
                continue
            union12 = union1(e2[0])
            if len(union12) > k:
                continue
            size12 = size1_plus1 + e2[2]
            union12_union = union12.union
            for e3 in set3:
                sig = sig12 | e3[1]
                if sig.bit_count() > k:
                    continue
                union = union12_union(e3[0])
                if len(union) > k:
                    continue
                leaves = tuple(sorted(union))
                if leaves not in result:
                    # The signature of the union is the OR of the parts.
                    result[leaves] = (sig, size12 + e3[2], (e1, e2, e3))
    return _prune_dominated(
        [
            (leaves, sig, size, prov)
            for leaves, (sig, size, prov) in result.items()
        ]
    )


def _merge2(
    set1: list[tuple[tuple[int, ...], int, int, int]],
    set2: list[tuple[tuple[int, ...], int, int, int]],
    k: int,
) -> list[tuple[tuple[int, ...], int, int, tuple]]:
    """Two-operand ``⊗k`` — the AIG instantiation of :func:`_merge3`."""
    result: dict[tuple[int, ...], tuple[int, int, tuple]] = {}
    for e1 in set1:
        sig1 = e1[1]
        size1_plus1 = 1 + e1[2]
        union1 = set(e1[0]).union
        for e2 in set2:
            sig = sig1 | e2[1]
            if sig.bit_count() > k:
                continue
            union = union1(e2[0])
            if len(union) > k:
                continue
            leaves = tuple(sorted(union))
            if leaves not in result:
                result[leaves] = (sig, size1_plus1 + e2[2], (e1, e2))
    return _prune_dominated(
        [
            (leaves, sig, size, prov)
            for leaves, (sig, size, prov) in result.items()
        ]
    )


def _prune_dominated(
    cuts: list[tuple[tuple[int, ...], int, int, tuple]],
) -> list[tuple[tuple[int, ...], int, int, tuple]]:
    """Remove cuts that are proper supersets of another cut in the list."""
    if len(cuts) < 2:
        return cuts
    cuts.sort(key=lambda item: len(item[0]))
    kept: list[tuple[tuple[int, ...], int, int, tuple]] = []
    for entry in cuts:
        leaves, sig = entry[0], entry[1]
        leaf_set = None
        dominated = False
        for other in kept:
            if other[1] & ~sig or len(other[0]) >= len(leaves):
                continue
            if leaf_set is None:
                leaf_set = set(leaves)
            if leaf_set.issuperset(other[0]):
                dominated = True
                break
        if not dominated:
            kept.append(entry)
    return kept


def _enumerate(
    mig: Network,
    k: int,
    cut_limit: int,
    metrics: PassMetrics | None,
    ffr_fanout: list[int] | None,
    program: _CutProgram,
) -> list[list[tuple[tuple[int, ...], int, int, int]]]:
    """Shared enumeration core.

    Returns per-node ``(leaves, signature, cone_size, slot)`` entries
    and records the flat cut-function program into *program* alongside
    the merge at negligible extra cost.

    With *ffr_fanout* (a fanout-count list), enumeration is restricted to
    fanout-free cuts: merging never expands through a gate with fanout
    other than 1 — such a gate contributes only its trivial cut, i.e. it
    becomes a leaf.  This is the paper's "partition at FFR boundaries"
    formulation of the F-variants: every enumerated cut is fanout-free by
    construction (so rewriters skip the per-cut cone walk entirely), the
    cubic merge space shrinks at every shared fanin, and — because the
    restricted cones are trees — the entries' cone size is the exact
    cone gate count.  In unrestricted mode it over-counts shared gates.

    Each node has one *source* list, the cuts its fanouts merge: a
    gate's own entries, or under FFR restriction, for a shared gate,
    its trivial cut alone.  A gate whose sources each hold one entry
    (every fanin a PI, the constant or a shared gate — 50–80 % of gates
    on the EPFL suite under FFR restriction) has one non-trivial cut,
    its fanin set, whose table is known (:data:`_LEAF_TABLES`): no
    merge, no pruning, no program row.
    """
    if k < 1:
        raise ValueError("cut size k must be at least 1")
    arity = mig.arity
    if arity not in (2, 3):
        raise ValueError(f"unsupported gate arity {arity}")
    fanins = mig._fanins
    num_nodes = len(fanins)
    first_gate = mig.num_pis + 1
    work: list = [None] * num_nodes
    work[0] = [((), 0, 0, _CONST_SLOT)]
    for node in range(1, first_gate):
        work[node] = [((node,), 1 << (node & 63), 0, _X0_SLOT)]
    sources = list(work)
    # Unrestricted, every gate expands as if it had one fanout.
    fanout = ffr_fanout if ffr_fanout is not None else [1] * num_nodes
    # A leaf-level cut wider than k, or any cut at cut_limit < 1, is dropped.
    leaf_k = k if cut_limit > 0 else -1
    tables = _LEAF_TABLES[arity]
    total_cuts = 0
    # The slot bookkeeping below is fully inlined with the append
    # methods bound once: one attribute walk per *pass*, not per cut,
    # keeps the ride-along recording nearly free.  A row is packed into
    # bytes in one call and appended in one more: ``array.extend`` of a
    # tuple inserts item by item, four times slower.
    nslots = len(program.nv)
    slot_lev = program.slot_lev
    nv_append = program.nv.append
    lev_append = slot_lev.append
    init_idx_append = program.init_idx.append
    init_vals_append = program.init_vals.append
    rows_append = program.rows.frombytes
    pack_row = Struct(f"{2 + 3 * arity}q").pack
    if arity == 3:
        for node in range(first_gate, num_nodes):
            a, b, c = fanins[node]
            set1 = sources[a >> 1]
            set2 = sources[b >> 1]
            set3 = sources[c >> 1]
            trivial = ((node,), 1 << (node & 63), 0, _X0_SLOT)
            if len(set1) == 1 and len(set2) == 1 and len(set3) == 1:
                e1, e2, e3 = set1[0], set2[0], set3[0]
                # Singleton (or constant-empty) leaf tuples: the fanin
                # invariants make them distinct and ascending, so the
                # concatenation is the sorted union.
                leaves = e1[0] + e2[0] + e3[0]
                if len(leaves) <= leaf_k:
                    nv_append(len(leaves))
                    lev_append(1)
                    init_idx_append(nslots)
                    init_vals_append(
                        tables[(a & 1) | (b & 1) << 1 | (c & 1) << 2 | (a < 2) << 3]
                    )
                    cut = (leaves, e1[1] | e2[1] | e3[1], 1, nslots)
                    nslots += 1
                    entries = [trivial, cut] if len(leaves) > 1 else [cut, trivial]
                else:
                    entries = [trivial]
            else:
                merged = _merge3(set1, set2, set3, k)
                if len(merged) > cut_limit:
                    merged = merged[:cut_limit]
                entries = []
                for leaves, sig, size, (e1, e2, e3) in merged:
                    # Don't-care masks: clear the positions of the
                    # (sorted) child leaves within the (sorted) union
                    # leaves — each child is a subset by merge
                    # construction, so every probe hits.
                    full = (1 << len(leaves)) - 1
                    index = leaves.index
                    dc1 = dc2 = dc3 = 0
                    if e1[0] != leaves:
                        dc1 = full
                        for leaf in e1[0]:
                            dc1 ^= 1 << index(leaf)
                    if e2[0] != leaves:
                        dc2 = full
                        for leaf in e2[0]:
                            dc2 ^= 1 << index(leaf)
                    if e3[0] != leaves:
                        dc3 = full
                        for leaf in e3[0]:
                            dc3 ^= 1 << index(leaf)
                    s1, s2, s3 = e1[3], e2[3], e3[3]
                    lev = slot_lev[s1]
                    lev2 = slot_lev[s2]
                    lev3 = slot_lev[s3]
                    if lev < lev2:
                        lev = lev2
                    if lev < lev3:
                        lev = lev3
                    lev += 1
                    nv_append(len(leaves))
                    lev_append(lev)
                    rows_append(pack_row(
                        nslots, lev, s1, a & 1, dc1, s2, b & 1, dc2, s3, c & 1, dc3
                    ))
                    entries.append((leaves, sig, size, nslots))
                    nslots += 1
                # Keep the documented "ordered by increasing leaf count"
                # contract: the trivial 1-leaf cut goes after existing
                # narrower-or-equal cuts, before wider ones (insort_right
                # semantics — hand-rolled, the key'd bisect was measurable).
                lo = 0
                n_entries = len(entries)
                while lo < n_entries and len(entries[lo][0]) <= 1:
                    lo += 1
                entries.insert(lo, trivial)
            work[node] = entries
            sources[node] = entries if fanout[node] == 1 else [trivial]
            total_cuts += len(entries)
    else:
        for node in range(first_gate, num_nodes):
            a, b = fanins[node]
            set1 = sources[a >> 1]
            set2 = sources[b >> 1]
            trivial = ((node,), 1 << (node & 63), 0, _X0_SLOT)
            if len(set1) == 1 and len(set2) == 1:
                e1, e2 = set1[0], set2[0]
                leaves = e1[0] + e2[0]
                if len(leaves) <= leaf_k:
                    nv_append(len(leaves))
                    lev_append(1)
                    init_idx_append(nslots)
                    init_vals_append(tables[(a & 1) | (b & 1) << 1 | (a < 2) << 2])
                    cut = (leaves, e1[1] | e2[1], 1, nslots)
                    nslots += 1
                    entries = [trivial, cut] if len(leaves) > 1 else [cut, trivial]
                else:
                    entries = [trivial]
            else:
                merged = _merge2(set1, set2, k)
                if len(merged) > cut_limit:
                    merged = merged[:cut_limit]
                entries = []
                for leaves, sig, size, (e1, e2) in merged:
                    full = (1 << len(leaves)) - 1
                    index = leaves.index
                    dc1 = dc2 = 0
                    if e1[0] != leaves:
                        dc1 = full
                        for leaf in e1[0]:
                            dc1 ^= 1 << index(leaf)
                    if e2[0] != leaves:
                        dc2 = full
                        for leaf in e2[0]:
                            dc2 ^= 1 << index(leaf)
                    s1, s2 = e1[3], e2[3]
                    lev = slot_lev[s1]
                    lev2 = slot_lev[s2]
                    if lev < lev2:
                        lev = lev2
                    lev += 1
                    nv_append(len(leaves))
                    lev_append(lev)
                    rows_append(pack_row(nslots, lev, s1, a & 1, dc1, s2, b & 1, dc2))
                    entries.append((leaves, sig, size, nslots))
                    nslots += 1
                lo = 0
                n_entries = len(entries)
                while lo < n_entries and len(entries[lo][0]) <= 1:
                    lo += 1
                entries.insert(lo, trivial)
            work[node] = entries
            sources[node] = entries if fanout[node] == 1 else [trivial]
            total_cuts += len(entries)
    if metrics is not None:
        metrics.cuts_enumerated += total_cuts
    return work


def enumerate_cut_set(
    mig: Network,
    k: int = 4,
    cut_limit: int = 25,
    metrics: PassMetrics | None = None,
    ffr_fanout: list[int] | None = None,
) -> "CutSet":
    """Enumerate k-feasible cuts and return a :class:`CutSet` with their
    cut functions.

    ``cut_set[node]`` lists the leaf tuples of every node of *mig* (any
    arity), ordered by increasing leaf count with the trivial cut of a
    gate included in order; the constant node has the single empty cut
    and a PI its singleton cut.  The flat cut-function program is
    recorded during the merge, so :meth:`CutSet.compute_functions`
    evaluates every cut table in one executor run.  Its tables hold at
    most 64 bits, hence ``k <= 6``.  With *ffr_fanout* (see
    :func:`_enumerate`), only fanout-free cuts are produced and each
    entry carries its exact cone gate count.
    """
    if k > _MAX_PROGRAM_VARS:
        raise ValueError(
            f"cut functions cover at most {_MAX_PROGRAM_VARS} leaves, got k={k}"
        )
    program = _CutProgram(mig.arity)
    entries = _enumerate(mig, k, cut_limit, metrics, ffr_fanout, program)
    return CutSet(entries, program, metrics)


class CutSet:
    """Enumerated cuts of a network plus their cut functions.

    ``cut_set[node]`` is the list of leaf tuples of *node*.
    :meth:`slot_tables` and :meth:`batch_tt4s` serve every cut function
    at once from the program recorded during enumeration.  Slots 0 and 1
    are the constant's cut and the ``x0`` cut that every PI and trivial
    gate cut shares; every other slot is one non-trivial gate cut.
    """

    def __init__(
        self,
        entries: list[list[tuple[tuple[int, ...], int, int, int]]],
        program: _CutProgram,
        metrics: PassMetrics | None = None,
    ) -> None:
        #: per-node ``(leaves, signature, cone_size, slot)`` entries as
        #: the enumerator produced them — the consumers iterate these
        #: directly (cone size and program slot ride along, no dict
        #: probes); :attr:`cuts` derives the leaves-only view lazily.
        self.entries = entries
        self._cuts: list[list[tuple[int, ...]]] | None = None
        self.metrics = metrics
        self._program = program
        # Program results (compute_functions): flat per-slot truth
        # tables, per-slot var counts, and the tables extended to one
        # width.
        self._values: np.ndarray | None = None
        self._nv: np.ndarray | None = None
        self._extended: tuple[int, np.ndarray] | None = None

    @property
    def cuts(self) -> list[list[tuple[int, ...]]]:
        """Per-node leaf tuples, without the entries' bookkeeping."""
        c = self._cuts
        if c is None:
            c = self._cuts = [
                [entry[0] for entry in node_entries]
                for node_entries in self.entries
            ]
        return c

    def compute_functions(self) -> int:
        """Evaluate every enumerated cut function in one executor run.

        Runs the program recorded during enumeration through
        :func:`repro.core.simengine.evaluate_cut_program`, so a whole
        provenance level of cuts costs a handful of numpy ops instead of
        one Python bigint recursion per cut.  Each table equals
        :func:`repro.core.simengine.cone_function` of its cut.
        Idempotent; returns the number of gate-cut tables.
        """
        program = self._program
        if self._values is None:
            self._values, self._nv, levels = program.evaluate()
            if self.metrics is not None:
                self.metrics.batch_cut_functions += program.num_gate_cuts
                self.metrics.batch_levels += levels
        return program.num_gate_cuts

    def _extended_tables(self, num_vars: int) -> np.ndarray:
        """Per-slot tables extended to *num_vars* variables (cached).

        The vectorized counterpart of
        :func:`repro.core.truth_table.tt_extend`.
        """
        cached = self._extended
        if cached is not None and cached[0] == num_vars:
            return cached[1]
        self.compute_functions()
        v = self._values.copy()  # type: ignore[union-attr]
        nv = self._nv
        for k in range(num_vars):
            grow = nv <= k
            if grow.any():
                v[grow] |= v[grow] << (1 << k)
        self._extended = (num_vars, v)
        return v

    def slot_tables(self, num_vars: int) -> list[int]:
        """Per-slot truth tables extended to *num_vars* variables.

        Indexed by entry slot (``entries[node][i][3]``); each equals the
        cut's :func:`~repro.core.simengine.cone_function` extended by
        ``tt_extend``.  With this list in
        hand the rewrite loop answers every cut-function query with one
        list index — no tuple key, no dict probe, no per-cut extension.
        """
        return self._extended_tables(num_vars).tolist()

    def batch_tt4s(self, num_vars: int) -> np.ndarray:
        """Extended (``num_vars``-input) tables of all non-trivial gate cuts.

        Returns the **deduplicated, sorted** tt array — the input of one
        :meth:`repro.database.npn_db.NpnDatabase.lookup_batch` sweep.
        """
        v = np.sort(self._extended_tables(num_vars)[_FIRST_GATE_SLOT:])
        # Adjacent-difference mask: the values and dtype of np.unique,
        # which would import numpy.ma on a worker's first pass.
        keep = np.ones(v.size, dtype=bool)
        np.not_equal(v[1:], v[:-1], out=keep[1:])
        return v[keep]

    def __getitem__(self, node: int) -> list[tuple[int, ...]]:
        return self.cuts[node]

    def __len__(self) -> int:
        return len(self.cuts)


def cut_cone_nodes(mig: Network, root: int, leaves: tuple[int, ...]):
    """Internal nodes of cut ``(root, leaves)`` as a set, root included.

    Signals an invalid cut (a PI outside the leaves is reachable) by
    returning ``None``.  The unrestricted rewriters size each cut's cone
    with this walk; the fanout-free ones read the exact size from the
    restricted enumeration instead.
    """
    leaf_set = set(leaves)
    first_gate = mig.num_pis + 1
    fanins = mig.fanins
    seen = {root}
    stack = [s >> 1 for s in fanins(root)]
    while stack:
        node = stack.pop()
        if node in seen or node in leaf_set or node == 0:
            continue
        if node < first_gate:  # a PI outside the leaves: not a cut
            return None
        seen.add(node)
        stack.extend(s >> 1 for s in fanins(node))
    return seen
