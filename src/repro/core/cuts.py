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
every cut truth table in one executor run.  That program is the only
cut-table implementation; :func:`repro.core.simengine.cone_function`,
which re-simulates one cut cone, is the reference the tests hold it to.

All traversals here are explicit-stack iterative so that deep (chain-
shaped) networks never hit Python's recursion limit.
"""

from __future__ import annotations

import numpy as np

from ..runtime.metrics import PassMetrics
from .kernel import Network
from .simengine import evaluate_cut_program

__all__ = ["CutSet", "enumerate_cut_set", "cut_cone_nodes"]

#: Truth table of the single-variable projection x0 (trivial/PI cuts).
_TT_X0 = 0b10

#: width masks indexed by variable count; a program table fills at most
#: 64 bits, so recorded cuts have at most 6 leaves
_MASKS = (0b1, 0b11, 0xF, 0xFF, 0xFFFF, 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF)
_MAX_PROGRAM_VARS = len(_MASKS) - 1


class _CutProgram:
    """Flat cut-function program recorded *during* enumeration.

    Each enumerated cut owns a slot; trivial / PI / constant cuts are
    init slots with known seed tables, every merged gate cut becomes one
    program row: its output slot, plus per fanin position the child
    cut's slot, inversion bit, and don't-care mask (bit ``p`` set when
    the row's leaf ``p`` is not a child leaf; 0 = child already on the
    union leaf set).  Rows carry their **provenance-DAG level**
    (1 + max child level), so the executor sweeps a few wide levels even
    on chain-shaped networks whose *network* depth is in the hundreds.

    Recording rides along the merge loop — the slots and leaf walks are
    captured while the enumerator already holds them — which is what
    makes the pipeline essentially free to set up (docs/PERFORMANCE.md).
    """

    __slots__ = (
        "arity", "nv", "slot_lev", "init_idx", "init_vals",
        "row_out", "row_lev", "row_child", "row_sign", "row_dc",
    )

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.nv: list[int] = []
        self.slot_lev: list[int] = []
        self.init_idx: list[int] = []
        self.init_vals: list[int] = []
        self.row_out: list[int] = []
        self.row_lev: list[int] = []
        self.row_child: list[int] = []
        self.row_sign: list[int] = []
        self.row_dc: list[int] = []

    def add_init(self, num_vars: int, value: int) -> int:
        slot = len(self.nv)
        self.nv.append(num_vars)
        self.slot_lev.append(0)
        self.init_idx.append(slot)
        self.init_vals.append(value)
        return slot

    def evaluate(self) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the flat arrays and run the executor once.

        Returns the per-slot tables and variable counts.  Only inversion
        *bits* are recorded per fanin; the width masks of the rows'
        variable counts are broadcast onto them here, so the hot
        recording loop never evaluates a conditional per fanin.
        """
        n = len(self.row_out)
        arity = self.arity
        nv = np.fromiter(self.nv, np.int64, len(self.nv))
        out = np.fromiter(self.row_out, np.int64, n)
        mask = np.array(_MASKS, np.uint64)[nv[out]]
        comp = np.fromiter(self.row_sign, np.uint64, arity * n).reshape(n, arity)
        comp *= mask[:, None]
        values = evaluate_cut_program(
            len(self.nv),
            np.fromiter(self.init_idx, np.int64, len(self.init_idx)),
            np.fromiter(self.init_vals, np.uint64, len(self.init_vals)),
            np.fromiter(self.row_lev, np.int64, n),
            out,
            np.fromiter(self.row_child, np.int64, arity * n).reshape(n, arity),
            comp,
            np.fromiter(self.row_dc, np.uint8, arity * n).reshape(n, arity),
            arity,
        )
        return values, nv


def _signature(leaves: tuple[int, ...]) -> int:
    sig = 0
    for leaf in leaves:
        sig |= 1 << (leaf & 63)
    return sig


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
    """
    if k < 1:
        raise ValueError("cut size k must be at least 1")
    arity = mig.arity
    if arity not in (2, 3):
        raise ValueError(f"unsupported gate arity {arity}")
    num_nodes = mig.num_nodes
    work: list[list[tuple[tuple[int, ...], int, int, int]]] = [
        [] for _ in range(num_nodes)
    ]
    work[0] = [((), 0, 0, program.add_init(0, 0))]
    for node in range(1, mig.num_pis + 1):
        leaves = (node,)
        work[node] = [(leaves, _signature(leaves), 0, program.add_init(1, _TT_X0))]
    #: gate -> slot of its trivial singleton cut: a shared FFR leaf is
    #: the same (node, leaves) key, so its source reuses that slot.
    trivial_slots: dict[int, int] = {}
    #: child -> memoized singleton source list for shared FFR leaves
    ffr_sources: dict[int, list] = {}
    num_pis = mig.num_pis
    total_cuts = 0
    ffr = ffr_fanout is not None
    # The slot bookkeeping below (gate-cut recording, trivial-cut init
    # slots) is fully inlined with the list append methods bound once:
    # one attribute walk per *pass*, not per cut, keeps the ride-along
    # recording nearly free.
    nslots = len(program.nv)
    slot_lev = program.slot_lev
    p_nv_append = program.nv.append
    p_slot_lev_append = slot_lev.append
    init_idx_append = program.init_idx.append
    init_vals_append = program.init_vals.append
    row_out_append = program.row_out.append
    row_lev_append = program.row_lev.append
    row_child_append = program.row_child.append
    row_sign_append = program.row_sign.append
    row_dc_append = program.row_dc.append
    for node in mig.gates():
        fanins = mig.fanins(node)
        sources = []
        for s in fanins:
            child = s >> 1
            if ffr and child > num_pis and ffr_fanout[child] != 1:
                # Shared gate: a leaf, never expanded through.
                src = ffr_sources.get(child)
                if src is None:
                    src = [((child,), 1 << (child & 63), 0, trivial_slots[child])]
                    ffr_sources[child] = src
                sources.append(src)
            else:
                sources.append(work[child])
        # Single-entry sources are the overwhelmingly common case under
        # FFR restriction (50–80% of gates on the EPFL suite: every
        # child a PI, a shared gate, or the constant), and their merge
        # is one union — skip the full ⊗k product and its pruning.
        if arity == 3:
            set1, set2, set3 = sources
            if len(set1) == 1 and len(set2) == 1 and len(set3) == 1:
                e1, e2, e3 = set1[0], set2[0], set3[0]
                l1, l2, l3 = e1[0], e2[0], e3[0]
                if len(l1) < 2 and len(l2) < 2 and len(l3) < 2:
                    # Singleton (or constant-empty) leaf tuples: the
                    # fanin invariants make them distinct and ascending,
                    # so the concatenation is the sorted union.
                    leaves = l1 + l2 + l3
                else:
                    leaves = tuple(sorted({*l1, *l2, *l3}))
                if len(leaves) <= k:
                    merged = [(
                        leaves,
                        e1[1] | e2[1] | e3[1],
                        1 + e1[2] + e2[2] + e3[2],
                        (e1, e2, e3),
                    )]
                else:
                    merged = []
            else:
                merged = _merge3(set1, set2, set3, k)
        else:
            set1, set2 = sources
            if len(set1) == 1 and len(set2) == 1:
                e1, e2 = set1[0], set2[0]
                l1, l2 = e1[0], e2[0]
                if len(l1) < 2 and len(l2) < 2:
                    leaves = l1 + l2
                else:
                    leaves = tuple(sorted({*l1, *l2}))
                if len(leaves) <= k:
                    merged = [(
                        leaves,
                        e1[1] | e2[1],
                        1 + e1[2] + e2[2],
                        (e1, e2),
                    )]
                else:
                    merged = []
            else:
                merged = _merge2(set1, set2, k)
        if len(merged) > cut_limit:
            merged = merged[:cut_limit]
        entries = []
        for leaves, sig, size, child_entries in merged:
            slot = nslots
            nslots += 1
            p_nv_append(len(leaves))
            full = (1 << len(leaves)) - 1
            lev = 0
            index = leaves.index
            for s, entry in zip(fanins, child_entries):
                child_slot = entry[3]
                child_lev = slot_lev[child_slot]
                if child_lev > lev:
                    lev = child_lev
                row_child_append(child_slot)
                row_sign_append(s & 1)
                child_leaves = entry[0]
                if child_leaves == leaves:
                    row_dc_append(0)
                else:
                    # Clear the positions of the (sorted) child leaves
                    # within the (sorted) union leaves — the child is a
                    # subset by merge construction, so every probe hits.
                    dc = full
                    for leaf in child_leaves:
                        dc ^= 1 << index(leaf)
                    row_dc_append(dc)
            lev += 1
            p_slot_lev_append(lev)
            row_out_append(slot)
            row_lev_append(lev)
            entries.append((leaves, sig, size, slot))
        slot = nslots
        nslots += 1
        p_nv_append(1)
        p_slot_lev_append(0)
        init_idx_append(slot)
        init_vals_append(_TT_X0)
        trivial_slots[node] = slot
        # Keep the documented "ordered by increasing leaf count" contract:
        # the trivial 1-leaf cut goes after existing narrower-or-equal
        # cuts, before wider ones (insort_right semantics — hand-rolled,
        # the key'd bisect was measurable).
        lo = 0
        n_entries = len(entries)
        while lo < n_entries and len(entries[lo][0]) <= 1:
            lo += 1
        entries.insert(lo, ((node,), 1 << (node & 63), 0, slot))
        work[node] = entries
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
    at once from the program recorded during enumeration.
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
        # tables, per-slot var counts, the slots of non-trivial gate
        # cuts, and the tables extended to one width.
        self._values: np.ndarray | None = None
        self._nv: np.ndarray | None = None
        self._gate_slots: np.ndarray | None = None
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
            self._values, self._nv = program.evaluate()
            self._gate_slots = np.fromiter(
                program.row_out, np.int64, len(program.row_out)
            )
            if self.metrics is not None:
                self.metrics.batch_cut_functions += len(program.row_out)
                self.metrics.batch_levels += max(program.row_lev, default=0)
        return len(program.row_out)

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
        v = self._extended_tables(num_vars)[self._gate_slots]
        # Sort plus adjacent-difference mask: the values and dtype of
        # np.unique, which would import numpy.ma on a worker's first pass.
        v.sort()
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
