"""Differential tests: the arity-generic cut enumerator vs the frozen
pre-refactor enumerators.

Two oracles are embedded below, copied from the tree as it stood before
the kernel refactor unified ``core/cuts.py`` and ``aig/cuts.py``:

* ``oracle_mig_cuts`` — the MIG ``_enumerate``/``_merge3`` core.  The
  generic enumerator must reproduce its per-node cut **lists exactly**
  (same cuts, same order), in plain and FFR-restricted mode.
* ``oracle_aig_cuts`` — the deleted ``aig/cuts.py`` enumerator.  It
  appended the trivial cut while the generic enumerator insorts it by
  leaf count, so per-node comparison is by **set**; with pruning
  disabled by a large ``cut_limit`` the sets must be identical.

Do not "fix" the oracles — they are the spec.  The cut functions the
enumerator's recorded program computes are held to
:func:`repro.core.simengine.cone_function`, which re-simulates each cut
cone on its own.
"""

from __future__ import annotations

from bisect import insort

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.core.cuts import enumerate_cut_set, enumerate_cuts
from repro.core.mig import Mig
from repro.core.simengine import cone_function
from repro.core.truth_table import tt_extend

# ---------------------------------------------------------------------------
# frozen pre-refactor MIG enumerator
# ---------------------------------------------------------------------------


def _signature(leaves):
    sig = 0
    for leaf in leaves:
        sig |= 1 << (leaf & 63)
    return sig


def _oracle_merge3(set1, set2, set3, k):
    result = {}
    for leaves1, sig1, size1 in set1:
        base1 = set(leaves1)
        for leaves2, sig2, size2 in set2:
            sig12 = sig1 | sig2
            if sig12.bit_count() > k:
                continue
            union12 = base1.union(leaves2)
            if len(union12) > k:
                continue
            size12 = 1 + size1 + size2
            for leaves3, sig3, size3 in set3:
                sig = sig12 | sig3
                if sig.bit_count() > k:
                    continue
                union = union12.union(leaves3)
                if len(union) > k:
                    continue
                leaves = tuple(sorted(union))
                if leaves not in result:
                    result[leaves] = (sig, size12 + size3)
    return _oracle_prune(
        [(leaves, sig, size) for leaves, (sig, size) in result.items()]
    )


def _oracle_prune(cuts):
    cuts.sort(key=lambda item: len(item[0]))
    kept = []
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


def oracle_mig_cuts(mig, k=4, cut_limit=25, include_trivial=True, ffr_fanout=None):
    num_nodes = mig.num_nodes
    work = [[] for _ in range(num_nodes)]
    work[0] = [((), 0, 0)]
    for node in range(1, mig.num_pis + 1):
        leaves = (node,)
        work[node] = [(leaves, _signature(leaves), 0)]
    num_pis = mig.num_pis
    for node in mig.gates():
        sources = []
        for s in mig.fanins(node):
            child = s >> 1
            if ffr_fanout is not None and child > num_pis and ffr_fanout[child] != 1:
                trivial = (child,)
                sources.append([(trivial, _signature(trivial), 0)])
            else:
                sources.append(work[child])
        merged = _oracle_merge3(sources[0], sources[1], sources[2], k)
        if len(merged) > cut_limit:
            merged = merged[:cut_limit]
        entries = list(merged)
        if include_trivial:
            trivial = (node,)
            insort(entries, (trivial, _signature(trivial), 0), key=lambda e: len(e[0]))
        work[node] = entries
    return [[leaves for leaves, _, _ in cuts] for cuts in work]


# ---------------------------------------------------------------------------
# frozen pre-refactor AIG enumerator (the deleted aig/cuts.py core)
# ---------------------------------------------------------------------------


def oracle_aig_cuts(aig, k=4, cut_limit=12):
    num_nodes = aig.num_pis + 1 + aig.num_gates
    work = [[] for _ in range(num_nodes)]
    work[0] = [((), 0)]
    for node in range(1, aig.num_pis + 1):
        work[node] = [((node,), _signature((node,)))]
    for node in aig.gates():
        a, b = aig.fanins(node)
        merged = {}
        for leaves1, sig1 in work[a >> 1]:
            for leaves2, sig2 in work[b >> 1]:
                sig = sig1 | sig2
                if sig.bit_count() > k:
                    continue
                union = set(leaves1)
                union.update(leaves2)
                if len(union) > k:
                    continue
                leaves = tuple(sorted(union))
                merged[leaves] = _signature(leaves)
        items = sorted(merged.items(), key=lambda item: len(item[0]))
        kept = []
        for leaves, sig in items:
            leaf_set = set(leaves)
            if not any(
                len(other) < len(leaves) and leaf_set.issuperset(other)
                for other, _ in kept
            ):
                kept.append((leaves, sig))
        if len(kept) > cut_limit:
            kept = kept[:cut_limit]
        kept.append(((node,), _signature((node,))))
        work[node] = kept
    return [[leaves for leaves, _ in cuts] for cuts in work]


# ---------------------------------------------------------------------------
# random-network strategies
# ---------------------------------------------------------------------------


@st.composite
def random_mig(draw, min_pis=2, max_pis=6, max_gates=20):
    mig = Mig(draw(st.integers(min_value=min_pis, max_value=max_pis)))
    signals = [0] + mig.pi_signals()
    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        picks = draw(
            st.lists(
                st.tuples(st.integers(0, len(signals) - 1), st.booleans()),
                min_size=3,
                max_size=3,
            )
        )
        signals.append(mig.maj(*[signals[i] ^ int(c) for i, c in picks]))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        mig.add_po(signals[draw(st.integers(0, len(signals) - 1))])
    return mig


@st.composite
def random_aig(draw, min_pis=2, max_pis=6, max_gates=20):
    aig = Aig(draw(st.integers(min_value=min_pis, max_value=max_pis)))
    signals = [0] + aig.pi_signals()
    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        picks = draw(
            st.lists(
                st.tuples(st.integers(0, len(signals) - 1), st.booleans()),
                min_size=2,
                max_size=2,
            )
        )
        signals.append(aig.and_(*[signals[i] ^ int(c) for i, c in picks]))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        aig.add_po(signals[draw(st.integers(0, len(signals) - 1))])
    return aig


# ---------------------------------------------------------------------------
# the differentials
# ---------------------------------------------------------------------------


class TestMigDifferential:
    @given(random_mig(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_cut_lists_identical(self, mig, k):
        assert enumerate_cuts(mig, k=k) == oracle_mig_cuts(mig, k=k)

    @given(random_mig())
    @settings(max_examples=20, deadline=None)
    def test_without_trivial_cuts(self, mig):
        assert enumerate_cuts(mig, include_trivial=False) == oracle_mig_cuts(
            mig, include_trivial=False
        )

    @given(random_mig(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_priority_cut_truncation_identical(self, mig, cut_limit):
        assert enumerate_cuts(mig, cut_limit=cut_limit) == oracle_mig_cuts(
            mig, cut_limit=cut_limit
        )

    @given(random_mig())
    @settings(max_examples=20, deadline=None)
    def test_ffr_restricted_mode_identical(self, mig):
        fanout = mig.fanout_counts()
        got = enumerate_cut_set(mig, ffr_fanout=fanout)
        expected = oracle_mig_cuts(mig, ffr_fanout=fanout)
        assert [got[node] for node in mig.nodes()] == expected


class TestAigDifferential:
    # cut_limit large enough that truncation never engages: the old
    # enumerator appended the trivial cut (the generic one insorts it),
    # so under truncation the two may legitimately keep different
    # priority subsets.  Untruncated, the cut sets must be identical.
    UNLIMITED = 10_000

    @given(random_aig(), st.integers(min_value=2, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_cut_sets_identical(self, aig, k):
        got = enumerate_cuts(aig, k=k, cut_limit=self.UNLIMITED)
        expected = oracle_aig_cuts(aig, k=k, cut_limit=self.UNLIMITED)
        assert len(got) == len(expected)
        for node, (g, e) in enumerate(zip(got, expected)):
            assert set(g) == set(e), f"node {node}"

    @given(random_aig())
    @settings(max_examples=20, deadline=None)
    def test_cut_lists_sorted_by_leaf_count(self, aig):
        # The documented ordering contract of the generic enumerator.
        # (Exact tie order differs from the old enumerator because the
        # trivial cut now sits insorted in the *source* lists, shifting
        # merge-dict insertion order at the parent.)
        got = enumerate_cuts(aig, cut_limit=self.UNLIMITED)
        for node in aig.gates():
            lengths = [len(c) for c in got[node]]
            assert lengths == sorted(lengths), f"node {node}"


def assert_slot_tables_match_cone_simulation(net, cut_set, k):
    """Every cut's program table equals its re-simulated cone, extended."""
    tables = cut_set.slot_tables(k)
    for node in net.gates():
        for leaves, _, _, slot in cut_set.entries[node]:
            expected = cone_function(net, node, leaves)
            assert tables[slot] == tt_extend(expected, len(leaves), k), (node, leaves)


class TestCutFunctions:
    """Each cut's table is computed from its fanin cuts' tables by the
    recorded program; cone simulation shares none of that."""

    @given(random_aig(), st.integers(min_value=4, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_incremental_aig_cut_functions_match_cone_simulation(self, aig, k):
        cs = enumerate_cut_set(aig, k=k, cut_limit=8)
        assert_slot_tables_match_cone_simulation(aig, cs, k)

    @given(random_mig(), st.integers(min_value=4, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_incremental_mig_cut_functions_match_cone_simulation(self, mig, k):
        cs = enumerate_cut_set(mig, k=k, cut_limit=8)
        assert_slot_tables_match_cone_simulation(mig, cs, k)


class TestWideCutFunctions:
    """k=5/6 cuts through every way the rewriters read them — one slot
    table at a time, the compiled program's count, and the deduplicated
    batch_tt4s sweep — all against cone simulation.  This is the
    arithmetic the large-cut rewriters stand on; the program comparisons
    also cover the k=4 program every NpnDatabase pass runs."""

    @given(random_mig(), st.integers(min_value=5, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_wide_scalar_functions_match_cone_simulation(self, mig, k):
        # FFR-restricted mode: shared gates enter as leaves whose init
        # slot the trivial cut of the same gate shares.
        cs = enumerate_cut_set(mig, k=k, cut_limit=8, ffr_fanout=mig.fanout_counts())
        assert_slot_tables_match_cone_simulation(mig, cs, k)

    @given(random_mig(), st.integers(min_value=4, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_compiled_batch_matches_scalar(self, mig, k):
        compiled = enumerate_cut_set(mig, k=k, cut_limit=8)
        computed = compiled.compute_functions()
        assert computed == sum(
            1
            for node in mig.gates()
            for leaves in compiled[node]
            if leaves != (node,)
        )
        assert_slot_tables_match_cone_simulation(mig, compiled, k)

    @given(st.one_of(random_mig(), random_aig()), st.integers(min_value=4, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_batch_tt4s_equals_scalar_collection(self, net, k):
        compiled = enumerate_cut_set(net, k=k, cut_limit=8)
        got = [int(v) for v in compiled.batch_tt4s(k)]
        expected = {
            tt_extend(cone_function(net, node, leaves), len(leaves), k)
            for node in net.gates()
            for leaves in compiled[node]
            if leaves != (node,)
        }
        assert got == sorted(expected)
