"""Tests for k-feasible cut enumeration (Sec. II-C of the paper)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.core.cuts import cut_cone_nodes, enumerate_cut_set
from repro.core.mig import CONST0, Mig
from repro.core.simengine import cone_function


def build_chain(length: int = 5) -> Mig:
    mig = Mig(length + 2)
    sigs = mig.pi_signals()
    acc = mig.maj(CONST0, sigs[0], sigs[1])
    for i in range(2, length + 2):
        acc = mig.maj(CONST0, acc, sigs[i])
    mig.add_po(acc)
    return mig


class TestEnumeration:
    def test_terminal_cuts(self, full_adder):
        cuts = enumerate_cut_set(full_adder, 4)
        assert cuts[0] == [()]
        for pi in (1, 2, 3):
            assert cuts[pi] == [(pi,)]

    def test_trivial_cut_present(self, full_adder):
        cuts = enumerate_cut_set(full_adder, 4)
        for node in full_adder.gates():
            assert (node,) in cuts[node]

    def test_full_adder_cut_counts(self, full_adder):
        cuts = enumerate_cut_set(full_adder, 4)
        first_gate = next(iter(full_adder.gates()))
        # <abc> has the PI cut and the trivial cut.
        assert set(cuts[first_gate]) == {(1, 2, 3), (first_gate,)}

    def test_cut_validity(self, suite_small):
        """Every enumerated cut must be a real cut: cones bounded by leaves."""
        mig = suite_small[1]  # multiplier(4)
        cuts = enumerate_cut_set(mig, 4, cut_limit=10)
        for node in mig.gates():
            for leaves in cuts[node]:
                if leaves == (node,):
                    continue
                cone = cut_cone_nodes(mig, node, leaves)
                assert cone is not None, (node, leaves)
                assert node in cone
                assert len(leaves) <= 4

    def test_k_bound_respected(self, suite_small):
        mig = suite_small[0]
        for k in (2, 3, 4, 5):
            cuts = enumerate_cut_set(mig, k, cut_limit=20)
            for node in mig.gates():
                for leaves in cuts[node]:
                    assert len(leaves) <= k

    def test_cut_limit(self, suite_small):
        mig = suite_small[1]
        cuts = enumerate_cut_set(mig, 4, cut_limit=5)
        for node in mig.gates():
            # limit + possibly the trivial cut
            assert len(cuts[node]) <= 6

    def test_no_dominated_cuts(self, full_adder):
        cuts = enumerate_cut_set(full_adder, 4)
        for node in full_adder.gates():
            entries = [set(c) for c in cuts[node] if c != (node,)]
            for i, a in enumerate(entries):
                for j, b in enumerate(entries):
                    if i != j:
                        assert not (a < b and len(a) < len(b)) or a == b

    def test_rejects_bad_k(self, full_adder):
        with pytest.raises(ValueError):
            enumerate_cut_set(full_adder, 0)

    def test_cut_functions_consistent(self, full_adder):
        """Cut functions evaluate consistently with global simulation."""
        cuts = enumerate_cut_set(full_adder, 4)
        out_node = full_adder.outputs[0] >> 1
        for leaves in cuts[out_node]:
            if leaves == (out_node,):
                continue
            tt = full_adder.cut_function(out_node, leaves)
            assert 0 <= tt <= (1 << (1 << len(leaves))) - 1


class TestCutCone:
    def test_chain_cone(self):
        mig = build_chain(4)
        last = mig.num_nodes - 1
        leaves = tuple(range(1, mig.num_pis + 1))
        cone = cut_cone_nodes(mig, last, leaves)
        assert cone == set(mig.gates())
        assert last in cone  # the root is an internal node

    def test_invalid_leaves_raise(self):
        mig = build_chain(3)
        last = mig.num_nodes - 1
        assert cut_cone_nodes(mig, last, (1,)) is None
        with pytest.raises(ValueError):
            cone_function(mig, last, (1,))


class TestCutOrdering:
    """Cut lists are sorted by leaf count — smallest (cheapest) first.

    The seed appended the trivial cut unconditionally, which broke the
    ordering invariant whenever a gate also had 2- or 3-leaf cuts after
    it in the priority list; the trivial cut is now inserted in sorted
    position.
    """

    def test_sorted_by_leaf_count(self, suite_small):
        for mig in suite_small:
            cuts = enumerate_cut_set(mig, 4, cut_limit=8)
            for node in mig.gates():
                lengths = [len(leaves) for leaves in cuts[node]]
                assert lengths == sorted(lengths), (mig.name, node)

    def test_trivial_cut_in_sorted_position(self, suite_small):
        mig = suite_small[6]  # sine(6): plenty of multi-cut gates
        cuts = enumerate_cut_set(mig, 4, cut_limit=8)
        checked = 0
        for node in mig.gates():
            entries = cuts[node]
            if (node,) not in entries:
                continue
            pos = entries.index((node,))
            # Every cut before the trivial one must be a singleton too.
            assert all(len(leaves) == 1 for leaves in entries[:pos])
            checked += 1
        assert checked > 0

    def test_ordering_survives_cut_limit(self, suite_small):
        mig = suite_small[1]
        for limit in (1, 2, 5):
            cuts = enumerate_cut_set(mig, 4, cut_limit=limit)
            for node in mig.gates():
                lengths = [len(leaves) for leaves in cuts[node]]
                assert lengths == sorted(lengths)


class TestCutSet:
    """Program-computed cut functions and exact cone sizes (docs/PERFORMANCE.md)."""

    def test_functions_match_cone_simulation(self, suite_small):
        from repro.core.truth_table import tt_extend

        mig = suite_small[5]  # square_root(4)
        cuts = enumerate_cut_set(mig, k=4, cut_limit=8)
        tables = cuts.slot_tables(4)
        checked = 0
        for node in mig.gates():
            for leaves, _, _, slot in cuts.entries[node]:
                if leaves == (node,) or node in leaves:
                    continue
                expected = mig.cut_function(node, leaves)
                assert tables[slot] == tt_extend(expected, len(leaves), 4)
                checked += 1
        assert checked > 0

    def test_restricted_cone_sizes_exact(self, suite_small):
        """Each restricted cut's merged cone size equals an independent
        cone walk, whose non-root nodes all have fanout one."""
        mig = suite_small[7]  # log2(6)
        fanout = mig.fanout_counts()
        cuts = enumerate_cut_set(mig, k=4, cut_limit=8, ffr_fanout=fanout)
        checked = 0
        for node in mig.gates():
            for leaves, _, size, _ in cuts.entries[node]:
                if leaves == (node,) or node in leaves:
                    continue
                internal = cut_cone_nodes(mig, node, leaves)
                assert internal is not None
                assert all(fanout[n] == 1 for n in internal if n != node), (
                    "restricted cut not fanout-free"
                )
                assert size == len(internal)
                checked += 1
        assert checked > 0

    def test_restricted_is_subset_of_unrestricted(self, suite_small):
        mig = suite_small[3]  # max4(4)
        fanout = mig.fanout_counts()
        free = enumerate_cut_set(mig, 4, cut_limit=25)
        restricted = enumerate_cut_set(mig, k=4, cut_limit=25, ffr_fanout=fanout)
        for node in mig.gates():
            assert set(restricted[node]) <= set(free[node])


#: one fresh interpreter: per cut width, the traced peak of enumerating
#: and reading every table, and what stays allocated once the cut set is
#: gone (cyclic garbage collected)
_MEMORY_PROBE = """
import gc, tracemalloc
from repro.core.cuts import enumerate_cut_set
from repro.generators import resolve_generator
mig = resolve_generator("log2", 5)
tracemalloc.start()
for k in (4, 5, 6):
    gc.collect()
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    enumerate_cut_set(mig, k).slot_tables(k)
    gc.collect()
    current, peak = tracemalloc.get_traced_memory()
    print(k, peak - start, current - start)
"""


class TestCutTableMemory:
    def test_tables_allocate_per_call_and_keep_nothing(self):
        # A fresh process: a process-wide table cache would otherwise be
        # warm from earlier tests and cost nothing here.  Cut tables of
        # k = 4..6 are computed per call, so a run peaks at the cut
        # lists plus the program arrays (about 2.2 MiB at k = 6, the cut
        # lists alone 1.6 MiB) and nothing outlives the cut set; a
        # lookup-table registry keeps 16 MiB after k = 4.
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", _MEMORY_PROBE], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        rows = [tuple(map(int, line.split())) for line in done.stdout.split("\n") if line]
        assert [k for k, _, _ in rows] == [4, 5, 6]
        for k, peak, kept in rows:
            assert peak < 4 << 20, (k, peak)
            assert kept < 64 << 10, (k, kept)
