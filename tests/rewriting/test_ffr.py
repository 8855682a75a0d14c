"""Fanout-free regions (Sec. IV-C) as the restricted cut enumeration sees them.

The F-variants partition the network at fanout-free-region boundaries by
enumerating cuts with ``ffr_fanout``: a gate whose fanout is not exactly
one (an output counts as a fanout) roots its own region, and it enters
the cuts of its consumers only as a leaf.  So every restricted cut lies
inside one region and can be replaced without duplicating shared logic.
"""

from __future__ import annotations

from repro.core.cuts import cut_cone_nodes, enumerate_cut_set
from repro.core.mig import Mig


def shared_diamond() -> Mig:
    """g3 and g4 both use g1 (shared): g1 is its own FFR root."""
    mig = Mig(3)
    a, b, c = mig.pi_signals()
    g1 = mig.and_(a, b)
    g3 = mig.and_(g1, c)
    g4 = mig.or_(g1, c)
    mig.add_po(g3)
    mig.add_po(g4)
    return mig


def restricted(mig: Mig):
    """The fanout-free cut set the F-variants enumerate."""
    return enumerate_cut_set(mig, ffr_fanout=mig.fanout_counts())


def inner_cones(mig: Mig):
    """``(root, cone)`` of every non-trivial restricted cut."""
    cuts = restricted(mig)
    for node in mig.gates():
        for leaves in cuts[node]:
            if leaves != (node,):
                yield node, cut_cone_nodes(mig, node, leaves)


class TestRoots:
    def test_output_gates_are_roots(self, full_adder):
        po_nodes = {s >> 1 for s in full_adder.outputs}
        for root, cone in inner_cones(full_adder):
            assert not (cone - {root}) & po_nodes

    def test_shared_gate_is_root(self):
        mig = shared_diamond()
        g1, g3, g4 = mig.gates()
        cuts = restricted(mig)
        for node in (g3, g4):
            for leaves in cuts[node]:
                if leaves != (node,):
                    assert g1 in leaves

    def test_chain_has_single_root(self):
        mig = Mig(4)
        sigs = mig.pi_signals()
        acc = mig.and_(sigs[0], sigs[1])
        acc = mig.and_(acc, sigs[2])
        acc = mig.and_(acc, sigs[3])
        mig.add_po(acc)
        sizes = {
            leaves: size for leaves, _, size, _ in restricted(mig).entries[acc >> 1]
        }
        # One region: the output's cut over all inputs spans every gate.
        assert sizes[(1, 2, 3, 4)] == mig.num_gates


class TestPartition:
    def test_internal_members_have_single_fanout(self, suite_small):
        for mig in (shared_diamond(), suite_small[5]):
            fanout = mig.fanout_counts()
            for root, cone in inner_cones(mig):
                for member in cone - {root}:
                    assert fanout[member] == 1


class TestCutAdmissibility:
    def test_fanout_free_cut_accepted(self):
        mig = Mig(4)
        a, b, c, d = mig.pi_signals()
        inner = mig.and_(a, b)
        root = mig.and_(inner, c)
        mig.add_po(root)
        assert (1, 2, 3) in restricted(mig)[root >> 1]

    def test_shared_internal_node_rejected(self):
        mig = shared_diamond()
        gates = list(mig.gates())
        g3 = gates[1]
        # the cut of g3 with PI leaves crosses shared g1
        assert (1, 2, 3) in enumerate_cut_set(mig)[g3]
        assert (1, 2, 3) not in restricted(mig)[g3]

    def test_root_fanout_is_irrelevant(self):
        mig = shared_diamond()
        g1 = next(iter(mig.gates()))
        # g1 itself has fanout 2, but as cut ROOT that is fine.
        assert (1, 2) in restricted(mig)[g1]
