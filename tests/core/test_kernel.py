"""The shared network substrate (repro.core.kernel) under both facades."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.core.kernel import (
    CONST0,
    CONST1,
    Network,
    make_signal,
    signal_is_complemented,
    signal_node,
    signal_not,
)
from repro.core.mig import Mig


@st.composite
def random_mig(draw, min_pis=2, max_pis=6, max_gates=16):
    mig = Mig(draw(st.integers(min_value=min_pis, max_value=max_pis)))
    signals = [CONST0] + mig.pi_signals()
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
def random_aig(draw, min_pis=2, max_pis=6, max_gates=16):
    aig = Aig(draw(st.integers(min_value=min_pis, max_value=max_pis)))
    signals = [CONST0] + aig.pi_signals()
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


class TestSignals:
    def test_roundtrip(self):
        s = make_signal(7, True)
        assert signal_node(s) == 7
        assert signal_is_complemented(s)
        assert signal_not(s) == make_signal(7, False)
        assert CONST1 == signal_not(CONST0)

    def test_negative_signals_are_rejected(self):
        """A negative signal names no node: every constructor refuses it
        instead of storing a gate or output that check() later calls
        dangling."""
        mig = Mig(2)
        for triple in ((-2, 2, 4), (2, -1, 4), (2, 4, -6)):
            with pytest.raises(ValueError, match="unknown node"):
                mig.maj(*triple)
        aig = Aig(2)
        for pair in ((-2, 2), (2, -4)):
            with pytest.raises(ValueError, match="unknown node"):
                aig.and_(*pair)
        for net in (mig, aig):
            with pytest.raises(ValueError, match="unknown node"):
                net.add_po(-2)
            assert net.num_gates == 0 and not net._strash and net.num_pos == 0
            net.check()


class TestSharedSubstrate:
    def test_facades_share_the_kernel(self):
        assert issubclass(Mig, Network) and issubclass(Aig, Network)
        assert Mig.ARITY == 3 and Aig.ARITY == 2

    def test_generic_queries_work_on_both(self):
        for net in (Mig(3), Aig(3)):
            a, b, c = net.pi_signals()
            g = net.maj(a, b, c) if isinstance(net, Mig) else net.and_(a, b)
            net.add_po(g)
            assert net.num_pis == 3 and net.num_pos == 1 and net.num_gates == 1
            assert net.is_gate(signal_node(g))
            assert list(net.gates()) == [4]
            assert net.depth() == 1
            net.check()

    def test_aig_gained_check_and_fanout(self):
        aig = Aig(2)
        a, b = aig.pi_signals()
        g = aig.and_(a, b)
        aig.add_po(aig.and_(g, a))
        aig.check()
        counts = aig.fanout_counts()
        assert counts[signal_node(a)] == 2  # feeds both gates
        assert counts[signal_node(g)] == 1

    def test_aig_check_catches_unsorted_pair(self):
        aig = Aig(2)
        a, b = aig.pi_signals()
        aig.add_po(aig.and_(a, b))
        aig._fanins[3] = (b, a)
        with pytest.raises(ValueError, match="unsorted"):
            aig.check()

    def test_pi_after_gate_rejected(self):
        for net in (Mig(1), Aig(1)):
            (a,) = net.pi_signals()
            if isinstance(net, Mig):
                net.maj(CONST0, CONST1, a)
            else:
                net.and_(a, a ^ 1)  # unit rule, no gate -> still allowed
                net.and_(net.add_pi(), a)
        mig = Mig(2)
        a, b = mig.pi_signals()
        mig.maj(CONST0, a, b)
        with pytest.raises(ValueError, match="before the first gate"):
            mig.add_pi()


class TestCounters:
    def test_strash_hits_and_unit_rules(self):
        mig = Mig(3)
        a, b, c = mig.pi_signals()
        assert mig.strash_hits == 0 and mig.unit_rules == 0
        mig.maj(a, b, c)
        mig.maj(c, a, b)  # same gate, different order -> strash hit
        assert mig.strash_hits == 1
        mig.maj(a, a, b)  # unit rule <aab> = a
        assert mig.unit_rules == 1

    def test_aig_counters(self):
        aig = Aig(2)
        a, b = aig.pi_signals()
        aig.and_(a, b)
        aig.and_(b, a)
        assert aig.strash_hits == 1
        aig.and_(a, CONST1)
        assert aig.unit_rules == 1

    def test_sim_words_accumulate(self, full_adder):
        assert full_adder.sim_words == 0
        full_adder.simulate()
        assert full_adder.sim_words == full_adder.num_gates  # 8 bits -> 1 word
        full_adder.simulate_patterns([0, 0, 0], 65)  # 65 bits -> 2 words
        assert full_adder.sim_words == 3 * full_adder.num_gates
        full_adder.simulate_patterns([0, 0, 0], 128)  # 128 bits -> 2 words
        assert full_adder.sim_words == 5 * full_adder.num_gates


class TestArrays:
    """Fanout counts, and the memo slot that ``invalidate_arrays()`` drops.

    The class and the method keep their historical names: the slot once
    also held a numpy view of the fanin lists, which these tests covered.
    """

    @given(random_mig(), random_aig())
    @settings(max_examples=20, deadline=None)
    def test_fanout_counts_match_reference(self, mig, aig):
        for net in (mig, aig):
            reference = [0] * net.num_nodes
            for node in net.gates():
                for s in net.fanins(node):
                    reference[s >> 1] += 1
            for s in net.outputs:
                reference[s >> 1] += 1
            assert net.fanout_counts() == reference

    def test_in_place_rewire_then_invalidate_refreshes_the_facts(self):
        mig = Mig(3)
        a, b, c = mig.pi_signals()
        g1 = mig.maj(a, b, c)
        root = mig.maj(g1, a, signal_not(b))
        mig.add_po(root)
        node, inner = signal_node(root), signal_node(g1)
        assert mig.levels()[node] == 2
        assert mig.fanout_counts()[inner] == 1
        # Rewire the root gate in place to read the PIs only: same node
        # count, same output count, so the memo key cannot see it.
        mig._fanins[node] = (a, signal_not(b), c)
        # Fanout counts are recomputed on every call ...
        assert mig.fanout_counts()[inner] == 0
        assert mig.fanout_counts()[c >> 1] == 2
        # ... the levels are memoized until the slot is dropped.
        assert mig.levels()[node] == 2
        mig.invalidate_arrays()
        assert mig.levels()[node] == 1
        assert mig.depth() == 1


class TestGenericTransforms:
    @given(random_aig())
    @settings(max_examples=20, deadline=None)
    def test_cleanup_preserves_function(self, aig):
        clean = aig.cleanup()
        clean.check()
        assert clean.simulate() == aig.simulate()
        assert clean.num_gates <= aig.num_gates

    def test_clone_is_deep_for_aigs(self):
        aig = Aig(2)
        a, b = aig.pi_signals()
        aig.add_po(aig.and_(a, b))
        copy = aig.clone()
        copy.and_(a, b ^ 1)
        assert copy.num_gates == aig.num_gates + 1

    def test_like_copies_interface(self):
        aig = Aig(0)
        aig.add_pi("alpha")
        empty = Aig.like(aig)
        assert empty.pi_names == ("alpha",)
        assert empty.num_gates == 0
