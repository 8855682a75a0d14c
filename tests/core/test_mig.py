"""Tests for the MIG data structure (Sec. II-B of the paper)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mig import (
    CONST0,
    CONST1,
    Mig,
    make_signal,
    signal_is_complemented,
    signal_node,
    signal_not,
)
from repro.core.truth_table import tt_maj, tt_mask, tt_var


class TestSignals:
    def test_encoding(self):
        assert make_signal(5) == 10
        assert make_signal(5, True) == 11
        assert signal_node(11) == 5
        assert signal_is_complemented(11)
        assert not signal_is_complemented(10)
        assert signal_not(10) == 11
        assert signal_not(signal_not(10)) == 10

    def test_constants(self):
        assert CONST0 == 0
        assert CONST1 == 1
        assert signal_not(CONST0) == CONST1


class TestConstruction:
    def test_pis_before_gates(self):
        mig = Mig(2)
        a, b = mig.pi_signals()
        mig.maj(CONST0, a, b)
        with pytest.raises(ValueError):
            mig.add_pi()

    def test_unit_rules(self):
        mig = Mig(2)
        a, b = mig.pi_signals()
        assert mig.maj(a, a, b) == a  # <aab> = a
        assert mig.maj(a, signal_not(a), b) == b  # <aa'b> = b
        assert mig.maj(b, a, signal_not(b)) == a
        assert mig.num_gates == 0

    def test_structural_hashing(self):
        mig = Mig(3)
        a, b, c = mig.pi_signals()
        g1 = mig.maj(a, b, c)
        g2 = mig.maj(c, a, b)  # commutative reuse
        assert g1 == g2
        assert mig.num_gates == 1

    def test_self_duality_normalization(self):
        """<a'b'c'> should be stored as the complement of <abc>."""
        mig = Mig(3)
        a, b, c = mig.pi_signals()
        g = mig.maj(a, b, c)
        gn = mig.maj(signal_not(a), signal_not(b), signal_not(c))
        assert gn == signal_not(g)
        assert mig.num_gates == 1

    def test_two_complement_normalization(self):
        mig = Mig(3)
        a, b, c = mig.pi_signals()
        g = mig.maj(signal_not(a), signal_not(b), c)
        # Stored gate must have at most one complemented fanin.
        node = signal_node(g)
        fanins = mig.fanins(node)
        assert sum(s & 1 for s in fanins) <= 1

    def test_and_or_via_constants(self):
        mig = Mig(2)
        a, b = mig.pi_signals()
        mig.add_po(mig.and_(a, b), "and")
        mig.add_po(mig.or_(a, b), "or")
        and_tt, or_tt = mig.simulate()
        assert and_tt == tt_var(2, 0) & tt_var(2, 1)
        assert or_tt == tt_var(2, 0) | tt_var(2, 1)

    def test_xor_and_ite(self):
        mig = Mig(3)
        a, b, c = mig.pi_signals()
        mig.add_po(mig.xor(a, b), "xor")
        mig.add_po(mig.ite(c, a, b), "mux")
        va, vb, vc = (tt_var(3, i) for i in range(3))
        xor_tt, mux_tt = mig.simulate()
        assert xor_tt == va ^ vb
        assert mux_tt == (vc & va) | (~vc & tt_mask(3) & vb)

    def test_unknown_signal_rejected(self):
        mig = Mig(1)
        with pytest.raises(ValueError):
            mig.maj(0, 2, 99)
        with pytest.raises(ValueError):
            mig.add_po(99)


class TestFullAdder:
    """Fig. 1 of the paper: size 3, depth 2."""

    def test_size_and_depth(self, full_adder):
        assert full_adder.num_gates == 3
        assert full_adder.depth() == 2

    def test_function(self, full_adder):
        s, cout = full_adder.simulate()
        a, b, c = (tt_var(3, i) for i in range(3))
        assert s == a ^ b ^ c
        assert cout == tt_maj(a, b, c)


class TestQueries:
    def test_node_classification(self, full_adder):
        assert full_adder.is_constant(0)
        assert full_adder.is_pi(1) and full_adder.is_pi(3)
        assert not full_adder.is_pi(4)
        assert full_adder.is_gate(4)
        assert not full_adder.is_gate(0)

    def test_fanout_counts(self, full_adder):
        counts = full_adder.fanout_counts()
        # every PI feeds two gates in the FA structure
        assert counts[1] == 2 and counts[2] == 2
        # cin feeds two gates and... check total edges + outputs
        assert sum(counts) == 3 * full_adder.num_gates + full_adder.num_pos

    def test_levels(self, full_adder):
        levels = full_adder.levels()
        assert levels[0] == 0
        assert max(levels) == 2

    def test_terminal_fanins_rejected(self, full_adder):
        with pytest.raises(ValueError):
            full_adder.fanins(1)

    def test_repr(self, full_adder):
        text = repr(full_adder)
        assert "pis=3" in text and "gates=3" in text


class TestCutFunction:
    def test_direct_cut(self, full_adder):
        gate = next(iter(full_adder.gates()))
        tt = full_adder.cut_function(gate, [1, 2, 3])
        assert tt == tt_maj(tt_var(3, 0), tt_var(3, 1), tt_var(3, 2))

    def test_invalid_cut_raises(self, full_adder):
        last = full_adder.num_nodes - 1
        with pytest.raises(ValueError):
            full_adder.cut_function(last, [1])  # doesn't cover the cone


class TestRebuilds:
    def test_cleanup_removes_dead_gates(self):
        mig = Mig(3)
        a, b, c = mig.pi_signals()
        keep = mig.maj(a, b, c)
        mig.maj(CONST0, a, b)  # dead
        mig.add_po(keep)
        clean = mig.cleanup()
        assert clean.num_gates == 1
        assert clean.simulate() == mig.simulate()

    def test_cleanup_preserves_names(self):
        mig = Mig(0)
        x = mig.add_pi("alpha")
        mig.add_po(signal_not(x), "omega")
        clean = mig.cleanup()
        assert clean.pi_names == ("alpha",)
        assert clean.output_names == ("omega",)

    def test_clone_independent(self, full_adder):
        copy = full_adder.clone()
        a, b, _ = copy.pi_signals()
        copy.maj(CONST0, a, b)
        assert copy.num_gates == full_adder.num_gates + 1

    def test_like_copies_interface(self, full_adder):
        empty = Mig.like(full_adder)
        assert empty.num_pis == 3
        assert empty.num_gates == 0
        assert empty.pi_names == full_adder.pi_names


class TestSimulatePatterns:
    def test_pattern_simulation_matches_exhaustive(self, full_adder):
        tts = full_adder.simulate()
        patterns = [tt_var(3, i) for i in range(3)]
        assert full_adder.simulate_patterns(patterns, 8) == tts

    def test_wrong_pattern_count(self, full_adder):
        with pytest.raises(ValueError):
            full_adder.simulate_patterns([0, 1], 8)


@st.composite
def random_mig(draw, num_pis=4, max_gates=12):
    mig = Mig(num_pis)
    signals = [CONST0] + mig.pi_signals()
    num_gates = draw(st.integers(min_value=1, max_value=max_gates))
    for _ in range(num_gates):
        picks = draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(signals) - 1), st.booleans()
                ),
                min_size=3,
                max_size=3,
            )
        )
        ops = [signals[i] ^ int(c) for i, c in picks]
        signals.append(mig.maj(*ops))
    mig.add_po(signals[-1])
    return mig


class TestRandomizedInvariants:
    @given(random_mig())
    @settings(max_examples=40, deadline=None)
    def test_cleanup_preserves_function(self, mig):
        assert mig.cleanup().simulate() == mig.simulate()

    @given(random_mig())
    @settings(max_examples=40, deadline=None)
    def test_gates_are_topological(self, mig):
        for node in mig.gates():
            for s in mig.fanins(node):
                assert signal_node(s) < node

    @given(random_mig())
    @settings(max_examples=40, deadline=None)
    def test_maj_simulation_invariant(self, mig):
        """Every gate's value is the majority of its fanin values."""
        n = mig.num_pis
        values = [0] * mig.num_nodes
        for i in range(n):
            values[1 + i] = tt_var(n, i)
        mask = tt_mask(n)
        for node in mig.gates():
            a, b, c = mig.fanins(node)
            va = values[a >> 1] ^ (mask if a & 1 else 0)
            vb = values[b >> 1] ^ (mask if b & 1 else 0)
            vc = values[c >> 1] ^ (mask if c & 1 else 0)
            values[node] = tt_maj(va, vb, vc)
        # spot check against simulate()
        out = mig.simulate()[0]
        s = mig.outputs[0]
        assert out == values[s >> 1] ^ (mask if s & 1 else 0)


class TestCheck:
    """The structural validator guards everything ``maj()`` guarantees."""

    @staticmethod
    def _mig_with_gates() -> Mig:
        mig = Mig(3)
        a, b, c = mig.pi_signals()
        g1 = mig.maj(a, b, c)
        g2 = mig.maj(a, signal_not(b), g1)
        mig.add_po(g2)
        return mig

    def test_valid_networks_pass(self, full_adder):
        full_adder.check()
        self._mig_with_gates().check()
        Mig(2).check()  # no gates, no outputs

    def test_corrupt_constant_terminal(self):
        mig = self._mig_with_gates()
        mig._fanins[0] = (2, 4, 6)
        with pytest.raises(ValueError, match="constant-0"):
            mig.check()

    def test_pi_with_fanins(self):
        mig = self._mig_with_gates()
        mig._fanins[1] = (0, 4, 6)
        with pytest.raises(ValueError, match="PI node 1"):
            mig.check()

    def test_gate_missing_fanins(self):
        mig = self._mig_with_gates()
        mig._fanins[4] = None
        with pytest.raises(ValueError, match="no fanins"):
            mig.check()

    def test_gate_wrong_arity(self):
        mig = self._mig_with_gates()
        mig._fanins[4] = mig._fanins[4][:2]
        with pytest.raises(ValueError, match="2 fanins"):
            mig.check()

    def test_dangling_fanin(self):
        mig = self._mig_with_gates()
        fanin = mig._fanins[4]
        mig._fanins[4] = (fanin[0], fanin[1], make_signal(999))
        with pytest.raises(ValueError, match="dangling"):
            mig.check()

    def test_topological_order_broken(self):
        mig = self._mig_with_gates()
        # Gate 4 referencing gate 5 is a forward reference (cycle seed).
        mig._fanins[4] = (2, 4, make_signal(5))
        with pytest.raises(ValueError, match="topological"):
            mig.check()

    def test_unsorted_fanin_triple(self):
        mig = self._mig_with_gates()
        mig._fanins[4] = tuple(reversed(mig._fanins[4]))
        with pytest.raises(ValueError, match="unsorted"):
            mig.check()

    def test_repeated_fanin_node(self):
        mig = self._mig_with_gates()
        mig._fanins[4] = (2, 2, 4)
        with pytest.raises(ValueError, match="repeats"):
            mig.check()

    def test_two_complemented_fanins(self):
        mig = self._mig_with_gates()
        mig._fanins[4] = (3, 5, 6)
        with pytest.raises(ValueError, match="inverter"):
            mig.check()

    def test_strash_disagreement(self):
        mig = self._mig_with_gates()
        mig._strash[(2, 4, 8)] = 999
        with pytest.raises(ValueError, match="strash"):
            mig.check()

    def test_dangling_output(self):
        mig = self._mig_with_gates()
        mig._outputs[0] = make_signal(999)
        with pytest.raises(ValueError, match="output 0"):
            mig.check()

    def test_name_list_mismatch(self):
        mig = self._mig_with_gates()
        mig._output_names.append("extra")
        with pytest.raises(ValueError, match="mismatch"):
            mig.check()

    @given(random_mig())
    @settings(max_examples=40, deadline=None)
    def test_maj_built_networks_always_validate(self, mig):
        mig.check()
        mig.cleanup().check()
