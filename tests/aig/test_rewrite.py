"""Tests for DAG-aware AIG rewriting (the ref. [6] baseline)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.aig.aig import Aig
from repro.aig.convert import aig_to_mig, mig_to_aig
from repro.aig.rewrite import aig_class_cost, build_function_into_aig, rewrite_aig
from repro.core.cuts import cut_cone_nodes, enumerate_cut_set
from repro.core.simulate import check_equivalence
from repro.core.truth_table import tt_var

from ..core.test_cuts_differential import random_aig
from ._frozen_rewrite import frozen_rewrite_aig


def structure(aig: Aig) -> tuple:
    """Node-for-node identity: every gate's fanins, then the outputs."""
    return [aig.fanins(n) for n in aig.gates()], list(aig.outputs)


class TestAigCuts:
    def test_cut_enumeration_basics(self):
        aig = Aig(3)
        a, b, c = aig.pi_signals()
        g = aig.and_(aig.and_(a, b), c)
        aig.add_po(g)
        cuts = enumerate_cut_set(aig, 4, cut_limit=12)
        root = g >> 1
        assert (1, 2, 3) in cuts[root]
        assert (root,) in cuts[root]

    def test_cut_function_matches_sim(self):
        from repro.core.truth_table import tt_mask

        aig = Aig(3)
        a, b, c = aig.pi_signals()
        g = aig.xor(aig.and_(a, b), c)
        aig.add_po(g)
        tt = aig.cut_function(g >> 1, (1, 2, 3))
        if g & 1:  # the xor construction may return a complemented signal
            tt ^= tt_mask(3)
        expected = (tt_var(3, 0) & tt_var(3, 1)) ^ tt_var(3, 2)
        assert tt == expected

    def test_cut_cone_detects_invalid(self):
        aig = Aig(2)
        a, b = aig.pi_signals()
        g = aig.and_(a, b)
        aig.add_po(g)
        assert cut_cone_nodes(aig, g >> 1, (1,)) is None
        with pytest.raises(ValueError):
            aig.cut_function(g >> 1, (1,))


class TestClassStructures:
    def test_build_function_fuzz(self):
        rng = random.Random(77)
        for _ in range(40):
            tt = rng.getrandbits(16)
            aig = Aig(4)
            signal = build_function_into_aig(aig, tt, aig.pi_signals())
            aig.add_po(signal)
            assert aig.simulate()[0] == tt, hex(tt)

    def test_class_cost_reasonable(self):
        a, b = tt_var(4, 0), tt_var(4, 1)
        assert aig_class_cost(a & b) == 1
        assert aig_class_cost(a ^ b) == 3
        assert aig_class_cost(0) == 0

    def test_cost_is_npn_invariant(self):
        from repro.core.truth_table import tt_not, tt_permute

        f = 0x1668
        assert aig_class_cost(f) == aig_class_cost(tt_not(f, 4))
        assert aig_class_cost(f) == aig_class_cost(tt_permute(f, (3, 0, 1, 2), 4))


class TestRewriteAig:
    def test_preserves_function_on_suite(self, suite_small):
        for mig in suite_small[:5]:
            aig = mig_to_aig(mig)
            rewritten = rewrite_aig(aig)
            assert check_equivalence(mig, aig_to_mig(rewritten)), mig.name

    def test_fanout_free_never_grows(self, suite_small):
        for mig in suite_small[:5]:
            aig = mig_to_aig(mig)
            rewritten = rewrite_aig(aig)
            assert rewritten.num_gates <= aig.num_gates, mig.name

    def test_reduces_redundant_xor_chain(self):
        aig = Aig(4)
        a, b, c, d = aig.pi_signals()
        # Wasteful balanced xor built via muxes.
        x1 = aig.mux(a, b ^ 1, b)
        x2 = aig.mux(x1, c ^ 1, c)
        x3 = aig.mux(x2, d ^ 1, d)
        aig.add_po(x3)
        rewritten = rewrite_aig(aig)
        assert rewritten.num_gates <= aig.num_gates
        assert rewritten.simulate() == aig.simulate()

    def test_interface_preserved(self, full_adder):
        aig = mig_to_aig(full_adder)
        rewritten = rewrite_aig(aig)
        assert rewritten.pi_names == aig.pi_names
        assert rewritten.output_names == aig.output_names


class TestAgainstFrozenPass:
    """The batch pass against the frozen recursive, per-cut pass."""

    @given(random_aig(max_gates=30))
    @settings(max_examples=40, deadline=None)
    def test_fanout_free_equivalent_on_random_aigs(self, aig):
        assert rewrite_aig(aig).simulate() == aig.simulate()

    def test_fanout_free_no_larger_than_frozen(self, suite_small):
        # Restricted enumeration spends no priority-cut slot on a cut the
        # fanout-free rule rejects, so it sees at least as many candidates.
        for mig in suite_small:
            aig = mig_to_aig(mig)
            got = rewrite_aig(aig)
            assert got.num_gates <= frozen_rewrite_aig(aig).num_gates, mig.name
            assert check_equivalence(mig, aig_to_mig(got)), mig.name
