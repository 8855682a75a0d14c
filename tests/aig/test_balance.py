"""Tests for AIG balancing (tree-height reduction)."""

from __future__ import annotations

from hypothesis import given, settings

from repro.aig.aig import Aig
from repro.aig.balance import balance
from repro.aig.convert import aig_to_mig, mig_to_aig
from repro.core.simulate import check_equivalence

from ..core.test_cuts_differential import random_aig
from ._frozen_balance import frozen_balance
from .test_rewrite import structure


def and_chain(width: int) -> Aig:
    aig = Aig(width)
    sigs = aig.pi_signals()
    acc = sigs[0]
    for s in sigs[1:]:
        acc = aig.and_(acc, s)
    aig.add_po(acc)
    return aig


class TestBalance:
    def test_chain_becomes_logarithmic(self):
        aig = and_chain(8)
        assert aig.depth() == 7
        balanced = balance(aig)
        assert balanced.depth() == 3
        assert balanced.simulate() == aig.simulate()

    def test_uneven_chain(self):
        aig = and_chain(11)
        balanced = balance(aig)
        assert balanced.depth() == 4  # ceil(log2(11))
        assert balanced.simulate() == aig.simulate()

    def test_preserves_multi_output_functions(self, suite_small):
        for mig in suite_small[:3]:
            aig = mig_to_aig(mig)
            balanced = balance(aig)
            back = aig_to_mig(balanced)
            assert check_equivalence(mig, back), mig.name

    def test_never_deepens(self, suite_small):
        for mig in suite_small[:3]:
            aig = mig_to_aig(mig)
            assert balance(aig).depth() <= aig.depth()

    def test_respects_complemented_boundaries(self):
        """OR trees (complemented ANDs) balance through De Morgan levels."""
        aig = Aig(4)
        a, b, c, d = aig.pi_signals()
        aig.add_po(aig.or_(aig.or_(aig.or_(a, b), c), d))
        balanced = balance(aig)
        assert balanced.simulate() == aig.simulate()


class TestAgainstFrozenBalance:
    """The explicit-stack pass against the frozen recursive one."""

    def test_identical_on_suite(self, suite_small):
        for mig in suite_small:
            aig = mig_to_aig(mig)
            assert structure(balance(aig)) == structure(frozen_balance(aig)), mig.name

    @given(random_aig(max_gates=30))
    @settings(max_examples=40, deadline=None)
    def test_identical_on_random_aigs(self, aig):
        assert structure(balance(aig)) == structure(frozen_balance(aig))
