"""Tests for equivalence-checking helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.simulate as simulate_module
from repro.aig.rewrite import rewrite_aig
from repro.core.mig import CONST0, Mig, signal_not
from repro.core.simengine import simulate_network
from repro.core.simulate import (
    check_equivalence,
    equivalent_exhaustive,
    equivalent_random,
)
from repro.rewriting.engine import functional_hashing

from ._frozen_simulate import frozen_equivalent_random
from .test_simengine import random_aig, random_mig


def two_xor_forms() -> tuple[Mig, Mig]:
    m1 = Mig(2)
    a, b = m1.pi_signals()
    m1.add_po(m1.xor(a, b))
    m2 = Mig(2)
    a, b = m2.pi_signals()
    # a xor b = (a | b) & !(a & b) built differently: !(a&b) & (a|b)
    m2.add_po(m2.and_(signal_not(m2.and_(a, b)), m2.or_(a, b)))
    return m1, m2


class TestExhaustive:
    def test_equivalent_forms(self):
        m1, m2 = two_xor_forms()
        assert equivalent_exhaustive(m1, m2)

    def test_detects_difference(self):
        m1, _ = two_xor_forms()
        m3 = Mig(2)
        a, b = m3.pi_signals()
        m3.add_po(m3.and_(a, b))
        assert not equivalent_exhaustive(m1, m3)

    def test_interface_mismatch(self):
        m1, _ = two_xor_forms()
        m3 = Mig(3)
        m3.add_po(CONST0)
        with pytest.raises(ValueError):
            equivalent_exhaustive(m1, m3)


class TestRandom:
    def test_equivalent_not_refuted(self):
        m1, m2 = two_xor_forms()
        assert equivalent_random(m1, m2)

    def test_refutes_difference(self):
        m1, _ = two_xor_forms()
        m3 = Mig(2)
        a, b = m3.pi_signals()
        m3.add_po(m3.or_(a, b))
        assert not equivalent_random(m1, m3)


class TestDispatch:
    def test_small_uses_exhaustive(self):
        m1, m2 = two_xor_forms()
        assert check_equivalence(m1, m2)

    def test_wide_network_uses_random(self):
        m1 = Mig(20)
        sigs = m1.pi_signals()
        acc = sigs[0]
        for s in sigs[1:]:
            acc = m1.and_(acc, s)
        m1.add_po(acc)
        m2 = Mig(20)
        sigs = m2.pi_signals()
        acc = sigs[-1]
        for s in reversed(sigs[:-1]):
            acc = m2.and_(acc, s)
        m2.add_po(acc)
        assert check_equivalence(m1, m2)


def _invert_one_output(net, index):
    copy = net.clone()
    copy._outputs[index % copy.num_pos] ^= 1
    return copy


def _complement_one_fanin(net, index):
    """*net* with one fanin of one gate complemented, or None if gateless."""
    if not net.num_gates:
        return None
    copy = net.clone()
    node = net.num_pis + 1 + index % net.num_gates
    fanin = list(copy._fanins[node])
    fanin[index % len(fanin)] ^= 1
    copy._fanins[node] = tuple(fanin)
    return copy


def _assert_frozen_verdicts(net, rewritten, index, seed):
    pairs = [(net, rewritten), (net, _invert_one_output(net, index))]
    mutant = _complement_one_fanin(net, index)
    if mutant is not None:
        pairs.append((net, mutant))
    for a, b in pairs:
        for num_rounds in (1, 4, 16):
            for width in (1, 64):
                assert equivalent_random(
                    a, b, num_rounds, width, seed
                ) == frozen_equivalent_random(a, b, num_rounds, width, seed)


class TestPackedRounds:
    """All rounds in one wide word: the verdict of the frozen per-round
    check (tests/core/_frozen_simulate.py) on every pair, for fewer
    simulations."""

    @given(
        random_mig(),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_mig_pairs_match_the_frozen_check(self, db, mig, seed, index):
        _assert_frozen_verdicts(mig, functional_hashing(mig, db, "BF"), index, seed)

    @given(
        random_aig(),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_aig_pairs_match_the_frozen_check(self, aig, seed, index):
        _assert_frozen_verdicts(aig, rewrite_aig(aig), index, seed)

    def test_each_network_is_simulated_once(self, monkeypatch):
        calls = []

        def counting(net, pi_words, width):
            calls.append((net, width))
            return simulate_network(net, pi_words, width)

        monkeypatch.setattr(simulate_module, "simulate_network", counting)
        m1, m2 = two_xor_forms()
        assert equivalent_random(m1, m2)
        assert calls == [(m1, 16 * 64), (m2, 16 * 64)]
