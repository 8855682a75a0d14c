"""Tests for MIG <-> AIG conversion."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.aig.convert import aig_to_mig, mig_to_aig
from repro.core.mig import Mig
from repro.core.simengine import simulate_network
from repro.core.simulate import check_equivalence


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


class TestMigToAig:
    def test_full_adder(self, full_adder):
        aig = mig_to_aig(full_adder)
        assert aig.simulate() == full_adder.simulate()
        assert aig.pi_names == full_adder.pi_names
        assert aig.output_names == full_adder.output_names

    def test_suite_equivalence(self, suite_small):
        for mig in suite_small[:4]:
            aig = mig_to_aig(mig)
            assert aig.num_pis == mig.num_pis
            # compare via exhaustive/random sim on the MIG rebuilt from it
            back = aig_to_mig(aig)
            assert check_equivalence(mig, back), mig.name

    def test_size_blowup_bounded(self, full_adder):
        aig = mig_to_aig(full_adder)
        # each majority expands to at most 4 ANDs
        assert aig.num_gates <= 4 * full_adder.num_gates


class TestAigToMig:
    def test_and_becomes_single_gate(self):
        from repro.aig.aig import Aig

        aig = Aig(2)
        a, b = aig.pi_signals()
        aig.add_po(aig.and_(a, b))
        mig = aig_to_mig(aig)
        assert mig.num_gates == 1
        assert mig.simulate() == aig.simulate()

    def test_roundtrip_function(self, full_adder):
        roundtrip = aig_to_mig(mig_to_aig(full_adder))
        assert check_equivalence(full_adder, roundtrip)


class TestRoundtripProperties:
    """Conversion round-trips on random networks, equivalence checked
    through the shared simulation engine (both representations simulated
    by the same kernel code path)."""

    @given(random_aig(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_aig_to_mig_and_back(self, aig, seed):
        mig = aig_to_mig(aig)
        back = mig_to_aig(mig)
        assert back.num_pis == aig.num_pis
        assert back.num_pos == aig.num_pos
        assert back.pi_names == aig.pi_names
        assert back.output_names == aig.output_names
        # Exhaustive equivalence of all three, one engine under them all.
        assert mig.simulate() == aig.simulate()
        assert back.simulate() == aig.simulate()
        # And the same on random multi-word patterns.
        rng = random.Random(seed)
        width = 128
        patterns = [rng.getrandbits(width) for _ in range(aig.num_pis)]
        for net in (mig, back):
            assert simulate_network(net, patterns, width) == simulate_network(
                aig, patterns, width
            )

    @given(random_mig())
    @settings(max_examples=30, deadline=None)
    def test_mig_to_aig_and_back(self, mig):
        aig = mig_to_aig(mig)
        back = aig_to_mig(aig)
        assert aig.simulate() == mig.simulate()
        assert back.simulate() == mig.simulate()
        assert check_equivalence(mig, back)

    @given(random_aig())
    @settings(max_examples=30, deadline=None)
    def test_embedding_size_contracts(self, aig):
        # <0ab> embedding is gate-for-gate; majority expansion <= 4 ANDs.
        mig = aig_to_mig(aig)
        assert mig.num_gates <= aig.num_gates
        assert mig_to_aig(mig).num_gates <= 4 * mig.num_gates
