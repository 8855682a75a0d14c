"""Differential tests: the simulation engine vs the pre-kernel simulators.

The oracles below are frozen copies of the big-int loops that lived in
``Mig._simulate_words`` / ``Mig.simulate`` and the AIG's simulator before
the kernel refactor.  ``simulate_network``, ``simulate_all_nodes`` and
``simulate`` must reproduce them bit for bit on random networks, random
patterns and widths straddling the 64-bit word boundary.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.core.mig import Mig
from repro.core.simengine import (
    cone_function,
    insert_dont_care,
    projection_int,
    simulate_all_nodes,
    simulate_network,
)
from repro.core.truth_table import tt_extend, tt_permute, tt_var

# ---------------------------------------------------------------------------
# frozen pre-refactor oracles (do not "fix" these — they ARE the spec)
# ---------------------------------------------------------------------------


def oracle_simulate_words_mig(mig, values, mask):
    """The historical ``Mig._simulate_words`` loop, verbatim."""
    for node in range(mig.num_pis + 1, mig.num_nodes):
        a, b, c = mig.fanins(node)
        va = values[a >> 1] ^ (mask if a & 1 else 0)
        vb = values[b >> 1] ^ (mask if b & 1 else 0)
        vc = values[c >> 1] ^ (mask if c & 1 else 0)
        values[node] = (va & vb) | (va & vc) | (vb & vc)
    return [values[s >> 1] ^ (mask if s & 1 else 0) for s in mig.outputs]


def oracle_simulate_words_aig(aig, values, mask):
    """The historical AIG pattern-simulation loop, verbatim."""
    for node in range(aig.num_pis + 1, aig.num_nodes):
        a, b = aig.fanins(node)
        va = values[a >> 1] ^ (mask if a & 1 else 0)
        vb = values[b >> 1] ^ (mask if b & 1 else 0)
        values[node] = va & vb
    return [values[s >> 1] ^ (mask if s & 1 else 0) for s in aig.outputs]


def oracle_exhaustive(net):
    """The historical exhaustive ``simulate``: project PIs, run the loop."""
    n = net.num_pis
    mask = (1 << (1 << n)) - 1
    values = [0] * net.num_nodes
    for i in range(n):
        values[1 + i] = tt_var(n, i)
    oracle = (
        oracle_simulate_words_mig if net.arity == 3 else oracle_simulate_words_aig
    )
    return oracle(net, values, mask)


# ---------------------------------------------------------------------------
# random-network strategies
# ---------------------------------------------------------------------------


@st.composite
def random_mig(draw, min_pis=2, max_pis=7, max_gates=24):
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
def random_aig(draw, min_pis=2, max_pis=7, max_gates=24):
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


def random_network(draw_mig):
    return random_mig() if draw_mig else random_aig()


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


class TestProjections:
    @pytest.mark.parametrize("num_vars", range(0, 11))
    def test_projection_int_matches_tt_var(self, num_vars):
        for i in range(num_vars):
            assert projection_int(num_vars, i) == tt_var(num_vars, i)

    def test_range_checks(self):
        with pytest.raises(ValueError, match="num_vars"):
            projection_int(17, 0)
        with pytest.raises(ValueError, match="out of range"):
            projection_int(4, 4)


# ---------------------------------------------------------------------------
# the differential core: every entry point vs the frozen oracles
# ---------------------------------------------------------------------------


class TestPatternSimulation:
    @given(random_mig(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mig_both_backends_match_the_oracle(self, mig, seed):
        rng = random.Random(seed)
        for width in (1, 7, 64, 65, 128, 200):
            mask = (1 << width) - 1
            patterns = [rng.getrandbits(width) for _ in range(mig.num_pis)]
            values = [0] * mig.num_nodes
            for i, w in enumerate(patterns):
                values[1 + i] = w & mask
            expected = oracle_simulate_words_mig(mig, values, mask)
            assert simulate_network(mig, patterns, width) == expected

    @given(random_aig(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_aig_both_backends_match_the_oracle(self, aig, seed):
        rng = random.Random(seed)
        for width in (1, 7, 64, 65, 128, 200):
            mask = (1 << width) - 1
            patterns = [rng.getrandbits(width) for _ in range(aig.num_pis)]
            values = [0] * aig.num_nodes
            for i, w in enumerate(patterns):
                values[1 + i] = w & mask
            expected = oracle_simulate_words_aig(aig, values, mask)
            assert simulate_network(aig, patterns, width) == expected

    @given(random_mig())
    @settings(max_examples=40, deadline=None)
    def test_exhaustive_simulate_matches_the_oracle(self, mig):
        assert mig.simulate() == oracle_exhaustive(mig)

    @given(random_aig())
    @settings(max_examples=40, deadline=None)
    def test_aig_exhaustive_matches_the_oracle(self, aig):
        assert aig.simulate() == oracle_exhaustive(aig)

    @given(random_mig(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_all_nodes_agrees_with_the_oracle_values(self, mig, seed):
        rng = random.Random(seed)
        width = 96
        mask = (1 << width) - 1
        patterns = [rng.getrandbits(width) for _ in range(mig.num_pis)]
        values = [0] * mig.num_nodes
        for i, w in enumerate(patterns):
            values[1 + i] = w & mask
        oracle_simulate_words_mig(mig, values, mask)
        assert simulate_all_nodes(mig, patterns, width) == values

    def test_pattern_count_is_validated(self, full_adder):
        with pytest.raises(ValueError, match="expected 3 pattern words, got 2"):
            simulate_network(full_adder, [1, 2], 8)

    def test_too_many_inputs_for_exhaustive(self):
        mig = Mig(17)
        with pytest.raises(ValueError, match="limited to 16 inputs"):
            mig.simulate()


class TestConeFunction:
    @given(random_mig())
    @settings(max_examples=25, deadline=None)
    def test_cone_over_all_pis_equals_exhaustive(self, mig):
        leaves = list(range(1, mig.num_pis + 1))
        tables = oracle_exhaustive(mig)
        for s, expected in zip(mig.outputs, tables):
            node = s >> 1
            if node == 0:
                continue
            got = cone_function(mig, node, leaves)
            mask = (1 << (1 << len(leaves))) - 1
            assert got ^ (mask if s & 1 else 0) == expected

    def test_uncovered_cone_raises(self, full_adder):
        gate = next(iter(full_adder.gates()))
        with pytest.raises(ValueError, match="not a cut leaf"):
            cone_function(full_adder, gate, [1])  # PI 2/3 unreachable as leaves

    def test_deep_chain_does_not_recurse(self):
        # 5000-gate chain: the explicit stack must not hit the recursion limit.
        mig = Mig(2)
        a, b = mig.pi_signals()
        s = mig.maj(0, a, b)
        for _ in range(5000):
            s = mig.maj(1, s ^ 1, a)
        mig.add_po(s)
        got = cone_function(mig, s >> 1, [1, 2])
        assert 0 <= got < 16


def reference_insert(tt: int, num_vars: int, position: int) -> int:
    """*tt* over ``num_vars + 1`` variables, variable *position* unused.

    Extend by a don't-care top variable, then permute it down to
    *position*: input ``j < position`` keeps ``x_j``, input ``j`` above
    it reads ``x_{j+1}``.
    """
    perm = [*range(position), *range(position + 1, num_vars + 1), position]
    return tt_permute(tt_extend(tt, num_vars, num_vars + 1), perm, num_vars + 1)


class TestInsertDontCare:
    """The one rule that re-expresses a child cut's table on its parent
    cut's leaves, against a scalar reference built from ``tt_extend``
    and ``tt_permute``."""

    @pytest.mark.parametrize("num_vars", [0, 1, 2, 3])
    def test_exhaustive_up_to_three_variables(self, num_vars):
        tables = list(range(1 << (1 << num_vars)))
        for position in range(num_vars + 1):
            got = insert_dont_care(np.array(tables, dtype=np.uint64), position)
            assert got.tolist() == [
                reference_insert(t, num_vars, position) for t in tables
            ], position

    @pytest.mark.parametrize("num_vars", [4, 5])
    def test_sampled_four_and_five_variables(self, num_vars):
        rng = random.Random(num_vars)
        mask = (1 << (1 << num_vars)) - 1
        tables = [0, mask] + [rng.getrandbits(1 << num_vars) for _ in range(200)]
        for position in range(num_vars + 1):
            got = insert_dont_care(np.array(tables, dtype=np.uint64), position)
            assert got.tolist() == [
                reference_insert(t, num_vars, position) for t in tables
            ], position

    def test_mixed_widths_in_one_call(self):
        # A program level mixes source widths; each table must come out
        # as its own width's insertion, whatever the widest one is.
        rng = random.Random(7)
        for position in range(6):
            widths = [rng.randint(position, 5) for _ in range(300)]
            tables = [rng.getrandbits(1 << n) for n in widths]
            got = insert_dont_care(np.array(tables, dtype=np.uint64), position)
            assert got.tolist() == [
                reference_insert(t, n, position) for t, n in zip(tables, widths)
            ], position

    def test_input_left_unchanged(self):
        tables = np.array([0b0110, 0b1000], dtype=np.uint64)
        insert_dont_care(tables, 0)
        assert tables.tolist() == [0b0110, 0b1000]
