"""Tests for SAT sweeping (fraig).

The step runs the shared sweep engine (``repro.sat.sweep``); the loop it
had before the move is frozen in ``_frozen_fraig.py`` and must keep
returning the same network, node for node.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mig import Mig, signal_not
from repro.core.simulate import check_equivalence
from repro.opt.fraig import fraig
from repro.runtime.budget import Budget

from ..rewriting.test_differential import random_mig
from ..sat.test_cec import wide_mig
from ._frozen_fraig import frozen_fraig


def duplicated_logic_network(width: int = 16) -> Mig:
    """A wide network computing the same AND-tree twice, differently."""
    mig = Mig(width)
    sigs = mig.pi_signals()
    left = sigs[0]
    for s in sigs[1:]:
        left = mig.and_(left, s)
    # Same conjunction via De Morgan on OR of complements.
    right = sigs[-1]
    for s in reversed(sigs[:-1]):
        right = mig.or_(signal_not(right), signal_not(s))
        right = signal_not(right)
    mig.add_po(left, "f")
    mig.add_po(right, "g")
    return mig


class TestFraig:
    def test_merges_duplicated_wide_logic(self):
        mig = duplicated_logic_network(16)
        swept = fraig(mig)
        assert check_equivalence(mig, swept)
        assert swept.num_gates < mig.num_gates
        # Both outputs should now share one cone.
        assert swept.outputs[0] >> 1 == swept.outputs[1] >> 1

    def test_merges_complemented_equivalences(self):
        mig = Mig(8)
        sigs = mig.pi_signals()
        f = mig.and_(sigs[0], sigs[1])
        g = mig.or_(signal_not(sigs[0]), signal_not(sigs[1]))  # = !f
        mig.add_po(f)
        mig.add_po(g)
        swept = fraig(mig)
        assert check_equivalence(mig, swept)
        assert swept.num_gates == 1

    def test_no_false_merges_on_suite(self, suite_small):
        for mig in suite_small[:5]:
            swept = fraig(mig)
            assert check_equivalence(mig, swept), mig.name
            assert swept.num_gates <= mig.num_gates

    def test_budget_zero_is_safe(self):
        mig = duplicated_logic_network(8)
        swept = fraig(mig, conflict_budget=1)
        assert check_equivalence(mig, swept)

    def test_interface_preserved(self):
        mig = duplicated_logic_network(8)
        swept = fraig(mig)
        assert swept.pi_names == mig.pi_names
        assert swept.output_names == mig.output_names


def structure(mig: Mig) -> tuple:
    """Everything that makes two networks node-for-node identical."""
    return (
        [mig.fanins(node) for node in mig.gates()],
        mig.outputs,
        mig.pi_names,
        mig.output_names,
    )


#: (per-query conflict cap, shared budget?): the default cap and a
#: 1-conflict cap, each without and with a Budget small enough to run
#: out mid-pass
SETTINGS = [
    (cap, with_budget)
    for cap in (None, 1)
    for with_budget in (False, True)
]


def swept(run, mig: Mig, cap: int | None, with_budget: bool) -> tuple:
    """The network *run* returns, and what it charged a shared budget."""
    budget = Budget.from_limits(conflict_limit=200) if with_budget else None
    kwargs = {} if cap is None else {"conflict_budget": cap}
    result = run(mig, budget=budget, **kwargs)
    return structure(result), budget.conflicts_spent if budget else None


def assert_same_as_frozen(mig: Mig, cap: int | None, with_budget: bool) -> None:
    assert swept(fraig, mig, cap, with_budget) == swept(
        frozen_fraig, mig, cap, with_budget
    )


class TestAgainstFrozenFraig:
    @pytest.mark.parametrize("cap,with_budget", SETTINGS)
    def test_identical_on_suite(self, suite_small, cap, with_budget):
        for mig in suite_small:
            assert_same_as_frozen(mig, cap, with_budget)

    def test_identical_as_the_refinement_cap_binds(self):
        # The two AND trees share the all-zero signature until seven
        # counterexamples have refined it; only then do they merge.
        mig = duplicated_logic_network(16)
        for rounds in range(9):
            assert structure(fraig(mig, max_cex_rounds=rounds)) == structure(
                frozen_fraig(mig, max_cex_rounds=rounds)
            )

    @settings(max_examples=40, deadline=None)
    @given(
        mig=st.one_of(random_mig(max_pis=8, max_gates=40), wide_mig()),
        setting=st.sampled_from(SETTINGS),
    )
    def test_identical_on_random_migs(self, mig, setting):
        assert_same_as_frozen(mig, *setting)
