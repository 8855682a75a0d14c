"""Tests for the post-pass equivalence verification policy."""

from __future__ import annotations

import pytest

from repro.core.mig import Mig, signal_not
from repro.generators import epfl
from repro.runtime.budget import Budget
from repro.runtime.verify import verify_rewrite


def _broken_copy(mig: Mig) -> Mig:
    bad = mig.clone()
    bad._outputs[0] = signal_not(bad._outputs[0])
    return bad


class TestNarrowNetworks:
    def test_exhaustive_proof(self):
        mig = epfl.adder(4)
        report = verify_rewrite(mig, mig.clone(), mode="sim")
        assert report.equivalent is True
        assert report.method == "exhaustive"

    def test_exhaustive_refutation(self):
        mig = epfl.adder(4)
        report = verify_rewrite(mig, _broken_copy(mig), mode="sim")
        assert report.refuted
        assert report.method == "exhaustive"

    def test_off_mode(self):
        mig = epfl.adder(4)
        report = verify_rewrite(mig, _broken_copy(mig), mode="off")
        assert report.equivalent is None
        assert report.method == "off"

    def test_unknown_mode_rejected(self):
        mig = epfl.adder(4)
        with pytest.raises(ValueError):
            verify_rewrite(mig, mig, mode="simulate-hard")


class TestWideNetworks:
    def test_sampled_refutation(self):
        mig = epfl.adder(16)  # 32 PIs: beyond the exhaustive limit
        report = verify_rewrite(mig, _broken_copy(mig), mode="sim")
        assert report.refuted
        assert report.method == "sampled"

    def test_sim_mode_is_inconclusive_positive(self):
        mig = epfl.adder(16)
        report = verify_rewrite(mig, mig.clone(), mode="sim")
        assert report.equivalent is None
        assert report.method == "sampled"

    def test_cec_mode_proves(self):
        mig = epfl.adder(16)
        report = verify_rewrite(mig, mig.clone(), mode="cec")
        assert report.equivalent is True
        assert report.method == "cec"

    def test_cec_charges_budget(self, multiplier8_pair):
        mig = epfl.adder(16)
        budget = Budget.from_limits(conflict_limit=10_000_000)
        before = budget.conflicts_spent
        verify_rewrite(mig, mig.clone(), mode="cec", budget=budget)
        assert budget.conflicts_spent >= before
        # A clone strashes to one network and costs nothing; a pair that
        # needs SAT is charged exactly what the check reports.
        before = budget.conflicts_spent
        report = verify_rewrite(*multiplier8_pair, mode="cec", budget=budget)
        assert report.equivalent is True
        assert report.conflicts > 0
        assert budget.conflicts_spent == before + report.conflicts

    def test_cec_budget_exhaustion_inconclusive(self, multiplier8_pair):
        # A spent budget must yield an inconclusive answer, not a hang or
        # a false refutation.
        mig = epfl.multiplier(9)  # 18 PIs, wide enough for CEC
        budget = Budget.from_limits(conflict_limit=1)
        budget.charge_conflicts(1)
        report = verify_rewrite(mig, mig.clone(), mode="cec", budget=budget)
        assert report.equivalent in (None, True)  # tiny miters may close instantly
        assert report.method == "cec"
        report = verify_rewrite(*multiplier8_pair, mode="cec", budget=budget)
        assert report.equivalent is None
        assert report.method == "cec"

    def test_cec_proves_multiplier8_under_the_default_cap(self, multiplier8_pair):
        # The monolithic miter gave up on this pair after 50,000 conflicts.
        report = verify_rewrite(*multiplier8_pair, mode="cec")
        assert report.equivalent is True
        assert report.method == "cec"
