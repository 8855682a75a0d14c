"""Tests for scripted optimization flows."""

from __future__ import annotations

import time

import pytest

from repro.core.simulate import check_equivalence
from repro.generators import epfl
from repro.opt.flow import optimize_until_convergence, run_flow
from repro.runtime import faults
from repro.runtime.budget import Budget
from repro.runtime.errors import VerificationFailed


class TestRunFlow:
    def test_basic_script(self, db):
        mig = epfl.square_root(6)
        result, history = run_flow(mig, db, ["depth", "BF", "TFD"])
        assert check_equivalence(mig, result)
        assert len(history) == 3
        assert history[0].step == "depth"
        assert history[-1].size_after == result.num_gates

    def test_history_chains(self, db):
        mig = epfl.multiplier(4)
        _, history = run_flow(mig, db, ["strash", "TF", "strash"])
        for prev, nxt in zip(history, history[1:]):
            assert prev.size_after == nxt.size_before
            assert prev.depth_after == nxt.depth_before

    def test_variant_step_without_db_rejected(self):
        mig = epfl.adder(4)
        with pytest.raises(ValueError):
            run_flow(mig, None, ["BF"])

    def test_unknown_step_rejected(self, db):
        mig = epfl.adder(4)
        with pytest.raises(ValueError):
            run_flow(mig, db, ["resyn2"])

    def test_depth_fast_is_size_neutral_or_better(self, db):
        mig = epfl.adder(12)
        result, _ = run_flow(mig, db, ["depth-fast"])
        assert check_equivalence(mig, result)
        assert result.num_gates <= mig.num_gates + 2

    def test_fraig_step(self, db):
        mig = epfl.sine(6)
        result, _ = run_flow(mig, db, ["fraig"])
        assert check_equivalence(mig, result)

    def test_case_insensitive_variants(self, db):
        mig = epfl.square(4)
        result, _ = run_flow(mig, db, ["bf"])
        assert check_equivalence(mig, result)


class TestRollback:
    """Fault injection: a miscompiling pass is detected and rolled back."""

    def teardown_method(self):
        faults.reset()

    def test_wrong_rewrite_rolled_back(self, db):
        mig = epfl.square_root(6)
        with faults.inject("flow.wrong-rewrite", times=1):
            result, history = run_flow(
                mig, db, ["depth", "BF"], verify="sim", on_error="rollback"
            )
        # The corrupted step was caught; the flow continued and the final
        # network is still equivalent to the input.
        statuses = [s.status for s in history]
        assert statuses == ["rolled-back", "ok"]
        assert history[0].error is not None
        assert check_equivalence(mig, result)

    def test_wrong_rewrite_raises_by_default(self, db):
        mig = epfl.square_root(6)
        with faults.inject("flow.wrong-rewrite", times=1):
            with pytest.raises(VerificationFailed):
                run_flow(mig, db, ["BF"], verify="sim")

    def test_rolled_back_step_keeps_pre_step_sizes(self, db):
        mig = epfl.adder(6)
        with faults.inject("flow.wrong-rewrite", times=1):
            _, history = run_flow(
                mig, db, ["BF"], verify="sim", on_error="rollback"
            )
        assert history[0].status == "rolled-back"
        assert history[0].size_after == mig.num_gates
        assert history[0].depth_after == mig.depth()

    def test_corrupt_db_entry_caught(self, db):
        """A corrupt database row reaching the rewriter is a miscompile."""
        mig = epfl.multiplier(4)
        with faults.inject("db.corrupt-entry"):
            result, history = run_flow(
                mig, db, ["BF"], verify="sim", on_error="rollback"
            )
        assert history[0].status == "rolled-back"
        assert check_equivalence(mig, result)

    def test_verification_off_misses_fault(self, db):
        """Control: without verification the corrupted result sails through."""
        mig = epfl.adder(6)
        with faults.inject("flow.wrong-rewrite", times=1):
            result, history = run_flow(
                mig, db, ["BF"], verify="off", on_error="rollback"
            )
        assert history[0].status == "ok"
        assert not check_equivalence(mig, result)


class TestBudgetedFlow:
    def test_expired_budget_skips_steps(self, db):
        mig = epfl.adder(8)
        budget = Budget.from_limits(time_limit=0.0)
        result, history = run_flow(mig, db, ["depth", "BF"], budget=budget)
        assert [s.status for s in history] == ["timeout", "timeout"]
        assert result.num_gates == mig.num_gates

    def test_two_second_budget_returns_in_time(self, db):
        """Acceptance criterion: partial results within the wall budget."""
        mig = epfl.log2(8)
        budget = Budget.from_limits(time_limit=2.0)
        start = time.monotonic()
        result, history = run_flow(
            mig, db, ["depth", "BF", "TFD", "fraig", "BF", "TFD", "BF", "TFD"],
            budget=budget, verify="sim", on_error="rollback",
        )
        elapsed = time.monotonic() - start
        # Steps checked between passes + deadline-aware SAT calls: allow
        # one slow step of slack but nowhere near the unbudgeted runtime.
        assert elapsed < 8.0
        assert len(history) == 8
        assert any(s.status == "ok" for s in history) or all(
            s.status == "timeout" for s in history
        )
        assert check_equivalence(mig, result)

    def test_statuses_default_ok(self, db):
        mig = epfl.adder(4)
        _, history = run_flow(mig, db, ["strash"])
        assert history[0].status == "ok"
        assert history[0].verified == "off"

    def test_bad_policy_rejected(self, db):
        with pytest.raises(ValueError):
            run_flow(epfl.adder(4), db, ["strash"], on_error="ignore")


class TestConvergence:
    def test_converges_and_never_grows(self, db):
        mig = epfl.log2(7)
        converged, passes = optimize_until_convergence(mig, db, "BF", max_passes=5)
        assert check_equivalence(mig, converged)
        assert converged.num_gates <= mig.num_gates
        assert 0 <= passes <= 5

    def test_additional_pass_after_convergence_is_idle(self, db):
        mig = epfl.square_root(6)
        converged, _ = optimize_until_convergence(mig, db, "TF", max_passes=6)
        from repro.rewriting import functional_hashing

        again = functional_hashing(converged, db, "TF")
        assert again.num_gates >= converged.num_gates


class TestConvergenceRuntime:
    """optimize_until_convergence under the fault-tolerant runtime."""

    def teardown_method(self):
        faults.reset()

    def test_expired_budget_returns_input(self, db):
        mig = epfl.square_root(6)
        budget = Budget.from_limits(time_limit=0.0)
        result, passes = optimize_until_convergence(mig, db, "BF", budget=budget)
        assert passes == 0
        assert result.num_gates == mig.num_gates

    def test_budget_keeps_partial_progress(self, db):
        """A budget expiring mid-iteration keeps completed passes."""
        mig = epfl.log2(7)
        # Generous enough for at least the first pass, far below full
        # convergence on this instance.
        budget = Budget.from_limits(time_limit=30.0)
        result, passes = optimize_until_convergence(
            mig, db, "BF", max_passes=5, budget=budget
        )
        assert check_equivalence(mig, result)
        assert result.num_gates <= mig.num_gates

    def test_miscompile_raises_by_default(self, db):
        mig = epfl.square_root(6)
        with faults.inject("flow.wrong-rewrite", times=1):
            with pytest.raises(VerificationFailed):
                optimize_until_convergence(mig, db, "BF", verify="sim")

    def test_miscompile_rolls_back_to_last_good(self, db):
        mig = epfl.square_root(6)
        # Second pass miscompiles: the first pass's result must survive.
        with faults.inject("flow.wrong-rewrite", times=1, skip=1):
            result, passes = optimize_until_convergence(
                mig, db, "BF", verify="sim", on_error="rollback"
            )
        assert check_equivalence(mig, result)
        assert result.num_gates < mig.num_gates  # pass 1 kept
        assert passes == 1

    def test_bad_policy_rejected(self, db):
        with pytest.raises(ValueError):
            optimize_until_convergence(epfl.adder(4), db, "BF", on_error="ignore")

    def test_metrics_accumulate_across_passes(self, db):
        from repro.runtime.metrics import PassMetrics

        mig = epfl.square_root(6)
        metrics = PassMetrics()
        _, passes = optimize_until_convergence(
            mig, db, "BF", max_passes=4, metrics=metrics
        )
        assert metrics.variant == "BF"
        # One enumeration per executed pass (converged passes included).
        assert metrics.nodes_visited >= mig.num_gates
        assert metrics.db_hits > 0
        assert metrics.cuts_considered >= metrics.cuts_admitted


class TestFlowMetrics:
    def test_variant_steps_carry_metrics(self, db):
        mig = epfl.square_root(6)
        _, history = run_flow(mig, db, ["strash", "BF"])
        assert history[0].metrics is None  # strash: no hot-path counters
        assert history[1].metrics is not None
        assert history[1].metrics.variant == "BF"
        assert history[1].metrics.nodes_visited > 0

    def test_rolled_back_step_keeps_metrics(self, db):
        mig = epfl.adder(6)
        with faults.inject("flow.wrong-rewrite", times=1):
            _, history = run_flow(
                mig, db, ["BF"], verify="sim", on_error="rollback"
            )
        faults.reset()
        assert history[0].status == "rolled-back"
        assert history[0].metrics is not None
        assert history[0].metrics.nodes_visited > 0


    def test_cec_conflicts_are_counted(self, db, monkeypatch):
        """The conflicts a step's CEC miter spends land in its metrics."""
        import repro.opt.flow as flow_module
        from repro.runtime.verify import VerificationReport

        monkeypatch.setattr(
            flow_module, "verify_rewrite",
            lambda *args, **kwargs: VerificationReport(True, "cec", conflicts=7),
        )
        _, history = run_flow(epfl.adder(4), db, ["BF", "TFD"], verify="cec")
        assert [step.metrics.sat_conflicts for step in history] == [7, 7]


class TestStructuralCheck:
    """Satellite: ``Mig.check()`` runs after every pass under verify."""

    def test_corrupt_structure_rolls_back(self, db):
        mig = epfl.adder(6)
        with faults.inject("flow.corrupt-structure", times=1):
            result, history = run_flow(
                mig, db, ["BF"], verify="sim", on_error="rollback"
            )
        faults.reset()
        assert history[0].status == "rolled-back"
        assert "structural invariant" in history[0].error
        # The corrupted candidate was discarded: the input survives intact.
        assert check_equivalence(mig, result)
        result.check()

    def test_corrupt_structure_raises_on_strict_policy(self, db):
        mig = epfl.adder(6)
        with faults.inject("flow.corrupt-structure", times=1):
            with pytest.raises(VerificationFailed) as exc:
                run_flow(mig, db, ["BF"], verify="sim", on_error="raise")
        faults.reset()
        assert exc.value.method == "structural"

    def test_verify_off_skips_the_structural_check(self, db):
        """check() is a verification feature, gated like verify_rewrite."""
        mig = epfl.adder(6)
        with faults.inject("flow.corrupt-structure", times=1):
            result, history = run_flow(
                mig, db, ["BF"], verify="off", on_error="rollback"
            )
        faults.reset()
        assert history[0].status == "ok"
        with pytest.raises(ValueError):
            result.check()

    def test_corrupt_structure_stops_convergence(self, db):
        mig = epfl.square_root(6)
        with faults.inject("flow.corrupt-structure", times=1, skip=1):
            result, passes = optimize_until_convergence(
                mig, db, "BF", verify="sim", on_error="rollback"
            )
        faults.reset()
        assert passes == 1  # pass 2's corrupt result was rolled back
        assert check_equivalence(mig, result)
        result.check()


class TestCutLimit:
    def test_cut_limit_plumbs_through_run_flow(self, db):
        mig = epfl.square_root(6)
        wide, history_wide = run_flow(mig, db, ["BF"])
        narrow, history_narrow = run_flow(mig, db, ["BF"], cut_limit=2)
        assert check_equivalence(mig, narrow)
        # A tighter cap admits at most as many cuts per node.
        assert (
            history_narrow[0].metrics.cuts_admitted
            <= history_wide[0].metrics.cuts_admitted
        )

    def test_cut_limit_plumbs_through_convergence(self, db):
        mig = epfl.adder(6)
        result, passes = optimize_until_convergence(
            mig, db, "BF", max_passes=2, cut_limit=2
        )
        assert check_equivalence(mig, result)
