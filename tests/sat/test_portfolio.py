"""Tests for the SAT portfolio racer (repro.sat.portfolio).

The two load-bearing properties:

1. **Byte-identical degradation** — with zero external lanes, the
   portfolio is indistinguishable from calling the internal solver
   directly (same verdicts, same models, same conflict counts), checked
   differentially with Hypothesis.
2. **Untrusted lanes can't lie** — a crashed, hanging, or lying
   external solver never changes a verdict and never leaks a child
   process (asserted via ``/proc`` after each race).
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import faults
from repro.runtime.budget import Budget
from repro.sat.backends import DimacsSubprocessBackend
from repro.sat.cnf import CnfBuilder
from repro.sat.portfolio import BACKEND_MODES, PortfolioSolver, resolve_backend
from repro.sat.solver import SAT, UNKNOWN, UNSAT, Solver

from .test_backends import (
    SAT_CLAUSES,
    SAT_NUM_VARS,
    UNSAT_CLAUSES,
    UNSAT_NUM_VARS,
    assert_no_leaked_children,
    fake_hang,  # noqa: F401 - fixture re-export
    fake_sat,  # noqa: F401 - fixture re-export
    fake_unsat,  # noqa: F401 - fixture re-export
    make_script,
)


def loaded_solver(num_vars: int, clauses) -> Solver:
    solver = Solver()
    solver.new_vars(num_vars)
    for clause in clauses:
        solver.add_clause(clause)
    return solver


@st.composite
def cnf_instances(draw):
    num_vars = draw(st.integers(min_value=1, max_value=6))
    lits = st.integers(min_value=-num_vars, max_value=num_vars).filter(
        lambda lit: lit != 0
    )
    clauses = draw(
        st.lists(
            st.lists(lits, min_size=1, max_size=4), min_size=0, max_size=12
        )
    )
    return num_vars, clauses


class TestDegradedPath:
    """Zero external lanes: the race collapses to the bare solver."""

    @settings(max_examples=60, deadline=None)
    @given(cnf_instances())
    def test_differential_verdict_model_and_stats(self, instance):
        num_vars, clauses = instance
        bare = loaded_solver(num_vars, clauses)
        raced = loaded_solver(num_vars, clauses)

        expected = bare.solve()
        portfolio = PortfolioSolver(external=[])
        got = portfolio.solve(raced, clauses)

        assert got is expected
        assert raced.conflicts == bare.conflicts
        assert raced.decisions == bare.decisions
        assert raced.propagations == bare.propagations
        if expected is SAT:
            assert raced.model == bare.model

    def test_no_threads_spawned(self):
        before = threading.active_count()
        portfolio = PortfolioSolver(external=[])
        solver = loaded_solver(SAT_NUM_VARS, SAT_CLAUSES)
        assert portfolio.solve(solver, SAT_CLAUSES) is True
        assert threading.active_count() == before

    def test_events_account_the_degraded_lane(self):
        portfolio = PortfolioSolver(external=[])
        portfolio.solve(loaded_solver(SAT_NUM_VARS, SAT_CLAUSES), SAT_CLAUSES)
        portfolio.solve(
            loaded_solver(UNSAT_NUM_VARS, UNSAT_CLAUSES), UNSAT_CLAUSES
        )
        assert portfolio.events == {
            "internal:win-sat": 1,
            "internal:win-unsat": 1,
        }
        assert portfolio.races == 2

    def test_take_events_drains(self):
        portfolio = PortfolioSolver(external=[])
        portfolio.solve(loaded_solver(SAT_NUM_VARS, SAT_CLAUSES), SAT_CLAUSES)
        assert portfolio.take_events() == {"internal:win-sat": 1}
        assert portfolio.take_events() == {}


class TestRace:
    def setup_method(self):
        faults.reset()

    def teardown_method(self):
        faults.reset()

    def test_internal_wins_and_hanging_lane_is_killed(self, fake_hang):
        external = DimacsSubprocessBackend([fake_hang], name="hang", grace=0.2)
        portfolio = PortfolioSolver(external=[external])
        solver = loaded_solver(SAT_NUM_VARS, SAT_CLAUSES)
        answer = portfolio.solve(solver, SAT_CLAUSES)
        assert answer is True
        assert solver.model_value(2)
        assert portfolio.events.get("internal:win-sat") == 1
        assert portfolio.events.get("hang:unknown") == 1
        assert_no_leaked_children(fake_hang)

    def test_external_sat_win_installs_validated_model(self, fake_sat):
        external = DimacsSubprocessBackend([fake_sat], name="fake")
        portfolio = PortfolioSolver(external=[external])
        solver = loaded_solver(SAT_NUM_VARS, SAT_CLAUSES)
        with faults.inject("solver.timeout"):
            answer = portfolio.solve(solver, SAT_CLAUSES)
        assert answer is True
        # The winning external model was installed into the solver, so
        # extraction code works as if the internal lane had produced it.
        assert solver.model == [0, 0, 1]
        assert solver.model_value(2)
        assert portfolio.events.get("fake:win-sat") == 1
        assert portfolio.events.get("internal:unknown") == 1

    def test_external_unsat_win(self, fake_unsat):
        external = DimacsSubprocessBackend([fake_unsat], name="fake")
        portfolio = PortfolioSolver(external=[external])
        solver = loaded_solver(UNSAT_NUM_VARS, UNSAT_CLAUSES)
        with faults.inject("solver.timeout"):
            answer = portfolio.solve(solver, UNSAT_CLAUSES)
        assert answer is False
        assert portfolio.events.get("fake:win-unsat") == 1

    def test_all_lanes_unknown_returns_unknown(self, tmp_path):
        script = make_script(
            tmp_path, "fake-unknown", 'echo "s UNKNOWN"\nexit 0\n'
        )
        external = DimacsSubprocessBackend([script], name="fake")
        portfolio = PortfolioSolver(external=[external])
        solver = loaded_solver(SAT_NUM_VARS, SAT_CLAUSES)
        with faults.inject("solver.timeout"):
            answer = portfolio.solve(solver, SAT_CLAUSES)
        assert answer is UNKNOWN
        assert portfolio.events.get("fake:unknown") == 1


class TestChaos:
    """A misbehaving external lane may never change the verdict."""

    def setup_method(self):
        faults.reset()

    def teardown_method(self):
        faults.reset()

    def test_crashed_lane_does_not_change_verdict(self, fake_sat):
        external = DimacsSubprocessBackend([fake_sat], name="fake")
        portfolio = PortfolioSolver(external=[external])
        solver = loaded_solver(SAT_NUM_VARS, SAT_CLAUSES)
        with faults.inject("sat.backend.crash"):
            answer = portfolio.solve(solver, SAT_CLAUSES)
        assert answer is True  # internal lane still delivers
        assert portfolio.events.get("fake:crash") == 1
        assert portfolio.events.get("internal:win-sat") == 1
        assert_no_leaked_children(fake_sat)

    def test_garbled_lane_never_wins(self, fake_sat):
        external = DimacsSubprocessBackend([fake_sat], name="fake")
        portfolio = PortfolioSolver(external=[external])
        solver = loaded_solver(SAT_NUM_VARS, SAT_CLAUSES)
        # Internal is muzzled AND the external model is corrupted: the
        # race must end UNKNOWN rather than trust the lying lane.
        with faults.inject("solver.timeout"), faults.inject(
            "sat.backend.garble"
        ):
            answer = portfolio.solve(solver, SAT_CLAUSES)
        assert answer is UNKNOWN
        assert portfolio.events.get("fake:garbled") == 1
        assert_no_leaked_children(fake_sat)

    def test_lying_sat_claim_on_unsat_formula_is_rejected(self, tmp_path):
        # Claims SAT on an UNSAT formula; validation must reject it and
        # the internal lane's proof must stand.
        liar = make_script(
            tmp_path, "fake-liar-unsat",
            'echo "s SATISFIABLE"\necho "v 1 0"\nexit 10\n',
        )
        external = DimacsSubprocessBackend([liar], name="liar")
        portfolio = PortfolioSolver(external=[external])
        solver = loaded_solver(UNSAT_NUM_VARS, UNSAT_CLAUSES)
        answer = portfolio.solve(solver, UNSAT_CLAUSES)
        assert answer is False
        assert "liar:win-sat" not in portfolio.events
        assert_no_leaked_children(liar)

    def test_hanging_lane_cannot_stall_past_budget(self, fake_hang):
        external = DimacsSubprocessBackend([fake_hang], name="hang", grace=0.2)
        budget = Budget(deadline=time.monotonic() + 0.5)
        portfolio = PortfolioSolver(external=[external], budget=budget)
        # Muzzle the internal lane so only the hanging lane remains.
        solver = loaded_solver(SAT_NUM_VARS, SAT_CLAUSES)
        start = time.monotonic()
        with faults.inject("solver.timeout"):
            answer = portfolio.solve(solver, SAT_CLAUSES)
        elapsed = time.monotonic() - start
        assert answer is UNKNOWN
        assert elapsed < 10.0  # nowhere near the script's sleep 60
        assert_no_leaked_children(fake_hang)


class TestBudgetClamp:
    def test_expired_budget_short_circuits(self):
        budget = Budget(deadline=time.monotonic() - 1.0)
        portfolio = PortfolioSolver(external=[], budget=budget)
        solver = loaded_solver(SAT_NUM_VARS, SAT_CLAUSES)
        assert portfolio.solve(solver, SAT_CLAUSES) is UNKNOWN

    def test_budget_tightens_caller_deadline(self):
        budget = Budget(deadline=100.0)
        portfolio = PortfolioSolver(external=[], budget=budget)
        assert portfolio._clamped_deadline(None) == 100.0
        assert portfolio._clamped_deadline(50.0) == 50.0
        assert portfolio._clamped_deadline(200.0) == 100.0

    def test_no_budget_passes_deadline_through(self):
        portfolio = PortfolioSolver(external=[])
        assert portfolio._clamped_deadline(None) is None
        assert portfolio._clamped_deadline(42.0) == 42.0

    def test_cnf_builder_clamps_to_budget(self):
        budget = Budget(deadline=time.monotonic() - 1.0)
        builder = CnfBuilder(budget=budget)
        a = builder.new_var()
        builder.add_clause([a])
        assert builder.solve() is UNKNOWN


class TestSolverCancel:
    def test_pre_set_cancel_returns_unknown(self):
        solver = loaded_solver(SAT_NUM_VARS, SAT_CLAUSES)
        cancel = threading.Event()
        cancel.set()
        assert solver.solve(cancel=cancel) is UNKNOWN
        # The solver survives cancellation and can be reused.
        assert solver.solve() is SAT

    def test_cancel_mid_search_stops_promptly(self):
        # Pigeonhole(8) takes far longer than the cancel delay for the
        # pure-python CDCL; a prompt UNKNOWN proves the conflict-loop
        # poll works.
        from .test_solver import pigeonhole

        solver = pigeonhole(8)
        cancel = threading.Event()
        timer = threading.Timer(0.2, cancel.set)
        timer.start()
        try:
            answer = solver.solve(cancel=cancel)
        finally:
            timer.cancel()
        assert answer is UNKNOWN


class TestCnfBuilderMirroring:
    def test_no_portfolio_means_no_mirroring(self):
        builder = CnfBuilder()
        a, b = builder.new_vars(2)
        builder.add_clause([a, b])
        builder.maj_gate(builder.new_var(), a, b, a)
        assert builder.clauses == []

    def test_portfolio_mirrors_every_clause(self):
        builder = CnfBuilder(portfolio=PortfolioSolver(external=[]))
        a, b = builder.new_vars(2)
        builder.add_clause([a, b])
        builder.add_unit(-a)
        out = builder.new_var()
        builder.maj_gate(out, a, b, b)
        # 1 + 1 + 6 maj clauses, mirrored in insertion order
        assert len(builder.clauses) == 8
        assert builder.clauses[0] == [a, b]
        assert builder.clauses[1] == [-a]

    def test_builder_solve_routes_through_portfolio(self):
        portfolio = PortfolioSolver(external=[])
        builder = CnfBuilder(portfolio=portfolio)
        a = builder.new_var()
        builder.add_unit(a)
        assert builder.solve() is True
        assert builder.value(a)
        assert portfolio.races == 1


class TestResolveBackend:
    def test_internal_is_none(self):
        assert resolve_backend("internal") is None

    def test_auto_without_binaries_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_SOLVERS", "")
        assert resolve_backend("auto") is None

    def test_auto_with_binary_is_a_portfolio(self, monkeypatch, fake_sat):
        monkeypatch.setenv("REPRO_SAT_SOLVERS", fake_sat)
        portfolio = resolve_backend("auto")
        assert isinstance(portfolio, PortfolioSolver)
        assert portfolio.has_external

    def test_portfolio_without_binaries_degrades(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_SOLVERS", "")
        portfolio = resolve_backend("portfolio")
        assert isinstance(portfolio, PortfolioSolver)
        assert not portfolio.has_external
        assert portfolio.lane_names() == ["internal"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("fastest")

    def test_modes_vocabulary(self):
        assert BACKEND_MODES == ("auto", "internal", "portfolio")


class TestEndToEnd:
    """The portfolio threaded through the real SAT consumers."""

    def test_cec_portfolio_matches_internal(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_SOLVERS", "")
        from repro.core.mig import Mig, signal_not
        from repro.sat.cec import check_equivalence_sat

        m1 = Mig(2)
        a, b = m1.pi_signals()
        m1.add_po(m1.xor(a, b))
        # Not Mig.xor's own construction, so strashing cannot merge the
        # pair and the check has to race a query.
        m2 = Mig(2)
        a, b = m2.pi_signals()
        m2.add_po(m2.or_(m2.and_(a, signal_not(b)), m2.and_(signal_not(a), b)))

        plain = check_equivalence_sat(m1, m2)
        raced = check_equivalence_sat(m1, m2, sat_backend="portfolio")
        assert plain.equivalent is raced.equivalent is True
        assert plain.backend_events == {}
        assert raced.backend_events.get("internal:win-unsat", 0) >= 1

    def test_cec_counterexample_survives_portfolio(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_SOLVERS", "")
        from repro.core.mig import Mig
        from repro.sat.cec import check_equivalence_sat

        m1 = Mig(2)
        a, b = m1.pi_signals()
        m1.add_po(m1.xor(a, b))
        m3 = Mig(2)
        a, b = m3.pi_signals()
        m3.add_po(m3.or_(a, b))
        result = check_equivalence_sat(m1, m3, sat_backend="portfolio")
        assert result.equivalent is False
        assert result.counterexample == {"x0": True, "x1": True}

    def test_exact_synthesis_portfolio_matches_internal(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAT_SOLVERS", "")
        from repro.exact.synthesis import ExactSynthesizer

        # Disable the witness-table shortcut so the SAT engine actually
        # runs; x & y stays a milliseconds-scale instance.
        plain = ExactSynthesizer(
            conflict_budget=10000, use_lower_bound=False
        ).synthesize(0x8, 2)
        raced = ExactSynthesizer(
            conflict_budget=10000, use_lower_bound=False,
            sat_backend="portfolio",
        ).synthesize(0x8, 2)
        assert plain.size == raced.size == 1
        assert plain.proven and raced.proven
        assert plain.conflicts == raced.conflicts
        assert plain.backend_events == {}
        assert raced.backend_events  # the degraded lane was accounted
