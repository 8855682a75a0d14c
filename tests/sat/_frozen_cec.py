"""Frozen monolithic SAT miter for the CEC differential tests.

A deliberate snapshot of ``repro.sat.cec.check_equivalence_sat`` (and
the ``_encode_mig`` Tseitin encoder it calls) as it stood while it
encoded both networks side by side, sharing no node, and asked one
solver call whether any output pair can differ.  The function bodies
are copied byte for byte; only ``CecResult`` is imported from
production, so verdicts compare directly.

**Do not refactor this file alongside src/** — its value is that it
stays behind as the oracle: the swept check must reach the same verdict
wherever this one concludes (tests/sat/test_cec.py), and
``benchmarks/bench_cec.py`` times it as the baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.mig import Mig
from repro.sat.cec import CecResult
from repro.sat.cnf import CnfBuilder
from repro.sat.portfolio import resolve_backend

if TYPE_CHECKING:
    from repro.runtime.budget import Budget
    from repro.sat.portfolio import PortfolioSolver

__all__ = ["frozen_check_equivalence_sat"]


def _encode_mig(builder: CnfBuilder, mig: Mig, pi_vars: list[int]) -> list[int]:
    """Tseitin-encode *mig* over shared PI variables; returns output literals."""
    const_false = builder.new_var()
    builder.add_unit(-const_false)
    node_lits: list[int] = [const_false]
    node_lits.extend(pi_vars)
    for node in mig.gates():
        a, b, c = mig.fanins(node)
        la = node_lits[a >> 1] * (-1 if a & 1 else 1)
        lb = node_lits[b >> 1] * (-1 if b & 1 else 1)
        lc = node_lits[c >> 1] * (-1 if c & 1 else 1)
        out = builder.new_var()
        builder.maj_gate(out, la, lb, lc)
        node_lits.append(out)
    return [node_lits[s >> 1] * (-1 if s & 1 else 1) for s in mig.outputs]


def frozen_check_equivalence_sat(
    mig1: Mig,
    mig2: Mig,
    conflict_budget: int | None = None,
    budget: "Budget | None" = None,
    sat_backend: "str | PortfolioSolver | None" = "internal",
) -> CecResult:
    """Prove or refute equivalence of two MIGs with identical interfaces.

    A shared :class:`repro.runtime.budget.Budget` bounds the solve by its
    wall-clock deadline and (when *conflict_budget* is not given) by its
    remaining conflicts; the conflicts spent are charged back to it.

    *sat_backend* selects the solving path: a ``--sat-backend`` mode
    string (``"auto"``/``"internal"``/``"portfolio"``), an already-built
    :class:`~repro.sat.portfolio.PortfolioSolver` (shared across calls
    so its event counters accumulate), or ``None`` for internal.
    """
    if mig1.num_pis != mig2.num_pis or mig1.num_pos != mig2.num_pos:
        raise ValueError("CEC requires matching PI/PO counts")
    deadline = None
    if budget is not None:
        deadline = budget.deadline
        if conflict_budget is None:
            conflict_budget = budget.call_conflict_budget()
    portfolio = (
        resolve_backend(sat_backend, budget=budget)
        if isinstance(sat_backend, str)
        else sat_backend
    )
    builder = CnfBuilder(portfolio=portfolio, budget=budget)
    pi_vars = builder.new_vars(mig1.num_pis)
    outs1 = _encode_mig(builder, mig1, pi_vars)
    outs2 = _encode_mig(builder, mig2, pi_vars)
    diff_lits = []
    for o1, o2 in zip(outs1, outs2):
        d = builder.new_var()
        builder.xor_gate(d, o1, o2)
        diff_lits.append(d)
    builder.at_least_one(diff_lits)
    answer = builder.solve(conflict_budget=conflict_budget, deadline=deadline)
    conflicts = builder.solver.conflicts
    if budget is not None:
        budget.charge_conflicts(conflicts)
    events = portfolio.take_events() if portfolio is not None else {}
    if answer is None:
        return CecResult(None, None, conflicts, events)
    if answer is False:
        return CecResult(True, None, conflicts, events)
    cex = {
        name: builder.value(var)
        for name, var in zip(mig1.pi_names, pi_vars)
    }
    return CecResult(False, cex, conflicts, events)
