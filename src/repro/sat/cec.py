"""SAT-based combinational equivalence checking (CEC) for MIGs.

A swept miter, in three stages, each run only when the one before left
an output pair open:

1. **Strash.**  Both networks are copied into one structurally hashed
   MIG, inputs matched by position.  A rewrite leaves most of a network
   untouched, so most output pairs land on one signal there and are
   proven without a solver.
2. **Sweep.**  The cones of the open pairs are swept with the engine
   the ``fraig`` step runs (:func:`repro.sat.sweep.sweep`): internal
   equivalences are proven by small incremental queries and merged, so
   each later query sees the two networks joined below it.
3. **Final miter.**  The pairs the sweep left apart get one XOR each,
   at least one of which must be true, on the sweep's builder, where
   the swept network is already encoded.  UNSAT proves equivalence; a
   model is a concrete counterexample (the sweep merges only on proof,
   so the swept network computes what the two inputs compute).  When
   the sweep merged every pair, the miter is the empty clause, which
   the solver refutes without search.

Complements the simulation-based checks of :mod:`repro.core.simulate`
for networks too wide to simulate exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.mig import Mig
from ..runtime.budget import Budget
from .cnf import CnfBuilder
from .sweep import sweep

__all__ = ["CecResult", "check_equivalence_sat"]


@dataclass(frozen=True)
class CecResult:
    """Outcome of a SAT CEC run."""

    equivalent: bool | None  # None = budget exhausted
    counterexample: dict[str, bool] | None
    conflicts: int


def _copy_into(target: Mig, mig: Mig) -> list[int]:
    """Rebuild *mig*'s gates in *target* through ``maj``, inputs by
    position; returns *mig*'s output signals in *target*."""
    mapping = [2 * node for node in range(mig.num_pis + 1)]
    for node in mig.gates():
        a, b, c = mig.fanins(node)
        mapping.append(
            target.maj(
                mapping[a >> 1] ^ (a & 1),
                mapping[b >> 1] ^ (b & 1),
                mapping[c >> 1] ^ (c & 1),
            )
        )
    return [mapping[s >> 1] ^ (s & 1) for s in mig.outputs]


def check_equivalence_sat(
    mig1: Mig,
    mig2: Mig,
    conflict_budget: int | None = None,
    budget: "Budget | None" = None,
) -> CecResult:
    """Prove or refute equivalence of two MIGs with identical interfaces.

    *conflict_budget* caps the whole check, sweep and final miter
    together; every query gets at most what is left.  A shared
    :class:`repro.runtime.budget.Budget` bounds every query by its
    wall-clock deadline and (when *conflict_budget* is not given) the
    check by its remaining conflicts; the conflicts spent are charged
    back to it once.  When the limits run out before every open output
    pair is merged or refuted, the answer is ``None``.
    """
    if mig1.num_pis != mig2.num_pis or mig1.num_pos != mig2.num_pos:
        raise ValueError("CEC requires matching PI/PO counts")
    miter = Mig.like(mig1)
    pairs = zip(_copy_into(miter, mig1), _copy_into(miter, mig2))
    open_pairs = [(s1, s2) for s1, s2 in pairs if s1 != s2]
    if not open_pairs:
        return CecResult(True, None, 0)
    for s1, s2 in open_pairs:
        miter.add_po(s1)
        miter.add_po(s2)
    miter = miter.cleanup()

    if budget is not None and conflict_budget is None:
        conflict_budget = budget.call_conflict_budget()
    # The check's own limits: every query charges them, the caller's
    # budget is charged once at the end.
    limits = Budget(
        deadline=budget.deadline if budget is not None else None,
        conflict_limit=conflict_budget,
    )
    builder = CnfBuilder(budget=budget)
    swept = sweep(miter, builder, budget=limits)
    outs = swept.network.outputs
    apart = [(s1, s2) for s1, s2 in zip(outs[::2], outs[1::2]) if s1 != s2]
    if apart and limits.expired():
        answer = None
    else:
        swept.encode()
        diff_lits = []
        for s1, s2 in apart:
            d = builder.new_var()
            builder.xor_gate(d, swept.literal(s1), swept.literal(s2))
            diff_lits.append(d)
        # With every pair merged this is the empty clause, refuted at
        # once without search.
        builder.at_least_one(diff_lits)
        answer = builder.solve(
            conflict_budget=limits.call_conflict_budget(), deadline=limits.deadline
        )
    conflicts = builder.solver.conflicts
    if budget is not None:
        budget.charge_conflicts(conflicts)
    if answer is None:
        return CecResult(None, None, conflicts)
    if answer is False:
        return CecResult(True, None, conflicts)
    cex = {
        name: builder.value(var)
        for name, var in zip(mig1.pi_names, swept.pi_vars)
    }
    return CecResult(False, cex, conflicts)
