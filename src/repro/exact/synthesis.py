"""Exact MIG synthesis driver (Sec. III of the paper).

Finds a minimum-size MIG for a Boolean function by solving the decision
problem "is there an MIG with k majority gates computing f?" for
``k = 0, 1, 2, ...`` until the first satisfiable instance, as described in
the paper.  The ``k = 0`` cases (constants and literals) are checked
explicitly; larger ``k`` uses the CNF encoding of
:mod:`repro.exact.encoding`.

Because the substrate is a pure-Python CDCL solver rather than Z3, every
``(f, k)`` instance runs under an optional conflict budget.  When the
budget runs out the driver degrades gracefully: if a heuristic upper
bound is available it is returned flagged ``proven=False``.

Three refinements keep the size loop cheap:

* functions covered by an exhaustive witness table (every function of
  at most three gates for ``n <= 4``, every NPN class of at most four
  gates for ``n = 5``, at most two gates for ``n = 6``) are answered
  directly — the witness is rebuilt and returned proven without any SAT
  call, recorded as ``"table"`` in ``k_outcomes``;
* otherwise the loop starts at the lower bound the same consult of the
  tables returns (:func:`repro.exact.bounds.consult_tables`) instead of
  ``k = 1`` (one past the table: 5 for an uncovered 5-input class);
  sizes below the bound are recorded as ``"skipped"`` in ``k_outcomes``
  without any SAT call, and
* the CEGAR counterexample rows that refuted size ``k`` seed the size
  ``k + 1`` encoding (``carry_rows``), which is sound because row
  constraints only restrict the model further — a refutation over a row
  subset is a refutation for the full specification.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.mig import Mig, make_signal, signal_not
from ..core.truth_table import tt_mask, tt_var
from ..runtime.budget import Budget
from .bounds import consult_tables
from .encoding import encode_exact_mig

__all__ = ["SynthesisResult", "ExactSynthesizer", "synthesize_exact"]


@dataclass
class SynthesisResult:
    """Outcome of an exact synthesis run.

    ``proven`` is True when *size* is the provably minimum number of
    majority gates (all smaller sizes refuted).  Otherwise the result is
    the best known upper bound.
    """

    spec: int
    num_vars: int
    mig: Mig | None
    size: int | None
    proven: bool
    runtime: float
    conflicts: int
    #: per-k outcome: "sat", "unsat", "skipped" (below the lower bound,
    #: no SAT call issued), "table" (answered from an exhaustive
    #: witness table) or "unknown" (budget exhausted)
    k_outcomes: dict[int, str] = field(default_factory=dict)
    #: solver counters summed over every size tried (schema shared with
    #: PassMetrics ``sat_*`` keys and ``benchmarks/bench_exact.py``)
    propagations: int = 0
    decisions: int = 0
    restarts: int = 0
    learned: int = 0

    @property
    def succeeded(self) -> bool:
        """True when some MIG (optimal or upper bound) was produced."""
        return self.mig is not None


def _trivial_mig(spec: int, num_vars: int) -> Mig | None:
    """Return a 0-gate MIG if *spec* is a constant or (complemented) literal."""
    mig = Mig(num_vars)
    mask = tt_mask(num_vars)
    if spec == 0:
        mig.add_po(0, "f")
        return mig
    if spec == mask:
        mig.add_po(1, "f")
        return mig
    for i in range(num_vars):
        var = tt_var(num_vars, i)
        if spec == var:
            mig.add_po(make_signal(1 + i), "f")
            return mig
        if spec == var ^ mask:
            mig.add_po(signal_not(make_signal(1 + i)), "f")
            return mig
    return None


class ExactSynthesizer:
    """Reusable exact synthesis engine with budgets and verification."""

    def __init__(
        self,
        conflict_budget: int | None = None,
        max_gates: int = 12,
        verify: bool = True,
        budget: Budget | None = None,
        carry_rows: bool = True,
        use_lower_bound: bool = True,
    ) -> None:
        self.conflict_budget = conflict_budget
        self.max_gates = max_gates
        self.verify = verify
        #: shared runtime budget; checked between sizes, charged per call
        self.budget = budget
        #: seed each size's CEGAR loop with the rows that refuted k - 1
        self.carry_rows = carry_rows
        #: start the size loop at mig_size_lower_bound instead of k = 1
        self.use_lower_bound = use_lower_bound

    def synthesize(
        self,
        spec: int,
        num_vars: int,
        upper_bound: Mig | None = None,
    ) -> SynthesisResult:
        """Synthesize a minimum MIG for *spec*.

        *upper_bound*, when given, must be a single-output MIG computing
        *spec*; the search then stops at ``size(upper_bound) - 1`` and can
        prove the upper bound optimal, or fall back to it on budget
        exhaustion.
        """
        start = time.perf_counter()
        total_conflicts = 0
        counters = {"propagations": 0, "decisions": 0, "restarts": 0, "learned": 0}
        k_outcomes: dict[int, str] = {}

        def result(mig, size, proven):
            return SynthesisResult(
                spec, num_vars, mig, size, proven,
                time.perf_counter() - start, total_conflicts, k_outcomes,
                **counters,
            )

        limit = self.max_gates
        if upper_bound is not None:
            if upper_bound.num_pis != num_vars or upper_bound.num_pos != 1:
                raise ValueError("upper_bound must be a single-output MIG over num_vars PIs")
            if self.verify and upper_bound.simulate()[0] != spec:
                raise ValueError("upper_bound MIG does not compute the specification")
            limit = min(limit, upper_bound.num_gates - 1)

        trivial = _trivial_mig(spec, num_vars)
        if trivial is not None:
            k_outcomes[0] = "sat"
            return result(trivial, 0, True)
        k_outcomes[0] = "unsat"

        start_k = 1
        if self.use_lower_bound:
            # One consult answers both: the table's minimum MIG when it
            # covers the spec, else the size the SAT loop starts at.
            table_mig, lower = consult_tables(spec, num_vars)
            if table_mig is not None:
                # Exhaustive enumeration already proves minimality: no
                # SAT call needed at all.
                size = table_mig.num_gates
                for k in range(1, size):
                    k_outcomes[k] = "skipped"
                k_outcomes[size] = "table"
                if self.verify and table_mig.simulate()[0] != spec:
                    raise RuntimeError(
                        f"witness table MIG does not match spec 0x{spec:x}"
                    )
                if size <= limit:
                    return result(table_mig, size, True)
                if upper_bound is not None:
                    # Proven optimal exactly when the bound meets the
                    # table size (it can never be below the minimum).
                    proven = size == upper_bound.num_gates
                    return result(upper_bound, upper_bound.num_gates, proven)
                return result(None, None, False)  # minimum beyond max_gates
            start_k = max(1, lower)
            for k in range(1, min(start_k, limit + 1)):
                k_outcomes[k] = "skipped"

        budget = self.budget
        carried_rows: list[int] | None = None
        for k in range(start_k, limit + 1):
            if budget is not None and budget.expired():
                # Shared budget spent before this size: degrade to the
                # upper bound (if any) exactly like a per-call timeout.
                k_outcomes[k] = "unknown"
                return result(
                    upper_bound,
                    upper_bound.num_gates if upper_bound is not None else None,
                    False,
                )
            call_budget = self.conflict_budget
            deadline = None
            if budget is not None:
                call_budget = budget.call_conflict_budget(call_budget)
                deadline = budget.deadline
            encoding = encode_exact_mig(spec, num_vars, k, budget=budget)
            answer = encoding.solve_cegar(
                conflict_budget=call_budget,
                deadline=deadline,
                seed_rows=carried_rows if self.carry_rows else None,
            )
            solver = encoding.builder.solver
            call_conflicts = solver.conflicts
            total_conflicts += call_conflicts
            for name in counters:
                counters[name] += getattr(solver, name)
            if budget is not None:
                budget.charge_conflicts(call_conflicts)
            if answer is True:
                k_outcomes[k] = "sat"
                mig = encoding.extract_mig()
                if self.verify and mig.simulate()[0] != spec:
                    raise RuntimeError(
                        f"extracted MIG does not match spec 0x{spec:x} at k={k}"
                    )
                return result(mig, k, True)
            if answer is False:
                k_outcomes[k] = "unsat"
                # The rows that refuted size k remain valid counter-
                # examples for size k + 1: carry them forward.
                carried_rows = encoding.rows
                continue
            # Budget exhausted: fall back to the upper bound if present.
            k_outcomes[k] = "unknown"
            return result(
                upper_bound,
                upper_bound.num_gates if upper_bound is not None else None,
                False,
            )

        if upper_bound is not None:
            # Optimal only when every size below it was refuted, not when
            # max_gates stopped the loop short of the bound.
            proven = limit == upper_bound.num_gates - 1
            return result(upper_bound, upper_bound.num_gates, proven)
        return result(None, None, False)


def synthesize_exact(
    spec: int,
    num_vars: int,
    conflict_budget: int | None = None,
    max_gates: int = 12,
    budget: Budget | None = None,
) -> SynthesisResult:
    """Convenience wrapper: synthesize a minimum MIG for *spec*."""
    return ExactSynthesizer(
        conflict_budget=conflict_budget, max_gates=max_gates, budget=budget
    ).synthesize(spec, num_vars)
