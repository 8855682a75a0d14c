"""CNF construction helpers on top of :class:`repro.sat.solver.Solver`.

Provides the gate-consistency (Tseitin) constraints and cardinality
encodings used by the exact-synthesis encoder (:mod:`repro.exact.encoding`)
and by SAT-based combinational equivalence checking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from .solver import Solver

if TYPE_CHECKING:
    from ..runtime.budget import Budget

__all__ = ["CnfBuilder"]


class CnfBuilder:
    """A thin constraint-building layer over a SAT solver.

    All methods take and return DIMACS-style literals (``±var``).
    *budget* clamps every solve's wall-clock deadline to the shared flow
    budget.
    """

    def __init__(
        self,
        solver: Solver | None = None,
        budget: "Budget | None" = None,
    ) -> None:
        self.solver = solver if solver is not None else Solver()
        self.budget = budget

    # -- basics ------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable."""
        return self.solver.new_var()

    def new_vars(self, count: int) -> list[int]:
        """Allocate *count* fresh variables."""
        return self.solver.new_vars(count)

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause."""
        self.solver.add_clause(lits)

    def add_unit(self, lit: int) -> None:
        """Force *lit* to be true."""
        self.add_clause([lit])

    # -- cardinality ---------------------------------------------------------

    def at_least_one(self, lits: Sequence[int]) -> None:
        """At least one of *lits* is true."""
        self.add_clause(lits)

    def at_most_one(self, lits: Sequence[int]) -> None:
        """At most one of *lits* is true (pairwise encoding)."""
        for i in range(len(lits)):
            for j in range(i + 1, len(lits)):
                self.add_clause([-lits[i], -lits[j]])

    def exactly_one(self, lits: Sequence[int]) -> None:
        """Exactly one of *lits* is true."""
        self.at_least_one(lits)
        self.at_most_one(lits)

    # -- gate consistency ------------------------------------------------------

    def iff(self, a: int, b: int) -> None:
        """Constrain ``a <-> b``."""
        self.add_clause([-a, b])
        self.add_clause([a, -b])

    def implies_clause(self, a: int, lits: Sequence[int]) -> None:
        """Constrain ``a -> (l1 | l2 | ...)``."""
        self.add_clause([-a, *lits])

    def xor_gate(self, out: int, a: int, b: int) -> None:
        """Constrain ``out <-> a ^ b``."""
        self.add_clause([-out, a, b])
        self.add_clause([-out, -a, -b])
        self.add_clause([out, -a, b])
        self.add_clause([out, a, -b])

    def and_gate(self, out: int, ins: Sequence[int]) -> None:
        """Constrain ``out <-> AND(ins)``."""
        for lit in ins:
            self.add_clause([-out, lit])
        self.add_clause([out, *(-lit for lit in ins)])

    def or_gate(self, out: int, ins: Sequence[int]) -> None:
        """Constrain ``out <-> OR(ins)``."""
        for lit in ins:
            self.add_clause([out, -lit])
        self.add_clause([-out, *ins])

    def maj_gate(self, out: int, a: int, b: int, c: int) -> None:
        """Constrain ``out <-> <abc>`` — Eq. (4) of the paper in CNF.

        Any two true inputs force the output true; any two false inputs
        force it false.
        """
        self.add_clause([-a, -b, out])
        self.add_clause([-a, -c, out])
        self.add_clause([-b, -c, out])
        self.add_clause([a, b, -out])
        self.add_clause([a, c, -out])
        self.add_clause([b, c, -out])

    def mux_gate(self, out: int, sel: int, when_true: int, when_false: int) -> None:
        """Constrain ``out <-> (sel ? when_true : when_false)``."""
        self.add_clause([-sel, -when_true, out])
        self.add_clause([-sel, when_true, -out])
        self.add_clause([sel, -when_false, out])
        self.add_clause([sel, when_false, -out])

    # -- solving ---------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: int | None = None,
        deadline: float | None = None,
    ) -> bool | None:
        """Solve the accumulated formula; the builder's *budget* deadline
        (when set) caps the wall clock."""
        if self.budget is not None and self.budget.deadline is not None:
            deadline = (
                self.budget.deadline
                if deadline is None
                else min(deadline, self.budget.deadline)
            )
        return self.solver.solve(
            assumptions=assumptions,
            conflict_budget=conflict_budget,
            deadline=deadline,
        )

    def value(self, lit: int) -> bool:
        """Model value of a literal after a SAT answer."""
        return self.solver.model_value(lit)
