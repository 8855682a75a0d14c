"""SAT substrate: CDCL solver, CNF helpers, SAT sweeping and CEC."""

from .solver import SAT, UNKNOWN, UNSAT, Solver
from .cnf import CnfBuilder
from .cec import CecResult, check_equivalence_sat

__all__ = [
    "Solver",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "CnfBuilder",
    "CecResult",
    "check_equivalence_sat",
]
