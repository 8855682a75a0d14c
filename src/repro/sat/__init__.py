"""SAT substrate: CDCL solver, CNF helpers, DIMACS I/O, SAT sweeping,
CEC, and the pluggable backend portfolio (external kissat/CaDiCaL
racing)."""

from .solver import SAT, UNKNOWN, UNSAT, Solver
from .cnf import CnfBuilder
from .dimacs import load_into_solver, parse_dimacs, write_dimacs
from .cec import CecResult, check_equivalence_sat
from .backends import (
    BackendResult,
    DimacsSubprocessBackend,
    InternalBackend,
    SolverBackend,
    discover_backends,
    validate_model,
)
from .portfolio import BACKEND_MODES, PortfolioSolver, resolve_backend

__all__ = [
    "Solver",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "CnfBuilder",
    "write_dimacs",
    "parse_dimacs",
    "load_into_solver",
    "CecResult",
    "check_equivalence_sat",
    "BackendResult",
    "SolverBackend",
    "InternalBackend",
    "DimacsSubprocessBackend",
    "discover_backends",
    "validate_model",
    "PortfolioSolver",
    "resolve_backend",
    "BACKEND_MODES",
]
