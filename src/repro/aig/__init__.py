"""And-Inverter Graph substrate: data structure, conversion, balancing."""

from .aig import Aig
from .convert import aig_to_mig, mig_to_aig
from .balance import balance
from .rewrite import aig_class_cost, build_function_into_aig, rewrite_aig

__all__ = [
    "Aig",
    "aig_to_mig",
    "mig_to_aig",
    "balance",
    "rewrite_aig",
    "aig_class_cost",
    "build_function_into_aig",
]
