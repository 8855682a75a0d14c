"""Core representations: truth tables, NPN classification, MIGs, and cuts."""

from .npn import NPNTransform, apply_transform, npn_canonize, enumerate_npn_classes
from .mig import (
    CONST0,
    CONST1,
    Mig,
    make_signal,
    signal_is_complemented,
    signal_node,
    signal_not,
)
from .cuts import enumerate_cut_set
from .simulate import check_equivalence, equivalent_exhaustive, equivalent_random

__all__ = [
    "NPNTransform",
    "apply_transform",
    "npn_canonize",
    "enumerate_npn_classes",
    "Mig",
    "CONST0",
    "CONST1",
    "make_signal",
    "signal_not",
    "signal_node",
    "signal_is_complemented",
    "enumerate_cut_set",
    "check_equivalence",
    "equivalent_exhaustive",
    "equivalent_random",
]
