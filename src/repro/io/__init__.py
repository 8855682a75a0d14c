"""File formats: structural Verilog, BLIF, ISCAS .bench and AIGER.

The three readers (BLIF, .bench, ASCII and binary AIGER) share one
iterative signal resolver, :mod:`repro.io.netlist`: definitions may come
in any order and chain to any depth, and a structural defect — an
undriven signal, a combinational cycle, a duplicate definition, an input
declared twice or redefined — raises :class:`ValueError`, as does a
malformed cover, gate or AND row.  Serve turns these into HTTP 400.
"""

from .verilog import write_verilog
from .blif import read_blif, write_blif
from .aiger import read_aag, read_aig_binary, write_aag, write_aig_binary
from .bench import read_bench, write_bench

__all__ = [
    "write_verilog",
    "read_blif",
    "write_blif",
    "read_aag",
    "write_aag",
    "read_aig_binary",
    "write_aig_binary",
    "read_bench",
    "write_bench",
]
