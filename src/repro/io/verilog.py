"""Structural Verilog export of MIGs.

Writes a flat gate-level netlist using ``assign`` statements with the
majority expressed as the standard AND/OR sum-of-pairs form, so the output
is accepted by any synthesis or simulation tool.  This mirrors how MIG
tools (CirKit / mockturtle) export networks for interoperability.
"""

from __future__ import annotations

import re
from typing import TextIO

from ..core.mig import Mig
from .names import check_names, internal_names

__all__ = ["write_verilog"]


def _escape(name: str) -> str:
    """Make a signal name Verilog-safe."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        return name
    return "\\" + name + " "


def write_verilog(mig: Mig, fp: TextIO, module_name: str | None = None) -> None:
    """Write *mig* as a structural Verilog module.

    The module and its ports are escaped identifiers where they are not
    plain ones; the gate wires are named by :func:`repro.io.names.
    internal_names` (``n{g}`` unless a port takes one of those names).
    What Verilog cannot carry raises :class:`ValueError`
    (:func:`repro.io.names.check_names`): a module or port name that is
    empty or holds whitespace or a character outside printable ASCII,
    and a name that two ports share.
    """
    module = module_name if module_name is not None else (mig.name or "mig")
    check_names(mig, "Verilog", module)
    gate_names = internal_names(mig).gates
    pi_names = [_escape(n) for n in mig.pi_names]
    po_names = [_escape(n) for n in mig.output_names]
    ports = ", ".join(pi_names + po_names)
    fp.write(f"module {_escape(module)}({ports});\n")
    if pi_names:
        fp.write("  input " + ", ".join(pi_names) + ";\n")
    if po_names:
        fp.write("  output " + ", ".join(po_names) + ";\n")
    names = ["1'b0", *pi_names, *gate_names]

    def ref(signal: int) -> str:
        base = names[signal >> 1]
        if signal & 1:
            return f"(~{base})" if base != "1'b0" else "1'b1"
        return base

    if gate_names:
        fp.write("  wire " + ", ".join(gate_names) + ";\n")
    for g, name in enumerate(gate_names, start=mig.num_pis + 1):
        a, b, c = (ref(s) for s in mig.fanins(g))
        fp.write(f"  assign {name} = ({a} & {b}) | ({a} & {c}) | ({b} & {c});\n")
    for name, s in zip(po_names, mig.outputs):
        fp.write(f"  assign {name} = {ref(s)};\n")
    fp.write("endmodule\n")
