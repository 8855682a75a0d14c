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

#: the reserved words of Verilog-2005 (IEEE 1364-2005, Annex B); a port
#: or module named like one is written as an escaped identifier
_KEYWORDS = frozenset(
    """
    always and assign automatic begin buf bufif0 bufif1 case casex casez cell
    cmos config deassign default defparam design disable edge else end endcase
    endconfig endfunction endgenerate endmodule endprimitive endspecify endtable
    endtask event for force forever fork function generate genvar highz0 highz1
    if ifnone incdir include initial inout input instance integer join large
    liblist library localparam macromodule medium module nand negedge nmos nor
    noshowcancelled not notif0 notif1 or output parameter pmos posedge
    primitive pull0 pull1 pulldown pullup pulsestyle_ondetect
    pulsestyle_onevent rcmos real realtime reg release repeat rnmos rpmos rtran
    rtranif0 rtranif1 scalared showcancelled signed small specify specparam
    strong0 strong1 supply0 supply1 table task time tran tranif0 tranif1 tri
    tri0 tri1 triand trior trireg unsigned use uwire vectored wait wand weak0
    weak1 while wire wor xnor xor
    """.split()
)


def _escape(name: str) -> str:
    """Make a signal name Verilog-safe: a plain identifier stays as it
    is, anything else (a reserved word included) is escaped."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name) and name not in _KEYWORDS:
        return name
    return "\\" + name + " "


def write_verilog(mig: Mig, fp: TextIO, module_name: str | None = None) -> None:
    """Write *mig* as a structural Verilog module.

    The module and its ports are escaped identifiers where they are not
    plain ones or are Verilog-2005 reserved words; the gate wires are
    named by :func:`repro.io.names.internal_names` (``n{g}`` unless a
    port takes one of those names).
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
