"""ISCAS ``.bench`` format support.

The .bench netlist format (used by the ISCAS-85/89 suites and by many
academic tools) describes combinational logic as named gates::

    INPUT(a)
    OUTPUT(f)
    t = AND(a, b)
    f = NOT(t)

Reading checks each gate's operand count, maps it to majority logic and
resolves signals through :func:`repro.io.netlist.resolve`; writing
decomposes majority gates into the AND/OR/NOT vocabulary.  Only
combinational constructs are supported (no DFF), matching the paper's
scope.
"""

from __future__ import annotations

import re
from typing import TextIO

from ..core.mig import CONST0, CONST1, Mig, signal_not
from .netlist import check_inputs, define, resolve

__all__ = ["read_bench", "write_bench"]

_LINE_RE = re.compile(r"^\s*(\S+)\s*=\s*([A-Za-z][A-Za-z0-9]*)\s*\(([^)]*)\)\s*$")


#: Operand count of each gate: (minimum, maximum or None for any).
_ARITY = {
    "AND": (1, None),
    "NAND": (1, None),
    "OR": (1, None),
    "NOR": (1, None),
    "XOR": (1, None),
    "XNOR": (1, None),
    "NOT": (1, 1),
    "BUF": (1, 1),
    "BUFF": (1, 1),
    "MAJ": (3, 3),
    "CONST0": (0, 0),
    "GND": (0, 0),
    "CONST1": (0, 0),
    "VDD": (0, 0),
}


def read_bench(fp: TextIO) -> Mig:
    """Read a combinational .bench file into an MIG.

    Gates may appear in any order and chain to any depth.  An unknown
    gate, a wrong operand count, a cycle, a signal defined twice or an
    undriven one raises :class:`ValueError`.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    gates: dict[str, tuple[list[str], str]] = {}
    for raw in fp:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith("INPUT(") and line.endswith(")"):
            inputs.append(line[line.index("(") + 1 : -1].strip())
            continue
        if upper.startswith("OUTPUT(") and line.endswith(")"):
            outputs.append(line[line.index("(") + 1 : -1].strip())
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise ValueError(f"unsupported .bench line: {line!r}")
        target, op, arg_text = match.groups()
        op = op.upper()
        args = [a.strip() for a in arg_text.split(",") if a.strip()]
        if op not in _ARITY:
            raise ValueError(f"unsupported .bench gate {op!r}")
        low, high = _ARITY[op]
        if len(args) < low or (high is not None and len(args) > high):
            count = f"exactly {low}" if low == high else f"at least {low}"
            raise ValueError(f"{op} gate {target!r} takes {count} operands, got {len(args)}")
        define(gates, target, (args, op))
    check_inputs(inputs, gates)

    mig = Mig(name="bench")
    signals = {name: mig.add_pi(name) for name in inputs}

    def tree(op_fn, operands: list[int]) -> int:
        acc = operands[0]
        for s in operands[1:]:
            acc = op_fn(acc, s)
        return acc

    def make(arg_names: list[str], op: str) -> int:
        args = [signals[a] for a in arg_names]
        if op == "AND":
            return tree(mig.and_, args)
        if op == "NAND":
            return signal_not(tree(mig.and_, args))
        if op == "OR":
            return tree(mig.or_, args)
        if op == "NOR":
            return signal_not(tree(mig.or_, args))
        if op == "XOR":
            return tree(mig.xor, args)
        if op == "XNOR":
            return signal_not(tree(mig.xor, args))
        if op == "NOT":
            return signal_not(args[0])
        if op in ("BUF", "BUFF"):
            return args[0]
        if op == "MAJ":
            return mig.maj(*args)
        return CONST0 if op in ("CONST0", "GND") else CONST1

    resolve(outputs, signals, gates, make)
    for name in outputs:
        mig.add_po(signals[name], name)
    return mig


def write_bench(mig: Mig, fp: TextIO) -> None:
    """Write *mig* in .bench format (majority decomposed as AND/OR/NOT)."""
    fp.write(f"# {mig.name}\n")
    for name in mig.pi_names:
        fp.write(f"INPUT({name})\n")
    for name in mig.output_names:
        fp.write(f"OUTPUT({name})\n")

    def base_name(node: int) -> str:
        if node == 0:
            return "const0"
        if mig.is_pi(node):
            return mig.pi_names[node - 1]
        return f"n{node}"

    names: dict[int, str] = {}  # signal -> emitted name
    counter = [0]

    uses_const = any(
        (s >> 1) == 0 for g in mig.gates() for s in mig.fanins(g)
    ) or any((s >> 1) == 0 for s in mig.outputs)
    if uses_const:
        fp.write("const0 = CONST0()\n")

    def emit(signal: int) -> str:
        if signal in names:
            return names[signal]
        node = signal >> 1
        if signal & 1:
            positive = emit(signal ^ 1)
            inv = f"{base_name(node)}_bar"
            fp.write(f"{inv} = NOT({positive})\n")
            names[signal] = inv
            return inv
        if not mig.is_gate(node):
            names[signal] = base_name(node)
            return names[signal]
        a, b, c = mig.fanins(node)
        na, nb, nc = emit(a), emit(b), emit(c)
        name = base_name(node)
        counter[0] += 1
        fp.write(f"{name}_ab = AND({na}, {nb})\n")
        fp.write(f"{name}_ac = AND({na}, {nc})\n")
        fp.write(f"{name}_bc = AND({nb}, {nc})\n")
        fp.write(f"{name} = OR({name}_ab, {name}_ac, {name}_bc)\n")
        names[signal] = name
        return name

    for name, s in zip(mig.output_names, mig.outputs):
        source = emit(s)
        if source != name:
            fp.write(f"{name} = BUFF({source})\n")
