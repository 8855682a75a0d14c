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
from .names import check_names, internal_names
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
    """Write *mig* in .bench format (majority decomposed as AND/OR/NOT).

    Gate ``g`` is ``n{g} = OR(n{g}_ab, n{g}_ac, n{g}_bc)`` over three
    ANDs, a complemented signal ``s`` is ``s_bar = NOT(s)`` and the
    constant is ``const0 = CONST0()``; :func:`repro.io.names.
    internal_names` lengthens these names where a port takes one.  What
    BENCH cannot carry raises :class:`ValueError`
    (:func:`repro.io.names.check_names`): a PI or PO name that is not
    one token (empty, or holding whitespace, ``#``, ``(``, ``)`` or
    ``,``), two PIs of one name, two same-named outputs on different
    signals, and an output named like a PI that does not drive it.
    """
    buffers = check_names(mig, "BENCH")
    internal = internal_names(mig, ("ab", "ac", "bc", "bar"))
    base = [internal.const, *mig.pi_names, *internal.gates]
    sep = internal.sep
    fp.write(f"# {mig.name}\n")
    for name in mig.pi_names:
        fp.write(f"INPUT({name})\n")
    for name in mig.output_names:
        fp.write(f"OUTPUT({name})\n")

    names: dict[int, str] = {}  # signal -> emitted name

    uses_const = any(
        (s >> 1) == 0 for g in mig.gates() for s in mig.fanins(g)
    ) or any((s >> 1) == 0 for s in mig.outputs)
    if uses_const:
        fp.write(f"{internal.const} = CONST0()\n")

    def emit(root: int) -> str:
        """Name *root*, writing its undefined cone first in post-order.

        An explicit stack, so deep networks never hit the recursion
        limit: the top signal is written once its operands are named,
        and the first unnamed operand is pushed otherwise, which keeps
        the order a recursive walk over ``a``, ``b``, ``c`` writes in.
        """
        stack = [root]
        while stack:
            signal = stack[-1]
            if signal in names:
                stack.pop()
                continue
            node = signal >> 1
            if signal & 1:
                positive = names.get(signal ^ 1)
                if positive is None:
                    stack.append(signal ^ 1)
                    continue
                inv = f"{base[node]}{sep}bar"
                fp.write(f"{inv} = NOT({positive})\n")
                names[signal] = inv
            elif mig.is_gate(node):
                fanin = mig.fanins(node)
                pending = [s for s in fanin if s not in names]
                if pending:
                    stack.append(pending[0])
                    continue
                name = base[node]
                na, nb, nc = (names[s] for s in fanin)
                ab, ac, bc = (f"{name}{sep}{tag}" for tag in ("ab", "ac", "bc"))
                fp.write(f"{ab} = AND({na}, {nb})\n")
                fp.write(f"{ac} = AND({na}, {nc})\n")
                fp.write(f"{bc} = AND({nb}, {nc})\n")
                fp.write(f"{name} = OR({ab}, {ac}, {bc})\n")
                names[signal] = name
            else:
                names[signal] = base[node]
            stack.pop()
        return names[root]

    for name, s in buffers:
        fp.write(f"{name} = BUFF({emit(s)})\n")
