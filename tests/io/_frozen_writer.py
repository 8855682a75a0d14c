"""Frozen BLIF and BENCH writers for the writing differential test.

Deliberate snapshots of two writers:

* ``repro.io.blif.write_blif`` as it was before the table-driven writer
  replaced it: one name-helper call per fanin, every cover row built one
  character at a time, one ``write`` per line;
* ``repro.io.bench.write_bench`` as it was while it emitted gates
  through a recursive ``emit``, one Python frame per level (two through
  a complement), which raised ``RecursionError`` on deep networks.

The function bodies are copied byte for byte; only the module around
them is new.

**Do not refactor this file alongside src/** — its value is that it
stays behind as the oracle: on every network whose names collide with
none of the writer's internal names, the shipped BLIF writer must
produce the same text byte for byte, and on every network shallow
enough for the recursion, the shipped BENCH writer must too
(tests/io/test_writer_differential.py, benchmarks/bench_kernel.py).
"""

from __future__ import annotations

from typing import TextIO

from repro.core.mig import Mig
from repro.io.names import check_names, internal_names

__all__ = ["write_blif", "write_bench"]


def write_blif(mig: Mig, fp: TextIO, model_name: str | None = None) -> None:
    """Write *mig* in BLIF format (one ``.names`` per majority gate)."""
    model = model_name if model_name is not None else (mig.name or "mig")
    fp.write(f".model {model}\n")
    fp.write(".inputs " + " ".join(mig.pi_names) + "\n")
    fp.write(".outputs " + " ".join(mig.output_names) + "\n")

    def node_name(node: int) -> str:
        if node == 0:
            return "const0"
        if mig.is_pi(node):
            return mig.pi_names[node - 1]
        return f"n{node}"

    uses_const = any(
        (s >> 1) == 0 for g in mig.gates() for s in mig.fanins(g)
    ) or any((s >> 1) == 0 for s in mig.outputs)
    if uses_const:
        fp.write(".names const0\n")  # empty cover = constant 0

    for g in mig.gates():
        fanins = mig.fanins(g)
        names = [node_name(s >> 1) for s in fanins]
        fp.write(f".names {names[0]} {names[1]} {names[2]} n{g}\n")
        # Majority with per-input polarity baked into the cover rows.
        pols = [0 if (s & 1) else 1 for s in fanins]  # value making input "true"
        for pair in ((0, 1), (0, 2), (1, 2)):
            row = []
            for i in range(3):
                row.append(str(pols[i]) if i in pair else "-")
            fp.write("".join(row) + " 1\n")

    for name, s in zip(mig.output_names, mig.outputs):
        src = node_name(s >> 1)
        if s & 1:
            fp.write(f".names {src} {name}\n0 1\n")
        else:
            fp.write(f".names {src} {name}\n1 1\n")
    fp.write(".end\n")


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

    def emit(signal: int) -> str:
        if signal in names:
            return names[signal]
        node = signal >> 1
        if signal & 1:
            positive = emit(signal ^ 1)
            inv = f"{base[node]}{sep}bar"
            fp.write(f"{inv} = NOT({positive})\n")
            names[signal] = inv
            return inv
        name = base[node]
        if mig.is_gate(node):
            a, b, c = mig.fanins(node)
            na, nb, nc = emit(a), emit(b), emit(c)
            ab, ac, bc = (f"{name}{sep}{tag}" for tag in ("ab", "ac", "bc"))
            fp.write(f"{ab} = AND({na}, {nb})\n")
            fp.write(f"{ac} = AND({na}, {nc})\n")
            fp.write(f"{bc} = AND({nb}, {nc})\n")
            fp.write(f"{name} = OR({ab}, {ac}, {bc})\n")
        names[signal] = name
        return name

    for name, s in buffers:
        fp.write(f"{name} = BUFF({emit(s)})\n")
