"""Frozen BLIF writer for the writing differential test.

A deliberate snapshot of ``repro.io.blif.write_blif`` as it was before
the table-driven writer replaced it: one name-helper call per fanin,
every cover row built one character at a time, one ``write`` per line.
The function body is copied byte for byte; only the module around it
is new.

**Do not refactor this file alongside src/** — its value is that it
stays behind as the oracle: on every network whose names collide with
none of the writer's internal names, the shipped writer must produce
the same text byte for byte (tests/io/test_writer_differential.py,
benchmarks/bench_kernel.py).
"""

from __future__ import annotations

from typing import TextIO

from repro.core.mig import Mig

__all__ = ["write_blif"]


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
