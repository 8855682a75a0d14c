"""BLIF reading and writing for MIGs.

The Berkeley Logic Interchange Format is the lingua franca of academic
logic-synthesis tools (ABC, SIS, mockturtle).  Writing emits one
``.names`` cover per majority gate.  Reading accepts arbitrary
combinational single-output covers of up to 6 inputs.  Like functional
hashing itself, it synthesizes each distinct cover once: the heuristic
synthesizer's gates for a cover are cached as a template
(:func:`cover_template`) and replayed for every cover with the same
rows.  Signals are resolved by :func:`repro.io.netlist.resolve`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TextIO

from ..core.mig import CONST0, Mig
from ..core.truth_table import tt_mask
from ..exact.heuristic import heuristic_mig
from .netlist import check_inputs, define, resolve

__all__ = ["write_blif", "read_blif", "cover_template"]


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


def read_blif(fp: TextIO) -> Mig:
    """Read a combinational BLIF model into an MIG.

    Supports ``.names`` covers with up to 6 inputs, in any order and to
    any depth.  Each cover becomes the majority gates of its cached
    template (:func:`cover_template`); a malformed cover, a cycle, a
    signal defined twice or an undriven one raises :class:`ValueError`.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    model = "blif"
    covers: dict[str, tuple[list[str], list[tuple[str, str]]]] = {}
    rows: list[tuple[str, str]] | None = None

    # Join continuation lines.
    text = fp.read().replace("\\\n", " ")
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == ".model":
            model = tok[1] if len(tok) > 1 else model
        elif tok[0] == ".inputs":
            inputs.extend(tok[1:])
        elif tok[0] == ".outputs":
            outputs.extend(tok[1:])
        elif tok[0] == ".names":
            if len(tok) < 2:
                raise ValueError(".names line without a target signal")
            rows = []
            define(covers, tok[-1], (tok[1:-1], rows))
        elif tok[0] in (".end", ".exdc"):
            rows = None
        elif tok[0].startswith("."):
            raise ValueError(f"unsupported BLIF construct: {tok[0]}")
        else:
            if rows is None:
                raise ValueError(f"cover row outside .names: {line!r}")
            if len(tok) > 2:
                raise ValueError(f"cover row with more than two columns: {line!r}")
            rows.append(("", tok[0]) if len(tok) == 1 else (tok[0], tok[1]))
    check_inputs(inputs, covers)

    mig = Mig(name=model)
    signals = {name: mig.add_pi(name) for name in inputs}

    def make(fanins: list[str], cover_rows: list[tuple[str, str]]) -> int:
        rows = tuple(cover_rows)
        synthesize = cover_template if len(rows) <= _MAX_CACHED_ROWS else cover_template.__wrapped__
        return _inline(mig, synthesize(len(fanins), rows), [signals[name] for name in fanins])

    resolve(outputs, signals, covers, make)
    for name in outputs:
        mig.add_po(signals[name], name)
    return mig


#: A template is the gate list of the cover's function synthesized by
#: :func:`heuristic_mig` (already cleaned up): the fanin triples of its
#: gates, numbered after the constant and the cover's inputs, and its
#: output signal.
Template = tuple[tuple[tuple[int, int, int], ...], int]

#: Distinct rows a cover of at most 6 inputs can have (each column 0, 1
#: or -).  Longer covers repeat rows; they are built but not cached, so
#: one cache entry stays small whatever an upload contains.
_MAX_CACHED_ROWS = 3**6


@lru_cache(maxsize=256)
def cover_template(n: int, rows: tuple[tuple[str, str], ...]) -> Template:
    """Validate an *n*-input cover and synthesize its gate template.

    Netlists repeat a handful of covers many times (``write_blif`` emits
    one per majority polarity pattern), so the template is cached on the
    cover text; the cache is bounded because serve parses untrusted
    uploads in a long-lived daemon.  Errors are raised, never cached.
    """
    if n > 6:
        raise ValueError(f"cover with {n} inputs exceeds the supported maximum of 6")
    outs = set()
    tt = 0
    for pattern, out in rows:
        if len(pattern) != n:
            raise ValueError(f"cover row {pattern!r} has {len(pattern)} columns for {n} inputs")
        if out not in ("0", "1"):
            raise ValueError(f"cover row output {out!r} is neither 0 nor 1")
        if pattern.strip("01-"):
            raise ValueError(f"cover row {pattern!r} has a column other than 0, 1 or -")
        outs.add(out)
        care = sum(1 << i for i, ch in enumerate(pattern) if ch != "-")
        value = sum(1 << i for i, ch in enumerate(pattern) if ch == "1")
        for m in range(1 << n):
            if m & care == value:
                tt |= 1 << m
    if len(outs) > 1:
        raise ValueError("BLIF cover mixes on-set and off-set rows")
    if "0" in outs:
        tt ^= tt_mask(n)
    sub = heuristic_mig(tt, n)
    return tuple(sub.fanins(g) for g in sub.gates()), sub.outputs[0]


def _inline(mig: Mig, template: Template, fanins: list[int]) -> int:
    """Replay *template* in *mig* over already-built *fanins*."""
    gates, out = template
    nodes = [CONST0, *fanins]
    for a, b, c in gates:
        nodes.append(
            mig.maj(
                nodes[a >> 1] ^ (a & 1),
                nodes[b >> 1] ^ (b & 1),
                nodes[c >> 1] ^ (c & 1),
            )
        )
    return nodes[out >> 1] ^ (out & 1)
