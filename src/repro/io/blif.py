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
    """Write *mig* in BLIF format (one ``.names`` per majority gate).

    Gate ``g`` is named ``n{g}`` and the constant ``const0``, unless a
    PI or PO name takes one of them: then every gate name gets a longer
    prefix (``n_{g}``, ``n__{g}``, ...) and the constant a longer name
    until none collides.  Each output gets a one-row buffer from its
    signal, except an output that is the uncomplemented PI of the same
    name, which ``.inputs a`` / ``.outputs a`` already carry.  What BLIF
    cannot carry raises :class:`ValueError`: a PI or PO name that is not
    one token (empty, holding whitespace or ``#``, or ending in a
    backslash), two PIs of one name, two same-named outputs on different
    signals, and an output named like a PI that does not drive it.  The text is joined in memory and written with one call.
    """
    model = model_name if model_name is not None else (mig.name or "mig")
    fanins = mig._fanins
    n = len(fanins)
    first_gate = mig.num_pis + 1
    pi_names = mig.pi_names
    const_name, gate_names, buffers = _layout(mig)
    names = [const_name, *pi_names, *gate_names]

    parts = [
        f".model {model}\n.inputs {' '.join(pi_names)}\n"
        f".outputs {' '.join(mig.output_names)}\n",
        "",  # the constant's empty cover, if anything reads it
    ]
    uses_const = False
    rows = _MAJ_ROWS
    for g in range(first_gate, n):
        a, b, c = fanins[g]  # type: ignore[misc]
        if a < 2 or b < 2 or c < 2:
            uses_const = True
        parts.append(
            f".names {names[a >> 1]} {names[b >> 1]} {names[c >> 1]} {names[g]}\n"
            f"{rows[(a & 1) | (b & 1) << 1 | (c & 1) << 2]}"
        )
    for name, s in buffers:
        if s < 2:
            uses_const = True
        parts.append(f".names {names[s >> 1]} {name}\n{'0' if s & 1 else '1'} 1\n")
    parts.append(".end\n")
    if uses_const:
        parts[1] = f".names {const_name}\n"  # empty cover = constant 0
    fp.write("".join(parts))


#: The three cover rows of a majority gate, indexed by its fanins'
#: complement bits (bit i for fanin i).  Each row asks two of the three
#: inputs for the value that makes them true (0 for a complemented
#: fanin) and leaves the third a don't-care.
_MAJ_ROWS = tuple(
    "".join(
        "".join("-" if i == free else "10"[(bits >> i) & 1] for i in range(3)) + " 1\n"
        for free in (2, 1, 0)
    )
    for bits in range(8)
)


def _layout(mig: Mig) -> tuple[str, list[str], list[tuple[str, int]]]:
    """Check that BLIF can carry *mig*'s names; choose the internal ones.

    Returns the constant's name, the gate names in node order and the
    ``(name, signal)`` buffers to write, one per distinct output name
    that is not its own PI.
    """
    pis: dict[str, int] = {}
    for i, name in enumerate(mig.pi_names):
        _check_token("input", name)
        if name in pis:
            raise ValueError(f"input name {name!r} is used twice; BLIF cannot carry it")
        pis[name] = (i + 1) << 1
    signals: dict[str, int] = {}
    buffers = []
    for name, s in zip(mig.output_names, mig.outputs):
        _check_token("output", name)
        if name in signals:
            if signals[name] != s:
                raise ValueError(
                    f"outputs named {name!r} are on different signals; BLIF cannot carry them"
                )
            continue
        signals[name] = s
        if name in pis:
            if pis[name] != s:
                raise ValueError(
                    f"output {name!r} is named like an input that does not drive it; "
                    "BLIF cannot carry it"
                )
            continue
        buffers.append((name, s))
    taken = pis.keys() | signals.keys()
    const_name = "const0"
    while const_name in taken:
        const_name += "_"
    prefix = "n"
    while True:
        gate_names = [f"{prefix}{g}" for g in range(mig.num_pis + 1, mig.num_nodes)]
        if taken.isdisjoint(gate_names):
            return const_name, gate_names, buffers
        prefix += "_"


def _check_token(kind: str, name: str) -> None:
    """Raise unless *name* reads back from BLIF as the one token it is."""
    if name.split() != [name] or "#" in name or name.endswith("\\"):
        raise ValueError(
            f"{kind} name {name!r} is not a single BLIF token "
            "(empty, or holding whitespace, '#' or a final backslash)"
        )


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

    text = fp.read()
    if "\r" in text:
        # CRLF or CR endings: a backslash before them continues the line too.
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # Join continuation lines.
    text = text.replace("\\\n", " ")
    comments = "#" in text
    for line in text.splitlines():
        if comments and "#" in line:
            line = line.split("#", 1)[0]
        tok = line.split()
        if not tok:
            continue
        first = tok[0]
        if first[0] != ".":
            if rows is None:
                raise ValueError(f"cover row outside .names: {line.strip()!r}")
            if len(tok) == 2:
                rows.append((first, tok[1]))
            elif len(tok) == 1:
                rows.append(("", first))
            else:
                raise ValueError(f"cover row with more than two columns: {line.strip()!r}")
        elif first == ".names":
            if len(tok) < 2:
                raise ValueError(".names line without a target signal")
            rows = []
            define(covers, tok[-1], (tok[1:-1], rows))
        elif first == ".inputs":
            inputs.extend(tok[1:])
        elif first == ".outputs":
            outputs.extend(tok[1:])
        elif first == ".model":
            model = tok[1] if len(tok) > 1 else model
        elif first in (".end", ".exdc"):
            rows = None
        else:
            raise ValueError(f"unsupported BLIF construct: {first}")
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
