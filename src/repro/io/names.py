"""The names a writer may give: one rule for every netlist format.

A network names itself and its ports (PIs and outputs); the constant and
the gates are nameless.  The writers name them by one rule,
:func:`internal_names`: the constant is ``const0``, gate ``g`` is
``n{g}``, and a helper derived from a node (a BENCH majority's ``_ab``
product, a complement's ``_bar``) joins the node's name and a tag with
``_``.  Where a port already holds such a name, the constant takes
trailing underscores (``const0_``), every gate a longer prefix
(``n_{g}``, ``n__{g}``) and the joiner more underscores, each until no
name collides.

:func:`check_names` raises :class:`ValueError`, naming the name, for
what a format cannot carry: a name that does not read back as the one
token it is, two PIs of one name, two outputs of one name on different
signals and an output named like a PI that does not drive it.  Verilog
declares each port once, so it carries no port name twice at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.mig import Mig

__all__ = ["InternalNames", "check_names", "internal_names"]

#: what a name that is not one token of each format holds
_NOT_A_TOKEN = {
    "BLIF": "empty, or holding whitespace, '#' or a final backslash",
    "BENCH": "empty, or holding whitespace, '#', '(', ')' or ','",
    "Verilog": "empty, or holding whitespace or a character outside printable ASCII",
}


def _is_token(fmt: str, name: str) -> bool:
    if fmt == "Verilog":
        # An escaped identifier: printable ASCII up to the space ending it.
        return name != "" and all("!" <= ch <= "~" for ch in name)
    if name.split() != [name] or "#" in name:
        return False
    if fmt == "BLIF":
        return not name.endswith("\\")  # a final backslash continues the line
    return not any(ch in name for ch in "(),")


def check_names(mig: Mig, fmt: str, model: str | None = None) -> list[tuple[str, int]]:
    """Raise :class:`ValueError` unless *fmt* can carry *mig*'s names.

    *fmt* is ``"BLIF"``, ``"BENCH"`` or ``"Verilog"``; *model*, when
    given, is the model (Verilog: module) name to check too.  Returns
    the ``(name, signal)`` outputs a writer must drive: one per distinct
    output name that is not the name of the PI it is.
    """
    if model is not None and not _is_token(fmt, model):
        kind = "module" if fmt == "Verilog" else "model"
        raise ValueError(
            f"{kind} name {model!r} is not a single {fmt} token ({_NOT_A_TOKEN[fmt]})"
        )
    for kind, names in (("input", mig.pi_names), ("output", mig.output_names)):
        for name in names:
            if not _is_token(fmt, name):
                raise ValueError(
                    f"{kind} name {name!r} is not a single {fmt} token "
                    f"({_NOT_A_TOKEN[fmt]})"
                )
    pis: dict[str, int] = {}
    for i, name in enumerate(mig.pi_names):
        if name in pis:
            raise ValueError(f"input name {name!r} is used twice; {fmt} cannot carry it")
        pis[name] = (i + 1) << 1
    signals: dict[str, int] = {}
    drive = []
    for name, s in zip(mig.output_names, mig.outputs):
        if fmt == "Verilog" and (name in pis or name in signals):
            raise ValueError(f"port name {name!r} is used twice; Verilog cannot carry it")
        if name in signals:
            if signals[name] != s:
                raise ValueError(
                    f"outputs named {name!r} are on different signals; {fmt} cannot carry them"
                )
            continue
        signals[name] = s
        if name in pis:
            if pis[name] != s:
                raise ValueError(
                    f"output {name!r} is named like an input that does not drive it; "
                    f"{fmt} cannot carry it"
                )
            continue
        drive.append((name, s))
    return drive


@dataclass(frozen=True)
class InternalNames:
    """What :func:`internal_names` chose."""

    #: the constant's name
    const: str
    #: the gates' names in node order
    gates: list[str]
    #: what joins a node's name to a helper's tag
    sep: str


def internal_names(mig: Mig, tags: Iterable[str] = ()) -> InternalNames:
    """Name *mig*'s constant and gates, and the helpers *tags* derive.

    No chosen name, and no helper name ``{node}{sep}{tag}`` of the
    constant, a PI or a gate, equals a PI or output name.
    """
    taken = {*mig.pi_names, *mig.output_names}
    const = "const0"
    while const in taken:
        const += "_"
    prefix = "n"
    while True:
        gates = [f"{prefix}{g}" for g in range(mig.num_pis + 1, mig.num_nodes)]
        if taken.isdisjoint(gates):
            break
        prefix += "_"
    sep = "_"
    suffixes = tuple(tags)
    if suffixes:
        nodes = {const, *mig.pi_names, *gates}
        while any(
            name.endswith(sep + tag) and name[: -len(sep + tag)] in nodes
            for name in taken
            for tag in suffixes
        ):
            sep += "_"
    return InternalNames(const, gates, sep)
