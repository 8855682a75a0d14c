"""Signal resolution shared by the netlist readers (BLIF, BENCH, AIGER).

Each format lists its definitions — ``.names`` covers, ``.bench`` gates,
AIGER AND rows — in any order, so a reader first collects them and then
builds each one after its fanins.  :func:`resolve` does that with an
explicit stack, so a legal chain of any depth parses, and it visits
fanins left to right and makes each node in post-order: the order of
the recursive walks it replaced, so node numbering did not change.

This module also owns the structural errors every reader reports the
same way, each a :class:`ValueError`: an undriven signal, a
combinational cycle (the message names a node on it), a signal defined
twice, an input declared twice, and a definition that drives an input.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

__all__ = ["define", "check_inputs", "resolve"]

K = TypeVar("K", bound=Hashable)
D = TypeVar("D")


def define(definitions: dict, key: Hashable, definition: object, noun: str = "signal") -> None:
    """Record *key*'s definition; a second definition of it is an error."""
    if key in definitions:
        raise ValueError(f"{noun} {key!r} is defined twice")
    definitions[key] = definition


def check_inputs(inputs: Iterable[K], definitions: Mapping[K, object], noun: str = "signal") -> None:
    """Reject an input declared twice or driven by a definition."""
    seen: set[K] = set()
    for key in inputs:
        if key in seen:
            raise ValueError(f"input {noun} {key!r} is declared twice")
        if key in definitions:
            raise ValueError(f"input {noun} {key!r} is also defined by the netlist")
        seen.add(key)


def resolve(
    roots: Iterable[K],
    signals: dict[K, int],
    definitions: Mapping[K, tuple[Sequence[K], D]],
    make: Callable[[Sequence[K], D], int],
    noun: str = "signal",
) -> None:
    """Build every root, and first its transitive fanins, into *signals*.

    *signals* holds the keys already built (the inputs and constants);
    *definitions* maps every other key to ``(fanins, payload)``.  A key
    is built by ``make(fanins, payload)`` once all its fanins are in
    *signals*, in the post-order of a depth-first walk from each root in
    turn that visits fanins left to right.
    """
    for root in roots:
        if root in signals:
            continue
        fanins, payload = _definition(definitions, root, noun)
        path = [(root, fanins, payload)]
        on_path = {root}
        stack = [iter(fanins)]
        while stack:
            for key in stack[-1]:
                if key in signals:
                    continue
                if key in on_path:
                    raise ValueError(f"combinational cycle through {noun} {key!r}")
                fanins, payload = _definition(definitions, key, noun)
                path.append((key, fanins, payload))
                on_path.add(key)
                stack.append(iter(fanins))
                break
            else:
                stack.pop()
                key, fanins, payload = path.pop()
                on_path.remove(key)
                signals[key] = make(fanins, payload)


def _definition(definitions: Mapping[K, tuple[Sequence[K], D]], key: K, noun: str):
    try:
        return definitions[key]
    except KeyError:
        raise ValueError(f"undriven {noun} {key!r}") from None
