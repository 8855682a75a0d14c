"""Deep and mutated uploads through ``jobs.load_network(..., inline=True)``.

Serve parses untrusted BLIF, .bench and ASCII AIGER uploads through the
same loader the worker and the CLI use.  A legal netlist of any depth
must parse, and no mutation of a legal one may raise anything but
:class:`ValueError` — the exception serve turns into HTTP 400.
"""

from __future__ import annotations

import io
import random
import re
import time

import pytest

from repro.aig.convert import mig_to_aig
from repro.core.truth_table import tt_var
from repro.generators import resolve_generator
from repro.io.aiger import write_aag
from repro.io.bench import write_bench
from repro.io.blif import write_blif
from repro.runtime.jobs import load_network

DEPTH = 100_000


def _deep_chain(fmt: str, depth: int) -> str:
    """``f = a & b & a & b ...``: *depth* AND gates, listed output first."""
    if fmt == "blif":
        gates = "".join(
            f".names {'ab'[i % 2]} n{i - 1} n{i}\n11 1\n" for i in range(depth, 0, -1)
        )
        return f".model deep\n.inputs a b\n.outputs f\n.names n{depth} f\n1 1\n{gates}.names a n0\n1 1\n.end\n"
    if fmt == "bench":
        gates = "".join(
            f"n{i} = AND({'ab'[i % 2]}, n{i - 1})\n" for i in range(depth, 0, -1)
        )
        return f"INPUT(a)\nINPUT(b)\nOUTPUT(f)\nf = BUFF(n{depth})\n{gates}n0 = BUFF(a)\n"
    # Literal 2 is a, 4 is b.  AND k reads AND k - 1 and has the lower
    # literal, so ascending literal order is the reverse of the chain.
    def lhs(k: int) -> int:
        return 2 * (depth + 3 - k)

    rows = "".join(
        f"{lhs(k)} {lhs(k - 1) if k > 1 else 2} {2 + 2 * (k % 2)}\n"
        for k in range(depth, 0, -1)
    )
    return f"aag {depth + 2} 2 0 1 {depth}\n2\n4\n{lhs(depth)}\n{rows}"


@pytest.mark.parametrize("fmt", ["blif", "bench", "aag"])
def test_deep_reverse_ordered_chain_parses(fmt):
    mig = load_network({fmt: _deep_chain(fmt, DEPTH)}, inline=True)
    assert mig.num_pis == 2 and mig.num_pos == 1
    assert mig.num_gates == mig.depth() == DEPTH


def test_shallow_chain_function():
    """The chain generator builds a & b (checked once, where simulation is cheap)."""
    for fmt in ("blif", "bench", "aag"):
        mig = load_network({fmt: _deep_chain(fmt, 9)}, inline=True)
        assert mig.simulate()[0] == tt_var(2, 0) & tt_var(2, 1)


def _sources() -> dict[str, list[str]]:
    texts: dict[str, list[str]] = {"blif": [], "bench": [], "aag": []}
    for name, width in (("adder", 3), ("max", 2), ("voter", 5)):
        mig = resolve_generator(name, width=width)
        for fmt, write in (("blif", write_blif), ("bench", write_bench)):
            buf = io.StringIO()
            write(mig, buf)
            texts[fmt].append(buf.getvalue())
        buf = io.StringIO()
        write_aag(mig_to_aig(mig), buf)
        texts["aag"].append(buf.getvalue())
    return texts


_NAME = re.compile(r"[A-Za-z_][\w\[\]]*|\d+")


def _definitions(fmt: str, lines: list[str]) -> dict[str, tuple[int, list[str]]]:
    """Target -> (line index, fanin tokens) of every definition line."""
    found = {}
    for index, line in enumerate(lines):
        tokens = line.replace("(", " ").replace(")", " ").replace(",", " ").split()
        if fmt == "blif" and tokens[:1] == [".names"] and len(tokens) > 2:
            found[tokens[-1]] = (index, tokens[1:-1])
        elif fmt == "bench" and len(tokens) > 3 and tokens[1] == "=":
            found[tokens[0]] = (index, tokens[3:])
        elif fmt == "aag" and index > 0 and len(tokens) == 3 and all(t.isdigit() for t in tokens):
            found[str(int(tokens[0]) & ~1)] = (index, [str(int(t) & ~1) for t in tokens[1:]])
    return found


def _make_cycle(fmt: str, lines: list[str], rng: random.Random) -> None:
    """Make one operand of a gate's fanin the gate itself: a cycle."""
    defs = _definitions(fmt, lines)
    chains = [
        (target, fanin) for target, (_, fanins) in defs.items()
        for fanin in fanins if fanin in defs
    ]
    if not chains:
        return
    target, fanin = rng.choice(chains)
    index, _ = defs[fanin]
    words = lines[index].split(" ")
    # Rename one operand on the fanin's definition line to the gate,
    # so the fanin reads the gate that reads it.
    positions = [
        i for i, word in enumerate(words)
        if i > 0 and word.strip("(),") and _NAME.fullmatch(word.strip("(),"))
        and word.strip("(),") not in (".names", "=")
    ]
    if fmt == "blif":
        positions = positions[:-1]  # the last word is the target
    if not positions:
        return
    i = rng.choice(positions)
    word = words[i]
    stripped = word.strip("(),")
    replacement = target if fmt != "aag" else str(int(target) | rng.getrandbits(1))
    words[i] = word.replace(stripped, replacement, 1)
    lines[index] = " ".join(words)


def _mutate(fmt: str, text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        kind = rng.randrange(6)
        i = rng.randrange(len(lines))
        if kind == 0:
            del lines[i]
        elif kind == 1:
            lines.insert(i, lines[i])
        elif kind == 2:
            _make_cycle(fmt, lines, rng)
        elif kind == 3:
            j = rng.randrange(len(lines))
            a, b = lines[i].split(), lines[j].split()
            if a and b:
                x, y = rng.randrange(len(a)), rng.randrange(len(b))
                if i == j:
                    a[x], a[y] = a[y], a[x]
                    lines[i] = " ".join(a)
                else:
                    a[x], b[y] = b[y], a[x]
                    lines[i], lines[j] = " ".join(a), " ".join(b)
        elif kind == 4:
            cut = rng.randrange(sum(len(line) + 1 for line in lines) + 1)
            lines = "\n".join(lines)[:cut].split("\n")
        else:
            line = lines[i]
            at = rng.randrange(len(line) + 1)
            junk = "".join(rng.choice("()=,.-01 \t#\\\x00é-_xZ") for _ in range(rng.randint(1, 3)))
            lines[i] = line[:at] + junk + line[at:]
    return "\n".join(lines) + "\n"


def test_mutation_fuzz_only_raises_value_error():
    rng = random.Random(20240607)
    sources = _sources()
    deadline = time.monotonic() + 5.0
    tried = rejected = 0
    while time.monotonic() < deadline:
        fmt = rng.choice(sorted(sources))
        text = _mutate(fmt, rng.choice(sources[fmt]), rng)
        try:
            load_network({fmt: text}, inline=True)
        except ValueError:
            rejected += 1
        except Exception as exc:  # noqa: BLE001 - the property under test
            raise AssertionError(f"{type(exc).__name__} escaped the {fmt} reader on:\n{text}") from exc
        tried += 1
    assert tried >= 200 and rejected > 0, (tried, rejected)


@pytest.mark.parametrize("fmt", ["blif", "bench", "aag"])
def test_renamed_signal_cycle_is_reported(fmt):
    """The fuzz's cycle mutation on its own yields the typed cycle error."""
    rng = random.Random(3)
    text = _sources()[fmt][0]
    lines = text.splitlines()
    _make_cycle(fmt, lines, rng)
    with pytest.raises(ValueError, match="cycle"):
        load_network({fmt: "\n".join(lines) + "\n"}, inline=True)
