"""Output oracle: evaluates netlist text independently of the program under test.

Parses BLIF (``.names`` SOP covers), BENCH (AND/OR/NAND/NOR/XOR/XNOR/NOT/
BUF/MAJ/constants) and ASCII AIGER, and simulates them bit-parallel with
Python integers — exhaustively up to :data:`EXHAUSTIVE_LIMIT` inputs,
on seeded random vectors above.  Nothing here imports ``repro``: the
simulation engine and verifier are part of what the benchmark measures.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

EXHAUSTIVE_LIMIT = 16
RANDOM_VECTORS = 4096


@dataclass
class Netlist:
    """Named inputs, named outputs and one evaluator per driven signal."""

    inputs: list[str]
    outputs: list[str]
    #: signal -> (fanin signals, function of fanin words and the mask)
    gates: dict[str, tuple[list[str], object]] = field(default_factory=dict)
    #: output name -> the signal it reads (AIGER outputs are literals)
    sources: dict[str, str] = field(default_factory=dict)

    def evaluate(self, words: dict[str, int], mask: int) -> dict[str, int]:
        values = dict(words)
        for target in self._order():
            fanins, fn = self.gates[target]
            values[target] = fn([values[f] for f in fanins], mask) & mask
        return {name: values[self.sources.get(name, name)] for name in self.outputs}

    def _order(self) -> list[str]:
        """Topological order of every gate an output depends on (iterative)."""
        order: list[str] = []
        state: dict[str, int] = {name: 2 for name in self.inputs}
        for root in self.outputs:
            stack = [(self.sources.get(root, root), False)]
            while stack:
                name, expanded = stack.pop()
                if expanded:
                    state[name] = 2
                    order.append(name)
                    continue
                mark = state.get(name, 0)
                if mark == 2:
                    continue
                if mark == 1:
                    raise ValueError(f"combinational cycle through {name!r}")
                if name not in self.gates:
                    raise ValueError(f"undriven signal {name!r}")
                state[name] = 1
                stack.append((name, True))
                stack.extend((f, False) for f in self.gates[name][0])
        return order


def _sop(rows: list[tuple[str, str]]):
    """Evaluator of a BLIF cover; an all-'0' output column is an off-set."""
    onset = not rows or any(out == "1" for _, out in rows)

    def fn(ins: list[int], mask: int) -> int:
        acc = 0
        for pattern, _ in rows:
            term = mask
            for bit, word in zip(pattern, ins):
                if bit == "1":
                    term &= word
                elif bit == "0":
                    term &= ~word
            acc |= term
        return acc if onset else ~acc

    return fn


def parse_blif(text: str) -> Netlist:
    net = Netlist([], [])
    rows: list[tuple[str, str]] | None = None
    for raw in text.replace("\\\n", " ").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == ".inputs":
            net.inputs.extend(tok[1:])
        elif tok[0] == ".outputs":
            net.outputs.extend(tok[1:])
        elif tok[0] == ".names":
            rows = []
            net.gates[tok[-1]] = (tok[1:-1], rows)
        elif tok[0] in (".model", ".end"):
            rows = None
        elif tok[0].startswith("."):
            raise ValueError(f"unsupported BLIF construct {tok[0]}")
        elif rows is None:
            raise ValueError(f"cover row outside .names: {line!r}")
        else:
            rows.append(("", tok[0]) if len(tok) == 1 else (tok[0], tok[1]))
    for target, (fanins, cover) in net.gates.items():
        net.gates[target] = (fanins, _sop(cover))
    return net


def _fold(op):
    def fn(ins: list[int], mask: int) -> int:
        acc = ins[0]
        for word in ins[1:]:
            acc = op(acc, word)
        return acc

    return fn


_BENCH_OPS = {
    "AND": _fold(lambda a, b: a & b),
    "OR": _fold(lambda a, b: a | b),
    "XOR": _fold(lambda a, b: a ^ b),
    "NAND": lambda ins, m: ~_fold(lambda a, b: a & b)(ins, m),
    "NOR": lambda ins, m: ~_fold(lambda a, b: a | b)(ins, m),
    "XNOR": lambda ins, m: ~_fold(lambda a, b: a ^ b)(ins, m),
    "NOT": lambda ins, m: ~ins[0],
    "BUF": lambda ins, m: ins[0],
    "BUFF": lambda ins, m: ins[0],
    "MAJ": lambda ins, m: (ins[0] & ins[1]) | (ins[0] & ins[2]) | (ins[1] & ins[2]),
    "CONST0": lambda ins, m: 0,
    "GND": lambda ins, m: 0,
    "CONST1": lambda ins, m: m,
    "VDD": lambda ins, m: m,
}

_BENCH_LINE = re.compile(r"^(\S+)\s*=\s*([A-Za-z][A-Za-z0-9]*)\s*\(([^)]*)\)$")


def parse_bench(text: str) -> Netlist:
    net = Netlist([], [])
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        upper = line.upper()
        if upper.startswith(("INPUT(", "OUTPUT(")) and line.endswith(")"):
            name = line[line.index("(") + 1 : -1].strip()
            (net.inputs if upper.startswith("INPUT(") else net.outputs).append(name)
            continue
        match = _BENCH_LINE.match(line)
        if match is None:
            raise ValueError(f"unsupported BENCH line {line!r}")
        target, op, args = match.groups()
        if op.upper() not in _BENCH_OPS:
            raise ValueError(f"unsupported BENCH gate {op!r}")
        fanins = [a.strip() for a in args.split(",") if a.strip()]
        net.gates[target] = (fanins, _BENCH_OPS[op.upper()])
    return net


def _literal(lit: int) -> tuple[str, bool]:
    return f"v{lit >> 1}", bool(lit & 1)


def _and_fn(neg_a: bool, neg_b: bool):
    def fn(ins: list[int], mask: int) -> int:
        a = ~ins[0] if neg_a else ins[0]
        b = ~ins[1] if neg_b else ins[1]
        return a & b

    return fn


def _out_fn(neg: bool):
    return lambda ins, mask: ~ins[0] if neg else ins[0]


def parse_aag(text: str) -> Netlist:
    lines = text.splitlines()
    header = lines[0].split()
    if len(header) != 6 or header[0] != "aag":
        raise ValueError(f"not an ASCII AIGER header: {lines[0]!r}")
    _, num_in, num_latch, num_out, num_and = map(int, header[1:])
    if num_latch:
        raise ValueError("latches are not supported")
    in_lits = [int(lines[1 + i]) for i in range(num_in)]
    out_lits = [int(lines[1 + num_in + i]) for i in range(num_out)]
    names = {}
    for line in lines[1 + num_in + num_out + num_and :]:
        if line.startswith("c"):
            break
        kind_index, _, name = line.partition(" ")
        names[kind_index] = name
    net = Netlist(
        [names.get(f"i{i}", f"i{i}") for i in range(num_in)],
        [names.get(f"o{i}", f"o{i}") for i in range(num_out)],
    )
    # Inputs are aliases of their literal variables; constant 0 is v0.
    net.gates["v0"] = ([], lambda ins, mask: 0)
    for name, lit in zip(net.inputs, in_lits):
        net.gates[f"v{lit >> 1}"] = ([name], lambda ins, mask: ins[0])
    for i in range(num_and):
        lhs, rhs0, rhs1 = map(int, lines[1 + num_in + num_out + i].split())
        (a, neg_a), (b, neg_b) = _literal(rhs0), _literal(rhs1)
        net.gates[f"v{lhs >> 1}"] = ([a, b], _and_fn(neg_a, neg_b))
    for name, lit in zip(net.outputs, out_lits):
        var, neg = _literal(lit)
        net.gates[f"out:{name}"] = ([var], _out_fn(neg))
        net.sources[name] = f"out:{name}"
    return net


PARSERS = {"blif": parse_blif, "bench": parse_bench, "aag": parse_aag}


def input_words(names: list[str], seed: int) -> tuple[dict[str, int], int]:
    """One word per input: all minterms when narrow, seeded vectors when wide."""
    n = len(names)
    if n <= EXHAUSTIVE_LIMIT:
        width = 1 << n
        words = {}
        for i, name in enumerate(names):
            # Period 2^(i+1): 2^i zeros then 2^i ones, doubled up to width.
            word = ((1 << (1 << i)) - 1) << (1 << i)
            length = 1 << (i + 1)
            while length < width:
                word |= word << length
                length *= 2
            words[name] = word & ((1 << width) - 1)
        return words, (1 << width) - 1
    rng = random.Random(seed)
    return {name: rng.getrandbits(RANDOM_VECTORS) for name in names}, (
        1 << RANDOM_VECTORS
    ) - 1


def check(ref_text: str, ref_fmt: str, out_text: str, out_fmt: str, seed: int = 0) -> str | None:
    """None when the two netlists agree on every vector, else a reason."""
    ref = PARSERS[ref_fmt](ref_text)
    out = PARSERS[out_fmt](out_text)
    if sorted(ref.inputs) != sorted(out.inputs):
        return "input names differ"
    if sorted(ref.outputs) != sorted(out.outputs):
        return "output names differ"
    words, mask = input_words(sorted(ref.inputs), seed)
    want = ref.evaluate(words, mask)
    got = out.evaluate(words, mask)
    for name in ref.outputs:
        if want[name] != got[name]:
            diff = want[name] ^ got[name]
            return f"output {name!r} differs on vector {(diff & -diff).bit_length() - 1}"
    return None
