"""Frozen recursive netlist readers for the parsing differential test.

This module is a deliberate, self-contained snapshot of the BLIF, .bench
and AIGER readers as they were before the shared iterative resolver
(``repro.io.netlist``) and the cached BLIF cover templates replaced
their recursive ``build`` / ``resolve`` walks.  The function bodies are
copied byte for byte; only the module around them is new.

**Do not refactor this file alongside src/** — its value is that it
stays behind as the oracle: on every legal input the production readers
must build the same network node for node
(tests/io/test_reader_differential.py).
"""

from __future__ import annotations

import re
from typing import BinaryIO, TextIO

from repro.aig.aig import Aig
from repro.core.mig import CONST0, CONST1, Mig, signal_not
from repro.core.truth_table import tt_mask
from repro.exact.heuristic import heuristic_mig

__all__ = ["read_blif", "read_bench", "read_aag", "read_aig_binary"]


def read_blif(fp: TextIO) -> Mig:
    """Read a combinational BLIF model into an MIG.

    Supports ``.names`` covers with up to 6 inputs (converted to majority
    logic via the heuristic synthesizer), in any topological order.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    model = "blif"
    covers: dict[str, tuple[list[str], list[tuple[str, str]]]] = {}
    current: tuple[list[str], list[tuple[str, str]]] | None = None

    def tokens_of(line: str) -> list[str]:
        return line.split()

    # Join continuation lines.
    text = fp.read().replace("\\\n", " ")
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = tokens_of(line)
        if tok[0] == ".model":
            model = tok[1] if len(tok) > 1 else model
        elif tok[0] == ".inputs":
            inputs.extend(tok[1:])
        elif tok[0] == ".outputs":
            outputs.extend(tok[1:])
        elif tok[0] == ".names":
            target = tok[-1]
            current = (tok[1:-1], [])
            covers[target] = current
        elif tok[0] in (".end", ".exdc"):
            current = None
        elif tok[0].startswith("."):
            raise ValueError(f"unsupported BLIF construct: {tok[0]}")
        else:
            if current is None:
                raise ValueError(f"cover row outside .names: {line!r}")
            if len(tok) == 1:
                current[1].append(("", tok[0]))
            else:
                current[1].append((tok[0], tok[1]))

    mig = Mig(name=model)
    signals: dict[str, int] = {}
    for name in inputs:
        signals[name] = mig.add_pi(name)

    def build(name: str) -> int:
        if name in signals:
            return signals[name]
        if name not in covers:
            raise ValueError(f"undriven signal {name!r}")
        fanin_names, rows = covers[name]
        fanins = [build(n) for n in fanin_names]
        signals[name] = _cover_to_signal(mig, fanins, rows, len(fanin_names))
        return signals[name]

    for name in outputs:
        mig.add_po(build(name), name)
    return mig


def _cover_to_signal(mig: Mig, fanins: list[int], rows: list[tuple[str, str]], n: int) -> int:
    """Convert a SOP cover to an MIG signal over already-built fanins."""
    if n == 0:
        # Constant: empty cover is 0; any "1" row makes it 1.
        return CONST1 if any(out == "1" for _, out in rows) else CONST0
    if n > 6:
        raise ValueError(f"cover with {n} inputs exceeds the supported maximum of 6")
    on_rows = [pattern for pattern, out in rows if out == "1"]
    off_rows = [pattern for pattern, out in rows if out == "0"]
    if on_rows and off_rows:
        raise ValueError("BLIF cover mixes on-set and off-set rows")
    patterns = on_rows or off_rows
    tt = 0
    for m in range(1 << n):
        for pattern in patterns:
            if all(
                ch == "-" or int(ch) == ((m >> i) & 1)
                for i, ch in enumerate(pattern)
            ):
                tt |= 1 << m
                break
    if off_rows:
        tt ^= tt_mask(n)
    sub = heuristic_mig(tt, n)
    # Inline `sub` into `mig`, substituting fanins for its PIs.
    mapping: dict[int, int] = {0: 0}
    for i in range(n):
        mapping[1 + i] = fanins[i]
    for node in sub.gates():
        a, b, c = sub.fanins(node)
        mapping[node] = mig.maj(
            mapping[a >> 1] ^ (a & 1),
            mapping[b >> 1] ^ (b & 1),
            mapping[c >> 1] ^ (c & 1),
        )
    out = sub.outputs[0]
    signal = mapping[out >> 1] ^ (out & 1)
    return signal


_LINE_RE = re.compile(r"^\s*(\S+)\s*=\s*([A-Za-z][A-Za-z0-9]*)\s*\(([^)]*)\)\s*$")


def read_bench(fp: TextIO) -> Mig:
    """Read a combinational .bench file into an MIG."""
    inputs: list[str] = []
    outputs: list[str] = []
    gates: dict[str, tuple[str, list[str]]] = {}
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
        args = [a.strip() for a in arg_text.split(",") if a.strip()]
        gates[target] = (op.upper(), args)

    mig = Mig(name="bench")
    signals: dict[str, int] = {}
    for name in inputs:
        signals[name] = mig.add_pi(name)

    def tree(op_fn, operands: list[int]) -> int:
        acc = operands[0]
        for s in operands[1:]:
            acc = op_fn(acc, s)
        return acc

    def build(name: str) -> int:
        if name in signals:
            return signals[name]
        if name not in gates:
            raise ValueError(f"undriven signal {name!r}")
        op, arg_names = gates[name]
        args = [build(a) for a in arg_names]
        if op == "AND":
            signal = tree(mig.and_, args)
        elif op == "NAND":
            signal = signal_not(tree(mig.and_, args))
        elif op == "OR":
            signal = tree(mig.or_, args)
        elif op == "NOR":
            signal = signal_not(tree(mig.or_, args))
        elif op == "XOR":
            signal = tree(mig.xor, args)
        elif op == "XNOR":
            signal = signal_not(tree(mig.xor, args))
        elif op == "NOT":
            signal = signal_not(args[0])
        elif op in ("BUF", "BUFF"):
            signal = args[0]
        elif op == "MAJ":
            if len(args) != 3:
                raise ValueError("MAJ gate requires exactly three operands")
            signal = mig.maj(*args)
        elif op == "CONST0" or (op == "GND" and not args):
            signal = CONST0
        elif op == "CONST1" or (op == "VDD" and not args):
            signal = CONST1
        else:
            raise ValueError(f"unsupported .bench gate {op!r}")
        signals[name] = signal
        return signal

    for name in outputs:
        mig.add_po(build(name), name)
    return mig


def read_aag(fp: TextIO) -> Aig:
    """Read the ASCII AIGER format (combinational only)."""
    header = fp.readline().split()
    if len(header) != 6 or header[0] != "aag":
        raise ValueError(f"not an ASCII AIGER header: {header}")
    max_var, num_in, num_latch, num_out, num_and = map(int, header[1:])
    if num_latch:
        raise ValueError("latches are not supported (combinational only)")
    input_lits = [int(fp.readline()) for _ in range(num_in)]
    output_lits = [int(fp.readline()) for _ in range(num_out)]
    and_rows = []
    for _ in range(num_and):
        lhs, rhs0, rhs1 = map(int, fp.readline().split())
        and_rows.append((lhs, rhs0, rhs1))
    names = _read_symbols(fp, num_in, num_out)
    return _assemble(max_var, input_lits, output_lits, and_rows, names)


def read_aig_binary(fp: BinaryIO) -> Aig:
    """Read the binary AIGER format (combinational only)."""
    header = fp.readline().split()
    if len(header) != 6 or header[0] != b"aig":
        raise ValueError(f"not a binary AIGER header: {header!r}")
    max_var, num_in, num_latch, num_out, num_and = map(int, header[1:])
    if num_latch:
        raise ValueError("latches are not supported (combinational only)")
    input_lits = [2 * (i + 1) for i in range(num_in)]
    output_lits = [int(fp.readline()) for _ in range(num_out)]
    and_rows = []
    for i in range(num_and):
        lhs = 2 * (num_in + 1 + i)
        delta0 = _read_delta(fp)
        delta1 = _read_delta(fp)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        and_rows.append((lhs, rhs0, rhs1))
    text = fp.read().decode(errors="replace")
    names = _parse_symbol_text(text, num_in, num_out)
    return _assemble(max_var, input_lits, output_lits, and_rows, names)


def _read_delta(fp: BinaryIO) -> int:
    value = 0
    shift = 0
    while True:
        byte = fp.read(1)
        if not byte:
            raise ValueError("truncated binary AIGER and-section")
        b = byte[0]
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value
        shift += 7


def _read_symbols(fp: TextIO, num_in: int, num_out: int) -> dict[str, str]:
    return _parse_symbol_text(fp.read(), num_in, num_out)


def _parse_symbol_text(text: str, num_in: int, num_out: int) -> dict[str, str]:
    names: dict[str, str] = {}
    for line in text.splitlines():
        if not line or line.startswith("c"):
            break
        if line[0] in "io" and " " in line:
            key, name = line.split(" ", 1)
            names[key] = name
    return names


def _assemble(
    max_var: int,
    input_lits: list[int],
    output_lits: list[int],
    and_rows: list[tuple[int, int, int]],
    names: dict[str, str],
) -> Aig:
    num_in = len(input_lits)
    aig = Aig(name="aiger")
    # literal in file -> signal in the AIG
    lit_map: dict[int, int] = {0: 0, 1: 1}
    for i, lit in enumerate(input_lits):
        if lit != 2 * (i + 1):
            raise ValueError("non-canonical input literal ordering")
        signal = aig.add_pi(names.get(f"i{i}", f"x{i}"))
        lit_map[lit] = signal
        lit_map[lit ^ 1] = signal ^ 1
    # AND rows may be in any order in aag; process by dependency.
    pending = dict((lhs, (rhs0, rhs1)) for lhs, rhs0, rhs1 in and_rows)

    def resolve(lit: int) -> int:
        if lit in lit_map:
            return lit_map[lit]
        base = lit & ~1
        if base not in pending:
            raise ValueError(f"literal {lit} is undriven")
        rhs0, rhs1 = pending[base]
        signal = aig.and_(resolve(rhs0), resolve(rhs1))
        lit_map[base] = signal
        lit_map[base ^ 1] = signal ^ 1
        return lit_map[lit]

    for lhs in sorted(pending):
        resolve(lhs)
    for i, lit in enumerate(output_lits):
        aig.add_po(resolve(lit), names.get(f"o{i}", f"y{i}"))
    return aig
