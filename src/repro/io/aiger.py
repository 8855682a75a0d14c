"""AIGER format support (ASCII ``aag`` and binary ``aig``), combinational.

AIGER is the standard exchange format for And-Inverter Graphs (and the
format the real EPFL benchmark suite ships in).  Literal conventions match
this package exactly: literal ``2*v`` is variable ``v``, ``2*v+1`` its
complement, ``0``/``1`` the constants.  Only combinational networks are
supported (no latches), which covers the paper's entire scope.  Both
readers resolve AND rows through :func:`repro.io.netlist.resolve`, so
rows may come in any order and chain to any depth; an odd or constant
lhs, a literal defined twice, a cycle or an undriven literal raises
:class:`ValueError`.
"""

from __future__ import annotations

from typing import BinaryIO, TextIO

from ..aig.aig import Aig
from .netlist import check_inputs, define, resolve

__all__ = ["write_aag", "read_aag", "write_aig_binary", "read_aig_binary"]


def write_aag(aig: Aig, fp: TextIO) -> None:
    """Write the ASCII AIGER format."""
    num_ands = aig.num_gates
    max_var = aig.num_pis + num_ands
    fp.write(f"aag {max_var} {aig.num_pis} 0 {aig.num_pos} {num_ands}\n")
    for i in range(1, aig.num_pis + 1):
        fp.write(f"{2 * i}\n")
    for s in aig.outputs:
        fp.write(f"{s}\n")
    for node in aig.gates():
        a, b = aig.fanins(node)
        rhs0, rhs1 = (a, b) if a >= b else (b, a)
        fp.write(f"{2 * node} {rhs0} {rhs1}\n")
    for i, name in enumerate(aig.pi_names):
        fp.write(f"i{i} {name}\n")
    for i, name in enumerate(aig.output_names):
        fp.write(f"o{i} {name}\n")


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


def write_aig_binary(aig: Aig, fp: BinaryIO) -> None:
    """Write the binary AIGER format."""
    num_ands = aig.num_gates
    max_var = aig.num_pis + num_ands
    fp.write(f"aig {max_var} {aig.num_pis} 0 {aig.num_pos} {num_ands}\n".encode())
    for s in aig.outputs:
        fp.write(f"{s}\n".encode())
    for node in aig.gates():
        a, b = aig.fanins(node)
        rhs0, rhs1 = (a, b) if a >= b else (b, a)
        lhs = 2 * node
        if rhs0 >= lhs:
            raise ValueError("binary AIGER requires topological order")
        _write_delta(fp, lhs - rhs0)
        _write_delta(fp, rhs0 - rhs1)
    symbols = []
    for i, name in enumerate(aig.pi_names):
        symbols.append(f"i{i} {name}\n")
    for i, name in enumerate(aig.output_names):
        symbols.append(f"o{i} {name}\n")
    fp.write("".join(symbols).encode())


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


def _write_delta(fp: BinaryIO, delta: int) -> None:
    while delta >= 0x80:
        fp.write(bytes([(delta & 0x7F) | 0x80]))
        delta >>= 7
    fp.write(bytes([delta]))


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
    aig = Aig(name="aiger")
    # even literal in the file -> signal in the AIG; odd literals complement
    signals: dict[int, int] = {0: 0}
    for i, lit in enumerate(input_lits):
        if lit != 2 * (i + 1):
            raise ValueError("non-canonical input literal ordering")
        signals[lit] = aig.add_pi(names.get(f"i{i}", f"x{i}"))
    ands: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    for lhs, rhs0, rhs1 in and_rows:
        if lhs & 1 or lhs <= 1:
            raise ValueError(f"AND lhs {lhs} is not an even literal above 1")
        define(ands, lhs, ((rhs0 & ~1, rhs1 & ~1), (rhs0, rhs1)), "literal")
    check_inputs(input_lits, ands, "literal")

    def make(fanins: tuple[int, int], rhs: tuple[int, int]) -> int:
        return aig.and_(signals[fanins[0]] ^ (rhs[0] & 1), signals[fanins[1]] ^ (rhs[1] & 1))

    # AND rows may come in any order in aag: every row is built, by
    # ascending lhs, then whatever the outputs still need.
    resolve([*sorted(ands), *(lit & ~1 for lit in output_lits)], signals, ands, make, "literal")
    for i, lit in enumerate(output_lits):
        aig.add_po(signals[lit & ~1] ^ (lit & 1), names.get(f"o{i}", f"y{i}"))
    return aig
