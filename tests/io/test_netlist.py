"""Structural and format errors of the netlist readers.

BLIF, .bench and AIGER resolve signals through one shared resolver
(``repro.io.netlist``), so they report the same structural defects the
same way: a combinational cycle (naming a node on it), a signal defined
twice, a definition that drives a primary input, and an input declared
twice all raise :class:`ValueError`.  Malformed covers, gates and AND
rows raise it too instead of building some other function.
"""

from __future__ import annotations

import io
import re

import pytest

from repro.io.aiger import read_aag
from repro.io.bench import read_bench
from repro.io.blif import read_blif

READERS = {"blif": read_blif, "bench": read_bench, "aag": read_aag}


def _blif(body: str, inputs: str = "a b", outputs: str = "f") -> str:
    return f".model t\n.inputs {inputs}\n.outputs {outputs}\n{body}.end\n"


def _bench(body: str, inputs=("a", "b"), outputs=("f",)) -> str:
    head = "".join(f"INPUT({name})\n" for name in inputs)
    head += "".join(f"OUTPUT({name})\n" for name in outputs)
    return head + body


def _read(fmt: str, text: str):
    return READERS[fmt](io.StringIO(text))


class TestCycles:
    @pytest.mark.parametrize(
        "fmt, text, on_cycle",
        [
            # f = a & g, g = f: a two-gate loop.
            ("blif", _blif(".names a g f\n11 1\n.names f g\n1 1\n"), ("f", "g")),
            ("blif", _blif(".names a f f\n11 1\n"), ("f",)),
            ("bench", _bench("f = AND(a, g)\ng = BUFF(f)\n"), ("f", "g")),
            ("bench", _bench("f = OR(f, b)\n"), ("f",)),
            # literal 4 = 2 & 6, literal 6 = 4 & 2.
            ("aag", "aag 3 1 0 1 2\n2\n4\n4 2 6\n6 4 2\n", ("4", "6")),
            ("aag", "aag 2 1 0 1 1\n2\n4\n4 5 2\n", ("4",)),
        ],
    )
    def test_cycle_is_a_value_error_naming_a_node_on_it(self, fmt, text, on_cycle):
        with pytest.raises(ValueError, match="cycle") as info:
            _read(fmt, text)
        named = re.search(r"cycle through \w+ '?([^'\s]+)'?$", str(info.value))
        assert named is not None and named.group(1) in on_cycle, str(info.value)

    def test_cycle_behind_a_long_chain(self):
        # The loop sits 5,000 gates below the output.
        body = "".join(f".names a n{i + 1} n{i}\n11 1\n" for i in range(5000))
        text = _blif(body + ".names n0 f\n1 1\n.names n4000 n5000\n1 1\n")
        with pytest.raises(ValueError, match=r"cycle through signal 'n\d+'"):
            read_blif(io.StringIO(text))


class TestDuplicateDefinitions:
    def test_blif_names_target_defined_twice(self):
        text = _blif(".names a f\n1 1\n.names b f\n1 1\n")
        with pytest.raises(ValueError, match="'f' is defined twice"):
            read_blif(io.StringIO(text))

    def test_bench_gate_defined_twice(self):
        text = _bench("f = NOT(a)\nf = BUFF(b)\n")
        with pytest.raises(ValueError, match="'f' is defined twice"):
            read_bench(io.StringIO(text))

    def test_aag_lhs_defined_twice(self):
        text = "aag 3 2 0 1 2\n2\n4\n6\n6 2 4\n6 3 5\n"
        with pytest.raises(ValueError, match="literal 6 is defined twice"):
            read_aag(io.StringIO(text))


class TestDefinitionsDrivingInputs:
    def test_blif_names_target_is_an_input(self):
        text = _blif(".names b a\n1 1\n.names a f\n1 1\n")
        with pytest.raises(ValueError, match="input signal 'a'"):
            read_blif(io.StringIO(text))

    def test_bench_gate_target_is_an_input(self):
        text = _bench("a = BUFF(b)\nf = BUFF(a)\n")
        with pytest.raises(ValueError, match="input signal 'a'"):
            read_bench(io.StringIO(text))

    def test_aag_lhs_is_an_input_literal(self):
        text = "aag 2 2 0 1 1\n2\n4\n2\n2 4 4\n"
        with pytest.raises(ValueError, match="input literal 2"):
            read_aag(io.StringIO(text))


class TestInputsDeclaredTwice:
    def test_blif(self):
        text = _blif(".names a f\n1 1\n", inputs="a b a")
        with pytest.raises(ValueError, match="'a' is declared twice"):
            read_blif(io.StringIO(text))

    def test_bench(self):
        text = _bench("f = BUFF(a)\n", inputs=("a", "b", "a"))
        with pytest.raises(ValueError, match="'a' is declared twice"):
            read_bench(io.StringIO(text))


class TestMalformedBlifCovers:
    @pytest.mark.parametrize("row", ["1 1", "111 1", "1"])
    def test_row_width_must_match_the_fanin_count(self, row):
        # At the recursive reader "1 1" read as f = a and "111 1" as 0.
        text = _blif(f".names a b f\n{row}\n")
        with pytest.raises(ValueError, match="columns for 2 inputs"):
            read_blif(io.StringIO(text))

    @pytest.mark.parametrize("out", ["2", "x", "-"])
    def test_output_column_must_be_0_or_1(self, out):
        text = _blif(f".names a b f\n11 1\n00 {out}\n")
        with pytest.raises(ValueError, match="neither 0 nor 1"):
            read_blif(io.StringIO(text))

    def test_names_line_needs_a_target(self):
        text = _blif(".names a f\n1 1\n.names\n")
        with pytest.raises(ValueError, match="without a target"):
            read_blif(io.StringIO(text))

    def test_pattern_characters(self):
        text = _blif(".names a b f\n1x 1\n")
        with pytest.raises(ValueError, match="other than 0, 1 or -"):
            read_blif(io.StringIO(text))

    def test_rows_with_extra_columns(self):
        text = _blif(".names a b f\n11 1 1\n")
        with pytest.raises(ValueError, match="more than two columns"):
            read_blif(io.StringIO(text))

    def test_mixed_on_and_off_set(self):
        text = _blif(".names a b f\n11 1\n00 0\n")
        with pytest.raises(ValueError, match="mixes on-set and off-set"):
            read_blif(io.StringIO(text))

    def test_a_repeated_bad_cover_fails_every_time(self):
        """Errors are never cached: the second read fails the same way."""
        text = _blif(".names a b f\n1 1\n")
        for _ in range(2):
            with pytest.raises(ValueError, match="columns"):
                read_blif(io.StringIO(text))


class TestBenchOperandCounts:
    @pytest.mark.parametrize(
        "gate",
        [
            "AND()", "NAND()", "OR()", "NOR()", "XOR()", "XNOR()",
            "NOT()", "NOT(a, b)", "BUF()", "BUF(a, b)", "BUFF(a, b)",
            "MAJ(a, b)", "MAJ(a, b, a, b)",
            "CONST0(a)", "CONST1(a)", "GND(a)", "VDD(a)",
        ],
    )
    def test_wrong_operand_count(self, gate):
        text = _bench(f"f = {gate}\n")
        with pytest.raises(ValueError, match="operand"):
            read_bench(io.StringIO(text))

    @pytest.mark.parametrize(
        "gate, tt",
        [("AND(a)", 0b1010), ("NOR(b)", 0b0011), ("GND()", 0), ("VDD()", 0b1111)],
    )
    def test_boundary_counts_are_legal(self, gate, tt):
        mig = read_bench(io.StringIO(_bench(f"f = {gate}\n")))
        assert mig.simulate()[0] == tt


class TestMalformedAagRows:
    @pytest.mark.parametrize("lhs", [3, 5])
    def test_odd_lhs(self, lhs):
        text = f"aag 2 1 0 1 1\n2\n2\n{lhs} 2 2\n"
        with pytest.raises(ValueError, match=f"lhs {lhs}"):
            read_aag(io.StringIO(text))

    @pytest.mark.parametrize("lhs", [0, 1])
    def test_constant_lhs(self, lhs):
        text = f"aag 1 1 0 1 1\n2\n2\n{lhs} 2 2\n"
        with pytest.raises(ValueError, match=f"lhs {lhs}"):
            read_aag(io.StringIO(text))


class TestUndriven:
    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("blif", _blif(".names a z f\n11 1\n")),
            ("bench", _bench("f = AND(a, z)\n")),
            ("aag", "aag 3 1 0 1 1\n2\n4\n4 2 6\n"),
        ],
    )
    def test_undriven_fanin(self, fmt, text):
        with pytest.raises(ValueError, match="undriven"):
            _read(fmt, text)
