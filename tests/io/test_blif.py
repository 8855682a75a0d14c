"""Tests for BLIF reading and writing."""

from __future__ import annotations

import io

import pytest

from repro.core.mig import CONST0, Mig
from repro.core.simulate import check_equivalence
from repro.io.blif import read_blif, write_blif
from repro.runtime.jobs import load_network


def _text(mig: Mig) -> str:
    buf = io.StringIO()
    write_blif(mig, buf)
    return buf.getvalue()


def _round_trip(mig: Mig) -> Mig:
    return read_blif(io.StringIO(_text(mig)))


class TestRoundtrip:
    def test_full_adder(self, full_adder):
        buf = io.StringIO()
        write_blif(full_adder, buf)
        buf.seek(0)
        back = read_blif(buf)
        assert back.pi_names == full_adder.pi_names
        assert back.output_names == full_adder.output_names
        assert check_equivalence(full_adder, back)

    def test_suite_roundtrips(self, suite_small):
        for mig in suite_small[:4]:
            buf = io.StringIO()
            write_blif(mig, buf)
            buf.seek(0)
            back = read_blif(buf)
            assert check_equivalence(mig, back), mig.name

    def test_constant_output(self):
        from repro.core.mig import CONST1, Mig

        mig = Mig(1)
        mig.add_po(CONST1, "one")
        buf = io.StringIO()
        write_blif(mig, buf)
        buf.seek(0)
        back = read_blif(buf)
        assert back.simulate() == mig.simulate()


class TestReader:
    def test_reads_sop_covers(self):
        text = """\
.model test
.inputs a b c
.outputs f
.names a b t
11 1
.names t c f
1- 1
-1 1
.end
"""
        mig = read_blif(io.StringIO(text))
        assert mig.num_pis == 3
        # f = (a & b) | c
        from repro.core.truth_table import tt_var

        expected = (tt_var(3, 0) & tt_var(3, 1)) | tt_var(3, 2)
        assert mig.simulate()[0] == expected

    def test_offset_cover(self):
        text = ".model t\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n"
        mig = read_blif(io.StringIO(text))
        # f = !(a & b)
        from repro.core.truth_table import tt_mask, tt_var

        assert mig.simulate()[0] == (tt_var(2, 0) & tt_var(2, 1)) ^ tt_mask(2)

    def test_comments_and_continuations(self):
        text = (
            ".model t # comment\n.inputs a \\\nb\n.outputs f\n"
            ".names a b f\n11 1\n.end\n"
        )
        mig = read_blif(io.StringIO(text))
        assert mig.num_pis == 2

    def test_undriven_signal_rejected(self):
        text = ".model t\n.inputs a\n.outputs f\n.end\n"
        with pytest.raises(ValueError):
            read_blif(io.StringIO(text))

    def test_unsupported_construct_rejected(self):
        text = ".model t\n.inputs a\n.outputs f\n.latch a f\n.end\n"
        with pytest.raises(ValueError):
            read_blif(io.StringIO(text))

    def test_constant_cover(self):
        text = ".model t\n.inputs a\n.outputs f g\n.names f\n.names g\n1\n.end\n"
        mig = read_blif(io.StringIO(text))
        outs = mig.simulate()
        assert outs[0] == 0
        assert outs[1] == 0b11


class TestInternalNames:
    """Names the writer itself uses, taken by a PI or an output."""

    @staticmethod
    def _net(pi_names, output_name="f") -> Mig:
        mig = Mig(name="t")
        a, b, c = (mig.add_pi(name) for name in pi_names)
        g = mig.maj(a, b, c)
        mig.add_po(mig.and_(g, a), output_name)
        return mig

    @pytest.mark.parametrize(
        "taken, gate_line",
        [("n4", ".names a n4 c n_4\n"), ("n5", ".names a n5 c n_4\n"),
         ("const0", ".names const0_ a n4 n5\n")],
    )
    def test_pi_named_like_an_internal_name(self, taken, gate_line):
        mig = self._net(["a", taken, "c"])
        text = _text(mig)
        assert gate_line in text
        back = read_blif(io.StringIO(text))
        assert back.pi_names == mig.pi_names
        assert back.simulate() == mig.simulate()

    def test_output_named_like_a_gate(self):
        mig = self._net(["a", "b", "c"], output_name="n4")
        text = _text(mig)
        assert ".names a b c n_4\n" in text and ".names n_5 n4\n1 1\n" in text
        back = read_blif(io.StringIO(text))
        assert back.output_names == ("n4",)
        assert back.simulate() == mig.simulate()

    def test_no_collision_keeps_the_plain_names(self):
        text = _text(self._net(["a", "b", "c"]))
        assert ".names a b c n4\n" in text and ".names n5 f\n" in text
        assert ".names const0\n" in text

    def test_output_on_its_own_pi_writes_no_buffer(self):
        text = ".model t\n.inputs a b\n.outputs a f\n.names a b f\n11 1\n.end\n"
        mig = read_blif(io.StringIO(text))
        written = _text(mig)
        assert ".names a a" not in written
        back = read_blif(io.StringIO(written))
        assert back.pi_names == ("a", "b") and back.output_names == ("a", "f")
        assert back.simulate() == mig.simulate()

    def test_repeated_output_name_on_one_signal(self):
        mig = self._net(["a", "b", "c"])
        mig.add_po(mig.outputs[0], "f")
        back = _round_trip(mig)
        assert back.output_names == ("f", "f")
        assert back.simulate() == mig.simulate()

    def test_output_named_like_an_input_it_is_not(self):
        mig = self._net(["a", "b", "c"], output_name="b")
        with pytest.raises(ValueError, match="output 'b' is named like an input"):
            _text(mig)
        mig = Mig(name="t")
        mig.add_po(mig.add_pi("a") ^ 1, "a")
        with pytest.raises(ValueError, match="output 'a'"):
            _text(mig)

    def test_same_named_outputs_on_different_signals(self):
        mig = self._net(["a", "b", "c"])
        mig.add_po(CONST0, "f")
        with pytest.raises(ValueError, match="outputs named 'f' are on different signals"):
            _text(mig)

    def test_input_named_twice(self):
        with pytest.raises(ValueError, match="input name 'a' is used twice"):
            _text(self._net(["a", "b", "a"]))

    def test_aiger_symbol_named_like_a_gate(self):
        aag = "aag 5 3 0 1 2\n2\n4\n6\n10\n8 2 4\n10 8 6\ni0 a\ni1 n3\ni2 c\no0 f\n"
        mig = load_network({"aag": aag}, inline=True)
        assert mig.pi_names == ("a", "n3", "c")
        back = _round_trip(mig)
        assert back.pi_names == mig.pi_names and back.output_names == ("f",)
        assert back.simulate() == mig.simulate()


class TestLineEndings:
    LF = (
        ".model t # comment\n.inputs a b \\\nc\n.outputs f\n"
        ".names a b \\\n c f\n11- 1\n--1 1\n.end\n"
    )

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_crlf_and_cr_parse_node_for_node_like_lf(self, ending):
        lf = read_blif(io.StringIO(self.LF))
        other = read_blif(io.StringIO(self.LF.replace("\n", ending)))
        assert other._fanins == lf._fanins
        assert (other.outputs, other.pi_names, other.output_names) == (
            lf.outputs, lf.pi_names, lf.output_names,
        )
        assert lf.pi_names == ("a", "b", "c")

    def test_inline_crlf_upload(self):
        text = self.LF.replace("\n", "\r\n")
        mig = load_network({"blif": text}, inline=True)
        assert mig.pi_names == ("a", "b", "c") and mig.num_pos == 1
