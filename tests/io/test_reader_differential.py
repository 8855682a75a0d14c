"""The netlist readers against their frozen recursive predecessors.

On every legal input the iterative readers (one shared resolver, cached
BLIF cover templates) must build the same network node for node as the
recursive readers frozen in ``_frozen_readers.py``: the same
``_fanins``, outputs, PI names and output names, so flows that start
from a parsed file cannot change.  Every result must also be equivalent
to the network, or the cover, it was written from.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.convert import aig_to_mig, mig_to_aig
from repro.core.mig import CONST0, CONST1, Mig, signal_not
from repro.core.simulate import check_equivalence
from repro.generators import GENERATORS, layered_mig, resolve_generator
from repro.io.aiger import read_aag, read_aig_binary, write_aag, write_aig_binary
from repro.io.bench import read_bench, write_bench
from repro.io.blif import cover_template, read_blif, write_blif

from . import _frozen_readers as frozen

#: a small size for every registry generator (router takes no width)
SMALL_WIDTH = {
    "adder": 6, "divisor": 4, "log2": 5, "max": 4, "multiplier": 4,
    "sine": 5, "square-root": 6, "square": 5, "arbiter": 8, "dec": 4,
    "int2float": 8, "priority": 8, "router": None, "voter": 7,
}


def _shape(net) -> tuple:
    return (net._fanins, net.outputs, net.pi_names, net.output_names)


def _assert_same_parse(source: Mig) -> None:
    """Each format of *source* reads node for node as the frozen reader."""
    texts = {}
    for fmt, write in (("blif", write_blif), ("bench", write_bench)):
        buf = io.StringIO()
        write(source, buf)
        texts[fmt] = buf.getvalue()
    aig = mig_to_aig(source)
    buf = io.StringIO()
    write_aag(aig, buf)
    texts["aag"] = buf.getvalue()
    binary = io.BytesIO()
    write_aig_binary(aig, binary)

    for fmt, new_reader, old_reader in (
        ("blif", read_blif, frozen.read_blif),
        ("bench", read_bench, frozen.read_bench),
        ("aag", read_aag, frozen.read_aag),
    ):
        new = new_reader(io.StringIO(texts[fmt]))
        old = old_reader(io.StringIO(texts[fmt]))
        assert _shape(new) == _shape(old), (source.name, fmt)
        built = aig_to_mig(new) if fmt == "aag" else new
        assert check_equivalence(source, built), (source.name, fmt)
    new = read_aig_binary(io.BytesIO(binary.getvalue()))
    old = frozen.read_aig_binary(io.BytesIO(binary.getvalue()))
    assert _shape(new) == _shape(old), (source.name, "aig")


@settings(max_examples=25, deadline=None)
@given(
    num_gates=st.integers(1, 150),
    num_pis=st.integers(1, 9),
    width=st.integers(1, 24),
    locality=st.integers(1, 3),
    num_pos=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_layered_networks(num_gates, num_pis, width, locality, num_pos, seed):
    mig = layered_mig(num_gates, num_pis, width, locality, num_pos, seed)
    _assert_same_parse(mig)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_registry_generators(name):
    assert set(SMALL_WIDTH) == set(GENERATORS)
    _assert_same_parse(resolve_generator(name, width=SMALL_WIDTH[name]))


@st.composite
def covers(draw):
    """A single-output cover: on- or off-set rows with don't-cares."""
    n = draw(st.integers(1, 6))
    patterns = draw(
        st.lists(st.text(alphabet="01-", min_size=n, max_size=n), max_size=10)
    )
    return n, draw(st.permutations(patterns)), draw(st.sampled_from("01"))


def _sop(n: int, patterns: list[str], out: str) -> Mig:
    """The cover as a two-level AND/OR network, built without the reader."""
    mig = Mig(n)
    pis = mig.pi_signals()
    terms = CONST0
    for pattern in patterns:
        term = CONST1
        for pi, ch in zip(pis, pattern):
            if ch != "-":
                term = mig.and_(term, pi if ch == "1" else signal_not(pi))
        terms = mig.or_(terms, term)
    # An empty cover is constant 0 whichever set it would list.
    mig.add_po(terms if out == "1" or not patterns else signal_not(terms), "f")
    return mig


@settings(max_examples=150, deadline=None)
@given(covers())
def test_random_covers(cover):
    n, patterns, out = cover
    names = " ".join(f"x{i}" for i in range(n))
    rows = "".join(f"{pattern} {out}\n" for pattern in patterns)
    text = f".model c\n.inputs {names}\n.outputs f\n.names {names} f\n{rows}.end\n"
    new = read_blif(io.StringIO(text))
    old = frozen.read_blif(io.StringIO(text))
    assert _shape(new) == _shape(old)
    assert check_equivalence(_sop(n, patterns, out), new)


class TestTemplateCache:
    A = ".model a\n.inputs p q r\n.outputs f\n.names p q r f\n11- 1\n1-1 1\n-11 1\n.end\n"
    B = ".model b\n.inputs p q r\n.outputs f\n.names p q r f\n1-0 1\n0-1 1\n.end\n"

    def test_interleaved_reads_do_not_disturb_each_other(self):
        cover_template.cache_clear()
        first = _shape(read_blif(io.StringIO(self.A)))
        read_blif(io.StringIO(self.B))
        assert _shape(read_blif(io.StringIO(self.A))) == first
        assert cover_template.cache_info().hits >= 1

    def test_cache_is_bounded(self):
        maxsize = cover_template.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    def test_covers_with_repeated_rows_past_any_distinct_set_stay_uncached(self):
        """730 rows of 2 inputs must repeat; such a cover is built, not kept."""
        rows = "11 1\n" * 730
        text = f".model m\n.inputs a b\n.outputs f\n.names a b f\n{rows}.end\n"
        cover_template.cache_clear()
        assert read_blif(io.StringIO(text)).simulate()[0] == 0b1000
        assert cover_template.cache_info().currsize == 0
