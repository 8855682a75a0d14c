"""The BLIF and BENCH writers against their frozen predecessors, and
adversarial names.

On every network whose PI and PO names collide with none of the
writer's internal names (``const0`` and ``n{g}``), the table-driven
BLIF writer and the explicit-stack BENCH writer must produce the text of
the writers frozen in ``_frozen_writer.py`` byte for byte; a network too
deep for the frozen BENCH writer's recursion must write and read back.
On every network at all, the BLIF
and BENCH writers must either write text that their reader reads back
with the same PI and PO names and the same function, or refuse, with a
:class:`ValueError`, exactly the networks whose names the format cannot
carry; the Verilog writer must declare every identifier once, assign
only declared wires and outputs, name no port or module by a reserved
word, and compute the network's function.
"""

from __future__ import annotations

import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mig import Mig
from repro.generators import GENERATORS, layered_mig, resolve_generator
from repro.core.truth_table import tt_mask, tt_var
from repro.io.bench import read_bench, write_bench
from repro.io.blif import read_blif, write_blif
from repro.io.verilog import _KEYWORDS, write_verilog
from repro.opt.depth_opt import optimize_depth

from . import _frozen_writer as frozen
from .test_reader_differential import SMALL_WIDTH


def _text(writer, mig: Mig) -> str:
    buf = io.StringIO()
    writer(mig, buf)
    return buf.getvalue()


def _assert_same_text(mig: Mig) -> None:
    assert _text(write_blif, mig) == _text(frozen.write_blif, mig), mig.name
    assert _text(write_bench, mig) == _text(frozen.write_bench, mig), mig.name


@st.composite
def random_mig(draw, pi_names, po_names, own_pi_outputs):
    """A random MIG of up to 12 gates, its outputs on gates, PIs and constants.

    With *own_pi_outputs*, an output may also be named like a PI and
    driven by that PI, uncomplemented or not.
    """
    mig = Mig(name="m")
    for name in draw(pi_names):
        mig.add_pi(name)
    signals = [0, 1, *mig.pi_signals()]
    for _ in range(draw(st.integers(0, 12))):
        a, b, c = (draw(st.sampled_from(signals)) for _ in range(3))
        s = mig.maj(a, b, c)
        signals += [s, s ^ 1]
    for name in draw(po_names):
        if own_pi_outputs and draw(st.booleans()):
            pi = draw(st.integers(1, mig.num_pis))
            mig.add_po((pi << 1) | draw(st.integers(0, 1)), mig.pi_names[pi - 1])
        else:
            mig.add_po(draw(st.sampled_from(signals)), name)
    return mig


def _distinct(prefix: str):
    """Up to five distinct names that start with *prefix*."""
    return st.lists(
        st.text(alphabet="abxyz_019", max_size=3).map(lambda s: prefix + s),
        min_size=1, max_size=5, unique=True,
    )


#: names that hit the writers' internal names (BENCH's helpers among
#: them) and their escaped variants, and names only some formats carry
ADVERSARIAL_NAME = st.sampled_from(
    ["a", "b", "n", "n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8",
     "n9", "n10", "n12", "n_6", "n__7", "const0", "const0_", "x0", "y0", ".",
     "n4_ab", "n5_bc", "n5_bar", "a_bar", "a__bar", "const0_bar", "b(",
     "b)", "a,b", "c\\"]
) | st.text(alphabet="n_c0146", min_size=1, max_size=3)

#: names BLIF cannot carry: empty, whitespace, a comment, a final backslash
UNWRITABLE_NAMES = ["", "a b", "a\tb", "a\r", "#", "a#b", "c\\", "\\"]


def _names_are_tokens(mig: Mig, can_hold) -> bool:
    return all(
        name and not any(ch.isspace() for ch in name) and can_hold(name)
        for name in (*mig.pi_names, *mig.output_names)
    )


def _blif_can_carry(mig: Mig) -> bool:
    """An independent statement of which networks BLIF can carry."""
    return _names_are_tokens(
        mig, lambda name: "#" not in name and not name.endswith("\\")
    ) and _ports_can_be_told_apart(mig)


def _bench_can_carry(mig: Mig) -> bool:
    """An independent statement of which networks BENCH can carry: a
    name may not hold a comment or the gate syntax's punctuation."""
    return _names_are_tokens(
        mig, lambda name: not any(ch in name for ch in "#(),")
    ) and _ports_can_be_told_apart(mig)


def _ports_can_be_told_apart(mig: Mig) -> bool:
    """PIs are distinct, and an output name means one signal: its PI's
    own, if it is named like a PI."""
    if len(set(mig.pi_names)) != mig.num_pis:
        return False
    signal: dict[str, int] = {}
    for name, s in zip(mig.output_names, mig.outputs):
        if signal.setdefault(name, s) != s:
            return False
        if name in mig.pi_names and s != (mig.pi_names.index(name) + 1) << 1:
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(random_mig(_distinct("p"), _distinct("q"), own_pi_outputs=False))
def test_random_networks_without_collisions(mig):
    _assert_same_text(mig)


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
    _assert_same_text(layered_mig(num_gates, num_pis, width, locality, num_pos, seed))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_registry_generators(name):
    raw = resolve_generator(name, width=SMALL_WIDTH[name])
    _assert_same_text(raw)
    _assert_same_text(optimize_depth(raw, rounds=2))


def test_deep_chain_writes_as_bench():
    """A 3,000-gate majority chain, far deeper than the recursion limit
    allows a recursive writer, writes and reads back the same function."""
    mig = Mig(name="chain")
    x, y, z = mig.add_pi("x"), mig.add_pi("y"), mig.add_pi("z")
    s = x
    for i in range(3000):
        s = mig.maj(s ^ (i & 1), y, z ^ (i >> 1 & 1))
    mig.add_po(s, "f")
    assert mig.num_gates == 3000 and mig.depth() == 3000
    back = read_bench(io.StringIO(_text(write_bench, mig)))
    assert back.pi_names == mig.pi_names and back.output_names == mig.output_names
    assert back.simulate() == mig.simulate()


@settings(max_examples=400, deadline=None)
@given(
    random_mig(
        st.lists(ADVERSARIAL_NAME, min_size=1, max_size=5, unique=True),
        st.lists(ADVERSARIAL_NAME, min_size=1, max_size=5),
        own_pi_outputs=True,
    )
)
def test_adversarial_names_round_trip_or_raise(mig):
    for write, read, can_carry in (
        (write_blif, read_blif, _blif_can_carry),
        (write_bench, read_bench, _bench_can_carry),
    ):
        if not can_carry(mig):
            with pytest.raises(ValueError):
                _text(write, mig)
            continue
        back = read(io.StringIO(_text(write, mig)))
        assert back.pi_names == mig.pi_names
        assert back.output_names == mig.output_names
        assert back.simulate() == mig.simulate()


def _verilog_can_carry(mig: Mig) -> bool:
    """An independent statement of which networks Verilog can carry: an
    escaped identifier is printable ASCII up to the space that ends it,
    and a module declares each port once."""
    ports = [*mig.pi_names, *mig.output_names]
    return len(set(ports)) == len(ports) and all(
        name and all(33 <= ord(ch) <= 126 for ch in name) for name in (mig.name, *ports)
    )


#: a Verilog token: an escaped identifier (its backslash and ending
#: space dropped), a plain identifier or keyword, a constant, a symbol
_VERILOG_TOKEN = re.compile(r"\\(\S+)\s|([A-Za-z_][A-Za-z0-9_]*)|(1'b[01])|(\S)")

#: Verilog-2005 reserved words, among them the ones the writer itself
#: writes, that a port or a module may be named
VERILOG_KEYWORDS = [
    "always", "and", "assign", "begin", "buf", "end", "endmodule", "for",
    "initial", "inout", "input", "module", "nand", "nor", "not", "or",
    "output", "reg", "supply0", "tri", "uwire", "wire", "xnor", "xor",
]


def _verilog_statements(text: str) -> list[list[str]]:
    statements: list[list[str]] = [[]]
    for escaped, word, const, symbol in _VERILOG_TOKEN.findall(text):
        if symbol == ";":
            statements.append([])
        else:
            # Only a statement's first word may be a plain reserved
            # word; a name spelled like one must be escaped.
            assert not (word in VERILOG_KEYWORDS and statements[-1]), word
            statements[-1].append(escaped or word or const or symbol)
    return [statement for statement in statements if statement]


#: the adversarial names, and reserved words
VERILOG_NAME = ADVERSARIAL_NAME | st.sampled_from(VERILOG_KEYWORDS)


@settings(max_examples=400, deadline=None)
@given(
    random_mig(
        st.lists(VERILOG_NAME, min_size=1, max_size=5, unique=True),
        st.lists(VERILOG_NAME, min_size=1, max_size=5),
        own_pi_outputs=True,
    ),
    st.sampled_from(["m", "module", "wire", "endmodule"]),
)
def test_adversarial_names_in_verilog(mig, module):
    """Every identifier is declared once, no port or module is a plain
    reserved word, every ``assign`` drives a declared wire or output
    once, and the assigns compute *mig*."""
    mig.name = module
    if not _verilog_can_carry(mig):
        with pytest.raises(ValueError):
            _text(write_verilog, mig)
        return
    statements = _verilog_statements(_text(write_verilog, mig))
    declared: dict[str, list[str]] = {"input": [], "output": [], "wire": []}
    mask = tt_mask(mig.num_pis)
    values = {name: tt_var(mig.num_pis, i) for i, name in enumerate(mig.pi_names)}
    for keyword, *words in statements:
        if keyword in declared:
            declared[keyword] += [w for w in words if w != ","]
        elif keyword == "assign":
            target, equals, *expression = words
            assert equals == "=" and target not in values, target
            assert target in declared["wire"] or target in declared["output"], target
            values[target] = eval(  # noqa: S307 - the writer's own output
                " ".join(_python_term(w, mask) for w in expression),
                {"values": values},
            )
    names = [*declared["input"], *declared["output"], *declared["wire"]]
    assert len(names) == len(set(names))
    assert declared["input"] == list(mig.pi_names)
    assert declared["output"] == list(mig.output_names)
    assert [values[name] for name in mig.output_names] == list(mig.simulate())


def test_reserved_words_are_the_standards():
    assert set(VERILOG_KEYWORDS) <= _KEYWORDS


@settings(max_examples=200, deadline=None)
@given(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True).filter(
        lambda name: name not in _KEYWORDS and name not in ("q", "r", "f")
    )
)
def test_plain_names_that_are_not_reserved_keep_their_bytes(name):
    mig = Mig(name=name)
    a = mig.add_pi(name)
    mig.add_po(mig.maj(a, mig.add_pi("q"), mig.add_pi("r")), "f")
    text = _text(write_verilog, mig)
    assert text.startswith(f"module {name}({name}, q, r, f);\n  input {name}, q, r;\n")


def _python_term(word: str, mask: int) -> str:
    """A Verilog expression token as Python over truth tables."""
    if word in "()&|":
        return word
    return {"~": f"{mask} ^", "1'b0": "0", "1'b1": str(mask)}.get(word, f"values[{word!r}]")


@pytest.mark.parametrize("name", UNWRITABLE_NAMES)
@pytest.mark.parametrize("role", ["model", "input", "output"])
def test_unwritable_names_raise_naming_them(role, name):
    mig = Mig(name="m")
    a = mig.add_pi(name if role == "input" else "p")
    mig.add_po(mig.maj(a, mig.add_pi("q"), mig.add_pi("r")), name if role == "output" else "f")
    assert _blif_can_carry(mig) == (role == "model")
    with pytest.raises(ValueError, match=f"{role} name {re.escape(repr(name))}"):
        write_blif(mig, io.StringIO(), model_name=name if role == "model" else None)
