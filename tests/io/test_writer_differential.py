"""The BLIF writer against its frozen predecessor, and adversarial names.

On every network whose PI and PO names collide with none of the
writer's internal names (``const0`` and ``n{g}``), the table-driven
writer must produce the text of the writer frozen in
``_frozen_writer.py`` byte for byte.  On every network at all, it must
either write text that ``read_blif`` reads back with the same PI and PO
names and the same function, or refuse, with a :class:`ValueError`,
exactly the networks whose names BLIF cannot carry.
"""

from __future__ import annotations

import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mig import Mig
from repro.generators import GENERATORS, layered_mig, resolve_generator
from repro.io.blif import read_blif, write_blif
from repro.opt.depth_opt import optimize_depth

from . import _frozen_writer as frozen
from .test_reader_differential import SMALL_WIDTH


def _text(writer, mig: Mig) -> str:
    buf = io.StringIO()
    writer(mig, buf)
    return buf.getvalue()


def _assert_same_text(mig: Mig) -> None:
    assert _text(write_blif, mig) == _text(frozen.write_blif, mig), mig.name


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


#: names that hit the writer's internal names and its escaped variants
ADVERSARIAL_NAME = st.sampled_from(
    ["a", "b", "n", "n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8",
     "n9", "n10", "n12", "n_6", "n__7", "const0", "const0_", "x0", "y0", "."]
) | st.text(alphabet="n_c0146", min_size=1, max_size=3)

#: names BLIF cannot carry: empty, whitespace, a comment, a final backslash
UNWRITABLE_NAMES = ["", "a b", "a\tb", "a\r", "#", "a#b", "c\\", "\\"]


def _blif_can_carry(mig: Mig) -> bool:
    """An independent statement of which networks BLIF can carry."""
    names = list(mig.pi_names) + list(mig.output_names)
    if any(
        not name or any(ch.isspace() for ch in name) or "#" in name or name.endswith("\\")
        for name in names
    ):
        return False
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


@settings(max_examples=400, deadline=None)
@given(
    random_mig(
        st.lists(ADVERSARIAL_NAME, min_size=1, max_size=5, unique=True),
        st.lists(ADVERSARIAL_NAME, min_size=1, max_size=5),
        own_pi_outputs=True,
    )
)
def test_adversarial_names_round_trip_or_raise(mig):
    if not _blif_can_carry(mig):
        with pytest.raises(ValueError):
            _text(write_blif, mig)
        return
    back = read_blif(io.StringIO(_text(write_blif, mig)))
    assert back.pi_names == mig.pi_names
    assert back.output_names == mig.output_names
    assert back.simulate() == mig.simulate()


@pytest.mark.parametrize("name", UNWRITABLE_NAMES)
@pytest.mark.parametrize("role", ["input", "output"])
def test_unwritable_names_raise_naming_them(role, name):
    mig = Mig(name="m")
    a = mig.add_pi("p" if role == "output" else name)
    mig.add_po(mig.maj(a, mig.add_pi("q"), mig.add_pi("r")), "f" if role == "input" else name)
    assert not _blif_can_carry(mig)
    with pytest.raises(ValueError, match=f"{role} name {re.escape(repr(name))}"):
        _text(write_blif, mig)
