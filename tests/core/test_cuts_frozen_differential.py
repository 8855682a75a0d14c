"""Differential test: the flat cut layer against the frozen enumerator.

``_frozen_cuts.py`` keeps the enumerator as it stood before the flat cut
layer (per-gate ``fanins()`` calls, one init slot per trivial cut, every
gate cut a program row, the program in Python lists).  On every network
here — random MIGs and AIGs, and each registry generator raw, depth
optimized, after a BF pass and as an AIG — in both modes, at every cut
width the program serves and at three priority limits, the shipped
:func:`enumerate_cut_set` must give:

* the same per-node ``(leaves, signature, cone size)`` lists, in order;
* the same table for every entry, read by its own slot, from
  ``slot_tables(k)`` and from ``slot_tables(4)`` (the database width);
* the same ``batch_tt4s`` arrays;
* the same database answer per entry from ``prepare_lookup_table``
  (k <= 4, the database width);
* the same ``PassMetrics`` counters.

Slot numbers are internal and differ: the shipped program shares one
slot among every PI and trivial cut.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.convert import mig_to_aig
from repro.core.cuts import enumerate_cut_set
from repro.database.npn_db import NpnDatabase
from repro.generators import GENERATORS, layered_mig, resolve_generator
from repro.opt.depth_opt import optimize_depth
from repro.rewriting.batch import prepare_lookup_table
from repro.rewriting.engine import functional_hashing
from repro.runtime.metrics import PassMetrics

from ..io.test_reader_differential import SMALL_WIDTH
from . import _frozen_cuts as frozen
from .test_cuts_differential import random_aig, random_mig

#: the width of the shipped NPN database's entries
DB_WIDTH = 4
CUT_LIMITS = (1, 8, 25)


@pytest.fixture(scope="module")
def db() -> NpnDatabase:
    return NpnDatabase.load()


def _by_entry(cut_set, values) -> list[list]:
    """Per node, the value each entry reads by its own slot."""
    return [[values[entry[3]] for entry in node] for node in cut_set.entries]


def assert_same_layer(net, k: int, cut_limit: int, ffr: bool, db=None) -> None:
    fanout = net.fanout_counts() if ffr else None
    m_old, m_new = PassMetrics(), PassMetrics()
    old = frozen.enumerate_cut_set(net, k, cut_limit, m_old, fanout)
    new = enumerate_cut_set(net, k, cut_limit, m_new, fanout)
    assert [[e[:3] for e in node] for node in new.entries] == [
        [e[:3] for e in node] for node in old.entries
    ]
    for width in sorted({k, DB_WIDTH}):
        assert _by_entry(new, new.slot_tables(width)) == _by_entry(
            old, old.slot_tables(width)
        ), width
        got, expected = new.batch_tt4s(width), old.batch_tt4s(width)
        assert got.dtype == expected.dtype and np.array_equal(got, expected), width
    assert new.compute_functions() == old.compute_functions()
    if db is not None and k <= db.num_vars:
        assert _by_entry(new, prepare_lookup_table(new, db, m_new)) == _by_entry(
            old, prepare_lookup_table(old, db, m_old)
        )
    assert m_new.to_dict() == m_old.to_dict()


@given(
    st.one_of(random_mig(), random_aig()),
    st.integers(min_value=2, max_value=6),
    st.sampled_from(CUT_LIMITS),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_random_networks(net, k, cut_limit, ffr):
    assert_same_layer(net, k, cut_limit, ffr)


@given(
    num_gates=st.integers(1, 150),
    num_pis=st.integers(1, 9),
    width=st.integers(1, 24),
    locality=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    k=st.integers(min_value=2, max_value=6),
    cut_limit=st.sampled_from(CUT_LIMITS),
    ffr=st.booleans(),
    aig=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_layered_networks(
    num_gates, num_pis, width, locality, seed, k, cut_limit, ffr, aig
):
    net = layered_mig(num_gates, num_pis, width, locality, 3, seed)
    assert_same_layer(mig_to_aig(net) if aig else net, k, cut_limit, ffr)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_registry_generators(name, db):
    raw = resolve_generator(name, width=SMALL_WIDTH[name])
    optimized = optimize_depth(raw, rounds=2)
    bf = functional_hashing(optimized, db, "BF")
    for net in (raw, optimized, bf, mig_to_aig(optimized)):
        for ffr in (False, True):
            for k in range(2, 7):
                for cut_limit in CUT_LIMITS:
                    assert_same_layer(net, k, cut_limit, ffr, db)
