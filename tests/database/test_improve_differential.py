"""Differential test: ``improve_class`` against the frozen improver.

``improve_class`` runs on :class:`repro.exact.synthesis.ExactSynthesizer`
and keeps its own top-down descent only for a stalled size.  The frozen
copy (``_frozen_improve.py``) is the improver as it was before, with
its own ascending loop.  On every class the exhaustive witness tables
do not cover — the in-process small-MIG table for 3 and 4 inputs, the
packaged NPN-5 table for 5 — both must produce the same entry — size,
proven flag, conflicts, gates — for the same budget.  On a table-covered
class the new improver answers from the table without SAT, so it may
only be smaller, more often proven, and cheaper.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.npn import enumerate_npn_classes, npn_canonize
from repro.database.generate import generate_tree_database, improve_class
from repro.database.npn_db import DbEntry, NpnDatabase
from repro.exact.bounds import npn5_table, optimal_small_migs
from repro.exact.heuristic import heuristic_mig

from ._frozen_improve import improve_class as frozen_improve_class


def _table_covers(rep: int, num_vars: int) -> bool:
    """Whether exact synthesis answers class *rep* from a witness table."""
    if num_vars == 5:
        return rep in npn5_table().entries
    return rep in optimal_small_migs(num_vars)


def _heuristic(rep: int, num_vars: int) -> DbEntry:
    return DbEntry.from_mig(rep, heuristic_mig(rep, num_vars), proven=False)


def _tree3() -> list[DbEntry]:
    return list(generate_tree_database(num_vars=3).entries.values())


def _shipped_small() -> list[DbEntry]:
    db = NpnDatabase.load()
    return [db.entries[rep] for rep in sorted(db.entries)
            if db.entries[rep].size <= 5][::4]


def _heuristic4_sample() -> list[DbEntry]:
    # Their ascent stalls at k = 4, so the descent runs on almost all.
    return [_heuristic(rep, 4) for rep in enumerate_npn_classes(4)[::24]]


def _heuristic4_descent_witness() -> list[DbEntry]:
    # 0x16e: the ascent stalls at k = 4 and the descent finds 9 -> 5;
    # 0x18f: the ascent itself finds a 4-gate witness below 7.
    return [_heuristic(rep, 4) for rep in (0x16E, 0x18F)]


def _table4() -> list[DbEntry]:
    table = optimal_small_migs(4)
    entries = [_heuristic(rep, 4) for rep in enumerate_npn_classes(4) if rep in table]
    return [e for e in entries if e.size > len(table[e.rep])]


def _table5() -> list[DbEntry]:
    table = npn5_table().entries
    entries = [_heuristic(rep, 5) for rep in sorted(table)[::40]]
    return [e for e in entries if e.size > table[e.rep].size]


def _heuristic5_seeded() -> list[DbEntry]:
    rng = random.Random(1)
    return [_heuristic(npn_canonize(rng.getrandbits(32), 5)[0], 5) for _ in range(2)]


#: case -> (entries, num_vars, conflict budget per SAT call)
CASES = {
    "tree3-b30": (_tree3, 3, 30),
    "tree3-b300000": (_tree3, 3, 300_000),
    "shipped4-b50": (_shipped_small, 4, 50),
    "heuristic4-b200": (_heuristic4_sample, 4, 200),
    "descent-witness4-b500": (_heuristic4_descent_witness, 4, 500),
    "table4-b2000": (_table4, 4, 2000),
    "table5-b100": (_table5, 5, 100),
    "heuristic5-b100": (_heuristic5_seeded, 5, 100),
}


@pytest.mark.parametrize("case", list(CASES))
def test_matches_frozen_improver(case):
    build, num_vars, budget = CASES[case]
    entries = build()
    assert entries
    for entry in entries:
        label = f"{case} 0x{entry.rep:x}"
        old, old_conflicts = frozen_improve_class(entry.rep, entry, num_vars, budget)
        new, new_conflicts = improve_class(entry.rep, entry, num_vars, budget)
        assert new.to_mig().simulate()[0] == entry.rep, label
        assert new.conflicts == new_conflicts, label
        assert new.size <= old.size, label
        assert new.proven or not (old.proven and old.size == new.size), label
        assert new_conflicts <= old_conflicts, label
        if not _table_covers(entry.rep, num_vars):
            # Everything but the measured wall time is identical.
            assert replace(new, generation_time=0.0) == replace(
                old, generation_time=0.0
            ), label


def test_table_classes_skip_sat():
    """A table-covered class above its minimum costs no conflicts at all."""
    table = optimal_small_migs(4)
    for entry in _table4():
        new, conflicts = improve_class(entry.rep, entry, 4, 2000)
        assert conflicts == 0 and new.proven
        assert new.size == len(table[entry.rep])
