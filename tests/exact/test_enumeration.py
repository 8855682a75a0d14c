"""Certificates of the small-MIG level enumerator (repro.exact.bounds).

* differential: the enumerator reaches the same functions with the same
  witness sizes as the frozen pure-Python sweep it replaced
  (``_frozen_small_migs.py``);
* Table I rows 1–4 (2, 5, 18 and 42 NPN-4 classes at 1–4 gates) follow
  from enumerating every 4-input MIG of at most four gates, and the
  shipped NPN-4 database agrees on each of those classes;
* every line of the packaged ``npn5_le4.jsonl`` is a proven, canonical,
  simulating entry, the class counts are 2/6/41/307, and each class's
  whole NPN orbit first appears at one level; a torn or short file
  refuses to load;
* SAT, which shares no code with the enumerator, agrees on a fixed
  sample of NPN-5 classes: a witness at the table size, none below;
* nightly: a fresh enumeration rewrites the packaged file byte for byte.
"""

from __future__ import annotations

import os
import warnings
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.mig import CONST0, Mig
from repro.core.npn import npn_orbit
from repro.database.npn_db import NpnDatabase
from repro.exact import bounds
from repro.exact.bounds import (
    NPN5_TABLE_GATES,
    SmallMigEnumeration,
    npn5_table,
    optimal_small_migs,
    write_npn5_table,
)
from repro.exact.encoding import encode_exact_mig

from ._frozen_small_migs import optimal_small_migs as frozen_small_migs

PACKAGED = resources.files("repro.database").joinpath("data", "npn5_le4.jsonl")


def _histogram(entries) -> dict[int, int]:
    counts: dict[int, int] = {}
    for entry in entries:
        counts[entry.size] = counts.get(entry.size, 0) + 1
    return dict(sorted(counts.items()))


@pytest.mark.parametrize(
    "num_vars, functions", [(3, 152), (4, 4020), (5, 3040), (6, 9240)]
)
def test_matches_frozen_sweep(num_vars, functions):
    """Three gates for n <= 4, two above, as the frozen sweep."""
    new = optimal_small_migs(num_vars)
    old = frozen_small_migs(num_vars)
    assert len(new) == len(old) == functions
    assert set(new) == set(old)
    assert all(len(new[tt]) == len(old[tt]) for tt in old)


def _rebuild(witness, num_vars: int) -> Mig:
    mig = Mig(num_vars)
    signals = [CONST0] + mig.pi_signals()
    for ops in witness:
        signals.append(mig.maj(*(signals[s >> 1] ^ (s & 1) for s in ops)))
    mig.add_po(signals[-1], "f")
    return mig


@pytest.mark.parametrize("num_vars", [2, 3, 4, 5, 6])
def test_witnesses_simulate(num_vars):
    """Every ``num_vars``-th function's witness computes it at its size."""
    table = optimal_small_migs(num_vars)
    for spec in sorted(table)[::num_vars]:
        mig = _rebuild(table[spec], num_vars)
        assert mig.simulate()[0] == spec
        assert mig.num_gates == len(table[spec])


def test_npn4_table1_rows_1_to_4():
    """Enumeration certifies Table I rows 1–4 and the shipped entries."""
    classes = SmallMigEnumeration(4, 4).class_entries()
    assert _histogram(classes) == {1: 2, 2: 5, 3: 18, 4: 42}
    shipped = NpnDatabase.load()
    for entry in classes:
        assert entry.to_mig().simulate()[0] == entry.rep
        known = shipped.entries[entry.rep]
        assert known.size == entry.size, hex(entry.rep)
        assert entry.depth <= known.depth, hex(entry.rep)
    # No other shipped class of at most four gates.
    assert sum(1 for e in shipped.entries.values() if 0 < e.size <= 4) == len(classes)


class TestPackagedNpn5Table:
    def test_every_line(self):
        table = npn5_table()
        assert table.skipped_lines == 0
        for rep, entry in table.entries.items():
            assert entry.rep == rep and entry.num_vars == 5
            assert entry.to_mig().simulate()[0] == rep, hex(rep)
            assert int(npn_orbit(rep, 5)[0]) == rep, hex(rep)
            assert entry.size == len(entry.gates) and entry.proven
            assert entry.to_mig().depth() == entry.depth
        assert _histogram(table.entries.values()) == {1: 2, 2: 6, 3: 41, 4: 307}

    @pytest.mark.parametrize("damage", ["torn-last-line", "lost-class"])
    def test_incomplete_file_raises(self, damage, tmp_path, monkeypatch):
        """A torn or short file must not answer: its lower bounds would lie."""
        lines = PACKAGED.read_text(encoding="utf-8").splitlines(keepends=True)
        if damage == "torn-last-line":
            lines[-1] = lines[-1][: len(lines[-1]) // 2]
        else:
            del lines[100]
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "npn5_le4.jsonl").write_text("".join(lines), encoding="utf-8")
        monkeypatch.setattr(bounds, "resources", SimpleNamespace(files=lambda _: tmp_path))
        npn5_table.cache_clear()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                with pytest.raises(RuntimeError, match="incomplete"):
                    npn5_table()
        finally:
            npn5_table.cache_clear()

    def test_orbits_first_appear_at_one_level(self):
        """Classes of 1–3 gates: the whole orbit is enumerated at that size.

        Classes of four gates: no orbit member has three gates or fewer,
        and each has a four-gate witness (the class witness under the
        transform), so all first appear at level 4.
        """
        table = npn5_table()
        enumeration = SmallMigEnumeration(5, NPN5_TABLE_GATES - 1)
        mask = np.uint64(enumeration.mask)
        for rep, entry in table.entries.items():
            orbit = npn_orbit(rep, 5)
            members = np.unique(np.where(orbit & np.uint64(1), orbit ^ mask, orbit))
            where = np.minimum(
                np.searchsorted(enumeration.tts, members), enumeration.tts.size - 1
            )
            present = enumeration.tts[where] == members
            if entry.size < NPN5_TABLE_GATES:
                assert present.all(), hex(rep)
                assert (enumeration.sizes[where] == entry.size).all(), hex(rep)
            else:
                assert not present.any(), hex(rep)

    def test_small_classes_match_a_shallower_enumeration(self):
        """Stopping at three gates reaches the same entries below four."""
        small = SmallMigEnumeration(5, NPN5_TABLE_GATES - 1).class_entries()
        packaged = [e for _, e in sorted(npn5_table().entries.items()) if e.size < 4]
        assert small == packaged

    @pytest.mark.parametrize("rep", [0x1, 0x3FFF, 0x3FCFF, 0x3C0FC3F])
    def test_sat_agrees_on_a_sample(self, rep):
        """SAT finds a witness at the table size and refutes one gate less."""
        size = npn5_table().entries[rep].size
        below = encode_exact_mig(rep, 5, size - 1)
        assert below.solve_cegar(conflict_budget=20_000) is False
        at = encode_exact_mig(rep, 5, size)
        assert at.solve_cegar(conflict_budget=20_000) is True
        assert at.extract_mig().simulate()[0] == rep


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_SCALE_NIGHTLY"),
    reason="re-enumerating every 5-input MIG of four gates takes about a "
    "minute; the nightly CI job sets REPRO_SCALE_NIGHTLY=1",
)
def test_packaged_npn5_table_reproduces(tmp_path):
    """A fresh enumeration writes the packaged file byte for byte."""
    out = tmp_path / "npn5_le4.jsonl"
    write_npn5_table(out)
    assert out.read_bytes() == PACKAGED.read_bytes()
