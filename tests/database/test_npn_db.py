"""Tests for the NPN-4 minimum-MIG database."""

from __future__ import annotations

import io
import random

import pytest

from repro.core.mig import CONST0, Mig
from repro.core.npn import enumerate_npn_classes
from repro.core.truth_table import tt_mask
from repro.database.npn_db import (
    DbEntry,
    NpnDatabase,
    entry_from_json,
    entry_to_json,
)
from repro.runtime import faults


class TestLoadedDatabase:
    def test_complete(self, db):
        assert len(db) == 222
        assert db.complete
        assert set(db.entries) == set(enumerate_npn_classes(4))

    def test_every_entry_verifies(self, db):
        db.verify()  # raises on any functional mismatch

    def test_size_histogram_shape(self, db):
        hist = db.size_histogram()
        assert sum(hist.values()) == 222
        assert hist[0] == 2  # constants + projections
        assert hist[1] == 2  # AND/OR-like + MAJ-like (Table I)
        assert hist[2] == 5
        assert hist[3] == 18
        assert max(hist) <= 9

    def test_lookup_arbitrary_function(self, db):
        entry, t = db.lookup(0xCAFE)
        assert entry.rep == db.lookup(0xCAFE)[0].rep
        from repro.core.npn import apply_transform

        assert apply_transform(entry.rep, t, 4) == 0xCAFE

    def test_size_of_trivial(self, db):
        assert db.size_of(0) == 0
        assert db.size_of(tt_mask(4)) == 0
        assert db.size_of(0xAAAA) == 0  # projection x0


class TestRebuild:
    def test_rebuild_matches_function(self, db):
        rng = random.Random(17)
        for _ in range(80):
            tt = rng.getrandbits(16)
            mig = Mig(4)
            leaves = mig.pi_signals()
            signal = db.rebuild(mig, tt, leaves)
            mig.add_po(signal)
            assert mig.simulate()[0] == tt, hex(tt)

    def test_rebuild_with_shuffled_leaves(self, db):
        mig = Mig(4)
        a, b, c, d = mig.pi_signals()
        tt = 0x8000  # a & b & c & d
        signal = db.rebuild(mig, tt, [d, c, b, a])
        mig.add_po(signal)
        assert mig.simulate()[0] == tt

    def test_rebuild_with_constant_leaf(self, db):
        mig = Mig(4)
        a, b, c, _ = mig.pi_signals()
        tt = 0x0888  # some function
        signal = db.rebuild(mig, tt, [a, b, c, CONST0])
        mig.add_po(signal)
        # evaluate expected: tt with x3 = 0
        expected = 0
        for m in range(16):
            if m & 0b1000:
                continue
            if (tt >> m) & 1:
                expected |= 1 << m
                expected |= 1 << (m | 0b1000)
        assert mig.simulate()[0] == expected

    def test_rebuild_wrong_leaf_count(self, db):
        mig = Mig(4)
        with pytest.raises(ValueError):
            db.rebuild(mig, 0x1234, mig.pi_signals()[:3])


class TestPinDepths:
    def test_trivial_entry_depths(self, db):
        entry, _ = db.lookup(0xAAAA)  # projection class (rep is a literal)
        pins = entry.pin_depths()
        assert sorted(pins) == [-1, -1, -1, 0]

    def test_instantiated_depth_upper_bounds_reality(self, db):
        rng = random.Random(23)
        for _ in range(40):
            tt = rng.getrandbits(16)
            est = db.instantiated_depth(tt, [0, 0, 0, 0])
            mig = Mig(4)
            signal = db.rebuild(mig, tt, mig.pi_signals())
            mig.add_po(signal)
            # strashing can only shrink depth vs the stored structure
            assert mig.depth() <= est


class TestSerialization:
    def test_json_roundtrip(self, db):
        entry = db.entries[sorted(db.entries)[50]]
        line = entry_to_json(entry)
        back = entry_from_json(line)
        assert back == entry or (
            back.rep == entry.rep
            and back.gates == entry.gates
            and back.output == entry.output
        )

    def test_save_load_roundtrip(self, db, tmp_path):
        path = tmp_path / "db.jsonl"
        db.save(path)
        loaded = NpnDatabase.load(path)
        assert len(loaded) == len(db)
        for rep, entry in db.entries.items():
            assert loaded.entries[rep].gates == entry.gates

    def test_from_jsonl_skips_blank_lines(self, db):
        entry = next(iter(db.entries.values()))
        text = entry_to_json(entry) + "\n\n"
        loaded = NpnDatabase.from_jsonl(io.StringIO(text))
        assert len(loaded) == 1

    def test_missing_entry_raises(self):
        empty = NpnDatabase([], 4)
        with pytest.raises(KeyError):
            empty.lookup(0x1234)
        assert not empty.complete


class TestAnswers:
    """``lookup`` and ``lookup_batch`` hand out answers through one place."""

    def test_corrupt_entry_fires_once_per_answer(self, db):
        tts = [0xCAFE, 0x1234, 0x8000]
        before = faults.fired_count("db.corrupt-entry")
        with faults.inject("db.corrupt-entry", times=1):
            table = db.lookup_batch(tts)
        assert faults.fired_count("db.corrupt-entry") == before + 1
        corrupt = [tt for tt in tts if table[tt] != db.lookup(tt)]
        assert len(corrupt) == 1
        entry, _ = table[corrupt[0]]
        good, _ = db.lookup(corrupt[0])
        assert (entry.size, entry.output) == (0, good.output ^ 1)
        with faults.inject("db.corrupt-entry"):
            entry, _ = db.lookup(0xCAFE)
        assert faults.fired_count("db.corrupt-entry") == before + 2
        assert entry.output == db.lookup(0xCAFE)[0].output ^ 1


class TestMalformedJsonl:
    """Interrupted appends and bit-rot must not abort a load mid-file."""

    def test_truncated_last_line_skipped(self, db):
        reps = sorted(db.entries)[:3]
        lines = [entry_to_json(db.entries[r]) for r in reps]
        text = "\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2]
        with pytest.warns(UserWarning, match="malformed line 3"):
            loaded = NpnDatabase.from_jsonl(io.StringIO(text))
        assert len(loaded) == 2
        assert loaded.skipped_lines == 1

    def test_garbage_lines_skipped(self, db):
        entry = next(iter(db.entries.values()))
        text = "not json at all\n" + entry_to_json(entry) + "\n{\"rep\": \"0x0\"}\n"
        with pytest.warns(UserWarning):
            loaded = NpnDatabase.from_jsonl(io.StringIO(text))
        assert len(loaded) == 1
        assert loaded.skipped_lines == 2

    def test_clean_file_reports_zero_skips(self, db, tmp_path):
        path = tmp_path / "db.jsonl"
        db.save(path)
        loaded = NpnDatabase.load(path)
        assert loaded.skipped_lines == 0

    def test_atomic_save_leaves_no_temp_files(self, db, tmp_path):
        path = tmp_path / "db.jsonl"
        db.save(path)
        db.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["db.jsonl"]


class TestDbEntry:
    def test_from_mig_requires_single_output(self, full_adder):
        with pytest.raises(ValueError):
            DbEntry.from_mig(0, full_adder, proven=False)

    def test_to_mig_roundtrip(self, db):
        for rep in list(db.entries)[:30]:
            mig = db.entries[rep].to_mig()
            assert mig.simulate()[0] == rep
