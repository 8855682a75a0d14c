"""Tests for database generation (tree phase + SAT improvement)."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.core.npn import enumerate_npn_classes
from repro.database.generate import generate_tree_database, improve_with_sat
from repro.database.npn_db import NpnDatabase


@pytest.fixture(scope="module")
def tree_db3() -> NpnDatabase:
    return generate_tree_database(num_vars=3)


class TestTreePhase:
    def test_complete_and_verified(self, tree_db3):
        assert len(tree_db3) == 14
        tree_db3.verify()

    def test_trivial_entries_proven(self, tree_db3):
        for rep, entry in tree_db3.entries.items():
            if entry.size <= 1:
                assert entry.proven

    def test_sizes_bounded_by_length(self, tree_db3):
        from repro.exact.complexity import cached_length_table

        table = cached_length_table(3)
        for rep, entry in tree_db3.entries.items():
            assert entry.size <= int(table[rep])


class TestSatPhase:
    def test_improvement_reaches_exact_3var_distribution(self, tree_db3):
        db = NpnDatabase(list(tree_db3.entries.values()), 3)
        stats = improve_with_sat(db, budget=300000)
        assert stats["visited"] > 0
        db.verify()
        # With generous budget, every 3-var class is provable.
        assert all(entry.proven for entry in db.entries.values())
        assert db.size_histogram() == {0: 2, 1: 2, 2: 2, 3: 4, 4: 4}

    def test_time_limit_checkpoints(self, tree_db3, tmp_path):
        db = NpnDatabase(list(tree_db3.entries.values()), 3)
        out = tmp_path / "partial.jsonl"
        improve_with_sat(db, budget=50000, time_limit=0.5, out_path=out)
        # Whatever happened, the checkpoint file must load and verify.
        if out.exists():
            loaded = NpnDatabase.load(out, num_vars=3)
            loaded.verify()

    def test_idempotent_on_proven(self, tree_db3):
        db = NpnDatabase(list(tree_db3.entries.values()), 3)
        improve_with_sat(db, budget=300000)
        before = {rep: e.size for rep, e in db.entries.items()}
        stats = improve_with_sat(db, budget=1000)
        assert stats["visited"] == 0  # everything already proven
        assert {rep: e.size for rep, e in db.entries.items()} == before


class TestCrashSafeGeneration:
    """Killed generation runs must leave loadable, resumable artifacts."""

    def test_interrupted_tree_phase_resumes(self, tmp_path, monkeypatch):
        import repro.database.generate as gen

        out = tmp_path / "npn3.jsonl"

        class Killed(Exception):
            pass

        real = gen.TreeSynthesizer
        state = {"n": 0}

        class Killer(real):
            def synthesize(self, rep):
                if state["n"] >= 6:
                    raise Killed()
                state["n"] += 1
                return super().synthesize(rep)

        monkeypatch.setattr(gen, "TreeSynthesizer", Killer)
        with pytest.raises(Killed):
            gen.generate_tree_database(3, out_path=out, checkpoint_every=2)
        monkeypatch.setattr(gen, "TreeSynthesizer", real)

        # The checkpoint loads cleanly and holds only verified classes.
        partial = NpnDatabase.load(out, num_vars=3)
        partial.verify()
        assert 0 < len(partial) < 14

        # Resuming fills in exactly the missing classes.
        db = generate_tree_database(3, out_path=out, resume=partial)
        assert len(db) == 14
        db.verify()
        reloaded = NpnDatabase.load(out, num_vars=3)
        assert len(reloaded) == 14
        reloaded.verify()

    def test_resume_after_truncated_append(self, tmp_path):
        out = tmp_path / "npn3.jsonl"
        generate_tree_database(3, out_path=out)
        # Simulate a kill mid-append: chop the last line in half.
        text = out.read_text()
        out.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        with pytest.warns(UserWarning):
            partial = NpnDatabase.load(out, num_vars=3)
        assert partial.skipped_lines == 1
        assert len(partial) == 13
        db = generate_tree_database(3, out_path=out, resume=partial)
        assert len(db) == 14
        db.verify()

    def test_sigkilled_subprocess_leaves_loadable_artifact(self, tmp_path):
        """Acceptance criterion: SIGKILL mid-run, artifact loads, resume works."""
        out = tmp_path / "npn4.jsonl"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.database.generate",
             "--out", str(out), "--sat-seconds", "60", "--budget", "500", "--quiet"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait for the first checkpoint, then kill hard mid-run.
            deadline = time.time() + 60
            while time.time() < deadline and not out.exists():
                time.sleep(0.1)
            assert out.exists(), "generation produced no checkpoint within 60s"
            time.sleep(0.5)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=30)

        # Atomic checkpointing: whatever instant the kill hit, the file is
        # complete JSONL of verified entries.
        partial = NpnDatabase.load(out, num_vars=4)
        assert partial.skipped_lines == 0
        assert len(partial) > 0
        partial.verify()

        # Resume completes the tree phase from the checkpoint.
        db = generate_tree_database(4, out_path=out, resume=partial)
        assert len(db) == 222
        NpnDatabase.load(out, num_vars=4).verify()


def _normalized_lines(db: NpnDatabase, path) -> str:
    """Serialize *db* with wall-clock fields zeroed, return file bytes.

    ``generation_time`` is the one field that legitimately differs
    between a serial and a parallel run (it is measured wall time);
    everything else — gates, sizes, proven flags, conflicts — must be
    byte-identical because both paths run the same deterministic
    ``improve_class``.
    """
    from repro.database.npn_db import NpnDatabase as Db

    stripped = Db(
        [replace(e, generation_time=0.0) for e in db.entries.values()],
        db.num_vars,
    )
    stripped.save(path)
    return path.read_text()


class TestDbImproveWorkerJob:
    """The ``db-improve`` job mode, run in-process via `run_job`."""

    def _spec(self, tree_db3, rep, **overrides):
        from repro.database.npn_db import entry_to_json
        from repro.runtime.jobs import JobSpec

        fields = dict(
            job_id=f"db-0x{rep:04x}",
            network={},
            mode="db-improve",
            verify="sim",
            conflict_limit=300000,
            payload={
                "rep": rep,
                "num_vars": 3,
                "budget": 300000,
                "entry": entry_to_json(tree_db3.entries[rep]),
            },
        )
        fields.update(overrides)
        return JobSpec(**fields)

    def test_improves_and_returns_entry(self, tree_db3):
        from repro.database.npn_db import entry_from_json
        from repro.runtime.worker import run_job

        rep = max(tree_db3.entries, key=lambda r: tree_db3.entries[r].size)
        result = run_job(self._spec(tree_db3, rep))
        assert result["status"] == "ok" and result["rep"] == rep
        new_entry = entry_from_json(result["entry"])
        assert new_entry.to_mig().simulate()[0] == rep
        assert new_entry.proven
        assert result["size_after"] <= result["size_before"]

    def test_budget_comes_from_conflict_limit(self, tree_db3):
        """The degradation ladder shrinks conflict_limit; it must bind."""
        from repro.database.npn_db import entry_from_json
        from repro.runtime.worker import run_job

        rep = max(tree_db3.entries, key=lambda r: tree_db3.entries[r].size)
        result = run_job(self._spec(tree_db3, rep, conflict_limit=1))
        assert entry_from_json(result["entry"]).conflicts <= 2

    def test_malformed_payload_rejected(self, tree_db3):
        from repro.runtime.worker import run_job

        rep = next(iter(tree_db3.entries))
        spec = self._spec(tree_db3, rep, payload={"rep": rep})
        with pytest.raises(ValueError, match="malformed db-improve payload"):
            run_job(spec)


class TestParallelSatPhase:
    """`improve_with_sat(jobs=N)` must be a drop-in for the serial loop."""

    BUDGET = 300000

    def test_parallel_output_is_byte_identical_to_serial(self, tree_db3, tmp_path):
        serial_db = NpnDatabase(list(tree_db3.entries.values()), 3)
        improve_with_sat(serial_db, budget=self.BUDGET)

        par_db = NpnDatabase(list(tree_db3.entries.values()), 3)
        out = tmp_path / "npn3-par.jsonl"
        stats = improve_with_sat(
            par_db,
            budget=self.BUDGET,
            out_path=out,
            jobs=2,
            workdir=tmp_path / "jobs",
        )
        assert stats["failed_jobs"] == 0
        assert stats["visited"] == sum(
            1 for e in tree_db3.entries.values() if not e.proven
        )
        par_db.verify()
        assert _normalized_lines(serial_db, tmp_path / "ser-norm.jsonl") == (
            _normalized_lines(par_db, tmp_path / "par-norm.jsonl")
        )

    def test_sigkilled_parallel_run_resumes_without_redoing_done_jobs(self, tmp_path):
        """Kill `db generate --jobs` mid-SAT-phase; resume adopts done classes."""
        out = tmp_path / "npn3.jsonl"
        workdir = tmp_path / "jobs"
        driver = tmp_path / "driver.py"
        driver.write_text(
            "import sys\n"
            "from repro.database.generate import (\n"
            "    generate_tree_database, improve_with_sat)\n"
            "db = generate_tree_database(num_vars=3)\n"
            "improve_with_sat(db, budget=%d, out_path=sys.argv[1],\n"
            "                 jobs=1, workdir=sys.argv[2])\n" % self.BUDGET
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        results = workdir / "results"
        journal = workdir / "journal.jsonl"

        def _done_jobs() -> list[str]:
            from repro.runtime.jobs import JobJournal

            if not journal.exists():
                return []
            replay = JobJournal.replay(journal)
            return [record.spec.job_id for record in replay.by_state("done")]

        proc = subprocess.Popen(
            [sys.executable, str(driver), str(out), str(workdir)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Wait until the journal records at least two completed class
            # jobs, then SIGKILL the supervisor mid-run.
            deadline = time.time() + 120
            while time.time() < deadline and proc.poll() is None:
                if len(_done_jobs()) >= 2:
                    break
                time.sleep(0.05)
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        assert journal.exists()
        # Artifacts of journal-done jobs must survive the resumed batch
        # untouched (recovery re-journals them, it never re-runs them).
        done_before = {
            job_id: (results / f"{job_id}.json").stat().st_mtime_ns
            for job_id in _done_jobs()
        }
        assert done_before, "no class job completed before the kill"

        # Resume with the same workdir: completed jobs are adopted from
        # their artifacts, the rest run, and the result matches serial.
        par_db = generate_tree_database(num_vars=3)
        stats = improve_with_sat(
            par_db, budget=self.BUDGET, out_path=out, jobs=2, workdir=workdir
        )
        assert stats["failed_jobs"] == 0
        par_db.verify()
        assert all(e.proven for e in par_db.entries.values())
        assert par_db.size_histogram() == {0: 2, 1: 2, 2: 2, 3: 4, 4: 4}
        # Adopted artifacts were not rewritten by the resumed batch.
        for job_id, mtime in done_before.items():
            assert (results / f"{job_id}.json").stat().st_mtime_ns == mtime, job_id


class TestShippedDatabaseProvenance:
    def test_shipped_entries_within_length_bound(self, db):
        from repro.exact.complexity import cached_length_table

        table = cached_length_table(4)
        for rep, entry in db.entries.items():
            assert entry.size <= int(table[rep]), hex(rep)

    def test_shipped_proven_rows_match_paper_low_sizes(self, db):
        """Sizes 0-3 are cheap to prove; the shipped db must have them."""
        for rep, entry in db.entries.items():
            if entry.size <= 1:
                assert entry.proven, hex(rep)

    def test_covers_all_classes(self, db):
        assert set(db.entries) == set(enumerate_npn_classes(4))
