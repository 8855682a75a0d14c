"""Unit tests for batch job specs, the degradation ladder, and the journal."""

from __future__ import annotations

import json

import pytest

from repro.runtime.jobs import (
    BatchReport,
    JobJournal,
    JobSpec,
    degraded,
    load_network,
    load_result_artifact,
)


def make_spec(job_id="job-1", **overrides) -> JobSpec:
    defaults = dict(
        job_id=job_id,
        network={"generate": "adder", "width": 6},
        script=("BF",),
        verify="cec",
        time_limit=5.0,
        conflict_limit=10_000,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestJobSpec:
    def test_roundtrip(self):
        spec = make_spec(cut_limit=6, mem_limit_mb=512, output="/tmp/x.blif")
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_defaults_roundtrip(self):
        spec = JobSpec(job_id="j", network={"blif": "/a.blif"})
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_large_cut_fields_roundtrip(self):
        spec = make_spec(cut_size=5, npn_store="/tmp/flows.npn5")
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.cut_size == 5 and again.npn_store == "/tmp/flows.npn5"

    def test_pre_large_cut_dicts_still_parse(self):
        # Dicts journaled before the fields existed must load with both
        # defaults — replaying an old journal is a supported restart.
        data = make_spec().to_dict()
        del data["cut_size"], data["npn_store"]
        spec = JobSpec.from_dict(data)
        assert spec.cut_size is None and spec.npn_store is None


class TestDegradation:
    def test_first_rung_weakens_verify_and_budgets(self):
        spec = make_spec()
        down, notes = degraded(spec)
        assert down.verify == "sim"
        assert down.conflict_limit == 5_000
        assert down.cut_limit == 4  # engine default 8, halved
        assert "verify:cec->sim" in notes

    def test_never_degrades_below_sim(self):
        spec = make_spec(verify="sim")
        down, _ = degraded(spec)
        assert down.verify == "sim"

    def test_ladder_has_a_floor(self):
        spec = make_spec()
        for _ in range(12):
            spec, _ = degraded(spec)
        assert spec.conflict_limit == 100
        assert spec.cut_limit == 2
        assert spec.verify == "sim"
        # At the floor the ladder is a fixed point.
        again, notes = degraded(spec)
        assert again == spec and notes == []

    def test_same_job_same_id(self):
        spec = make_spec()
        down, _ = degraded(spec)
        assert down.job_id == spec.job_id
        assert down.network == spec.network

    def test_large_cut_drops_to_the_precomputed_tier(self):
        # On-demand synthesis is on the hot path at cut_size > 4; a
        # struggling job retries at the precomputed NPN-4 tier first.
        spec = make_spec(cut_size=5, npn_store="/tmp/flows.npn5")
        down, notes = degraded(spec)
        assert down.cut_size == 4
        assert "cut_size:5->4" in notes
        # The rung is sticky: further degradation keeps NPN-4.
        again, notes2 = degraded(down)
        assert again.cut_size == 4
        assert not any(n.startswith("cut_size") for n in notes2)

    def test_default_cut_size_has_no_rung(self):
        _, notes = degraded(make_spec(cut_size=4))
        assert not any(n.startswith("cut_size") for n in notes)


class TestJournalReplay:
    def test_submit_start_done(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = make_spec()
        with JobJournal(path) as journal:
            journal.submit(spec)
            journal.start("job-1", attempt=1, pid=123, spec=spec)
            journal.done("job-1", {"size_after": 10})
        replay = JobJournal.replay(path)
        record = replay.records["job-1"]
        assert record.state == "done"
        assert record.attempts == 1
        assert record.result == {"size_after": 10}
        assert replay.order == ["job-1"]

    def test_orphaned_running_state(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = make_spec()
        with JobJournal(path) as journal:
            journal.submit(spec)
            journal.start("job-1", attempt=1, pid=123, spec=spec)
        record = JobJournal.replay(path).records["job-1"]
        assert record.state == "running"
        assert record.pid == 123

    def test_failed_requeued_quarantined(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = make_spec()
        with JobJournal(path) as journal:
            journal.submit(spec)
            journal.start("job-1", 1, 10, spec)
            journal.failed("job-1", 1, "boom", traceback="tb")
            journal.requeued("job-1", ["cut_limit:8->4"])
            journal.start("job-1", 2, 11, spec)
            journal.failed("job-1", 2, "boom again")
            journal.quarantined("job-1", "boom again", traceback="tb2")
        record = JobJournal.replay(path).records["job-1"]
        assert record.state == "quarantined"
        assert record.attempts == 2
        assert record.last_error == "boom again"
        assert record.degradations == ["cut_limit:8->4"]

    def test_terminal_states_are_immutable(self, tmp_path):
        """Duplicate post-terminal events must not double-count a job."""
        path = tmp_path / "journal.jsonl"
        spec = make_spec()
        with JobJournal(path) as journal:
            journal.submit(spec)
            journal.start("job-1", 1, 10, spec)
            journal.done("job-1", {"size_after": 3})
            # Stale events from a pre-crash attempt replayed afterwards:
            journal.failed("job-1", 1, "late failure")
            journal.done("job-1", {"size_after": 99})
        record = JobJournal.replay(path).records["job-1"]
        assert record.state == "done"
        assert record.result == {"size_after": 3}

    def test_resume_interrupted_reruns_same_attempt(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = make_spec()
        with JobJournal(path) as journal:
            journal.submit(spec)
            journal.start("job-1", 1, 10, spec)
            journal.requeued("job-1", ["resume:interrupted"])
        record = JobJournal.replay(path).records["job-1"]
        assert record.state == "pending"
        assert record.attempts == 0  # next start is attempt 1 again

    def test_torn_final_line_is_discarded(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = make_spec()
        with JobJournal(path) as journal:
            journal.submit(spec)
            journal.start("job-1", 1, 10, spec)
        with open(path, "ab") as fp:
            fp.write(b'{"event": "done", "job": "job-1", "resu')  # crash mid-append
        replay = JobJournal.replay(path)
        assert replay.records["job-1"].state == "running"
        assert replay.skipped_lines == 1

    def test_mid_file_garbage_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        spec = make_spec()
        with JobJournal(path) as journal:
            journal.submit(spec)
        with open(path, "ab") as fp:
            fp.write(b"not json at all\n")
        with JobJournal(path) as journal:
            journal.done("job-1", {})
        replay = JobJournal.replay(path)
        assert replay.records["job-1"].state == "done"
        assert replay.skipped_lines == 1

    def test_duplicate_submit_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.submit(make_spec())
            journal.submit(make_spec(time_limit=99.0))
        replay = JobJournal.replay(path)
        assert len(replay.order) == 1
        assert replay.records["job-1"].spec.time_limit == 5.0

    def test_missing_file_replays_empty(self, tmp_path):
        replay = JobJournal.replay(tmp_path / "nope.jsonl")
        assert replay.records == {} and replay.order == []


def test_append_after_torn_tail_starts_a_fresh_line(tmp_path):
    """An event appended after a crash mid-append must not be glued onto
    the torn line, or replay would skip both."""
    path = tmp_path / "journal.jsonl"
    spec = make_spec()
    with JobJournal(path) as journal:
        journal.submit(spec)
        journal.start("job-1", 1, 10, spec)
    with open(path, "ab") as fp:
        fp.write(b'{"event": "done", "job": "job-1", "resu')  # crash mid-append
    with JobJournal(path) as journal:
        journal.done("job-1", {"size_after": 7}, adopted=True)
    replay = JobJournal.replay(path)
    record = replay.records["job-1"]
    assert (record.state, record.adopted, record.result) == (
        "done", True, {"size_after": 7}
    )
    assert replay.skipped_lines == 1


class TestResultArtifact:
    def test_valid_artifact(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"job_id": "j", "status": "ok"}))
        assert load_result_artifact(path, "j")["status"] == "ok"

    def test_missing_returns_none(self, tmp_path):
        assert load_result_artifact(tmp_path / "r.json", "j") is None

    def test_corrupt_is_quarantined(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{ torn")
        assert load_result_artifact(path, "j") is None
        assert not path.exists()
        assert (tmp_path / "r.json.corrupt").exists()

    def test_wrong_job_id_is_quarantined(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"job_id": "other", "status": "ok"}))
        assert load_result_artifact(path, "j") is None
        assert not path.exists()

    def test_missing_keys_is_quarantined(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"job_id": "j"}))
        assert load_result_artifact(path, "j") is None



class TestLoadNetwork:
    """Every locator form names the same circuit, from a path or inline."""

    def test_every_source_loads_the_same_function(self, tmp_path):
        import io

        from repro.aig.convert import mig_to_aig
        from repro.core.simulate import check_equivalence
        from repro.io.aiger import write_aag
        from repro.io.bench import write_bench
        from repro.io.blif import write_blif

        reference = load_network({"generate": "adder", "width": 4})
        texts = {}
        for kind, write, network in (
            ("blif", write_blif, reference),
            ("bench", write_bench, reference),
            ("aag", write_aag, mig_to_aig(reference)),
        ):
            buf = io.StringIO()
            write(network, buf)
            texts[kind] = buf.getvalue()
            (tmp_path / f"adder.{kind}").write_text(texts[kind])
        for kind, text in texts.items():
            from_path = load_network({kind: str(tmp_path / f"adder.{kind}")})
            inline = load_network({kind: text}, inline=True)
            for mig in (from_path, inline):
                assert check_equivalence(reference, mig), kind

    @pytest.mark.parametrize("locator", [
        None, {}, {"generate": "adder", "blif": "x.blif"}, {"blif": 3},
    ])
    def test_bad_locators_raise_value_error(self, locator):
        with pytest.raises(ValueError):
            load_network(locator)

    def test_unknown_generator_is_a_value_error(self):
        with pytest.raises(ValueError, match="nonesuch"):
            load_network({"generate": "nonesuch"})


class TestBatchReport:
    def test_workers_used_counts_nonempty_slots(self):
        report = BatchReport(jobs_per_slot={0: 3, 1: 1, 2: 0})
        assert report.workers_used == 2

    def test_to_dict_is_json_serializable(self):
        report = BatchReport(total=2, done=2, jobs_per_slot={0: 2})
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["workers_used"] == 1
        assert payload["jobs_per_slot"] == {"0": 2}


class TestFaultEnvHandshake:
    def test_env_spec_roundtrip(self):
        from repro.runtime import faults

        faults.reset()
        try:
            with faults.inject("a.b", times=3, skip=1):
                with faults.inject("c.d"):
                    spec = faults.env_spec()
                    assert "a.b:times=3:skip=1" in spec
                    assert "c.d" in spec
                    faults.reset()
                    faults.arm_from_spec(spec)
                    assert faults.armed_names() == ["a.b", "c.d"]
                    # skip honored: the first probe passes unharmed
                    assert not faults.fault_active("a.b")
                    assert faults.fault_active("a.b")
        finally:
            faults.reset()

    def test_exclude_prefix(self):
        from repro.runtime import faults

        faults.reset()
        try:
            with faults.inject("worker.crash", times=1), faults.inject("x.y"):
                spec = faults.env_spec(exclude_prefix="worker.")
                assert "worker.crash" not in spec
                assert "x.y" in spec
        finally:
            faults.reset()

    def test_arm_from_env(self, monkeypatch):
        from repro.runtime import faults

        faults.reset()
        try:
            monkeypatch.setenv(faults.FAULTS_ENV_VAR, "p.q:times=2")
            faults.arm_from_env()
            assert faults.fault_active("p.q")
            assert faults.fault_active("p.q")
            assert not faults.fault_active("p.q")
        finally:
            faults.reset()

    def test_malformed_entries_ignored(self):
        from repro.runtime import faults

        faults.reset()
        try:
            faults.arm_from_spec("good.one,bad:times=notanint,:,other:weird=1")
            assert faults.armed_names() == ["good.one"]
        finally:
            faults.reset()
