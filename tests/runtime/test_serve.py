"""The optimization-as-a-service daemon (repro.runtime.serve).

Fast tests drive :class:`OptimizationService` directly (``num_workers=0``
gives a deterministic queue that never drains); the lifecycle tests run
real supervised optimizations of tiny adders; the chaos drills launch
the actual ``migopt serve`` CLI in a subprocess and kill it.
"""

from __future__ import annotations

import errno
import http.client
import io
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.io.blif import read_blif
from repro.runtime import executors, serve
from repro.runtime import supervisor as supervisor_module
from repro.runtime.cache import ResultCache
from repro.runtime.faults import inject
from repro.runtime.jobs import JobJournal
from repro.runtime.serve import (
    CRASH_EXIT_CODE,
    MAX_BODY_BYTES,
    OptimizationService,
    ServeDaemon,
    run_server,
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

ADDER4 = {"network": {"generate": "adder", "width": 4}, "script": ["BF"],
          "verify": "sim"}


def _request(base, method, path, body=None, timeout=10):
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _exchange(port, data, timeout=10):
    """Send raw *data* on a fresh connection, half-close it, and read
    every response until the daemon closes the connection."""
    received = b""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass
    return received


def _post_head(length) -> bytes:
    """A ``POST /jobs`` request head declaring *length* (any ``str()``)."""
    return b"POST /jobs HTTP/1.1\r\nHost: serve\r\nContent-Length: %s\r\n\r\n" % (
        str(length).encode())


def _only_response(reply: bytes) -> bytes:
    """The status line of *reply*, which must hold exactly one response."""
    head, _, body = reply.partition(b"\r\n\r\n")
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    assert len(body) == length, reply
    return head.split(b"\r\n", 1)[0]


def _journal_events(path):
    events = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            pass
    return events


def _worker_pids() -> set[int]:
    """Live processes whose command line names the worker module (a
    fork server and its children alike; zombies show none)."""
    pids = set()
    for entry in Path("/proc").iterdir():
        try:
            if b"repro.runtime.worker" in (entry / "cmdline").read_bytes():
                pids.add(int(entry.name))
        except (OSError, ValueError):
            pass
    return pids


def _wait_until(predicate, what, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not (value := predicate()):
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.05)
    return value


def _full_disk(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


def _wait_terminal(poll, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = poll()
        if status["status"] in ("done", "failed", "timeout"):
            return status
        time.sleep(0.2)
    raise AssertionError(f"job did not finish in {timeout}s: {status}")


@pytest.fixture
def idle_service(tmp_path):
    """A service whose queue never drains — deterministic admission tests."""
    service = OptimizationService(tmp_path / "serve", num_workers=0, queue_limit=2)
    service.start()
    yield service
    service.close()


class TestValidation:
    def test_missing_network(self, idle_service):
        code, payload = idle_service.submit({"script": ["BF"]})
        assert code == 400 and payload["error"] == "bad-request"

    def test_ambiguous_network(self, idle_service):
        code, _ = idle_service.submit(
            {"network": {"generate": "adder", "blif": "..."}}
        )
        assert code == 400

    def test_unknown_generator(self, idle_service):
        code, payload = idle_service.submit({"network": {"generate": "nonesuch"}})
        assert code == 400 and "nonesuch" in payload["detail"]

    def test_unparsable_upload(self, idle_service):
        code, payload = idle_service.submit({"network": {"blif": "not a circuit"}})
        assert code == 400 and "could not parse" in payload["detail"]

    def test_unknown_flow_step(self, idle_service):
        code, payload = idle_service.submit(
            {"network": {"generate": "adder", "width": 4}, "script": ["ZZ"]}
        )
        assert code == 400 and "ZZ" in payload["detail"]

    def test_every_flow_step_is_admitted(self, idle_service):
        """Admission reads the flow's step table: the standing matrix's
        round trip is accepted."""
        code, _ = idle_service.submit(dict(ADDER4, script=["BF", "remap", "BF"]))
        assert code == 202

    def test_steps_the_flow_rejects_are_400(self, idle_service):
        """Step names are case-sensitive; the flow would reject this one."""
        code, payload = idle_service.submit(dict(ADDER4, script=["Depth"]))
        assert code == 400 and "Depth" in payload["detail"]

    def test_bad_verify(self, idle_service):
        code, _ = idle_service.submit(
            {"network": {"generate": "adder", "width": 4}, "verify": "maybe"}
        )
        assert code == 400

    def test_non_object_body(self, idle_service):
        code, _ = idle_service.submit([1, 2, 3])
        assert code == 400

    def test_unknown_job_is_404(self, idle_service):
        code, _ = idle_service.job_status("no-such-job")
        assert code == 404

    def test_aiger_upload_blif_cannot_carry_is_400(self, idle_service):
        # Output "a" is named like an input that does not drive it.
        aag = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 a\ni1 b\no0 a\n"
        code, payload = idle_service.submit({"network": {"aag": aag}})
        assert code == 400 and "output 'a'" in payload["detail"], payload
        assert not idle_service.jobs

    def test_aiger_upload_named_like_a_gate_is_stored_readable(self, idle_service):
        aag = "aag 4 3 0 1 1\n2\n4\n6\n8\n8 2 4\ni0 a\ni1 n3\ni2 n4\no0 f\n"
        code, payload = idle_service.submit({"network": {"aag": aag}})
        assert code == 202, payload
        stored = idle_service.jobs_dir / payload["job_id"] / "input.blif"
        mig = read_blif(io.StringIO(stored.read_text()))
        assert mig.pi_names == ("a", "n3", "n4") and mig.output_names == ("f",)

    def test_crlf_blif_upload_with_a_continuation_is_admitted(self, idle_service):
        blif = ".model t\r\n.inputs a \\\r\nb\r\n.outputs f\r\n.names a b f\r\n11 1\r\n.end\r\n"
        code, payload = idle_service.submit({"network": {"blif": blif}})
        assert code == 202, payload

    def test_bad_cut_size(self, idle_service):
        code, payload = idle_service.submit(dict(ADDER4, cut_size=7))
        assert code == 400 and "cut_size" in payload["detail"]


class TestLargeCutConfig:
    @pytest.fixture
    def store_service(self, tmp_path):
        """Daemon configured for large-cut hashing against its own store."""
        service = OptimizationService(
            tmp_path / "serve", num_workers=0, queue_limit=4,
            default_cut_size=5, npn_store=tmp_path / "flows.npn5",
        )
        service.start()
        yield service
        service.close()

    def _spec_of(self, service, code_payload):
        code, payload = code_payload
        assert code == 202
        return service.jobs[payload["job_id"]].spec

    def test_daemon_default_applies(self, store_service):
        spec = self._spec_of(store_service, store_service.submit(dict(ADDER4)))
        assert spec.cut_size == 5
        assert spec.npn_store == store_service.npn_store

    def test_request_may_opt_back_to_npn4(self, store_service):
        spec = self._spec_of(
            store_service, store_service.submit(dict(ADDER4, cut_size=4))
        )
        assert spec.cut_size == 4
        assert spec.npn_store is None  # no store at the precomputed tier

    def test_store_path_is_never_client_input(self, store_service):
        """A request must not point workers at arbitrary filesystem
        paths — the store is daemon configuration only."""
        spec = self._spec_of(
            store_service,
            store_service.submit(
                dict(ADDER4, cut_size=5, npn_store="/etc/passwd")
            ),
        )
        assert spec.npn_store == store_service.npn_store

    def test_cut_size_without_store_is_allowed(self, idle_service):
        # Plain daemon, client asks for 5-input cuts: the worker builds
        # a memory-only DynamicDatabase; there is just no persistence.
        code, payload = idle_service.submit(dict(ADDER4, cut_size=5))
        assert code == 202
        spec = idle_service.jobs[payload["job_id"]].spec
        assert spec.cut_size == 5 and spec.npn_store is None

    def test_stats_exposes_store_section(self, store_service):
        section = store_service.stats()["npn_store"]
        assert section["path"] == store_service.npn_store
        for key in ("store_hits", "store_disk_hits", "store_synth",
                    "store_evictions"):
            assert section[key] == 0

    def test_bad_daemon_cut_size_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            OptimizationService(tmp_path / "s", default_cut_size=3)


class TestAdmission:
    def test_queue_full_gives_429(self, idle_service):
        for width in (3, 4):
            code, _ = idle_service.submit(
                {"network": {"generate": "adder", "width": width}}
            )
            assert code == 202
        code, payload = idle_service.submit(
            {"network": {"generate": "adder", "width": 5}}
        )
        assert code == 429 and payload["error"] == "queue-full"
        assert idle_service.stats()["jobs"]["rejected"] == 1

    def test_identical_inflight_requests_coalesce(self, idle_service):
        code1, first = idle_service.submit(dict(ADDER4))
        code2, second = idle_service.submit(dict(ADDER4))
        assert (code1, code2) == (202, 202)
        assert second["coalesced"] is True
        assert second["job_id"] == first["job_id"]
        assert idle_service.stats()["jobs"]["coalesced"] == 1
        # Coalescing kept a queue slot free: a distinct request still fits.
        code3, _ = idle_service.submit(
            {"network": {"generate": "adder", "width": 6}}
        )
        assert code3 == 202

    def test_draining_gives_503(self, idle_service):
        idle_service.initiate_drain()
        code, payload = idle_service.submit(dict(ADDER4))
        assert code == 503 and payload["error"] == "draining"

    def test_queued_deadline_expiry_is_a_typed_timeout(self, idle_service):
        request = dict(ADDER4)
        request["deadline"] = 0.05
        code, payload = idle_service.submit(request)
        assert code == 202
        time.sleep(0.1)
        code, status = idle_service.job_status(payload["job_id"])
        assert code == 200
        assert status["status"] == "timeout"
        assert "deadline" in status["error"]
        assert idle_service.stats()["jobs"]["timeout"] == 1

    def test_admission_is_one_locked_step(self, tmp_path, monkeypatch):
        """Coalescing, the queue limit and the reservation are one locked
        step before the request is persisted: while a slow disk holds the
        first submission, no concurrent one gets past the limit or around
        coalescing."""
        write = serve.atomic_write_text

        def slow_write(path, text):
            time.sleep(0.3)
            write(path, text)

        monkeypatch.setattr(serve, "atomic_write_text", slow_write)

        def race(name, requests):
            service = OptimizationService(tmp_path / name, num_workers=0, queue_limit=1)
            service.start()
            barrier = threading.Barrier(len(requests))
            results = [None] * len(requests)

            def submit(index):
                barrier.wait()
                results[index] = service.submit(requests[index])

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(len(requests))]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                return results, service.stats()["jobs"]
            finally:
                service.close()

        results, jobs = race("distinct", [
            {"network": {"generate": "adder", "width": width}} for width in (3, 4, 5)
        ])
        assert sorted(code for code, _ in results) == [202, 429, 429]
        assert (jobs["queued"], jobs["rejected"]) == (1, 2)

        results, jobs = race("identical", [dict(ADDER4), dict(ADDER4)])
        assert [code for code, _ in results] == [202, 202]
        assert len({payload["job_id"] for _, payload in results}) == 1
        assert [bool(payload.get("coalesced")) for _, payload in results].count(True) == 1
        assert (jobs["queued"], jobs["coalesced"]) == (1, 1)

    def test_request_persisted_before_acknowledgement(self, idle_service):
        code, payload = idle_service.submit(dict(ADDER4))
        assert code == 202
        request_file = (
            idle_service.jobs_dir / payload["job_id"] / "request.json"
        )
        persisted = json.loads(request_file.read_text())
        assert persisted["job_id"] == payload["job_id"]
        assert persisted["key"] == payload["cache_key"]


class TestLifecycle:
    def test_submit_optimize_resubmit_cache_hit(self, tmp_path):
        """The headline acceptance path: second submission of the same
        network + flow returns the byte-identical result from the cache
        without re-optimizing."""
        service = OptimizationService(tmp_path / "serve", num_workers=1)
        service.start()
        try:
            code, payload = service.submit(dict(ADDER4))
            assert code == 202
            job_id = payload["job_id"]
            status = _wait_terminal(lambda: service.job_status(job_id)[1])
            assert status["status"] == "done", status
            result = status["result"]
            assert result["size_after"] <= result["size_before"]
            assert result["blif"].startswith(".model")
            assert any(e.get("event") == "step" for e in status["progress"])

            code2, hit = service.submit(dict(ADDER4))
            assert code2 == 200 and hit["cached"] is True
            assert json.dumps(hit["result"], sort_keys=True) == json.dumps(
                result, sort_keys=True
            )
            stats = service.stats()
            assert stats["jobs"]["cache_hits"] == 1
            assert stats["jobs"]["completed"] == 1  # optimized exactly once
            assert stats["cache"]["entries"] == 1
            # The one daemon supervisor ran it: no per-request journal.
            assert not (service.jobs_dir / job_id / "super").exists()
            events = _journal_events(tmp_path / "serve" / "super" / "journal.jsonl")
            assert [e["event"] for e in events] == ["submit", "start", "done"]
        finally:
            assert service.drain(timeout=30.0) is True
            service.close()
        assert json.loads((tmp_path / "serve" / "stats.json").read_text())

    def test_immediate_repeat_after_done_is_a_cache_hit(self, tmp_path, monkeypatch):
        """The cache entry is written before a job is published ``done``:
        a client that resubmits the moment it sees ``done`` hits the
        cache even when the cache write is slow, and no second job runs."""
        put = ResultCache.put

        def slow_put(cache, key, result):
            time.sleep(1.0)
            put(cache, key, result)

        monkeypatch.setattr(ResultCache, "put", slow_put)
        service = OptimizationService(tmp_path / "serve", num_workers=1)
        service.start()
        try:
            code, payload = service.submit(dict(ADDER4))
            assert code == 202
            job_id = payload["job_id"]
            status = _wait_terminal(lambda: service.job_status(job_id)[1])
            assert status["status"] == "done", status

            code2, hit = service.submit(dict(ADDER4))
            assert code2 == 200 and hit["cached"] is True
            jobs = service.stats()["jobs"]
            assert jobs["cache_hits"] == 1
            assert jobs["completed"] == 1 and jobs["queued"] == jobs["running"] == 0
        finally:
            assert service.drain(timeout=30.0) is True
            service.close()

    @pytest.mark.parametrize("fault", ["fork", "spec-write"])
    def test_a_failed_launch_fails_only_its_own_request(
        self, tmp_path, monkeypatch, fault
    ):
        """A worker that cannot be started (the fork server cannot fork,
        or a full disk refuses its spec file) fails that request alone:
        the daemon stays ready and serves the next one."""
        if fault == "fork":
            owner, name = executors.ForkServer, "spawn"
            error = ChildProcessError("the fork server did not fork")
        else:  # the first write of the supervisor module is a spec file
            owner, name = supervisor_module, "atomic_write_text"
            error = OSError(errno.ENOSPC, "No space left on device")
        original = getattr(owner, name)
        calls = []

        def fail_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise error
            return original(*args)

        monkeypatch.setattr(owner, name, fail_once)
        service = OptimizationService(tmp_path / "serve", num_workers=1)
        service.start()
        try:
            code, first = service.submit(dict(ADDER4))
            assert code == 202
            status = _wait_terminal(lambda: service.job_status(first["job_id"])[1])
            assert status["status"] == "failed"
            assert str(error) in status["error"]
            assert not service.draining.is_set()
            code, second = service.submit(dict(ADDER4, script=["BF", "BF"]))
            assert code == 202
            status = _wait_terminal(lambda: service.job_status(second["job_id"])[1])
            assert status["status"] == "done", status
        finally:
            service.drain(timeout=30.0)
            service.close()

    def test_corrupt_cache_entry_reoptimizes_once_then_hits(self, tmp_path):
        """The cache-corruption drill: bad bytes under a live key are
        quarantined on read, the duplicate pays one re-optimization, and
        the third submission hits the repaired entry."""
        service = OptimizationService(tmp_path / "serve", num_workers=1)
        service.start()
        try:
            with inject("cache.corrupt"):
                code, payload = service.submit(dict(ADDER4))
                assert code == 202
                status = _wait_terminal(
                    lambda: service.job_status(payload["job_id"])[1]
                )
                assert status["status"] == "done"
            # The entry on disk is garbage; the resubmission must detect
            # it, quarantine it, and re-optimize — not crash, not serve it.
            code2, second = service.submit(dict(ADDER4))
            assert code2 == 202, second
            status2 = _wait_terminal(
                lambda: service.job_status(second["job_id"])[1]
            )
            assert status2["status"] == "done"
            assert service.cache.stats()["corrupt"] == 1
            assert list(service.cache.objects_dir.glob("*.corrupt*"))
            code3, third = service.submit(dict(ADDER4))
            assert code3 == 200 and third["cached"] is True
            assert json.dumps(third["result"], sort_keys=True) == json.dumps(
                status2["result"], sort_keys=True
            )
        finally:
            service.drain(timeout=30.0)
            service.close()

    def test_accepted_job_survives_a_dead_daemon(self, tmp_path):
        """Exactly-once recovery: a request accepted (persisted) but never
        run because the daemon died is picked up by the next start."""
        workdir = tmp_path / "serve"
        first = OptimizationService(workdir, num_workers=0)
        first.start()
        code, payload = first.submit(dict(ADDER4))
        assert code == 202
        job_id = payload["job_id"]
        first.close()  # dies with the job still queued

        second = OptimizationService(workdir, num_workers=1)
        second.start()
        try:
            assert second.stats()["jobs"]["recovered"] == 1
            status = _wait_terminal(lambda: second.job_status(job_id)[1])
            assert status["status"] == "done"
            assert second.stats()["jobs"]["completed"] == 1
            code2, hit = second.submit(dict(ADDER4))
            assert code2 == 200 and hit["cached"] is True
        finally:
            second.drain(timeout=30.0)
            second.close()

    def test_finished_job_is_adopted_not_rerun_on_restart(self, tmp_path):
        """A job whose supervisor journal already says done is reinstated
        from the journal on restart — never re-optimized."""
        workdir = tmp_path / "serve"
        first = OptimizationService(workdir, num_workers=1)
        first.start()
        code, payload = first.submit(dict(ADDER4))
        assert code == 202
        job_id = payload["job_id"]
        status = _wait_terminal(lambda: first.job_status(job_id)[1])
        assert status["status"] == "done"
        first.drain(timeout=30.0)
        first.close()
        # Wipe the cache so adoption (not a cache hit) must answer.
        for entry in (workdir / "cache" / "objects").glob("*.json"):
            entry.unlink()

        second = OptimizationService(workdir, num_workers=1)
        second.start()
        try:
            code, recovered = second.job_status(job_id)
            assert code == 200
            assert recovered["status"] == "done"
            assert second.stats()["jobs"]["adopted"] == 1
            # Adoption also re-warmed the cache from the journal.
            code2, hit = second.submit(dict(ADDER4))
            assert code2 == 200 and hit["cached"] is True
        finally:
            second.drain(timeout=5.0)
            second.close()

    def test_recovery_hands_over_every_job_before_the_loop_runs(
        self, tmp_path, monkeypatch
    ):
        """A slow recovery scan still submits every recovered job before
        the supervisor's loop starts: a job whose deadline lapsed before
        the restart never starts, and every other one launches through
        its handle (``started_at`` set)."""
        workdir = tmp_path / "serve"
        first = OptimizationService(workdir, num_workers=0)
        first.start()
        lapsed = first.submit(dict(ADDER4, deadline=0.2))[1]["job_id"]
        others = [
            first.submit(dict(ADDER4, network={"generate": "adder", "width": width}))
            [1]["job_id"]
            for width in (3, 5)
        ]
        first.close()
        # The dead daemon's loop had journaled all three.
        journal_path = first.supervisor.journal_path
        with JobJournal(journal_path) as journal:
            for job in first.jobs.values():
                journal.submit(job.spec)
        time.sleep(0.3)  # the deadline lapses while no daemon runs

        make_job = serve.ServeJob

        def slow_job(**fields):
            time.sleep(0.3)
            return make_job(**fields)

        monkeypatch.setattr(serve, "ServeJob", slow_job)
        second = OptimizationService(workdir, num_workers=3)
        second.start()
        try:
            for job_id in others:
                status = _wait_terminal(lambda: second.job_status(job_id)[1])
                assert status["status"] == "done", status
                assert second.jobs[job_id].started_at is not None
            status = _wait_terminal(lambda: second.job_status(lapsed)[1])
            assert status["status"] == "timeout", status
        finally:
            second.drain(timeout=30.0)
            second.close()
        started = [e["job"] for e in _journal_events(journal_path)
                   if e["event"] == "start"]
        assert sorted(started) == sorted(others)

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_a_failed_loop_stops_admission(self, tmp_path, monkeypatch):
        """When the supervisor's loop itself fails (here: its journal
        cannot be written), the daemon stops admitting (``/readyz`` 503)
        instead of accepting work no one would run, and no job stays
        counted as in flight."""
        monkeypatch.setattr(JobJournal, "submit", _full_disk)
        service = OptimizationService(tmp_path / "serve", num_workers=1)
        service.start()
        try:
            code, payload = service.submit(dict(ADDER4))
            assert code == 202
            status = _wait_terminal(lambda: service.job_status(payload["job_id"])[1])
            assert status["status"] == "failed"
            assert "No space left on device" in status["error"]
            assert service.draining.is_set()
            assert service.submit(dict(ADDER4, script=["BF", "BF"]))[0] == 503
            jobs = service.stats()["jobs"]
            assert (jobs["queued"], jobs["running"], jobs["failed"]) == (0, 0, 1)
        finally:
            service.drain(timeout=30.0)
            service.close()

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_run_server_drains_and_exits_1_when_the_loop_fails(
        self, tmp_path, monkeypatch
    ):
        """``migopt serve`` does not linger unready: a failed loop drains
        the daemon and exits 1, for a process supervisor to restart it."""
        monkeypatch.setattr(JobJournal, "submit", _full_disk)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        exit_codes = []
        runner = threading.Thread(
            target=lambda: exit_codes.append(run_server(
                tmp_path / "serve", port=port, drain_grace=5.0, num_workers=1
            )),
            daemon=True,
        )
        runner.start()
        base = f"http://127.0.0.1:{port}"

        def ready():
            try:
                return _request(base, "GET", "/readyz")[0] == 200
            except OSError:
                return False

        _wait_until(ready, "the daemon")
        assert _request(base, "POST", "/jobs", dict(ADDER4))[0] == 202
        runner.join(timeout=60)
        assert exit_codes == [1]
        stats = json.loads((tmp_path / "serve" / "stats.json").read_text())
        assert stats["draining"] and stats["jobs"]["failed"] == 1


class TestHttpLayer:
    @pytest.fixture
    def daemon(self, tmp_path):
        service = OptimizationService(
            tmp_path / "serve", num_workers=0, queue_limit=1
        )
        daemon = ServeDaemon(service, port=0)
        daemon.start()
        yield daemon, f"http://127.0.0.1:{daemon.port}"
        daemon.httpd.shutdown()
        daemon.httpd.server_close()
        service.close()

    def test_health_and_readiness(self, daemon):
        _, base = daemon
        assert _request(base, "GET", "/healthz")[0] == 200
        assert _request(base, "GET", "/readyz")[0] == 200

    def test_readyz_flips_on_drain_healthz_does_not(self, daemon):
        served, base = daemon
        served.service.initiate_drain()
        assert _request(base, "GET", "/readyz")[0] == 503
        assert _request(base, "GET", "/healthz")[0] == 200

    def test_keep_alive_responses_do_not_stall(self, daemon):
        """Headers and body of a response leave without a Nagle delay."""
        served, _ = daemon
        conn = http.client.HTTPConnection("127.0.0.1", served.port, timeout=10)
        try:
            began = time.monotonic()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.monotonic() - began
        finally:
            conn.close()
        assert elapsed < 0.4

    def test_stats_endpoint(self, daemon):
        _, base = daemon
        code, stats = _request(base, "GET", "/stats")
        assert code == 200
        assert "cache" in stats and "jobs" in stats
        assert stats["cache"]["evictions"] == 0

    def test_submit_and_poll_roundtrip(self, daemon):
        _, base = daemon
        code, payload = _request(base, "POST", "/jobs", dict(ADDER4))
        assert code == 202 and payload["status"] == "queued"
        code, status = _request(base, "GET", payload["poll"])
        assert code == 200 and status["job_id"] == payload["job_id"]

    def test_queue_full_sets_retry_after(self, daemon):
        _, base = daemon
        assert _request(base, "POST", "/jobs", dict(ADDER4))[0] == 202
        req = urllib.request.Request(
            base + "/jobs",
            data=json.dumps(
                {"network": {"generate": "adder", "width": 6}}
            ).encode(),
            method="POST",
        )
        try:
            urllib.request.urlopen(req, timeout=10)
            raise AssertionError("expected HTTP 429")
        except urllib.error.HTTPError as exc:
            assert exc.code == 429
            assert exc.headers.get("Retry-After") == "1"

    def test_cyclic_upload_is_400_naming_the_cycle(self, daemon):
        """A reader error is the client's: 400, and the daemon serves on."""
        _, base = daemon
        cyclic = (
            ".model loop\n.inputs a\n.outputs f\n"
            ".names a g f\n11 1\n.names f g\n1 1\n.end\n"
        )
        code, payload = _request(
            base, "POST", "/jobs", {"network": {"blif": cyclic}, "script": ["BF"]}
        )
        assert code == 400 and payload["error"] == "bad-request"
        assert re.search(r"cycle through signal '[fg]'", payload["detail"]), payload
        assert _request(base, "GET", "/readyz")[0] == 200
        assert _request(base, "POST", "/jobs", dict(ADDER4))[0] == 202

    @pytest.mark.parametrize("length", ["-1", "12abc"])
    def test_bad_content_length_is_400_and_closes(self, daemon, length):
        """A negative length must not read to end-of-file (past the body
        cap), and an unread body must not become the next request."""
        served, _ = daemon
        reply = _exchange(served.port, _post_head(length) + json.dumps(ADDER4).encode())
        assert _only_response(reply).startswith(b"HTTP/1.1 400")
        assert served.service.jobs == {}

    def test_refused_body_is_never_parsed_as_a_request(self, daemon):
        """After a 413 the daemon closes the connection: a request hidden
        in the oversized body is never admitted."""
        served, _ = daemon
        inner = json.dumps(ADDER4).encode()
        hidden = _post_head(len(inner)) + inner
        reply = _exchange(served.port, _post_head(MAX_BODY_BYTES + 1) + hidden)
        assert _only_response(reply).startswith(b"HTTP/1.1 413")
        assert served.service.jobs == {}

    def test_malformed_json_body(self, daemon):
        _, base = daemon
        req = urllib.request.Request(
            base + "/jobs", data=b"{not json", method="POST"
        )
        try:
            urllib.request.urlopen(req, timeout=10)
            raise AssertionError("expected HTTP 400")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400

    def test_unknown_routes_are_404(self, daemon):
        _, base = daemon
        assert _request(base, "GET", "/nope")[0] == 404
        assert _request(base, "POST", "/nope")[0] == 404
        assert _request(base, "GET", "/jobs/unknown")[0] == 404


def _spawn_serve(workdir, extra_env=None, extra_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [
            sys.executable, "-c",
            "from repro.cli import main; raise SystemExit(main())",
            "serve", "--workdir", str(workdir), "--port", "0",
            "--jobs", "1", "--grace", "1.0", "--drain-grace", "20",
            *extra_args,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # First line announces the bound address.
    line = proc.stdout.readline()
    assert "listening on http://" in line, line
    port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, f"http://127.0.0.1:{port}"


@pytest.fixture
def workers_before():
    """The worker processes alive before the test; any it leaves behind
    are killed afterwards, so a failing drill leaks no orphan."""
    before = _worker_pids()
    yield before
    for pid in _worker_pids() - before:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def _reap(proc):
    """Kill *proc* if it still runs, wait for it, and close its pipe."""
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)
    proc.stdout.close()


@pytest.mark.slow
class TestDaemonChaos:
    def test_sigterm_drains_cleanly(self, tmp_path):
        proc, base = _spawn_serve(tmp_path / "serve")
        try:
            assert _request(base, "GET", "/healthz")[0] == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            _reap(proc)
        assert (tmp_path / "serve" / "stats.json").exists()

    def test_crash_after_accept_recovers_exactly_once(self, tmp_path):
        """The serve.crash drill end-to-end: the daemon dies the instant
        after persisting an accepted request; a restart (no faults) runs
        the job exactly once and the resubmission hits the cache."""
        workdir = tmp_path / "serve"
        proc, base = _spawn_serve(
            workdir, extra_env={"REPRO_FAULTS": "serve.crash:times=1"}
        )
        try:
            with pytest.raises((urllib.error.URLError, ConnectionError)):
                _request(base, "POST", "/jobs", dict(ADDER4))
            assert proc.wait(timeout=30) == CRASH_EXIT_CODE
        finally:
            _reap(proc)

        # The request was persisted before the crash.
        requests = list(workdir.glob("jobs/*/request.json"))
        assert len(requests) == 1
        job_id = json.loads(requests[0].read_text())["job_id"]

        proc, base = _spawn_serve(workdir)
        try:
            status = _wait_terminal(
                lambda: _request(base, "GET", f"/jobs/{job_id}")[1]
            )
            assert status["status"] == "done", status
            code, hit = _request(base, "POST", "/jobs", dict(ADDER4))
            assert code == 200 and hit["cached"] is True
            _, stats = _request(base, "GET", "/stats")
            assert stats["jobs"]["recovered"] == 1
            assert stats["jobs"]["completed"] == 1
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            _reap(proc)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the orphan check reads /proc")
    def test_sigkill_mid_job_recovers_exactly_once(self, tmp_path, workers_before):
        """The kill -9 drill: the daemon dies while its worker hangs; the
        restart kills the orphan, runs the job exactly once, and the
        repeat is a cache hit."""
        workdir = tmp_path / "serve"
        journal = workdir / "super" / "journal.jsonl"
        proc, base = _spawn_serve(
            workdir, extra_env={"REPRO_FAULTS": "worker.hang:times=1"}
        )
        try:
            code, payload = _request(base, "POST", "/jobs", dict(ADDER4))
            assert code == 202
            job_id = payload["job_id"]
            _wait_until(
                lambda: _request(base, "GET", f"/jobs/{job_id}")[1]["status"]
                == "running", "the job's launch")
            (orphan,) = _wait_until(
                lambda: journal.exists() and [
                    e["pid"] for e in _journal_events(journal) if e["event"] == "start"
                ], "the journaled start")
            proc.kill()
            proc.wait(timeout=30)
        finally:
            _reap(proc)
        time.sleep(0.2)
        assert orphan in _worker_pids()  # the hung worker outlived its daemon

        proc, base = _spawn_serve(workdir)
        try:
            status = _wait_terminal(
                lambda: _request(base, "GET", f"/jobs/{job_id}")[1]
            )
            assert status["status"] == "done", status
            assert orphan not in _worker_pids()
            code, hit = _request(base, "POST", "/jobs", dict(ADDER4))
            assert code == 200 and hit["cached"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            _reap(proc)
        done = [e["job"] for e in _journal_events(journal) if e["event"] == "done"]
        assert done == [job_id]
        assert _worker_pids() <= workers_before
