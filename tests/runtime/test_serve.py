"""The optimization-as-a-service daemon (repro.runtime.serve).

Fast tests drive :class:`OptimizationService` directly (``num_workers=0``
gives a deterministic queue that never drains); the lifecycle tests run
real supervised optimizations of tiny adders; the chaos drills launch
the actual ``migopt serve`` CLI in a subprocess and kill it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.faults import inject
from repro.runtime.serve import (
    CRASH_EXIT_CODE,
    OptimizationService,
    ServeDaemon,
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


@pytest.mark.slow
class TestDaemonChaos:
    def test_sigterm_drains_cleanly(self, tmp_path):
        proc, base = _spawn_serve(tmp_path / "serve")
        try:
            assert _request(base, "GET", "/healthz")[0] == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
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
            if proc.poll() is None:
                proc.kill()

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
            if proc.poll() is None:
                proc.kill()
