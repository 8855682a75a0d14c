"""The three workloads: one item function each, plus the serve-cold client.

An item is one unit a user waits for.  ``flow-suite`` and ``cut5-cec``
run in this process; ``serve-cold`` talks to an in-process daemon over
loopback HTTP, and the daemon runs every job in a worker subprocess.
"""

from __future__ import annotations

import http.client
import io
import json
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import inputs

#: exact-synthesis conflict budget of the cut5-cec DynamicDatabase;
#: conflicts, not wall time, bound the search so outputs repeat exactly
CUT5_IMPROVE_BUDGET = 100
#: fresh interpreters timed per run for the import-bound set-up metrics
SETUP_PROBES = 3
#: a serve request still unfinished after this long counts as timed out
REQUEST_TIMEOUT_S = 120.0
POLL_INTERVAL_S = 0.005


@dataclass
class Outcome:
    """What one item produced: sizes, output text and any failure reason."""

    label: str
    seconds: float
    gates: int
    index: int = -1
    size_before: int = 0
    depth_before: int = 0
    size_after: int = 0
    depth_after: int = 0
    text: str = ""
    error: str | None = None
    #: serve-cold only
    repeat: bool = False
    hit: bool = False
    job_id: str | None = None
    result: dict = field(default_factory=dict)
    #: ServeJob clock readings (seconds) for cold requests
    timing: dict = field(default_factory=dict)
    #: measured-to-nominal speed factor of the time the item ran (calibrate.py)
    scale: float = 1.0

    @property
    def nominal_seconds(self) -> float:
        return self.seconds * self.scale

    @property
    def fingerprint(self) -> tuple:
        return (self.size_before, self.depth_before, self.size_after,
                self.depth_after, hash(self.text))


def _flow_outcome(item: inputs.Item, index: int, seconds: float, history, text: str) -> Outcome:
    outcome = Outcome(item.spec.label, seconds, item.gates, index, text=text)
    outcome.size_before = history[0].size_before
    outcome.depth_before = history[0].depth_before
    outcome.size_after = history[-1].size_after
    outcome.depth_after = history[-1].depth_after
    bad = [f"{s.step}:{s.status}" for s in history if s.status != "ok"]
    if bad:
        outcome.error = "steps not ok: " + ", ".join(bad)
    return outcome


def probe_setup(code: str, root: Path, *args: str) -> list[float]:
    """Time *code* (which prints its own elapsed seconds) in fresh interpreters."""
    env = {"PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code, *args], cwd=root, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# flow-suite
# ---------------------------------------------------------------------------


class FlowSuite:
    """read_blif -> run_flow(BF, TFD, verify=sim) -> write_blif, one client."""

    name = "flow-suite"
    script = ["BF", "TFD"]
    #: pass cost this workload's pass count is planned with (see Bench.timed)
    nominal_pass_s = 5.0

    SETUP = (
        "import time; t = time.perf_counter()\n"
        "import repro.opt.flow, repro.io.blif\n"
        "from repro.database.npn_db import NpnDatabase\n"
        "NpnDatabase.load()\n"
        "print(time.perf_counter() - t)\n"
    )

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.db = None

    def setup(self) -> list[float]:
        from repro.database.npn_db import NpnDatabase

        self.db = NpnDatabase.load()
        return probe_setup(self.SETUP, self.root)

    def prepare(self, items: list[inputs.Item], seed: int) -> None:
        self.items = items

    def run_item(self, index: int, pass_no: int) -> Outcome:
        import repro.io.blif as blif
        import repro.opt.flow as flow

        item = self.items[index]
        start = time.perf_counter()
        mig = blif.read_blif(io.StringIO(item.text))
        out, history = flow.run_flow(
            mig, self.db, self.script, verify="sim", on_error="rollback"
        )
        buf = io.StringIO()
        blif.write_blif(out, buf)
        seconds = time.perf_counter() - start
        return _flow_outcome(item, index, seconds, history, buf.getvalue())

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cut5-cec
# ---------------------------------------------------------------------------


class Cut5Cec:
    """run_flow(BF, verify=cec, cut_size=5) against a fresh 5-input store."""

    name = "cut5-cec"
    nominal_pass_s = 3.0

    SETUP = (
        "import os, sys, time; t = time.perf_counter()\n"
        "import repro.opt.flow\n"
        "from repro.rewriting.dynamic_db import DynamicDatabase\n"
        "db = DynamicDatabase(num_vars=5, improve_budget=int(sys.argv[2]), store=sys.argv[1])\n"
        "db.store.close()\n"
        "print(time.perf_counter() - t)\n"
        "os.unlink(sys.argv[1])\n"
    )

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work / "cut5"

    def setup(self) -> list[float]:
        self.work.mkdir(parents=True, exist_ok=True)
        return probe_setup(
            self.SETUP, self.root, str(self.work / "setup.npn5"), str(CUT5_IMPROVE_BUDGET)
        )

    def prepare(self, items: list[inputs.Item], seed: int) -> None:
        import repro.io.blif as blif

        self.items = items
        # Parsing is not part of this workload's item; parse once, untimed.
        self.migs = [blif.read_blif(io.StringIO(item.text)) for item in items]

    def run_item(self, index: int, pass_no: int) -> Outcome:
        import repro.io.blif as blif
        import repro.opt.flow as flow
        import repro.rewriting.dynamic_db as dynamic_db

        item = self.items[index]
        path = self.work / f"p{pass_no}-{index}.npn5"
        start = time.perf_counter()
        db5 = dynamic_db.DynamicDatabase(
            num_vars=5, improve_budget=CUT5_IMPROVE_BUDGET, store=str(path)
        )
        try:
            out, history = flow.run_flow(
                self.migs[index], db5, ["BF"], verify="cec", cut_size=5,
                on_error="rollback",
            )
            buf = io.StringIO()
            blif.write_blif(out, buf)
        finally:
            db5.store.close()
        seconds = time.perf_counter() - start
        path.unlink()
        return _flow_outcome(item, index, seconds, history, buf.getvalue())

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ---------------------------------------------------------------------------
# serve-cold
# ---------------------------------------------------------------------------

#: every REPEAT_EVERY-th request of a client resubmits one of its earlier uploads
REPEAT_EVERY = 4
CLIENTS = 2


def client_plans(num_items: int, seed: int) -> list[list[tuple[int, bool]]]:
    """Per client: (item index, is_repeat) in request order.

    Items are dealt round-robin; a repeat names an upload the same client
    already completed, so (closed loop) it is never still in flight.
    """
    rng = random.Random(f"serve-plan:{seed}")
    plans = []
    for client in range(CLIENTS):
        own = list(range(client, num_items, CLIENTS))
        plan: list[tuple[int, bool]] = []
        done: list[int] = []
        for index in own:
            if len(plan) % REPEAT_EVERY == REPEAT_EVERY - 1 and done:
                plan.append((rng.choice(done), True))
            plan.append((index, False))
            done.append(index)
        plans.append(plan)
    return plans


class ServeCold:
    """Two closed-loop HTTP clients against a fresh daemon per pass."""

    name = "serve-cold"
    nominal_pass_s = 5.0

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work / "serve"
        self.daemon = None

    def setup(self) -> list[float]:
        """Daemon start-up timed on throwaway workdirs; each pass adds one more."""
        times = []
        for probe in range(SETUP_PROBES):
            times.append(self.start_daemon(f"setup{probe}"))
            self.stop_daemon()
        return times

    def prepare(self, items: list[inputs.Item], seed: int) -> None:
        self.items = items
        self.plans = client_plans(len(items), seed)
        self.bodies = [
            json.dumps({"network": {item.spec.fmt: item.text},
                        "script": ["BF"], "verify": "sim"})
            for item in items
        ]

    def start_daemon(self, tag: str) -> float:
        """Start a daemon on a fresh workdir; seconds until /readyz answers 200."""
        from repro.runtime.serve import OptimizationService, ServeDaemon

        workdir = self.work / tag
        shutil.rmtree(workdir, ignore_errors=True)
        start = time.perf_counter()
        service = OptimizationService(workdir, num_workers=2)
        self.daemon = ServeDaemon(service)
        self.daemon.start()
        conn = http.client.HTTPConnection("127.0.0.1", self.daemon.port, timeout=10)
        try:
            while True:
                conn.request("GET", "/readyz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    break
                time.sleep(POLL_INTERVAL_S)
        finally:
            conn.close()
        return time.perf_counter() - start

    def stop_daemon(self) -> None:
        daemon, self.daemon = self.daemon, None
        daemon.stop(drain_grace=30.0)
        shutil.rmtree(daemon.service.workdir, ignore_errors=True)

    @property
    def service(self):
        return self.daemon.service

    def run_pass(self, pass_no: int) -> tuple[list[Outcome], float, float]:
        """One pass: fresh daemon, both clients' plans; (outcomes, setup, wall)."""
        setup = self.start_daemon(f"p{pass_no}")
        results: list[list[Outcome]] = [[] for _ in self.plans]
        errors: list[BaseException] = []

        def client(k: int) -> None:
            try:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", self.daemon.port, timeout=REQUEST_TIMEOUT_S
                )
                try:
                    for index, repeat in self.plans[k]:
                        results[k].append(self._request(conn, index, repeat))
                finally:
                    conn.close()
            except BaseException as exc:  # noqa: BLE001 - reported by the caller
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(k,)) for k in range(len(self.plans))]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(REQUEST_TIMEOUT_S * 20)
        wall = time.perf_counter() - start
        outcomes = [o for per_client in results for o in per_client]
        for outcome in outcomes:
            job = self.service.jobs.get(outcome.job_id)
            if job is not None and job.started_at is not None:
                outcome.timing = {
                    "queue_wait": job.started_at - job.submitted_at,
                    "run": job.finished_at - job.started_at,
                    "service": job.finished_at - job.submitted_at,
                }
        self.stop_daemon()
        if errors:
            raise errors[0]
        return outcomes, setup, wall

    def _request(self, conn, index: int, repeat: bool) -> Outcome:
        item = self.items[index]
        outcome = Outcome(item.spec.label, 0.0, item.gates, index, repeat=repeat)
        start = time.perf_counter()
        conn.request("POST", "/jobs", body=self.bodies[index],
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        if response.status == 200:
            outcome.hit = bool(payload.get("cached"))
        elif response.status != 202:
            outcome.error = f"HTTP {response.status}: {payload.get('error')}"
            outcome.seconds = time.perf_counter() - start
            return outcome
        outcome.job_id = payload.get("job_id")
        while payload.get("status") not in ("done", "failed", "timeout"):
            if time.perf_counter() - start > REQUEST_TIMEOUT_S:
                outcome.error = "client timeout"
                break
            time.sleep(POLL_INTERVAL_S)
            conn.request("GET", f"/jobs/{outcome.job_id}")
            response = conn.getresponse()
            payload = json.loads(response.read())
        outcome.seconds = time.perf_counter() - start
        if outcome.error is None and payload.get("status") != "done":
            outcome.error = f"job {payload.get('status')}: {payload.get('error')}"
        result = payload.get("result") or {}
        outcome.result = result
        outcome.text = result.get("blif", "")
        for key in ("size_before", "depth_before", "size_after", "depth_after"):
            setattr(outcome, key, int(result.get(key, 0) or 0))
        bad = [f"{s.get('step')}:{s.get('status')}" for s in result.get("steps", [])
               if s.get("status") != "ok"]
        if outcome.error is None and bad:
            outcome.error = "steps not ok: " + ", ".join(bad)
        return outcome

    def close(self) -> None:
        if self.daemon is not None:
            self.stop_daemon()
        shutil.rmtree(self.work, ignore_errors=True)
