#!/usr/bin/env python3
"""CI smoke drill for the ``migopt serve`` daemon.

Exercises the serving tier's headline guarantees against the real CLI in
a real subprocess:

1. start the daemon, wait for readiness;
2. ``POST /jobs`` an EPFL suite instance, poll ``GET /jobs/<id>`` to
   completion, and verify the optimized BLIF parses, passes
   ``Mig.check()``, and is functionally equivalent to the input;
3. resubmit the identical request and assert a **cache hit** with a
   byte-identical result payload (the optimizer ran exactly once);
4. restart the daemon on the same workdir and assert the cache is still
   **warm across the restart** (hit without re-optimizing);
5. SIGTERM the daemon and assert a **graceful drain**: exit code 0 and
   a flushed stats snapshot.

Exit code 0 means the drill passed.  Usage::

    python tools/serve_smoke.py [--keep WORKDIR]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.core.simulate import equivalent_random  # noqa: E402
from repro.io.blif import read_blif  # noqa: E402
from repro.runtime.jobs import load_network  # noqa: E402

INSTANCE = {"generate": "max", "width": 6}
REQUEST = {"network": INSTANCE, "script": ["BF"], "verify": "sim"}


def request(base: str, method: str, path: str, body=None, timeout=15):
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


def launch(workdir: Path) -> tuple[subprocess.Popen, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-c",
            "from repro.cli import main; raise SystemExit(main())",
            "serve", "--workdir", str(workdir), "--port", "0",
            "--jobs", "1", "--grace", "1", "--drain-grace", "60",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()
    if "listening on http://" not in line:
        proc.kill()
        raise RuntimeError(f"daemon failed to start: {line!r}")
    port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, f"http://127.0.0.1:{port}"


def wait_done(base: str, job_id: str, timeout=300) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        code, status = request(base, "GET", f"/jobs/{job_id}")
        assert code == 200, status
        if status["status"] in ("done", "failed", "timeout"):
            assert status["status"] == "done", status
            return status
        time.sleep(0.3)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="WORKDIR",
                        help="preserve the daemon workdir at this path")
    args = parser.parse_args()

    tmp = None
    if args.keep:
        base_dir = Path(args.keep)
        if base_dir.exists():
            shutil.rmtree(base_dir)
        base_dir.mkdir(parents=True)
    else:
        tmp = tempfile.mkdtemp(prefix="repro-serve-smoke-")
        base_dir = Path(tmp)
    workdir = base_dir / "serve"

    proc = None
    try:
        print("[smoke] starting migopt serve")
        proc, base = launch(workdir)
        code, _ = request(base, "GET", "/readyz")
        assert code == 200, "daemon not ready"

        print(f"[smoke] submitting {INSTANCE}")
        code, accepted = request(base, "POST", "/jobs", REQUEST)
        assert code == 202, (code, accepted)
        status = wait_done(base, accepted["job_id"])
        result = status["result"]
        print(f"[smoke] optimized: {result['size_before']} -> "
              f"{result['size_after']} gates")

        optimized = read_blif(io.StringIO(result["blif"]))
        optimized.check()
        original = load_network(INSTANCE)
        assert equivalent_random(original, optimized, num_rounds=4), (
            "served result not equivalent to the submitted network"
        )

        print("[smoke] resubmitting the identical request")
        code, hit = request(base, "POST", "/jobs", REQUEST)
        assert code == 200 and hit["cached"] is True, (code, hit)
        assert json.dumps(hit["result"], sort_keys=True) == json.dumps(
            result, sort_keys=True
        ), "cache hit must be byte-identical to the original result"
        code, stats = request(base, "GET", "/stats")
        assert stats["jobs"]["completed"] == 1, stats
        assert stats["jobs"]["cache_hits"] == 1, stats
        print("[smoke] cache hit verified, optimizer ran exactly once")

        print("[smoke] SIGTERM -> graceful drain")
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=90)
        assert proc.returncode == 0, f"drain exit {proc.returncode}: {out}"
        assert (workdir / "stats.json").exists(), "no stats snapshot flushed"

        print("[smoke] restarting on the same workdir (cache must be warm)")
        proc, base = launch(workdir)
        code, hit = request(base, "POST", "/jobs", REQUEST)
        assert code == 200 and hit["cached"] is True, (code, hit)
        code, stats = request(base, "GET", "/stats")
        # Anything "completed" after restart must come from journal
        # adoption, and the cache must not have been re-populated — the
        # optimizer itself never ran again.
        assert stats["jobs"]["completed"] == stats["jobs"]["adopted"], stats
        assert stats["cache"]["puts"] == 0, f"restart re-optimized: {stats}"
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=90)
        assert proc.returncode == 0, f"drain exit {proc.returncode}: {out}"

        print("[smoke] PASS: optimize once, cache hit, warm restart, "
              "clean drain")
        return 0
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.communicate()
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
