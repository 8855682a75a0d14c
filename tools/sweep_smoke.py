#!/usr/bin/env python3
"""CI chaos drill for the sweep runtime.

Launches a real ``migopt sweep --jobs 2``, waits for the first job to
land in its journal, then SIGKILLs one worker *and* the sweep process —
the double failure the batch journal must absorb.  Resumes with
``migopt sweep --resume`` (no ``--spec``: it comes from ``sweep.json``)
and asserts:

* the resumed sweep exits cleanly with every scenario done;
* every job completed **exactly once** across both runs (one ``done``
  event per job in the one journal);
* every output parses, passes ``Mig.check()``, and is functionally
  equivalent to its input;
* the trend matrix gained one verified row per scenario.

The resumed supervisor reaps the orphaned worker itself, so the drill
resumes right after the kill.

Exit code 0 means the drill passed.  Usage::

    python tools/sweep_smoke.py [--keep WORKDIR]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.core.simulate import equivalent_random  # noqa: E402
from repro.io.blif import read_blif  # noqa: E402
from repro.runtime.jobs import load_network  # noqa: E402

#: small instances, three per worker, so the kill lands mid-sweep
INSTANCES = (
    {"generate": "adder", "width": 8},
    {"generate": "sine", "width": 8},
    {"generate": "max", "width": 8},
    {"generate": "square", "width": 8},
    {"generate": "priority", "width": 16},
    {"generate": "voter", "width": 9},
)


def sweep_spec() -> dict:
    return {
        "name": "sweep-smoke",
        "instances": [dict(inst) for inst in INSTANCES],
        "scripts": [["BF"]],
        "verify": "sim",
        "time_limit": 60,
    }


def journal_events(path: Path) -> list[dict]:
    if not path.exists():
        return []
    events = []
    for line in path.read_text(encoding="utf-8").splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            pass
    return events


def sweep_argv(workdir: Path, spec_path: Path | None, matrix: Path) -> list[str]:
    argv = [
        sys.executable, "-m", "repro.cli", "sweep",
        "--workdir", str(workdir),
        "--jobs", "2",
        "--grace", "1",
        "--backoff", "0.05",
        "--matrix", str(matrix),
    ]
    if spec_path is not None:
        argv += ["--spec", str(spec_path)]
    else:
        argv.append("--resume")
    return argv


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def find_worker_pids(workdir: Path) -> list[int]:
    """Live workers of the sweep in *workdir*, via /proc cmdline scan."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        args = [arg.decode("utf-8", "replace") for arg in cmdline]
        if "repro.runtime.worker" in args and any(
            arg.startswith(str(workdir)) for arg in args
        ):
            pids.append(int(entry.name))
    return pids


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="WORKDIR",
                        help="preserve the sweep workdir at this path")
    args = parser.parse_args()

    tmp = None
    if args.keep:
        base = Path(args.keep)
        if base.exists():
            shutil.rmtree(base)
        base.mkdir(parents=True)
    else:
        tmp = tempfile.mkdtemp(prefix="repro-sweep-smoke-")
        base = Path(tmp)
    workdir = base / "sweep"
    matrix = base / "MATRIX.jsonl"
    spec_path = base / "spec.json"
    spec_path.write_text(json.dumps(sweep_spec()) + "\n", encoding="utf-8")
    journal = workdir / "journal.jsonl"

    try:
        print("[smoke] launching a 2-worker sweep")
        sweep = subprocess.Popen(
            sweep_argv(workdir, spec_path, matrix), env=child_env()
        )
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            if sweep.poll() is not None:
                print("[smoke] sweep finished before the kill (fast machine)")
                break
            if any(e.get("event") == "done" for e in journal_events(journal)):
                break
            time.sleep(0.05)
        else:
            sweep.kill()
            sweep.wait()
            print("[smoke] FAIL: no job completed within 180s", file=sys.stderr)
            return 1

        if sweep.poll() is None:
            worker_pids = find_worker_pids(workdir)
            if worker_pids:
                print(f"[smoke] SIGKILLing worker pid {worker_pids[0]}")
                try:
                    os.kill(worker_pids[0], signal.SIGKILL)
                except ProcessLookupError:
                    pass
            print(f"[smoke] SIGKILLing sweep pid {sweep.pid}")
            sweep.send_signal(signal.SIGKILL)
            sweep.wait(timeout=30)

        print("[smoke] resuming the sweep")
        resumed = subprocess.run(
            sweep_argv(workdir, None, matrix), env=child_env(), timeout=300
        )
        assert resumed.returncode == 0, (
            f"resumed sweep exited {resumed.returncode}"
        )

        report = json.loads(
            (workdir / "report.json").read_text(encoding="utf-8")
        )
        total = len(INSTANCES)
        assert report["total"] == total, report["total"]
        assert report["done"] == total, (
            f"expected {total} done, saw {report['done']}"
        )
        assert report["quarantined"] == 0, report["quarantined"]

        # Exactly-once: one done event per job in the one journal.
        done_counts: dict[str, int] = {}
        for event in journal_events(journal):
            if event.get("event") == "done":
                done_counts[event["job"]] = done_counts.get(event["job"], 0) + 1
        assert len(done_counts) == total, sorted(done_counts)
        assert all(count == 1 for count in done_counts.values()), (
            f"jobs must complete exactly once; done events: {done_counts}"
        )

        # Every output parses, checks, and matches its input.
        verified = 0
        for job in report["jobs"]:
            output = job.get("output")
            assert job["state"] == "done", job
            assert output, f"{job['job_id']} has no output artifact"
            with open(output, encoding="utf-8") as fp:
                optimized = read_blif(fp)
            optimized.check()
            network = next(
                inst for inst in INSTANCES
                if job["job_id"].startswith(
                    f"{inst['generate']}-w{inst.get('width')}"
                )
            )
            original = load_network(network)
            assert equivalent_random(original, optimized, num_rounds=4), (
                f"{job['job_id']}: output not equivalent to input"
            )
            verified += 1

        rows = [
            json.loads(line)
            for line in matrix.read_text(encoding="utf-8").splitlines()
        ]
        assert len(rows) == total, f"expected {total} matrix rows, saw {len(rows)}"
        assert all(row["verified"] for row in rows), rows

        adopted = report["adopted"]
        print(f"[smoke] PASS: {total}/{total} done exactly once, "
              f"{adopted} adopted, {verified} outputs verified, "
              f"{len(rows)} matrix rows")
        return 0
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
