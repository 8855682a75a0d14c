#!/usr/bin/env python3
"""CI chaos drill for the supervised batch runtime.

Runs a real ``migopt batch`` with worker-crash and worker-hang faults
armed, ``kill -9``s the supervisor once the first job completes, resumes
the batch, and asserts:

* every healthy job completed **exactly once** across both runs;
* only the designated poison job (a nonexistent input file) was
  quarantined;
* every surviving output parses, passes ``Mig.check()``, and is
  functionally equivalent to its input.

Exit code 0 means the drill passed.  Usage::

    python tools/batch_smoke.py [--keep WORKDIR]

With ``--keep`` the batch workdir (journal, logs, outputs) is preserved
at the given path for inspection; by default a temp dir is used.
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
from repro.runtime.supervisor import run_batch  # noqa: E402
from repro.runtime.jobs import load_network  # noqa: E402

GENERATED = ("adder", "sine", "max")
WIDTH = 6


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


def launch_supervisor(workdir: Path, poison: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    # One crashing worker, then (skip=1) one hanging worker: both fault
    # modes materialize before the supervisor itself is killed.
    env["REPRO_FAULTS"] = "worker.crash:times=1,worker.hang:times=1:skip=1"
    argv = [
        sys.executable, "-c",
        "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
        "batch",
        "--generate", ",".join(GENERATED),
        "--width", str(WIDTH),
        "--blif", str(poison),
        "--script", "BF",
        "--jobs", "2",
        "--time-limit", "60",
        "--grace", "1",
        "--max-attempts", "2",
        "--backoff", "0.05",
        "--workdir", str(workdir),
    ]
    return subprocess.Popen(argv, env=env)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="WORKDIR",
                        help="preserve the batch workdir at this path")
    args = parser.parse_args()

    tmp = None
    if args.keep:
        base = Path(args.keep)
        if base.exists():
            shutil.rmtree(base)
        base.mkdir(parents=True)
    else:
        tmp = tempfile.mkdtemp(prefix="repro-batch-smoke-")
        base = Path(tmp)
    workdir = base / "batch"
    poison = base / "poison.blif"  # never created: fails every attempt
    journal = workdir / "journal.jsonl"

    try:
        print("[smoke] launching supervised batch with chaos faults armed")
        proc = launch_supervisor(workdir, poison)
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                print("[smoke] batch finished before the kill (fast machine)")
                break
            if any(e["event"] == "done" for e in journal_events(journal)):
                break
            time.sleep(0.05)
        else:
            proc.kill()
            proc.wait()
            print("[smoke] FAIL: no job completed within 180s", file=sys.stderr)
            return 1
        if proc.poll() is None:
            print(f"[smoke] SIGKILLing supervisor pid {proc.pid} mid-batch")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        print("[smoke] resuming the batch")
        report = run_batch([], workdir, resume=True, num_workers=2,
                           grace=1.0, max_attempts=2, backoff_base=0.05)

        total = len(GENERATED) + 1
        assert report.total == total, f"expected {total} jobs, saw {report.total}"
        assert report.done == len(GENERATED), (
            f"expected {len(GENERATED)} done, saw {report.done}"
        )
        assert report.quarantined == 1, (
            f"expected exactly the poison job quarantined, saw "
            f"{report.quarantined}"
        )
        by_id = {job["job_id"]: job for job in report.jobs}
        assert by_id["poison"]["state"] == "quarantined", by_id["poison"]

        done_counts: dict[str, int] = {}
        for event in journal_events(journal):
            if event["event"] == "done":
                done_counts[event["job"]] = done_counts.get(event["job"], 0) + 1
        expected = {f"{name}-w{WIDTH}": 1 for name in GENERATED}
        assert done_counts == expected, (
            f"jobs must complete exactly once; done events: {done_counts}"
        )

        for name in GENERATED:
            output = workdir / "outputs" / f"{name}-w{WIDTH}.blif"
            with open(output, encoding="utf-8") as fp:
                optimized = read_blif(fp)
            optimized.check()
            original = load_network({"generate": name, "width": WIDTH})
            assert equivalent_random(original, optimized, num_rounds=4), (
                f"{name}: output not equivalent to input"
            )

        adopted = report.adopted
        print(f"[smoke] PASS: {report.done}/{total} done, 1 quarantined, "
              f"{adopted} adopted on resume, outputs verified")
        return 0
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
