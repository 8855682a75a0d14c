"""NPN-4 database generation driver (DESIGN.md §6).

Two phases:

1. **Tree phase** — the L(f) dynamic program plus witness extraction
   yields an optimal-length expression MIG for each of the 222 class
   representatives.  This is complete in under a minute and already
   near-optimal (``L(f) <= C(f) + 2``).
2. **SAT phase** — exact synthesis (Sec. III of the paper) improves and
   certifies entries: :class:`~repro.exact.synthesis.ExactSynthesizer`
   refutes sizes bottom up below each entry, and a descending SAT search
   from the entry shrinks it when the ascent stalls.  An entry becomes
   ``proven`` when every smaller size is refuted.  Every call runs under
   a conflict budget; progress is checkpointed to the JSONL file after
   every class so partial runs are always usable.

``python -m repro.database.generate ARGS`` is ``migopt db generate ARGS``::

    python -m repro.database.generate --out src/repro/database/data/npn4.jsonl \
        --sat-seconds 3600 --budget 30000
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from ..core.npn import enumerate_npn_classes
from ..exact.encoding import encode_exact_mig
from ..exact.synthesis import ExactSynthesizer
from ..exact.trees import TreeSynthesizer
from ..runtime.budget import Budget
from .npn_db import DbEntry, NpnDatabase, entry_from_json, entry_to_json

__all__ = [
    "generate_database",
    "generate_tree_database",
    "improve_class",
    "improve_entries",
    "improve_with_sat",
]


def generate_tree_database(
    num_vars: int = 4,
    verbose: bool = False,
    out_path: str | Path | None = None,
    resume: NpnDatabase | None = None,
    checkpoint_every: int = 8,
) -> NpnDatabase:
    """Phase 1: build the complete database from L-optimal trees.

    Crash-safe and resumable: with *out_path* the database is checkpointed
    (atomically) every *checkpoint_every* completed classes, and passing a
    partially filled database as *resume* synthesizes only the missing
    classes.  Every entry is verified against its representative before it
    is admitted, so a checkpoint only ever contains verified classes.
    """
    synth = TreeSynthesizer(num_vars)
    db = resume if resume is not None else NpnDatabase([], num_vars)
    pending = [rep for rep in enumerate_npn_classes(num_vars) if rep not in db.entries]
    completed = 0
    for rep in pending:
        start = time.perf_counter()
        mig = synth.synthesize(rep)
        if mig.simulate()[0] != rep:
            raise AssertionError(f"tree synthesis produced wrong function for 0x{rep:x}")
        entry = DbEntry.from_mig(
            rep, mig, proven=False, generation_time=time.perf_counter() - start
        )
        # Trees of length 0 and 1 are trivially minimum.
        if entry.size <= 1:
            entry = replace(entry, proven=True)
        db.entries[rep] = entry
        completed += 1
        if out_path is not None and completed % checkpoint_every == 0:
            db.save(out_path)
        if verbose:
            print(f"tree 0x{rep:04x}: size {entry.size} (L={synth.length_of(rep)})")
    if out_path is not None and (completed or not Path(out_path).exists()):
        db.save(out_path)
    return db


def improve_class(
    rep: int,
    entry: DbEntry,
    num_vars: int,
    budget: int | None,
    deadline: float | None = None,
) -> tuple[DbEntry, int]:
    """Improve/certify one database entry by exact synthesis.

    The single unit of SAT-phase work, shared verbatim by the in-process
    and the supervised (``db-improve`` jobs) paths of
    :func:`improve_entries`, so both produce identical entries for
    identical budgets.  Returns the new entry and the conflicts spent.

    :class:`~repro.exact.synthesis.ExactSynthesizer` tries the sizes
    below *entry* bottom up, with *entry* as its upper bound.  When a
    size exhausts the *budget* conflicts, a descending SAT sweep from
    ``entry.size - 1`` down to the highest refuted size still looks for
    a smaller witness; it skips the size that stalled, which the
    deterministic solver would only stall on again.
    """
    start = time.perf_counter()
    synth = ExactSynthesizer(
        conflict_budget=budget,
        max_gates=entry.size - 1,
        budget=Budget(deadline=deadline),
    )
    result = synth.synthesize(rep, num_vars, upper_bound=entry.to_mig())
    best, proven, conflicts = entry, result.proven, result.conflicts
    if result.size < entry.size:
        best = DbEntry.from_mig(rep, result.mig, proven=proven)
    outcomes = result.k_outcomes
    if "unknown" in outcomes.values():
        stalled = max(k for k, o in outcomes.items() if o == "unknown")
        refuted = max(k for k, o in outcomes.items() if o in ("unsat", "skipped"))
        for k in range(entry.size - 1, refuted, -1):
            if deadline is not None and time.monotonic() > deadline:
                break
            if k == stalled:
                continue
            encoding = encode_exact_mig(rep, num_vars, k)
            answer = encoding.solve_cegar(conflict_budget=budget, deadline=deadline)
            conflicts += encoding.builder.solver.conflicts
            if answer is True:
                mig = encoding.extract_mig()
                if mig.simulate()[0] != rep:
                    raise AssertionError(f"extracted MIG wrong for 0x{rep:x} at k={k}")
                best = DbEntry.from_mig(rep, mig, proven=False)
        proven = best.size == refuted + 1
    new_entry = replace(
        best,
        proven=proven,
        conflicts=conflicts,
        generation_time=entry.generation_time + (time.perf_counter() - start),
    )
    return new_entry, conflicts


def improve_entries(
    entries: list[DbEntry],
    num_vars: int,
    budget: int | None,
    time_limit: float | None = None,
    jobs: int = 0,
    workdir: str | Path | None = None,
) -> Iterator[tuple[DbEntry, DbEntry | None, int]]:
    """Run :func:`improve_class` over *entries*; yield ``(old, new, conflicts)``.

    With ``jobs == 0`` the classes run in-process, in order, under one
    deadline *time_limit* seconds from now: the pass ends at the first
    class that would start after it.  Otherwise each class is one
    ``db-improve`` job under :func:`repro.runtime.supervisor.run_batch`
    with *jobs* workers in *workdir* (default: a fresh temp dir):
    process isolation, a watchdog per job and a crash-safe journal.
    There *time_limit* bounds each class, and a *workdir* that already
    holds a journal resumes — classes whose jobs completed are adopted
    from their result artifacts without re-running.  Whatever the worker
    claimed, its entry is admitted only if it simulates to its
    representative; a class whose job did not complete, or whose entry
    was refused, yields ``new=None``.
    """
    if jobs <= 0:
        deadline = None if time_limit is None else time.monotonic() + time_limit
        for entry in entries:
            if deadline is not None and time.monotonic() > deadline:
                return
            new_entry, conflicts = improve_class(
                entry.rep, entry, num_vars, budget, deadline
            )
            yield entry, new_entry, conflicts
        return

    import tempfile

    from ..runtime.jobs import JobSpec, load_result_artifact
    from ..runtime.supervisor import run_batch

    if not entries:
        return
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="npn-improve-")
    workdir = Path(workdir)
    width = 1 << (num_vars - 2)  # hex digits of a truth table
    by_job = {f"db-0x{entry.rep:0{width}x}": entry for entry in entries}
    specs = [
        JobSpec(
            job_id=job_id,
            network={},
            mode="db-improve",
            verify="sim",
            # The worker searches at least 0.5 s and keeps 0.5 s to write
            # its result; the watchdog must allow it that second.
            time_limit=None if time_limit is None else max(1.0, time_limit),
            conflict_limit=budget,
            payload={
                "rep": entry.rep,
                "num_vars": num_vars,
                "budget": budget,
                "entry": entry_to_json(entry),
            },
        )
        for job_id, entry in by_job.items()
    ]
    resume = (workdir / "journal.jsonl").exists()
    report = run_batch(specs, workdir, num_workers=jobs, resume=resume)
    done = {str(job.get("job_id")) for job in report.jobs if job.get("state") == "done"}
    for job_id, old in by_job.items():
        # The full worker payload lives in the result artifact (the
        # journal keeps only a summary slice); done jobs always have one.
        payload = None
        if job_id in done:
            payload = load_result_artifact(workdir / "results" / f"{job_id}.json", job_id)
        new_entry = None
        if payload is not None and payload.get("status") == "ok":
            try:
                new_entry = entry_from_json(payload["entry"])
            except (KeyError, TypeError, ValueError):
                pass
        # Admit nothing unverified, whatever the worker claimed.
        if new_entry is not None and (
            new_entry.rep != old.rep or new_entry.to_mig().simulate()[0] != old.rep
        ):
            new_entry = None
        yield old, new_entry, 0 if new_entry is None else int(payload.get("conflicts", 0))


def improve_with_sat(
    db: NpnDatabase,
    budget: int = 30000,
    time_limit: float | None = None,
    out_path: str | Path | None = None,
    verbose: bool = False,
    largest_first: bool = False,
    jobs: int = 0,
    workdir: str | Path | None = None,
) -> dict[str, int]:
    """Phase 2: improve/certify the unproven entries by exact synthesis.

    Processes classes in increasing current-size order (cheapest proofs
    first) by default; ``largest_first`` reverses it, prioritizing size
    *reduction* of the biggest entries over minimality proofs.  The
    classes run through :func:`improve_entries`: in-process with
    ``jobs=0``, else as *jobs* supervised workers in *workdir* (default:
    ``<out_path>.jobs`` when *out_path* is given).  Without a
    *time_limit* the database content does not depend on *jobs*; every
    class is checkpointed to *out_path*.
    Returns statistics: classes visited, improved and proven, and the
    class jobs that did not complete.
    """
    if workdir is None and out_path is not None:
        workdir = Path(str(out_path) + ".jobs")
    pending = sorted((entry for entry in db.entries.values() if not entry.proven),
                     key=lambda entry: (entry.size, entry.rep), reverse=largest_first)
    stats = {"visited": 0, "improved": 0, "proven": 0, "failed_jobs": 0}
    for old, new_entry, conflicts in improve_entries(
        pending, db.num_vars, budget, time_limit, jobs, workdir
    ):
        if new_entry is None:
            stats["failed_jobs"] += 1
            continue
        stats["visited"] += 1
        if new_entry.size < old.size:
            stats["improved"] += 1
        if new_entry.proven:
            stats["proven"] += 1
        db.entries[old.rep] = new_entry
        if out_path is not None:
            db.save(out_path)
        if verbose:
            print(
                f"sat 0x{old.rep:04x}: size {old.size} -> {new_entry.size} "
                f"proven={new_entry.proven} "
                f"({new_entry.generation_time - old.generation_time:.1f}s, "
                f"{conflicts} conflicts)"
            )
    return stats


def generate_database(
    out_path: str | Path,
    budget: int = 30000,
    sat_seconds: float = 0.0,
    fresh: bool = False,
    largest_first: bool = False,
    jobs: int = 0,
    verbose: bool = True,
) -> NpnDatabase:
    """``migopt db generate``: the tree phase, then the SAT phase.

    An existing *out_path* is resumed unless *fresh*; the SAT phase runs
    for *sat_seconds* (0 = trees only) through :func:`improve_with_sat`.
    The verified database is saved to *out_path* and returned.
    """
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)

    partial: NpnDatabase | None = None
    if out.exists() and not fresh:
        # Tolerant load: truncated trailing lines from a killed run are
        # skipped, everything that parses is kept.
        partial = NpnDatabase.load(out)
        if verbose:
            note = f" ({partial.skipped_lines} malformed lines skipped)" \
                if partial.skipped_lines else ""
            print(f"resumed {len(partial)} entries from {out}{note}")
    if partial is not None and partial.complete:
        db = partial
    else:
        if verbose:
            print("phase 1: L(f) dynamic program + witness trees ...")
        db = generate_tree_database(verbose=False, out_path=out, resume=partial)
        if verbose:
            print(f"tree database written: {len(db)} entries, "
                  f"size histogram {db.size_histogram()}")

    if sat_seconds > 0:
        if verbose:
            mode = f"{jobs} workers" if jobs > 0 else "in-process"
            print(f"phase 2: SAT improvement for {sat_seconds:.0f}s ({mode}) ...")
        stats = improve_with_sat(
            db,
            budget=budget,
            time_limit=sat_seconds,
            out_path=out,
            verbose=verbose,
            largest_first=largest_first,
            jobs=jobs,
        )
        if verbose:
            print(f"sat phase: {stats}")
            print(f"final histogram: {db.size_histogram()}")
    db.verify()
    db.save(out)
    return db


if __name__ == "__main__":
    import sys

    from ..cli import main

    raise SystemExit(main(["db", "generate", *sys.argv[1:]]))
