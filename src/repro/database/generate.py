"""NPN-4 database generation driver (DESIGN.md §6).

Two phases:

1. **Tree phase** — the L(f) dynamic program plus witness extraction
   yields an optimal-length expression MIG for each of the 222 class
   representatives.  This is complete in under a minute and already
   near-optimal (``L(f) <= C(f) + 2``).
2. **SAT phase** — exact synthesis (Sec. III of the paper) improves and
   certifies entries: ascending UNSAT proofs from ``k = 1`` establish
   lower bounds; descending SAT searches from the current upper bound
   shrink entries.  An entry becomes ``proven`` when the sizes meet.
   Every call runs under a conflict budget; progress is checkpointed to
   the JSONL file after every class so partial runs are always usable.

Run as a module::

    python -m repro.database.generate --out src/repro/database/data/npn4.jsonl \
        --sat-seconds 3600 --budget 30000
"""

from __future__ import annotations

import argparse
import time
from dataclasses import replace
from pathlib import Path

from ..core.npn import enumerate_npn_classes
from ..exact.bounds import mig_size_lower_bound
from ..exact.encoding import encode_exact_mig
from ..exact.trees import TreeSynthesizer
from .npn_db import DbEntry, NpnDatabase, entry_from_json, entry_to_json

__all__ = [
    "generate_tree_database",
    "improve_class",
    "improve_with_sat",
    "improve_with_sat_parallel",
    "main",
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


def _solve_size(
    spec: int,
    num_vars: int,
    k: int,
    budget: int | None,
    deadline: float | None = None,
    seed_rows: list[int] | None = None,
    portfolio=None,
) -> tuple[bool | None, DbEntry | None, int, list[int]]:
    """One exact-synthesis decision.

    Returns ``(answer, entry-if-SAT, conflicts, rows)`` where *rows* is
    the CEGAR row set after the call — carried into the next size when
    ascending (a refutation over a row subset refutes the full spec).
    """
    encoding = encode_exact_mig(spec, num_vars, k, portfolio=portfolio)
    answer = encoding.solve_cegar(
        conflict_budget=budget, deadline=deadline, seed_rows=seed_rows
    )
    conflicts = encoding.builder.solver.conflicts
    if answer is True:
        mig = encoding.extract_mig()
        if mig.simulate()[0] != spec:
            raise AssertionError(f"extracted MIG wrong for 0x{spec:x} at k={k}")
        entry = DbEntry.from_mig(spec, mig, proven=False, conflicts=conflicts)
        return True, entry, conflicts, encoding.rows
    return answer, None, conflicts, encoding.rows


def improve_class(
    rep: int,
    entry: DbEntry,
    num_vars: int,
    budget: int | None,
    deadline: float | None = None,
    sat_backend: str = "internal",
) -> tuple[DbEntry, int]:
    """Improve/certify one database entry by exact synthesis.

    The single unit of SAT-phase work, shared verbatim by the serial
    loop (:func:`improve_with_sat`) and the supervised workers
    (``db-improve`` jobs), so both paths produce identical entries for
    identical budgets.  Returns the new entry and the conflicts spent.

    Ascending UNSAT proofs start at the exhaustive lower bound
    (:func:`repro.exact.bounds.mig_size_lower_bound`) and carry the
    CEGAR counterexample rows from each refuted size into the next; a
    descending SAT sweep from the current upper bound handles budget
    exhaustion.

    *sat_backend* selects the solver lanes (``internal`` keeps the
    deterministic single-solver path; ``auto``/``portfolio`` race
    external binaries, trading bit-for-bit run determinism for speed —
    entries are still verified by simulation before they are admitted).
    """
    portfolio = None
    if sat_backend != "internal":
        from ..sat.portfolio import resolve_backend

        portfolio = resolve_backend(sat_backend)
    start = time.perf_counter()
    total_conflicts = 0
    best = entry
    lower = mig_size_lower_bound(rep, num_vars)
    refuted_below = max(0, lower - 1)  # sizes <= refuted_below are impossible
    k = max(1, lower)
    exhausted = False
    unknown_at: int | None = None
    carried_rows: list[int] | None = None
    while k < best.size:
        if deadline is not None and time.monotonic() > deadline:
            exhausted = True
            break
        answer, found, conflicts, rows = _solve_size(
            rep, num_vars, k, budget, deadline, seed_rows=carried_rows,
            portfolio=portfolio,
        )
        total_conflicts += conflicts
        if answer is False:
            refuted_below = k
            carried_rows = rows
            k += 1
            continue
        if answer is True:
            assert found is not None
            best = found
            break
        exhausted = True
        unknown_at = k  # deterministic solver: don't retry this size
        break
    # Descending SAT improvements when the ascent stalled.
    if exhausted:
        k2 = best.size - 1
        while k2 > refuted_below:
            if deadline is not None and time.monotonic() > deadline:
                break
            if k2 == unknown_at:
                k2 -= 1
                continue
            answer, found, conflicts, _rows = _solve_size(
                rep, num_vars, k2, budget, deadline, portfolio=portfolio
            )
            total_conflicts += conflicts
            if answer is True and found is not None:
                best = found
            k2 -= 1
    proven = best.size == refuted_below + 1 or best.size == 0
    new_entry = DbEntry(
        rep=rep,
        num_vars=best.num_vars,
        size=best.size,
        depth=best.depth,
        proven=proven,
        gates=best.gates,
        output=best.output,
        generation_time=entry.generation_time + (time.perf_counter() - start),
        conflicts=total_conflicts,
    )
    return new_entry, total_conflicts


def _sat_phase_order(db: NpnDatabase, largest_first: bool) -> list[int]:
    return sorted(
        db.entries,
        key=lambda rep: (db.entries[rep].size, rep),
        reverse=largest_first,
    )


def improve_with_sat(
    db: NpnDatabase,
    budget: int = 30000,
    time_limit: float | None = None,
    out_path: str | Path | None = None,
    verbose: bool = False,
    largest_first: bool = False,
    sat_backend: str = "internal",
) -> dict[str, int]:
    """Phase 2: improve/certify database entries by exact synthesis.

    Processes classes in increasing current-size order (cheapest proofs
    first) by default; ``largest_first`` reverses it, prioritizing size
    *reduction* of the biggest entries over minimality proofs.
    Returns statistics: how many entries were improved and proven.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    stats = {"visited": 0, "improved": 0, "proven": 0}
    for rep in _sat_phase_order(db, largest_first):
        entry = db.entries[rep]
        if entry.proven:
            continue
        if deadline is not None and time.monotonic() > deadline:
            break
        stats["visited"] += 1
        new_entry, total_conflicts = improve_class(
            rep, entry, db.num_vars, budget, deadline, sat_backend=sat_backend
        )
        if new_entry.size < entry.size:
            stats["improved"] += 1
        if new_entry.proven:
            stats["proven"] += 1
        db.entries[rep] = new_entry
        if out_path is not None:
            db.save(out_path)
        if verbose:
            print(
                f"sat 0x{rep:04x}: size {entry.size} -> {new_entry.size} "
                f"proven={new_entry.proven} "
                f"({new_entry.generation_time - entry.generation_time:.1f}s, "
                f"{total_conflicts} conflicts)"
            )
    return stats


def improve_with_sat_parallel(
    db: NpnDatabase,
    budget: int = 30000,
    time_limit: float | None = None,
    out_path: str | Path | None = None,
    verbose: bool = False,
    largest_first: bool = False,
    jobs: int = 2,
    workdir: str | Path | None = None,
    sat_backend: str = "internal",
) -> dict[str, int]:
    """Phase 2 across worker subprocesses via the supervised batch runtime.

    One ``db-improve`` job per unproven class, scheduled by
    :class:`repro.runtime.supervisor.Supervisor`: process isolation, a
    SIGTERM→SIGKILL watchdog per job, and the crash-safe job journal.
    When *workdir* (default: ``<out_path>.jobs``) already holds a
    journal, the batch *resumes* — classes whose jobs completed are
    adopted from their result artifacts without re-running.

    Entries come back identical to :func:`improve_with_sat` for the same
    *budget* (same :func:`improve_class`, deterministic solver) — the
    database content does not depend on the worker count.
    """
    from ..runtime.jobs import JobSpec, load_result_artifact
    from ..runtime.supervisor import run_batch

    if workdir is None:
        if out_path is None:
            raise ValueError("improve_with_sat_parallel needs out_path or workdir")
        workdir = Path(str(out_path) + ".jobs")
    workdir = Path(workdir)

    pending = [rep for rep in _sat_phase_order(db, largest_first)
               if not db.entries[rep].proven]
    stats = {"visited": 0, "improved": 0, "proven": 0}
    if not pending:
        return stats

    per_job_limit = None
    if time_limit is not None:
        # Deadlines are per class in the parallel path: the supervisor
        # watchdog enforces wall clock per job, not across the batch.
        per_job_limit = max(1.0, time_limit)

    specs = [
        JobSpec(
            job_id=f"db-0x{rep:04x}",
            network={},
            mode="db-improve",
            verify="sim",
            sat_backend=sat_backend,
            time_limit=per_job_limit,
            conflict_limit=budget,
            payload={
                "rep": rep,
                "num_vars": db.num_vars,
                "budget": budget,
                "entry": entry_to_json(db.entries[rep]),
            },
        )
        for rep in pending
    ]

    resume = (workdir / "journal.jsonl").exists()
    report = run_batch(specs, workdir, num_workers=jobs, resume=resume)

    failed: list[str] = []
    for summary in report.jobs:
        job_id = str(summary.get("job_id"))
        if summary.get("state") != "done":
            failed.append(job_id)
            continue
        # The full worker payload lives in the result artifact (the
        # journal keeps only a summary slice); done jobs always have one.
        payload = load_result_artifact(workdir / "results" / f"{job_id}.json", job_id)
        if payload is None or payload.get("status") != "ok" or "entry" not in payload:
            failed.append(job_id)
            continue
        new_entry = entry_from_json(payload["entry"])
        rep = new_entry.rep
        old = db.entries[rep]
        # Admit nothing unverified into the database, whatever the
        # worker claimed: rebuild and simulate the entry here.
        if new_entry.to_mig().simulate()[0] != rep:
            failed.append(str(summary.get("job_id")))
            continue
        stats["visited"] += 1
        if new_entry.size < old.size:
            stats["improved"] += 1
        if new_entry.proven:
            stats["proven"] += 1
        db.entries[rep] = new_entry
        if verbose:
            adopted = " (adopted)" if summary.get("adopted") else ""
            print(
                f"sat 0x{rep:04x}: size {old.size} -> {new_entry.size} "
                f"proven={new_entry.proven}{adopted}"
            )
    if out_path is not None:
        db.save(out_path)
    if failed and verbose:
        print(f"sat phase: {len(failed)} class jobs did not complete: "
              f"{', '.join(sorted(failed))}")
    stats["failed_jobs"] = len(failed)
    return stats


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description="Generate the NPN-4 MIG database")
    parser.add_argument(
        "--out",
        default=str(Path(__file__).parent / "data" / "npn4.jsonl"),
        help="output JSONL path",
    )
    parser.add_argument("--budget", type=int, default=30000, help="conflicts per SAT call")
    parser.add_argument(
        "--sat-seconds", type=float, default=0.0,
        help="time for the SAT improvement phase (0 = trees only)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="load the existing output file and continue from the last "
        "completed class (this is also the default when the file exists)",
    )
    parser.add_argument(
        "--fresh", action="store_true",
        help="ignore an existing output file and regenerate from scratch",
    )
    parser.add_argument(
        "--largest-first", action="store_true",
        help="process the biggest entries first (prioritize size reduction)",
    )
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="run the SAT phase across N supervised worker subprocesses "
        "(0 = in-process serial; the database content is identical either "
        "way, and a killed parallel run resumes from its job journal)",
    )
    parser.add_argument(
        "--sat-backend", choices=("auto", "internal", "portfolio"),
        default="internal",
        help="SAT solver lanes for the improvement phase: 'internal' is the "
        "deterministic in-process solver; 'auto'/'portfolio' race external "
        "kissat/CaDiCaL binaries when discovered (every entry is still "
        "verified by simulation before admission)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    verbose = not args.quiet

    partial: NpnDatabase | None = None
    if out.exists() and (args.resume or not args.fresh):
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

    if args.sat_seconds > 0:
        if verbose:
            mode = f"{args.jobs} workers" if args.jobs > 0 else "in-process"
            print(f"phase 2: SAT improvement for {args.sat_seconds:.0f}s ({mode}) ...")
        if args.jobs > 0:
            stats = improve_with_sat_parallel(
                db,
                budget=args.budget,
                time_limit=args.sat_seconds,
                out_path=out,
                verbose=verbose,
                largest_first=args.largest_first,
                jobs=args.jobs,
                sat_backend=args.sat_backend,
            )
        else:
            stats = improve_with_sat(
                db,
                budget=args.budget,
                time_limit=args.sat_seconds,
                out_path=out,
                verbose=verbose,
                largest_first=args.largest_first,
                sat_backend=args.sat_backend,
            )
        if verbose:
            print(f"sat phase: {stats}")
            print(f"final histogram: {db.size_histogram()}")
    db.verify()
    db.save(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
