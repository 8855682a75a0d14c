"""Frozen class improver for the SAT-phase differential test.

This module is a deliberate, self-contained snapshot of
``repro.database.generate.improve_class`` and its helper ``_solve_size``
as they were before ``improve_class`` was rebuilt on
:class:`repro.exact.synthesis.ExactSynthesizer`.  The function bodies
are copied byte for byte, except that the lazy portfolio import is
absolute; only the module around them is new.

**Do not refactor this file alongside src/** — its value is that it
stays behind as the oracle: on every class the production improver must
reach the same entry with the same conflicts, or — for classes the
exhaustive small-MIG table covers — one at least as small, as proven and
as cheap (tests/database/test_improve_differential.py).
"""

from __future__ import annotations

import time

from repro.database.npn_db import DbEntry
from repro.exact.bounds import mig_size_lower_bound
from repro.exact.encoding import encode_exact_mig

__all__ = ["improve_class"]


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
        from repro.sat.portfolio import resolve_backend

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
