"""A CDCL SAT solver in pure Python.

This is the decision-procedure substrate of the reproduction: the paper
solves its exact-synthesis formulation (Sec. III) with the SMT solver Z3;
since the formulation is finite-domain, we bit-blast it to CNF
(:mod:`repro.exact.encoding`) and solve it here.

The solver implements the standard modern architecture:

* two-watched-literal unit propagation with *blocking literals* (each
  watcher caches one other literal of its clause; when the cached
  literal is already true the clause is skipped without dereferencing
  it — most watcher visits on industrial-style instances end here),
* first-UIP conflict analysis with recursive clause minimization,
* VSIDS variable activities with phase saving,
* Luby-sequence restarts,
* activity-based learned-clause database reduction,
* solving under assumptions, and
* conflict budgets for anytime use (returns ``None`` when exhausted).

Search statistics are exposed as plain counters: ``conflicts``,
``decisions``, ``propagations``, ``restarts`` and ``learned`` (total
clauses ever learned), consumed by
:class:`repro.exact.synthesis.SynthesisResult` and
``benchmarks/bench_exact.py``.

Variables are positive integers; literals follow the DIMACS convention
(``v`` positive literal, ``-v`` negative literal).
"""

from __future__ import annotations

import heapq
import time
from typing import Iterable, Sequence

from ..runtime.faults import fault_active

__all__ = ["Solver", "SAT", "UNSAT", "UNKNOWN"]

#: conflicts between deadline polls — keeps clock reads off the hot path
_DEADLINE_CHECK_INTERVAL = 64

SAT = True
UNSAT = False
UNKNOWN = None

_UNDEF = 0
_TRUE = 1
_FALSE = -1


def _luby(i: int) -> int:
    """The i-th element (0-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


class Solver:
    """A CDCL SAT solver instance.

    >>> s = Solver()
    >>> a, b = s.new_var(), s.new_var()
    >>> s.add_clause([a, b]); s.add_clause([-a, b]); s.add_clause([a, -b])
    >>> s.solve()
    True
    >>> s.model_value(a), s.model_value(b)
    (True, True)
    """

    def __init__(self) -> None:
        self.num_vars = 0
        # Literal index: positive literal v -> 2v, negative -> 2v+1.
        # Each watcher is a (blocker, clause) pair: the blocker is some
        # other literal of the clause; when it is already true the
        # watcher is skipped without touching the clause at all.
        self._watches: list[list[tuple[int, list[int]]]] = [[], []]
        # Binary clauses get their own watch lists: the blocker *is* the
        # whole rest of the clause, so a visit never searches for a new
        # watch, never moves, and the list is never rebuilt.  The
        # pairwise at-most-one constraints of the exact-synthesis
        # encoding make these the majority of all clauses.
        self._bin_watches: list[list[tuple[int, list[int]]]] = [[], []]
        self._assigns: list[int] = [0]
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._clauses: list[list[int]] = []
        self._learnts: list[list[int]] = []
        self._cla_activity: dict[int, float] = {}
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._ok = True
        self._order_heap: list[tuple[float, int]] = []
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        #: total learned clauses over the solver's lifetime (reduce_db
        #: removals do not decrement; this counts analysis products)
        self.learned = 0
        self.model: list[int] = []
        self._assumption_levels: list[int] = []

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self.num_vars += 1
        self._watches.append([])
        self._watches.append([])
        self._bin_watches.append([])
        self._bin_watches.append([])
        self._assigns.append(_UNDEF)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        return self.num_vars

    def new_vars(self, count: int) -> list[int]:
        """Allocate *count* fresh variables."""
        return [self.new_var() for _ in range(count)]

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT."""
        if not self._ok:
            return False
        if self._trail_lim:
            # A previous solve may have returned while assumptions were
            # still on the trail; clause addition must happen at root.
            self._cancel_until(0)
        seen: set[int] = set()
        clause: list[int] = []
        for lit in lits:
            var = abs(lit)
            if var == 0 or var > self.num_vars:
                raise ValueError(f"literal {lit} uses an unallocated variable")
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            value = self._lit_value(lit)
            if value == _TRUE and self._level[var] == 0:
                return True  # already satisfied at root
            if value == _FALSE and self._level[var] == 0:
                continue  # root-false literal: drop
            seen.add(lit)
            clause.append(lit)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._ok = False
                return False
            self._ok = self.propagate() is None
            return self._ok
        self._attach(clause)
        self._clauses.append(clause)
        return True

    # ------------------------------------------------------------------
    # assignment bookkeeping
    # ------------------------------------------------------------------

    def _lit_value(self, lit: int) -> int:
        value = self._assigns[abs(lit)]
        return value if lit > 0 else -value

    def _lit_index(self, lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit << 1) | 1)

    def _attach(self, clause: list[int]) -> None:
        # The co-watched literal doubles as the blocking literal.
        watches = self._bin_watches if len(clause) == 2 else self._watches
        watches[self._lit_index(-clause[0])].append((clause[1], clause))
        watches[self._lit_index(-clause[1])].append((clause[0], clause))

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        value = self._lit_value(lit)
        if value == _FALSE:
            return False
        if value == _TRUE:
            return True
        var = abs(lit)
        self._assigns[var] = _TRUE if lit > 0 else _FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        bound = self._trail_lim[level]
        heap = self._order_heap
        for i in range(len(self._trail) - 1, bound - 1, -1):
            var = abs(self._trail[i])
            self._assigns[var] = _UNDEF
            self._reason[var] = None
            heapq.heappush(heap, (-self._activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------

    def propagate(self) -> list[int] | None:
        """Unit propagation; returns the conflicting clause or None.

        This is the solver's inner loop (≥ 80 % of solve time on the
        exact-synthesis workload), hence the deliberate style: every
        attribute is hoisted into a local, literal values are computed
        inline instead of via ``_lit_value``, and the blocking literal
        lets most watcher visits finish without touching the clause.
        """
        watches = self._watches
        bin_watches = self._bin_watches
        assigns = self._assigns
        level = self._level
        reason = self._reason
        phase = self._phase
        trail = self._trail
        trail_lim = self._trail_lim
        qhead = self._qhead
        propagations = 0
        conflict: list[int] | None = None
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            propagations += 1
            idx = (lit << 1) if lit > 0 else ((-lit << 1) | 1)
            # Binary clauses first: the blocker is the entire rest of the
            # clause, so each visit is one value lookup and a branch.
            for watcher in bin_watches[idx]:
                other = watcher[0]
                ov = assigns[other] if other > 0 else -assigns[-other]
                if ov == 1:  # _TRUE
                    continue
                clause = watcher[1]
                if ov == -1:  # _FALSE: both literals false
                    conflict = clause
                    break
                # Unit: imply the co-literal.  Conflict analysis expects
                # the implied literal at reason[0], so normalize.
                if clause[0] != other:
                    clause[0] = other
                    clause[1] = -lit
                var = other if other > 0 else -other
                assigns[var] = 1 if other > 0 else -1
                level[var] = len(trail_lim)
                reason[var] = clause
                phase[var] = other > 0
                trail.append(other)
            if conflict is not None:
                break
            watch_list = watches[idx]
            # Compact the list in place: `keep` is the write cursor, so
            # surviving watchers shift down and no scratch list is built.
            i = 0
            keep = 0
            n = len(watch_list)
            while i < n:
                watcher = watch_list[i]
                i += 1
                blocker = watcher[0]
                bv = assigns[blocker] if blocker > 0 else -assigns[-blocker]
                if bv == 1:  # _TRUE: clause satisfied, skip untouched
                    watch_list[keep] = watcher
                    keep += 1
                    continue
                clause = watcher[1]
                # Ensure the falsified literal is at position 1.
                if clause[0] == -lit:
                    clause[0] = clause[1]
                    clause[1] = -lit
                first = clause[0]
                if first == blocker:
                    v0 = bv
                else:
                    v0 = assigns[first] if first > 0 else -assigns[-first]
                    if v0 == 1:
                        # Refresh the blocker to the satisfied literal.
                        watch_list[keep] = (first, clause)
                        keep += 1
                        continue
                # Look for a new literal to watch.
                found = False
                for j in range(2, len(clause)):
                    lj = clause[j]
                    if (assigns[lj] if lj > 0 else -assigns[-lj]) != -1:
                        clause[1] = lj
                        clause[j] = -lit
                        widx = ((-lj) << 1) if lj < 0 else ((lj << 1) | 1)
                        watches[widx].append((first, clause))
                        found = True
                        break
                if found:
                    continue
                watch_list[keep] = (first, clause)
                keep += 1
                # Clause is unit or conflicting.
                if v0 == -1:  # _FALSE
                    conflict = clause
                    while i < n:  # keep the unvisited tail
                        watch_list[keep] = watch_list[i]
                        keep += 1
                        i += 1
                    break
                # Inline _enqueue for the (always-unassigned) unit case.
                var = first if first > 0 else -first
                assigns[var] = 1 if first > 0 else -1
                level[var] = len(trail_lim)
                reason[var] = clause
                phase[var] = first > 0
                trail.append(first)
            if keep != n:
                del watch_list[keep:]
            if conflict is not None:
                break
        self._qhead = qhead
        self.propagations += propagations
        return conflict

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        learnt: list[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = 0
        index = len(self._trail) - 1
        reason: list[int] | None = conflict
        level = self._decision_level()
        first = True

        while True:
            assert reason is not None
            self._bump_clause(reason)
            start = 0 if first else 1
            for q in reason[start:] if not first else reason:
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= level:
                        counter += 1
                    else:
                        learnt.append(q)
            first = False
            # Find the next literal on the trail to resolve on.
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            index -= 1
            var = abs(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[var]
        learnt[0] = -lit

        # Clause minimization: drop literals implied by the rest.
        abstract_levels = 0
        for q in learnt[1:]:
            abstract_levels |= 1 << (self._level[abs(q)] & 31)
        minimized = [learnt[0]]
        for q in learnt[1:]:
            if self._reason[abs(q)] is None or not self._lit_redundant(
                q, seen, abstract_levels
            ):
                minimized.append(q)
        learnt = minimized

        # Compute backtrack level.
        if len(learnt) == 1:
            back_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if self._level[abs(learnt[i])] > self._level[abs(learnt[max_i])]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = self._level[abs(learnt[1])]
        return learnt, back_level

    def _lit_redundant(self, lit: int, seen: list[bool], abstract_levels: int) -> bool:
        stack = [lit]
        cleared: list[int] = []
        while stack:
            q = stack.pop()
            reason = self._reason[abs(q)]
            if reason is None:
                for var in cleared:
                    seen[var] = False
                return False
            for p in reason[1:]:
                var = abs(p)
                if seen[var] or self._level[var] == 0:
                    continue
                if (
                    self._reason[var] is not None
                    and (1 << (self._level[var] & 31)) & abstract_levels
                ):
                    seen[var] = True
                    cleared.append(var)
                    stack.append(p)
                else:
                    for v in cleared:
                        seen[v] = False
                    return False
        return True

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
        if self._assigns[var] == _UNDEF:
            # Lazy decrease-key: push a fresh entry; stale ones are skipped.
            heapq.heappush(self._order_heap, (-self._activity[var], var))

    def _bump_clause(self, clause: list[int]) -> None:
        key = id(clause)
        if key in self._cla_activity:
            self._cla_activity[key] += self._cla_inc
            if self._cla_activity[key] > 1e20:
                for k in self._cla_activity:
                    self._cla_activity[k] *= 1e-20
                self._cla_inc *= 1e-20

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _pick_branch_var(self) -> int:

        heap = self._order_heap
        while heap:
            _, var = heapq.heappop(heap)
            if self._assigns[var] == _UNDEF:
                return var
        for var in range(1, self.num_vars + 1):
            if self._assigns[var] == _UNDEF:
                return var
        return 0

    def _rebuild_heap(self) -> None:

        self._order_heap = [
            (-self._activity[v], v)
            for v in range(1, self.num_vars + 1)
            if self._assigns[v] == _UNDEF
        ]
        heapq.heapify(self._order_heap)

    def _reduce_db(self) -> None:
        acts = self._cla_activity
        learnts = sorted(self._learnts, key=lambda c: acts.get(id(c), 0.0))
        keep_from = len(learnts) // 2
        removed = set()
        for clause in learnts[:keep_from]:
            if len(clause) > 2 and not self._is_reason(clause):
                removed.add(id(clause))
        if not removed:
            return
        self._learnts = [c for c in self._learnts if id(c) not in removed]
        for idx in range(len(self._watches)):
            self._watches[idx] = [
                w for w in self._watches[idx] if id(w[1]) not in removed
            ]
        for key in removed:
            self._cla_activity.pop(key, None)

    def _is_reason(self, clause: list[int]) -> bool:
        lit = clause[0]
        return self._reason[abs(lit)] is clause

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: int | None = None,
        deadline: float | None = None,
    ) -> bool | None:
        """Solve the formula.

        Returns ``True`` (SAT, model available), ``False`` (UNSAT), or
        ``None`` when *conflict_budget* conflicts were spent — or the
        wall-clock *deadline* (a ``time.monotonic()`` instant) passed —
        without an answer.
        """
        if fault_active("solver.timeout"):
            return UNKNOWN
        if not self._ok:
            return UNSAT
        if deadline is not None and time.monotonic() >= deadline:
            return UNKNOWN
        self._cancel_until(0)
        if self.propagate() is not None:
            self._ok = False
            return UNSAT
        self._rebuild_heap()
        budget = conflict_budget
        restart_count = 0
        max_learnts = 4000.0

        while True:
            limit = 100 * _luby(restart_count)
            if restart_count:
                self.restarts += 1
            restart_count += 1
            conflicts_here = 0
            self._cancel_until(0)
            if deadline is not None and time.monotonic() >= deadline:
                return UNKNOWN
            # Re-apply assumptions after each restart.
            status = self._apply_assumptions(assumptions)
            if status is not None:
                self._cancel_until(0)
                return status
            while True:
                conflict = self.propagate()
                if conflict is not None:
                    self.conflicts += 1
                    conflicts_here += 1
                    if budget is not None:
                        budget -= 1
                        if budget <= 0:
                            self._cancel_until(0)
                            return UNKNOWN
                    if (
                        deadline is not None
                        and self.conflicts % _DEADLINE_CHECK_INTERVAL == 0
                        and time.monotonic() >= deadline
                    ):
                        self._cancel_until(0)
                        return UNKNOWN
                    if self._decision_level() <= len(self._assumption_levels):
                        # Conflict under assumptions only (or at root).
                        if self._decision_level() == 0:
                            self._ok = False
                        self._cancel_until(0)
                        return UNSAT
                    learnt, back_level = self._analyze(conflict)
                    self.learned += 1
                    back_level = max(back_level, len(self._assumption_levels))
                    self._cancel_until(back_level)
                    if len(learnt) == 1:
                        self._cancel_until(0)
                        if not self._enqueue(learnt[0], None):
                            self._ok = False
                            return UNSAT
                        status = self._apply_assumptions(assumptions)
                        if status is not None:
                            self._cancel_until(0)
                            return status
                    else:
                        self._attach(learnt)
                        self._learnts.append(learnt)
                        self._cla_activity[id(learnt)] = self._cla_inc
                        self._enqueue(learnt[0], learnt)
                    self._var_inc *= self._var_decay
                    self._cla_inc *= 1.001
                    if len(self._learnts) > max_learnts:
                        self._reduce_db()
                        max_learnts *= 1.1
                    continue
                if conflicts_here >= limit:
                    break  # restart
                var = self._pick_branch_var()
                if var == 0:
                    self.model = [0] + [
                        1 if self._assigns[v] == _TRUE else 0
                        for v in range(1, self.num_vars + 1)
                    ]
                    self._cancel_until(0)
                    return SAT
                self.decisions += 1
                self._trail_lim.append(len(self._trail))
                lit = var if self._phase[var] else -var
                heapq.heappush(self._order_heap, (-self._activity[var], var))
                self._enqueue(lit, None)

    def _apply_assumptions(self, assumptions: Sequence[int]) -> bool | None:
        """Push assumptions as pseudo-decisions; returns UNSAT on clash."""
        self._assumption_levels = []
        for lit in assumptions:
            conflict = self.propagate()
            if conflict is not None:
                return UNSAT
            value = self._lit_value(lit)
            if value == _TRUE:
                continue
            if value == _FALSE:
                return UNSAT
            self._trail_lim.append(len(self._trail))
            self._assumption_levels.append(len(self._trail_lim))
            self._enqueue(lit, None)
        return None

    # ------------------------------------------------------------------
    # model access
    # ------------------------------------------------------------------

    def model_value(self, lit: int) -> bool:
        """Value of *lit* in the last model (only valid after SAT)."""
        if not self.model:
            raise RuntimeError("no model available; call solve() first and check SAT")
        value = bool(self.model[abs(lit)])
        return value if lit > 0 else not value
