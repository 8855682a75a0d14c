"""On-demand minimum-MIG database for cuts with more than 4 inputs.

Sec. IV of the paper: *"Already for 5 inputs, the enumeration of all NPN
classes becomes impractical, which can be circumvented by considering a
much smaller subset (see, e.g., [9])."*  This module implements that
idea: instead of precomputing all 616 126 NPN-5 classes, entries are
synthesized lazily for exactly the cut functions the rewriter encounters
(the working set of real netlists is tiny), with an LRU-bounded
in-memory tier and an optional persistent tier
(:class:`repro.database.store.NpnStore`), so the first process ever to
see a cut function pays synthesis once and every later lookup — in any
process — is a dict probe.

Each entry starts as a heuristic upper bound
(:func:`repro.exact.heuristic.heuristic_mig`) and can optionally be
tightened by budgeted exact synthesis, either inline (*improve_budget*)
or afterwards by ``migopt db improve`` jobs through the batch runtime
(:func:`repro.database.store.improve_store`).  Exact synthesis answers
every 5-input class of at most four gates from the packaged NPN-5 table
(:func:`repro.exact.bounds.npn5_table`) with no SAT call, and starts
its SAT loop at five gates for the rest.  The class is
interface-compatible with :class:`repro.database.npn_db.NpnDatabase`,
so every rewriting variant works unchanged with ``cut_size=5`` (or 6):

>>> store = NpnStore.open("flows.npn5", num_vars=5)
>>> db5 = DynamicDatabase(num_vars=5, store=store)
>>> optimized = functional_hashing(mig, db5, "BF", cut_size=5)
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

from ..database.npn_db import DbEntry, NpnDatabase
from ..exact.heuristic import heuristic_mig
from ..exact.synthesis import ExactSynthesizer
from ..runtime.metrics import PassMetrics

__all__ = ["DynamicDatabase", "open_database"]


class DynamicDatabase(NpnDatabase):
    """A lazily populated NPN database for 5- or 6-input functions.

    Three tiers, probed in order:

    1. the in-memory LRU (``max_entries`` classes, also mirrored into
       ``self.entries`` for base-class compatibility);
    2. the persistent store, when one is attached — a dict probe plus a
       deserialization, shared by every process that opens the file;
    3. fresh synthesis (heuristic upper bound, optionally tightened by
       *improve_budget* conflicts of exact search), whose result is
       pushed back into both warmer tiers.

    Counters (drained into :class:`~repro.runtime.metrics.PassMetrics`
    by the rewriters via :meth:`drain_metrics`): ``hits`` in-memory,
    ``store_hits`` persistent-tier, ``misses`` synthesized-from-scratch,
    ``evictions`` LRU evictions.
    """

    def __init__(
        self,
        num_vars: int = 5,
        improve_budget: int = 0,
        max_entries: int = 50000,
        store=None,
    ) -> None:
        if num_vars < 4 or num_vars > 6:
            raise ValueError("DynamicDatabase supports 4 to 6 variables")
        super().__init__([], num_vars)
        if isinstance(store, (str, Path)):
            from ..database.store import NpnStore

            store = NpnStore.open(store, num_vars)
        if store is not None and store.num_vars != num_vars:
            raise ValueError(
                f"store holds {store.num_vars}-var entries, "
                f"database wants {num_vars}"
            )
        self.store = store
        self.improve_budget = improve_budget
        self.max_entries = max_entries
        self._lru: OrderedDict[int, DbEntry] = OrderedDict()
        #: lookups answered from the in-memory LRU
        self.hits = 0
        #: lookups that required fresh synthesis
        self.misses = 0
        #: lookups answered from the persistent store
        self.store_hits = 0
        #: classes dropped from the in-memory LRU (still on disk if stored)
        self.evictions = 0
        #: solver counters of the syntheses since the last drain
        self._sat = PassMetrics()

    @property
    def complete(self) -> bool:  # noqa: D401 — never complete by design
        """Always False: entries exist only for functions seen so far."""
        return False

    # -- the three-tier resolve -------------------------------------------

    def _resolve(self, rep: int) -> DbEntry:
        """Entry for class *rep*: LRU, then store, then synthesis.

        Every scalar and batched lookup resolves through here, so a
        class is never missing: :meth:`lookup_batch` tables hold no
        ``None`` and ``lookup_in`` never raises ``KeyError``.  Tier
        counters fire per resolve.
        """
        entry = self._lru.get(rep)
        if entry is not None:
            self.hits += 1
            self._lru.move_to_end(rep)
            return entry
        if self.store is not None:
            entry = self.store.get(rep)
            if entry is not None:
                self.store_hits += 1
                self._admit(rep, entry)
                return entry
        self.misses += 1
        entry = self._synthesize_entry(rep)
        if self.store is not None:
            self.store.put(entry)
            # The store may already hold a better witness (another
            # process got here first); serve the best known.
            entry = self.store.get(rep) or entry
        self._admit(rep, entry)
        return entry

    def _admit(self, rep: int, entry: DbEntry) -> None:
        self._lru[rep] = entry
        self.entries[rep] = entry
        if len(self._lru) > self.max_entries:
            evicted, _ = self._lru.popitem(last=False)
            self.entries.pop(evicted, None)
            self.evictions += 1

    # Bound on this class too: migbench/trace.py wraps each class's own
    # lookup_batch (from the class __dict__).  The body is the base
    # class's, resolving through _resolve above.
    lookup_batch = NpnDatabase.lookup_batch

    # -- synthesis ---------------------------------------------------------

    def _synthesize_entry(self, rep: int) -> DbEntry:
        """Best-effort minimum MIG for class *rep*, with sound proven flags.

        Proven semantics, exhaustively:

        * 0- or 1-gate heuristic results are minimal by construction;
        * with no improvement budget, anything larger ships unproven;
        * with a budget, the exact search runs below the upper bound and
          always returns a witness — a strictly smaller MIG found SAT
          (proven), the upper bound with every smaller size refuted
          UNSAT (**proven at its current size** — the search proving
          nothing smaller exists is as good as finding it), or the upper
          bound on budget exhaustion (unproven).
        """
        upper = heuristic_mig(rep, self.num_vars)
        if upper.num_gates <= 1 or self.improve_budget <= 0:
            return DbEntry.from_mig(rep, upper, proven=upper.num_gates <= 1)
        result = ExactSynthesizer(
            conflict_budget=self.improve_budget,
            max_gates=upper.num_gates - 1,
        ).synthesize(rep, self.num_vars, upper_bound=upper)
        self._sat.record_sat(result)
        return DbEntry.from_mig(
            rep, result.mig, proven=result.proven, conflicts=result.conflicts,
        )

    # -- observability -----------------------------------------------------

    def drain_metrics(self, metrics) -> None:
        """Fold tier counters into *metrics* and reset them.

        Drain semantics (add then zero) so per-step
        :class:`~repro.runtime.metrics.PassMetrics` snapshots merged by
        ``migopt flow --metrics`` count each lookup exactly once.  The
        solver counters (``sat_*``) of the syntheses since the last
        drain are folded in the same way.
        """
        metrics.store_hits += self.hits
        metrics.store_disk_hits += self.store_hits
        metrics.store_synth += self.misses
        metrics.store_evictions += self.evictions
        metrics.merge(self._sat)
        self.hits = self.misses = self.store_hits = self.evictions = 0
        self._sat = PassMetrics()

    def stats(self) -> dict:
        """Counters snapshot, including the attached store's (if any)."""
        out = {
            "num_vars": self.num_vars,
            "memory_entries": len(self._lru),
            "hits": self.hits,
            "misses": self.misses,
            "store_hits": self.store_hits,
            "evictions": self.evictions,
        }
        if self.store is not None:
            out["store"] = self.store.stats()
        return out


def open_database(cut_size: int | None = None, db=None, store=None) -> NpnDatabase:
    """The database functional hashing uses at *cut_size*.

    Cut size 4 (or unset) loads the precomputed NPN-4 table (*db*, or
    the packaged one); 5 or 6 opens a :class:`DynamicDatabase` of that
    arity, backed by the persistent *store* (an ``NpnStore`` or a path)
    when one is given.
    """
    if cut_size is None or cut_size == 4:
        return NpnDatabase.load(db)
    return DynamicDatabase(num_vars=cut_size, store=store)
