"""Hot-path counters for the rewriting passes (docs/PERFORMANCE.md).

The functional-hashing hot loop — cut enumeration, NPN canonization,
database lookup, structure rebuild — is where the paper's runtime claim
lives.  :class:`PassMetrics` is the lightweight counter object threaded
through :func:`repro.core.cuts.enumerate_cut_set`,
:func:`repro.rewriting.top_down.rewrite_top_down`,
:func:`repro.rewriting.bottom_up.rewrite_bottom_up`,
:func:`repro.rewriting.engine.functional_hashing` and
:func:`repro.opt.flow.run_flow`; the CLI ``--metrics`` flag and
``benchmarks/bench_hotpath.py`` serialize it to JSON.

Counters are plain integer increments (no locks, no sampling) so the
observed pass stays representative: the bookkeeping adds well under 5%
to a pass and nothing when a phase records no events.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from . import codec

__all__ = ["PassMetrics", "REJECT_REASONS"]

#: The reasons a cut can be rejected by a rewriter, in pipeline order.
REJECT_REASONS = (
    "trivial",
    "invalid-cone",
    "db-miss",
    "no-gain",
    "depth-increase",
)


@dataclass
class PassMetrics(codec.Record):
    """Counters for one rewriting pass (or a merge of several).

    ``to_dict`` also writes the derived rates (rounded to 4 digits) and
    ``from_dict`` ignores them; both come from :mod:`repro.runtime.codec`.

    >>> m = PassMetrics(variant="BF")
    >>> with m.phase("enumerate"):
    ...     m.cuts_enumerated += 10
    >>> m.cuts_enumerated, sorted(m.phase_seconds)
    (10, ['enumerate'])
    """

    variant: str = ""
    #: gate nodes the rewriter looked at
    nodes_visited: int = 0
    #: database structures instantiated into the new network
    nodes_rebuilt: int = 0
    #: cuts stored by cut enumeration (across all nodes, incl. trivial)
    cuts_enumerated: int = 0
    #: non-trivial cuts the rewriter examined
    cuts_considered: int = 0
    #: cuts that produced an applicable replacement candidate
    cuts_admitted: int = 0
    #: rejected cuts bucketed by reason (see :data:`REJECT_REASONS`)
    cuts_rejected: dict[str, int] = field(default_factory=dict)
    #: NPN database lookups that found an entry
    db_hits: int = 0
    #: NPN database lookups that missed (class without an entry)
    db_misses: int = field(
        default=0, metadata=codec.then("db_hit_rate", digits=4)
    )
    #: NPN canonizations answered by the global memo table
    npn_cache_hits: int = 0
    #: NPN canonizations computed from scratch
    npn_cache_misses: int = field(
        default=0, metadata=codec.then("npn_cache_hit_rate", digits=4)
    )
    #: cut truth tables produced by the level-batched array evaluator
    batch_cut_functions: int = 0
    #: compiled network levels swept by the batch evaluator
    batch_levels: int = 0
    #: unique functions canonized through a vectorized lookup_batch sweep
    batch_npn_lookups: int = 0
    #: SAT solver counters accumulated from exact-synthesis calls; the
    #: ``sat_*`` keys match SynthesisResult and benchmarks/bench_exact.py
    sat_conflicts: int = 0
    sat_propagations: int = 0
    sat_decisions: int = 0
    sat_restarts: int = 0
    sat_learned: int = 0
    #: dynamic-database lookups answered from the in-memory LRU tier
    store_hits: int = 0
    #: dynamic-database lookups answered from the persistent NPN store
    store_disk_hits: int = 0
    #: dynamic-database lookups that synthesized a fresh entry
    store_synth: int = 0
    #: classes dropped from the dynamic database's in-memory LRU
    store_evictions: int = field(
        default=0, metadata=codec.then("store_hit_rate", digits=4)
    )
    #: gate constructions answered by the kernel's structural-hash table
    kernel_strash_hits: int = 0
    #: gate constructions simplified away by a kernel facade unit rule
    kernel_unit_rules: int = 0
    #: 64-bit gate-words evaluated by the shared simulation engine
    sim_words: int = 0
    #: wall-clock seconds per phase ("enumerate", "rewrite", "cleanup", ...)
    phase_seconds: dict[str, float] = field(
        default_factory=dict, metadata=codec.rounded(6)
    )

    # -- recording ---------------------------------------------------------

    def reject(self, reason: str) -> None:
        """Count one rejected cut under *reason*."""
        self.cuts_rejected[reason] = self.cuts_rejected.get(reason, 0) + 1

    def record_sat(self, result) -> None:
        """Accumulate the solver counters of one SynthesisResult."""
        self.sat_conflicts += result.conflicts
        self.sat_propagations += result.propagations
        self.sat_decisions += result.decisions
        self.sat_restarts += result.restarts
        self.sat_learned += result.learned

    def record_network(self, net) -> None:
        """Accumulate (and reset) the kernel counters of one network.

        Call once per network the pass constructed or simulated; the
        counters are zeroed so a network observed by several phases is
        never double-counted.
        """
        self.kernel_strash_hits += net.strash_hits
        self.kernel_unit_rules += net.unit_rules
        self.sim_words += net.sim_words
        net.strash_hits = 0
        net.unit_rules = 0
        net.sim_words = 0

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a phase; nested/repeated uses accumulate."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed

    def merge(self, other: "PassMetrics") -> None:
        """Accumulate *other* into this object (for multi-pass totals):
        every int counter and every dict-valued counter is summed."""
        codec.merge(self, other)

    # -- derived rates -----------------------------------------------------

    @staticmethod
    def _rate(hits: int, total: int) -> float:
        return hits / total if total else 0.0

    @property
    def db_hit_rate(self) -> float:
        """Fraction of database lookups that found an entry."""
        return self._rate(self.db_hits, self.db_hits + self.db_misses)

    @property
    def npn_cache_hit_rate(self) -> float:
        """Fraction of NPN canonizations answered from the memo table."""
        return self._rate(
            self.npn_cache_hits, self.npn_cache_hits + self.npn_cache_misses
        )

    @property
    def store_hit_rate(self) -> float:
        """Fraction of dynamic-database lookups served without synthesis."""
        warm = self.store_hits + self.store_disk_hits
        return self._rate(warm, warm + self.store_synth)

    @property
    def total_seconds(self) -> float:
        """Sum of all recorded phase times."""
        return sum(self.phase_seconds.values())

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PassMetrics":
        """Parse a string produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))
