"""The precomputed database of minimum MIGs for 4-input NPN classes.

The functional-hashing optimization (Sec. IV of the paper) replaces
4-feasible cuts by precomputed minimum MIGs.  Since MIG size is invariant
under input/output inversion and input permutation, one minimum MIG per
NPN class representative suffices — 222 entries for 4 variables instead
of 65 536 (Sec. IV, first paragraph).

Entries are stored as JSON lines.  Each entry carries the class
representative, the gate list of its (minimum or best-known) MIG in the
exact-synthesis node numbering (0 = constant, ``1..n`` = inputs, gates
follow topologically), the output signal, a ``proven`` flag (see
DESIGN.md §6) and bookkeeping metadata.

:meth:`NpnDatabase.rebuild` is the rewriting primitive: given an arbitrary
4-input cut function and the cut's leaf signals in a target MIG, it
instantiates the stored structure — applying the NPN transform to leaves
and output — and returns the signal computing the cut function.
"""

from __future__ import annotations

import io
import json
import warnings
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import IO, Iterable

from ..core.mig import Mig, signal_not
from ..core.npn import NPNTransform, npn_canonize, npn_canonize_batch
from ..core.truth_table import tt_mask
from ..runtime.faults import fault_active

__all__ = ["DbEntry", "NpnDatabase", "DEFAULT_DB_RESOURCE"]

DEFAULT_DB_RESOURCE = "npn4.jsonl"


@dataclass(frozen=True)
class DbEntry:
    """One NPN class entry: the best known MIG for the representative."""

    rep: int
    num_vars: int
    size: int
    depth: int
    proven: bool
    #: gate fanin triples as signals over nodes 0=const, 1..n=PIs, n+1.. gates
    gates: tuple[tuple[int, int, int], ...]
    #: output signal
    output: int
    generation_time: float = 0.0
    conflicts: int = 0

    def to_mig(self) -> Mig:
        """Materialize the entry as a standalone single-output MIG."""
        mig = Mig(self.num_vars)
        signals = [0] + [2 * (1 + i) for i in range(self.num_vars)]
        for a, b, c in self.gates:
            mapped = tuple(signals[s >> 1] ^ (s & 1) for s in (a, b, c))
            signals.append(mig.maj(*mapped))
        mig.add_po(signals[self.output >> 1] ^ (self.output & 1), "f")
        return mig

    @staticmethod
    def from_mig(
        rep: int,
        mig: Mig,
        proven: bool,
        generation_time: float = 0.0,
        conflicts: int = 0,
    ) -> "DbEntry":
        """Build an entry from a single-output MIG computing *rep*."""
        if mig.num_pos != 1:
            raise ValueError("database entries must have exactly one output")
        clean = mig.cleanup()
        gates = tuple(clean.fanins(node) for node in clean.gates())
        return DbEntry(
            rep=rep,
            num_vars=clean.num_pis,
            size=clean.num_gates,
            depth=clean.depth(),
            proven=proven,
            gates=gates,
            output=clean.outputs[0],
            generation_time=generation_time,
            conflicts=conflicts,
        )

    def pin_depths(self) -> list[int]:
        """Per-input longest path to the output (-1 when the input is unused).

        Used by depth-aware rewriting: the instantiated depth of the entry
        over leaves at levels ``lv`` is ``max_j(lv[j] + pin_depths[j])``.
        """
        n = self.num_vars
        # depth_to_out[node] over reversed edges; compute longest path from
        # each terminal up to the output node.
        num_nodes = 1 + n + len(self.gates)
        longest = [-1] * num_nodes
        out_node = self.output >> 1
        longest[out_node] = 0
        # Gates are topological; walk backwards.
        for g_idx in range(len(self.gates) - 1, -1, -1):
            node = 1 + n + g_idx
            if longest[node] < 0:
                continue
            for s in self.gates[g_idx]:
                child = s >> 1
                if longest[child] < longest[node] + 1:
                    longest[child] = longest[node] + 1
        return [longest[1 + i] for i in range(n)]


class NpnDatabase:
    """Loaded database with lookup, rebuild, and query helpers."""

    def __init__(self, entries: Iterable[DbEntry], num_vars: int = 4) -> None:
        self.num_vars = num_vars
        self.entries: dict[int, DbEntry] = {}
        for entry in entries:
            if entry.num_vars != num_vars:
                raise ValueError(
                    f"entry for 0x{entry.rep:x} has {entry.num_vars} vars, expected {num_vars}"
                )
            self.entries[entry.rep] = entry
        self._pin_depth_cache: dict[int, list[int]] = {}
        #: malformed JSONL lines skipped during the last load (see from_jsonl)
        self.skipped_lines: int = 0
        #: lifetime lookup() calls / calls that found no entry
        self.lookups: int = 0
        self.lookup_misses: int = 0

    # -- loading -----------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path | None = None, num_vars: int = 4) -> "NpnDatabase":
        """Load from *path*, or from the packaged default database."""
        if path is not None:
            with open(path, "r", encoding="utf-8") as fp:
                return cls.from_jsonl(fp, num_vars)
        ref = resources.files("repro.database").joinpath("data", DEFAULT_DB_RESOURCE)
        with ref.open("r", encoding="utf-8") as fp:
            return cls.from_jsonl(fp, num_vars)

    @classmethod
    def from_jsonl(cls, fp: IO[str], num_vars: int = 4) -> "NpnDatabase":
        """Parse a JSONL stream of entries.

        Malformed or truncated lines — the footprint of an interrupted
        append or a partial write — are skipped with a warning instead of
        aborting the load mid-file; the count is available afterwards as
        :attr:`skipped_lines`.  Entries for a representative seen twice
        keep the later (smaller-or-equal, in checkpointed runs) line.
        """
        entries = []
        skipped = 0
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(entry_from_json(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                skipped += 1
                warnings.warn(
                    f"npn database: skipping malformed line {lineno} "
                    f"({type(exc).__name__}: {exc})",
                    stacklevel=2,
                )
        db = cls(entries, num_vars)
        db.skipped_lines = skipped
        return db

    def save(self, path: str | Path) -> None:
        """Write all entries as JSONL, atomically (temp file + rename).

        A crash mid-save leaves the previous database intact rather than
        a truncated file.
        """
        from ..runtime.artifacts import atomic_write_text

        buf = io.StringIO()
        for rep in sorted(self.entries):
            buf.write(entry_to_json(self.entries[rep]) + "\n")
        atomic_write_text(path, buf.getvalue())

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def complete(self) -> bool:
        """True when every NPN class of ``num_vars`` inputs has an entry."""
        expected = {4: 222, 3: 14, 2: 4, 1: 2}.get(self.num_vars)
        return expected is not None and len(self.entries) >= expected

    def _resolve(self, rep: int) -> DbEntry | None:
        """Entry for NPN class *rep*, or None (subclasses may synthesize)."""
        return self.entries.get(rep)

    def lookup(self, tt: int) -> tuple[DbEntry, NPNTransform]:
        """Return ``(entry, transform)`` for an arbitrary function *tt*.

        The transform rebuilds *tt* from the entry's representative (see
        :func:`repro.core.npn.npn_canonize`).  Raises ``KeyError`` for a
        class without an entry.
        """
        return self.lookup_in(tt, {})

    def lookup_batch(
        self, tts
    ) -> dict[int, "tuple[DbEntry, NPNTransform] | None"]:
        """Precompute lookup results for many functions in one sweep.

        Canonizes every function through the vectorized
        :func:`repro.core.npn.npn_canonize_batch` and maps each to its
        database answer — ``(entry, transform)`` or ``None`` for a class
        without an entry.  For this class the returned table is
        **inert**: building it touches no counters and no fault hooks;
        those fire per consult in :meth:`lookup_in`.
        """
        tt_list = [int(t) for t in tts]
        table: dict[int, tuple[DbEntry, NPNTransform] | None] = {}
        resolve = self._resolve
        for tt, (rep, transform) in zip(
            tt_list, npn_canonize_batch(tt_list, self.num_vars)
        ):
            entry = resolve(rep)
            table[tt] = None if entry is None else (entry, transform)
        return table

    def lookup_in(
        self, tt: int, table: dict[int, "tuple[DbEntry, NPNTransform] | None"]
    ) -> tuple[DbEntry, NPNTransform]:
        """:meth:`lookup` answered from a :meth:`lookup_batch` table.

        Counts the consult in :attr:`lookups` (and :attr:`lookup_misses`
        with ``KeyError`` for a class without an entry) and applies the
        ``db.corrupt-entry`` fault hook, with the canonization already
        paid.  Functions outside the table (callers consulting beyond
        the precomputed cut set, and :meth:`lookup`) are canonized live
        and resolved like a batch entry.
        """
        self.lookups += 1
        try:
            found = table[tt]
        except KeyError:
            rep, transform = npn_canonize(tt, self.num_vars)
            entry = self._resolve(rep)
            found = None if entry is None else (entry, transform)
        if found is None:
            self.lookup_misses += 1
            raise KeyError(f"no database entry for the NPN class of 0x{tt:x}")
        entry, transform = found
        if fault_active("db.corrupt-entry"):
            # Fault hook: hand out a silently miscomputing entry — output
            # inverted, size understated so rewriters will prefer it —
            # to exercise downstream verification.
            entry = replace(entry, output=entry.output ^ 1, size=0)
        return entry, transform

    def size_of(self, tt: int) -> int:
        """Best-known MIG size for function *tt*."""
        return self.lookup(tt)[0].size

    def rebuild(self, mig: Mig, tt: int, leaf_signals: list[int]) -> int:
        """Instantiate the minimum MIG for *tt* over *leaf_signals* in *mig*.

        This is line 6 of Algorithm 1: each input of the stored
        representative MIG is replaced by the corresponding (possibly
        complemented) leaf signal according to the NPN transform, and the
        output polarity is applied.  Returns the signal computing *tt*.
        """
        entry, t = self.lookup(tt)
        return self.rebuild_entry(mig, entry, t, leaf_signals)

    def rebuild_entry(
        self, mig: Mig, entry: DbEntry, t, leaf_signals: list[int]
    ) -> int:
        """:meth:`rebuild` with the ``(entry, transform)`` already in hand.

        Rewriters that looked the function up once (for the gain check)
        thread the pair through instead of paying a second canonization.
        """
        if len(leaf_signals) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} leaves, got {len(leaf_signals)}")
        # Representative input j is driven by leaf perm[j], maybe inverted.
        input_signals = []
        for j in range(self.num_vars):
            s = leaf_signals[t.perm[j]]
            if (t.flips >> j) & 1:
                s = signal_not(s)
            input_signals.append(s)
        signals = [0] + input_signals
        for a, b, c in entry.gates:
            mapped = tuple(signals[s >> 1] ^ (s & 1) for s in (a, b, c))
            signals.append(mig.maj(*mapped))
        out = signals[entry.output >> 1] ^ (entry.output & 1)
        if t.output_flip:
            out = signal_not(out)
        return out

    def instantiated_depth(self, tt: int, leaf_levels: list[int]) -> int:
        """Depth of the rebuilt structure given the levels of the cut leaves."""
        entry, t = self.lookup(tt)
        return self.instantiated_depth_entry(entry, t, leaf_levels)

    def instantiated_depth_entry(
        self, entry: DbEntry, t, leaf_levels: list[int]
    ) -> int:
        """:meth:`instantiated_depth` with ``(entry, transform)`` in hand."""
        pins = self._pin_depth_cache.get(entry.rep)
        if pins is None:
            pins = entry.pin_depths()
            self._pin_depth_cache[entry.rep] = pins
        depth = 0
        for j in range(self.num_vars):
            if pins[j] < 0:
                continue
            depth = max(depth, leaf_levels[t.perm[j]] + pins[j])
        return depth

    def size_histogram(self) -> dict[int, int]:
        """Class counts per MIG size — the shape of Table I."""
        hist: dict[int, int] = {}
        for entry in self.entries.values():
            hist[entry.size] = hist.get(entry.size, 0) + 1
        return dict(sorted(hist.items()))

    def verify(self) -> None:
        """Check that every entry's MIG really computes its representative."""
        for rep, entry in self.entries.items():
            got = entry.to_mig().simulate()[0]
            if got != rep:
                raise AssertionError(
                    f"database entry 0x{rep:x} computes 0x{got:x} instead"
                )


def entry_to_json(entry: DbEntry) -> str:
    """Serialize an entry to one JSON line."""
    return json.dumps(
        {
            "rep": f"0x{entry.rep:04x}",
            "num_vars": entry.num_vars,
            "size": entry.size,
            "depth": entry.depth,
            "proven": entry.proven,
            "gates": [list(g) for g in entry.gates],
            "output": entry.output,
            "time": round(entry.generation_time, 3),
            "conflicts": entry.conflicts,
        }
    )


def entry_from_json(line: str) -> DbEntry:
    """Parse an entry from one JSON line."""
    data = json.loads(line)
    return DbEntry(
        rep=int(data["rep"], 16),
        num_vars=data["num_vars"],
        size=data["size"],
        depth=data["depth"],
        proven=data["proven"],
        gates=tuple(tuple(g) for g in data["gates"]),
        output=data["output"],
        generation_time=data.get("time", 0.0),
        conflicts=data.get("conflicts", 0),
    )
