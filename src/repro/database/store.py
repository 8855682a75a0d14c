"""Persistent NPN-5/6 rewrite store: the disk tier behind ``DynamicDatabase``.

The paper's Sec. IV observes that enumerating all 616 126 NPN-5 classes
is impractical and that the cut functions actually occurring in real
netlists form a much smaller subset.  :class:`NpnStore` turns that
subset into a durable asset: the first process ever to synthesize a
best-known MIG for a cut function appends it here, and every later
lookup — in any process, including warm ``migopt serve`` restarts — is
an in-memory dict probe plus a deserialized entry.  Background
``migopt db improve`` jobs tighten unproven entries through the
supervised batch runtime, so the store (and result quality for every
future user) improves with traffic.

Crash-safety model — the PR 1/PR 3 artifact discipline applied to a
growing database:

* **append-only record log** — one JSON line per accepted entry,
  flushed and fsynced before :meth:`put` returns, so an acknowledged
  entry survives ``kill -9`` at any instant;
* **torn-tail-tolerant replay** — a crash mid-append leaves at most one
  torn final line; :meth:`open` replays the prefix of complete records,
  truncates the torn tail in place, and counts it in
  :attr:`torn_records` (never a lost *acknowledged* entry: fsync
  happened strictly before acknowledgement);
* **quarantine-on-corruption** — a log whose header is unreadable,
  whose arity disagrees, or that is corrupt *before* the final line is
  moved aside as ``<name>.corrupt[.N]`` (:func:`repro.runtime.artifacts.
  quarantine`) and the store restarts empty instead of serving bytes it
  cannot trust;
* **atomic compaction** — :meth:`compact` rewrites the log as one
  record per class (temp file + fsync + ``os.replace``), so a crash
  mid-compaction leaves the previous log intact;
* **monotone upgrades** — :meth:`put` accepts a new witness only if it
  is strictly smaller than the incumbent, or proves the incumbent's
  size optimal; the best-known MIG for a class never regresses.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..runtime.artifacts import quarantine
from .npn_db import DbEntry, entry_from_json, entry_to_json

__all__ = ["NpnStore", "StoreCorrupt", "improve_store"]

#: first line of every store log; replay refuses anything else
_MAGIC = "npn-store-v1"


class StoreCorrupt(RuntimeError):
    """Internal signal: the log cannot be trusted past the header."""


def _header_line(num_vars: int) -> str:
    return json.dumps({"format": _MAGIC, "num_vars": num_vars}, sort_keys=True)


def _accepts(old: DbEntry | None, new: DbEntry) -> bool:
    """The monotone upgrade rule shared by :meth:`NpnStore.put` and replay.

    A new witness replaces the incumbent only if it is strictly smaller,
    or newly proven at the same size.  Everything else — larger, equal
    and no new proof — is rejected, so the best-known entry for a class
    can only improve.
    """
    if old is None:
        return True
    if new.size < old.size:
        return True
    return new.size == old.size and new.proven and not old.proven


class NpnStore:
    """Crash-safe, append-only store of best-known MIGs per NPN class.

    >>> store = NpnStore.open("flows.npn5", num_vars=5)
    >>> store.put(entry)          # fsynced before returning True
    >>> store.get(rep)            # in-memory dict probe
    >>> store.compact()           # atomic rewrite, one line per class

    The in-memory index (``rep -> DbEntry``) is rebuilt on open by
    replaying the log, so lookups never touch the disk again until the
    next :meth:`put`.
    """

    def __init__(
        self, path: str | Path, num_vars: int, entries: dict[int, DbEntry],
        torn_records: int = 0, recovered: bool = False,
    ) -> None:
        self.path = Path(path)
        self.num_vars = num_vars
        #: the live index: class representative -> best-known entry
        self.index = entries
        #: records dropped as a torn tail during the last replay
        self.torn_records = torn_records
        #: True when open() quarantined a corrupt log and restarted empty
        self.recovered = recovered
        #: lifetime counters (surfaced through PassMetrics / serve /stats)
        self.appends = 0
        self.rejected = 0
        self._fp = None

    # -- opening and replay ------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, num_vars: int = 5) -> "NpnStore":
        """Open (or create) the store at *path*, replaying its log.

        Replay tolerates exactly one torn final line (the footprint of a
        crash mid-append): the tail is truncated away and counted.  Any
        deeper corruption — bad header, arity mismatch, malformed line
        before the end — quarantines the whole file and starts fresh;
        serving a guess from an untrusted log is worse than re-paying
        synthesis.
        """
        path = Path(path)
        if num_vars < 4 or num_vars > 6:
            raise ValueError("NpnStore supports 4 to 6 variables")
        entries: dict[int, DbEntry] = {}
        torn = 0
        recovered = False
        if path.exists():
            try:
                entries, torn = cls._replay(path, num_vars)
            except StoreCorrupt:
                quarantine(path)
                entries, torn = {}, 0
                recovered = True
        store = cls(path, num_vars, entries, torn, recovered)
        store._ensure_log()
        return store

    @classmethod
    def _replay(cls, path: Path, num_vars: int) -> tuple[dict[int, DbEntry], int]:
        with open(path, "rb") as fp:
            raw = fp.read()
        entries: dict[int, DbEntry] = {}
        if not raw:
            return entries, 0
        lines = raw.split(b"\n")
        # A complete log ends with a newline, so the final split element
        # is empty; anything else is the torn tail of an interrupted
        # append.  Only the *last* line may be torn — earlier damage
        # means the log was edited or the filesystem lied, and the whole
        # file is quarantined.
        tail = lines.pop()
        torn = 0
        if tail:
            torn = 1
        if not lines:
            raise StoreCorrupt("no header line")
        try:
            header = json.loads(lines[0].decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorrupt(f"unreadable header: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != _MAGIC:
            raise StoreCorrupt(f"bad magic in header: {header!r}")
        if int(header.get("num_vars", -1)) != num_vars:
            raise StoreCorrupt(
                f"store holds {header.get('num_vars')}-var entries, "
                f"expected {num_vars}"
            )
        good_bytes = len(lines[0]) + 1
        for line in lines[1:]:
            text = line.strip()
            if text:
                try:
                    entry = entry_from_json(text.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                        TypeError, ValueError) as exc:
                    raise StoreCorrupt(f"malformed record: {exc}") from exc
                if entry.num_vars != num_vars:
                    raise StoreCorrupt(
                        f"entry for 0x{entry.rep:x} has {entry.num_vars} vars"
                    )
                # Replay applies the same monotone rule as put(), so a
                # log holding several generations of one class (appends
                # since the last compaction) converges to the best.
                if _accepts(entries.get(entry.rep), entry):
                    entries[entry.rep] = entry
            good_bytes += len(line) + 1
        if torn:
            # Drop the torn tail in place so the next append starts at a
            # record boundary instead of gluing bytes onto half a line.
            with open(path, "r+b") as fp:
                fp.truncate(good_bytes)
                fp.flush()
                os.fsync(fp.fileno())
        return entries, torn

    def _ensure_log(self) -> None:
        """Open the append handle, writing the header for a new log."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._fp = open(self.path, "ab")
        if fresh:
            self._fp.write((_header_line(self.num_vars) + "\n").encode("utf-8"))
            self._fp.flush()
            os.fsync(self._fp.fileno())

    # -- queries and updates -----------------------------------------------

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, rep: int) -> bool:
        return rep in self.index

    def get(self, rep: int) -> DbEntry | None:
        """Best-known entry for class representative *rep*, or None."""
        return self.index.get(rep)

    def put(self, entry: DbEntry) -> bool:
        """Record *entry* if it improves on the incumbent; fsync before True.

        The monotone rule (:func:`_accepts`): accepted only when strictly
        smaller, or newly proven at the incumbent's size.  Returns False
        — and touches neither memory nor disk — otherwise.
        """
        if entry.num_vars != self.num_vars:
            raise ValueError(
                f"entry for 0x{entry.rep:x} has {entry.num_vars} vars, "
                f"store holds {self.num_vars}"
            )
        if not _accepts(self.index.get(entry.rep), entry):
            self.rejected += 1
            return False
        if self._fp is None:
            self._ensure_log()
        self._fp.write((entry_to_json(entry) + "\n").encode("utf-8"))
        self._fp.flush()
        os.fsync(self._fp.fileno())
        self.index[entry.rep] = entry
        self.appends += 1
        return True

    def unproven(self) -> list[DbEntry]:
        """Entries not yet proven minimal — the ``db improve`` work list."""
        return [e for e in self.index.values() if not e.proven]

    def stats(self) -> dict:
        """Counters snapshot (shape shared with serve ``/stats``)."""
        proven = sum(1 for e in self.index.values() if e.proven)
        return {
            "path": str(self.path),
            "num_vars": self.num_vars,
            "entries": len(self.index),
            "proven": proven,
            "appends": self.appends,
            "rejected": self.rejected,
            "torn_records": self.torn_records,
            "recovered": self.recovered,
        }

    # -- maintenance -------------------------------------------------------

    def compact(self) -> int:
        """Atomically rewrite the log as one record per class.

        Returns the number of surviving records.  Uses the temp-file +
        fsync + ``os.replace`` discipline of :mod:`repro.runtime.
        artifacts`, so a crash at any instant leaves either the old or
        the new log — never a torn one.  The append handle is reopened
        on the new file.
        """
        from ..runtime.artifacts import atomic_write_text

        lines = [_header_line(self.num_vars)]
        for rep in sorted(self.index):
            lines.append(entry_to_json(self.index[rep]))
        if self._fp is not None:
            self._fp.close()
            self._fp = None
        atomic_write_text(self.path, "\n".join(lines) + "\n")
        self._ensure_log()
        return len(self.index)

    def close(self) -> None:
        """Close the append handle (the index stays usable read-only)."""
        if self._fp is not None:
            self._fp.close()
            self._fp = None

    def __enter__(self) -> "NpnStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- background improvement through the batch runtime -----------------------


def improve_store(
    store: NpnStore,
    budget: int = 30000,
    jobs: int = 0,
    limit: int | None = None,
    time_limit: float | None = None,
    workdir: str | Path | None = None,
    verbose: bool = False,
) -> dict:
    """Budget-bounded exact tightening of unproven store entries.

    The store twin of the NPN-4 SAT phase (``migopt db generate``): the
    unproven entries, largest first, run through the same driver,
    :func:`repro.database.generate.improve_entries` — in-process with
    ``jobs=0`` (no subprocess tax for small backlogs), else as supervised
    ``db-improve`` jobs in *workdir* (default: a fresh temp dir).  The
    improved witnesses are folded back through :meth:`NpnStore.put`,
    whose monotone rule guarantees the pass only ever shrinks or proves
    entries; either path produces identical store content.

    Returns a summary dict (classes attempted / improved / proven,
    conflicts spent).
    """
    from .generate import improve_entries

    work = sorted(store.unproven(), key=lambda e: (-e.size, e.rep))[:limit]
    summary = {
        "attempted": len(work), "improved": 0, "proven": 0,
        "conflicts": 0, "rejected": 0,
    }
    if not work:
        return summary
    for old, new_entry, conflicts in improve_entries(
        work, store.num_vars, budget, time_limit, jobs, workdir
    ):
        if new_entry is None:
            continue
        summary["conflicts"] += conflicts
        if not _accepts(old, new_entry):
            summary["rejected"] += 1
        elif store.put(new_entry):
            if new_entry.size < old.size:
                summary["improved"] += 1
            if new_entry.proven and not old.proven:
                summary["proven"] += 1
        if verbose:
            print(f"improve 0x{old.rep:x}: size {old.size} -> {new_entry.size} "
                  f"proven={new_entry.proven} ({conflicts} conflicts)")
    store.compact()
    return summary
