"""Crash-safe, content-addressed result cache for the serving tier.

The paper's premise — functional hashing makes logically-identical
subproblems canonical and therefore cacheable — extended to whole
requests: a request is keyed by the canonical structural hash of its
network (:meth:`repro.core.kernel.Network.structural_hash`) combined
with every optimization-relevant job parameter (:func:`request_key`),
so the millions-of-users duplicate-submission case is a disk lookup, not
a re-optimization.

Every byte on disk follows the PR 1 artifact rules:

* **writes are atomic** — an entry is a single JSON file written through
  :func:`repro.runtime.artifacts.atomic_write_text`, so a ``kill -9``
  mid-write leaves either the previous entry or none, never a torn one;
* **loads are validated** — an entry must parse, be a dict, carry its
  own key and a result payload; anything else is *quarantined*
  (``<name>.corrupt`` next to the original) and reported as a miss, so
  a corrupt entry costs one re-optimization, never a wrong answer;
* **no in-memory state is authoritative** — the cache is rebuilt from a
  directory scan on open, so the daemon restarts warm after any crash.

Recency for the LRU bound rides on file mtimes: a hit touches the entry,
eviction removes oldest-first until ``max_bytes`` is respected.  That
keeps recency crash-safe for free (the filesystem persists it) at the
cost of coarse granularity, which is fine for an eviction heuristic.

Fault point ``cache.corrupt`` (see :mod:`repro.runtime.faults`): an
armed :meth:`ResultCache.put` writes deliberately truncated garbage in
place of the entry, modeling bad bytes reaching disk (torn block, bit
rot) so chaos drills can watch the quarantine path fire end-to-end.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path

from .artifacts import atomic_write_text, quarantine
from .faults import fault_active
from .jobs import JobSpec

__all__ = ["ResultCache", "request_key"]

#: entry schema version; bumping it invalidates (quarantines) old entries
_ENTRY_VERSION = 1


def request_key(structural_hash: str, spec: JobSpec) -> str:
    """Content-addressed cache key for one optimization request.

    Combines the canonical structural hash of the network with every
    spec field that can change the result: the flow script, mode,
    variant and pass bound, the verification policy, the time/conflict/
    cut budgets, and the database selection (including the cut size and
    backing NPN store when they deviate from the NPN-4 default).  Fields
    that only say
    *where* things run or land (job id, paths, memory rlimit) are
    excluded, so resubmissions key identically regardless of naming.

    Budgets are part of the key on purpose: a result produced under a
    2-second deadline may be a partially-optimized network, and serving
    it to a request that paid for 60 seconds would be wrong.
    """
    fields = {
        "network": structural_hash,
        "script": list(spec.script),
        "mode": spec.mode,
        "variant": spec.variant,
        "max_passes": spec.max_passes,
        "verify": spec.verify,
        "time_limit": spec.time_limit,
        "conflict_limit": spec.conflict_limit,
        "cut_limit": spec.cut_limit,
        "db": spec.db,
    }
    # Large-cut fields join the key only when they deviate from the
    # default tier, so every pre-existing cache entry keeps its key.
    if spec.cut_size is not None and spec.cut_size != 4:
        fields["cut_size"] = spec.cut_size
        # The store's content shapes results (a warm store holds tighter
        # witnesses), so a different store is a different request.
        fields["npn_store"] = spec.npn_store
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Disk-backed result store addressed by :func:`request_key` keys.

    Thread-safe: the serving daemon hits it from every request-handler
    thread and every job-runner thread concurrently.  All sizes are
    tracked from the directory scan at open plus the deltas of this
    process's own puts/evictions, so accounting survives restarts.
    """

    def __init__(self, root: str | Path, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None for unbounded)")
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._sizes: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.corrupt = 0
        self._scan()

    # -- startup ----------------------------------------------------------

    def _scan(self) -> None:
        """Rebuild size accounting from disk (restart-warm, crash-safe).

        Only well-formed *names* are indexed; contents are validated
        lazily on :meth:`get` so a large cache opens in O(entries) stats
        instead of O(bytes) reads.  Leftover ``*.tmp`` files from a
        crashed atomic write are deleted — they were never the entry.
        """
        for path in self.objects_dir.iterdir():
            name = path.name
            if name.endswith(".tmp"):
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            if not name.endswith(".json"):
                continue
            key = name[: -len(".json")]
            if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
                continue
            try:
                self._sizes[key] = path.stat().st_size
            except OSError:
                continue

    # -- paths ------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.json"

    # -- read -------------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """Return the cached result for *key*, or ``None`` on a miss.

        A hit touches the entry's mtime (LRU recency).  A present but
        invalid entry is quarantined and counted as both ``corrupt`` and
        a miss — the caller re-optimizes and overwrites it.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fp:
                entry = json.load(fp)
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except (ValueError, OSError):
            entry = None
        if (
            not isinstance(entry, dict)
            or entry.get("key") != key
            or entry.get("version") != _ENTRY_VERSION
            or not isinstance(entry.get("result"), dict)
        ):
            # A read that failed because the entry vanished mid-load —
            # a concurrent eviction or a sibling worker's quarantine, not
            # on-disk rot — is a plain miss; quarantining it would
            # fabricate a ``.corrupt`` tombstone for a healthy cache and
            # inflate the corruption counter on every race.
            corrupt = entry is not None or path.exists()
            if corrupt:
                quarantine(path)
            with self._lock:
                self.corrupt += int(corrupt)
                self.misses += 1
                self._sizes.pop(key, None)
            return None
        try:
            now = time.time()
            os.utime(path, (now, now))
        except OSError:
            pass
        with self._lock:
            self.hits += 1
        return entry["result"]

    # -- write ------------------------------------------------------------

    def put(self, key: str, result: dict) -> None:
        """Store *result* under *key* atomically; evict if over budget."""
        entry = {
            "version": _ENTRY_VERSION,
            "key": key,
            "stored_at": time.time(),
            "result": result,
        }
        text = json.dumps(entry, sort_keys=True) + "\n"
        if fault_active("cache.corrupt"):
            # Model bad bytes reaching disk: the write itself still goes
            # through the atomic path (that part of the discipline is not
            # what this fault drills), but the payload is garbage.
            text = text[: max(1, len(text) // 2)].rstrip("}\n") + '"'
        path = self._path(key)
        atomic_write_text(path, text)
        with self._lock:
            self._sizes[key] = len(text.encode("utf-8"))
            self.puts += 1
            self._evict_locked(keep=key)

    # -- eviction ---------------------------------------------------------

    def _evict_locked(self, keep: str | None = None) -> None:
        """Evict least-recently-used entries until under ``max_bytes``.

        The entry just written (*keep*) is never evicted by its own put,
        even when it alone exceeds the budget — a cache that silently
        drops what it was just asked to remember is worse than one
        briefly over budget.
        """
        if self.max_bytes is None:
            return
        total = sum(self._sizes.values())
        if total <= self.max_bytes:
            return
        candidates = []
        for key in self._sizes:
            if key == keep:
                continue
            try:
                mtime = self._path(key).stat().st_mtime
            except OSError:
                mtime = 0.0
            candidates.append((mtime, key))
        candidates.sort()
        for _, key in candidates:
            if total <= self.max_bytes:
                break
            size = self._sizes.pop(key, 0)
            try:
                os.unlink(self._path(key))
            except OSError:
                pass
            total -= size
            self.evictions += 1
            self.evicted_bytes += size

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict:
        """Counter snapshot for the serve ``/stats`` endpoint."""
        with self._lock:
            return {
                "entries": len(self._sizes),
                "bytes": sum(self._sizes.values()),
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes,
                "corrupt": self.corrupt,
            }
