"""Span tracing from outside the program: wraps each layer's public functions.

:class:`Tracer` replaces a function at every module that binds it (or a
method on its class) with a wrapper that records a :class:`~migbench.
stats.Span` — name, start, end, the span that caused it and the item it
belongs to — and bumps counters read from the call's arguments and
result.  Spans stay in memory until :meth:`Tracer.write_jsonl`; nothing
is patched until :meth:`install_layers` and everything is put back by
:meth:`restore`.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

from .stats import Span, self_times


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[tuple[int, str, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def call(self, name, fn, args=(), kwargs=None, item=None, before=None, after=None,
             item_of=None):
        """Run ``fn(*args, **kwargs)`` inside a span.

        *name* may be a function of the result; *item_of* maps
        ``(args, kwargs, result)`` to the span's item id when the caller
        cannot name it up front.
        """
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        if item is None and parent is not None:
            item = parent[2]
        state = before(args, kwargs) if before is not None else None
        stack.append((span_id, name if isinstance(name, str) else "?", item))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        label = name if isinstance(name, str) else name(result)
        if item_of is not None:
            item = item_of(args, kwargs, result)
        self.spans.append(
            Span(span_id, parent[0] if parent else None, label, start, end, item)
        )
        if after is not None:
            after(self, state, result, args, kwargs)
        return result

    def current(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    # -- patching -----------------------------------------------------------

    def wrap(self, owner, attr: str, name, before=None, after=None,
             skip_under: tuple[str, ...] = (), item_of=None) -> None:
        """Trace ``owner.attr`` wherever it is bound.

        For a class the method is replaced on that class; for a function
        every ``repro``/``migbench`` module that imported it by name is
        patched too.  Calls made while a span named in *skip_under* is
        open run unwrapped (the work belongs to that span's layer).  With
        *name* None the call is counted by *after* but records no span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if skip_under and tracer.current() in skip_under:
                return original(*args, **kwargs)
            if name is None:
                result = original(*args, **kwargs)
                after(tracer, None, result, args, kwargs)
                return result
            return tracer.call(name, original, args, kwargs, None, before, after, item_of)

        wrapper.__wrapped__ = original
        targets = [(owner, attr)]
        if not isinstance(owner, type):
            targets = [
                (module, key)
                for mod_name, module in list(sys.modules.items())
                if mod_name.split(".")[0] in ("repro", "migbench")
                for key, value in list(vars(module).items())
                if value is original
            ]
        for target, key in targets:
            self._undo.append((target, key, original))
            setattr(target, key, wrapper)

    def restore(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- reporting ----------------------------------------------------------

    def layer_self_seconds(self, exclude: tuple[str, ...] = ("item",)) -> dict[str, float]:
        """Self time summed per span name, spans named in *exclude* left out."""
        totals: dict[str, float] = defaultdict(float)
        selfs = self_times(self.spans)
        for span in self.spans:
            if span.name not in exclude:
                totals[span.name] += selfs[span.span_id]
        return dict(totals)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps({
                    "id": span.span_id, "parent": span.parent, "name": span.name,
                    "start": span.start, "end": span.end, "item": span.item,
                }) + "\n")


# ---------------------------------------------------------------------------
# the layer map: which public function is timed as which span
# ---------------------------------------------------------------------------


def _cut_count(tracer, state, cutset, args, kwargs):
    tracer.count("cuts.enumerated", sum(len(entries) for entries in cutset.entries))


def _npn_scalar(tracer, state, result, args, kwargs):
    tracer.count("npn.calls")


def _npn_batch(tracer, state, result, args, kwargs):
    tracer.count("npn.calls")
    tracer.count("npn.functions", len(result))


def _misses_before(args, kwargs):
    return getattr(args[0], "misses", 0)


def _db_table(tracer, misses_before, table, args, kwargs):
    db = args[0]
    synthesized = getattr(db, "misses", 0) - misses_before
    if hasattr(db, "misses"):
        found = len(table) - synthesized
    else:
        found = sum(1 for answer in table.values() if answer is not None)
    tracer.count("db.lookups", len(table))
    tracer.count("db.found", found)


def _store_put(tracer, state, accepted, args, kwargs):
    tracer.count("store.synth")
    if accepted:
        tracer.count("store.puts")


def _synthesized(tracer, state, result, args, kwargs):
    # PassMetrics.sat_conflicts misses the DynamicDatabase inline path, so
    # exact-synthesis conflicts are summed from the results themselves.
    tracer.count("exact.calls")
    tracer.count("exact.conflicts", result.conflicts)
    tracer.count("exact.proven", int(bool(result.proven)))


def _conflicts_before(args, kwargs):
    return args[0].conflicts


def _solved(tracer, before, result, args, kwargs):
    tracer.count("sat.solve_calls")
    tracer.count("sat.conflicts", args[0].conflicts - before)


def _cec(tracer, state, result, args, kwargs):
    tracer.count("cec.calls")


def _rewrote(tracer, state, result, args, kwargs):
    metrics = kwargs.get("metrics")
    if metrics is not None:
        tracer.count("rewrite.considered", metrics.cuts_considered)
        tracer.count("rewrite.admitted", metrics.cuts_admitted)


def _simulated(tracer, state, result, args, kwargs):
    net = args[0]
    width = args[2] if len(args) > 2 else kwargs["width"]
    tracer.count("sim.words", net.num_gates * ((width + 63) // 64))


def _flowed(tracer, state, result, args, kwargs):
    _, history = result
    tracer.count("flow.steps", len(history))
    tracer.count("flow.rolled_back", sum(1 for s in history if s.status == "rolled-back"))


def _verify_name(report) -> str:
    return f"verify.{report.method}"


def _job_of_specs(args, kwargs, result):
    specs = args[1] if len(args) > 1 else kwargs.get("specs")
    return specs[0].job_id if specs else None


def _job_admitted(args, kwargs, result):
    return result[1].get("job_id")


def _cache_key(args, kwargs, result):
    return args[1]


def install_layers(tracer: Tracer) -> None:
    """Wrap every traced layer's public entry points (see README.md)."""
    import repro.core.cuts as cuts
    import repro.core.kernel as kernel
    import repro.core.npn as npn
    import repro.core.simengine as simengine
    import repro.database.npn_db as npn_db
    import repro.database.store as store
    import repro.exact.heuristic as heuristic
    import repro.exact.synthesis as synthesis
    import repro.io.aiger as aiger
    import repro.io.bench as bench
    import repro.io.blif as blif
    import repro.opt.flow as flow
    import repro.rewriting.batch as batch
    import repro.rewriting.dynamic_db as dynamic_db
    import repro.rewriting.engine as engine
    import repro.runtime.cache as cache
    import repro.runtime.executors as executors
    import repro.runtime.serve as serve
    import repro.runtime.supervisor as supervisor
    import repro.runtime.verify as verify
    import repro.sat.cec as cec
    import repro.sat.solver as solver

    w = tracer.wrap
    w(cuts, "enumerate_cut_set", "cuts", after=_cut_count)
    w(batch, "prepare_lookup_table", "batch")
    w(npn, "npn_canonize", "npn", after=_npn_scalar)
    w(npn, "npn_canonize_batch", "npn", after=_npn_batch)
    w(npn_db.NpnDatabase, "lookup_batch", "db", before=_misses_before, after=_db_table)
    w(dynamic_db.DynamicDatabase, "lookup_batch", "db", before=_misses_before, after=_db_table)
    w(store.NpnStore, "get", "store.get")
    w(store.NpnStore, "put", "store.put", after=_store_put)
    w(synthesis.ExactSynthesizer, "synthesize", "exact", after=_synthesized)
    # BLIF covers are converted through heuristic_mig; that is parsing.
    w(heuristic, "heuristic_mig", "exact", skip_under=("io.parse",))
    w(cec, "check_equivalence_sat", "cec", after=_cec)
    w(solver.Solver, "solve", "sat", before=_conflicts_before, after=_solved)
    w(engine, "functional_hashing", "rewrite", after=_rewrote)
    w(verify, "verify_rewrite", _verify_name)
    # Counted only: simulation time stays in the verify (or caller) span.
    w(simengine, "simulate_network", None, after=_simulated)
    w(flow, "run_flow", "flow", after=_flowed)
    for module, name in ((blif, "read_blif"), (bench, "read_bench"), (aiger, "read_aag")):
        w(module, name, "io.parse")
    w(blif, "write_blif", "io.write")
    w(kernel.Network, "structural_hash", "kernel.hash")
    w(serve.OptimizationService, "submit", "serve.admit", item_of=_job_admitted)
    w(cache.ResultCache, "get", "cache.get")
    w(cache.ResultCache, "put", "cache.put", item_of=_cache_key)
    w(supervisor.Supervisor, "run", "supervisor", item_of=_job_of_specs)
    w(executors.LocalExecutor, "submit", "executor.spawn")
