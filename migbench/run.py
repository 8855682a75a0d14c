"""Benchmark command: one workload, one seed, one JSON result line.

    python3 migbench/run.py --workload flow-suite --seed 1 --seconds 20 --trace 0

Run from the repository root; the program under test is imported from
``src/``.  A run generates its seeded inputs, measures set-up, runs one
untimed warm-up pass whose every output goes through the independent
oracle (:mod:`migbench.oracle`), then repeats timed passes over the same
inputs, as many as fill ``--seconds`` at the workload's nominal pass
cost.  Every timed pass must reproduce the warm-up's sizes, depths and
output text exactly (the same-seed determinism check).  In-process item
times are reported at a nominal machine speed (:mod:`migbench.calibrate`).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with every layer wrapped
(:mod:`migbench.trace`), prints per-layer self times and counts, and
writes the spans as JSONL under ``.bench_spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from migbench import calibrate, inputs, oracle, stats, workloads  # noqa: E402
from migbench.trace import Tracer, install_layers  # noqa: E402

WORKLOADS = {
    "flow-suite": workloads.FlowSuite,
    "serve-cold": workloads.ServeCold,
    "cut5-cec": workloads.Cut5Cec,
}

#: (name, unit) of every end-to-end metric, reported with tracing off
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_kgates_per_s", "kgates/s"),
    ("requests_per_s", "1/s"),
    ("size_ratio", "ratio"),
    ("depth_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric of a traced run.  Times are
#: seconds per item (per cold request for the serve split), counts are
#: per pass over the seed's item set.
PER_LAYER = (
    ("cuts.self_s", "s/item"), ("cuts.enumerated", "count"),
    ("batch.self_s", "s/item"),
    ("npn.self_s", "s/item"), ("npn.calls", "count"), ("npn.cache_hit_ratio", "ratio"),
    ("db.self_s", "s/item"), ("db.hit_ratio", "ratio"),
    ("store.puts", "count"), ("store.put_s", "s/item"), ("store.synth", "count"),
    ("exact.self_s", "s/item"), ("exact.calls", "count"), ("exact.conflicts", "count"),
    ("exact.proven_ratio", "ratio"),
    ("cec.self_s", "s/item"), ("cec.calls", "count"),
    ("sat.self_s", "s/item"), ("sat.solve_calls", "count"), ("sat.conflicts", "count"),
    ("rewrite.self_s", "s/item"), ("rewrite.admitted_ratio", "ratio"),
    ("verify.self_s.exhaustive", "s/item"), ("verify.self_s.sampled", "s/item"),
    ("verify.self_s.cec", "s/item"), ("sim.words", "count"),
    ("flow.self_s", "s/item"), ("flow.rolled_back", "count"),
    ("io.parse_s", "s/item"), ("io.write_s", "s/item"),
    ("kernel.hash_s", "s/item"),
    ("serve.admit_s", "s/item"), ("serve.queue_wait_s", "s/item"),
    ("serve.run_s", "s/item"), ("serve.http_s", "s/item"),
    ("cache.get_s", "s/item"), ("cache.put_s", "s/item"),
    ("cache.repeat_miss_ratio", "ratio"),
    ("executor.spawn_s", "s/item"), ("supervisor.overhead_s", "s/item"),
    ("worker.run_s", "s/item"), ("worker.step_s", "s/item"),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"),
    ("fail_ratio", "ratio"), ("hit_latency_p50_ms", "ms"),
)

#: count metrics that must repeat exactly from one traced pass to the next
DETERMINISTIC_COUNTS = (
    "cuts.enumerated", "npn.calls", "npn.functions", "db.lookups", "db.found",
    "store.puts", "store.synth", "exact.calls", "exact.conflicts", "exact.proven",
    "cec.calls", "sat.solve_calls", "sat.conflicts", "rewrite.considered",
    "rewrite.admitted", "sim.words", "flow.steps", "flow.rolled_back",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


@dataclass
class Pass:
    """One pass over the items: outcomes, timed seconds (nominal and measured), counts."""

    outcomes: list
    seconds: float
    raw_seconds: float
    counts: dict = field(default_factory=dict)


def peak_rss_mb(children: bool) -> float:
    """Max RSS of this process (and, for serve-cold, of any waited-for child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 root: Path, work: Path) -> None:
        self.name = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.wl = WORKLOADS[workload](root, work)
        self.serve = workload == "serve-cold"
        self.order_rng = random.Random(f"order:{workload}:{seed}")
        self.attempted = 0
        self.failures: list[str] = []
        self.drift: list[str] = []
        self.setups: list[float] = []
        self.pass_no = 0
        self.lines: list[str] = []
        #: wall seconds of the untimed phases, for the report header
        self.phases: dict[str, float] = {}

    # -- passes -------------------------------------------------------------

    def _pass(self, tracer: Tracer | None) -> Pass:
        """One pass over every item, each timing bracketed by calibration samples."""
        pass_no = self.pass_no
        self.pass_no += 1
        if self.serve:
            # Requests overlap and are mostly worker start-up, which no
            # reference measured here tracks (see calibrate.py): as measured.
            outcomes, setup, wall = self.wl.run_pass(pass_no)
            self.setups.append(setup)
            result = Pass(outcomes, wall, wall)
        else:
            before = calibrate.sample()
            order = list(range(len(self.items)))
            self.order_rng.shuffle(order)
            outcomes = []
            for index in order:
                start = time.perf_counter()
                try:
                    if tracer is None:
                        outcome = self.wl.run_item(index, pass_no)
                    else:
                        outcome = tracer.call(
                            "item", self.wl.run_item, (index, pass_no),
                            item=f"p{pass_no}:{self.items[index].spec.label}",
                        )
                except Exception as exc:  # noqa: BLE001 - an item failure, reported
                    outcome = workloads.Outcome(
                        self.items[index].spec.label, time.perf_counter() - start,
                        self.items[index].gates, index,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                after = calibrate.sample()
                outcome.scale = calibrate.scale(before, after)
                before = after
                outcomes.append(outcome)
            result = Pass(outcomes, sum(o.nominal_seconds for o in outcomes),
                          sum(o.seconds for o in outcomes))
        self.attempted += len(outcomes)
        return result

    def _fail(self, outcome: workloads.Outcome, reason: str) -> None:
        self.failures.append(f"{outcome.label}: {reason}")

    def warm_up(self) -> None:
        """Untimed pass 0: fills caches, checks every output with the oracle."""
        outcomes = self._pass(None).outcomes
        self.reference: dict[int, workloads.Outcome] = {}
        for outcome in outcomes:
            item = self.items[outcome.index]
            if outcome.error is None:
                reason = oracle.check(item.text, item.spec.fmt, outcome.text, "blif", self.seed)
                if reason is not None:
                    outcome.error = f"oracle: {reason}"
            if outcome.error is not None:
                self._fail(outcome, outcome.error)
            elif not outcome.repeat:
                self.reference[outcome.index] = outcome

    def _check(self, outcomes: list[workloads.Outcome]) -> None:
        for outcome in outcomes:
            if outcome.error is not None:
                self._fail(outcome, outcome.error)
                continue
            ref = self.reference.get(outcome.index)
            if ref is None or ref.fingerprint != outcome.fingerprint:
                outcome.error = "output differs from the warm-up pass"
                self.drift.append(f"{outcome.label}: size/depth/output drifted")
                self._fail(outcome, outcome.error)

    def timed(self, budget: float, tracer: Tracer | None = None, min_passes: int = 1):
        """Timed passes filling about *budget* seconds at the nominal pass cost.

        The pass count depends on ``--seconds`` only, never on how fast
        this commit runs, so every commit reads the tail at the same
        percentile of the same number of samples.
        """
        count = max(min_passes, round(budget / self.wl.nominal_pass_s))
        passes: list[Pass] = []
        while len(passes) < count or sum(len(p.outcomes) for p in passes) <= stats.TAIL_BEYOND:
            if tracer is not None:
                tracer.counts.clear()
            result = self._pass(tracer)
            self._check(result.outcomes)
            if self.serve:
                result.counts = self._worker_counts(result.outcomes)
            elif tracer is not None:
                result.counts = dict(tracer.counts)
            passes.append(result)
        return passes

    # -- metrics ------------------------------------------------------------

    @staticmethod
    def _timings(setups, outcomes, latency, good, seconds) -> dict[str, float]:
        """The timing metrics, reading each outcome's time with *latency*.

        The median is over items, each item read at its median over the
        timed passes: item sizes cluster by generator kind, and a pooled
        median would jump between the two kinds it falls between.  The
        tail is read from the pooled samples, which it needs.
        """
        per_item: dict[tuple, list[float]] = {}
        for o in outcomes:
            per_item.setdefault((o.index, o.repeat), []).append(latency(o))
        kgates = sum(o.gates for o in good) / 1000.0
        return {
            "setup_s": stats.median(setups),
            "latency_p50_s": stats.median([stats.median(v) for v in per_item.values()]),
            "latency_tail_s": stats.tail([latency(o) for o in outcomes]).value,
            "throughput_kgates_per_s": kgates / seconds,
            "requests_per_s": len(good) / seconds,
        }

    def end_to_end(self, passes: list[Pass]) -> dict[str, float]:
        """Times and rates at nominal speed (calibrate.py); ``self.raw`` as measured."""
        outcomes = [o for p in passes for o in p.outcomes]
        good = [o for o in outcomes if o.error is None]
        self.tail = stats.tail([o.nominal_seconds for o in outcomes])
        self.scales = [o.scale for o in outcomes]
        self.raw = self._timings(self.setups, outcomes, lambda o: o.seconds, good,
                                 sum(p.raw_seconds for p in passes))
        refs = list(self.reference.values())
        return {
            **self._timings(self.setups, outcomes, lambda o: o.nominal_seconds, good,
                            sum(p.seconds for p in passes)),
            "size_ratio": stats.geomean([max(o.size_after, 1) / max(o.size_before, 1) for o in refs]),
            "depth_ratio": stats.geomean([max(o.depth_after, 1) / max(o.depth_before, 1) for o in refs]),
            "peak_rss_mb": peak_rss_mb(children=self.serve),
        }

    def serve_extras(self, passes) -> dict[str, float]:
        repeats = [o for p in passes for o in p.outcomes if o.repeat]
        hits = [o.nominal_seconds * 1000.0 for o in repeats if o.hit]
        return {
            "hit_latency_p50_ms": stats.median(hits) if hits else 0.0,
            "cache.repeat_miss_ratio": _ratio(len(repeats) - len(hits), len(repeats)),
            "repeats": len(repeats),
        }

    @staticmethod
    def _worker_counts(outcomes) -> dict[str, float]:
        """Per-pass counts of serve-cold, read from the cold jobs' worker metrics."""
        counts: dict[str, float] = {}
        keys = (("cuts.enumerated", "cuts_enumerated"), ("rewrite.considered", "cuts_considered"),
                ("rewrite.admitted", "cuts_admitted"), ("db.found", "db_hits"),
                ("db.missed", "db_misses"), ("sim.words", "sim_words"))
        for outcome in outcomes:
            if outcome.repeat or outcome.error is not None:
                continue
            metrics = outcome.result.get("metrics") or {}
            for ours, theirs in keys:
                counts[ours] = counts.get(ours, 0) + int(metrics.get(theirs, 0) or 0)
        return counts

    def per_layer(self, tracer: Tracer, traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
        outcomes = [o for p in traced for o in p.outcomes]
        counts = traced[0].counts
        selfs = tracer.layer_self_seconds()
        m = {name: 0.0 for name, _ in PER_LAYER}
        n = len(outcomes)

        def per_item(*names: str) -> float:
            return sum(selfs.get(name, 0.0) for name in names) / n

        m["io.parse_s"] = per_item("io.parse")
        m["io.write_s"] = per_item("io.write")
        m["kernel.hash_s"] = per_item("kernel.hash")
        m["cuts.enumerated"] = counts.get("cuts.enumerated", 0)
        m["sim.words"] = counts.get("sim.words", 0)
        m["rewrite.admitted_ratio"] = _ratio(counts.get("rewrite.admitted", 0),
                                             counts.get("rewrite.considered", 0))
        m["trace.overhead"] = (_mean(p.seconds for p in traced)
                               / _mean(p.seconds for p in untraced) - 1.0)
        if self.serve:
            self._serve_layers(m, tracer, outcomes, selfs, counts)
        else:
            m["cuts.self_s"] = per_item("cuts")
            m["batch.self_s"] = per_item("batch")
            m["npn.self_s"] = per_item("npn")
            m["npn.calls"] = counts.get("npn.calls", 0)
            m["db.self_s"] = per_item("db", "store.get", "store.put")
            m["db.hit_ratio"] = _ratio(counts.get("db.found", 0), counts.get("db.lookups", 0))
            m["store.puts"] = counts.get("store.puts", 0)
            m["store.put_s"] = per_item("store.put")
            m["store.synth"] = counts.get("store.synth", 0)
            m["exact.self_s"] = per_item("exact")
            m["exact.calls"] = counts.get("exact.calls", 0)
            m["exact.conflicts"] = counts.get("exact.conflicts", 0)
            m["exact.proven_ratio"] = _ratio(counts.get("exact.proven", 0), counts.get("exact.calls", 0))
            m["cec.self_s"] = per_item("cec")
            m["cec.calls"] = counts.get("cec.calls", 0)
            m["sat.self_s"] = per_item("sat")
            m["sat.solve_calls"] = counts.get("sat.solve_calls", 0)
            m["sat.conflicts"] = counts.get("sat.conflicts", 0)
            m["rewrite.self_s"] = per_item("rewrite")
            for method in ("exhaustive", "sampled", "cec"):
                m[f"verify.self_s.{method}"] = per_item(f"verify.{method}")
            m["flow.self_s"] = per_item("flow")
            m["flow.rolled_back"] = counts.get("flow.rolled_back", 0)
            m["trace.coverage"] = sum(selfs.values()) / sum(o.seconds for o in outcomes)
            m["npn.cache_hit_ratio"] = self.npn_hit_ratio
        return m

    def _serve_layers(self, m, tracer, outcomes, selfs, counts) -> None:
        cold = [o for o in outcomes if not o.repeat and o.error is None and o.timing]
        by_item: dict[tuple[str, str], float] = {}
        for span in tracer.spans:
            if span.item is not None:
                key = (span.name, span.item)
                by_item[key] = by_item.get(key, 0.0) + span.duration
        requests = len(outcomes)
        k = len(cold)
        m["serve.admit_s"] = selfs.get("serve.admit", 0.0) / requests
        m["cache.get_s"] = selfs.get("cache.get", 0.0) / requests
        m["cache.put_s"] = selfs.get("cache.put", 0.0) / k
        m["executor.spawn_s"] = selfs.get("executor.spawn", 0.0) / k
        m["serve.queue_wait_s"] = _mean(o.timing["queue_wait"] for o in cold)
        m["serve.run_s"] = _mean(o.timing["run"] for o in cold)
        m["serve.http_s"] = _mean(o.seconds - o.timing["service"] for o in cold)
        runtime = {o.job_id: float(o.result.get("runtime", 0.0)) for o in cold}
        steps = {o.job_id: sum(float(s.get("runtime", 0.0)) for s in o.result.get("steps", []))
                 for o in cold}
        supervised = {o.job_id: by_item.get(("supervisor", o.job_id), 0.0) for o in cold}
        m["supervisor.overhead_s"] = _mean(supervised[j] - runtime[j] for j in runtime)
        m["worker.run_s"] = _mean(runtime.values())
        m["worker.step_s"] = _mean(steps.values())
        phases = [(o.result.get("metrics") or {}).get("phase_seconds") or {} for o in cold]
        m["cuts.self_s"] = _mean(p.get("enumerate", 0.0) for p in phases)
        m["batch.self_s"] = _mean(p.get("batch", 0.0) for p in phases)
        m["rewrite.self_s"] = _mean(p.get("rewrite", 0.0) + p.get("cleanup", 0.0) for p in phases)
        m["db.hit_ratio"] = _ratio(counts.get("db.found", 0),
                                   counts.get("db.found", 0) + counts.get("db.missed", 0))
        npn = [(o.result.get("metrics") or {}) for o in cold]
        m["npn.cache_hit_ratio"] = _ratio(
            sum(x.get("npn_cache_hits", 0) for x in npn),
            sum(x.get("npn_cache_hits", 0) + x.get("npn_cache_misses", 0) for x in npn),
        )
        # The split of one cold request, each part a mean over cold requests.
        keys = {o.job_id: o.result.get("cache_key") for o in cold}
        admission = [by_item.get(("serve.admit", o.job_id), 0.0) for o in cold]
        self.cold_split = {
            "admission": _mean(admission),
            "queue wait": m["serve.queue_wait_s"],
            "spawn+import+supervisor": m["supervisor.overhead_s"],
            "worker flow steps": m["worker.step_s"],
            "worker parse/load/write": m["worker.run_s"] - m["worker.step_s"],
            "finalize+http+poll": m["serve.http_s"] + m["serve.run_s"] - _mean(supervised.values()),
            "cache write (after reply)": _mean(by_item.get(("cache.put", keys[o.job_id]), 0.0)
                                               for o in cold),
            "client latency": _mean(o.seconds for o in cold),
        }
        covered = sum(admission) + sum(o.timing["queue_wait"] for o in cold) + sum(supervised.values())
        m["trace.coverage"] = covered / sum(o.seconds for o in cold)

    # -- the whole run ------------------------------------------------------

    def run(self) -> dict:
        clock = time.perf_counter()
        specs = inputs.draw(self.name, self.seed)
        self.items = [inputs.build(spec) for spec in specs]
        self.setups.extend(self.wl.setup())
        self.wl.prepare(self.items, self.seed)
        self.phases["inputs+setup"] = time.perf_counter() - clock
        try:
            clock = time.perf_counter()
            self.warm_up()
            self.phases["warm-up+oracle"] = time.perf_counter() - clock
            budget = self.seconds / 2.0 if self.trace else self.seconds
            untraced = self.timed(budget)
            metrics = self.end_to_end(untraced)
            extras = self.serve_extras(untraced) if self.serve else {}
            layers = None
            if self.trace:
                layers = self.traced(untraced, budget)
                layers["fail_ratio"] = _ratio(len(self.failures), self.attempted)
                layers["hit_latency_p50_ms"] = extras.get("hit_latency_p50_ms", 0.0)
                layers["cache.repeat_miss_ratio"] = extras.get("cache.repeat_miss_ratio", 0.0)
        finally:
            self.wl.close()
        self.report(untraced, metrics, extras, layers)
        chosen = PER_LAYER if self.trace else END_TO_END
        values = layers if self.trace else metrics
        correct = not self.failures and not self.drift
        return {
            "correct": correct,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in chosen},
        }

    def traced(self, untraced, budget: float) -> dict[str, float]:
        from repro.core.npn import canonize_cache_info

        tracer = Tracer()
        install_layers(tracer)
        before = canonize_cache_info()
        try:
            traced = self.timed(budget, tracer, min_passes=2)
        finally:
            tracer.restore()
        after = canonize_cache_info()
        self.npn_hit_ratio = _ratio(after.hits - before.hits,
                                    after.hits + after.misses - before.hits - before.misses)
        first = traced[0].counts
        for later in traced[1:]:
            for key in DETERMINISTIC_COUNTS:
                if later.counts.get(key, 0) != first.get(key, 0):
                    self.drift.append(
                        f"count {key}: {first.get(key, 0)} then {later.counts.get(key, 0)}")
        spans_dir = self.root / ".bench_spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(spans_dir / f"{self.name}-seed{self.seed}.jsonl")
        self.traced_passes = len(traced)
        return self.per_layer(tracer, traced, untraced)

    # -- human-readable report ------------------------------------------------

    def report(self, untraced, metrics, extras, layers) -> None:
        out = self.lines
        n_items = len(self.items)
        out.append(f"# {self.name} seed={self.seed} items={n_items} "
                   f"gates={sum(i.gates for i in self.items)} "
                   f"timed passes={len(untraced)} python={sys.version.split()[0]} "
                   f"nproc={os.cpu_count()} "
                   + " ".join(f"{k}={v:.1f}s" for k, v in self.phases.items()))
        if not self.serve:
            q1, q2, q3 = stats.quantiles(self.scales)
            out.append(f"# item times and rates at nominal speed (calibrate.py): measured x "
                       f"scale, scale median {q2:.4f} [q1 {q1:.4f}, q3 {q3:.4f}]")
        for name, unit in END_TO_END:
            note = ""
            if name in self.raw and name != "setup_s" and not self.serve:
                note = f"  (measured {self.raw[name]:.6g})"
            if name == "latency_tail_s":
                note += f"  (p{self.tail.percentile:.1f} of n={self.tail.samples})"
            out.append(f"{name:26} {metrics[name]:12.6g} {unit}{note}")
        out.append(f"{'fail_ratio':26} {_ratio(len(self.failures), self.attempted):12.6g} ratio"
                   f"  ({len(self.failures)}/{self.attempted} items)")
        if self.serve:
            out.append(f"{'hit_latency_p50_ms':26} {extras['hit_latency_p50_ms']:12.6g} ms")
            out.append(f"{'cache.repeat_miss_ratio':26} {extras['cache.repeat_miss_ratio']:12.6g} ratio"
                       f"  (of {extras['repeats']} repeats)")
        if layers is not None:
            out.append(f"# per-layer ({self.traced_passes} traced passes; spans in .bench_spans/)")
            units = dict(PER_LAYER)
            for name, _ in PER_LAYER:
                out.append(f"{name:26} {layers[name]:12.6g} {units[name]}")
            if self.serve:
                out.append("# cold request split (mean seconds per cold request)")
                for part, seconds in self.cold_split.items():
                    out.append(f"{part:26} {seconds:12.6g} s")
        for failure in self.failures[:20]:
            out.append(f"FAIL {failure}")
        for drift in self.drift[:20]:
            out.append(f"DRIFT {drift}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("migbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), root, work)
        result = bench.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in bench.lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
