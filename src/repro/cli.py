"""Command-line interface: generate / read, optimize, map, and report.

Modeled on the CirKit-style flows the paper's implementation shipped in::

    migopt stats --generate adder --width 16
    migopt optimize --generate multiplier --width 8 --variant BF --verify
    migopt optimize --blif circuit.blif --variant TFD -o out.blif
    migopt map --generate sine --width 10 --variant BF
    migopt exact --tt 0x1668
    migopt flow --generate log2 --width 10 --script depth,BF,TFD,BF
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .core.mig import Mig
from .database import NpnDatabase
from .exact.synthesis import synthesize_exact
from .generators import CONTROL_SPECS, GENERATORS
from .generators.epfl import SUITE_SPECS
from .io.bench import write_bench
from .io.blif import write_blif
from .io.verilog import write_verilog
from .mapping.mapper import map_mig
from .opt.depth_opt import optimize_depth
from .rewriting.dynamic_db import open_database
from .rewriting.engine import VARIANTS, functional_hashing
from .runtime.executors import handle_signals
from .runtime.jobs import load_network
from .runtime.verify import VERIFY_MODES, verify_rewrite

__all__ = ["build_parser", "main"]


def _network_from_args(args: argparse.Namespace) -> Mig:
    """The circuit that ``--generate``/``--blif``/``--bench`` name."""
    for kind in ("generate", "blif", "bench"):
        source = getattr(args, kind)
        if source is not None:
            break
    else:
        raise SystemExit(
            "specify a circuit with --generate NAME, --blif FILE, or --bench FILE"
        )
    if kind != "generate":
        return load_network({kind: source})
    try:
        return load_network({"generate": source, "width": args.width})
    except ValueError as exc:
        raise SystemExit(str(exc))


def _write_network(mig: Mig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        if path.endswith(".v"):
            write_verilog(mig, fp)
        elif path.endswith(".bench"):
            write_bench(mig, fp)
        else:
            write_blif(mig, fp)


def _dump_metrics(path: str, payload: dict) -> None:
    import json

    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text + "\n")
        print(f"metrics written to {path}")


def _finish_optimization(
    args: argparse.Namespace, store, before: Mig, after: Mig, mode: str,
    metrics: dict | None,
) -> int:
    """Shared tail of ``optimize`` and ``flow``: close the NPN store,
    dump ``--metrics``, check equivalence under the *mode* policy of
    :func:`verify_rewrite`, write ``-o``."""
    if store is not None:
        print(f"npn-store: {len(store)} classes in {store.path}")
        store.close()
    if metrics is not None:
        _dump_metrics(args.metrics, metrics)
    if args.verify != "off":
        ok = not verify_rewrite(before, after, mode).refuted
        print(f"equivalence: {'OK' if ok else 'FAILED'}")
        if not ok:
            return 1
    if args.output:
        _write_network(after, args.output)
        print(f"written to {args.output}")
    return 0


def _npn_store(args: argparse.Namespace) -> str | None:
    """``--npn-store``, which only the large-cut tiers take."""
    if args.npn_store and args.cut_size in (None, 4):
        raise SystemExit("--npn-store needs --cut-size 5 or 6")
    return args.npn_store


def _resolve_db(args: argparse.Namespace):
    """NPN database (+ optional persistent store) for a CLI command.

    Returns ``(db, store)`` — the store is non-None only for the
    large-cut tiers, and the caller closes it when done.
    """
    db = open_database(args.cut_size, args.db, _npn_store(args))
    return db, getattr(db, "store", None)


# ----------------------------------------------------------------------
# shared flags
# ----------------------------------------------------------------------

#: Flags that several subcommands take, each declared once.  A command
#: takes the ones it needs as a parent parser built by :func:`_flags`.
_SHARED_FLAGS: dict[str, dict] = {
    "--generate": dict(help=f"built-in generator: {sorted(GENERATORS)}"),
    "--width": dict(type=int, help="generator bit-width override"),
    "--blif": dict(help="read the circuit from a BLIF file"),
    "--bench": dict(help="read the circuit from an ISCAS .bench file"),
    "--db": dict(help="path to an alternative NPN database"),
    "--script": dict(
        default="BF",
        help="comma-separated flow steps (variants, depth, depth-fast, "
        "strash, fraig, remap); batch applies them to every job "
        "(default: %(default)s)",
    ),
    "--verify": dict(
        nargs="?", const="sim", default="off", choices=VERIFY_MODES,
        help="equivalence checking: 'sim' simulates (exhaustively up to 14 "
        "inputs, else 16 random rounds; a bare --verify means sim), 'cec' "
        "adds a budgeted SAT miter for wide networks. optimize checks its "
        "result; flow, batch and serve check every step, flow also its "
        "final result by simulation (default: %(default)s)",
    ),
    "--time-limit": dict(
        type=float, metavar="SECONDS",
        help="wall-clock budget. flow: shared by all steps, expired steps "
        "are recorded as 'timeout' and the partial result is returned; "
        "batch and serve: per job, the supervisor hard-kills (SIGTERM, "
        "then SIGKILL after --grace) workers that overrun it; serve uses "
        "it for requests without a 'deadline' of their own; db improve: "
        "the whole pass in-process, each class with --jobs N",
    ),
    "--conflict-limit": dict(
        type=int, metavar="N",
        help="SAT conflict budget shared by all steps of a job",
    ),
    "--mem-limit": dict(
        type=int, metavar="MB", help="per-worker address-space rlimit in MiB",
    ),
    "--cut-size": dict(
        type=int, choices=[4, 5, 6],
        help="cut width for functional-hashing steps (default: 4, the "
        "precomputed NPN database); 5 or 6 synthesizes entries on demand "
        "into a DynamicDatabase. serve: for requests without a 'cut_size' "
        "of their own",
    ),
    "--npn-store": dict(
        metavar="PATH",
        help="persistent NPN-5/6 store backing --cut-size 5/6: created on "
        "first use, crash-safe, shared across runs and workers so later "
        "lookups skip synthesis (serve never takes it from requests)",
    ),
    "--metrics": dict(
        metavar="PATH",
        help="dump metrics as JSON to PATH ('-' for stdout): pass counters, "
        "cache rates and phase times (optimize), the same per step plus "
        "merged totals (flow), per-size outcomes and solver counters with "
        "the sat_* schema of benchmarks/bench_exact.py (exact)",
    ),
    "--budget": dict(
        type=int, default=30000,
        help="conflict budget per SAT call (default: %(default)s)",
    ),
    "--jobs": dict(
        type=int, default=1, metavar="N",
        help="parallel supervised worker subprocesses, one job each; for "
        "db generate/improve 0 runs in-process and serially (the content "
        "is identical either way, and a killed parallel run resumes from "
        "its job journal) (default: %(default)s)",
    ),
    "--quiet": dict(action="store_true", help="print no progress"),
    "--workdir": dict(
        required=True, metavar="DIR", type=os.path.abspath,
        help="state directory: journal, specs, results, outputs and report "
        "(a sweep adds sweep.json; serve adds its result cache)",
    ),
    "--resume": dict(
        action="store_true",
        help="continue an interrupted run from its journal: finished jobs "
        "are kept, orphaned running jobs are re-queued (a sweep takes its "
        "spec from sweep.json unless --spec is given)",
    ),
    "--grace": dict(
        type=float, default=2.0, metavar="SECONDS",
        help="worker SIGTERM-to-SIGKILL escalation window (default: %(default)s)",
    ),
    "--max-attempts": dict(
        type=int, default=3, metavar="N",
        help="attempts per job before it is quarantined (serve: failed); "
        "retries degrade parameters (verify cec->sim, halved conflict/cut "
        "limits) (default: %(default)s)",
    ),
    "--backoff": dict(
        type=float, default=0.5, metavar="SECONDS",
        help="base retry backoff, doubling per attempt (default: %(default)s)",
    ),
    "--report": dict(
        metavar="PATH",
        help="also dump the report JSON to PATH ('-' for stdout)",
    ),
}

#: how the single-network commands name their input circuit
_INPUT = ("--generate", "--width", "--blif", "--bench")


def _flags(*names: str, **defaults) -> argparse.ArgumentParser:
    """A parent parser declaring the shared flags *names*.

    Keyword arguments override a flag's default for one command, keyed
    by destination (``max_attempts=2``).  Each call builds fresh
    actions, so one command's default never leaks into another's.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        options = dict(_SHARED_FLAGS[name])
        dest = name[2:].replace("-", "_")
        if dest in defaults:
            options["default"] = defaults[dest]
        parent.add_argument(name, **options)
    return parent


# ----------------------------------------------------------------------
# runtime commands
# ----------------------------------------------------------------------


def _batch_specs(args: argparse.Namespace) -> list:
    """Build the job list for ``migopt batch`` (deterministic job ids)."""
    from pathlib import Path

    from .runtime.jobs import JobSpec

    script = tuple(step for step in args.script.split(",") if step)
    networks: list[tuple[str, dict]] = []
    if args.generate:
        if args.generate == "suite":
            names = sorted(SUITE_SPECS)
        elif args.generate == "control":
            names = sorted(CONTROL_SPECS)
        elif args.generate == "all":
            names = sorted(GENERATORS)
        else:
            names = [n for n in args.generate.split(",") if n]
        for name in names:
            if name not in GENERATORS:
                raise SystemExit(
                    f"unknown generator {name!r}; choose from {sorted(GENERATORS)}"
                )
            network = {"generate": name}
            if args.width is not None:
                network["width"] = args.width
            slug = name if args.width is None else f"{name}-w{args.width}"
            networks.append((slug, network))
    for kind in ("blif", "bench"):
        for path in getattr(args, kind):
            networks.append((Path(path).stem, {kind: str(Path(path).resolve())}))
    if not networks and not args.resume:
        raise SystemExit(
            "specify circuits with --generate NAMES, --blif FILE, or "
            "--bench FILE (or --resume an existing batch)"
        )

    npn_store = _npn_store(args)
    if npn_store is not None:
        # Workers run in their own processes; hand them one absolute
        # path so every job appends to the same store.
        npn_store = str(Path(npn_store).resolve())

    outputs_dir = Path(args.workdir) / "outputs"
    specs = []
    seen: dict[str, int] = {}
    for slug, network in networks:
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        job_id = slug if count == 0 else f"{slug}.{count}"
        specs.append(
            JobSpec(
                job_id=job_id,
                network=network,
                script=script,
                verify=args.verify,
                time_limit=args.time_limit,
                conflict_limit=args.conflict_limit,
                cut_size=args.cut_size,
                npn_store=npn_store,
                mem_limit_mb=args.mem_limit,
                output=None if args.no_outputs else str(outputs_dir / f"{job_id}.blif"),
            )
        )
    return specs


def _drain_on_signal(command: str, drain):
    """The Ctrl-C policy of ``migopt batch`` and ``sweep``: the first
    SIGINT/SIGTERM prints a message and calls *drain*, which stops the
    children and journals unfinished jobs resumable for ``--resume``;
    the second raises ``KeyboardInterrupt``."""
    import signal

    caught = []

    def handler(signum, frame):  # noqa: ARG001 - signal API
        if caught:
            raise KeyboardInterrupt
        caught.append(signum)
        print(f"\n{command}: caught {signal.Signals(signum).name}, draining "
              "(signal again to abort hard)...", flush=True)
        drain()

    return handler


def _run_supervised(args: argparse.Namespace, run) -> int:
    """The body of ``migopt batch`` and ``sweep``: a Supervisor from the
    shared flags, ``run(supervisor)`` (which returns the BatchReport)
    under the drain-on-signal policy, the summary, and the exit code."""
    from .runtime import faults
    from .runtime.supervisor import Supervisor

    # The supervisor may itself have been launched with REPRO_FAULTS set
    # (the chaos smoke test does exactly that): arm them so spawn-time
    # probes and the worker handshake see them.
    faults.arm_from_env()

    supervisor = Supervisor(
        args.workdir,
        num_workers=args.jobs,
        grace=args.grace,
        max_attempts=args.max_attempts,
        backoff_base=args.backoff,
        verbose=True,
    )
    handler = _drain_on_signal(args.command, supervisor.request_shutdown)
    try:
        with handle_signals(handler):
            report = run(supervisor)
    except (FileExistsError, FileNotFoundError) as exc:
        raise SystemExit(str(exc))
    print(
        f"{args.command}: {report.done}/{report.total} done, "
        f"{report.quarantined} quarantined, {report.retries} retries, "
        f"{report.adopted} adopted, {report.workers_used} workers used, "
        f"{report.wall_seconds:.2f}s"
        + (" [interrupted]" if report.interrupted else "")
    )
    for summary in report.jobs:
        line = f"  {summary['job_id']:24} {summary['state']}"
        if "size_before" in summary:
            line += f"  {summary['size_before']} -> {summary.get('size_after')}"
        if summary.get("degradations"):
            line += f"  [degraded: {', '.join(summary['degradations'])}]"
        if summary["state"] == "quarantined":
            line += f"  ({summary.get('error', 'unknown error')})"
        print(line)
    print(f"journal: {supervisor.journal_path}")
    return _finish_run(args, report)


def _run_batch_command(args: argparse.Namespace) -> int:
    specs = _batch_specs(args)
    return _run_supervised(
        args, lambda supervisor: supervisor.run(specs, resume=args.resume)
    )


def _run_sweep_command(args: argparse.Namespace) -> int:
    import json

    from .runtime.sweep import SweepConflictError, SweepSpec, expand_sweep, run_sweep

    spec = None
    if args.spec:
        if args.spec == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.spec, "r", encoding="utf-8") as fp:
                data = json.load(fp)
        try:
            spec = SweepSpec.from_dict(data)
            expand_sweep(spec)
        except (ValueError, SweepConflictError) as exc:
            raise SystemExit(f"bad sweep spec: {exc}")
    elif not args.resume:
        raise SystemExit("specify a sweep with --spec FILE (or --resume an "
                         "existing sweep workdir)")

    def run(supervisor):
        swept = run_sweep(supervisor, spec, resume=args.resume,
                          matrix_path=args.matrix)
        if swept.matrix_path is not None:
            print(f"matrix: {swept.published_rows} trend rows -> "
                  f"{swept.matrix_path}")
        return swept.report

    return _run_supervised(args, run)


def _finish_run(args: argparse.Namespace, report) -> int:
    """``--report`` dump and exit code of ``migopt batch`` / ``sweep``:
    0 all done, 1 something quarantined or unfinished, 130 interrupted."""
    if args.report:
        _dump_metrics(args.report, report.to_dict())
    if report.interrupted:
        print(f"interrupted: resume with "
              f"migopt {args.command} --workdir {args.workdir} --resume")
        return 130
    return 0 if report.quarantined == 0 and report.done == report.total else 1


def _run_serve_command(args: argparse.Namespace) -> int:
    from .runtime.serve import run_server

    return run_server(
        args.workdir,
        host=args.host,
        port=args.port,
        num_workers=args.jobs,
        queue_limit=args.queue_limit,
        cache_max_bytes=args.cache_max_bytes,
        max_attempts=args.max_attempts,
        grace=args.grace,
        default_time_limit=args.time_limit,
        default_verify=args.verify,
        mem_limit_mb=args.mem_limit,
        default_cut_size=args.cut_size,
        npn_store=args.npn_store,
        drain_grace=args.drain_grace,
        verbose=args.verbose,
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``migopt`` argument parser with every subcommand."""
    parser = argparse.ArgumentParser(prog="migopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "stats", parents=[_flags(*_INPUT)], help="print size/depth of a circuit"
    )

    p_opt = sub.add_parser(
        "optimize", help="functional hashing size optimization",
        parents=[_flags(*_INPUT, "--verify", "--db", "--cut-size",
                        "--npn-store", "--metrics")],
    )
    p_opt.add_argument("--variant", default="BF", choices=VARIANTS)
    p_opt.add_argument("--depth-opt", action="store_true",
                       help="run algebraic depth optimization first (paper baseline)")
    p_opt.add_argument("-o", "--output", help="write the result (BLIF/.v/.bench)")

    p_map = sub.add_parser(
        "map", help="optimize then technology-map",
        parents=[_flags(*_INPUT, "--db")],
    )
    p_map.add_argument("--variant", default=None, choices=VARIANTS,
                       help="functional hashing variant (default: map unoptimized)")

    p_flow = sub.add_parser(
        "flow", help="run a scripted optimization flow",
        parents=[_flags(*_INPUT, "--script", "--verify", "--time-limit",
                        "--conflict-limit", "--db",
                        "--cut-size", "--npn-store", "--metrics",
                        script="depth,BF,TFD")],
    )
    p_flow.add_argument(
        "--on-error", default="raise", choices=["raise", "rollback"],
        help="what to do when a step fails or miscompiles: propagate "
        "('raise'), or keep the pre-step network and continue "
        "('rollback')",
    )
    p_flow.add_argument("-o", "--output", help="write the result (BLIF/.v/.bench)")

    p_batch = sub.add_parser(
        "batch",
        help="supervised parallel batch optimization (process isolation, "
        "watchdog, crash-recoverable journal)",
        parents=[_flags("--width", "--script", "--jobs", "--time-limit",
                        "--conflict-limit", "--mem-limit", "--verify",
                        "--cut-size", "--npn-store", "--workdir", "--resume",
                        "--grace", "--max-attempts", "--backoff", "--report",
                        verify="sim")],
    )
    p_batch.add_argument(
        "--generate", metavar="NAMES",
        help="comma-separated generator names, 'suite' (8 arithmetic), "
        f"'control' (6 random/control), or 'all': {sorted(GENERATORS)}",
    )
    p_batch.add_argument(
        "--blif", action="append", default=[], metavar="FILE",
        help="add a BLIF circuit as a job (repeatable)",
    )
    p_batch.add_argument(
        "--bench", action="append", default=[], metavar="FILE",
        help="add an ISCAS .bench circuit as a job (repeatable)",
    )
    p_batch.add_argument(
        "--no-outputs", action="store_true",
        help="skip writing optimized networks to workdir/outputs/",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="a declarative scenario matrix (instances x scripts x cut "
        "sizes x budgets) run as one supervised batch; "
        "resumes exactly-once",
        parents=[_flags("--jobs", "--workdir", "--resume", "--grace",
                        "--max-attempts", "--backoff", "--report", jobs=2)],
    )
    p_sweep.add_argument(
        "--spec", metavar="FILE",
        help="sweep spec JSON ('-' for stdin): {name, instances, scripts, "
        "cut_sizes, conflict_limits, verify, time_limit}; "
        "instances may override any axis locally",
    )
    p_sweep.add_argument(
        "--matrix", metavar="PATH",
        help="append per-scenario trend rows to this JSONL file on a "
        "clean finish (e.g. benchmarks/results/MATRIX.jsonl)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="optimization-as-a-service HTTP daemon with a crash-safe, "
        "content-addressed result cache (POST /jobs, GET /jobs/<id>)",
        parents=[_flags("--workdir", "--jobs", "--time-limit", "--verify",
                        "--mem-limit", "--cut-size", "--npn-store",
                        "--max-attempts", "--grace",
                        jobs=2, verify="sim", max_attempts=2)],
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8731,
                         help="bind port; 0 picks a free one (default: 8731)")
    p_serve.add_argument(
        "--queue-limit", type=int, default=16, metavar="N",
        help="queued-job bound; requests beyond it get HTTP 429 (default: 16)",
    )
    p_serve.add_argument(
        "--cache-max-bytes", type=int, default=None, metavar="BYTES",
        help="result-cache size bound; least-recently-used entries are "
        "evicted past it (default: unbounded)",
    )
    p_serve.add_argument(
        "--drain-grace", type=float, default=30.0, metavar="SECONDS",
        help="on SIGTERM, how long running jobs may finish before being "
        "journaled resumable (default: 30)",
    )
    p_serve.add_argument("--verbose", action="store_true",
                         help="log requests and recovery decisions")

    p_exact = sub.add_parser(
        "exact", help="exact synthesis of a truth table",
        parents=[_flags("--budget", "--metrics", budget=200000)],
    )
    p_exact.add_argument("--tt", required=True, help="truth table, e.g. 0x1668")
    p_exact.add_argument("--vars", type=int, default=4)

    p_db = sub.add_parser("db", help="NPN database maintenance")
    db_sub = p_db.add_subparsers(dest="db_command", required=True)
    p_db_gen = db_sub.add_parser(
        "generate",
        help="generate/improve the NPN-4 database (tree phase + SAT phase; "
        "also run as python -m repro.database.generate)",
        parents=[_flags("--budget", "--jobs", "--quiet", jobs=0)],
    )
    p_db_gen.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), "database", "data",
                             "npn4.jsonl"),
        help="output JSONL path, resumed when it exists (default: the "
        "packaged database)",
    )
    p_db_gen.add_argument(
        "--sat-seconds", type=float, default=0.0,
        help="time for the SAT improvement phase (0 = trees only)",
    )
    p_db_gen.add_argument("--fresh", action="store_true",
                          help="regenerate from scratch")
    p_db_gen.add_argument("--largest-first", action="store_true",
                          help="process the biggest entries first")
    p_db_imp = db_sub.add_parser(
        "improve",
        help="tighten unproven entries of a persistent NPN-5/6 store with "
        "budgeted exact synthesis (serial, or across supervised workers)",
        parents=[_flags("--budget", "--jobs", "--time-limit", "--quiet",
                        jobs=0)],
    )
    p_db_imp.add_argument("--store", required=True, metavar="PATH",
                          help="the NpnStore log to improve in place")
    p_db_imp.add_argument("--vars", type=int, default=5, choices=[4, 5, 6],
                          help="store arity (default: 5)")
    p_db_imp.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="improve at most N classes (largest first)",
    )
    p_db_imp.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="batch state directory for --jobs > 0 (default: a fresh "
        "temp dir; reuse one to resume an interrupted pass)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "stats":
        mig = _network_from_args(args)
        print(f"{mig.name}: {mig.num_pis} PIs, {mig.num_pos} POs, "
              f"size {mig.num_gates}, depth {mig.depth()}")
        return 0

    if args.command == "optimize":
        mig = _network_from_args(args)
        db, store = _resolve_db(args)
        baseline = optimize_depth(mig) if args.depth_opt else mig
        start = time.perf_counter()
        optimized, stats = functional_hashing(
            baseline, db, args.variant,
            cut_size=args.cut_size if args.cut_size is not None else 4,
            return_stats=True,
        )
        runtime = time.perf_counter() - start
        print(f"{mig.name}: {baseline.num_gates}/{baseline.depth()} -> "
              f"{optimized.num_gates}/{optimized.depth()} "
              f"({args.variant}, {runtime:.2f}s)")
        return _finish_optimization(
            args, store, baseline, optimized, args.verify,
            stats.metrics.to_dict() if args.metrics else None,
        )

    if args.command == "map":
        mig = _network_from_args(args)
        db = NpnDatabase.load(args.db)
        if args.variant is not None:
            mig = functional_hashing(mig, db, args.variant)
        result = map_mig(mig)
        print(f"{mig.name}: mapped {result}")
        return 0

    if args.command == "flow":
        from .opt.flow import run_flow
        from .runtime.budget import Budget

        mig = _network_from_args(args)
        db, store = _resolve_db(args)
        script = [step for step in args.script.split(",") if step]
        budget = None
        if args.time_limit is not None or args.conflict_limit is not None:
            budget = Budget.from_limits(
                time_limit=args.time_limit, conflict_limit=args.conflict_limit
            )
        print(f"{mig.name}: {mig.num_gates}/{mig.depth()}  script: {script}")
        result, history = run_flow(
            mig, db, script, verbose=True,
            budget=budget, verify=args.verify, on_error=args.on_error,
            cut_size=args.cut_size,
        )
        print(f"final: {result.num_gates}/{result.depth()} "
              f"({sum(step.runtime for step in history):.2f}s total)")
        bad = [s for s in history if s.status != "ok"]
        if bad:
            summary = ", ".join(f"{s.step}={s.status}" for s in bad)
            print(f"degraded steps: {summary}")
        payload = None
        if args.metrics:
            from .runtime.metrics import PassMetrics

            totals = PassMetrics()
            steps_payload = []
            for stats in history:
                entry = {"step": stats.step, "status": stats.status,
                         "runtime": round(stats.runtime, 6)}
                if stats.metrics is not None:
                    entry["metrics"] = stats.metrics.to_dict()
                    totals.merge(stats.metrics)
                steps_payload.append(entry)
            payload = {"steps": steps_payload, "totals": totals.to_dict()}
        # Whatever the per-step policy, the final check simulates.
        return _finish_optimization(args, store, mig, result, "sim", payload)

    if args.command == "batch":
        return _run_batch_command(args)
    if args.command == "sweep":
        return _run_sweep_command(args)

    if args.command == "serve":
        return _run_serve_command(args)

    if args.command == "exact":
        spec = int(args.tt, 16)
        result = synthesize_exact(spec, args.vars, conflict_budget=args.budget)
        if args.metrics:
            _dump_metrics(args.metrics, {
                "spec": f"0x{spec:x}",
                "num_vars": args.vars,
                "size": result.size,
                "proven": result.proven,
                "runtime": round(result.runtime, 6),
                "k_outcomes": {str(k): v for k, v in result.k_outcomes.items()},
                "sat_conflicts": result.conflicts,
                "sat_propagations": result.propagations,
                "sat_decisions": result.decisions,
                "sat_restarts": result.restarts,
                "sat_learned": result.learned,
            })
        if result.mig is None:
            print(f"no MIG found within budget (outcomes: {result.k_outcomes})")
            return 1
        print(f"0x{spec:x}: size {result.size} "
              f"({'proven minimal' if result.proven else 'upper bound'}), "
              f"{result.runtime:.2f}s, {result.conflicts} conflicts")
        print(result.mig.to_expression(result.mig.outputs[0]))
        return 0

    if args.command == "db":
        if args.db_command == "generate":
            from .database.generate import generate_database

            generate_database(
                args.out, budget=args.budget, sat_seconds=args.sat_seconds,
                fresh=args.fresh, largest_first=args.largest_first,
                jobs=args.jobs, verbose=not args.quiet,
            )
            return 0
        if args.db_command == "improve":
            from .database.store import NpnStore, improve_store

            with NpnStore.open(args.store, num_vars=args.vars) as store:
                before = store.stats()
                summary = improve_store(
                    store,
                    budget=args.budget,
                    jobs=args.jobs,
                    limit=args.limit,
                    time_limit=args.time_limit,
                    workdir=args.workdir,
                    verbose=not args.quiet,
                )
            after = store.stats()
            print(
                f"store {args.store}: {after['entries']} classes "
                f"({after['proven']} proven, was {before['proven']}); "
                f"{summary['attempted']} attempted, "
                f"{summary['improved']} improved, "
                f"{summary['proven']} newly proven, "
                f"{summary['conflicts']} conflicts"
            )
            return 0
        raise AssertionError("unreachable")

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
