"""Scripted optimization flows with verification, rollback, and budgets.

The paper's closing remark: *"In all experiments, we have performed the
functional hashing algorithm only once.  Running it several times or
combining it with other optimization or reshaping algorithms will likely
lead to further improvements."*  This module provides exactly that
machinery — ABC-script-style pass sequencing over MIGs:

>>> from repro.opt.flow import run_flow
>>> best, history = run_flow(mig, db, ["depth", "BF", "TFD", "BF"])

Recognized steps: any functional-hashing variant acronym (``T``, ``TD``,
``TF``, ``TFD``, ``B``, ``BD``, ``BF``, ``BFD``), ``depth`` (algebraic
depth optimization), ``depth-fast`` (associativity only, size-neutral),
``strash`` (dead-gate removal: facade-built networks hold no
structural duplicates to fold), ``fraig`` (SAT sweeping, for
networks the solver can handle), and ``remap`` (map onto the cell
library and resynthesize from the cover — the mapped-then-reoptimized
round trip; see :mod:`repro.opt.remap`).

On top of the sequencing the flow is a *fault-tolerant runtime*
(docs/ROBUSTNESS.md): every step can run under a shared
:class:`~repro.runtime.budget.Budget`, its result can be functionally
verified against the pre-step network (``verify="sim"`` or ``"cec"``),
and failures are handled by a configurable ``on_error`` policy —
``"raise"`` propagates, ``"rollback"`` keeps the pre-step network and
continues.  Each step records its outcome in
:attr:`FlowStepStats.status`: ``ok``, ``rolled-back``, ``timeout``,
``failed``, or ``skipped``.

:func:`optimize_until_convergence` repeats one variant to a fixpoint —
the ablation benchmark ``bench_ablation_iterate.py`` quantifies the
paper's remark with it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

from ..core.mig import Mig, signal_not
from ..database.npn_db import NpnDatabase
from ..rewriting.engine import VARIANTS, functional_hashing
from ..runtime.budget import Budget
from ..runtime.errors import BudgetExhausted, VerificationFailed
from ..runtime.faults import fault_active
from ..runtime.metrics import PassMetrics
from ..runtime.verify import verify_rewrite
from .depth_opt import optimize_depth
from .size_opt import strash_rebuild

__all__ = [
    "FlowStepStats",
    "check_steps",
    "needs_database",
    "run_flow",
    "optimize_until_convergence",
]

_ON_ERROR_POLICIES = ("raise", "rollback")

#: the flow steps besides the functional-hashing variants (``VARIANTS``,
#: matched case-insensitively); ``remap`` reads the NPN database too
_OTHER_STEPS = ("depth", "depth-fast", "strash", "fraig", "remap")


@dataclass(frozen=True)
class FlowStepStats:
    """Bookkeeping for one executed flow step."""

    step: str
    size_before: int
    depth_before: int
    size_after: int
    depth_after: int
    runtime: float
    #: "ok", "rolled-back", "timeout", "failed", or "skipped"
    status: str = "ok"
    #: how the step was verified: "off", "exhaustive", "sampled", "cec"
    verified: str = "off"
    #: diagnostic for non-ok statuses (exception text, counterexample)
    error: str | None = None
    #: hot-path counters, populated for functional-hashing steps
    metrics: PassMetrics | None = None


def _apply_step(
    mig: Mig,
    db: NpnDatabase | None,
    step: str,
    budget: Budget | None,
    cut_limit: int | None = None,
    cut_size: int | None = None,
) -> tuple[Mig, PassMetrics | None]:
    name = step.strip()
    upper = name.upper()
    if upper in VARIANTS:
        metrics = PassMetrics(variant=upper)
        kwargs = {}
        if cut_limit is not None:
            kwargs["cut_limit"] = cut_limit
        if cut_size is not None:
            kwargs["cut_size"] = cut_size
        return functional_hashing(mig, db, upper, metrics=metrics, **kwargs), metrics
    if name == "depth":
        return optimize_depth(mig), None
    if name == "depth-fast":
        return optimize_depth(mig, allow_size_increase=False), None
    if name == "strash":
        return strash_rebuild(mig), None
    if name == "fraig":
        from .fraig import fraig

        return fraig(mig, budget=budget), None
    # remap: the one step left that check_steps admits
    from .remap import remap_resynth

    return remap_resynth(mig, db), None


def needs_database(script: Iterable[str]) -> bool:
    """Whether any step of *script* reads the NPN database."""
    return any(
        step.strip().upper() in VARIANTS or step.strip() == "remap"
        for step in script
    )


def check_steps(script: Iterable[str]) -> None:
    """Raise ``ValueError`` for a step that no flow runs.

    Script typos are caller bugs, not runtime faults: :func:`run_flow`
    raises them whatever its ``on_error`` policy, and serve answers 400.
    """
    for step in script:
        name = step.strip()
        if name.upper() not in VARIANTS and name not in _OTHER_STEPS:
            raise ValueError(
                f"unknown flow step {step!r}; expected one of {VARIANTS} "
                f"or {_OTHER_STEPS}"
            )


def _miscompiled(mig: Mig) -> Mig:
    """Deliberately wrong copy of *mig* (first output inverted) — fault hook."""
    bad = mig.clone()
    bad._outputs[0] = signal_not(bad._outputs[0])
    bad.invalidate_arrays()
    return bad


def _structure_corrupted(mig: Mig) -> Mig:
    """Copy of *mig* with a broken structural invariant — fault hook.

    The last gate's fanin triple is reversed (unsorted), modeling a pass
    that mutates network internals without going through ``maj()``.
    Caught by :meth:`Mig.check`, not by functional verification.
    """
    bad = mig.clone()
    for node in range(len(bad._fanins) - 1, 0, -1):
        fanin = bad._fanins[node]
        if fanin is not None and fanin[0] != fanin[2]:
            bad._fanins[node] = tuple(reversed(fanin))
            break
    bad.invalidate_arrays()
    return bad


def _checked(mig: Mig, verify: str) -> None:
    """Run the structural validator when any verification is requested.

    A pass that corrupts the representation (dangling refs, broken
    ordering) may still *simulate* correctly by accident, so the
    structural invariants are checked before functional equivalence.
    """
    if verify != "off":
        mig.check()


def run_flow(
    mig: Mig,
    db: NpnDatabase | None,
    script: list[str],
    verbose: bool = False,
    budget: Budget | None = None,
    verify: str = "off",
    on_error: str = "raise",
    cut_limit: int | None = None,
    cut_size: int | None = None,
    on_step: Callable[[FlowStepStats], None] | None = None,
) -> tuple[Mig, list[FlowStepStats]]:
    """Apply *script* steps in order; returns the final MIG and per-step stats.

    *budget* bounds the whole flow: SAT-backed steps run under it, and
    once it expires the remaining steps are recorded as ``timeout``
    without executing, so the call returns partial results instead of
    hanging.  *verify* (``off``/``sim``/``cec``) first runs the
    structural validator (:meth:`Mig.check`) and then checks each step's
    result against its input; under ``on_error="rollback"``
    non-equivalent (or structurally broken) results are discarded,
    recording the step as ``rolled-back``.
    ``on_error="raise"`` propagates step exceptions and raises
    :class:`~repro.runtime.errors.VerificationFailed` on a detected
    miscompile.  *cut_limit* overrides the rewriters' per-node cut cap
    for every functional-hashing step (the batch runtime's degradation
    ladder shrinks it on retries); *cut_size* overrides the cut width
    (5 or 6 needs a :class:`~repro.rewriting.dynamic_db.DynamicDatabase`
    of matching arity).  *on_step* is called with each step's
    :class:`FlowStepStats` as soon as it concludes — the progress seam
    the serving tier streams from; callback failures are swallowed so a
    broken observer can never fail the optimization it observes.
    """
    if on_error not in _ON_ERROR_POLICIES:
        raise ValueError(
            f"unknown on_error policy {on_error!r}; expected one of {_ON_ERROR_POLICIES}"
        )
    check_steps(script)
    if db is None and needs_database(script):
        raise ValueError(f"script {list(script)} needs an NPN database")

    history: list[FlowStepStats] = []
    current = mig

    def record(
        step: str,
        nxt: Mig,
        start: float,
        status: str,
        verified: str = "off",
        error: str | None = None,
        metrics: PassMetrics | None = None,
    ) -> None:
        stats = FlowStepStats(
            step=step,
            size_before=current.num_gates,
            depth_before=current.depth(),
            size_after=nxt.num_gates,
            depth_after=nxt.depth(),
            runtime=time.perf_counter() - start,
            status=status,
            verified=verified,
            error=error,
            metrics=metrics,
        )
        history.append(stats)
        if on_step is not None:
            try:
                on_step(stats)
            except Exception:  # noqa: BLE001 - observer must not break the flow
                pass
        if verbose:
            flag = "" if status == "ok" else f" [{status}]"
            print(
                f"  {step:10} {stats.size_before}/{stats.depth_before} -> "
                f"{stats.size_after}/{stats.depth_after} ({stats.runtime:.2f}s){flag}"
            )

    for step in script:
        start = time.perf_counter()
        if budget is not None and budget.expired():
            # Budget spent before this step: record it unexecuted.
            record(step, current, start, "timeout", error="budget exhausted")
            continue
        try:
            nxt, metrics = _apply_step(
                current, db, step, budget, cut_limit, cut_size
            )
        except BudgetExhausted as exc:
            record(step, current, start, "timeout", error=str(exc))
            continue
        except Exception as exc:  # noqa: BLE001 - policy boundary
            if on_error == "raise":
                raise
            record(step, current, start, "failed", error=str(exc))
            continue

        if fault_active("flow.wrong-rewrite"):
            nxt = _miscompiled(nxt)
        if fault_active("flow.corrupt-structure"):
            nxt = _structure_corrupted(nxt)

        try:
            _checked(nxt, verify)
        except ValueError as exc:
            if on_error == "raise":
                raise VerificationFailed(step=step, method="structural") from exc
            record(
                step, current, start, "rolled-back", "structural",
                f"structural invariant violated: {exc}", metrics,
            )
            continue

        report = verify_rewrite(current, nxt, mode=verify, budget=budget)
        if metrics is not None:
            # Kernel counters: verification simulation on both networks
            # (the rewriters already folded in their construction counters).
            metrics.record_network(current)
            metrics.record_network(nxt)
            metrics.sat_conflicts += report.conflicts
        if report.refuted:
            if on_error == "raise":
                raise VerificationFailed(
                    step=step,
                    method=report.method,
                    counterexample=report.counterexample,
                )
            error = f"non-equivalent result ({report.method})"
            if report.counterexample is not None:
                error += f"; counterexample {report.counterexample}"
            record(
                step, current, start, "rolled-back", report.method, error, metrics
            )
            continue

        record(step, nxt, start, "ok", report.method, metrics=metrics)
        current = nxt
    return current, history


def optimize_until_convergence(
    mig: Mig,
    db: NpnDatabase,
    variant: str = "BF",
    max_passes: int = 10,
    budget: Budget | None = None,
    verify: str = "off",
    on_error: str = "raise",
    metrics: PassMetrics | None = None,
    cut_limit: int | None = None,
    cut_size: int | None = None,
) -> tuple[Mig, int]:
    """Repeat one functional-hashing variant until the size stops improving.

    Returns the converged MIG and the number of productive passes.

    Each pass is one :func:`run_flow` call on ``[variant]`` with the
    shared *budget*, *verify* and *on_error* policy.  A pass that does
    not end ``ok`` (budget spent, failed, rolled back) or does not
    shrink the network stops the iteration, and the network from before
    that pass is returned: partial progress is kept, never discarded.
    Pass a :class:`PassMetrics` to accumulate hot-path counters across
    all executed passes.
    """
    current = mig
    for passes in range(max_passes):
        nxt, (stats,) = run_flow(
            current, db, [variant], budget=budget, verify=verify,
            on_error=on_error, cut_limit=cut_limit, cut_size=cut_size,
        )
        if metrics is not None and stats.metrics is not None:
            metrics.merge(stats.metrics)
            metrics.variant = variant.upper()
        if stats.status != "ok" or nxt.num_gates >= current.num_gates:
            return current, passes
        current = nxt
    return current, max_passes
