"""SAT sweeping ("fraiging") as a flow step, for MIGs of any width.

:func:`repro.opt.size_opt.functional_reduce` merges functionally
equivalent gates but needs exhaustive simulation (<= 14 inputs).  This
pass scales to arbitrary widths using the classic FRAIG recipe of
Kuehlmann et al. (ref. [2] of the paper): random-simulation candidates,
proven or refuted by small incremental SAT queries, with
counterexamples refining the candidates.  The sweep itself is the
shared engine :func:`repro.sat.sweep.sweep`, which SAT CEC
(:mod:`repro.sat.cec`) runs too; this step hands it a bare
:class:`~repro.sat.cnf.CnfBuilder` and keeps the cleaned-up result.

Budget-exhausted queries keep the gate — the pass only merges on proof.
"""

from __future__ import annotations

from ..core.mig import Mig
from ..runtime.budget import Budget
from ..sat.cnf import CnfBuilder
from ..sat.sweep import (
    MAX_CEX_ROUNDS,
    NUM_WORDS,
    QUERY_CONFLICT_BUDGET,
    SEED,
    WIDTH,
    sweep,
)

__all__ = ["fraig"]


def fraig(
    mig: Mig,
    num_words: int = NUM_WORDS,
    width: int = WIDTH,
    seed: int = SEED,
    conflict_budget: int = QUERY_CONFLICT_BUDGET,
    max_cex_rounds: int = MAX_CEX_ROUNDS,
    budget: Budget | None = None,
) -> Mig:
    """Merge provably equivalent gates; returns the swept network.

    A shared :class:`~repro.runtime.budget.Budget` degrades the pass
    gracefully: once it expires, remaining candidate equivalences are
    simply kept unmerged (always sound — the pass only merges on proof).
    """
    swept = sweep(
        mig,
        CnfBuilder(),
        num_words=num_words,
        width=width,
        seed=seed,
        conflict_budget=conflict_budget,
        max_cex_rounds=max_cex_rounds,
        budget=budget,
    )
    return swept.network.cleanup()
