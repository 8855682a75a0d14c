"""Frozen single-module SAT sweep for the fraig differential tests.

A deliberate snapshot of ``repro.opt.fraig.fraig`` as it stood while the
sweep loop lived inside the ``fraig`` step, with its own ``Solver`` and
its own copy of the majority-gate clauses.  The function body is copied
byte for byte.

**Do not refactor this file alongside src/** — its value is that it
stays behind as the oracle: the shared sweep engine under ``fraig`` must
keep returning a node-for-node identical network
(tests/opt/test_fraig.py).
"""

from __future__ import annotations

import random

from repro.core.mig import Mig
from repro.core.simengine import random_signature_words, simulate_all_nodes
from repro.runtime.budget import Budget
from repro.sat.solver import Solver

__all__ = ["frozen_fraig"]


def frozen_fraig(
    mig: Mig,
    num_words: int = 4,
    width: int = 64,
    seed: int = 0x5EED,
    conflict_budget: int = 3000,
    max_cex_rounds: int = 64,
    budget: Budget | None = None,
) -> Mig:
    """Merge provably equivalent gates; returns the swept network.

    A shared :class:`~repro.runtime.budget.Budget` degrades the pass
    gracefully: once it expires, remaining candidate equivalences are
    simply kept unmerged (always sound — the pass only merges on proof).
    """
    rng = random.Random(seed)
    mask = (1 << width) - 1

    # 1. Random-simulation signatures on the ORIGINAL network (mutable:
    # counterexample words get appended during the sweep).  The node-major
    # draws go through the shared engine helper (historical order, so the
    # seed reproduces), and the per-word loops collapse into ONE
    # bit-parallel pass of width num_words*width: bitwise gate operations
    # never mix bit positions, so word w of a signature is bits
    # [w*width, (w+1)*width) of the combined value.
    pi_words = random_signature_words(rng, mig.num_pis, num_words, width)
    combined = [
        sum(word << (w * width) for w, word in enumerate(words))
        for words in pi_words
    ]
    node_values = simulate_all_nodes(mig, combined, num_words * width)
    signatures: dict[int, list[int]] = {
        node: [(value >> (w * width)) & mask for w in range(num_words)]
        for node, value in enumerate(node_values)
    }

    def canonical(node: int) -> tuple[tuple[int, ...], bool]:
        sig = signatures[node]
        if sig[0] & 1:
            return tuple(w ^ mask for w in sig), True
        return tuple(sig), False

    # 2. Rebuild with an incremental SAT encoding of the NEW network.
    new = Mig.like(mig)
    solver = Solver()
    const_var = solver.new_var()
    solver.add_clause([-const_var])
    node_var: dict[int, int] = {0: const_var}
    for i in range(1, mig.num_pis + 1):
        node_var[i] = solver.new_var()

    def lit_of(signal: int) -> int:
        var = node_var[signal >> 1]
        return -var if signal & 1 else var

    encoded_next = [mig.num_pis + 1]

    def encode_up_to_date() -> None:
        start = encoded_next[0]
        encoded_next[0] = new.num_nodes
        for node in range(start, new.num_nodes):
            a, b, c = new.fanins(node)
            out = solver.new_var()
            node_var[node] = out
            la, lb, lc = lit_of(a), lit_of(b), lit_of(c)
            solver.add_clause([-la, -lb, out])
            solver.add_clause([-la, -lc, out])
            solver.add_clause([-lb, -lc, out])
            solver.add_clause([la, lb, -out])
            solver.add_clause([la, lc, -out])
            solver.add_clause([lb, lc, -out])

    # representative: canonical signature -> (old node, new signal of the
    # canonical phase).  `processed` lets us re-key after refinements.
    representative: dict[tuple[int, ...], int] = {}
    processed: list[tuple[int, int]] = []  # (old node, canonical-phase signal)
    cex_rounds = 0

    def register(old_node: int, canon_signal: int) -> None:
        representative.setdefault(canonical(old_node)[0], canon_signal)

    def refine_with_counterexample() -> None:
        """Append the solver model as a saturated signature word; re-key."""
        nonlocal cex_rounds
        cex_rounds += 1
        pattern = [
            1 if solver.model_value(node_var[i]) else 0
            for i in range(1, mig.num_pis + 1)
        ]
        values = simulate_all_nodes(mig, pattern, 1)
        for node, value in enumerate(values):
            signatures[node].append(mask if value else 0)
        representative.clear()
        for old_node, canon_signal in processed:
            register(old_node, canon_signal)

    mapping: dict[int, int] = {0: 0}
    for i in range(1, mig.num_pis + 1):
        mapping[i] = 2 * i
        sig, phase = canonical(i)
        representative.setdefault(sig, 2 * i ^ int(phase))
        processed.append((i, 2 * i ^ int(phase)))

    for node in mig.gates():
        a, b, c = mig.fanins(node)
        signal = new.maj(
            mapping[a >> 1] ^ (a & 1),
            mapping[b >> 1] ^ (b & 1),
            mapping[c >> 1] ^ (c & 1),
        )
        sig, phase = canonical(node)
        canon_signal = signal ^ int(phase)
        existing = representative.get(sig)
        if (
            existing is not None
            and existing != canon_signal
            and (budget is None or not budget.expired())
        ):
            encode_up_to_date()
            d = solver.new_var()
            l1, l2 = lit_of(existing), lit_of(canon_signal)
            solver.add_clause([-d, l1, l2])
            solver.add_clause([-d, -l1, -l2])
            call_budget = conflict_budget
            deadline = None
            if budget is not None:
                call_budget = budget.call_conflict_budget(conflict_budget)
                deadline = budget.deadline
            before_conflicts = solver.conflicts
            answer = solver.solve(
                assumptions=[d], conflict_budget=call_budget, deadline=deadline
            )
            if budget is not None:
                budget.charge_conflicts(solver.conflicts - before_conflicts)
            if answer is False:
                signal = existing ^ int(phase)
                canon_signal = existing
            elif answer is True and cex_rounds < max_cex_rounds:
                refine_with_counterexample()
                sig, phase = canonical(node)
                canon_signal = signal ^ int(phase)
        register(node, canon_signal)
        processed.append((node, canon_signal))
        mapping[node] = signal
    for s, name in zip(mig.outputs, mig.output_names):
        new.add_po(mapping[s >> 1] ^ (s & 1), name)
    return new.cleanup()
