"""SAT sweeping ("fraiging"): merge the provably equivalent nodes of a MIG.

The classic FRAIG recipe of Kuehlmann et al. (ref. [2] of the paper, the
original AIG application), for MIGs of any width:

1. simulate the network on random bit-parallel vectors — equal-signature
   nodes (up to complement) are *candidate* equivalences;
2. rebuild the network in topological order through ``Mig.maj`` (which
   hashes structurally), Tseitin-encoding the new gates into one
   incremental SAT solver as the queries reach them;
3. when a gate's signature matches an earlier representative, ask the
   solver (under an assumption, with a conflict budget) whether the two
   signals can ever differ: an UNSAT answer is a proof and the gate is
   merged; a model is a **counterexample**, which is simulated to refine
   every signature so false candidate classes split and stop wasting
   SAT calls (without refinement, e.g. wide AND cones all share the
   all-zero signature and shadow each other).

Budget-exhausted queries keep the gate — the sweep merges only on proof,
so the swept network computes exactly what its input computes.

One engine serves two callers, both at the tuning below.  The ``fraig``
flow step (:func:`repro.opt.fraig.fraig`) keeps the cleaned-up swept
network.  SAT CEC (:func:`repro.sat.cec.check_equivalence_sat`) sweeps
the strashed miter of two networks and then poses one final query, over
the output pairs the sweep left apart, on the same builder
(:meth:`Sweep.literal`).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..core.mig import Mig
from ..core.simengine import random_signature_words, simulate_all_nodes
from .cnf import CnfBuilder

if TYPE_CHECKING:
    from ..runtime.budget import Budget

__all__ = ["Sweep", "sweep"]

#: The tuning of every sweep (the ``fraig`` step's defaults, and the
#: sweep inside SAT CEC): random signature words and their width in
#: bits, the simulation seed, the conflict cap of one query, and how
#: many counterexamples may refine the signatures.
NUM_WORDS = 4
WIDTH = 64
SEED = 0x5EED
QUERY_CONFLICT_BUDGET = 3000
MAX_CEX_ROUNDS = 64


class Sweep:
    """A network rebuilt by :func:`sweep`, and the builder that encodes it.

    ``network`` carries the swept outputs and is not cleaned up: its
    node indices are the ones the builder's variables stand for, so a
    caller can pose further queries over it after :meth:`encode`.
    """

    def __init__(self, network: Mig, builder: CnfBuilder) -> None:
        self.network = network
        self.builder = builder
        const_var = builder.new_var()
        builder.add_unit(-const_var)
        #: solver variable of every encoded node, indexed by node
        self.node_vars = [const_var, *builder.new_vars(network.num_pis)]

    @property
    def pi_vars(self) -> list[int]:
        """The solver variables of the primary inputs, in order."""
        return self.node_vars[1 : self.network.num_pis + 1]

    def encode(self) -> None:
        """Tseitin-encode every gate the network gained since the last call."""
        net = self.network
        for node in range(len(self.node_vars), net.num_nodes):
            a, b, c = net.fanins(node)
            out = self.builder.new_var()
            self.node_vars.append(out)
            self.builder.maj_gate(out, self.literal(a), self.literal(b), self.literal(c))

    def literal(self, signal: int) -> int:
        """The solver literal of an encoded *signal*."""
        var = self.node_vars[signal >> 1]
        return -var if signal & 1 else var


def sweep(
    mig: Mig,
    builder: CnfBuilder,
    num_words: int = NUM_WORDS,
    width: int = WIDTH,
    seed: int = SEED,
    conflict_budget: int = QUERY_CONFLICT_BUDGET,
    max_cex_rounds: int = MAX_CEX_ROUNDS,
    budget: "Budget | None" = None,
) -> Sweep:
    """Rebuild *mig* with its provably equivalent nodes merged.

    Every query is one call of ``builder.solver``.  *conflict_budget*
    caps each query; a :class:`~repro.runtime.budget.Budget` also caps
    it at the conflicts left, bounds it by its deadline and is charged
    after it.
    Once the budget has expired, the remaining candidates are kept
    unmerged (always sound — the sweep merges only on proof).
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
    swept = Sweep(Mig.like(mig), builder)
    new = swept.network

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
        pattern = [1 if builder.value(var) else 0 for var in swept.pi_vars]
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

    # 3. Sweep: merge each gate into its candidate representative on proof.
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
            swept.encode()
            d = builder.new_var()
            l1, l2 = swept.literal(existing), swept.literal(canon_signal)
            builder.add_clause([-d, l1, l2])
            builder.add_clause([-d, -l1, -l2])
            call_budget = conflict_budget
            deadline = None
            if budget is not None:
                call_budget = budget.call_conflict_budget(conflict_budget)
                deadline = budget.deadline
            before_conflicts = builder.solver.conflicts
            answer = builder.solver.solve(
                assumptions=[d], conflict_budget=call_budget, deadline=deadline
            )
            if budget is not None:
                budget.charge_conflicts(builder.solver.conflicts - before_conflicts)
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
    return swept
