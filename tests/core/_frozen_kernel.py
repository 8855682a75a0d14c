"""Frozen whole-network kernel walks for the differential tests.

A deliberate snapshot of the walks the kernel and its facades ran while
every call re-walked the network: ``Network.levels``/``depth`` (one
generator per gate, nothing kept), ``Network.check`` with the two facade
hooks ``Mig._check_gate_fanin`` and ``Aig._check_gate_fanin`` (one call
per gate), ``Mig.maj`` (``signal_not``/``sorted``/``make_signal``
calls), ``SimulationMixin.simulate`` (a fresh simulation per call) and
``Network.cleanup`` with its ``_reachable_gates`` walk (every reachable
gate rebuilt through the facade constructor, re-applying its
normalization).  The bodies are copied byte for byte; the only edits
turn the methods into functions of the network, so that
``self.levels()`` reads ``frozen_levels(self)``,
``self._check_gate_fanin`` dispatches on the network's arity to the
copied hook, and the cleanup's ``new._make_gate(mapped)`` hook is
inlined as ``new.maj`` or ``new.and_`` by arity.

**Do not refactor this file alongside src/** — its value is that it
stays behind as the oracle: the memoized, per-arity walks must return
the same values and raise the same messages on every network, and the
renumbering cleanup must return the same network on every network the
facades build (tests/core/test_kernel_differential.py,
benchmarks/bench_kernel.py).
"""

from __future__ import annotations

from repro.core.kernel import make_signal, signal_not
from repro.core.simengine import projection_int, simulate_network

__all__ = [
    "frozen_levels",
    "frozen_depth",
    "frozen_check",
    "frozen_maj",
    "frozen_simulate",
    "frozen_cleanup",
]


def frozen_levels(self) -> list[int]:
    """Return per-node depth (terminals at level 0)."""
    level = [0] * len(self._fanins)
    first_gate = self.num_pis + 1
    fanins = self._fanins
    for node in range(first_gate, len(fanins)):
        level[node] = 1 + max(level[s >> 1] for s in fanins[node])
    return level


def frozen_depth(self) -> int:
    """Return the network depth — longest terminal-to-output gate path."""
    if not self._outputs:
        return 0
    level = frozen_levels(self)
    return max(level[s >> 1] for s in self._outputs)


def _mig_check_gate_fanin(self, node: int, fanin: tuple[int, ...]) -> None:
    """The invariants :meth:`maj` guarantees beyond the kernel's."""
    if tuple(sorted(fanin)) != fanin:
        raise ValueError(f"gate node {node} fanin triple {fanin} is unsorted")
    if len({s >> 1 for s in fanin}) != 3:
        raise ValueError(
            f"gate node {node} fanin triple {fanin} repeats a node "
            "(unit rule <aab>/<aa'b> not applied)"
        )
    if sum(s & 1 for s in fanin) > 1:
        raise ValueError(
            f"gate node {node} fanin triple {fanin} has more than one "
            "inverter (self-duality normalization not applied)"
        )


def _aig_check_gate_fanin(self, node: int, fanin: tuple[int, ...]) -> None:
    """The invariants :meth:`and_` guarantees beyond the kernel's."""
    a, b = fanin
    if a >= b:
        raise ValueError(f"gate node {node} fanin pair {fanin} is unsorted")
    if a >> 1 == b >> 1:
        raise ValueError(
            f"gate node {node} fanin pair {fanin} repeats a node "
            "(unit rule a&a/a&a' not applied)"
        )
    if a >> 1 == 0:
        raise ValueError(
            f"gate node {node} fanin pair {fanin} references a constant "
            "(unit rule a&0/a&1 not applied)"
        )


_CHECK_GATE_FANIN = {3: _mig_check_gate_fanin, 2: _aig_check_gate_fanin}


def frozen_check(self) -> None:
    """Validate the structural invariants; raises ``ValueError`` on breakage.

    Invariants enforced (everything the facade constructors guarantee
    by construction, so a violation means a pass corrupted the
    representation by mutating internals directly):

    * terminals — node 0 and the PIs have no fanins; every gate does;
    * acyclicity — each fanin references a strictly smaller node
      index (the strict topological order of the node array);
    * no dangling refs — fanin and output signals point at existing
      nodes;
    * facade normalization — whatever :meth:`_check_gate_fanin`
      demands (sorted triples, unit-rule residue, inverter
      normalization for MIGs; ordered pairs for AIGs);
    * strash consistency — every structural-hash entry agrees with
      the node array.
    """
    n = len(self._fanins)
    arity = self.arity
    if n == 0 or self._fanins[0] is not None:
        raise ValueError("node 0 must be the constant-0 terminal")
    for node in range(1, self.num_pis + 1):
        if self._fanins[node] is not None:
            raise ValueError(f"PI node {node} has fanins")
    for node in range(self.num_pis + 1, n):
        fanin = self._fanins[node]
        if fanin is None:
            raise ValueError(f"gate node {node} has no fanins")
        if len(fanin) != arity:
            raise ValueError(
                f"gate node {node} has {len(fanin)} fanins, not {arity}"
            )
        for s in fanin:
            if s < 0 or (s >> 1) >= n:
                raise ValueError(
                    f"gate node {node} fanin signal {s} is dangling"
                )
            if (s >> 1) >= node:
                raise ValueError(
                    f"gate node {node} fanin signal {s} breaks topological "
                    "order (cycle or forward reference)"
                )
        _CHECK_GATE_FANIN[arity](self, node, fanin)
    for fanin, node in self._strash.items():
        if not self.is_gate(node) or self._fanins[node] != fanin:
            raise ValueError(
                f"strash entry {fanin} -> {node} disagrees with the node array"
            )
    for i, s in enumerate(self._outputs):
        if s < 0 or (s >> 1) >= n:
            raise ValueError(f"output {i} signal {s} is dangling")
    if len(self._outputs) != len(self._output_names):
        raise ValueError("output/name list length mismatch")
    if len(self._pi_names) != self.num_pis:
        raise ValueError("PI/name list length mismatch")


def frozen_maj(self, a: int, b: int, c: int) -> int:
    """Create (or reuse) the majority gate ``<abc>`` and return its signal."""
    n = len(self._fanins)
    if a >> 1 >= n or b >> 1 >= n or c >> 1 >= n:
        raise ValueError(f"signal among ({a}, {b}, {c}) refers to an unknown node")
    # Unit rules.
    if a == b or a == c:
        self.unit_rules += 1
        return a
    if b == c:
        self.unit_rules += 1
        return b
    if a == signal_not(b) or a == signal_not(c):
        # <a a' c> = c ; third operand is whichever is not the pair.
        self.unit_rules += 1
        return c if a == signal_not(b) else b
    if b == signal_not(c):
        self.unit_rules += 1
        return a
    fanin = tuple(sorted((a, b, c)))
    # Self-duality normalization: store with at most one complemented
    # fanin among {>=2 complemented}; flip all three plus output.
    out_complement = False
    if (fanin[0] & 1) + (fanin[1] & 1) + (fanin[2] & 1) >= 2:
        fanin = tuple(sorted(signal_not(s) for s in fanin))
        out_complement = True
    node = self._strash.get(fanin)
    if node is None:
        node = len(self._fanins)
        self._fanins.append(fanin)
        self._strash[fanin] = node
    else:
        self.strash_hits += 1
    return make_signal(node, out_complement)


def frozen_simulate(self) -> list[int]:
    """Exhaustively simulate; returns one truth table per output.

    Only feasible for small input counts (``num_pis <= 16``).
    """
    if self.num_pis > 16:
        raise ValueError(
            "exhaustive simulation limited to 16 inputs; use simulate_patterns"
        )
    n = self.num_pis
    return simulate_network(self, [projection_int(n, i) for i in range(n)], 1 << n)


def _frozen_reachable_gates(self) -> list[int]:
    """Gate nodes reachable from the outputs, in topological order."""
    reachable = bytearray(len(self._fanins))
    first_gate = self.num_pis + 1
    fanins = self._fanins
    stack = [s >> 1 for s in self._outputs]
    while stack:
        node = stack.pop()
        if node < first_gate or reachable[node]:
            continue
        reachable[node] = 1
        stack.extend(s >> 1 for s in fanins[node])
    return [
        node for node in range(first_gate, len(fanins)) if reachable[node]
    ]


def frozen_cleanup(self):
    """Return a copy with dead gates removed (reachable cone only).

    Gates are rebuilt through the facade constructor
    (:meth:`_make_gate`), so normalization is re-applied — for
    networks built through the facades this is a pure compaction.
    """
    new = type(self).like(self)
    mapping: dict[int, int] = {0: 0}
    for i in range(1, self.num_pis + 1):
        mapping[i] = make_signal(i)
    for node in _frozen_reachable_gates(self):
        mapped = tuple(
            mapping[s >> 1] ^ (s & 1) for s in self._fanins[node]  # type: ignore[union-attr]
        )
        mapping[node] = new.maj(*mapped) if self.arity == 3 else new.and_(*mapped)
    for s, name in zip(self._outputs, self._output_names):
        new.add_po(mapping[s >> 1] ^ (s & 1), name)
    return new
