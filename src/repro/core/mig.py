"""The Majority-Inverter Graph data structure (Sec. II-B of the paper).

An MIG is a DAG whose non-terminal nodes all compute the ternary majority
function and whose edges carry optional complementation.  Since the
kernel refactor the class is a thin 3-ary facade over the shared
substrate :class:`repro.core.kernel.Network` (storage, structural
hashing, traversals, validation, dead-gate removal) and the shared
bit-parallel engine :mod:`repro.core.simengine` (simulation, cut
functions); this module contributes only the majority-gate semantics,
whose invariants :meth:`Network.check` validates.

The conventions of modern logic-network packages apply:

* **Nodes** are integers.  Node ``0`` is the constant-0 terminal, nodes
  ``1 .. num_pis`` are primary inputs, and gate nodes follow in strict
  topological order (every gate has a larger index than its fanins).
* **Signals** (a.k.a. literals) encode a node plus an optional inverter:
  ``signal = 2 * node + complement``.  Signal ``0`` is constant 0 and
  signal ``1`` is constant 1.

Gates are created through :meth:`Mig.maj`, which performs the unit
simplifications ``<aab> = a`` and ``<a a' b> = b``, canonically sorts the
fanin triple, normalizes inverters through the self-duality
``<a'b'c'> = <abc>'`` and structurally hashes the result, so that two
calls with functionally identical triples return the same signal.
"""

from __future__ import annotations

from .kernel import (
    CONST0,
    CONST1,
    Network,
    make_signal,
    signal_is_complemented,
    signal_node,
    signal_not,
)
from .simengine import SimulationMixin

__all__ = [
    "Mig",
    "signal_not",
    "signal_node",
    "signal_is_complemented",
    "make_signal",
    "CONST0",
    "CONST1",
]


class Mig(SimulationMixin, Network):
    """A Majority-Inverter Graph.

    >>> mig = Mig(3, name="full_adder")
    >>> a, b, cin = mig.pi_signals()
    >>> cout = mig.maj(a, b, cin)
    >>> s = mig.maj(signal_not(cout), mig.maj(a, b, signal_not(cin)), cin)
    >>> mig.add_po(s, "s"); mig.add_po(cout, "cout")
    >>> mig.num_gates, mig.depth()
    (3, 2)
    """

    ARITY = 3
    DEFAULT_NAME = "mig"

    # ------------------------------------------------------------------
    # gate semantics
    # ------------------------------------------------------------------

    def maj(self, a: int, b: int, c: int) -> int:
        """Create (or reuse) the majority gate ``<abc>`` and return its signal."""
        fanins = self._fanins
        n = len(fanins)
        if (a | b | c) < 0 or a >> 1 >= n or b >> 1 >= n or c >> 1 >= n:
            raise ValueError(f"signal among ({a}, {b}, {c}) refers to an unknown node")
        # Unit rules.
        if a == b or a == c:
            self.unit_rules += 1
            return a
        if b == c:
            self.unit_rules += 1
            return b
        if a == b ^ 1:
            # <a a' c> = c
            self.unit_rules += 1
            return c
        if a == c ^ 1:
            self.unit_rules += 1
            return b
        if b == c ^ 1:
            self.unit_rules += 1
            return a
        # Sort the triple with three compare-swaps.
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        # Self-duality normalization: store with at most one complemented
        # fanin among {>=2 complemented}; flip all three plus output.  The
        # unit rules left three distinct nodes, so the flipped triple is
        # still sorted.
        out = 0
        if (a & 1) + (b & 1) + (c & 1) >= 2:
            a ^= 1
            b ^= 1
            c ^= 1
            out = 1
        fanin = (a, b, c)
        node = self._strash.get(fanin)
        if node is None:
            node = n
            fanins.append(fanin)
            self._strash[fanin] = node
        else:
            self.strash_hits += 1
        return (node << 1) | out

    def and_(self, a: int, b: int) -> int:
        """Conjunction via ``<0ab>``."""
        return self.maj(CONST0, a, b)

    def or_(self, a: int, b: int) -> int:
        """Disjunction via ``<1ab>``."""
        return self.maj(CONST1, a, b)

    def xor(self, a: int, b: int) -> int:
        """Exclusive-or built from three majority gates."""
        both = self.and_(a, b)
        either = self.or_(a, b)
        return self.and_(either, signal_not(both))

    def xnor(self, a: int, b: int) -> int:
        """Exclusive-nor."""
        return signal_not(self.xor(a, b))

    def ite(self, c: int, t: int, e: int) -> int:
        """Multiplexer ``c ? t : e`` built from majority gates."""
        return self.or_(self.and_(c, t), self.and_(signal_not(c), e))

    # ------------------------------------------------------------------
    # pretty printing
    # ------------------------------------------------------------------

    def signal_name(self, signal: int) -> str:
        """Human-readable name of a signal (``!`` prefix for inverters)."""
        node = signal_node(signal)
        if node == 0:
            base = "0"
        elif self.is_pi(node):
            base = self._pi_names[node - 1]
        else:
            base = f"n{node}"
        return ("!" if signal & 1 else "") + base

    def to_expression(self, signal: int) -> str:
        """Render the cone of *signal* as a nested ``<abc>`` expression."""
        node = signal_node(signal)
        if not self.is_gate(node):
            return self.signal_name(signal)
        a, b, c = self.fanins(node)
        inner = f"<{self.to_expression(a)}{self.to_expression(b)}{self.to_expression(c)}>"
        return ("!" if signal & 1 else "") + inner
