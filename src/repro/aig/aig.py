"""And-Inverter Graphs — the comparison representation (Sec. I, refs [2], [6]).

The paper positions MIGs against AIGs, the dominant homogeneous logic
representation.  Since the kernel refactor this is a thin 2-ary facade
over the same substrate as :class:`repro.core.mig.Mig` —
:class:`repro.core.kernel.Network` for storage/traversals/validation and
:mod:`repro.core.simengine` for bit-parallel simulation — so the AIG
inherits everything the MIG has (``check``, ``fanout_counts``,
``cleanup``, ``clone``, ``simulate_patterns``, ``cut_function``) and
contributes only the AND-gate semantics: the same signal conventions
(signal = ``2*node + inv``), structural hashing and the unit rules
``a&a = a``, ``a&a' = 0``, ``a&1 = a``, ``a&0 = 0``.
"""

from __future__ import annotations

from ..core.kernel import Network
from ..core.simengine import SimulationMixin

__all__ = ["Aig"]


class Aig(SimulationMixin, Network):
    """An And-Inverter Graph with structural hashing."""

    ARITY = 2
    DEFAULT_NAME = "aig"

    # -- gate semantics ------------------------------------------------

    def and_(self, a: int, b: int) -> int:
        """Create (or reuse) the AND gate of two signals."""
        n = len(self._fanins)
        if a < 0 or a >> 1 >= n:
            raise ValueError(f"signal {a} refers to an unknown node")
        if b < 0 or b >> 1 >= n:
            raise ValueError(f"signal {b} refers to an unknown node")
        if a == b:
            self.unit_rules += 1
            return a
        if a == b ^ 1:
            self.unit_rules += 1
            return 0
        if a == 0 or b == 0:
            self.unit_rules += 1
            return 0
        if a == 1:
            self.unit_rules += 1
            return b
        if b == 1:
            self.unit_rules += 1
            return a
        key = (a, b) if a < b else (b, a)
        node = self._strash.get(key)
        if node is None:
            node = n
            self._fanins.append(key)
            self._strash[key] = node
        else:
            self.strash_hits += 1
        return node << 1

    def or_(self, a: int, b: int) -> int:
        """Disjunction via De Morgan."""
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor(self, a: int, b: int) -> int:
        """Exclusive-or (two AND levels)."""
        return self.and_(self.and_(a, b ^ 1) ^ 1, self.and_(a ^ 1, b) ^ 1) ^ 1

    def mux(self, sel: int, when_true: int, when_false: int) -> int:
        """2:1 multiplexer."""
        return self.or_(self.and_(sel, when_true), self.and_(sel ^ 1, when_false))
