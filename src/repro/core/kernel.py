"""The shared logic-network kernel: one substrate under MIG and AIG.

Every homogeneous logic network in this package — the 3-ary
majority-inverter graph and the 2-ary and-inverter graph — is the same
data structure wearing different gate semantics: an append-only node
array in strict topological order, signals encoding ``2*node +
complement``, a structural-hash table mapping normalized fanin tuples to
nodes, and outputs referencing signals.  :class:`Network` owns exactly
that substrate, arity-generically; the facades
(:class:`repro.core.mig.Mig`, :class:`repro.aig.aig.Aig`) contribute only
the per-arity gate rules (unit simplifications, inverter normalization)
and convenience constructors.

The store is one append-optimized Python structure: ``_fanins``
(per-node fanin tuples, ``None`` for terminals) plus the strash dict.
Gate creation is the hottest operation of the rewriting passes, and a
Python ``list.append`` is as cheap as a write gets.

Whole-network facts — the per-node levels and the exhaustive output
truth tables (:mod:`repro.core.simengine`) — are computed at most once
per network state and kept in one memo slot keyed on the node count and
the output count, so appends invalidate them automatically and every
in-place edit of ``_fanins`` or ``_outputs`` must call
:meth:`Network.invalidate_arrays` (a historical name: the slot once
also held a numpy view of the fanin lists).  The kernel's own walks
(:meth:`Network.levels`, :meth:`Network.fanout_counts`,
:meth:`Network.check`, :meth:`Network.cleanup`) run one loop per gate
arity, as the simulator does.

This module imports nothing from the rest of ``repro`` and nothing
outside the standard library — enforced by ``tools/check_layers.py``.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

__all__ = [
    "Network",
    "make_signal",
    "signal_not",
    "signal_node",
    "signal_is_complemented",
    "CONST0",
    "CONST1",
]

#: Signal constants for the Boolean constants.
CONST0 = 0
CONST1 = 1


def make_signal(node: int, complement: bool = False) -> int:
    """Build a signal from a node index and a complement flag."""
    return (node << 1) | int(complement)


def signal_not(signal: int) -> int:
    """Return the complement of a signal."""
    return signal ^ 1


def signal_node(signal: int) -> int:
    """Return the node index a signal points to."""
    return signal >> 1


def signal_is_complemented(signal: int) -> bool:
    """Return True if the signal carries an inverter."""
    return bool(signal & 1)


class _Facts:
    """The memo slot of one network state: facts computed on first use."""

    __slots__ = ("key", "levels", "tables")

    def __init__(self, key: tuple[int, int]) -> None:
        self.key = key
        self.levels: tuple[int, ...] | None = None
        #: exhaustive output truth tables, filled by ``simulate()``
        self.tables: tuple[int, ...] | None = None


def _raise_bad_arity(node: int, fanin, arity: int) -> None:
    """Raise the message for a gate whose fanin tuple is missing or mis-sized."""
    if fanin is None:
        raise ValueError(f"gate node {node} has no fanins")
    raise ValueError(f"gate node {node} has {len(fanin)} fanins, not {arity}")


def _raise_bad_signal(node: int, fanin: tuple[int, ...], n: int) -> None:
    """Raise the message for the first fanin signal that is out of range."""
    for s in fanin:
        if s < 0 or (s >> 1) >= n:
            raise ValueError(f"gate node {node} fanin signal {s} is dangling")
        if (s >> 1) >= node:
            raise ValueError(
                f"gate node {node} fanin signal {s} breaks topological "
                "order (cycle or forward reference)"
            )


class Network:
    """Arity-generic logic-network substrate with structural hashing.

    Subclasses (the facades) set :attr:`ARITY` and implement the semantic
    gate constructor (``maj`` / ``and_``) that :meth:`check` validates.

    The kernel also owns the instrumentation counters shared by every
    facade: ``strash_hits`` (gate constructions answered by the hash
    table), ``unit_rules`` (constructions simplified away by a unit
    rule), and ``sim_words`` (64-bit gate-words evaluated by the
    simulation engine).
    """

    #: fanin count of every gate; overridden by facades (3 = MIG, 2 = AIG)
    ARITY: int = 0
    DEFAULT_NAME: str = "net"

    def __init__(self, num_pis: int = 0, name: str | None = None) -> None:
        self.name = self.DEFAULT_NAME if name is None else name
        # _fanins[node] is None for terminals, else the normalized tuple.
        self._fanins: list[tuple[int, ...] | None] = [None]
        self._pi_names: list[str] = []
        self._outputs: list[int] = []
        self._output_names: list[str] = []
        self._strash: dict[tuple[int, ...], int] = {}
        self.strash_hits = 0
        self.unit_rules = 0
        self.sim_words = 0
        self._memo: _Facts | None = None
        for _ in range(num_pis):
            self.add_pi()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def like(cls, other: "Network") -> "Network":
        """Create an empty network with the same primary inputs as *other*."""
        new = cls(name=other.name)
        for name in other._pi_names:
            new.add_pi(name)
        return new

    def add_pi(self, name: str | None = None) -> int:
        """Add a primary input; returns its (positive) signal.

        PIs must be created before any gate so node indices stay
        topologically ordered.
        """
        if self.num_gates:
            raise ValueError("all primary inputs must be created before the first gate")
        node = len(self._fanins)
        self._fanins.append(None)
        self._pi_names.append(name if name is not None else f"x{node - 1}")
        return node << 1

    def pi_signals(self) -> list[int]:
        """Return the signals of all primary inputs, in creation order."""
        return [make_signal(1 + i) for i in range(self.num_pis)]

    def add_po(self, signal: int, name: str | None = None) -> None:
        """Register a primary output pointing at *signal*."""
        if signal < 0 or signal >> 1 >= len(self._fanins):
            raise ValueError(f"signal {signal} refers to an unknown node")
        self._outputs.append(signal)
        self._output_names.append(name if name is not None else f"y{len(self._outputs) - 1}")

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------

    @property
    def arity(self) -> int:
        """Fanin count of every gate of this network class."""
        return self.ARITY

    @property
    def num_pis(self) -> int:
        """Number of primary inputs."""
        return len(self._pi_names)

    @property
    def num_pos(self) -> int:
        """Number of primary outputs."""
        return len(self._outputs)

    @property
    def num_nodes(self) -> int:
        """Total node count including constant and PIs."""
        return len(self._fanins)

    @property
    def num_gates(self) -> int:
        """Number of gate nodes — the *size* metric of the paper."""
        return len(self._fanins) - 1 - self.num_pis

    @property
    def size(self) -> int:
        """Alias for :attr:`num_gates` matching the paper's terminology."""
        return self.num_gates

    @property
    def outputs(self) -> tuple[int, ...]:
        """The output signals."""
        return tuple(self._outputs)

    @property
    def output_names(self) -> tuple[str, ...]:
        """The output names."""
        return tuple(self._output_names)

    @property
    def pi_names(self) -> tuple[str, ...]:
        """The primary-input names."""
        return tuple(self._pi_names)

    def is_constant(self, node: int) -> bool:
        """True for the constant-0 node."""
        return node == 0

    def is_pi(self, node: int) -> bool:
        """True for primary-input nodes."""
        return 1 <= node <= self.num_pis

    def is_gate(self, node: int) -> bool:
        """True for gate nodes."""
        return self.num_pis < node < len(self._fanins)

    def fanins(self, node: int) -> tuple[int, ...]:
        """Return the fanin signals of a gate node."""
        fanin = self._fanins[node]
        if fanin is None:
            raise ValueError(f"node {node} is a terminal and has no fanins")
        return fanin

    def gates(self) -> Iterator[int]:
        """Iterate gate nodes in topological order."""
        return iter(range(self.num_pis + 1, len(self._fanins)))

    def nodes(self) -> Iterator[int]:
        """Iterate all nodes (constant, PIs, gates) in topological order."""
        return iter(range(len(self._fanins)))

    # ------------------------------------------------------------------
    # whole-network facts
    # ------------------------------------------------------------------

    def _facts(self) -> _Facts:
        """The memo slot of the current network state.

        Keyed on the node count and the output count: appends start a
        fresh slot by themselves, and :meth:`invalidate_arrays` drops
        the slot after an in-place edit.
        """
        key = (len(self._fanins), len(self._outputs))
        facts = self._memo
        if facts is None or facts.key != key:
            facts = self._memo = _Facts(key)
        return facts

    def invalidate_arrays(self) -> None:
        """Drop every memoized fact (after in-place structural edits).

        The levels and the exhaustive truth tables share one memo slot,
        so both are recomputed on next use.  Call this after mutating
        ``_fanins`` or ``_outputs`` in place (only fault-injection hooks
        and white-box tests do that): a count-preserving rewire leaves
        the memo key unchanged, so skipping the call would silently
        serve stale facts.  The name is historical; the slot once also
        held a numpy view of the fanin lists.
        """
        self._memo = None

    def fanout_counts(self) -> list[int]:
        """Return, per node, how many gate fanins plus outputs reference it.

        A fresh list on every call, memoized nowhere: each pass asks once
        per network.
        """
        fanins = self._fanins
        counts = [0] * len(fanins)
        gates = fanins[self.num_pis + 1:]
        if self.ARITY == 3:
            for a, b, c in gates:  # type: ignore[misc]
                counts[a >> 1] += 1
                counts[b >> 1] += 1
                counts[c >> 1] += 1
        elif self.ARITY == 2:
            for a, b in gates:  # type: ignore[misc]
                counts[a >> 1] += 1
                counts[b >> 1] += 1
        else:
            raise ValueError(f"unsupported gate arity {self.ARITY}")
        for s in self._outputs:
            counts[s >> 1] += 1
        return counts

    def levels(self) -> tuple[int, ...]:
        """Return per-node depth (terminals at level 0), memoized."""
        facts = self._facts()
        if facts.levels is None:
            fanins = self._fanins
            level = [0] * len(fanins)
            first_gate = self.num_pis + 1
            if self.ARITY == 3:
                for node in range(first_gate, len(fanins)):
                    a, b, c = fanins[node]  # type: ignore[misc]
                    la = level[a >> 1]
                    lb = level[b >> 1]
                    lc = level[c >> 1]
                    if la < lb:
                        la = lb
                    if la < lc:
                        la = lc
                    level[node] = la + 1
            elif self.ARITY == 2:
                for node in range(first_gate, len(fanins)):
                    a, b = fanins[node]  # type: ignore[misc]
                    la = level[a >> 1]
                    lb = level[b >> 1]
                    level[node] = (la if la > lb else lb) + 1
            else:
                raise ValueError(f"unsupported gate arity {self.ARITY}")
            facts.levels = tuple(level)
        return facts.levels

    def depth(self) -> int:
        """Return the network depth — longest terminal-to-output gate path."""
        if not self._outputs:
            return 0
        level = self.levels()
        return max(level[s >> 1] for s in self._outputs)

    # ------------------------------------------------------------------
    # canonical structural hash
    # ------------------------------------------------------------------

    def structural_hash(self) -> str:
        """Canonical hash of the reachable structure (hex SHA-256).

        Two networks hash equal exactly when their output cones are
        isomorphic as DAGs of symmetric gates over positional inputs.
        The hash is therefore invariant under

        * **node insertion order** — each gate's digest is built from the
          *sorted multiset* of its fanin ``(digest, complement)`` pairs
          (majority and AND are fully symmetric, so operand order is
          representation, not meaning), never from node indices;
        * **names** — PI, output, and network names are not hashed; PIs
          enter by position, outputs by position;
        * **dead nodes** — only the cones of the outputs are traversed,
          so ``cleanup()`` does not change the hash.

        It *does* distinguish gate semantics (the arity is hashed), the
        PI count, and the output order/polarity — everything that changes
        what function the network computes or how callers address it.
        Structurally different implementations of the same function hash
        differently (this is a structural hash, not a functional one);
        equal hashes imply functional equivalence, which is what the
        serving tier's result cache needs: a hash collision would serve a
        wrong result, an unshared equivalence merely misses the cache.
        """
        fanins = self._fanins
        digests: dict[int, bytes] = {}
        # Iterative post-order over the output cones (explicit stack; the
        # rewriting scalability tests run 50k-deep chains through here).
        stack: list[int] = [s >> 1 for s in self._outputs]
        while stack:
            node = stack.pop()
            if node in digests:
                continue
            fanin = fanins[node]
            if fanin is None:
                # Terminals: constant 0, or a PI addressed by position.
                digests[node] = (
                    b"C" if node == 0 else b"P" + (node - 1).to_bytes(4, "little")
                )
                continue
            missing = [s >> 1 for s in fanin if (s >> 1) not in digests]
            if missing:
                stack.append(node)
                stack.extend(missing)
                continue
            parts = sorted(digests[s >> 1] + bytes([s & 1]) for s in fanin)
            digests[node] = hashlib.sha256(b"G" + b"".join(parts)).digest()
        h = hashlib.sha256()
        h.update(b"N")
        h.update(bytes([self.arity]))
        h.update(self.num_pis.to_bytes(4, "little"))
        for s in self._outputs:
            h.update(digests[s >> 1] + bytes([s & 1]))
        return h.hexdigest()

    # ------------------------------------------------------------------
    # structural validation
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Validate the structural invariants; raises ``ValueError`` on breakage.

        Invariants enforced (everything the facade constructors guarantee
        by construction, so a violation means a pass corrupted the
        representation by mutating internals directly), in this order
        per gate:

        * terminals — node 0 and the PIs have no fanins; every gate has
          exactly :attr:`ARITY`;
        * no dangling refs and acyclicity — each fanin signal is
          non-negative and references a strictly smaller node index (the
          strict topological order of the node array);
        * facade normalization — for MIGs (``Mig.maj``) a sorted triple
          of three distinct nodes (unit rules applied) with at most one
          inverter (self-duality normalization); for AIGs (``Aig.and_``)
          an ordered pair of two distinct non-constant nodes;

        then strash consistency (every structural-hash entry agrees with
        the node array), the output signals, and the name lists.  One
        loop per arity walks the gates with these rules inlined.
        """
        fanins = self._fanins
        n = len(fanins)
        if n == 0 or fanins[0] is not None:
            raise ValueError("node 0 must be the constant-0 terminal")
        first_gate = self.num_pis + 1
        for node in range(1, first_gate):
            if fanins[node] is not None:
                raise ValueError(f"PI node {node} has fanins")
        if self.ARITY == 3:
            for node in range(first_gate, n):
                fanin = fanins[node]
                try:
                    a, b, c = fanin  # type: ignore[misc]
                except (TypeError, ValueError):
                    _raise_bad_arity(node, fanin, 3)
                bound = node << 1  # s >> 1 < node  <=>  s < 2 * node
                if (a | b | c) < 0 or a >= bound or b >= bound or c >= bound:
                    _raise_bad_signal(node, fanin, n)  # type: ignore[arg-type]
                if not a <= b <= c:
                    raise ValueError(
                        f"gate node {node} fanin triple {fanin} is unsorted"
                    )
                if a >> 1 == b >> 1 or b >> 1 == c >> 1:
                    raise ValueError(
                        f"gate node {node} fanin triple {fanin} repeats a node "
                        "(unit rule <aab>/<aa'b> not applied)"
                    )
                if (a & 1) + (b & 1) + (c & 1) > 1:
                    raise ValueError(
                        f"gate node {node} fanin triple {fanin} has more than one "
                        "inverter (self-duality normalization not applied)"
                    )
        elif self.ARITY == 2:
            for node in range(first_gate, n):
                fanin = fanins[node]
                try:
                    a, b = fanin  # type: ignore[misc]
                except (TypeError, ValueError):
                    _raise_bad_arity(node, fanin, 2)
                bound = node << 1
                if (a | b) < 0 or a >= bound or b >= bound:
                    _raise_bad_signal(node, fanin, n)  # type: ignore[arg-type]
                if a >= b:
                    raise ValueError(
                        f"gate node {node} fanin pair {fanin} is unsorted"
                    )
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
        else:
            raise ValueError(f"unsupported gate arity {self.ARITY}")
        for fanin, node in self._strash.items():
            if not first_gate <= node < n or fanins[node] != fanin:
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

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------

    def _reachable_gates(self) -> list[int]:
        """Gate nodes reachable from the outputs, in topological order.

        One sweep from the last gate down: a gate is live when an output
        or a live gate reads it, and every reader of a gate comes after
        it, so one reverse pass per arity marks the whole cone.
        """
        fanins = self._fanins
        first_gate = self.num_pis + 1
        live = bytearray(len(fanins))
        for s in self._outputs:
            live[s >> 1] = 1
        if self.ARITY == 3:
            for node in range(len(fanins) - 1, first_gate - 1, -1):
                if live[node]:
                    a, b, c = fanins[node]  # type: ignore[misc]
                    live[a >> 1] = 1
                    live[b >> 1] = 1
                    live[c >> 1] = 1
        elif self.ARITY == 2:
            for node in range(len(fanins) - 1, first_gate - 1, -1):
                if live[node]:
                    a, b = fanins[node]  # type: ignore[misc]
                    live[a >> 1] = 1
                    live[b >> 1] = 1
        else:
            raise ValueError(f"unsupported gate arity {self.ARITY}")
        return [node for node in range(first_gate, len(fanins)) if live[node]]

    def cleanup(self) -> "Network":
        """Return a copy with dead gates removed (reachable cone only).

        A renumbering walk: the reachable gates keep their relative
        order, the PIs map to themselves, and each gate's fanin tuple is
        copied with its signals renumbered, in one loop per arity.
        Precondition: every gate was built through the facade
        constructors (``Mig.maj`` / ``Aig.and_``), which is what
        :meth:`check` verifies.  Such gates are sorted, free of
        unit-rule residue, inverter-normalized and strash-unique, and a
        monotonic renumbering keeps all four, so the copy is what
        rebuilding every gate through the constructor would give,
        without re-applying any normalization.
        """
        new = type(self).like(self)
        fanins = self._fanins
        # mapping[old_node] = uncomplemented new signal of that node
        mapping = [0] * len(fanins)
        for i in range(1, self.num_pis + 1):
            mapping[i] = i << 1
        new_fanins = new._fanins
        strash = new._strash
        idx = len(new_fanins)
        if self.ARITY == 3:
            for node in self._reachable_gates():
                a, b, c = fanins[node]  # type: ignore[misc]
                mapped = (
                    mapping[a >> 1] | (a & 1),
                    mapping[b >> 1] | (b & 1),
                    mapping[c >> 1] | (c & 1),
                )
                new_fanins.append(mapped)
                strash[mapped] = idx
                mapping[node] = idx << 1
                idx += 1
        else:
            for node in self._reachable_gates():
                a, b = fanins[node]  # type: ignore[misc]
                mapped = (mapping[a >> 1] | (a & 1), mapping[b >> 1] | (b & 1))
                new_fanins.append(mapped)
                strash[mapped] = idx
                mapping[node] = idx << 1
                idx += 1
        add_po = new.add_po
        for s, name in zip(self._outputs, self._output_names):
            add_po(mapping[s >> 1] | (s & 1), name)
        return new

    def clone(self) -> "Network":
        """Return a deep copy."""
        new = type(self)(name=self.name)
        new._fanins = list(self._fanins)
        new._pi_names = list(self._pi_names)
        new._outputs = list(self._outputs)
        new._output_names = list(self._output_names)
        new._strash = dict(self._strash)
        return new

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, pis={self.num_pis}, "
            f"pos={self.num_pos}, gates={self.num_gates})"
        )
