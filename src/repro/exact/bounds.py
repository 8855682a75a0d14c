"""MIG size bounds: the Theorem 2 upper bound and synthesis lower bounds.

The paper proves ``C(n) <= 10 * (2**(n-4) - 1) + 7`` for ``n >= 4`` by
induction: the base case is the exhaustively computed worst 4-variable
cost (7 majority gates), and the step is Shannon's expansion written in
majority form::

    f = <1 <0 x' f_x'> <0 x f_x>>        (3 extra gates per variable)

:func:`shannon_upper_bound_mig` implements exactly this construction, so
the bound can be validated experimentally for ``n > 4``
(``benchmarks/bench_theorem2.py``).

:func:`mig_size_lower_bound` is the other direction, used by the exact
synthesis driver to *start* the size loop above sizes that provably
cannot work instead of refuting them with SAT calls:

* support counting — a connected single-output MIG with ``k`` majority
  gates has ``3k`` operand slots of which at least ``k - 1`` feed later
  gates, so it reads at most ``2k + 1`` distinct primary inputs;
* exhaustive membership in the witness tables below: exact for every
  function a table covers, one past the table's reach for the rest.

The tables come from one exhaustive enumerator,
:class:`SmallMigEnumeration`.  Its level ``k`` holds every distinct
sorted tuple of ``k`` gate keys; a key is a gate's complement-normalized
truth table with its depth.  Each new gate reads three distinct earlier
nodes (the constant, an input or an earlier gate) under four polarity
patterns — majority's self-duality covers the other four — and
back-pointers rebuild, for every function reached, a witness of minimum
size and, among those, of minimum depth.  For a covered function the
minimum size is *known* and a witness is rebuilt without any SAT call;
for any other the synthesis size loop starts at the first uncovered
size.  The reach depends on the arity:

* ``n <= 4``: every function of at most three gates, enumerated once
  per process on first use (:func:`optimal_small_migs`);
* ``n = 5``: every NPN class of at most four gates — 2, 6, 41 and 307
  classes at 1–4 gates, 515 948 non-trivial complement-normalized
  functions — read
  on first use from the packaged ``npn5_le4.jsonl`` (:func:`npn5_table`),
  which ``python -m repro.exact.bounds`` regenerates byte for byte;
* ``n = 6``: every function of at most two gates, in process.  A truth
  table fills all 64 bits there, so the depth is not part of the key
  and witnesses are minimum in size only;
* ``n > 6``: no table; the lower bound projects a function onto its
  support and uses the table of that arity when it has at most six
  inputs.

This is the amortization the paper applies to its NPN database: the
tables are a function of ``n`` only, shared by every synthesis call.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from ..core.mig import CONST0, CONST1, Mig, make_signal, signal_not
from ..core.npn import identity_transform, npn_canonize, npn_orbit
from ..core.truth_table import (
    tt_cofactor0,
    tt_cofactor1,
    tt_maj,
    tt_mask,
    tt_shrink_to_support,
    tt_support,
    tt_var,
)
from ..database.npn_db import DbEntry, NpnDatabase

__all__ = [
    "theorem2_bound",
    "shannon_upper_bound_mig",
    "mig_size_lower_bound",
    "optimal_mig_from_table",
    "consult_tables",
    "optimal_small_migs",
    "SmallMigEnumeration",
    "npn5_table",
    "write_npn5_table",
    "NPN5_TABLE_GATES",
]


def theorem2_bound(num_vars: int, base_cost: int = 7) -> int:
    """The Theorem 2 bound ``10 * (2**(n-4) - 1) + 7`` for ``n >= 4``.

    *base_cost* is the worst-case 4-variable MIG size; pass the maximum
    size found in a (possibly unproven) database to get the corresponding
    relaxed bound ``(base_cost + 3) * (2**(n-4) - 1) + base_cost``.
    """
    if num_vars < 4:
        raise ValueError("Theorem 2 is stated for n >= 4")
    return (base_cost + 3) * (2 ** (num_vars - 4) - 1) + base_cost


def shannon_upper_bound_mig(spec: int, num_vars: int, db: NpnDatabase) -> Mig:
    """Build an MIG for *spec* via the Theorem 2 Shannon construction.

    Variables above the 4th are expanded one at a time with the 3-gate
    majority form of Shannon's expansion; 4-variable leaves come from the
    NPN database.  The resulting size respects
    :func:`theorem2_bound` with ``base_cost`` the database maximum.
    """
    if num_vars < 4:
        raise ValueError("use the database directly for n <= 4")
    if spec < 0 or spec > tt_mask(num_vars):
        raise ValueError(f"spec 0x{spec:x} out of range for {num_vars} variables")
    mig = Mig(num_vars)

    def build(tt: int, top_var: int) -> int:
        """Implement *tt* over variables 0..top_var (inclusive)."""
        if top_var < 4:
            leaves = [make_signal(1 + i) for i in range(4)]
            return db.rebuild(mig, tt & tt_mask(4), leaves)
        f0 = tt_cofactor0(tt, top_var, top_var + 1) & tt_mask(top_var)
        f1 = tt_cofactor1(tt, top_var, top_var + 1) & tt_mask(top_var)
        x = make_signal(1 + top_var)
        if f0 == f1:
            return build(f0, top_var - 1)
        low = build(f0, top_var - 1)
        high = build(f1, top_var - 1)
        # <1 <0 x' f0> <0 x f1>>
        left = mig.maj(CONST0, signal_not(x), low)
        right = mig.maj(CONST0, x, high)
        return mig.maj(CONST1, left, right)

    mig.add_po(build(spec, num_vars - 1), "f")
    return mig.cleanup()


# A witness is a tuple of gates; each gate is a triple of operand
# signals ``2 * node + complemented`` where node 0 is the constant,
# 1..n are primary inputs and n+1, n+2, ... are earlier witness gates.
# The last gate computes the function.
Witness = tuple[tuple[int, int, int], ...]

#: the operand complements a new gate tries; self-duality,
#: maj(~a, ~b, ~c) = ~maj(a, b, c), yields the other four up to the
#: output complement, which normalization drops
_POLARITIES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))

#: candidate gates evaluated per numpy block, to bound the temporaries
_BLOCK = 1 << 20

#: the packaged table holds every NPN-5 class of at most this many gates
NPN5_TABLE_GATES = 4
#: its class counts by gate count
_NPN5_TABLE_CLASSES = {1: 2, 2: 6, 3: 41, 4: 307}
_NPN5_TABLE_RESOURCE = "npn5_le4.jsonl"


def _table_gates(num_vars: int) -> int:
    """Gate reach of the in-process table for *num_vars* inputs."""
    return 3 if num_vars <= 4 else 2


@lru_cache(maxsize=None)
def _triples(num_nodes: int) -> np.ndarray:
    """Every triple of distinct nodes, ordered by its largest node.

    The triples over ``m`` nodes are a prefix of those over ``m + 1``,
    so an operand choice keeps its index from level to level, and the
    triples that read no gate come first.
    """
    rows = [
        (i, j, k)
        for k in range(2, num_nodes)
        for i, j in itertools.combinations(range(k), 2)
    ]
    return np.array(rows, dtype=np.intp).reshape(-1, 3)


def _majorities(a, b, c, mask):
    """Gate functions of operands *a*, *b*, *c*, one per polarity pattern."""
    out = []
    for pa, pb, pc in _POLARITIES:
        x, y, z = (a ^ mask if pa else a), (b ^ mask if pb else b), (c ^ mask if pc else c)
        out.append((x & (y | z)) | (y & z))
    return np.stack(out, axis=-1)


def _least_depth_first(tts, depths, origins):
    """Per truth table, the candidate of least depth, the earliest on ties."""
    order = np.lexsort((origins, depths, tts))
    tts, depths, origins = tts[order], depths[order], origins[order]
    first = np.ones(tts.size, dtype=bool)
    first[1:] = tts[1:] != tts[:-1]
    return tts[first], depths[first], origins[first]


class SmallMigEnumeration:
    """Every function of at most ``max_gates`` majority gates, with witnesses.

    ``tts`` holds the complement-normalized truth tables (minterm 0
    clear) of every non-trivial function reached, sorted; ``sizes`` and
    ``depths`` give, per function, its minimum gate count and the least
    depth among witnesses of that size.  :meth:`witness` rebuilds a
    witness from the back-pointers.
    """

    def __init__(self, num_vars: int, max_gates: int) -> None:
        if not 1 <= num_vars <= 6:
            raise ValueError("the enumerator handles 1 to 6 inputs (64-bit tables)")
        self.num_vars = num_vars
        self.max_gates = max_gates
        self.mask = tt_mask(num_vars)
        leaves = [0] + [tt_var(num_vars, i) for i in range(num_vars)]
        self._leaves = np.array(leaves, dtype=np.uint64)
        self._leaf_values = [(leaf, 0) for leaf in leaves]
        # Level L holds, per state, the truth tables and depths of its L
        # gates (sorted by key) and the back-pointer ``parent * ops + op``
        # into level L - 1 that built it.
        self._levels = [
            (np.zeros((1, 0), np.uint64), np.zeros((1, 0), np.uint8), np.full(1, -1))
        ]
        reached = self._leaves
        found = []
        for level in range(max_gates):
            last = level == max_gates - 1
            tts, depths, origins, states = self._expand(level, np.sort(reached), last)
            found.append((tts, np.full(tts.size, level + 1, np.uint8), depths, origins))
            reached = np.concatenate([reached, tts])
            if not last:
                self._levels.append(states)
        tts, sizes, depths, origins = (np.concatenate(col) for col in zip(*found))
        order = np.argsort(tts)
        self.tts = tts[order]
        self.sizes = sizes[order]
        self.depths = depths[order]
        self._origins = origins[order]

    def _expand(self, level: int, known: np.ndarray, last: bool):
        """Add one gate to every state of *level*.

        Returns the functions first reached there (truth tables, least
        depths, back-pointers) and, unless *last*, the next level.
        """
        n = self.num_vars
        mask = np.uint64(self.mask)
        # Keys pack the depth above the truth table while it leaves room.
        shift = np.uint64(1 << n) if n < 6 else None
        state_tts, state_depths, _ = self._levels[level]
        triples = _triples(1 + n + level)
        num_ops = 4 * len(triples)
        # Past the first gate a new function reads a gate: in the last
        # level, skip the triples of leaves alone.
        skip = len(_triples(1 + n)) if last and level else 0
        used = triples[skip:]
        # New functions per block, reduced once they pile up: most
        # candidates are known functions, so the pile grows slowly.
        fresh = [(np.zeros(0, np.uint64), np.zeros(0, np.uint8), np.zeros(0, np.int64))]
        piled = 0
        width = level + 1
        rows = [(
            np.zeros((0, width), np.uint64),
            np.zeros((0, width), np.uint64),
            np.zeros((0, width), np.uint8),
            np.zeros(0, np.int64),
        )]
        block = max(1, _BLOCK // max(1, 4 * len(used)))
        for lo in range(0, len(state_tts), block):
            hi = min(lo + block, len(state_tts))
            nodes = np.empty((hi - lo, 1 + n + level), np.uint64)
            nodes[:, : 1 + n] = self._leaves
            nodes[:, 1 + n :] = state_tts[lo:hi]
            node_depths = np.zeros(nodes.shape, np.uint8)
            node_depths[:, 1 + n :] = state_depths[lo:hi]
            a, b, c = (nodes[:, used[:, i]] for i in range(3))
            cand = _majorities(a, b, c, mask).reshape(hi - lo, -1)
            da, db, dc = (node_depths[:, used[:, i]] for i in range(3))
            cand_depths = np.repeat(np.maximum(np.maximum(da, db), dc) + 1, 4, axis=1)
            cand_origins = (
                np.arange(lo, hi, dtype=np.int64)[:, None] * num_ops
                + 4 * skip
                + np.arange(cand.shape[1], dtype=np.int64)
            )
            pos = np.minimum(np.searchsorted(known, cand), known.size - 1)
            new = known[pos] != cand
            fresh.append((cand[new], cand_depths[new], cand_origins[new]))
            piled += fresh[-1][0].size
            if piled > 4 * _BLOCK:
                fresh = [_least_depth_first(*(np.concatenate(c) for c in zip(*fresh)))]
                piled = fresh[0][0].size
            if last:
                continue
            # A gate equal to a leaf or to a gate of its state never
            # occurs in a minimum MIG: drop those states.
            keep = (cand[:, :, None] != nodes[:, None, :]).all(axis=2)
            s, o = np.nonzero(keep)
            t_rows = np.concatenate([nodes[s, 1 + n :], cand[s, o][:, None]], axis=1)
            d_rows = np.concatenate(
                [node_depths[s, 1 + n :], cand_depths[s, o][:, None]], axis=1
            )
            keys = t_rows if shift is None else t_rows | (d_rows.astype(np.uint64) << shift)
            order = np.argsort(keys, axis=1, kind="stable")
            keys = np.take_along_axis(keys, order, axis=1)
            _, first = np.unique(keys, axis=0, return_index=True)
            rows.append((
                keys[first],
                np.take_along_axis(t_rows, order, axis=1)[first],
                np.take_along_axis(d_rows, order, axis=1)[first],
                cand_origins[s, o][first],
            ))
        fresh = _least_depth_first(*(np.concatenate(c) for c in zip(*fresh)))
        if last:
            return (*fresh, None)
        keys, t_rows, d_rows, origins = (np.concatenate(col) for col in zip(*rows))
        _, first = np.unique(keys, axis=0, return_index=True)
        return (*fresh, (t_rows[first], d_rows[first], origins[first]))

    def index(self, tt: int) -> int | None:
        """Position of *tt* (either polarity) in :attr:`tts`, or None."""
        norm = tt ^ self.mask if tt & 1 else tt
        i = int(np.searchsorted(self.tts, np.uint64(norm)))
        return i if i < self.tts.size and int(self.tts[i]) == norm else None

    def witness(self, tt: int) -> Witness:
        """A witness for *tt* of minimum size and, among those, least depth."""
        i = self.index(tt)
        if i is None:
            raise KeyError(f"0x{tt:x} needs more than {self.max_gates} gates")
        return self._witness(tt, int(self.sizes[i]), int(self._origins[i]))

    def _witness(self, tt: int, size: int, origin: int) -> Witness:
        """Rebuild the witness of *tt* from its size and back-pointer."""
        n = self.num_vars
        steps = []
        for level in range(size - 1, -1, -1):
            triples = _triples(1 + n + level)
            state, op = divmod(origin, 4 * len(triples))
            steps.append((level, state, triples[op // 4].tolist(), _POLARITIES[op % 4]))
            origin = int(self._levels[level][2][state])
        # Replay the gates bottom up; a state's gates are found among the
        # witness nodes by their (truth table, depth).
        values = list(self._leaf_values)
        node_of: dict[tuple[int, int], int] = {}
        gates = []
        for level, state, triple, flips in reversed(steps):
            state_tts, state_depths, _ = self._levels[level]
            row = list(zip(state_tts[state].tolist(), state_depths[state].tolist()))
            operands = [
                2 * (node if node <= n else node_of[row[node - 1 - n]]) + flip
                for node, flip in zip(triple, flips)
            ]
            fanins = [values[s >> 1] for s in operands]
            value = tt_maj(
                *(v ^ (self.mask if s & 1 else 0) for (v, _), s in zip(fanins, operands))
            )
            depth = 1 + max(d for _, d in fanins)
            node_of[(value, depth)] = len(values)
            values.append((value, depth))
            gates.append(tuple(operands))
        if values[-1][0] != tt:
            # The complement: self-duality flips the root's operands.
            gates[-1] = tuple(s ^ 1 for s in gates[-1])
        return tuple(gates)

    def class_entries(self) -> list[DbEntry]:
        """One proven entry per NPN class reached, by representative.

        Minimum size is NPN-invariant, so each class's whole orbit must
        first appear at one level; a class that breaks this raises.
        """
        seen = np.zeros(self.tts.size, dtype=bool)
        entries = []
        for i in range(self.tts.size):
            if seen[i]:
                continue
            orbit = npn_orbit(int(self.tts[i]), self.num_vars)
            members = np.unique(np.where(orbit & 1, orbit ^ np.uint64(self.mask), orbit))
            where = np.minimum(np.searchsorted(self.tts, members), self.tts.size - 1)
            if (self.tts[where] != members).any() or (self.sizes[where] != self.sizes[i]).any():
                raise AssertionError(f"the NPN orbit of 0x{int(self.tts[i]):x} spans levels")
            seen[where] = True
            rep = int(orbit[0])
            gates = self.witness(rep)
            entries.append(DbEntry(
                rep=rep,
                num_vars=self.num_vars,
                size=len(gates),
                depth=int(self.depths[self.index(rep)]),
                proven=True,
                gates=gates,
                output=2 * (self.num_vars + len(gates)),
            ))
        return sorted(entries, key=lambda e: e.rep)


@lru_cache(maxsize=4)
def optimal_small_migs(num_vars: int) -> dict[int, Witness]:
    """Map truth table -> minimum witness gate list, for all small MIGs.

    Every non-trivial function of at most three gates for ``num_vars <=
    4`` and of at most two above, in both polarities, from
    :class:`SmallMigEnumeration`.  Functions of size 0 (constants and
    literals) are excluded — the synthesis driver handles them
    directly.  Witness length is the exact minimum size.
    """
    enumeration = SmallMigEnumeration(num_vars, _table_gates(num_vars))
    table: dict[int, Witness] = {}
    for tt, size, origin in zip(
        enumeration.tts.tolist(),
        enumeration.sizes.tolist(),
        enumeration._origins.tolist(),
    ):
        gates = enumeration._witness(tt, size, origin)
        table[tt] = gates
        table[tt ^ enumeration.mask] = gates[:-1] + (tuple(s ^ 1 for s in gates[-1]),)
    return table


@lru_cache(maxsize=1)
def npn5_table() -> NpnDatabase:
    """The packaged NPN-5 classes of at most four gates, read on first use.

    The lower bound of 5 for a class outside the table is sound only if
    the table is complete, so a load that skipped a line or lost a class
    raises instead of answering.
    """
    ref = resources.files("repro.database").joinpath("data", _NPN5_TABLE_RESOURCE)
    with ref.open("r", encoding="utf-8") as fp:
        table = NpnDatabase.from_jsonl(fp, 5)
    if table.skipped_lines or table.size_histogram() != _NPN5_TABLE_CLASSES:
        raise RuntimeError(
            f"{_NPN5_TABLE_RESOURCE} is incomplete: classes by size "
            f"{table.size_histogram()}, {table.skipped_lines} malformed lines; "
            "`python -m repro.exact.bounds` rewrites it"
        )
    return table


def _npn5_lookup(spec: int):
    """``(entry, transform)`` rebuilding *spec* from the NPN-5 table, or None.

    A representative costs a dict probe; any other function one
    canonization.
    """
    entries = npn5_table().entries
    entry = entries.get(spec)
    if entry is not None:
        return entry, identity_transform(5)
    rep, transform = npn_canonize(spec, 5)
    entry = entries.get(rep)
    return None if entry is None else (entry, transform)


def write_npn5_table(path: str | Path | None = None) -> NpnDatabase:
    """Enumerate every 5-input MIG of at most four gates; save one entry per class.

    *path* defaults to the packaged ``npn5_le4.jsonl`` in the source
    tree.  The output is a function of the enumeration only, so a rerun
    rewrites the file byte for byte.
    """
    if path is None:
        path = Path(__file__).resolve().parents[1] / "database" / "data" / _NPN5_TABLE_RESOURCE
    table = NpnDatabase(SmallMigEnumeration(5, NPN5_TABLE_GATES).class_entries(), 5)
    table.save(path)
    return table


def consult_tables(spec: int, num_vars: int) -> tuple[Mig | None, int]:
    """One consult of the witness tables: ``(minimum MIG or None, lower bound)``.

    When a table covers *spec*, the MIG is a provably minimum one
    rebuilt from it and the bound is its size.  Otherwise the MIG is
    None and the bound is one past the table's reach, more when the
    functional support forces it (``k`` gates read at most ``2k + 1``
    distinct inputs).  Above six inputs no table fits, so the MIG is
    None and the bound projects *spec* onto its support.  Size-0
    functions (constants and literals) are materialized with bound 0.
    """
    mask = tt_mask(num_vars)
    if spec < 0 or spec > mask:
        raise ValueError(f"spec 0x{spec:x} out of range for {num_vars} variables")
    trivial: dict[int, int] = {0: CONST0, mask: CONST1}
    for i in range(num_vars):
        v = tt_var(num_vars, i)
        trivial.setdefault(v, make_signal(1 + i))
        trivial.setdefault(v ^ mask, signal_not(make_signal(1 + i)))
    if spec in trivial:
        mig = Mig(num_vars)
        mig.add_po(trivial[spec], "f")
        return mig, 0
    support = tt_support(spec, num_vars)
    support_bound = len(support) // 2  # ceil((s - 1) / 2)
    if num_vars > 6:
        if len(support) > 6:
            return None, support_bound
        # A minimum MIG reads no input outside the support.
        shrunk = tt_shrink_to_support(spec, num_vars)[0]
        return None, consult_tables(shrunk, len(support))[1]
    if num_vars == 5:
        found = _npn5_lookup(spec)
        if found is None:
            return None, max(NPN5_TABLE_GATES + 1, support_bound)
        mig = Mig(5)
        mig.add_po(npn5_table().rebuild_entry(mig, *found, mig.pi_signals()), "f")
        return mig, found[0].size
    witness = optimal_small_migs(num_vars).get(spec)
    if witness is None:
        return None, max(_table_gates(num_vars) + 1, support_bound)
    mig = Mig(num_vars)
    node_signals = [CONST0] + [make_signal(1 + i) for i in range(num_vars)]
    for ops in witness:
        resolved = [node_signals[s >> 1] ^ (s & 1) for s in ops]
        node_signals.append(mig.maj(*resolved))
    mig.add_po(node_signals[-1], "f")
    return mig, len(witness)


def optimal_mig_from_table(spec: int, num_vars: int) -> Mig | None:
    """A provably minimum MIG for *spec* from the witness tables, or None.

    None when *spec* is not covered (its minimum size exceeds the
    table's reach, or it has more than six inputs); see
    :func:`consult_tables`.
    """
    return consult_tables(spec, num_vars)[0]


def mig_size_lower_bound(spec: int, num_vars: int) -> int:
    """A sound lower bound on the minimum majority-gate count for *spec*.

    Exact for every function a witness table covers; see
    :func:`consult_tables`.
    """
    return consult_tables(spec, num_vars)[1]


if __name__ == "__main__":
    written = write_npn5_table()
    print(f"npn5_le4.jsonl: {len(written)} classes by size {written.size_histogram()}")
