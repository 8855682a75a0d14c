"""Mapped netlists: materialization and verification of a mapping cover.

:func:`repro.mapping.mapper.map_mig` selects a cell cover; this module
turns that cover into an explicit cell-level netlist that can be
simulated and equivalence-checked against the source MIG — the mapper's
functional correctness proof used by the test-suite — and reports
area/cell-usage statistics for Table IV style analysis.

Cell instances evaluate their stored truth table after resolving the NPN
transform between the cut function and the cell function, exactly
mirroring how a physical library cell would be bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.mig import Mig
from ..core.npn import apply_transform, invert_transform, npn_canonize
from ..core.truth_table import tt_extend, tt_mask, tt_var
from .library import Cell
from .mapper import MappingResult

__all__ = ["CellInstance", "MappedNetlist", "materialize"]


@dataclass(frozen=True)
class CellInstance:
    """One bound cell: which cell, which source nodes feed it, its function.

    ``function`` is the cut's truth table over ``inputs`` (already over
    the mapper's match arity), so evaluation does not need to re-derive
    the NPN binding.
    """

    name: str
    cell: Cell
    output: int  # source-MIG node this instance implements
    inputs: tuple[int, ...]  # source-MIG nodes feeding it
    function: int  # truth table over the match arity


@dataclass
class MappedNetlist:
    """A flat cell-level netlist produced from a mapping cover."""

    source: Mig
    instances: list[CellInstance] = field(default_factory=list)

    @property
    def area(self) -> float:
        """Total cell area."""
        return sum(inst.cell.area for inst in self.instances)

    @property
    def num_cells(self) -> int:
        """Number of cell instances."""
        return len(self.instances)

    def cell_usage(self) -> dict[str, int]:
        """Instance count per library cell."""
        usage: dict[str, int] = {}
        for inst in self.instances:
            usage[inst.cell.name] = usage.get(inst.cell.name, 0) + 1
        return dict(sorted(usage.items()))

    def depth(self) -> int:
        """Longest cell path from inputs to any output.

        A cell's inputs are lower MIG nodes than its output, so one pass
        over the instances in ascending node order levels every input
        before the cells it feeds — no recursion, however deep the cover.
        """
        level: dict[int, int] = {}
        for inst in sorted(self.instances, key=lambda inst: inst.output):
            level[inst.output] = 1 + max(
                (level.get(i, 0) for i in inst.inputs), default=0
            )
        return max(
            (level.get(s >> 1, 0) for s in self.source.outputs),
            default=0,
        )

    def simulate(self) -> list[int]:
        """Exhaustively simulate the cell netlist (source PIs <= 14).

        Instances are evaluated in ascending node order, as in
        :meth:`depth`.
        """
        mig = self.source
        if mig.num_pis > 14:
            raise ValueError("exhaustive netlist simulation limited to 14 inputs")
        n = mig.num_pis
        mask = tt_mask(n)
        values: dict[int, int] = {0: 0}
        for i in range(n):
            values[1 + i] = tt_var(n, i)
        for inst in sorted(self.instances, key=lambda inst: inst.output):
            inputs = [values[i] for i in inst.inputs]
            out = 0
            width = len(inst.inputs)
            for m in range(1 << n):
                idx = 0
                for j in range(width):
                    if (inputs[j] >> m) & 1:
                        idx |= 1 << j
                if (inst.function >> idx) & 1:
                    out |= 1 << m
            values[inst.output] = out
        return [values[s >> 1] ^ (mask if s & 1 else 0) for s in mig.outputs]

    def verify(self) -> bool:
        """Check the netlist against the source MIG (exhaustive)."""
        return self.simulate() == self.source.simulate()


def materialize(mig: Mig, result: MappingResult, match_vars: int = 4) -> MappedNetlist:
    """Build a :class:`MappedNetlist` from a mapping cover.

    Each cover entry's cut function is reduced to the cut arity and stored
    with the instance; the NPN machinery only validates that the bound
    cell really is in the cut's class.
    """
    netlist = MappedNetlist(source=mig)
    for node, (cell, leaves) in sorted(result.cover.items()):
        tt = mig.cut_function(node, leaves)
        tt_m = tt_extend(tt, len(leaves), match_vars)
        # Validate the binding: the cell must be NPN-equivalent to the cut.
        cut_rep, _ = npn_canonize(tt_m, match_vars)
        cell_tt = tt_extend(cell.function, cell.num_inputs, match_vars)
        cell_rep, _ = npn_canonize(cell_tt, match_vars)
        if cut_rep != cell_rep:
            raise ValueError(
                f"cover binds node {node} to cell {cell.name!r} of a different NPN class"
            )
        netlist.instances.append(
            CellInstance(
                name=f"u{node}",
                cell=cell,
                output=node,
                inputs=tuple(leaves),
                function=tt,
            )
        )
    return netlist
