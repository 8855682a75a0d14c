"""Cut-based technology mapping onto a standard-cell library.

The Table IV experiments of the paper map the optimized MIGs with ABC and
report area and depth of the mapped circuit.  This module provides the
substitute mapper (DESIGN.md §4): classic priority-cut structural mapping
in the style of ref. [11] of the paper:

1. enumerate k-feasible cuts of every gate, reading each cut's truth
   table from the program the enumerator records,
2. match each distinct cut function against the library by NPN class,
   all of them in one canonization sweep,
3. choose, per gate, the match minimizing ``(arrival, area_flow)`` —
   depth-oriented mapping with area-flow tie-breaking,
4. extract the cover from the outputs and report exact area, cell count,
   and depth.

Edge inverters are free during matching (uniform across all variants; see
the library module).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.cuts import enumerate_cut_set
from ..core.mig import Mig
from ..core.truth_table import tt_mask
from .library import Cell, CellLibrary, default_library

__all__ = ["MappingResult", "map_mig"]


@dataclass
class MappingResult:
    """Outcome of technology mapping."""

    area: float
    depth: int
    num_cells: int
    #: chosen (cell, leaves) per covered node
    cover: dict[int, tuple[Cell, tuple[int, ...]]]
    #: truth table of each covered node over its cover leaves
    functions: dict[int, int] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"area={self.area:.1f} depth={self.depth} cells={self.num_cells}"


@dataclass
class _Match:
    cell: Cell
    leaves: tuple[int, ...]
    table: int
    arrival: int
    area_flow: float


def map_mig(
    mig: Mig,
    library: CellLibrary | None = None,
    cut_size: int = 4,
    cut_limit: int = 10,
) -> MappingResult:
    """Map *mig* onto *library*; returns area/depth of the mapped netlist."""
    if library is None:
        library = default_library()
    match_vars = library.match_vars
    cuts = enumerate_cut_set(mig, k=cut_size, cut_limit=cut_limit)
    tables = cuts.slot_tables(match_vars)
    cell_of = library.match_batch(cuts.batch_tt4s(match_vars))
    fanout = mig.fanout_counts()

    best: dict[int, _Match] = {}
    for node in mig.gates():
        node_best: _Match | None = None
        for leaves, _, _, slot in cuts.entries[node]:
            if leaves == (node,):
                continue
            tt4 = tables[slot]
            cell = cell_of[tt4]
            if cell is None:
                continue
            arrival = 0
            flow = cell.area
            feasible = True
            for leaf in leaves:
                if mig.is_gate(leaf):
                    leaf_match = best.get(leaf)
                    if leaf_match is None:
                        feasible = False
                        break
                    arrival = max(arrival, leaf_match.arrival)
                    flow += leaf_match.area_flow / max(1, fanout[leaf])
            if not feasible:
                continue
            match = _Match(cell, leaves, tt4, arrival + 1, flow)
            if node_best is None or (match.arrival, match.area_flow) < (
                node_best.arrival,
                node_best.area_flow,
            ):
                node_best = match
        if node_best is None:
            raise RuntimeError(
                f"node {node} has no library match; the library must cover MAJ3"
            )
        best[node] = node_best

    # Cover extraction from the outputs.
    cover: dict[int, tuple[Cell, tuple[int, ...]]] = {}
    functions: dict[int, int] = {}
    area = 0.0
    depth = 0
    stack = [s >> 1 for s in mig.outputs if mig.is_gate(s >> 1)]
    visited: set[int] = set()
    while stack:
        node = stack.pop()
        if node in visited:
            continue
        visited.add(node)
        match = best[node]
        cover[node] = (match.cell, match.leaves)
        # The extended table repeats the cut's own in its low bits.
        functions[node] = match.table & tt_mask(len(match.leaves))
        area += match.cell.area
        depth = max(depth, match.arrival)
        for leaf in match.leaves:
            if mig.is_gate(leaf):
                stack.append(leaf)
    return MappingResult(
        area=area, depth=depth, num_cells=len(cover), cover=cover, functions=functions
    )
