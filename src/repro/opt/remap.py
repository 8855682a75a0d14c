"""Mapped-then-reoptimized round trips: resynthesis through the mapper.

The paper's Table IV maps the optimized MIGs onto a standard-cell
library; a natural follow-up experiment is the *round trip* — map the
network, then rebuild an MIG from the mapped cover and optimize again.
The cover is a functionally equivalent restructuring of the network
along completely different cut boundaries than the rewriter chose, so a
subsequent functional-hashing pass sees fresh cuts (the "reshaping
algorithms" the paper's closing remark speculates about).

:func:`remap_resynth` is exposed to flow scripts as the ``remap`` step::

    migopt flow --generate adder --script BF,remap,BF
"""

from __future__ import annotations

from ..core.mig import CONST0, Mig, make_signal
from ..core.truth_table import tt_extend
from ..database.npn_db import NpnDatabase
from ..mapping.library import CellLibrary
from ..mapping.mapper import map_mig

__all__ = ["remap_resynth"]


def remap_resynth(
    mig: Mig,
    db: NpnDatabase,
    library: CellLibrary | None = None,
    cut_size: int = 4,
    cut_limit: int = 10,
) -> Mig:
    """Map *mig* and resynthesize an MIG from the mapped cover.

    Each cell of the cover computes one cut function, whose table the
    mapping carries; the new network instantiates the database's
    minimum MIG for exactly that function over the cell's leaves
    (Algorithm 1's rebuild step, applied to the mapper's cut choice
    instead of the rewriter's).  The result is
    functionally equivalent by construction and typically *worse* in
    size than the input — the value is the fresh structure it hands the
    next optimization step, not the intermediate itself.
    """
    result = map_mig(mig, library=library, cut_size=cut_size, cut_limit=cut_limit)
    new = Mig.like(mig)
    mapping: dict[int, int] = {0: CONST0}
    for i in range(1, mig.num_pis + 1):
        mapping[i] = make_signal(i)
    # Node ids are topological, so ascending order visits leaves first;
    # every gate leaf of a cover cell is itself covered by construction.
    width = db.num_vars
    for node in sorted(result.cover):
        _, leaves = result.cover[node]
        tt_wide = tt_extend(result.functions[node], len(leaves), width)
        leaf_signals = [mapping[leaf] for leaf in leaves]
        leaf_signals += [CONST0] * (width - len(leaf_signals))
        mapping[node] = db.rebuild(new, tt_wide, leaf_signals)
    for s, name in zip(mig.outputs, mig.output_names):
        new.add_po(mapping[s >> 1] ^ (s & 1), name)
    return new
