"""A small generic standard-cell library for technology mapping.

Table IV of the paper reports area/depth after mapping with ABC onto a
standard-cell library.  As a substitute (DESIGN.md §4) we provide a
compact generic library; what matters for the reproduction is that the
same mapper and library are applied to every optimization variant, so
that *relative* area/depth across variants is meaningful.

Cells are matched by the NPN class of their function (up to 4 inputs):
edge inverters are treated as free during matching, a common
simplification that is uniform across all variants.  Cell areas are
loosely modelled on typical NAND2-equivalent gate areas.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.npn import npn_canonize_batch, npn_representative
from ..core.truth_table import tt_extend, tt_maj, tt_mask, tt_not, tt_var

__all__ = ["Cell", "CellLibrary", "default_library"]


@dataclass(frozen=True)
class Cell:
    """One library cell: function (truth table), geometry, timing."""

    name: str
    num_inputs: int
    function: int  # truth table over num_inputs variables
    area: float
    delay: float = 1.0


class CellLibrary:
    """A set of cells indexed by the NPN class of their function."""

    def __init__(self, cells: list[Cell], match_vars: int = 4) -> None:
        self.cells = list(cells)
        self.match_vars = match_vars
        self._by_class: dict[int, Cell] = {}
        for cell in cells:
            extended = tt_extend(cell.function, cell.num_inputs, match_vars)
            rep = npn_representative(extended, match_vars)
            best = self._by_class.get(rep)
            if best is None or cell.area < best.area:
                self._by_class[rep] = cell

    def match(self, tt: int) -> Cell | None:
        """Return the cheapest cell whose NPN class matches *tt* (over match_vars)."""
        return self.match_batch([tt])[tt]

    def match_batch(self, tts) -> dict[int, Cell | None]:
        """The cheapest cell of each table's NPN class, in one sweep.

        Returns ``{tt: cell or None}`` over the distinct tables of *tts*
        (any sequence or array of ``match_vars``-input tables), all of
        them canonized by one ``npn_canonize_batch`` call.
        """
        tt_list = [int(tt) for tt in tts]
        by_class = self._by_class
        return {
            tt: by_class.get(rep)
            for tt, (rep, _) in zip(
                tt_list, npn_canonize_batch(tt_list, self.match_vars)
            )
        }

    def __len__(self) -> int:
        return len(self.cells)


def default_library() -> CellLibrary:
    """The default generic library used by the Table IV benchmarks."""
    n = 4
    mask2 = tt_mask(2)
    a2, b2 = tt_var(2, 0), tt_var(2, 1)
    a3, b3, c3 = tt_var(3, 0), tt_var(3, 1), tt_var(3, 2)
    mask3 = tt_mask(3)
    a4, b4, c4, d4 = (tt_var(4, i) for i in range(4))

    cells = [
        Cell("inv", 1, tt_not(tt_var(1, 0), 1), 1.0),
        Cell("nand2", 2, tt_not(a2 & b2, 2), 2.0),
        Cell("nor2", 2, tt_not(a2 | b2, 2), 2.0),
        Cell("xor2", 2, a2 ^ b2, 5.0),
        Cell("nand3", 3, tt_not(a3 & b3 & c3, 3), 3.0),
        Cell("nor3", 3, tt_not(a3 | b3 | c3, 3), 3.0),
        Cell("aoi21", 3, tt_not((a3 & b3) | c3, 3), 3.0),
        Cell("oai21", 3, tt_not((a3 | b3) & c3, 3), 3.0),
        Cell("maj3", 3, tt_maj(a3, b3, c3), 5.0),
        Cell("mux2", 3, (c3 & a3) | ((c3 ^ mask3) & b3), 5.0),
        Cell("xor3", 3, a3 ^ b3 ^ c3, 8.0),
        Cell("nand4", 4, tt_not(a4 & b4 & c4 & d4, 4), 4.0),
        Cell("nor4", 4, tt_not(a4 | b4 | c4 | d4, 4), 4.0),
        Cell("aoi22", 4, tt_not((a4 & b4) | (c4 & d4), 4), 4.0),
        Cell("oai22", 4, tt_not((a4 | b4) & (c4 | d4), 4), 4.0),
        Cell("and2or2", 4, (a4 & b4) | c4 | d4, 4.5),
        Cell("maj3x", 4, tt_maj(a4, b4, c4) ^ d4, 9.0),
        Cell("fa_sum", 3, a3 ^ b3 ^ c3, 8.0),
    ]
    return CellLibrary(cells, match_vars=n)
