"""Tests for mapped-netlist materialization — the mapper's functional proof."""

from __future__ import annotations

import pytest

from repro.core.mig import Mig
from repro.generators import epfl
from repro.mapping.mapper import map_mig
from repro.mapping.netlist import materialize


class TestMaterialization:
    def test_full_adder_netlist_verifies(self, full_adder):
        result = map_mig(full_adder)
        netlist = materialize(full_adder, result)
        assert netlist.verify()
        assert netlist.num_cells == result.num_cells
        assert netlist.area == pytest.approx(result.area)

    def test_suite_netlists_verify(self, suite_small):
        for mig in suite_small:
            if mig.num_pis > 14:
                continue
            result = map_mig(mig)
            netlist = materialize(mig, result)
            assert netlist.verify(), mig.name

    def test_depth_matches_mapper(self, full_adder):
        result = map_mig(full_adder)
        netlist = materialize(full_adder, result)
        assert netlist.depth() == result.depth

    def test_cell_usage_accounts_for_everything(self):
        mig = epfl.multiplier(4)
        result = map_mig(mig)
        netlist = materialize(mig, result)
        assert sum(netlist.cell_usage().values()) == netlist.num_cells
        assert all(count > 0 for count in netlist.cell_usage().values())

    def test_optimized_netlist_verifies(self, db):
        from repro.rewriting import functional_hashing

        mig = epfl.square_root(5)
        optimized = functional_hashing(mig, db, "BF")
        result = map_mig(optimized)
        netlist = materialize(optimized, result)
        assert netlist.verify()

    def test_wide_simulation_rejected(self):
        mig = epfl.max4(4)  # 16 PIs
        result = map_mig(mig)
        netlist = materialize(mig, result)
        with pytest.raises(ValueError):
            netlist.simulate()

    def test_corrupted_cover_rejected(self, full_adder):
        from repro.mapping.library import Cell
        from repro.core.truth_table import tt_var

        result = map_mig(full_adder)
        node = next(iter(result.cover))
        _, leaves = result.cover[node]
        # Bind a cell from the wrong NPN class.
        wrong = Cell("bogus_xor", 2, tt_var(2, 0) ^ tt_var(2, 1), 1.0)
        result.cover[node] = (wrong, leaves)
        with pytest.raises(ValueError):
            materialize(full_adder, result)


def majority_chain(length: int, num_pis: int = 5) -> Mig:
    """A chain of *length* majority gates, each fed by the previous one."""
    mig = Mig(num_pis)
    x = mig.pi_signals()
    s = x[0]
    for i in range(length):
        s = mig.maj(s, x[(i + 1) % num_pis], x[(i + 2) % num_pis] ^ (i & 1))
    mig.add_po(s)
    return mig


class TestDeepCover:
    def test_chain_cover_levels_and_simulates_without_recursion(self):
        # 8,000 gates over 5 inputs map to a cover thousands of cells
        # deep: depth() and simulate() walk it in node order, not by
        # one Python call per cell level.
        mig = majority_chain(8000)
        assert mig.num_gates == 8000
        result = map_mig(mig)
        netlist = materialize(mig, result)
        assert netlist.depth() == result.depth > 4000
        assert netlist.verify()
