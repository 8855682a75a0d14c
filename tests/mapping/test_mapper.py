"""Tests for cut-based technology mapping (Table IV substrate)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.mig import Mig
from repro.core.truth_table import tt_extend
from repro.generators import GENERATORS, resolve_generator
from repro.mapping.library import default_library
from repro.mapping.mapper import map_mig

#: ``map_mig`` covers of every registered generator at its default size,
#: captured from the mapper that re-simulated each cut cone and matched
#: one cut at a time: ``{name: {area, depth, num_cells, cover}}`` with
#: ``cover`` a sorted list of ``[node, cell name, leaves]``.
GOLDEN_PATH = Path(__file__).with_name("map_covers_golden.json")


class TestMapping:
    def test_full_adder_maps(self, full_adder):
        result = map_mig(full_adder)
        assert result.area > 0
        assert result.depth >= 1
        assert result.num_cells >= 2  # sum + carry

    def test_suite_maps(self, suite_small):
        for mig in suite_small:
            result = map_mig(mig)
            assert result.num_cells > 0, mig.name
            assert result.depth <= mig.depth() + 1

    def test_cover_is_consistent(self, full_adder):
        """Every cover entry's cut function must match its cell's class."""
        from repro.core.npn import npn_representative

        lib = default_library()
        result = map_mig(full_adder, lib)
        for node, (cell, leaves) in result.cover.items():
            tt = full_adder.cut_function(node, leaves)
            assert result.functions[node] == tt
            tt4 = tt_extend(tt, len(leaves), 4)
            matched = lib.match(tt4)
            assert matched is not None
            assert npn_representative(tt_extend(cell.function, cell.num_inputs, 4), 4) == \
                npn_representative(tt4, 4)

    def test_outputs_covered(self, suite_small):
        mig = suite_small[0]
        result = map_mig(mig)
        for s in mig.outputs:
            node = s >> 1
            if mig.is_gate(node):
                assert node in result.cover

    def test_maj_direct_cut_guarantees_coverage(self):
        """Any MIG maps because MAJ3 is in the library."""
        mig = Mig(3)
        a, b, c = mig.pi_signals()
        mig.add_po(mig.maj(a, b, c))
        result = map_mig(mig)
        assert result.num_cells == 1

    def test_area_improves_with_optimization(self, db, suite_small):
        """Mapping an optimized network should not cost more area (usually)."""
        from repro.rewriting import functional_hashing

        mig = suite_small[5]  # sqrt: large gains available
        before = map_mig(mig)
        optimized = functional_hashing(mig, db, "BF")
        after = map_mig(optimized)
        assert after.area <= before.area

    def test_str_result(self, full_adder):
        text = str(map_mig(full_adder))
        assert "area=" in text and "depth=" in text


class TestGoldenCovers:
    def test_covers_match_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert sorted(golden) == sorted(GENERATORS)
        for name, expected in golden.items():
            mig = resolve_generator(name)
            result = map_mig(mig)
            cover = [
                [node, cell.name, list(leaves)]
                for node, (cell, leaves) in sorted(result.cover.items())
            ]
            assert cover == expected["cover"], name
            assert result.area == expected["area"], name
            assert result.depth == expected["depth"], name
            assert result.num_cells == expected["num_cells"], name

    def test_cover_functions_match_cone_simulation(self, suite_small):
        for mig in suite_small:
            result = map_mig(mig)
            assert sorted(result.functions) == sorted(result.cover)
            for node, (_, leaves) in result.cover.items():
                assert result.functions[node] == mig.cut_function(node, leaves)
