"""Tests for the Theorem 2 size bound and the synthesis lower bounds."""

from __future__ import annotations

import random

import pytest

from repro.core.truth_table import tt_mask, tt_var
from repro.exact.bounds import (
    mig_size_lower_bound,
    optimal_mig_from_table,
    optimal_small_migs,
    shannon_upper_bound_mig,
    theorem2_bound,
)
from repro.exact.synthesis import ExactSynthesizer


class TestBoundFormula:
    def test_paper_values(self):
        """C(4) <= 7, C(5) <= 17, C(6) <= 37, C(7) <= 77."""
        assert theorem2_bound(4) == 7
        assert theorem2_bound(5) == 17
        assert theorem2_bound(6) == 37
        assert theorem2_bound(7) == 77

    def test_recurrence(self):
        """The bound satisfies C(n+1) <= 2*C(n) + 3 with equality."""
        for n in range(4, 10):
            assert theorem2_bound(n + 1) == 2 * theorem2_bound(n) + 3

    def test_relaxed_base(self):
        assert theorem2_bound(4, base_cost=9) == 9
        assert theorem2_bound(5, base_cost=9) == 21

    def test_below_four_rejected(self):
        with pytest.raises(ValueError):
            theorem2_bound(3)


class TestShannonConstruction:
    def test_five_variable_functions(self, db):
        rng = random.Random(3)
        base = max(entry.size for entry in db.entries.values())
        bound = theorem2_bound(5, base_cost=base)
        for _ in range(10):
            spec = rng.getrandbits(32)
            mig = shannon_upper_bound_mig(spec, 5, db)
            assert mig.simulate()[0] == spec
            assert mig.num_gates <= bound

    def test_six_variable_functions(self, db):
        rng = random.Random(4)
        base = max(entry.size for entry in db.entries.values())
        bound = theorem2_bound(6, base_cost=base)
        for _ in range(4):
            spec = rng.getrandbits(64)
            mig = shannon_upper_bound_mig(spec, 6, db)
            assert mig.simulate()[0] == spec
            assert mig.num_gates <= bound

    def test_degenerate_function_collapses(self, db):
        # A 5-var function not depending on x4 costs no Shannon step.
        spec5 = tt_var(5, 0) & tt_var(5, 1)
        mig = shannon_upper_bound_mig(spec5, 5, db)
        assert mig.simulate()[0] == spec5
        assert mig.num_gates <= 7

    def test_small_n_rejected(self, db):
        with pytest.raises(ValueError):
            shannon_upper_bound_mig(0x8, 3, db)

    def test_out_of_range_spec(self, db):
        with pytest.raises(ValueError):
            shannon_upper_bound_mig(1 << 32, 5, db)


def _sat_only(conflict_budget=500_000, **kw):
    """An independent oracle: per-size SAT with every fast path off."""
    return ExactSynthesizer(
        use_lower_bound=False, carry_rows=False,
        conflict_budget=conflict_budget, **kw,
    )


class TestSmallMigTable:
    def test_every_three_var_witness_is_correct(self):
        """Exhaustive: all 3-var witnesses simulate to their key."""
        table = optimal_small_migs(3)
        assert len(table) == 152  # 256 functions - 8 trivial - 96 of size 4
        for spec, witness in table.items():
            mig = optimal_mig_from_table(spec, 3)
            assert mig.simulate()[0] == spec
            assert mig.num_gates == len(witness)

    def test_three_var_sizes_match_sat(self):
        """Table sizes agree with SAT-only synthesis on every 3-var class.

        Combined with the NPN closure of minimum size this covers all 256
        functions; the exhaustive non-class check ran during development.
        """
        from repro.core.npn import enumerate_npn_classes

        table = optimal_small_migs(3)
        for rep in enumerate_npn_classes(3):
            result = _sat_only().synthesize(rep, 3)
            assert result.proven
            if result.size == 0:
                assert rep not in table
            elif result.size <= 3:
                assert len(table[rep]) == result.size, hex(rep)
            else:
                assert rep not in table, hex(rep)

    def test_four_var_witnesses_simulate(self):
        table = optimal_small_migs(4)
        for spec in sorted(table)[::37]:  # deterministic sample
            mig = optimal_mig_from_table(spec, 4)
            assert mig.simulate()[0] == spec
            assert mig.num_gates == len(table[spec])

    def test_four_var_out_of_table_is_unsat_below_four(self):
        """Sizes 1-3 are refuted by SAT for specs the table excludes."""
        rng = random.Random(11)
        table = optimal_small_migs(4)
        mask = tt_mask(4)
        trivial = {0, mask}
        for i in range(4):
            trivial |= {tt_var(4, i), tt_var(4, i) ^ mask}
        picked = 0
        while picked < 3:
            spec = rng.getrandbits(16)
            if spec in table or spec in trivial:
                continue
            picked += 1
            result = _sat_only(max_gates=3).synthesize(spec, 4)
            assert result.mig is None
            assert all(
                v == "unsat" for k, v in result.k_outcomes.items() if k >= 1
            ), (hex(spec), result.k_outcomes)

    def test_trivial_functions_materialize(self):
        mask = tt_mask(4)
        for spec in (0, mask, tt_var(4, 2), tt_var(4, 2) ^ mask):
            mig = optimal_mig_from_table(spec, 4)
            assert mig is not None and mig.num_gates == 0
            assert mig.simulate()[0] == spec

    def test_out_of_range_spec(self):
        with pytest.raises(ValueError):
            optimal_mig_from_table(1 << 16, 4)


class TestLowerBound:
    def test_exact_for_table_sizes(self):
        # XOR2 embedded in 3 vars: size 3; MAJ: size 1; AND: size 1.
        assert mig_size_lower_bound(tt_var(3, 0) ^ tt_var(3, 1), 3) == 3
        assert mig_size_lower_bound(tt_var(3, 0) & tt_var(3, 1), 3) == 1
        assert mig_size_lower_bound(0, 3) == 0
        assert mig_size_lower_bound(tt_mask(4), 4) == 0

    def test_four_past_table_on_four_vars(self):
        # 0x1668 is outside the <=3-gate table: the bound starts SAT at 4.
        assert mig_size_lower_bound(0x1668, 4) == 4

    def test_support_bound(self):
        # A function reading all 8 variables needs >= ceil(7/2) = 3 gates
        # even before any membership test (k gates read <= 2k+1 inputs).
        spec = 0
        for i in range(8):
            spec ^= tt_var(8, i)
        assert mig_size_lower_bound(spec, 8) >= 3

    def test_seven_inputs_use_the_table_of_the_support(self):
        # XOR2 and MAJ3 embedded in 7 variables keep their exact sizes.
        assert mig_size_lower_bound(tt_var(7, 2) ^ tt_var(7, 6), 7) == 3
        maj = (
            (tt_var(7, 0) & tt_var(7, 3))
            | (tt_var(7, 0) & tt_var(7, 5))
            | (tt_var(7, 3) & tt_var(7, 5))
        )
        assert mig_size_lower_bound(maj, 7) == 1
        assert optimal_mig_from_table(maj, 7) is None


class TestNpn5Table:
    """n = 5 consults the packaged NPN-5 table of at most four gates."""

    REP = 0x33CC3  # a four-gate class whose heuristic MIG has 11 gates

    def test_representative_is_a_dict_probe(self, monkeypatch):
        import repro.exact.bounds as bounds

        def no_canonization(*args):
            raise AssertionError("a representative must not be canonized")

        monkeypatch.setattr(bounds, "npn_canonize", no_canonization)
        mig = optimal_mig_from_table(self.REP, 5)
        assert mig.simulate()[0] == self.REP and mig.num_gates == 4
        assert mig_size_lower_bound(self.REP, 5) == 4

    def test_class_member_rebuilds_through_its_transform(self):
        from repro.core.npn import NPNTransform, apply_transform

        spec = apply_transform(self.REP, NPNTransform((3, 0, 4, 1, 2), 0b10110, True), 5)
        assert spec != self.REP
        mig = optimal_mig_from_table(spec, 5)
        assert mig.simulate()[0] == spec and mig.num_gates == 4
        assert mig_size_lower_bound(spec, 5) == 4
        result = ExactSynthesizer().synthesize(spec, 5)
        assert (result.size, result.proven, result.conflicts) == (4, True, 0)
        assert result.k_outcomes[4] == "table"

    def test_uncovered_class_starts_sat_at_five(self):
        spec = 0x696969  # 5-input class whose minimum exceeds four gates
        assert optimal_mig_from_table(spec, 5) is None
        assert mig_size_lower_bound(spec, 5) == 5
        result = ExactSynthesizer(conflict_budget=50, max_gates=5).synthesize(spec, 5)
        assert [result.k_outcomes[k] for k in range(1, 5)] == ["skipped"] * 4
        assert result.k_outcomes[5] in ("sat", "unsat", "unknown")

    def test_nothing_loads_at_import(self):
        import subprocess
        import sys

        code = (
            "import repro.opt.flow\n"
            "import repro.exact.bounds as b\n"
            "print(b.npn5_table.cache_info().currsize,"
            " b.optimal_small_migs.cache_info().currsize)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["0", "0"]
