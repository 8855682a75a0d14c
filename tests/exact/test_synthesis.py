"""Tests for the exact synthesis driver."""

from __future__ import annotations

import pytest

from repro.core.npn import enumerate_npn_classes
from repro.core.truth_table import tt_mask, tt_maj, tt_var
from repro.exact.heuristic import heuristic_mig
from repro.exact.synthesis import ExactSynthesizer, synthesize_exact


class TestTrivialCases:
    def test_constant_zero(self):
        result = synthesize_exact(0, 3)
        assert result.size == 0 and result.proven
        assert result.mig.simulate()[0] == 0

    def test_constant_one(self):
        result = synthesize_exact(tt_mask(3), 3)
        assert result.size == 0 and result.proven
        assert result.mig.simulate()[0] == tt_mask(3)

    def test_projection(self):
        result = synthesize_exact(tt_var(3, 1), 3)
        assert result.size == 0
        assert result.mig.simulate()[0] == tt_var(3, 1)

    def test_complemented_projection(self):
        spec = tt_var(3, 2) ^ tt_mask(3)
        result = synthesize_exact(spec, 3)
        assert result.size == 0
        assert result.mig.simulate()[0] == spec


class TestSmallFunctions:
    def test_and_is_one_gate(self):
        result = synthesize_exact(tt_var(2, 0) & tt_var(2, 1), 2)
        assert result.size == 1 and result.proven

    def test_maj_is_one_gate(self):
        spec = tt_maj(tt_var(3, 0), tt_var(3, 1), tt_var(3, 2))
        result = synthesize_exact(spec, 3)
        assert result.size == 1 and result.proven

    def test_xor2_is_three_gates(self):
        result = synthesize_exact(tt_var(2, 0) ^ tt_var(2, 1), 2)
        assert result.size == 3 and result.proven

    def test_all_two_var_classes(self):
        """2-variable NPN classes split as sizes {0: 2, 1: 1, 3: 1}."""
        sizes = {}
        for rep in enumerate_npn_classes(2):
            result = synthesize_exact(rep, 2)
            assert result.proven
            assert result.mig.simulate()[0] == rep
            sizes[result.size] = sizes.get(result.size, 0) + 1
        assert sizes == {0: 2, 1: 1, 3: 1}

    def test_three_var_class_size_distribution(self):
        """All 14 NPN-3 classes synthesize exactly, verified functionally."""
        sizes = {}
        for rep in enumerate_npn_classes(3):
            result = synthesize_exact(rep, 3, conflict_budget=300000, max_gates=8)
            assert result.proven, hex(rep)
            assert result.mig.simulate()[0] == rep
            sizes[result.size] = sizes.get(result.size, 0) + 1
        assert sum(sizes.values()) == 14
        assert sizes == {0: 2, 1: 2, 2: 2, 3: 4, 4: 4}


class TestUpperBounds:
    def test_upper_bound_capping(self):
        spec = tt_var(3, 0) ^ tt_var(3, 1)
        ub = heuristic_mig(spec, 3)
        result = ExactSynthesizer(conflict_budget=100000).synthesize(
            spec, 3, upper_bound=ub
        )
        assert result.proven
        assert result.size == 3

    def test_max_gates_below_bound_leaves_it_unproven(self):
        # 0x0016 needs 4 gates; max_gates=2 stops the loop long before
        # the heuristic bound, so sizes 3..bound-1 were never tried.
        ub = heuristic_mig(0x0016, 4)
        assert ub.num_gates > 4
        result = ExactSynthesizer(conflict_budget=1000, max_gates=2).synthesize(
            0x0016, 4, upper_bound=ub
        )
        assert result.mig is ub
        assert max(result.k_outcomes) == 2
        assert not result.proven

    def test_bad_upper_bound_rejected(self):
        wrong = heuristic_mig(tt_var(3, 0), 3)
        with pytest.raises(ValueError):
            ExactSynthesizer().synthesize(tt_var(3, 1), 3, upper_bound=wrong)

    def test_budget_exhaustion_falls_back_to_ub(self):
        spec = 0x1668
        ub = heuristic_mig(spec, 4)
        result = ExactSynthesizer(conflict_budget=20).synthesize(
            spec, 4, upper_bound=ub
        )
        assert result.mig is ub
        assert not result.proven

    def test_budget_exhaustion_without_ub(self):
        result = synthesize_exact(0x1668, 4, conflict_budget=20)
        assert result.mig is None
        assert not result.proven

    def test_k_outcomes_recorded(self):
        result = synthesize_exact(tt_var(2, 0) ^ tt_var(2, 1), 2)
        # XOR needs 3 gates; the exhaustive witness table answers it
        # (and skips the smaller sizes) without any SAT call.
        assert result.k_outcomes[1] == "skipped"
        assert result.k_outcomes[2] == "skipped"
        assert result.k_outcomes[3] == "table"
        assert result.proven
        assert result.conflicts == 0

    def test_k_outcomes_unsat_without_lower_bound(self):
        synthesizer = ExactSynthesizer(use_lower_bound=False)
        result = synthesizer.synthesize(tt_var(2, 0) ^ tt_var(2, 1), 2)
        assert result.k_outcomes[1] == "unsat"
        assert result.k_outcomes[2] == "unsat"
        assert result.k_outcomes[3] == "sat"
