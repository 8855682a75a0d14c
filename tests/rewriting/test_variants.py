"""Functional-hashing variant tests (Algorithms 1 and 2, Sec. V-C).

Every variant must preserve functionality on every benchmark; the
fanout-free variants must never increase size; depth-preserving FFR
variants must hold depth.
"""

from __future__ import annotations

import pytest

from repro.core.simulate import check_equivalence
from repro.rewriting.bottom_up import rewrite_bottom_up
from repro.rewriting.engine import VARIANTS, functional_hashing, _parse_variant
from repro.rewriting.top_down import rewrite_top_down


class TestVariantParsing:
    def test_all_acronyms(self):
        assert _parse_variant("T") == (True, False, False)
        assert _parse_variant("TD") == (True, False, True)
        assert _parse_variant("TF") == (True, True, False)
        assert _parse_variant("TFD") == (True, True, True)
        assert _parse_variant("B") == (False, False, False)
        assert _parse_variant("BF") == (False, True, False)
        assert _parse_variant("BFD") == (False, True, True)

    def test_lowercase_accepted(self):
        assert _parse_variant("bf") == (False, True, False)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            _parse_variant("XY")


@pytest.mark.parametrize("variant", VARIANTS)
class TestFunctionPreservation:
    def test_equivalence_on_suite(self, db, suite_small, variant):
        for mig in suite_small:
            optimized = functional_hashing(mig, db, variant)
            assert check_equivalence(mig, optimized), (mig.name, variant)

    def test_interface_preserved(self, db, suite_small, variant):
        mig = suite_small[0]
        optimized = functional_hashing(mig, db, variant)
        assert optimized.num_pis == mig.num_pis
        assert optimized.num_pos == mig.num_pos
        assert optimized.pi_names == mig.pi_names
        assert optimized.output_names == mig.output_names


@pytest.mark.parametrize("variant", ["TF", "TFD", "BF", "BFD"])
class TestFanoutFreeNeverGrows:
    def test_size_never_increases(self, db, suite_small, variant):
        for mig in suite_small:
            optimized = functional_hashing(mig, db, variant)
            assert optimized.num_gates <= mig.num_gates, (mig.name, variant)


@pytest.mark.parametrize("variant", ["TFD", "BFD"])
class TestDepthPreserving:
    def test_depth_never_increases_in_ffr_mode(self, db, suite_small, variant):
        for mig in suite_small:
            optimized = functional_hashing(mig, db, variant)
            assert optimized.depth() <= mig.depth(), (mig.name, variant)


class TestTopDown:
    def test_finds_reductions_on_redundant_logic(self, db):
        """A wasteful xor chain must shrink towards the database optimum."""
        from repro.core.mig import Mig

        mig = Mig(4)
        a, b, c, d = mig.pi_signals()
        # xor built wastefully: 3 gates per xor, no sharing across stages.
        x1 = mig.xor(a, b)
        x2 = mig.xor(x1, c)
        x3 = mig.xor(x2, d)
        mig.add_po(x3)
        out = rewrite_top_down(mig, db)
        assert check_equivalence(mig, out)
        assert out.num_gates <= mig.num_gates

    def test_cut_size_above_db_rejected(self, db, full_adder):
        with pytest.raises(ValueError):
            rewrite_top_down(full_adder, db, cut_size=5)


class TestBottomUp:
    def test_candidate_limit_respected(self, db, suite_small):
        mig = suite_small[5]
        out1 = rewrite_bottom_up(mig, db, candidate_limit=1)
        out3 = rewrite_bottom_up(mig, db, candidate_limit=3)
        assert check_equivalence(mig, out1)
        assert check_equivalence(mig, out3)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_candidate_limit_below_one_rejected(self, db, full_adder, limit):
        with pytest.raises(ValueError, match="candidate_limit must be at least 1"):
            functional_hashing(full_adder, db, "BF", candidate_limit=limit)
        with pytest.raises(ValueError, match="candidate_limit must be at least 1"):
            rewrite_bottom_up(full_adder, db, candidate_limit=limit)

    def test_cut_size_above_db_rejected(self, db, full_adder):
        with pytest.raises(ValueError):
            rewrite_bottom_up(full_adder, db, cut_size=6)


class TestIdempotentOnOptimal:
    def test_full_adder_untouched(self, db, full_adder):
        """The Fig. 1 full adder is already minimal — no variant may grow it."""
        for variant in ("TF", "BF", "TFD"):
            out = functional_hashing(full_adder, db, variant)
            assert out.num_gates <= 3
            assert check_equivalence(full_adder, out)


class TestRepeatedApplication:
    def test_second_pass_converges(self, db, suite_small):
        """Applying BF twice: second pass must not undo the first."""
        mig = suite_small[5]
        once = functional_hashing(mig, db, "BF")
        twice = functional_hashing(once, db, "BF")
        assert twice.num_gates <= once.num_gates
        assert check_equivalence(mig, twice)
