"""Tests for repro.core.truth_table."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.truth_table import (
    tt_and,
    tt_cofactor0,
    tt_cofactor1,
    tt_count_ones,
    tt_depends_on,
    tt_evaluate,
    tt_extend,
    tt_flip_input,
    tt_from_hex,
    tt_is_const,
    tt_maj,
    tt_mask,
    tt_not,
    tt_or,
    tt_permute,
    tt_shrink_to_support,
    tt_support,
    tt_swap_adjacent,
    tt_to_hex,
    tt_var,
    tt_xor,
)

tt4 = st.integers(min_value=0, max_value=0xFFFF)
var4 = st.integers(min_value=0, max_value=3)


class TestBasics:
    def test_mask_sizes(self):
        assert tt_mask(0) == 1
        assert tt_mask(1) == 0b11
        assert tt_mask(2) == 0xF
        assert tt_mask(4) == 0xFFFF

    def test_mask_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tt_mask(-1)
        with pytest.raises(ValueError):
            tt_mask(17)

    def test_var_patterns(self):
        assert tt_var(2, 0) == 0b1010
        assert tt_var(2, 1) == 0b1100
        assert tt_var(3, 2) == 0xF0

    def test_var_rejects_bad_index(self):
        with pytest.raises(ValueError):
            tt_var(3, 3)

    def test_ops_on_projections(self):
        a, b = tt_var(2, 0), tt_var(2, 1)
        assert tt_and(a, b) == 0b1000
        assert tt_or(a, b) == 0b1110
        assert tt_xor(a, b) == 0b0110
        assert tt_not(a, 2) == 0b0101

    def test_maj_definition(self):
        a, b, c = tt_var(3, 0), tt_var(3, 1), tt_var(3, 2)
        maj = tt_maj(a, b, c)
        for m in range(8):
            bits = sum((m >> i) & 1 for i in range(3))
            assert tt_evaluate(maj, m) == (bits >= 2)

    def test_maj_with_constants_gives_and_or(self):
        a, b = tt_var(2, 0), tt_var(2, 1)
        assert tt_maj(0, a, b) == tt_and(a, b)
        assert tt_maj(tt_mask(2), a, b) == tt_or(a, b)

    def test_hex_roundtrip(self):
        assert tt_to_hex(0x1668, 4) == "1668"
        assert tt_from_hex("1668", 4) == 0x1668
        with pytest.raises(ValueError):
            tt_from_hex("1FFFF", 4)


class TestCofactors:
    @given(tt4, var4)
    def test_cofactors_remove_dependence(self, f, i):
        assert not tt_depends_on(tt_cofactor0(f, i, 4), i, 4)
        assert not tt_depends_on(tt_cofactor1(f, i, 4), i, 4)

    @given(tt4, var4)
    def test_shannon_expansion(self, f, i):
        var = tt_var(4, i)
        f0 = tt_cofactor0(f, i, 4)
        f1 = tt_cofactor1(f, i, 4)
        assert (var & f1) | (~var & tt_mask(4) & f0) == f

    @given(tt4, var4)
    def test_flip_input_involution(self, f, i):
        assert tt_flip_input(tt_flip_input(f, i, 4), i, 4) == f

    def test_support(self):
        assert tt_support(tt_var(4, 2), 4) == (2,)
        assert tt_support(0, 4) == ()
        a, c = tt_var(4, 0), tt_var(4, 2)
        assert tt_support(a & c, 4) == (0, 2)


class TestExtendShrink:
    @given(st.integers(min_value=0, max_value=0xF))
    def test_extend_preserves_semantics(self, f):
        g = tt_extend(f, 2, 4)
        for m in range(16):
            assert tt_evaluate(g, m) == tt_evaluate(f, m & 0b11)

    @given(tt4)
    def test_shrink_then_extend(self, f):
        g, support = tt_shrink_to_support(f, 4)
        assert len(support) == len(tt_support(f, 4))
        # Re-evaluating g on projected assignments reproduces f.
        for m in range(16):
            mm = 0
            for j, v in enumerate(support):
                mm |= ((m >> v) & 1) << j
            assert tt_evaluate(f, m) == tt_evaluate(g, mm)


class TestPermute:
    @given(tt4)
    def test_identity_permutation(self, f):
        assert tt_permute(f, (0, 1, 2, 3), 4) == f

    @given(tt4, st.permutations(list(range(4))))
    def test_permute_semantics(self, f, perm):
        g = tt_permute(f, perm, 4)
        for m in range(16):
            mp = 0
            for j in range(4):
                mp |= ((m >> perm[j]) & 1) << j
            assert tt_evaluate(g, m) == tt_evaluate(f, mp)

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            tt_permute(0x1234, (0, 0, 1, 2), 4)

    @given(tt4, st.integers(min_value=0, max_value=2))
    def test_swap_adjacent_is_transposition(self, f, i):
        perm = list(range(4))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        assert tt_swap_adjacent(f, i, 4) == tt_permute(f, perm, 4)
