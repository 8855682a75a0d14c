"""Tests for NPN classification (Sec. II-D of the paper)."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import npn
from repro.core.npn import (
    NPNTransform,
    apply_transform,
    canonize_cache_clear,
    canonize_cache_info,
    compose_transforms,
    enumerate_npn_classes,
    identity_transform,
    invert_transform,
    npn_canonize,
    npn_canonize_batch,
    npn_class_sizes,
    npn_representative,
)
from repro.core.truth_table import tt_mask, tt_not, tt_permute, tt_var

from . import _frozen_npn as frozen

tt4 = st.integers(min_value=0, max_value=0xFFFF)


def random_transform(draw) -> NPNTransform:
    perm = tuple(draw(st.permutations(list(range(4)))))
    flips = draw(st.integers(min_value=0, max_value=15))
    out = draw(st.booleans())
    return NPNTransform(perm, flips, out)


transforms = st.builds(
    NPNTransform,
    st.permutations(list(range(4))).map(tuple),
    st.integers(min_value=0, max_value=15),
    st.booleans(),
)


class TestClassCounts:
    """The paper's class counts: 2, 4, 14, 222 for n = 1..4 (Sec. II-D)."""

    def test_counts_match_paper(self):
        assert len(enumerate_npn_classes(1)) == 2
        assert len(enumerate_npn_classes(2)) == 4
        assert len(enumerate_npn_classes(3)) == 14
        assert len(enumerate_npn_classes(4)) == 222

    def test_five_variables_rejected(self):
        with pytest.raises(ValueError):
            enumerate_npn_classes(5)

    def test_class_sizes_partition_the_space(self):
        for n in (1, 2, 3):
            sizes = npn_class_sizes(n)
            assert sum(sizes.values()) == 1 << (1 << n)

    def test_class_sizes_partition_n4(self):
        sizes = npn_class_sizes(4)
        assert sum(sizes.values()) == 65536
        assert len(sizes) == 222

    def test_representatives_are_minimal(self):
        for rep in enumerate_npn_classes(3):
            assert npn_representative(rep, 3) == rep

    @pytest.mark.parametrize("num_vars", [1, 2, 3, 4])
    def test_classes_and_sizes_match_frozen_orbit_loops(self, num_vars):
        assert enumerate_npn_classes(num_vars) == frozen.enumerate_npn_classes(num_vars)
        assert npn_class_sizes(num_vars) == frozen.npn_class_sizes(num_vars)


@pytest.mark.parametrize("num_vars", range(7))
def test_remap_tables_match_frozen_builder(num_vars):
    """Same cells under the same keys in the same order: the key order
    is the canonization tie-break."""
    got = list(npn._remap_tables(num_vars).items())
    assert got == list(frozen.remap_tables(num_vars).items())


class TestCanonize:
    @given(tt4)
    @settings(max_examples=60)
    def test_roundtrip(self, f):
        rep, t = npn_canonize(f, 4)
        assert apply_transform(rep, t, 4) == f

    @given(tt4, transforms)
    @settings(max_examples=60)
    def test_invariance_under_transform(self, f, t):
        g = apply_transform(f, t, 4)
        assert npn_representative(f, 4) == npn_representative(g, 4)

    @given(tt4)
    @settings(max_examples=40)
    def test_representative_is_orbit_minimum(self, f):
        rep, _ = npn_canonize(f, 4)
        assert rep <= f
        assert rep <= (f ^ tt_mask(4))

    def test_complement_same_class(self):
        f = 0x1668
        assert npn_representative(f, 4) == npn_representative(
            tt_not(f, 4), 4
        )

    def test_permutation_same_class(self):
        f = tt_var(4, 0) & tt_var(4, 1) | tt_var(4, 2)
        g = tt_permute(f, (3, 2, 1, 0), 4)
        assert npn_representative(f, 4) == npn_representative(g, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            npn_canonize(0x10000, 4)


class TestTransformAlgebra:
    @given(tt4, transforms)
    @settings(max_examples=60)
    def test_inverse(self, f, t):
        assert apply_transform(apply_transform(f, t, 4), invert_transform(t), 4) == f

    @given(tt4, transforms, transforms)
    @settings(max_examples=60)
    def test_composition(self, f, outer, inner):
        composed = compose_transforms(outer, inner)
        assert apply_transform(f, composed, 4) == apply_transform(
            apply_transform(f, inner, 4), outer, 4
        )

    @given(tt4)
    def test_identity(self, f):
        assert apply_transform(f, identity_transform(4), 4) == f


class TestBatchCanonize:
    """npn_canonize and npn_canonize_batch must be bit-identical to the
    frozen pure-Python canonizer (tests/core/_frozen_npn.py) —
    representative AND transform, including the first-wins tie-break and
    the phase pre-filter's extra output flip."""

    @pytest.mark.parametrize("num_vars", [0, 1, 2, 3])
    def test_exhaustive_small(self, num_vars):
        canonize_cache_clear()
        fs = list(range(1 << (1 << num_vars)))
        expected = [frozen.npn_canonize(f, num_vars) for f in fs]
        assert [npn_canonize(f, num_vars) for f in fs] == expected
        canonize_cache_clear()
        assert npn_canonize_batch(fs, num_vars) == expected

    @given(st.lists(tt4, min_size=0, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_n4(self, fs):
        batch = npn_canonize_batch(fs, 4)
        expected = [frozen.npn_canonize(f, 4) for f in fs]
        assert batch == expected
        assert [npn_canonize(f, 4) for f in fs] == expected

    def test_edge_tables(self):
        # Constants, single minterms, balanced and self-dual functions —
        # the tie-break-sensitive corners.
        edges = [0, 0xFFFF, 0x8000, 0x0001, 0xAAAA, 0x5555, 0x6996, 0xE8E8, 0xCAFE]
        canonize_cache_clear()
        batch = npn_canonize_batch(edges, 4)
        for f, (rep, t) in zip(edges, batch):
            assert (rep, t) == frozen.npn_canonize(f, 4)
            assert apply_transform(rep, t, 4) == f

    def test_chunking_is_invisible(self):
        fs = [((37 * i) ^ (i << 7)) & 0xFFFF for i in range(300)]
        assert npn_canonize_batch(fs, 4, chunk=16) == npn_canonize_batch(fs, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            npn_canonize_batch([0x10000], 4)
        with pytest.raises(ValueError):
            npn_canonize_batch([[1, 2]], 4)

    def test_matches_scalar_n5(self):
        rng = random.Random(61)
        fs = [rng.getrandbits(32) for _ in range(24)]
        fs += [0, 0xFFFFFFFF, 0x80000000, 0x1, 0xAAAAAAAA, 0x96696996]
        canonize_cache_clear()
        batch = npn_canonize_batch(fs, 5)
        for f, (rep, t) in zip(fs, batch):
            assert (rep, t) == frozen.npn_canonize(f, 5)
            assert apply_transform(rep, t, 5) == f
        canonize_cache_clear()
        assert [npn_canonize(f, 5) for f in fs[:6]] == batch[:6]

    def test_matches_scalar_n6(self):
        # The frozen 6-var canonizer walks all 46080 transforms per call
        # (~0.2 s each), so this differential stays deliberately tiny.
        rng = random.Random(67)
        fs = [rng.getrandbits(64) for _ in range(4)] + [0, (1 << 64) - 1]
        canonize_cache_clear()
        batch = npn_canonize_batch(fs, 6)
        for f, (rep, t) in zip(fs, batch):
            assert (rep, t) == frozen.npn_canonize(f, 6)
            assert apply_transform(rep, t, 6) == f
        canonize_cache_clear()
        assert npn_canonize(fs[0], 6) == batch[0]

    def test_chunking_is_invisible_n5(self):
        # The wide-arity path sizes its transform blocks from the chunk
        # width; an odd chunk must not change a single result.
        fs = [((2654435761 * i) ^ (i << 19)) & 0xFFFFFFFF for i in range(90)]
        assert npn_canonize_batch(fs, 5, chunk=7) == npn_canonize_batch(fs, 5)


class TestMemo:
    """One memo serves both entry points, probed before any numpy work."""

    def test_hit_is_a_dict_probe(self, monkeypatch):
        canonize_cache_clear()
        first = npn_canonize(0x1668, 4)

        def no_core(*args, **kwargs):
            raise AssertionError("a memoized function reached the core")

        monkeypatch.setattr(npn, "_canonize", no_core)
        assert npn_canonize(0x1668, 4) == first
        assert npn_canonize_batch([0x1668], 4) == [first]

    def test_counts_one_probe_per_function(self):
        canonize_cache_clear()
        npn_canonize(0x1668, 4)
        npn_canonize(0x1668, 4)
        npn_canonize_batch([0x1668, 0xCAFE, 0xCAFE], 4)
        info = canonize_cache_info()
        # Both 0xCAFE inputs of the batch miss: probes precede the core.
        assert (info.hits, info.misses, info.currsize) == (2, 3, 2)
        canonize_cache_clear()
        assert canonize_cache_info() == (0, 0, 0)

    def test_wide_arities_stop_inserting_at_the_cap(self, monkeypatch):
        canonize_cache_clear()
        monkeypatch.setattr(npn, "_MEMO_CAP", 1)
        npn_canonize_batch([0x1, 0x3], 5)  # below the cap on entry
        npn_canonize(0x7, 5)  # at the cap: computed, not kept
        assert canonize_cache_info().currsize == 2
        npn_canonize(0x7, 4)  # narrow arities are always kept
        assert canonize_cache_info().currsize == 3
        canonize_cache_clear()


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_SCALE_NIGHTLY"),
    reason="the frozen canonizer takes about 20 s over every 4-input "
    "function; the nightly CI job sets REPRO_SCALE_NIGHTLY=1",
)
def test_every_four_input_function_matches_frozen_canonizer():
    fs = list(range(1 << 16))
    canonize_cache_clear()
    batch = npn_canonize_batch(fs, 4)
    assert batch == [frozen.npn_canonize(f, 4) for f in fs]
    canonize_cache_clear()
    assert [npn_canonize(f, 4) for f in fs] == batch
