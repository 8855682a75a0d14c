"""Tests for the on-demand 5/6-input database (ref. [9] extension)."""

from __future__ import annotations

import random

import pytest

from repro.core.mig import Mig
from repro.core.simulate import check_equivalence
from repro.generators import epfl
from repro.rewriting import functional_hashing
from repro.rewriting.dynamic_db import DynamicDatabase
from repro.rewriting.engine import VARIANTS

from ._frozen_scalar import frozen_functional_hashing


class TestDynamicLookup:
    def test_rebuild_matches_function(self):
        db5 = DynamicDatabase(num_vars=5)
        rng = random.Random(31)
        for _ in range(15):
            tt = rng.getrandbits(32)
            mig = Mig(5)
            mig.add_po(db5.rebuild(mig, tt, mig.pi_signals()))
            assert mig.simulate()[0] == tt, hex(tt)

    def test_cache_hits_on_npn_equivalent_functions(self):
        db5 = DynamicDatabase(num_vars=5)
        from repro.core.truth_table import tt_not, tt_permute

        f = random.Random(1).getrandbits(32)
        db5.size_of(f)
        misses = db5.misses
        db5.size_of(tt_not(f, 5))                        # complement
        db5.size_of(tt_permute(f, (4, 3, 2, 1, 0), 5))   # permutation
        assert db5.misses == misses  # same class: no new synthesis
        assert db5.hits >= 2

    def test_lru_eviction(self):
        db5 = DynamicDatabase(num_vars=5, max_entries=4)
        rng = random.Random(9)
        for _ in range(12):
            db5.size_of(rng.getrandbits(32))
        assert len(db5._lru) <= 4

    def test_never_complete(self):
        assert not DynamicDatabase(num_vars=5).complete

    def test_arity_bounds(self):
        with pytest.raises(ValueError):
            DynamicDatabase(num_vars=3)
        with pytest.raises(ValueError):
            DynamicDatabase(num_vars=7)

    def test_improve_budget_tightens_or_matches(self):
        plain = DynamicDatabase(num_vars=5)
        improved = DynamicDatabase(num_vars=5, improve_budget=5000)
        f = 0x96696996  # some 5-var parity-flavored function
        assert improved.size_of(f) <= plain.size_of(f)


class TestProvenFlags:
    """Regression tests for ``_synthesize_entry``'s proven semantics."""

    def test_projection_is_proven_at_zero_gates(self):
        db5 = DynamicDatabase(num_vars=5)
        entry, _ = db5.lookup(0xAAAAAAAA)  # x0
        assert entry.size == 0 and entry.proven

    def test_single_gate_is_proven_by_construction(self):
        db5 = DynamicDatabase(num_vars=5)
        entry, _ = db5.lookup(0x88888888)  # x0 AND x1 == maj(x0, x1, 0)
        assert entry.size == 1 and entry.proven

    def test_no_budget_ships_multi_gate_entries_unproven(self):
        db5 = DynamicDatabase(num_vars=5)
        entry, _ = db5.lookup(0x96969696)  # xor3: no 1-gate MIG
        assert entry.size >= 2 and not entry.proven

    def test_budget_proves_or_stays_unproven_never_regresses(self):
        plain = DynamicDatabase(num_vars=5)
        improved = DynamicDatabase(num_vars=5, improve_budget=20000)
        for tt in (0x96969696, 0xE8E8E8E8, 0xCACACACA):
            upper, _ = plain.lookup(tt)
            entry, _ = improved.lookup(tt)
            assert entry.size <= upper.size
            assert entry.to_mig().simulate()[0] == entry.rep
            if entry.size == upper.size:
                # All smaller sizes refuted (proven) or budget ran dry
                # (unproven) — either way the witness is the upper bound.
                assert isinstance(entry.proven, bool)

    def test_xor3_with_budget_is_proven_minimal(self):
        # XOR3 needs 3 MIG gates; refuting sizes 1-2 is a cheap UNSAT,
        # so a modest budget must end with a *proven* size-3 entry.
        db5 = DynamicDatabase(num_vars=5, improve_budget=50000)
        entry, _ = db5.lookup(0x96969696)
        assert entry.size == 3 and entry.proven


class TestBatchedLookup:
    def test_lookup_batch_synthesizes_on_miss(self):
        """The batched pipeline must populate a fresh dynamic database
        (the inert base-class ``lookup_batch`` maps misses to None)."""
        db5 = DynamicDatabase(num_vars=5)
        rng = random.Random(17)
        tts = [rng.getrandbits(32) for _ in range(8)]
        table = db5.lookup_batch(tts)
        assert db5.misses > 0
        for tt in tts:
            entry, transform = table[tt]
            assert entry is not None
            # lookup_in never raises for an in-table function.
            got, _ = db5.lookup_in(tt, table)
            assert got is entry

    def test_lookup_in_synthesizes_a_function_outside_the_table(self):
        """A consult beyond the batch table resolves like a scalar
        lookup — LRU, store, then synthesis — never a KeyError."""
        db5 = DynamicDatabase(num_vars=5)
        entry, transform = db5.lookup_in(0x69969669, {})
        assert (db5.lookups, db5.lookup_misses, db5.misses) == (1, 0, 1)
        mig = Mig(5)
        mig.add_po(db5.rebuild_entry(mig, entry, transform, mig.pi_signals()))
        assert mig.simulate()[0] == 0x69969669

    def test_batch_matches_scalar_resolution(self):
        rng = random.Random(23)
        tts = [rng.getrandbits(32) for _ in range(12)]
        scalar = DynamicDatabase(num_vars=5)
        batched = DynamicDatabase(num_vars=5)
        table = batched.lookup_batch(tts)
        for tt in tts:
            entry_s, transform_s = scalar.lookup(tt)
            entry_b, transform_b = table[tt]
            assert transform_s == transform_b
            assert entry_s.rep == entry_b.rep
            assert entry_s.size == entry_b.size


class TestMetricsDrain:
    def test_drain_folds_and_zeroes(self):
        from repro.runtime.metrics import PassMetrics

        db5 = DynamicDatabase(num_vars=5, max_entries=4)
        rng = random.Random(5)
        for _ in range(10):
            db5.size_of(rng.getrandbits(32))
        synth, evicted = db5.misses, db5.evictions
        assert synth > 0 and evicted > 0
        metrics = PassMetrics()
        db5.drain_metrics(metrics)
        assert metrics.store_synth == synth
        assert metrics.store_evictions == evicted
        assert db5.misses == db5.hits == db5.store_hits == db5.evictions == 0
        # Draining twice must not double-count.
        db5.drain_metrics(metrics)
        assert metrics.store_synth == synth
        payload = metrics.to_dict()
        assert payload["store_synth"] == synth
        assert "store_hit_rate" in payload


    @staticmethod
    def _flow(mig, store):
        from repro.opt.flow import run_flow
        from repro.runtime.metrics import PassMetrics

        db5 = DynamicDatabase(num_vars=5, improve_budget=100, store=store)
        _, history = run_flow(mig, db5, ["BF"], cut_size=5)
        totals = PassMetrics()
        for step in history:
            totals.merge(step.metrics)
        return db5, totals

    def test_flow_counts_the_conflicts_its_syntheses_spent(self, tmp_path):
        """Inline synthesis on a fresh store reports its solver counters
        through the drain, so a cut-5 flow's ``sat_conflicts`` is the
        sum of the conflicts recorded on the entries it synthesized.

        The depth-optimized 19-input voter has a 5-input cut class
        (0x696969) beyond the NPN-5 table, so its synthesis runs SAT.
        """
        from repro.generators import resolve_generator
        from repro.opt.depth_opt import optimize_depth

        voter = optimize_depth(resolve_generator("voter", width=19), rounds=2)
        db5, totals = self._flow(voter, tmp_path / "fresh.npn5")
        spent = sum(entry.conflicts for entry in db5.entries.values())
        assert totals.store_synth == len(db5.store) > 0
        assert totals.sat_conflicts == spent > 0

    def test_table_classes_cost_no_conflicts(self, tmp_path):
        """Every 5-input cut class of log2-5 has at most four gates or is
        proven by the table's bound, so the flow spends no conflicts and
        stores only proven entries."""
        from repro.generators import resolve_generator

        db5, totals = self._flow(
            resolve_generator("log2", width=5), tmp_path / "fresh.npn5"
        )
        assert totals.store_synth == len(db5.store) > 0
        assert totals.sat_conflicts == 0
        assert all(entry.proven for entry in db5.entries.values())


class TestPersistentTier:
    def test_warm_reopen_hits_disk_not_synthesis(self, tmp_path):
        from repro.database.store import NpnStore

        path = tmp_path / "tier.npn5"
        rng = random.Random(41)
        tts = [rng.getrandbits(32) for _ in range(6)]
        cold = DynamicDatabase(num_vars=5, store=NpnStore.open(path, 5))
        sizes = {tt: cold.size_of(tt) for tt in tts}
        assert cold.misses > 0
        cold.store.close()
        warm = DynamicDatabase(num_vars=5, store=NpnStore.open(path, 5))
        for tt in tts:
            assert warm.size_of(tt) == sizes[tt]
        assert warm.misses == 0 and warm.store_hits > 0

    def test_store_arity_mismatch_rejected(self, tmp_path):
        from repro.database.store import NpnStore

        store = NpnStore.open(tmp_path / "s.npn5", num_vars=5)
        with pytest.raises(ValueError):
            DynamicDatabase(num_vars=6, store=store)

    def test_store_accepts_path_argument(self, tmp_path):
        db5 = DynamicDatabase(num_vars=5, store=tmp_path / "p.npn5")
        db5.size_of(0x96969696)
        assert len(db5.store) > 0


class TestLookupProperty:
    """Property drill: for random 5-input functions, the returned entry
    rebuilds to the exact function under the returned transform — under
    LRU eviction pressure, so the store/synthesis tiers churn."""

    def test_lookup_correct_under_eviction_pressure(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        given, settings, st = (
            hypothesis.given, hypothesis.settings, hypothesis.strategies,
        )
        from repro.core.npn import npn_canonize
        from repro.database.store import NpnStore

        store = NpnStore.open(tmp_path / "prop.npn5", num_vars=5)
        db5 = DynamicDatabase(num_vars=5, max_entries=4, store=store)

        @given(st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=8))
        @settings(max_examples=50, deadline=None)
        def drill(tts):
            for tt in tts:
                entry, transform = db5.lookup(tt)
                rep, expected = npn_canonize(tt, 5)
                assert entry.rep == rep
                assert transform == expected
                # The entry's MIG computes the class representative...
                assert entry.to_mig().simulate()[0] == rep
                # ...and rebuilding through the transform yields tt.
                mig = Mig(5)
                mig.add_po(db5.rebuild(mig, tt, mig.pi_signals()))
                assert mig.simulate()[0] == tt
            assert len(db5._lru) <= 4

        drill()


class TestFiveInputRewriting:
    def test_rewrites_with_5_cuts(self):
        db5 = DynamicDatabase(num_vars=5)
        mig = epfl.square_root(6)
        out = functional_hashing(mig, db5, "TF", cut_size=5)
        assert check_equivalence(mig, out)
        assert out.num_gates <= mig.num_gates

    def test_bottom_up_with_5_cuts(self):
        db5 = DynamicDatabase(num_vars=5)
        mig = epfl.sine(6)
        out = functional_hashing(mig, db5, "BF", cut_size=5)
        assert check_equivalence(mig, out)
        assert out.num_gates <= mig.num_gates

    def test_six_input_rewriting(self):
        db6 = DynamicDatabase(num_vars=6)
        mig = epfl.sine(6)
        out = functional_hashing(mig, db6, "BF", cut_size=6)
        assert check_equivalence(mig, out)
        assert out.num_gates <= mig.num_gates

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cut5_rewrites_match_the_frozen_oracle(self, variant):
        """Same rewrites as the scalar oracle on 5-input cuts.  The oracle
        reads only entries already in the database, so it runs second, on
        the store the pass warmed."""
        mig = epfl.sine(6)
        db5 = DynamicDatabase(num_vars=5)
        out = functional_hashing(mig, db5, variant, cut_size=5)
        oracle = frozen_functional_hashing(mig, db5, variant, cut_size=5)
        assert out.structural_hash() == oracle.structural_hash()

    def test_cut_size_above_db_arity_rejected(self):
        db5 = DynamicDatabase(num_vars=5)
        with pytest.raises(ValueError):
            functional_hashing(epfl.adder(4), db5, "BF", cut_size=6)

    def test_store_backed_rewrite_round_trip(self, tmp_path):
        from repro.database.store import NpnStore

        mig = epfl.sine(6)
        path = tmp_path / "rw.npn5"
        db_cold = DynamicDatabase(num_vars=5, store=NpnStore.open(path, 5))
        cold = functional_hashing(mig, db_cold, "BF", cut_size=5)
        db_cold.store.close()
        db_warm = DynamicDatabase(num_vars=5, store=NpnStore.open(path, 5))
        warm = functional_hashing(mig, db_warm, "BF", cut_size=5)
        assert warm.num_gates == cold.num_gates
        assert check_equivalence(cold, warm)
        assert db_warm.misses == 0  # every class came from the disk tier
