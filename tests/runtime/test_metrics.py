"""Tests for the hot-path pass counters (repro.runtime.metrics)."""

from __future__ import annotations

import json

import pytest

from repro.core.mig import Mig, signal_not
from repro.core.npn import canonize_cache_clear
from repro.rewriting.bottom_up import rewrite_bottom_up
from repro.rewriting.engine import functional_hashing
from repro.rewriting.top_down import rewrite_top_down
from repro.runtime.metrics import REJECT_REASONS, PassMetrics


def build_counters_mig() -> Mig:
    """Deterministic 10-gate, 4-PI MIG with hand-checked cut structure.

    Every gate has fanout two (except the two output gates), so the
    fanout-free-restricted enumeration keeps exactly the trivial cut and
    the fanin cut of each gate, while unrestricted enumeration finds one
    extra cut per inner gate.
    """
    mig = Mig(4, name="counters")
    x1, x2, x3, x4 = mig.pi_signals()
    g5 = mig.maj(x1, x2, x3)
    g6 = mig.maj(x2, x3, x4)
    g7 = mig.maj(g5, g6, x1)
    g8 = mig.maj(g5, signal_not(g6), x4)
    g9 = mig.maj(g7, g8, x2)
    g10 = mig.maj(g7, signal_not(g8), x3)
    g11 = mig.maj(g9, g10, g5)
    g12 = mig.maj(g9, signal_not(g10), g6)
    g13 = mig.maj(g11, g12, x1)
    g14 = mig.maj(g11, signal_not(g12), x4)
    mig.add_po(g13, "f0")
    mig.add_po(g14, "f1")
    assert mig.num_gates == 10
    return mig


class TestExactCounters:
    """The counters must be exact, not approximate: same MIG, same numbers."""

    def test_bottom_up_unrestricted(self, db):
        mig = build_counters_mig()
        metrics = PassMetrics()
        rewrite_bottom_up(mig, db, metrics=metrics)
        assert metrics.nodes_visited == 10
        assert metrics.cuts_enumerated == 30
        assert metrics.cuts_considered == 20
        assert metrics.cuts_admitted == 7
        assert metrics.cuts_rejected == {"trivial": 10, "no-gain": 13}
        assert metrics.db_hits == 20
        assert metrics.db_misses == 0
        assert metrics.nodes_rebuilt == 7
        # Cut functions: all 20 gate-cut tables come from one program run
        # over 5 provenance levels; 8 distinct tables are canonized.
        assert metrics.batch_cut_functions == 20
        assert metrics.batch_levels == 5
        assert metrics.batch_npn_lookups == 8

    def test_bottom_up_fanout_free(self, db):
        mig = build_counters_mig()
        metrics = PassMetrics()
        rewrite_bottom_up(mig, db, fanout_free=True, metrics=metrics)
        # Restricted enumeration: only the trivial and the fanin cut
        # survive at every gate (all internal fanouts are shared).
        assert metrics.cuts_enumerated == 20
        assert metrics.cuts_considered == 10
        assert metrics.cuts_admitted == 0
        assert metrics.cuts_rejected == {"trivial": 10, "no-gain": 10}
        assert metrics.db_hits == 10
        assert metrics.nodes_rebuilt == 0

    def test_fanout_free_variants_reject_no_cut_as_shared(self, db):
        """The F-variants enumerate fanout-free cuts only, so no reason
        for rejecting a shared cone exists among the buckets."""
        from repro.generators import epfl

        assert "not-fanout-free" not in REJECT_REASONS
        mig = epfl.square_root(6)
        for variant in ("TF", "TFD", "BF", "BFD"):
            metrics = PassMetrics()
            functional_hashing(mig, db, variant, metrics=metrics)
            assert set(metrics.cuts_rejected) <= set(REJECT_REASONS), variant
            assert "invalid-cone" not in metrics.cuts_rejected, variant

    def test_top_down_matches_bottom_up_enumeration(self, db):
        mig = build_counters_mig()
        bu, td = PassMetrics(), PassMetrics()
        rewrite_bottom_up(mig, db, fanout_free=True, metrics=bu)
        rewrite_top_down(mig, db, fanout_free=True, metrics=td)
        assert td.cuts_enumerated == bu.cuts_enumerated == 20
        assert td.cuts_considered == bu.cuts_considered == 10
        assert td.db_hits == bu.db_hits == 10

    def test_accounting_identities(self, db):
        """considered == admitted + non-trivial rejects; lookups add up."""
        from repro.generators import epfl

        mig = epfl.square_root(6)
        metrics = PassMetrics()
        rewrite_bottom_up(mig, db, fanout_free=True, metrics=metrics)
        non_trivial_rejects = sum(
            count
            for reason, count in metrics.cuts_rejected.items()
            if reason != "trivial"
        )
        assert metrics.cuts_considered == metrics.cuts_admitted + non_trivial_rejects
        assert metrics.cuts_considered == metrics.db_hits + metrics.db_misses
        assert set(metrics.cuts_rejected) <= set(REJECT_REASONS)

    def test_phases_recorded(self, db):
        mig = build_counters_mig()
        metrics = PassMetrics()
        rewrite_bottom_up(mig, db, metrics=metrics)
        assert set(metrics.phase_seconds) == {
            "enumerate",
            "batch",
            "rewrite",
            "cleanup",
        }
        assert all(t >= 0.0 for t in metrics.phase_seconds.values())
        assert metrics.total_seconds == pytest.approx(
            sum(metrics.phase_seconds.values())
        )

    def test_engine_fills_variant_and_npn_counters(self, db):
        mig = build_counters_mig()
        canonize_cache_clear()
        metrics = PassMetrics()
        functional_hashing(mig, db, "BF", metrics=metrics)
        assert metrics.variant == "BF"
        # Every distinct cut table is canonized once, through the memo;
        # a second pass finds all of them there.
        assert metrics.npn_cache_hits + metrics.npn_cache_misses == (
            metrics.batch_npn_lookups
        ) == 2
        again = PassMetrics()
        functional_hashing(mig, db, "BF", metrics=again)
        assert again.npn_cache_hits == 2
        assert again.npn_cache_misses == 0

    def test_return_stats_carries_metrics(self, db):
        mig = build_counters_mig()
        result, stats = functional_hashing(mig, db, "B", return_stats=True)
        assert stats.variant == "B"
        assert stats.size_before == 10
        assert stats.size_after == result.num_gates
        assert stats.runtime > 0.0
        assert stats.metrics.nodes_visited == 10
        assert stats.metrics.cuts_considered == 20


class TestPassMetricsObject:
    def test_reject_helper(self):
        m = PassMetrics()
        m.reject("no-gain")
        m.reject("no-gain")
        m.reject("trivial")
        assert m.cuts_rejected == {"no-gain": 2, "trivial": 1}

    def test_phase_accumulates(self):
        m = PassMetrics()
        with m.phase("rewrite"):
            pass
        first = m.phase_seconds["rewrite"]
        with m.phase("rewrite"):
            pass
        assert m.phase_seconds["rewrite"] >= first

    def test_rates_zero_safe(self):
        m = PassMetrics()
        assert m.db_hit_rate == 0.0
        assert m.npn_cache_hit_rate == 0.0
        assert m.store_hit_rate == 0.0

    def test_rates(self):
        m = PassMetrics(db_hits=3, db_misses=1)
        m.npn_cache_hits, m.npn_cache_misses = 9, 1
        m.store_hits, m.store_disk_hits, m.store_synth = 1, 2, 1
        assert m.db_hit_rate == pytest.approx(0.75)
        assert m.npn_cache_hit_rate == pytest.approx(0.9)
        assert m.store_hit_rate == pytest.approx(0.75)

    def test_merge(self):
        a = PassMetrics(variant="BF", nodes_visited=5, db_hits=2)
        a.cuts_rejected = {"no-gain": 1}
        a.phase_seconds = {"rewrite": 0.5}
        b = PassMetrics(nodes_visited=3, db_hits=4, db_misses=1)
        b.cuts_rejected = {"no-gain": 2, "trivial": 1}
        b.phase_seconds = {"rewrite": 0.25, "enumerate": 0.1}
        a.merge(b)
        assert a.nodes_visited == 8
        assert a.db_hits == 6
        assert a.db_misses == 1
        assert a.cuts_rejected == {"no-gain": 3, "trivial": 1}
        assert a.phase_seconds == {"rewrite": 0.75, "enumerate": 0.1}

    def test_merge_empty_into_nonempty_and_back(self):
        """Satellite regression: merging must sum the raw counters (batch
        counters included) and leave derived rates to recompute — an empty
        merge partner must be a strict no-op in both directions."""
        full = PassMetrics(variant="B", db_hits=3, db_misses=1)
        full.batch_cut_functions = 40
        full.batch_levels = 6
        full.batch_npn_lookups = 17
        before = full.to_dict()
        full.merge(PassMetrics())  # empty into nonempty: no-op
        assert full.to_dict() == before
        empty = PassMetrics()
        empty.merge(full)  # nonempty into empty: copies every raw counter
        assert empty.batch_cut_functions == 40
        assert empty.batch_levels == 6
        assert empty.batch_npn_lookups == 17
        assert empty.db_hit_rate == pytest.approx(0.75)
        # Double merge doubles raw counters but the rates are recomputed,
        # not summed — the classic merged-rate bug this test pins down.
        empty.merge(full)
        assert empty.batch_cut_functions == 80
        assert empty.db_hit_rate == pytest.approx(0.75)

    def test_json_round_trip(self, db):
        mig = build_counters_mig()
        metrics = PassMetrics()
        functional_hashing(mig, db, "BF", metrics=metrics)
        restored = PassMetrics.from_json(metrics.to_json())
        assert restored.to_dict() == metrics.to_dict()

    def test_to_dict_is_json_serializable(self):
        m = PassMetrics(variant="TFD", nodes_visited=7)
        m.reject("db-miss")
        with m.phase("enumerate"):
            pass
        payload = json.loads(json.dumps(m.to_dict()))
        assert payload["variant"] == "TFD"
        assert payload["nodes_visited"] == 7
        assert payload["cuts_rejected"] == {"db-miss": 1}

    def test_from_dict_ignores_derived_keys(self):
        m = PassMetrics(db_hits=1, db_misses=1)
        data = m.to_dict()
        data["db_hit_rate"] = 0.999  # stale derived value must be recomputed
        restored = PassMetrics.from_dict(data)
        assert restored.db_hit_rate == pytest.approx(0.5)

    def test_from_dict_ignores_dropped_counters(self):
        """Dumps written while the never-incremented ``store_improved``
        counter existed still load."""
        data = PassMetrics(store_evictions=2).to_dict()
        data["store_improved"] = 5
        restored = PassMetrics.from_dict(data)
        assert restored.store_evictions == 2
        assert "store_improved" not in restored.to_dict()
        assert list(restored.to_dict()).index("store_hit_rate") == (
            list(restored.to_dict()).index("store_evictions") + 1
        )
