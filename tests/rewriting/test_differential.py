"""Differential testing of the functional-hashing variants.

The variants (top-down vs bottom-up traversal, global vs FFR-local
scope, with and without depth preservation) are different *strategies*
over the same rewriting engine, so they form natural cross-checks: on
any input, every variant must produce a network exhaustively equivalent
to it — and therefore to every other variant's output.  A bug in shared
machinery (cut enumeration, NPN matching, reconstruction) that slips
past one traversal order tends to miscompute under another, which is
what this differential harness is designed to catch.

All networks stay at <= 10 inputs so equivalence is settled by exhaustive
simulation, not sampling.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import aig_to_mig
from repro.aig.aig import Aig
from repro.core.cuts import enumerate_cut_set
from repro.core.mig import CONST0, CONST1, Mig
from repro.database.npn_db import NpnDatabase
from repro.rewriting.batch import prepare_lookup_table
from repro.rewriting.engine import functional_hashing

from ._frozen_scalar import frozen_functional_hashing

#: every traversal/scope/depth combination the engine offers
ALL_VARIANTS = ("T", "TF", "TD", "TFD", "B", "BF", "BD", "BFD")


@st.composite
def random_mig(draw, min_pis=3, max_pis=7, max_gates=20, max_pos=3):
    """Random multi-output MIG, small enough for exhaustive simulation."""
    num_pis = draw(st.integers(min_value=min_pis, max_value=max_pis))
    mig = Mig(num_pis)
    signals = [CONST0] + mig.pi_signals()
    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        picks = draw(
            st.lists(
                st.tuples(st.integers(0, len(signals) - 1), st.booleans()),
                min_size=3,
                max_size=3,
            )
        )
        ops = [signals[i] ^ int(c) for i, c in picks]
        signals.append(mig.maj(*ops))
    for _ in range(draw(st.integers(min_value=1, max_value=max_pos))):
        idx = draw(st.integers(0, len(signals) - 1))
        mig.add_po(signals[idx] ^ int(draw(st.booleans())))
    return mig


@st.composite
def random_aig(draw, min_pis=3, max_pis=6, max_gates=20, max_pos=3):
    """Random multi-output AIG; converted to a MIG before rewriting."""
    num_pis = draw(st.integers(min_value=min_pis, max_value=max_pis))
    aig = Aig(num_pis)
    signals = [CONST0] + aig.pi_signals()
    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        picks = draw(
            st.lists(
                st.tuples(st.integers(0, len(signals) - 1), st.booleans()),
                min_size=2,
                max_size=2,
            )
        )
        signals.append(aig.and_(*[signals[i] ^ int(c) for i, c in picks]))
    for _ in range(draw(st.integers(min_value=1, max_value=max_pos))):
        idx = draw(st.integers(0, len(signals) - 1))
        aig.add_po(signals[idx] ^ int(draw(st.booleans())))
    return aig


def _edge_case_migs() -> list[tuple[str, Mig]]:
    """Degenerate inputs the batched pipeline must survive verbatim:
    nothing to batch (no gates, no outputs), a single node, outputs that
    never reach a gate (PIs, constants)."""
    cases: list[tuple[str, Mig]] = []
    cases.append(("no-outputs", Mig(2)))
    m = Mig(2)
    a, b = m.pi_signals()
    m.add_po(a)
    m.add_po(b ^ 1)
    cases.append(("all-pi-outputs", m))
    m = Mig(1)
    m.add_po(CONST0)
    m.add_po(CONST1)
    cases.append(("const-outputs", m))
    m = Mig(3)
    a, b, c = m.pi_signals()
    m.add_po(m.maj(a, b, c))
    cases.append(("single-gate", m))
    m = Mig(2)
    a, b = m.pi_signals()
    chain = m.maj(a, b, CONST0)
    for _ in range(5):  # pure chain: every level holds exactly one gate
        chain = m.maj(chain, a ^ 1, CONST1)
    m.add_po(chain)
    cases.append(("single-gate-levels", m))
    m = Mig(0)
    m.add_po(CONST1)
    cases.append(("no-pis", m))
    return cases


class TestBatchedPipelineOracle:
    """The array-native pipeline must pick byte-identical rewrites to the
    frozen scalar snapshot in tests/rewriting/_frozen_scalar.py — on every
    network size, on every variant."""

    @given(random_mig(max_gates=18))
    @settings(max_examples=12, deadline=None)
    def test_batched_matches_frozen_scalar_on_migs(self, db, mig):
        for variant in ALL_VARIANTS:
            oracle = frozen_functional_hashing(mig, db, variant)
            out = functional_hashing(mig, db, variant)
            assert out.structural_hash() == oracle.structural_hash(), (
                f"variant {variant} diverged from the frozen scalar oracle"
            )

    @given(random_aig(max_gates=16))
    @settings(max_examples=8, deadline=None)
    def test_batched_matches_frozen_scalar_on_converted_aigs(self, db, aig):
        mig = aig_to_mig(aig)
        for variant in ALL_VARIANTS:
            oracle = frozen_functional_hashing(mig, db, variant)
            out = functional_hashing(mig, db, variant)
            assert out.structural_hash() == oracle.structural_hash(), (
                f"variant {variant} diverged from the frozen scalar oracle"
            )

    # The "full-" id prefix names the pipeline these cases ran under when
    # a scalar one existed; keeping it keeps the test ids stable.
    @pytest.mark.parametrize(
        "name,mig",
        _edge_case_migs(),
        ids=lambda v: f"full-{v}" if isinstance(v, str) else "",
    )
    def test_edge_cases_match_oracle(self, db, name, mig):
        spec = mig.simulate()
        for variant in ALL_VARIANTS:
            oracle = frozen_functional_hashing(mig, db, variant)
            out = functional_hashing(mig, db, variant)
            out.check()
            assert out.simulate() == spec
            assert out.structural_hash() == oracle.structural_hash()


class TestSlotAnswers:
    """The rewriters read each cut's database answer by slot: the answer
    must be what a scalar lookup of the cut's table returns."""

    @staticmethod
    def _scalar(database, tt):
        try:
            return database.lookup(tt)
        except KeyError:
            return None

    @given(random_mig(max_gates=18), st.booleans(), st.integers(0, 222))
    @settings(max_examples=20, deadline=None)
    def test_slot_answers_equal_scalar_lookups(self, db, mig, fanout_free, keep):
        # A database holding only some classes answers None for the rest.
        partial = NpnDatabase(list(db.entries.values())[:keep], 4)
        cuts = enumerate_cut_set(
            mig,
            k=4,
            cut_limit=8,
            ffr_fanout=mig.fanout_counts() if fanout_free else None,
        )
        answers = prepare_lookup_table(cuts, partial)
        tables = cuts.slot_tables(partial.num_vars)
        assert len(answers) == len(tables)
        for node in mig.gates():
            for leaves, _, _, slot in cuts.entries[node]:
                if leaves == (node,):
                    continue
                # Only the trivial cut holds its own node.
                assert node not in leaves
                assert answers[slot] == self._scalar(partial, tables[slot])


class TestDifferential:
    @given(random_mig())
    @settings(max_examples=25, deadline=None)
    def test_every_variant_matches_the_input_exactly(self, db, mig):
        """All eight variants agree with the input — hence each other."""
        assert mig.num_pis <= 10
        spec = mig.simulate()
        for variant in ALL_VARIANTS:
            out = functional_hashing(mig, db, variant)
            out.check()
            assert out.num_pis == mig.num_pis
            assert out.num_pos == mig.num_pos
            assert out.simulate() == spec, f"variant {variant} diverged"

    @given(random_mig(max_gates=15))
    @settings(max_examples=20, deadline=None)
    def test_variants_compose(self, db, mig):
        """Chaining differently-shaped variants still preserves function."""
        spec = mig.simulate()
        current = mig
        for variant in ("BF", "T", "TFD"):
            current = functional_hashing(current, db, variant)
            current.check()
        assert current.simulate() == spec

    @given(random_mig())
    @settings(max_examples=20, deadline=None)
    def test_depth_variants_never_beat_their_base_on_size_growth(self, db, mig):
        """Depth preservation only restricts rewrites; fanout-free depth
        variants inherit the no-growth guarantee of their base."""
        for variant in ("TFD", "BFD"):
            out = functional_hashing(mig, db, variant)
            assert out.num_gates <= mig.num_gates
