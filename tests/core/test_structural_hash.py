"""Canonical structural hashing (Network.structural_hash).

The hash is the serving tier's cache key, so its two safety properties
are drilled hard here:

* **invariance** — representational differences (node insertion order,
  names, dead nodes) must not change the hash, or duplicate requests
  would miss the cache they paid to warm;
* **discrimination** — anything that changes the computed function (or
  how callers address it: output order/polarity, PI count, gate arity)
  must change the hash, or the cache would serve wrong answers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.core.kernel import CONST0, make_signal
from repro.core.mig import Mig

from .test_kernel import random_aig, random_mig


def rebuild_permuted(net, rng):
    """Rebuild *net* gate-for-gate in a randomized topological order.

    Node indices end up completely different while the DAG (and the
    function) stays identical — exactly the representational noise the
    hash must be blind to.
    """
    new = type(net).like(net)
    mapping = {0: CONST0}
    for i in range(1, net.num_pis + 1):
        mapping[i] = make_signal(i)
    remaining = set(net.gates())
    while remaining:
        ready = [
            node
            for node in remaining
            if all((s >> 1) in mapping for s in net.fanins(node))
        ]
        node = rng.choice(sorted(ready))
        remaining.discard(node)
        fanin = [mapping[s >> 1] ^ (s & 1) for s in net.fanins(node)]
        mapping[node] = new.maj(*fanin) if net.arity == 3 else new.and_(*fanin)
    for s, name in zip(net.outputs, net.output_names):
        new.add_po(mapping[s >> 1] ^ (s & 1), name)
    return new


class TestInvariance:
    @settings(max_examples=60, deadline=None)
    @given(random_mig(), st.randoms(use_true_random=False))
    def test_insertion_order_invariance_mig(self, mig, rng):
        assert rebuild_permuted(mig, rng).structural_hash() == mig.structural_hash()

    @settings(max_examples=60, deadline=None)
    @given(random_aig(), st.randoms(use_true_random=False))
    def test_insertion_order_invariance_aig(self, aig, rng):
        assert rebuild_permuted(aig, rng).structural_hash() == aig.structural_hash()

    @settings(max_examples=40, deadline=None)
    @given(random_mig())
    def test_name_invariance(self, mig):
        before = mig.structural_hash()
        mig.name = "renamed"
        mig._pi_names = [f"in{i}" for i in range(mig.num_pis)]
        mig._output_names = [f"out{i}" for i in range(mig.num_pos)]
        assert mig.structural_hash() == before

    @settings(max_examples=40, deadline=None)
    @given(random_mig(), st.randoms(use_true_random=False))
    def test_dead_node_invariance(self, mig, rng):
        before = mig.structural_hash()
        # Grow dead logic: gates reachable from nothing the outputs see.
        signals = [CONST0] + mig.pi_signals()
        for _ in range(3):
            picks = [rng.choice(signals) ^ rng.randint(0, 1) for _ in range(3)]
            signals.append(mig.maj(*picks))
        assert mig.structural_hash() == before
        assert mig.cleanup().structural_hash() == before

    def test_symmetric_operand_order(self):
        hashes = set()
        for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            mig = Mig(3)
            pis = mig.pi_signals()
            mig.add_po(mig.maj(*[pis[i] for i in order]))
            hashes.add(mig.structural_hash())
        assert len(hashes) == 1


class TestDiscrimination:
    @settings(max_examples=60, deadline=None)
    @given(random_mig(max_pis=4), random_mig(max_pis=4))
    def test_equal_hash_implies_equal_function(self, a, b):
        """The cache-safety direction: a hash collision between
        functionally different networks would serve wrong answers."""
        if a.structural_hash() == b.structural_hash():
            assert a.num_pis == b.num_pis
            assert a.simulate() == b.simulate()

    @settings(max_examples=40, deadline=None)
    @given(random_mig())
    def test_output_polarity_distinguishes(self, mig):
        before = mig.structural_hash()
        mig._outputs[-1] ^= 1
        assert mig.structural_hash() != before

    def test_output_order_distinguishes(self):
        a, b = Mig(2), Mig(2)
        for net in (a, b):
            x, y = net.pi_signals()
            first, second = (x, y) if net is a else (y, x)
            net.add_po(first)
            net.add_po(second)
        assert a.structural_hash() != b.structural_hash()

    def test_pi_count_distinguishes(self):
        a, b = Mig(2), Mig(3)
        for net in (a, b):
            x, y = net.pi_signals()[:2]
            net.add_po(net.maj(x, y, CONST0))
        assert a.structural_hash() != b.structural_hash()

    def test_arity_distinguishes_mig_from_aig(self):
        mig, aig = Mig(2), Aig(2)
        for net in (mig, aig):
            x, y = net.pi_signals()
            net.add_po(x)
            net.add_po(y)
        assert mig.structural_hash() != aig.structural_hash()

    def test_distinct_functions_differ(self):
        and_net, or_net = Mig(2), Mig(2)
        x, y = and_net.pi_signals()
        and_net.add_po(and_net.maj(x, y, CONST0))
        x, y = or_net.pi_signals()
        or_net.add_po(or_net.maj(x, y, CONST0 ^ 1))
        assert and_net.structural_hash() != or_net.structural_hash()


class TestStability:
    def test_hash_is_hex_sha256(self):
        mig = Mig(2)
        x, y = mig.pi_signals()
        mig.add_po(mig.maj(x, y, CONST0))
        digest = mig.structural_hash()
        assert len(digest) == 64
        int(digest, 16)

    def test_repeated_calls_are_deterministic(self):
        from repro.generators.epfl import SUITE_SPECS

        _, generator, _, _ = SUITE_SPECS["adder"]
        a, b = generator(width=4), generator(width=4)
        assert a.structural_hash() == b.structural_hash()
        assert a.structural_hash() == a.structural_hash()

    def test_optimized_network_hashes_differently_when_structure_changes(self):
        # Not a strict requirement (an optimizer could return an identical
        # DAG) but documents the common case the cache relies on: the
        # request key hashes the *input*, not the output.
        mig = Mig(3)
        a, b, c = mig.pi_signals()
        t = mig.maj(a, b, CONST0)
        mig.add_po(mig.maj(t, c, CONST0))
        smaller = Mig(3)
        a, b, c = smaller.pi_signals()
        smaller.add_po(smaller.maj(a, b, c))
        assert mig.structural_hash() != smaller.structural_hash()


@pytest.mark.parametrize("width", [2, 4])
def test_blif_roundtrip_preserves_hash(width, tmp_path):
    """Serialize → parse must be hash-neutral: the daemon hashes what it
    parsed from the upload, the worker re-reads the materialized file."""
    import io

    from repro.generators.epfl import SUITE_SPECS
    from repro.io.blif import read_blif, write_blif

    _, generator, _, _ = SUITE_SPECS["adder"]
    mig = generator(width=width)
    buf = io.StringIO()
    write_blif(mig, buf)
    reread = read_blif(io.StringIO(buf.getvalue()))
    assert reread.structural_hash() == mig.structural_hash()
