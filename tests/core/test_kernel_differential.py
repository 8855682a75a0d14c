"""The memoized, per-arity kernel walks against their frozen copies.

``tests/core/_frozen_kernel.py`` keeps ``levels``/``depth``, ``check``
(with both facade hooks), ``Mig.maj`` and ``simulate`` as they were
before the network facts were memoized and each walk became one loop
per arity, and ``cleanup`` as it was before it became a renumbering
walk.  Every test here runs the shipped code and the frozen copy on the
same random MIGs and AIGs and demands the same values, the same side
effects and the same error messages.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.aig.convert import mig_to_aig
from repro.core.kernel import Network, make_signal
from repro.core.mig import Mig
from repro.database.npn_db import NpnDatabase
from repro.generators import GENERATORS
from repro.opt.depth_opt import optimize_depth
from repro.rewriting.engine import functional_hashing

from ._frozen_kernel import (
    frozen_check,
    frozen_cleanup,
    frozen_depth,
    frozen_levels,
    frozen_maj,
    frozen_simulate,
)
from .test_kernel import random_aig, random_mig


def random_network():
    return st.one_of(random_mig(), random_aig())


def outcome(fn, *args):
    """The value *fn* returns, or the ``ValueError`` message it raises."""
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return ("error", str(exc))


def snapshot(mig: Mig) -> tuple:
    return (
        list(mig._fanins),
        dict(mig._strash),
        mig.unit_rules,
        mig.strash_hits,
    )


# ---------------------------------------------------------------------------
# Mig.maj
# ---------------------------------------------------------------------------


class TestMaj:
    @given(random_mig(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_signal_and_side_effects_as_frozen(self, mig, data):
        shipped = mig.clone()
        frozen = mig.clone()
        # Draw operands from the network's own signals, so repeats,
        # complement pairs and constants (unit rules) are frequent; now
        # and then reach one node past the end (an unknown node).
        pool = list(range(2 * mig.num_nodes + 2))
        for _ in range(data.draw(st.integers(1, 12))):
            triple = data.draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3))
            got = outcome(shipped.maj, *triple)
            want = outcome(frozen_maj, frozen, *triple)
            assert got == want, triple
            assert snapshot(shipped) == snapshot(frozen)
            if got[0] == "ok":
                pool = list(range(2 * shipped.num_nodes + 2))
        shipped.check()

    def test_every_unit_rule_and_polarity(self):
        for a in range(8):
            for b in range(8):
                for c in range(8):
                    shipped, frozen = Mig(3), Mig(3)
                    assert outcome(shipped.maj, a, b, c) == outcome(
                        frozen_maj, frozen, a, b, c
                    )
                    assert snapshot(shipped) == snapshot(frozen)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _gate_nodes(net) -> list[int]:
    return list(range(net.num_pis + 1, net.num_nodes))


def corrupt(net, kind: str, node: int, pick: int) -> None:
    """Break one invariant of *net* in place at gate *node* (or globally)."""
    fanins = net._fanins
    fanin = fanins[node]
    arity = net.arity
    i = pick % arity
    if kind == "none":
        fanins[node] = None
    elif kind == "short":
        fanins[node] = fanin[:-1]
    elif kind == "long":
        fanins[node] = fanin + (fanin[-1],)
    elif kind == "dangling":
        fanins[node] = fanin[:i] + (2 * net.num_nodes + (pick & 1),) + fanin[i + 1:]
    elif kind == "negative":
        fanins[node] = fanin[:i] + (-2 - (pick & 1),) + fanin[i + 1:]
    elif kind == "forward":
        target = node + pick % (net.num_nodes - node)
        fanins[node] = fanin[:i] + (2 * target,) + fanin[i + 1:]
    elif kind == "unsorted":
        fanins[node] = tuple(reversed(fanin))
    elif kind == "repeat":
        j = (i + 1) % arity
        fanins[node] = tuple(
            fanin[i] ^ (pick & 1) if k == j else s for k, s in enumerate(fanin)
        )
    elif kind == "inverters":
        fanins[node] = tuple(s | 1 for s in fanin)
    elif kind == "constant":
        fanins[node] = (pick & 1,) + fanin[1:]
    elif kind == "strash":
        key = next(iter(net._strash)) if net._strash else fanin
        net._strash[key] = (node + 1 + pick) if pick & 1 else pick % (net.num_pis + 1)
    elif kind == "output":
        net._outputs[pick % net.num_pos] = 2 * net.num_nodes + (pick & 1)
    elif kind == "output-names":
        net._output_names.append("extra")
    elif kind == "pi-names":
        net._pi_names.pop()
    else:  # pragma: no cover - the strategy draws only the kinds above
        raise AssertionError(kind)


CORRUPTIONS = (
    "none", "short", "long", "dangling", "negative", "forward", "unsorted",
    "repeat", "inverters", "constant", "strash", "output", "output-names",
    "pi-names",
)


class TestCheck:
    @given(random_network())
    @settings(max_examples=100, deadline=None)
    def test_accepts_every_valid_network(self, net):
        net.check()
        frozen_check(net)

    @given(
        random_network(),
        st.lists(
            st.tuples(
                st.sampled_from(CORRUPTIONS),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=2,
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_corrupted_copies_raise_the_frozen_message(self, net, corruptions):
        gates = _gate_nodes(net)
        assume(gates)
        for kind, where, pick in corruptions:
            node = gates[where % len(gates)]
            fanin = net._fanins[node]
            if fanin is None or len(fanin) != net.arity:
                continue  # an earlier corruption already broke this gate
            corrupt(net, kind, node, pick)
        assert outcome(net.check) == outcome(frozen_check, net)

    def test_each_corruption_is_caught_with_the_frozen_message(self):
        for net in (Mig(3), Aig(3)):
            a, b, c = net.pi_signals()
            if isinstance(net, Mig):
                g = net.maj(a, b ^ 1, c)
                net.add_po(net.maj(g, a, c ^ 1))
            else:
                g = net.and_(a, b ^ 1)
                net.add_po(net.and_(g, c ^ 1))
            for kind in CORRUPTIONS:
                for node in _gate_nodes(net):
                    for pick in range(4):
                        bad = net.clone()
                        corrupt(bad, kind, node, pick)
                        got = outcome(bad.check)
                        assert got == outcome(frozen_check, bad), (kind, node, pick)
                        if kind != "constant" or isinstance(net, Aig):
                            assert got[0] == "error", (type(net).__name__, kind, node, pick)


# ---------------------------------------------------------------------------
# levels / depth
# ---------------------------------------------------------------------------


class TestLevels:
    @given(random_network(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equal_frozen_after_appends(self, net, data):
        assert list(net.levels()) == frozen_levels(net)
        assert net.depth() == frozen_depth(net)
        signals = list(range(2 * net.num_nodes))
        for _ in range(data.draw(st.integers(1, 6))):
            operands = data.draw(
                st.lists(st.sampled_from(signals), min_size=net.arity, max_size=net.arity)
            )
            s = net.maj(*operands) if isinstance(net, Mig) else net.and_(*operands)
            signals = list(range(2 * net.num_nodes))
            if data.draw(st.booleans()):
                net.add_po(s)
            assert list(net.levels()) == frozen_levels(net)
            assert net.depth() == frozen_depth(net)

    @given(random_network(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_equal_frozen_after_in_place_rewire(self, net, data):
        assume(net.num_gates)
        before = net.levels()
        assert isinstance(before, tuple)  # shared by every caller
        assert net.levels() is before  # memoized
        # Rewire one output and one gate fanin in place to other signals
        # that keep the node array topologically ordered.
        i = data.draw(st.integers(0, net.num_pos - 1))
        net._outputs[i] = data.draw(st.integers(0, 2 * net.num_nodes - 1))
        node = data.draw(st.integers(net.num_pis + 1, net.num_nodes - 1))
        fanin = list(net._fanins[node])
        k = data.draw(st.integers(0, net.arity - 1))
        fanin[k] = data.draw(st.integers(0, 2 * node - 1))
        net._fanins[node] = tuple(fanin)
        net.invalidate_arrays()
        assert list(net.levels()) == frozen_levels(net)
        assert net.depth() == frozen_depth(net)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class TestSimulate:
    @given(random_network())
    @settings(max_examples=100, deadline=None)
    def test_second_call_is_a_memo_hit(self, net):
        first = net.simulate()
        assert first == frozen_simulate(net.clone())
        words = net.sim_words
        second = net.simulate()
        assert net.sim_words == words
        assert second == first
        assert second is not first
        second.append(-1)  # a caller's edit cannot reach the memo
        assert net.simulate() == first

    @given(random_network(), st.integers(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_output_flip_then_invalidate_yields_new_tables(self, net, index):
        before = net.simulate()
        i = index % net.num_pos
        net._outputs[i] ^= 1
        net.invalidate_arrays()
        after = net.simulate()
        assert after == frozen_simulate(net)
        mask = (1 << (1 << net.num_pis)) - 1
        assert after[i] == before[i] ^ mask
        assert after[:i] + after[i + 1:] == before[:i] + before[i + 1:]


# ---------------------------------------------------------------------------
# cleanup
# ---------------------------------------------------------------------------


def image(net) -> tuple:
    """Everything a cleanup decides about the network it returns."""
    return (
        type(net),
        list(net._fanins),
        list(net._outputs),
        list(net._pi_names),
        list(net._output_names),
        dict(net._strash),
        net.unit_rules,
        net.strash_hits,
    )


#: the 14 flow-suite kinds at small widths
SMALL_CASES = (
    ("adder", {"width": 8}),
    ("divisor", {"width": 4}),
    ("log2", {"width": 5}),
    ("max", {"width": 6}),
    ("multiplier", {"width": 5}),
    ("sine", {"width": 5}),
    ("square-root", {"width": 6}),
    ("square", {"width": 6}),
    ("arbiter", {"width": 12}),
    ("dec", {"width": 4}),
    ("int2float", {"width": 8}),
    ("priority", {"width": 16}),
    ("router", {"rows": 3, "cols": 3}),
    ("voter", {"count": 21}),
)


class TestCleanup:
    @given(
        random_network(),
        st.lists(st.tuples(st.integers(0, 6), st.booleans()), max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_network_as_frozen(self, net, terminals):
        # Random networks keep dead gates; add outputs on PIs and on the
        # constants, in both polarities.
        for node, complement in terminals:
            net.add_po(make_signal(node % (net.num_pis + 1), complement))
        assert image(net.cleanup()) == image(frozen_cleanup(net))

    def test_same_network_as_frozen_on_the_generators(self, monkeypatch):
        # Each kind raw, after optimize_depth, after a T pass and through
        # mig_to_aig — plus every network those passes clean up on the
        # way, such as the T pass's construction network.
        shipped = Network.cleanup
        seen = []

        def recording(net):
            seen.append(net)
            return shipped(net)

        monkeypatch.setattr(Network, "cleanup", recording)
        db = NpnDatabase.load()
        for kind, params in SMALL_CASES:
            raw = GENERATORS[kind][1](**params)
            depth = optimize_depth(raw)
            seen += [raw, depth, functional_hashing(raw, db, "T"), mig_to_aig(depth)]
        assert len(seen) > 4 * len(SMALL_CASES)
        for net in seen:
            assert image(shipped(net)) == image(frozen_cleanup(net)), net
