"""Tests for SAT-based combinational equivalence checking.

The swept check (strash, sweep, final miter) is pinned against the
monolithic miter it replaced, frozen in ``_frozen_cec.py``.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mig import CONST0, Mig, signal_not
from repro.generators import GENERATORS, epfl
from repro.opt.depth_opt import optimize_depth
from repro.rewriting import functional_hashing
from repro.sat.backends import DimacsSubprocessBackend
from repro.sat.cec import CecResult, check_equivalence_sat
from repro.sat.portfolio import PortfolioSolver
from repro.sat.solver import Solver

from ._frozen_cec import frozen_check_equivalence_sat
from .test_backends import assert_no_leaked_children, make_script


def xor_pair() -> tuple[Mig, Mig]:
    m1 = Mig(2)
    a, b = m1.pi_signals()
    m1.add_po(m1.xor(a, b))
    m2 = Mig(2)
    a, b = m2.pi_signals()
    m2.add_po(m2.and_(m2.or_(a, b), signal_not(m2.and_(a, b))))
    return m1, m2


class TestCec:
    def test_equivalent_pair(self):
        m1, m2 = xor_pair()
        result = check_equivalence_sat(m1, m2)
        assert result.equivalent is True
        assert result.counterexample is None

    def test_inequivalent_pair_gives_counterexample(self):
        m1, _ = xor_pair()
        m3 = Mig(2)
        a, b = m3.pi_signals()
        m3.add_po(m3.or_(a, b))
        result = check_equivalence_sat(m1, m3)
        assert result.equivalent is False
        cex = result.counterexample
        assert cex is not None
        # xor and or differ exactly when both inputs are 1.
        assert cex == {"x0": True, "x1": True}

    def test_counterexample_is_valid(self):
        m1, _ = xor_pair()
        m3 = Mig(2)
        a, b = m3.pi_signals()
        m3.add_po(m3.and_(a, b))
        result = check_equivalence_sat(m1, m3)
        assert result.equivalent is False
        cex = result.counterexample
        pattern = [int(cex[name]) for name in m1.pi_names]
        out1 = m1.simulate_patterns(pattern, 1)
        out3 = m3.simulate_patterns(pattern, 1)
        assert out1 != out3

    def test_multi_output(self, full_adder):
        clone = full_adder.cleanup()
        assert check_equivalence_sat(full_adder, clone).equivalent is True

    def test_interface_mismatch(self):
        m1, _ = xor_pair()
        m3 = Mig(3)
        m3.add_po(0)
        with pytest.raises(ValueError):
            check_equivalence_sat(m1, m3)

    def test_rewritten_network_equivalence(self, db, suite_small):
        """CEC agrees with simulation on a rewritten benchmark."""
        from repro.rewriting import functional_hashing

        mig = suite_small[5]  # sqrt(4)
        out = functional_hashing(mig, db, "TF")
        result = check_equivalence_sat(mig, out, conflict_budget=200000)
        assert result.equivalent is True


@st.composite
def wide_mig(draw, min_pis=15, max_pis=20, max_gates=40, max_pos=4):
    """Random multi-output MIG wider than exhaustive simulation reaches.

    Half the fanins come from the ten newest signals, so cones run deep
    and reconverge; dead gates are cleaned up, so every gate is
    observable from some output.
    """
    num_pis = draw(st.integers(min_value=min_pis, max_value=max_pis))
    mig = Mig(num_pis)
    signals = [CONST0] + mig.pi_signals()

    def pick() -> int:
        n = len(signals)
        index = draw(
            st.one_of(st.integers(max(0, n - 10), n - 1), st.integers(0, n - 1))
        )
        return signals[index] ^ int(draw(st.booleans()))

    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        signals.append(mig.maj(pick(), pick(), pick()))
    for _ in range(draw(st.integers(min_value=1, max_value=max_pos))):
        mig.add_po(pick())
    return mig.cleanup()


#: depth-optimized generator circuits of 15-18 inputs, whose rewrites
#: strash alone rarely closes (multipliers are left out: the frozen
#: miter needs seconds on them)
GENERATED = (
    ("adder", {"width": 8}),
    ("voter", {"count": 15}),
    ("arbiter", {"width": 8}),
    ("priority", {"width": 16}),
    ("router", {"rows": 3, "cols": 3}),
    ("max", {"width": 4}),
)


@functools.lru_cache(maxsize=None)
def generated(index: int) -> Mig:
    kind, kwargs = GENERATED[index]
    return optimize_depth(GENERATORS[kind][1](**kwargs), rounds=2)


def rebuilt(
    mig: Mig,
    flip_gate: int | None = None,
    flip_fanin: int = 0,
    flip_output: int | None = None,
) -> Mig:
    """A copy of *mig* through ``maj``, optionally with one gate's fanin
    or one output complemented."""
    new = Mig.like(mig)
    mapping = [2 * node for node in range(mig.num_pis + 1)]
    for node in mig.gates():
        fanins = [mapping[s >> 1] ^ (s & 1) for s in mig.fanins(node)]
        if node == flip_gate:
            fanins[flip_fanin] = signal_not(fanins[flip_fanin])
        mapping.append(new.maj(*fanins))
    for index, (s, name) in enumerate(zip(mig.outputs, mig.output_names)):
        new.add_po(mapping[s >> 1] ^ (s & 1) ^ int(index == flip_output), name)
    return new


#: the partners a network is checked against
PARTNERS = ("BF", "TF", "B", "depth", "clone", "output", "fanin")


def partner(mig: Mig, kind: str, db, data) -> Mig:
    if kind in ("BF", "TF", "B"):
        return functional_hashing(mig, db, kind)
    if kind == "depth":
        return optimize_depth(mig)
    if kind == "clone":
        return mig.clone()
    if kind == "output":
        return rebuilt(mig, flip_output=data.draw(st.integers(0, mig.num_pos - 1)))
    gates = list(mig.gates())
    if not gates:
        return mig.clone()
    return rebuilt(
        mig,
        flip_gate=data.draw(st.sampled_from(gates)),
        flip_fanin=data.draw(st.integers(0, 2)),
    )


def assert_distinguishes(mig1: Mig, mig2: Mig, result: CecResult) -> None:
    """A refutation's counterexample must tell the networks apart."""
    if result.equivalent is not False:
        assert result.counterexample is None
        return
    pattern = [int(result.counterexample[name]) for name in mig1.pi_names]
    assert mig1.simulate_patterns(pattern, 1) != mig2.simulate_patterns(pattern, 1)


@pytest.fixture()
def solve_calls(monkeypatch) -> list[int]:
    """One entry per ``Solver.solve`` call made while the test runs."""
    calls: list[int] = []
    solve = Solver.solve

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "solve", counted)
    return calls


class TestSweptCheck:
    @settings(max_examples=60, deadline=None)
    @given(
        mig=st.one_of(
            wide_mig(), st.integers(0, len(GENERATED) - 1).map(generated)
        ),
        kind=st.sampled_from(PARTNERS),
        cap=st.integers(min_value=1, max_value=300),
        data=st.data(),
    )
    def test_matches_frozen_monolithic_miter(self, db, mig, kind, cap, data):
        other = partner(mig, kind, db, data)
        frozen = frozen_check_equivalence_sat(mig, other, conflict_budget=100_000)
        swept = check_equivalence_sat(mig, other)
        if frozen.equivalent is not None:
            assert swept.equivalent is frozen.equivalent
        assert swept.equivalent is not None
        assert_distinguishes(mig, other, swept)
        if kind == "output":
            assert swept.equivalent is False
        capped = check_equivalence_sat(mig, other, conflict_budget=cap)
        assert capped.conflicts <= cap
        assert capped.equivalent in (None, swept.equivalent)
        assert_distinguishes(mig, other, capped)

    def test_structurally_identical_pair_needs_no_solver(self, solve_calls):
        mig = epfl.adder(16)
        result = check_equivalence_sat(mig, rebuilt(mig))
        assert result == CecResult(True, None, 0, {})
        assert solve_calls == []

    def test_only_the_final_miter_races_the_portfolio(
        self, tmp_path, solve_calls, multiplier8_pair
    ):
        """The sweep's queries stay on the internal solver: a check
        races each external lane once, on its final miter."""
        lane = make_script(tmp_path, "silent-lane", "sleep 30\n")
        portfolio = PortfolioSolver(
            external=[DimacsSubprocessBackend([lane], name="lane", grace=0.2)]
        )
        mig, out = multiplier8_pair
        result = check_equivalence_sat(mig, out, sat_backend=portfolio)
        assert result.equivalent is True
        assert len(solve_calls) > 1
        assert portfolio.races == 1
        assert result.backend_events == {"internal:win-unsat": 1, "lane:unknown": 1}
        assert_no_leaked_children(lane)
