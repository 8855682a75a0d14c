"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.core.mig import Mig, signal_not
from repro.database import NpnDatabase


@pytest.fixture(scope="session")
def db() -> NpnDatabase:
    """The packaged NPN-4 database (generated by repro.database.generate)."""
    return NpnDatabase.load()


@pytest.fixture()
def full_adder() -> Mig:
    """The Fig. 1 full adder: 3 gates, depth 2."""
    mig = Mig(3, name="full_adder")
    a, b, cin = mig.pi_signals()
    cout = mig.maj(a, b, cin)
    s = mig.maj(signal_not(cout), mig.maj(a, b, signal_not(cin)), cin)
    mig.add_po(s, "s")
    mig.add_po(cout, "cout")
    return mig


def small_test_circuits() -> list[Mig]:
    """A fixed set of small circuits used across rewriting/mapping tests."""
    from repro.generators import epfl

    return [
        epfl.adder(6),
        epfl.multiplier(4),
        epfl.square(4),
        epfl.max4(4),
        epfl.divisor(4),
        epfl.square_root(4),
        epfl.sine(6),
        epfl.log2(6),
    ]


@pytest.fixture(scope="session")
def suite_small() -> list[Mig]:
    """Session-cached small benchmark instances."""
    return small_test_circuits()


@pytest.fixture(scope="session")
def multiplier8_pair(db) -> tuple[Mig, Mig]:
    """A depth-optimized 16-input multiplier and its BF rewrite: a wide
    pair that strashing alone does not prove equivalent, so SAT CEC
    has to sweep it (the monolithic miter gave up after 50,000
    conflicts)."""
    from repro.generators import epfl
    from repro.opt.depth_opt import optimize_depth
    from repro.rewriting import functional_hashing

    mig = optimize_depth(epfl.multiplier(8), rounds=2)
    return mig, functional_hashing(mig, db, "BF")
