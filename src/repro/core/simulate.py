"""Functional validation helpers for kernel-backed networks.

Provides exhaustive and randomized combinational equivalence checking used
throughout the test-suite and by the optimization passes to assert that
rewriting never changes network functionality.  For networks too wide for
exhaustive simulation, random bit-parallel vectors give a fast refutation
check (a full SAT-based CEC lives in :mod:`repro.sat.cec`).

Works on any :class:`repro.core.kernel.Network` facade (MIG or AIG) —
both simulation and the random draws go through the shared
:mod:`repro.core.simengine` (the historical round-major draw order and
the ``0xC0FFEE`` seed are preserved, so expectations pinned by existing
tests hold).
"""

from __future__ import annotations

import random

from .kernel import Network
from .simengine import random_pattern_round, simulate_network

__all__ = [
    "EXHAUSTIVE_PI_LIMIT",
    "check_equivalence",
    "equivalent_exhaustive",
    "equivalent_random",
]

#: widest network checked by complete simulation (2**14 rows; about
#: 25 ms for an 8.5k-gate, 14-input log2 network on a 2-core host)
EXHAUSTIVE_PI_LIMIT = 14


def equivalent_exhaustive(mig1: Network, mig2: Network) -> bool:
    """Exhaustively compare two networks with identical PI/PO counts."""
    _check_interfaces(mig1, mig2)
    if mig1.num_pis > EXHAUSTIVE_PI_LIMIT:
        raise ValueError(
            f"exhaustive equivalence limited to {EXHAUSTIVE_PI_LIMIT} inputs; "
            "use equivalent_random or SAT-based CEC"
        )
    return mig1.simulate() == mig2.simulate()


def equivalent_random(
    mig1: Network,
    mig2: Network,
    num_rounds: int = 16,
    width: int = 64,
    seed: int = 0xC0FFEE,
) -> bool:
    """Compare two networks on random bit-parallel vectors.

    Returns ``False`` on any mismatch (a definite counterexample) and
    ``True`` if all rounds agree (equivalence *not refuted*).  The rounds
    are drawn in the historical order and round ``r`` fills bits
    ``[r * width, (r + 1) * width)`` of each input word, so each network
    is simulated once on all rounds.
    """
    _check_interfaces(mig1, mig2)
    rng = random.Random(seed)
    words = [0] * mig1.num_pis
    for r in range(num_rounds):
        for i, w in enumerate(random_pattern_round(rng, mig1.num_pis, width)):
            words[i] |= w << (r * width)
    total = num_rounds * width
    return simulate_network(mig1, words, total) == simulate_network(mig2, words, total)


def check_equivalence(mig1: Network, mig2: Network, num_rounds: int = 16) -> bool:
    """Equivalence check that picks exhaustive or random automatically."""
    _check_interfaces(mig1, mig2)
    if mig1.num_pis <= EXHAUSTIVE_PI_LIMIT:
        return equivalent_exhaustive(mig1, mig2)
    return equivalent_random(mig1, mig2, num_rounds=num_rounds)


def _check_interfaces(mig1: Network, mig2: Network) -> None:
    if mig1.num_pis != mig2.num_pis:
        raise ValueError(f"PI counts differ: {mig1.num_pis} vs {mig2.num_pis}")
    if mig1.num_pos != mig2.num_pos:
        raise ValueError(f"PO counts differ: {mig1.num_pos} vs {mig2.num_pos}")
