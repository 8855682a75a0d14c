"""Frozen per-round randomized equivalence check for the differential tests.

A deliberate snapshot of ``repro.core.simulate.equivalent_random`` (and
the ``random_pattern_round`` draw and ``_check_interfaces`` validation it
calls) as it stood while it ran one 64-bit simulation per round and
returned at the first mismatching round.  The function bodies are copied
byte for byte; ``simulate_network`` is imported and pinned separately
against the frozen big-int loops of tests/core/test_simengine.py.

**Do not refactor this file alongside src/** — its value is that it
stays behind as the oracle: the packed ``equivalent_random`` must return
the same verdict on every pair (tests/core/test_simulate.py).
"""

from __future__ import annotations

import random

from repro.core.kernel import Network
from repro.core.simengine import simulate_network

__all__ = ["frozen_equivalent_random"]


def random_pattern_round(rng, num_pis: int, width: int) -> list[int]:
    """One round of random input words, **round-major** draw order.

    The draw order of ``equivalent_random`` since the first release (one
    word per PI, drawn per round): keep it so historical seeds reproduce.
    """
    mask = (1 << width) - 1
    return [rng.getrandbits(width) & mask for _ in range(num_pis)]


def frozen_equivalent_random(
    mig1: Network,
    mig2: Network,
    num_rounds: int = 16,
    width: int = 64,
    seed: int = 0xC0FFEE,
) -> bool:
    """Compare two networks on random bit-parallel vectors.

    Returns ``False`` on any mismatch (a definite counterexample) and
    ``True`` if all rounds agree (equivalence *not refuted*).
    """
    _check_interfaces(mig1, mig2)
    rng = random.Random(seed)
    for _ in range(num_rounds):
        patterns = random_pattern_round(rng, mig1.num_pis, width)
        if simulate_network(mig1, patterns, width) != simulate_network(
            mig2, patterns, width
        ):
            return False
    return True


def _check_interfaces(mig1: Network, mig2: Network) -> None:
    if mig1.num_pis != mig2.num_pis:
        raise ValueError(f"PI counts differ: {mig1.num_pis} vs {mig2.num_pis}")
    if mig1.num_pos != mig2.num_pos:
        raise ValueError(f"PO counts differ: {mig1.num_pos} vs {mig2.num_pos}")
