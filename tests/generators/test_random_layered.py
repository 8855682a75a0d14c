"""The seeded layered generator (repro.generators.random_layered)."""

from __future__ import annotations

import pytest

from repro.generators import layered_mig


@pytest.mark.parametrize(
    "args",
    [
        (5, 1, 8, 3, 1, 0),  # one input: three distinct nodes never exist
        (1, 3, 8, 2, 1, 0),  # one-gate layers that shrink to two nodes
        (40, 2, 1, 1, 2, 9),  # width-1 layers
    ],
)
def test_stops_when_no_gate_can_be_drawn(args):
    mig = layered_mig(*args)
    assert mig.num_gates <= args[0]
    mig.check()


def test_same_seed_same_network():
    first = layered_mig(300, num_pis=8, width=16, seed=4)
    second = layered_mig(300, num_pis=8, width=16, seed=4)
    assert first.num_gates == 300
    assert first._fanins == second._fanins and first.outputs == second.outputs
