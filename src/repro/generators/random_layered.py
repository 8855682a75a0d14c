"""Seeded layered random MIGs for scalability work.

The EPFL-style arithmetic generators top out around tens of thousands of
gates and carry deep carry chains; scalability tests and benchmarks also
need *wide* instances — million-gate networks whose level population is
large enough for the array-native rewriting pipeline to batch over
(docs/PERFORMANCE.md).  :func:`layered_mig` builds exactly that shape:
gates arranged in layers of a chosen width, each choosing fanins from
the recent layers, fully deterministic per seed.

The construction goes through the ordinary strashing ``maj`` builder, so
generated networks contain the same local redundancy (strash hits, unit
rules, shareable cones) a synthesized netlist would — rewriting finds
real gains on them, they are not incompressible noise.
"""

from __future__ import annotations

import random

from ..core.mig import CONST0, Mig

__all__ = ["layered_mig"]


def layered_mig(
    num_gates: int,
    num_pis: int = 32,
    width: int = 512,
    locality: int = 3,
    num_pos: int = 8,
    seed: int = 0,
) -> Mig:
    """Build a random MIG of ~*num_gates* gates in layers of *width*.

    Every gate draws its three fanins (with random complementation) from
    the previous *locality* layers — wide levels, shallow local cones,
    plenty of reconvergence.  Construction strashing may merge some
    draws, so the loop runs until the gate count is reached, or until
    the recent layers hold fewer than three distinct nodes (from which
    no majority gate can be made); the result has **at least**
    ``num_gates`` gates only when the random draws permit, and never
    more than ``num_gates``.
    """
    if num_gates < 0:
        raise ValueError("num_gates must be non-negative")
    rng = random.Random(seed)
    mig = Mig(num_pis)
    layers: list[list[int]] = [[CONST0, *mig.pi_signals()]]
    while mig.num_gates < num_gates:
        pool: list[int] = []
        for layer in layers[-locality:]:
            pool.extend(layer)
        if len({s >> 1 for s in pool}) < 3:
            break  # every draw repeats a node, so no gate can ever be added
        layer_target = min(width, num_gates - mig.num_gates)
        new_layer: list[int] = []
        for _ in range(layer_target):
            a, b, c = (rng.choice(pool) for _ in range(3))
            signal = mig.maj(
                a ^ rng.getrandbits(1),
                b ^ rng.getrandbits(1),
                c ^ rng.getrandbits(1),
            )
            new_layer.append(signal)
        layers.append(new_layer)
    for signal in layers[-1][: max(1, num_pos)]:
        mig.add_po(signal ^ rng.getrandbits(1))
    return mig
