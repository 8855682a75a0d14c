"""Seeded inputs for every workload, generated before any timing starts.

Each workload draws one width per generator kind from a short list of
neighbouring widths, so every seed exercises every kind (stratified, not
a free draw — a free draw would let one seed's mix of sizes swamp the
differences between commits).  Circuits are depth-optimized the way the
paper's Table III baselines are (``optimize_depth(rounds=2)``) and then
serialized to BLIF, BENCH or ASCII AIGER text; that text is all the
program under test ever receives.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass

#: flow-suite: all 14 registry generators, ~170 to ~8.5k gates.  Widths
#: move by a few percent between seeds: enough to change every input
#: netlist, too little to reshuffle which kinds sit at the median and tail.
FLOW_POOL = (
    ("adder", (124, 128)),
    ("divisor", (16,)),
    ("log2", (14,)),
    ("max", (48, 50)),
    ("multiplier", (24, 25)),
    ("sine", (14,)),
    ("square-root", (18,)),
    ("square", (28, 29)),
    ("arbiter", (124, 128)),
    ("dec", (8,)),
    ("int2float", (11,)),
    ("priority", (124, 128)),
    ("router", ((6, 5), (5, 6))),
    ("voter", (201, 203)),
)

#: serve-cold: small uploads (~20-400 gates); some fall below the
#: rewriters' 32-gate batch threshold, so the scalar cut path runs too.
#: One width per kind: a request's cost is mostly process start-up, and
#: the seed varies the traffic (order, client, which uploads repeat)
#: rather than the circuits, whose gate total throughput is counted in.
SERVE_POOL = (
    ("adder", (10,)),
    ("divisor", (4,)),
    ("log2", (5,)),
    ("max", (6,)),
    ("multiplier", (5,)),
    ("sine", (5,)),
    ("square-root", (6,)),
    ("square", (6,)),
    ("arbiter", (12,)),
    ("dec", (4,)),
    ("int2float", (8,)),
    ("priority", (24,)),
    ("router", ((3, 3),)),
    ("voter", (21,)),
)

#: cut5-cec: wide circuits (more than 14 inputs, so verification builds
#: SAT miters) and narrow arithmetic whose 5-input cut classes need
#: exact synthesis.  One width per kind, as for serve-cold: a width step
#: changes which classes need synthesis, and with them the tail.
CUT5_POOL = (
    ("adder", (20,)),
    ("max", (5,)),
    ("arbiter", (10,)),
    ("voter", (19,)),
    ("priority", (20,)),
    ("router", ((3, 4),)),
    ("sine", (5,)),
    ("log2", (5,)),
    ("int2float", (8,)),
    ("square-root", (5,)),
    ("divisor", (4,)),
    ("multiplier", (5,)),
)

POOLS = {"flow-suite": FLOW_POOL, "serve-cold": SERVE_POOL, "cut5-cec": CUT5_POOL}

FORMATS = ("blif", "bench", "aag")


@dataclass(frozen=True)
class ItemSpec:
    """One circuit to generate: registry kind, its size parameter, text format."""

    kind: str
    width: object
    fmt: str

    @property
    def label(self) -> str:
        width = "x".join(map(str, self.width)) if isinstance(self.width, tuple) else self.width
        return f"{self.kind}-{width}.{self.fmt}"


@dataclass(frozen=True)
class Item:
    spec: ItemSpec
    text: str
    gates: int
    pis: int


def draw(workload: str, seed: int) -> list[ItemSpec]:
    """The seed's item list: one width per kind, shuffled order.

    Only serve-cold mixes upload formats, fixed per kind so every seed
    uploads the same mix (a BENCH upload parses to a larger MIG, which
    moves ``size_ratio``); the in-process workloads read BLIF, as
    ``migopt flow`` does.
    """
    rng = random.Random(f"{workload}:{seed}")
    specs = []
    for position, (kind, widths) in enumerate(POOLS[workload]):
        width = rng.choice(widths)
        fmt = FORMATS[position % len(FORMATS)] if workload == "serve-cold" else "blif"
        specs.append(ItemSpec(kind, width, fmt))
    rng.shuffle(specs)
    return specs


def _generate(spec: ItemSpec):
    from repro.generators import GENERATORS

    generator = GENERATORS[spec.kind][1]
    if spec.kind == "router":
        rows, cols = spec.width
        return generator(rows=rows, cols=cols)
    if spec.kind == "voter":
        return generator(count=spec.width)
    return generator(width=spec.width)


def build(spec: ItemSpec) -> Item:
    """Generate, depth-optimize and serialize one circuit."""
    from repro.aig.convert import mig_to_aig
    from repro.io.aiger import write_aag
    from repro.io.bench import write_bench
    from repro.io.blif import write_blif
    from repro.opt.depth_opt import optimize_depth

    mig = optimize_depth(_generate(spec), rounds=2)
    mig.name = spec.label.replace(".", "_")
    buf = io.StringIO()
    if spec.fmt == "blif":
        write_blif(mig, buf)
    elif spec.fmt == "bench":
        write_bench(mig, buf)
    else:
        write_aag(mig_to_aig(mig), buf)
    return Item(spec, buf.getvalue(), mig.num_gates, mig.num_pis)
