"""Machine-speed calibration: a fixed reference evaluation timed next to every item.

The CPU a run gets is not constant.  On a shared host the same work
takes tens of percent longer from one second, or one minute, to the
next, and every timing drifts with it.  So each in-process item is
bracketed by :func:`sample` — the oracle evaluating one fixed,
seed-independent netlist built here, code that shares nothing with
``repro`` — and its time is reported at the nominal machine's speed::

    reported = measured * NOMINAL_S / mean(reference time before, after)

Rates made from item times follow.  A change to the program cannot move
the reference; the raw times are printed beside the scaled ones.

Serve-cold and set-up times are not scaled: they are mostly interpreter
start-up and import, which this reference does not track, and neither
did a start-up reference (a fixed stdlib import in a fresh interpreter
took the same 0.165 s while cold requests drifted; scaling by it widened
their ten-run spread from 14% to 18%).
"""

from __future__ import annotations

import gc
import random
import time

from . import oracle

#: reference time, in seconds, of the nominal machine times are scaled to
NOMINAL_S = 0.02


def _reference_blif(num_inputs: int = 12, num_gates: int = 1200) -> str:
    """A fixed random majority network: same text on every run and commit."""
    rng = random.Random(0)
    names = [f"x{i}" for i in range(num_inputs)]
    lines = [".model reference", ".inputs " + " ".join(names)]
    gates = []
    for g in range(num_gates):
        a, b, c = rng.sample(names[-24:], 3)
        pa, pb, pc = (rng.choice("01") for _ in range(3))
        gates += [f".names {a} {b} {c} g{g}", f"{pa}{pb}- 1", f"{pa}-{pc} 1", f"-{pb}{pc} 1"]
        names.append(f"g{g}")
    outputs = names[-8:]
    return "\n".join(lines + [".outputs " + " ".join(outputs)] + gates + [".end", ""])


_REFERENCE = _reference_blif()


def sample() -> float:
    """Seconds to parse and exhaustively evaluate the reference netlist once.

    The collector is paused meanwhile: the item just measured leaves
    garbage whose collection would otherwise land in the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        net = oracle.parse_blif(_REFERENCE)
        words, mask = oracle.input_words(net.inputs, 0)
        net.evaluate(words, mask)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor turning a time measured between two samples into nominal time."""
    return NOMINAL_S / ((before + after) / 2.0)
