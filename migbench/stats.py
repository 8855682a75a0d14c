"""Summary statistics shared by every workload: percentiles, geomeans, self time."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: samples a tail percentile must leave strictly beyond it
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail latency with the percentile and sample count it was read at."""

    value: float
    percentile: float
    samples: int


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> Tail:
    """Value at the highest percentile that leaves *beyond* samples past it.

    Nearest-rank: with ``n`` sorted samples the value at rank ``n - beyond``
    (1-based) has exactly *beyond* samples after it, and sits at the
    ``100 * (n - beyond) / n`` percentile.  Fewer than ``beyond + 1``
    samples leave no such rank, which is an error, not a silent fallback.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    ordered = sorted(samples)
    rank = n - beyond
    return Tail(ordered[rank - 1], 100.0 * rank / n, n)


def median(values: list[float]) -> float:
    return statistics.median(values)


def geomean(values: list[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quantiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median, third quartile."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass(frozen=True)
class Span:
    """One timed call: *parent* is the id of the span that caused it."""

    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    item: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and their union is
    subtracted, so overlapping children (from threads) count once.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = span.duration - covered
    return out
