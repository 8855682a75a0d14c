"""Variant dispatcher for functional hashing (Sec. V-C acronyms).

The paper evaluates five variants named by letters: Top-down or Bottom-up,
optional Fanout-free-region locality, optional Depth-preserving heuristic.
This module exposes them under the paper's acronyms::

    T    top-down, global
    TD   top-down, depth-preserving
    TF   top-down, per fanout-free region
    TFD  top-down, per FFR, depth-preserving
    B    bottom-up, global
    BD   bottom-up, depth-preserving
    BF   bottom-up, per fanout-free region
    BFD  bottom-up, per FFR, depth-preserving

(The paper reports TF, T, TFD, TD and BF in Tables III/IV; the remaining
combinations are provided for completeness.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.mig import Mig
from ..core.npn import canonize_cache_info
from ..database.npn_db import NpnDatabase
from ..runtime.metrics import PassMetrics
from .bottom_up import rewrite_bottom_up
from .top_down import rewrite_top_down

__all__ = ["VARIANTS", "functional_hashing", "RewriteStats"]

VARIANTS = ("T", "TD", "TF", "TFD", "B", "BD", "BF", "BFD")


@dataclass(frozen=True)
class RewriteStats:
    """Before/after statistics of one functional-hashing run."""

    variant: str
    size_before: int
    depth_before: int
    size_after: int
    depth_after: int
    runtime: float
    metrics: PassMetrics = field(default_factory=PassMetrics, compare=False)

    @property
    def size_ratio(self) -> float:
        """new/old size — the paper's improvement metric (lower is better)."""
        if self.size_before == 0:
            return 1.0
        return self.size_after / self.size_before

    @property
    def depth_ratio(self) -> float:
        """new/old depth."""
        if self.depth_before == 0:
            return 1.0
        return self.depth_after / self.depth_before


def _parse_variant(variant: str) -> tuple[bool, bool, bool]:
    """Return (top_down, fanout_free, depth_preserving) for an acronym."""
    name = variant.upper()
    if name not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    top_down = name.startswith("T")
    fanout_free = "F" in name
    depth_preserving = name.endswith("D")
    return top_down, fanout_free, depth_preserving


def functional_hashing(
    mig: Mig,
    db: NpnDatabase,
    variant: str = "BF",
    cut_size: int = 4,
    cut_limit: int = 8,
    candidate_limit: int = 3,
    metrics: PassMetrics | None = None,
    return_stats: bool = False,
) -> Mig | tuple[Mig, RewriteStats]:
    """Apply one functional-hashing pass in the given paper variant.

    With ``return_stats=True`` the result is ``(mig, RewriteStats)`` where
    the stats carry the populated :class:`PassMetrics` of the pass; sizes
    and depths are only measured in that mode, keeping the plain call free
    of extra traversals.
    """
    top_down, fanout_free, depth_preserving = _parse_variant(variant)
    if metrics is None:
        metrics = PassMetrics(variant=variant.upper())
    elif not metrics.variant:
        metrics.variant = variant.upper()
    npn_before = canonize_cache_info()
    start = time.perf_counter()
    if top_down:
        result = rewrite_top_down(
            mig,
            db,
            depth_preserving=depth_preserving,
            fanout_free=fanout_free,
            cut_size=cut_size,
            cut_limit=cut_limit,
            metrics=metrics,
        )
    else:
        result = rewrite_bottom_up(
            mig,
            db,
            depth_preserving=depth_preserving,
            fanout_free=fanout_free,
            cut_size=cut_size,
            cut_limit=cut_limit,
            candidate_limit=candidate_limit,
            metrics=metrics,
        )
    runtime = time.perf_counter() - start
    npn_after = canonize_cache_info()
    metrics.npn_cache_hits += npn_after.hits - npn_before.hits
    metrics.npn_cache_misses += npn_after.misses - npn_before.misses
    if not return_stats:
        return result
    stats = RewriteStats(
        variant=variant.upper(),
        size_before=mig.num_gates,
        depth_before=mig.depth(),
        size_after=result.num_gates,
        depth_after=result.depth(),
        runtime=runtime,
        metrics=metrics,
    )
    return result, stats
