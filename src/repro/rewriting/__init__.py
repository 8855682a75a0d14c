"""Functional hashing: MIG size optimization by cut rewriting (Sec. IV)."""

from .engine import VARIANTS, RewriteStats, functional_hashing
from .top_down import rewrite_top_down
from .bottom_up import rewrite_bottom_up
from .dynamic_db import DynamicDatabase

__all__ = [
    "functional_hashing",
    "VARIANTS",
    "RewriteStats",
    "rewrite_top_down",
    "rewrite_bottom_up",
    "DynamicDatabase",
]
