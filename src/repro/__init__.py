"""repro — Majority-Inverter Graph optimization with functional hashing.

A from-scratch Python reproduction of M. Soeken, L. G. Amarù,
P.-E. Gaillardon, G. De Micheli, *Optimizing Majority-Inverter Graphs
with Functional Hashing*, DATE 2016.

Public API highlights:

* :class:`repro.core.Mig` — the Majority-Inverter Graph data structure.
* :func:`repro.rewriting.functional_hashing` — the paper's size
  optimization in all its variants (T, TD, TF, TFD, B, BD, BF, BFD).
* :class:`repro.database.NpnDatabase` — precomputed minimum MIGs for all
  222 four-input NPN classes.
* :func:`repro.exact.synthesize_exact` — SAT-based exact synthesis
  (Sec. III of the paper).
* :func:`repro.opt.optimize_depth` — the algebraic depth optimization the
  paper uses to produce its baselines.
* :func:`repro.mapping.map_mig` — cut-based technology mapping (Table IV).
* :mod:`repro.generators` — structural equivalents of the EPFL arithmetic
  benchmarks.
* :class:`repro.runtime.Budget` / :func:`repro.runtime.verify_rewrite` —
  the fault-tolerant runtime: shared time/conflict budgets, post-pass
  verification with rollback, crash-safe artifacts (docs/ROBUSTNESS.md).
"""

from .core import Mig, check_equivalence, npn_canonize
from .database import NpnDatabase
from .rewriting import VARIANTS, functional_hashing
from .exact import synthesize_exact
from .opt import optimize_depth
from .mapping import map_mig
from .runtime import Budget, verify_rewrite

__version__ = "1.1.0"

__all__ = [
    "Mig",
    "check_equivalence",
    "npn_canonize",
    "NpnDatabase",
    "functional_hashing",
    "VARIANTS",
    "synthesize_exact",
    "optimize_depth",
    "map_mig",
    "Budget",
    "verify_rewrite",
    "__version__",
]
