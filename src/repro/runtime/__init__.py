"""Fault-tolerant optimization runtime.

The robustness substrate shared by every layer of the reproduction:

* :mod:`repro.runtime.budget` — wall-clock + conflict budgets shared and
  split across passes;
* :mod:`repro.runtime.verify` — the post-pass equivalence policy
  (exhaustive / sampled simulation, budgeted SAT CEC);
* :mod:`repro.runtime.errors` — the structured exception taxonomy;
* :mod:`repro.runtime.artifacts` — atomic writes, validated loads and
  quarantine for on-disk artifacts;
* :mod:`repro.runtime.faults` — fault injection hooks for testing all of
  the above against real failures;
* :mod:`repro.runtime.codec` — the one fields-driven JSON codec behind
  every persisted record's ``to_dict``/``from_dict``;
* :mod:`repro.runtime.jobs` — batch job specs, the network loader
  (``load_network``), the retry/degradation ladder, the crash-recoverable
  JSONL job journal (and the torn-tail-safe ``open_log`` /
  ``append_record`` every runtime JSONL log appends through), and the
  one job-result summary and adoption path;
* :mod:`repro.runtime.executors` — the one process pool: the
  ``ForkServer`` every worker is forked from (one pre-imported process,
  so a job pays no interpreter start-up), the ``LocalExecutor``
  (submit/poll/drain) with the one stop ladder (SIGTERM → grace →
  SIGKILL, for the watchdog and a drain alike), the child-process
  environment and the SIGINT/SIGTERM helper;
* :mod:`repro.runtime.supervisor` — journal-backed scheduling and the
  retry ladder over its own ``LocalExecutor``, for batch and serve;
* :mod:`repro.runtime.sweep` — sweeps: a declarative scenario matrix
  expanded to job cells, run as one batch on one ``Supervisor`` and
  published as trend rows to ``MATRIX.jsonl``;
* :mod:`repro.runtime.worker` — the worker subprocess entry point
  (``python -m repro.runtime.worker``, also the fork server's).

The package exports only the in-process pieces; callers import the
submodule they need.  See ``docs/ROBUSTNESS.md`` for the full model.
"""

from .budget import Budget
from .errors import (
    BudgetExhausted,
    CorruptArtifact,
    ReproRuntimeError,
    VerificationFailed,
)
from .verify import VerificationReport, verify_rewrite

__all__ = [
    "Budget",
    "BudgetExhausted",
    "CorruptArtifact",
    "ReproRuntimeError",
    "VerificationFailed",
    "VerificationReport",
    "verify_rewrite",
]
