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
* :mod:`repro.runtime.executors` — the one process pool: the fork-based
  ``LocalExecutor`` (submit/poll/drain) with the one stop ladder
  (SIGTERM → grace → SIGKILL, for the watchdog and a drain alike), the
  child-process environment and the SIGINT/SIGTERM helper;
* :mod:`repro.runtime.supervisor` — the supervised parallel batch
  runtime: journal-backed scheduling and the retry ladder over its own
  ``LocalExecutor``;
* :mod:`repro.runtime.sweep` — sweeps: a declarative scenario matrix
  expanded to job cells, run as one batch on one ``Supervisor`` and
  published as trend rows to ``MATRIX.jsonl``;
* :mod:`repro.runtime.worker` — the worker subprocess entry point
  (``python -m repro.runtime.worker``).

See ``docs/ROBUSTNESS.md`` for the full model.
"""

from .budget import Budget
from .errors import (
    BudgetExhausted,
    CorruptArtifact,
    ReproRuntimeError,
    VerificationFailed,
)
from .executors import ExecutorTask, LocalExecutor, TaskExit, TaskHandle
from .jobs import BatchReport, JobJournal, JobSpec, load_network
from .supervisor import Supervisor, run_batch
from .sweep import SweepConflictError, SweepSpec, run_sweep
from .verify import VerificationReport, verify_rewrite

__all__ = [
    "BatchReport",
    "Budget",
    "BudgetExhausted",
    "CorruptArtifact",
    "ExecutorTask",
    "JobJournal",
    "JobSpec",
    "LocalExecutor",
    "ReproRuntimeError",
    "Supervisor",
    "SweepConflictError",
    "SweepSpec",
    "TaskExit",
    "TaskHandle",
    "VerificationFailed",
    "VerificationReport",
    "load_network",
    "run_batch",
    "run_sweep",
    "verify_rewrite",
]
