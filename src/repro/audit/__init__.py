"""Run-audit layer: structured event tracing + invariant checking.

The simulator's correctness story rests on properties that used to be
asserted only in tests: billing conservation (§2.1's hour rules),
progress monotonicity, zone-state-machine legality, the deadline
guarantee of Algorithm 1, and the fast engine's bit-identity to the
reference tick loop.  This package turns each of those claims into a
*runtime-checked* property:

* :class:`RunAuditor` — the engine-facing façade.  Attach one to a
  :class:`~repro.core.engine.SpotSimulator` and every run streams
  structured events into it (JSONL via :class:`JsonlSink`, in-memory
  via :class:`MemorySink`) while the :class:`InvariantChecker`
  validates state per tick-or-segment and at run end.
* :func:`differential_cube` — replays a (policy x shape x bid x
  start) or Adaptive cube on the ``tick``, ``fast`` and ``vector``
  engines and diffs every ``fast`` and ``vector`` row against the
  ``tick`` reference: RunResult fields, events and final RNG state,
  promoting the engines' bit-identity claim into one reusable check.

Auditing is default-off and adds <10% overhead when disabled (a
handful of ``is None`` branches per tick).
"""

from repro.audit.auditor import AuditReport, RunAuditor
from repro.audit.differential import (
    DifferentialReport,
    FieldDiff,
    diff_events,
    diff_results,
    differential_cube,
)
from repro.audit.events import META_KINDS, AuditEvent, RunCounters
from repro.audit.invariants import (
    LEGAL_TRANSITIONS,
    InvariantChecker,
    InvariantError,
    InvariantViolation,
)
from repro.audit.sink import AuditSink, JsonlSink, MemorySink, NullSink

__all__ = [
    "AuditEvent",
    "AuditReport",
    "AuditSink",
    "DifferentialReport",
    "FieldDiff",
    "InvariantChecker",
    "InvariantError",
    "InvariantViolation",
    "JsonlSink",
    "LEGAL_TRANSITIONS",
    "META_KINDS",
    "MemorySink",
    "NullSink",
    "RunAuditor",
    "RunCounters",
    "diff_events",
    "diff_results",
    "differential_cube",
]
