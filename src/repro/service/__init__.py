"""Online bid-advisor service layer.

The paper's end product is a *decision*: given an HPC job — compute
time C, deadline D, checkpoint cost t_c — pick the bid, zone count and
checkpoint policy that minimize expected cost while keeping the
deadline guarantee.  The figure harness can answer that only by
re-running whole sweeps; this package serves the same answer online:

* :mod:`repro.service.surface` precomputes **policy surfaces** —
  expected cost, deadline-miss risk and makespan over a
  (policy x bid x zone-count x start) grid — through the vector
  engine with the content-addressed run cache as its persistence
  layer, and serializes them as versioned on-disk artifacts;
* :mod:`repro.service.advisor` loads surfaces and answers
  ``advise(C, D, t_c, budget)`` queries in microseconds, with request
  coalescing of identical in-flight queries, an LRU of hot surfaces,
  and a graceful cold path that computes a missing surface through
  the cached vector engine.

CLI front ends: ``repro-spotsim surface build|ls``, ``advise`` and
``serve`` (a JSON-lines loop for benchmarking).
"""

from repro.service.advisor import (
    Advice,
    AdvisorService,
    JobSpec,
    ServiceStats,
    serve_lines,
)
from repro.service.surface import (
    PolicySurface,
    SurfaceBuilder,
    SurfaceCell,
    SurfaceCorruptError,
    SurfaceSpec,
    SurfaceStore,
)

__all__ = [
    "Advice",
    "AdvisorService",
    "JobSpec",
    "PolicySurface",
    "ServiceStats",
    "SurfaceBuilder",
    "SurfaceCell",
    "SurfaceCorruptError",
    "SurfaceSpec",
    "SurfaceStore",
    "serve_lines",
]
