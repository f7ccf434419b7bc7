"""Differential replay: every engine held to the tick reference.

The ``fast`` (segment-skipping) and ``vector`` (struct-of-arrays)
engines promise results *bit-identical* to the reference tick loop.
:func:`differential_cube` turns that promise into one reusable check
over a (policy x shape x bid x start) cube, or over an Adaptive
(shape x start) cube:

* rows and the bid-equivalence clone plan come from
  :func:`~repro.core.bid_batch.cube_rows`, as in the experiment
  runner;
* every row runs audited on ``tick`` (the reference) and audited on
  ``fast``, each engine with its own fresh oracle, auditor and per-row
  RNG streams; the whole cube runs once on ``vector``;
* each ``fast`` and ``vector`` row is diffed against its ``tick`` row
  on its :class:`~repro.core.engine.RunResult` fields, its events and
  its final RNG state (the queue-delay draw count; a clone row draws
  nothing, so its representative's generator stands in for it).

Events are diffed position by position with :func:`diff_events`,
after the caller has filtered both sides to comparable kinds: audited
streams drop :data:`~repro.audit.events.META_KINDS` (``run-end``
counters differ between engines by design), and an engine event log
(``fast`` or ``vector``) is held to the tick audited stream with
:data:`NON_LOG_KINDS` removed.
A non-empty report pinpoints the first divergent event: its engine,
row, simulation time, zone and kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from repro.audit.auditor import AuditReport, RunAuditor
from repro.audit.events import META_KINDS
from repro.audit.sink import MemorySink

#: Cap on reported diffs; past the first few, more add noise not signal.
MAX_DIFFS = 50

#: Audited kinds with no counterpart in an engine event log: auditor
#: meta events plus the state-machine transition narration.
NON_LOG_KINDS: frozenset[str] = META_KINDS | {"transition"}

#: Event fields compared; ``seq`` and ``run`` only number a stream, and
#: an engine log entry carries no ``data`` (read as empty).
EVENT_FIELDS = ("time", "kind", "zone", "detail", "data")


@dataclass(frozen=True)
class FieldDiff:
    """One disagreement between an engine and the reference."""

    #: engine, row and event, e.g. ``vector.row[3](policy=0,shape=1,bid=0.81).event[12]``
    where: str
    field: str
    value: object
    reference: object

    def __str__(self) -> str:
        return (
            f"{self.where}.{self.field}: {self.value!r} "
            f"(reference {self.reference!r})"
        )


@dataclass
class DifferentialReport:
    """Outcome of one differential replay."""

    #: Every disagreement, row by row: events, result fields, RNG state.
    diffs: list[FieldDiff] = field(default_factory=list)
    #: Invariant-check outcome per audited engine (``tick``, ``fast``).
    audits: dict[str, AuditReport] = field(default_factory=dict)
    #: Per-row RunResults per engine (``tick``, ``fast``, ``vector``).
    results: dict[str, list] = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        return not self.diffs

    @property
    def ok(self) -> bool:
        """Identical rows *and* zero invariant violations on every
        audited engine."""
        return self.identical and all(a.ok for a in self.audits.values())

    def summary_lines(self) -> list[str]:
        if self.identical:
            lines = [
                f"differential: {len(self.results.get('tick', ()))} rows "
                "agree with tick on every field, event and RNG state"
            ]
        else:
            lines = [
                f"differential: {d}" for d in self.diffs[:MAX_DIFFS]
            ] + [f"differential: {len(self.diffs)} diffs"]
        for name, audit in self.audits.items():
            if not audit.ok:
                lines.append(
                    f"differential: {name} engine reported "
                    f"{len(audit.violations)} invariant violations"
                )
        return lines


def diff_events(
    events: Sequence[object],
    reference: Sequence[object],
    where: str = "event",
) -> list[FieldDiff]:
    """Positional, field-by-field diff of two event sequences.

    Either side may be audited events or engine log entries; filter
    both to comparable kinds first.  A length mismatch is reported at
    the first position only one side has (the other side's kind reads
    ``None``), then as a ``length`` diff.
    """
    diffs: list[FieldDiff] = []
    for i, (a, b) in enumerate(zip(events, reference)):
        for name in EVENT_FIELDS:
            va, vb = getattr(a, name, ()), getattr(b, name, ())
            if va != vb:
                diffs.append(FieldDiff(f"{where}[{i}]", name, va, vb))
                if len(diffs) >= MAX_DIFFS:
                    return diffs
    if len(events) != len(reference):
        n = min(len(events), len(reference))
        diffs.append(FieldDiff(
            f"{where}[{n}]", "kind",
            events[n].kind if len(events) > n else None,
            reference[n].kind if len(reference) > n else None,
        ))
        diffs.append(FieldDiff(where, "length", len(events), len(reference)))
    return diffs


def diff_results(result, reference, where: str = "result") -> list[FieldDiff]:
    """Field-by-field diff of two RunResults; ``events`` is left to
    :func:`diff_events`, which locates a divergence."""
    diffs: list[FieldDiff] = []
    for f in fields(result):
        va, vb = getattr(result, f.name), getattr(reference, f.name)
        if f.name != "events" and va != vb:
            diffs.append(FieldDiff(where, f.name, va, vb))
    return diffs


def _drop(events: Sequence[object], kinds: frozenset[str]) -> list:
    return [e for e in events if e.kind not in kinds]


def differential_cube(
    trace,
    configs: Sequence,
    starts_per_shape: Sequence[Sequence[float]],
    *,
    policies: Sequence[Callable[[], object]] = (),
    bids: Sequence[float] = (),
    zones: Sequence[str] = (),
    controller_factory: Callable[[], object] | None = None,
    queue_model=None,
    seed: int = 0,
) -> DifferentialReport:
    """Replay a cube on all three engines and diff every row against
    ``tick``.

    A policy cube takes ``policies`` (factories), ``bids`` and
    ``zones``; shape ``k`` of ``configs`` runs at
    ``starts_per_shape[k]``.  An Adaptive cube takes
    ``controller_factory`` instead, one row per (shape, start), each
    row bootstrapped as the experiment runner's Adaptive cells are
    (``PeriodicPolicy`` at the controller's first bid on the trace's
    first zone).  Every row gets the runner's per-start RNG stream
    (``SeedSequence(entropy=seed, spawn_key=(start,))``).  Every row is
    simulated independently on ``tick`` and ``fast`` at its own policy,
    shape and bid, so a clone row is held to a full run at its own
    bid, not merely to its representative.
    """
    from repro.core.bid_batch import cube_rows
    from repro.core.engine import SpotSimulator
    from repro.core.periodic import PeriodicPolicy
    from repro.core.vector_engine import VectorSimulator
    from repro.market.queuing import QueueDelayModel
    from repro.market.spot_market import PriceOracle

    configs = list(configs)
    policies = list(policies)
    if controller_factory is not None:
        if policies or bids or zones:
            raise ValueError(
                "an Adaptive cube takes no policies, bids or zones"
            )
        bids = [controller_factory().bids[0]]
        zones = trace.zone_names[:1]
        policies = [None]  # a controller-driven policy never clones
    zones = tuple(zones)
    rows = cube_rows(
        trace, zones, [float(b) for b in bids], starts_per_shape,
        [cfg.deadline_s for cfg in configs], policies,
    )
    qm = queue_model or QueueDelayModel()

    def rngs():
        return [
            np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(int(s),))
            )
            for s in rows.starts
        ]

    def run_row(sim, i):
        config = configs[rows.shape_idx[i]]
        if controller_factory is not None:
            ctrl = controller_factory()
            return sim.run(config, PeriodicPolicy(), ctrl.bids[0], zones,
                           rows.starts[i], controller=ctrl)
        return sim.run(config, policies[rows.policy_idx[i]](), rows.bids[i],
                       zones, rows.starts[i])

    report = DifferentialReport()
    streams, states = {}, {}
    for engine in ("tick", "fast"):
        oracle, sink = PriceOracle(trace), MemorySink()
        auditor = RunAuditor(sink=sink, strict=False)
        results, streams[engine], states[engine] = [], [], []
        for i, rng in enumerate(rngs()):
            before = len(sink.events)
            results.append(run_row(SpotSimulator(
                oracle=oracle, queue_model=qm, rng=rng, record_events=True,
                engine_mode=engine, auditor=auditor,
            ), i))
            streams[engine].append(sink.events[before:])
            states[engine].append(rng.bit_generator.state)
        report.results[engine] = results
        report.audits[engine] = auditor.drain()

    vec = VectorSimulator(
        oracle=PriceOracle(trace), queue_model=qm, record_events=True
    )
    vector_rngs = rngs()
    if controller_factory is not None:
        report.results["vector"] = vec.run_adaptive_cube(
            configs, controller_factory, rows.shape_idx, rows.starts,
            vector_rngs,
        )
    else:
        report.results["vector"] = vec.run_cube(
            configs, policies, zones, rows.shape_idx, rows.bids,
            rows.starts, vector_rngs, clone_of=rows.clone_of,
            policy_idx=rows.policy_idx,
        )
    clone_of = rows.clone_of or [None] * len(rows.starts)
    states["vector"] = [
        vector_rngs[i if rep is None else rep].bit_generator.state
        for i, rep in enumerate(clone_of)
    ]

    for i, reference in enumerate(report.results["tick"]):
        row = (
            f"row[{i}](policy={rows.policy_idx[i]},"
            f"shape={rows.shape_idx[i]},bid={rows.bids[i]:.2f})"
        )
        tick_stream = streams["tick"][i]
        for engine in ("fast", "vector"):
            result = report.results[engine][i]
            where = f"{engine}.{row}"
            report.diffs += diff_events(
                result.events, _drop(tick_stream, NON_LOG_KINDS),
                f"{where}.event",
            )
            if engine in streams:
                report.diffs += diff_events(
                    _drop(streams[engine][i], META_KINDS),
                    _drop(tick_stream, META_KINDS), f"{where}.audited",
                )
            report.diffs += diff_results(result, reference, where)
            if states[engine][i] != states["tick"][i]:
                report.diffs.append(FieldDiff(
                    where, "rng_state", states[engine][i], states["tick"][i]
                ))
    return report
