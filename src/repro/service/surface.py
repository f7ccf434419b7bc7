"""Precomputed policy surfaces: the advisor's offline half.

A *surface* is one job shape — an :class:`ExperimentConfig` against
one volatility window — evaluated over the full
(policy x bid x zone-count) decision grid, each cell aggregated over
the window's overlapping start offsets exactly as the paper's figures
aggregate them.  Heavy lifting happens once, offline, through
:meth:`ExperimentRunner.run_cube` — one lockstep pass per zone set,
every policy over a whole deadline ladder of specs
(:meth:`SurfaceBuilder.build_family`; a single surface is a ladder of
one) — with the content-addressed run cache as the persistence layer
(a rebuild over a warm cache is hit-only); the result is a small,
versioned JSON artifact per spec that the online advisor can load and
answer from in microseconds.

The artifact is content-addressed the same way engine runs are: the
surface key is the SHA-256 of the spec's canonical form
(:func:`repro.experiments.cache.content_key`), so two builds of the
same spec land on the same file and a changed input is a different
artifact, never a silent overwrite.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.app.workload import ExperimentConfig
from repro.experiments.cache import content_key
from repro.experiments.metrics import RunRecord
from repro.experiments.runner import (
    POLICY_FACTORIES,
    RETAINED_POLICIES,
    ExperimentRunner,
)
from repro.traces.library import DEFAULT_SEED

#: Bumped whenever the artifact layout changes; a loader seeing an
#: unknown version refuses the file instead of misreading it.
SURFACE_SCHEMA_VERSION = 1

#: Artifact magic, so ``surface ls`` can skip unrelated JSON files.
SURFACE_FORMAT = "repro-surface"


class SurfaceCorruptError(ValueError):
    """A surface artifact file that cannot be read as the surface its
    name promises: truncated or non-JSON text, a foreign or malformed
    payload, or a spec that does not hash to the file's key."""


#: Default decision grid of a built surface: the retained policies
#: over the Figure-4 bids, single-zone and fully redundant.
DEFAULT_POLICIES: tuple[str, ...] = RETAINED_POLICIES
DEFAULT_BIDS: tuple[float, ...] = (0.27, 0.81, 2.40)
DEFAULT_ZONE_COUNTS: tuple[int, ...] = (1, 3)


@dataclass(frozen=True)
class SurfaceSpec:
    """Everything a surface build depends on (and is keyed by).

    ``zone_counts`` follows the figure conventions: ``1`` is the
    merged single-zone cell (every zone run independently, records
    pooled), ``n > 1`` the redundant cell over the first ``n`` zones.
    """

    window: str
    compute_s: float
    deadline_s: float
    ckpt_cost_s: float
    restart_cost_s: float
    policies: tuple[str, ...] = DEFAULT_POLICIES
    bids: tuple[float, ...] = DEFAULT_BIDS
    zone_counts: tuple[int, ...] = DEFAULT_ZONE_COUNTS
    num_experiments: int = 20
    seed: int = DEFAULT_SEED
    #: Memo of :meth:`key` (canonicalization skips ``_`` fields).
    _key: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for label in self.policies:
            if label not in POLICY_FACTORIES:
                raise ValueError(f"unknown policy label {label!r}")
        if not self.bids or not self.zone_counts or not self.policies:
            raise ValueError("spec needs at least one policy, bid and zone count")
        if min(self.zone_counts) < 1:
            raise ValueError(f"every zone count must be >= 1, got {self.zone_counts}")

    @classmethod
    def for_config(cls, window: str, config: ExperimentConfig, **kwargs) -> "SurfaceSpec":
        return cls(
            window=window,
            compute_s=config.compute_s,
            deadline_s=config.deadline_s,
            ckpt_cost_s=config.ckpt_cost_s,
            restart_cost_s=config.restart_cost_s,
            **kwargs,
        )

    def config(self) -> ExperimentConfig:
        return ExperimentConfig(
            compute_s=self.compute_s,
            deadline_s=self.deadline_s,
            ckpt_cost_s=self.ckpt_cost_s,
            restart_cost_s=self.restart_cost_s,
        )

    def key(self) -> str:
        """Content address of the surface this spec describes.

        Hashed on first use and kept on the (frozen) instance: the
        advisor asks for the key of every spec it selects.
        """
        if self._key is None:
            object.__setattr__(
                self,
                "_key",
                content_key({"schema": SURFACE_SCHEMA_VERSION, "spec": self}),
            )
        return self._key

    def covers(self, compute_s: float, deadline_s: float, ckpt_cost_s: float) -> bool:
        """Exact job-shape match (the warm path's admission test).

        ``np.isclose(spec_value, job_value, rtol=1e-9, atol=1e-6)`` per
        axis, spelled as plain float arithmetic: the advisor scans its
        whole catalog per query, and scalar NumPy calls dominate that
        scan.  Equal to ``np.isclose`` for every finite input.
        """
        return (
            abs(self.compute_s - compute_s) <= 1e-6 + 1e-9 * abs(compute_s)
            and abs(self.deadline_s - deadline_s) <= 1e-6 + 1e-9 * abs(deadline_s)
            and abs(self.ckpt_cost_s - ckpt_cost_s)
            <= 1e-6 + 1e-9 * abs(ckpt_cost_s)
        )


@dataclass(frozen=True)
class SurfaceCell:
    """One decision-grid point, aggregated over the start axis.

    ``expected_cost`` is the mean per-instance cost over every run of
    the cell (all starts, and all zones for merged single-zone cells)
    — the same pooling the paper's boxplots use; ``miss_risk`` is the
    fraction of runs that finished past the deadline (Algorithm 1
    guarantees 0, so a nonzero value marks a cell the advisor must
    never recommend).
    """

    policy: str
    zones: int
    bid: float
    expected_cost: float
    worst_cost: float
    miss_risk: float
    mean_makespan_s: float
    num_runs: int

    @classmethod
    def from_records(
        cls, policy: str, zones: int, bid: float, records: Sequence[RunRecord]
    ) -> "SurfaceCell":
        costs = np.array([r.cost for r in records], dtype=np.float64)
        makespans = np.array(
            [r.result.makespan_s for r in records], dtype=np.float64
        )
        misses = sum(1 for r in records if not r.met_deadline)
        return cls(
            policy=policy,
            zones=zones,
            bid=float(bid),
            expected_cost=float(costs.mean()),
            worst_cost=float(costs.max()),
            miss_risk=misses / len(records),
            mean_makespan_s=float(makespans.mean()),
            num_runs=len(records),
        )


@dataclass(frozen=True)
class PolicySurface:
    """One spec's full decision grid plus build provenance."""

    spec: SurfaceSpec
    cells: tuple[SurfaceCell, ...]
    build_seconds: float
    built_unix: float

    @property
    def key(self) -> str:
        return self.spec.key()

    def best(self, budget: float | None = None) -> SurfaceCell | None:
        """Cheapest deadline-guaranteed cell, within ``budget`` if given.

        Candidates with any recorded deadline miss are excluded — the
        advisor only ever recommends configurations whose guarantee
        held across the whole start axis.  ``None`` means no cell fits
        the budget (callers fall back to :meth:`best` without one).
        Ties break toward the earlier grid cell (policy order, then
        zone count, then bid), which is deterministic because the cell
        tuple is laid out in spec order.
        """
        candidates = [c for c in self.cells if c.miss_risk == 0.0]
        if budget is not None:
            candidates = [c for c in candidates if c.expected_cost <= budget]
        if not candidates:
            return None
        return min(candidates, key=lambda c: c.expected_cost)

    def cell(self, policy: str, zones: int, bid: float) -> SurfaceCell | None:
        for c in self.cells:
            if c.policy == policy and c.zones == zones and np.isclose(c.bid, bid):
                return c
        return None

    # -- serialization -----------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "format": SURFACE_FORMAT,
            "version": SURFACE_SCHEMA_VERSION,
            "key": self.key,
            "spec": {
                "window": self.spec.window,
                "compute_s": self.spec.compute_s,
                "deadline_s": self.spec.deadline_s,
                "ckpt_cost_s": self.spec.ckpt_cost_s,
                "restart_cost_s": self.spec.restart_cost_s,
                "policies": list(self.spec.policies),
                "bids": list(self.spec.bids),
                "zone_counts": list(self.spec.zone_counts),
                "num_experiments": self.spec.num_experiments,
                "seed": self.spec.seed,
            },
            "build_seconds": self.build_seconds,
            "built_unix": self.built_unix,
            "cells": [
                {
                    "policy": c.policy,
                    "zones": c.zones,
                    "bid": c.bid,
                    "expected_cost": c.expected_cost,
                    "worst_cost": c.worst_cost,
                    "miss_risk": c.miss_risk,
                    "mean_makespan_s": c.mean_makespan_s,
                    "num_runs": c.num_runs,
                }
                for c in self.cells
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PolicySurface":
        if payload.get("format") != SURFACE_FORMAT:
            raise ValueError("not a repro-surface artifact")
        if payload.get("version") != SURFACE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported surface version {payload.get('version')!r} "
                f"(this build reads {SURFACE_SCHEMA_VERSION})"
            )
        s = payload["spec"]
        spec = SurfaceSpec(
            window=s["window"],
            compute_s=float(s["compute_s"]),
            deadline_s=float(s["deadline_s"]),
            ckpt_cost_s=float(s["ckpt_cost_s"]),
            restart_cost_s=float(s["restart_cost_s"]),
            policies=tuple(s["policies"]),
            bids=tuple(float(b) for b in s["bids"]),
            zone_counts=tuple(int(z) for z in s["zone_counts"]),
            num_experiments=int(s["num_experiments"]),
            seed=int(s["seed"]),
        )
        cells = tuple(
            SurfaceCell(
                policy=c["policy"],
                zones=int(c["zones"]),
                bid=float(c["bid"]),
                expected_cost=float(c["expected_cost"]),
                worst_cost=float(c["worst_cost"]),
                miss_risk=float(c["miss_risk"]),
                mean_makespan_s=float(c["mean_makespan_s"]),
                num_runs=int(c["num_runs"]),
            )
            for c in payload["cells"]
        )
        return cls(
            spec=spec,
            cells=cells,
            build_seconds=float(payload["build_seconds"]),
            built_unix=float(payload["built_unix"]),
        )


class SurfaceStore:
    """Directory of surface artifacts (plus the builders' run cache).

    Artifacts are ``surface-<key>.json``; writes are atomic (temp file
    + ``os.replace``) so a concurrent reader only ever sees complete
    surfaces — the same discipline the run cache's disk layer uses.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        return self.root / f"surface-{key}.json"

    @property
    def run_cache_dir(self) -> str:
        """Where this store's builders persist engine runs."""
        return str(self.root / "runcache")

    def save(self, surface: PolicySurface) -> Path:
        path = self.path(surface.key)
        payload = json.dumps(surface.to_payload(), indent=2, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload + "\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return path

    def _read(self, path: Path, key: str) -> PolicySurface:
        try:
            surface = PolicySurface.from_payload(json.loads(path.read_text()))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise SurfaceCorruptError(
                f"corrupt surface artifact {path}: {exc!r}"
            ) from exc
        if surface.key != key:
            raise SurfaceCorruptError(
                f"{path} holds surface {surface.key}, not {key}"
            )
        return surface

    def load(self, key: str) -> PolicySurface:
        """The artifact stored under ``key``.

        Raises :class:`SurfaceCorruptError` when the file cannot be
        parsed as a surface, or when its spec does not hash to ``key``
        (a copied or renamed artifact), so a surface is never served
        under another spec's address; a missing or unreadable file
        raises ``OSError``.  This is the one place a loaded spec is
        hashed; the key then stays memoized on it.
        """
        return self._read(self.path(key), key)

    def surfaces(self) -> Iterator[PolicySurface]:
        """Every loadable artifact in the store (unreadable, corrupt,
        foreign or misnamed files are skipped, not fatal)."""
        for path in sorted(self.root.glob("surface-*.json")):
            try:
                yield self._read(path, path.stem.removeprefix("surface-"))
            except (OSError, SurfaceCorruptError):
                continue

    def catalog(self) -> list[SurfaceSpec]:
        """The specs on disk, in artifact order (the advisor's index)."""
        return [s.spec for s in self.surfaces()]


@dataclass
class SurfaceBuilder:
    """Builds surfaces through the vector engine + run cache.

    ``cache_dir`` defaults to the store's own ``runcache/`` directory,
    so every engine run a build performs is persisted content-addressed
    alongside the artifacts: rebuilding a surface (or building an
    overlapping one) is served from cache, and the advisor's cold path
    reuses the same store.
    """

    store: SurfaceStore | None = None
    cache_dir: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        self._vector_stats = None

    def _cache_dir(self) -> str | None:
        if self.cache_dir is not None:
            return self.cache_dir
        return self.store.run_cache_dir if self.store is not None else None

    def drain_vector_stats(self):
        """Vector-engine batch statistics accumulated by builds.

        Returns the merged
        :class:`~repro.core.vector_engine.BatchStats` of every
        :meth:`build_family` since the last drain (or ``None`` when nothing
        ran through a vector batch), so operators can see when a
        surface build silently fell back to per-run scalar simulation.
        """
        stats = self._vector_stats
        self._vector_stats = None
        return stats

    def _absorb_stats(self, stats) -> None:
        if stats is None:
            return
        if self._vector_stats is None:
            self._vector_stats = stats
        else:
            self._vector_stats.merge(stats)

    def build_family(self, specs: Sequence[SurfaceSpec]) -> list[PolicySurface]:
        """Evaluate a whole shape ladder in one cube per zone count.

        The specs must share every grid axis — window, policies, bids,
        zone counts, experiment count and seed — and differ only in job
        shape (compute, deadline, checkpoint/restart costs): a deadline
        ladder is the canonical family.  Each zone count then advances
        every policy over the *entire* ladder through
        :meth:`ExperimentRunner.run_cube` in one lockstep pass per zone
        wave — policy and shape rows share the zone-dynamics column
        work — and one
        versioned artifact is emitted per spec, each bit-identical to
        what a one-spec family of that spec would produce; a single
        surface is ``build_family([spec])[0]``.  ``build_seconds`` on
        every artifact records the shared family pass (the whole point:
        it is paid once, not once per deadline).
        """
        specs = list(specs)
        if not specs:
            raise ValueError("at least one spec is required")
        head = specs[0]
        for spec in specs[1:]:
            for axis in ("window", "policies", "bids", "zone_counts",
                         "num_experiments", "seed"):
                if getattr(spec, axis) != getattr(head, axis):
                    raise ValueError(
                        f"family specs must share {axis}: "
                        f"{getattr(spec, axis)!r} != {getattr(head, axis)!r}"
                    )
        t0 = time.perf_counter()
        configs = [spec.config() for spec in specs]
        cells: list[list[SurfaceCell]] = [[] for _ in specs]
        with ExperimentRunner(
            head.window,
            num_experiments=head.num_experiments,
            seed=head.seed,
            workers=self.workers,
            engine_mode="vector",
            cache_dir=self._cache_dir(),
        ) as runner:
            per_count = [
                runner.run_cube(
                    head.policies,
                    configs,
                    head.bids,
                    redundant=n > 1,
                    num_zones=n,
                )
                for n in head.zone_counts
            ]
            for p, policy in enumerate(head.policies):
                for n, per_policy in zip(head.zone_counts, per_count):
                    for k, per_bid in enumerate(per_policy[p]):
                        for bid in head.bids:
                            cells[k].append(
                                SurfaceCell.from_records(
                                    policy, n, bid, per_bid[float(bid)]
                                )
                            )
            # Capture before the runner context closes (closing shuts
            # down the executor whose workers carry the merged stats).
            self._absorb_stats(runner.drain_vector_stats())
        build_seconds = time.perf_counter() - t0
        built_unix = time.time()
        surfaces = [
            PolicySurface(
                spec=spec,
                cells=tuple(cells[k]),
                build_seconds=build_seconds,
                built_unix=built_unix,
            )
            for k, spec in enumerate(specs)
        ]
        if self.store is not None:
            for surface in surfaces:
                self.store.save(surface)
        return surfaces
