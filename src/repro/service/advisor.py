"""The online half: an asyncio advisor over precomputed surfaces.

:class:`AdvisorService` answers "what should I do" queries — a
:class:`JobSpec` in, an :class:`Advice` out — from the surfaces a
:class:`~repro.service.surface.SurfaceStore` holds:

* **Warm path.**  A surface covering the job's exact (C, D, t_c)
  shape is selected from an LRU of hot surfaces (loaded from disk at
  most once while hot) and answered by a table lookup — microseconds,
  no simulation.
* **Interpolated path.**  When no surface matches exactly but two
  surfaces of the same shape bracket the job's deadline — bracket
  pairs from one ``build_family`` deadline ladder are preferred over
  mixed-axes pairs — the nearer surface's recommendation is returned
  with its expected cost linearly interpolated between the brackets'
  best-guaranteed costs (an estimate, flagged as such via
  ``source="interpolated"``, and non-increasing in the deadline
  whenever the rung optima are).
* **Cold path.**  Otherwise the missing surface is built on the spot
  through the cached vector engine (off the event loop) and saved to
  the store — the next identical query is warm.

Identical in-flight queries are **coalesced**: concurrent ``advise``
calls for equal :class:`JobSpec` values share one computation, so a burst
of duplicate queries costs one lookup (or one cold build), not N.
Surface loads are **single-flight** too: every query that needs a
surface which is neither hot nor already being read joins one pending
read per key, and the keys requested during one event-loop turn are
read together in one worker-thread hop, then admitted to the LRU in
request order.  A burst of distinct queries on one cold surface costs
one disk read, and the hot/disk counters are exact, repeatable counts.
:func:`serve_lines` wraps the service in a JSON-lines request loop —
the benchmarking front end behind ``repro-spotsim serve``.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from repro.service.surface import (
    PolicySurface,
    SurfaceBuilder,
    SurfaceCell,
    SurfaceSpec,
    SurfaceStore,
)


@dataclass(frozen=True)
class JobSpec:
    """One advisory query: the paper's experiment triple plus intent.

    ``budget`` (optional) caps the acceptable expected cost;
    ``window`` names the volatility regime to plan against (the
    calibrated "low"/"high" evaluation windows).
    """

    compute_s: float
    deadline_s: float
    ckpt_cost_s: float
    budget: float | None = None
    window: str = "low"

    def __post_init__(self) -> None:
        for name in ("compute_s", "deadline_s", "ckpt_cost_s", "budget"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.compute_s <= 0:
            raise ValueError(f"compute time must be positive, got {self.compute_s}")
        if self.deadline_s < self.compute_s:
            raise ValueError(
                f"deadline ({self.deadline_s}) must be >= compute time "
                f"({self.compute_s})"
            )
        if self.ckpt_cost_s <= 0:
            raise ValueError("checkpoint cost must be > 0")

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        budget = payload.get("budget")
        return cls(
            compute_s=float(payload["compute_s"]),
            deadline_s=float(payload["deadline_s"]),
            ckpt_cost_s=float(payload["ckpt_cost_s"]),
            budget=None if budget is None else float(budget),
            window=str(payload.get("window", "low")),
        )


@dataclass(frozen=True)
class Advice:
    """The recommended provisioning plan plus its predicted outcome."""

    policy: str
    bid: float
    zones: int
    expected_cost: float
    worst_cost: float
    miss_risk: float
    mean_makespan_s: float
    #: "surface" (exact precomputed match), "interpolated" (estimate
    #: between bracketing surfaces) or "cold" (built on demand).
    source: str
    surface_key: str
    #: False when a budget was given and even the cheapest guaranteed
    #: cell exceeds it — the advice is then the cheapest plan, not a
    #: compliant one.
    within_budget: bool = True

    def to_payload(self) -> dict:
        return {
            "policy": self.policy,
            "bid": self.bid,
            "zones": self.zones,
            "expected_cost": self.expected_cost,
            "worst_cost": self.worst_cost,
            "miss_risk": self.miss_risk,
            "mean_makespan_s": self.mean_makespan_s,
            "source": self.source,
            "surface_key": self.surface_key,
            "within_budget": self.within_budget,
        }


@dataclass
class ServiceStats:
    """Counters of one advisor (the CLI prints :meth:`line` to stderr)."""

    queries: int = 0
    #: Queries that joined an identical in-flight computation.
    coalesced: int = 0
    #: Warm answers served from the hot-surface LRU.
    hot_hits: int = 0
    #: Surfaces loaded from disk into the LRU.
    disk_loads: int = 0
    #: Queries answered by interpolating between bracketing surfaces.
    interpolated: int = 0
    #: Queries that forced an on-demand surface build.
    cold_builds: int = 0

    def line(self) -> str:
        return (
            f"advisor: queries={self.queries} coalesced={self.coalesced} "
            f"hot_hits={self.hot_hits} disk_loads={self.disk_loads} "
            f"interpolated={self.interpolated} cold_builds={self.cold_builds}"
        )


def _advice_from_cell(
    cell: SurfaceCell,
    surface: PolicySurface,
    source: str,
    budget: float | None,
    expected_cost: float | None = None,
    within_budget: bool = True,
) -> Advice:
    cost = cell.expected_cost if expected_cost is None else expected_cost
    if budget is not None and cost > budget:
        within_budget = False
    return Advice(
        policy=cell.policy,
        bid=cell.bid,
        zones=cell.zones,
        expected_cost=cost,
        worst_cost=cell.worst_cost,
        miss_risk=cell.miss_risk,
        mean_makespan_s=cell.mean_makespan_s,
        source=source,
        surface_key=surface.key,
        within_budget=within_budget,
    )


def _recommend(
    surface: PolicySurface, source: str, budget: float | None
) -> Advice:
    """The cheapest deadline-guaranteed cell within ``budget``; else the
    cheapest guaranteed cell, flagged ``within_budget=False``.  Raises
    ``LookupError`` when the surface has no guaranteed cell at all."""
    best = surface.best(budget)
    if best is not None:
        return _advice_from_cell(best, surface, source, budget)
    best = surface.best()
    if best is None:
        raise LookupError(
            "surface has no deadline-guaranteed cell to recommend"
        )
    return _advice_from_cell(best, surface, source, budget, within_budget=False)


class AdvisorService:
    """Serves :class:`JobSpec` queries from a surface store.

    Parameters
    ----------
    store:
        The artifact directory; its catalog is indexed once at
        construction, refreshed whenever the cold path adds a surface,
        and drops an artifact found deleted when a query reads it.
    max_hot:
        Surfaces kept deserialized in the LRU.  Evicted surfaces cost
        one disk load to re-heat; artifacts are small, so the default
        comfortably covers a figure's worth of job shapes.  Loads are
        single-flight and read once per event-loop turn: concurrent
        queries for a cold surface share one read, so a burst never
        reads a key twice, however small ``max_hot`` is.
    builder:
        The cold path's builder.  Defaults to a
        :class:`SurfaceBuilder` over ``store`` (vector engine, the
        store's run-cache directory); inject a configured one to
        change the cold grid's scale or parallelism.
    cold_spec:
        Template for cold-path specs: the grid axes
        (policies/bids/zone_counts), ``num_experiments`` and ``seed``
        a cold build uses for an uncovered job shape.
    """

    def __init__(
        self,
        store: SurfaceStore,
        max_hot: int = 8,
        builder: SurfaceBuilder | None = None,
        cold_spec: SurfaceSpec | None = None,
    ) -> None:
        self.store = store
        self.max_hot = max_hot
        self.builder = builder if builder is not None else SurfaceBuilder(store=store)
        self._cold_template = cold_spec
        self._catalog: list[SurfaceSpec] = store.catalog()
        self._hot: OrderedDict[str, PolicySurface] = OrderedDict()
        self._inflight: dict[JobSpec, asyncio.Task] = {}
        # single-flight loads: one pending future per key being read,
        # and the keys queued for this loop turn's read
        self._pending: dict[str, asyncio.Future] = {}
        self._queued: list[str] | None = None
        self.stats = ServiceStats()

    # -- surface selection -------------------------------------------------

    def _matching_spec(self, job: JobSpec) -> SurfaceSpec | None:
        for spec in self._catalog:
            if spec.window == job.window and spec.covers(
                job.compute_s, job.deadline_s, job.ckpt_cost_s
            ):
                return spec
        return None

    @staticmethod
    def _grid_axes(spec: SurfaceSpec) -> tuple:
        """The spec's non-shape axes — the signature every surface of
        one ``build_family`` ladder shares."""
        return (
            spec.policies, spec.bids, spec.zone_counts,
            spec.num_experiments, spec.seed,
        )

    def _bracketing_specs(
        self, job: JobSpec
    ) -> tuple[SurfaceSpec, SurfaceSpec] | None:
        """Two same-shape surfaces whose deadlines straddle the job's.

        Bracket pairs drawn from one surface *family* — identical grid
        axes, i.e. what a ``build_family`` deadline ladder shares — are
        preferred over mixed pairs: within a family every recommended
        cell has a twin on the far surface (interpolation is always
        well-defined) and ladders are deadline-dense, so the gap is
        small.  Among family pairs the narrowest deadline gap wins;
        the plain nearest pair is the mixed-axes fallback.
        """
        candidates = [
            spec
            for spec in self._catalog
            if spec.window == job.window
            and spec.covers(job.compute_s, spec.deadline_s, job.ckpt_cost_s)
        ]
        below = [s for s in candidates if s.deadline_s <= job.deadline_s]
        above = [s for s in candidates if s.deadline_s >= job.deadline_s]
        if not below or not above:
            return None
        best: tuple[float, SurfaceSpec, SurfaceSpec] | None = None
        for axes in dict.fromkeys(self._grid_axes(s) for s in below):
            fam_below = [s for s in below if self._grid_axes(s) == axes]
            fam_above = [s for s in above if self._grid_axes(s) == axes]
            if not fam_above:
                continue
            lo = max(fam_below, key=lambda s: s.deadline_s)
            hi = min(fam_above, key=lambda s: s.deadline_s)
            if lo.deadline_s == hi.deadline_s:
                continue
            gap = hi.deadline_s - lo.deadline_s
            if best is None or gap < best[0]:
                best = (gap, lo, hi)
        if best is not None:
            return best[1], best[2]
        lo = max(below, key=lambda s: s.deadline_s)
        hi = min(above, key=lambda s: s.deadline_s)
        if lo.deadline_s == hi.deadline_s:
            return None
        return lo, hi

    def _heat(self, key: str) -> PolicySurface | None:
        """The surface for ``key``, via the LRU (None if not hot)."""
        surface = self._hot.get(key)
        if surface is not None:
            self._hot.move_to_end(key)
            self.stats.hot_hits += 1
        return surface

    def _admit(self, surface: PolicySurface) -> None:
        self._hot[surface.key] = surface
        self._hot.move_to_end(surface.key)
        while len(self._hot) > self.max_hot:
            self._hot.popitem(last=False)

    async def _load(self, spec: SurfaceSpec) -> PolicySurface | None:
        """The surface of catalog ``spec``: from the LRU, or by joining
        the one read of its key that is queued or in flight.  ``None``
        if the artifact was deleted since the catalog was read; the
        spec then leaves the catalog."""
        key = spec.key()
        surface = self._heat(key)
        if surface is not None:
            return surface
        pending = self._pending.get(key)
        if pending is None:
            loop = asyncio.get_running_loop()
            pending = self._pending[key] = loop.create_future()
            if self._queued is None:
                self._queued = []
                loop.call_soon(self._dispatch)
            self._queued.append(key)
        try:
            return await asyncio.shield(pending)
        except FileNotFoundError:
            if spec in self._catalog:
                self._catalog.remove(spec)
            return None

    def _dispatch(self) -> None:
        """Read this loop turn's queued keys in one worker-thread hop."""
        keys, self._queued = self._queued, None
        hop = asyncio.ensure_future(asyncio.to_thread(self._read_keys, keys))
        hop.add_done_callback(lambda done: self._settle(keys, done))

    def _read_keys(self, keys: list[str]) -> list:
        """``store.load`` per key (worker thread); a failure is kept as
        that key's outcome, so it fails only the queries that joined it."""
        outcomes: list = []
        for key in keys:
            try:
                outcomes.append(self.store.load(key))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes

    def _settle(self, keys: list[str], hop: asyncio.Future) -> None:
        """Admit a hop's surfaces in request order, then wake the
        queries waiting on each key."""
        try:
            outcomes = hop.result()
        except BaseException as exc:  # the hop died with its loop
            outcomes = [exc] * len(keys)
        for key, got in zip(keys, outcomes):
            pending = self._pending.pop(key)
            if isinstance(got, BaseException):
                pending.set_exception(got)
                continue
            self.stats.disk_loads += 1
            self._admit(got)
            pending.set_result(got)

    # -- the query path ----------------------------------------------------

    def _cold_spec(self, job: JobSpec) -> SurfaceSpec:
        base = dict(
            window=job.window,
            compute_s=job.compute_s,
            deadline_s=job.deadline_s,
            ckpt_cost_s=job.ckpt_cost_s,
            restart_cost_s=job.ckpt_cost_s,
        )
        if self._cold_template is not None:
            t = self._cold_template
            base.update(
                policies=t.policies,
                bids=t.bids,
                zone_counts=t.zone_counts,
                num_experiments=t.num_experiments,
                seed=t.seed,
            )
        return SurfaceSpec(**base)

    def _cold_build(self, job: JobSpec) -> PolicySurface:
        (surface,) = self.builder.build_family([self._cold_spec(job)])
        self._catalog.append(surface.spec)
        return surface

    async def _compute(self, job: JobSpec) -> Advice:
        # one cooperative yield before resolving, so a batch of
        # identical queries submitted together coalesces onto this
        # computation instead of serializing through the warm path
        await asyncio.sleep(0)
        spec = self._matching_spec(job)
        if spec is not None:
            surface = await self._load(spec)
            if surface is None:  # resolve again without it
                return await self._compute(job)
            return _recommend(surface, "surface", job.budget)
        brackets = self._bracketing_specs(job)
        if brackets is not None:
            lo, hi = brackets
            near, far = (
                (lo, hi)
                if job.deadline_s - lo.deadline_s <= hi.deadline_s - job.deadline_s
                else (hi, lo)
            )
            near_surface = await self._load(near)
            far_surface = await self._load(far)
            if near_surface is None or far_surface is None:
                return await self._compute(job)
            best = near_surface.best(job.budget) or near_surface.best()
            if best is not None:
                cost = best.expected_cost
                far_best = far_surface.best(job.budget) or far_surface.best()
                if far_best is not None:
                    # Linear in deadline between the two surfaces' own
                    # best-guaranteed costs (not one cell's twin): the
                    # estimate is then continuous across the bracket and
                    # non-increasing whenever the rung optima are — the
                    # slack monotonicity the ladder property test pins.
                    frac = (job.deadline_s - lo.deadline_s) / (
                        hi.deadline_s - lo.deadline_s
                    )
                    lo_cost, hi_cost = (
                        (cost, far_best.expected_cost)
                        if near is lo
                        else (far_best.expected_cost, cost)
                    )
                    cost = lo_cost + frac * (hi_cost - lo_cost)
                self.stats.interpolated += 1
                return _advice_from_cell(
                    best,
                    near_surface,
                    "interpolated",
                    job.budget,
                    expected_cost=cost,
                )
        self.stats.cold_builds += 1
        surface = await asyncio.to_thread(self._cold_build, job)
        self._admit(surface)
        return _recommend(surface, "cold", job.budget)

    async def advise(self, job: JobSpec) -> Advice:
        """Answer one query, coalescing with identical in-flight ones.

        The coalescing key is the frozen :class:`JobSpec` itself, so
        "identical" means value-identical (equal fields), not
        object-identical.  The shared task is shielded from any single
        caller's cancellation — the other waiters (and the
        write-through of a cold build) still complete.
        """
        self.stats.queries += 1
        task = self._inflight.get(job)
        if task is not None:
            self.stats.coalesced += 1
            return await asyncio.shield(task)
        task = asyncio.ensure_future(self._compute(job))
        self._inflight[job] = task
        task.add_done_callback(lambda _t: self._inflight.pop(job, None))
        return await asyncio.shield(task)


def _batched(lines: Iterable[str], size: int) -> Iterator[list[str]]:
    batch: list[str] = []
    for line in lines:
        if not line.strip():
            continue
        batch.append(line)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


async def serve_lines(
    service: AdvisorService,
    lines: Iterable[str],
    out: IO[str],
    batch_size: int = 64,
) -> int:
    """Answer JSON-lines queries from ``lines``; responses to ``out``.

    Each input line is a :meth:`JobSpec.from_payload` object, optionally
    carrying an ``"id"`` echoed back in the response.  Lines are
    gathered ``batch_size`` at a time, so identical queries within a
    batch coalesce; responses come back in input order, one JSON object
    per line (``{"error": ...}`` for a malformed or unanswerable
    query, with its ``"id"`` when the line parsed as an object).
    Returns the number of queries answered successfully.
    """
    answered = 0
    for chunk in _batched(lines, batch_size):
        jobs: list[tuple[object, JobSpec | None, str | None]] = []
        for line in chunk:
            qid = None
            try:
                payload = json.loads(line)
                qid = payload.get("id")
                jobs.append((qid, JobSpec.from_payload(payload), None))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                jobs.append((qid, None, f"bad query: {exc}"))
        results = await asyncio.gather(
            *(
                service.advise(job)
                for _, job, err in jobs
                if err is None and job is not None
            ),
            return_exceptions=True,
        )
        answers = iter(results)
        for qid, job, err in jobs:
            if err is not None:
                out.write(json.dumps({"id": qid, "error": err}) + "\n")
                continue
            result = next(answers)
            if isinstance(result, BaseException):
                out.write(
                    json.dumps({"id": qid, "error": str(result)}) + "\n"
                )
                continue
            payload = result.to_payload()
            if qid is not None:
                payload = {"id": qid, **payload}
            out.write(json.dumps(payload) + "\n")
            answered += 1
        out.flush()
    return answered
