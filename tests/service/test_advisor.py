"""Online half of the advisor: paths, coalescing, LRU, serve loop.

The acceptance anchor lives here too: a warm ``advise`` answer must be
*identical* — policy, bid, zones and expected cost — to the argmin a
caller would compute from a direct :meth:`ExperimentRunner.run_cube`
sweep over the same grid, because a surface is nothing but that sweep
cached to disk.
"""

from __future__ import annotations

import asyncio
import io
import json

import numpy as np
import pytest

from repro.experiments.runner import ExperimentRunner
from repro.service import (
    AdvisorService,
    JobSpec,
    SurfaceBuilder,
    SurfaceCorruptError,
    SurfaceSpec,
    SurfaceStore,
    serve_lines,
)

BASE = dict(
    window="low",
    compute_s=2 * 3600.0,
    ckpt_cost_s=300.0,
    restart_cost_s=300.0,
    policies=("periodic", "markov-daly"),
    bids=(0.27, 0.81),
    zone_counts=(1, 3),
    num_experiments=2,
)
DEADLINE = 3 * 3600.0


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A store holding one surface for the BASE job shape."""
    store = SurfaceStore(tmp_path_factory.mktemp("adv-surfaces"))
    SurfaceBuilder(store=store).build_family(
        [SurfaceSpec(deadline_s=DEADLINE, **BASE)]
    )
    return store


def job(deadline_s=DEADLINE, **kwargs) -> JobSpec:
    return JobSpec(
        compute_s=BASE["compute_s"],
        deadline_s=deadline_s,
        ckpt_cost_s=BASE["ckpt_cost_s"],
        **kwargs,
    )


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            JobSpec(compute_s=0.0, deadline_s=3600.0, ckpt_cost_s=300.0)
        with pytest.raises(ValueError):
            JobSpec(compute_s=7200.0, deadline_s=3600.0, ckpt_cost_s=300.0)
        with pytest.raises(ValueError):
            JobSpec(compute_s=3600.0, deadline_s=7200.0, ckpt_cost_s=0.0)

    @pytest.mark.parametrize("field", ["compute_s", "deadline_s", "ckpt_cost_s", "budget"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_are_rejected(self, field, value):
        fields = dict(compute_s=3600.0, deadline_s=7200.0, ckpt_cost_s=300.0)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            JobSpec(**{**fields, field: value})

    def test_from_payload(self):
        spec = JobSpec.from_payload(
            {"compute_s": 7200, "deadline_s": 10800, "ckpt_cost_s": 300,
             "budget": 25, "window": "high"}
        )
        assert spec.budget == 25.0
        assert spec.window == "high"


class TestWarmPath:
    def test_exact_match_is_surface_sourced(self, store):
        service = AdvisorService(store)
        advice = run(service.advise(job()))
        assert advice.source == "surface"
        assert advice.miss_risk == 0.0
        assert service.stats.disk_loads == 1
        assert service.stats.cold_builds == 0

    def test_warm_advice_equals_run_grid_argmin(self, store):
        """Acceptance: the advisor's answer is the direct sweep's argmin."""
        advice = run(AdvisorService(store).advise(job()))

        spec = SurfaceSpec(deadline_s=DEADLINE, **BASE)
        config = spec.config()
        candidates = []
        with ExperimentRunner(
            "low", num_experiments=spec.num_experiments, seed=spec.seed
        ) as runner:
            for policy in spec.policies:
                for n in spec.zone_counts:
                    ((per_bid,),) = runner.run_cube(
                        [policy], [config], spec.bids,
                        redundant=n > 1, num_zones=n,
                    )
                    for bid in spec.bids:
                        records = per_bid[float(bid)]
                        if not all(r.met_deadline for r in records):
                            continue
                        cost = float(
                            np.mean([r.cost for r in records])
                        )
                        candidates.append((policy, n, float(bid), cost))
        assert candidates, "direct sweep found no guaranteed cell"
        policy, zones, bid, cost = min(candidates, key=lambda c: c[3])
        assert (advice.policy, advice.zones, advice.bid) == (policy, zones, bid)
        assert advice.expected_cost == pytest.approx(cost)

    def test_budget_flag(self, store):
        service = AdvisorService(store)
        generous = run(service.advise(job(budget=1e9)))
        assert generous.within_budget
        broke = run(service.advise(job(budget=0.01)))
        assert not broke.within_budget
        # still the cheapest guaranteed plan, just flagged
        assert broke.policy == generous.policy
        assert broke.bid == generous.bid


class TestCoalescingAndLRU:
    def test_identical_queries_coalesce(self, store):
        service = AdvisorService(store)

        async def burst():
            return await asyncio.gather(*(service.advise(job()) for _ in range(4)))

        answers = run(burst())
        assert len({(a.policy, a.bid, a.zones) for a in answers}) == 1
        assert service.stats.queries == 4
        assert service.stats.coalesced == 3
        assert service.stats.disk_loads == 1  # one computation served all

    def test_distinct_queries_do_not_coalesce(self, store):
        service = AdvisorService(store)

        async def burst():
            return await asyncio.gather(
                service.advise(job()), service.advise(job(budget=1e9))
            )

        run(burst())
        assert service.stats.coalesced == 0

    def test_lru_eviction_and_reheat(self, store, tmp_path):
        # second surface in the same store, different deadline
        SurfaceBuilder(store=store).build_family(
            [SurfaceSpec(deadline_s=4 * 3600.0, **BASE)]
        )
        service = AdvisorService(store, max_hot=1)
        run(service.advise(job()))                      # load A
        run(service.advise(job(deadline_s=4 * 3600.0)))  # load B, evict A
        run(service.advise(job()))                      # re-load A
        assert service.stats.disk_loads == 3
        assert service.stats.hot_hits == 0
        run(service.advise(job()))                      # A is hot now
        assert service.stats.hot_hits == 1
        assert service.stats.disk_loads == 3


class TestSingleFlightLoads:
    """A surface is read once per event-loop turn, however many queries
    want it, and admitted to the LRU in request order."""

    @pytest.fixture(scope="class")
    def ladder_store(self, tmp_path_factory):
        store = SurfaceStore(tmp_path_factory.mktemp("ladder"))
        SurfaceBuilder(store=store).build_family(
            [SurfaceSpec(deadline_s=h * 3600.0, **BASE) for h in (3, 4, 5)]
        )
        return store

    @staticmethod
    def _serve(service, batches):
        async def go():
            for batch in batches:
                await asyncio.gather(*(service.advise(j) for j in batch))

        run(go())
        return service.stats

    def test_distinct_queries_on_a_cold_surface_read_it_once(self, store):
        service = AdvisorService(store)
        stats = self._serve(service, [
            [job(budget=b) for b in (5.0, 10.0, 20.0, 1e9)],
        ])
        assert (stats.queries, stats.coalesced) == (4, 0)
        assert (stats.disk_loads, stats.hot_hits) == (1, 0)

    def test_one_turn_is_one_read_admitted_in_request_order(
        self, ladder_store
    ):
        service = AdvisorService(ladder_store, max_hot=1)
        three, four = job(3 * 3600.0), job(4 * 3600.0)
        stats = self._serve(service, [[three, four, job(3 * 3600.0, budget=9.0)]])
        assert (stats.disk_loads, stats.hot_hits) == (2, 0)
        self._serve(service, [[four]])  # admitted last, so still hot
        assert (stats.disk_loads, stats.hot_hits) == (2, 1)
        self._serve(service, [[three]])  # evicted by four
        assert (stats.disk_loads, stats.hot_hits) == (3, 1)

    def test_replayed_stream_gives_identical_counts(self, ladder_store):
        rng = np.random.default_rng(7)
        batches = [
            [
                job(
                    float(rng.choice([3.0, 3.5, 4.0, 4.25, 5.0])) * 3600.0,
                    budget=None if rng.random() < 0.5 else float(rng.uniform(1, 30)),
                )
                for _ in range(12)
            ]
            for _ in range(6)
        ]
        counts = {
            (s.hot_hits, s.disk_loads, s.interpolated, s.coalesced)
            for s in (
                self._serve(AdvisorService(ladder_store, max_hot=1), batches)
                for _ in range(3)
            )
        }
        assert len(counts) == 1, counts
        (hot_hits, disk_loads, interpolated, _), = counts
        assert hot_hits > 0 and disk_loads > 0 and interpolated > 0

    def test_failed_read_fails_its_queries_and_is_retried(self, store, tmp_path):
        fresh = SurfaceStore(tmp_path)
        path = fresh.save(store.load(SurfaceSpec(deadline_s=DEADLINE, **BASE).key()))
        good = path.read_text()
        service = AdvisorService(fresh)
        path.write_text(good[: len(good) // 2])

        async def burst():
            return await asyncio.gather(
                *(service.advise(job(budget=b)) for b in (5.0, 1e9)),
                return_exceptions=True,
            )

        for _ in range(2):  # a failure is never cached
            errors = run(burst())
            assert all(isinstance(e, SurfaceCorruptError) for e in errors)
            assert path.name in str(errors[0])
            assert not service._pending and not service._hot
        assert service.stats.disk_loads == 0
        line = json.dumps({"id": 1, "compute_s": BASE["compute_s"],
                           "deadline_s": DEADLINE,
                           "ckpt_cost_s": BASE["ckpt_cost_s"]})
        out = io.StringIO()
        assert run(serve_lines(service, [line], out)) == 0
        assert "corrupt surface artifact" in json.loads(out.getvalue())["error"]
        path.write_text(good)
        assert run(service.advise(job())).source == "surface"
        assert service.stats.disk_loads == 1


class TestInterpolatedPath:
    @pytest.fixture(scope="class")
    def bracket_store(self, tmp_path_factory):
        store = SurfaceStore(tmp_path_factory.mktemp("brackets"))
        builder = SurfaceBuilder(store=store)
        for deadline in (3 * 3600.0, 4 * 3600.0):
            builder.build_family([SurfaceSpec(deadline_s=deadline, **BASE)])
        return store

    def test_between_brackets_interpolates_cost(self, bracket_store):
        service = AdvisorService(bracket_store)
        advice = run(service.advise(job(deadline_s=3.5 * 3600.0)))
        assert advice.source == "interpolated"
        assert service.stats.interpolated == 1
        assert service.stats.cold_builds == 0

        lo = bracket_store.load(SurfaceSpec(deadline_s=3 * 3600.0, **BASE).key())
        hi = bracket_store.load(SurfaceSpec(deadline_s=4 * 3600.0, **BASE).key())
        # cost estimate is linear between the brackets' best-guaranteed
        # costs (the recommended cell is still the near surface's best)
        expected = 0.5 * (lo.best().expected_cost + hi.best().expected_cost)
        assert advice.expected_cost == pytest.approx(expected)

    def test_outside_brackets_is_not_interpolated(self, bracket_store):
        service = AdvisorService(bracket_store)
        advice = run(service.advise(job(deadline_s=6 * 3600.0)))
        assert advice.source == "cold"


class TestColdPath:
    def test_cold_build_then_warm(self, tmp_path):
        store = SurfaceStore(tmp_path)
        template = SurfaceSpec(deadline_s=DEADLINE, **BASE)
        service = AdvisorService(store, cold_spec=template)
        first = run(service.advise(job()))
        assert first.source == "cold"
        assert service.stats.cold_builds == 1
        # write-through: the artifact exists and the next query is warm
        assert store.path(first.surface_key).exists()
        second = run(service.advise(job()))
        assert second.source == "surface"
        assert service.stats.cold_builds == 1
        assert (second.policy, second.bid, second.zones) == (
            first.policy, first.bid, first.zones
        )
        assert second.expected_cost == first.expected_cost


class TestStaleCatalog:
    def test_deleted_artifact_falls_through_to_the_cold_path(self, tmp_path):
        store = SurfaceStore(tmp_path)
        spec = SurfaceSpec(deadline_s=DEADLINE, **BASE)
        SurfaceBuilder(store=store).build_family([spec])
        service = AdvisorService(store, cold_spec=spec)
        store.path(spec.key()).unlink()  # deleted after the catalog read
        first = run(service.advise(job()))
        second = run(service.advise(job()))
        assert (first.source, second.source) == ("cold", "surface")
        assert service.stats.cold_builds == 1
        assert store.path(spec.key()).exists()  # the rebuild wrote it back

    def test_deleted_bracket_is_not_interpolated(self, tmp_path):
        store = SurfaceStore(tmp_path)
        specs = [SurfaceSpec(deadline_s=h * 3600.0, **BASE) for h in (3, 4)]
        SurfaceBuilder(store=store).build_family(specs)
        service = AdvisorService(store, cold_spec=specs[0])
        store.path(specs[1].key()).unlink()
        advice = run(service.advise(job(deadline_s=3.5 * 3600.0)))
        assert advice.source == "cold"
        assert service.stats.interpolated == 0


class TestServeLines:
    def test_batch_coalesces_and_keeps_order(self, store):
        q = json.dumps(
            {"compute_s": BASE["compute_s"], "deadline_s": DEADLINE,
             "ckpt_cost_s": BASE["ckpt_cost_s"]}
        )
        lines = [
            json.dumps({"id": 1, "compute_s": BASE["compute_s"],
                        "deadline_s": DEADLINE,
                        "ckpt_cost_s": BASE["ckpt_cost_s"]}),
            q,
            q,  # duplicate -> coalesces
            "",  # blank lines are skipped
            "{broken json",
            json.dumps({"compute_s": -1, "deadline_s": 1,
                        "ckpt_cost_s": 1}),  # invalid job
        ]
        service = AdvisorService(store)
        out = io.StringIO()
        answered = run(serve_lines(service, lines, out))
        responses = [json.loads(x) for x in out.getvalue().splitlines()]
        assert answered == 3
        assert len(responses) == 5
        assert responses[0]["id"] == 1
        assert responses[1]["policy"] == responses[2]["policy"]
        assert "error" in responses[3]
        assert "error" in responses[4]
        assert service.stats.coalesced >= 1

    def test_nan_literal_is_a_bad_query(self, store):
        """A ``NaN`` deadline is answered with an error, never a build."""
        lines = [
            '{"id": 1, "compute_s": 7200, "deadline_s": NaN, "ckpt_cost_s": 300}',
            json.dumps({"id": 2, "compute_s": BASE["compute_s"],
                        "deadline_s": DEADLINE,
                        "ckpt_cost_s": BASE["ckpt_cost_s"]}),
        ]
        service = AdvisorService(store)
        out = io.StringIO()
        answered = run(serve_lines(service, lines, out))
        responses = [json.loads(x) for x in out.getvalue().splitlines()]
        assert answered == 1
        assert responses[0]["id"] == 1
        assert responses[0]["error"].startswith("bad query: deadline_s")
        assert responses[1]["source"] == "surface"
        assert service.stats.queries == 1
        assert service.stats.cold_builds == 0

    def test_non_object_line_is_a_bad_query(self, store):
        out = io.StringIO()
        answered = run(serve_lines(AdvisorService(store), ["[1, 2]"], out))
        assert answered == 0
        response = json.loads(out.getvalue())
        assert response["id"] is None
        assert response["error"].startswith("bad query")
