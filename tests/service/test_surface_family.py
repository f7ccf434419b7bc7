"""Surface families: one cube pass, a whole deadline ladder of artifacts.

:meth:`SurfaceBuilder.build_family` must emit, per spec, an artifact
bit-identical in content to a one-spec family of that spec (the shared
cube pass is an execution strategy, not a semantic change), and
the advisor must answer intermediate-deadline queries from the family
brackets — no cold build — preferring bracket pairs drawn from one
family over mixed-axes pairs.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import (
    AdvisorService,
    JobSpec,
    SurfaceBuilder,
    SurfaceSpec,
    SurfaceStore,
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
LADDER = (3 * 3600.0, 4 * 3600.0, 5 * 3600.0)


def run(coro):
    return asyncio.run(coro)


def spec(deadline_s, **overrides):
    return SurfaceSpec(deadline_s=deadline_s, **{**BASE, **overrides})


def job(deadline_s, **kwargs):
    return JobSpec(
        compute_s=BASE["compute_s"],
        deadline_s=deadline_s,
        ckpt_cost_s=BASE["ckpt_cost_s"],
        **kwargs,
    )


@pytest.fixture(scope="module")
def family_store(tmp_path_factory):
    """A store populated by one build_family pass over LADDER."""
    store = SurfaceStore(tmp_path_factory.mktemp("family"))
    SurfaceBuilder(store=store).build_family([spec(d) for d in LADDER])
    return store


class TestBuildFamily:
    def test_family_matches_standalone_builds(self, family_store,
                                              tmp_path_factory):
        """Acceptance: every rung of the family ladder carries exactly
        the cells a standalone build of that spec produces."""
        solo_store = SurfaceStore(tmp_path_factory.mktemp("solo"))
        solo_builder = SurfaceBuilder(store=solo_store)
        for d in LADDER:
            family = family_store.load(spec(d).key())
            (solo,) = solo_builder.build_family([spec(d)])
            assert family.spec == solo.spec
            assert family.cells == solo.cells
            assert family.key == solo.key

    def test_one_artifact_per_deadline(self, family_store):
        keys = {s.key() for s in family_store.catalog()}
        assert keys == {spec(d).key() for d in LADDER}

    def test_family_build_reports_vector_stats(self, tmp_path):
        builder = SurfaceBuilder(store=SurfaceStore(tmp_path))
        builder.build_family([spec(d) for d in LADDER[:2]])
        stats = builder.drain_vector_stats()
        assert stats is not None and stats.native > 0
        assert builder.drain_vector_stats() is None  # drained

    def test_family_shares_one_build_pass(self, family_store):
        surfaces = list(family_store.surfaces())
        assert len({s.build_seconds for s in surfaces}) == 1
        assert len({s.built_unix for s in surfaces}) == 1

    def test_mismatched_axes_rejected(self, tmp_path):
        builder = SurfaceBuilder(store=SurfaceStore(tmp_path))
        with pytest.raises(ValueError, match="must share num_experiments"):
            builder.build_family(
                [spec(LADDER[0]), spec(LADDER[1], num_experiments=3)]
            )
        with pytest.raises(ValueError, match="at least one spec"):
            builder.build_family([])


class TestFamilyBrackets:
    def test_intermediate_deadline_answers_warm(self, family_store):
        """Acceptance: a warm advise at an intermediate deadline answers
        from family brackets — interpolated, zero cold builds."""
        service = AdvisorService(family_store)
        advice = run(service.advise(job(3.5 * 3600.0)))
        assert advice.source == "interpolated"
        assert service.stats.cold_builds == 0
        assert service.stats.interpolated == 1

    def test_rung_deadline_answers_exact(self, family_store):
        service = AdvisorService(family_store)
        advice = run(service.advise(job(LADDER[1])))
        assert advice.source == "surface"
        assert service.stats.cold_builds == 0

    def test_family_pair_preferred_over_mixed_brackets(
        self, family_store, tmp_path_factory
    ):
        """A lone surface with foreign grid axes sits *closer* to the
        query deadline than the family's lower rung; the advisor must
        still bracket within the family (whose pair interpolates
        cell-for-cell) rather than mix axes."""
        store = SurfaceStore(tmp_path_factory.mktemp("mixed"))
        builder = SurfaceBuilder(store=store)
        builder.build_family([spec(3 * 3600.0), spec(5 * 3600.0)])
        builder.build_family([spec(3.9 * 3600.0, num_experiments=3)])
        service = AdvisorService(store)
        advice = run(service.advise(job(4.2 * 3600.0)))
        assert advice.source == "interpolated"
        # the nearer *family* rung (5h; gap 0.8h) answers, not the
        # mixed-axes 3.9h surface (gap 0.3h) a plain nearest pair
        # would have picked
        assert advice.surface_key == spec(5 * 3600.0).key()

    def test_mixed_brackets_remain_the_fallback(self, tmp_path_factory):
        """With no same-axes pair straddling the deadline, the old
        nearest-pair behavior still interpolates."""
        store = SurfaceStore(tmp_path_factory.mktemp("fallback"))
        builder = SurfaceBuilder(store=store)
        builder.build_family([spec(3 * 3600.0)])
        builder.build_family([spec(5 * 3600.0, num_experiments=3)])
        service = AdvisorService(store)
        advice = run(service.advise(job(4 * 3600.0)))
        assert advice.source == "interpolated"
        assert service.stats.cold_builds == 0
