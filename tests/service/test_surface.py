"""Offline half of the advisor: specs, cells, artifacts, the store."""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service.surface import (
    SURFACE_SCHEMA_VERSION,
    PolicySurface,
    SurfaceBuilder,
    SurfaceCell,
    SurfaceSpec,
    SurfaceStore,
)

SMALL = dict(
    window="low",
    compute_s=2 * 3600.0,
    deadline_s=3 * 3600.0,
    ckpt_cost_s=300.0,
    restart_cost_s=300.0,
    policies=("periodic",),
    bids=(0.27, 0.81),
    zone_counts=(1,),
    num_experiments=2,
)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    store = SurfaceStore(tmp_path_factory.mktemp("surfaces"))
    (surface,) = SurfaceBuilder(store=store).build_family([SurfaceSpec(**SMALL)])
    return store, surface


class TestSpec:
    def test_key_is_deterministic_and_sensitive(self):
        a = SurfaceSpec(**SMALL)
        b = SurfaceSpec(**SMALL)
        assert a.key() == b.key()
        tighter = SurfaceSpec(**{**SMALL, "deadline_s": 2.5 * 3600.0})
        assert tighter.key() != a.key()

    def test_covers_is_exact_shape_match(self):
        spec = SurfaceSpec(**SMALL)
        assert spec.covers(2 * 3600.0, 3 * 3600.0, 300.0)
        assert not spec.covers(2 * 3600.0, 3 * 3600.0 + 60.0, 300.0)
        assert not spec.covers(2 * 3600.0, 3 * 3600.0, 900.0)

    def test_key_is_memoized_on_the_instance(self):
        spec = SurfaceSpec(**SMALL)
        assert spec._key is None
        key = spec.key()
        assert spec._key == key and spec.key() is key
        assert spec == SurfaceSpec(**SMALL)  # the memo is not compared

    def test_rejects_unknown_policy_and_empty_axes(self):
        with pytest.raises(ValueError):
            SurfaceSpec(**{**SMALL, "policies": ("no-such-policy",)})
        with pytest.raises(ValueError):
            SurfaceSpec(**{**SMALL, "bids": ()})


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _near(draw, b):
    """``b`` itself, any finite float, or a value within three ulps of
    the ``atol + rtol*|b|`` tolerance edge around ``b``."""
    kind = draw(st.sampled_from(["same", "any", "edge"]))
    if kind == "same":
        return b
    if kind == "any":
        return draw(FINITE)
    edge = 1e-6 + 1e-9 * abs(b)
    a = b + draw(st.sampled_from([edge, -edge]))
    steps = draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        a = math.nextafter(a, math.inf if steps > 0 else -math.inf)
    return a


@st.composite
def _spec_and_job_shapes(draw):
    job = [draw(FINITE) for _ in range(3)]
    return [draw(_near(b)) for b in job], job


#: Spec values exactly on the tolerance edge of a zero job value
#: (``|a - b| == atol``), one axis at a time, and one ulp past it.
EDGE = 1e-6
PAST = math.nextafter(EDGE, math.inf)


class TestCoversParity:
    @given(_spec_and_job_shapes())
    @example(([EDGE, 1.0, 1.0], [0.0, 1.0, 1.0]))
    @example(([1.0, EDGE, 1.0], [1.0, 0.0, 1.0]))
    @example(([1.0, 1.0, EDGE], [1.0, 1.0, 0.0]))
    @example(([1.0, PAST, 1.0], [1.0, 0.0, 1.0]))
    @settings(max_examples=500, deadline=None)
    def test_covers_equals_np_isclose(self, shapes):
        """``covers`` is the conjunction of the three ``np.isclose``
        checks it replaced, including at the tolerance edge."""
        (spec_c, spec_d, spec_t), job_shape = shapes
        spec = SurfaceSpec(**{**SMALL, "compute_s": spec_c,
                              "deadline_s": spec_d, "ckpt_cost_s": spec_t})
        want = all(
            bool(np.isclose(a, b, rtol=1e-9, atol=1e-6))
            for a, b in zip((spec_c, spec_d, spec_t), job_shape)
        )
        assert spec.covers(*job_shape) == want


class TestCell:
    def test_from_records_aggregates(self):
        rec = lambda cost, makespan, met: SimpleNamespace(  # noqa: E731
            cost=cost,
            met_deadline=met,
            result=SimpleNamespace(makespan_s=makespan),
        )
        cell = SurfaceCell.from_records(
            "periodic", 1, 0.81,
            [rec(10.0, 3600.0, True), rec(20.0, 7200.0, True),
             rec(30.0, 10800.0, False), rec(40.0, 14400.0, True)],
        )
        assert cell.expected_cost == pytest.approx(25.0)
        assert cell.worst_cost == pytest.approx(40.0)
        assert cell.miss_risk == pytest.approx(0.25)
        assert cell.mean_makespan_s == pytest.approx(9000.0)
        assert cell.num_runs == 4


def _cell(policy="periodic", zones=1, bid=0.81, cost=10.0, risk=0.0):
    return SurfaceCell(
        policy=policy, zones=zones, bid=bid, expected_cost=cost,
        worst_cost=cost, miss_risk=risk, mean_makespan_s=3600.0, num_runs=4,
    )


class TestBest:
    def _surface(self, *cells):
        return PolicySurface(
            spec=SurfaceSpec(**SMALL), cells=tuple(cells),
            build_seconds=0.0, built_unix=0.0,
        )

    def test_cheapest_guaranteed_cell_wins(self):
        s = self._surface(
            _cell(bid=0.27, cost=5.0, risk=0.5),  # cheap but risky
            _cell(bid=0.81, cost=12.0),
            _cell(bid=2.40, cost=9.0),
        )
        assert s.best().bid == 2.40

    def test_budget_filters_then_falls_back_to_none(self):
        s = self._surface(_cell(bid=0.81, cost=12.0), _cell(bid=2.40, cost=9.0))
        assert s.best(budget=10.0).bid == 2.40
        assert s.best(budget=1.0) is None

    def test_all_risky_means_none(self):
        s = self._surface(_cell(cost=5.0, risk=1.0))
        assert s.best() is None


class TestArtifact:
    def test_round_trip(self, built):
        _, surface = built
        again = PolicySurface.from_payload(surface.to_payload())
        assert again == surface
        assert again.key == surface.key

    def test_grid_is_complete(self, built):
        _, surface = built
        spec = surface.spec
        assert len(surface.cells) == (
            len(spec.policies) * len(spec.zone_counts) * len(spec.bids)
        )
        for bid in spec.bids:
            assert surface.cell("periodic", 1, bid) is not None

    def test_version_and_format_are_enforced(self, built):
        _, surface = built
        payload = surface.to_payload()
        with pytest.raises(ValueError, match="version"):
            PolicySurface.from_payload(
                {**payload, "version": SURFACE_SCHEMA_VERSION + 1}
            )
        with pytest.raises(ValueError, match="artifact"):
            PolicySurface.from_payload({**payload, "format": "something-else"})


class TestStore:
    def test_save_load_catalog(self, built):
        store, surface = built
        assert store.path(surface.key).exists()
        assert store.load(surface.key) == surface
        assert surface.spec in store.catalog()

    def test_foreign_and_corrupt_files_are_skipped(self, built, tmp_path):
        store, surface = built
        fresh = SurfaceStore(tmp_path)
        fresh.save(surface)
        (tmp_path / "surface-bogus.json").write_text("{not json")
        (tmp_path / "surface-foreign.json").write_text(
            json.dumps({"format": "other"})
        )
        assert [s.key for s in fresh.surfaces()] == [surface.key]

    def test_misnamed_artifact_is_refused(self, built, tmp_path):
        """A copy under another spec's file name is not served as it."""
        store, surface = built
        fresh = SurfaceStore(tmp_path)
        fresh.save(surface)
        other = SurfaceSpec(**{**SMALL, "deadline_s": 2.5 * 3600.0}).key()
        fresh.path(other).write_text(fresh.path(surface.key).read_text())
        with pytest.raises(ValueError, match=surface.key):
            fresh.load(other)
        assert fresh.load(surface.key) == surface
        assert [s.key for s in fresh.surfaces()] == [surface.key]
        assert fresh.catalog() == [surface.spec]

    def test_rebuild_is_identical_and_cache_backed(self, built):
        """Same spec -> same artifact; the second build runs over the
        store's warm run cache (the runcache directory is populated)."""
        store, surface = built
        (rebuilt,) = SurfaceBuilder(store=store).build_family([surface.spec])
        assert rebuilt.cells == surface.cells
        assert rebuilt.key == surface.key
        cache_files = list(
            (store.root / "runcache").glob("*.seg")
        )
        assert cache_files
