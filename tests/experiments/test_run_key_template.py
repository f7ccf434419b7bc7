"""Run-key templates: a batch's shared parts encoded once, each run's
parts spliced in, the digest exactly :meth:`RunCache.run_key`'s."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.workload import paper_experiment
from repro.core.periodic import PeriodicPolicy
from repro.experiments.cache import RunCache, RunKeyTemplate, canonical_json
from repro.market.queuing import QueueDelayModel

ROW_FIELDS = RunKeyTemplate.ROW_FIELDS

names = st.text(alphabet="abcdefghij_", min_size=1, max_size=8)
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.floats(allow_nan=False), st.text(max_size=6),
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(names, inner, max_size=3),
    ),
    max_leaves=8,
)


def _parts(start: float, bid: float, seed: int) -> dict:
    return {
        "bid": bid,
        "config": paper_experiment(slack_fraction=0.5),
        "policy": PeriodicPolicy().canonical_params(),
        "rng": np.random.default_rng(seed).bit_generator.state,
        "start_time": start,
    }


@settings(max_examples=60, deadline=None)
@given(
    shared=st.dictionaries(
        names.filter(lambda k: k not in ROW_FIELDS and k != "schema"),
        values, max_size=6,
    ),
    start=st.floats(0.0, 1e7),
    bid=st.floats(0.01, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_template_key_equals_run_key(shared, start, bid, seed):
    row = _parts(start, bid, seed)
    template = RunKeyTemplate(shared)
    got = template.key(*(canonical_json(row[f]) for f in ROW_FIELDS))
    assert got == RunCache().run_key({**shared, **row})


def test_template_key_with_engine_parts():
    shared = {
        "trace": "ab" * 32,
        "oracle": {"history_s": 86400.0, "bucket_s": 3600.0,
                   "incremental": True},
        "engine_mode": "fast",
        "record_events": False,
        "record_timeline": False,
        "queue_model": QueueDelayModel(),
        "zones": ("us-east-1a",),
        "controller": None,
    }
    row = _parts(12345.0, 0.81, 7)
    template = RunKeyTemplate(shared)
    got = template.key(*(canonical_json(row[f]) for f in ROW_FIELDS))
    assert got == RunCache().run_key({**shared, **row})


def test_uncanonical_shared_part_raises_type_error():
    with pytest.raises(TypeError):
        RunKeyTemplate({"x": object()})
