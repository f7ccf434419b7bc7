"""Differential: the event-driven generator against a per-sample loop.

``generate_zones`` visits each price event once: it precomputes with
NumPy which calm steps fire and jumps from event to event.  The
reference below is the textbook formulation it replaced: one Python
pass over every (sample, zone) pair.  Both must produce bit-identical
prices *and* leave the generator in the same state, which proves the
same draws were made in the same order.  The archive itself is pinned
by SHA-256 digests of every month for two seeds.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.generator import ZoneRegimeConfig, _quantize, generate_zones
from repro.traces.library import MONTHS, month_trace


def reference_prices(
    configs: dict[str, ZoneRegimeConfig],
    num_samples: int,
    rng: np.random.Generator,
    hazard_envelopes: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """The per-sample loop: a ``(zones, samples)`` price matrix."""
    names = list(configs)
    n_zones = len(names)
    cfgs = [configs[name] for name in names]
    hazard = None
    if hazard_envelopes is not None:
        hazard = np.column_stack(
            [np.asarray(hazard_envelopes[name], dtype=np.float64)
             for name in names]
        )

    prices = np.empty((n_zones, num_samples), dtype=np.float64)
    level = np.array([_quantize(c.base_price, c, c.calm_quantum) for c in cfgs])
    spiking = np.zeros(n_zones, dtype=bool)
    spike_left = np.zeros(n_zones, dtype=np.int64)

    u_move = rng.random((num_samples, n_zones))
    u_spike = rng.random((num_samples, n_zones))

    for t in range(num_samples):
        n_spiking = int(spiking.sum())
        for j, cfg in enumerate(cfgs):
            if spiking[j]:
                spike_left[j] -= 1
                if spike_left[j] <= 0:
                    spiking[j] = False
                    level[j] = _quantize(
                        cfg.base_price * np.exp(cfg.calm_sigma * rng.standard_normal()),
                        cfg,
                        cfg.calm_quantum,
                    )
            else:
                others = n_spiking - int(spiking[j])
                base_hazard = cfg.spike_prob
                if hazard is not None:
                    base_hazard *= hazard[t, j]
                p_spike = min(1.0, base_hazard + cfg.cross_excitation * others)
                if u_spike[t, j] < p_spike:
                    spiking[j] = True
                    spike_left[j] = 1 + rng.geometric(
                        1.0 / cfg.spike_mean_duration
                    )
                    level[j] = _quantize(
                        cfg.spike_level
                        * np.exp(cfg.spike_sigma * rng.standard_normal()),
                        cfg,
                        cfg.spike_quantum,
                    )
                elif u_move[t, j] < cfg.move_prob:
                    level[j] = _quantize(
                        cfg.base_price * np.exp(cfg.calm_sigma * rng.standard_normal()),
                        cfg,
                        cfg.calm_quantum,
                    )
            prices[j, t] = level[j]
    return prices


def assert_same_as_reference(configs, num_samples, seed, envelopes=None):
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    got = generate_zones(configs, num_samples, rng,
                         hazard_envelopes=envelopes).matrix()
    want = reference_prices(configs, num_samples, ref_rng, envelopes)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@st.composite
def zone_configs(draw) -> ZoneRegimeConfig:
    floor = draw(st.floats(0.01, 0.5))
    base = draw(st.floats(0.05, 1.0))
    return ZoneRegimeConfig(
        base_price=base,
        calm_sigma=draw(st.floats(0.0, 0.6)),
        move_prob=draw(st.sampled_from([0.0, 0.03, 0.15, 0.5, 1.0])),
        spike_prob=draw(st.sampled_from([0.0, 0.001, 0.03, 0.2, 1.0])),
        spike_mean_duration=draw(st.floats(1.0, 20.0)),
        spike_level=draw(st.floats(0.2, 3.0)),
        spike_sigma=draw(st.floats(0.0, 0.5)),
        max_price=max(base, floor) + draw(st.floats(0.0, 3.0)),
        floor_price=floor,
        cross_excitation=draw(st.sampled_from([0.0, 0.004, 0.05, 0.4])),
        calm_quantum=draw(st.sampled_from([0.01, 0.02, 0.05])),
        spike_quantum=draw(st.sampled_from([0.05, 0.25])),
    )


def storm_envelope(num_samples: int, seed: int) -> np.ndarray:
    """Piecewise-constant multipliers holding 0, quiet damping and
    values above 1, in blocks like the archive's storm envelope."""
    rng = np.random.default_rng(seed)
    values = rng.choice([0.0, 0.1, 1.0, 2.5, 40.0], size=num_samples)
    blocks = np.repeat(values, rng.integers(1, 60, size=num_samples))
    return blocks[:num_samples]


@settings(max_examples=120, deadline=None)
@given(
    cfgs=st.lists(zone_configs(), min_size=1, max_size=4),
    num_samples=st.one_of(st.integers(1, 40), st.integers(400, 2500)),
    seed=st.integers(0, 2**32 - 1),
    with_envelopes=st.booleans(),
)
def test_matches_per_sample_loop(cfgs, num_samples, seed, with_envelopes):
    # Coupling is the interesting case: give at least one zone some.
    if all(c.cross_excitation == 0.0 for c in cfgs):
        cfgs[0] = ZoneRegimeConfig(**{**cfgs[0].__dict__,
                                      "cross_excitation": 0.05})
    configs = {f"z{j}": c for j, c in enumerate(cfgs)}
    envelopes = None
    if with_envelopes:
        envelopes = {name: storm_envelope(num_samples, seed + j)
                     for j, name in enumerate(configs)}
    assert_same_as_reference(configs, num_samples, seed, envelopes)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_spike_storm_with_strong_coupling(seed):
    """Every zone spikes often and each spike raises the others' onset
    probability sharply: many same-step ends, onsets and moves."""
    cfg = ZoneRegimeConfig(
        base_price=0.4, calm_sigma=0.3, move_prob=0.2, spike_prob=0.05,
        spike_mean_duration=3.0, spike_level=1.5, spike_sigma=0.3,
        max_price=3.0, floor_price=0.27, cross_excitation=0.3,
        calm_quantum=0.05, spike_quantum=0.25,
    )
    configs = {z: cfg for z in ("a", "b", "c", "d")}
    envelopes = {z: storm_envelope(3000, seed + k)
                 for k, z in enumerate(configs)}
    assert_same_as_reference(configs, 3000, seed, envelopes)
    assert_same_as_reference(configs, 3000, seed)


#: SHA-256 of every month's ``(zones, samples)`` float64 price matrix,
#: computed with the per-sample loop.
ARCHIVE_DIGESTS: dict[tuple[int, int, int], str] = {
    (20140623, 2012, 12): "b385f68ee188f662256f9ba60e66dd7863368a0d4fc5f4cbc3d0b9b1f9157045",
    (20140623, 2013, 1): "19f76f73073705c4dd951ef7d5f0dac557f60d207273eb059e5b15ce4398d1d9",
    (20140623, 2013, 2): "913f329ef07a0fb1212af5badaff101a86a64bf9463393152ea0f620b852ea6d",
    (20140623, 2013, 3): "175a89e102d04ea53c89a183616361bd20bd1babb24966f9dc91b8c4acbbbe41",
    (20140623, 2013, 4): "667bde3c2b667cf944a7ef991f9360de5ecaaa4583e2fb6937e1ddf550de1750",
    (20140623, 2013, 5): "6c591c4d0dc73598ffbc96960bd0585989f49615ad4a350bacd1410e8fc3376e",
    (20140623, 2013, 6): "6fa577eb371ed6b7d13d02b8603cdc98dcb330399ad5c67ed33ad9b81eb2f014",
    (20140623, 2013, 7): "964ccc5097f502c0058d63ed2823f3a9fba341fa15284a3e9b28f2fb1041f8b5",
    (20140623, 2013, 8): "c0adae1a5b9fe9f71b6893d7ad6c121c07bdd195cd1668fe4c9f75fe2890321d",
    (20140623, 2013, 9): "72a153641d7a4081514418bb43a7244bfc2ebc292584ccc4a08ebe3ba15026cb",
    (20140623, 2013, 10): "f2871be7e0bf4cf75b5296eadf58759f3e0ef08f855d33906d9b06a78811fcff",
    (20140623, 2013, 11): "82e305382a67946186dcf11abffc557621a99c6fba15d5fa35d25bed964507c6",
    (20140623, 2013, 12): "28cde6570649780696e5b6d6430ced54066afc162dc1823e99adfd26ea5aa9f5",
    (20140623, 2014, 1): "f8c27258062955f8d0057751df56ce100596b52af5d37312fc5f5f9f6df7ee41",
    (7, 2012, 12): "3d9b6c6daa77cde0e406348a428b7a94698cddc3358950a1f2fd4a5d82e54437",
    (7, 2013, 1): "b9dab42bc8159cae046660ae344585ec25104970b9debc8e13c80c37ed1b9c50",
    (7, 2013, 2): "0748a80104877eb0d18c1313ddcf1c95a7370ea66212c355ed3fcd1aa5a6dd8a",
    (7, 2013, 3): "f33b736e3cede0af9b9548c51c363fffb4787f92bd69f8033fd55323a3faae80",
    (7, 2013, 4): "c6d76bef8df4ffe8689a8a5984b71ab9fd7e05a5c726fd32c139deb4f55261ce",
    (7, 2013, 5): "c4bfcbd97e537ba6196578aa21ec9e89cf8a519ecd08a97847a6a878492d22f9",
    (7, 2013, 6): "bb4d494f2a1dfb6004e4523da2c97c5dba1d2138fc4fa5e6002b2dce378589cf",
    (7, 2013, 7): "f93f1ca028298457bdad965dac97efe38d377fee5e1e9c9eb56da7bc79436362",
    (7, 2013, 8): "7bb12748d227b362ade0bf983cafa848d6bd594900a3a099edf4a15d5af2ed7e",
    (7, 2013, 9): "53cc95fc7d537ec7135f79564d3d177d9f86c2482b1f8df9ea812b73de33f506",
    (7, 2013, 10): "09fb1600e9573827df113382950bb5b3eb57c6af38a10a789b23484f1481c415",
    (7, 2013, 11): "58f9f5c5b5068b09cfbb6ab34563747be924d1b7d86706340d3863490d72068b",
    (7, 2013, 12): "d59e34ddc7fb5cc20f584ddf8c9a7151b108ccabbd4e85b9e5884bba199244f7",
    (7, 2014, 1): "4405707668a3fae686917fc404745122a6c59816ecd29a6ea24c6b7e853d1cc7",
}


def test_digests_cover_the_archive():
    assert {(y, m) for _, y, m in ARCHIVE_DIGESTS} == set(MONTHS)


@pytest.mark.parametrize("key", sorted(ARCHIVE_DIGESTS),
                         ids=lambda k: "-".join(map(str, k)))
def test_archive_month_digest(key):
    seed, year, month = key
    matrix = month_trace(year, month, seed).matrix()
    data = np.ascontiguousarray(matrix, dtype="<f8").tobytes()
    assert hashlib.sha256(data).hexdigest() == ARCHIVE_DIGESTS[key]
