"""Unit tests for the synthetic price generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces.generator import (
    ZoneRegimeConfig,
    calm_zone_config,
    generate_zones,
    inject_spike,
    vary_zone_configs,
    volatile_zone_config,
)


class TestConfigValidation:
    def test_calm_defaults_valid(self):
        calm_zone_config()

    def test_volatile_defaults_valid(self):
        volatile_zone_config()

    def test_rejects_negative_base(self):
        with pytest.raises(ValueError):
            calm_zone_config(base_price=-0.1)

    def test_rejects_bad_probabilities(self):
        cfg = volatile_zone_config()
        with pytest.raises(ValueError):
            ZoneRegimeConfig(**{**cfg.__dict__, "spike_prob": 1.5})

    def test_rejects_short_spike_duration(self):
        cfg = volatile_zone_config()
        with pytest.raises(ValueError):
            ZoneRegimeConfig(**{**cfg.__dict__, "spike_mean_duration": 0.5})

    def test_rejects_max_below_floor(self):
        cfg = calm_zone_config()
        with pytest.raises(ValueError):
            ZoneRegimeConfig(**{**cfg.__dict__, "max_price": 0.1})

    @pytest.mark.parametrize("field", ["base_price", "cross_excitation",
                                       "spike_sigma", "max_price"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_field(self, field, value):
        # NaN base_price used to die later with "cannot convert float
        # NaN to integer"; NaN coupling or spike sigma generated a trace
        cfg = volatile_zone_config()
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ZoneRegimeConfig(**{**cfg.__dict__, field: value})

    @pytest.mark.parametrize("field", ["calm_quantum", "spike_quantum"])
    @pytest.mark.parametrize("value", [0.0, -0.05])
    def test_rejects_non_positive_quantum(self, field, value):
        # calm_quantum=0 used to raise ZeroDivisionError at the first draw
        cfg = volatile_zone_config()
        with pytest.raises(ValueError, match="quantum must be positive"):
            ZoneRegimeConfig(**{**cfg.__dict__, field: value})

    def test_base_below_floor_allowed(self):
        # floor-dwelling calm months rely on this
        cfg = calm_zone_config(base_price=0.20)
        assert cfg.base_price < cfg.floor_price


class TestGeneration:
    def _gen(self, cfg=None, n=2000, seed=1, zones=("za", "zb")):
        cfg = cfg or volatile_zone_config()
        rng = np.random.default_rng(seed)
        return generate_zones({z: cfg for z in zones}, n, rng)

    def test_shape_and_alignment(self):
        t = self._gen()
        assert t.num_zones == 2
        assert len(t) == 2000
        assert t.interval_s == 300

    def test_reproducible_from_seed(self):
        a = self._gen(seed=42)
        b = self._gen(seed=42)
        assert np.array_equal(a.matrix(), b.matrix())

    def test_different_seeds_differ(self):
        a = self._gen(seed=1)
        b = self._gen(seed=2)
        assert not np.array_equal(a.matrix(), b.matrix())

    def test_prices_respect_floor_and_cap(self):
        cfg = volatile_zone_config()
        t = self._gen(cfg)
        m = t.matrix()
        assert m.min() >= cfg.floor_price
        assert m.max() <= cfg.max_price

    def test_calm_prices_quantized(self):
        cfg = calm_zone_config()
        t = self._gen(cfg, n=5000)
        levels = t.zone("za").distinct_prices()
        # every level sits on the calm or spike grid, or at the
        # floor/cap boundaries
        for level in levels:
            on_calm = abs(level / cfg.calm_quantum - round(level / cfg.calm_quantum)) < 1e-9
            on_spike = abs(level / cfg.spike_quantum - round(level / cfg.spike_quantum)) < 1e-9
            boundary = level in (pytest.approx(cfg.floor_price),
                                 pytest.approx(cfg.max_price))
            assert on_calm or on_spike or boundary

    def test_calm_window_has_modest_state_count(self):
        t = self._gen(calm_zone_config(), n=576)
        assert len(t.zone("za").distinct_prices()) < 40

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            self._gen(n=0)

    def test_hazard_envelope_shapes_validated(self):
        cfg = volatile_zone_config()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_zones({"za": cfg}, 100, rng,
                           hazard_envelopes={"za": np.ones(99)})
        with pytest.raises(ValueError):
            generate_zones({"za": cfg}, 100, rng,
                           hazard_envelopes={"za": -np.ones(100)})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_hazard_rejected(self, bad):
        # a NaN multiplier used to make the zone spike at every step
        cfg = volatile_zone_config()
        env = np.ones(100)
        env[40] = bad
        with pytest.raises(ValueError, match="hazard multipliers must be finite"):
            generate_zones({"za": cfg}, 100, np.random.default_rng(0),
                           hazard_envelopes={"za": env})

    def test_hazard_envelope_damps_spikes(self):
        cfg = volatile_zone_config(spike_prob=0.05)
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        n = 5000
        stormy = generate_zones({"za": cfg}, n, rng1,
                                hazard_envelopes={"za": np.ones(n)})
        quiet = generate_zones({"za": cfg}, n, rng2,
                               hazard_envelopes={"za": np.zeros(n)})
        thresh = cfg.base_price * 2
        assert quiet.zone("za").availability(thresh) > stormy.zone(
            "za"
        ).availability(thresh)

    def test_quiet_envelope_means_no_spikes(self):
        cfg = volatile_zone_config()
        rng = np.random.default_rng(5)
        n = 3000
        t = generate_zones({"za": cfg}, n, rng,
                           hazard_envelopes={"za": np.zeros(n)})
        # without spikes the price stays in calm-level territory
        assert t.zone("za").maximum() < cfg.spike_level / 1.5


class TestInjectSpike:
    def test_spike_written_into_target_zone_only(self):
        cfg = calm_zone_config()
        rng = np.random.default_rng(0)
        t = generate_zones({"za": cfg, "zb": cfg}, 288, rng)
        spiked = inject_spike(t, "zb", t0=3600.0, duration_s=1800.0, price=20.02)
        assert spiked.zone("zb").price_at(3600.0) == 20.02
        assert spiked.zone("zb").price_at(3600.0 + 1799.0) == 20.02
        assert spiked.zone("zb").price_at(3600.0 + 1800.0) != 20.02
        assert np.array_equal(spiked.zone("za").prices, t.zone("za").prices)

    def test_original_unmodified(self):
        cfg = calm_zone_config()
        t = generate_zones({"za": cfg}, 100, np.random.default_rng(0))
        before = t.zone("za").prices.copy()
        inject_spike(t, "za", t0=300.0, duration_s=600.0, price=9.0)
        assert np.array_equal(t.zone("za").prices, before)

    def test_zero_duration_rejected(self):
        cfg = calm_zone_config()
        t = generate_zones({"za": cfg}, 100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            inject_spike(t, "za", t0=300.0, duration_s=1.0, price=9.0)


class TestVaryZoneConfigs:
    def test_produces_one_config_per_zone(self):
        base = volatile_zone_config()
        out = vary_zone_configs(base, ("za", "zb", "zc"),
                                np.random.default_rng(0),
                                base_price_spread=0.1)
        assert set(out) == {"za", "zb", "zc"}

    def test_spread_zero_keeps_base(self):
        base = volatile_zone_config()
        out = vary_zone_configs(base, ("za",), np.random.default_rng(0))
        assert out["za"].base_price == pytest.approx(base.base_price)

    def test_base_may_fall_below_floor(self):
        base = calm_zone_config(base_price=0.215)
        out = vary_zone_configs(base, ("za",), np.random.default_rng(1),
                                base_price_spread=0.05)
        assert out["za"].base_price > 0


class TestCrossExcitation:
    def test_coupling_detectable_but_weak(self):
        """The generator's cross-excitation term reproduces §3.1:
        statistically present, 1-2 orders below own-zone effects."""
        import numpy as np
        from repro.stats.var import zone_dependence_report
        from repro.traces.generator import generate_zones, volatile_zone_config

        cfg = volatile_zone_config(spike_prob=0.03)
        rng = np.random.default_rng(7)
        trace = generate_zones({z: cfg for z in ("za", "zb", "zc")},
                               20_000, rng)
        report = zone_dependence_report(trace.matrix().T, max_order=4)
        assert report["own_effect"] > report["cross_effect"]
        assert report["orders_of_magnitude"] >= 0.5

    def test_zero_coupling_gives_larger_ratio(self):
        import numpy as np
        from dataclasses import replace
        from repro.stats.var import zone_dependence_report
        from repro.traces.generator import generate_zones, volatile_zone_config

        coupled_cfg = volatile_zone_config(spike_prob=0.03)
        free_cfg = replace(coupled_cfg, cross_excitation=0.0)
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        coupled = generate_zones({z: coupled_cfg for z in ("za", "zb")},
                                 20_000, rng1)
        free = generate_zones({z: free_cfg for z in ("za", "zb")},
                              20_000, rng2)
        r_coupled = zone_dependence_report(coupled.matrix().T, max_order=3)
        r_free = zone_dependence_report(free.matrix().T, max_order=3)
        # independent zones show an (even) weaker cross effect
        assert r_free["cross_effect"] <= r_coupled["cross_effect"] * 1.5
