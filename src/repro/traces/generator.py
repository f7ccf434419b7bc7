"""Synthetic EC2 spot-price generation.

The paper drives its simulations with 14 months of archived CC2 spot
prices.  That archive is no longer redistributable, so this module
generates statistically equivalent series: piecewise-constant prices on
the 5-minute grid, produced by a two-regime (calm / spike) Markov
process per zone with a weak cross-zone coupling.

Design notes
------------
* **Piecewise-constant levels.**  Real EC2 prices dwell on discrete
  cent-quantized levels for many samples at a time; the price only
  "moves" occasionally.  We model a per-sample move probability and
  draw new levels from a log-normal centred on the zone's base price.
  This yields a modest set of distinct levels — exactly the state
  space the paper's Markov model (Appendix B) operates on.
* **Spike regime.**  Volatile months are dominated by excursions far
  above base price (up to ~$3 in January 2013, one freak $20.02 event
  in March 2013).  A calm→spike transition starts a geometric-length
  excursion whose level is drawn from a separate log-normal.
* **Weak cross-zone coupling.**  Section 3.1's VAR analysis found
  cross-zone lagged effects 1–2 orders of magnitude below own-zone
  effects.  We reproduce that by letting each zone's spike-onset
  probability rise slightly while any *other* zone is spiking — enough
  for the VAR to detect, far too little to defeat redundancy.

All randomness flows through a caller-supplied :class:`numpy.random.
Generator`, so every dataset in this package is reproducible from a
single seed.

Event-driven generation
-----------------------
The process is defined sample by sample: at each step every zone, in
zone order, either counts down its spike, or tests a spike onset
against ``min(1, spike_prob * hazard + cross_excitation * o)`` (``o``
other zones spiking at the *start* of the step) and then a move against
``move_prob``.  :func:`generate_zones` produces exactly that process
while its Python loop visits each *event* once rather than every
(sample, zone) pair:

* The per-sample uniforms are drawn up front in two bulk calls.  For
  each zone and each count ``o`` it actually meets, NumPy precomputes
  which calm steps fire (onset or move) and, for every step, the next
  firing step at or after it.  Only ``*``, ``+``, ``minimum`` and ``<``
  run vectorized, so each comparison is the scalar one, bit for bit.
* The loop jumps to the earliest pending event: a calm zone's next
  firing step under the current ``o``, or a spike's end at its onset
  step ``+ 1 + G``.  A step's events run in zone order and all see the
  spiking count from the start of the step; a change of that count
  re-looks-up every calm zone's next firing step.
* **Draw-order contract.**  Every ``rng.geometric()`` (spike length)
  and ``rng.standard_normal()`` (new level) call happens in the
  (step, zone) order of the sample-by-sample loop, so the prices *and*
  the generator's final state equal that loop's;
  ``tests/traces/test_generator_reference.py`` keeps the loop as the
  reference and checks both.
* **Transcendentals stay scalar.**  Each level is priced as its draw
  happens, with ``np.exp`` on a Python float and then
  :func:`_quantize`.  A vectorized ``exp`` may take a different SIMD
  code path and differ in the last bit, which the cent grid can turn
  into a different price.
* Price rows are filled once at the end, segment by segment, from each
  zone's list of level changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.market.constants import SAMPLE_INTERVAL_S
from repro.traces.model import SpotPriceTrace, ZoneTrace

#: Generated price levels are quantized to whole cents.  EC2 published
#: prices with three decimals, but CC2 spot prices clustered on a
#: modest set of recurring levels; cent quantization reproduces that
#: clustering, which matters because the distinct levels are the
#: Markov model's state space (Appendix B) — thousands of one-off
#: levels would degenerate the fitted chain into a path graph.
PRICE_QUANTUM: float = 0.01


@dataclass(frozen=True)
class ZoneRegimeConfig:
    """Price-process parameters for one zone in one regime window.

    Parameters
    ----------
    base_price:
        Centre of the calm-level distribution, $/hour.
    calm_sigma:
        Log-space standard deviation of calm levels (small: calm months
        wobble by a cent or two).
    move_prob:
        Per-sample probability that the price steps to a new calm level.
    spike_prob:
        Per-sample probability of entering the spike regime.
    spike_mean_duration:
        Mean spike length, in samples (geometric distribution).
    spike_level:
        Centre of the spike-level distribution, $/hour.
    spike_sigma:
        Log-space standard deviation of spike levels.
    max_price:
        Hard cap on generated prices (the market never cleared above
        ~$3 in volatile months outside the one $20.02 freak event,
        which is injected separately).
    floor_price:
        Hard floor; EC2 spot never fell below the reserve price.
    cross_excitation:
        Added to ``spike_prob`` per *other* zone currently spiking —
        the weak coupling Section 3.1 measures.
    calm_quantum / spike_quantum:
        Grids the calm and spike levels snap to.  Real CC2 spot prices
        cleared on a *small recurring set* of levels; that clustering
        is what gives the paper's Markov model (Appendix B) dense,
        well-estimated transition rows.  A generator emitting one-off
        levels instead would overfit the fitted chain into spurious
        closed classes.
    """

    base_price: float
    calm_sigma: float
    move_prob: float
    spike_prob: float
    spike_mean_duration: float
    spike_level: float
    spike_sigma: float
    max_price: float
    floor_price: float
    cross_excitation: float = 0.0
    calm_quantum: float = 0.01
    spike_quantum: float = 0.05

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.base_price <= 0:
            raise ValueError(f"base_price must be positive, got {self.base_price}")
        if not (0 <= self.move_prob <= 1 and 0 <= self.spike_prob <= 1):
            raise ValueError("move_prob and spike_prob must be probabilities")
        if self.spike_mean_duration < 1:
            raise ValueError("spike_mean_duration must be >= 1 sample")
        if self.floor_price <= 0:
            raise ValueError("floor_price must be positive")
        if self.max_price < self.base_price or self.max_price < self.floor_price:
            raise ValueError("max_price must be >= base_price and >= floor_price")
        if self.calm_quantum <= 0 or self.spike_quantum <= 0:
            raise ValueError("calm_quantum and spike_quantum must be positive")
        # base_price may sit *below* the floor: the sub-floor mass of
        # the level distribution clips to the floor, producing the
        # floor-dwelling behaviour of calm months.


def calm_zone_config(base_price: float = 0.215) -> ZoneRegimeConfig:
    """Parameters matching the paper's low-volatility window (March 2013).

    The log-normal calm-level distribution deliberately puts ~70% of
    its mass at or below the $0.27 reserve floor (where draws clip to
    the floor), because the archive's calm months dwell *at* the floor
    for long stretches — that dwell mass is what keeps the bulk mean
    near $0.30 while making bid = $0.27 viable for redundancy-based
    policies (Table 3, low volatility / 15% slack, t_c = 900 s).
    """
    return ZoneRegimeConfig(
        base_price=base_price,
        calm_sigma=0.35,
        move_prob=0.03,
        spike_prob=0.0008,
        spike_mean_duration=3.0,
        spike_level=0.55,
        spike_sigma=0.15,
        max_price=0.90,
        floor_price=0.27,
        calm_quantum=0.02,
    )


def volatile_zone_config(
    base_price: float = 0.45,
    spike_level: float = 2.2,
    spike_prob: float = 0.055,
    spike_mean_duration: float = 5.0,
) -> ZoneRegimeConfig:
    """Parameters matching the paper's high-volatility window (January 2013).

    With these defaults the long-run mean lands in the paper's
    $0.70–$1.12 band and the variance reaches ≈ 0.5–2.0 depending on
    the spike parameters, with excursions up to ~$3.
    """
    return ZoneRegimeConfig(
        base_price=base_price,
        calm_sigma=0.25,
        move_prob=0.15,
        spike_prob=spike_prob,
        spike_mean_duration=spike_mean_duration,
        spike_level=spike_level,
        spike_sigma=0.25,
        max_price=3.30,
        floor_price=0.27,
        cross_excitation=0.004,
        calm_quantum=0.05,
        spike_quantum=0.25,
    )


def _quantize(price: float, cfg: ZoneRegimeConfig, quantum: float | None = None) -> float:
    """Clip to [floor, max] and snap to the regime's level grid."""
    q = PRICE_QUANTUM if quantum is None else quantum
    p = round(round(price / q) * q, 3)
    return min(max(p, cfg.floor_price), cfg.max_price)


def _calm_level(cfg: ZoneRegimeConfig, rng: np.random.Generator) -> float:
    """Draw a calm level: one normal, a scalar ``exp``, the calm grid."""
    return _quantize(
        cfg.base_price * np.exp(cfg.calm_sigma * rng.standard_normal()),
        cfg,
        cfg.calm_quantum,
    )


def _spike_level(cfg: ZoneRegimeConfig, rng: np.random.Generator) -> float:
    """Draw a spike level: one normal, a scalar ``exp``, the spike grid."""
    return _quantize(
        cfg.spike_level * np.exp(cfg.spike_sigma * rng.standard_normal()),
        cfg,
        cfg.spike_quantum,
    )


def _firing_steps(
    cfg: ZoneRegimeConfig,
    envelope: np.ndarray | None,
    others: int,
    u_move: np.ndarray,
    u_spike: np.ndarray,
) -> tuple[memoryview, memoryview]:
    """Where one calm zone fires while ``others`` other zones spike.

    Returns ``(next_fire, onset)``: ``next_fire[t]`` is the first step
    ``>= t`` at which the zone would start a spike or move, or the trace
    length ``n`` if none (it has ``n + 1`` entries, so a look-up just
    past the last step finds none), and ``onset[t]`` says whether a
    firing at ``t`` is a spike onset rather than a move.  Only ``*``,
    ``+``, ``minimum`` and ``<`` run vectorized, so every comparison is
    bit-for-bit the one a per-step scalar loop makes.
    """
    n = u_move.shape[0]
    hazard = cfg.spike_prob if envelope is None else cfg.spike_prob * envelope
    p_spike = np.minimum(1.0, hazard + cfg.cross_excitation * others)
    onset = u_spike < p_spike
    steps = np.where(onset | (u_move < cfg.move_prob), np.arange(n), n)
    next_fire = np.append(np.minimum.accumulate(steps[::-1])[::-1], n)
    # memoryviews index to Python ints and bools without the object per
    # entry that tolist() would allocate (and leave in the heap)
    return memoryview(next_fire), memoryview(onset)


def generate_zones(
    configs: dict[str, ZoneRegimeConfig],
    num_samples: int,
    rng: np.random.Generator,
    start_time: float = 0.0,
    interval_s: int = SAMPLE_INTERVAL_S,
    hazard_envelopes: dict[str, np.ndarray] | None = None,
) -> SpotPriceTrace:
    """Generate an aligned multi-zone trace.

    Zones evolve jointly so the cross-excitation term can see the other
    zones' regime state, but all level draws are independent — this is
    what produces the "statistically significant but 1–2 orders of
    magnitude smaller" cross-zone effects of Section 3.1.

    ``hazard_envelopes`` optionally scales each zone's per-sample spike
    probability with a day-scale multiplier series (same length as the
    trace).  Real volatile months were *episodic* — storm days with
    frequent excursions interleaved with quiet days — and several of
    the paper's findings (wide boxplots over the 80 overlapping chunks,
    Adaptive reacting to current conditions) only emerge from that
    structure.
    """
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    names = list(configs)
    n_zones = len(names)
    cfgs = [configs[name] for name in names]
    envelopes: list[np.ndarray | None] = [None] * n_zones
    if hazard_envelopes is not None:
        for j, name in enumerate(names):
            env = np.asarray(hazard_envelopes[name], dtype=np.float64)
            if env.shape != (num_samples,):
                raise ValueError(
                    f"hazard envelope for {name!r} must have shape "
                    f"({num_samples},), got {env.shape}"
                )
            if np.any(env < 0):
                raise ValueError("hazard multipliers must be >= 0")
            if not np.all(np.isfinite(env)):
                raise ValueError("hazard multipliers must be finite")
            envelopes[j] = env

    # Pre-draw the per-sample uniforms in bulk; level draws are lazy
    # because they are comparatively rare.
    u_move = rng.random((num_samples, n_zones))
    u_spike = rng.random((num_samples, n_zones))

    # tables[j][o]: _firing_steps of zone j while o other zones spike,
    # built on first use; without coupling, o = 0 serves every count.
    tables: list[list] = [[None] * n_zones for _ in range(n_zones)]
    # step at which each zone's current spike ends; None while calm
    spike_end: list[int | None] = [None] * n_zones
    n_spiking = 0
    # each calm zone's table under the current spiking count
    next_fire: list[memoryview | None] = [None] * n_zones
    onset: list[memoryview | None] = [None] * n_zones

    def retable(j: int) -> None:
        cfg = cfgs[j]
        o = n_spiking if cfg.cross_excitation else 0
        table = tables[j][o]
        if table is None:
            table = tables[j][o] = _firing_steps(
                cfg, envelopes[j], o, u_move[:, j], u_spike[:, j])
        next_fire[j], onset[j] = table

    for j in range(n_zones):
        retable(j)
    # each zone's next event step
    due = [next_fire[j][0] for j in range(n_zones)]
    # Each zone's price is a run of levels: change_steps[j][i] is where
    # change_levels[j][i + 1] takes over.
    change_steps: list[list[int]] = [[] for _ in range(n_zones)]
    change_levels = [[_quantize(c.base_price, c, c.calm_quantum)] for c in cfgs]
    zone_ids = range(n_zones)
    while True:
        step = min(due, default=num_samples)
        if step >= num_samples:
            break
        # Every event of one step, in zone order, each seeing the
        # spiking count at the start of the step: the draws happen in
        # exactly the (step, zone) order of a sample-by-sample loop.
        regime_change = False
        for j in zone_ids:
            if due[j] != step:
                continue
            cfg = cfgs[j]
            if spike_end[j] is not None:
                spike_end[j] = None
                n_spiking -= 1
                regime_change = True
                new_level = _calm_level(cfg, rng)
            elif onset[j][step]:
                spike_end[j] = due[j] = step + 1 + rng.geometric(
                    1.0 / cfg.spike_mean_duration
                )
                n_spiking += 1
                regime_change = True
                new_level = _spike_level(cfg, rng)
            else:
                due[j] = next_fire[j][step + 1]
                new_level = _calm_level(cfg, rng)
            change_steps[j].append(step)
            change_levels[j].append(new_level)
        if regime_change:
            # The spiking count moved every calm zone's onset hazard;
            # it holds until the next event, so the next event of each
            # calm zone is found under the new count.
            for j in zone_ids:
                if spike_end[j] is None:
                    retable(j)
                    due[j] = next_fire[j][step + 1]

    prices = np.empty((n_zones, num_samples), dtype=np.float64)
    for j in range(n_zones):
        bounds = [0, *change_steps[j], num_samples]
        prices[j] = np.repeat(change_levels[j], np.diff(bounds))

    zones = tuple(
        ZoneTrace(zone=name, start_time=start_time, prices=prices[j],
                  interval_s=interval_s)
        for j, name in enumerate(names)
    )
    return SpotPriceTrace(zones=zones)


def inject_spike(
    trace: SpotPriceTrace,
    zone: str,
    t0: float,
    duration_s: float,
    price: float,
) -> SpotPriceTrace:
    """Return a copy of ``trace`` with a flat spike written into one zone.

    Used by the canonical dataset to plant the $20.02 March 13–14, 2013
    event that produces Large-bid's worst case (Section 7.2.2).
    """
    new_zones = []
    for z in trace.zones:
        if z.zone != zone:
            new_zones.append(z)
            continue
        i0 = z.index_at(t0)
        i1 = min(len(z), i0 + int(round(duration_s / z.interval_s)))
        if i1 <= i0:
            raise ValueError("spike duration shorter than one sample")
        p = z.prices.copy()
        p[i0:i1] = price
        new_zones.append(
            ZoneTrace(zone=z.zone, start_time=z.start_time, prices=p,
                      interval_s=z.interval_s)
        )
    return SpotPriceTrace(zones=tuple(new_zones))


def vary_zone_configs(
    base: ZoneRegimeConfig,
    zone_names: tuple[str, ...],
    rng: np.random.Generator,
    base_price_spread: float = 0.0,
    spike_level_spread: float = 0.0,
) -> dict[str, ZoneRegimeConfig]:
    """Per-zone parameter jitter around a shared regime configuration.

    The paper's January 2013 window has per-zone means spread across
    $0.70–$1.12: zones share the regime but not the exact parameters.
    """
    out: dict[str, ZoneRegimeConfig] = {}
    for name in zone_names:
        bp = base.base_price * float(
            1.0 + base_price_spread * (2.0 * rng.random() - 1.0)
        )
        sl = base.spike_level * float(
            1.0 + spike_level_spread * (2.0 * rng.random() - 1.0)
        )
        # base_price may legitimately sit below the floor (the clipped
        # mass dwells at the floor), so only spike levels are clamped.
        out[name] = replace(base, base_price=max(bp, 0.01),
                            spike_level=min(sl, base.max_price))
    return out
