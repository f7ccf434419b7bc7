"""Run-time dynamics: deadline updates and performance variation.

Section 3.2 notes that because Algorithm 1 continuously monitors the
remaining time ``T_r`` and the progress ``P``, "it can potentially
handle changes in the input parameters such as the deadline D
(modified by the user during application runtime) or variation in
application performance (which affects P)".  This module makes those
two extensions concrete:

* :class:`DeadlineSchedule` — user-issued deadline changes during the
  run.  Extensions are always safe; a contraction may arrive too late
  to be honourable (the committed margin is already below the new
  requirement), in which case the engine migrates immediately and the
  run reports the miss honestly.
* :class:`PerformanceProfile` — a piecewise-constant compute-rate
  factor (e.g. an input-dependent phase where iterations run at 70%
  of the profiled rate).  A factor of 1.0 is the nominal performance
  the user's ``C`` was estimated at; the engine scales progress
  accrual accordingly, so slower-than-profiled phases consume slack
  exactly as they would in reality.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass


@dataclass(frozen=True)
class DeadlineSchedule:
    """User deadline updates: ``(effective_time, new_deadline)`` pairs.

    Both values are absolute timestamps.  Updates take effect at the
    first engine tick at or after ``effective_time``; later updates
    override earlier ones.
    """

    updates: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        times = [t for t, _ in self.updates]
        if times != sorted(times):
            raise ValueError("deadline updates must be time-ordered")
        for _, deadline in self.updates:
            if deadline <= 0:
                raise ValueError("deadlines must be positive timestamps")
        object.__setattr__(self, "updates", tuple(self.updates))

    def deadline_at(self, now: float, initial_deadline: float) -> float:
        """The deadline in force at time ``now``."""
        deadline = initial_deadline
        for effective, new_deadline in self.updates:
            if effective > now:
                break
            deadline = new_deadline
        return deadline

    def next_change_after(self, now: float) -> float | None:
        """Timestamp of the next pending update, or None."""
        for effective, _ in self.updates:
            if effective > now:
                return effective
        return None


@dataclass(frozen=True)
class PerformanceProfile:
    """Piecewise-constant compute-rate factor over absolute time.

    ``segments`` is a sorted sequence of ``(start_time, factor)``;
    the factor applies from its start time until the next segment.
    Before the first segment the factor is 1.0 (nominal).
    """

    segments: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        times = [t for t, _ in self.segments]
        if times != sorted(times):
            raise ValueError("profile segments must be time-ordered")
        for _, factor in self.segments:
            if not (0.0 <= factor <= 10.0):
                raise ValueError(
                    f"rate factor {factor} outside the sane range [0, 10]"
                )
        object.__setattr__(self, "segments", tuple(self.segments))

    def rate_at(self, now: float) -> float:
        """Compute-rate factor in force at ``now``."""
        if not self.segments:
            return 1.0
        times = [t for t, _ in self.segments]
        i = bisect.bisect_right(times, now) - 1
        if i < 0:
            return 1.0
        return self.segments[i][1]

    def wall_time_for(
        self,
        compute_s: float,
        start_time: float,
        cap_rate: float = 1.0,
    ) -> float:
        """Wall-clock seconds to accrue ``compute_s`` from ``start_time``.

        Integrates the piecewise rate forward.  Rates are capped at
        ``cap_rate`` (default: nominal) — the deadline guard uses this
        so that an upcoming *fast* phase can never make the margin
        shrink faster than one tick per tick (the no-skip property),
        at the cost of being conservative about speed-ups.  Returns
        ``inf`` when the profile never delivers the required compute
        (a permanent stall).
        """
        if compute_s <= 0:
            return 0.0
        # boundaries after start_time, in order, then open-ended tail
        boundaries = [t for t, _ in self.segments if t > start_time]
        remaining = compute_s
        wall = 0.0
        t = start_time
        for boundary in boundaries:
            rate = min(self.rate_at(t), cap_rate)
            span = boundary - t
            if rate > 0:
                if remaining <= span * rate:
                    return wall + remaining / rate
                remaining -= span * rate
            wall += span
            t = boundary
        rate = min(self.rate_at(t), cap_rate)
        if rate <= 0:
            return float("inf")
        return wall + remaining / rate


#: The trivial dynamics: fixed deadline, nominal performance.
STATIC_DEADLINE = DeadlineSchedule()
NOMINAL_PERFORMANCE = PerformanceProfile()
