"""Daly's optimum checkpoint interval.

The Markov-Daly policy (Section 4.2) feeds the Markov model's expected
up time ``E[T_u]`` — playing the role of the mean time between failures
``M`` — together with the checkpoint cost ``t_c`` (Daly's ``delta``)
into Daly's higher-order estimate of the optimum compute time between
checkpoints [Daly, FGCS 2006]:

    tau_opt = sqrt(2 * delta * M) * [1 + sqrt(delta/(2M))/3 + delta/(18M)] - delta
              (valid for delta < 2M)
    tau_opt = M                       (for delta >= 2M)

The first-order form ``sqrt(2*delta*M) - delta`` is also provided for
the ablation benchmarks.
"""

from __future__ import annotations

import math

import numpy as np


def daly_interval(mtbf_s: float, ckpt_cost_s: float) -> float:
    """Daly's higher-order optimum compute interval between checkpoints.

    Parameters
    ----------
    mtbf_s:
        Mean time between failures (here: expected zone up time), s.
    ckpt_cost_s:
        Time to take one checkpoint (``delta``), s.

    Returns
    -------
    Optimal *compute* seconds between checkpoint starts.  Never smaller
    than ``ckpt_cost_s`` (a shorter interval would spend more time
    checkpointing than computing, which the closed form excludes).
    """
    if ckpt_cost_s <= 0:
        raise ValueError(f"checkpoint cost must be positive, got {ckpt_cost_s}")
    if mtbf_s <= 0:
        # No expected up time: checkpoint as often as physically possible.
        return ckpt_cost_s
    delta, m = float(ckpt_cost_s), float(mtbf_s)
    if delta >= 2.0 * m:
        tau = m
    else:
        ratio = delta / (2.0 * m)
        tau = math.sqrt(2.0 * delta * m) * (
            1.0 + math.sqrt(ratio) / 3.0 + delta / (18.0 * m)
        ) - delta
    return max(tau, delta)


def daly_interval_batch(
    mtbf_s: np.ndarray, ckpt_cost_s: float
) -> np.ndarray:
    """:func:`daly_interval` over an array of MTBFs, one vector pass.

    Element-for-element identical to the scalar form (same operation
    order, so the same IEEE-754 roundings) — Adaptive's candidate grid
    relies on that to make vectorized and scalar cost predictions
    bit-equal.
    """
    if ckpt_cost_s <= 0:
        raise ValueError(f"checkpoint cost must be positive, got {ckpt_cost_s}")
    delta = float(ckpt_cost_s)
    m = np.asarray(mtbf_s, dtype=np.float64)
    # lanes with m <= 0 (or delta >= 2m) may divide by zero or overflow
    # here; the masks below discard them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = delta / (2.0 * m)
        tau = np.sqrt(2.0 * delta * m) * (
            1.0 + np.sqrt(ratio) / 3.0 + delta / (18.0 * m)
        ) - delta
    tau = np.where(delta >= 2.0 * m, m, tau)
    tau = np.maximum(tau, delta)
    return np.where(m <= 0.0, delta, tau)


def expected_useful_fraction_batch(
    mtbf_s: np.ndarray,
    ckpt_cost_s: float,
    interval_s: np.ndarray | float,
) -> np.ndarray:
    """:func:`expected_useful_fraction` over arrays, one vector pass.

    ``interval_s`` may be a scalar (Periodic's fixed interval) or an
    array aligned with ``mtbf_s`` (Markov-Daly's per-candidate
    intervals).  Bit-equal to the scalar form per element.
    """
    if ckpt_cost_s < 0:
        raise ValueError(f"checkpoint cost must be >= 0, got {ckpt_cost_s}")
    m = np.asarray(mtbf_s, dtype=np.float64)
    interval = np.asarray(interval_s, dtype=np.float64)
    if np.any(interval <= 0):
        raise ValueError("interval must be positive")
    overhead = interval / (interval + ckpt_cost_s)
    with np.errstate(divide="ignore", invalid="ignore"):
        rework = 1.0 - (interval / 2.0 + ckpt_cost_s) / m
    useful = np.minimum(np.maximum(overhead * rework, 0.0), 1.0)
    return np.where(m <= 0.0, 0.0, useful)


def daly_interval_first_order(mtbf_s: float, ckpt_cost_s: float) -> float:
    """Young/Daly first-order optimum: ``sqrt(2*delta*M) - delta``."""
    if ckpt_cost_s <= 0:
        raise ValueError(f"checkpoint cost must be positive, got {ckpt_cost_s}")
    if mtbf_s <= 0:
        return ckpt_cost_s
    tau = math.sqrt(2.0 * ckpt_cost_s * mtbf_s) - ckpt_cost_s
    return max(tau, ckpt_cost_s)


def expected_useful_fraction(
    mtbf_s: float, ckpt_cost_s: float, interval_s: float
) -> float:
    """Expected fraction of wall-clock time doing committed useful work.

    A standard first-order waste model for an exponential failure
    process with rate ``1/M`` and blocking checkpoints every
    ``interval`` compute seconds: the overhead fraction is
    ``delta/(delta+tau)`` and the expected rework per failure is half
    an interval plus the restart, giving

        useful ~= (tau / (tau + delta)) * (1 - (tau/2 + delta) / M)

    clipped to [0, 1].  Adaptive uses this to turn a candidate
    (policy, bid) pair's checkpoint interval and expected up time into
    a progress rate (Section 7.1's P/T estimate).
    """
    if interval_s <= 0:
        raise ValueError(f"interval must be positive, got {interval_s}")
    if ckpt_cost_s < 0:
        raise ValueError(f"checkpoint cost must be >= 0, got {ckpt_cost_s}")
    overhead = interval_s / (interval_s + ckpt_cost_s)
    if mtbf_s <= 0:
        return 0.0
    rework = 1.0 - (interval_s / 2.0 + ckpt_cost_s) / mtbf_s
    return float(min(max(overhead * rework, 0.0), 1.0))
