#!/usr/bin/env python3
"""Why redundancy works: availability and cross-zone independence.

Reproduces the paper's Section 3 argument on the canonical archive:

1. Figure 2 — individual zones have substantial downtime during a
   volatile stretch, while "at least one zone up" is nearly 100%.
2. Section 3.1 — an AIC-selected vector autoregression shows own-zone
   price effects dominating cross-zone effects by 1–2 orders of
   magnitude: zones move (almost) independently, so combining them is
   genuine "computational arbitrage".
3. A bid sweep showing how combined availability grows with the
   redundancy degree N at each bid.

Usage::

    python examples/zone_arbitrage.py
"""

from __future__ import annotations

from repro.experiments import figures, reporting
from repro.market.constants import bid_grid
from repro.stats.availability import availability_report
from repro.traces.library import evaluation_window


def main() -> None:
    # 1. Figure 2
    data = figures.fig2_availability()
    print(reporting.render_availability(
        "Figure 2 — a 15-hour volatile stretch", data))
    print()

    # 2. Section 3.1 VAR
    report = figures.sec31_var_analysis()
    print(reporting.render_var_report(
        "Section 3.1 — cross-zone dependence (VAR, AIC lag selection)",
        report))
    print()

    # 3. availability vs redundancy degree across the bid grid
    trace, eval_start = evaluation_window("high")
    month = trace.slice(eval_start, trace.end_time)
    print("combined availability over January by redundancy degree:")
    print(f"{'bid':>6s} {'N=1 (best zone)':>16s} {'N=2':>8s} {'N=3':>8s}")
    for bid in bid_grid()[::3]:
        per_zone = availability_report(month, float(bid)).per_zone
        best1 = max(per_zone.values())
        two = availability_report(
            month.select_zones(month.zone_names[:2]), float(bid)
        ).combined
        three = availability_report(month, float(bid)).combined
        print(f"{bid:6.2f} {best1:16.3f} {two:8.3f} {three:8.3f}")
    print("\nthe N=1 -> N=2 jump dominates; N=3 adds little "
          "(the paper's 'diminishing returns with N <= 2 zones').")


if __name__ == "__main__":
    main()
