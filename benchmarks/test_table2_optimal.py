"""T2 — Table 2: optimal policies at t_c = 300 s.

Paper's table:

    low  / 15%:  Periodic      (bid $0.81)
    low  / 50%:  Periodic / Markov-Daly (bid $0.81)
    high / 15%:  Redundancy    (bid $0.81)
    high / 50%:  Markov-Daly   (bid $0.81)

Shape asserted: single-zone hour-scale policies win both low-volatility
rows near the lowest-spot price; redundancy wins the high-volatility /
low-slack row; a single-zone policy wins the high-volatility /
high-slack row.  (Exact winning bids shift with the synthetic archive;
EXPERIMENTS.md discusses the deviations.)
"""

from __future__ import annotations

from repro.experiments import figures, reporting


def test_table2(benchmark, low_runner, high_runner):
    rows = benchmark.pedantic(
        figures.table2, args=({"low": low_runner, "high": high_runner},),
        rounds=1, iterations=1,
    )
    print()
    print(reporting.render_optimal_table("Table 2 (t_c = 300 s)", rows))

    by_quadrant = {(r["window"], round(r["slack"], 2)): r for r in rows}

    low15 = by_quadrant[("low", 0.15)]
    assert low15["winner"].startswith(("periodic", "markov-daly"))
    assert low15["winner_median"] < 10.0

    low50 = by_quadrant[("low", 0.5)]
    assert low50["winner"].startswith(("periodic", "markov-daly"))
    assert low50["winner_median"] < 10.0

    high15 = by_quadrant[("high", 0.15)]
    assert high15["winner"].startswith("redundant")

    high50 = by_quadrant[("high", 0.5)]
    assert high50["winner"].startswith(("periodic", "markov-daly"))
