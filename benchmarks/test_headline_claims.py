"""HL — the abstract's quantitative claims, measured end-to-end.

* "up to 7x cheaper than using the on-demand market"
* "up to 44% cheaper than the best non-redundant, spot-market algorithm"
* Adaptive "avoids situations in which the cost is much larger than
  simply using the on-demand market" (Section 7: never beyond ~20%
  above on-demand)
"""

from __future__ import annotations

from benchmarks.conftest import num_experiments
from repro.experiments import figures, reporting
from repro.experiments.runner import ExperimentRunner


def test_headline_claims(benchmark):
    scale = max(num_experiments() // 2, 10)
    runners = {w: ExperimentRunner(w, num_experiments=scale)
               for w in ("low", "high")}
    claims = benchmark.pedantic(
        figures.headline_claims,
        args=(runners,),
        rounds=1,
        iterations=1,
    )
    print()
    print(reporting.render_headline("Headline claims", claims))

    # calm markets: several-fold cheaper than on-demand (paper: up to 7x)
    assert claims["max_on_demand_over_adaptive"] >= 5.0
    # beats the best-case single-zone policy substantially somewhere
    # (paper: up to 44.2%)
    assert claims["max_improvement_over_best_single"] >= 0.20
    # bounded worst case
    assert claims["worst_case_over_on_demand"] <= 1.25
