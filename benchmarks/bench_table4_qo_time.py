"""Table 4: query-optimization times, Baseline vs Quickr.

The paper reports that reasoning about samplers natively adds under 0.1 s
to optimization. We measure both planners over the full suite.
"""

from repro.experiments.figures import table4_qo_times
from repro.experiments.report import format_table


def test_table4_qo_times(benchmark, outcomes):
    data = benchmark.pedantic(lambda: table4_qo_times(outcomes), rounds=1, iterations=1)

    print("\n=== Table 4: QO times (seconds) ===")
    rows = []
    for name in ("baseline_qo_seconds", "quickr_qo_seconds"):
        row = {"planner": name}
        for p, v in data[name].items():
            row[f"{p}th"] = f"{v:.4f}"
        rows.append(row)
    print(format_table(rows))
    print(f"median Quickr overhead: {data['median_overhead_seconds']:.4f}s (paper: < 0.1s)")

    # The paper's Table 4 statement, held on every PR (CI bench-smoke runs
    # this file at scale 0.1): sampler exploration adds under 0.1 s to the
    # median query's optimization time.
    assert data["median_overhead_seconds"] < 0.1
    assert data["quickr_qo_seconds"][50] < 0.2
