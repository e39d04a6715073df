import random

import numpy as np
import pytest

import benchstats
import run


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    assert benchstats.tail_percentile(n) == expected
    if expected is not None:
        assert benchstats.ops_beyond(n, expected) >= 10
        higher = [p for p in benchstats.TAIL_LADDER if p > expected]
        assert all(benchstats.ops_beyond(n, p) < 10 for p in higher)


def test_ops_beyond_counts_operations_above_the_percentile():
    assert benchstats.ops_beyond(40, 75.0) == 10
    assert benchstats.ops_beyond(1000, 99.0) == 10
    assert benchstats.ops_beyond(1001, 99.0) == 10
    assert benchstats.ops_beyond(10, 50.0) == 5


def test_workload_tail_percentiles_are_on_the_ladder():
    assert set(run.TAIL_PERCENTILE) == set(run.WORKLOADS)
    assert all(p in benchstats.TAIL_LADDER for p in run.TAIL_PERCENTILE.values())


def test_percentile_matches_numpy_linear_interpolation():
    rng = random.Random(3)
    for n in (1, 2, 7, 100):
        values = [rng.expovariate(1.0) for _ in range(n)]
        for p in (0.0, 50.0, 75.0, 99.0, 100.0):
            assert benchstats.percentile(values, p) == pytest.approx(float(np.percentile(values, p)))


def test_quartile_spread_is_iqr_over_median():
    assert benchstats.quartile_spread([1.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert benchstats.quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_benchmark_json_names_every_end_to_end_metric():
    import json

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    fake_run = {"op_seconds": [0.001 * k for k in range(1, 101)], "cover_seconds": [0.002, 0.003],
                "peak_rss_mb": 30.0, "units": 100, "busy_seconds": 5.0}
    values = run.end_to_end("curate", [0.2, 0.3, 0.25], fake_run)
    assert set(values) == {m["name"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
