import json
import math

import numpy as np
import pytest

from scentgen import sensorselect
from scentgen.sensorselect import (
    CoverageProblem,
    Sensor,
    SensorCatalog,
    TooManySensors,
    UnknownSensorId,
    bundled_scenario_path,
    exact_cover,
    greedy_cover,
    load_scenario,
    subtractive_prune,
)


def problem_of(sensors, targets):
    return CoverageProblem(
        targets=frozenset(targets),
        catalog=SensorCatalog(tuple(Sensor(i, frozenset(d), c) for i, d, c in sensors)),
    )


ABC = [
    ("A", {"NO"}, 1.0),
    ("B", {"NO2"}, 1.0),
    ("C", {"NO", "NO2"}, 1.0),
]


def test_greedy_dominant_sensor():
    result = greedy_cover(problem_of(ABC, {"NO", "NO2"}))
    assert list(result.chosen) == ["C"]
    assert result.uncovered == frozenset()
    assert result.total_cost == pytest.approx(1.0)


def test_greedy_uncoverable_target():
    result = greedy_cover(problem_of(ABC, {"X"}))
    assert result.chosen == ()
    assert result.uncovered == frozenset({"X"})


def test_greedy_tie_break_cost_then_id():
    sensors = [("B", {"t1"}, 2.0), ("A", {"t1"}, 1.0), ("AA", {"t1"}, 1.0)]
    result = greedy_cover(problem_of(sensors, {"t1"}))
    assert list(result.chosen) == ["A"]


def test_greedy_cost_benefit_ratio():
    sensors = [("wide", {"a", "b", "c", "d"}, 8.0), ("n1", {"a"}, 1.0), ("n2", {"b"}, 1.0),
               ("n3", {"c"}, 1.0), ("n4", {"d"}, 1.0)]
    result = greedy_cover(problem_of(sensors, {"a", "b", "c", "d"}))
    # four narrow sensors at ratio 1.0 beat one wide sensor at ratio 0.5
    assert sorted(result.chosen) == ["n1", "n2", "n3", "n4"]


def test_exact_matches_toy():
    result = exact_cover(problem_of(ABC, {"NO", "NO2"}))
    assert list(result.chosen) == ["C"]


def test_exact_beats_adversarial_greedy():
    sensors = [
        ("S1", {1, 2}, 1.0),
        ("S2", {3, 4}, 1.0),
        ("S3", {1, 3}, 1.0),
        ("S4", {2}, 1.0),
        ("S5", {4}, 1.0),
    ]
    sensors = [(i, {str(t) for t in d}, c) for i, d, c in sensors]
    result = exact_cover(problem_of(sensors, {"1", "2", "3", "4"}))
    assert len(result.chosen) == 2


def test_exact_guard():
    sensors = [(f"S{k}", {"t"}, 1.0) for k in range(21)]
    with pytest.raises(TooManySensors):
        exact_cover(problem_of(sensors, {"t"}))


def test_exact_min_cost_among_min_size():
    sensors = [("pricey", {"a", "b"}, 5.0), ("cheap", {"a", "b"}, 1.0)]
    result = exact_cover(problem_of(sensors, {"a", "b"}))
    assert list(result.chosen) == ["cheap"]


def test_prune_to_dominant():
    result = subtractive_prune(["A", "B", "C"], problem_of(ABC, {"NO", "NO2"}))
    assert list(result.chosen) == ["C"]


def test_prune_already_minimal():
    result = subtractive_prune(["C"], problem_of(ABC, {"NO", "NO2"}))
    assert list(result.chosen) == ["C"]


def test_prune_preserves_partial_coverage():
    problem = problem_of(ABC, {"NO", "NO2", "X"})
    result = subtractive_prune(["A", "C"], problem)
    assert result.covered == frozenset({"NO", "NO2"})
    assert result.uncovered == frozenset({"X"})
    assert list(result.chosen) == ["C"]


def test_prune_unknown_id():
    with pytest.raises(UnknownSensorId):
        subtractive_prune(["ghost"], problem_of(ABC, {"NO"}))


def test_prune_removes_highest_cost_first():
    sensors = [("cheap", {"a"}, 1.0), ("mid", {"a"}, 2.0), ("dear", {"a"}, 3.0)]
    result = subtractive_prune(["cheap", "mid", "dear"], problem_of(sensors, {"a"}))
    assert list(result.chosen) == ["cheap"]


def test_total_cost_sums_exactly(rng):
    for _ in range(50):
        n = int(rng.integers(1, 8))
        sensors = [(f"S{k}", {str(int(rng.integers(5)))}, float(rng.random() * 3)) for k in range(n)]
        problem = problem_of(sensors, {str(t) for t in range(5)})
        result = greedy_cover(problem)
        expected = sum(c for i, _, c in sensors if i in result.chosen)
        assert abs(result.total_cost - expected) < 1e-12


def random_problem(rng, max_sensors=12, max_targets=12):
    n_targets = int(rng.integers(2, max_targets + 1))
    targets = {f"t{k}" for k in range(n_targets)}
    n_sensors = int(rng.integers(2, max_sensors + 1))
    density = 0.4 + 0.4 * rng.random()
    sensors = []
    for k in range(n_sensors):
        detects = {f"t{j}" for j in range(n_targets) if rng.random() < density}
        if not detects:
            detects = {f"t{int(rng.integers(n_targets))}"}
        sensors.append((f"s{k:02d}", detects, 1.0))
    return problem_of(sensors, targets)


def test_greedy_vs_exact_random_instances(rng):
    """Greedy matches the optimum on most unit-cost instances and always
    stays within the ln(n)+1 bound; coverable targets are always covered."""
    matches = 0
    total = 200
    for _ in range(total):
        problem = random_problem(rng)
        greedy = greedy_cover(problem)
        exact = exact_cover(problem)
        assert greedy.covered == exact.covered
        coverable = {
            t for t in problem.targets
            if any(t in s.detects for s in problem.catalog.sensors)
        }
        assert greedy.covered == frozenset(coverable)
        bound = (math.log(len(problem.targets)) + 1) * max(len(exact.chosen), 1)
        assert len(greedy.chosen) <= bound
        matches += len(greedy.chosen) == len(exact.chosen)
    assert matches / total >= 0.95


def test_catalog_validation():
    with pytest.raises(ValueError):
        SensorCatalog((Sensor("a", frozenset({"x"})), Sensor("a", frozenset({"y"}))))
    with pytest.raises(ValueError):
        Sensor("a", frozenset())
    with pytest.raises(ValueError):
        Sensor("a", frozenset({"x"}), cost=-1.0)


def test_bundled_scenario_add_and_subtract():
    problem, current = load_scenario(bundled_scenario_path())
    assert len(problem.catalog.sensors) == 16
    assert len(current) == 16

    greedy = greedy_cover(problem)
    assert len(greedy.chosen) == 4
    assert greedy.uncovered == frozenset()

    exact = exact_cover(problem)
    assert len(exact.chosen) == 4

    pruned = subtractive_prune(current, problem)
    assert len(pruned.chosen) == 4
    assert pruned.covered == problem.targets
