import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
def test_sensor_rejects_non_finite_cost(cost):
    with pytest.raises(ValueError, match="non-finite cost"):
        Sensor("a", frozenset({"x"}), cost=cost)


def test_sensor_accepts_zero_and_huge_costs():
    assert Sensor("a", frozenset({"x"}), cost=0.0).cost == 0.0
    assert Sensor("a", frozenset({"x"}), cost=1e308).cost == 1e308


def test_prune_collapses_repeated_ids():
    problem = problem_of([("A", {"x"}, 1.0), ("B", {"y"}, 2.0)], {"x", "y"})
    result = subtractive_prune(["A", "A", "B"], problem)
    assert result.chosen == ("A", "B")
    assert result.total_cost == 3.0
    again = subtractive_prune(["B", "A", "B", "A"], problem)
    assert again.chosen == ("B", "A")


def test_prune_repeated_redundant_id_is_dropped():
    result = subtractive_prune(["A", "C", "A", "B", "C"], problem_of(ABC, {"NO", "NO2"}))
    assert result.chosen == ("C",)
    assert result.total_cost == 1.0


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


@pytest.mark.parametrize("detects", ["NO2", 5, {"NO2": 1}])
def test_catalog_rejects_detects_that_is_not_a_list(detects):
    with pytest.raises(ValueError, match="detects"):
        SensorCatalog.from_dict({"sensors": [{"id": "a", "detects": detects}]})


@pytest.mark.parametrize("field", ["targets", "current"])
def test_scenario_rejects_a_string_list_field(tmp_path, field):
    payload = {"sensors": [{"id": "a", "detects": ["NO2"]}], "targets": ["NO2"], "current": ["a"]}
    payload[field] = "NO2"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=field):
        load_scenario(path)


# ------------------------------------------------- enumerating oracles
#
# The solvers as they stood before the bitmask search: exact_cover tries every
# subset of each size in catalog order, and subtractive_prune re-unions the
# detect sets of every trial loadout.  The oracle prune takes ids without
# repeats; the tests collapse repeats before calling it.


def oracle_result(problem, chosen):
    by_id = {s.id: s for s in problem.catalog.sensors}
    covered = set()
    total = 0.0
    for sensor_id in chosen:
        sensor = by_id[sensor_id]
        covered |= sensor.detects & problem.targets
        total += sensor.cost
    return sensorselect.SelectionResult(
        chosen=tuple(chosen),
        covered=frozenset(covered),
        uncovered=problem.targets - covered,
        total_cost=total,
    )


def oracle_exact_cover(problem):
    sensors = problem.catalog.sensors
    coverable = frozenset(t for t in problem.targets if any(t in s.detects for s in sensors))
    if not coverable:
        return oracle_result(problem, [])
    best = None
    for size in range(0, len(sensors) + 1):
        for combo in itertools.combinations(sensors, size):
            covered = set()
            for s in combo:
                covered |= s.detects
            if coverable <= covered:
                key = (size, sum(s.cost for s in combo), tuple(sorted(s.id for s in combo)))
                if best is None or key < best:
                    best = key
        if best is not None:
            break
    return oracle_result(problem, list(best[2]))


def oracle_subtractive_prune(current, problem):
    baseline = oracle_result(problem, current).covered
    cost = {s.id: s.cost for s in problem.catalog.sensors}
    kept = list(current)
    while True:
        removable = None
        for sensor_id in sorted(kept, key=lambda sid: (-cost[sid], sid)):
            trial = [sid for sid in kept if sid != sensor_id]
            if oracle_result(problem, trial).covered == baseline:
                removable = sensor_id
                break
        if removable is None:
            break
        kept.remove(removable)
    return oracle_result(problem, kept)


def same_result(got, want):
    """Equal fields, with the float cost compared bit for bit."""
    return got == want and got.total_cost.hex() == want.total_cost.hex()


def assert_matches_oracles(problem, current):
    assert same_result(exact_cover(problem), oracle_exact_cover(problem))
    assert same_result(subtractive_prune(current, problem),
                       oracle_subtractive_prune(list(dict.fromkeys(current)), problem))


# Sums whose value depends on the order of addition: 0.1 + 0.2 + 0.3 and
# 0.3 + 0.2 + 0.1 differ in the last bit.
TIED_COSTS = (0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.0, 2.0)


def planted_problem(rng, n_sensors, optimum, n_shared=8):
    """`optimum` sensors each own a private target, so together they are the
    only smallest cover; decoys detect only shared targets.  Two targets are
    detected by no sensor."""
    private = [f"p{k}" for k in range(optimum)]
    shared = [f"s{k}" for k in range(n_shared)]
    sensors = []
    for k, name in enumerate(private):
        detects = {name} | {s for j, s in enumerate(shared) if j % optimum == k}
        sensors.append((f"P{k:02d}", detects, float(rng.choice(TIED_COSTS))))
    for k in range(n_sensors - optimum):
        size = int(rng.integers(1, 5))
        detects = {str(s) for s in rng.choice(shared, size=size, replace=False)}
        sensors.append((f"D{k:02d}", detects, float(rng.choice(TIED_COSTS))))
    order = rng.permutation(len(sensors))
    sensors = [sensors[i] for i in order]
    return problem_of(sensors, set(private) | set(shared) | {"none0", "none1"}), [s[0] for s in sensors]


def mixed_problem(rng, n_sensors):
    """Random detect sets with tied and zero costs, repeated detect sets,
    sensors that detect only non-targets and targets that no sensor detects."""
    targets = [f"t{k}" for k in range(int(rng.integers(1, 13)))]
    outsiders = ["x0", "x1", "x2"]
    density = 0.15 + 0.5 * rng.random()
    sensors = []
    for k in range(n_sensors):
        roll = rng.random()
        if roll < 0.15 and sensors:
            detects = set(sensors[int(rng.integers(len(sensors)))][1])
        elif roll < 0.25:
            detects = {str(rng.choice(outsiders))}
        else:
            detects = {t for t in targets + outsiders if rng.random() < density}
            detects = detects or {str(rng.choice(targets))}
        cost = float(rng.choice(TIED_COSTS)) if rng.random() < 0.7 else float(rng.random())
        sensors.append((f"s{int(rng.integers(100)):02d}_{k}", detects, cost))
    if rng.random() < 0.5:
        targets.append("unseen")
    current = [sensors[int(i)][0] for i in rng.integers(len(sensors), size=int(rng.integers(1, n_sensors + 3)))]
    return problem_of(sensors, targets), current


@pytest.mark.parametrize("n_sensors, optimum", [(12, 3), (16, 4), (18, 5), (20, 5), (20, 6)])
def test_solvers_match_oracles_on_planted_optima(n_sensors, optimum):
    rng = np.random.default_rng(1000 + 100 * n_sensors + optimum)
    problem, current = planted_problem(rng, n_sensors, optimum)
    result = exact_cover(problem)
    assert result.chosen == tuple(f"P{k:02d}" for k in range(optimum))
    assert result.uncovered == frozenset({"none0", "none1"})
    assert_matches_oracles(problem, current)


@pytest.mark.parametrize("seed", range(8))
def test_solvers_match_oracles_on_mixed_problems(seed):
    rng = np.random.default_rng(seed)
    for n_sensors in (1, 2, 5, 9, 14, 20):
        problem, current = mixed_problem(rng, n_sensors)
        assert_matches_oracles(problem, current)


def test_exact_breaks_float_ties_in_catalog_order():
    # Two covers of equal cost on paper: {d, e, f} sums to 0.6 in catalog order
    # (f, e, d) and {a, b, c} to 0.6000000000000001, so {d, e, f} wins; summed
    # in sorted-id order both read 0.6000000000000001 and {a, b, c} would.
    sensors = [
        ("f", {"t1", "t2"}, 0.3), ("e", {"t3", "t4"}, 0.2), ("d", {"t5", "t6"}, 0.1),
        ("a", {"t1", "t3"}, 0.1), ("b", {"t2", "t5"}, 0.2), ("c", {"t4", "t6"}, 0.3),
    ]
    problem = problem_of(sensors, {f"t{k}" for k in range(1, 7)})
    result = exact_cover(problem)
    assert result.chosen == ("d", "e", "f")
    assert result.total_cost == 0.1 + 0.2 + 0.3  # reported in chosen (sorted-id) order
    assert same_result(result, oracle_exact_cover(problem))


def test_exact_only_outsider_detectors():
    problem = problem_of([("A", {"x"}, 1.0), ("B", {"y"}, 0.0)], {"t1", "t2"})
    result = exact_cover(problem)
    assert result.chosen == ()
    assert result.uncovered == frozenset({"t1", "t2"})
    assert same_result(result, oracle_exact_cover(problem))


def test_exact_repeated_detect_sets_pick_cheapest_then_smallest_ids():
    sensors = [("z", {"a", "b"}, 0.0), ("y", {"a", "b"}, 0.0), ("x", {"a", "b"}, 1.0), ("w", {"c"}, 0.5)]
    problem = problem_of(sensors, {"a", "b", "c"})
    result = exact_cover(problem)
    assert result.chosen == ("w", "y")
    assert same_result(result, oracle_exact_cover(problem))


@st.composite
def coverage_problems(draw):
    n_targets = draw(st.integers(1, 8))
    names = [f"t{k}" for k in range(n_targets)] + ["x0", "x1"]
    n_sensors = draw(st.integers(1, 12))
    sensors = []
    for k in range(n_sensors):
        detects = draw(st.sets(st.sampled_from(names), min_size=1, max_size=len(names)))
        cost = draw(st.one_of(st.sampled_from(TIED_COSTS), st.floats(0.0, 10.0)))
        sensors.append((f"s{k:02d}", detects, cost))
    targets = draw(st.sets(st.sampled_from(names[:n_targets] + ["unseen"]), min_size=1))
    ids = [s[0] for s in sensors]
    current = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=n_sensors + 3))
    return problem_of(draw(st.permutations(sensors)), targets), current


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(coverage_problems())
def test_solvers_match_oracles_property(case):
    problem, current = case
    assert_matches_oracles(problem, current)
    coverable = oracle_exact_cover(problem).covered
    assert greedy_cover(problem).covered == coverable
