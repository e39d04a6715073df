"""Sensor down-selection for target compound sets.

Targets are compound tokens (canonical SMILES where available, opaque names
otherwise).  The additive path picks a covering sensor set greedily by
coverage per unit cost, with an exhaustive optimum available as an oracle for
small catalogs; the subtractive path prunes an existing loadout without
shrinking its coverage.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

EXACT_SENSOR_LIMIT = 20


class TooManySensors(ValueError):
    """Exhaustive search is guarded to small catalogs."""


class UnknownSensorId(KeyError):
    """A sensor id is not present in the catalog."""


@dataclass(frozen=True)
class Sensor:
    id: str
    detects: frozenset[str]
    cost: float = 1.0

    def __post_init__(self) -> None:
        if not self.detects:
            raise ValueError(f"sensor {self.id!r} detects nothing")
        if self.cost < 0:
            raise ValueError(f"sensor {self.id!r} has negative cost")


@dataclass(frozen=True)
class SensorCatalog:
    sensors: tuple[Sensor, ...]

    def __post_init__(self) -> None:
        ids = [s.id for s in self.sensors]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sensor ids in catalog")

    def by_id(self, sensor_id: str) -> Sensor:
        for s in self.sensors:
            if s.id == sensor_id:
                return s
        raise UnknownSensorId(sensor_id)

    @classmethod
    def from_dict(cls, payload: dict) -> "SensorCatalog":
        sensors = tuple(
            Sensor(str(e["id"]), frozenset(str(d) for d in e["detects"]), float(e.get("cost", 1.0)))
            for e in payload["sensors"]
        )
        return cls(sensors)

    @classmethod
    def from_json(cls, path: str | Path) -> "SensorCatalog":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class CoverageProblem:
    targets: frozenset[str]
    catalog: SensorCatalog

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("coverage problem has no targets")


@dataclass(frozen=True)
class SelectionResult:
    chosen: tuple[str, ...]
    covered: frozenset[str]
    uncovered: frozenset[str]
    total_cost: float

    def to_dict(self) -> dict:
        return {
            "chosen": list(self.chosen),
            "covered": sorted(self.covered),
            "uncovered": sorted(self.uncovered),
            "total_cost": self.total_cost,
        }


def _result(problem: CoverageProblem, chosen: Sequence[str]) -> SelectionResult:
    covered: set[str] = set()
    total = 0.0
    for sensor_id in chosen:
        sensor = problem.catalog.by_id(sensor_id)
        covered |= sensor.detects & problem.targets
        total += sensor.cost
    return SelectionResult(
        chosen=tuple(chosen),
        covered=frozenset(covered),
        uncovered=problem.targets - covered,
        total_cost=total,
    )


def greedy_cover(problem: CoverageProblem) -> SelectionResult:
    """Classic cost-benefit greedy: maximize newly covered targets per unit cost.

    Ties break toward lower cost, then lexicographic id.  Stops when no sensor
    adds coverage; unreachable targets are reported, never raised.
    """
    remaining = set(problem.targets)
    chosen: list[str] = []
    taken: set[str] = set()
    while remaining:
        best_key = None
        best_id = None
        for sensor in problem.catalog.sensors:
            if sensor.id in taken:
                continue
            gain = len(sensor.detects & remaining)
            if gain == 0:
                continue
            ratio = gain / sensor.cost if sensor.cost > 0 else math.inf
            key = (-ratio, sensor.cost, sensor.id)
            if best_key is None or key < best_key:
                best_key = key
                best_id = sensor.id
        if best_id is None:
            break
        taken.add(best_id)
        chosen.append(best_id)
        remaining -= problem.catalog.by_id(best_id).detects
    return _result(problem, chosen)


def exact_cover(problem: CoverageProblem) -> SelectionResult:
    """Minimum-cardinality (then minimum-cost) cover by exhaustive enumeration.

    Covers every coverable target; sensors beyond the guard limit raise.
    """
    sensors = problem.catalog.sensors
    if len(sensors) > EXACT_SENSOR_LIMIT:
        raise TooManySensors(f"{len(sensors)} sensors exceeds exhaustive limit {EXACT_SENSOR_LIMIT}")
    coverable = frozenset(
        t for t in problem.targets if any(t in s.detects for s in sensors)
    )
    if not coverable:
        return _result(problem, [])
    best: tuple[int, float, tuple[str, ...]] | None = None
    for size in range(0, len(sensors) + 1):
        for combo in itertools.combinations(sensors, size):
            covered: set[str] = set()
            for s in combo:
                covered |= s.detects
            if coverable <= covered:
                cost = sum(s.cost for s in combo)
                ids = tuple(sorted(s.id for s in combo))
                key = (size, cost, ids)
                if best is None or key < best:
                    best = key
        if best is not None:
            break
    assert best is not None
    return _result(problem, list(best[2]))


def subtractive_prune(current: Sequence[str], problem: CoverageProblem) -> SelectionResult:
    """Drop sensors (highest cost first) while the covered target set is unchanged."""
    for sensor_id in current:
        problem.catalog.by_id(sensor_id)  # raises UnknownSensorId
    baseline = _result(problem, current).covered
    kept = list(current)
    while True:
        removable = None
        for sensor_id in sorted(kept, key=lambda sid: (-problem.catalog.by_id(sid).cost, sid)):
            trial = [sid for sid in kept if sid != sensor_id]
            if _result(problem, trial).covered == baseline:
                removable = sensor_id
                break
        if removable is None:
            break
        kept.remove(removable)
    return _result(problem, kept)


def bundled_scenario_path() -> Path:
    from importlib import resources

    return Path(str(resources.files("scentgen").joinpath("data", "sensor_scenario_16.json")))


def load_scenario(path: str | Path) -> tuple[CoverageProblem, list[str]]:
    """Scenario file: {"sensors": [...], "targets": [...], "current": [...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    catalog = SensorCatalog.from_dict(payload)
    targets = frozenset(str(t) for t in payload["targets"])
    current = [str(s) for s in payload.get("current", [])]
    return CoverageProblem(targets=targets, catalog=catalog), current
