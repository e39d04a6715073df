"""Sensor down-selection for target compound sets.

Targets are compound tokens (canonical SMILES where available, opaque names
otherwise).  Each solver call numbers the targets as bits and turns every
sensor into the mask of the targets it detects.  The additive path picks a
covering sensor set greedily by coverage per unit cost, or exactly by a
branch-and-bound search over cover sizes up to `EXACT_SENSOR_LIMIT` sensors;
the subtractive path prunes an existing loadout without shrinking its
coverage.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

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
        if not math.isfinite(self.cost):
            raise ValueError(f"sensor {self.id!r} has non-finite cost {self.cost}")
        if self.cost < 0:
            raise ValueError(f"sensor {self.id!r} has negative cost")


def _list(value, field: str) -> list | tuple:
    """`value` itself if it is a JSON list; `ValueError` otherwise.

    A bare string would otherwise be read as one item per character.
    """
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field!r} must be a list, got {type(value).__name__}")
    return value


def _names(value, field: str) -> list[str]:
    """A JSON list of compound or sensor names as strings; `ValueError` for anything but a list."""
    return [str(v) for v in _list(value, field)]


def _object(value, what: str) -> dict:
    """`value` itself if it is a JSON object; `ValueError` otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class SensorCatalog:
    sensors: tuple[Sensor, ...]

    def __post_init__(self) -> None:
        ids = [s.id for s in self.sensors]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sensor ids in catalog")

    @classmethod
    def from_dict(cls, payload: dict) -> "SensorCatalog":
        entries = [_object(e, "sensor entry") for e in _list(payload["sensors"], "sensors")]
        sensors = tuple(
            Sensor(str(e["id"]), frozenset(_names(e["detects"], "detects")), float(e.get("cost", 1.0)))
            for e in entries
        )
        return cls(sensors)


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


class _Masks:
    """One solver call's bit view of a problem.

    Bit k stands for ``targets[k]``, the targets taken in sorted order.
    ``masks[i]`` holds the target bits that the i-th catalog sensor detects,
    and ``position`` maps a sensor id to its i.
    """

    def __init__(self, problem: CoverageProblem) -> None:
        self.sensors = problem.catalog.sensors
        self.position = {s.id: i for i, s in enumerate(self.sensors)}
        self.targets = tuple(sorted(problem.targets))
        bit = {t: 1 << k for k, t in enumerate(self.targets)}
        # `detects` is a set, so its bits are distinct and their sum is their union.
        self.masks = tuple(sum(bit.get(name, 0) for name in s.detects) for s in self.sensors)

    def positions(self, sensor_ids: Iterable[str]) -> list[int]:
        try:
            return [self.position[sid] for sid in sensor_ids]
        except KeyError as exc:
            raise UnknownSensorId(exc.args[0]) from None

    def union(self, chosen: Iterable[int]) -> int:
        mask = 0
        for i in chosen:
            mask |= self.masks[i]
        return mask


def _result(problem: CoverageProblem, m: _Masks, chosen: Sequence[int]) -> SelectionResult:
    total = 0.0
    for i in chosen:
        total += m.sensors[i].cost
    covered_mask = m.union(chosen)
    covered = frozenset(t for k, t in enumerate(m.targets) if covered_mask >> k & 1)
    return SelectionResult(
        chosen=tuple(m.sensors[i].id for i in chosen),
        covered=covered,
        uncovered=problem.targets - covered,
        total_cost=total,
    )


def greedy_cover(problem: CoverageProblem) -> SelectionResult:
    """Classic cost-benefit greedy: maximize newly covered targets per unit cost.

    Ties break toward lower cost, then lexicographic id.  Stops when no sensor
    adds coverage; unreachable targets are reported, never raised.
    """
    m = _Masks(problem)
    remaining = (1 << len(m.targets)) - 1
    chosen: list[int] = []
    while remaining:
        best_key = None
        best = None
        for i, sensor in enumerate(m.sensors):
            gain = (m.masks[i] & remaining).bit_count()
            if gain == 0:
                continue
            ratio = gain / sensor.cost if sensor.cost > 0 else math.inf
            key = (-ratio, sensor.cost, sensor.id)
            if best_key is None or key < best_key:
                best_key = key
                best = i
        if best is None:
            break
        chosen.append(best)
        remaining &= ~m.masks[best]
    return _result(problem, m, chosen)


def _find_covers(
    uncovered: int,
    room: int,
    chosen: int,
    excluded: int,
    masks: tuple[int, ...],
    detecting: list[list[int]],
    covers: list[int],
) -> None:
    """Append every extension of `chosen` by at most `room` sensors, none of
    them in `excluded`, that covers `uncovered` (sets are bitmasks over
    catalog positions).

    Branches only on the sensors that detect the lowest uncovered bit.  A
    sensor tried at a node is excluded from its later siblings' subtrees, so
    each set is appended at most once.
    """
    low = (uncovered & -uncovered).bit_length() - 1
    for i in detecting[low]:
        pick = 1 << i
        if excluded & pick:
            continue
        left = uncovered & ~masks[i]
        if not left:
            covers.append(chosen | pick)
        elif room > 1:
            _find_covers(left, room - 1, chosen | pick, excluded, masks, detecting, covers)
        excluded |= pick


def exact_cover(problem: CoverageProblem) -> SelectionResult:
    """Minimum-cardinality (then minimum-cost) cover by branch-and-bound.

    Deepens the allowed cover size one sensor at a time until some cover
    fits; each node branches only on the sensors that detect the lowest
    uncovered coverable target, so every cover of the smallest size is found
    exactly once.  Among them the least cost (summed in catalog order) wins,
    then the smallest sorted ids, which come back sorted.  Covers every
    coverable target; catalogs above `EXACT_SENSOR_LIMIT` sensors raise
    `TooManySensors`.
    """
    sensors = problem.catalog.sensors
    if len(sensors) > EXACT_SENSOR_LIMIT:
        raise TooManySensors(f"{len(sensors)} sensors exceeds exhaustive limit {EXACT_SENSOR_LIMIT}")
    m = _Masks(problem)
    coverable = m.union(range(len(sensors)))
    if not coverable:
        return _result(problem, m, [])
    detecting = [[i for i, mask in enumerate(m.masks) if mask >> k & 1] for k in range(len(m.targets))]
    covers: list[int] = []
    size = 0
    while not covers:
        size += 1
        _find_covers(coverable, size, 0, 0, m.masks, detecting, covers)

    def key(cover: int) -> tuple[float, tuple[str, ...]]:
        members = [s for i, s in enumerate(sensors) if cover >> i & 1]
        return sum(s.cost for s in members), tuple(sorted(s.id for s in members))

    return _result(problem, m, m.positions(min(map(key, covers))[1]))


def subtractive_prune(current: Sequence[str], problem: CoverageProblem) -> SelectionResult:
    """Drop sensors (highest cost first, then id) while the covered target set is unchanged.

    A repeated id counts once, at its first occurrence; an id absent from the
    catalog raises `UnknownSensorId`.
    """
    m = _Masks(problem)
    kept = m.positions(dict.fromkeys(current))
    baseline = m.union(kept)
    # Removing sensors only shrinks coverage, so a sensor kept once stays
    # needed: one pass in removal order drops the same ones as restarting it.
    for i in sorted(kept, key=lambda i: (-m.sensors[i].cost, m.sensors[i].id)):
        if m.union(j for j in kept if j != i) == baseline:
            kept.remove(i)
    return _result(problem, m, kept)


def bundled_scenario_path() -> Path:
    from importlib import resources

    return Path(str(resources.files("scentgen").joinpath("data", "sensor_scenario_16.json")))


def load_scenario(path: str | Path) -> tuple[CoverageProblem, list[str]]:
    """Scenario file: {"sensors": [...], "targets": [...], "current": [...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = _object(json.load(fh), "scenario")
    catalog = SensorCatalog.from_dict(payload)
    targets = frozenset(_names(payload["targets"], "targets"))
    current = _names(payload.get("current", []), "current")
    return CoverageProblem(targets=targets, catalog=catalog), current
