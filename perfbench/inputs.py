"""Seeded inputs for the benchmark workloads.

Everything here is made from the workload seed (or is a fixed list), so the
same seed always gives the same inputs.  Nothing here is timed.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass

# Hazard-class and highly symmetric molecules with their reference molecular
# formulas (heavy atoms plus implicit hydrogens, Hill order).  Nitro groups are
# written in the neutral pentavalent form N(=O)=O because the SMILES reader
# has no charged bracket atoms.
HAND_WRITTEN: tuple[tuple[str, str, str], ...] = (
    ("PETN", "C(CON(=O)=O)(CON(=O)=O)(CON(=O)=O)CON(=O)=O", "C5H8N4O12"),
    ("RDX", "C1N(N(=O)=O)CN(N(=O)=O)CN1N(=O)=O", "C3H6N6O6"),
    ("TATP", "CC1(C)OOC(C)(C)OOC(C)(C)OO1", "C9H18O6"),
    ("TNT", "Cc1c(cc(cc1N(=O)=O)N(=O)=O)N(=O)=O", "C7H5N3O6"),
    ("DMNB", "CC(C)(C(C)(C)N(=O)=O)N(=O)=O", "C6H12N2O4"),
    ("nitroglycerin", "C(C(CON(=O)=O)ON(=O)=O)ON(=O)=O", "C3H5N3O9"),
    ("cocaine", "COC(=O)C1C(OC(=O)c2ccccc2)CC2CCC1N2C", "C17H21NO4"),
    ("fentanyl", "CCC(=O)N(c1ccccc1)C1CCN(CCc2ccccc2)CC1", "C22H28N2O"),
    ("methamphetamine", "CNC(C)Cc1ccccc1", "C10H15N"),
    ("cubane", "C12C3C4C1C5C2C3C45", "C8H8"),
    ("adamantane", "C1C2CC3CC1CC(C2)C3", "C10H16"),
    ("tri-tert-butylmethane", "CC(C)(C)C(C(C)(C)C)C(C)(C)C", "C13H28"),
)

# Canonicalizing this molecule exceeds the search budget of the tie-break
# search in every run; it is the one operation the benchmark counts as failed.
KNOWN_FAILING = ("tetra-tert-butylmethane", "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C", "C17H36")

# Inputs that chemistry says are invalid, with the first stage that must
# reject them: "parse" for the reader, otherwise a cascade stage name.
KNOWN_INVALID: tuple[tuple[str, str, str], ...] = (
    ("pentavalent carbon", "C(C)(C)(C)(C)C", "valence"),
    ("trivalent neutral oxygen", "O(C)(C)C", "valence"),
    ("aromatic five-carbon ring (5 pi electrons)", "c1cccc1", "aromaticity_charge"),
    ("aromatic eight-carbon ring (8 pi electrons)", "c1ccccccc1", "aromaticity_charge"),
    ("aromatic bond outside a ring", "cc", "aromaticity_charge"),
    ("unclosed ring", "C1CC", "parse"),
    ("unmatched branch close", "CC)C", "parse"),
)

# Seeded atom-order permutations of each hand-written molecule per curate
# round.  Three copies of each put curate's p99 inside the PETN class.
HAND_PERMUTATIONS = 2

# Planted sensor-selection problems solved per curate round:
# (catalog size, planted optimum).  The three middle ones set cover_ms_p50,
# so its median rests on three problems per round.
COVER_SIZES: tuple[tuple[int, int], ...] = ((16, 4), (18, 6), (18, 6), (18, 6), (20, 8))

GENERATE_MOLECULES_PER_QUERY = 3
GENERATE_STEPS = 800


def rng_for(seed: int, *stream: object) -> random.Random:
    """Independent deterministic stream for (seed, stream labels)."""
    return random.Random("/".join(str(s) for s in (seed,) + stream))


_HILL_TOKEN = re.compile(r"([A-Z][a-z]?)(\d*)")


def parse_formula(formula: str) -> Counter:
    out: Counter = Counter()
    for symbol, count in _HILL_TOKEN.findall(formula):
        out[symbol] += int(count) if count else 1
    return out


def hill_formula(heavy_symbols: list[str], implicit_hydrogens: int) -> str:
    """Hill-order formula: C, then H, then the rest alphabetically."""
    counts = Counter(heavy_symbols)
    counts["H"] += implicit_hydrogens
    counts = Counter({k: v for k, v in counts.items() if v})
    if "C" in counts:
        order = ["C"] + (["H"] if "H" in counts else []) + sorted(k for k in counts if k not in ("C", "H"))
    else:
        order = sorted(counts)
    return "".join(f"{s}{counts[s] if counts[s] > 1 else ''}" for s in order)


def formula_matches(heavy_symbols: list[str], implicit_hydrogens: int, reference: str) -> bool:
    return parse_formula(hill_formula(heavy_symbols, implicit_hydrogens)) == parse_formula(reference)


@dataclass(frozen=True)
class Query:
    """One descriptor query as `scentgen generate` takes it (with --n-atoms)."""

    terms: tuple[str, ...]
    constrained: bool
    n_atoms: int
    seed: int
    count: int = GENERATE_MOLECULES_PER_QUERY


_GOLDEN = (5 ** 0.5 - 1) / 2


def make_query(seed: int, index: int, vocabulary: tuple[str, ...], pool: tuple[int, ...]) -> Query:
    """Query `index` of a run: 1-3 seeded terms; odd queries constrained.

    The atom count walks the sorted training-split pool at evenly spread
    quantiles (a golden-ratio sequence from a seeded start), so every run
    samples the pool's size mix: denoiser cost grows with the atom count,
    and independent draws would move the per-molecule cost from seed to seed.
    """
    rng = rng_for(seed, "query", index)
    terms = tuple(sorted(rng.sample(vocabulary, rng.randint(1, 3))))
    start = rng_for(seed, "atom-counts").random()
    ordered = sorted(pool)
    n_atoms = ordered[int(((start + index * _GOLDEN) % 1.0) * len(ordered))]
    return Query(terms=terms, constrained=index % 2 == 1, n_atoms=n_atoms, seed=rng.randrange(2**31))


def permutation(n: int, rng: random.Random) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


@dataclass(frozen=True)
class PlantedCover:
    """A catalog whose minimum cover is exactly the planted sensors.

    Each planted sensor owns a private target no other sensor detects, so any
    cover holds every planted sensor; together they cover all coverable
    targets.  A few targets are detected by no sensor at all.
    """

    sensors: tuple[tuple[str, frozenset[str], float], ...]
    targets: frozenset[str]
    planted: tuple[str, ...]
    uncoverable: frozenset[str]


def planted_cover(n_sensors: int, optimum: int, names: list[str], rng: random.Random) -> PlantedCover:
    """Build a catalog of `n_sensors` over target `names` with optimum `optimum`."""
    if not 1 <= optimum <= n_sensors:
        raise ValueError("optimum must lie in [1, n_sensors]")
    if len(names) < optimum + 3:
        raise ValueError("need two uncoverable, one private per planted sensor and one shared target")
    names = list(names)
    rng.shuffle(names)
    uncoverable = names[:2]
    coverable = names[2:]
    private = coverable[:optimum]
    shared = coverable[optimum:]
    groups: list[list[str]] = [[p] for p in private]
    for k, name in enumerate(shared):
        groups[k % optimum].append(name)
    sensors = []
    planted_ids = []
    for k, group in enumerate(groups):
        sid = f"P{k:02d}"
        planted_ids.append(sid)
        sensors.append((sid, frozenset(group), 1.0 + rng.random()))
    for k in range(n_sensors - optimum):
        detects = frozenset(rng.sample(shared, rng.randint(1, min(4, len(shared)))))
        sensors.append((f"D{k:02d}", detects, 0.5 + rng.random()))
    rng.shuffle(sensors)
    return PlantedCover(
        sensors=tuple(sensors),
        targets=frozenset(names),
        planted=tuple(sorted(planted_ids)),
        uncoverable=frozenset(uncoverable),
    )

