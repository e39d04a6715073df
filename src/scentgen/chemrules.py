"""Chemical validity cascade for molecular graphs.

The cascade runs five stages in a fixed order: atomic-number range filter,
edge deduplication, valence limits with implicit-hydrogen fill, the aromatic
ring check, and kekule-assignment verification.  Range and dedup stages correct
the graph; the remaining stages only record pass/fail verdicts.  Atoms carry no
formal charge, so no stage checks one.
The range stage keeps its atoms with `molgraph.subgraph`, and the kekule stage
takes its aromatic systems from `MoleculeGraph.connected_components`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .molgraph import (
    MAX_ATOMIC_NUMBER,
    BondType,
    MoleculeGraph,
    UnknownElement,
    subgraph,
)

# Allowed total bond orders (heavy bonds + implicit hydrogens) per element.
DEFAULT_VALENCES: dict[int, tuple[int, ...]] = {
    1: (1,),            # H
    5: (3,),            # B
    6: (4,),            # C
    7: (3, 5),          # N
    8: (2,),            # O
    9: (1,),            # F
    14: (4,),           # Si
    15: (3, 5),         # P
    16: (2, 4, 6),      # S
    17: (1,),           # Cl
    33: (3, 5),         # As
    34: (2, 4, 6),      # Se
    35: (1,),           # Br
    53: (1,),           # I
}

# Elements allowed to sit on an aromatic ring.
AROMATIC_CAPABLE = frozenset({6, 7, 8, 16})

# The fourth stage checks aromatic rings only.  It keeps the name
# "aromaticity_charge" because reports, JSONL readers and the benchmark's
# known-invalid inputs key on it.
CASCADE_STAGES = ("atomic_range", "edge_dedup", "valence", "aromaticity_charge", "kekulization")


@dataclass(frozen=True)
class StageResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    """Ordered per-stage verdicts; final verdict is the conjunction."""

    stages: list[StageResult] = field(default_factory=list)

    @property
    def final_verdict(self) -> bool:
        return all(s.passed for s in self.stages)

    def stage(self, name: str) -> StageResult:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "stages": [{"name": s.name, "passed": s.passed, "detail": s.detail} for s in self.stages],
            "final_verdict": self.final_verdict,
        }


def dedup_edges(edges: Iterable[tuple[int, int, BondType]]) -> list[tuple[int, int, BondType]]:
    """Keep the first occurrence per unordered pair; drop self-loops."""
    seen: set[tuple[int, int]] = set()
    out = []
    for i, j, t in edges:
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        out.append((i, j, t))
    return out


def heuristic_bond_type(z_i: int, z_j: int) -> BondType:
    """Map the atomic-number difference to a bond order, symmetric in its arguments."""
    order = 1 + abs(int(z_i) - int(z_j)) % 3
    return {1: BondType.SINGLE, 2: BondType.DOUBLE, 3: BondType.TRIPLE}[order]


_BOND_TYPE = operator.itemgetter(2)


def _lone_pair_donors(graph: MoleculeGraph) -> set[int]:
    """Atoms whose ring participation contributes a lone pair (two pi electrons).

    Oxygen and sulfur always donate the pair.  Nitrogen donates it only when a
    third substituent pins its in-plane bond (N-substituted pyrrole pattern);
    a bare two-bond ring nitrogen is pyridine-like and contributes one electron
    through its double bond instead.
    """
    if BondType.AROMATIC not in map(_BOND_TYPE, graph.bonds):  # no Python frame per bond
        return set()
    donors: set[int] = set()
    adj = graph.adjacency()
    for idx, atom in enumerate(graph.atoms):
        bonds = adj[idx]
        n_arom = sum(1 for _, t in bonds if t is BondType.AROMATIC)
        if n_arom < 2:
            continue
        z = atom.atomic_number
        if z in (8, 16):
            donors.add(idx)
        elif z == 7 and len(bonds) > n_arom:
            donors.add(idx)
    return donors


# Integer orders of the non-aromatic bond types, keyed by the member's value:
# a string hashes in C, where hashing the member runs `Enum.__hash__`.
_KEKULE_ORDERS = {t.value: int(t.order) for t in (BondType.SINGLE, BondType.DOUBLE, BondType.TRIPLE)}


def _order_sums(graph: MoleculeGraph) -> dict[int, int]:
    """Per-atom heavy bond-order sums, with aromatic bonds at their Kekule equivalent.

    Every aromatic bond counts 1 toward both ends.  A pi-bond participant (an
    atom with an aromatic bond that is not a lone-pair donor) holds exactly one
    double bond in a Kekule form, so it counts 1 more; a donor holds none.
    """
    donors = _lone_pair_donors(graph)
    sums = {i: 0 for i in range(graph.n_atoms)}
    pi_atoms: set[int] = set()
    for i, j, t in graph.bonds:
        if t is BondType.AROMATIC:
            for end in (i, j):
                sums[end] += 1
                if end not in donors:
                    pi_atoms.add(end)
        else:
            order = _KEKULE_ORDERS[t._value_]
            sums[i] += order
            sums[j] += order
    for end in pi_atoms:
        sums[end] += 1
    return sums


@dataclass(frozen=True)
class AtomValenceDetail:
    index: int
    atomic_number: int
    order_sum: int
    limit: int
    implicit_hydrogens: int
    ok: bool


@dataclass(frozen=True)
class ValenceCheckResult:
    passed: bool
    per_atom: tuple[AtomValenceDetail, ...]

    def failures(self) -> list[AtomValenceDetail]:
        return [d for d in self.per_atom if not d.ok]


def _valence_details(graph: MoleculeGraph, failing_only: bool) -> list[AtomValenceDetail]:
    """The valence detail of each atom, or with `failing_only` of each atom over its limit.

    Raises UnknownElement at the first atom missing from DEFAULT_VALENCES.
    """
    sums = _order_sums(graph)
    details = []
    for idx, atom in enumerate(graph.atoms):
        z = atom.atomic_number
        allowed = DEFAULT_VALENCES.get(z)
        if allowed is None:
            raise UnknownElement(f"no valence entry for atomic number {z}")
        limit = max(allowed)
        s = sums[idx]
        ok = s <= limit
        if ok and failing_only:
            continue
        implicit_h = min(v for v in allowed if v >= s) - s if ok else 0
        details.append(AtomValenceDetail(idx, z, s, limit, implicit_h, ok))
    return details


def valence_check(graph: MoleculeGraph) -> ValenceCheckResult:
    """Verify every atom's heavy bond-order sum fits an allowed valence.

    Implicit hydrogens fill the gap up to the smallest allowed valence.
    Raises UnknownElement for atoms missing from DEFAULT_VALENCES.
    """
    details = _valence_details(graph, failing_only=False)
    return ValenceCheckResult(all(d.ok for d in details), tuple(details))


def _huckel_ok(cycle: list[int], donors: set[int]) -> bool:
    electrons = sum(2 if idx in donors else 1 for idx in cycle)
    return electrons % 4 == 2


def _cycles_through(adj: dict[int, list[int]], i: int, j: int, max_len: int = 18) -> Iterable[list[int]]:
    """Simple cycles in the aromatic subgraph containing edge (i, j)."""
    return _close_cycles(adj, [i, j], {i, j}, max_len)


def _close_cycles(adj: dict[int, list[int]], path: list[int], on_path: set[int], max_len: int) -> Iterable[list[int]]:
    """Simple cycles that extend `path` (the atoms in `on_path`) and return to its first atom."""
    for v in adj.get(path[-1], ()):
        if v == path[0] and len(path) >= 3:
            yield list(path)
        elif v not in on_path and len(path) < max_len:
            path.append(v)
            on_path.add(v)
            yield from _close_cycles(adj, path, on_path, max_len)
            path.pop()
            on_path.discard(v)


def valid_aromatic_bonds(graph: MoleculeGraph) -> set[tuple[int, int]]:
    """Aromatic bonds lying on some all-capable simple cycle with a 4n+2 count.

    The cycle search runs over the capable atoms only, so it never walks
    through an atom that would reject every cycle it lies on.
    """
    atoms = graph.atoms
    capable = [
        (i, j)
        for i, j, t in graph.bonds
        if t is BondType.AROMATIC
        and atoms[i].atomic_number in AROMATIC_CAPABLE
        and atoms[j].atomic_number in AROMATIC_CAPABLE
    ]
    adj: dict[int, list[int]] = {}
    for i, j in capable:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    donors = _lone_pair_donors(graph)
    good: set[tuple[int, int]] = set()
    for i, j in capable:
        for cycle in _cycles_through(adj, i, j):
            if _huckel_ok(cycle, donors):
                good.add((i, j))
                break
    return good


def aromaticity_and_charge_check(graph: MoleculeGraph) -> tuple[bool, str]:
    """Whether every aromatic bond lies on a Huckel-valid ring.

    The name still says "charge" because the benchmark traces this function
    by name; atoms carry no formal charge, so there is none to check.
    """
    good = valid_aromatic_bonds(graph)
    bad = sum(1 for i, j, t in graph.bonds if t is BondType.AROMATIC and (i, j) not in good)
    if bad:
        return False, f"{bad} aromatic bond(s) outside valid rings"
    return True, "aromatic rings balanced"


def _match_pi_atoms(free: set[int], edges: set[tuple[int, int]]) -> bool:
    """Backtracking perfect matching over the pi-bond participants in `free`.

    The smallest free atom is matched first, trying its partners in `edges`
    order.  The search runs on an explicit stack, so a long ring cannot
    exhaust the interpreter's recursion limit.  `free` is emptied on success
    and left as it was on failure.
    """
    partners: dict[int, list[int]] = {}
    for a, b in edges:
        partners.setdefault(a, []).append(b)
        partners.setdefault(b, []).append(a)
    stack: list[tuple[int, Iterator[int]]] = []  # each atom being matched, with its untried partners
    matched: list[int] = []  # the partner taken by each stack entry below the top
    while free:
        u = min(free)
        free.discard(u)
        stack.append((u, iter(partners.get(u, ()))))
        while (v := next((w for w in stack[-1][1] if w in free), None)) is None:
            free.add(stack.pop()[0])  # no partner left: release the atom, undo the choice below it
            if not stack:
                return False
            free.add(matched.pop())
        free.discard(v)
        matched.append(v)
    return True


def kekule_assignment_exists(graph: MoleculeGraph) -> tuple[bool, str]:
    """Whether each aromatic system admits an alternating single/double form.

    The aromatic systems are the connected components of the aromatic-bond
    subgraph.  Lone-pair donors take no double bond; every other aromatic atom
    needs exactly one, which reduces to a perfect matching over the remaining
    atoms.
    """
    aromatic = MoleculeGraph(graph.atoms, tuple([b for b in graph.bonds if b[2] is BondType.AROMATIC]))
    if not aromatic.bonds:
        return True, "no aromatic bonds"
    donors = _lone_pair_donors(graph)
    adj = aromatic.adjacency()
    for component in aromatic.connected_components():
        if not adj[component[0]]:
            continue
        members = set(component)
        pi_edges = {
            (i, j)
            for i, j, _ in aromatic.bonds
            if i in members and j in members and i not in donors and j not in donors
        }
        if not _match_pi_atoms(members - donors, pi_edges):
            return False, f"aromatic system containing atom {component[0]} is not kekulizable"
    return True, "kekule assignment found"


@dataclass(frozen=True)
class SanitizeResult:
    graph: MoleculeGraph
    report: ValidationReport


def sanitize(graph: MoleculeGraph) -> SanitizeResult:
    """Run the full cascade, returning the corrected graph and per-stage verdicts.

    All failures are recorded in the report; nothing raises.  The operation is
    idempotent: sanitizing its own output changes nothing.
    """
    report = ValidationReport()

    # Stage 1: atomic range. Out-of-range atoms are dropped along with their bonds.
    kept = subgraph(graph, [i for i, a in enumerate(graph.atoms) if 1 <= a.atomic_number <= MAX_ATOMIC_NUMBER])
    dropped = graph.n_atoms - kept.n_atoms
    if not kept.atoms:
        report.stages.append(StageResult("atomic_range", False, f"no atoms remain (dropped {dropped})"))
    else:
        report.stages.append(StageResult("atomic_range", True, f"dropped {dropped} atom(s)"))

    # Stage 2: edge dedup (also removes self-loops).
    deduped = dedup_edges(kept.bonds)
    removed = len(kept.bonds) - len(deduped)
    corrected = MoleculeGraph(atoms=kept.atoms, bonds=tuple(sorted(deduped)))
    report.stages.append(StageResult("edge_dedup", True, f"removed {removed} edge(s)"))

    # Stage 3: valence.
    try:
        failures = _valence_details(corrected, failing_only=True)
        if not failures:
            report.stages.append(StageResult("valence", True, "all atoms within allowed valence"))
        else:
            bad = ", ".join(
                f"atom {d.index} (z={d.atomic_number}) order sum {d.order_sum} > {d.limit}"
                for d in failures
            )
            report.stages.append(StageResult("valence", False, bad))
    except UnknownElement as exc:
        report.stages.append(StageResult("valence", False, str(exc)))

    # Stage 4: aromatic rings.
    arom_ok, arom_detail = aromaticity_and_charge_check(corrected)
    report.stages.append(StageResult("aromaticity_charge", arom_ok, arom_detail))

    # Stage 5: kekule verification.
    kek_ok, kek_detail = kekule_assignment_exists(corrected)
    report.stages.append(StageResult("kekulization", kek_ok, kek_detail))

    return SanitizeResult(corrected, report)
