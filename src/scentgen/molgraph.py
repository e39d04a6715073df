"""Core molecular graph types: atoms with 3D positions and typed undirected bonds.

The graph jobs that other modules share live here too: building a graph from a
checked bond list, taking a subgraph, grouping atoms into connected
components, and the JSON-ready dict form that `generate` writes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Element symbols indexed by atomic number - 1, up to oganesson.
ELEMENT_SYMBOLS = (
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar", "K", "Ca",
    "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb", "Sr", "Y", "Zr",
    "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sn",
    "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd",
    "Pm", "Sm", "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb",
    "Lu", "Hf", "Ta", "W", "Re", "Os", "Ir", "Pt", "Au", "Hg",
    "Tl", "Pb", "Bi", "Po", "At", "Rn", "Fr", "Ra", "Ac", "Th",
    "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk", "Cf", "Es", "Fm",
    "Md", "No", "Lr", "Rf", "Db", "Sg", "Bh", "Hs", "Mt", "Ds",
    "Rg", "Cn", "Nh", "Fl", "Mc", "Lv", "Ts", "Og",
)
SYMBOL_TO_NUMBER = {s: i + 1 for i, s in enumerate(ELEMENT_SYMBOLS)}
MAX_ATOMIC_NUMBER = len(ELEMENT_SYMBOLS)


class NonFinitePosition(ValueError):
    """An atom position contains NaN or infinity."""


class SelfLoop(ValueError):
    """A bond was requested between an atom and itself."""


class DuplicateBond(ValueError):
    """A bond already exists between the given pair of atoms."""


class IndexOutOfRange(IndexError):
    """An atom index does not exist in the graph."""


class UnknownElement(ValueError):
    """An element symbol or atomic number is not recognized."""


class BondType(enum.Enum):
    SINGLE = "single"
    DOUBLE = "double"
    TRIPLE = "triple"
    AROMATIC = "aromatic"

    @property
    def order(self) -> float:
        return _BOND_ORDERS[self]


_BOND_ORDERS = {
    BondType.SINGLE: 1.0,
    BondType.DOUBLE: 2.0,
    BondType.TRIPLE: 3.0,
    BondType.AROMATIC: 1.5,
}

# (i, j, type) with i < j
Bond = tuple[int, int, BondType]


@dataclass(frozen=True, slots=True)
class Atom:
    """One heavy atom: proton count plus a 3D position in model-space units.

    Slotted: `dataio.load_csv` holds every parsed graph of a corpus at once.
    """

    atomic_number: int
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        # Tuples here and in the hot paths are built from lists: tuple() of a
        # generator allocates room for ten items, then shrinks, and CPython
        # keeps the freed tuple in the free list of its final size.
        pos = tuple([float(c) for c in self.position])
        if len(pos) != 3:
            raise ValueError(f"position must have 3 components, got {len(pos)}")
        object.__setattr__(self, "position", pos)

    @property
    def symbol(self) -> str:
        if not 1 <= self.atomic_number <= MAX_ATOMIC_NUMBER:
            raise UnknownElement(f"atomic number {self.atomic_number} outside [1, {MAX_ATOMIC_NUMBER}]")
        return ELEMENT_SYMBOLS[self.atomic_number - 1]


@dataclass(frozen=True)
class MoleculeGraph:
    """Immutable undirected molecular graph.

    Bonds are stored canonically as (i, j, type) with i < j and at most one
    bond per unordered pair.  Hydrogens are implicit and never stored.
    """

    atoms: tuple[Atom, ...] = ()
    bonds: tuple[Bond, ...] = ()

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def coords(self) -> np.ndarray:
        if not self.atoms:
            return np.zeros((0, 3), dtype=np.float64)
        return np.array([a.position for a in self.atoms], dtype=np.float64)

    def atomic_numbers(self) -> np.ndarray:
        return np.array([a.atomic_number for a in self.atoms], dtype=np.int64)

    def bond_map(self) -> dict[tuple[int, int], BondType]:
        return {(i, j): t for i, j, t in self.bonds}

    def adjacency(self) -> dict[int, list[tuple[int, BondType]]]:
        adj: dict[int, list[tuple[int, BondType]]] = {i: [] for i in range(self.n_atoms)}
        for i, j, t in self.bonds:
            adj[i].append((j, t))
            adj[j].append((i, t))
        return adj

    def connected_components(self) -> list[list[int]]:
        """Atom indices grouped by connectivity, each group sorted ascending."""
        adj = self.adjacency()
        seen: set[int] = set()
        components: list[list[int]] = []
        for start in range(self.n_atoms):
            if start in seen:
                continue
            stack = [start]
            group = []
            seen.add(start)
            while stack:
                u = stack.pop()
                group.append(u)
                for v, _ in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            components.append(sorted(group))
        return components


def _bond_key(n_atoms: int, present: set[tuple[int, int]], i: int, j: int) -> tuple[int, int]:
    """The (min, max) pair of a new bond between atoms i and j.

    Raises IndexOutOfRange, SelfLoop or DuplicateBond (a pair in `present`).
    """
    for idx in (i, j):
        if not 0 <= idx < n_atoms:
            raise IndexOutOfRange(f"atom index {idx} outside [0, {n_atoms})")
    if i == j:
        raise SelfLoop(f"bond endpoints identical: {i}")
    key = (min(i, j), max(i, j))
    if key in present:
        raise DuplicateBond(f"bond {key} already present")
    return key


def new_graph(atoms: Iterable[Atom], bonds: Iterable[tuple[int, int, BondType]] = ()) -> MoleculeGraph:
    """Build a graph from atoms and (i, j, type) bonds.

    Non-finite positions raise NonFinitePosition.  Bonds are checked in list
    order, as successive `add_bond` calls would check them, and stored sorted
    with i < j.
    """
    atoms = tuple(atoms)
    for idx, atom in enumerate(atoms):
        if not all(math.isfinite(c) for c in atom.position):
            raise NonFinitePosition(f"atom {idx} has non-finite position {atom.position}")
    present: set[tuple[int, int]] = set()
    checked = []
    for i, j, bond_type in bonds:
        key = _bond_key(len(atoms), present, i, j)
        present.add(key)
        checked.append((key[0], key[1], bond_type))
    return MoleculeGraph(atoms=atoms, bonds=tuple(sorted(checked)))


def add_bond(graph: MoleculeGraph, i: int, j: int, bond_type: BondType) -> MoleculeGraph:
    """Return a new graph with one extra bond; duplicates and self-loops are rejected."""
    key = _bond_key(graph.n_atoms, {(a, b) for a, b, _ in graph.bonds}, i, j)
    bonds = tuple(sorted(graph.bonds + ((key[0], key[1], bond_type),)))
    return MoleculeGraph(atoms=graph.atoms, bonds=bonds)


def subgraph(graph: MoleculeGraph, keep: Sequence[int]) -> MoleculeGraph:
    """The atoms at `keep`, in that order, and every bond between two of them.

    Bonds are renumbered to positions in `keep`, oriented i < j and kept in
    input order.
    """
    new_index = {old: new for new, old in enumerate(keep)}
    bonds = tuple([
        (min(new_index[i], new_index[j]), max(new_index[i], new_index[j]), t)
        for i, j, t in graph.bonds
        if i in new_index and j in new_index
    ])
    return MoleculeGraph(atoms=tuple([graph.atoms[i] for i in keep]), bonds=bonds)


def pairwise_distance(graph: MoleculeGraph, i: int, j: int) -> float:
    """Euclidean distance between two atom positions (symmetric, >= 0)."""
    n = graph.n_atoms
    for idx in (i, j):
        if not 0 <= idx < n:
            raise IndexOutOfRange(f"atom index {idx} outside [0, {n})")
    a = np.asarray(graph.atoms[i].position)
    b = np.asarray(graph.atoms[j].position)
    return float(np.linalg.norm(a - b))


def graph_to_dict(graph: MoleculeGraph) -> dict:
    """JSON-ready form: {"atoms": [{"z", "xyz"}], "bonds": [[i, j, type]]}."""
    return {
        "atoms": [{"z": a.atomic_number, "xyz": list(a.position)} for a in graph.atoms],
        "bonds": [[i, j, t.value] for i, j, t in graph.bonds],
    }
