"""The pruned canonicalizer against an exhaustive oracle: byte-identical strings.

The oracle is the unpruned tie-break search: it writes every leaf of the
individualization-refinement tree and keeps the smallest string.  It has no
budget, so it is only run on graphs small or plain enough to finish quickly.
"""

import itertools

import networkx as nx
import pytest

from scentgen import smiles
from scentgen.molgraph import Atom, BondType, MoleculeGraph, subgraph
from test_acceptance import connected_topologies

_BOND_RANK = {BondType.SINGLE: 1, BondType.DOUBLE: 2, BondType.TRIPLE: 3, BondType.AROMATIC: 4}


def _dense(keys: list) -> list[int]:
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _refine(graph: MoleculeGraph, ranks: list[int]) -> list[int]:
    adj = graph.adjacency()
    current = list(ranks)
    for _ in range(graph.n_atoms + 1):
        signatures = [
            (current[i], tuple(sorted((_BOND_RANK[t], current[j]) for j, t in adj[i])))
            for i in range(graph.n_atoms)
        ]
        refined = _dense(signatures)
        if refined == current:
            return refined
        current = refined
    return current


def _initial_ranks(graph: MoleculeGraph) -> list[int]:
    adj = graph.adjacency()
    invariants = []
    for i, atom in enumerate(graph.atoms):
        orders = sorted(_BOND_RANK[t] for _, t in adj[i])
        invariants.append((atom.atomic_number, len(orders), tuple(orders)))
    return _dense(invariants)


def _exhaustive_component(graph: MoleculeGraph) -> str:
    best: list[str] = []

    def search(ranks: list[int]) -> None:
        groups: dict[int, list[int]] = {}
        for idx, r in enumerate(ranks):
            groups.setdefault(r, []).append(idx)
        tied = sorted(r for r, members in groups.items() if len(members) > 1)
        if not tied:
            candidate = smiles.write(graph, _ranks=ranks)
            if not best or candidate < best[0]:
                best[:] = [candidate]
            return
        for pick in groups[tied[0]]:
            keys = [(r, 0 if (r != tied[0] or idx == pick) else 1) for idx, r in enumerate(ranks)]
            search(_refine(graph, _dense(keys)))

    search(_refine(graph, _initial_ranks(graph)))
    return best[0]


def oracle_canonicalize(graph: MoleculeGraph) -> str:
    if graph.n_atoms == 0:
        return ""
    pieces = [
        _exhaustive_component(subgraph(graph, comp)) for comp in graph.connected_components()
    ]
    return ".".join(sorted(pieces))


def connected_graphs() -> dict[int, list[tuple[tuple[int, int], ...]]]:
    """Every connected unlabeled graph on one to six atoms, as canonical edge tuples.

    Criterion 5's enumerator gives the graphs on up to five atoms.  A graph on
    six is one on five plus an atom bonded to a non-empty subset of it, since
    every connected graph has an atom whose removal leaves it connected.
    """
    graphs = {n: connected_topologies(n) for n in range(1, 6)}
    perms = list(itertools.permutations(range(6)))
    grown = set()
    for edges in graphs[5]:
        for size in range(1, 6):
            for subset in itertools.combinations(range(5), size):
                extended = edges + tuple((v, 5) for v in subset)
                grown.add(min(tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in extended)) for p in perms))
    graphs[6] = sorted(grown)
    return graphs


ELEMENT_LABELLINGS = ((6,), (6, 7, 8), (8, 6, 16, 6, 7, 6))
BOND_LABELLINGS = (
    (BondType.SINGLE,),
    (BondType.SINGLE, BondType.DOUBLE),
    (BondType.AROMATIC, BondType.SINGLE, BondType.TRIPLE),
)


def labelled(n: int, edges, elements, bond_types, reverse: bool = False) -> MoleculeGraph:
    """Atom v gets elements[v] and bond k bond_types[k], cycling; `reverse` numbers the atoms backwards."""
    atoms = tuple(Atom(elements[v % len(elements)]) for v in range(n))
    bonds = [(a, b, bond_types[k % len(bond_types)]) for k, (a, b) in enumerate(edges)]
    if reverse:
        atoms = atoms[::-1]
        bonds = [(n - 1 - b, n - 1 - a, t) for a, b, t in bonds]
    return MoleculeGraph(atoms=atoms, bonds=tuple(sorted(bonds)))


SYMMETRIC = {
    "PETN": "C(CON(=O)=O)(CON(=O)=O)(CON(=O)=O)CON(=O)=O",
    "RDX": "C1N(N(=O)=O)CN(N(=O)=O)CN1N(=O)=O",
    "TATP": "CC1(C)OOC(C)(C)OOC(C)(C)OO1",
    "cubane": "C12C3C4C1C5C2C3C45",
    "adamantane": "C1C2CC3CC1CC(C2)C3",
    "tri-tert-butylmethane": "CC(C)(C)C(C(C)(C)C)C(C)(C)C",
}


def test_every_small_connected_graph_matches_oracle():
    graphs = connected_graphs()
    assert [len(graphs[n]) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]
    checked = 0
    for n, topologies in graphs.items():
        for edges in topologies:
            for elements, bond_types in itertools.product(ELEMENT_LABELLINGS, BOND_LABELLINGS):
                want = oracle_canonicalize(labelled(n, edges, elements, bond_types))
                for reverse in (False, True):
                    graph = labelled(n, edges, elements, bond_types, reverse)
                    assert smiles.canonicalize(graph) == want, (edges, elements, bond_types, reverse)
                checked += 1
    assert checked == 143 * 9


def test_corpus_rows_match_oracle(fixture_dataset):
    _, molecules = fixture_dataset
    for molecule in molecules:
        graph = smiles.parse(molecule.smiles)
        assert smiles.canonicalize(graph) == oracle_canonicalize(graph), molecule.smiles


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symmetric_molecules_match_oracle(name):
    graph = smiles.parse(SYMMETRIC[name])
    assert smiles.canonicalize(graph) == oracle_canonicalize(graph)


# Regular graphs, where refinement alone splits no atom from another.  On the
# ones with few automorphisms, different tie-breaks write different strings,
# so a search that stops early or writes too few leaves returns a larger one.
REGULAR = {
    "frucht": nx.frucht_graph(),
    "heawood": nx.heawood_graph(),
    "petersen": nx.petersen_graph(),
    "moebius-kantor": nx.moebius_kantor_graph(),
    "dodecahedral": nx.dodecahedral_graph(),
    "desargues": nx.desargues_graph(),
    **{f"cubic-{n}-{seed}": nx.random_regular_graph(3, n, seed=seed) for n in (8, 10, 12) for seed in range(3)},
    "quartic-10": nx.random_regular_graph(4, 10, seed=1),
}


@pytest.mark.parametrize("name", sorted(REGULAR))
def test_regular_carbon_skeletons_match_oracle(name):
    g = nx.convert_node_labels_to_integers(REGULAR[name])
    graph = MoleculeGraph(
        atoms=tuple(Atom(6) for _ in g), bonds=tuple(sorted((min(a, b), max(a, b), BondType.SINGLE) for a, b in g.edges))
    )
    assert smiles.canonicalize(graph) == oracle_canonicalize(graph)
