import math

import numpy as np
import pytest

from scentgen.molgraph import (
    Atom,
    BondType,
    DuplicateBond,
    IndexOutOfRange,
    NonFinitePosition,
    MoleculeGraph,
    SelfLoop,
    add_bond,
    graph_to_dict,
    new_graph,
    pairwise_distance,
    subgraph,
)


def test_empty_graph():
    g = new_graph([])
    assert g.n_atoms == 0
    assert g.bonds == ()


def test_singleton_graph():
    g = new_graph([Atom(6, (0.0, 0.0, 0.0))])
    assert g.n_atoms == 1
    assert g.bonds == ()


def test_nan_position_rejected():
    with pytest.raises(NonFinitePosition):
        new_graph([Atom(6, (0.0, 0.0, float("nan")))])
    with pytest.raises(NonFinitePosition):
        new_graph([Atom(6, (float("inf"), 0.0, 0.0))])


def test_add_bond_basic():
    g = new_graph([Atom(6), Atom(6)])
    g = add_bond(g, 0, 1, BondType.SINGLE)
    assert g.bonds == ((0, 1, BondType.SINGLE),)


def test_add_bond_unordered_dedup():
    g = new_graph([Atom(6), Atom(6)])
    g = add_bond(g, 0, 1, BondType.SINGLE)
    with pytest.raises(DuplicateBond):
        add_bond(g, 1, 0, BondType.DOUBLE)


def test_add_bond_self_loop():
    g = new_graph([Atom(6)])
    with pytest.raises(SelfLoop):
        add_bond(g, 0, 0, BondType.SINGLE)


def test_add_bond_index_range():
    g = new_graph([Atom(6)])
    with pytest.raises(IndexOutOfRange):
        add_bond(g, 0, 3, BondType.SINGLE)


def test_pairwise_distance_345():
    g = new_graph([Atom(6, (0, 0, 0)), Atom(6, (3, 4, 0))])
    assert pairwise_distance(g, 0, 1) == pytest.approx(5.0)


def test_pairwise_distance_identity():
    g = new_graph([Atom(6, (1, 2, 3))])
    assert pairwise_distance(g, 0, 0) == 0.0


def test_pairwise_distance_sqrt3():
    g = new_graph([Atom(6, (1, 1, 1)), Atom(8, (2, 2, 2))])
    assert pairwise_distance(g, 0, 1) == pytest.approx(math.sqrt(3))
    assert pairwise_distance(g, 0, 1) == pairwise_distance(g, 1, 0)


def test_pairwise_distance_bad_index():
    g = new_graph([Atom(6)])
    with pytest.raises(IndexOutOfRange):
        pairwise_distance(g, 0, 1)


def test_random_bond_sequences_never_duplicate(rng):
    """Any admissible add_bond sequence leaves no repeated unordered pair."""
    for _ in range(200):
        n = int(rng.integers(2, 8))
        g = new_graph([Atom(6)] * n)
        for _ in range(int(rng.integers(1, 12))):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            t = BondType(list(BondType)[int(rng.integers(4))].value)
            try:
                g = add_bond(g, i, j, t)
            except (DuplicateBond, SelfLoop):
                continue
        pairs = [(i, j) for i, j, _ in g.bonds]
        assert len(pairs) == len(set(pairs))
        assert all(i < j for i, j in pairs)


def test_graph_to_dict_layout():
    g = new_graph(
        [Atom(6, (0.0, 1.0, 2.0)), Atom(8, (-1.5, 0.0, 0.25)), Atom(7)],
        [(2, 0, BondType.AROMATIC), (0, 1, BondType.DOUBLE)],
    )
    assert graph_to_dict(g) == {
        "atoms": [
            {"z": 6, "xyz": [0.0, 1.0, 2.0]},
            {"z": 8, "xyz": [-1.5, 0.0, 0.25]},
            {"z": 7, "xyz": [0.0, 0.0, 0.0]},
        ],
        "bonds": [[0, 1, "double"], [0, 2, "aromatic"]],
    }
    assert graph_to_dict(new_graph([])) == {"atoms": [], "bonds": []}


def _fold_add_bond(atoms, bonds):
    """Successive single-bond additions, as `new_graph` did before it took bonds.

    The bond check is copied from `add_bond` as it stood then, so the
    comparison does not lean on the shared check under test.
    """
    graph = new_graph(atoms)
    for i, j, bond_type in bonds:
        n = graph.n_atoms
        for idx in (i, j):
            if not 0 <= idx < n:
                raise IndexOutOfRange(f"atom index {idx} outside [0, {n})")
        if i == j:
            raise SelfLoop(f"bond endpoints identical: {i}")
        key = (min(i, j), max(i, j))
        if any((b[0], b[1]) == key for b in graph.bonds):
            raise DuplicateBond(f"bond {key} already present")
        bonds_now = tuple(sorted(graph.bonds + ((key[0], key[1], bond_type),)))
        graph = MoleculeGraph(atoms=graph.atoms, bonds=bonds_now)
    return graph


def _outcome(build, atoms, bonds):
    try:
        return build(atoms, bonds)
    except (NonFinitePosition, IndexOutOfRange, SelfLoop, DuplicateBond) as exc:
        return type(exc), str(exc)


def test_new_graph_matches_add_bond_fold(rng):
    """Same graph, or the same first exception and message, on lists with bad bonds."""
    types = list(BondType)
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(0, 7))
        atoms = [Atom(int(rng.integers(1, 119)), tuple(rng.normal(size=3))) for _ in range(n)]
        if n and rng.random() < 0.1:
            atoms[-1] = Atom(6, (0.0, float("nan"), 0.0))
        bonds = [
            (int(rng.integers(-1, n + 2)), int(rng.integers(-1, n + 2)), types[int(rng.integers(4))])
            for _ in range(int(rng.integers(0, 9)))
        ]
        if n >= 2 and rng.random() < 0.5:
            # Keep every index in range, so that more lists fail late or not at all.
            bonds = [(i % n, j % n, t) for i, j, t in bonds]
        expected = _outcome(_fold_add_bond, atoms, bonds)
        assert _outcome(new_graph, atoms, bonds) == expected
        outcomes.add(expected[0] if isinstance(expected, tuple) else MoleculeGraph)
    assert outcomes == {MoleculeGraph, NonFinitePosition, IndexOutOfRange, SelfLoop, DuplicateBond}


def test_subgraph_keeps_order_and_orients_bonds():
    atoms = tuple(Atom(z) for z in (6, 7, 8, 9, 16))
    bonds = (
        (4, 1, BondType.SINGLE),
        (0, 3, BondType.DOUBLE),
        (3, 2, BondType.AROMATIC),
        (2, 4, BondType.TRIPLE),
        (1, 0, BondType.SINGLE),
    )
    g = MoleculeGraph(atoms=atoms, bonds=bonds)
    sub = subgraph(g, [4, 2, 1])
    assert sub.atoms == (Atom(16), Atom(8), Atom(7))
    # (4, 1) -> (0, 2); (2, 4) -> (0, 1); bonds touching atoms 0 or 3 go.
    assert sub.bonds == ((0, 2, BondType.SINGLE), (0, 1, BondType.TRIPLE))
    assert subgraph(g, []) == MoleculeGraph()
    assert subgraph(g, range(5)).bonds == (
        (1, 4, BondType.SINGLE),
        (0, 3, BondType.DOUBLE),
        (2, 3, BondType.AROMATIC),
        (2, 4, BondType.TRIPLE),
        (0, 1, BondType.SINGLE),
    )


def test_connected_components():
    g = new_graph([Atom(6)] * 5)
    g = add_bond(g, 0, 1, BondType.SINGLE)
    g = add_bond(g, 3, 4, BondType.SINGLE)
    assert g.connected_components() == [[0, 1], [2], [3, 4]]
