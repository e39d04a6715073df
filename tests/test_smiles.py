import gc
import itertools
import json
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scentgen import chemrules, smiles
from scentgen.molgraph import (
    Atom,
    BondType,
    MoleculeGraph,
    UnknownElement,
    add_bond,
    new_graph,
)
from scentgen.smiles import SmilesSyntaxError, UnwritableGraph, canonicalize, parse, write

import test_canonical_oracle as oracle


def to_nx(g: MoleculeGraph) -> nx.Graph:
    out = nx.Graph()
    for i, a in enumerate(g.atoms):
        out.add_node(i, z=a.atomic_number)
    for i, j, t in g.bonds:
        out.add_edge(i, j, t=t.value)
    return out


def isomorphic(a: MoleculeGraph, b: MoleculeGraph) -> bool:
    return nx.is_isomorphic(
        to_nx(a),
        to_nx(b),
        node_match=lambda x, y: x["z"] == y["z"],
        edge_match=lambda x, y: x["t"] == y["t"],
    )


def permuted(g: MoleculeGraph, perm: list[int]) -> MoleculeGraph:
    """Relabel atoms: new index k holds old atom perm[k]."""
    inverse = {old: new for new, old in enumerate(perm)}
    atoms = tuple(g.atoms[old] for old in perm)
    bonds = tuple(
        sorted((min(inverse[i], inverse[j]), max(inverse[i], inverse[j]), t) for i, j, t in g.bonds)
    )
    return MoleculeGraph(atoms=atoms, bonds=bonds)


# ---------------------------------------------------------------- parsing


def test_parse_ethanol():
    g = parse("CCO")
    assert [a.atomic_number for a in g.atoms] == [6, 6, 8]
    assert g.bonds == ((0, 1, BondType.SINGLE), (1, 2, BondType.SINGLE))
    assert all(a.position == (0.0, 0.0, 0.0) for a in g.atoms)


def test_parse_cyclopropane():
    g = parse("C1CC1")
    assert g.n_atoms == 3
    assert {(i, j) for i, j, _ in g.bonds} == {(0, 1), (1, 2), (0, 2)}
    assert all(t is BondType.SINGLE for _, _, t in g.bonds)


def test_parse_unbalanced_branch():
    with pytest.raises(SmilesSyntaxError):
        parse("C(C")


def test_parse_bond_types():
    g = parse("C=C")
    assert g.bonds[0][2] is BondType.DOUBLE
    g = parse("C#N")
    assert g.bonds[0][2] is BondType.TRIPLE
    g = parse("C:C")
    assert g.bonds[0][2] is BondType.AROMATIC


def test_parse_aromatic_defaults():
    g = parse("cc")
    assert g.bonds[0][2] is BondType.AROMATIC
    g = parse("cC")
    assert g.bonds[0][2] is BondType.SINGLE


def test_parse_brackets():
    g = parse("[Na][Cl]")
    assert [a.atomic_number for a in g.atoms] == [11, 17]
    with pytest.raises(UnknownElement):
        parse("[Xq]")
    with pytest.raises(SmilesSyntaxError):
        parse("[C@H]")
    with pytest.raises(SmilesSyntaxError):
        parse("[13C]")


def test_parse_fragments():
    g = parse("C.C")
    assert g.n_atoms == 2
    assert g.bonds == ()


def test_parse_two_letter_elements():
    g = parse("ClCBr")
    assert [a.atomic_number for a in g.atoms] == [17, 6, 35]


def test_parse_percent_ring_closure():
    g = parse("C%12CCC%12")
    assert {(i, j) for i, j, _ in g.bonds} == {(0, 1), (1, 2), (2, 3), (0, 3)}
    for text in ("C%1CC", "C%1"):  # needs two digits
        with pytest.raises(SmilesSyntaxError) as caught:
            parse(text)
        assert str(caught.value) == "position 1: % ring closure needs two digits"


def test_parse_ring_conflicts():
    with pytest.raises(SmilesSyntaxError):
        parse("C=1CC-1")  # conflicting ring bond symbols
    with pytest.raises(SmilesSyntaxError):
        parse("C11")  # self ring closure
    with pytest.raises(SmilesSyntaxError):
        parse("C1CC")  # unclosed ring
    with pytest.raises(SmilesSyntaxError):
        parse("1CC")  # closure before any atom
    for text in ("C\u00b2", "C1CC\u0661", "C%1\u00b2CC%1\u00b2", "C%\u0661\u0662CC%\u0661\u0662"):
        with pytest.raises(SmilesSyntaxError):  # str.isdigit takes these superscript and Arabic-Indic digits
            parse(text)


def test_parse_dangling_bonds():
    for bad in ("C=", "C=)", "C=.C", "=C", "C==C"):
        with pytest.raises(SmilesSyntaxError):
            parse(bad)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.text(alphabet="CcNnOSs[]()=#:-.12%lBr@+ \u00b2\u00b3\u0661\u0662\u07c1\uff11", max_size=14))
def test_parse_returns_a_graph_or_raises_a_documented_error(text):
    try:
        assert isinstance(parse(text), MoleculeGraph)
    except (SmilesSyntaxError, UnknownElement):
        pass


def test_parser_totality_fuzz(rng):
    """Arbitrary byte soup either parses or raises a structured error."""
    alphabet = list("CcNnOoSsPpBF[]()=#:-.1234%Clr@+Xyz ~{}5")
    for _ in range(3000):
        length = int(rng.integers(0, 14))
        text = "".join(alphabet[int(k)] for k in rng.integers(0, len(alphabet), size=length))
        try:
            parse(text)
        except (SmilesSyntaxError, UnknownElement):
            pass


# ---------------------------------------------------------------- writing


def test_write_single_atom():
    assert write(new_graph([Atom(6)])) == "C"
    assert write(new_graph([Atom(1)])) == "[H]"
    assert write(new_graph([Atom(11)])) == "[Na]"


def test_write_unwritable():
    g = MoleculeGraph(atoms=(Atom(119),), bonds=())
    with pytest.raises(UnwritableGraph):
        write(g)


def complete_carbon_graph(n: int) -> MoleculeGraph:
    return MoleculeGraph(
        atoms=tuple(Atom(6) for _ in range(n)),
        bonds=tuple((i, j, BondType.SINGLE) for i, j in itertools.combinations(range(n), 2)),
    )


def test_write_ring_closures_up_to_99_round_trip():
    g = complete_carbon_graph(15)
    text = write(g)
    assert "%61" in text
    assert parse(text) == g


def test_write_raises_for_a_ring_closure_past_99():
    """K20 would need closure digit 100, which SMILES cannot spell: "%100" reads as %10 then 0."""
    with pytest.raises(UnwritableGraph, match="ring closure 100"):
        write(complete_carbon_graph(20))


def flipped(g: MoleculeGraph) -> MoleculeGraph:
    """The same graph with every bond stored (j, i)."""
    return MoleculeGraph(atoms=g.atoms, bonds=tuple((j, i, t) for i, j, t in g.bonds))


def test_write_flipped_benzene():
    assert write(flipped(parse("c1ccccc1"))) == "c1ccccc1"


def test_corpus_rows_with_bonds_stored_j_i_write_and_canonicalize_the_same(fixture_dataset):
    _, molecules = fixture_dataset
    for molecule in molecules:
        g = parse(molecule.smiles)
        ranks = list(range(g.n_atoms))[::-1]
        assert write(flipped(g)) == write(g), molecule.smiles
        assert write(flipped(g), _ranks=ranks) == write(g, _ranks=ranks), molecule.smiles
        assert canonicalize(flipped(g)) == canonicalize(g), molecule.smiles


def test_write_parse_round_trip_ethanol():
    g = new_graph([Atom(6), Atom(6), Atom(8)])
    g = add_bond(g, 0, 1, BondType.SINGLE)
    g = add_bond(g, 1, 2, BondType.SINGLE)
    back = parse(write(g))
    assert back.n_atoms == 3
    assert sum(1 for _, _, t in back.bonds if t is BondType.SINGLE) == 2
    assert isomorphic(g, back)


def test_write_empty():
    assert write(new_graph([])) == ""
    assert canonicalize(new_graph([])) == ""


ROUND_TRIP_CASES = [
    "CCO",
    "C1CC1",
    "c1ccccc1",
    "Cc1ccccc1",
    "CC(C)(C)C",
    "CC(=O)OCC",
    "O=Cc1ccccc1",
    "C1CCCCC1",
    "c1ccncc1",
    "c1ccoc1",
    "Cn1cccc1",
    "CC(=O)N(C)C",
    "ClC(Cl)Cl",
    "C#N.CC",
    "C1CC2CCC1CC2",
    "[Na].[Cl]",
    "S=C=S",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_write_round_trip(text):
    g = parse(text)
    assert isomorphic(g, parse(write(g)))


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_canonical_round_trip(text):
    g = parse(text)
    assert isomorphic(g, parse(canonicalize(g)))


# ------------------------------------------------------- canonicalization


def test_canonical_identical_for_atom_orderings():
    assert canonicalize(parse("CCO")) == canonicalize(parse("OCC"))
    assert canonicalize(parse("C(O)C")) == canonicalize(parse("CCO"))


def test_canonical_all_orderings_small():
    """Exhaustive permutation invariance for molecules up to 6 atoms."""
    for text in ("CCO", "C1CC1", "CC(C)O", "C=CCO", "c1ccoc1"):
        g = parse(text)
        baseline = canonicalize(g)
        for perm in itertools.permutations(range(g.n_atoms)):
            assert canonicalize(permuted(g, list(perm))) == baseline


def test_canonical_random_permutations(rng, fixture_dataset):
    _, molecules = fixture_dataset
    for mol in molecules[::12]:
        g = mol.graph
        baseline = canonicalize(g)
        for _ in range(8):
            perm = list(rng.permutation(g.n_atoms))
            assert canonicalize(permuted(g, perm)) == baseline


@pytest.mark.parametrize("n", [1500, 5000])
@pytest.mark.parametrize("ring", [False, True], ids=["chain", "ring"])
def test_long_chains_and_rings_write_and_canonicalize(rng, n, ring):
    """Thousands of atoms deep, past the recursion limit: `write` round-trips and two atom orders
    canonicalize equal."""
    text = "C1" + "C" * (n - 2) + "C1" if ring else "C" * n
    g = parse(text)
    assert write(g) == text
    assert parse(write(g)) == g
    shuffled = permuted(g, list(rng.permutation(n)))
    assert canonicalize(shuffled) == canonicalize(g) == text
    assert canonicalize(parse(write(shuffled))) == text


def test_canonical_single_atom_matches_write():
    g = new_graph([Atom(16)])
    assert canonicalize(g) == write(g)


def test_canonical_connected_graph_with_bonds_stored_j_i():
    """Graphs whose bonds are stored (j, i), one connected and one of two fragments."""
    stored = MoleculeGraph(
        atoms=(Atom(6), Atom(8), Atom(7)), bonds=((1, 0, BondType.SINGLE), (2, 1, BondType.DOUBLE))
    )
    assert canonicalize(stored) == canonicalize(parse("CO=N")) == "CO=N"
    two = parse("C=CO.c1ccncc1")
    assert write(flipped(two)) == write(two) == "C=CO.c1ccncc1"
    assert canonicalize(flipped(two)) == canonicalize(parse("c1ccncc1.OC=C")) == "C=CO.c1ccncc1"


def test_canonical_fragments_sorted():
    assert canonicalize(parse("O.C")) == canonicalize(parse("C.O"))


def test_corpus_canonical_reparse(fixture_dataset):
    """parse(canonicalize(parse(m))) is isomorphic to parse(m) on the corpus."""
    _, molecules = fixture_dataset
    for mol in molecules[::6]:
        g = parse(mol.smiles)
        again = parse(canonicalize(g))
        assert isomorphic(g, again)


# Tetra-tert-butylmethane and hexa-tert-butylethane once exceeded the budget of
# an unpruned tie-break search and raised instead of returning.
CROWDED = (
    "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C",
    "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C",
)


@pytest.mark.parametrize("text", CROWDED)
def test_canonical_crowded_symmetric_molecules(text, rng):
    g = parse(text)
    canonical = canonicalize(g)
    for _ in range(5):
        assert canonicalize(permuted(g, list(rng.permutation(g.n_atoms)))) == canonical
    again = parse(canonical)
    assert isomorphic(g, again)
    assert canonicalize(again) == canonical


class _SearchSpy:
    """Wraps `smiles._search` and `smiles.write` to check every node of the canonical search.

    Each child's partition, refined from its parent's with only the pick's
    neighbors read first, must give the ranks of a refinement from scratch:
    `_refine` reading every atom of `_partition`'s cells, and the test
    oracle's plain refinement.  The root must give the oracle's ranks too,
    and each pick must come from the parent's tied cell of smallest rank.
    `certificates` collects the distinct leaf certificates of each component
    and `writes` counts the strings written.
    """

    def __init__(self, monkeypatch):
        self.search, self.write = smiles._search, smiles.write
        self.nodes: dict[tuple, list[int]] = {}
        self.certificates: dict[int, set] = {}
        self.writes = 0
        monkeypatch.setattr(smiles, "_search", self.checked_search)
        monkeypatch.setattr(smiles, "write", self.counted_write)

    def counted_write(self, *args, **kwargs):
        self.writes += 1
        return self.write(*args, **kwargs)

    def checked_search(self, cells, cell_of, path, graph, adj, *rest):
        ranks = oracle._dense([cell[0] for cell in cell_of])
        if path:
            parent = self.nodes[id(graph), tuple(path[:-1])]
            pick = path[-1]
            target = min(r for r in set(parent) if parent.count(r) > 1)
            assert parent[pick] == target, (path, parent)
            keys = oracle._dense([(r, 0 if (r != target or i == pick) else 1) for i, r in enumerate(parent)])
        else:
            keys = oracle._initial_ranks(graph)
        scratch_cells, scratch_of = smiles._partition(keys)
        smiles._refine(adj, scratch_cells, scratch_of, range(len(keys)))
        assert ranks == oracle._dense([cell[0] for cell in scratch_of]), path
        assert ranks == oracle._refine(graph, keys), path
        self.nodes[id(graph), tuple(path)] = ranks
        if len(cells) == len(cell_of):
            at_rank = sorted(range(len(ranks)), key=ranks.__getitem__)
            self.certificates.setdefault(id(graph), set()).add((
                tuple(graph.atoms[i].atomic_number for i in at_rank),
                tuple(sorted((min(ranks[i], ranks[j]), max(ranks[i], ranks[j]), t.value) for i, j, t in graph.bonds)),
            ))
        return self.search(cells, cell_of, path, graph, adj, *rest)

    def canonicalize(self, graph: MoleculeGraph) -> str:
        """`canonicalize(graph)`, after which one string was written per distinct leaf certificate."""
        self.nodes.clear()
        self.certificates.clear()
        self.writes = 0
        text = canonicalize(graph)
        assert self.writes == sum(len(found) for found in self.certificates.values()) > 0
        return text


def test_every_search_node_of_small_connected_graphs_refines_as_from_scratch(monkeypatch):
    spy = _SearchSpy(monkeypatch)
    for n, topologies in oracle.connected_graphs().items():
        for edges in topologies:
            for elements, bond_types in itertools.product(oracle.ELEMENT_LABELLINGS, oracle.BOND_LABELLINGS):
                for reverse in (False, True):
                    spy.canonicalize(oracle.labelled(n, edges, elements, bond_types, reverse))


def test_every_search_node_of_corpus_rows_refines_as_from_scratch(fixture_dataset, monkeypatch):
    _, molecules = fixture_dataset
    spy = _SearchSpy(monkeypatch)
    for molecule in molecules:
        spy.canonicalize(parse(molecule.smiles))


SYMMETRIC_SKELETONS = {
    **{name: parse(text) for name, text in oracle.SYMMETRIC.items()},
    **{f"crowded-{k}": parse(text) for k, text in enumerate(CROWDED)},
    **{
        name: MoleculeGraph(
            atoms=tuple(Atom(6) for _ in g),
            bonds=tuple(sorted((min(a, b), max(a, b), BondType.SINGLE) for a, b in g.edges)),
        )
        for name, g in ((name, nx.convert_node_labels_to_integers(g)) for name, g in oracle.REGULAR.items())
    },
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_SKELETONS))
def test_every_search_node_of_symmetric_molecules_refines_as_from_scratch(name, rng, monkeypatch):
    graph = SYMMETRIC_SKELETONS[name]
    spy = _SearchSpy(monkeypatch)
    text = spy.canonicalize(graph)
    assert spy.canonicalize(permuted(graph, list(rng.permutation(graph.n_atoms)))) == text


# The writer's strings, pinned as data: `test_canonical_oracle` checks
# `canonicalize` only against `write` itself, so only these notice a change in
# the bytes `write` produces.  Each entry holds `write` at identity ranks,
# `write` at the ranks of a seeded permutation, and `canonicalize`.
WRITER_PINS = Path(__file__).with_name("writer_pins.json")


def test_writer_strings_match_pins(fixture_dataset):
    _, molecules = fixture_dataset
    graphs = {**{m.smiles: parse(m.smiles) for m in molecules}, **SYMMETRIC_SKELETONS}
    pinned = json.loads(WRITER_PINS.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(graphs)
    for name, graph in graphs.items():
        ranks = np.random.default_rng(0).permutation(graph.n_atoms).tolist()
        assert [write(graph), write(graph, _ranks=ranks), canonicalize(graph)] == pinned[name], name


@st.composite
def sanitized_graphs(draw):
    """Random trees with a few extra ring bonds, kept within each atom's valence."""
    n = draw(st.integers(1, 14))
    numbers = draw(st.lists(st.sampled_from((6, 6, 6, 6, 7, 8, 16)), min_size=n, max_size=n))
    room = [max(chemrules.DEFAULT_VALENCES[z]) for z in numbers]
    bonds: dict[tuple[int, int], BondType] = {}

    def bond(i: int, j: int, order: int) -> None:
        order = min(order, room[i], room[j])
        if i != j and order > 0 and (min(i, j), max(i, j)) not in bonds:
            bonds[min(i, j), max(i, j)] = (BondType.SINGLE, BondType.DOUBLE, BondType.TRIPLE)[order - 1]
            room[i] -= order
            room[j] -= order

    for v in range(1, n):
        bond(draw(st.integers(0, v - 1)), v, draw(st.sampled_from((1, 1, 1, 2, 3))))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
        bond(i, j, 1)
    graph = MoleculeGraph(
        atoms=tuple(Atom(z) for z in numbers),
        bonds=tuple(sorted((i, j, t) for (i, j), t in bonds.items())),
    )
    result = chemrules.sanitize(graph)
    assume(result.report.final_verdict)
    return result.graph, draw(st.permutations(range(n)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(sanitized_graphs())
def test_canonical_property_permutation_invariant_and_round_trips(case):
    g, perm = case
    canonical = canonicalize(g)
    assert canonicalize(permuted(g, list(perm))) == canonical
    assert isomorphic(parse(canonical), g)


PETN = parse("C(CON(=O)=O)(CON(=O)=O)(CON(=O)=O)CON(=O)=O")
NAPHTHALENE = parse("c1ccc2ccccc2c1")


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: canonicalize(PETN), id="canonicalize-PETN"),
        pytest.param(lambda: write(PETN), id="write-PETN"),
        pytest.param(lambda: chemrules.sanitize(NAPHTHALENE), id="sanitize-naphthalene"),
        pytest.param(lambda: parse("c1ccc2cc(CON(=O)=O)ccc2c1"), id="parse"),
    ],
)
def test_calls_leave_no_reference_cycles(call):
    """Reference counting frees everything a call builds; the cyclic collector finds nothing."""
    call()
    gc.collect()
    gc.disable()
    try:
        for _ in range(20):
            call()
        assert gc.collect() == 0
    finally:
        gc.enable()
