import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scentgen import chemrules, smiles
from scentgen.chemrules import (
    DEFAULT_VALENCES,
    StageResult,
    aromaticity_and_charge_check,
    dedup_edges,
    heuristic_bond_type,
    kekule_assignment_exists,
    sanitize,
    valence_check,
    valid_aromatic_bonds,
    CASCADE_STAGES,
)
from scentgen.molgraph import MAX_ATOMIC_NUMBER, Atom, BondType, MoleculeGraph, UnknownElement, add_bond, new_graph


def chain(*z_list, bond=BondType.SINGLE):
    g = new_graph([Atom(z) for z in z_list])
    for i in range(len(z_list) - 1):
        g = add_bond(g, i, i + 1, bond)
    return g


def star(center_z, leaf_z, orders):
    g = new_graph([Atom(center_z)] + [Atom(leaf_z)] * len(orders))
    for k, t in enumerate(orders):
        g = add_bond(g, 0, k + 1, t)
    return g


# ------------------------------------------------------------------ dedup


def test_dedup_first_wins():
    out = dedup_edges([(0, 1, BondType.SINGLE), (1, 0, BondType.DOUBLE)])
    assert out == [(0, 1, BondType.SINGLE)]


def test_dedup_drops_self_loops():
    assert dedup_edges([(2, 2, BondType.SINGLE)]) == []


def test_dedup_empty():
    assert dedup_edges([]) == []


def test_dedup_property_no_repeats(rng):
    for _ in range(200):
        edges = [
            (int(rng.integers(5)), int(rng.integers(5)), BondType.SINGLE)
            for _ in range(int(rng.integers(0, 15)))
        ]
        out = dedup_edges(edges)
        keys = [(min(i, j), max(i, j)) for i, j, _ in out]
        assert len(keys) == len(set(keys))
        assert all(i != j for i, j in keys)


# -------------------------------------------------------------- heuristic


def test_heuristic_examples():
    assert heuristic_bond_type(6, 6) is BondType.SINGLE
    assert heuristic_bond_type(6, 8) is BondType.TRIPLE
    assert heuristic_bond_type(8, 6) is heuristic_bond_type(6, 8)
    assert heuristic_bond_type(6, 7) is BondType.DOUBLE


def test_heuristic_symmetric_total():
    for zi in range(1, 21):
        for zj in range(1, 21):
            assert heuristic_bond_type(zi, zj) is heuristic_bond_type(zj, zi)
    # spot-check totality across the full range
    for zi in (1, 50, 118):
        for zj in (1, 37, 118):
            assert heuristic_bond_type(zi, zj) in (BondType.SINGLE, BondType.DOUBLE, BondType.TRIPLE)


# ---------------------------------------------------------------- valence


def test_valence_carbon_four_single():
    g = star(6, 6, [BondType.SINGLE] * 4)
    res = valence_check(g)
    assert res.passed
    assert res.per_atom[0].implicit_hydrogens == 0


def test_valence_carbon_five_single():
    g = star(6, 6, [BondType.SINGLE] * 5)
    assert not valence_check(g).passed


def test_valence_oxygen_one_single():
    g = chain(8, 6)
    res = valence_check(g)
    assert res.passed
    assert res.per_atom[0].implicit_hydrogens == 1


def test_valence_unknown_element():
    g = chain(2, 6)  # helium
    with pytest.raises(UnknownElement):
        valence_check(g)


def test_valence_aromatic_rounding():
    # benzene carbon: two aromatic ring bonds -> 3.0 -> one implicit H
    g = smiles.parse("c1ccccc1")
    res = valence_check(g)
    assert res.passed
    assert all(d.implicit_hydrogens == 1 for d in res.per_atom)


def valence_oracle_atom(z: int, incident_orders: list[float]) -> bool:
    """Independent route: search for an allowed valence and hydrogen fill."""
    allowed = DEFAULT_VALENCES[z]
    total = math.floor(sum(incident_orders) + 0.5)
    for v in allowed:
        for h in range(0, max(allowed) + 1):
            if total + h == v:
                return True
    return False


def test_valence_against_fill_oracle(rng):
    """Random typed stars: implementation verdict equals the enumeration oracle."""
    elements = [6, 7, 8, 9, 15, 16, 17]
    orders = [BondType.SINGLE, BondType.DOUBLE, BondType.TRIPLE]
    for _ in range(500):
        z = elements[int(rng.integers(len(elements)))]
        k = int(rng.integers(0, 5))
        incident = [orders[int(rng.integers(3))] for _ in range(k)]
        g = star(z, 6, incident)
        got = valence_check(g).per_atom[0].ok
        want = valence_oracle_atom(z, [t.order for t in incident])
        assert got == want, (z, incident)


# ------------------------------------------------------------ aromaticity


def test_benzene_passes():
    assert aromaticity_and_charge_check(smiles.parse("c1ccccc1")) == (True, "aromatic rings balanced")


def test_five_carbon_aromatic_ring_fails():
    passed, detail = aromaticity_and_charge_check(smiles.parse("c1cccc1"))
    assert not passed
    assert detail == "5 aromatic bond(s) outside valid rings"


def test_acyclic_aromatic_bond_fails():
    g = chain(6, 6, bond=BondType.AROMATIC)
    passed, _ = aromaticity_and_charge_check(g)
    assert not passed


def test_heteroaromatics():
    assert aromaticity_and_charge_check(smiles.parse("c1ccoc1"))[0]
    assert aromaticity_and_charge_check(smiles.parse("c1ccsc1"))[0]
    assert aromaticity_and_charge_check(smiles.parse("c1ccncc1"))[0]
    assert aromaticity_and_charge_check(smiles.parse("Cn1cccc1"))[0]
    # bare two-bond ring N is pyridine-like: a 5-ring then counts 5 electrons
    assert not aromaticity_and_charge_check(smiles.parse("n1cccc1"))[0]


def test_aromaticity_passes_where_only_valence_fails():
    """Stage 4 judges rings alone: a pentavalent ring substituent fails valence only."""
    report = sanitize(smiles.parse("C(C)(C)(C)(C)c1ccccc1")).report
    assert [s.name for s in report.stages if not s.passed] == ["valence"]
    assert report.stage("aromaticity_charge").passed
    assert report.stage("kekulization").passed


def test_valid_aromatic_bonds_subset():
    g = smiles.parse("c1ccccc1")
    assert len(valid_aromatic_bonds(g)) == 6
    g = chain(6, 6, bond=BondType.AROMATIC)
    assert valid_aromatic_bonds(g) == set()


def _aromatic_adjacency_all_atoms(graph):
    adj = {}
    for i, j, t in graph.bonds:
        if t is BondType.AROMATIC:
            adj.setdefault(i, []).append(j)
            adj.setdefault(j, []).append(i)
    return adj


def per_cycle_valid_aromatic_bonds(graph):
    """The oracle: search cycles through every atom, reject each cycle with an incapable one."""
    adj = _aromatic_adjacency_all_atoms(graph)
    donors = chemrules._lone_pair_donors(graph)
    good = set()
    for i, j, t in graph.bonds:
        if t is not BondType.AROMATIC:
            continue
        for cycle in chemrules._cycles_through(adj, i, j):
            if all(graph.atoms[k].atomic_number in chemrules.AROMATIC_CAPABLE for k in cycle) and (
                sum(2 if k in donors else 1 for k in cycle) % 4 == 2
            ):
                good.add((i, j))
                break
    return good


def test_valid_aromatic_bonds_match_per_cycle_oracle(rng):
    """Random graphs over B, C, N, O, Si, P, S: searching capable atoms only loses no ring."""
    elements = [5, 6, 6, 6, 7, 8, 14, 15, 16]
    types = list(BondType)
    found = 0
    for _ in range(1500):
        n = int(rng.integers(3, 10))
        atoms = tuple(Atom(elements[int(rng.integers(len(elements)))]) for _ in range(n))
        bonds = []
        for _ in range(int(rng.integers(0, 14))):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            t = BondType.AROMATIC if rng.random() < 0.7 else types[int(rng.integers(4))]
            bonds.append((i, j, t))
        g = MoleculeGraph(atoms=atoms, bonds=tuple(bonds))
        want = per_cycle_valid_aromatic_bonds(g)
        assert valid_aromatic_bonds(g) == want, g
        found += bool(want)
    assert found > 100  # the draw reaches graphs with valid rings


C60 = (
    "c12c3c4c5c1c1c6c7c2c2c8c3c3c9c4c4c%10c5c5c1c1c6c6c%11c7c2c2c7c8c3c3c8c9c4"
    "c4c9c%10c5c5c1c1c6c6c%11c2c2c7c3c3c8c4c4c9c5c1c1c6c2c3c41"
)


def test_boron_cage_ring_search_enters_no_atom(monkeypatch):
    """The boron analogue of C60: no atom can be aromatic, so no cycle is searched."""
    calls = []
    close_cycles = chemrules._close_cycles

    def counting(*args):
        calls.append(1)
        return close_cycles(*args)

    monkeypatch.setattr(chemrules, "_close_cycles", counting)
    cage = smiles.parse(C60.replace("c", "b"))
    assert (cage.n_atoms, len(cage.bonds)) == (60, 90)
    assert valid_aromatic_bonds(cage) == set()
    assert calls == []
    assert aromaticity_and_charge_check(cage) == (False, "90 aromatic bond(s) outside valid rings")
    assert len(valid_aromatic_bonds(smiles.parse(C60))) > 0  # the carbon cage is searched
    assert calls


# ------------------------------------------------------------- kekulation


def test_kekule_benzene():
    ok, _ = kekule_assignment_exists(smiles.parse("c1ccccc1"))
    assert ok


def test_kekule_furan():
    ok, _ = kekule_assignment_exists(smiles.parse("c1ccoc1"))
    assert ok


def test_kekule_odd_all_pi_ring_fails():
    ok, detail = kekule_assignment_exists(smiles.parse("c1cccc1"))
    assert not ok
    assert "kekulizable" in detail


def recursive_match_pi_atoms(free, edges):
    """The oracle: the same backtracking, one Python frame per matched pair."""
    if not free:
        return True
    u = min(free)
    free.discard(u)
    for a, b in edges:
        if a == u and b in free:
            v = b
        elif b == u and a in free:
            v = a
        else:
            continue
        free.discard(v)
        if recursive_match_pi_atoms(free, edges):
            return True
        free.add(v)
    free.add(u)
    return False


def test_match_pi_atoms_matches_recursive_oracle(rng):
    for _ in range(3000):
        n = int(rng.integers(1, 10))
        edges = {(int(rng.integers(n)), int(rng.integers(n))) for _ in range(int(rng.integers(0, 15)))}
        free = {int(k) for k in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
        want_free = set(free)
        want = recursive_match_pi_atoms(want_free, edges)
        assert chemrules._match_pi_atoms(free, edges) == want, (free, edges)
        assert free == want_free


def test_long_aromatic_ring_sanitizes_without_recursion_error():
    ring = "c1" + "c" * 2398 + "c1"
    report = sanitize(smiles.parse(ring)).report
    assert report.stage("kekulization").passed
    assert report.stage("valence").passed
    # no cycle of at most 18 atoms runs through the ring's bonds
    assert not report.stage("aromaticity_charge").passed


# ---------------------------------------------------------------- sanitize


def test_sanitize_valid_ethanol_unchanged():
    g = smiles.parse("CCO")
    res = sanitize(g)
    assert res.report.final_verdict
    assert res.graph == g
    assert [s.name for s in res.report.stages] == list(CASCADE_STAGES)


def test_sanitize_corrects_duplicates():
    g = MoleculeGraph(
        atoms=(Atom(6), Atom(6)),
        bonds=((0, 1, BondType.SINGLE), (0, 1, BondType.DOUBLE)),
    )
    res = sanitize(g)
    assert res.report.final_verdict
    assert res.graph.bonds == ((0, 1, BondType.SINGLE),)
    assert "removed 1" in res.report.stage("edge_dedup").detail


def test_sanitize_pentavalent_carbon_fails():
    g = star(6, 6, [BondType.SINGLE] * 5)
    res = sanitize(g)
    assert not res.report.final_verdict
    assert not res.report.stage("valence").passed


def test_sanitize_drops_out_of_range_atoms():
    g = MoleculeGraph(atoms=(Atom(6), Atom(200)), bonds=((0, 1, BondType.SINGLE),))
    res = sanitize(g)
    assert res.graph.n_atoms == 1
    assert res.graph.bonds == ()
    assert res.report.stage("atomic_range").passed
    assert "dropped 1" in res.report.stage("atomic_range").detail


def test_sanitize_empty_graph_fails_range_stage():
    res = sanitize(new_graph([]))
    assert not res.report.final_verdict
    assert not res.report.stage("atomic_range").passed


def test_sanitize_idempotent(rng):
    elements = [1, 6, 7, 8, 9, 15, 16, 17, 2, 200]
    types = list(BondType)
    for _ in range(150):
        n = int(rng.integers(1, 7))
        atoms = tuple(Atom(elements[int(rng.integers(len(elements)))]) for _ in range(n))
        bonds = []
        for _ in range(int(rng.integers(0, 8))):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            bonds.append((i, j, types[int(rng.integers(4))]))
        g = MoleculeGraph(atoms=atoms, bonds=tuple(bonds))
        once = sanitize(g)
        twice = sanitize(once.graph)
        assert twice.graph == once.graph


def _remap_then_dedup(graph):
    """Stages 1 and 2 as `sanitize` wrote them before `molgraph.subgraph`: the oracle."""
    keep = [i for i, a in enumerate(graph.atoms) if 1 <= a.atomic_number <= MAX_ATOMIC_NUMBER]
    dropped = graph.n_atoms - len(keep)
    remap = {old: new for new, old in enumerate(keep)}
    atoms = tuple(graph.atoms[i] for i in keep)
    bonds_kept = [(remap[i], remap[j], t) for i, j, t in graph.bonds if i in remap and j in remap]
    if not atoms:
        range_stage = StageResult("atomic_range", False, f"no atoms remain (dropped {dropped})")
    else:
        range_stage = StageResult("atomic_range", True, f"dropped {dropped} atom(s)")
    deduped = dedup_edges(bonds_kept)
    dedup_stage = StageResult("edge_dedup", True, f"removed {len(bonds_kept) - len(deduped)} edge(s)")
    normalized = tuple(sorted((min(i, j), max(i, j), t) for i, j, t in deduped))
    return MoleculeGraph(atoms=atoms, bonds=normalized), [range_stage, dedup_stage]


def _valence_stage(graph):
    """Stage 3 as `sanitize` wrote it from `valence_check`'s details of every atom: the oracle."""
    try:
        result = valence_check(graph)
    except UnknownElement as exc:
        return StageResult("valence", False, str(exc))
    if result.passed:
        return StageResult("valence", True, "all atoms within allowed valence")
    return StageResult("valence", False, ", ".join(
        f"atom {d.index} (z={d.atomic_number}) order sum {d.order_sum} > {d.limit}" for d in result.failures()
    ))


@st.composite
def raw_graphs(draw):
    """Graphs built directly, with whatever atoms and bonds the constructor takes.

    Atomic numbers include values outside [1, 118] and elements without a
    valence entry; bonds include duplicates, reversed pairs, self-loops and
    indices outside the atom list.
    """
    numbers = draw(st.lists(
        st.sampled_from((6, 6, 6, 7, 8, 16, 1, 9, 17, 15, 5, 2, 11, 118, 0, -4, 119, 300)), max_size=8
    ))
    n = len(numbers)
    bonds = draw(st.lists(
        st.tuples(st.integers(-1, n), st.integers(-1, n), st.sampled_from(list(BondType))), max_size=12
    ))
    if bonds and draw(st.booleans()):
        i, j, t = draw(st.sampled_from(bonds))
        bonds.append((j, i, draw(st.sampled_from(list(BondType)))))
    return MoleculeGraph(atoms=tuple(Atom(z) for z in numbers), bonds=tuple(bonds))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(raw_graphs())
def test_sanitize_property_total_idempotent_and_matches_remap_oracle(graph):
    result = sanitize(graph)
    assert sanitize(graph) == result
    corrected, first_stages = _remap_then_dedup(graph)
    assert result.graph == corrected
    assert result.report.stages[:2] == first_stages
    assert result.report.stage("valence") == _valence_stage(corrected)
    again = sanitize(result.graph)
    assert again.graph == result.graph
    assert [s.passed for s in again.report.stages] == [s.passed for s in result.report.stages]
    assert again.report.stages[2:] == result.report.stages[2:]


@pytest.mark.parametrize("text", ["C(C)(C)(C)(C)C", "O(C)(C)C", "C(C)(C)(C)(C)C(C)(C)(C)(C)C", "CC", "[He]C"])
def test_sanitize_valence_stage_names_each_failing_atom(text):
    result = sanitize(smiles.parse(text))
    assert result.report.stage("valence") == _valence_stage(result.graph)


def test_sanitize_report_stage_order_fixed(rng):
    for text in ("CCO", "c1ccccc1", "C(C)(C)(C)(C)C"):
        res = sanitize(smiles.parse(text))
        assert [s.name for s in res.report.stages] == list(CASCADE_STAGES)


# Each ring-fusion carbon has three aromatic bonds and one double bond in any
# Kekule form, so it takes no hydrogen.
FUSED_AROMATICS = (
    ("c1ccc2ccccc2c1", "C10H8"),  # naphthalene
    ("c1ccc2cc3ccccc3cc2c1", "C14H10"),  # anthracene
    ("Cc1ccc2ccccc2c1", "C11H10"),  # 2-methylnaphthalene
    ("c1ccccc1", "C6H6"),
    ("c1ccncc1", "C5H5N"),
    ("c1ccoc1", "C4H4O"),
)


def hill_formula(graph) -> str:
    hydrogens = sum(d.implicit_hydrogens for d in valence_check(graph).per_atom)
    counts = {"H": hydrogens}
    for atom in graph.atoms:
        counts[atom.symbol] = counts.get(atom.symbol, 0) + 1
    order = ["C", "H"] + sorted(s for s in counts if s not in ("C", "H"))
    return "".join(f"{s}{counts[s] if counts[s] > 1 else ''}" for s in order if counts.get(s))


@pytest.mark.parametrize("text, formula", FUSED_AROMATICS)
def test_fused_and_single_ring_aromatics_sanitize(text, formula):
    result = sanitize(smiles.parse(text))
    assert result.report.final_verdict, result.report.to_dict()
    assert hill_formula(result.graph) == formula


def test_naphthalene_matches_its_kekule_form():
    aromatic = valence_check(smiles.parse("c1ccc2ccccc2c1"))
    kekule = valence_check(smiles.parse("C1=CC=C2C=CC=CC2=C1"))
    assert sorted(d.implicit_hydrogens for d in aromatic.per_atom) == sorted(
        d.implicit_hydrogens for d in kekule.per_atom
    )


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(raw_graphs())
def test_aromaticity_stage_reads_only_the_rings(graph):
    """Stage 4 passes iff every aromatic bond of the corrected graph lies on a valid ring."""
    result = sanitize(graph)
    good = valid_aromatic_bonds(result.graph)
    rings_ok = all((i, j) in good for i, j, t in result.graph.bonds if t is BondType.AROMATIC)
    assert result.report.stage("aromaticity_charge").passed == rings_ok


@pytest.mark.parametrize("text", ["c1cccc1", "c1ccccccc1", "cc"])
def test_non_huckel_aromatics_fail_at_aromaticity(text):
    report = sanitize(smiles.parse(text)).report
    assert next(s.name for s in report.stages if not s.passed) == "aromaticity_charge"
