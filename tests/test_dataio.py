import tempfile
import zlib
from pathlib import Path

import embedding_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scentgen import chemrules, dataio, smiles
from scentgen.dataio import (
    EmbeddingFailed,
    EmptyDataset,
    OdourVocabulary,
    TooFewSamples,
    embed_coordinates,
    load_corpus,
    load_csv,
    multi_hot,
    split_80_20,
    to_training_examples,
)
from scentgen.molgraph import Atom, BondType, UnknownElement, new_graph, pairwise_distance


def write_csv(tmp_path, rows):
    path = tmp_path / "data.csv"
    path.write_text("smiles,descriptors\n" + "\n".join(rows) + "\n")
    return path


# ------------------------------------------------------------------ loading


def test_load_single_row(tmp_path):
    path = write_csv(tmp_path, ["CCO,floral;fruity"])
    vocab, mols = load_csv(path)
    assert len(mols) == 1
    assert vocab.terms == ("floral", "fruity")
    assert multi_hot(mols[0].descriptors, vocab).tolist() == [1.0, 1.0]


def test_load_skips_bad_smiles(tmp_path, caplog):
    path = write_csv(tmp_path, ["C(C,floral", "CCO,fruity"])
    with caplog.at_level("WARNING"):
        vocab, mols = load_csv(path)
    assert len(mols) == 1
    assert "skipped 1" in caplog.text


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("smiles,descriptors\n")
    with pytest.raises(EmptyDataset):
        load_csv(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


def test_load_is_deterministic(tmp_path):
    path = write_csv(tmp_path, ["CCO,floral", "CCC,waxy"])
    _, a = load_csv(path)
    _, b = load_csv(path)
    assert [m.graph for m in a] == [m.graph for m in b]


def test_bundled_dataset_loads(fixture_dataset):
    vocab, mols = fixture_dataset
    assert len(mols) >= 200
    assert len(vocab) >= 20
    # labels all come from the vocabulary
    for mol in mols:
        assert all(vocab.index(t) is not None for t in mol.descriptors)


csv_rows = st.one_of(
    st.just(""),
    st.builds(
        "".join,
        st.tuples(
            st.one_of(
                st.sampled_from(["CCO", "c1ccccc1", "CC(=O)OC", "O", "C%12CC%12", "C(", "Xx"]),
                st.text(alphabet="CcNnOS()=#1%; \u00b2\u0661\uff11", max_size=10),
            ),
            st.sampled_from([",", ", ", ",,", ";", ""]),
            st.text(alphabet="fruity sweet;,\t\u0661", max_size=12),
        ),
    ),
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.lists(csv_rows, max_size=8))
def test_load_returns_separated_molecules_or_raises_empty_dataset(rows):
    """Any rows of SMILES characters, commas, semicolons and blanks: molecules that embed, or EmptyDataset."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text("smiles,descriptors\n" + "\n".join(rows) + "\n", encoding="utf-8")
        try:
            vocab, mols = load_csv(path)
        except EmptyDataset:
            return
    assert mols and all(vocab.index(t) is not None for mol in mols for t in mol.descriptors)
    for mol in mols:
        coords = mol.graph.coords()
        assert np.isfinite(coords).all()
        upper = np.triu_indices(len(coords), k=1)
        assert (np.linalg.norm(coords[:, None] - coords[None], axis=2)[upper] >= dataio.MIN_SEPARATION).all()


def test_corpus_loader(fixture_corpus):
    assert len(fixture_corpus) >= 190
    assert smiles.canonicalize(smiles.parse("CCO")) in fixture_corpus


def test_corpus_loader_canonicalizes_crowded_symmetric_row(tmp_path):
    crowded = "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C"  # tetra-tert-butylmethane
    path = write_csv(tmp_path, ["CCO,fruity", f"{crowded},camphor"])
    corpus = load_corpus(path)
    assert corpus == {smiles.canonicalize(smiles.parse("CCO")), smiles.canonicalize(smiles.parse(crowded))}


# ---------------------------------------------------------------- multi-hot


def test_multi_hot_empty():
    vocab = OdourVocabulary.from_terms(["floral", "musky"])
    assert multi_hot(set(), vocab).tolist() == [0.0, 0.0]


def test_multi_hot_all_terms():
    vocab = OdourVocabulary.from_terms(["floral", "musky"])
    assert multi_hot({"floral", "musky"}, vocab).tolist() == [1.0, 1.0]


def test_multi_hot_unknown_dropped(caplog):
    vocab = OdourVocabulary.from_terms(["floral", "musky"])
    with caplog.at_level("WARNING"):
        y = multi_hot({"floral", "unknown_term"}, vocab)
    assert y.tolist() == [1.0, 0.0]
    assert "1 unknown" in caplog.text


# -------------------------------------------------------------------- split


def test_split_ratio_and_determinism(fixture_dataset):
    _, mols = fixture_dataset
    subset = mols[:10]
    s1 = split_80_20(subset, seed=42)
    s2 = split_80_20(subset, seed=42)
    assert len(s1.train) == 8 and len(s1.test) == 2
    assert [m.smiles for m in s1.train] == [m.smiles for m in s2.train]


def test_split_five_molecules(fixture_dataset):
    _, mols = fixture_dataset
    split = split_80_20(mols[:5], seed=0)
    assert len(split.train) == 4 and len(split.test) == 1


def test_split_too_few(fixture_dataset):
    _, mols = fixture_dataset
    with pytest.raises(TooFewSamples):
        split_80_20(mols[:4], seed=0)


def test_split_disjoint_all_sizes(fixture_dataset, rng):
    _, mols = fixture_dataset
    for n in (5, 9, 16, 50, len(mols)):
        split = split_80_20(mols[:n], seed=int(rng.integers(1000)))
        train_ids = {id(m) for m in split.train}
        test_ids = {id(m) for m in split.test}
        assert not train_ids & test_ids
        assert len(split.train) + len(split.test) == n
        assert abs(len(split.train) - 0.8 * n) <= 1


# ---------------------------------------------------------------- embedding


def test_embed_single_atom_origin():
    g = smiles.parse("C")
    out = embed_coordinates(g, seed=1)
    assert out.atoms[0].position == (0.0, 0.0, 0.0)


def test_embed_bonded_pair_rest_length():
    g = smiles.parse("CC")
    out = embed_coordinates(g, seed=3)
    assert 1.3 <= pairwise_distance(out, 0, 1) <= 1.7


def test_embed_benzene_symmetric():
    g = smiles.parse("c1ccccc1")
    out = embed_coordinates(g, seed=5)
    dists = [pairwise_distance(out, i, j) for i, j, _ in out.bonds]
    assert max(dists) / min(dists) < 1.1


def test_embed_min_separation(fixture_dataset):
    _, mols = fixture_dataset
    for mol in mols[::17]:
        coords = mol.graph.coords()
        n = coords.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                assert np.linalg.norm(coords[i] - coords[j]) >= 0.5


def test_embed_centroid_at_origin():
    g = smiles.parse("CCCCO")
    out = embed_coordinates(g, seed=11)
    assert np.abs(out.coords().mean(axis=0)).max() < 1e-9


def test_embed_deterministic():
    g = smiles.parse("CCC(C)O")
    a = embed_coordinates(g, seed=8)
    b = embed_coordinates(g, seed=8)
    assert a == b
    c = embed_coordinates(g, seed=9)
    assert a != c


# ------------------------------------------------- batched against the oracle


def same_bits(got, want):
    """Equal graphs whose coordinates have the same bytes; None matches only None."""
    if got is None or want is None:
        return got is want
    return got == want and got.coords().tobytes() == want.coords().tobytes()


def oracle_or_none(graph, seed):
    try:
        return oracle.embed_coordinates(graph, seed)
    except EmbeddingFailed:
        return None


def test_corpus_coordinates_match_the_one_molecule_oracle(fixture_dataset):
    """Every bundled row embeds to the bits the per-molecule loop gave it."""
    _, mols = fixture_dataset
    expected = []
    for line in dataio.bundled_dataset_path().read_text(encoding="utf-8").splitlines()[1:]:
        text = line.partition(",")[0].strip()
        try:
            result = chemrules.sanitize(smiles.parse(text))
        except (UnknownElement, ValueError):
            continue
        if result.report.final_verdict:
            expected.append((text, oracle_or_none(result.graph, zlib.crc32(text.encode("utf-8")) & 0x7FFFFFFF)))
    embedded = [(text, want) for text, want in expected if want is not None]
    assert [m.smiles for m in mols] == [text for text, _ in embedded]
    for mol, (_, want) in zip(mols, embedded):
        assert same_bits(mol.graph, want), mol.smiles


def collapse_starts(monkeypatch, collapsed):
    """Start every atom at the origin where `collapsed(n, seed)`: no force moves it, so it fails separation."""
    drawn = []
    start = dataio._start_positions

    def patched(n, seed):
        drawn.append(seed)
        return np.zeros((n, 3)) if collapsed(n, seed) else start(n, seed)

    monkeypatch.setattr(dataio, "_start_positions", patched)
    return drawn


def test_restarted_molecules_take_the_next_attempts_seed(monkeypatch):
    texts = ("CCO", "CCC", "c1ccccc1", "CC(C)O", "CCCC", "C", "CC")
    graphs = [smiles.parse(t) for t in texts]
    seeds = [11, 12, 13, 14, 15, 16, 17]
    failing_first = {12, 14, 17}
    drawn = collapse_starts(monkeypatch, lambda n, seed: seed in failing_first)
    out = dataio.embed_all(graphs, seeds)
    assert sorted(drawn) == sorted([11, 12, 13, 14, 15, 17] + [s + 7919 for s in sorted(failing_first)])
    for text, graph, seed, got in zip(texts, graphs, seeds, out):
        first_good = seed + 7919 if seed in failing_first else seed
        assert same_bits(got, oracle.embed_coordinates(graph, first_good)), text


def test_row_that_no_restart_separates_is_skipped(monkeypatch, tmp_path, caplog):
    drawn = collapse_starts(monkeypatch, lambda n, seed: n == 4)
    path = write_csv(tmp_path, ["CCO,fruity", "CCCC,waxy", "C(C,floral", "CC(C)CO,sweet"])
    with caplog.at_level("WARNING"):
        vocab, mols = load_csv(path)
    assert [m.smiles for m in mols] == ["CCO", "CC(C)CO"]
    assert vocab.terms == ("fruity", "sweet")
    assert "skipped 2" in caplog.text
    butane_seed = zlib.crc32(b"CCCC") & 0x7FFFFFFF
    assert [s for s in drawn if (s - butane_seed) % 7919 == 0] == [butane_seed + 7919 * a for a in range(5)]
    for mol in mols:
        want = oracle.embed_coordinates(smiles.parse(mol.smiles), zlib.crc32(mol.smiles.encode()) & 0x7FFFFFFF)
        assert same_bits(mol.graph, want)
    with pytest.raises(EmbeddingFailed):
        embed_coordinates(smiles.parse("CCCC"), seed=3)


@st.composite
def skeletons(draw):
    """A carbon graph of 1-20 atoms: a tree (chains and branches), sometimes closed into a ring,
    sometimes split into a second fragment with no bond to the first (an isolated atom has no springs)."""
    n = draw(st.integers(1, 20))
    split = draw(st.integers(1, n - 1)) if n >= 2 and draw(st.booleans()) else n
    bonds = {(draw(st.integers(0 if i < split else split, i - 1)), i) for i in range(1, n) if i != split}
    if split >= 3 and draw(st.booleans()):
        bonds.add(tuple(sorted(draw(st.lists(st.integers(0, split - 1), min_size=2, max_size=2, unique=True)))))
    return new_graph([Atom(6)] * n, [(i, j, BondType.SINGLE) for i, j in sorted(bonds)])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.lists(st.tuples(skeletons(), st.integers(0, 2**31 - 1)), min_size=1, max_size=8))
def test_batched_embedding_matches_the_oracle_one_by_one(cases):
    graphs = [g for g, _ in cases]
    seeds = [s for _, s in cases]
    for got, graph, seed in zip(dataio.embed_all(graphs, seeds), graphs, seeds):
        assert same_bits(got, oracle_or_none(graph, seed))


def test_molecules_that_stop_on_the_same_iteration_all_leave_together():
    graph = smiles.parse("CC(C)CC(=O)OCC")
    out = dataio.embed_all([graph] * 4, [29] * 4)
    want = oracle.embed_coordinates(graph, 29)
    assert all(same_bits(got, want) for got in out)


def test_iteration_budget_ends_the_relaxation_of_molecules_still_moving(monkeypatch):
    """With 40 iterations no molecule converges: each keeps its position after the last step.

    Every third molecule's first start is collapsed, so it stops at once, fails
    separation and relaxes again from the second attempt's seed.
    """
    texts = ("CCO", "CCCC", "c1ccccc1", "CC(C)CC(=O)OCC", "CCCCCCCCCC", "OCC1CCCCC1", "CC(C)(C)C(C)(C)C")
    graphs = [smiles.parse(t) for t in texts] * 3
    seeds = list(range(100, 100 + len(graphs)))
    unbounded = dataio.embed_all(graphs, seeds)
    monkeypatch.setattr(dataio, "MAX_RELAX_ITERATIONS", 40)
    monkeypatch.setattr(oracle, "MAX_RELAX_ITERATIONS", 40)
    failing_first = set(seeds[::3])
    drawn = collapse_starts(monkeypatch, lambda n, seed: seed in failing_first)
    out = dataio.embed_all(graphs, seeds)
    assert sorted(drawn) == sorted(seeds + [s + 7919 for s in failing_first])
    for got, before, graph, seed in zip(out, unbounded, graphs, seeds):
        assert same_bits(got, oracle.embed_coordinates(graph, seed + 7919 if seed in failing_first else seed))
        assert got.coords().tobytes() != before.coords().tobytes()


# ------------------------------------------------------------ training prep
# ------------------------------------------------------------ training prep


def test_to_training_examples(fixture_dataset):
    vocab, mols = fixture_dataset
    examples = to_training_examples(mols[:3], vocab)
    for ex, mol in zip(examples, mols[:3]):
        assert ex.features.shape == (mol.graph.n_atoms, 1)
        assert ex.coords.shape == (mol.graph.n_atoms, 3)
        assert len(ex.bond_edges) == len(mol.graph.bonds)
        assert ex.condition.shape == (len(vocab),)


def test_corpus_molecules_recanonicalize(fixture_dataset):
    """Each stored graph canonicalizes to the same string as its source SMILES."""
    _, mols = fixture_dataset
    for mol in mols[::9]:
        assert smiles.canonicalize(mol.graph) == smiles.canonicalize(smiles.parse(mol.smiles))
