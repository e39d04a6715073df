"""Dataset ingestion: SMILES + multi-label scent descriptors, splits, geometry.

The on-disk format is a headered CSV of `smiles,descriptor1;descriptor2;...`.
Each parsed molecule is sanitized and given 3D coordinates by a force-directed
spring relaxation (bonded rest length 1.5 units, short-range repulsion below
1.0), which is all the distance-based model consumes.
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import chemrules, smiles
from .diffusion import BOND_CLASS_INDEX, EmptyDataset, TrainingExample
from .molgraph import Atom, MoleculeGraph, UnknownElement

logger = logging.getLogger(__name__)

BUNDLED_DATASET = "mini_scents.csv"


class TooFewSamples(ValueError):
    """Splitting needs at least five molecules."""


class EmbeddingFailed(RuntimeError):
    """Relaxation could not reach the minimum-separation constraint."""


@dataclass(frozen=True)
class OdourVocabulary:
    """Sorted unique lowercase descriptor terms with an index lookup."""

    terms: tuple[str, ...]

    @classmethod
    def from_terms(cls, terms: Iterable[str]) -> "OdourVocabulary":
        return cls(tuple(sorted({t.strip().lower() for t in terms if t.strip()})))

    def __len__(self) -> int:
        return len(self.terms)

    def index(self, term: str) -> int | None:
        return self._lookup().get(term)

    def _lookup(self) -> dict[str, int]:
        cache = self.__dict__.get("_index_cache")
        if cache is None:
            cache = {t: i for i, t in enumerate(self.terms)}
            object.__setattr__(self, "_index_cache", cache)
        return cache


@dataclass(frozen=True)
class LabeledMolecule:
    smiles: str
    descriptors: frozenset[str]
    graph: MoleculeGraph


@dataclass(frozen=True)
class DataSplit:
    train: tuple[LabeledMolecule, ...]
    test: tuple[LabeledMolecule, ...]
    seed: int


def bundled_dataset_path() -> Path:
    return Path(str(resources.files("scentgen").joinpath("data", BUNDLED_DATASET)))


def multi_hot(descriptors: Iterable[str], vocab: OdourVocabulary) -> np.ndarray:
    """Binary vector over the vocabulary; unknown terms are dropped with a warning."""
    y = np.zeros(len(vocab), dtype=np.float64)
    unknown = []
    for term in descriptors:
        term = term.strip().lower()
        if not term:
            continue
        idx = vocab.index(term)
        if idx is None:
            unknown.append(term)
        else:
            y[idx] = 1.0
    if unknown:
        logger.warning("dropped %d unknown descriptor(s): %s", len(unknown), sorted(unknown))
    return y


def load_csv(path: str | Path) -> tuple[OdourVocabulary, list[LabeledMolecule]]:
    """Read the corpus, skipping malformed rows, and build the vocabulary.

    Rows whose SMILES fail to parse or sanitize are skipped and counted.
    Coordinates are embedded with a per-row seed derived from the SMILES text,
    so the result is fully deterministic given the file.
    """
    path = Path(path)
    rows = path.read_text(encoding="utf-8").splitlines()
    molecules: list[tuple[str, frozenset[str], MoleculeGraph]] = []
    skipped = 0
    for line_no, line in enumerate(rows):
        line = line.strip()
        if not line or line_no == 0:  # header row
            continue
        if "," not in line:
            skipped += 1
            continue
        smiles_text, _, desc_text = line.partition(",")
        smiles_text = smiles_text.strip()
        try:
            graph = smiles.parse(smiles_text)
            result = chemrules.sanitize(graph)
            if not result.report.final_verdict:
                raise ValueError("failed sanitization")
            seed = zlib.crc32(smiles_text.encode("utf-8")) & 0x7FFFFFFF
            embedded = embed_coordinates(result.graph, seed)
        except (smiles.SmilesSyntaxError, UnknownElement, ValueError, EmbeddingFailed):
            skipped += 1
            continue
        descriptors = frozenset(
            t.strip().lower() for t in desc_text.split(";") if t.strip()
        )
        molecules.append((smiles_text, descriptors, embedded))
    if skipped:
        logger.warning("skipped %d unusable row(s) in %s", skipped, path)
    if not molecules:
        raise EmptyDataset(f"no valid molecules in {path}")
    vocab = OdourVocabulary.from_terms(t for _, descs, _ in molecules for t in descs)
    labeled = [LabeledMolecule(s, d, g) for s, d, g in molecules]
    return vocab, labeled


def load_corpus(path: str | Path) -> frozenset[str]:
    """Canonical SMILES of every parseable corpus row (no geometry, no labels)."""
    canon: set[str] = set()
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines()):
        line = line.strip()
        if not line or line_no == 0:
            continue
        smiles_text = line.partition(",")[0].strip()
        try:
            canon.add(smiles.canonicalize(smiles.parse(smiles_text)))
        except (smiles.SmilesSyntaxError, UnknownElement):
            continue
    return frozenset(canon)


def split_80_20(molecules: Sequence[LabeledMolecule], seed: int) -> DataSplit:
    """Deterministic shuffled split, first 80% to train."""
    if len(molecules) < 5:
        raise TooFewSamples(f"need at least 5 molecules, got {len(molecules)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(molecules))
    n_train = round(0.8 * len(molecules))
    train = tuple(molecules[i] for i in order[:n_train])
    test = tuple(molecules[i] for i in order[n_train:])
    return DataSplit(train=train, test=test, seed=seed)


SPRING_REST_LENGTH = 1.5
REPULSION_RADIUS = 1.0
MIN_SEPARATION = 0.5
MAX_RELAX_ITERATIONS = 10_000


def embed_coordinates(graph: MoleculeGraph, seed: int) -> MoleculeGraph:
    """Assign positions by relaxing bonded springs plus short-range repulsion.

    Deterministic given the seed; the centroid is moved to the origin.  Raises
    EmbeddingFailed when no restart reaches the minimum separation within the
    iteration budget.
    """
    n = graph.n_atoms
    if n == 0:
        return graph
    if n == 1:
        return MoleculeGraph(atoms=(Atom(graph.atoms[0].atomic_number, (0.0, 0.0, 0.0)),), bonds=())

    bonds = [(i, j) for i, j, _ in graph.bonds]
    for attempt in range(5):
        rng = np.random.default_rng(seed + 7919 * attempt)
        pos = rng.normal(0.0, 0.8 * max(1.0, n ** (1.0 / 3.0)), size=(n, 3))
        pos = _relax(pos, bonds)
        if _min_separation(pos) >= MIN_SEPARATION:
            pos -= pos.mean(axis=0, keepdims=True)
            atoms = tuple(
                Atom(a.atomic_number, tuple(pos[i])) for i, a in enumerate(graph.atoms)
            )
            return MoleculeGraph(atoms=atoms, bonds=graph.bonds)
    raise EmbeddingFailed(f"could not separate {n} atoms by {MIN_SEPARATION} units")


def _min_separation(pos: np.ndarray) -> float:
    n = pos.shape[0]
    if n < 2:
        return np.inf
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return float(dist[np.triu_indices(n, k=1)].min())


def _relax(pos: np.ndarray, bonds: list[tuple[int, int]]) -> np.ndarray:
    n = pos.shape[0]
    bond_i = np.asarray([b[0] for b in bonds], dtype=np.int64)
    bond_j = np.asarray([b[1] for b in bonds], dtype=np.int64)
    step = 0.1
    for iteration in range(MAX_RELAX_ITERATIONS):
        forces = np.zeros_like(pos)
        # Bonded springs toward the rest length.
        if len(bonds):
            rel = pos[bond_i] - pos[bond_j]
            dist = np.maximum(np.sqrt((rel**2).sum(axis=1, keepdims=True)), 1e-9)
            pull = (SPRING_REST_LENGTH - dist) * rel / dist
            np.add.at(forces, bond_i, pull)
            np.add.at(forces, bond_j, -pull)
        # All-pairs repulsion below the contact radius.
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        overlap = np.maximum(REPULSION_RADIUS - dist, 0.0)
        push = (overlap / np.maximum(dist, 1e-9))[:, :, None] * diff
        forces += push.sum(axis=1)
        max_force = float(np.abs(forces).max())
        if max_force < 1e-4:
            break
        pos = pos + step * forces
        if iteration % 500 == 499:
            step = max(step * 0.7, 0.01)
    return pos


def to_training_examples(
    molecules: Sequence[LabeledMolecule], vocab: OdourVocabulary
) -> list[TrainingExample]:
    """Package molecules for the training loop."""
    out = []
    for mol in molecules:
        g = mol.graph
        edges = tuple((i, j) for i, j, _ in g.bonds)
        labels = np.asarray([BOND_CLASS_INDEX[t] for _, _, t in g.bonds], dtype=np.int64)
        out.append(
            TrainingExample(
                features=g.atomic_numbers().astype(np.float64).reshape(-1, 1),
                coords=g.coords(),
                bond_edges=edges,
                bond_labels=labels,
                condition=multi_hot(mol.descriptors, vocab),
            )
        )
    return out
