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

from . import chemrules, numcore, smiles
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

    Rows whose SMILES fail to parse or sanitize, or that no restart of the
    embedding separates, are skipped and counted.  Coordinates of all rows
    are embedded in one `embed_all` call, each with a seed derived from its
    SMILES text, so the result is fully deterministic given the file.
    """
    path = Path(path)
    rows = path.read_text(encoding="utf-8").splitlines()
    parsed: list[tuple[str, str, MoleculeGraph]] = []
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
            result = chemrules.sanitize(smiles.parse(smiles_text))
            if not result.report.final_verdict:
                raise ValueError("failed sanitization")
        except (smiles.SmilesSyntaxError, UnknownElement, ValueError):
            skipped += 1
            continue
        parsed.append((smiles_text, desc_text, result.graph))
    seeds = [zlib.crc32(s.encode("utf-8")) & 0x7FFFFFFF for s, _, _ in parsed]
    embedded = embed_all([g for _, _, g in parsed], seeds)
    molecules: list[tuple[str, frozenset[str], MoleculeGraph]] = []
    for (smiles_text, desc_text, _), graph in zip(parsed, embedded):
        if graph is None:
            skipped += 1
            continue
        descriptors = frozenset(
            t.strip().lower() for t in desc_text.split(";") if t.strip()
        )
        molecules.append((smiles_text, descriptors, graph))
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
CONVERGED_FORCE = 1e-4
EMBED_ATTEMPTS = 5
RESTART_SEED_STRIDE = 7919


def embed_coordinates(graph: MoleculeGraph, seed: int) -> MoleculeGraph:
    """Assign positions by relaxing bonded springs plus short-range repulsion.

    A batch of one through `embed_all`.  Deterministic given the seed; the
    centroid is moved to the origin.  Raises EmbeddingFailed when no restart
    reaches the minimum separation within the iteration budget.
    """
    (embedded,) = embed_all([graph], [seed])
    if embedded is None:
        raise EmbeddingFailed(f"could not separate {graph.n_atoms} atoms by {MIN_SEPARATION} units")
    return embedded


def embed_all(graphs: Sequence[MoleculeGraph], seeds: Sequence[int]) -> list[MoleculeGraph | None]:
    """`embed_coordinates` of every graph, relaxed together; None where it would raise.

    Attempt a of graph k starts from normal positions drawn by
    `default_rng(seeds[k] + RESTART_SEED_STRIDE * a)`.  Each attempt relaxes
    all graphs still waiting in one iteration loop, and a graph whose closest
    atoms end nearer than MIN_SEPARATION waits for the next attempt.  Each
    graph gets the bits it gets when embedded alone.
    """
    out: list[MoleculeGraph | None] = [None] * len(graphs)
    waiting = []
    for k, graph in enumerate(graphs):
        if graph.n_atoms == 0:
            out[k] = graph
        elif graph.n_atoms == 1:
            out[k] = MoleculeGraph(atoms=(Atom(graph.atoms[0].atomic_number, (0.0, 0.0, 0.0)),), bonds=())
        else:
            waiting.append(k)
    for attempt in range(EMBED_ATTEMPTS):
        by_size: dict[int, list[int]] = {}
        for k in waiting:
            by_size.setdefault(graphs[k].n_atoms, []).append(k)
        groups = [
            _SizeGroup(
                np.stack([_start_positions(n, seeds[k] + RESTART_SEED_STRIDE * attempt) for k in members]),
                [graphs[k].bonds for k in members],
            )
            for n, members in by_size.items()
        ]
        _relax(groups)
        waiting = []
        for members, group in zip(by_size.values(), groups):
            separated = _min_separations(group.final) >= MIN_SEPARATION
            for k, pos, ok in zip(members, group.final, separated):
                if ok:
                    out[k] = _centred(graphs[k], pos)
                else:
                    waiting.append(k)
    return out


def _start_positions(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 0.8 * max(1.0, n ** (1.0 / 3.0)), size=(n, 3))


def _centred(graph: MoleculeGraph, pos: np.ndarray) -> MoleculeGraph:
    pos = pos - pos.mean(axis=0, keepdims=True)
    atoms = tuple([Atom(a.atomic_number, tuple(pos[i])) for i, a in enumerate(graph.atoms)])
    return MoleculeGraph(atoms=atoms, bonds=graph.bonds)


def _pair_geometry(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Differences r_i - r_j [M, n, n, 3] and distances [M, n, n] within each molecule."""
    diff = pos[:, :, None, :] - pos[:, None, :, :]
    return diff, np.sqrt((diff**2).sum(axis=3))


def _min_separations(pos: np.ndarray) -> np.ndarray:
    """Each molecule's closest-pair distance, [M] from [M, n, 3] with n >= 2."""
    upper = np.triu_indices(pos.shape[1], k=1)
    return _pair_geometry(pos)[1][:, upper[0], upper[1]].min(axis=1)


class _SizeGroup:
    """Molecules of one atom count relaxed as one [M, n, 3] array.

    `final` holds every molecule's relaxed positions once `_relax` returns.
    The springs of all molecules still moving share one scatter-add over the
    flat atom index, bond i ends first, then bond j ends.  Every atom belongs
    to one molecule, so its terms add in the order `np.add.at` over that
    molecule's bonds added them.
    """

    def __init__(self, starts: np.ndarray, bonds: Sequence[Sequence[tuple]]):
        self.final = np.empty_like(starts)
        self.pos = starts
        self.moving = np.arange(starts.shape[0])
        self.owner = np.repeat(self.moving, [len(b) for b in bonds])
        self.ends = np.asarray([(i, j) for mol in bonds for i, j, _ in mol], dtype=np.int64).reshape(-1, 2)
        self._index_springs()

    def _index_springs(self) -> None:
        atoms = self.owner[:, None] * self.pos.shape[1] + self.ends
        self.bond_i, self.bond_j = atoms[:, 0], atoms[:, 1]
        self.spring_index = numcore.scatter_index(np.concatenate([self.bond_i, self.bond_j]), 3)

    def advance(self, step: float) -> bool:
        """One force step; False once no molecule is left moving.

        A molecule whose largest force component is below CONVERGED_FORCE
        keeps the positions the forces were measured at and stops.
        """
        m, n, _ = self.pos.shape
        flat = self.pos.reshape(-1, 3)
        # Bonded springs toward the rest length.
        rel = flat[self.bond_i] - flat[self.bond_j]
        dist = np.maximum(np.sqrt((rel**2).sum(axis=1, keepdims=True)), 1e-9)
        pull = (SPRING_REST_LENGTH - dist) * rel / dist
        forces = numcore.scatter_add(self.spring_index, np.concatenate([pull, -pull]), (m * n, 3)).reshape(m, n, 3)
        # All-pairs repulsion below the contact radius.
        diff, dist = _pair_geometry(self.pos)
        dist[:, np.arange(n), np.arange(n)] = np.inf
        overlap = np.maximum(REPULSION_RADIUS - dist, 0.0)
        push = (overlap / np.maximum(dist, 1e-9))[..., None] * diff
        forces += push.sum(axis=2)
        moving = ~(np.abs(forces).max(axis=(1, 2)) < CONVERGED_FORCE)
        if not moving.all():
            self._stop(moving)
            forces = forces[moving]
        self.pos = self.pos + step * forces
        return self.moving.size > 0

    def _stop(self, moving: np.ndarray) -> None:
        self.final[self.moving[~moving]] = self.pos[~moving]
        kept = moving[self.owner]
        self.owner = (np.cumsum(moving) - 1)[self.owner[kept]]
        self.ends = self.ends[kept]
        self.pos = self.pos[moving]
        self.moving = self.moving[moving]
        self._index_springs()

    def finish(self) -> None:
        """Record where the molecules still moving stand."""
        self.final[self.moving] = self.pos


def _relax(groups: list[_SizeGroup]) -> None:
    """Step every group in one loop with a shared step size, until all stop or the budget ends."""
    step = 0.1
    for iteration in range(MAX_RELAX_ITERATIONS):
        groups = [g for g in groups if g.advance(step)]
        if not groups:
            return
        if iteration % 500 == 499:
            step = max(step * 0.7, 0.01)
    for g in groups:
        g.finish()


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
