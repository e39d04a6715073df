"""Dataset ingestion: SMILES + multi-label scent descriptors, splits, geometry.

The on-disk format is a headered CSV of `smiles,descriptor1;descriptor2;...`.
Each parsed molecule is sanitized and given 3D coordinates by a force-directed
spring relaxation (bonded rest length 1.5 units, short-range repulsion below
1.0), which is all the distance-based model consumes.  `embed_all` relaxes the
atoms of every molecule of a corpus together, as the columns of one array.
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
    the atoms of all graphs still waiting as one flat array (`_FlatRelaxation`),
    and a graph whose closest atoms end nearer than MIN_SEPARATION waits for
    the next attempt.  Each graph gets the bits it gets when embedded alone.
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
        if not waiting:
            break
        relaxation = _FlatRelaxation(
            [_start_positions(graphs[k].n_atoms, seeds[k] + RESTART_SEED_STRIDE * attempt) for k in waiting],
            [graphs[k].bonds for k in waiting],
        )
        final = relaxation.run()
        separated = relaxation.min_separations() >= MIN_SEPARATION
        # Rows [n, 3] in C order, so that centring sums each molecule's atoms as the oracle does.
        for k, pos, ok in zip(waiting, np.split(final.T.copy(), relaxation.offsets[1:]), separated):
            if ok:
                out[k] = _centred(graphs[k], pos)
        waiting = [k for k, ok in zip(waiting, separated) if not ok]
    return out


def _start_positions(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 0.8 * max(1.0, n ** (1.0 / 3.0)), size=(n, 3))


def _centred(graph: MoleculeGraph, pos: np.ndarray) -> MoleculeGraph:
    pos = pos - pos.mean(axis=0, keepdims=True)
    atoms = tuple([Atom(a.atomic_number, tuple(pos[i])) for i, a in enumerate(graph.atoms)])
    return MoleculeGraph(atoms=atoms, bonds=graph.bonds)


def _pair_geometry(pos: np.ndarray, first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Differences r_first - r_second [3, K] and distances [K] of coordinate-major positions [3, A].

    The squares add x, y, then z, as numpy sums a row of three.
    """
    diff = pos[:, first] - pos[:, second]
    sq = diff**2
    return diff, np.sqrt(sq[0] + sq[1] + sq[2])


class _FlatRelaxation:
    """The atoms of many molecules relaxed as the columns of one [3, A] array.

    Molecule m, of n >= 2 atoms, first owns the n columns from `offsets[m]`;
    the molecules still moving own the columns from `starts`.
    Bonds and each molecule's pairs i < j, in lexicographic order, are held
    as column indices.  An atom's spring terms add in bond order, i ends
    first, then j ends; its repulsion terms add in partner order: -push of
    each pair (i, b), then +push of each pair (b, j).  That is the order in
    which the one-molecule loop sums them.  The pairs it adds that this class
    skips, those at least REPULSION_RADIUS apart, push by exact zeros.  The
    spring sums start at +0.0, so the sign of a zero push never shows.

    A molecule whose largest force component is below CONVERGED_FORCE keeps
    the positions the forces were measured at and leaves every array.
    """

    def __init__(self, positions: list[np.ndarray], bonds: list[Sequence[tuple]]):
        self.sizes = np.asarray([p.shape[0] for p in positions], dtype=np.int64)
        self.offsets = self.starts = np.cumsum(self.sizes) - self.sizes
        self.pos = np.ascontiguousarray(np.concatenate(positions).T)
        self.final = np.empty_like(self.pos)
        self.atoms = np.arange(self.pos.shape[1])
        ends = [np.asarray([(i, j) for i, j, _ in mol], dtype=np.int64).reshape(-1, 2) for mol in bonds]
        self.bond_i, self.bond_j = np.concatenate([e + o for e, o in zip(ends, self.offsets)]).T
        pairs = [np.stack(np.triu_indices(n, k=1)) + o for n, o in zip(self.sizes.tolist(), self.offsets)]
        self.pair_i, self.pair_j = self.first_pairs = np.concatenate(pairs, axis=1)
        counts = np.asarray([p.shape[1] for p in pairs])
        self.pair_offsets = np.cumsum(counts) - counts
        self._index()

    def _index(self) -> None:
        """Flat [3, A] positions of the spring terms, and each pair's j end then i end."""
        self.columns = np.arange(3)[:, None] * self.pos.shape[1]
        self.spring_index = (self.columns + np.concatenate([self.bond_i, self.bond_j])).reshape(-1)
        self.push_ends = np.concatenate([self.pair_j, self.pair_i])

    def run(self) -> np.ndarray:
        """Step until every molecule stops or the budget ends; every molecule's positions [3, A]."""
        step = 0.1
        for iteration in range(MAX_RELAX_ITERATIONS):
            if not self.advance(step):
                return self.final
            if iteration % 500 == 499:
                step = max(step * 0.7, 0.01)
        self.final[:, self.atoms] = self.pos
        return self.final

    def advance(self, step: float) -> bool:
        """One force step; False once no molecule is left moving."""
        pos = self.pos
        shape = pos.shape
        # Bonded springs toward the rest length.
        rel, dist = _pair_geometry(pos, self.bond_i, self.bond_j)
        dist = np.maximum(dist, 1e-9)
        pull = (SPRING_REST_LENGTH - dist) * rel / dist
        forces = numcore.scatter_add(self.spring_index, np.concatenate([pull, -pull], axis=1), shape)
        # Repulsion between the pairs nearer than the contact radius; NaN counts as near.
        diff, dist = _pair_geometry(pos, self.pair_i, self.pair_j)
        near = ~(dist >= REPULSION_RADIUS)
        dist = dist[near]
        push = ((REPULSION_RADIUS - dist) / np.maximum(dist, 1e-9)) * diff[:, near]
        index = (self.columns + self.push_ends[np.concatenate([near, near])]).reshape(-1)
        forces += numcore.scatter_add(index, np.concatenate([-push, push], axis=1), shape)
        peak = np.maximum.reduceat(np.abs(forces).max(axis=0), self.starts)
        moving = ~(peak < CONVERGED_FORCE)
        if not moving.all():
            kept = self._stop(moving)
            forces = forces[:, kept]
        self.pos = self.pos + step * forces
        return self.sizes.size > 0

    def _stop(self, moving: np.ndarray) -> np.ndarray:
        """Record the stopped molecules' positions, drop their atoms; the kept-atom mask."""
        kept = np.repeat(moving, self.sizes)
        self.final[:, self.atoms[~kept]] = self.pos[:, ~kept]
        renumber = np.cumsum(kept) - 1
        bonds = kept[self.bond_i]
        self.bond_i, self.bond_j = renumber[self.bond_i[bonds]], renumber[self.bond_j[bonds]]
        pairs = kept[self.pair_i]
        self.pair_i, self.pair_j = renumber[self.pair_i[pairs]], renumber[self.pair_j[pairs]]
        self.pos = self.pos[:, kept]
        self.atoms = self.atoms[kept]
        self.sizes = self.sizes[moving]
        self.starts = np.cumsum(self.sizes) - self.sizes
        self._index()
        return kept

    def min_separations(self) -> np.ndarray:
        """Each molecule's closest-pair distance [M] in the positions `run` returned."""
        return np.minimum.reduceat(_pair_geometry(self.final, *self.first_pairs)[1], self.pair_offsets)


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
