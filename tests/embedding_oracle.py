"""The spring embedding one molecule at a time, as `dataio` ran it before batching.

`dataio.embed_all` relaxes every molecule of a batch in one shared iteration
loop.  This is the loop it replaced: one molecule, one restart at a time.
The tests run both and require the same bits in every coordinate.
"""

from __future__ import annotations

import numpy as np

from scentgen.dataio import (
    MAX_RELAX_ITERATIONS,
    MIN_SEPARATION,
    REPULSION_RADIUS,
    SPRING_REST_LENGTH,
    EmbeddingFailed,
)
from scentgen.molgraph import Atom, MoleculeGraph


def embed_coordinates(graph: MoleculeGraph, seed: int) -> MoleculeGraph:
    """Positions from bonded springs plus short-range repulsion, centred; five restarts."""
    n = graph.n_atoms
    if n == 0:
        return graph
    if n == 1:
        return MoleculeGraph(atoms=(Atom(graph.atoms[0].atomic_number, (0.0, 0.0, 0.0)),), bonds=())

    bonds = [(i, j) for i, j, _ in graph.bonds]
    for attempt in range(5):
        rng = np.random.default_rng(seed + 7919 * attempt)
        pos = rng.normal(0.0, 0.8 * max(1.0, n ** (1.0 / 3.0)), size=(n, 3))
        pos = relax(pos, bonds)
        if min_separation(pos) >= MIN_SEPARATION:
            pos -= pos.mean(axis=0, keepdims=True)
            atoms = tuple(
                Atom(a.atomic_number, tuple(pos[i])) for i, a in enumerate(graph.atoms)
            )
            return MoleculeGraph(atoms=atoms, bonds=graph.bonds)
    raise EmbeddingFailed(f"could not separate {n} atoms by {MIN_SEPARATION} units")


def min_separation(pos: np.ndarray) -> float:
    n = pos.shape[0]
    if n < 2:
        return np.inf
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return float(dist[np.triu_indices(n, k=1)].min())


def relax(pos: np.ndarray, bonds: list[tuple[int, int]]) -> np.ndarray:
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
