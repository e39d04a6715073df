"""Reverse-diffusion sampling: noise to validated molecules.

Each sample starts from per-node Gaussian features and coordinates, steps the
denoiser back from t = T to 1 (subtracting the predicted noise increment of
the additive schedule), decodes atoms by rounding and range/allowlist
filtering, proposes edges by a distance cutoff, types them with the learned
classifier (or the atomic-number heuristic behind a flag), and pushes the
assembled graph through the validity cascade.  Decoding is one array rule
over the final features, and the classifier's types are the argmax of the
bond head's logits over the final pass's embeddings, on plain arrays.

Training never noises coordinates, so a reverse trajectory holds its drawn
coordinates fixed: they place the atoms and their edges.  The step sizes and
the trajectory's `diffusion.DenoiserConstants` (the descriptor's and every
step's embedding, the EGNN's coordinate stream over the coordinates, and the
buffers of a pass) are built once per trajectory, and the descriptor is
checked once, as they are built.  Given the constants, each denoiser pass
runs on plain arrays, inside `numcore.no_grad`.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import chemrules, diffusion, numcore, smiles
from .chemrules import ValidationReport
from .diffusion import BOND_CLASSES, NoiseSchedule
from .molgraph import (
    MAX_ATOMIC_NUMBER,
    Atom,
    BondType,
    MoleculeGraph,
    graph_to_dict,
    new_graph,
)
from .numcore import ParamStore


class UntrainedParams(RuntimeError):
    """The parameter store is missing denoiser parameters."""


class EmptyInput(ValueError):
    """validity_rate needs at least one report."""


class Mode(str, enum.Enum):
    CONSTRAINED = "constrained"
    UNCONSTRAINED = "unconstrained"


# C, N, O, F, P, S, Cl
DEFAULT_ALLOWLIST = frozenset({6, 7, 8, 9, 15, 16, 17})

EDGE_CUTOFF = 1.8  # spring rest length 1.5 plus margin
COORD_SCALE = 0.8  # standard deviation of each sample's fixed coordinates
FEATURE_BOUND = 1e4  # each reverse step clips the features to [-FEATURE_BOUND, FEATURE_BOUND]


class BondSource(str, enum.Enum):
    CLASSIFIER = "classifier"
    HEURISTIC = "heuristic"


@dataclass(frozen=True)
class GenerationConfig:
    """Settings of `sample`.

    `tau` is checked but changes no sample, as the bond types are an argmax;
    it stays while `perfbench/workloads.py` builds configs with it.
    """

    mode: Mode = Mode.UNCONSTRAINED
    allowlist: frozenset[int] = DEFAULT_ALLOWLIST
    n_atoms: int | None = None
    atom_count_pool: tuple[int, ...] = (8,)
    steps: int = 1000
    tau: float = 0.5
    seed: int = 0
    bond_source: BondSource = BondSource.CLASSIFIER

    def __post_init__(self) -> None:
        if self.mode is Mode.CONSTRAINED:
            if not self.allowlist:
                raise ValueError("constrained mode requires a nonempty allowlist")
            if any(z < 1 or z > MAX_ATOMIC_NUMBER for z in self.allowlist):
                raise ValueError("allowlist entries must lie in [1, 118]")
        if self.n_atoms is not None and self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if not self.atom_count_pool or min(self.atom_count_pool) < 1:
            raise ValueError(f"atom_count_pool must be nonempty with counts >= 1, got {self.atom_count_pool}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class GenerationReport:
    """Full record of one sample: raw output through validation to SMILES."""

    raw_features: list[float]
    decoded_atoms: list[int]
    proposed_edges: list[tuple[int, int]]
    typed_edges: list[tuple[int, int, str]]
    validation: ValidationReport
    smiles: str | None
    corpus_match: bool
    fragments: int
    steps_executed: int
    seed: int
    graph: dict | None = None

    @property
    def valid(self) -> bool:
        return self.validation.final_verdict

    def to_dict(self) -> dict:
        return {
            "raw_features": [repr(v) for v in self.raw_features],
            "decoded_atoms": self.decoded_atoms,
            "proposed_edges": [list(e) for e in self.proposed_edges],
            "typed_edges": [list(e) for e in self.typed_edges],
            "validation": self.validation.to_dict(),
            "smiles": self.smiles,
            "corpus_match": self.corpus_match,
            "fragments": self.fragments,
            "steps_executed": self.steps_executed,
            "seed": self.seed,
            "graph": self.graph,
        }


@functools.cache
def _denoiser_shapes() -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Name and shape of every parameter of a one-term denoiser (`init_params(0)` would divide by zero)."""
    params = diffusion.init_params(1)
    return tuple((name, params[name].data.shape) for name in params.names())


def _check_trained(params: ParamStore) -> None:
    """Raise UntrainedParams unless `params` holds exactly the denoiser's parameters, each of its shape.

    `cond.w` may have any number of rows: one per vocabulary term.
    """
    expected = dict(_denoiser_shapes())
    if "cond.w" in params:
        expected["cond.w"] = params["cond.w"].data.shape[:1] + expected["cond.w"][1:]
    problems = [f"lacks {name}" for name in expected if name not in params]
    problems += [f"unexpected {name}" for name in params.names() if name not in expected]
    problems += [
        f"{name} has shape {params[name].data.shape}, not {shape}"
        for name, shape in expected.items()
        if name in params and params[name].data.shape != shape
    ]
    if problems:
        raise UntrainedParams(f"parameter store does not hold the denoiser: {'; '.join(problems)}")


def clip_features(x: np.ndarray) -> np.ndarray:
    """`x` clipped to [-FEATURE_BOUND, FEATURE_BOUND], a fresh array with the bits of `np.clip`.

    NaN stays NaN and -0.0 stays -0.0; the two ufuncs skip `np.clip`'s
    Python wrapper, which costs more than the clip at a reverse step's size.
    """
    return np.minimum(np.maximum(x, -FEATURE_BOUND), FEATURE_BOUND)


def decode_atoms(x: Sequence[float], config: GenerationConfig) -> tuple[list[int], list[int]]:
    """Kept node indices and their atomic numbers.

    Each value is rounded half to even, as Python's `round` does, a non-finite
    value counting as 0; a value is kept where 1 <= z <= MAX_ATOMIC_NUMBER
    and, in constrained mode, z is on the allowlist.
    """
    values = np.asarray(x, dtype=np.float64).reshape(-1)
    z = np.rint(np.where(np.isfinite(values), values, 0.0))
    kept = (z >= 1) & (z <= MAX_ATOMIC_NUMBER)
    if config.mode is Mode.CONSTRAINED:
        kept &= np.isin(z, sorted(config.allowlist))
    keep = np.flatnonzero(kept)
    return keep.tolist(), z[keep].astype(np.int64).tolist()


def propose_edges(coords: np.ndarray, decoded_atoms: Sequence[int]) -> list[tuple[int, int]]:
    """Unordered atom pairs closer than EDGE_CUTOFF; no duplicates or self-loops."""
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    n = min(coords.shape[0], len(decoded_atoms))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if float(np.linalg.norm(coords[i] - coords[j])) < EDGE_CUTOFF:
                edges.append((i, j))
    return edges


def assign_bond_types(
    edges: Sequence[tuple[int, int]],
    node_embeddings: np.ndarray,
    decoded_atoms: Sequence[int],
    params: ParamStore,
    source: BondSource = BondSource.CLASSIFIER,
) -> list[tuple[int, int, BondType]]:
    """Type each proposed edge by the argmax of the bond head's logits, on plain arrays, or by the numeric heuristic."""
    if source is BondSource.HEURISTIC:
        return [
            (i, j, chemrules.heuristic_bond_type(decoded_atoms[i], decoded_atoms[j]))
            for i, j in edges
        ]
    if len(edges) == 0:  # as in the bond head, no edge reads no parameter
        return []
    h = np.asarray(node_embeddings, dtype=np.float64)
    w, b = numcore.affine_params(params, "bond", 2 * h.shape[1])
    classes = np.argmax(diffusion.bond_logits_arrays(h, edges, w.data, b.data), axis=1)
    return [(i, j, BOND_CLASSES[int(c)]) for (i, j), c in zip(edges, classes)]


def finalize(graph: MoleculeGraph, corpus: frozenset[str] = frozenset()) -> tuple[ValidationReport, str | None, bool, MoleculeGraph]:
    """Sanitize, then canonicalize and check corpus membership on success."""
    result = chemrules.sanitize(graph)
    if not result.report.final_verdict:
        return result.report, None, False, result.graph
    text = smiles.canonicalize(result.graph)
    return result.report, text, text in corpus, result.graph


def sample(
    y: np.ndarray,
    config: GenerationConfig,
    params: ParamStore,
    corpus: frozenset[str] = frozenset(),
    seed: int | None = None,
) -> GenerationReport:
    """Draw one molecule for a multi-hot descriptor vector; deterministic given the seed.

    Raises `UntrainedParams` when `params` lacks a denoiser parameter, holds
    one the denoiser does not have or one of the wrong shape,
    `TypeError` when `y` is not numeric (a set, strings, ragged nesting),
    `diffusion.LengthMismatch` when its length differs from the trained
    vocabulary size and `diffusion.NonFiniteDescriptor` when an entry is NaN
    or infinite.
    """
    _check_trained(params)
    used_seed = config.seed if seed is None else seed
    rng = np.random.default_rng(used_seed)

    n = config.n_atoms if config.n_atoms is not None else int(rng.choice(config.atom_count_pool))
    schedule = NoiseSchedule(config.steps)
    x = rng.standard_normal((n, 1))
    coords = COORD_SCALE * rng.standard_normal((n, 3))

    steps_executed = 0
    embeddings = np.zeros((n, diffusion.HIDDEN_DIM))
    # sqrt(beta_t) - sqrt(beta_{t-1}) at t = 1..T, with beta_0 = 0: the noise
    # increment each step removes
    roots = np.sqrt(np.concatenate([[0.0], diffusion.betas(schedule, np.arange(1, config.steps + 1))]))
    increments = (roots[1:] - roots[:-1]).tolist()
    # a huge descriptor entry may overflow inside a pass, whose nan_to_num guard bounds the outputs
    with numcore.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        constants = diffusion.denoiser_constants(
            np.arange(1, config.steps + 1), schedule, y, params, np.zeros(n, dtype=np.int64), coords
        )
        for t in range(config.steps, 0, -1):
            out = diffusion.denoiser_forward(x, coords, (), t, schedule, y, params, constants=constants)
            x = clip_features(x - increments[t - 1] * out.eps_hat.data)
            embeddings = out.node_embeddings.data
            steps_executed += 1

    raw = [float(v) for v in x.reshape(-1)]
    keep, decoded = decode_atoms(x, config)
    kept_coords = coords[keep]
    kept_embeddings = embeddings[keep]

    edges = propose_edges(kept_coords, decoded)
    typed = assign_bond_types(edges, kept_embeddings, decoded, params, config.bond_source)
    assembled = new_graph([Atom(z, tuple(xyz)) for z, xyz in zip(decoded, kept_coords)], typed)
    report, text, matched, corrected = finalize(assembled, corpus)
    fragments = len(corrected.connected_components())

    return GenerationReport(
        raw_features=raw,
        decoded_atoms=decoded,
        proposed_edges=edges,
        typed_edges=[(i, j, t.value) for i, j, t in typed],
        validation=report,
        smiles=text,
        corpus_match=matched,
        fragments=fragments,
        steps_executed=steps_executed,
        seed=used_seed,
        graph=graph_to_dict(corrected) if report.final_verdict else None,
    )


def validity_rate(reports: Sequence[GenerationReport]) -> float:
    """Fraction of reports whose validation cascade fully passed."""
    if not reports:
        raise EmptyInput("no generation reports")
    return sum(1 for r in reports if r.valid) / len(reports)


def summarize(reports: Sequence[GenerationReport], mode: Mode, seed: int) -> dict:
    """Machine-readable run summary: rate, counts, first-failure histogram.

    Next to the validity rate, `valid_multiatom` counts the valid samples
    with at least two heavy atoms (Z > 1), and `valid_connected` the valid
    samples of one fragment, a lone atom included.
    """
    failure_stages: dict[str, int] = {}
    for r in reports:
        if r.valid:
            continue
        for stage in r.validation.stages:
            if not stage.passed:
                failure_stages[stage.name] = failure_stages.get(stage.name, 0) + 1
                break
    return {
        "samples": len(reports),
        "valid": sum(1 for r in reports if r.valid),
        "validity_rate": (validity_rate(reports) if reports else None),
        "valid_multiatom": sum(1 for r in reports if r.valid and sum(z > 1 for z in r.decoded_atoms) >= 2),
        "valid_connected": sum(1 for r in reports if r.valid and r.fragments == 1),
        "corpus_matches": sum(1 for r in reports if r.corpus_match),
        "failure_stages": dict(sorted(failure_stages.items())),
        "mode": mode.value,
        "seed": seed,
    }
