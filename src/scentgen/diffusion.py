"""Conditional denoising diffusion over atomic-number node features.

The forward process perturbs clean per-node scalars with Gaussian noise scaled
by a linear variance schedule.  The denoiser embeds the noisy features
together with a linear time embedding and a projected multi-hot descriptor
vector, runs two equivariant message-passing layers, and predicts the noise
per node plus a four-way bond-type logit per edge.

One denoiser pass can cover several molecules at once: they are fragments of
one block-diagonal graph, each with its own timestep and descriptor row.
Training runs every minibatch that way, as one forward, one loss and one
backward pass; sampling passes a single molecule, a batch of one.

What a pass derives from its descriptors, timesteps, fragment ids and
coordinates does not change along a reverse trajectory or within a batch.
`denoiser_constants` builds it once: the conditioning projection of `y`, the
time embedding of every step needed, the `egnn.EdgeLayout`, the EGNN's
coordinate stream (`egnn.CoordStream`, which reads no node feature) over the
coordinates, and the `PassArrays`.  Sampling builds one per trajectory over
all T steps, holding the coordinates fixed; a pass called without one, as in
`batch_loss`, builds its own.

A pass runs in one of two ways, chosen by whether `numcore` records the
tape.  With recording on, as in training, it is a chain of tape nodes that
`numcore.backward` walks.  Inside `numcore.no_grad`, as in every reverse
step of `generator.sample`, it runs the same array kernels (`numcore.affine`,
`numcore.mlp`, `egnn.node_update_arrays`, `bond_logits_arrays`) in the same
order on plain arrays: the context-row lookup, `input_proj`, a node update
per layer, `head`, the bond head and the nan_to_num guard.  It reads the
parameter arrays and the scatter index from the `PassArrays` and each
layer's edge lengths from the stream, and the outputs keep their bits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import egnn, numcore
from .egnn import DEFAULT_LAYERS, NodeState
from .molgraph import BondType
from .numcore import ParamStore, Tensor


class StepOutOfRange(ValueError):
    """Timestep outside [1, T]."""


class LengthMismatch(ValueError):
    """Descriptor vector length differs from the trained vocabulary size."""


class NonFiniteDescriptor(ValueError):
    """A descriptor vector or row holds NaN or an infinity."""


class NonPositiveTemperature(ValueError):
    """Softmax temperature must be strictly positive."""


class EmptyDataset(ValueError):
    """No usable examples: an empty training set, or a dataset file without valid molecules."""


class DivergedLoss(RuntimeError):
    """Training loss exploded past the divergence guard."""


# Class order of the four-way bond head.
BOND_CLASSES = (BondType.SINGLE, BondType.DOUBLE, BondType.TRIPLE, BondType.AROMATIC)
BOND_CLASS_INDEX = {t: k for k, t in enumerate(BOND_CLASSES)}

HIDDEN_DIM = 8  # shared width of embeddings and message-passing features
BETA_MAX = 1.0  # variance of the forward process at t = T
DIVERGENCE_FACTOR = 1e3  # batch loss above this times the first batch's aborts training


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear variance schedule beta_t = BETA_MAX * t / T over t in [1, T]."""

    steps: int


def beta_at(schedule: NoiseSchedule, t: int) -> float:
    if not 1 <= t <= schedule.steps:
        raise StepOutOfRange(f"t={t} outside [1, {schedule.steps}]")
    return BETA_MAX * t / schedule.steps


def forward_noise(
    x0: np.ndarray, t: int, schedule: NoiseSchedule, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Perturb clean features: x_t = x_0 + sqrt(beta_t) * eps, eps ~ N(0, I)."""
    beta = beta_at(schedule, t)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = rng.standard_normal(x0.shape)
    return x0 + np.sqrt(beta) * eps, eps


def descriptor_vector(y, params: ParamStore) -> np.ndarray:
    """`y` as a float64 vector of the trained vocabulary's length.

    Raises `TypeError` unless `y` holds only bool, integer or float numbers,
    `LengthMismatch` when its length differs from the vocabulary size and
    `NonFiniteDescriptor` when an entry is NaN or infinite.
    """
    try:
        values = np.asarray(y)
    except ValueError as exc:  # ragged nesting
        raise TypeError(f"descriptor vector is not numeric: {exc}") from None
    if values.dtype.kind not in "biuf":
        raise TypeError(f"descriptor vector must hold numbers, got dtype {values.dtype}")
    values = values.astype(np.float64, copy=False).reshape(-1)
    size = params["cond.w"].data.shape[0]
    if values.shape[0] != size:
        raise LengthMismatch(f"descriptor vector length {values.shape[0]} != vocabulary size {size}")
    _check_finite(values)
    return values


def _check_finite(values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteDescriptor("descriptor entries must be finite, got NaN or an infinity")


def condition_embed(y: np.ndarray, params: ParamStore) -> Tensor:
    """Project multi-hot descriptors into the conditioning space, one row per descriptor.

    `y` is one descriptor vector, giving one row, or an [F, L] ndarray with
    one descriptor row per fragment.  Raises `LengthMismatch` when L differs from
    the vocabulary size and `NonFiniteDescriptor` for a NaN or infinite entry.
    """
    if not (isinstance(y, np.ndarray) and y.ndim == 2):
        return numcore.linear(params, "cond", Tensor(descriptor_vector(y, params).reshape(1, -1)))
    rows = np.asarray(y, dtype=np.float64)
    size = params["cond.w"].data.shape[0]
    if rows.shape[1] != size:
        raise LengthMismatch(f"descriptor rows of length {rows.shape[1]} != vocabulary size {size}")
    _check_finite(rows)
    return numcore.linear(params, "cond", Tensor(rows))


def time_embed(t: int | np.ndarray, steps: int, params: ParamStore) -> Tensor:
    """Affine image of the normalized timestep t / T: one row per entry of `t`."""
    frac = Tensor(np.asarray(t, dtype=np.float64).reshape(-1, 1) / steps)
    return numcore.linear(params, "time", frac)


@dataclass
class DenoiserOutput:
    """Per-node noise prediction, per-edge bond logits, and the evolved state."""

    eps_hat: Tensor
    bond_logits: Tensor
    node_embeddings: Tensor
    coords: Tensor


@dataclass(frozen=True)
class PassArrays:
    """The parameter arrays and indices that a pass with recording off reads.

    `input_proj`, `head` and `bond` are (w, b) pairs and `node_mlps` holds
    each layer's (w1, b1, w2, b2), none when the layout has no edges.
    `scatter` is the layout's scatter index of the feature width.  The
    arrays are the parameters as they were when resolved.
    """

    input_proj: tuple[np.ndarray, np.ndarray]
    node_mlps: tuple[tuple[np.ndarray, ...], ...]
    head: tuple[np.ndarray, np.ndarray]
    bond: tuple[np.ndarray, np.ndarray]
    scatter: np.ndarray


@dataclass(frozen=True)
class DenoiserConstants:
    """What every denoiser pass of one trajectory, or of one training batch, shares.

    `context` holds rows of [time embedding, conditioning vector], and
    `steps[k]` is the timestep of row k.  With one descriptor shared by every
    fragment, there is a row per step, and a pass at step t gives every node
    the row of t.  With one descriptor row per fragment (`per_fragment`),
    row f is fragment f's at its own step, and a pass must run at `steps`.
    `stream` is the coordinate stream of the coordinates every pass must
    take, and `arrays` the `PassArrays` that a pass with recording off
    reads.  Built with recording on, `context` and `stream` are on the tape,
    and a taped pass gives every parameter its gradient.
    """

    layout: egnn.EdgeLayout
    steps: np.ndarray
    context: Tensor
    per_fragment: bool
    stream: egnn.CoordStream
    arrays: PassArrays
    _row_of_step: dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def row_of(self, t: int | np.ndarray) -> int | np.ndarray:
        """The context row of a pass at `t`, which `denoiser_constants` covered.

        One row index shared by every node, or with `per_fragment` rows the
        row of each node, its fragment id, which the caller checks.
        """
        if self.per_fragment:
            if not np.array_equal(np.reshape(t, -1), self.steps):
                raise ValueError("a pass over per-fragment descriptor rows must run at the prepared steps")
            return self.layout.fragment_ids
        if isinstance(t, np.ndarray):
            if t.size != 1:
                raise numcore.ShapeMismatch(f"{t.size} timesteps vs 1 descriptor row")
            t = t.item()
        row = self._row_of_step.get(t)
        if row is None:
            raise ValueError(f"step {t} was not prepared")
        return row


def _affine_arrays(params: ParamStore, name: str, n_in: int) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of `{name}.w` and `{name}.b`; `ShapeMismatch` unless `w` is 2-D with `n_in` rows."""
    w, b = params[f"{name}.w"].data, params[f"{name}.b"].data
    if w.ndim != 2 or w.shape[0] != n_in:
        raise numcore.ShapeMismatch(f"{name}: input width {n_in} vs weight {w.shape}")
    return w, b


def _pass_arrays(params: ParamStore, context_width: int, layout: egnn.EdgeLayout) -> PassArrays:
    """The `PassArrays` of `params` over `layout`, for context rows of `context_width` columns.

    Raises `numcore.UnknownParam` for a missing parameter and
    `numcore.ShapeMismatch` for a weight whose rows do not match its input.
    """
    input_proj = _affine_arrays(params, "input_proj", 1 + context_width)
    width = input_proj[0].shape[1]
    node_mlps = ()
    if layout.receivers.size:
        node_mlps = tuple(
            tuple(w.data for w in numcore.mlp_params(params, f"{layer}.node_mlp", 2 * width + 1))
            for layer in DEFAULT_LAYERS
        )
    return PassArrays(
        input_proj,
        node_mlps,
        _affine_arrays(params, "head", width),
        _affine_arrays(params, "bond", 2 * width),
        layout.scatter_index(width),
    )


def _finite(*arrays: np.ndarray) -> None:
    """Bounded nan_to_num, in place, of each array that holds a non-finite value.

    Unchecked infinities would otherwise reach the next sampling step's
    features through eps_hat.
    """
    for a in arrays:
        if not np.isfinite(a).all():
            np.nan_to_num(a, copy=False, posinf=1e6, neginf=-1e6)


def denoiser_constants(
    steps: int | Sequence[int] | np.ndarray,
    schedule: NoiseSchedule,
    y: np.ndarray,
    params: ParamStore,
    fragment_ids: np.ndarray,
    coords: np.ndarray,
) -> DenoiserConstants:
    """Embed `y` and `steps` once, and build the edge layout of `fragment_ids`,
    the coordinate stream over `coords` [n, 3] and the `PassArrays`.

    `y` is either one descriptor vector shared by every fragment, with
    `steps` one timestep or several (all of 1..T for a reverse trajectory),
    or an [F, L] ndarray of one row per fragment, with `steps` an array of
    one timestep per fragment.  The stream's output coordinates go through
    the bounded nan_to_num, and every pass must take the bits of `coords`.
    The constants are the same in either recording mode, except that with
    recording on the embeddings and the stream are on the tape.  Raises
    `StepOutOfRange` for a step outside [1, T], `numcore.ShapeMismatch` when
    the counts of steps and descriptor rows disagree, `coords` has not a row
    per node or a weight's rows do not match its input,
    `numcore.UnknownParam` for a missing parameter, and what
    `condition_embed` raises for a bad `y`.
    """
    step_list = np.asarray(steps, dtype=np.int64).reshape(-1)
    for step in step_list.tolist():
        beta_at(schedule, step)
    time_rows, cond_rows = time_embed(step_list, schedule.steps, params), condition_embed(y, params)
    per_fragment = isinstance(y, np.ndarray) and y.ndim == 2
    if time_rows.data.shape[0] != cond_rows.data.shape[0]:
        if per_fragment:
            raise numcore.ShapeMismatch(
                f"{time_rows.data.shape[0]} timesteps vs {cond_rows.data.shape[0]} descriptor rows"
            )
        # the one conditioning row, next to every step's time row
        cond_rows = numcore.gather(cond_rows, np.zeros(step_list.size, dtype=np.int64))
    context = numcore.concat([time_rows, cond_rows], axis=1)
    layout = egnn.edge_layout(fragment_ids)
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    if coords.shape[0] != layout.n_nodes:
        raise numcore.ShapeMismatch(f"{layout.n_nodes} nodes vs {coords.shape[0]} coordinate rows")
    stream = egnn.coord_stream(Tensor(coords), params, layout)
    if stream.out is stream.coords:  # no edges: the guard must leave the input's bits for the check
        stream = replace(stream, out=Tensor(coords))
    _finite(stream.out.data)
    return DenoiserConstants(
        layout,
        step_list,
        context,
        per_fragment,
        stream,
        _pass_arrays(params, context.data.shape[1], layout),
        {} if per_fragment else {step: row for row, step in enumerate(step_list.tolist())},
    )


def denoiser_forward(
    x_noisy: np.ndarray,
    coords: np.ndarray,
    bond_edges: Sequence[tuple[int, int]] | np.ndarray,
    t: int | np.ndarray,
    schedule: NoiseSchedule,
    y: np.ndarray,
    params: ParamStore,
    fragment_ids: np.ndarray | None = None,
    constants: DenoiserConstants | None = None,
) -> DenoiserOutput:
    """One denoising pass over a (possibly multi-fragment) noisy graph.

    Every node sees [noisy feature, time embedding, conditioning vector];
    bond logits are read from the final node embeddings over `bond_edges`.
    Message passing stays within each fragment of `fragment_ids` (default:
    one fragment).  Either `t` is one timestep and `y` one descriptor vector,
    shared by every fragment, or `t` is an array of one step per fragment and
    `y` an [F, L] array of one row per fragment, picked by fragment ids in
    [0, F).  `constants` is `denoiser_constants` over these steps (or more),
    `y`, `schedule`, fragment ids and `coords`; it replaces the embedding of
    `y` and `t`, the edge build and the EGNN's coordinate pathway.  Without
    it the pass builds its own.  A step it does not cover raises ValueError
    (`StepOutOfRange` without it), and so do coordinates whose bits differ
    from those it was built from.  Outputs that hold a non-finite value are
    passed through nan_to_num in place; the caller's `x_noisy` and `coords`
    are never written or aliased.

    With recording on, the pass is a chain of tape nodes that `backward`
    can walk, and `constants` built with recording off, whose embeddings
    and stream are off the tape, raise ValueError: the pass would silently
    give their parameters no gradient.  With recording off
    (`numcore.no_grad`) the same arithmetic runs on plain arrays, reading
    the `PassArrays` of `constants`, and gives the same bits; only the three
    outputs it computes become `Tensor`s.
    """
    x_noisy = np.asarray(x_noisy, dtype=np.float64).reshape(-1, 1)
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    n = x_noisy.shape[0]
    if n == 0:
        raise ValueError("denoiser_forward requires at least one node")
    if coords.shape[0] != n:
        raise numcore.ShapeMismatch(f"{n} features vs {coords.shape[0]} coordinate rows")
    if constants is None:
        frag = np.zeros(n, dtype=np.int64) if fragment_ids is None else np.asarray(fragment_ids, dtype=np.int64)
        if frag.shape != (n,):
            raise numcore.ShapeMismatch(f"{n} nodes vs fragment ids of shape {frag.shape}")
        constants = denoiser_constants(t, schedule, y, params, frag, coords)
    elif constants.layout.n_nodes != n:
        raise numcore.ShapeMismatch(f"{n} nodes vs constants for {constants.layout.n_nodes}")
    elif coords.tobytes() != constants.stream.coords.data.tobytes():
        raise ValueError("coordinates differ from those the constants' coordinate stream was built from")
    elif numcore.recording() and not constants.context.tracked():
        raise ValueError("a taped pass needs constants built with recording on, or none")
    if not numcore.recording():
        return _forward_on_arrays(x_noisy, bond_edges, t, constants)

    row = constants.row_of(t)
    context = numcore.gather(constants.context, row if constants.per_fragment else np.full(n, row, dtype=np.int64))
    node_input = numcore.concat([Tensor(x_noisy), context], axis=1)
    hidden = numcore.linear(params, "input_proj", node_input)
    stream = constants.stream
    state = egnn.egnn_forward(NodeState(hidden, stream.coords), params, constants.layout, stream)
    eps_hat = numcore.linear(params, "head", state.features)
    bond_logits = bond_head(state.features, bond_edges, params)
    _finite(eps_hat.data, bond_logits.data, state.features.data, state.coords.data)
    return DenoiserOutput(eps_hat, bond_logits, state.features, state.coords)


def _forward_on_arrays(
    x_noisy: np.ndarray,
    bond_edges: Sequence[tuple[int, int]] | np.ndarray,
    t: int | np.ndarray,
    constants: DenoiserConstants,
) -> DenoiserOutput:
    """`denoiser_forward`'s pass on plain arrays: the ops of the taped pass, in its order.

    The context-row lookup, `input_proj`, a node update per layer over the
    edge lengths of the constants' stream, `head` and the bond head, with
    the parameter arrays of the constants' `PassArrays`.
    """
    stream, arrays, layout = constants.stream, constants.arrays, constants.layout
    context = constants.context.data
    row = constants.row_of(t)
    node_input = np.empty((x_noisy.shape[0], 1 + context.shape[1]))
    node_input[:, :1] = x_noisy
    node_input[:, 1:] = numcore.take_rows(context, row) if constants.per_fragment else context[row]
    features = numcore.affine(node_input, *arrays.input_proj)
    for geometry, node_mlp in zip(stream.geometry, arrays.node_mlps):
        features = egnn.node_update_arrays(
            features, geometry.data[:, 3:], node_mlp, layout.receivers, layout.senders, arrays.scatter
        )[2]
    eps_hat = numcore.affine(features, *arrays.head)
    bond_logits = bond_logits_arrays(features, bond_edges, *arrays.bond)
    _finite(eps_hat, bond_logits, features)
    return DenoiserOutput(numcore.wrap(eps_hat), numcore.wrap(bond_logits), numcore.wrap(features), stream.out)


def _bond_ends(bond_edges: Sequence[tuple[int, int]] | np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The first and second end nodes of `bond_edges` as int64 arrays; None when there is no edge."""
    if len(bond_edges) == 0:
        return None
    edges = np.asarray(bond_edges, dtype=np.int64).reshape(-1, 2)
    return edges[:, 0], edges[:, 1]


def _no_bond_logits() -> np.ndarray:
    return np.zeros((0, len(BOND_CLASSES)))


def bond_logits_arrays(
    features: np.ndarray, bond_edges: Sequence[tuple[int, int]] | np.ndarray, w: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """`bond_head` on plain arrays, with the `bond.w` and `bond.b` arrays `w` and `b`."""
    ends = _bond_ends(bond_edges)
    if ends is None:
        return _no_bond_logits()
    return numcore.affine(np.concatenate([numcore.take_rows(features, end) for end in ends], axis=1), w, b)


def bond_head(
    node_features: Tensor, bond_edges: Sequence[tuple[int, int]] | np.ndarray, params: ParamStore
) -> Tensor:
    """Four-way bond-type logits [E, 4] from the concatenated end-node features of each edge.

    `bond_logits_arrays` is the same map on plain arrays.
    """
    ends = _bond_ends(bond_edges)
    if ends is None:
        return Tensor(_no_bond_logits())
    pair_features = numcore.concat([numcore.gather(node_features, end) for end in ends], axis=1)
    return numcore.linear(params, "bond", pair_features)


def bond_probabilities(logits: Tensor | np.ndarray, tau: float) -> Tensor:
    """Temperature-scaled row softmax; rows sum to one."""
    if tau <= 0:
        raise NonPositiveTemperature(f"tau={tau}")
    logits = numcore.as_tensor(logits)
    if logits.data.size == 0:
        return Tensor(np.zeros_like(logits.data))
    return numcore.exp(numcore.log_softmax_rows(numcore.mul(logits, 1.0 / tau)))


def _fragment_means(rows: Tensor, fragment_ids: np.ndarray | None, fragments: int, scale: float) -> Tensor:
    """Per-fragment means of the 1-D `rows`, times `scale`: shape [fragments].

    `fragment_ids` gives each row's fragment (default: all in fragment 0);
    a fragment without rows gives 0.
    """
    n = rows.data.shape[0]
    ids = np.zeros(n, dtype=np.int64) if fragment_ids is None else np.asarray(fragment_ids, dtype=np.int64)
    if ids.shape != (n,):
        raise numcore.ShapeMismatch(f"{n} rows vs fragment ids of shape {ids.shape}")
    if n and (ids.min() < 0 or ids.max() >= fragments):
        raise numcore.ShapeMismatch(f"fragment id outside [0, {fragments})")
    counts = np.bincount(ids, minlength=fragments)
    return numcore.mul(numcore.segment_sum(rows, ids, fragments), scale / np.maximum(counts, 1))


def mse_loss(
    eps_hat: Tensor, eps: np.ndarray, fragment_ids: np.ndarray | None = None, fragments: int = 1
) -> Tensor:
    """Mean squared error of each fragment's noise prediction, shape [fragments].

    `fragment_ids` gives each node's fragment.
    """
    eps = np.asarray(eps, dtype=np.float64)
    eps_hat = numcore.as_tensor(eps_hat)
    if eps_hat.data.shape != eps.shape or eps.ndim != 2:
        raise numcore.ShapeMismatch(f"{eps_hat.data.shape} vs {eps.shape}")
    diff = numcore.sub(eps_hat, Tensor(eps))
    per_node = numcore.sum_(numcore.mul(diff, diff), axis=1)
    return _fragment_means(per_node, fragment_ids, fragments, 1.0 / max(eps.shape[1], 1))


def bond_ce_loss(
    bond_logits: Tensor,
    bond_labels: np.ndarray,
    tau: float,
    fragment_ids: np.ndarray | None = None,
    fragments: int = 1,
) -> Tensor:
    """Mean cross-entropy of temperature-scaled bond probabilities vs labels, per fragment.

    `fragment_ids` gives each bond's fragment.  The result has shape
    [fragments]; a fragment without bonds gives 0.
    """
    if tau <= 0:
        raise NonPositiveTemperature(f"tau={tau}")
    labels = np.asarray(bond_labels, dtype=np.int64).reshape(-1)
    logits = numcore.as_tensor(bond_logits)
    if logits.data.shape[0] != labels.size:
        raise numcore.ShapeMismatch(f"{logits.data.shape[0]} logit rows vs {labels.size} labels")
    if labels.size == 0:
        return Tensor(np.zeros(fragments))
    if labels.min() < 0 or labels.max() >= logits.data.shape[1]:
        raise numcore.ShapeMismatch("bond label outside class range")
    log_probs = numcore.log_softmax_rows(numcore.mul(logits, 1.0 / tau))
    onehot = np.zeros_like(logits.data)
    onehot[np.arange(labels.size), labels] = 1.0
    picked = numcore.sum_(numcore.mul(log_probs, onehot), axis=1)
    return _fragment_means(picked, fragment_ids, fragments, -1.0)


def loss_total(
    eps_hat: Tensor,
    eps: np.ndarray,
    bond_logits: Tensor,
    bond_labels: np.ndarray,
    tau: float,
) -> Tensor:
    """Node-noise MSE plus bond cross-entropy of one molecule, a scalar."""
    return numcore.mean_(numcore.add(mse_loss(eps_hat, eps), bond_ce_loss(bond_logits, bond_labels, tau)))


@dataclass(frozen=True)
class TrainingExample:
    """One molecule prepared for the loop: clean features, geometry, edges, labels."""

    features: np.ndarray       # [n, 1] atomic numbers as floats
    coords: np.ndarray         # [n, 3]
    bond_edges: tuple[tuple[int, int], ...]
    bond_labels: np.ndarray    # [E] class indices into BOND_CLASSES
    condition: np.ndarray      # [L] multi-hot descriptor vector


@dataclass
class TrainConfig:
    """Training settings; `ValueError` for a value that cannot train.

    `steps` and `batch_size` must be at least 1, `epochs` and `seed` at
    least 0, and `tau` and `learning_rate` finite and positive.
    """

    steps: int = 1000
    epochs: int = 1000
    batch_size: int = 32
    tau: float = 1.0
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be at least 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")


@dataclass
class EpochMetrics:
    epoch: int
    mse: float
    ce: float
    total: float


def init_params(vocab_size: int, hidden_dim: int = HIDDEN_DIM, seed: int = 0) -> ParamStore:
    """Allocate every learned component of the denoiser."""
    rng = np.random.default_rng(seed)
    params = ParamStore()
    numcore.init_affine(params, "cond", vocab_size, hidden_dim, rng)
    numcore.init_affine(params, "time", 1, hidden_dim, rng)
    numcore.init_affine(params, "input_proj", 1 + 2 * hidden_dim, hidden_dim, rng)
    for layer in DEFAULT_LAYERS:
        egnn.init_egnn_layer(params, layer, hidden_dim, hidden_dim, rng)
    numcore.init_affine(params, "head", hidden_dim, 1, rng)
    numcore.init_affine(params, "bond", 2 * hidden_dim, len(BOND_CLASSES), rng)
    return params


def _stratified_timesteps(n: int, steps: int, rng: np.random.Generator) -> list[int]:
    """One uniform timestep per draw, stratified across [1, T] within the epoch.

    Molecule order is shuffled independently, so each molecule still sees a
    uniform t marginally; stratification only de-noises the per-epoch mean.
    """
    ts = []
    for k in range(n):
        lo = 1 + (k % n) * steps // n
        hi = max(lo, ((k % n) + 1) * steps // n)
        ts.append(int(rng.integers(lo, hi + 1)))
    return ts


def batch_loss(
    examples: Sequence[TrainingExample],
    timesteps: Sequence[int],
    schedule: NoiseSchedule,
    tau: float,
    params: ParamStore,
    rng: np.random.Generator,
) -> tuple[Tensor, Tensor, Tensor]:
    """Loss of a minibatch run as one graph with one fragment per molecule.

    Each example draws its noise at its timestep, in batch order.  Returns
    the batch loss, which is the mean over molecules of each one's node-noise
    MSE plus bond cross-entropy, and the per-molecule MSE and cross-entropy,
    each of shape [B].
    """
    sizes = [ex.features.shape[0] for ex in examples]
    offsets = np.cumsum([0] + sizes[:-1])
    noisy, noise = zip(*(forward_noise(ex.features, t, schedule, rng) for ex, t in zip(examples, timesteps)))
    bonds = [len(ex.bond_edges) for ex in examples]
    edges = np.concatenate(
        [np.asarray(ex.bond_edges, dtype=np.int64).reshape(-1, 2) + off for ex, off in zip(examples, offsets)]
    )
    fragments = len(examples)
    node_fragments = np.repeat(np.arange(fragments), sizes)
    out = denoiser_forward(
        np.concatenate(noisy),
        np.concatenate([ex.coords for ex in examples]),
        edges,
        np.asarray(timesteps),
        schedule,
        np.stack([descriptor_vector(ex.condition, params) for ex in examples]),
        params,
        node_fragments,
    )
    mse = mse_loss(out.eps_hat, np.concatenate(noise), node_fragments, fragments)
    ce = bond_ce_loss(
        out.bond_logits,
        np.concatenate([ex.bond_labels for ex in examples]),
        tau,
        np.repeat(np.arange(fragments), bonds),
        fragments,
    )
    return numcore.mean_(numcore.add(mse, ce)), mse, ce


def train(
    examples: Sequence[TrainingExample],
    config: TrainConfig,
    params: ParamStore | None = None,
) -> tuple[ParamStore, list[EpochMetrics]]:
    """Epoch loop: noise, denoise, MSE + CE, backprop, Adam.

    Each molecule draws a uniform timestep, stratified across the epoch.
    Each minibatch runs as one block-diagonal graph (`batch_loss`): one
    denoiser pass, one loss, one backward pass and one Adam step.  The loss
    is the mean over the batch's molecules of each one's node-noise MSE plus
    its bond cross-entropy.  Raises `LengthMismatch` when an example's
    descriptor vector does not match the vocabulary.  Aborts with
    DivergedLoss once a batch loss is non-finite or exceeds the guard factor
    times the first batch's loss.
    """
    examples = list(examples)
    if not examples:
        raise EmptyDataset("no training examples")
    vocab_size = examples[0].condition.shape[0]
    if params is None:
        params = init_params(vocab_size, HIDDEN_DIM, config.seed)
    rng = np.random.default_rng(config.seed)
    schedule = NoiseSchedule(config.steps)
    metrics: list[EpochMetrics] = []
    initial_loss: float | None = None
    count = len(examples)

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(count)
        timesteps = _stratified_timesteps(count, config.steps, rng)
        epoch_mse = 0.0
        epoch_ce = 0.0
        for lo in range(0, len(order), config.batch_size):
            batch = [examples[idx] for idx in order[lo : lo + config.batch_size]]
            loss, mse, ce = batch_loss(
                batch, timesteps[lo : lo + len(batch)], schedule, config.tau, params, rng
            )
            epoch_mse += float(mse.data.sum())
            epoch_ce += float(ce.data.sum())
            value = loss.item()
            if initial_loss is None:
                initial_loss = max(value, 1e-12)
            if not np.isfinite(value) or value > DIVERGENCE_FACTOR * initial_loss:
                raise DivergedLoss(
                    f"batch loss {value} exceeded {DIVERGENCE_FACTOR} x initial {initial_loss}"
                )
            params.zero_grad()
            numcore.backward(loss)
            numcore.adam_step(params, lr=config.learning_rate)
        metrics.append(
            EpochMetrics(epoch, epoch_mse / count, epoch_ce / count, (epoch_mse + epoch_ce) / count)
        )
    return params, metrics


METRICS_COLUMNS = ("epoch", "mse_loss", "ce_loss", "total_loss")


def write_metrics_csv(metrics: Sequence[EpochMetrics], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for m in metrics:
            writer.writerow([m.epoch, repr(m.mse), repr(m.ce), repr(m.total)])


def read_metrics_csv(path: str) -> list[EpochMetrics]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or list(reader.fieldnames) != list(METRICS_COLUMNS):
            raise ValueError(f"metrics CSV must have columns {METRICS_COLUMNS}, got {reader.fieldnames}")
        out = []
        for row in reader:
            out.append(
                EpochMetrics(
                    int(row["epoch"]),
                    float(row["mse_loss"]),
                    float(row["ce_loss"]),
                    float(row["total_loss"]),
                )
            )
    return out
