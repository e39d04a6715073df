"""Conditional denoising diffusion over atomic-number node features.

The forward process perturbs clean per-node scalars with Gaussian noise scaled
by a linear variance schedule.  The denoiser embeds the noisy features
together with a linear time embedding and a projected multi-hot descriptor
vector, runs two equivariant message-passing layers, and predicts the noise
per node plus a four-way bond-type logit per edge.

One denoiser pass can cover several molecules at once: they are fragments of
one block-diagonal graph, each with its own timestep and descriptor row.
Training runs every minibatch that way, as one forward, one loss and one
backward pass; sampling passes a single molecule, a batch of one.  A batch
is assembled in array ops over all its nodes: one `rng.standard_normal`
draw gives the same noise as a `forward_noise` call per molecule in batch
order, each node's noise is scaled by the square root of its molecule's
`betas`, the descriptor rows are stacked and checked once, and an epoch's
stratified timesteps are one `rng.integers` call over arrays of bounds,
with the draws and rng state of a call per stratum.

A pass runs in one of two ways, chosen by whether it is given
`DenoiserConstants`.  Without them, as in `batch_loss`, it runs the `Tensor`
ops: the context rows (`time_embed`, the conditioning projection and a
gather), `input_proj`, `egnn.egnn_forward`, `head`, the bond head and the
nan_to_num guard.  While `numcore` records the tape they are a chain of tape
nodes that `numcore.backward` walks; inside `numcore.no_grad` they link
nothing.

`denoiser_constants` builds what the passes of one reverse trajectory share,
with recording off: the context row of every schedule step, by the same
helper and from one descriptor vector shared by every fragment; the EGNN's
coordinate stream (`egnn.CoordStream`, which reads no node feature) over the
fixed coordinates and the `egnn.EdgeLayout` of the fragment ids, which the
stream holds; the parameter arrays a pass reads; and the buffers it runs in.
Given them, as in every reverse step of `generator.sample`, a pass runs the
ufuncs of the same array kernels in the same order, on plain arrays, with
the bits of `eps_hat` and the node embeddings, and computes nothing else:
the sampler types bonds once, after its loop, with `bond_logits_arrays`.  A
pass over constants while recording raises ValueError: it would give no
parameter a gradient.

The buffers are allocated with the constants and every pass over them reuses
them.  The pass is a flat loop over one `NodeLayer` record per EGNN layer,
built once: the layer's flat `[features | edge lengths]` source, whose
edge-length tail is written once, its gather index, its node-MLP input, its
weights with biases tiled to their rows, its scratch, its scatter index and
the array its residual sum writes.  `input_proj` writes layer 0's source,
and each layer's sum the next layer's.  The ufuncs take their output
positionally, and the layout's indices are in range, so the gather and the
receiver sum skip their checks.  The outputs are fresh arrays, never views
of a buffer.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import egnn, numcore
from .egnn import DEFAULT_LAYERS, NodeState
from .molgraph import BondType
from .numcore import ParamStore, Tensor


class StepOutOfRange(ValueError):
    """Timestep outside [1, T], or not a whole number."""


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


def _beta(t: int | np.ndarray, steps: int) -> float | np.ndarray:
    """The schedule's formula, of one step or elementwise over an int64 array of steps."""
    return BETA_MAX * t / steps


def beta_at(schedule: NoiseSchedule, t: int) -> float:
    """The variance of step `t`; a step outside [1, T], or one that is not a whole number, raises `StepOutOfRange`."""
    if not 1 <= t <= schedule.steps or t % 1 != 0:
        raise StepOutOfRange(f"t={t} is not a step of [1, {schedule.steps}]")
    return _beta(t, schedule.steps)


def betas(schedule: NoiseSchedule, steps: np.ndarray) -> np.ndarray:
    """`beta_at` of each step of the integer or float array `steps`, with its bits, in one array op.

    The first step outside [1, T], or one that is not a whole number,
    raises `StepOutOfRange`.
    """
    outside = (steps < 1) | (steps > schedule.steps)
    if steps.dtype.kind == "f":
        outside |= steps != np.floor(steps)  # NaN too
    if outside.any():
        raise StepOutOfRange(f"t={steps[outside][0]} is not a step of [1, {schedule.steps}]")
    return _beta(steps, schedule.steps)


def forward_noise(
    x0: np.ndarray, t: int, schedule: NoiseSchedule, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Perturb clean features: x_t = x_0 + sqrt(beta_t) * eps, eps ~ N(0, I)."""
    beta = beta_at(schedule, t)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = rng.standard_normal(x0.shape)
    return x0 + np.sqrt(beta) * eps, eps


def _descriptors(y, params: ParamStore, flat: bool) -> np.ndarray:
    """`y` as float64, flattened if `flat`: the one check of descriptors.

    It raises what `descriptor_vector` documents; the length checked is
    that of the last axis, the vector's or each row's.
    """
    try:
        values = np.asarray(y)
    except ValueError as exc:  # ragged nesting
        raise TypeError(f"descriptors are not numeric: {exc}") from None
    if values.dtype.kind not in "biuf":
        raise TypeError(f"descriptors must hold numbers, got dtype {values.dtype}")
    values = values.astype(np.float64, copy=False)
    if flat:
        values = values.reshape(-1)
    size = params["cond.w"].data.shape[0]
    if values.shape[-1] != size:
        raise LengthMismatch(f"descriptor length {values.shape[-1]} != vocabulary size {size}")
    if not np.isfinite(values).all():
        raise NonFiniteDescriptor("descriptor entries must be finite, got NaN or an infinity")
    return values


def descriptor_vector(y, params: ParamStore) -> np.ndarray:
    """`y`, flattened, as a float64 vector of the trained vocabulary's length.

    Raises `TypeError` unless `y` holds only bool, integer or float numbers,
    `LengthMismatch` when its length differs from the vocabulary size and
    `NonFiniteDescriptor` when an entry is NaN or infinite.
    """
    return _descriptors(y, params, flat=True)


def time_embed(t: int | np.ndarray, steps: int, params: ParamStore) -> Tensor:
    """Affine image of the normalized timestep t / T: one row per entry of `t`."""
    frac = Tensor(np.asarray(t, dtype=np.float64).reshape(-1, 1) / steps)
    return numcore.linear(params, "time", frac)


def _context(steps: np.ndarray, schedule: NoiseSchedule, rows: np.ndarray, params: ParamStore) -> Tensor:
    """Rows [time embedding | conditioning vector], one per entry of the array `steps`.

    `rows` are checked descriptor rows: one per step, or one that every
    step's row holds.  Raises `StepOutOfRange` for a step outside [1, T] or
    one that is not a whole number.
    """
    betas(schedule, steps)
    time_rows = time_embed(steps, schedule.steps, params)
    cond_rows = numcore.linear(params, "cond", Tensor(rows))
    if rows.shape[0] != steps.size:  # the one descriptor row, next to every step's time row
        cond_rows = numcore.gather(cond_rows, np.zeros(steps.size, dtype=np.int64))
    return numcore.concat([time_rows, cond_rows], axis=1)


@dataclass
class DenoiserOutput:
    """Per-node noise prediction, per-edge bond logits, and the evolved state; a pass over constants has the latter None."""

    eps_hat: Tensor
    bond_logits: Tensor | None
    node_embeddings: Tensor
    coords: Tensor | None


class NodeLayer(NamedTuple):
    """One EGNN layer's node update in a pass over `DenoiserConstants`: its arrays, in the order the pass uses them.

    `source` is the flat [features | edge lengths] array that the layout's
    `gather_index(d)`, `gather`, reads into the [E, 2d + 1] node-MLP input
    `mlp_input`; its head holds the layer's input features, and its
    edge-length tail is the stream's, written once.  `w1`, `b1`, `w2` and
    `b2` are the arrays of `{layer}.node_mlp` with each bias tiled to the E
    rows it is added to, which adds the same numbers as the broadcast,
    faster.  `pre`, `hidden`, `sig` and `message` are the MLP's
    pre-activation, SiLU, sigmoid and output.  `scatter` is the layout's
    `scatter_index(d)`, and `out` the array the residual sum writes: the
    next layer's input features, the head of its source, or None for the
    last layer, whose sum is fresh.
    """

    source: np.ndarray
    gather: np.ndarray
    mlp_input: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    pre: np.ndarray
    hidden: np.ndarray
    sig: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    message: np.ndarray
    scatter: np.ndarray
    out: np.ndarray | None


@dataclass(frozen=True)
class DenoiserConstants:
    """What every denoiser pass of one reverse trajectory shares, and the buffers those passes run in.

    `context` holds a row [time embedding | conditioning vector] per
    schedule step, all of one descriptor vector: step t reads row t - 1.
    `stream` is the coordinate stream of the coordinates every pass must
    take, over the pass's edge layout (`stream.layout`).

    `input_proj` is (w, b, destination) and `head` (w, b), the parameter
    arrays as they were when the constants were built, with each bias tiled
    to the n rows it is added to.  `node_input` is input_proj's [n, 1 +
    context width] input, and the destination the array it writes: the
    first layer's input features, or None, a fresh array, when the layout
    has no edges.  `layers` holds one `NodeLayer` per layer, none when the
    layout has no edges.  A pass writes `node_input` and every buffer of a
    layer but the sources' tails before it reads them, so they carry nothing
    from one pass to the next; one pass at a time may use them, and no
    output is a view of them.
    """

    context: np.ndarray
    stream: egnn.CoordStream
    input_proj: tuple[np.ndarray, np.ndarray, np.ndarray | None]
    head: tuple[np.ndarray, np.ndarray]
    node_input: np.ndarray
    layers: tuple[NodeLayer, ...]

    def row_of(self, t: int | np.ndarray) -> int:
        """The context row of a pass at `t`: row t - 1.

        Raises `StepOutOfRange` for a step outside [1, T] or one that is not
        a whole number.
        """
        if isinstance(t, np.ndarray):
            if t.size != 1:
                raise numcore.ShapeMismatch(f"{t.size} timesteps vs 1 descriptor row")
            t = t.item()
        steps = self.context.shape[0]
        if not 1 <= t <= steps or t != int(t):
            raise StepOutOfRange(f"t={t} is not a step of [1, {steps}]")
        return int(t) - 1


def _tiled(b: np.ndarray, rows: int) -> np.ndarray:
    return np.ascontiguousarray(np.broadcast_to(b, (rows, b.shape[-1])))


def _arrays(tensors: tuple[Tensor, ...]) -> tuple[np.ndarray, ...]:
    return tuple(t.data for t in tensors)


def _finite(*arrays: np.ndarray) -> None:
    """Bounded nan_to_num, in place, of each array that holds a non-finite value.

    Unchecked infinities would otherwise reach the next sampling step's
    features through eps_hat.  An array's sum of squares is not finite when
    an entry is not, and a dot product warns of nothing, not even when the
    sum overflows; nan_to_num leaves such an array, all finite, as it is.
    """
    for a in arrays:
        if not math.isfinite(np.vdot(a, a)):
            np.nan_to_num(a, copy=False, posinf=1e6, neginf=-1e6)


def denoiser_constants(
    schedule: NoiseSchedule,
    y: np.ndarray,
    params: ParamStore,
    fragment_ids: np.ndarray,
    coords: np.ndarray,
) -> DenoiserConstants:
    """The `DenoiserConstants` of a reverse trajectory over every step of `schedule`, built with recording off.

    `y` is one descriptor vector shared by every fragment of
    `fragment_ids`; it is flattened and checked once, as
    `descriptor_vector` checks it, so [F, L] rows raise `LengthMismatch`.
    The coordinate stream runs over `coords` [n, 3], and every pass must
    take the bits of `coords`.  Raises `numcore.ShapeMismatch` when `coords`
    has not a row per node or a weight's rows do not match its input,
    `numcore.UnknownParam` for a missing parameter, and what
    `descriptor_vector` raises.
    """
    rows = descriptor_vector(y, params).reshape(1, -1)
    layout = egnn.edge_layout(fragment_ids)
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    if coords.shape[0] != layout.n_nodes:
        raise numcore.ShapeMismatch(f"{layout.n_nodes} nodes vs {coords.shape[0]} coordinate rows")
    with numcore.no_grad():
        context = _context(np.arange(1, schedule.steps + 1), schedule, rows, params).data
        stream = egnn.coord_stream(Tensor(coords), params, layout)
    w_in, b_in = _arrays(numcore.affine_params(params, "input_proj", 1 + context.shape[1]))
    n, edges, width = layout.n_nodes, layout.receivers.size, w_in.shape[1]
    sources = [np.empty(n * width + edges) for _ in stream.geometry]
    # a source's head holds its layer's input features: input_proj writes the first, each layer's sum the next
    features = [source[: n * width].reshape(n, width) for source in sources]
    layers = []
    for layer, geometry, source, out in zip(DEFAULT_LAYERS, stream.geometry, sources, features[1:] + [None]):
        w1, b1, w2, b2 = _arrays(numcore.mlp_params(params, f"{layer}.node_mlp", 2 * width + 1))
        source[n * width :] = geometry.data[:, 3]
        pre, hidden, sig = np.empty((3, edges, w1.shape[1]))
        layers.append(
            NodeLayer(
                source,
                layout.gather_index(width),
                np.empty((edges, 2 * width + 1)),
                w1,
                _tiled(b1, edges),
                pre,
                hidden,
                sig,
                w2,
                _tiled(b2, edges),
                np.empty((edges, w2.shape[1])),
                layout.scatter_index(width),
                out,
            )
        )
    w_head, b_head = _arrays(numcore.affine_params(params, "head", width))
    return DenoiserConstants(
        context,
        stream,
        (w_in, _tiled(b_in, n), features[0] if features else None),
        (w_head, _tiled(b_head, n)),
        np.empty((n, 1 + context.shape[1])),
        tuple(layers),
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
    [0, F).  Without `constants` the pass runs the `Tensor` ops, a chain of
    tape nodes that `backward` can walk while recording and plain inside
    `numcore.no_grad`.

    `constants` is `denoiser_constants` over `schedule`, `y`, the fragment
    ids and `coords`; `y` and `schedule` are then read from them, not from
    the arguments.  The pass runs on plain arrays with the bits of the
    `Tensor` ops' `eps_hat` and node embeddings, the two outputs it computes
    and makes `Tensor`s; `bond_logits` and `coords` are None.  It raises
    ValueError while recording, since it would give no parameter a
    gradient, for non-empty `bond_edges`, for `fragment_ids` other than
    theirs and for coordinates whose bits differ from those they were built
    from.  Either way a step outside [1, T] or one that is not a whole
    number raises `StepOutOfRange`.
    Outputs that hold a non-finite value are passed through nan_to_num in
    place; the caller's `x_noisy` and `coords` are never written or aliased.
    """
    x_noisy = np.asarray(x_noisy, dtype=np.float64).reshape(-1, 1)
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 3)
    n = x_noisy.shape[0]
    if n == 0:
        raise ValueError("denoiser_forward requires at least one node")
    if coords.shape[0] != n:
        raise numcore.ShapeMismatch(f"{n} features vs {coords.shape[0]} coordinate rows")
    if constants is not None:
        layout = constants.stream.layout
        if numcore.recording():
            raise ValueError("a pass over constants runs inside numcore.no_grad: a taped pass takes none")
        if layout.n_nodes != n:
            raise numcore.ShapeMismatch(f"{n} nodes vs constants for {layout.n_nodes}")
        if len(bond_edges):
            raise ValueError("a pass over constants computes no bond logits: give it no bond edges")
        if fragment_ids is not None and not np.array_equal(fragment_ids, layout.fragment_ids):
            raise ValueError("fragment ids differ from those the constants' edge layout was built from")
        if coords.tobytes() != constants.stream.coords.data.tobytes():
            raise ValueError("coordinates differ from those the constants' coordinate stream was built from")
        return _forward_on_arrays(x_noisy, t, constants)

    frag = np.zeros(n, dtype=np.int64) if fragment_ids is None else np.asarray(fragment_ids, dtype=np.int64)
    if frag.shape != (n,):
        raise numcore.ShapeMismatch(f"{n} nodes vs fragment ids of shape {frag.shape}")
    # an [F, L] ndarray gives one row per fragment; any other y is one vector, shared by every fragment
    per_fragment = isinstance(y, np.ndarray) and y.ndim == 2
    rows = np.atleast_2d(_descriptors(y, params, flat=not per_fragment))
    steps = np.asarray(t).reshape(-1)
    if steps.size != rows.shape[0]:
        raise numcore.ShapeMismatch(f"{steps.size} timesteps vs {rows.shape[0]} descriptor rows")
    context = numcore.gather(
        _context(steps, schedule, rows, params), frag if per_fragment else np.zeros(n, dtype=np.int64)
    )
    hidden = numcore.linear(params, "input_proj", numcore.concat([Tensor(x_noisy), context], axis=1))
    state = egnn.egnn_forward(NodeState(hidden, Tensor(coords)), params, egnn.edge_layout(frag))
    eps_hat = numcore.linear(params, "head", state.features)
    bond_logits = bond_head(state.features, bond_edges, params)
    _finite(eps_hat.data, bond_logits.data, state.features.data, state.coords.data)
    return DenoiserOutput(eps_hat, bond_logits, state.features, state.coords)


def _forward_on_arrays(x_noisy: np.ndarray, t: int | np.ndarray, constants: DenoiserConstants) -> DenoiserOutput:
    """`denoiser_forward`'s pass on plain arrays: the ufuncs of the `Tensor` ops' kernels, in their order.

    The context-row lookup, `input_proj`, a node update per `NodeLayer`
    over the edge lengths of the constants' stream and `head`, with the
    constants' parameter arrays.  Everything before the last layer's
    residual sum runs in the constants' buffers: `input_proj` writes layer
    0's features, and each layer's sum the next layer's.  Each affine map is
    an `np.dot`, which has the bits of `@` on these C-contiguous arrays, and
    an add of the tiled bias.  The outputs are fresh arrays.
    """
    node_input = constants.node_input
    node_input[:, :1] = x_noisy
    node_input[:, 1:] = constants.context[constants.row_of(t)]
    w_in, b_in, projected = constants.input_proj
    features = np.dot(node_input, w_in, projected)
    np.add(features, b_in, features)
    for source, gather, x, w1, b1, pre, hidden, sig, w2, b2, message, scatter, out in constants.layers:
        # the index is the layout's, in range: "clip" skips the check and the copy through a buffer
        source.take(gather, None, x, "clip")
        np.add(np.dot(x, w1, pre), b1, pre)
        numcore._silu(pre, (hidden, sig))
        np.add(np.dot(hidden, w2, message), b2, message)
        # the scatter index is the layout's, in range: the sum has exactly n * d entries
        summed = np.bincount(scatter, message.reshape(-1), features.size)
        features = np.add(features, summed.reshape(features.shape), out)
    w_head, b_head = constants.head
    eps_hat = np.dot(features, w_head)
    np.add(eps_hat, b_head, eps_hat)
    _finite(eps_hat, features)
    return DenoiserOutput(numcore.wrap(eps_hat), None, numcore.wrap(features), None)


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
    """`bond_head` on plain arrays, with `bond.w` and `bond.b` as `w` and `b`, and the `Tensor` pass's nan_to_num guard."""
    ends = _bond_ends(bond_edges)
    if ends is None:
        return _no_bond_logits()
    with np.errstate(over="ignore", invalid="ignore"):
        logits = numcore.affine(np.concatenate([numcore.take_rows(features, end) for end in ends], axis=1), w, b)
    _finite(logits)
    return logits


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


def _stratified_timesteps(n: int, steps: int, rng: np.random.Generator) -> np.ndarray:
    """One uniform timestep per draw, stratified across [1, T] within the epoch, as int64.

    Draw k is uniform over its stratum [1 + k T // n, max(that, (k + 1) T // n)].
    One `rng.integers` call over the arrays of bounds draws each element as
    a call per stratum would, in order, and leaves the rng in the same state.
    Molecule order is shuffled independently, so each molecule still sees a
    uniform t marginally; stratification only de-noises the per-epoch mean.
    """
    k = np.arange(n, dtype=np.int64)
    lo = 1 + k * steps // n
    hi = np.maximum(lo, (k + 1) * steps // n)
    return rng.integers(lo, hi + 1)


def batch_loss(
    examples: Sequence[TrainingExample],
    timesteps: Sequence[int] | np.ndarray,
    schedule: NoiseSchedule,
    tau: float,
    params: ParamStore,
    rng: np.random.Generator,
) -> tuple[Tensor, Tensor, Tensor]:
    """Loss of a minibatch run as one graph with one fragment per molecule.

    The batch's noise is one `rng.standard_normal` draw over all its nodes,
    the same stream as `forward_noise` per example in batch order, scaled
    per node by the square root of its molecule's `betas`.  The descriptor
    rows are stacked and checked once, by `denoiser_forward`; rows that do
    not stack are checked one by one as `descriptor_vector` checks them.
    Returns the batch loss, which is the mean over molecules of each one's
    node-noise MSE plus bond cross-entropy, and the per-molecule MSE and
    cross-entropy, each of shape [B].  Raises `numcore.ShapeMismatch` unless
    there is one timestep per example, and `StepOutOfRange` for a step
    outside [1, T] or one that is not a whole number.
    """
    fragments = len(examples)
    steps = np.asarray(timesteps).reshape(-1)
    if steps.size != fragments:
        raise numcore.ShapeMismatch(f"{steps.size} timesteps vs {fragments} examples")
    scale = np.sqrt(betas(schedule, steps))
    steps = steps.astype(np.int64, copy=False)
    sizes = [ex.features.shape[0] for ex in examples]
    clean = np.concatenate([ex.features for ex in examples])
    node_fragments = np.repeat(np.arange(fragments), sizes)
    noise = rng.standard_normal(clean.shape)
    noisy = clean + scale[node_fragments, None] * noise
    bonds = [len(ex.bond_edges) for ex in examples]
    edges = np.array([pair for ex in examples for pair in ex.bond_edges], dtype=np.int64).reshape(-1, 2)
    edges += np.repeat(np.cumsum(sizes) - sizes, bonds)[:, None]  # each molecule's first node
    try:
        rows = np.stack([ex.condition for ex in examples]).reshape(fragments, -1)
    except ValueError:  # rows of different shapes: the per-row check names the bad one
        rows = np.stack([descriptor_vector(ex.condition, params) for ex in examples])
    out = denoiser_forward(
        noisy,
        np.concatenate([ex.coords for ex in examples]),
        edges,
        steps,
        schedule,
        rows,
        params,
        node_fragments,
    )
    mse = mse_loss(out.eps_hat, noise, node_fragments, fragments)
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
