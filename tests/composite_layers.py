"""The affine map, the MLP and the EGNN layer as chains of single numcore ops.

This is how `numcore.linear`, `numcore.mlp_forward` and each layer of
`egnn.egnn_forward` were built before they became primitives with a
hand-written backward.  The tests run both and require the same bits in
every output and every gradient.
"""

from __future__ import annotations

import numpy as np

from scentgen import egnn, numcore
from scentgen.egnn import DEFAULT_LAYERS, EdgeLayout, NodeState
from scentgen.numcore import ParamStore, ShapeMismatch, Tensor


def linear(params: ParamStore, name: str, x: Tensor) -> Tensor:
    """x @ w + b as matmul then add."""
    w = params[f"{name}.w"]
    b = params[f"{name}.b"]
    x = numcore.as_tensor(x)
    if x.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeMismatch(f"linear {name!r}: input {x.data.shape} vs weight {w.data.shape}")
    return numcore.add(numcore.matmul(x, w), b)


def mlp_forward(params: ParamStore, name: str, x: Tensor) -> Tensor:
    """Affine, SiLU, affine as five ops."""
    w1, b1, w2, b2 = (params[f"{name}.{suffix}"] for suffix in ("w1", "b1", "w2", "b2"))
    x = numcore.as_tensor(x)
    if x.data.ndim != 2 or x.data.shape[1] != w1.data.shape[0]:
        raise ShapeMismatch(f"mlp {name!r}: input {x.data.shape} vs weight {w1.data.shape}")
    hidden = numcore.silu(numcore.add(numcore.matmul(x, w1), b1))
    return numcore.add(numcore.matmul(hidden, w2), b2)


def edge_geometry(coords: Tensor, receivers: np.ndarray, senders: np.ndarray) -> tuple[Tensor, Tensor]:
    """Relative positions r_i - r_j [E, 3] and distances |r_i - r_j| [E, 1] per edge."""
    rel = numcore.sub(numcore.gather(coords, receivers), numcore.gather(coords, senders))
    return rel, numcore.sqrt(numcore.sum_(numcore.mul(rel, rel), axis=1, keepdims=True))


def compute_messages(state, params, layer, receivers, senders, dist) -> Tensor:
    """Per-edge messages from [x_i, x_j, |r_i - r_j|], shape [E, d]."""
    x_i = numcore.gather(state.features, receivers)
    x_j = numcore.gather(state.features, senders)
    return mlp_forward(params, f"{layer}.node_mlp", numcore.concat([x_i, x_j, dist], axis=1))


def update_coordinates(state, params, layer, receivers, rel, dist, edge_scale) -> Tensor:
    """New coordinates r_i + sum_j s_ij phi(|r_i - r_j|) (r_i - r_j), shape [n, 3]."""
    weight = numcore.mul(mlp_forward(params, f"{layer}.coord_mlp", dist), edge_scale)
    delta = numcore.segment_sum(numcore.mul(weight, rel), receivers, state.n_nodes)
    return numcore.add(state.coords, delta)


def egnn_forward(state: NodeState, params: ParamStore, layout: EdgeLayout | None = None, stream=None) -> NodeState:
    """The DEFAULT_LAYERS as chains of single ops, one edge geometry per layer.

    A prebuilt `stream` is not read: the chain rebuilds the coordinate pathway from `state.coords`.
    """
    n = state.n_nodes
    if layout is None:
        layout = egnn.edge_layout(np.zeros(n, dtype=np.int64))
    elif layout.n_nodes != n:
        raise ShapeMismatch(f"{n} nodes vs an edge layout of {layout.n_nodes}")
    receivers, senders = layout.receivers, layout.senders
    if len(receivers) == 0:
        return state
    current = state
    for layer in DEFAULT_LAYERS:
        rel, dist = edge_geometry(current.coords, receivers, senders)
        messages = compute_messages(current, params, layer, receivers, senders, dist)
        features = numcore.add(current.features, numcore.segment_sum(messages, receivers, n))
        coords = update_coordinates(current, params, layer, receivers, rel, dist, layout.edge_scale)
        current = NodeState(features=features, coords=coords)
    return current
