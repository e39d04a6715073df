"""The affine map, the MLP and the EGNN layer as chains of single numcore ops.

The library runs each of these as one primitive with a hand-written backward
(`numcore.linear`, `numcore.MLPPass` inside `egnn.node_update` and
`egnn.coord_update`, `egnn.pair_geometry`).  The tests run both and require
the same bits in every output and every gradient.  `matmul`, `sqrt` and
`silu` are single ops that only these chains use, so they live here; each is
a `numcore.primitive` with its own backward.
"""

from __future__ import annotations

import numpy as np

from scentgen import egnn, numcore
from scentgen.egnn import DEFAULT_LAYERS, EdgeLayout, NodeState
from scentgen.numcore import ParamStore, ShapeMismatch, Tensor, accumulate, as_tensor, primitive


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul of {a.data.shape} by {b.data.shape}")

    def bw(g):
        accumulate(a, g @ b.data.T)
        accumulate(b, a.data.T @ g)

    return primitive(a.data @ b.data, (a, b), bw)


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root; the derivative is clamped at zero input."""
    a = as_tensor(a)
    out_data = np.sqrt(a.data)
    return primitive(out_data, (a,), lambda g: accumulate(a, g * 0.5 / np.maximum(out_data, 1e-150)))


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x) with `numcore`'s stable sigmoid and its gradient."""
    a = as_tensor(a)
    x = a.data
    out_data, sig = numcore._silu(x)
    return primitive(out_data, (a,), lambda g: accumulate(a, numcore._silu_grad(g, x, sig)))


def linear(params: ParamStore, name: str, x: Tensor) -> Tensor:
    """x @ w + b as matmul then add."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeMismatch(f"linear {name!r}: input of shape {x.data.shape} is not 2-D")
    w, b = numcore.affine_params(params, name, x.data.shape[1])
    return numcore.add(matmul(x, w), b)


def mlp_forward(params: ParamStore, name: str, x: Tensor) -> Tensor:
    """Affine, SiLU, affine of the 2-D `x` as five ops."""
    x = as_tensor(x)
    w1, b1, w2, b2 = numcore.mlp_params(params, name, x.data.shape[1])
    return numcore.add(matmul(silu(numcore.add(matmul(x, w1), b1)), w2), b2)


def egnn_forward(state: NodeState, params: ParamStore, layout: EdgeLayout | None = None) -> NodeState:
    """The DEFAULT_LAYERS as chains of single ops, one edge geometry per layer."""
    n = state.n_nodes
    if layout is None:
        layout = egnn.edge_layout(np.zeros(n, dtype=np.int64))
    elif layout.n_nodes != n:
        raise ShapeMismatch(f"{n} nodes vs an edge layout of {layout.n_nodes}")
    receivers, senders = layout.receivers, layout.senders
    if len(receivers) == 0:
        return state
    features, coords = state.features, state.coords
    for layer in DEFAULT_LAYERS:
        # r_i - r_j and |r_i - r_j| per edge
        rel = numcore.sub(numcore.gather(coords, receivers), numcore.gather(coords, senders))
        dist = sqrt(numcore.sum_(numcore.mul(rel, rel), axis=1, keepdims=True))
        # x_i + sum_j phi_e([x_i, x_j, |r_i - r_j|])
        pair = numcore.concat([numcore.gather(features, receivers), numcore.gather(features, senders), dist], axis=1)
        messages = mlp_forward(params, f"{layer}.node_mlp", pair)
        features = numcore.add(features, numcore.segment_sum(messages, receivers, n))
        # r_i + sum_j s_ij phi_x(|r_i - r_j|) (r_i - r_j)
        weight = numcore.mul(mlp_forward(params, f"{layer}.coord_mlp", dist), layout.edge_scale)
        coords = numcore.add(coords, numcore.segment_sum(numcore.mul(weight, rel), receivers, n))
    return NodeState(features=features, coords=coords)
