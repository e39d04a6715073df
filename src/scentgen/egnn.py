"""Equivariant message-passing layers over point clouds of atoms.

Geometry enters only through pairwise distances, so node features are
invariant under rigid transforms while coordinate updates move with them.
Message edges are fully connected within each molecule fragment.  Each layer
(Satorras et al., arXiv:2102.09844) computes the relative positions and
distances of its edges once, in `edge_geometry`, and both `compute_messages`
and `update_coordinates` read them.

The edges depend only on the fragment ids, so an `EdgeLayout` holds them with
everything else the layers derive from those ids: the edge scale and the flat
scatter index of each row width summed over the edges.  A caller that runs
many passes over one layout, such as a reverse trajectory, builds it once
with `edge_layout` and passes it to every `egnn_forward`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore
from .numcore import ParamStore, Tensor

DEFAULT_LAYERS = ("egnn.0", "egnn.1")


@dataclass
class NodeState:
    """Hidden node features [n, d] alongside coordinates [n, 3]."""

    features: Tensor
    coords: Tensor

    @property
    def n_nodes(self) -> int:
        return self.features.data.shape[0]


def fully_connected_edges(fragment_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All ordered intra-fragment pairs (i, j), i != j, in lexicographic order."""
    frag = np.asarray(fragment_ids, dtype=np.int64)
    same = frag[:, None] == frag[None, :]
    np.fill_diagonal(same, False)
    receivers, senders = np.nonzero(same)
    return receivers, senders


def fragment_edge_scale(receivers: np.ndarray) -> np.ndarray:
    """Per-edge weight 1 / (fragment size - 1), shape [E, 1], for fully connected edges.

    A node receives one edge from every other atom of its fragment, so its
    in-degree is its fragment size - 1.
    """
    return (1.0 / np.bincount(receivers)[receivers]).reshape(-1, 1)


@dataclass(frozen=True)
class EdgeLayout:
    """Fully connected intra-fragment edges of one graph and what the layers derive from them.

    `edge_scale` is `fragment_edge_scale(receivers)`.  `scatter_index(width)`
    gives the flat index that sums rows of `width` columns into their
    receivers; each width's index is built on first use and kept.
    """

    fragment_ids: np.ndarray
    receivers: np.ndarray
    senders: np.ndarray
    edge_scale: np.ndarray
    _scatter: dict[int, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.fragment_ids.shape[0]

    def scatter_index(self, width: int) -> np.ndarray:
        index = self._scatter.get(width)
        if index is None:
            index = self._scatter[width] = numcore.scatter_index(self.receivers, width)
        return index


def edge_layout(fragment_ids: np.ndarray) -> EdgeLayout:
    """The `EdgeLayout` of a graph whose node i lies in fragment `fragment_ids[i]`."""
    frag = np.asarray(fragment_ids, dtype=np.int64)
    receivers, senders = fully_connected_edges(frag)
    return EdgeLayout(frag, receivers, senders, fragment_edge_scale(receivers))


def edge_geometry(coords: Tensor, receivers: np.ndarray, senders: np.ndarray) -> tuple[Tensor, Tensor]:
    """Relative positions r_i - r_j [E, 3] and distances |r_i - r_j| [E, 1] per edge.

    Indices outside the node range raise IndexError.
    """
    rel = numcore.sub(numcore.gather(coords, receivers), numcore.gather(coords, senders))
    return rel, numcore.sqrt(numcore.sum_(numcore.mul(rel, rel), axis=1, keepdims=True))


def compute_messages(
    state: NodeState,
    params: ParamStore,
    layer: str,
    receivers: np.ndarray,
    senders: np.ndarray,
    dist: Tensor,
) -> Tensor:
    """Per-edge messages from [x_i, x_j, |r_i - r_j|], shape [E, d]."""
    x_i = numcore.gather(state.features, receivers)
    x_j = numcore.gather(state.features, senders)
    return numcore.mlp_forward(params, f"{layer}.node_mlp", numcore.concat([x_i, x_j, dist], axis=1))


def update_coordinates(
    state: NodeState,
    params: ParamStore,
    layer: str,
    receivers: np.ndarray,
    rel: Tensor,
    dist: Tensor,
    edge_scale: np.ndarray | None = None,
    scatter_index: np.ndarray | None = None,
) -> Tensor:
    """New coordinates r_i + sum_j phi(|r_i - r_j|) (r_i - r_j), shape [n, 3].

    `rel` and `dist` come from `edge_geometry`.  `edge_scale` [E, 1] rescales
    each edge's contribution; the forward pass uses 1 / (fragment size - 1)
    to keep fully connected sums bounded.  `scatter_index`, when given, is
    the receivers' flat index for width 3 (`EdgeLayout.scatter_index(3)`).
    """
    weight = numcore.mlp_forward(params, f"{layer}.coord_mlp", dist)
    if edge_scale is not None:
        weight = numcore.mul(weight, edge_scale)
    delta = numcore.segment_sum(numcore.mul(weight, rel), receivers, state.n_nodes, scatter_index)
    return numcore.add(state.coords, delta)


def egnn_forward(state: NodeState, params: ParamStore, layout: EdgeLayout | None = None) -> NodeState:
    """Run the DEFAULT_LAYERS with residual feature sums and coordinate shifts.

    Messages pass along the edges of `layout` (default: one fragment holding
    every node).  Each layer computes the edge geometry once and feeds it to
    both the messages and the coordinate update.  A graph without edges
    (every fragment a single atom) passes through every layer unchanged.
    """
    n = state.n_nodes
    if layout is None:
        layout = edge_layout(np.zeros(n, dtype=np.int64))
    elif layout.n_nodes != n:
        raise numcore.ShapeMismatch(f"{n} nodes vs an edge layout of {layout.n_nodes}")
    receivers, senders = layout.receivers, layout.senders
    if len(receivers) == 0:
        return state
    feature_index = layout.scatter_index(state.features.data.shape[1])
    coord_index = layout.scatter_index(3)

    current = state
    for layer in DEFAULT_LAYERS:
        rel, dist = edge_geometry(current.coords, receivers, senders)
        messages = compute_messages(current, params, layer, receivers, senders, dist)
        features = numcore.add(current.features, numcore.segment_sum(messages, receivers, n, feature_index))
        coords = update_coordinates(
            current, params, layer, receivers, rel, dist, layout.edge_scale, coord_index
        )
        current = NodeState(features=features, coords=coords)
    return current


def init_egnn_layer(
    params: ParamStore, layer: str, width: int, hidden: int, rng: np.random.Generator
) -> None:
    """Allocate node MLP (2d+1 -> hidden -> d) and coord MLP (1 -> hidden -> 1)."""
    numcore.init_mlp(params, f"{layer}.node_mlp", 2 * width + 1, hidden, width, rng)
    numcore.init_mlp(params, f"{layer}.coord_mlp", 1, hidden, 1, rng)
