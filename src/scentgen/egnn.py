"""Equivariant message-passing layers over point clouds of atoms.

Geometry enters only through pairwise distances, so node features are
invariant under rigid transforms while coordinate updates move with them.
Message edges are fully connected within each molecule fragment.  Each layer
(Satorras et al., arXiv:2102.09844) is three `numcore` primitives, each one
tape node with a hand-written backward: `pair_geometry` computes the
relative positions and distances of the edges once, and `node_update`
(gather, concat, node MLP, receiver sum, residual) and `coord_update`
(coordinate MLP, edge scale, receiver sum, shift) both read them.  Their
backwards add the same terms in the same order as the chain of single ops in
`tests/composite_layers.py`, so outputs and gradients have its bits.

The edges depend only on the fragment ids, so an `EdgeLayout` holds them with
everything else the layers derive from those ids: the edge scale and the
flat scatter indices of each row width summed into the edges' receivers and
senders.  `fully_connected_edges` builds the edges from the fragments' sizes
in O(n + E) memory, with no n x n mask.  `edge_layout` builds it once per
graph: per training batch, and per reverse trajectory in
`diffusion.denoiser_constants`.

The coordinate MLP reads only pair distances, never node features, so the
coordinate pathway of a pass (each layer's `pair_geometry` and the
`coord_update`s) depends on the input coordinates and the parameters alone.
`coord_stream` builds it up to the last layer's `pair_geometry` as a
`CoordStream`: `egnn_forward` builds one per call and applies the last
`coord_update` itself, and `diffusion.denoiser_constants` builds one per
reverse trajectory, whose coordinates stay fixed and whose passes read the
edge lengths only.

`node_update` gathers its MLP input with two row takes and runs
`numcore.mlp` and the receiver sum on fresh arrays, which its backward
keeps.  A denoiser pass given its trajectory's constants runs the same
ufuncs on plain arrays: it gathers the input with one `take` of the
layout's `gather_index` from a flat [features | edge lengths] array whose
edge-length tail is written once per trajectory, into buffers kept for the
whole trajectory.  Training builds an edge layout per batch, and building
the flat index for one pass would cost more than the one `take` saves, so
the `Tensor` pass keeps the row takes.
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
    """All ordered intra-fragment pairs (i, j), i != j, in lexicographic order.

    Built from the fragments' sizes and each node's rank in its fragment,
    in O(n + E) memory: a stable sort groups the nodes of each fragment in
    ascending order, and receiver i's senders are its group minus itself.
    """
    frag = np.asarray(fragment_ids, dtype=np.int64)
    n = frag.size
    order = np.argsort(frag, kind="stable")
    sorted_ids = frag[order]
    opens = np.empty(n, dtype=bool)  # whether a sorted position starts a fragment
    opens[:1] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=opens[1:])
    starts = np.flatnonzero(opens)
    group = np.cumsum(opens) - 1
    # per node: the sorted position where its fragment starts, its rank in it and its in-degree
    start, rank, degree = np.empty((3, n), dtype=np.int64)
    start[order] = starts[group]
    rank[order] = np.arange(n) - starts[group]
    degree[order] = np.diff(starts, append=n)[group] - 1
    receivers = np.repeat(np.arange(n), degree)
    first_edge = np.cumsum(degree) - degree
    # edge e of receiver i takes the k-th member of i's fragment, k = e - first_edge[i], skipping i itself
    e = np.arange(receivers.size)
    position = e + np.repeat(start - first_edge, degree)
    position += e >= np.repeat(first_edge + rank, degree)
    return receivers, order[position]


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
    receivers, `sender_scatter_index(width)` the one into their senders, which
    the layers' backwards use, and `gather_index(width)` the index that takes
    the node MLP's input from a flat [features | edge lengths] array of that
    width; each width's index is built on first use and kept.  A receiver or
    sender outside [0, n_nodes) raises IndexError here, once, so the layers
    index with them unchecked.
    """

    fragment_ids: np.ndarray
    receivers: np.ndarray
    senders: np.ndarray
    edge_scale: np.ndarray
    _scatter: dict[int, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    _sender_scatter: dict[int, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    _gather: dict[int, np.ndarray] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for name in ("receivers", "senders"):
            index = getattr(self, name)
            if index.size and (index.min() < 0 or index.max() >= self.n_nodes):
                raise IndexError(f"{name} outside [0, {self.n_nodes})")

    @property
    def n_nodes(self) -> int:
        return self.fragment_ids.shape[0]

    def scatter_index(self, width: int) -> np.ndarray:
        index = self._scatter.get(width)
        if index is None:
            index = self._scatter[width] = numcore.scatter_index(self.receivers, width)
        return index

    def sender_scatter_index(self, width: int) -> np.ndarray:
        index = self._sender_scatter.get(width)
        if index is None:
            index = self._sender_scatter[width] = numcore.scatter_index(self.senders, width)
        return index

    def gather_index(self, width: int) -> np.ndarray:
        """Positions [E, 2 * width + 1] of each edge's [x_i, x_j, |r_i - r_j|] in a flat array that holds
        the [n_nodes, width] features in row-major order, then the E edge lengths."""
        index = self._gather.get(width)
        if index is None:
            columns = np.arange(width)
            index = self._gather[width] = np.concatenate(
                [
                    self.receivers[:, None] * width + columns,
                    self.senders[:, None] * width + columns,
                    (self.n_nodes * width + np.arange(self.receivers.size))[:, None],
                ],
                axis=1,
            )
        return index


def edge_layout(fragment_ids: np.ndarray) -> EdgeLayout:
    """The `EdgeLayout` of a graph whose node i lies in fragment `fragment_ids[i]`."""
    frag = np.asarray(fragment_ids, dtype=np.int64)
    receivers, senders = fully_connected_edges(frag)
    return EdgeLayout(frag, receivers, senders, fragment_edge_scale(receivers))


def pair_geometry(coords: Tensor, layout: EdgeLayout) -> Tensor:
    """Per-edge [r_i - r_j | |r_i - r_j|] over the edges of `layout`, shape [E, 4]; one tape node.

    The distance's gradient divides by max(|r_i - r_j|, 1e-150), so
    coincident atoms get a finite gradient.
    """
    c = coords.data
    rel = c[layout.receivers] - c[layout.senders]
    dist = np.sqrt((rel * rel).sum(axis=1, keepdims=True))

    def bw(g):
        # sum(rel * rel) hands each of the product's two factors the same
        # term, added one after the other
        square = g[:, 3:] * 0.5 / np.maximum(dist, 1e-150) * rel
        g_rel = g[:, :3] + square + square
        numcore.accumulate(coords, numcore.scatter_add(layout.scatter_index(3), g_rel, c.shape))
        numcore.accumulate(coords, numcore.scatter_add(layout.sender_scatter_index(3), -g_rel, c.shape))

    return numcore.primitive(np.concatenate([rel, dist], axis=1), (coords,), bw)


def node_update(features: Tensor, geometry: Tensor, params: ParamStore, layer: str, layout: EdgeLayout) -> Tensor:
    """New features x_i + sum_j phi_e([x_i, x_j, |r_i - r_j|]), shape [n, d]; one tape node.

    `geometry` is `pair_geometry` over `layout`, and phi_e is the MLP
    `{layer}.node_mlp`.  The sum runs over the edges of `layout`.
    """
    f = features.data
    width = f.shape[1]
    receivers, senders = layout.receivers, layout.senders
    weights = numcore.mlp_params(params, f"{layer}.node_mlp", 2 * width + 1)
    x = np.concatenate([f.take(receivers, axis=0), f.take(senders, axis=0), geometry.data[:, 3:]], axis=1)
    mlp = numcore.MLPPass(weights, x, numcore.mlp(x, *(w.data for w in weights)))
    out = f + numcore.scatter_add(layout.scatter_index(width), mlp.out, f.shape)

    def bw(g):
        numcore.accumulate(features, g)
        g_in = mlp.backward(g[receivers], features.tracked() or geometry.tracked())
        if geometry.tracked():
            g_geometry = np.zeros((receivers.size, 4))
            g_geometry[:, 3:] = g_in[:, 2 * width :]
            numcore.accumulate(geometry, g_geometry)
        if features.tracked():
            numcore.accumulate(features, numcore.scatter_add(layout.scatter_index(width), g_in[:, :width], f.shape))
            numcore.accumulate(
                features,
                numcore.scatter_add(layout.sender_scatter_index(width), g_in[:, width : 2 * width], f.shape),
            )

    return numcore.primitive(out, (features, geometry, *mlp.weights), bw)


def coord_update(coords: Tensor, geometry: Tensor, params: ParamStore, layer: str, layout: EdgeLayout) -> Tensor:
    """New coordinates r_i + sum_j s_ij phi_x(|r_i - r_j|) (r_i - r_j), shape [n, 3]; one tape node.

    `geometry` is `pair_geometry` over `layout`, phi_x is the MLP
    `{layer}.coord_mlp`, and s_ij is `layout.edge_scale`, 1 / (fragment
    size - 1), which keeps fully connected sums bounded.
    """
    c = coords.data
    rel = geometry.data[:, :3]
    # a contiguous column: matmul sums a strided one in another order
    dist = geometry.data[:, 3:].copy()
    weights = numcore.mlp_params(params, f"{layer}.coord_mlp", 1)
    mlp = numcore.MLPPass(weights, dist, numcore.mlp(dist, *(w.data for w in weights)))
    weight = mlp.out * layout.edge_scale

    def bw(g):
        numcore.accumulate(coords, g)
        g_shift = g[layout.receivers]
        g_weight = (g_shift * rel).sum(axis=1, keepdims=True)
        g_dist = mlp.backward(g_weight * layout.edge_scale, geometry.tracked())
        if g_dist is not None:
            numcore.accumulate(geometry, np.concatenate([g_shift * weight, g_dist], axis=1))

    out = c + numcore.scatter_add(layout.scatter_index(3), weight * rel, c.shape)
    return numcore.primitive(out, (coords, *mlp.weights, geometry), bw)


@dataclass(frozen=True)
class CoordStream:
    """The coordinate pathway of one `egnn_forward` over the edges of `layout`, up to its last layer's `coord_update`.

    `coords` is the input, `geometry` the `pair_geometry` each layer of
    DEFAULT_LAYERS reads (empty when the layout has no edges), and `last`
    the coordinates the last layer reads: `coords` moved by every earlier
    layer's `coord_update`.  No node update reads the last layer's output
    coordinates, so the stream stops before it.
    """

    layout: EdgeLayout
    coords: Tensor
    geometry: tuple[Tensor, ...]
    last: Tensor


def coord_stream(coords: Tensor, params: ParamStore, layout: EdgeLayout) -> CoordStream:
    """Each layer's `pair_geometry` over `layout`, with the `coord_update`s between them, starting at `coords`."""
    geometry: list[Tensor] = []
    last = coords
    if layout.receivers.size:
        geometry.append(pair_geometry(last, layout))
        for layer in DEFAULT_LAYERS[:-1]:
            last = coord_update(last, geometry[-1], params, layer, layout)
            geometry.append(pair_geometry(last, layout))
    return CoordStream(layout, coords, tuple(geometry), last)


def egnn_forward(state: NodeState, params: ParamStore, layout: EdgeLayout | None = None) -> NodeState:
    """Run the DEFAULT_LAYERS with residual feature sums and coordinate shifts.

    Messages pass along the edges of `layout` (default: one fragment holding
    every node).  Each layer is three tape nodes: `pair_geometry`, and
    `node_update` and `coord_update`, which both read it; the coordinate
    pathway runs first, as `coord_stream` and then the last layer's
    `coord_update`.  A graph without edges (every fragment a single atom)
    passes through every layer unchanged.
    """
    n = state.n_nodes
    if layout is None:
        layout = edge_layout(np.zeros(n, dtype=np.int64))
    elif layout.n_nodes != n:
        raise numcore.ShapeMismatch(f"{n} nodes vs an edge layout of {layout.n_nodes}")
    stream = coord_stream(state.coords, params, layout)
    coords = stream.last
    if stream.geometry:
        coords = coord_update(coords, stream.geometry[-1], params, DEFAULT_LAYERS[-1], layout)
    features = state.features
    for layer, geometry in zip(DEFAULT_LAYERS, stream.geometry):
        features = node_update(features, geometry, params, layer, layout)
    return NodeState(features=features, coords=coords)


def init_egnn_layer(
    params: ParamStore, layer: str, width: int, hidden: int, rng: np.random.Generator
) -> None:
    """Allocate node MLP (2d+1 -> hidden -> d) and coord MLP (1 -> hidden -> 1)."""
    numcore.init_mlp(params, f"{layer}.node_mlp", 2 * width + 1, hidden, width, rng)
    numcore.init_mlp(params, f"{layer}.coord_mlp", 1, hidden, 1, rng)
