import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composite_layers
from scentgen import egnn, numcore
from scentgen.egnn import (
    EdgeLayout,
    NodeState,
    coord_stream,
    coord_update,
    edge_layout,
    egnn_forward,
    fragment_edge_scale,
    fully_connected_edges,
    init_egnn_layer,
    node_update,
    pair_geometry,
)
from scentgen.numcore import ParamStore, Tensor

D = 8


def make_params(seed=0, layers=("egnn.0", "egnn.1")):
    rng = np.random.default_rng(seed)
    params = ParamStore()
    for layer in layers:
        init_egnn_layer(params, layer, D, D, rng)
    return params


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


def state_of(features, coords):
    return NodeState(Tensor(features), Tensor(coords))


def one_fragment(state):
    return edge_layout(np.zeros(state.n_nodes, dtype=int))


def features_after(state, params):
    layout = one_fragment(state)
    return node_update(state.features, pair_geometry(state.coords, layout), params, "egnn.0", layout)


def coords_after(state, params):
    layout = one_fragment(state)
    return coord_update(state.coords, pair_geometry(state.coords, layout), params, "egnn.0", layout)


def reference_edges(frag):
    """The double-loop edge build that the vectorised one replaced."""
    n = len(frag)
    receivers = []
    senders = []
    for i in range(n):
        for j in range(n):
            if i != j and frag[i] == frag[j]:
                receivers.append(i)
                senders.append(j)
    return np.asarray(receivers, dtype=np.int64), np.asarray(senders, dtype=np.int64)


def mask_edges(frag):
    """The N x N mask edge build that the build from fragment sizes replaced."""
    frag = np.asarray(frag, dtype=np.int64)
    same = frag[:, None] == frag[None, :]
    np.fill_diagonal(same, False)
    return np.nonzero(same)


def reference_edge_scale(frag, receivers):
    """The per-edge 1 / max(fragment size - 1, 1) built from a size dict."""
    _, frag_sizes = np.unique(frag, return_counts=True)
    size_of = {int(f): int(c) for f, c in zip(np.unique(frag), frag_sizes)}
    return np.array([1.0 / max(size_of[int(frag[i])] - 1, 1) for i in receivers], dtype=np.float64)


def test_fully_connected_edges_single_fragment():
    recv, send = fully_connected_edges(np.zeros(3, dtype=int))
    assert sorted(zip(recv.tolist(), send.tolist())) == [
        (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
    ]


def test_fully_connected_edges_respects_fragments():
    recv, send = fully_connected_edges(np.array([0, 0, 1, 1]))
    pairs = set(zip(recv.tolist(), send.tolist()))
    assert (0, 2) not in pairs and (2, 0) not in pairs
    assert (0, 1) in pairs and (2, 3) in pairs


def edge_layouts():
    """Seeded random fragment layouts plus the edge cases of the edge build."""
    rng = np.random.default_rng(4)
    layouts = [
        np.array([0]),                      # n = 1
        np.array([3, 1, 2]),                # only single-atom fragments
        np.array([4, 9, 4, 2, 9, 9]),       # unsorted, non-contiguous, one singleton
        np.array([-3, 7, -3, 7, 0]),        # negative ids
    ]
    for _ in range(40):
        n = int(rng.integers(1, 16))
        ids = rng.choice(np.array([-5, 0, 2, 3, 11, 40]), size=int(rng.integers(1, 5)), replace=False)
        layouts.append(rng.choice(ids, size=n))
    return layouts


@pytest.mark.parametrize("frag", edge_layouts(), ids=lambda f: ",".join(map(str, f)))
def test_edges_and_scale_match_double_loop(frag):
    recv, send = fully_connected_edges(frag)
    ref_recv, ref_send = reference_edges(frag)
    assert recv.dtype == np.int64 and send.dtype == np.int64
    assert np.array_equal(recv, ref_recv) and np.array_equal(send, ref_send)
    scale = fragment_edge_scale(recv)
    assert scale.shape == (len(ref_recv), 1)
    assert np.array_equal(scale[:, 0], reference_edge_scale(frag, ref_recv))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    ids=st.lists(st.sampled_from([-(2**40), -7, -1, 0, 1, 2, 3, 9, 40, 2**40]), max_size=40),
    sort=st.booleans(),
)
def test_edges_match_the_mask_build(ids, sort):
    """Empty, singleton, sorted, unsorted, negative and non-contiguous ids: the
    same receivers and senders as the N x N mask, in the same order, as int64."""
    frag = np.array(sorted(ids) if sort else ids, dtype=np.int64)
    receivers, senders = fully_connected_edges(frag)
    want_receivers, want_senders = mask_edges(frag)
    for got, want in ((receivers, want_receivers), (senders, want_senders)):
        assert got.dtype == np.int64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("frag", edge_layouts(), ids=lambda f: ",".join(map(str, f)))
def test_edge_layout_matches_edges_scale_and_flat_index(frag):
    layout = edge_layout(frag)
    recv, send = fully_connected_edges(frag)
    assert np.array_equal(layout.fragment_ids, frag) and layout.n_nodes == len(frag)
    assert np.array_equal(layout.receivers, recv) and np.array_equal(layout.senders, send)
    assert layout.edge_scale.shape == (len(recv), 1)
    assert np.array_equal(layout.edge_scale, fragment_edge_scale(recv))
    for width in (1, 3, D):
        flat = [r * width + c for r in recv.tolist() for c in range(width)]
        assert layout.scatter_index(width).tolist() == flat
        assert layout.scatter_index(width) is layout.scatter_index(width)
        sender_flat = [s * width + c for s in send.tolist() for c in range(width)]
        assert layout.sender_scatter_index(width).tolist() == sender_flat
        assert layout.sender_scatter_index(width) is layout.sender_scatter_index(width)
        # one take from [features | edge lengths] is the concatenation [x_i, x_j, |r_i - r_j|]
        f = np.arange(len(frag) * width, dtype=np.float64).reshape(-1, width) + 0.5
        dist = -np.arange(1.0, len(recv) + 1.0).reshape(-1, 1)
        gathered = np.concatenate([f.reshape(-1), dist.reshape(-1)])[layout.gather_index(width)]
        assert gathered.tobytes() == np.concatenate([f[recv], f[send], dist], axis=1).tobytes()
        assert layout.gather_index(width) is layout.gather_index(width)


def test_forward_rejects_a_layout_of_another_size(rng):
    state = state_of(rng.normal(size=(3, D)), rng.normal(size=(3, 3)))
    with pytest.raises(numcore.ShapeMismatch):
        egnn_forward(state, make_params(), edge_layout(np.zeros(4, dtype=int)))


def test_forward_with_layout_equals_forward_without(rng):
    """The default layout is one fragment: passing it gives the same bits."""
    params = make_params()
    state = state_of(rng.normal(size=(5, D)), rng.normal(size=(5, 3)))
    base = egnn_forward(state, params)
    out = egnn_forward(state, params, edge_layout(np.zeros(5, dtype=int)))
    assert base.features.data.tobytes() == out.features.data.tobytes()
    assert base.coords.data.tobytes() == out.coords.data.tobytes()


def test_messages_zero_distance_twins(rng):
    params = make_params()
    feats = rng.normal(size=(2, D))
    feats[1] = feats[0]
    state = state_of(feats, np.ones((2, 3)))
    geometry = pair_geometry(state.coords, one_fragment(state))
    assert geometry.data.shape == (2, 4) and np.abs(geometry.data).max() == 0.0
    # twin nodes with identical features receive identical messages both ways
    out = features_after(state, params)
    assert np.abs(out.data[0] - out.data[1]).max() < 1e-12


def test_pair_geometry_is_relative_position_and_distance(rng):
    coords = rng.normal(size=(5, 3))
    layout = edge_layout(np.array([0, 1, 0, 1, 1]))
    geometry = pair_geometry(Tensor(coords), layout).data
    rel = coords[layout.receivers] - coords[layout.senders]
    assert np.array_equal(geometry[:, :3], rel)
    assert np.abs(geometry[:, 3] - np.linalg.norm(rel, axis=1)).max() < 1e-15


def test_messages_rotation_invariant(rng):
    params = make_params()
    feats = rng.normal(size=(4, D))
    coords = rng.normal(size=(4, 3))
    base = features_after(state_of(feats, coords), params)
    rot = features_after(state_of(feats, coords @ random_rotation(rng).T), params)
    assert np.abs(base.data - rot.data).max() < 1e-12


def test_messages_zero_weights(rng):
    params = ParamStore()
    for suffix, shape in (
        ("w1", (2 * D + 1, D)), ("b1", (D,)), ("w2", (D, D)), ("b2", (D,)),
    ):
        params.add(f"egnn.0.node_mlp.{suffix}", np.zeros(shape))
    feats = rng.normal(size=(3, D))
    out = features_after(state_of(feats, rng.normal(size=(3, 3))), params)
    assert np.array_equal(out.data, feats)


def test_messages_index_out_of_range():
    """The layout checks its edges once; the layers then index with them unchecked."""
    frag, scale = np.zeros(2, dtype=np.int64), np.ones((1, 1))
    for recv, send in (([0], [5]), ([2], [0]), ([-1], [0]), ([0], [-2])):
        with pytest.raises(IndexError):
            EdgeLayout(frag, np.array(recv), np.array(send), scale)


def test_node_update_rejects_features_of_another_width(rng):
    state = state_of(rng.normal(size=(3, D - 1)), rng.normal(size=(3, 3)))
    with pytest.raises(numcore.ShapeMismatch, match="node_mlp"):
        features_after(state, make_params())
    with pytest.raises(numcore.ShapeMismatch):
        egnn_forward(state, make_params())


def test_layers_name_a_missing_parameter(rng):
    state = state_of(rng.normal(size=(3, D)), rng.normal(size=(3, 3)))
    with pytest.raises(numcore.UnknownParam, match="egnn.0.node_mlp.w1"):
        features_after(state, ParamStore())
    with pytest.raises(numcore.UnknownParam, match="egnn.0.coord_mlp.w1"):
        coords_after(state, ParamStore())


def test_update_coordinates_no_neighbors(rng):
    params = make_params()
    coords = rng.normal(size=(1, 3))
    out = coords_after(state_of(rng.normal(size=(1, D)), coords), params)
    assert np.array_equal(out.data, coords)


def test_update_coordinates_antisymmetric_pair(rng):
    params = make_params()
    coords = np.array([[1.0, 0.5, -0.25], [-1.0, -0.5, 0.25]])
    out = coords_after(state_of(rng.normal(size=(2, D)), coords), params)
    delta = out.data - coords
    assert np.abs(delta[0] + delta[1]).max() < 1e-12


def test_update_coordinates_rotation_equivariant(rng):
    """Rotate-then-update equals update-then-rotate over 100 random rotations."""
    params = make_params()
    feats = rng.normal(size=(5, D))
    coords = rng.normal(size=(5, 3))
    base = coords_after(state_of(feats, coords), params).data
    for _ in range(100):
        q = random_rotation(rng)
        rotated = coords_after(state_of(feats, coords @ q.T), params).data
        assert np.abs(rotated - base @ q.T).max() < 1e-6


def test_forward_zero_weight_layers_identity(rng):
    params = ParamStore()
    for layer in ("egnn.0", "egnn.1"):
        for mlp, n_in, n_out in (("node_mlp", 2 * D + 1, D), ("coord_mlp", 1, 1)):
            params.add(f"{layer}.{mlp}.w1", np.zeros((n_in, D)))
            params.add(f"{layer}.{mlp}.b1", np.zeros(D))
            params.add(f"{layer}.{mlp}.w2", np.zeros((D, n_out)))
            params.add(f"{layer}.{mlp}.b2", np.zeros(n_out))
    feats = rng.normal(size=(4, D))
    coords = rng.normal(size=(4, 3))
    out = egnn_forward(state_of(feats, coords), params)
    assert np.array_equal(out.features.data, feats)
    assert np.array_equal(out.coords.data, coords)


def test_forward_translation_equivariant(rng):
    params = make_params()
    feats = rng.normal(size=(6, D))
    coords = rng.normal(size=(6, 3))
    shift = rng.normal(size=3)
    base = egnn_forward(state_of(feats, coords), params)
    moved = egnn_forward(state_of(feats, coords + shift), params)
    assert np.abs(base.features.data - moved.features.data).max() < 1e-9
    assert np.abs(moved.coords.data - (base.coords.data + shift)).max() < 1e-9


def test_forward_rotation_equivariant(rng):
    params = make_params()
    feats = rng.normal(size=(5, D))
    coords = rng.normal(size=(5, 3))
    base = egnn_forward(state_of(feats, coords), params)
    for _ in range(25):
        q = random_rotation(rng)
        v = rng.normal(size=3)
        out = egnn_forward(state_of(feats, coords @ q.T + v), params)
        assert np.abs(out.features.data - base.features.data).max() < 1e-6
        assert np.abs(out.coords.data - (base.coords.data @ q.T + v)).max() < 1e-6


def test_forward_reflection_equivariant(rng):
    params = make_params()
    feats = rng.normal(size=(4, D))
    coords = rng.normal(size=(4, 3))
    mirror = np.diag([-1.0, 1.0, 1.0])
    base = egnn_forward(state_of(feats, coords), params)
    out = egnn_forward(state_of(feats, coords @ mirror), params)
    assert np.abs(out.features.data - base.features.data).max() < 1e-9
    assert np.abs(out.coords.data - base.coords.data @ mirror).max() < 1e-9


def test_forward_permutation_equivariant(rng):
    params = make_params()
    for n in range(2, 7):
        feats = rng.normal(size=(n, D))
        coords = rng.normal(size=(n, 3))
        base = egnn_forward(state_of(feats, coords), params)
        for perm in itertools.islice(itertools.permutations(range(n)), 6):
            perm = list(perm)
            out = egnn_forward(state_of(feats[perm], coords[perm]), params)
            assert np.abs(out.features.data - base.features.data[perm]).max() < 1e-9
            assert np.abs(out.coords.data - base.coords.data[perm]).max() < 1e-9


def test_forward_empty_edges_identity(rng):
    params = make_params()
    feats = rng.normal(size=(1, D))
    coords = rng.normal(size=(1, 3))
    out = egnn_forward(state_of(feats, coords), params)
    assert np.array_equal(out.features.data, feats)
    assert np.array_equal(out.coords.data, coords)


def test_forward_fragments_independent(rng):
    """Two disconnected copies of a molecule produce identical per-copy outputs."""
    params = make_params()
    feats = rng.normal(size=(3, D))
    coords = rng.normal(size=(3, 3))
    base = egnn_forward(state_of(feats, coords), params)
    doubled_feats = np.vstack([feats, feats])
    doubled_coords = np.vstack([coords, coords + 100.0])
    frag = np.array([0, 0, 0, 1, 1, 1])
    out = egnn_forward(state_of(doubled_feats, doubled_coords), params, edge_layout(frag))
    assert np.abs(out.features.data[:3] - base.features.data).max() < 1e-9
    assert np.abs(out.features.data[3:] - base.features.data).max() < 1e-9
    assert np.abs(out.coords.data[:3] - base.coords.data).max() < 1e-9
    assert np.abs((out.coords.data[3:] - 100.0) - base.coords.data).max() < 1e-9


def test_forward_gradient_flows_through_layers(rng):
    params = make_params()
    feats = rng.normal(size=(4, D))
    coords = rng.normal(size=(4, 3))
    out = egnn_forward(state_of(feats, coords), params)
    loss = numcore.mean_(numcore.mul(out.features, out.features))
    params.zero_grad()
    numcore.backward(loss)
    # the first layer's node MLP must receive signal
    assert np.abs(params["egnn.0.node_mlp.w1"].grad).max() > 0


# ------------------------------------- the layer primitives vs the op chain


def kernel_cases():
    """(fragment ids, coordinates) covering batches, lone atoms, no edges and coincident atoms."""
    rng = np.random.default_rng(12)
    coincident = rng.normal(size=(4, 3))
    coincident[2] = coincident[0]
    stacked = rng.normal(size=(3, 3))
    return {
        "one fragment": (np.zeros(6, dtype=int), rng.normal(size=(6, 3))),
        "three fragments": (np.array([0, 0, 1, 1, 1, 2, 2, 2, 2]), rng.normal(size=(9, 3)) * 3.0),
        "unsorted fragments": (np.array([2, 0, 2, 1, 0, 1, 2]), rng.normal(size=(7, 3))),
        "single-atom fragment": (np.array([0, 0, 1, 2, 2, 2]), rng.normal(size=(6, 3))),
        "no edges": (np.array([0, 1, 2]), rng.normal(size=(3, 3))),
        "one atom": (np.array([0]), rng.normal(size=(1, 3))),
        "coincident atoms": (np.zeros(4, dtype=int), coincident),
        "all atoms at one point": (np.array([0, 0, 0, 1, 1]), np.vstack([stacked[:1]] * 3 + [stacked[1:2]] * 2)),
        "tiny and huge scales": (
            np.array([0, 0, 0, 1, 1]), rng.normal(size=(5, 3)) * np.array([[1e-9], [1e-9], [1e-9], [1e4], [1e4]])
        ),
    }


def run_layers(forward, params, feats, coords, frag, track, weights):
    """Outputs, loss and every gradient of a weighted sum of `forward`'s outputs."""
    features = Tensor(feats, requires_grad=track[0])
    positions = Tensor(coords, requires_grad=track[1])
    out = forward(NodeState(features, positions), params, edge_layout(frag))
    loss = numcore.add(
        numcore.sum_(numcore.mul(out.features, Tensor(weights[0]))),
        numcore.sum_(numcore.mul(out.coords, Tensor(weights[1]))),
    )
    params.zero_grad()
    numcore.backward(loss)
    grads = {name: params[name].grad for name in params.names()}
    grads.update(features=features.grad, coords=positions.grad)
    return out.features.data, out.coords.data, loss.data, grads


@pytest.mark.parametrize("case", sorted(kernel_cases()))
@pytest.mark.parametrize("track", [(True, True), (False, False), (True, False), (False, True)],
                         ids=["both", "neither", "features", "coords"])
def test_layers_keep_the_bits_of_the_op_chain(case, track):
    """Every output and every gradient equals that of the single-op chain, bit for bit."""
    frag, coords = kernel_cases()[case]
    rng = np.random.default_rng(len(frag))
    feats = rng.normal(size=(len(frag), D))
    weights = (rng.normal(size=(len(frag), D)), rng.normal(size=(len(frag), 3)))
    params = make_params(seed=len(frag))
    got = run_layers(egnn_forward, params, feats, coords, frag, track, weights)
    want = run_layers(composite_layers.egnn_forward, params, feats, coords, frag, track, weights)
    for a, b in zip(got[:3], want[:3]):
        assert a.tobytes() == b.tobytes()
    assert got[3].keys() == want[3].keys()
    for name, grad in want[3].items():
        if grad is None:
            assert got[3][name] is None, name
        else:
            assert np.array_equal(got[3][name], grad), name
            assert got[3][name].tobytes() == grad.tobytes(), name  # the signs of zeros too
    assert all(np.isfinite(g).all() for g in got[3].values() if g is not None)


def test_each_layer_records_three_tape_nodes(rng):
    params = make_params()
    state = NodeState(Tensor(rng.normal(size=(4, D)), requires_grad=True),
                      Tensor(rng.normal(size=(4, 3)), requires_grad=True))
    out = egnn_forward(state, params)
    recorded, seen, stack = [], set(), [out.features, out.coords]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            recorded += [node] if node._parents else []
            stack.extend(node._parents)
    assert len(recorded) == 3 * len(egnn.DEFAULT_LAYERS)


def test_forward_gradients_match_central_differences(rng):
    """Parameter and coordinate gradients through both layers against central differences."""
    params = make_params(seed=3)
    frag = np.array([0, 0, 0, 1, 1, 1, 1])
    feats = rng.normal(size=(7, D))
    coords = rng.normal(size=(7, 3))
    weights = (Tensor(rng.normal(size=(7, D))), Tensor(rng.normal(size=(7, 3))))
    layout = edge_layout(frag)

    def loss_of(positions):
        out = egnn_forward(NodeState(Tensor(feats), positions), params, layout)
        return numcore.add(
            numcore.sum_(numcore.mul(out.features, weights[0])), numcore.sum_(numcore.mul(out.coords, weights[1]))
        )

    positions = Tensor(coords, requires_grad=True)
    params.zero_grad()
    numcore.backward(loss_of(positions))
    h = 1e-6
    probes = [(params[name].data, params[name].grad, index)
              for name in ("egnn.0.node_mlp.w1", "egnn.0.coord_mlp.w1", "egnn.0.coord_mlp.b2",
                           "egnn.1.node_mlp.b1", "egnn.1.node_mlp.w2", "egnn.1.coord_mlp.w2")
              for index in [(0,) * params[name].data.ndim, tuple(s - 1 for s in params[name].data.shape)]]
    probes += [(coords, positions.grad, index) for index in itertools.product(range(7), range(3))]
    for data, grad, index in probes:
        keep = data[index]
        data[index] = keep + h
        up = loss_of(Tensor(coords)).item()
        data[index] = keep - h
        down = loss_of(Tensor(coords)).item()
        data[index] = keep
        numeric = (up - down) / (2 * h)
        assert abs(grad[index] - numeric) <= 1e-6 * max(1.0, abs(numeric)), (index, grad[index], numeric)


# ------------------------------------------------------ the coordinate stream


@pytest.mark.parametrize("case", sorted(kernel_cases()))
def test_coordinates_never_read_features(case):
    """Two feature sets over the same coordinates give the same output coordinates, bit for bit."""
    frag, coords = kernel_cases()[case]
    rng = np.random.default_rng(len(frag))
    params = make_params(seed=len(frag))
    layout = edge_layout(frag)
    first = egnn_forward(state_of(rng.normal(size=(len(frag), D)), coords), params, layout)
    second = egnn_forward(state_of(rng.normal(size=(len(frag), D)) * 1e3, coords), params, layout)
    assert first.coords.data.tobytes() == second.coords.data.tobytes()
    if len(frag) > 1 and case != "no edges":
        assert first.features.data.tobytes() != second.features.data.tobytes()


def with_prebuilt_stream(state, params, layout):
    """The node updates over each layer's geometry of a coordinate stream built before them.

    A reverse trajectory's constants hold such a stream, and its passes read
    the stream's edge lengths and output coordinates.
    """
    stream = coord_stream(state.coords, params, layout)
    features = state.features
    for layer, geometry in zip(egnn.DEFAULT_LAYERS, stream.geometry):
        features = node_update(features, geometry, params, layer, layout)
    return NodeState(features, stream.out)


@pytest.mark.parametrize("case", sorted(kernel_cases()))
@pytest.mark.parametrize("track", [(True, True), (False, False), (True, False), (False, True)],
                         ids=["both", "neither", "features", "coords"])
def test_forward_with_a_prebuilt_stream_keeps_the_bits(case, track):
    """A stream built before the pass gives every output and every gradient of a pass that builds its own."""
    frag, coords = kernel_cases()[case]
    rng = np.random.default_rng(len(frag) + 1)
    feats = rng.normal(size=(len(frag), D))
    weights = (rng.normal(size=(len(frag), D)), rng.normal(size=(len(frag), 3)))
    params = make_params(seed=len(frag) + 1)
    got = run_layers(with_prebuilt_stream, params, feats, coords, frag, track, weights)
    want = run_layers(egnn_forward, params, feats, coords, frag, track, weights)
    for a, b in zip(got[:3], want[:3]):
        assert a.tobytes() == b.tobytes()
    assert got[3].keys() == want[3].keys()
    for name, grad in want[3].items():
        if grad is None:
            assert got[3][name] is None, name
        else:
            assert got[3][name].tobytes() == grad.tobytes(), name


def test_stream_holds_each_layers_geometry_and_the_output_coordinates(rng):
    params = make_params()
    coords = Tensor(rng.normal(size=(5, 3)))
    layout = edge_layout(np.array([0, 0, 1, 1, 1]))
    stream = coord_stream(coords, params, layout)
    assert stream.coords is coords and stream.layout is layout
    assert len(stream.geometry) == len(egnn.DEFAULT_LAYERS)
    assert stream.geometry[0].data.tobytes() == pair_geometry(coords, layout).data.tobytes()
    moved = coord_update(coords, stream.geometry[0], params, "egnn.0", layout)
    assert stream.geometry[1].data.tobytes() == pair_geometry(moved, layout).data.tobytes()
    assert stream.out.data.tobytes() == coord_update(moved, stream.geometry[1], params, "egnn.1", layout).data.tobytes()
    lone = coord_stream(coords, params, edge_layout(np.arange(5)))
    assert lone.geometry == () and lone.out is coords
