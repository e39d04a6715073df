import json

import numpy as np
import pytest

import composite_layers
from adam_oracle import ReferenceAdam
from composite_layers import matmul
from scentgen import numcore
from scentgen.numcore import (
    MissingGradients,
    NotScalarLoss,
    ParamStore,
    ShapeMismatch,
    Tensor,
    UnknownParam,
    adam_step,
    backward,
    load_checkpoint,
    save_checkpoint,
)


# The single ops that only the op-chain oracle in composite_layers uses.


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, m).data, m.data)


def test_matmul_analytic():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_transpose_property(rng):
    for _ in range(20):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 5))
        left = matmul(Tensor(a), Tensor(b)).data.T
        right = matmul(Tensor(b.T), Tensor(a.T)).data
        assert np.abs(left - right).max() < 1e-12


def test_matmul_identity_associativity(rng):
    a = rng.normal(size=(3, 3))
    eye = np.eye(3)
    out = matmul(matmul(Tensor(a), Tensor(eye)), Tensor(eye)).data
    assert np.abs(out - a).max() < 1e-12


def test_silu_matches_two_branch_sigmoid_bit_for_bit(rng):
    """One division picks the same bits as the sigmoid's two stable branches."""
    special = [0.0, -0.0, 700.0, -700.0, 1e308, -1e308, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 36.7, -36.7, 1.0, -1.0, 0.5]
    x = np.concatenate([rng.normal(scale=10.0, size=20000), rng.normal(size=20000), special]).reshape(-1, 4)
    ex = np.exp(-np.abs(x))
    sig = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
    a = Tensor(x, requires_grad=True)
    with np.errstate(invalid="ignore"):
        out = composite_layers.silu(a)
        backward(numcore.sum_(out))
        assert np.array_equal(out.data, x * sig, equal_nan=True)
        assert np.array_equal(a.grad, sig * (1.0 + x * (1.0 - sig)), equal_nan=True)


def test_sqrt_gradient_is_clamped_at_zero():
    a = Tensor([0.0, 4.0], requires_grad=True)
    out = composite_layers.sqrt(a)
    backward(numcore.sum_(out))
    assert out.data.tolist() == [0.0, 2.0] and a.grad.tolist() == [0.5 / 1e-150, 0.25]


# ------------------------------------------------------------------- MLPs


def make_mlp(params, name, n_in, n_hidden, n_out, rng):
    numcore.init_mlp(params, name, n_in, n_hidden, n_out, rng)


def mlp_forward(params, name, x):
    """`mlp_params`, `mlp` and `MLPPass` recorded as one tape node, as the EGNN primitives record them."""
    x = numcore.as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeMismatch(f"mlp {name!r}: input of shape {x.data.shape} is not 2-D")
    weights = numcore.mlp_params(params, name, x.data.shape[1])
    mlp = numcore.MLPPass(weights, x.data, numcore.mlp(x.data, *(w.data for w in weights)))

    def bw(g):
        g_x = mlp.backward(g, x.tracked())
        if g_x is not None:
            numcore.accumulate(x, g_x)

    return numcore.primitive(mlp.out, (x, *weights), bw)


def test_mlp_zero_weights_zero_output():
    params = ParamStore()
    params.add("f.w1", np.zeros((3, 4)))
    params.add("f.b1", np.zeros(4))
    params.add("f.w2", np.zeros((4, 2)))
    params.add("f.b2", np.zeros(2))
    out = mlp_forward(params, "f", Tensor(np.ones((5, 3))))
    assert np.array_equal(out.data, np.zeros((5, 2)))


def test_mlp_identity_construction():
    # Shift the hidden layer deep into SiLU's linear region, then undo the shift.
    params = ParamStore()
    shift = 30.0
    params.add("f.w1", np.eye(3))
    params.add("f.b1", np.full(3, shift))
    params.add("f.w2", np.eye(3))
    params.add("f.b2", np.full(3, -shift))
    x = np.array([[0.5, 1.0, 2.0]])
    out = mlp_forward(params, "f", Tensor(x))
    assert np.abs(out.data - x).max() < 1e-3


def test_mlp_shape_contract(rng):
    params = ParamStore()
    make_mlp(params, "f", 3, 8, 1, rng)
    out = mlp_forward(params, "f", Tensor(rng.normal(size=(1, 3))))
    assert out.data.shape == (1, 1)


@pytest.mark.parametrize("missing", ["w1", "b1", "w2", "b2"])
def test_mlp_names_the_missing_param(rng, missing):
    params = ParamStore()
    make_mlp(params, "f", 3, 8, 1, rng)
    partial = ParamStore()
    for name in params.names():
        if name != f"f.{missing}":
            partial.add(name, params[name].data)
    with pytest.raises(UnknownParam, match=f"f.{missing}"):
        mlp_forward(partial, "f", Tensor(np.zeros((1, 3))))


@pytest.mark.parametrize("op", [numcore.linear, mlp_forward])
def test_affine_maps_reject_a_bad_width_or_a_missing_param(rng, op):
    params = ParamStore()
    numcore.init_affine(params, "f", 3, 2, rng)
    make_mlp(params, "f", 3, 8, 2, rng)
    with pytest.raises(ShapeMismatch):
        op(params, "f", Tensor(np.zeros((2, 4))))
    with pytest.raises(ShapeMismatch):
        op(params, "f", Tensor(np.zeros(3)))
    with pytest.raises(UnknownParam):
        op(params, "ghost", Tensor(np.zeros((2, 3))))


def chain_gradients(op, params, x, track, zero_grad, upstream):
    """Output and every gradient of sum(op(x) * upstream)."""
    source = Tensor(x, requires_grad=track)
    out = op(params, "f", source)
    for name in params.names():
        params[name].grad = np.zeros_like(params[name].data) if zero_grad else None
    backward(numcore.sum_(numcore.mul(out, Tensor(upstream))))
    return [out.data, source.grad] + [params[name].grad for name in params.names()]


@pytest.mark.parametrize("rows", [0, 1, 5, 40])
@pytest.mark.parametrize("track", [True, False])
@pytest.mark.parametrize("zero_grad", [True, False])
def test_linear_and_mlp_keep_the_bits_of_the_op_chain(rows, track, zero_grad):
    """One tape node each, with the output and gradients of matmul-add and its 5-op MLP."""
    rng = np.random.default_rng(rows)
    params = ParamStore()
    numcore.init_affine(params, "f", 7, 3, rng)
    make_mlp(params, "f", 7, 9, 3, rng)
    x = rng.normal(size=(rows, 7)) * 10.0
    upstream = rng.normal(size=(rows, 3))
    for op, chain in ((numcore.linear, composite_layers.linear), (mlp_forward, composite_layers.mlp_forward)):
        got = chain_gradients(op, params, x, track, zero_grad, upstream)
        want = chain_gradients(chain, params, x, track, zero_grad, upstream)
        for a, b in zip(got, want):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
    source = Tensor(x, requires_grad=True)
    assert numcore.linear(params, "f", source)._parents == (source, params["f.w"], params["f.b"])
    assert mlp_forward(params, "f", source)._parents == (source,) + tuple(
        params[f"f.{suffix}"] for suffix in ("w1", "b1", "w2", "b2"))


def test_no_grad_switches_recording_off_and_back(rng):
    w = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    assert numcore.recording()
    with numcore.no_grad():
        assert not numcore.recording()
        with numcore.no_grad():
            assert not numcore.recording()
        assert not numcore.recording()
        assert not matmul(w, w).tracked()
    assert numcore.recording() and matmul(w, w).tracked()


def test_kernels_give_the_bits_of_their_primitives(rng):
    """`affine` and `take_rows` on arrays are the forwards of `linear` and `gather`."""
    params = ParamStore()
    numcore.init_affine(params, "f", 7, 3, rng)
    x = rng.normal(size=(5, 7)) * 10.0
    assert numcore.affine(x, params["f.w"].data, params["f.b"].data).tobytes() == (
        numcore.linear(params, "f", Tensor(x)).data.tobytes()
    )
    idx = np.array([4, 0, 0, 2], dtype=np.int64)
    assert numcore.take_rows(x, idx).tobytes() == numcore.gather(Tensor(x), idx).data.tobytes()
    for bad in ([5], [-1]):
        with pytest.raises(IndexError):
            numcore.take_rows(x, np.array(bad, dtype=np.int64))


def test_wrap_keeps_the_array_and_records_nothing(rng):
    data = rng.normal(size=(3, 2))
    wrapped = numcore.wrap(data)
    assert wrapped.data is data and not wrapped.tracked()
    assert Tensor(data).data is not data


def test_mlp_params_checks_the_input_width(rng):
    params = ParamStore()
    make_mlp(params, "f", 7, 9, 3, rng)
    assert numcore.mlp_params(params, "f", 7) == tuple(params[f"f.{s}"] for s in ("w1", "b1", "w2", "b2"))
    with pytest.raises(numcore.ShapeMismatch, match="'f'"):
        numcore.mlp_params(params, "f", 6)
    with pytest.raises(numcore.UnknownParam):
        numcore.mlp_params(params, "g", 7)


# --------------------------------------------------------------- backward


def test_backward_linear_outer_product(rng):
    params = ParamStore()
    w = params.add("w", rng.normal(size=(3, 4)))
    x = np.asarray([[1.0, 2.0, 3.0]])
    loss = numcore.sum_(matmul(Tensor(x), w))
    params.zero_grad()
    backward(loss)
    # d/dW sum(x W) = x broadcast across columns
    assert np.abs(w.grad - np.repeat(x.T, 4, axis=1)).max() < 1e-12


def test_backward_stationary_point():
    params = ParamStore()
    x = params.add("x", np.array([1.0, -2.0, 3.0]))
    c = Tensor(np.array([1.0, -2.0, 3.0]))
    diff = numcore.sub(x, c)
    loss = numcore.sum_(numcore.mul(diff, diff))
    params.zero_grad()
    backward(loss)
    assert np.abs(x.grad).max() == 0.0


def test_backward_requires_scalar():
    with pytest.raises(NotScalarLoss):
        backward(Tensor(np.zeros(3)))


def test_backward_finite_difference_small_net(rng):
    """Random two-layer nets: analytic gradients match central differences."""
    for seed in range(20):
        local = np.random.default_rng(seed)
        params = ParamStore()
        make_mlp(params, "f", 4, 6, 2, local)
        x = local.normal(size=(3, 4))
        target = local.normal(size=(3, 2))

        def loss_value():
            out = mlp_forward(params, "f", Tensor(x))
            diff = numcore.sub(out, Tensor(target))
            return numcore.mean_(numcore.mul(diff, diff))

        loss = loss_value()
        params.zero_grad()
        backward(loss)
        eps = 1e-5
        for name in params.names():
            tensor = params[name]
            flat = tensor.data.reshape(-1)
            grad = tensor.grad.reshape(-1)
            numeric = np.zeros_like(flat)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + eps
                up = loss_value().item()
                flat[k] = keep - eps
                down = loss_value().item()
                flat[k] = keep
                numeric[k] = (up - down) / (2 * eps)
            denom = np.linalg.norm(grad) + np.linalg.norm(numeric) + 1e-12
            assert np.linalg.norm(grad - numeric) / denom < 1e-4, (seed, name)


def test_gather_segment_sum_gradients(rng):
    params = ParamStore()
    x = params.add("x", rng.normal(size=(4, 3)))
    idx = np.array([0, 2, 2, 3])
    seg = np.array([0, 0, 1, 1])
    out = numcore.segment_sum(numcore.gather(x, idx), seg, 2)
    loss = numcore.sum_(numcore.mul(out, out))
    params.zero_grad()
    backward(loss)
    eps = 1e-6
    flat = x.data.reshape(-1)
    for k in range(flat.size):
        keep = flat[k]
        flat[k] = keep + eps
        up = numcore.sum_(
            numcore.mul(
                numcore.segment_sum(numcore.gather(x, idx), seg, 2),
                numcore.segment_sum(numcore.gather(x, idx), seg, 2),
            )
        ).item()
        flat[k] = keep - eps
        down = numcore.sum_(
            numcore.mul(
                numcore.segment_sum(numcore.gather(x, idx), seg, 2),
                numcore.segment_sum(numcore.gather(x, idx), seg, 2),
            )
        ).item()
        flat[k] = keep
        numeric = (up - down) / (2 * eps)
        assert abs(numeric - x.grad.reshape(-1)[k]) < 1e-5


def test_finiteness_propagation(rng):
    params = ParamStore()
    make_mlp(params, "f", 3, 8, 2, rng)
    for _ in range(50):
        x = rng.normal(size=(4, 3)) * 10
        out = mlp_forward(params, "f", Tensor(x))
        assert np.isfinite(out.data).all()


# ------------------------------------------------------------------- adam


def test_adam_zero_gradient_no_move():
    params = ParamStore()
    w = params.add("w", np.array([1.0, 2.0]))
    params.zero_grad()
    adam_step(params, lr=0.1)
    assert np.array_equal(w.data, np.array([1.0, 2.0]))


def test_adam_descent_direction():
    params = ParamStore()
    w = params.add("w", np.array([0.0]))
    for _ in range(50):
        params.zero_grad()
        w.grad = np.array([1.0])
        adam_step(params, lr=0.01)
    assert w.data[0] < 0  # moves opposite the (positive) gradient


def test_adam_single_step_matches_reference():
    lr, beta1, beta2, eps = 0.1, 0.9, 0.999, 1e-8
    g = 1.0
    # hand-rolled recurrence, step 1
    m = (1 - beta1) * g
    v = (1 - beta2) * g * g
    m_hat = m / (1 - beta1)
    v_hat = v / (1 - beta2)
    expected_delta = -lr * m_hat / (np.sqrt(v_hat) + eps)

    params = ParamStore()
    w = params.add("w", np.array([0.0]))
    w.grad = np.array([g])
    adam_step(params, lr=lr, betas=(beta1, beta2), eps=eps)
    assert w.data[0] == pytest.approx(expected_delta, rel=1e-12)


def test_adam_missing_gradients():
    params = ParamStore()
    params.add("w", np.array([1.0]))
    with pytest.raises(MissingGradients):
        adam_step(params)


@pytest.mark.parametrize("shape", [(5,), (3, 2), (6,)])
def test_adam_gradient_of_another_shape_is_a_shape_mismatch(shape):
    params = ParamStore()
    params.add("w", np.zeros((2, 3)))
    params["w"].grad = np.ones(shape)
    with pytest.raises(ShapeMismatch):
        adam_step(params)
    assert params.adam_steps == 0 and not params["w"].data.any()


# Added in an order other than name order; "frozen" never gets a nonzero gradient.
MIXED_SHAPES = {"w": (3, 4), "b": (4,), "s": (), "cube": (2, 3, 2), "frozen": (5,), "empty": (0, 3)}


def _mixed_store(rng):
    params = ParamStore()
    for name, shape in MIXED_SHAPES.items():
        params.add(name, rng.normal(size=shape))
    return params


def _reference_of(params):
    return ReferenceAdam(
        {n: params[n].data for n in params.names()}, params.adam_steps, params._adam_m, params._adam_v
    )


def _step_both(params, reference, rng, lr=1e-2):
    """One Adam step of the store and of the reference on the same random gradients."""
    params.zero_grad()
    grads = {}
    for name in params.names():
        shape = params[name].data.shape
        scale = 0.0 if name == "frozen" else 10.0 ** rng.integers(-6, 3)
        grads[name] = np.asarray(rng.normal(size=shape) * scale)
        params[name].grad = grads[name].copy()
    before = {n: (params[n].data, params[n].data.tobytes()) for n in params.names()}
    adam_step(params, lr=lr, betas=(0.8, 0.99), eps=1e-7)
    reference.step(grads, lr=lr, betas=(0.8, 0.99), eps=1e-7)
    for name, (data, data_bytes) in before.items():  # a fresh array; the old one is left as it was
        assert params[name].data is not data and data.tobytes() == data_bytes


def _assert_same_bits(params, reference):
    assert params.adam_steps == reference.steps
    assert params.names() == sorted(reference.values)
    for name in params.names():
        for got, want in (
            (params[name].data, reference.values[name]),
            (params._adam_m[name], reference.m[name]),
            (params._adam_v[name], reference.v[name]),
        ):
            assert got.shape == want.shape and got.dtype == np.float64, name
            assert got.tobytes() == want.tobytes(), name


def test_adam_step_has_the_bits_of_the_per_parameter_reference_across_a_checkpoint(tmp_path, rng):
    params = _mixed_store(rng)
    reference = _reference_of(params)
    for _ in range(12):
        _step_both(params, reference, rng)
        _assert_same_bits(params, reference)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, str(path))
    params, _ = load_checkpoint(str(path))
    _assert_same_bits(params, reference)
    for _ in range(13):
        _step_both(params, reference, rng)
        _assert_same_bits(params, reference)
    assert not params._adam_m["frozen"].any() and not params._adam_v["frozen"].any()


def test_adam_step_reads_arrays_written_or_replaced_between_steps(rng):
    """In-place writes (a finite-difference probe), replaced `.data` and moment
    arrays and a parameter added late all reach the next step, as they did
    when each parameter was updated alone."""
    params = _mixed_store(rng)
    reference = _reference_of(params)
    for step in range(24):
        if step == 5:
            params["w"].data[0, 1] += 0.5
            reference.values["w"][0, 1] += 0.5
        if step == 9:
            params["b"].data = np.full(4, 2.0)
            reference.values["b"] = np.full(4, 2.0)
            params._adam_v["cube"] = np.ones((2, 3, 2))
            reference.v["cube"] = np.ones((2, 3, 2))
        if step == 14:
            params.add("late", np.arange(6.0).reshape(2, 3))
            reference.values["late"] = np.arange(6.0).reshape(2, 3)
            reference.m["late"], reference.v["late"] = np.zeros((2, 3)), np.zeros((2, 3))
        _step_both(params, reference, rng)
        _assert_same_bits(params, reference)


def test_adam_step_from_a_checkpoint_without_adam_state(tmp_path, rng):
    params = _mixed_store(rng)
    reference = _reference_of(params)
    for _ in range(3):
        _step_both(params, reference, rng)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, str(path))
    payload = json.loads(path.read_text())
    del payload["adam"]
    path.write_text(json.dumps(payload))
    loaded, _ = load_checkpoint(str(path))
    assert loaded.adam_steps == 0
    assert all(not loaded._adam_m[n].any() and not loaded._adam_v[n].any() for n in loaded.names())
    reference = _reference_of(loaded)
    for _ in range(20):
        _step_both(loaded, reference, rng)
        _assert_same_bits(loaded, reference)


# ------------------------------------------------------------- checkpoint


def test_checkpoint_round_trip(tmp_path, rng):
    params = ParamStore()
    make_mlp(params, "f", 3, 4, 2, rng)
    params.zero_grad()
    for name in params.names():
        params[name].grad = rng.normal(size=params[name].data.shape)
    adam_step(params)
    meta = {"note": "round-trip", "steps": 100}
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, str(path), meta)
    loaded, got_meta = load_checkpoint(str(path))
    assert got_meta == meta
    assert loaded.names() == params.names()
    for name in params.names():
        assert np.array_equal(loaded[name].data, params[name].data)
        assert np.array_equal(loaded._adam_m[name], params._adam_m[name])
    assert loaded.adam_steps == params.adam_steps


def test_checkpoint_deterministic_bytes(tmp_path, rng):
    params = ParamStore()
    make_mlp(params, "f", 3, 4, 2, rng)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(params, str(p1), {"k": 1})
    save_checkpoint(params, str(p2), {"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_version_guard(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99, "params": {}}))
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"format_version": 1, "params": 5},
        {"format_version": 1, "params": {"w": [1.0]}},
        {"format_version": 1, "params": {}, "adam": 3},
        {"format_version": 1, "params": {}, "meta": "note"},
    ],
)
def test_checkpoint_not_in_documented_shape(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="must be an object"):
        load_checkpoint(str(path))


def test_tensor_and_paramstore_copy_caller_arrays():
    x = np.arange(3.0)
    t = Tensor(x)
    w = ParamStore().add("w", x)
    x[:] = -1.0
    for held in (t.data, w.data):
        assert np.array_equal(held, [0.0, 1.0, 2.0])
        assert not np.shares_memory(held, x)


def test_paramstore_gradients_view(rng):
    params = ParamStore()
    w = params.add("w", np.ones(3))
    params.zero_grad()
    assert np.array_equal(w.grad, np.zeros(3))
    with pytest.raises(UnknownParam):
        params["ghost"]


# ------------------------------------------- scatter-adds against np.add.at


def add_at(shape, index, rows):
    """The scatter-add that gather's backward and segment_sum used before bincount."""
    out = np.zeros(shape)
    np.add.at(out, np.asarray(index, dtype=np.int64), rows)
    return out


# Terms of very different magnitude, so another summation order gives other
# bits (1 + 1e16 - 1e16 is 0 in input order, 1 in reverse), plus -0.0 terms:
# a bucket of only -0.0 sums to +0.0 from 0.0.
TERMS = np.array([1.0, 1e16, -1e16, 3.5, -0.0, 1e-8, -2.25, 7.0, -0.0, 0.1, 1e16, -1.0])

SCATTER_CASES = {
    "repeated": ([0, 2, 2, 3, 0, 2], 4),
    "unsorted": ([3, 1, 0, 1, 3, 2, 0], 4),
    "empty": ([], 3),
    "one bucket": ([0, 0, 0, 0, 0], 1),
    "empty buckets": ([4, 4, 1], 6),
    "only -0.0": ([1, 1], 2),
}


def scatter_rows(n, width):
    """`n` rows of `width` columns cycling through TERMS (only -0.0 for width 0 rows)."""
    count = n * max(width, 1)
    values = np.resize(TERMS, count) if count else np.zeros(0)
    return values.reshape(n) if width == 0 else values.reshape(n, width)


@pytest.mark.parametrize("case", list(SCATTER_CASES))
@pytest.mark.parametrize("width", [0, 1, 3, 8])  # 0: 1-D rows
def test_segment_sum_matches_add_at_bit_for_bit(case, width):
    ids, buckets = SCATTER_CASES[case]
    rows = scatter_rows(len(ids), width)
    if case == "only -0.0":
        rows = -np.zeros_like(rows)
    want = add_at((buckets,) + rows.shape[1:], ids, rows)
    got = numcore.segment_sum(Tensor(rows), np.array(ids, dtype=np.int64), buckets)
    assert got.data.dtype == np.float64 and got.data.shape == want.shape
    assert got.data.tobytes() == want.tobytes()
    flat = numcore.scatter_index(np.array(ids, dtype=np.int64), max(width, 1))
    assert numcore.scatter_add(flat, rows, want.shape).tobytes() == want.tobytes()


@pytest.mark.parametrize("case", list(SCATTER_CASES))
@pytest.mark.parametrize("width", [0, 1, 3, 8])
def test_gather_backward_matches_add_at_bit_for_bit(case, width):
    ids, n = SCATTER_CASES[case]
    source = Tensor(np.ones((n,) if width == 0 else (n, width)), requires_grad=True)
    upstream = scatter_rows(len(ids), width)
    if case == "only -0.0":
        upstream = -np.zeros_like(upstream)
    out = numcore.gather(source, np.array(ids, dtype=np.int64))
    backward(numcore.sum_(numcore.mul(out, Tensor(upstream))))
    want = add_at(source.data.shape, ids, upstream)
    assert source.grad.dtype == np.float64 and source.grad.tobytes() == want.tobytes()


def test_single_atom_fragment_sums_and_gathers_nothing():
    """A lone atom has no edges: empty ids sum to zeros and gather gives back zeros."""
    node = Tensor(np.full((1, 8), 2.0), requires_grad=True)
    edges = np.zeros(0, dtype=np.int64)
    messages = numcore.gather(node, edges)
    summed = numcore.segment_sum(messages, edges, 1)
    assert summed.data.tobytes() == np.zeros((1, 8)).tobytes()
    backward(numcore.sum_(summed))
    assert node.grad.tobytes() == np.zeros((1, 8)).tobytes()


@pytest.mark.parametrize("bad", [[-1], [0, 2], [1, -3]])
@pytest.mark.parametrize("width", [0, 3])
def test_segment_sum_rejects_ids_outside_range(bad, width):
    rows = Tensor(scatter_rows(len(bad), width))
    with pytest.raises(IndexError):
        numcore.segment_sum(rows, np.array(bad), 2)


@pytest.mark.parametrize("bad", [[-1], [0, 4], [2, -4]])
def test_gather_rejects_indices_outside_range(bad):
    with pytest.raises(IndexError):
        numcore.gather(Tensor(np.zeros((4, 2))), np.array(bad))
