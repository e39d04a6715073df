import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import composite_layers
from scentgen import dataio, diffusion, egnn, numcore
from scentgen.diffusion import (
    DivergedLoss,
    EmptyDataset,
    LengthMismatch,
    NoiseSchedule,
    NonFiniteDescriptor,
    NonPositiveTemperature,
    StepOutOfRange,
    TrainConfig,
    TrainingExample,
    batch_loss,
    beta_at,
    betas,
    bond_ce_loss,
    denoiser_constants,
    descriptor_vector,
    denoiser_forward,
    forward_noise,
    init_params,
    loss_total,
    mse_loss,
    time_embed,
    train,
)
from scentgen.numcore import ShapeMismatch, Tensor


def small_example(rng, n=4, L=5):
    return TrainingExample(
        features=rng.normal(6.5, 1.0, size=(n, 1)),
        coords=rng.normal(size=(n, 3)),
        bond_edges=tuple((i, i + 1) for i in range(n - 1)),
        bond_labels=np.zeros(n - 1, dtype=np.int64),
        condition=(rng.random(L) < 0.4).astype(np.float64),
    )


# ---------------------------------------------------------------- schedule


def test_beta_linear_endpoint():
    sched = NoiseSchedule(1000)
    assert beta_at(sched, 1000) == pytest.approx(1.0)


def test_beta_linear_midpoint():
    sched = NoiseSchedule(1000)
    assert beta_at(sched, 500) == pytest.approx(0.5)


def test_beta_step_out_of_range():
    sched = NoiseSchedule(1000)
    with pytest.raises(StepOutOfRange):
        beta_at(sched, 0)
    with pytest.raises(StepOutOfRange):
        beta_at(sched, 1001)
    for steps, first_outside in (([0], 0), ([5, 1001, 0], 1001), ([-3, 2], -3)):
        with pytest.raises(StepOutOfRange, match=f"t={first_outside} "):
            betas(sched, np.array(steps, dtype=np.int64))
    for steps, first_outside in (([2.0, 3.5], 3.5), ([np.nan], np.nan), ([4.0, -np.inf], -np.inf)):
        with pytest.raises(StepOutOfRange, match=f"t={first_outside} "):
            betas(sched, np.array(steps))
    assert betas(sched, np.array([2.0, 1000.0])).tobytes() == betas(sched, np.array([2, 1000])).tobytes()


def test_beta_monotone():
    """Also: `betas` over every step has the bits of `beta_at` at each."""
    for T in (100, 1, 7, 800, 1000, 1200):
        sched = NoiseSchedule(T)
        values = [beta_at(sched, t) for t in range(1, T + 1)]
        assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))
        assert values[-1] <= 1.0
        assert betas(sched, np.arange(1, T + 1)).tobytes() == np.array(values).tobytes()


# ------------------------------------------------------------ forward noise


def test_forward_noise_additive_form(rng):
    sched = NoiseSchedule(100)
    x0 = np.zeros((5, 1))
    x_t, eps = forward_noise(x0, 25, sched, rng)
    assert np.abs(x_t - math.sqrt(beta_at(sched, 25)) * eps).max() < 1e-12


def test_forward_noise_small_noise_limit(rng):
    sched = NoiseSchedule(10**6)
    x0 = rng.normal(size=(8, 1))
    x_t, _ = forward_noise(x0, 1, sched, rng)
    assert np.abs(x_t - x0).max() < 0.01


def test_forward_noise_variance_montecarlo(rng):
    """Empirical Var(x_t - x_0) tracks beta_t at T/2 (Monte Carlo oracle)."""
    sched = NoiseSchedule(1000)
    t = 500
    draws = np.concatenate(
        [forward_noise(np.zeros((1000, 1)), t, sched, rng)[0] for _ in range(20)]
    )
    var = draws.var()
    assert abs(var - beta_at(sched, t)) < 0.05 * beta_at(sched, t)
    assert abs(draws.mean()) < 0.02


# ------------------------------------------------------------- conditioning


def conditioning(y, params):
    """The conditioning half of the context row that `denoiser_constants` builds for `y`."""
    constants = denoiser_constants(NoiseSchedule(10), y, params, np.zeros(1, dtype=np.int64), np.zeros((1, 3)))
    return constants.context[0, params["time.w"].data.shape[1] :]


def fragment_rows_pass(rows, params):
    """`denoiser_forward` over one single-node fragment per descriptor row of `rows`."""
    n = len(rows)
    return denoiser_forward(
        np.zeros((n, 1)), np.zeros((n, 3)), (), np.arange(1, n + 1), NoiseSchedule(10), rows, params,
        fragment_ids=np.arange(n),
    )


def test_condition_embed_zero_gives_bias():
    params = init_params(vocab_size=6, seed=0)
    assert np.abs(conditioning(np.zeros(6), params) - params["cond.b"].data.reshape(-1)).max() == 0.0


def test_condition_embed_one_hot_adds_column():
    params = init_params(vocab_size=6, seed=0)
    y = np.zeros(6)
    y[2] = 1.0
    expected = params["cond.b"].data.reshape(-1) + params["cond.w"].data[2]
    assert np.abs(conditioning(y, params) - expected).max() < 1e-12


def test_condition_embed_additive_for_disjoint():
    params = init_params(vocab_size=6, seed=0)
    y1 = np.array([1, 0, 0, 1, 0, 0], dtype=float)
    y2 = np.array([0, 1, 0, 0, 0, 1], dtype=float)
    bias = params["cond.b"].data.reshape(-1)
    c_union = conditioning(y1 + y2, params) - bias
    c_split = (conditioning(y1, params) - bias) + (conditioning(y2, params) - bias)
    assert np.abs(c_union - c_split).max() < 1e-12


def test_condition_embed_length_mismatch():
    params = init_params(vocab_size=6, seed=0)
    with pytest.raises(LengthMismatch):
        descriptor_vector(np.zeros(9), params)
    with pytest.raises(LengthMismatch):
        conditioning(np.zeros(9), params)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_descriptors_with_a_non_finite_entry_are_refused(bad):
    params = init_params(vocab_size=4, seed=0)
    with pytest.raises(NonFiniteDescriptor):
        descriptor_vector([0.0, 1.0, bad, 0.0], params)
    with pytest.raises(NonFiniteDescriptor):
        denoiser_forward(np.zeros((1, 1)), np.zeros((1, 3)), (), 1, NoiseSchedule(10), [0.0, 1.0, 0.0, bad], params)
    rows = np.zeros((3, 4))
    rows[2, 1] = bad
    with pytest.raises(NonFiniteDescriptor):
        fragment_rows_pass(rows, params)
    with pytest.raises(NonFiniteDescriptor):
        denoiser_constants(NoiseSchedule(10), rows[2], params, np.arange(3), np.zeros((3, 3)))


def test_time_embed_affine_in_fraction():
    params = init_params(vocab_size=3, seed=1)
    e1 = time_embed(100, 1000, params).data
    e2 = time_embed(200, 1000, params).data
    e3 = time_embed(300, 1000, params).data
    assert np.abs((e3 - e2) - (e2 - e1)).max() < 1e-12


# ---------------------------------------------------------------- denoiser


def test_denoiser_zero_params_bias_only(rng):
    params = init_params(vocab_size=4, seed=0)
    for name in params.names():
        params[name].data[:] = 0.0
    sched = NoiseSchedule(50)
    out = denoiser_forward(rng.normal(size=(3, 1)), rng.normal(size=(3, 3)), (), 10, sched, np.zeros(4), params)
    assert np.abs(out.eps_hat.data).max() == 0.0


def test_denoiser_rigid_transform_invariant_eps(rng):
    params = init_params(vocab_size=4, seed=3)
    sched = NoiseSchedule(50)
    x = rng.normal(size=(5, 1))
    coords = rng.normal(size=(5, 3))
    y = np.array([1.0, 0, 0, 1])
    base = denoiser_forward(x, coords, (), 7, sched, y, params)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    moved = denoiser_forward(x, coords @ q.T + rng.normal(size=3), (), 7, sched, y, params)
    assert np.abs(base.eps_hat.data - moved.eps_hat.data).max() < 1e-6


def test_denoiser_disconnected_copies_identical(rng):
    params = init_params(vocab_size=4, seed=5)
    sched = NoiseSchedule(50)
    x = rng.normal(size=(3, 1))
    coords = rng.normal(size=(3, 3))
    y = np.array([0.0, 1, 0, 0])
    base = denoiser_forward(x, coords, (), 9, sched, y, params)
    doubled = denoiser_forward(
        np.vstack([x, x]),
        np.vstack([coords, coords + 50.0]),
        (),
        9,
        sched,
        y,
        params,
        fragment_ids=np.array([0, 0, 0, 1, 1, 1]),
    )
    assert np.abs(doubled.eps_hat.data[:3] - base.eps_hat.data).max() < 1e-9
    assert np.abs(doubled.eps_hat.data[3:] - base.eps_hat.data).max() < 1e-9


def test_denoiser_bond_logit_shapes(rng):
    params = init_params(vocab_size=4, seed=0)
    sched = NoiseSchedule(50)
    out = denoiser_forward(
        rng.normal(size=(4, 1)), rng.normal(size=(4, 3)), ((0, 1), (2, 3)), 5, sched, np.zeros(4), params
    )
    assert out.bond_logits.data.shape == (2, 4)
    assert out.eps_hat.data.shape == (4, 1)


@pytest.mark.parametrize("n", [1, 4])
def test_denoiser_never_writes_or_aliases_caller_arrays(n):
    """Outputs that need nan_to_num are cleaned in arrays the caller does not own.

    A pass over constants built from the caller's coordinates gives the bits
    of one that builds its own, also when a single atom's output
    coordinates, its input coordinates, needed the taped pass's guard.
    """
    params = init_params(vocab_size=4, seed=0)
    x = np.full((n, 1), 1e308)
    # a single atom's output coordinates are its input coordinates
    coords = np.full((1, 3), np.inf) if n == 1 else np.arange(3.0 * n).reshape(n, 3)
    bond_edges = () if n == 1 else ((0, 1), (2, 3))
    x_before, coords_before = x.copy(), coords.copy()
    schedule = NoiseSchedule(50)
    with np.errstate(all="ignore"):
        out = denoiser_forward(x, coords, bond_edges, 5, schedule, np.ones(4), params)
        constants = denoiser_constants(schedule, np.ones(4), params, np.zeros(n, dtype=np.int64), coords)
        with numcore.no_grad():
            built = denoiser_forward(x, coords, (), 5, schedule, np.ones(4), params, constants=constants)
    assert _same_bits(built, out)
    outputs = [out.eps_hat.data, out.bond_logits.data, out.node_embeddings.data, out.coords.data]
    outputs += [built.eps_hat.data, built.node_embeddings.data]
    assert all(np.isfinite(a).all() for a in outputs)
    assert any((np.abs(a) == 1e6).any() for a in outputs), "no output needed nan_to_num"
    assert np.array_equal(x, x_before) and np.array_equal(coords, coords_before)
    for a in outputs:
        assert not np.shares_memory(a, x) and not np.shares_memory(a, coords)


# ------------------------------------------------------------------- losses


def test_loss_perfect_prediction_near_zero():
    eps = np.zeros((3, 1))
    logits = Tensor(np.array([[100.0, 0, 0, 0], [100.0, 0, 0, 0]]))
    labels = np.array([0, 0])
    loss = loss_total(Tensor(eps), eps, logits, labels, tau=0.01)
    assert loss.item() < 1e-9


def test_loss_unit_offset_no_edges():
    eps = np.zeros((4, 1))
    loss = loss_total(Tensor(eps + 1.0), eps, Tensor(np.zeros((0, 4))), np.zeros(0, dtype=int), tau=1.0)
    assert loss.item() == pytest.approx(1.0)


def test_loss_uniform_ce_ln4():
    eps = np.zeros((2, 1))
    logits = Tensor(np.zeros((3, 4)))
    labels = np.array([0, 1, 2])
    loss = loss_total(Tensor(eps), eps, logits, labels, tau=1.0)
    assert loss.item() == pytest.approx(math.log(4.0))


@pytest.mark.parametrize("tau", [0.0, -1.0])
def test_bond_ce_loss_bad_temperature(tau):
    with pytest.raises(NonPositiveTemperature):
        bond_ce_loss(Tensor(np.zeros((1, 4))), np.zeros(1, dtype=np.int64), tau)


def test_loss_nonnegative(rng):
    for _ in range(50):
        eps = rng.normal(size=(3, 1))
        eps_hat = Tensor(rng.normal(size=(3, 1)))
        logits = Tensor(rng.normal(size=(2, 4)))
        labels = rng.integers(0, 4, size=2)
        assert loss_total(eps_hat, eps, logits, labels, tau=1.0).item() >= 0.0


def test_loss_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mse_loss(Tensor(np.zeros((3, 1))), np.zeros((4, 1)))
    with pytest.raises(ShapeMismatch):
        bond_ce_loss(Tensor(np.zeros((2, 4))), np.array([0, 1, 2]), tau=1.0)
    with pytest.raises(ShapeMismatch):
        bond_ce_loss(Tensor(np.zeros((1, 4))), np.array([7]), tau=1.0)


# ---------------------------------------------------------------- training


def test_train_empty_dataset():
    with pytest.raises(EmptyDataset):
        train([], TrainConfig(epochs=1))


def test_train_zero_epochs(rng):
    ex = small_example(rng)
    params, metrics = train([ex], TrainConfig(steps=50, epochs=0, seed=1))
    assert metrics == []


def test_train_metrics_length_matches_epochs(rng):
    ex = small_example(rng)
    params, metrics = train([ex], TrainConfig(steps=50, epochs=7, seed=1))
    assert [m.epoch for m in metrics] == list(range(1, 8))


def test_train_single_molecule_overfits(rng):
    ex = small_example(rng, n=5)
    params, metrics = train([ex], TrainConfig(steps=100, epochs=150, batch_size=1, seed=0))
    assert metrics[-1].total < 0.5 * metrics[0].total


def test_train_diverges_with_huge_lr(rng):
    ex = small_example(rng)
    with pytest.raises(DivergedLoss):
        train([ex], TrainConfig(steps=50, epochs=200, learning_rate=1e3, seed=0))


def test_train_deterministic(rng):
    ex = small_example(rng)
    p1, m1 = train([ex], TrainConfig(steps=50, epochs=5, seed=9))
    p2, m2 = train([ex], TrainConfig(steps=50, epochs=5, seed=9))
    for name in p1.names():
        assert np.array_equal(p1[name].data, p2[name].data)
    assert [(m.mse, m.ce) for m in m1] == [(m.mse, m.ce) for m in m2]


@pytest.mark.parametrize(
    "bad",
    [
        {"batch_size": 0},
        {"epochs": -1},
        {"steps": 0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"learning_rate": 0.0},
        {"learning_rate": -1e-3},
        {"seed": -1},
    ],
)
def test_train_config_rejects_values_that_cannot_train(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


def test_train_config_accepts_edge_values():
    config = TrainConfig(steps=1, epochs=0, batch_size=1, learning_rate=1e-12)
    assert (config.steps, config.epochs, config.batch_size) == (1, 0, 1)


# ------------------------------------------------------- batched training
#
# `train` runs each minibatch as one graph with one fragment per molecule.
# The oracle below is the per-molecule loop that training ran before: one
# denoiser pass, MSE and cross-entropy per molecule, then the mean of the
# per-molecule sums.


def _oracle_batch_loss(examples, timesteps, schedule, tau, params, rng):
    """Per-molecule loss loop: (batch loss, per-molecule MSEs, per-molecule CEs)."""
    molecule_losses, mses, ces = [], [], []
    for ex, t in zip(examples, timesteps):
        x_t, eps = forward_noise(ex.features, t, schedule, rng)
        out = denoiser_forward(x_t, ex.coords, ex.bond_edges, t, schedule, ex.condition, params)
        diff = numcore.sub(out.eps_hat, Tensor(eps))
        mse = numcore.mean_(numcore.mul(diff, diff))
        labels = np.asarray(ex.bond_labels, dtype=np.int64)
        if labels.size == 0:
            ce = Tensor(np.zeros(()))
        else:
            log_probs = numcore.log_softmax_rows(numcore.mul(out.bond_logits, 1.0 / tau))
            onehot = np.zeros_like(out.bond_logits.data)
            onehot[np.arange(labels.size), labels] = 1.0
            picked = numcore.sum_(numcore.mul(log_probs, onehot), axis=1)
            ce = numcore.mul(numcore.mean_(picked), -1.0)
        molecule_losses.append(numcore.add(mse, ce))
        mses.append(mse.item())
        ces.append(ce.item())
    loss = molecule_losses[0]
    for extra in molecule_losses[1:]:
        loss = numcore.add(loss, extra)
    return numcore.mul(loss, 1.0 / len(molecule_losses)), mses, ces


def _molecule(rng, n, bonded=True, vocab=5):
    """A random molecule of n atoms: a bonded chain plus a ring closure from 5 atoms on."""
    edges = [(i, i + 1) for i in range(n - 1)] if bonded else []
    if bonded and n >= 5:
        edges.append((0, n - 1))
    return TrainingExample(
        features=rng.normal(6.5, 1.5, size=(n, 1)),
        coords=rng.normal(size=(n, 3)),
        bond_edges=tuple(edges),
        bond_labels=rng.integers(0, 4, size=len(edges)),
        condition=(rng.random(vocab) < 0.4).astype(np.float64),
    )


def _mixed_batches():
    rng = np.random.default_rng(31)
    return {
        "one molecule": [_molecule(rng, 6)],
        "one atom": [_molecule(rng, 1)],
        "one atom among others": [_molecule(rng, 4), _molecule(rng, 1), _molecule(rng, 7)],
        "no bonds among others": [_molecule(rng, 5), _molecule(rng, 3, bonded=False), _molecule(rng, 2)],
        "no bonds at all": [_molecule(rng, 3, bonded=False), _molecule(rng, 1)],
        "mixed sizes up to 11": [_molecule(rng, n) for n in (11, 2, 9, 1, 5, 10, 3, 8, 11, 4)],
    }


def _loss_and_gradients(loss, params):
    params.zero_grad()
    numcore.backward(loss)
    return loss.item(), {name: params[name].grad.copy() for name in params.names()}


def _assert_matches_oracle(examples, timesteps, params, seed, tau=1.0, steps=500):
    schedule = NoiseSchedule(steps)
    loss, mse, ce = batch_loss(examples, timesteps, schedule, tau, params, np.random.default_rng(seed))
    oracle, oracle_mse, oracle_ce = _oracle_batch_loss(
        examples, timesteps, schedule, tau, params, np.random.default_rng(seed)
    )
    assert loss.data.shape == ()
    assert mse.data.shape == ce.data.shape == (len(examples),)
    assert np.allclose(mse.data, oracle_mse, rtol=1e-12, atol=0.0)
    assert np.allclose(ce.data, oracle_ce, rtol=1e-12, atol=0.0)
    value, grads = _loss_and_gradients(loss, params)
    oracle_value, oracle_grads = _loss_and_gradients(oracle, params)
    assert abs(value - oracle_value) <= 1e-12 * abs(oracle_value)
    for name in params.names():
        scale = np.abs(oracle_grads[name]).max()
        assert np.abs(grads[name] - oracle_grads[name]).max() <= 1e-12 * scale, name


def _scalar_stratified_timesteps(n, steps, rng):
    """The per-draw loop that `_stratified_timesteps` replaced: one `rng.integers` call per stratum."""
    ts = []
    for k in range(n):
        lo = 1 + (k % n) * steps // n
        hi = max(lo, ((k % n) + 1) * steps // n)
        ts.append(int(rng.integers(lo, hi + 1)))
    return ts


@pytest.mark.parametrize("n", [1, 2, 7, 32, 211, 1500])
@pytest.mark.parametrize("steps", [1, 5, 200, 1000])
def test_stratified_timesteps_draw_as_the_scalar_loop(n, steps):
    """The same draws, as int64, and the same rng state after them, whether
    strata are wider than one step, one step wide or collapsed (n > T)."""
    for seed in range(5):
        rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ts = diffusion._stratified_timesteps(n, steps, rng)
        assert ts.dtype == np.int64
        assert ts.tolist() == _scalar_stratified_timesteps(n, steps, scalar_rng)
        assert rng.bit_generator.state == scalar_rng.bit_generator.state


def _batch_draws(examples, timesteps, seed, monkeypatch):
    """The noisy features, noise and timesteps that `batch_loss` hands on, and its rng's state after."""
    seen = {}
    forward, mse = diffusion.denoiser_forward, diffusion.mse_loss

    def spy_forward(x_noisy, coords, bond_edges, t, *args, **kwargs):
        seen["x_noisy"], seen["t"] = x_noisy, t
        return forward(x_noisy, coords, bond_edges, t, *args, **kwargs)

    def spy_mse(eps_hat, eps, *args):
        seen["eps"] = eps
        return mse(eps_hat, eps, *args)

    monkeypatch.setattr(diffusion, "denoiser_forward", spy_forward)
    monkeypatch.setattr(diffusion, "mse_loss", spy_mse)
    rng = np.random.default_rng(seed)
    batch_loss(examples, timesteps, NoiseSchedule(500), 0.7, init_params(5, seed=seed), rng)
    monkeypatch.undo()
    return seen, rng.bit_generator.state


@pytest.mark.parametrize("case", sorted(_mixed_batches()))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_loss_matches_per_molecule_oracle(case, seed, monkeypatch):
    examples = _mixed_batches()[case]
    params = init_params(vocab_size=5, seed=seed)
    timesteps = np.random.default_rng(100 + seed).integers(1, 501, size=len(examples)).tolist()
    _assert_matches_oracle(examples, timesteps, params, seed, tau=0.7)
    # at an epoch's stratified timesteps, the batch's one noise draw is the
    # per-example draws of `forward_noise`, bit for bit
    timesteps = diffusion._stratified_timesteps(len(examples), 500, np.random.default_rng(100 + seed))
    assert timesteps.tolist() == _scalar_stratified_timesteps(len(examples), 500, np.random.default_rng(100 + seed))
    seen, state = _batch_draws(examples, timesteps, seed, monkeypatch)
    rng = np.random.default_rng(seed)
    noisy, noise = zip(*(forward_noise(ex.features, t, NoiseSchedule(500), rng) for ex, t in zip(examples, timesteps)))
    assert seen["x_noisy"].tobytes() == np.concatenate(noisy).tobytes()
    assert seen["eps"].tobytes() == np.concatenate(noise).tobytes()
    assert seen["t"].tobytes() == np.asarray(timesteps, dtype=np.int64).tobytes()
    assert state == rng.bit_generator.state


def test_batch_loss_matches_oracle_on_corpus_batch(fixture_dataset):
    vocab, molecules = fixture_dataset
    examples = dataio.to_training_examples(molecules[:32], vocab)
    params = init_params(len(vocab), seed=4)
    timesteps = np.random.default_rng(4).integers(1, 1001, size=len(examples)).tolist()
    _assert_matches_oracle(examples, timesteps, params, seed=4, steps=1000)


@pytest.mark.parametrize("case", sorted(_mixed_batches()))
def test_batch_loss_keeps_the_bits_of_the_op_chain(case, monkeypatch):
    """Loss and every parameter gradient of a batch equal, bit for bit, those of a
    denoiser whose affine maps and EGNN layers are chains of single ops."""
    examples = _mixed_batches()[case]
    params = init_params(vocab_size=5, seed=8)
    timesteps = np.random.default_rng(9).integers(1, 501, size=len(examples)).tolist()

    def loss_and_gradients():
        loss, mse, ce = batch_loss(examples, timesteps, NoiseSchedule(500), 0.7, params, np.random.default_rng(3))
        params.zero_grad()
        numcore.backward(loss)
        return [loss.data, mse.data, ce.data] + [params[name].grad for name in params.names()]

    got = loss_and_gradients()
    monkeypatch.setattr(numcore, "linear", composite_layers.linear)
    monkeypatch.setattr(egnn, "egnn_forward", composite_layers.egnn_forward)
    want = loss_and_gradients()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_train_epoch_metrics_match_oracle_molecule_means():
    """One epoch of one batch: the metrics are the oracle's per-molecule means."""
    examples = _mixed_batches()["mixed sizes up to 11"]
    config = TrainConfig(steps=200, epochs=1, batch_size=len(examples), tau=1.0, seed=6)
    _, metrics = train(examples, config)
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(examples))
    timesteps = diffusion._stratified_timesteps(len(examples), config.steps, rng)
    oracle, mses, ces = _oracle_batch_loss(
        [examples[i] for i in order], timesteps, NoiseSchedule(config.steps), config.tau,
        init_params(5, seed=config.seed), rng,
    )
    assert metrics[0].mse == pytest.approx(np.mean(mses), rel=1e-12)
    assert metrics[0].ce == pytest.approx(np.mean(ces), rel=1e-12)
    assert metrics[0].total == pytest.approx(oracle.item(), rel=1e-12)


@pytest.mark.parametrize("position", [0, 2, 4])
def test_train_wrong_length_condition_anywhere_in_batch(position):
    rng = np.random.default_rng(8)
    examples = [_molecule(rng, n) for n in (3, 4, 5, 6, 7)]
    bad = examples[position]
    examples[position] = TrainingExample(bad.features, bad.coords, bad.bond_edges, bad.bond_labels, np.ones(7))
    with pytest.raises(LengthMismatch):
        train(examples, TrainConfig(steps=50, epochs=1, batch_size=5, seed=0), init_params(5, seed=0))


def test_batch_descriptor_rows_are_checked_stacked_or_one_by_one():
    """Rows that stack are checked once, stacked; rows that do not are checked
    one by one, so a row shaped [1, L] next to [L] rows still trains."""
    rng = np.random.default_rng(8)
    examples = [_molecule(rng, n) for n in (3, 4, 5)]
    params, schedule = init_params(5, seed=0), NoiseSchedule(50)

    def with_conditions(conditions):
        return [
            TrainingExample(e.features, e.coords, e.bond_edges, e.bond_labels, c) for e, c in zip(examples, conditions)
        ]

    loss = batch_loss(examples, [1, 2, 3], schedule, 1.0, params, np.random.default_rng(0))[0]
    reshaped = with_conditions([examples[0].condition.reshape(1, -1)] + [e.condition for e in examples[1:]])
    assert batch_loss(reshaped, [1, 2, 3], schedule, 1.0, params, np.random.default_rng(0))[0].item() == loss.item()
    with pytest.raises(LengthMismatch):
        batch_loss(with_conditions([np.ones(7)] * 3), [1, 2, 3], schedule, 1.0, params, np.random.default_rng(0))
    strings = with_conditions([np.array(["a"] * 5)] * 3)
    with pytest.raises(TypeError):
        batch_loss(strings, [1, 2, 3], schedule, 1.0, params, np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        batch_loss(examples, [1, 2], schedule, 1.0, params, np.random.default_rng(0))


def test_train_mixed_batches_deterministic():
    examples = [m for batch in _mixed_batches().values() for m in batch]
    config = TrainConfig(steps=100, epochs=3, batch_size=4, seed=12)
    p1, m1 = train(examples, config)
    p2, m2 = train(examples, config)
    for name in p1.names():
        assert np.array_equal(p1[name].data, p2[name].data), name
    assert [(m.mse, m.ce, m.total) for m in m1] == [(m.mse, m.ce, m.total) for m in m2]


def test_denoiser_fragments_take_their_own_step_and_descriptor(rng):
    """Per-fragment t and y rows give each fragment the output of its own single pass."""
    params = init_params(vocab_size=4, seed=2)
    sched = NoiseSchedule(100)
    sizes, steps = (3, 1, 4), (5, 60, 99)
    ys = (rng.random((3, 4)) < 0.5).astype(np.float64)
    xs = [rng.normal(size=(n, 1)) for n in sizes]
    cs = [rng.normal(size=(n, 3)) for n in sizes]
    batched = denoiser_forward(
        np.vstack(xs), np.vstack(cs), (), np.array(steps), sched, ys, params,
        fragment_ids=np.repeat(np.arange(3), sizes),
    )
    lo = 0
    for x, c, t, y in zip(xs, cs, steps, ys):
        single = denoiser_forward(x, c, (), t, sched, y, params)
        hi = lo + len(x)
        assert np.abs(batched.eps_hat.data[lo:hi] - single.eps_hat.data).max() <= 1e-12
        assert np.abs(batched.coords.data[lo:hi] - single.coords.data).max() <= 1e-12
        lo = hi


def test_denoiser_rejects_a_step_out_of_range_in_any_fragment(rng):
    params = init_params(vocab_size=4, seed=2)
    with pytest.raises(StepOutOfRange):
        denoiser_forward(
            rng.normal(size=(2, 1)), rng.normal(size=(2, 3)), (), np.array([5, 51]), NoiseSchedule(50),
            np.zeros((2, 4)), params, fragment_ids=np.array([0, 1]),
        )


def test_denoiser_rejects_steps_and_descriptor_rows_of_different_counts(rng):
    params = init_params(vocab_size=4, seed=2)
    with pytest.raises(ShapeMismatch):
        denoiser_forward(
            rng.normal(size=(2, 1)), rng.normal(size=(2, 3)), (), 5, NoiseSchedule(50),
            np.zeros((2, 4)), params, fragment_ids=np.array([0, 1]),
        )


def _same_bits(plain, taped):
    """`plain`, a pass over constants, computes only `eps_hat` and the node embeddings, with `taped`'s bits."""
    return plain.bond_logits is None and plain.coords is None and all(
        getattr(plain, k).data.tobytes() == getattr(taped, k).data.tobytes() for k in ("eps_hat", "node_embeddings")
    )


def test_denoiser_constants_give_the_bits_of_a_pass_that_builds_its_own(rng):
    params = init_params(vocab_size=4, seed=1)
    sched = NoiseSchedule(50)
    y = np.array([1.0, 0, 1, 0])
    x, coords = rng.normal(size=(3, 1)), rng.normal(size=(3, 3))
    constants = denoiser_constants(sched, y, params, np.zeros(3, dtype=np.int64), coords)

    def over_constants(*args):
        with numcore.no_grad():
            return denoiser_forward(*args, sched, y, params, constants=constants)

    for t in (1, 15, 50):
        assert _same_bits(over_constants(x, coords, (), t), denoiser_forward(x, coords, ((0, 1),), t, sched, y, params))
    for t in (np.array(12), np.array([12])):  # one step given as an array
        assert _same_bits(over_constants(x, coords, (), t), denoiser_forward(x, coords, (), 12, sched, y, params))
    with pytest.raises(ShapeMismatch):
        over_constants(x, coords, (), np.array([10, 11]))
    with pytest.raises(ShapeMismatch):
        over_constants(rng.normal(size=(4, 1)), rng.normal(size=(4, 3)), (), 10)


@pytest.mark.parametrize("n", [1, 2, 6])
def test_constants_with_coordinates_give_the_bits_of_a_pass_that_builds_its_own(rng, n):
    """A coordinate stream built once gives every pass the bits of one that runs the stream itself."""
    params = init_params(vocab_size=4, seed=2)
    sched = NoiseSchedule(40)
    y = np.array([0.0, 1, 1, 0])
    x, coords = rng.normal(size=(n, 1)), 0.8 * rng.normal(size=(n, 3))
    edges = tuple((i, i + 1) for i in range(n - 1))
    constants = denoiser_constants(sched, y, params, np.zeros(n, dtype=np.int64), coords)
    for t in (40, 17, 1):
        with numcore.no_grad():
            got = denoiser_forward(x, coords, (), t, sched, y, params, constants=constants)
        assert _same_bits(got, denoiser_forward(x, coords, edges, t, sched, y, params))
        x = x - 0.1 * got.eps_hat.data
    moved = coords.copy()
    moved[0, 0] = np.nextafter(moved[0, 0], np.inf)
    with pytest.raises(ValueError, match="coordinate stream"), numcore.no_grad():
        denoiser_forward(x, moved, (), 5, sched, y, params, constants=constants)
    with pytest.raises(ShapeMismatch):
        denoiser_constants(sched, y, params, np.zeros(n, dtype=np.int64), rng.normal(size=(n + 1, 3)))


def test_a_pass_over_a_coordinate_stream_runs_no_coordinate_primitive(rng, monkeypatch):
    params = init_params(vocab_size=3, seed=0)
    sched = NoiseSchedule(10)
    x, coords = rng.normal(size=(5, 1)), rng.normal(size=(5, 3))
    constants = denoiser_constants(sched, np.ones(3), params, np.zeros(5, dtype=np.int64), coords)

    def refuse(*args):
        raise AssertionError("the coordinate pathway ran again")

    monkeypatch.setattr(egnn, "pair_geometry", refuse)
    monkeypatch.setattr(egnn, "coord_update", refuse)
    with numcore.no_grad():
        out = denoiser_forward(x, coords, (), 3, sched, np.ones(3), params, constants=constants)
    assert out.coords is None


def test_a_pass_over_constants_runs_no_bond_kernel_and_refuses_bond_edges(rng, monkeypatch):
    params = init_params(vocab_size=3, seed=0)
    sched = NoiseSchedule(10)
    x, coords = rng.normal(size=(5, 1)), rng.normal(size=(5, 3))
    constants = denoiser_constants(sched, np.ones(3), params, np.zeros(5, dtype=np.int64), coords)

    def refuse(*args):
        raise AssertionError("a pass over constants ran a bond kernel")

    monkeypatch.setattr(diffusion, "bond_logits_arrays", refuse)
    monkeypatch.setattr(diffusion, "bond_head", refuse)
    with numcore.no_grad():
        for no_edges in ((), np.zeros((0, 2), dtype=np.int64)):
            out = denoiser_forward(x, coords, no_edges, 3, sched, np.ones(3), params, constants=constants)
            assert out.bond_logits is None
        for bond_edges in (((0, 1),), np.array([[0, 1], [2, 3]])):
            with pytest.raises(ValueError, match="bond edges"):
                denoiser_forward(x, coords, bond_edges, 3, sched, np.ones(3), params, constants=constants)


def test_a_pass_over_constants_while_recording_is_refused(rng):
    """A taped pass over constants, which hold no tape, would give no parameter a gradient."""
    params = init_params(vocab_size=4, seed=3)
    sched = NoiseSchedule(50)
    x, coords = rng.normal(size=(5, 1)), rng.normal(size=(5, 3))
    constants = denoiser_constants(sched, np.ones(4), params, np.zeros(5, dtype=np.int64), coords)
    assert isinstance(constants.context, np.ndarray) and not constants.stream.geometry[-1].tracked()
    with pytest.raises(ValueError, match="no_grad"):
        denoiser_forward(x, coords, (), 20, sched, np.ones(4), params, constants=constants)


def test_constants_take_one_descriptor_vector(rng):
    """Descriptor rows, one per fragment, are not a vector of the vocabulary's length."""
    params = init_params(vocab_size=4, seed=1)
    with pytest.raises(LengthMismatch):
        denoiser_constants(NoiseSchedule(10), np.ones((2, 4)), params, np.array([0, 0, 1]), rng.normal(size=(3, 3)))


def test_fragment_ids_other_than_the_constants_are_refused(rng):
    """Ids that split the constants' one fragment would change eps_hat; ids equal to theirs are accepted."""
    params = init_params(vocab_size=4, seed=1)
    sched = NoiseSchedule(20)
    y = np.array([1.0, 0, 1, 0])
    x, coords = rng.normal(size=(4, 1)), rng.normal(size=(4, 3))
    constants = denoiser_constants(sched, y, params, np.zeros(4, dtype=np.int64), coords)
    split = np.array([0, 0, 1, 1])
    own = denoiser_forward(x, coords, (), 7, sched, y, params, split)
    with numcore.no_grad():
        same = denoiser_forward(x, coords, (), 7, sched, y, params, np.zeros(4, dtype=np.int64), constants)
        assert _same_bits(same, denoiser_forward(x, coords, (), 7, sched, y, params))
        assert same.eps_hat.data.tobytes() != own.eps_hat.data.tobytes()
        with pytest.raises(ValueError, match="fragment ids"):
            denoiser_forward(x, coords, (), 7, sched, y, params, split, constants)


def test_training_builds_no_constants(monkeypatch):
    """Every training pass runs the `Tensor` ops; no batch builds trajectory constants."""

    def refuse(*args):
        raise AssertionError("training built denoiser constants")

    monkeypatch.setattr(diffusion, "denoiser_constants", refuse)
    examples = [m for batch in _mixed_batches().values() for m in batch]
    for batch_size in (1, 4):
        _, metrics = train(examples, TrainConfig(steps=50, epochs=2, batch_size=batch_size, seed=1))
        assert len(metrics) == 2


def test_condition_embed_rows_length_mismatch():
    params = init_params(vocab_size=6, seed=0)
    with pytest.raises(LengthMismatch):
        fragment_rows_pass(np.zeros((3, 5)), params)


def test_descriptor_rows_that_are_not_numbers_are_a_type_error():
    params = init_params(vocab_size=2, seed=0)
    for rows in (np.full((3, 2), "a"), np.zeros((3, 2), dtype=object)):
        with pytest.raises(TypeError):
            fragment_rows_pass(rows, params)
        with pytest.raises(TypeError):
            descriptor_vector(rows, params)


# ---------------------------------------------------------------- metrics IO


def test_metrics_csv_round_trip(tmp_path):
    metrics = [diffusion.EpochMetrics(1, 0.5, 0.25, 0.75), diffusion.EpochMetrics(2, 0.4, 0.2, 0.6)]
    path = tmp_path / "metrics.csv"
    diffusion.write_metrics_csv(metrics, str(path))
    back = diffusion.read_metrics_csv(str(path))
    assert [(m.epoch, m.mse, m.ce, m.total) for m in back] == [
        (m.epoch, m.mse, m.ce, m.total) for m in metrics
    ]


def test_metrics_csv_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("epoch,mse_loss\n1,0.5\n")
    with pytest.raises(ValueError):
        diffusion.read_metrics_csv(str(path))


# ------------------------------------------------- passes with recording off


def _scaled_params(scale):
    """init_params(4, seed=7) plus N(0, 0.01) on every entry, biases included, all times `scale`."""
    base = init_params(vocab_size=4, seed=7)
    rng = np.random.default_rng(7)
    params = numcore.ParamStore()
    for name in base.names():
        params.add(name, (base[name].data + 0.1 * rng.normal(size=base[name].data.shape)) * scale)
    return params


PASS_PARAMS = {"perturbed": _scaled_params(1.0), "overflowing": _scaled_params(1e120)}


def test_the_overflowing_parameters_need_nan_to_num():
    x, coords = np.ones((3, 1)), np.arange(9.0).reshape(3, 3)
    with np.errstate(all="ignore"):
        out = denoiser_forward(x, coords, ((0, 1),), 5, NoiseSchedule(50), np.ones(4), PASS_PARAMS["overflowing"])
    for key in ("eps_hat", "bond_logits", "node_embeddings", "coords"):
        assert (getattr(out, key).data == 0.0).all(), key  # every entry was NaN
    with np.errstate(all="ignore"):
        out = denoiser_forward(
            x[:1], coords[:1], ((0, 0),), 5, NoiseSchedule(50), np.ones(4), PASS_PARAMS["overflowing"]
        )
    assert np.abs(out.eps_hat.data).max() == 1e6  # an infinity


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    fragments=st.integers(1, 4),
    bonds=st.integers(0, 4),
    params=st.sampled_from(sorted(PASS_PARAMS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_pass_with_recording_off_has_the_bits_of_the_taped_pass(n, fragments, bonds, params, seed):
    """Both outputs of a pass over trajectory constants equal, byte for byte, those of the taped pass.

    So does every output of a pass without constants inside `no_grad`, which
    runs the `Tensor` ops untaped.  The pass over constants takes no bond
    edges; the others take `bonds` random ones.
    """
    params = PASS_PARAMS[params]
    rng = np.random.default_rng(seed)
    schedule = NoiseSchedule(50)
    frag = rng.integers(0, fragments, size=n)
    x, coords = rng.normal(size=(n, 1)), 0.8 * rng.normal(size=(n, 3))
    edges = rng.integers(0, n, size=(bonds, 2))
    y = (rng.random(4) < 0.5).astype(np.float64)

    def passes(x, t):
        with np.errstate(all="ignore"):
            taped = denoiser_forward(x, coords, edges, t, schedule, y, params, frag)
            with numcore.no_grad():
                untaped = denoiser_forward(x, coords, edges, t, schedule, y, params, frag)
                plain = denoiser_forward(x, coords, (), t, schedule, y, params, frag, constants)
        assert taped.eps_hat.tracked() and not untaped.eps_hat.tracked() and not plain.eps_hat.tracked()
        for key in ("eps_hat", "bond_logits", "node_embeddings", "coords"):
            want = getattr(taped, key).data
            outputs = (untaped, plain) if key in ("eps_hat", "node_embeddings") else (untaped,)
            for got in (getattr(out, key).data for out in outputs):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), key
        assert plain.bond_logits is None and plain.coords is None
        return plain

    with np.errstate(all="ignore"):
        constants = denoiser_constants(schedule, y, params, frag, coords)
    first = passes(x, int(rng.integers(1, 51)))
    kept = {key: getattr(first, key).data.tobytes() for key in ("eps_hat", "node_embeddings")}
    # another step over the same constants and their buffers
    passes(rng.normal(size=(n, 1)), int(rng.integers(1, 51)))
    for key, data in kept.items():
        assert getattr(first, key).data.tobytes() == data, f"the second pass wrote the first's {key}"


@pytest.mark.parametrize(
    "name, shape", [("input_proj.w", (18, 8)), ("egnn.1.node_mlp.w1", (16, 8)), ("head.w", (9, 1))]
)
@pytest.mark.parametrize("recording", [True, False])
def test_a_weight_of_the_wrong_width_is_a_shape_mismatch_in_either_mode(rng, name, shape, recording):
    params = init_params(vocab_size=4, seed=0)
    params.add(name, np.zeros(shape))
    x, coords = rng.normal(size=(3, 1)), rng.normal(size=(3, 3))
    with pytest.raises(ShapeMismatch):
        if recording:
            denoiser_forward(x, coords, (), 5, NoiseSchedule(50), np.ones(4), params)
        else:
            with numcore.no_grad():
                denoiser_forward(x, coords, (), 5, NoiseSchedule(50), np.ones(4), params)


@pytest.mark.parametrize(
    "t", [0, 51, np.array([0]), np.array(51), 3.5, np.float64(2.5), np.array([7.5]), np.nan, np.inf]
)
@pytest.mark.parametrize("recording", [True, False])
def test_a_step_outside_the_schedule_is_step_out_of_range_in_either_mode(rng, t, recording):
    """t = 0, t = T + 1 and steps that are not whole numbers, also as one-element arrays.

    The taped pass and the pass over constants agree: neither truncates a
    fractional step to the step below it.
    """
    params = init_params(vocab_size=4, seed=0)
    schedule = NoiseSchedule(50)
    x, coords = rng.normal(size=(3, 1)), rng.normal(size=(3, 3))
    with pytest.raises(StepOutOfRange):
        if recording:
            denoiser_forward(x, coords, (), t, schedule, np.ones(4), params)
        else:
            constants = denoiser_constants(schedule, np.ones(4), params, np.zeros(3, dtype=np.int64), coords)
            with numcore.no_grad():
                denoiser_forward(x, coords, (), t, schedule, np.ones(4), params, constants=constants)


@pytest.mark.parametrize("t", [3.0, np.float64(3.0), np.array([3.0]), np.int64(3), np.array(3)])
def test_a_whole_step_of_another_type_is_the_step_it_names_in_either_mode(rng, t):
    params = init_params(vocab_size=4, seed=0)
    schedule = NoiseSchedule(50)
    x, coords = rng.normal(size=(3, 1)), rng.normal(size=(3, 3))
    constants = denoiser_constants(schedule, np.ones(4), params, np.zeros(3, dtype=np.int64), coords)
    want = denoiser_forward(x, coords, (), 3, schedule, np.ones(4), params)
    assert denoiser_forward(x, coords, (), t, schedule, np.ones(4), params).eps_hat.data.tobytes() == (
        want.eps_hat.data.tobytes()
    )
    with numcore.no_grad():
        assert _same_bits(denoiser_forward(x, coords, (), t, schedule, np.ones(4), params, constants=constants), want)


@pytest.mark.parametrize("bad_id", [-1, -2, 2])
@pytest.mark.parametrize("recording", [True, False])
def test_a_fragment_id_without_a_descriptor_row_is_an_index_error_in_either_mode(rng, bad_id, recording):
    """Two descriptor rows: a fragment id outside [0, 2) picks no row, negative ids included."""
    params = init_params(vocab_size=4, seed=0)
    x, coords = rng.normal(size=(3, 1)), rng.normal(size=(3, 3))
    frag = np.array([0, bad_id, 1])
    with pytest.raises(IndexError):
        if recording:
            denoiser_forward(x, coords, (), np.array([5, 6]), NoiseSchedule(50), np.ones((2, 4)), params, frag)
        else:
            with numcore.no_grad():
                denoiser_forward(x, coords, (), np.array([5, 6]), NoiseSchedule(50), np.ones((2, 4)), params, frag)


def test_a_pass_with_recording_off_makes_only_its_output_tensors(rng, monkeypatch):
    params = init_params(vocab_size=3, seed=0)
    schedule = NoiseSchedule(10)
    x, coords = rng.normal(size=(5, 1)), rng.normal(size=(5, 3))
    with numcore.no_grad():
        constants = denoiser_constants(schedule, np.ones(3), params, np.zeros(5, dtype=np.int64), coords)
        made = []
        init = Tensor.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counted)
        # every pass runs in the buffers built with the constants
        for step in (3, 2):
            made.clear()
            out = denoiser_forward(x, coords, (), step, schedule, np.ones(3), params, constants=constants)
            assert [id(t) for t in made] == [id(out.eps_hat), id(out.node_embeddings)]
            assert out.bond_logits is None and out.coords is None


# ------------------------------------------------ the nan_to_num guard and buffers


def _guarded_as_before(a):
    """The guard as an `isfinite` check of every entry: nan_to_num of an array that holds a non-finite value."""
    a = a.copy()
    if not np.isfinite(a).all():
        np.nan_to_num(a, copy=False, posinf=1e6, neginf=-1e6)
    return a


GUARD_CASES = {
    "nan": [np.nan, 1.0],
    "negative nan": [-np.nan, 2.0],
    "inf": [np.inf, -3.0],
    "-inf": [0.5, -np.inf],
    "both infinities": [np.inf, -np.inf],
    "overflowing sum": [1e308, 1e308],
    "overflowing squares": [1e200, -1e200],
    "overflow and nan": [1e308, 1e308, np.nan],
    "signed zeros and subnormals": [-0.0, 0.0, 5e-324, -5e-324],
    "finite": [1.5, -2.25, 1e-300],
    "empty": [],
}


@pytest.mark.parametrize("shape", [(-1,), (1, -1), (-1, 1)], ids=["1-d", "row", "column"])
@pytest.mark.parametrize("case", sorted(GUARD_CASES))
def test_the_guard_writes_what_an_isfinite_check_writes_and_warns_of_nothing(case, shape):
    """nan_to_num for an array that holds NaN or an infinity; a finite one keeps its bytes, even if its sum overflows."""
    a = np.array(GUARD_CASES[case], dtype=np.float64).reshape(shape)
    want = _guarded_as_before(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diffusion._finite(a)
    assert a.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=24))
def test_the_guard_has_the_bits_of_an_isfinite_check(values):
    a = np.array(values, dtype=np.float64)
    want = _guarded_as_before(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diffusion._finite(a)
    assert a.tobytes() == want.tobytes()


def _constants_buffers(constants):
    """Every array the constants hold: context rows, parameters, buffers, the stream and its layout."""
    stream = constants.stream
    arrays = [constants.context, constants.node_input, *constants.input_proj, *constants.head]
    arrays += [a for layer in constants.layers for a in layer]
    arrays += [stream.coords.data, stream.last.data, *(g.data for g in stream.geometry)]
    arrays += [stream.layout.fragment_ids, stream.layout.receivers, stream.layout.senders, stream.layout.edge_scale]
    return [a for a in arrays if a is not None]


@pytest.mark.parametrize("n", [1, 2, 11])
def test_passes_over_constants_return_arrays_that_share_no_memory(n):
    """Two passes' outputs share no memory with each other or with any buffer of the constants."""
    rng = np.random.default_rng(n)
    params = init_params(vocab_size=4, seed=n)
    schedule = NoiseSchedule(30)
    x, coords = rng.normal(size=(n, 1)), rng.normal(size=(n, 3))
    constants = denoiser_constants(schedule, np.ones(4), params, np.zeros(n, dtype=np.int64), coords)
    assert len(constants.layers) == (0 if n == 1 else len(egnn.DEFAULT_LAYERS))
    with numcore.no_grad():
        first = denoiser_forward(x, coords, (), 30, schedule, np.ones(4), params, constants=constants)
        kept = [first.eps_hat.data.copy(), first.node_embeddings.data.copy()]
        second = denoiser_forward(x, coords, (), 1, schedule, np.ones(4), params, constants=constants)
    outputs = [out.data for out in (first.eps_hat, first.node_embeddings, second.eps_hat, second.node_embeddings)]
    for i, a in enumerate(outputs):
        for b in outputs[i + 1 :] + _constants_buffers(constants):
            assert not np.shares_memory(a, b)
    assert [first.eps_hat.data.tobytes(), first.node_embeddings.data.tobytes()] == [k.tobytes() for k in kept]
