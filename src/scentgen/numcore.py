"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

Each primitive links its output to its inputs with a hand-written backward
closure (`primitive`); calling `backward` on a scalar loss walks the
recorded graph in reverse topological order and accumulates gradients on
every tracked tensor.  Besides the elementwise, reduction and row ops,
`linear` is a single primitive for the affine map, and `MLPPass` holds one
application of a two-layer SiLU MLP with its backward for the primitives of
other modules (`egnn`).  `affine_params` and `mlp_params` are the one lookup
and shape check of those maps' parameters.

The forward arithmetic of these primitives lives in array kernels (`affine`,
`mlp`, `take_rows`, `scatter_add`): a primitive calls its kernel and adds
only the `Tensor` wrapper and the backward.  Code that records nothing, such
as a denoiser pass given its trajectory's constants, calls the kernels on
plain arrays and gets the same bits; `affine` and `mlp` also write into arrays the caller
keeps (`out=`), so such code can run many passes without allocating them.
The module also provides the parameter store, the Adam update, and a
versioned JSON checkpoint format.

`adam_step` runs as one update over flat float64 vectors of every
parameter's values, gradients and first and second moments, with the bits
of updating each parameter alone; a gradient of another shape than its
parameter raises `ShapeMismatch`.  Each parameter's `.data` is a reshaped
view of a fresh vector of values after every step, and the store's
`_adam_m` and `_adam_v` entries are views of the moment vectors, which the
step updates in place.  A store whose arrays were replaced since, as
`load_checkpoint` replaces the moments, is gathered into new vectors first.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class UnknownParam(KeyError):
    """A named parameter does not exist in the store."""


class NotScalarLoss(ValueError):
    """backward() requires a single-element loss tensor."""


class MissingGradients(RuntimeError):
    """adam_step() was called before gradients were populated."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block: ops still run, but link no result to its inputs.

    A denoiser pass given `diffusion.DenoiserConstants` runs on plain arrays,
    and only inside this block, as every reverse step of `generator.sample`
    does, and wraps only its two outputs, the noise prediction and the node
    embeddings; a pass without them runs the same ops untaped.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def recording() -> bool:
    """Whether ops record the tape: False inside `no_grad`."""
    return _grad_enabled


class Tensor:
    """A float64 array plus an optional link into the recorded computation.

    `Tensor(x)` copies `x`, so a tensor never aliases its caller's array.
    Only `wrap` passes `_owned=True`: a freshly computed array has no other
    owner and is wrapped as it is.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, *, _owned: bool = False):
        if _owned:
            self.data = np.asarray(data, dtype=np.float64)
        else:
            self.data = np.array(data, dtype=np.float64, copy=True)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple["Tensor", ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def tracked(self) -> bool:
        """Whether `backward` gives this tensor a gradient: it requires one, or the tape recorded it."""
        return self.requires_grad or bool(self._parents)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, tracked={self.tracked()})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=np.float64))


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add `g` to the gradient of `t`, a copy of `g` if it has none; nothing if `t` is untracked."""
    if not t.tracked():
        return
    t.grad = g.copy() if t.grad is None else t.grad + g


def wrap(data: np.ndarray) -> Tensor:
    """An untracked tensor around `data`, a freshly computed array that no one else holds, without copying."""
    return Tensor(data, _owned=True)


def primitive(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """An op's result: `data` wrapped without copying, linked to `parents` when recording.

    Every op computes a new array.  `backward_fn(g)` receives the result's
    gradient and calls `accumulate` on each parent that needs a share; it
    is kept only while the tape records and some parent is tracked.  The
    result still goes through `Tensor.__init__`, so anything that counts
    tensors by their construction sees every op result.  An op such as
    `exp` reads its own output in backward, so the output of a tracked op
    must not be written in place before `backward` has run.
    """
    out = wrap(data)
    if _grad_enabled and any(p.tracked() for p in parents):
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a: Tensor, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def bw(g):
        accumulate(a, _unbroadcast(g, a.data.shape))
        accumulate(b, _unbroadcast(g, b.data.shape))

    return primitive(out_data, (a, b), bw)


def sub(a: Tensor, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def bw(g):
        accumulate(a, _unbroadcast(g, a.data.shape))
        accumulate(b, _unbroadcast(-g, b.data.shape))

    return primitive(out_data, (a, b), bw)


def mul(a: Tensor, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def bw(g):
        accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return primitive(out_data, (a, b), bw)


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            accumulate(a, np.broadcast_to(g, a.data.shape).copy())
        else:
            expanded = g if keepdims else np.expand_dims(g, axis)
            accumulate(a, np.broadcast_to(expanded, a.data.shape).copy())

    return primitive(out_data, (a,), bw)


def mean_(a: Tensor) -> Tensor:
    a = as_tensor(a)
    count = max(a.data.size, 1)
    return mul(sum_(a), 1.0 / count)


def exp(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def bw(g):
        accumulate(a, g * out_data)

    return primitive(out_data, (a,), bw)


def log(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out_data = np.log(a.data)

    def bw(g):
        accumulate(a, g / a.data)

    return primitive(out_data, (a,), bw)


def _silu(
    x: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """SiLU of `x` and the sigmoid it used, written into the pair `out` (fresh arrays without it).

    Stable sigmoid in one division: exp never sees a positive argument, and
    the numerator is exp(min(x, 0)), which is 1 or exp(-|x|) by sign.  The
    SiLU's array holds the denominator 1 + exp(-|x|) until the last op.
    """
    hidden, sig = (np.empty_like(x), np.empty_like(x)) if out is None else out
    np.abs(x, out=hidden)
    np.negative(hidden, out=hidden)
    np.exp(hidden, out=hidden)
    np.add(1.0, hidden, out=hidden)
    np.minimum(x, 0.0, out=sig)
    np.exp(sig, out=sig)
    np.divide(sig, hidden, out=sig)
    np.multiply(x, sig, out=hidden)
    return hidden, sig


def _silu_grad(g: np.ndarray, x: np.ndarray, sig: np.ndarray) -> np.ndarray:
    return g * (sig * (1.0 + x * (1.0 - sig)))


def concat(parts: Sequence[Tensor], axis: int = 1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def bw(g):
        offset = 0
        for p, size in zip(parts, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            accumulate(p, g[tuple(index)])
            offset += size

    return primitive(out_data, tuple(parts), bw)


def scatter_index(index: np.ndarray, width: int) -> np.ndarray:
    """Row-major flat positions `index[i] * width + c` of every element of rows of `width` columns.

    `index` is taken as int64: the flat index of a 1-D sum (width 1) is
    `index` itself.
    """
    index = np.asarray(index, dtype=np.int64)
    return index if width == 1 else (index[:, None] * width + np.arange(width)).reshape(-1)


def scatter_add(flat: np.ndarray, rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Zeros of `shape` plus each element of `rows` added at its position in `flat`.

    `flat` is `scatter_index` of the rows' destinations.  `np.bincount` adds
    each bucket's terms in input order starting from 0.0, as `np.add.at`
    does, so the sums have the same bits.  A position outside the array
    raises IndexError.
    """
    size = math.prod(shape)
    try:
        summed = np.bincount(flat, weights=rows.reshape(-1), minlength=size)
    except ValueError:  # a negative position
        raise IndexError(f"segment id outside [0, {shape[0]})") from None
    if summed.size != size:
        raise IndexError(f"segment id outside [0, {shape[0]})")
    # bincount of no positions returns int64 zeros
    return summed.reshape(shape) if flat.size else np.zeros(shape)


def take_rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows `idx` (int64) of `a`; an index outside [0, len(a)) raises IndexError."""
    # one reduction: a negative index is a huge unsigned one
    if idx.size and idx.view(np.uint64).max() >= a.shape[0]:
        raise IndexError(f"gather index outside [0, {a.shape[0]})")
    return a[idx]


def gather(a: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows (`take_rows`); the gradient scatter-adds back into the source."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    out_data = take_rows(a.data, idx)

    def bw(g):
        width = math.prod(a.data.shape[1:])
        accumulate(a, scatter_add(scatter_index(idx, width), g, a.data.shape))

    return primitive(out_data, (a,), bw)


def segment_sum(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of `a` into `num_segments` buckets keyed by `segment_ids`.

    An id outside [0, num_segments) raises IndexError.
    """
    a = as_tensor(a)
    seg = np.asarray(segment_ids, dtype=np.int64)
    if seg.shape[:1] != a.data.shape[:1]:
        raise ShapeMismatch(f"{seg.shape[0]} segment ids vs {a.data.shape[0]} rows")
    flat_index = scatter_index(seg, math.prod(a.data.shape[1:]))
    out_data = scatter_add(flat_index, a.data, (num_segments,) + a.data.shape[1:])

    def bw(g):
        accumulate(a, g[seg])

    return primitive(out_data, (a,), bw)


def log_softmax_rows(a: Tensor) -> Tensor:
    """Row-wise log-softmax via the max-shifted logsumexp composite."""
    a = as_tensor(a)
    shift = Tensor(np.max(a.data, axis=1, keepdims=True))  # constant, no gradient
    shifted = sub(a, shift)
    lse = log(sum_(exp(shifted), axis=1, keepdims=True))
    return sub(shifted, lse)


def backward(loss: Tensor) -> None:
    """Populate gradients of every tracked tensor reachable from a scalar loss."""
    if not isinstance(loss, Tensor):
        raise NotScalarLoss("loss must be a Tensor")
    if loss.data.size != 1:
        raise NotScalarLoss(f"loss has {loss.data.size} elements, expected 1")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


class ParamStore:
    """Named learnable tensors plus per-parameter Adam moment state.

    `adam_step` keeps the moments of all parameters in one flat vector each
    (`_FlatAdam`), of which `_adam_m[name]` and `_adam_v[name]` are views, and
    gives every parameter a view of a fresh flat vector of values.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}
        self.adam_steps = 0
        self._flat: _FlatAdam | None = None

    def add(self, name: str, value) -> Tensor:
        tensor = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        self._params[name] = tensor
        self._adam_m[name] = np.zeros_like(tensor.data)
        self._adam_v[name] = np.zeros_like(tensor.data)
        self._flat = None
        return tensor

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise UnknownParam(name) from None

    def names(self) -> list[str]:
        return sorted(self._params)

    def zero_grad(self) -> None:
        # Zero arrays, not None: parameters that a given loss never touches
        # (e.g. the last layer's coordinate MLP) legitimately have zero gradient.
        for t in self._params.values():
            t.grad = np.zeros(t.data.shape)


def _affine_backward(g: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor, input_grad: bool) -> np.ndarray | None:
    """Accumulate the gradients of `x @ w + b` into `w` and `b`; the input's gradient if asked."""
    accumulate(b, _unbroadcast(g, b.data.shape))
    g_x = g @ w.data.T if input_grad else None
    accumulate(w, x.T @ g)
    return g_x


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x @ w + b on arrays, the arithmetic of `linear`: a fresh array, or written into `out`.

    `out` must be C-contiguous, and so must `x` and `w`: the product then
    runs as `np.dot`, which has the bits of `@` on such arrays and skips the
    overhead of `np.matmul`'s `out`.  `b` may be tiled to `out`'s shape,
    which adds the same numbers faster than a broadcast does.
    """
    if out is None:
        return x @ w + b
    np.dot(x, w, out=out)
    return np.add(out, b, out=out)


def linear(params: ParamStore, name: str, x: Tensor) -> Tensor:
    """Affine map x @ w + b of the rows of the 2-D `x` using `affine_params`; one tape node."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeMismatch(f"linear {name!r}: input of shape {x.data.shape} is not 2-D")
    w, b = affine_params(params, name, x.data.shape[1])

    def bw(g):
        g_x = _affine_backward(g, x.data, w, b, x.tracked())
        if g_x is not None:
            accumulate(x, g_x)

    return primitive(affine(x.data, w.data, b.data), (x, w, b), bw)


def mlp(
    x: np.ndarray,
    w1: np.ndarray,
    b1: np.ndarray,
    w2: np.ndarray,
    b2: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Affine, SiLU, affine of `x` on arrays: (pre-activation, hidden, sigmoid, output).

    `out` holds four arrays of those shapes (`mlp_scratch`), which the ops
    write in place; without it each is a fresh array, allocated as its op
    runs.  Allocating all four up front instead, in a training step,
    multiplied the page faults of its freed and regrown heap.
    """
    pre, hidden, sig, output = (None,) * 4 if out is None else out
    pre = affine(x, w1, b1, pre)
    hidden, sig = _silu(pre, None if out is None else (hidden, sig))
    return pre, hidden, sig, affine(hidden, w2, b2, output)


def mlp_scratch(rows: int, w1: np.ndarray, w2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uninitialised (pre-activation, hidden, sigmoid, output) arrays of `mlp` over `rows` input rows."""
    hidden = (rows, w1.shape[1])
    return np.empty(hidden), np.empty(hidden), np.empty(hidden), np.empty((rows, w2.shape[1]))


def affine_params(params: ParamStore, name: str, n_in: int) -> tuple[Tensor, Tensor]:
    """The tensors `{name}.w/b` of an affine map that reads rows of `n_in` columns.

    Raises `UnknownParam` for a missing parameter and `ShapeMismatch` unless
    `w` is 2-D with `n_in` rows.
    """
    w, b = params[name + ".w"], params[name + ".b"]
    if w.data.ndim != 2 or w.data.shape[0] != n_in:
        raise ShapeMismatch(f"affine {name!r}: input width {n_in} vs weight {w.data.shape}")
    return w, b


def mlp_params(params: ParamStore, name: str, n_in: int) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """The tensors `{name}.w1/b1/w2/b2` of an MLP that reads rows of `n_in` columns.

    Raises `UnknownParam` for a missing parameter and `ShapeMismatch` unless
    `w1` is 2-D with `n_in` rows.
    """
    weights = params[name + ".w1"], params[name + ".b1"], params[name + ".w2"], params[name + ".b2"]
    w1 = weights[0].data
    if w1.ndim != 2 or w1.shape[0] != n_in:
        raise ShapeMismatch(f"mlp {name!r}: input width {n_in} vs weight {w1.shape}")
    return weights


class MLPPass:
    """One application of a two-layer SiLU MLP to an array, kept for its backward.

    `weights` are the `mlp_params` tensors, `x` the 2-D input and `forward`
    what `mlp` returned for them; `out` is the MLP's output.
    """

    __slots__ = ("weights", "x", "pre", "sig", "hidden", "out")

    def __init__(self, weights: tuple[Tensor, ...], x: np.ndarray, forward: tuple[np.ndarray, ...]):
        self.weights = weights
        self.x = x
        self.pre, self.hidden, self.sig, self.out = forward

    def backward(self, g: np.ndarray, input_grad: bool) -> np.ndarray | None:
        """Accumulate the parameters' gradients for upstream `g`; the input's gradient if asked."""
        w1, b1, w2, b2 = self.weights
        g_hidden = _affine_backward(g, self.hidden, w2, b2, True)
        return _affine_backward(_silu_grad(g_hidden, self.pre, self.sig), self.x, w1, b1, input_grad)


def init_affine(params: ParamStore, name: str, n_in: int, n_out: int, rng: np.random.Generator) -> None:
    params.add(f"{name}.w", rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_out)))
    params.add(f"{name}.b", np.zeros(n_out))


def init_mlp(params: ParamStore, name: str, n_in: int, n_hidden: int, n_out: int, rng: np.random.Generator) -> None:
    params.add(f"{name}.w1", rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_in, n_hidden)))
    params.add(f"{name}.b1", np.zeros(n_hidden))
    params.add(f"{name}.w2", rng.normal(0.0, 1.0 / np.sqrt(n_hidden), size=(n_hidden, n_out)))
    params.add(f"{name}.b2", np.zeros(n_out))


def _flatten(arrays: list[np.ndarray]) -> np.ndarray:
    """The elements of `arrays`, each in row-major order, one after the other, as a fresh float64 vector."""
    return np.concatenate(arrays, axis=None, dtype=np.float64) if arrays else np.zeros(0)


class _FlatAdam:
    """The parameters of a store, in insertion order, as one flat vector each of values and moments.

    `values` holds the parameters' values and `data` the views of it that
    are their `.data`; `m` and `v` hold the moments and `moments` the views
    of them that are the store's `_adam_m` and `_adam_v` entries.  Building
    one copies the store's arrays into the vectors and replaces them with
    the views.  A store whose `.data` or moment entries were replaced since
    is gathered again.
    """

    __slots__ = ("tensors", "slices", "shapes", "values", "data", "m", "v", "moments")

    def __init__(self, store: ParamStore):
        names = list(store._params)
        self.tensors = tuple(store._params.values())
        self.shapes = tuple(t.data.shape for t in self.tensors)
        ends = itertools.accumulate(math.prod(shape) for shape in self.shapes)
        self.slices = tuple(slice(end - math.prod(shape), end) for end, shape in zip(ends, self.shapes))
        self.set_values(_flatten([t.data for t in self.tensors]))
        self.m = _flatten([store._adam_m[n] for n in names])
        self.v = _flatten([store._adam_v[n] for n in names])
        for name, m, v in zip(names, self.views(self.m), self.views(self.v)):
            store._adam_m[name], store._adam_v[name] = m, v
        self.moments = (*store._adam_m.values(), *store._adam_v.values())

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[s].reshape(shape) for s, shape in zip(self.slices, self.shapes)]

    def current(self, store: ParamStore) -> bool:
        """Whether every `.data` and moment entry of `store` is still the view this layout made."""
        return all(map(operator.is_, [t.data for t in self.tensors], self.data)) and all(
            map(operator.is_, [*store._adam_m.values(), *store._adam_v.values()], self.moments)
        )

    def set_values(self, values: np.ndarray) -> None:
        """Make the fresh flat `values` the parameters' values: each `.data` becomes a view of it."""
        self.values = values
        self.data = tuple(self.views(values))
        for t, data in zip(self.tensors, self.data):
            t.data = data


def adam_step(
    params: ParamStore,
    lr: float = 1e-3,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update over every parameter in the store.

    The update runs once over flat vectors of all values, gradients and
    moments (`_FlatAdam`), with the per-element arithmetic, and so the bits,
    of updating each parameter alone.  The moments are updated in place;
    every parameter's `.data` becomes a view of a fresh vector of values.
    """
    flat = params._flat
    if flat is None or not flat.current(params):
        flat = params._flat = _FlatAdam(params)
    grads = [t.grad for t in flat.tensors]
    missing = [n for n, g in zip(params._params, grads) if g is None]
    if missing:
        raise MissingGradients(f"no gradients for {sorted(missing)}")
    wrong = [n for n, g, shape in zip(params._params, grads, flat.shapes) if g.shape != shape]
    if wrong:
        raise ShapeMismatch(f"gradients of another shape than their parameters: {sorted(wrong)}")
    g = _flatten(grads)
    beta1, beta2 = betas
    params.adam_steps += 1
    t = params.adam_steps
    m, v = flat.m, flat.v
    m *= beta1
    m += (1.0 - beta1) * g
    g *= g
    g *= 1.0 - beta2
    v *= beta2
    v += g
    step = m / (1.0 - beta1**t)  # m_hat
    step *= lr
    denominator = v / (1.0 - beta2**t)  # v_hat
    np.sqrt(denominator, out=denominator)
    denominator += eps
    step /= denominator
    flat.set_values(flat.values - step)


CHECKPOINT_VERSION = 1


def save_checkpoint(params: ParamStore, path: str, meta: dict | None = None) -> None:
    """Write parameters, Adam state, and metadata as deterministic JSON."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "meta": meta or {},
        "adam": {
            "steps": params.adam_steps,
            "m": {n: params._adam_m[n].reshape(-1).tolist() for n in params.names()},
            "v": {n: params._adam_v[n].reshape(-1).tolist() for n in params.names()},
        },
        "params": {
            n: {"shape": list(params[n].data.shape), "data": params[n].data.reshape(-1).tolist()}
            for n in params.names()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))


def _object(value, what: str) -> dict:
    """`value` itself if it is a JSON object; `ValueError` otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    return value


def load_checkpoint(path: str) -> tuple[ParamStore, dict]:
    """Parameters, Adam state and meta as `save_checkpoint` wrote them.

    Raises `ValueError` for another format version, or when the payload,
    `params`, a parameter entry, `adam` or `meta` is not a JSON object.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = _object(json.load(fh), "checkpoint")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    params = ParamStore()
    for name, entry in _object(payload["params"], "params").items():
        entry = _object(entry, f"parameter {name!r}")
        shape = tuple(entry["shape"])
        params.add(name, np.asarray(entry["data"], dtype=np.float64).reshape(shape))
    adam = _object(payload.get("adam", {}), "adam")
    params.adam_steps = int(adam.get("steps", 0))
    for name in params.names():
        if name in adam.get("m", {}):
            params._adam_m[name] = np.asarray(adam["m"][name], dtype=np.float64).reshape(
                params[name].data.shape
            )
            params._adam_v[name] = np.asarray(adam["v"][name], dtype=np.float64).reshape(
                params[name].data.shape
            )
    return params, _object(payload.get("meta", {}), "meta")
