"""Differentiable dense-array primitives with hand-written reverse-mode gradients.

A `Tensor` is a numpy array plus a `requires_grad` flag and a key that no
other tensor of the process ever gets. Executing ops inside a `GradTape`
context records one entry per op: the output's key, the backward closure and,
for each input the tape tracks, its key and shape. The tape holds no
intermediate `Tensor`, so an op output the forward drops is freed at once.
`backward(tape, loss)` pops the records in exact reverse order, runs each
closure, drops each gradient once consumed, and returns a {parameter:
gradient} map.

Conventions:
    - neighbor-structured arrays are [B, M, K, ...] and reduce over axis 2
    - channel axis is always last
    - indices are plain int numpy arrays, never Tensors
    - a backward closure captures the arrays it reads and only the shapes
      and dtypes of the others: whatever it captures lives until backward
      reaches its op
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    DegenerateStatisticsError,
    InvalidNeighborhoodError,
    NumericFaultError,
    SizeError,
)

BN_EPS = 1e-5
BN_MOMENTUM = 0.1

_DTYPE = np.float64


def default_dtype():
    return _DTYPE


@contextmanager
def precision(kind: str):
    """Temporarily set the float dtype of newly created tensors: kind
    'single' is float32, 'double' float64."""
    global _DTYPE
    mapping = {"single": np.float32, "double": np.float64}
    if kind not in mapping:
        raise ContractError(f"precision must be single or double, got {kind!r}")
    saved = _DTYPE
    _DTYPE = mapping[kind]
    try:
        yield
    finally:
        _DTYPE = saved


_KEYS = count()  # tensor keys; never reused, unlike id()


class Tensor:
    """Dense float array; `requires_grad` marks leaf parameters.

    `key` is unique for the life of the process, so a tape can name a tensor
    without keeping it alive. Gradients never live on a tensor: `backward`
    returns them in a map.
    """

    __slots__ = ("data", "requires_grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        # floating arrays and numpy scalars, which 0-d arithmetic returns,
        # keep their dtype; Python numbers take the default dtype
        if isinstance(data, np.ndarray) and data.dtype.kind == "f":
            arr = data
        elif isinstance(data, np.floating):
            arr = np.asarray(data)
        else:
            arr = np.asarray(data, dtype=_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.key = next(_KEYS)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __reduce__(self):
        # a copy, deep copy or unpickled tensor is built anew, with its own key
        return Tensor, (self.data, self.requires_grad)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def input_tensor(arr) -> Tensor:
    """Wrap input data as a constant tensor in the current default dtype."""
    return Tensor(np.asarray(arr, dtype=_DTYPE))


_TAPE_STACK: list["GradTape"] = []

# one recorded input: (key, shape, the tensor if a parameter else None), or
# None for an input the tape does not track
_Input = tuple[int, tuple, Tensor | None] | None


class GradTape:
    """Ordered record of executed ops; as a context manager it activates recording.

    A tensor is tracked when it is a parameter or an output of this tape's
    records; one produced under another tape is a constant here. A record
    is (output key, inputs, grad_fn), one `_Input` per op input. It keeps
    parameters alive, which the model does anyway, and no other tensor: the
    arrays a backward needs are the ones its closure captured.
    """

    def __init__(self):
        self._records: list[tuple[int, tuple[_Input, ...], Callable]] = []
        self._produced: set[int] = set()

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False

    def __len__(self):
        return len(self._records)

    def tracks(self, t: Tensor) -> bool:
        return t.requires_grad or t.key in self._produced


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _recording(tensors: Sequence[Tensor]) -> bool:
    """Whether a gradient is requested: an active tape tracks any of `tensors`."""
    tape = _active_tape()
    return tape is not None and any(tape.tracks(t) for t in tensors)


def custom_op(out_data: np.ndarray, inputs: Sequence[Tensor], grad_fn: Callable) -> Tensor:
    """Create the output tensor of an op and record its backward closure.

    The op is recorded when `_recording(inputs)`. `grad_fn(out_grad)` must
    return one gradient (or None) per entry of `inputs`, aligned
    positionally; it must not write into `out_grad`, which may be shared
    with other gradients. Every array grad_fn captures stays alive until
    backward has run it, so it should capture the arrays it reads and only
    the shapes or dtypes of the rest, never a whole input `Tensor`.
    """
    out = Tensor(out_data)
    if _recording(inputs):
        tape = _active_tape()
        recorded = tuple((t.key, t.data.shape, t if t.requires_grad else None)
                         if tape.tracks(t) else None for t in inputs)
        tape._records.append((out.key, recorded, grad_fn))
        tape._produced.add(out.key)
    return out


def backward(tape: GradTape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-replay the tape from a scalar loss.

    Returns {tensor: gradient} for every requires_grad tensor that received a
    gradient, in the order they first received one. Gradients live in a map
    keyed by tensor key. Each record is popped before its closure runs and
    its output's gradient is popped with it, so a closure, the arrays it
    captured and an intermediate gradient are dropped once consumed. The
    tape is emptied, so each forward/backward pair is self-contained.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    grads = {loss.key: np.ones_like(loss.data)}
    params = {loss.key: loss} if loss.requires_grad else {}
    records = tape._records
    while records:
        out_key, inputs, grad_fn = records.pop()
        g = grads.pop(out_key, None)
        if g is None:
            continue
        for entry, gt in zip(inputs, grad_fn(g)):
            if gt is None or entry is None:
                continue
            key, shape, leaf = entry
            if np.shape(gt) != shape:
                raise ContractError(
                    f"gradient of shape {np.shape(gt)} for a tensor of shape {shape}")
            prev = grads.get(key)
            if prev is None and leaf is not None:
                params[key] = leaf
            grads[key] = gt if prev is None else prev + gt
    tape._produced.clear()
    return {t: grads[key] for key, t in params.items()}


def check_finite(t: Tensor, where: str) -> Tensor:
    if not np.all(np.isfinite(t.data)):
        raise NumericFaultError(f"non-finite values detected in {where}")
    return t


# ---------------------------------------------------------------------------
# parameters


@dataclass
class LayerParams:
    """Learnable tensors of one layer; norm fields present only for BN layers."""

    weight: Tensor | None = None
    bias: Tensor | None = None
    norm_gamma: Tensor | None = None
    norm_beta: Tensor | None = None
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None

    def tensors(self):
        """Yield (slot_name, tensor) for every learnable tensor."""
        for name in ("weight", "bias", "norm_gamma", "norm_beta"):
            t = getattr(self, name)
            if t is not None:
                yield name, t


def linear_params(rng: np.random.Generator, fan_in: int, fan_out: int, bias: bool = True,
                  norm: bool = False) -> LayerParams:
    """Linear weights U(+-1/sqrt(fan_in)), then an identity norm affine
    (`norm`) or a zero bias (`bias`).

    A normalized layer never has a bias: its batchnorm subtracts any
    per-channel constant, so the bias would get no gradient. Its beta is
    the layer's shift.
    """
    bound = 1.0 / np.sqrt(fan_in)
    w = parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(_DTYPE))
    p = LayerParams(weight=w)
    if norm:
        attach_norm(p, fan_out)
    elif bias:
        p.bias = parameter(np.zeros(fan_out, dtype=_DTYPE))
    return p


def attach_norm(p: LayerParams, channels: int) -> LayerParams:
    """Identity gamma, zero beta and fresh running statistics on a layer
    without a bias, which the norm would cancel."""
    if p.bias is not None:
        raise ContractError("a normalized layer has no bias; its beta is the shift")
    p.norm_gamma = parameter(np.ones(channels, dtype=_DTYPE))
    p.norm_beta = parameter(np.zeros(channels, dtype=_DTYPE))
    p.running_mean = np.zeros(channels, dtype=_DTYPE)
    p.running_var = np.ones(channels, dtype=_DTYPE)
    return p


def grouped_params(rng: np.random.Generator, channels: int, width: int) -> LayerParams:
    """Per-channel [channels, width] kernel for grouped_projection, width = K'·m;
    weights U(+-1/sqrt(width)), no bias."""
    bound = 1.0 / np.sqrt(width)
    w = parameter(rng.uniform(-bound, bound, size=(channels, width)).astype(_DTYPE))
    return LayerParams(weight=w)


# ---------------------------------------------------------------------------
# elementwise / structural ops


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def grad_fn(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return custom_op(out, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def grad_fn(g):
        return _unbroadcast(g, a_shape), -_unbroadcast(g, b_shape)

    return custom_op(out, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def grad_fn(g):
        return _unbroadcast(g * b_data, a_data.shape), _unbroadcast(g * a_data, b_data.shape)

    return custom_op(out, (a, b), grad_fn)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    return custom_op(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def concat_last(parts: Sequence[Tensor]) -> Tensor:
    widths = [p.data.shape[-1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=-1)
    splits = np.cumsum(widths)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=-1))

    return custom_op(out, tuple(parts), grad_fn)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop of x along its first axis, a view; the gradient is
    zero on the other rows."""
    shape = x.data.shape

    def grad_fn(g):
        gx = np.zeros(shape, dtype=g.dtype)
        gx[start:stop] = g
        return (gx,)

    return custom_op(x.data[start:stop], (x,), grad_fn)


def sum_all(x: Tensor) -> Tensor:
    shape, dtype = x.data.shape, x.data.dtype

    def grad_fn(g):
        return (np.full(shape, float(g), dtype=dtype),)

    return custom_op(np.asarray(x.data.sum()), (x,), grad_fn)


# ---------------------------------------------------------------------------
# layers


def linear(x: Tensor, p: LayerParams) -> Tensor:
    """y = x @ W + b over the last axis; x is [..., Cin], W is [Cin, Cout]."""
    w = p.weight
    cin, cout = w.data.shape
    if x.data.shape[-1] != cin:
        raise SizeError(f"linear expects last dim {cin}, got {x.data.shape[-1]}")
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, cin)
    y2 = x2 @ w.data
    if p.bias is not None:
        y2 += p.bias.data
    inputs = (x, w) if p.bias is None else (x, w, p.bias)
    w_data, has_bias = w.data, p.bias is not None

    def grad_fn(g):
        g2 = g.reshape(-1, cout)
        gx = (g2 @ w_data.T).reshape(lead + (cin,))
        gw = x2.T @ g2
        if not has_bias:
            return gx, gw
        return gx, gw, g2.sum(axis=0)

    return custom_op(y2.reshape(lead + (cout,)), inputs, grad_fn)


def batchnorm(x: Tensor, p: LayerParams) -> Tensor:
    """Train-mode per-channel normalization over all non-channel axes, then
    affine; a layer without beta shifts by 0.

    Uses batch statistics (eps 1e-5) and updates running stats with momentum
    0.1 (unbiased variance). Eval mode is folded into a linear: `linear_bn`.
    """
    gamma, beta = p.norm_gamma, _shift(p)
    gamma_data = gamma.data
    xhat, _, inv = _standardize(x.data, p)

    def grad_fn(g):
        return _standardize_grad(g, xhat, gamma_data * inv)

    y = xhat * gamma_data
    y += beta.data
    return custom_op(y, (x, gamma, beta), grad_fn)


def _standardize(x: np.ndarray, p: LayerParams,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Train-mode batch statistics of x [..., C] over all non-channel axes.

    Returns xhat = (x - mu) inv, written into `out` when given (x itself may
    be), mu and inv = 1 / sqrt(var + eps); updates p's running statistics.
    """
    c = x.shape[-1]
    n = x.size // c
    if n < 2:
        raise DegenerateStatisticsError(
            f"batchnorm train mode needs >=2 samples per channel, got {n}")
    mu = x.mean(axis=tuple(range(x.ndim - 1)))
    xhat = np.subtract(x, mu, out=out)
    x2 = xhat.reshape(-1, c)
    var = np.einsum("nc,nc->c", x2, x2) / n
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv
    _update_running(p, mu, var, n)
    return xhat, mu, inv


def _standardize_grad(g: np.ndarray, xhat: np.ndarray, scale: np.ndarray,
                      out: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """(dx, dgamma, dbeta) of y = xhat gamma + beta for the output gradient g,
    with xhat from `_standardize` and scale = gamma inv.

    dx = scale (g - mean(g) - xhat mean(g xhat)), both means taken from dbeta
    and dgamma, in one buffer: `out` when given (xhat itself may be).
    """
    c = g.shape[-1]
    n = g.size // c
    dbeta = g.sum(axis=tuple(range(g.ndim - 1)))
    dgamma = np.einsum("nc,nc->c", g.reshape(-1, c), xhat.reshape(-1, c))
    dx = np.multiply(xhat, dgamma / n, out=out)
    dx += dbeta / n
    np.subtract(g, dx, out=dx)
    dx *= scale
    return dx, dgamma, dbeta


def _update_running(p: LayerParams, mu: np.ndarray, var: np.ndarray, n: int) -> None:
    """Momentum update of p's running statistics from a batch of n samples
    per channel with mean mu and biased variance var (stored unbiased)."""
    p.running_mean = (1.0 - BN_MOMENTUM) * p.running_mean + BN_MOMENTUM * mu
    p.running_var = (1.0 - BN_MOMENTUM) * p.running_var + BN_MOMENTUM * var * n / (n - 1)


def _shift(p: LayerParams) -> Tensor:
    """The norm's beta, or a constant 0 for a layer that has none."""
    if p.norm_beta is None:
        return Tensor(np.zeros_like(p.norm_gamma.data))
    return p.norm_beta


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the gradient at 0 is 0."""
    mask = x.data > 0
    out = np.maximum(x.data, 0)  # NaN stays NaN, so check_finite still sees it

    def grad_fn(g):
        return (g * mask,)

    return custom_op(out, (x,), grad_fn)


def fold_norm(p: LayerParams) -> LayerParams:
    """The normalized linear layer p in eval mode, as one linear layer.

    Eval batchnorm is the fixed affine map y s + (beta - mu s) with
    s = gamma / sqrt(running_var + eps), so linear -> batchnorm is one linear
    layer with weight W s and bias beta - mu s (beta = 0 for a layer without
    one). Both are built from the small parameter tensors with tape ops, so
    a gradient requested in eval mode still reaches W, gamma and beta.
    """
    s = mul(p.norm_gamma, Tensor(1.0 / np.sqrt(p.running_var + BN_EPS)))
    bias = sub(_shift(p), mul(Tensor(p.running_mean), s))
    return LayerParams(weight=mul(p.weight, s), bias=bias)


def linear_bn(x: Tensor, p: LayerParams, mode: str) -> Tensor:
    """The normalized linear layer p: linear then batchnorm in train mode; in
    eval mode, with or without a tape, the one GEMM of linear(x,
    fold_norm(p)), with no normalized copy of its output.
    """
    if mode == "train":
        return batchnorm(linear(x, p), p)
    if mode == "eval":
        return linear(x, fold_norm(p))
    raise ContractError(f"batchnorm mode must be train or eval, got {mode!r}")


def relu_fresh(y: Tensor) -> Tensor:
    """relu(y) for an op output y that nothing else holds: in place when no
    tape records y, so no second array is built; else the recorded `relu`."""
    if _recording((y,)):
        return relu(y)
    np.maximum(y.data, 0, out=y.data)
    return y


def dense(x: Tensor, p: LayerParams, mode: str = "train") -> Tensor:
    """relu(linear_bn(x, p, mode)), or relu(linear(x, p)) for a layer
    without norm params.

    The ReLU works in place on the layer's fresh output, never on x, and
    only when nothing records it (`relu_fresh`); under a recording tape it
    is the recorded `relu`.
    """
    if p.norm_gamma is None:
        return relu_fresh(linear(x, p))
    return relu_fresh(linear_bn(x, p, mode))


# ---------------------------------------------------------------------------
# neighbor-structured ops


def _pad_broadcast(pad: np.ndarray, ndim: int) -> np.ndarray:
    return pad.reshape(pad.shape + (1,) * (ndim - pad.ndim))


def _check_pad(pad: np.ndarray | None, shape: tuple) -> None:
    """A pad mask must be [B,M,K] and leave every neighborhood one real entry."""
    if pad is None:
        return
    if pad.shape != shape[:3]:
        raise SizeError(f"pad mask shape {pad.shape} != neighbor shape {shape[:3]}")
    if np.any(pad.all(axis=2)):
        raise InvalidNeighborhoodError("a neighborhood contains only padded entries")


def neighbor_reduce(v: Tensor, mode: str, pad: np.ndarray | None = None) -> Tensor:
    """Reduce [B, M, K, ...] over the neighbor axis K (axis 2).

    sum excludes padded duplicate entries so each real neighbor counts once;
    max ignores padded entries and routes gradient to the first argmax.
    """
    if v.data.ndim < 4:
        raise SizeError(f"neighbor_reduce expects [B,M,K,...], got shape {v.data.shape}")
    _check_pad(pad, v.data.shape)
    shape = v.data.shape
    if mode == "sum":
        if pad is None:
            out = v.data.sum(axis=2)

            def grad_fn(g):
                return (np.broadcast_to(np.expand_dims(g, 2), shape).copy(),)

        else:
            keep = _pad_broadcast(~pad, v.data.ndim)
            out = (v.data * keep).sum(axis=2)

            def grad_fn(g):
                return (np.expand_dims(g, 2) * keep,)

    elif mode == "max":
        if pad is None:
            masked = v.data
        else:
            keep = _pad_broadcast(~pad, v.data.ndim)
            masked = np.where(keep, v.data, -np.inf)
        winner = np.argmax(masked, axis=2)
        out = np.take_along_axis(masked, np.expand_dims(winner, 2), axis=2).squeeze(2)

        def grad_fn(g):
            gv = np.zeros(shape, dtype=g.dtype)
            np.put_along_axis(gv, np.expand_dims(winner, 2), np.expand_dims(g, 2), axis=2)
            return (gv,)

    else:
        raise ContractError(f"neighbor_reduce mode must be sum or max, got {mode!r}")
    return custom_op(out, (v,), grad_fn)


def grouped_projection(v: Tensor, p: LayerParams) -> Tensor:
    """Channel-independent map of a neighbor field to scalars, [B,M,K',C,m] -> [B,M,C]:

        out[b,i,c] = sum_k,d v[b,i,k,c,d] w[c, k m + d]

    with w [C, K'·m]. A reduced field (K' = 1) has one m-vector kernel per
    channel; a field that keeps its K neighbor slots has one per channel and
    slot.
    """
    w = p.weight
    c, km = w.data.shape
    shape = v.data.shape
    if v.data.ndim != 5 or shape[3] != c or shape[2] * shape[4] != km:
        raise SizeError(f"grouped_projection expects [B,M,K',{c},m] with K'·m = {km}, "
                        f"got {shape}")
    v_data = v.data
    w3 = w.data.reshape(c, shape[2], shape[4])
    out = np.einsum("bikcd,ckd->bic", v_data, w3)

    def grad_fn(g):
        gv = np.einsum("bic,ckd->bikcd", g, w3)
        gw = np.einsum("bikcd,bic->ckd", v_data, g).reshape(c, km)
        return gv, gw

    return custom_op(out, (v, w), grad_fn)


def residual_fuse(main: Tensor, skip: Tensor) -> Tensor:
    """relu(main + skip); gradient flows to both branches where the sum > 0."""
    if main.data.shape != skip.data.shape:
        raise SizeError(
            f"residual_fuse shape mismatch {main.data.shape} vs {skip.data.shape}")
    s = main.data + skip.data
    mask = s > 0

    def grad_fn(g):
        gm = g * mask
        return gm, gm

    return custom_op(np.maximum(s, 0, out=s), (main, skip), grad_fn)


# ---------------------------------------------------------------------------
# gather / scatter


def _scatter_add_rows(flat_idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """out[i] = sum of rows[j] over j with flat_idx[j] == i; out is [n, C] in rows' dtype.

    One np.bincount over the flat element keys flat_idx * C + c.
    """
    c = rows.shape[1]
    keys = (flat_idx[:, None] * c + np.arange(c)).reshape(-1)
    out = np.bincount(keys, weights=rows.reshape(-1), minlength=n * c)
    return out.reshape(n, c).astype(rows.dtype, copy=False)


def gather(x: Tensor, idx: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """out[b, ...] = x[b, idx[b, ...], :] for x [B,N,C] and idx [B, M, ...].

    With `weights` (the shape of idx) the gathered rows are summed over the
    last index axis: out[b,...,:] = sum_j weights[b,...,j] x[b, idx[b,...,j], :].
    The weighted slots are added one at a time, j = 0, 1, ..., into one
    [B, ..., C] output, so no [B, ..., K, C] array is built. For C > 1 that
    is the order of numpy's sum over the slot axis, and the result is
    bit-equal to it. Indices and weights are constants; gradient flows to x
    only, by scatter-add, and for weights one scatter of w_j g per slot, so
    the backward builds no [B, ..., K, C] array either.
    """
    b, n, c = x.data.shape
    if idx.ndim < 2 or idx.shape[0] != b:
        raise SizeError(f"gather index of shape {idx.shape} for a batch of {b}; "
                        "expected [B, M, ...]")
    if np.any(idx < 0) or np.any(idx >= n):
        raise SizeError(f"gather index out of range [0, {n})")
    if weights is not None and weights.shape != idx.shape:
        raise SizeError(f"idx shape {idx.shape} != weights shape {weights.shape}")
    batch = np.arange(b).reshape((b,) + (1,) * (idx.ndim - 1))
    if weights is None:
        out = x.data[batch, idx]
    else:
        rows, dtype = batch[..., 0], np.result_type(x.data, weights)

        def slot(j):
            term = x.data[rows, idx[..., j]].astype(dtype, copy=False)
            term *= weights[..., j, None]
            return term

        out = slot(0)
        for j in range(1, idx.shape[-1]):
            out += slot(j)
    flat = batch * n + idx

    def grad_fn(g):
        if weights is None:
            gx = _scatter_add_rows(flat.reshape(-1), g.reshape(-1, c), b * n)
        else:
            g2 = g.reshape(-1, c)

            def scatter_slot(j):
                return _scatter_add_rows(flat[..., j].reshape(-1),
                                         g2 * weights[..., j].reshape(-1, 1), b * n)

            gx = scatter_slot(0)
            for j in range(1, flat.shape[-1]):
                gx += scatter_slot(j)
        return (gx.reshape(b, n, c),)

    return custom_op(out, (x,), grad_fn)


def unit_normalize(x: Tensor) -> Tensor:
    """Normalize the last axis to unit length: y = x / (||x|| + 1e-8)."""
    norm = np.sqrt((x.data ** 2).sum(axis=-1, keepdims=True))
    denom = norm + 1e-8
    out = x.data / denom
    x_data = x.data

    def grad_fn(g):
        dot = (g * x_data).sum(axis=-1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            second = np.where(norm > 0, dot * x_data / (norm * denom ** 2), 0.0)
        return (g / denom - second,)

    return custom_op(out, (x,), grad_fn)
