"""Differentiable dense-array primitives with hand-written reverse-mode gradients.

A `Tensor` wraps a numpy array; executing ops inside a `GradTape` context
records backward closures in execution order. `backward(tape, loss)` replays
them in exact reverse order and returns a {parameter: gradient} map.

Conventions:
    - neighbor-structured arrays are [B, M, K, ...] and reduce over axis 2
    - channel axis is always last
    - indices are plain int numpy arrays, never Tensors
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
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


def set_default_dtype(dtype) -> None:
    """Set the float dtype used for newly created tensors ('single' runs)."""
    global _DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractError(f"unsupported default dtype {dtype}")
    _DTYPE = dtype.type


def default_dtype():
    return _DTYPE


@contextmanager
def precision(kind: str):
    """Temporarily switch default precision; kind is 'single' or 'double'."""
    mapping = {"single": np.float32, "double": np.float64}
    if kind not in mapping:
        raise ContractError(f"precision must be single or double, got {kind!r}")
    saved = _DTYPE
    set_default_dtype(mapping[kind])
    try:
        yield
    finally:
        set_default_dtype(saved)


class Tensor:
    """Dense float array plus gradient slot.

    `requires_grad` marks leaf parameters. `_node` is set when the tensor was
    produced by a recorded op, so gradients flow through it during backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, np.ndarray) and data.dtype.kind == "f":
            arr = data
        else:
            arr = np.asarray(data, dtype=_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = False

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


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def input_tensor(arr) -> Tensor:
    """Wrap input data as a constant tensor in the current default dtype."""
    return Tensor(np.asarray(arr, dtype=_DTYPE))


_TAPE_STACK: list["GradTape"] = []


class GradTape:
    """Ordered record of executed ops; context manager activates recording."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False

    def __len__(self):
        return len(self._records)

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], grad_fn: Callable):
        self._records.append((out, inputs, grad_fn))
        out._node = True


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t._node


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def custom_op(out_data: np.ndarray, inputs: Sequence[Tensor], grad_fn: Callable) -> Tensor:
    """Create the output tensor of an op and record its backward closure.

    `grad_fn(out_grad)` must return one gradient (or None) per entry of
    `inputs`, aligned positionally.
    """
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(_tracked(t) for t in inputs):
        tape._record(out, tuple(inputs), grad_fn)
    return out


def backward(tape: GradTape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-replay the tape from a scalar loss.

    Returns {tensor: gradient} for every requires_grad tensor that received a
    gradient. All grad slots touched during the sweep are cleared afterwards,
    and the tape is emptied, so each forward/backward pair is self-contained.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    touched = [loss]
    loss.grad = np.ones_like(loss.data)
    for out, inputs, grad_fn in reversed(tape._records):
        g = out.grad
        if g is None:
            continue
        grads = grad_fn(g)
        for t, gt in zip(inputs, grads):
            if gt is None or not _tracked(t):
                continue
            if np.shape(gt) != t.data.shape:
                raise ContractError(
                    f"gradient of shape {np.shape(gt)} for a tensor of shape "
                    f"{t.data.shape}")
            if t.grad is None:
                touched.append(t)
            _accumulate(t, gt)
    result = {t: t.grad for t in touched if t.requires_grad and t.grad is not None}
    for out, _, _ in tape._records:
        out.grad = None
        out._node = False
    for t in touched:
        if t not in result:
            t.grad = None
    for t in result:
        t.grad = None
    tape._records.clear()
    return result


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
    """Linear weights U(+-1/sqrt(fan_in)), zero bias, identity norm affine."""
    bound = 1.0 / np.sqrt(fan_in)
    w = parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(_DTYPE))
    p = LayerParams(weight=w)
    if bias:
        p.bias = parameter(np.zeros(fan_out, dtype=_DTYPE))
    if norm:
        attach_norm(p, fan_out)
    return p


def attach_norm(p: LayerParams, channels: int) -> LayerParams:
    p.norm_gamma = parameter(np.ones(channels, dtype=_DTYPE))
    p.norm_beta = parameter(np.zeros(channels, dtype=_DTYPE))
    p.running_mean = np.zeros(channels, dtype=_DTYPE)
    p.running_var = np.ones(channels, dtype=_DTYPE)
    return p


def grouped_params(rng: np.random.Generator, channels: int, m: int, bias: bool = True) -> LayerParams:
    """Per-channel [channels, m] projection kernel for grouped_projection."""
    bound = 1.0 / np.sqrt(m)
    w = parameter(rng.uniform(-bound, bound, size=(channels, m)).astype(_DTYPE))
    p = LayerParams(weight=w)
    if bias:
        p.bias = parameter(np.zeros(channels, dtype=_DTYPE))
    return p


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

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return custom_op(out, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def grad_fn(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

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


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    out = x.data[..., start:stop]
    shape = x.data.shape

    def grad_fn(g):
        gx = np.zeros(shape, dtype=g.dtype)
        gx[..., start:stop] = g
        return (gx,)

    return custom_op(out, (x,), grad_fn)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    shape = x.data.shape

    def grad_fn(g):
        return (np.full(shape, float(g) / n, dtype=x.data.dtype),)

    return custom_op(np.asarray(x.data.mean()), (x,), grad_fn)


def sum_all(x: Tensor) -> Tensor:
    shape = x.data.shape

    def grad_fn(g):
        return (np.full(shape, float(g), dtype=x.data.dtype),)

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
        y2 = y2 + p.bias.data
    inputs = (x, w) if p.bias is None else (x, w, p.bias)
    w_data = w.data

    def grad_fn(g):
        g2 = g.reshape(-1, cout)
        gx = (g2 @ w_data.T).reshape(lead + (cin,))
        gw = x2.T @ g2
        if p.bias is None:
            return gx, gw
        return gx, gw, g2.sum(axis=0)

    return custom_op(y2.reshape(lead + (cout,)), inputs, grad_fn)


def batchnorm(x: Tensor, p: LayerParams, mode: str = "train") -> Tensor:
    """Per-channel normalization over all non-channel axes, then affine.

    Train mode uses batch statistics (eps 1e-5) and updates running stats with
    momentum 0.1 (unbiased variance); eval mode uses the running stats.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"batchnorm mode must be train or eval, got {mode!r}")
    gamma, beta = p.norm_gamma, p.norm_beta
    c = x.data.shape[-1]
    axes = tuple(range(x.data.ndim - 1))
    n = x.data.size // c
    if mode == "train":
        if n < 2:
            raise DegenerateStatisticsError(
                f"batchnorm train mode needs >=2 samples per channel, got {n}")
        mu = x.data.mean(axis=axes)
        xhat = x.data - mu
        x2 = xhat.reshape(-1, c)
        var = np.einsum("nc,nc->c", x2, x2) / n
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv
        p.running_mean = (1.0 - BN_MOMENTUM) * p.running_mean + BN_MOMENTUM * mu
        p.running_var = (1.0 - BN_MOMENTUM) * p.running_var + BN_MOMENTUM * var * n / (n - 1)

        def grad_fn(g):
            dbeta = g.sum(axis=axes)
            dgamma = np.einsum("nc,nc->c", g.reshape(-1, c), x2)
            # dx = gamma inv (g - mean(g) - xhat mean(g xhat)), both means
            # taken from dbeta and dgamma, in one output buffer
            dx = xhat * (dgamma / n)
            dx += dbeta / n
            np.subtract(g, dx, out=dx)
            dx *= gamma.data * inv
            return dx, dgamma, dbeta

    else:
        inv = 1.0 / np.sqrt(p.running_var + BN_EPS)
        xhat = (x.data - p.running_mean) * inv

        def grad_fn(g):
            dgamma = (g * xhat).sum(axis=axes)
            dbeta = g.sum(axis=axes)
            return g * (gamma.data * inv), dgamma, dbeta

    y = xhat * gamma.data
    y += beta.data
    return custom_op(y, (x, gamma, beta), grad_fn)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); the gradient at 0 is 0."""
    mask = x.data > 0
    out = np.maximum(x.data, 0)  # NaN stays NaN, so check_finite still sees it

    def grad_fn(g):
        return (g * mask,)

    return custom_op(out, (x,), grad_fn)


def dense(x: Tensor, p: LayerParams, mode: str = "train") -> Tensor:
    """linear -> batchnorm (if the layer has norm params) -> relu."""
    y = linear(x, p)
    if p.norm_gamma is not None:
        y = batchnorm(y, p, mode)
    return relu(y)


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
    """Channel-independent vector-to-scalar map: out[..,c] = sum_d v[..,c,d] w[c,d] + b[c]."""
    w = p.weight
    c, m = w.data.shape
    if v.data.ndim < 2 or v.data.shape[-2:] != (c, m):
        raise SizeError(
            f"grouped_projection expects trailing dims ({c},{m}), got {v.data.shape}")
    out = np.einsum("...cd,cd->...c", v.data, w.data)
    if p.bias is not None:
        out = out + p.bias.data
    inputs = (v, w) if p.bias is None else (v, w, p.bias)
    v_data, w_data = v.data, w.data
    lead_axes = tuple(range(v.data.ndim - 2))

    def grad_fn(g):
        gv = np.expand_dims(g, -1) * w_data
        gw = (v_data * np.expand_dims(g, -1)).sum(axis=lead_axes)
        if p.bias is None:
            return gv, gw
        return gv, gw, g.sum(axis=tuple(range(g.ndim - 1)))

    return custom_op(out, inputs, grad_fn)


def residual_fuse(main: Tensor, skip: Tensor) -> Tensor:
    """relu(main + skip); gradient flows to both branches where the sum > 0."""
    if main.data.shape != skip.data.shape:
        raise SizeError(
            f"residual_fuse shape mismatch {main.data.shape} vs {skip.data.shape}")
    s = main.data + skip.data
    mask = s > 0

    def grad_fn(g):
        gm = g * mask
        return gm, gm.copy()

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
    Indices and weights are constants; gradient flows to x only, by
    scatter-add.
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
    out = x.data[batch, idx]
    if weights is not None:
        out = (out * weights[..., None]).sum(axis=-2)
    flat = (batch * n + idx).reshape(-1)

    def grad_fn(g):
        if weights is not None:
            g = np.expand_dims(g, -2) * weights[..., None]
        return (_scatter_add_rows(flat, g.reshape(-1, c), b * n).reshape(b, n, c),)

    return custom_op(out, (x,), grad_fn)


def unit_normalize(x: Tensor, eps: float = 1e-8) -> Tensor:
    """Normalize the last axis to unit length: y = x / (||x|| + eps)."""
    norm = np.sqrt((x.data ** 2).sum(axis=-1, keepdims=True))
    denom = norm + eps
    out = x.data / denom
    x_data = x.data

    def grad_fn(g):
        dot = (g * x_data).sum(axis=-1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            second = np.where(norm > 0, dot * x_data / (norm * denom ** 2), 0.0)
        return (g / denom - second,)

    return custom_op(out, (x,), grad_fn)
