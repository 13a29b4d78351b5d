"""Scalar-to-vector feature encoders.

Each channel of a mixed relative feature is lifted to an m-dimensional vector
(m in {1, 2, 3}). The rotation encoder predicts a modulus zx [..., C] and m-1
angles per channel, packed as one tensor [..., (m-1)C] that holds alpha for
all channels, then beta for all channels, from one `nnops.dense` layer
relu(bn(linear(fp))). It applies the closed-form composition of an x-axis
and a z-axis rotation: `rotate_field` builds the field, and
`rotate_project3`, for the default VPSA cell, sums and projects it without
building it. The mlp and direction encoders are the ablation variants.

An encoder's field reaches a batchnorm through the neighbor reduction and
the linear aggregation. A bias that only adds a constant per channel and
component is cancelled there: it never learns, or with ball-query pads only
as a term in the neighbor count. The zx bias has that form at m=1 and the
mlp encoder's output bias always, so neither exists. At m >= 2 the zx bias
is scaled by angle-dependent factors, and the direction encoder's biases by
the unit direction, so they learn.

The default VPSA cell (rotation, m=3, sum_groupconv) has two paths:

    encode_rotation_projected   training, and eval under a recording tape:
                                tape ops over the [B,M,K,C] neighbor tensors
    encode_rotation_tiled       eval with no gradient requested: mixing,
                                encoding, sum and projection in one op over
                                cache-sized tiles of centers, no backward

Both take d out / d zx from `_projection_factor`.

The rotation ops take sine and cosine from the half-angle identity

    sin x = 2h / (1 + h^2),  cos x = (1 - h^2) / (1 + h^2),  h = tan(x/2),

so one tangent pass replaces a sine and a cosine pass (`_sincos`); numpy
vectorizes float64 tan, but not sin and cos, on CPUs with AVX-512.
`oracle.rotate3d` and `oracle.rotate2d` keep the direct sin/cos formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nnops
from .errors import ConfigError, ContractError, SizeError
from .nnops import LayerParams, Tensor, custom_op


# bytes of one tile's [zx | angles] rows in encode_rotation_tiled
_TILE_BYTES = 1 << 19


@dataclass
class RotationEncoderParams:
    zx: LayerParams
    angles: LayerParams | None  # absent for m=1


@dataclass
class MLPEncoderParams:
    hidden: LayerParams
    out: LayerParams


@dataclass
class DirectionEncoderParams:
    modulus: LayerParams
    dir_hidden: LayerParams
    dir_out: LayerParams


def _sincos(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sin x, cos x) as C-ordered arrays in the dtype of x, from h = tan(x/2)
    and q = 2/(1+h^2).

    sin x = h q and cos x = q - 1, each within a few eps of the direct
    functions; NaN and +-inf give NaN in both.
    """
    h = np.multiply(x, 0.5, order="C")
    np.tan(h, out=h)
    q = np.square(h)
    q += 1
    np.divide(2, q, out=q)
    h *= q
    q -= 1
    return h, q


def _angle_sincos(ang: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Sines and cosines of packed angles [..., (m-1)C] as [m-1, ..., C] arrays.

    One pass over the angles viewed as [m-1, ..., C], so that each angle's
    factors come out contiguous: sin alpha = s[0], sin beta = s[1].
    """
    return _sincos(np.moveaxis(ang.reshape(ang.shape[:-1] + (-1, c)), -2, 0))


def rotate_field(zx: Tensor, ang: Tensor) -> Tensor:
    """Rotate the lift of zx [..., C] by the packed angles ang [..., (m-1)C]:
    [..., C] -> [..., C, m], m in {2, 3} read from the width of ang.

    m=2: (-zx sin(a), zx cos(a)); m=3: (-zx sin(a) sin(b), zx cos(a) sin(b),
    zx cos(b)). `oracle.rotate2d` and `oracle.rotate3d` are the references.
    """
    z = zx.data
    c = z.shape[-1]
    m = ang.data.shape[-1] // c + 1
    if m not in (2, 3) or ang.data.shape != z.shape[:-1] + ((m - 1) * c,):
        raise SizeError(f"rotate_field expects angles [..., C] or [..., 2C] for zx "
                        f"{z.shape}, got {ang.data.shape}")
    sines, cosines = _angle_sincos(ang.data, c)
    sa, ca = sines[0], cosines[0]
    if m == 2:
        out = np.stack([-z * sa, z * ca], axis=-1)
    else:
        sb, cb = sines[1], cosines[1]
        out = np.stack([-z * sa * sb, z * ca * sb, z * cb], axis=-1)
    ang_shape = ang.data.shape

    def grad_fn(g):
        if m == 2:
            g0, g1 = g[..., 0], g[..., 1]
            return -g0 * sa + g1 * ca, z * (-g0 * ca - g1 * sa)
        g0, g1, g2 = g[..., 0], g[..., 1], g[..., 2]
        dz = -g0 * sa * sb + g1 * ca * sb + g2 * cb
        dang = np.empty(ang_shape, dtype=dz.dtype)
        dang[..., :c] = z * (-g0 * ca * sb - g1 * sa * sb)
        dang[..., c:] = z * (-g0 * sa * cb + g1 * ca * cb - g2 * sb)
        return dz, dang

    return custom_op(out, (zx, ang), grad_fn)


def _projection_factor(sines: np.ndarray, cosines: np.ndarray,
                       w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, u) of the m=3 rotation projected by the [C,3] kernel w, from the
    [2, ..., C] sines and cosines of alpha and beta:

        t = w1 cos(alpha) - w0 sin(alpha),  u = sin(beta) t + w2 cos(beta),

    so that u = d out / d zx and the projected vector is zx u.
    """
    (sa, sb), (ca, cb) = sines, cosines
    t = ca * w[:, 1]
    t -= sa * w[:, 0]
    u = sb * t
    u += cb * w[:, 2]
    return t, u


def rotate_project3(zx: Tensor, ang: Tensor, p: LayerParams,
                    pad: np.ndarray | None = None) -> Tensor:
    """rotate_field with m=3, summed over non-pad neighbors, then
    grouped_projection, as one op.

    zx is [B,M,K,C], ang the packed angles [B,M,K,2C] holding alpha | beta,
    p the [C,3] grouped kernel w; returns [B,M,C]:

        out[b,i,c] = sum_k keep * zx * (sin(beta) (w1 cos(alpha) - w0 sin(alpha))
                                        + w2 cos(beta))

    The [B,M,K,C,3] vector field is never built.
    """
    w = p.weight
    c = w.data.shape[0]
    z = zx.data
    if (w.data.shape != (c, 3) or z.ndim != 4 or z.shape[-1] != c
            or ang.data.shape != z.shape[:-1] + (2 * c,)):
        raise SizeError(
            f"rotate_project3 expects zx [B,M,K,{c}] and angles [B,M,K,{2 * c}], "
            f"got {z.shape} and {ang.data.shape}")
    nnops._check_pad(pad, z.shape)
    keep = None
    if pad is not None:
        keep = (~pad).astype(z.dtype)[..., None]
        z = z * keep
    w0, w1, w2 = w.data[:, 0], w.data[:, 1], w.data[:, 2]
    sines, cosines = _angle_sincos(ang.data, c)
    (sa, sb), (ca, cb) = sines, cosines
    t, u = _projection_factor(sines, cosines, w.data)
    out = np.einsum("bikc,bikc->bic", z, u)
    ang_shape = ang.data.shape

    def grad_fn(g):
        g4 = g[:, :, None, :]
        dz = u * g4
        if keep is not None:
            dz *= keep
        gz = z * g4                      # keep is already folded into z
        gzsb = gz * sb
        dang = np.empty(ang_shape, dtype=dz.dtype)
        # d alpha = -g zx sin(beta) (w0 cos(alpha) + w1 sin(alpha))
        da = ca * -w0
        da -= sa * w1
        np.multiply(da, gzsb, out=dang[..., :c])
        # d beta = g zx (cos(beta) t - w2 sin(beta))
        db = cb * t
        db -= sb * w2
        np.multiply(db, gz, out=dang[..., c:])
        gw = np.stack([-np.einsum("bikc,bikc->c", gzsb, sa),
                       np.einsum("bikc,bikc->c", gzsb, ca),
                       np.einsum("bikc,bikc->c", gz, cb)], axis=-1)
        return dz, dang, gw

    return custom_op(out, (zx, ang, w), grad_fn)


def encode_rotation(fp: Tensor, p: RotationEncoderParams, m: int,
                    mode: str = "train") -> Tensor:
    """Rotation-based scalar-to-vector expansion, [..., C] -> [..., C, m].

    zx = linear(fp); m=1 is the identity expansion of zx (the plain scalar
    path, bit for bit), m=2 and 3 apply rotate_field with the packed angles.
    """
    if m not in (1, 2, 3):
        raise ConfigError(f"vector dimension must be 1, 2, or 3, got {m}")
    zx = nnops.linear(fp, p.zx)
    if m == 1:
        return nnops.reshape(zx, zx.shape + (1,))
    return rotate_field(zx, nnops.dense(fp, p.angles, mode))


def encode_rotation_projected(fp: Tensor, p: RotationEncoderParams, proj: LayerParams,
                              pad: np.ndarray | None = None, mode: str = "train") -> Tensor:
    """The default VPSA cell: rotation encoding with m=3, summed over the
    neighbors and projected per channel by `proj`, through rotate_project3.

    Equals grouped_projection of the neighbor sum of encode_rotation(fp, p, 3)
    (`oracle.unfused_rotate_project`) without building the vector field.
    """
    zx = nnops.linear(fp, p.zx)
    return rotate_project3(zx, nnops.dense(fp, p.angles, mode), proj, pad)


def encode_rotation_tiled(u: Tensor, ctr: Tensor, idx: np.ndarray, pad: np.ndarray | None,
                          p: RotationEncoderParams, proj: LayerParams) -> Tensor:
    """The default VPSA cell's mixing, encoding, neighbor sum and projection
    for inference, as one op over tiles of centers; [B,M,C].

    u is the per-point term [B,N,C] and ctr the center term u_i - b_pos
    [B,M,C], so neighbor k of center i mixes to fp = relu(u_j - ctr_i) with
    j = idx[b,i,k]. The output equals encode_rotation_projected(fp, p, proj,
    pad, "eval"). Each tile gathers its centers' K neighbors of u, runs one
    GEMM against [W_zx | folded angle weight] (`nnops.fold_norm`), takes
    the angles' relu and their sines and cosines, and sums zx u
    (`_projection_factor`) over the non-pad neighbors, so no [B,M,K,C]
    tensor is built. A tile holds _TILE_BYTES / (K 3C itemsize) centers,
    at least one. The output keeps the dtype of u.

    There is no backward: the op raises ContractError when an active tape
    would record its inputs.
    """
    params = [t for layer in (p.zx, p.angles, proj) for _, t in layer.tensors()]
    if nnops._recording([u, ctr] + params):
        raise ContractError("encode_rotation_tiled has no backward; a recording tape "
                            "needs encode_rotation_projected")
    b, n, c = u.data.shape
    m, k = idx.shape[1:]
    if ctr.data.shape != (b, m, c) or idx.shape[0] != b or proj.weight.data.shape != (c, 3):
        raise SizeError(f"encode_rotation_tiled expects u [B,N,C], ctr [B,M,C], idx [B,M,K] "
                        f"and a [C,3] kernel, got {u.data.shape}, {ctr.data.shape}, "
                        f"{idx.shape} and {proj.weight.data.shape}")
    nnops._check_pad(pad, idx.shape)
    ang = nnops.fold_norm(p.angles)
    w = np.concatenate([p.zx.weight.data, ang.weight.data], axis=1)   # [C, 3C]
    bias = np.concatenate([p.zx.bias.data, ang.bias.data])
    points = u.data.reshape(b * n, c)
    centers = ctr.data.reshape(b * m, c)
    rows = (idx + (np.arange(b) * n)[:, None, None]).reshape(b * m, k)
    keep = None if pad is None else (~pad).reshape(b * m, k, 1)
    out = np.empty((b * m, c), dtype=u.data.dtype)
    tile = max(1, _TILE_BYTES // (k * 3 * c * u.data.itemsize))
    for lo in range(0, b * m, tile):
        hi = min(lo + tile, b * m)
        fp = points[rows[lo:hi]]                  # [T, K, C]
        fp -= centers[lo:hi, None]
        np.maximum(fp, 0, out=fp)
        h = fp.reshape(-1, c) @ w
        h += bias
        zx, ang_rows = h[:, :c], h[:, c:]
        np.maximum(ang_rows, 0, out=ang_rows)    # NaN stays NaN, so check_finite sees it
        _, vec = _projection_factor(*_angle_sincos(ang_rows, c), proj.weight.data)
        vec *= zx                                 # each neighbor's projected vector
        vec = vec.reshape(hi - lo, k, c)
        if keep is not None:
            vec *= keep[lo:hi]
        vec.sum(axis=1, out=out[lo:hi])
    return Tensor(out.reshape(b, m, c))


def encode_mlp(fp: Tensor, p: MLPEncoderParams, m: int, mode: str = "train") -> Tensor:
    """Two-layer map C -> C*m, reshaped to per-channel m-vectors."""
    if m not in (1, 2, 3):
        raise ConfigError(f"vector dimension must be 1, 2, or 3, got {m}")
    c = fp.shape[-1]
    h = nnops.dense(fp, p.hidden, mode)
    return nnops.reshape(nnops.linear(h, p.out), fp.shape[:-1] + (c, m))


def encode_direction(fp: Tensor, p: DirectionEncoderParams, m: int,
                     mode: str = "train") -> Tensor:
    """Modulus from a linear map times a unit direction from a small MLP."""
    if m not in (1, 2, 3):
        raise ConfigError(f"vector dimension must be 1, 2, or 3, got {m}")
    c = fp.shape[-1]
    modulus = nnops.linear(fp, p.modulus)
    h = nnops.dense(fp, p.dir_hidden, mode)
    raw = nnops.reshape(nnops.linear(h, p.dir_out), fp.shape[:-1] + (c, m))
    unit = nnops.unit_normalize(raw, eps=1e-8)
    return nnops.mul(nnops.reshape(modulus, modulus.shape + (1,)), unit)


def rotation_encoder_params(rng: np.random.Generator, channels: int,
                            m: int) -> RotationEncoderParams:
    """zx [C, C], with a bias for m >= 2 only, and the normalized angle
    layer [C, (m-1)C] for m >= 2."""
    zx = nnops.linear_params(rng, channels, channels, bias=m >= 2)
    angles = None
    if m >= 2:
        angles = nnops.linear_params(rng, channels, (m - 1) * channels, norm=True)
    return RotationEncoderParams(zx=zx, angles=angles)


def mlp_encoder_params(rng: np.random.Generator, channels: int, m: int) -> MLPEncoderParams:
    """A normalized hidden layer [C, C] and an output layer [C, Cm] without a bias."""
    hidden = nnops.linear_params(rng, channels, channels, norm=True)
    out = nnops.linear_params(rng, channels, channels * m, bias=False)
    return MLPEncoderParams(hidden=hidden, out=out)


def direction_encoder_params(rng: np.random.Generator, channels: int,
                             m: int) -> DirectionEncoderParams:
    """A modulus layer [C, C] and a direction MLP, normalized [C, C] then [C, Cm]."""
    modulus = nnops.linear_params(rng, channels, channels)
    dir_hidden = nnops.linear_params(rng, channels, channels, norm=True)
    dir_out = nnops.linear_params(rng, channels, channels * m)
    return DirectionEncoderParams(modulus=modulus, dir_hidden=dir_hidden, dir_out=dir_out)


ENCODERS = {
    "rotation": (encode_rotation, rotation_encoder_params),
    "mlp": (encode_mlp, mlp_encoder_params),
    "direction": (encode_direction, direction_encoder_params),
}


def make_encoder_params(name: str, rng: np.random.Generator, channels: int, m: int):
    if name not in ENCODERS:
        raise ConfigError(f"unknown encoder {name!r}; choose from {sorted(ENCODERS)}")
    return ENCODERS[name][1](rng, channels, m)


def encode(name: str, fp: Tensor, params, m: int, mode: str = "train") -> Tensor:
    """The vector field [..., C, m] of encoder `name`; m is its last dimension."""
    if name not in ENCODERS:
        raise ConfigError(f"unknown encoder {name!r}; choose from {sorted(ENCODERS)}")
    return ENCODERS[name][0](fp, params, m, mode)
