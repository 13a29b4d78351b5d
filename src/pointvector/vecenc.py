"""Scalar-to-vector feature encoders.

Each channel of a mixed relative feature is lifted to an m-dimensional vector
(m in {1, 2, 3}). The rotation encoder predicts a modulus and up to two
independent angles and applies the closed-form composition of an x-axis and a
z-axis rotation; the mlp and direction encoders are the ablation variants.

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
from .errors import ConfigError, SizeError
from .nnops import LayerParams, Tensor, custom_op


@dataclass
class RotationInputs:
    """Modulus pre-image and rotation angles, each [..., C]; angles are radians."""

    zx: Tensor
    alpha: Tensor | None = None
    beta: Tensor | None = None


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


def rotate_field3(zx: Tensor, alpha: Tensor, beta: Tensor) -> Tensor:
    """Rotate the lift (0, zx, 0) by alpha and beta: [..., C] -> [..., C, 3].

    out = (-zx sin(a) sin(b), zx cos(a) sin(b), zx cos(b)); `oracle.rotate3d`
    is the reference.
    """
    z = zx.data
    sa, ca = _sincos(alpha.data)
    sb, cb = _sincos(beta.data)
    out = np.stack([-z * sa * sb, z * ca * sb, z * cb], axis=-1)

    def grad_fn(g):
        g0, g1, g2 = g[..., 0], g[..., 1], g[..., 2]
        dz = -g0 * sa * sb + g1 * ca * sb + g2 * cb
        da = z * (-g0 * ca * sb - g1 * sa * sb)
        db = z * (-g0 * sa * cb + g1 * ca * cb - g2 * sb)
        return dz, da, db

    return custom_op(out, (zx, alpha, beta), grad_fn)


def rotate_field2(zx: Tensor, alpha: Tensor) -> Tensor:
    """Single-angle rotation (-zx sin(a), zx cos(a)): [..., C] -> [..., C, 2]."""
    z = zx.data
    sa, ca = _sincos(alpha.data)
    out = np.stack([-z * sa, z * ca], axis=-1)

    def grad_fn(g):
        g0, g1 = g[..., 0], g[..., 1]
        return -g0 * sa + g1 * ca, z * (-g0 * ca - g1 * sa)

    return custom_op(out, (zx, alpha), grad_fn)


def rotate_project3(zx: Tensor, ang: Tensor, p: LayerParams,
                    pad: np.ndarray | None = None) -> Tensor:
    """rotate_field3, summed over non-pad neighbors, then grouped_projection, as one op.

    zx is [B,M,K,C], ang the angle tensor [B,M,K,2C] holding alpha | beta,
    p the [C,3] grouped kernel w with bias b; returns [B,M,C]:

        out[b,i,c] = sum_k keep * zx * (sin(beta) (w1 cos(alpha) - w0 sin(alpha))
                                        + w2 cos(beta)) + b[c]

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
    # one pass over alpha | beta as a [2,B,M,K,C] view, so that the four
    # factors come out as contiguous [B,M,K,C] arrays
    halves = np.moveaxis(ang.data.reshape(z.shape[:-1] + (2, c)), -2, 0)
    (sa, sb), (ca, cb) = _sincos(halves)
    # t = w1 cos(alpha) - w0 sin(alpha); u = sin(beta) t + w2 cos(beta) = d out / d zx
    t = ca * w1
    t -= sa * w0
    u = sb * t
    u += cb * w2
    out = np.einsum("bikc,bikc->bic", z, u)
    if p.bias is not None:
        out += p.bias.data
    inputs = (zx, ang, w) if p.bias is None else (zx, ang, w, p.bias)

    def grad_fn(g):
        g4 = g[:, :, None, :]
        dz = u * g4
        if keep is not None:
            dz *= keep
        gz = z * g4                      # keep is already folded into z
        gzsb = gz * sb
        dang = np.empty(ang.data.shape, dtype=dz.dtype)
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
        if p.bias is None:
            return dz, dang, gw
        return dz, dang, gw, g.sum(axis=(0, 1))

    return custom_op(out, inputs, grad_fn)


def _angles(fp: Tensor, p: RotationEncoderParams, mode: str) -> Tensor:
    """All m-1 angles per channel, [..., (m-1)C]: relu(bn(linear(fp)))."""
    return nnops.relu(nnops.batchnorm(nnops.linear(fp, p.angles), p.angles, mode))


def rotation_inputs(fp: Tensor, p: RotationEncoderParams, m: int,
                    mode: str = "train") -> RotationInputs:
    """Predict modulus and angles from the mixed feature per the angle pipeline."""
    c = fp.shape[-1]
    zx = nnops.linear(fp, p.zx)
    if m == 1:
        return RotationInputs(zx=zx)
    ang = _angles(fp, p, mode)
    if m == 2:
        return RotationInputs(zx=zx, alpha=ang)
    alpha = nnops.slice_last(ang, 0, c)
    beta = nnops.slice_last(ang, c, 2 * c)
    return RotationInputs(zx=zx, alpha=alpha, beta=beta)


def encode_rotation(fp: Tensor, p: RotationEncoderParams, m: int,
                    mode: str = "train") -> Tensor:
    """Rotation-based scalar-to-vector expansion, [..., C] -> [..., C, m].

    m=3 applies rotate_field3, m=2 rotate_field2, and m=1 is the identity
    expansion (the plain scalar path, bit for bit).
    """
    if m not in (1, 2, 3):
        raise ConfigError(f"vector dimension must be 1, 2, or 3, got {m}")
    inputs = rotation_inputs(fp, p, m, mode)
    if m == 1:
        return nnops.reshape(inputs.zx, inputs.zx.shape + (1,))
    if m == 2:
        return rotate_field2(inputs.zx, inputs.alpha)
    return rotate_field3(inputs.zx, inputs.alpha, inputs.beta)


def encode_rotation_projected(fp: Tensor, p: RotationEncoderParams, proj: LayerParams,
                              pad: np.ndarray | None = None, mode: str = "train") -> Tensor:
    """The default VPSA cell: rotation encoding with m=3, summed over the
    neighbors and projected per channel by `proj`, through rotate_project3.

    Equals grouped_projection(neighbor_reduce(encode_rotation(fp, p, 3), "sum",
    pad), proj) without building the vector field.
    """
    zx = nnops.linear(fp, p.zx)
    return rotate_project3(zx, _angles(fp, p, mode), proj, pad)


def encode_mlp(fp: Tensor, p: MLPEncoderParams, m: int, mode: str = "train") -> Tensor:
    """Two-layer map C -> C*m, reshaped to per-channel m-vectors."""
    if m not in (1, 2, 3):
        raise ConfigError(f"vector dimension must be 1, 2, or 3, got {m}")
    c = fp.shape[-1]
    h = nnops.relu(nnops.batchnorm(nnops.linear(fp, p.hidden), p.hidden, mode))
    return nnops.reshape(nnops.linear(h, p.out), fp.shape[:-1] + (c, m))


def encode_direction(fp: Tensor, p: DirectionEncoderParams, m: int,
                     mode: str = "train") -> Tensor:
    """Modulus from a linear map times a unit direction from a small MLP."""
    if m not in (1, 2, 3):
        raise ConfigError(f"vector dimension must be 1, 2, or 3, got {m}")
    c = fp.shape[-1]
    modulus = nnops.linear(fp, p.modulus)
    h = nnops.relu(nnops.batchnorm(nnops.linear(fp, p.dir_hidden), p.dir_hidden, mode))
    raw = nnops.reshape(nnops.linear(h, p.dir_out), fp.shape[:-1] + (c, m))
    unit = nnops.unit_normalize(raw, eps=1e-8)
    return nnops.mul(nnops.reshape(modulus, modulus.shape + (1,)), unit)


def rotation_encoder_params(rng: np.random.Generator, channels: int,
                            m: int) -> RotationEncoderParams:
    zx = nnops.linear_params(rng, channels, channels, bias=True)
    angles = None
    if m >= 2:
        angles = nnops.linear_params(rng, channels, (m - 1) * channels,
                                     bias=False, norm=True)
    return RotationEncoderParams(zx=zx, angles=angles)


def mlp_encoder_params(rng: np.random.Generator, channels: int, m: int) -> MLPEncoderParams:
    hidden = nnops.linear_params(rng, channels, channels, bias=False, norm=True)
    out = nnops.linear_params(rng, channels, channels * m, bias=True)
    return MLPEncoderParams(hidden=hidden, out=out)


def direction_encoder_params(rng: np.random.Generator, channels: int,
                             m: int) -> DirectionEncoderParams:
    modulus = nnops.linear_params(rng, channels, channels, bias=True)
    dir_hidden = nnops.linear_params(rng, channels, channels, bias=False, norm=True)
    dir_out = nnops.linear_params(rng, channels, channels * m, bias=True)
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
