"""Scalar-to-vector feature encoders.

Each channel of a mixed relative feature is lifted to an m-dimensional vector
(m in {1, 2, 3}). The rotation encoder predicts a modulus zx [..., C] and m-1
angles per channel, packed as one tensor [..., (m-1)C] that holds alpha for
all channels, then beta for all channels, from one `nnops.dense` layer
relu(bn(linear(fp))). It applies the closed-form composition of an x-axis
and a z-axis rotation: `rotate_field` builds the field. The mlp and
direction encoders are the ablation variants.

An encoder's field reaches a batchnorm through the neighbor reduction and
the linear aggregation. A bias that only adds a constant per channel and
component is cancelled there: it never learns, or with ball-query pads only
as a term in the neighbor count. The zx bias has that form at m=1 and the
mlp encoder's output bias always, so neither exists. At m >= 2 the zx bias
is scaled by angle-dependent factors, and the direction encoder's biases by
the unit direction, so they learn.

The default VPSA cell (rotation, m=3, sum_groupconv) runs its mixing
relu(u_j - ctr_i), encoding, neighbor sum and [C,3] projection as one op,
`rotate_cell`, in train and eval mode, with or without a tape: it takes u,
ctr, idx, pad, the encoder, the kernel and the mode, never builds the
[B,M,K,C,3] field, builds its factors per tile of centers, and builds the
factors its backward reads only when a gradient is requested.

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


# bytes of one tile's [zx | angles] rows in rotate_cell, in either mode
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


def _zx_factor(sa: np.ndarray, ca: np.ndarray, sb: np.ndarray, cb: np.ndarray,
               w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, u) of the m=3 rotation projected by the [C,3] kernel w, from the
    sines and cosines of alpha and beta [..., C],

        t = w1 cos(alpha) - w0 sin(alpha),  u = sin(beta) t + w2 cos(beta),

    so that the projected vector is zx u: u = d out / d zx. The inputs are
    left as they are.
    """
    t = ca * w[:, 1]
    tmp = sa * w[:, 0]
    t -= tmp
    u = sb * t
    np.multiply(cb, w[:, 2], out=tmp)
    u += tmp
    return t, u


def _check_cell(u: Tensor, ctr: Tensor, m: int, proj: LayerParams) -> None:
    """Shapes of the default cell's u [B,N,C], ctr [B,M,C] and [C,3] kernel."""
    b, _, c = u.data.shape
    if ctr.data.shape != (b, m, c) or proj.weight.data.shape != (c, 3):
        raise SizeError(f"the default VPSA cell expects u [B,N,C], ctr [B,{m},C] and a [C,3] "
                        f"kernel, got {u.shape}, {ctr.shape} and {proj.weight.shape}")


def _mixed(u: np.ndarray, ctr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """fp = relu(u_j - ctr_i) for j = idx[b,i,k], [B,M,K,C], in one buffer."""
    fp = u[np.arange(u.shape[0])[:, None, None], idx]
    fp -= ctr[:, :, None]
    return np.maximum(fp, 0, out=fp)   # NaN stays NaN, so check_finite sees it


def rotate_cell(u: Tensor, ctr: Tensor, idx: np.ndarray, pad: np.ndarray | None,
                p: RotationEncoderParams, proj: LayerParams, mode: str = "train") -> Tensor:
    """The default VPSA cell's mixing, encoding, neighbor sum and projection
    as one op over tiles of centers, in train or eval mode; [B,M,C].

    u is the per-point term [B,N,C] and ctr the center term u_i - b_pos
    [B,M,C], so neighbor k of center i mixes to fp = relu(u_j - ctr_i) with
    j = idx[b,i,k], and

        zx = fp W_zx + b_zx,   [alpha | beta] = relu(bn(fp W_ang)),
        out[b,i,c] = sum_k keep * zx * (sin(beta) t + w2 cos(beta)),
        t = w1 cos(alpha) - w0 sin(alpha),

    with w the [C,3] kernel of proj and keep 0 on pad slots. The
    [B,M,K,C,3] vector field is never built. In train mode the angle
    batchnorm takes batch statistics over all B*M*K rows, pads included,
    and updates the running statistics, as `nnops.batchnorm` does, so zx
    and the standardized angles x-hat [B,M,K,2C] are built for all rows
    first. In eval mode the angle layer is `nnops.fold_norm`'s linear, whose
    tape ops carry a gradient on to W_ang, gamma and beta, and each tile
    gathers its own fp and runs one GEMM against [W_zx | folded W_ang], so
    without a gradient no [B,M,K,C] array is built. A tile holds
    _TILE_BYTES / (K 3C itemsize) centers, at least one; it takes its rows'
    angles, sines and cosines and d out / d zx from `_zx_factor`, and
    writes its rows of the output.

    When a gradient is requested (`nnops._recording` of the inputs), each
    tile also writes its rows of three neighbor arrays of factors,

        d out / d zx    = sin(beta) t + w2 cos(beta), pad mask folded in
        d out / d alpha = zx sin(beta) (-w0 cos(alpha) - w1 sin(alpha))
        d out / d beta  = zx (cos(beta) t - w2 sin(beta)),

    the last two times the angle ReLU's mask, and of the [3,B,M,C] neighbor
    sums s = [-sum_k zx sin(beta) sin(alpha), sum_k zx sin(beta) cos(alpha),
    sum_k zx cos(beta)], so that d out[b,i,c] / d w[c,j] = s[j,b,i,c]; the
    op keeps them and, in train mode, x-hat. It does not keep fp, which
    both linears read: backward gathers it again from u, ctr and idx, sums
    the two linears' input gradients in one buffer, and scatters it to u
    and, summed over the neighbors, to ctr. Each array is freed once read.
    Otherwise the op returns a plain `Tensor`. `oracle.unfused_rotate_cell`
    is the op-by-op reference.
    """
    nnops._check_mode(mode)
    b, n, c = u.data.shape
    nnops._check_neighborhood(idx, pad, b, n)
    _check_cell(u, ctr, idx.shape[1], proj)
    m, k = idx.shape[1:]
    ud, cd = u.data, ctr.data
    w_zx = p.zx.weight.data
    w = proj.weight.data
    w0, w1, w2 = w[:, 0], w[:, 1], w[:, 2]
    keep = None if pad is None else (~pad).reshape(b * m, k, 1)
    if mode == "train":
        gamma, beta = p.angles.norm_gamma, nnops._shift(p.angles)
        angles = (p.angles.weight, gamma, beta)
        g_data = gamma.data
        fp = _mixed(ud, cd, idx).reshape(-1, c)
        z = fp @ w_zx
        z += p.zx.bias.data
        z = z.reshape(b * m, k, c)
        pre = (fp @ p.angles.weight.data).reshape(b, m, k, 2 * c)
        del fp
        xhat, _, inv = nnops._standardize(pre, p.angles, out=pre)
        if keep is not None:
            z *= keep
        rows = xhat.reshape(b * m, k, 2 * c)
    else:
        folded = nnops.fold_norm(p.angles)
        angles = (folded.weight, folded.bias)
        w_cat = np.concatenate([w_zx, folded.weight.data], axis=1)   # [C, 3C]
        b_cat = np.concatenate([p.zx.bias.data, folded.bias.data])
        points, centers = ud.reshape(b * n, c), cd.reshape(b * m, c)
        nbr_rows = (idx + (np.arange(b) * n)[:, None, None]).reshape(b * m, k)
        xhat = None
    w_ang = angles[0].data
    inputs = (u, ctr, p.zx.weight, p.zx.bias) + angles + (proj.weight,)
    record = nnops._recording(inputs)
    dtype = np.result_type(ud, w_zx)
    if record:
        du, da, db = (np.empty((b * m, k, c), dtype) for _ in range(3))
        s = np.empty((3, b * m, c), dtype)
    out = np.empty((b * m, c), dtype)
    tile = max(1, _TILE_BYTES // (k * 3 * c * dtype.itemsize))
    for lo in range(0, b * m, tile):
        hi = min(lo + tile, b * m)
        if mode == "train":
            zt = z[lo:hi]
            y = rows[lo:hi] * g_data
            y += beta.data
        else:
            fp = points[nbr_rows[lo:hi]]              # [T, K, C]
            fp -= centers[lo:hi, None]
            np.maximum(fp, 0, out=fp)
            h = (fp.reshape(-1, c) @ w_cat).reshape(hi - lo, k, 3 * c)
            h += b_cat
            zt, y = h[..., :c], h[..., c:]
            if keep is not None:
                zt *= keep[lo:hi]
        on = y > 0 if record else None
        np.maximum(y, 0, out=y)                       # NaN stays NaN, so check_finite sees it
        (sa, sb), (ca, cb) = _angle_sincos(y, c)
        t, dut = _zx_factor(sa, ca, sb, cb, w)
        np.einsum("tkc,tkc->tc", zt, dut, out=out[lo:hi])
        if not record:
            continue
        np.einsum("tkc,tkc->tc", zt, cb, out=s[2, lo:hi])
        np.einsum("tkc,tkc,tkc->tc", zt, sb, sa, out=s[0, lo:hi])
        np.negative(s[0, lo:hi], out=s[0, lo:hi])
        np.einsum("tkc,tkc,tkc->tc", zt, sb, ca, out=s[1, lo:hi])
        dat = np.multiply(ca, -w0, out=da[lo:hi])
        sa *= w1
        dat -= sa
        dat *= sb
        dat *= zt
        dat *= on[..., :c]
        dbt = np.multiply(t, cb, out=db[lo:hi])
        sb *= w2
        dbt -= sb
        dbt *= zt
        dbt *= on[..., c:]
        np.multiply(dut, 1 if keep is None else keep[lo:hi], out=du[lo:hi])
    out = out.reshape(b, m, c)
    if not record:
        return Tensor(out)
    du, da, db = (a.reshape(b, m, k, c) for a in (du, da, db))
    s = s.reshape(3, b, m, c)
    held = [du, da, db, xhat]   # grad_fn takes them out, to free each once read

    def grad_fn(g):
        du, da, db, xhat = held
        held.clear()
        g4 = g[:, :, None, :]
        dy = np.empty((b, m, k, 2 * c), dtype=dtype)
        np.multiply(da, g4, out=dy[..., :c])
        np.multiply(db, g4, out=dy[..., c:])
        del da, db
        dz = np.multiply(du, g4, out=du).reshape(-1, c)
        if xhat is None:
            dx = dy.reshape(-1, 2 * c)
            dangles = (dx.sum(axis=0),)                       # the folded bias
        else:
            dx, dgamma, dbeta = nnops._standardize_grad(dy, xhat, g_data * inv, out=xhat)
            dx = dx.reshape(-1, 2 * c)
            dangles = (dgamma, dbeta)
        del dy, xhat
        fp = _mixed(ud, cd, idx).reshape(-1, c)
        on = fp > 0
        dw_zx, db_zx, dw_ang = fp.T @ dz, dz.sum(axis=0), fp.T @ dx
        dfp = np.matmul(dz, w_zx.T, out=fp)   # fp is dead: its buffer takes dfp
        del dz
        dfp += dx @ w_ang.T
        del dx
        dfp *= on
        rows = idx + (np.arange(b) * n)[:, None, None]
        du_pts = nnops._scatter_add_rows(rows.reshape(-1), dfp, b * n)
        return (du_pts.reshape(b, n, c), -dfp.reshape(b, m, k, c).sum(axis=2), dw_zx,
                db_zx, dw_ang) + dangles + (np.einsum("bic,jbic->cj", g, s),)

    return custom_op(out, inputs, grad_fn)


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
    unit = nnops.unit_normalize(raw)
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
