"""Composed point-set blocks: set abstraction, vector-oriented set abstraction,
feature propagation, and the aggregation modes.

Blocks are pure functions of (positions, features, config, params): the
positions travel in a `PointSetBatch`, the features as an autodiff `Tensor`
[B,N,C] beside it. Batchnorm running statistics are the only state they
update, and only in train mode. A strided block picks its centers by FPS
from `geometry.geometric_start`, so the set of centers does not depend on
point order.

Both blocks do their position algebra per point before grouping. A relative
term W (p_j - p_i) is W p~_j - W p~_i, with p~ the positions minus the mean
of their cloud (`_centered_positions`; centering keeps clouds far from the
origin exact to rounding). A one-layer SA block is then
relu(bn(max_k a_j - b_i)) with a = [f, p~] W per point and b = [0, p~] W per
center, the max becoming a min on channels whose batchnorm scale is negative
(`pooled_sa`), and VPSA mixes relu(u_j - (u_i - b_pos)) with u = f + p~ W_pos
per point.

VPSA aggregates its vector field [B,M,K,C,m] in two steps, a reduction over
the K neighbors and a projection back to scalars (`AGGREGATIONS`):

    mode            reduction   projection
    sum_groupconv   sum         grouped: kernel [C, m], then mixing [C, Cout]
    max_groupconv   max         grouped: kernel [C, m], then mixing [C, Cout]
    groupconv       none        grouped: kernel [C, K·m], then mixing [C, Cout]
    sum_fc          sum         dense: [C·m, Cout]
    max_fc          max         dense: [C·m, Cout]
    conv            none        dense: [K·C·m, Cout]

A mode without a reduction keeps the K slots, pads zeroed, and weighs each
slot on its own, so it sorts the neighbors by distance first. The VPSA tail
is one `nnops.linear_bn`: the mixing or the dense projection, each a
normalized linear layer, folded into one linear in eval mode.

Inference has its own path for the default cell (rotation encoder, m=3,
sum_groupconv): in eval mode with no gradient requested (`nnops._recording`
false for the features and the block's parameters), mixing, encoding and
aggregation run as one tiled op, `vecenc.encode_rotation_tiled`, that never
builds the neighbor tensors. Train mode, eval under a recording tape and
every other cell compose tape ops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, nnops, vecenc
from .errors import (
    ConfigError,
    ContractError,
    DegenerateStatisticsError,
    InvalidNeighborhoodError,
    SizeError,
)
from .geometry import NeighborIndex, PointSetBatch
from .nnops import LayerParams, Tensor, custom_op

# mode -> (reduction over the neighbors, None to keep the K slots; projection)
AGGREGATIONS = {
    "sum_groupconv": ("sum", "grouped"),
    "max_groupconv": ("max", "grouped"),
    "sum_fc": ("sum", "dense"),
    "max_fc": ("max", "dense"),
    "conv": (None, "dense"),
    "groupconv": (None, "grouped"),
}
AGGREGATION_MODES = tuple(AGGREGATIONS)


@dataclass
class BlockConfig:
    in_channels: int
    out_channels: int
    k_neighbors: int
    radius: float | None = None  # None selects knn grouping
    stride: int = 1
    vector_dim: int = 3
    encoder: str = "rotation"
    aggregation: str = "sum_groupconv"
    sa_layers: int = 1           # depth of the shared MLP in SA blocks

    def __post_init__(self):
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.k_neighbors < 1:
            raise ConfigError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.sa_layers < 1:
            raise ConfigError(f"sa_layers must be >= 1, got {self.sa_layers}")
        if self.aggregation not in AGGREGATION_MODES:
            raise ConfigError(
                f"aggregation must be one of {AGGREGATION_MODES}, got {self.aggregation!r}")


@dataclass
class SABlockParams:
    mlp: list  # shared MLP layers; the first consumes [f_j, p_j - p_i]


@dataclass
class VPSABlockParams:
    pos: LayerParams                 # [3, Cin]
    encoder: object                  # one of the vecenc *EncoderParams
    res: LayerParams                 # [Cin, Cout]
    proj: LayerParams | None = None  # [Cin, K'·m] grouped kernel
    # the normalized linear [Cin, Cout] mixing channels after proj, or the
    # dense projection [K'·Cin·m, Cout]; normalized before the residual
    mix: LayerParams | None = None
    fc: LayerParams | None = None


@dataclass
class FPParams:
    mlp1: LayerParams
    mlp2: LayerParams


def sa_block_params(rng: np.random.Generator, cfg: BlockConfig) -> SABlockParams:
    widths = [cfg.in_channels + 3] + [cfg.out_channels] * cfg.sa_layers
    layers = [nnops.linear_params(rng, widths[i], widths[i + 1], norm=True)
              for i in range(cfg.sa_layers)]
    return SABlockParams(mlp=layers)


def vpsa_block_params(rng: np.random.Generator, cfg: BlockConfig) -> VPSABlockParams:
    cin, cout, m = cfg.in_channels, cfg.out_channels, cfg.vector_dim
    p = VPSABlockParams(
        pos=nnops.linear_params(rng, 3, cin),
        encoder=vecenc.make_encoder_params(cfg.encoder, rng, cin, m),
        res=nnops.linear_params(rng, cin, cout),
    )
    reduction, projection = AGGREGATIONS[cfg.aggregation]
    width = m if reduction else cfg.k_neighbors * m   # K'·m
    if projection == "grouped":
        p.proj = nnops.grouped_params(rng, cin, width)
        p.mix = nnops.linear_params(rng, cin, cout, norm=True)
    else:
        p.fc = nnops.linear_params(rng, cin * width, cout, norm=True)
    return p


def fp_params(rng: np.random.Generator, coarse_channels: int, skip_channels: int,
              out_channels: int) -> FPParams:
    return FPParams(
        mlp1=nnops.linear_params(rng, coarse_channels + skip_channels, out_channels,
                                 norm=True),
        mlp2=nnops.linear_params(rng, out_channels, out_channels, norm=True))


# ---------------------------------------------------------------------------
# aggregation variants


def _mask_padded(v: Tensor, pad: np.ndarray | None) -> Tensor:
    """Zero out padded neighbor slots so fixed slot kernels ignore them; the
    backward keeps only the mask."""
    if pad is None or not pad.any():
        return v
    keep = (~pad).astype(v.data.dtype).reshape(pad.shape + (1,) * (v.ndim - 3))
    return custom_op(v.data * keep, (v,), lambda g: (g * keep,))


def aggregation_variant(v: Tensor, mode: str, p: VPSABlockParams,
                        pad: np.ndarray | None = None) -> Tensor:
    """Aggregate a vector field [B,M,K,C,m] over neighbors, per `AGGREGATIONS`.

    First the reduction: sum or max over the non-pad neighbors leaves one
    slot, K' = 1; without one the pads are zeroed and all K' = K slots stay,
    in the order given, so callers sort them canonically. Then grouped
    modes apply `nnops.grouped_projection` with p.proj [C, K'·m] and return
    [B,M,C]; dense modes return the field flattened over slots, channels and
    components, [B,M,K'·C·m]. The VPSA tail maps either to Cout with the
    normalized linear p.mix or p.fc (`nnops.linear_bn`).
    """
    if mode not in AGGREGATIONS:
        raise ConfigError(
            f"aggregation must be one of {AGGREGATION_MODES}, got {mode!r}")
    reduction, projection = AGGREGATIONS[mode]
    b, mm, _, c, m = v.data.shape
    if reduction is None:
        v = _mask_padded(v, pad)
    else:
        v = nnops.reshape(nnops.neighbor_reduce(v, reduction, pad), (b, mm, 1, c, m))
    if projection == "grouped":
        return nnops.grouped_projection(v, p.proj)
    return nnops.reshape(v, (b, mm, -1))


# ---------------------------------------------------------------------------
# blocks


def _select_centers(x: PointSetBatch, stride: int) -> np.ndarray:
    """Every point at stride 1; else ceil(N / stride) points by FPS from
    `geometry.geometric_start`, which does not depend on point order, so
    neither does the set of centers."""
    b, n = x.batch_size, x.num_points
    if stride == 1:
        return np.broadcast_to(np.arange(n, dtype=np.int64), (b, n)).copy()
    m = math.ceil(n / stride)
    return geometry.farthest_point_sample(x, m, geometry.geometric_start(x))


def group(x: PointSetBatch, cfg: BlockConfig) -> NeighborIndex:
    """A block's centers (`_select_centers`) and their neighborhoods: knn, or
    ball query when cfg.radius is set."""
    if cfg.k_neighbors > x.num_points:
        raise SizeError(
            f"k={cfg.k_neighbors} exceeds cloud size {x.num_points}")
    centers = _select_centers(x, cfg.stride)
    if cfg.radius is None:
        return geometry.knn(centers, x, cfg.k_neighbors)
    return geometry.ball_query(centers, x, cfg.radius, cfg.k_neighbors)


def _check_features(x: PointSetBatch, f: Tensor) -> None:
    if f.data.ndim != 3 or f.data.shape[:2] != x.positions.shape[:2]:
        raise SizeError(f"features {f.data.shape} do not match positions "
                        f"{x.positions.shape}")


def sa_block(x: PointSetBatch, f: Tensor, cfg: BlockConfig, p: SABlockParams,
             mode: str = "train") -> tuple[PointSetBatch, Tensor]:
    """Set abstraction: subsample, group, shared MLP on [f_j, p_j - p_i], max-reduce.

    With a one-layer MLP (`sa_layers == 1`) the block is `pooled_sa`: the
    linear layer runs per point and per center before grouping and the max
    is taken before the batchnorm. Deeper MLPs compose gather, concat,
    dense layers and a pad-masked max over the [B,M,K,C] neighbor tensor
    (`_sa_composed`). Returns the centers' positions and their features.
    """
    _check_features(x, f)
    nbr = group(x, cfg)
    if len(p.mlp) == 1:
        out = pooled_sa(x.positions, f, nbr, p.mlp[0], mode)
    else:
        out = _sa_composed(x.positions, f, nbr, p.mlp, mode)
    batch = np.arange(x.batch_size)[:, None]
    return PointSetBatch(positions=x.positions[batch, nbr.centers]), out


def _sa_composed(positions: np.ndarray, f: Tensor, nbr: NeighborIndex, layers: list,
                 mode: str) -> Tensor:
    """max_k over non-pad slots of mlp([f_j, p_j - p_i]), op by op on the tape."""
    nbr_feat = nnops.gather(f, nbr.indices)
    rel_pos = nnops.input_tensor(geometry.relative_positions(positions, nbr))
    h = nnops.concat_last([nbr_feat, rel_pos])
    for layer in layers:
        h = nnops.dense(h, layer, mode)
    pad = nbr.pad_mask if nbr.pad_mask.any() else None
    return nnops.neighbor_reduce(h, "max", pad)


def _centered_positions(positions: np.ndarray) -> np.ndarray:
    """p - mean of its cloud, [B,N,3] float64: the per-point position term.

    Relative positions p_j - p_i equal differences of centered ones, which
    stay small when the cloud sits far from the origin.
    """
    pos = positions.astype(np.float64)
    return pos - pos.mean(axis=1, keepdims=True)


def pooled_sa(positions: np.ndarray, f: Tensor, nbr: NeighborIndex, p: LayerParams,
              mode: str = "train") -> Tensor:
    """One-layer set abstraction relu(bn(max_k z)) as one op, [B,M,C].

    z[i,k] = [f_j, p_j - p_i] W for j = idx[i,k] is split into per-point
    and per-center terms, a = [f, p~] W over the N points and b = [0, p~_i] W
    over the M centers (p~ the centered positions), so z[i,k] = a_j - b_i.
    Batchnorm is monotone per channel, so the block's output

        max_k relu(bn(z[i,k])) = relu(bn(max_k a_j - b_i))   where gamma > 0
                               = relu(bn(min_k a_j - b_i))   where gamma < 0

    and a channel with gamma == 0 is constant, relu(beta); it takes slot 0.
    Ties go to the first slot, the rule of `nnops.neighbor_reduce`.

    Pads must repeat slot 0, as `geometry.ball_query` makes them: then the
    max and min over all K slots equal those over the real ones, and the
    first extreme slot is never a pad. Train-mode statistics cover all
    B*M*K rows, pads included, like batchnorm on the grouped tensor: the
    mean and variance come from a and b through the number of times each
    point is gathered (`np.bincount`) and the gathered sum of center
    positions per point, after centering a and b on their means.

    The [B,M,K,C] block of a values is gathered once, channel-major, for
    the first arg-extreme of each channel and dropped; backward scatters the
    selected entries plus per-point statistic terms. Gradients flow to f, W,
    gamma and beta; positions are constants.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"batchnorm mode must be train or eval, got {mode!r}")
    w, gamma, beta = p.weight, p.norm_gamma, p.norm_beta
    data = f.data
    b, n, cin = data.shape
    if w.data.shape[0] != cin + 3:
        raise SizeError(f"expected {w.data.shape[0] - 3} input channels, got {cin}")
    c = w.data.shape[1]
    idx, pad = nbr.indices, nbr.pad_mask
    m, k = idx.shape[1:]
    if pad[..., 0].any() or np.any(idx[pad] != np.broadcast_to(idx[..., :1], idx.shape)[pad]):
        raise InvalidNeighborhoodError("padded neighbor slots must repeat a real slot 0")
    dtype = data.dtype
    rows = (idx + (np.arange(b) * n)[:, None, None]).reshape(b * m, k)
    pt = _centered_positions(positions).astype(dtype).reshape(b * n, 3)
    q = pt[(nbr.centers + (np.arange(b) * n)[:, None]).reshape(-1)]   # [BM, 3]
    x2 = np.concatenate([data.reshape(b * n, cin), pt], axis=1)
    wp = w.data[cin:]
    a = x2 @ w.data                  # [BN, C]
    bc = q @ wp                      # [BM, C]

    # first extreme slot per channel: argmax over the slots of sign(gamma) * a,
    # gathered channel-major so that the K slots are contiguous; gamma == 0
    # channels see all zeros, so slot 0 wins
    signed = np.multiply(a.T, np.sign(gamma.data)[:, None], order="C")   # [C, BN]
    slot = np.take(signed, rows, axis=1).argmax(axis=2)                  # [C, BM]
    sel = np.take_along_axis(rows, slot.T, axis=1)                       # [BM, C]
    cols = np.arange(c)
    s = a[sel, cols] - bc            # selected z, [BM, C]

    r = b * m * k
    if mode == "train":
        if r < 2:
            raise DegenerateStatisticsError(
                f"batchnorm train mode needs >=2 samples per channel, got {r}")
        cnt = np.bincount(rows.reshape(-1), minlength=b * n).astype(dtype)[:, None]
        mu_a = (cnt[:, 0] @ a) / r
        mu_b = bc.mean(axis=0)
        ac = a - mu_a
        bcc = bc - mu_b
        # per point j: the centered center positions gathered with it, and
        # t_j = sum over the rows (i, k) that gather j of b_i - mu_b
        pos_sum = nnops._scatter_add_rows(rows.reshape(-1), np.repeat(q, k, axis=0), b * n)
        t = pos_sum @ wp
        t -= cnt * mu_b
        u = cnt * ac
        u -= t                        # sum over the rows that gather j of z - mu
        # r var = sum_i,k (a_j - b_i - mu)^2 = sum_j ac_j (u_j - t_j) + K sum_i bcc_i^2
        var = (np.einsum("nc,nc->c", ac, u - t) + k * np.einsum("mc,mc->c", bcc, bcc)) / r
        var = np.maximum(var, 0.0)
        mu = mu_a - mu_b
        nnops._update_running(p, mu, var, r)
    else:
        mu, var = p.running_mean, p.running_var
    inv = 1.0 / np.sqrt(var + nnops.BN_EPS)
    xs = (s - mu) * inv
    y = xs * gamma.data
    y += beta.data
    mask = y > 0
    out = np.maximum(y, 0, out=y)  # NaN stays NaN, so check_finite still sees it
    gamma_data, w_in = gamma.data, w.data[:cin]

    def grad_fn(g):
        gy = g.reshape(b * m, c) * mask
        dbeta = gy.sum(axis=0)
        dgamma = np.einsum("mc,mc->c", gy, xs)
        scale = gamma_data * inv
        gs = gy * scale               # d loss / d selected z
        da = np.bincount((sel * c + cols).reshape(-1), weights=gs.reshape(-1),
                         minlength=b * n * c).reshape(b * n, c).astype(dtype, copy=False)
        dwp = q.T @ -gs               # b_i = [0, p~_i] W reaches W's position rows
        if mode == "train":
            # each row's share of the mean and variance terms of the batchnorm
            # backward, summed per point for a and per center for b; b's
            # neighbor sums of ac are taken per point through pos_sum
            c0 = scale * dbeta / r
            c2 = scale * inv * dgamma / r
            da -= cnt * c0
            da -= u * c2
            dwp += k * (q.sum(axis=0)[:, None] * c0 - (q.T @ bcc) * c2)
            dwp += (pos_sum.T @ ac) * c2
        dw = x2.T @ da
        dw[cin:] += dwp
        df = (da @ w_in.T).reshape(b, n, cin)
        return df, dw, dgamma, dbeta

    return custom_op(out.reshape(b, m, c), (f, w, gamma, beta), grad_fn)


def vpsa_block(x: PointSetBatch, f: Tensor, cfg: BlockConfig, p: VPSABlockParams,
               mode: str = "train",
               nbr: NeighborIndex | None = None) -> tuple[PointSetBatch, Tensor]:
    """Vector-oriented set abstraction.

    The mixed relative feature relu(f_j - f_i + W_pos (p_j - p_i) + b_pos)
    is formed from one per-point term, u = f + p~ W_pos with p~ the centered
    positions, as relu(u_j - (u_i - b_pos)); at stride 1 the centers are
    every point and u_i is u itself. The mixed features are lifted to
    per-channel m-vectors, aggregated over the neighborhood, projected back
    to channel scalars, mixed across channels, normalized, and fused with a
    linear residual of the center feature through a ReLU; channel mixing
    and normalization are one `nnops.linear_bn`. The default cell
    (rotation encoder, m=3, sum_groupconv) runs encoding, sum and projection
    as one fused op: `vecenc.encode_rotation_tiled`, which also does the
    mixing, in eval mode when no gradient is requested, and
    `vecenc.encode_rotation_projected` otherwise. Every other cell composes
    `vecenc.encode` and `aggregation_variant`. Returns the centers'
    positions and their features.

    `nbr` is `group(x, cfg)` when the caller already holds it: stride-1
    blocks with the same k and radius on the same points share it.
    """
    _check_features(x, f)
    b, n, cin = f.data.shape
    if nbr is None:
        nbr = group(x, cfg)
    elif cfg.stride != 1 or not np.array_equal(
            nbr.centers, np.broadcast_to(np.arange(n), (b, n))):
        raise ConfigError("a given neighborhood needs a stride-1 block and one "
                          "center per point")
    if cin != cfg.in_channels:
        raise SizeError(f"expected {cfg.in_channels} input channels, got {cin}")
    centers = nbr.centers
    if AGGREGATIONS[cfg.aggregation][0] is None:
        nbr = geometry.sort_neighbors_by_distance(x.positions, nbr)

    pos_term = nnops.linear(nnops.input_tensor(_centered_positions(x.positions)),
                            LayerParams(weight=p.pos.weight))
    u = nnops.add(f, pos_term)
    if cfg.stride == 1:
        ctr_feat, ctr_u = f, u
    else:
        ctr_feat, ctr_u = nnops.gather(f, centers), nnops.gather(u, centers)
    ctr_u = nnops.sub(ctr_u, p.pos.bias)
    pad = nbr.pad_mask if nbr.pad_mask.any() else None
    default_cell = (cfg.encoder, cfg.vector_dim, cfg.aggregation) == (
        "rotation", 3, "sum_groupconv")
    if default_cell and mode == "eval" and not nnops._recording(
            [f] + [t for layer in (p.pos, p.encoder.zx, p.encoder.angles, p.proj)
                   for _, t in layer.tensors()]):
        main = vecenc.encode_rotation_tiled(u, ctr_u, nbr.indices, pad, p.encoder, p.proj)
    else:
        ctr_u = nnops.reshape(ctr_u, (b, centers.shape[1], 1, cin))
        fp = nnops.relu(nnops.sub(nnops.gather(u, nbr.indices), ctr_u))
        if default_cell:
            main = vecenc.encode_rotation_projected(fp, p.encoder, p.proj, pad, mode)
        else:
            field = vecenc.encode(cfg.encoder, fp, p.encoder, cfg.vector_dim, mode)
            main = aggregation_variant(field, cfg.aggregation, p, pad)
    main = nnops.linear_bn(main, p.mix or p.fc, mode)
    out = nnops.residual_fuse(main, nnops.linear(ctr_feat, p.res))
    batch = np.arange(x.batch_size)[:, None]
    return PointSetBatch(positions=x.positions[batch, centers]), out


def feature_propagate(coarse: PointSetBatch, coarse_f: Tensor,
                      fine_positions: np.ndarray, skip_f: Tensor, p: FPParams,
                      mode: str = "train") -> Tensor:
    """Interpolate coarse features to fine positions and fuse with skip features.

    Inverse-squared-distance weights over the 3 nearest coarse points
    (eps 1e-8, normalized), concatenated with the skip features, then a
    two-layer shared MLP.
    """
    _check_features(coarse, coarse_f)
    num = min(3, coarse.num_points)
    idx = geometry.knn_points(fine_positions, coarse, num)
    batch = np.arange(coarse.batch_size)[:, None, None]
    d2 = geometry._sq_dist(fine_positions[:, :, None], coarse.positions[batch, idx])
    w = 1.0 / (d2 + 1e-8)
    w = w / w.sum(axis=2, keepdims=True)
    interp = nnops.gather(coarse_f, idx, w.astype(coarse_f.data.dtype))
    h = nnops.concat_last([interp, skip_f])
    h = nnops.dense(h, p.mlp1, mode)
    return nnops.dense(h, p.mlp2, mode)
