"""Composed point-set blocks: set abstraction, vector-oriented set abstraction,
feature propagation, and the aggregation modes.

Blocks are pure functions of (positions, features, config, params): the
positions travel in a `PointSetBatch`, the features as an autodiff `Tensor`
[B,N,C] beside it. Batchnorm running statistics are the only state they
update, and only in train mode. A strided block picks its centers by FPS
from `geometry.geometric_start`, so the set of centers does not depend on
point order.

Both blocks do their position algebra per point before grouping, and the
decoder does the same with its features: `feature_propagate` applies its
first linear on the coarse points and interpolates its output. A relative
term W (p_j - p_i) is W p~_j - W p~_i, with p~ the positions minus the mean
of their cloud (`_centered_positions`; centering keeps clouds far from the
origin exact to rounding). An SA block's first linear is then a_j - b_i
with a = [f, p~] W per point and b = [0, p~] W per center, and the block,
of any depth, is one op (`pooled_sa`) that takes the max before the last
batchnorm, a min on channels whose batchnorm scale is negative: a one-layer
block is relu(bn(max_k a_j - b_i)). A center is a position, not
necessarily a point of the cloud: the classification head's global SA is
the same op with one center at the centroid, so b = 0. VPSA mixes
relu(u_j - (u_i - b_pos)) with u = f + p~ W_pos per point.

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

The default cell (rotation encoder, m=3, sum_groupconv) runs mixing,
encoding and aggregation as one op in every mode, `vecenc.rotate_cell`.
Every other cell composes tape ops: gather, mixing, `vecenc.encode` and
`aggregation_variant`.
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

    The block is one `pooled_sa` op for a shared MLP of any depth: the
    first linear runs per point and per center before grouping, and the
    max is taken before the last batchnorm. Returns the centers' positions
    and their features.
    """
    _check_features(x, f)
    nbr = group(x, cfg)
    ctr = x.positions[np.arange(x.batch_size)[:, None], nbr.centers]
    out = pooled_sa(x.positions, ctr, f, nbr.indices, nbr.pad_mask, p.mlp, mode)
    return PointSetBatch(positions=ctr), out


def _centered_positions(positions: np.ndarray,
                        cloud: np.ndarray | None = None) -> np.ndarray:
    """positions [B,M,3] minus the mean of their cloud [B,N,3], float64:
    the per-point position term. The cloud is `positions` themselves unless
    given, as it is for centers.

    Relative positions p_j - p_i equal differences of centered ones, which
    stay small when the cloud sits far from the origin.
    """
    pos = positions.astype(np.float64)
    ref = pos if cloud is None else cloud.astype(np.float64)
    return pos - ref.mean(axis=1, keepdims=True)


def _hidden_xhat(a: np.ndarray, bc: np.ndarray, rows: np.ndarray, layers: list,
                 stats: list, depth: int) -> np.ndarray:
    """The normalized pre-activation x-hat [BM,K,C] of layer `depth` of a
    shared MLP, from the first layer's per-point and per-center terms.

    Layer 0's input is z = a_j - b_i gathered by rows; each later layer
    applies the previous layer's affine and ReLU, then its linear. Layer i
    normalizes with stats[i] = (mu, inv) when given; otherwise with its
    batch statistics (`nnops._standardize`, which updates the running
    statistics), appended to stats. A rebuild from the same stats runs the
    same steps on the same arrays, so it equals the first pass bit for bit.
    """
    x = a[rows]
    x -= bc[:, None]
    for i, layer in enumerate(layers[:depth + 1]):
        if i:
            prev = layers[i - 1]
            x *= prev.norm_gamma.data
            x += nnops._shift(prev).data
            np.maximum(x, 0, out=x)
            x = (x.reshape(-1, x.shape[-1]) @ layer.weight.data).reshape(x.shape[:2] + (-1,))
        if i < len(stats):
            mu, inv = stats[i]
            x -= mu
            x *= inv
        else:
            x, mu, inv = nnops._standardize(x, layer, out=x)
            stats.append((mu, inv))
    return x


def pooled_sa(positions: np.ndarray, ctr_positions: np.ndarray, f: Tensor,
              idx: np.ndarray, pad: np.ndarray, layers: list,
              mode: str = "train") -> Tensor:
    """Set abstraction max_k mlp([f_j, p_j - c_i]) as one op, [B,M,C], for a
    shared MLP `layers` of any depth, each layer relu(bn(linear)).

    positions [B,N,3] and f [B,N,Cin] are the points, ctr_positions
    [B,M,3] the centers c_i, and idx [B,M,K] the points of each center's
    neighborhood, with pad [B,M,K] marking padded slots. A center is a
    position, not necessarily a point of the cloud: an SA block's centers
    are points, the classification head's one center is the centroid.

    z[i,k] = [f_j, p_j - c_i] W for j = idx[i,k], the first layer's
    linear, is split into per-point and per-center terms, a = [f, p~] W
    over the N points and b = [0, c~_i] W over the M centers (p~ and c~
    centered on the mean of the points), so z[i,k] = a_j - b_i. Batchnorm
    is monotone per channel, so with x the last layer's linear output the
    block's output

        max_k relu(bn(x[i,k])) = relu(bn(max_k x[i,k]))   where gamma > 0
                               = relu(bn(min_k x[i,k]))   where gamma < 0

    and a channel with gamma == 0 is constant, relu(beta); it takes slot 0.
    A layer without beta shifts by 0 (`nnops._shift`). Each channel takes
    the first arg-max of sign(gamma) x, the first slot on ties, the rule of
    `nnops.neighbor_reduce`. With one layer x = z, and the arg-max is taken
    over the gathered a values; with more, the [B,M,K,C] block of z is
    gathered once and the earlier layers run on it (`_hidden_xhat`), and
    the arg-max is taken over the last layer's x-hat.

    Pads must repeat slot 0, as `geometry.ball_query` makes them: then the
    max and min over all K slots equal those over the real ones, and the
    first extreme slot is never a pad. Train-mode statistics cover all
    B*M*K rows, pads included, like batchnorm on the grouped tensor. With
    one layer the mean and variance come from a and b through the number
    of times each point is gathered (`np.bincount`) and the gathered sum of
    center positions per point, after centering a and b on their means.

    For backward a one-layer block keeps no [B,M,K,C] array: it scatters
    the selected entries plus per-point statistic terms. A deeper one
    keeps the last layer's x-hat, the selected slots and each layer's
    (mean, inv); backward rebuilds each earlier layer's x-hat and ReLU
    output from a and b, one layer at a time, and scatters the first
    layer's gradient to the points and, summed over the neighbors, to the
    centers. Gradients flow to f and to every layer's W, gamma and beta;
    positions are constants.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"batchnorm mode must be train or eval, got {mode!r}")
    w, last = layers[0].weight, layers[-1]
    shifts = [nnops._shift(layer) for layer in layers]
    gamma, beta = last.norm_gamma, shifts[-1]
    data = f.data
    b, n, cin = data.shape
    if w.data.shape[0] != cin + 3:
        raise SizeError(f"expected {w.data.shape[0] - 3} input channels, got {cin}")
    c = gamma.data.shape[0]
    m, k = idx.shape[1:]
    if ctr_positions.shape != (b, m, 3):
        raise SizeError(f"center positions {ctr_positions.shape} do not match "
                        f"neighborhoods {idx.shape}")
    if pad[..., 0].any() or np.any(idx[pad] != np.broadcast_to(idx[..., :1], idx.shape)[pad]):
        raise InvalidNeighborhoodError("padded neighbor slots must repeat a real slot 0")
    dtype = data.dtype
    rows = (idx + (np.arange(b) * n)[:, None, None]).reshape(b * m, k)
    pt = _centered_positions(positions).astype(dtype).reshape(b * n, 3)
    q = _centered_positions(ctr_positions, positions).astype(dtype).reshape(b * m, 3)
    x2 = np.concatenate([data.reshape(b * n, cin), pt], axis=1)
    wp = w.data[cin:]
    a = x2 @ w.data                  # [BN, C]
    bc = q @ wp                      # [BM, C]
    cols = np.arange(c)
    r = b * m * k

    if len(layers) > 1:
        stats = [] if mode == "train" else [
            (p.running_mean, 1.0 / np.sqrt(p.running_var + nnops.BN_EPS)) for p in layers]
        xhat = _hidden_xhat(a, bc, rows, layers, stats, len(layers) - 1)
        inv = stats[-1][1]
        signed = xhat * np.sign(gamma.data)
        slot = signed.argmax(axis=1)                                     # [BM, C]
        del signed
        xs = np.take_along_axis(xhat, slot[:, None], axis=1)[:, 0]      # selected x-hat
        held = [xhat]   # z_grad takes it out, to reuse its buffer

        def z_grad(gs, dgamma, dbeta, scale):
            """d loss / d a, d loss / d W's position rows through b, and the
            gradients of every later layer's W and every earlier layer's
            gamma and beta, rebuilding one layer at a time."""
            dx, = held
            held.clear()
            # the last batchnorm's backward over all rows, in x-hat's buffer:
            # its statistic terms everywhere, gs at the selected slots
            if mode == "train":
                dx *= -scale * dgamma / r
                dx -= scale * dbeta / r
            else:
                dx[...] = 0
            dx[np.arange(b * m)[:, None], slot, cols] += gs
            weights, norms = [None] * len(layers), [None] * len(layers)
            for i in range(len(layers) - 1, 0, -1):
                prev = layers[i - 1]
                xh = _hidden_xhat(a, bc, rows, layers, stats, i - 1)
                h = xh * prev.norm_gamma.data
                h += nnops._shift(prev).data
                on = h > 0
                np.maximum(h, 0, out=h)
                h2, dx2 = h.reshape(-1, h.shape[-1]), dx.reshape(-1, dx.shape[-1])
                weights[i] = h2.T @ dx2
                np.matmul(dx2, layers[i].weight.data.T, out=h2)   # h is dead: d loss / d h
                del dx, dx2
                h *= on
                scale_i = prev.norm_gamma.data * stats[i - 1][1]
                if mode == "train":
                    dx, dgam, dbet = nnops._standardize_grad(h, xh, scale_i, out=xh)
                else:
                    dgam = np.einsum("rc,rc->c", h2, xh.reshape(h2.shape))
                    dbet = h2.sum(axis=0)
                    dx = np.multiply(h, scale_i, out=xh)
                norms[i - 1] = (dgam, dbet)
                del h, h2, xh
            # z = a_j - b_i: scatter to the points, and sum over the neighbors for b
            da = nnops._scatter_add_rows(rows.reshape(-1), dx.reshape(r, -1), b * n)
            return da, q.T @ -dx.sum(axis=1), weights, norms
    else:
        # first extreme slot per channel: argmax over the slots of sign(gamma) * a,
        # gathered channel-major so that the K slots are contiguous; gamma == 0
        # channels see all zeros, so slot 0 wins
        signed = np.multiply(a.T, np.sign(gamma.data)[:, None], order="C")   # [C, BN]
        slot = np.take(signed, rows, axis=1).argmax(axis=2)                  # [C, BM]
        sel = np.take_along_axis(rows, slot.T, axis=1)                       # [BM, C]
        s = a[sel, cols] - bc            # selected z, [BM, C]

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
            nnops._update_running(last, mu, var, r)
        else:
            mu, var = last.running_mean, last.running_var
        inv = 1.0 / np.sqrt(var + nnops.BN_EPS)
        xs = (s - mu) * inv

        def z_grad(gs, dgamma, dbeta, scale):
            """d loss / d a and d loss / d W's position rows, from the selected z
            and the batch statistics."""
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
            return da, dwp, [None], [None]

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
        # gy scale is d loss / d the selected x
        da, dwp, weights, norms = z_grad(gy * scale, dgamma, dbeta, scale)
        dw = x2.T @ da
        dw[cin:] += dwp
        weights[0], norms[-1] = dw, (dgamma, dbeta)
        df = (da @ w_in.T).reshape(b, n, cin)
        return (df,) + tuple(t for wg, ng in zip(weights, norms) for t in (wg,) + ng)

    inputs = (f,) + tuple(t for layer, shift in zip(layers, shifts)
                          for t in (layer.weight, layer.norm_gamma, shift))
    return custom_op(out.reshape(b, m, c), inputs, grad_fn)


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
    (rotation encoder, m=3, sum_groupconv) runs mixing, encoding, sum and
    projection as one op of u, the center term and the neighbor indices,
    `vecenc.rotate_cell`, in either mode; every other cell gathers and
    mixes with tape ops, then composes `vecenc.encode` and
    `aggregation_variant`. Returns the centers' positions and their
    features.

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
    if default_cell:
        main = vecenc.rotate_cell(u, ctr_u, nbr.indices, pad, p.encoder, p.proj, mode)
    else:
        ctr_u = nnops.reshape(ctr_u, (b, centers.shape[1], 1, cin))
        fp = nnops.relu(nnops.sub(nnops.gather(u, nbr.indices), ctr_u))
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

    The PointNet++ decoder step: inverse-squared-distance weights w_j over
    the 3 nearest coarse points (eps 1e-8, normalized to sum 1), the
    interpolated features concatenated with the skip features s [B,N,C_skip],
    then a two-layer shared MLP. mlp1's linear runs first, per point: with
    its weight split into coarse rows W_c and skip rows W_s,

        [sum_j w_j f_j, s] W = sum_j w_j (f_j W_c) + s W_s

    because the interpolation is linear, so the coarse features are mapped
    to C_out channels on the coarse points and only those are gathered; no
    interpolated or concatenated tensor is built. In train mode batchnorm
    follows the sum. In eval mode W is `nnops.fold_norm`'s folded weight
    and its bias is added once, on the skip branch; interpolated, it would
    come back unchanged only because the weights sum to 1. Either way the
    result equals the concat-first order up to rounding. Then ReLU and mlp2.
    """
    _check_features(coarse, coarse_f)
    b, _, c_coarse = coarse_f.data.shape
    if skip_f.data.ndim != 3 or skip_f.data.shape[:2] != fine_positions.shape[:2]:
        raise SizeError(f"skip features {skip_f.data.shape} do not match fine "
                        f"positions {fine_positions.shape}")
    fan_in = p.mlp1.weight.data.shape[0]
    if c_coarse + skip_f.data.shape[2] != fan_in:
        raise SizeError(f"coarse features {coarse_f.data.shape} and skip features "
                        f"{skip_f.data.shape} do not give mlp1's {fan_in} input channels")
    if mode not in ("train", "eval"):
        raise ContractError(f"batchnorm mode must be train or eval, got {mode!r}")
    num = min(3, coarse.num_points)
    idx = geometry.knn_points(fine_positions, coarse, num)
    batch = np.arange(b)[:, None, None]
    d2 = geometry._sq_dist(fine_positions[:, :, None], coarse.positions[batch, idx])
    w = 1.0 / (d2 + 1e-8)
    w = w / w.sum(axis=2, keepdims=True)
    layer = p.mlp1 if mode == "train" else nnops.fold_norm(p.mlp1)
    w_coarse = nnops.slice_rows(layer.weight, 0, c_coarse)
    w_skip = nnops.slice_rows(layer.weight, c_coarse, fan_in)
    a = nnops.linear(coarse_f, LayerParams(weight=w_coarse))
    h = nnops.add(nnops.gather(a, idx, w.astype(a.data.dtype)),
                  nnops.linear(skip_f, LayerParams(weight=w_skip, bias=layer.bias)))
    if mode == "train":
        h = nnops.batchnorm(h, p.mlp1)
    return nnops.dense(nnops.relu_fresh(h), p.mlp2, mode)
