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
block is relu(bn(max_k a_j - b_i)). At every depth the first batchnorm's
statistics come from per-point terms, so a deeper block folds the first
affine into a' and b' and gathers relu(a'_j - b'_i) once, straight into
the next linear; its last layer runs channel-major, so the max reads the K
slots of each center from contiguous memory. A center is a position, not
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


def _first_layer_norm(a: np.ndarray, bc: np.ndarray, rows: np.ndarray, q: np.ndarray,
                      wp: np.ndarray, layer: LayerParams, mode: str) -> tuple:
    """Layer 0's normalization of the B*M*K rows z = a_j - b_i from per-point
    and per-center terms: (ac, mu_b, mu, inv, gathered, u).

    ac = a - mu_a [BN,C], with mu = mu_a - mu_b and inv = 1 / sqrt(var +
    eps). In train mode mu and var are the batch statistics over all rows,
    pads included, and update the running ones: mu_a counts each point as
    often as it is gathered (`np.bincount`), mu_b is b's mean, and var comes
    from ac, b - mu_b and the terms of `_gathered_terms`; gathered is
    (cnt [BN,1], pos_sum [BN,3]), the counts and the gathered sums of the
    centered center positions q, and u is `_gathered_terms`' u. In eval mode
    mu_a is the running mean, mu_b = 0, and gathered and u are None.
    """
    if mode == "eval":
        mu = layer.running_mean
        return a - mu, 0.0, mu, 1.0 / np.sqrt(layer.running_var + nnops.BN_EPS), None, None
    r, k = rows.size, rows.shape[1]
    if r < 2:
        raise DegenerateStatisticsError(
            f"batchnorm train mode needs >=2 samples per channel, got {r}")
    cnt = np.bincount(rows.reshape(-1), minlength=a.shape[0]).astype(a.dtype)[:, None]
    mu_a = (cnt[:, 0] @ a) / r
    mu_b = bc.mean(axis=0)
    ac = a - mu_a
    bcc = bc - mu_b
    pos_sum = nnops._scatter_add_rows(rows.reshape(-1), np.repeat(q, k, axis=0), a.shape[0])
    gathered = (cnt, pos_sum)
    u, t = _gathered_terms(ac, wp, gathered, mu_b)
    # r var = sum_i,k (a_j - b_i - mu)^2 = sum_j ac_j (u_j - t_j) + K sum_i bcc_i^2
    var = (np.einsum("nc,nc->c", ac, u - t) + k * np.einsum("mc,mc->c", bcc, bcc)) / r
    var = np.maximum(var, 0.0)
    mu = mu_a - mu_b
    nnops._update_running(layer, mu, var, r)
    return ac, mu_b, mu, 1.0 / np.sqrt(var + nnops.BN_EPS), gathered, u


def _gathered_terms(ac: np.ndarray, wp: np.ndarray, gathered: tuple,
                    mu_b: np.ndarray) -> tuple:
    """(u, t) per point j: t_j is the sum of b_i - mu_b over the rows (i, k)
    that gather j, through the gathered center positions, and u_j that of
    z - mu over the same rows, cnt_j ac_j - t_j."""
    cnt, pos_sum = gathered
    t = pos_sum @ wp
    t -= cnt * mu_b
    u = cnt * ac
    u -= t
    return u, t


def _middle_layers(h: np.ndarray, layers: list, stats: list, depth: int) -> tuple:
    """(x-hat, ReLU output) [R,C] of layer `depth` of a shared MLP, from
    layer 0's ReLU output h [R,C0] through the middle layers 1..depth;
    x-hat is None at depth 0.

    Layer i normalizes with stats[i - 1] = (mu, inv) when given; otherwise
    with its batch statistics (`nnops._standardize`, which updates the
    running statistics), appended to stats. A rebuild from the same stats
    runs the same steps on the same arrays, so it equals the first pass bit
    for bit.
    """
    xhat = None
    for i, layer in enumerate(layers[1:depth + 1], 1):
        xhat = h @ layer.weight.data
        if i <= len(stats):
            mu, inv = stats[i - 1]
            xhat -= mu
            xhat *= inv
        else:
            xhat, mu, inv = nnops._standardize(xhat, layer, out=xhat)
            stats.append((mu, inv))
        h = xhat * layer.norm_gamma.data
        h += nnops._shift(layer).data
        np.maximum(h, 0, out=h)
    return xhat, h


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
    centered on the mean of the points), so z[i,k] = a_j - b_i. At every
    depth the first layer's batch statistics come from these terms
    (`_first_layer_norm`): the number of times each point is gathered, the
    gathered sum of center positions per point, and a and b centered on
    their means. Batchnorm is monotone per channel, so with x the last
    layer's linear output the block's output

        max_k relu(bn(x[i,k])) = relu(bn(max_k x[i,k]))   where gamma > 0
                               = relu(bn(min_k x[i,k]))   where gamma < 0

    and a channel with gamma == 0 is constant, relu(beta); it takes slot 0.
    A layer without beta shifts by 0 (`nnops._shift`). Each channel takes
    the first arg-max of sign(gamma) x, the first slot on ties, the rule of
    `nnops.neighbor_reduce`. With one layer x = z, and the arg-max is taken
    over the gathered a values.

    With more layers, the first layer's affine folds into a' = (a - mu_a)
    gamma inv + beta per point and b' = (b - mu_b) gamma inv per center,
    and its ReLU output relu(a'_j - b'_i) is gathered once, [B*M*K, C0];
    middle layers, at depth 3 and more, run on it densely
    (`_middle_layers`). The last layer runs channel-major: sign(gamma)
    x-hat = ((W sign(gamma))^T h^T - sign(gamma) mu) inv, [C, B*M*K], whose
    K slots per center are contiguous for the arg-max; its statistics are
    stored unsigned, and a channel with gamma == 0 counts as positive.

    Pads must repeat slot 0, as `geometry.ball_query` makes them: then the
    max and min over all K slots equal those over the real ones, and the
    first extreme slot is never a pad. Train-mode statistics cover all
    B*M*K rows, pads included, like batchnorm on the grouped tensor.

    For backward a one-layer block keeps no [B,M,K,C] array: it scatters
    the selected entries plus per-point statistic terms. A deeper one keeps
    the last layer's channel-major x-hat, the selected slots, a - mu_a, the
    gather counts and the gathered center positions; backward rebuilds a',
    b' and each earlier layer's output one layer at a time. The first
    layer's batchnorm backward needs no [B*M*K, C0] pass of its own: it is
    formed from the per-point scatter sum S_j and the per-center sum T_i of
    its masked output gradient. Gradients flow to f and to every layer's W,
    gamma and beta; positions are constants.
    """
    nnops._check_mode(mode)
    w, last = layers[0].weight, layers[-1]
    shifts = [nnops._shift(layer) for layer in layers]
    gamma, beta = last.norm_gamma, shifts[-1]
    data = f.data
    b, n, cin = data.shape
    if w.data.shape[0] != cin + 3:
        raise SizeError(f"expected {w.data.shape[0] - 3} input channels, got {cin}")
    nnops._check_neighborhood(idx, pad, b, n)
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

    def centered_b():
        """b - mu_b [BM,C], rebuilt from the center positions."""
        return q @ wp - mu_b

    def first_grad(da, dt, dgamma, dbeta, scale, u):
        """d loss / d a and d loss / d W's position rows, from da, the first
        layer's row gradients d loss / d z scattered to the points, dt, their
        sum per center, and in train mode the statistic terms of the first
        batchnorm's backward (dgamma, dbeta and scale = gamma inv its own),
        summed per point for a, through u, and per center for b; b's
        neighbor sums of ac are taken per point through pos_sum."""
        dwp = q.T @ -dt               # b_i = [0, p~_i] W reaches W's position rows
        if gathered is not None:
            cnt, pos_sum = gathered
            c0 = scale * dbeta / r
            c2 = scale * inv0 * dgamma / r
            bcc = centered_b()
            da -= cnt * c0
            da -= u * c2
            dwp += k * (q.sum(axis=0)[:, None] * c0 - (q.T @ bcc) * c2)
            dwp += (pos_sum.T @ ac) * c2
        return da, dwp

    if len(layers) > 1:
        # u is rebuilt in backward, not kept
        ac, mu_b, mu0, inv0, gathered, _ = _first_layer_norm(a, bc, rows, q, wp, layers[0],
                                                             mode)
        sgn = np.where(gamma.data < 0, -1, 1).astype(dtype)
        s0 = layers[0].norm_gamma.data * inv0
        beta0 = shifts[0].data
        stats = [] if mode == "train" else [
            (p.running_mean, 1.0 / np.sqrt(p.running_var + nnops.BN_EPS))
            for p in layers[1:-1]]

        def hidden(depth):
            """Layer `depth`'s x-hat and ReLU output [R,C], from the first
            layer's relu(a'_j - b'_i)."""
            h = (ac * s0 + beta0)[rows]
            h -= (centered_b() * s0)[:, None]
            np.maximum(h, 0, out=h)
            return _middle_layers(h.reshape(r, -1), layers, stats, depth)

        # sign(gamma) x, channel-major, normalized in place
        xt = np.matmul((last.weight.data * sgn).T, hidden(len(layers) - 2)[1].T)
        if mode == "train":
            mu = xt.mean(axis=1)
            xt -= mu[:, None]
            var = np.einsum("cr,cr->c", xt, xt) / r
            inv = 1.0 / np.sqrt(var + nnops.BN_EPS)
            nnops._update_running(last, mu * sgn, var, r)
        else:
            inv = 1.0 / np.sqrt(last.running_var + nnops.BN_EPS)
            xt -= (last.running_mean * sgn)[:, None]
        xt *= inv[:, None]
        x3 = xt.reshape(c, b * m, k)
        slot = x3.argmax(axis=2)                                          # [C, BM]
        slot[gamma.data == 0] = 0
        xs = np.take_along_axis(x3, slot[..., None], axis=2)[..., 0].T * sgn   # selected x-hat
        held = [xt]   # z_grad takes it out, to reuse its buffer

        def z_grad(gs, dgamma, dbeta, scale):
            """d loss / d a, d loss / d W's position rows through b, and the
            gradients of every later layer's W and every earlier layer's
            gamma and beta, rebuilding one layer at a time."""
            dx, = held
            held.clear()
            # the last batchnorm's backward over all rows, channel-major in
            # x-hat's buffer: its statistic terms everywhere, gs at the
            # selected slots
            if mode == "train":
                dx *= (-scale * dgamma * sgn / r)[:, None]
                dx -= (scale * dbeta / r)[:, None]
            else:
                dx[...] = 0
            dx.reshape(c, b * m, k)[cols[:, None], np.arange(b * m), slot] += gs.T
            dx = dx.T
            weights, norms = [None] * len(layers), [None] * len(layers)
            for i in range(len(layers) - 1, 0, -1):
                xh, h = hidden(i - 1)
                on = h > 0
                weights[i] = h.T @ dx
                np.matmul(dx, layers[i].weight.data.T, out=h)   # h is dead: d loss / d h
                del dx
                h *= on
                if i == 1:
                    break
                scale_i = layers[i - 1].norm_gamma.data * stats[i - 2][1]
                if mode == "train":
                    dx, dgam, dbet = nnops._standardize_grad(h, xh, scale_i, out=xh)
                else:
                    dgam = np.einsum("rc,rc->c", h, xh)
                    dbet = h.sum(axis=0)
                    dx = np.multiply(h, scale_i, out=xh)
                norms[i - 1] = (dgam, dbet)
                del h, xh
            # the first batchnorm's backward from S_j, the masked gradient
            # scattered to the points, and T_i, its sum over the neighbors:
            # its x-hat at row (i, k) is inv (ac_j - (b_i - mu_b))
            sj = nnops._scatter_add_rows(rows.reshape(-1), h, b * n)
            ti = h.reshape(b * m, k, -1).sum(axis=1)
            del h
            dbet = ti.sum(axis=0)
            dgam = inv0 * (np.einsum("nc,nc->c", ac, sj)
                           - np.einsum("mc,mc->c", centered_b(), ti))
            norms[0] = (dgam, dbet)
            u = None if gathered is None else _gathered_terms(ac, wp, gathered, mu_b)[0]
            da, dwp = first_grad(sj * s0, ti * s0, dgam, dbet, s0, u)
            return da, dwp, weights, norms
    else:
        # first extreme slot per channel: argmax over the slots of sign(gamma) * a,
        # gathered channel-major so that the K slots are contiguous; gamma == 0
        # channels see all zeros, so slot 0 wins
        signed = np.multiply(a.T, np.sign(gamma.data)[:, None], order="C")   # [C, BN]
        slot = np.take(signed, rows, axis=1).argmax(axis=2)                  # [C, BM]
        sel = np.take_along_axis(rows, slot.T, axis=1)                       # [BM, C]
        ac, mu_b, mu0, inv0, gathered, u = _first_layer_norm(a, bc, rows, q, wp, layers[0],
                                                             mode)
        inv = inv0
        xs = (a[sel, cols] - bc - mu0) * inv

        def z_grad(gs, dgamma, dbeta, scale):
            """d loss / d a and d loss / d W's position rows, from the selected z
            and the batch statistics."""
            da = np.bincount((sel * c + cols).reshape(-1), weights=gs.reshape(-1),
                             minlength=b * n * c).reshape(b * n, c).astype(dtype, copy=False)
            return first_grad(da, gs, dgamma, dbeta, scale, u) + ([None], [None])

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


def _interpolate_linear(coarse_f: Tensor, skip_f: Tensor, idx: np.ndarray, w: np.ndarray,
                        layer: LayerParams) -> Tensor:
    """The decoder's first linear as one op, h = sum_j w_j (f_j W_c) + s W_s
    (+ b) [B,N,C_out], for coarse features f [B,N',C_coarse], skip features
    s [B,N,C_skip] and the J coarse neighbors idx [B,N,J] of each fine point
    with their weights w [B,N,J]; W_c = W[:C_coarse] and W_s = W[C_coarse:]
    are row views of the weight. The slots of f W_c are added one at a time,
    with no [B,N,J,C_out] array, bit-equal to numpy's sum over the slot axis
    for C_out > 1; the skip product, bias included, comes last. Backward
    scatters w_j g once per slot and writes both row blocks of W's gradient
    into one array; idx and w are constants.
    """
    wd = layer.weight.data
    (b, nc, cc), skip_shape = coarse_f.data.shape, skip_f.data.shape
    w_c, w_s = wd[:cc], wd[cc:]
    x_c, x_s = coarse_f.data.reshape(-1, cc), skip_f.data.reshape(-1, w_s.shape[0])
    a = (x_c @ w_c).reshape(b, nc, -1)
    w = w.astype(a.dtype, copy=False)
    rows, has_bias = np.arange(b)[:, None], layer.bias is not None

    def slot(j):
        term = a[rows, idx[..., j]]
        term *= w[..., j, None]
        return term

    h = slot(0)
    for j in range(1, idx.shape[-1]):
        h += slot(j)
    skip = x_s @ w_s
    if has_bias:
        skip += layer.bias.data
    h += skip.reshape(h.shape)
    flat = idx + (np.arange(b) * nc)[:, None, None]

    def grad_fn(g):
        g2 = g.reshape(-1, wd.shape[1])
        # a scatter sum holds no -0.0, so 0 + the first slot is that slot
        ga = sum(nnops._scatter_add_rows(flat[..., j].reshape(-1),
                                         g2 * w[..., j].reshape(-1, 1), b * nc)
                 for j in range(flat.shape[-1]))
        dw = np.empty(wd.shape, dtype=g.dtype)
        np.matmul(x_c.T, ga, out=dw[:cc])
        np.matmul(x_s.T, g2, out=dw[cc:])
        grads = ((ga @ w_c.T).reshape(b, nc, cc), (g2 @ w_s.T).reshape(skip_shape), dw)
        return grads + (g2.sum(axis=0),) if has_bias else grads

    return custom_op(h, (coarse_f, skip_f, layer.weight) + ((layer.bias,) if has_bias else ()),
                     grad_fn)


def feature_propagate(coarse: PointSetBatch, coarse_f: Tensor,
                      fine_positions: np.ndarray, skip_f: Tensor, p: FPParams,
                      mode: str = "train") -> Tensor:
    """Interpolate coarse features to fine positions and fuse with skip features.

    The PointNet++ decoder step: inverse-squared-distance weights w_j over
    the 3 nearest coarse points (eps 1e-8, normalized to sum 1), the
    interpolated features concatenated with the skip features s [B,N,C_skip],
    then a two-layer shared MLP. mlp1's linear runs first, per point, as one
    op (`_interpolate_linear`): with its weight split into coarse rows W_c
    and skip rows W_s,

        [sum_j w_j f_j, s] W = sum_j w_j (f_j W_c) + s W_s

    because the interpolation is linear, so the coarse features are mapped
    to C_out channels on the coarse points and only those are gathered; no
    interpolated or concatenated tensor is built. In train mode the op takes
    p.mlp1 and batchnorm follows it. In eval mode it takes
    `nnops.fold_norm(p.mlp1)` and adds the folded bias once, on the skip
    branch; interpolated, it would come back unchanged only because the
    weights sum to 1. Either way the result equals the concat-first order up
    to rounding. Then ReLU and mlp2.
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
    nnops._check_mode(mode)
    num = min(3, coarse.num_points)
    idx = geometry.knn_points(fine_positions, coarse, num)
    batch = np.arange(b)[:, None, None]
    d2 = geometry._sq_dist(fine_positions[:, :, None], coarse.positions[batch, idx])
    w = 1.0 / (d2 + 1e-8)
    w = w / w.sum(axis=2, keepdims=True)
    layer = p.mlp1 if mode == "train" else nnops.fold_norm(p.mlp1)
    h = _interpolate_linear(coarse_f, skip_f, idx, w, layer)
    if mode == "train":
        h = nnops.batchnorm(h, p.mlp1)
    return nnops.dense(nnops.relu_fresh(h), p.mlp2, mode)
