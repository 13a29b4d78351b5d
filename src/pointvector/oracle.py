"""Independent brute-force references used by tests.

Everything here is implemented with plain loops over scalars or per-point
slices, never by calling the production modules it checks. Oracles always run
in double precision and are deliberately slow; size guards keep them inside
their supported regime. The rotation formulas (`rotate3d`, `rotate2d`,
`rotation_matrix`) are closed forms in np.sin/np.cos, independent of the
half-angle sine and cosine the production ops use. The exceptions are
`unfused_rotate_cell`, the reference for the default cell's fused op,
`composed_sa`, the set abstraction that `setabs.pooled_sa` fuses, both for
SA blocks and for the classification head's global SA around the centroid,
`mix_features`, the grouped form of VPSA's per-point mixing, and
`unfused_feature_propagate`, the decoder step in its concat-first order:
they compose separate ops, each checked on its own by `gradcheck`, so that
production can be compared with them in every gradient as well as in value.
`adamw_step` is the optimizer update over whole arrays, in the parameters'
dtype, which `train.adamw_step` must equal bit for bit while it runs in blocks.
`concat_last`, the tape op with which `composed_sa` and
`unfused_feature_propagate` concatenate, lives here because no production
path builds a concatenation on the tape.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import nnops, vecenc
from .errors import ContractError
from .train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

MAX_ORACLE_WORK = 10_000


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        fp = float(f(x))
        flat[i] = saved - h
        fm = float(f(x))
        flat[i] = saved
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ContractError(f"non-finite evaluation at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def naive_knn(query_xyz: np.ndarray, ref_xyz: np.ndarray, k: int) -> np.ndarray:
    """Exhaustive k-nearest-neighbor search; ties go to the lower index."""
    b, m, _ = query_xyz.shape
    n = ref_xyz.shape[1]
    if b * m * n > MAX_ORACLE_WORK * 100:
        raise ContractError("naive_knn instance too large")
    if k > n:
        raise ContractError(f"k={k} exceeds {n} reference points")
    out = np.zeros((b, m, k), dtype=np.int64)
    for bi in range(b):
        for qi in range(m):
            q = query_xyz[bi, qi].astype(np.float64)
            scored = []
            for ri in range(n):
                d = ref_xyz[bi, ri].astype(np.float64) - q
                scored.append((float(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]), ri))
            scored.sort()
            out[bi, qi] = [idx for _, idx in scored[:k]]
    return out


def naive_ball_query(positions: np.ndarray, centers: np.ndarray, radius: float,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive ball query: per center, the first k points by index whose
    squared distance is at most radius^2, padded by repeating the first hit;
    returns indices and pad mask, both [B, M, k]. Squares are Python float
    products, which overflow to inf rather than raise."""
    b, m = centers.shape
    n = positions.shape[1]
    if b * m * n > MAX_ORACLE_WORK * 100:
        raise ContractError("naive_ball_query instance too large")
    r2 = float(radius) * float(radius)
    idx = np.zeros((b, m, k), dtype=np.int64)
    pad = np.ones((b, m, k), dtype=bool)
    for bi in range(b):
        for qi in range(m):
            c = positions[bi, centers[bi, qi]].astype(np.float64)
            hits = []
            for ri in range(n):
                dx, dy, dz = (float(v) for v in positions[bi, ri].astype(np.float64) - c)
                if dx * dx + dy * dy + dz * dz <= r2:
                    hits.append(ri)
                    if len(hits) == k:
                        break
            if not hits:
                raise ContractError(f"center {qi} of batch entry {bi} has no point in radius")
            idx[bi, qi] = hits + [hits[0]] * (k - len(hits))
            pad[bi, qi, :len(hits)] = False
    return idx, pad


def naive_fps(positions: np.ndarray, m: int, start=0) -> np.ndarray:
    """Farthest point sampling [B, m], one vectorized distance pass per pick.

    min_d holds each point's squared distance to the chosen set, with chosen
    points flagged -1; the next pick is the first argmax, so ties go to the
    lowest unchosen index.
    """
    pos = positions.astype(np.float64)
    b, n, _ = pos.shape
    if not 1 <= m <= n:
        raise ContractError(f"requested {m} samples from {n} points")
    starts = np.broadcast_to(np.asarray(start, dtype=np.int64), (b,)).copy()
    chosen = np.zeros((b, m), dtype=np.int64)
    chosen[:, 0] = starts
    batch = np.arange(b)
    min_d = np.full((b, n), np.inf)
    min_d[batch, starts] = -1.0
    for i in range(1, m):
        last = pos[batch, chosen[:, i - 1]]
        d = ((pos - last[:, None, :]) ** 2).sum(axis=-1)
        min_d = np.minimum(min_d, d)
        nxt = np.argmax(min_d, axis=1)
        chosen[:, i] = nxt
        min_d[batch, nxt] = -1.0
    return chosen


def naive_interpolate(coarse_xyz: np.ndarray, coarse_feat: np.ndarray,
                      fine_xyz: np.ndarray, num: int = 3,
                      eps: float = 1e-8) -> np.ndarray:
    """Inverse-squared-distance interpolation from the `num` nearest coarse points."""
    b, m, _ = coarse_xyz.shape
    n = fine_xyz.shape[1]
    c = coarse_feat.shape[-1]
    if b * n * m > MAX_ORACLE_WORK * 100:
        raise ContractError("naive_interpolate instance too large")
    num = min(num, m)
    out = np.zeros((b, n, c), dtype=np.float64)
    for bi in range(b):
        for fi in range(n):
            q = fine_xyz[bi, fi].astype(np.float64)
            scored = []
            for ci in range(m):
                d = coarse_xyz[bi, ci].astype(np.float64) - q
                scored.append((float(d @ d), ci))
            scored.sort()
            picked = scored[:num]
            weights = [1.0 / (d2 + eps) for d2, _ in picked]
            total = sum(weights)
            acc = np.zeros(c, dtype=np.float64)
            for w, (_, ci) in zip(weights, picked):
                acc += (w / total) * coarse_feat[bi, ci].astype(np.float64)
            out[bi, fi] = acc
    return out


def group_relative(positions, features, nbr):
    """Per-neighbor offsets from each center, by direct indexing.

    Returns (rel_feat [B,M,K,C], rel_pos [B,M,K,3]) with
    rel_feat[b,i,j] = f_neighbor - f_center and rel_pos likewise for
    positions [B,N,3], for features [B,N,C] and a `NeighborIndex`. Padded
    entries repeat the values of their duplicated source.
    """
    b, n, _ = positions.shape
    if nbr.indices.min() < 0 or nbr.indices.max() >= n:
        raise ContractError("neighbor indices outside the source cloud")
    batch = np.arange(b)[:, None, None]
    centers = nbr.centers[:, :, None]
    rel_feat = features[batch, nbr.indices] - features[batch, centers]
    rel_pos = positions[batch, nbr.indices] - positions[batch, centers]
    return rel_feat, rel_pos


def rotation_matrix(alpha, beta) -> np.ndarray:
    """Composite matrix Rot_z(alpha) @ Rot_x applied to the vector lift.

    The x-rotation uses the sin/cos arrangement whose action on (0, zx, 0)
    yields (-zx sin(a) sin(b), zx cos(a) sin(b), zx cos(b)). Shapes broadcast;
    output is [..., 3, 3].
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    sa, ca = np.sin(alpha), np.cos(alpha)
    sb, cb = np.sin(beta), np.cos(beta)
    zero = np.zeros_like(sa * sb)
    one = np.ones_like(zero)
    rows = [
        np.stack([ca * one, -sa * sb, sa * cb], axis=-1),
        np.stack([sa * one, ca * sb, -ca * cb], axis=-1),
        np.stack([zero, cb * one, sb * one], axis=-1),
    ]
    return np.stack(rows, axis=-2)


def rotate3d(zx, alpha, beta) -> np.ndarray:
    """Closed-form rotation of the axis-aligned lift (0, zx, 0), shape [..., 3]."""
    zx = np.asarray(zx, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    sa, ca = np.sin(alpha), np.cos(alpha)
    sb, cb = np.sin(beta), np.cos(beta)
    return np.stack([-zx * sa * sb, zx * ca * sb, zx * cb], axis=-1)


def rotate2d(zx, alpha) -> np.ndarray:
    """Single-angle analogue of rotate3d: (-zx sin(a), zx cos(a))."""
    zx = np.asarray(zx, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    return np.stack([-zx * np.sin(alpha), zx * np.cos(alpha)], axis=-1)


def _bn_scalar(value, mean, var, gamma, beta, eps=1e-5):
    return gamma * (value - mean) / np.sqrt(var + eps) + beta


def _batch_stats(samples):
    """Per-channel biased mean/variance over a list of equal-length vectors."""
    n = len(samples)
    c = len(samples[0])
    mean = np.zeros(c)
    for s in samples:
        mean += s
    mean /= n
    var = np.zeros(c)
    for s in samples:
        var += (s - mean) ** 2
    var /= n
    return mean, var


def naive_sa(positions: np.ndarray, features: np.ndarray, centers: np.ndarray,
             neighbors: np.ndarray, layers: list, mode: str = "eval") -> np.ndarray:
    """Loop reference for the set-abstraction block with a shared MLP of any
    depth.

    Per center i and neighbor slot k, h = [f_j, p_j - p_i] with the raw
    positions, then h = relu(bn(h W)) for each layer, and a componentwise
    max over all K slots. Train-mode statistics run over all B*M*K rows,
    pads included; pads repeat slot 0, so the max over all slots is the max
    over the real ones. `setabs.pooled_sa` computes the same output with
    the max taken before the last batchnorm. `layers` holds one dict per
    layer: w [Cin, Cout], gamma, beta and (eval mode) rmean, rvar.
    """
    b, _, cin = features.shape
    m = centers.shape[1]
    k = neighbors.shape[2]
    if b * m * k * cin > MAX_ORACLE_WORK * 10:
        raise ContractError("naive_sa instance too large")
    rows = []
    for bi in range(b):
        for i in range(m):
            p_i = positions[bi, centers[bi, i]].astype(np.float64)
            for j in range(k):
                src = neighbors[bi, i, j]
                rows.append(np.concatenate([
                    features[bi, src].astype(np.float64),
                    positions[bi, src].astype(np.float64) - p_i,
                ]))
    for layer in layers:
        w = layer["w"].astype(np.float64)
        pre = [h @ w for h in rows]
        if mode == "train":
            mean, var = _batch_stats(pre)
        else:
            mean, var = layer["rmean"], layer["rvar"]
        rows = [np.maximum(_bn_scalar(x, mean, var, layer["gamma"], layer["beta"]), 0.0)
                for x in pre]
    cout = len(rows[0])
    out = np.full((b, m, cout), -np.inf)
    for r, h in enumerate(rows):
        bi, i = divmod(r // k, m)
        out[bi, i] = np.maximum(out[bi, i], h)
    return out


def concat_last(parts: Sequence[nnops.Tensor]) -> nnops.Tensor:
    """The Tensors `parts` concatenated along their last axis, on the tape;
    the gradient splits back into the parts' widths."""
    widths = [p.data.shape[-1] for p in parts]
    out = np.concatenate([p.data for p in parts], axis=-1)
    splits = np.cumsum(widths)[:-1]

    def grad_fn(g):
        return tuple(np.split(g, splits, axis=-1))

    return nnops.custom_op(out, tuple(parts), grad_fn)


def composed_sa(positions: np.ndarray, ctr_positions: np.ndarray, f, idx: np.ndarray,
                pad: np.ndarray, layers: list, mode: str = "train"):
    """What `setabs.pooled_sa` fuses, op by op on the tape, with its
    arguments: max_k over the non-pad slots of mlp([f_j, p_j - c_i]),
    [B,M,C].

    f [B,N,C] is a Tensor, ctr_positions [B,M,3] the centers c_i and
    idx [B,M,K] their neighbors, pad [B,M,K] the padded slots. The chain is
    `nnops.gather` of f, the relative positions p_j - c_i as a constant,
    `concat_last`, one `nnops.dense` per layer in `mode` and
    `nnops.neighbor_reduce` "max" over the non-pad slots. Train mode
    updates every layer's running statistics.
    """
    batch = np.arange(positions.shape[0])[:, None, None]
    rel = positions[batch, idx] - ctr_positions[:, :, None]
    h = concat_last([nnops.gather(f, idx), nnops.input_tensor(rel)])
    for layer in layers:
        h = nnops.dense(h, layer, mode)
    return nnops.neighbor_reduce(h, "max", pad if pad.any() else None)


def brute_force_vpsa(positions: np.ndarray, features: np.ndarray,
                     centers: np.ndarray, neighbors: np.ndarray,
                     pad_mask: np.ndarray | None, weights: dict,
                     m_dim: int = 3, reduction: str = "sum",
                     mode: str = "eval") -> np.ndarray:
    """Nested-loop reference for the vector-oriented aggregation block.

    Follows the block pipeline scalar by scalar: mixed relative feature,
    rotation-based vector expansion, neighbor reduction, per-channel
    projection, channel mixing with normalization, and the linear-residual
    fusion. `weights` is a flat dict of numpy arrays; see the test adapters
    for the expected keys.
    """
    b, _, cin = features.shape
    m = centers.shape[1]
    k = neighbors.shape[2]
    if b * m * k * cin > MAX_ORACLE_WORK * 10:
        raise ContractError("brute_force_vpsa instance too large")
    pos = positions.astype(np.float64)
    feat = features.astype(np.float64)

    def lin(vec, wkey, bkey=None):
        y = vec @ weights[wkey].astype(np.float64)
        if bkey is not None and weights.get(bkey) is not None:
            y = y + weights[bkey].astype(np.float64)
        return y

    # pass 1: mixed features and angle pre-activations for batch statistics
    fp = np.zeros((b, m, k, cin))
    for bi in range(b):
        for i in range(m):
            ci = centers[bi, i]
            for j in range(k):
                src = neighbors[bi, i, j]
                rel_f = feat[bi, src] - feat[bi, ci]
                rel_p = pos[bi, src] - pos[bi, ci]
                fp[bi, i, j] = np.maximum(rel_f + lin(rel_p, "pos_w", "pos_b"), 0.0)

    if m_dim > 1:
        ang_pre = np.zeros((b, m, k, (m_dim - 1) * cin))
        for bi in range(b):
            for i in range(m):
                for j in range(k):
                    ang_pre[bi, i, j] = lin(fp[bi, i, j], "ang_w")
        if mode == "train":
            ang_mean, ang_var = _batch_stats(list(ang_pre.reshape(-1, ang_pre.shape[-1])))
        else:
            ang_mean, ang_var = weights["ang_rmean"], weights["ang_rvar"]

    # pass 2: vectors, reduction, projection
    projected = np.zeros((b, m, cin))
    for bi in range(b):
        for i in range(m):
            if reduction == "sum":
                agg = np.zeros((cin, m_dim))
            else:
                agg = np.full((cin, m_dim), -np.inf)
            for j in range(k):
                if pad_mask is not None and pad_mask[bi, i, j]:
                    continue
                zx = lin(fp[bi, i, j], "zx_w", "zx_b")
                if m_dim == 1:
                    vec = zx[:, None]
                else:
                    ang = np.maximum(
                        _bn_scalar(ang_pre[bi, i, j], ang_mean, ang_var,
                                   weights["ang_gamma"], weights["ang_beta"]), 0.0)
                    alpha = ang[:cin]
                    if m_dim == 2:
                        vec = np.stack([-zx * np.sin(alpha), zx * np.cos(alpha)], axis=-1)
                    else:
                        beta = ang[cin:]
                        vec = np.stack([
                            -zx * np.sin(alpha) * np.sin(beta),
                            zx * np.cos(alpha) * np.sin(beta),
                            zx * np.cos(beta),
                        ], axis=-1)
                if reduction == "sum":
                    agg = agg + vec
                else:
                    agg = np.maximum(agg, vec)
            for c in range(cin):
                projected[bi, i, c] = agg[c] @ weights["proj_w"][c].astype(np.float64)

    # pass 3: channel mixing + normalization, then residual fusion
    mixed = np.zeros((b, m, weights["mix_w"].shape[1]))
    for bi in range(b):
        for i in range(m):
            mixed[bi, i] = lin(projected[bi, i], "mix_w")
    if mode == "train":
        mix_mean, mix_var = _batch_stats(list(mixed.reshape(-1, mixed.shape[-1])))
    else:
        mix_mean, mix_var = weights["mix_rmean"], weights["mix_rvar"]
    out = np.zeros_like(mixed)
    for bi in range(b):
        for i in range(m):
            main = _bn_scalar(mixed[bi, i], mix_mean, mix_var,
                              weights["mix_gamma"], weights["mix_beta"])
            skip = lin(feat[bi, centers[bi, i]], "res_w", "res_b")
            out[bi, i] = np.maximum(main + skip, 0.0)
    return out


def mix_features(rel_feat, rel_pos, p):
    """The VPSA mixed feature from grouped offsets, relu(rel_feat + linear(rel_pos)),
    on the tape.

    rel_feat [B,M,K,C] and rel_pos [B,M,K,3] are Tensors, p the position layer;
    `setabs.vpsa_block` forms the same value from per-point terms instead.
    """
    return nnops.relu(nnops.add(rel_feat, nnops.linear(rel_pos, p)))


def unfused_rotate_cell(u, ctr, idx: np.ndarray, pad: np.ndarray | None, p, proj,
                        mode: str = "train"):
    """What `vecenc.rotate_cell` fuses in either mode, op by op on the tape:
    the default VPSA cell's mixing, rotation encoding at m=3, neighbor sum
    and grouped projection.

    u [B,N,C] and ctr [B,M,C] are Tensors, idx [B,M,K] the neighbor indices,
    p the rotation encoder's params and proj the [C,3] grouped kernel. The
    chain is `nnops.gather` of u, minus ctr, `nnops.relu`, then the zx
    `nnops.linear` and the angle layer's `nnops.dense` in `mode`,
    `vecenc.rotate_field`, `nnops.neighbor_reduce` "sum" over the non-pad
    neighbors and `nnops.grouped_projection`; returns [B,M,C]. Train mode
    updates the angle layer's running statistics.
    """
    b, m, k = idx.shape
    c = u.shape[-1]
    fp = nnops.relu(nnops.sub(nnops.gather(u, idx), nnops.reshape(ctr, (b, m, 1, c))))
    field = vecenc.rotate_field(nnops.linear(fp, p.zx), nnops.dense(fp, p.angles, mode))
    field = nnops.neighbor_reduce(field, "sum", pad)
    return nnops.grouped_projection(nnops.reshape(field, (b, m, 1, c, 3)), proj)


def unfused_feature_propagate(coarse_xyz: np.ndarray, coarse_feat: np.ndarray,
                              fine_xyz: np.ndarray, skip_feat: np.ndarray, p, mode: str):
    """The PointNet++ decoder step in its own order, op by op: `naive_interpolate`,
    concatenation with the skip features, then p.mlp1 and p.mlp2 as
    relu(linear_bn). Returns [B,N,C_out]; train mode updates p's running
    statistics, as `setabs.feature_propagate` does.
    """
    interp = nnops.input_tensor(naive_interpolate(coarse_xyz, coarse_feat, fine_xyz))
    h = concat_last([interp, nnops.input_tensor(skip_feat)])
    for layer in (p.mlp1, p.mlp2):
        h = nnops.relu(nnops.linear_bn(h, layer, mode))
    return h.data


def adamw_step(params: dict, grads: dict, state, hyper) -> None:
    """`train.adamw_step` over whole arrays: each of its element-wise
    operations, in the same order, makes one pass over a parameter, with
    temporaries in the gradient's dtype. No non-finite check.
    """
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    decay = hyper.lr * hyper.weight_decay
    for name, p in params.items():
        g = grads.get(p)
        if g is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            v = state.v[name] = np.zeros_like(p.data)
        else:
            v = state.v[name]
        # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g^2
        step = (1.0 - b1) * g
        m *= b1
        m += step
        np.multiply(g, 1.0 - b2, out=step)
        step *= g
        v *= b2
        v += step
        # p (1 - lr wd) - lr (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(v, bias2, out=step)
        np.sqrt(step, out=step)
        step += ADAM_EPS
        np.divide(m, step, out=step)
        step *= hyper.lr / bias1
        new = p.data * (1.0 - decay)
        new -= step
        p.data = new
