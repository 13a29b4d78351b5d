"""Finite-difference verification of every differentiable op.

Each registered case builds a small random instance, computes analytic
gradients through the tape, and compares them against central differences
from the oracle module. Comparison metric: max-norm difference over the
max-norm magnitude.

Every instance runs in float64 whatever the default precision: with the
finite-difference step `FD_STEP`, float32 differences are rounding noise.

Relu kinks and near-tied maxima can put a coordinate within h of a
non-differentiable point; a failing instance is therefore redrawn a couple of
times before it counts as a failure (a wrong gradient fails for every draw).
"""

from __future__ import annotations

import zlib
from functools import partial, reduce

import numpy as np

from . import model, nnops, oracle, setabs, train, vecenc
from .errors import ConfigError, ContractError
from .geometry import PointSetBatch
from .nnops import GradTape, Tensor
from .setabs import BlockConfig

TOLERANCE = 1e-5
FD_STEP = 1e-6
RETRIES = 3


def relative_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Max-norm difference over max-norm magnitude.

    When both gradients are essentially zero (e.g. a tensor whose every path
    to the loss passes a relu that is off) the difference is pure
    finite-difference noise, so it is compared absolutely instead of against
    a vanishing scale, and a zero scale never divides.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    if analytic.shape != fd.shape:
        raise ContractError(
            f"analytic gradient shape {analytic.shape} differs from {fd.shape}")
    diff = float(np.abs(analytic - fd).max(initial=0.0))
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(fd).max(initial=0.0))
    if scale < 1e-6:
        return diff
    return diff / scale


def _away_from_zero(rng, shape, margin=0.15):
    """Uniform values with |x| >= margin, for inputs feeding relu-like kinks."""
    x = rng.uniform(margin, 1.0, size=shape)
    return x * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def _loss_of(out: Tensor, probe: np.ndarray) -> Tensor:
    return nnops.sum_all(nnops.mul(out, Tensor(probe)))


def _freeze_running(layers):
    """Snapshot/restore running statistics so FD probes do not drift them."""
    snap = [(p, None if p.running_mean is None else p.running_mean.copy(),
             None if p.running_var is None else p.running_var.copy())
            for p in layers]

    def restore():
        for p, m, v in snap:
            if m is not None:
                p.running_mean = m.copy()
                p.running_var = v.copy()

    return restore


def _eval_running(rng, mode, layers):
    """In eval mode, running statistics away from 0 and 1 for each layer."""
    if mode == "eval":
        for layer in layers:
            c = layer.running_mean.shape[0]
            layer.running_mean = rng.standard_normal(c) * 0.1
            layer.running_var = rng.uniform(0.5, 2.0, c)


def _params_case(leaves, params, probe, run):
    """A case on a params container: the given leaves plus every tensor of
    `params`, and a forward that restores its running statistics first."""
    layers = list(model.walk_layers(params))
    restore = _freeze_running([layer for _, layer in layers])

    def forward():
        restore()
        return _loss_of(run(), probe)

    return list(leaves) + [(f"{path}.{slot}", t) for path, layer in layers
                           for slot, t in layer.tensors()], forward


# ---------------------------------------------------------------------------
# case builders: each returns (params, forward)


def _case_linear(rng):
    x = Tensor(rng.standard_normal((3, 5, 4)), requires_grad=True)
    p = nnops.linear_params(rng, 4, 6)
    probe = rng.standard_normal((3, 5, 6))
    return ([("x", x), ("w", p.weight), ("b", p.bias)],
            lambda: _loss_of(nnops.linear(x, p), probe))


def _case_linear_nobias(rng):
    x = Tensor(rng.standard_normal((7, 4)), requires_grad=True)
    p = nnops.linear_params(rng, 4, 3, bias=False)
    probe = rng.standard_normal((7, 3))
    return ([("x", x), ("w", p.weight)],
            lambda: _loss_of(nnops.linear(x, p), probe))


def _case_batchnorm_train(rng):
    x = Tensor(rng.standard_normal((6, 4, 3)) * 2.0 + 0.5, requires_grad=True)
    p = nnops.attach_norm(nnops.LayerParams(), 3)
    p.norm_gamma.data = rng.uniform(0.5, 1.5, size=3)
    p.norm_beta.data = rng.standard_normal(3) * 0.3
    probe = rng.standard_normal((6, 4, 3))
    restore = _freeze_running([p])

    def forward():
        restore()
        return _loss_of(nnops.batchnorm(x, p), probe)

    return [("x", x), ("gamma", p.norm_gamma), ("beta", p.norm_beta)], forward


def _case_dense_eval(rng):
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    p = nnops.linear_params(rng, 4, 3, norm=True)
    p.norm_gamma.data = rng.uniform(0.5, 1.5, size=3)
    p.norm_beta.data = rng.standard_normal(3) * 0.3
    p.running_mean = rng.standard_normal(3)
    p.running_var = rng.uniform(0.5, 2.0, size=3)
    probe = rng.standard_normal((5, 3))
    return ([("x", x), ("w", p.weight), ("gamma", p.norm_gamma), ("beta", p.norm_beta)],
            lambda: _loss_of(nnops.dense(x, p, "eval"), probe))


def _case_relu(rng):
    x = Tensor(_away_from_zero(rng, (4, 6)), requires_grad=True)
    probe = rng.standard_normal((4, 6))
    return [("x", x)], lambda: _loss_of(nnops.relu(x), probe)


def _case_add_sub_mul(rng):
    a = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    c = Tensor(rng.standard_normal((3, 1, 5)), requires_grad=True)
    probe = rng.standard_normal((3, 4, 5))

    def forward():
        return _loss_of(nnops.mul(nnops.sub(nnops.add(a, b), c), a), probe)

    return [("a", a), ("b", b), ("c", c)], forward


def _case_concat_reshape(rng):
    a = Tensor(rng.standard_normal((2, 3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    probe = rng.standard_normal((2, 9, 2))

    def forward():
        return _loss_of(nnops.reshape(oracle.concat_last([a, b]), (2, 9, 2)), probe)

    return [("a", a), ("b", b)], forward


def _pad_mask(rng, shape):
    pad = rng.random(shape) < 0.3
    pad[..., 0] = False
    return pad


def _case_neighbor_reduce(rng, mode, padded=False):
    v = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
    pad = _pad_mask(rng, (2, 3, 4)) if padded else None
    probe = rng.standard_normal((2, 3, 5))
    return [("v", v)], lambda: _loss_of(nnops.neighbor_reduce(v, mode, pad), probe)


def _case_grouped_projection(rng, slots=1):
    v = Tensor(rng.standard_normal((2, 3, slots, 5, 3)), requires_grad=True)
    p = nnops.grouped_params(rng, 5, slots * 3)
    probe = rng.standard_normal((2, 3, 5))
    return ([("v", v), ("w", p.weight)],
            lambda: _loss_of(nnops.grouped_projection(v, p), probe))


def _case_aggregation_modes_padded(rng):
    """Every aggregation mode on one padded field [2,3,4,5,2]: grouped modes
    through their kernel, dense modes up to their flattened field."""
    v = Tensor(rng.standard_normal((2, 3, 4, 5, 2)), requires_grad=True)
    pad = _pad_mask(rng, (2, 3, 4))
    named, runs = [("v", v)], []
    for mode in setabs.AGGREGATION_MODES:
        cfg = BlockConfig(in_channels=5, out_channels=3, k_neighbors=4, vector_dim=2,
                          aggregation=mode)
        p = setabs.vpsa_block_params(rng, cfg)
        width = 5 if p.proj is not None else p.fc.weight.data.shape[0]
        runs.append((mode, p, rng.standard_normal((2, 3, width))))
        if p.proj is not None:
            named += [(f"{mode}.proj.{slot}", t) for slot, t in p.proj.tensors()]

    def forward():
        return reduce(nnops.add, [_loss_of(setabs.aggregation_variant(v, mode, p, pad), probe)
                                  for mode, p, probe in runs])

    return named, forward


def _case_residual_fuse(rng):
    main = Tensor(_away_from_zero(rng, (3, 5)), requires_grad=True)
    skip = Tensor(rng.standard_normal((3, 5)) * 0.01, requires_grad=True)
    probe = rng.standard_normal((3, 5))
    return ([("main", main), ("skip", skip)],
            lambda: _loss_of(nnops.residual_fuse(main, skip), probe))


def _case_gather(rng, n, idx_shape):
    """gather from x [2,n,3] by indices of idx_shape."""
    x = Tensor(rng.standard_normal((2, n, 3)), requires_grad=True)
    idx = rng.integers(0, n, size=idx_shape)
    probe = rng.standard_normal(idx_shape + (3,))
    return [("x", x)], lambda: _loss_of(nnops.gather(x, idx), probe)


def _case_unit_normalize(rng):
    x = Tensor(rng.standard_normal((3, 4, 3)) + 0.5, requires_grad=True)
    probe = rng.standard_normal((3, 4, 3))
    return [("x", x)], lambda: _loss_of(nnops.unit_normalize(x), probe)


def _case_sum_all(rng):
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

    def forward():
        return nnops.sum_all(nnops.mul(x, x))

    return [("x", x)], forward


def _case_rotate_field(rng, m):
    zx = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    ang = Tensor(rng.uniform(0, 2 * np.pi, size=(2, 3, (m - 1) * 4)), requires_grad=True)
    probe = rng.standard_normal((2, 3, 4, m))
    return ([("zx", zx), ("ang", ang)],
            lambda: _loss_of(vecenc.rotate_field(zx, ang), probe))


def _case_mix_features(rng):
    rel_feat = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
    rel_pos = Tensor(rng.standard_normal((2, 3, 4, 3)), requires_grad=True)
    p = nnops.linear_params(rng, 3, 5)
    probe = rng.standard_normal((2, 3, 4, 5))
    return ([("rel_feat", rel_feat), ("rel_pos", rel_pos), ("w", p.weight),
             ("b", p.bias)],
            lambda: _loss_of(oracle.mix_features(rel_feat, rel_pos, p), probe))


def _encoder_case(rng, name, m):
    fp = Tensor(np.abs(rng.standard_normal((2, 3, 4, 5))) + 0.1, requires_grad=True)
    params = vecenc.make_encoder_params(name, rng, 5, m)
    probe = rng.standard_normal((2, 3, 4, 5, m))
    return _params_case([("fp", fp)], params, probe,
                        lambda: vecenc.encode(name, fp, params, m, "train"))


def _case_rotate_cell(rng, padded=True, mode="train"):
    u = Tensor(rng.standard_normal((2, 6, 5)), requires_grad=True)
    ctr = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True)
    idx = rng.integers(0, 6, size=(2, 3, 4))
    enc = vecenc.rotation_encoder_params(rng, 5, 3)
    enc.zx.bias.data = rng.uniform(-0.5, 0.5, 5)
    enc.angles.norm_gamma.data = rng.uniform(0.5, 1.5, 10)
    enc.angles.norm_beta.data = rng.uniform(0.2, 0.6, 10)
    _eval_running(rng, mode, [enc.angles])
    proj = nnops.grouped_params(rng, 5, 3)
    pad = _pad_mask(rng, (2, 3, 4)) if padded else None
    probe = rng.standard_normal((2, 3, 5))
    return _params_case([("u", u), ("ctr", ctr)], [enc, proj], probe,
                        lambda: vecenc.rotate_cell(u, ctr, idx, pad, enc, proj, mode))


def _case_softmax_ce(rng):
    logits = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=6)
    return ([("logits", logits)],
            lambda: train.ce_label_smoothing(logits, labels, eps=0.1))


def _toy_cloud(rng, n=8, c=4):
    pos = rng.uniform(-1, 1, size=(1, n, 3))
    feat = rng.standard_normal((1, n, c))
    return pos, feat


def _case_sa_block(rng, negative_gamma=False, radius=None, layers=1, mode="train",
                   zero_first_gamma=False):
    pos, feat = _toy_cloud(rng, n=10 if radius else 8)
    f = Tensor(feat, requires_grad=True)
    cfg = BlockConfig(in_channels=4, out_channels=6, k_neighbors=4 if radius else 2,
                      stride=2, radius=radius, sa_layers=layers)
    p = setabs.sa_block_params(rng, cfg)
    last = p.mlp[-1]
    if negative_gamma:
        # half the channels take the min over the neighbors instead of the max
        last.norm_gamma.data = rng.uniform(0.5, 1.5, 6) * np.repeat([1.0, -1.0], 3)
        last.norm_beta.data = rng.uniform(0.2, 0.6, 6)
    if zero_first_gamma:
        # a constant first-layer channel, relu(beta) > 0, whose gamma still
        # gets a gradient
        first = p.mlp[0]
        first.norm_gamma.data[0] = 0.0
        first.norm_beta.data = rng.uniform(0.2, 0.6, 6)
    _eval_running(rng, mode, p.mlp)
    m = -(-pos.shape[1] // 2)
    probe = rng.standard_normal((1, m, 6))
    return _params_case(
        [("features", f)], p, probe,
        lambda: setabs.sa_block(PointSetBatch(positions=pos), f, cfg, p, mode)[1])


def _case_global_sa(rng, mode="train"):
    """The classification head's global SA: `setabs.pooled_sa` over two
    clouds with one center at each centroid and K = N, through a beta-less
    layer with mixed-sign gamma."""
    b, n = 2, 8
    pos = rng.uniform(-1, 1, size=(b, n, 3))
    f = Tensor(rng.standard_normal((b, n, 4)), requires_grad=True)
    layer = nnops.linear_params(rng, 4 + 3, 6, norm=True)
    layer.norm_beta = None
    layer.norm_gamma.data = rng.uniform(0.5, 1.5, 6) * np.repeat([1.0, -1.0], 3)
    _eval_running(rng, mode, [layer])
    idx = np.broadcast_to(np.arange(n), (b, 1, n))
    pad = np.zeros((b, 1, n), dtype=bool)
    probe = rng.standard_normal((b, 1, 6))
    return _params_case(
        [("features", f)], [layer], probe,
        lambda: setabs.pooled_sa(pos, pos.mean(axis=1, keepdims=True), f, idx, pad,
                                 [layer], mode))


def _case_vpsa_block(rng, aggregation="sum_groupconv"):
    pos, feat = _toy_cloud(rng)
    f = Tensor(feat, requires_grad=True)
    cfg = BlockConfig(in_channels=4, out_channels=4, k_neighbors=2,
                      vector_dim=3, encoder="rotation", aggregation=aggregation)
    p = setabs.vpsa_block_params(rng, cfg)
    # fresh blocks have zero biases, which parks the self-neighbor rows of the
    # mixing relu exactly on its kink; randomize so FD probes a smooth point
    for layer in (p.pos, p.encoder.zx, p.res):
        layer.bias.data = rng.uniform(0.2, 0.6, size=layer.bias.data.shape)
    probe = rng.standard_normal((1, 8, 4))
    return _params_case(
        [("features", f)], p, probe,
        lambda: setabs.vpsa_block(PointSetBatch(positions=pos), f, cfg, p, "train")[1])


def _case_feature_propagate(rng, mode="train"):
    """The decoder step; eval mode folds mlp1's bias with random running statistics."""
    coarse_pos = rng.uniform(-1, 1, size=(1, 5, 3))
    fine_pos = rng.uniform(-1, 1, size=(1, 9, 3))
    cf = Tensor(rng.standard_normal((1, 5, 4)), requires_grad=True)
    sf = Tensor(rng.standard_normal((1, 9, 3)), requires_grad=True)
    p = setabs.fp_params(rng, 4, 3, 6)
    _eval_running(rng, mode, [p.mlp1, p.mlp2])
    probe = rng.standard_normal((1, 9, 6))
    coarse = PointSetBatch(positions=coarse_pos)
    return _params_case(
        [("coarse_f", cf), ("skip_f", sf)], p, probe,
        lambda: setabs.feature_propagate(coarse, cf, fine_pos, sf, p, mode))


CASES = {
    "linear": _case_linear,
    "linear_nobias": _case_linear_nobias,
    "batchnorm_train": _case_batchnorm_train,
    "dense_eval": _case_dense_eval,
    "relu": _case_relu,
    "add_sub_mul": _case_add_sub_mul,
    "concat_reshape": _case_concat_reshape,
    "neighbor_reduce_sum": partial(_case_neighbor_reduce, mode="sum"),
    "neighbor_reduce_max": partial(_case_neighbor_reduce, mode="max"),
    "neighbor_reduce_sum_padded": partial(_case_neighbor_reduce, mode="sum", padded=True),
    "neighbor_reduce_max_padded": partial(_case_neighbor_reduce, mode="max", padded=True),
    "grouped_projection": _case_grouped_projection,
    "grouped_projection_slots": partial(_case_grouped_projection, slots=4),
    "aggregation_modes_padded": _case_aggregation_modes_padded,
    "residual_fuse": _case_residual_fuse,
    "gather_2d": partial(_case_gather, n=6, idx_shape=(2, 4)),
    "gather_3d": partial(_case_gather, n=6, idx_shape=(2, 4, 3)),
    "unit_normalize": _case_unit_normalize,
    "sum_all": _case_sum_all,
    "rotate_field3": partial(_case_rotate_field, m=3),
    "rotate_field2": partial(_case_rotate_field, m=2),
    "mix_features": _case_mix_features,
    "encode_rotation": partial(_encoder_case, name="rotation", m=3),
    "encode_rotation_2d": partial(_encoder_case, name="rotation", m=2),
    "encode_mlp": partial(_encoder_case, name="mlp", m=3),
    "encode_direction": partial(_encoder_case, name="direction", m=3),
    "rotate_cell": _case_rotate_cell,
    "rotate_cell_unpadded": partial(_case_rotate_cell, padded=False),
    "rotate_cell_eval": partial(_case_rotate_cell, mode="eval"),
    "softmax_cross_entropy": _case_softmax_ce,
    "sa_block": _case_sa_block,
    "sa_block_negative_gamma": partial(_case_sa_block, negative_gamma=True),
    "sa_block_negative_gamma_padded": partial(_case_sa_block, negative_gamma=True,
                                              radius=0.8),
    "sa_block_deep_padded": partial(_case_sa_block, negative_gamma=True, radius=0.8,
                                    layers=2),
    "sa_block_deep_eval": partial(_case_sa_block, negative_gamma=True, layers=2,
                                  mode="eval"),
    "sa_block_deep3_padded": partial(_case_sa_block, negative_gamma=True, radius=0.8,
                                     layers=3, zero_first_gamma=True),
    "global_sa": _case_global_sa,
    "global_sa_eval": partial(_case_global_sa, mode="eval"),
    "vpsa_block": _case_vpsa_block,
    "vpsa_block_conv": partial(_case_vpsa_block, aggregation="conv"),
    "feature_propagate": _case_feature_propagate,
    "feature_propagate_eval": partial(_case_feature_propagate, mode="eval"),
}


def run_case(name: str, seed: int) -> float:
    """One float64 instance of a named case; retries kink-adjacent draws."""
    last = np.inf
    tag = zlib.crc32(name.encode("utf-8"))
    with nnops.precision("double"):
        for attempt in range(RETRIES):
            rng = np.random.default_rng(np.random.SeedSequence([seed, attempt, tag]))
            params, forward = CASES[name](rng)
            with GradTape() as tape:
                loss = forward()
                grads = nnops.backward(tape, loss)
            worst = 0.0
            for _, t in params:
                analytic = grads.get(t)
                if analytic is None:
                    analytic = np.zeros_like(t.data)

                def scalar_fn(x, t=t):
                    saved = t.data
                    t.data = x
                    try:
                        return float(forward().data)
                    finally:
                        t.data = saved

                fd = oracle.fd_gradient(scalar_fn, t.data.copy(), FD_STEP)
                worst = max(worst, relative_error(analytic, fd))
            last = worst
            if worst < TOLERANCE:
                return worst
    return last


def run_all(instances: int = 20, seed: int = 0, progress=None) -> dict[str, float]:
    """Worst relative error per registered op over `instances` random draws."""
    if instances < 1:
        raise ConfigError(f"gradcheck needs at least one instance, got {instances}")
    results = {}
    for name in CASES:
        worst = 0.0
        for i in range(instances):
            err = run_case(name, seed + i)
            worst = max(worst, err)
        results[name] = worst
        if progress is not None:
            progress(name, worst)
    return results
