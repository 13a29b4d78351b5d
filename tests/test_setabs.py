import copy
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from pointvector import dataio, geometry, nnops, oracle, setabs, vecenc
from pointvector.errors import (
    ConfigError,
    DegenerateStatisticsError,
    InvalidNeighborhoodError,
    SizeError,
)
from pointvector.geometry import PointSetBatch
from pointvector.model import Model, preset_config
from pointvector.nnops import GradTape, LayerParams, Tensor
from pointvector.setabs import (
    BlockConfig,
    aggregation_variant,
    feature_propagate,
    sa_block,
    vpsa_block,
)


def random_cloud(rng, b=1, n=16, c=8):
    """A cloud of positions and its per-point features [B,N,C]."""
    cloud = PointSetBatch(positions=rng.uniform(-1, 1, (b, n, 3)))
    return cloud, rng.standard_normal((b, n, c))


def vpsa_weights_dict(p, cfg):
    """Flatten block params into the plain-array dict the oracle consumes."""
    w = {
        "pos_w": p.pos.weight.data, "pos_b": p.pos.bias.data,
        "zx_w": p.encoder.zx.weight.data,
        "zx_b": None if p.encoder.zx.bias is None else p.encoder.zx.bias.data,
        "proj_w": p.proj.weight.data,
        "mix_w": p.mix.weight.data,
        "mix_gamma": p.mix.norm_gamma.data,
        "mix_beta": p.mix.norm_beta.data,
        "mix_rmean": p.mix.running_mean,
        "mix_rvar": p.mix.running_var,
        "res_w": p.res.weight.data, "res_b": p.res.bias.data,
    }
    if cfg.vector_dim > 1:
        w.update({
            "ang_w": p.encoder.angles.weight.data,
            "ang_gamma": p.encoder.angles.norm_gamma.data,
            "ang_beta": p.encoder.angles.norm_beta.data,
            "ang_rmean": p.encoder.angles.running_mean,
            "ang_rvar": p.encoder.angles.running_var,
        })
    return w


class TestSABlock:
    def test_single_point_identity(self):
        pos = np.zeros((1, 1, 3))
        feat = np.array([[[1.0, -2.0]]])
        cfg = BlockConfig(in_channels=2, out_channels=5, k_neighbors=1)
        rng = np.random.default_rng(0)
        p = setabs.sa_block_params(rng, cfg)
        _, out = sa_block(PointSetBatch(positions=pos), Tensor(feat), cfg, p, "eval")
        h = np.concatenate([feat[0, 0], np.zeros(3)])
        pre = h @ p.mlp[0].weight.data
        expected = np.maximum(
            (pre - p.mlp[0].running_mean) / np.sqrt(p.mlp[0].running_var + nnops.BN_EPS),
            0.0)
        assert np.allclose(out.data[0, 0], expected)

    def test_neighbor_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            cloud, feats = random_cloud(rng, n=20, c=6)
            cfg = BlockConfig(in_channels=6, out_channels=8, k_neighbors=4)
            p = setabs.sa_block_params(rng, cfg)
            _, out = sa_block(cloud, Tensor(feats), cfg, p, "eval")
            perm = rng.permutation(20)
            permuted = PointSetBatch(positions=cloud.positions[:, perm])
            _, out_p = sa_block(permuted, Tensor(feats[:, perm]), cfg, p, "eval")
            # un-permute centers (stride 1 keeps center order = point order)
            inverse = np.argsort(perm)
            assert np.abs(out.data - out_p.data[:, perm.argsort()][
                :, np.arange(20)]).max() < 1e-9 or np.abs(
                out.data[:, perm] - out_p.data).max() < 1e-9

    def test_matches_naive_sa(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            cloud, feats = random_cloud(rng, n=12, c=4)
            cfg = BlockConfig(in_channels=4, out_channels=6, k_neighbors=3, stride=2)
            p = setabs.sa_block_params(rng, cfg)
            _, out = sa_block(cloud, Tensor(feats), cfg, p, "eval")
            centers = setabs._select_centers(cloud, 2)
            nbr = geometry.knn(centers, cloud, 3)
            expected = oracle.naive_sa(cloud.positions, feats, centers,
                                       nbr.indices, naive_layers(p.mlp), mode="eval")
            assert np.abs(out.data - expected).max() < 1e-10

    def test_feature_points_must_match_positions(self):
        rng = np.random.default_rng(3)
        cloud, feats = random_cloud(rng, n=10, c=4)
        cfg = BlockConfig(in_channels=4, out_channels=4, k_neighbors=2)
        p = setabs.sa_block_params(rng, cfg)
        with pytest.raises(SizeError, match="do not match positions"):
            sa_block(cloud, Tensor(feats[:, :9]), cfg, p, "eval")

    def test_stride_halves_points(self):
        rng = np.random.default_rng(3)
        cloud, feats = random_cloud(rng, n=10, c=4)
        cfg = BlockConfig(in_channels=4, out_channels=4, k_neighbors=2, stride=2)
        p = setabs.sa_block_params(rng, cfg)
        out, _ = sa_block(cloud, Tensor(feats), cfg, p, "eval")
        assert out.num_points == 5


class TestVPSABlock:
    def test_dead_main_path_reduces_to_residual(self):
        rng = np.random.default_rng(4)
        cloud, feats = random_cloud(rng, n=10, c=4)
        cfg = BlockConfig(in_channels=4, out_channels=4, k_neighbors=3)
        p = setabs.vpsa_block_params(rng, cfg)
        p.encoder.zx.weight.data = np.zeros_like(p.encoder.zx.weight.data)
        p.encoder.zx.bias.data = np.zeros_like(p.encoder.zx.bias.data)
        p.mix.norm_gamma.data = np.zeros_like(p.mix.norm_gamma.data)
        _, out = vpsa_block(cloud, Tensor(feats), cfg, p, "eval")
        expected = np.maximum(
            feats @ p.res.weight.data + p.res.bias.data, 0.0)
        assert np.abs(out.data - expected).max() < 1e-12

    @pytest.mark.parametrize("reduction", ["sum", "max"])
    def test_point_permutation_invariance(self, reduction):
        rng = np.random.default_rng(5)
        agg = f"{reduction}_groupconv"
        for _ in range(5):
            cloud, feats = random_cloud(rng, n=18, c=6)
            cfg = BlockConfig(in_channels=6, out_channels=6, k_neighbors=4,
                              aggregation=agg)
            p = setabs.vpsa_block_params(rng, cfg)
            _, out = vpsa_block(cloud, Tensor(feats), cfg, p, "eval")
            perm = rng.permutation(18)
            permuted = PointSetBatch(positions=cloud.positions[:, perm])
            _, out_p = vpsa_block(permuted, Tensor(feats[:, perm]), cfg, p, "eval")
            assert np.abs(out.data[:, perm] - out_p.data).max() < 1e-9

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("m_dim,reduction", [(3, "sum"), (3, "max"),
                                                 (2, "sum"), (1, "sum")])
    def test_matches_brute_force(self, mode, m_dim, reduction):
        rng = np.random.default_rng(6)
        for _ in range(6):
            cloud, feats = random_cloud(rng, b=1, n=16, c=8)
            cfg = BlockConfig(in_channels=8, out_channels=8, k_neighbors=4,
                              vector_dim=m_dim, aggregation=f"{reduction}_groupconv")
            p = setabs.vpsa_block_params(rng, cfg)
            # nonzero running stats and affine so the eval path is nontrivial
            for layer in [p.mix] + ([p.encoder.angles] if m_dim > 1 else []):
                c = layer.norm_gamma.data.shape[0]
                layer.norm_gamma.data = rng.uniform(0.5, 1.5, c)
                layer.norm_beta.data = rng.standard_normal(c) * 0.2
                layer.running_mean = rng.standard_normal(c) * 0.1
                layer.running_var = rng.uniform(0.5, 2.0, c)
            _, out = vpsa_block(cloud, Tensor(feats), cfg, p, mode)
            centers = setabs._select_centers(cloud, 1)
            nbr = geometry.knn(centers, cloud, 4)
            expected = oracle.brute_force_vpsa(
                cloud.positions, feats, centers, nbr.indices, None,
                vpsa_weights_dict(p, cfg), m_dim=m_dim, reduction=reduction,
                mode=mode)
            assert np.abs(out.data - expected).max() < 1e-10

    def test_strided_blocks_ignore_point_order(self):
        # FPS starts from the geometric start, so a permuted cloud gives the
        # same (center position, feature) rows
        rng = np.random.default_rng(29)
        cloud, feats = random_cloud(rng, b=2, n=24, c=4)
        perm = rng.permutation(24)
        permuted = PointSetBatch(positions=cloud.positions[:, perm])
        sa_cfg = BlockConfig(in_channels=4, out_channels=6, k_neighbors=4, stride=3)
        vpsa_cfg = BlockConfig(in_channels=4, out_channels=6, k_neighbors=4, stride=3)
        for block, cfg, p in [
                (sa_block, sa_cfg, setabs.sa_block_params(rng, sa_cfg)),
                (vpsa_block, vpsa_cfg, setabs.vpsa_block_params(rng, vpsa_cfg))]:
            rows = []
            for x, f in [(cloud, feats), (permuted, feats[:, perm])]:
                ctr, out = block(x, Tensor(f), cfg, p, "eval")
                order = np.lexsort(ctr.positions.transpose(2, 0, 1)[::-1])
                take = np.arange(2)[:, None], order
                rows.append((ctr.positions[take], out.data[take]))
            assert np.array_equal(rows[0][0], rows[1][0])
            assert np.abs(rows[0][1] - rows[1][1]).max() < 1e-12

    def test_channel_mismatch_config_error(self):
        rng = np.random.default_rng(7)
        cloud, feats = random_cloud(rng, n=8, c=4)
        cfg = BlockConfig(in_channels=6, out_channels=6, k_neighbors=2)
        p = setabs.vpsa_block_params(rng, cfg)
        with pytest.raises(SizeError, match="input channels"):
            vpsa_block(cloud, Tensor(feats), cfg, p, "eval")

    def test_strided_vpsa_downsamples_and_rewidths(self):
        rng = np.random.default_rng(8)
        cloud, feats = random_cloud(rng, n=12, c=4)
        cfg = BlockConfig(in_channels=4, out_channels=8, k_neighbors=3, stride=3)
        p = setabs.vpsa_block_params(rng, cfg)
        out, f = vpsa_block(cloud, Tensor(feats), cfg, p, "eval")
        assert out.num_points == 4
        assert f.data.shape[-1] == 8


def sa_mlp(rng, cin, cout, depth=1):
    """An SA block's shared MLP of `depth` layers, each with a third of its
    channels at gamma < 0, one at 0, and random running statistics."""
    cfg = BlockConfig(in_channels=cin, out_channels=cout, k_neighbors=1, sa_layers=depth)
    layers = setabs.sa_block_params(rng, cfg).mlp
    sign = np.where(np.arange(cout) % 3 == 1, -1.0, 1.0)
    for layer in layers:
        layer.norm_gamma.data = rng.uniform(0.5, 1.5, cout) * sign
        layer.norm_gamma.data[0] = 0.0
        layer.norm_beta.data = rng.uniform(-0.2, 0.6, cout)
        layer.running_mean = rng.standard_normal(cout) * 0.1
        layer.running_var = rng.uniform(0.5, 2.0, cout)
    return layers


def naive_layers(layers):
    """The shared MLP as the plain-array dicts oracle.naive_sa consumes."""
    return [{"w": layer.weight.data, "gamma": layer.norm_gamma.data,
             "beta": layer.norm_beta.data, "rmean": layer.running_mean,
             "rvar": layer.running_var} for layer in layers]


def sa_neighborhood(rng, search, offset, b=2, n=24, k=5, stride=2):
    cloud = PointSetBatch(positions=rng.uniform(-1, 1, (b, n, 3)) + offset)
    radius = 0.7 if search == "ball" else None
    cfg = BlockConfig(in_channels=1, out_channels=1, k_neighbors=k, stride=stride,
                      radius=radius)
    nbr = setabs.group(cloud, cfg)
    assert nbr.pad_mask.any() == (search == "ball")
    return cloud.positions, nbr


def sa_call(fn, positions, f, nbr, layers, mode):
    """fn, setabs.pooled_sa or oracle.composed_sa, over the neighborhoods
    of an SA block's centers."""
    ctr = positions[np.arange(positions.shape[0])[:, None], nbr.centers]
    return fn(positions, ctr, f, nbr.indices, nbr.pad_mask, layers, mode)


def run_sa(fn, positions, feat, nbr, layers, mode, probe):
    """Output, the gradient of f, then per layer the gradients of W, gamma
    and beta (when the layer has one) and the running statistics, after one
    SA pass."""
    ctr = positions[np.arange(positions.shape[0])[:, None], nbr.centers]
    return run_pooled(fn, positions, ctr, feat, nbr.indices, nbr.pad_mask, layers, mode,
                      probe)


def run_pooled(fn, positions, ctr, feat, idx, pad, layers, mode, probe):
    """`run_sa` for one call of fn, setabs.pooled_sa or oracle.composed_sa,
    with its own arguments."""
    layers = copy.deepcopy(layers)
    f = Tensor(feat.copy(), requires_grad=True)
    with GradTape() as tape:
        out = fn(positions, ctr, f, idx, pad, layers, mode)
        grads = nnops.backward(tape, nnops.sum_all(nnops.mul(out, Tensor(probe))))
    return [out.data, grads[f]] + [
        a for layer in layers
        for a in [grads[t] for _, t in layer.tensors()]
        + [layer.running_mean, layer.running_var]]


SA_CASES = [(mode, search, offset) for mode in ("train", "eval")
            for search in ("knn", "ball") for offset in (0.0, 1e3)]
# SA_CASES at MLP depths 1, 2 and 3; a depth-1 case keeps the id of its SA_CASES entry
SA_DEPTH_CASES = [
    pytest.param(mode, search, offset, depth, id="-".join(
        [mode, search, str(offset)] + ([f"depth{depth}"] if depth > 1 else [])))
    for depth in (1, 2, 3) for mode, search, offset in SA_CASES]
TIE_CASES = [pytest.param(mode, depth, id=mode + (f"-depth{depth}" if depth > 1 else ""))
             for depth in (1, 2, 3) for mode in ("train", "eval")]


def zero_gamma_dgamma(depth):
    """(got, want) of the last layer's gamma gradient on a channel with
    gamma 0 and relu(beta) > 0, in eval mode: want is the probe-weighted sum
    of that channel's x-hat at slot 0, the layers applied to slot 0 alone."""
    rng = np.random.default_rng(23)
    positions, nbr = sa_neighborhood(rng, "knn", 0.0)
    feat = rng.standard_normal((2, 24, 4))
    layers = sa_mlp(rng, 4, 7, depth)
    layers[-1].norm_beta.data[0] = 0.5  # channel 0: gamma 0, relu(beta) > 0
    probe = rng.standard_normal((2, 12, 7))
    got = run_sa(setabs.pooled_sa, positions, feat, nbr, layers, "eval", probe)[-4]
    batch = np.arange(2)[:, None]
    first = nbr.indices[:, :, 0]
    h = np.concatenate([feat[batch, first], positions[batch, first]
                        - positions[batch, nbr.centers]], axis=-1)
    for layer in layers:
        xhat = ((h @ layer.weight.data - layer.running_mean)
                / np.sqrt(layer.running_var + nnops.BN_EPS))
        h = np.maximum(xhat * layer.norm_gamma.data + layer.norm_beta.data, 0.0)
    return got[0], (probe[..., 0] * xhat[..., 0]).sum()


def pooled_sa_held(fn, b=2, n=256, cin=16, stride=4, k=16, c=32):
    """[B,M,K,C] float64 arrays that one depth-2 SA op holds for backward
    once it returns, its output aside (tracemalloc, train mode)."""
    rng = np.random.default_rng(26)
    cloud, feats = random_cloud(rng, b=b, n=n, c=cin)
    cfg = BlockConfig(in_channels=cin, out_channels=c, k_neighbors=k, stride=stride,
                      sa_layers=2)
    nbr = setabs.group(cloud, cfg)
    layers = setabs.sa_block_params(rng, cfg).mlp
    f = Tensor(feats, requires_grad=True)
    with GradTape():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = sa_call(fn, cloud.positions, f, nbr, layers, "train")
            now = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return (now - before - out.data.nbytes) / (b * nbr.indices.shape[1] * k * c * 8)


class TestPooledSA:
    @pytest.mark.parametrize("mode,search,offset,depth", SA_DEPTH_CASES)
    def test_matches_naive_sa(self, mode, search, offset, depth):
        rng = np.random.default_rng(20)
        for _ in range(3):
            positions, nbr = sa_neighborhood(rng, search, offset)
            feat = rng.standard_normal((2, 24, 4))
            layers = sa_mlp(rng, 4, 7, depth)
            expected = oracle.naive_sa(positions, feat, nbr.centers, nbr.indices,
                                       naive_layers(layers), mode=mode)
            ctr = positions[np.arange(2)[:, None], nbr.centers]
            out = setabs.pooled_sa(positions, ctr, Tensor(feat), nbr.indices,
                                   nbr.pad_mask, layers, mode)
            assert np.abs(out.data - expected).max() < 1e-10

    @pytest.mark.parametrize("mode,search,offset,depth", SA_DEPTH_CASES)
    def test_value_and_gradients_match_composition(self, mode, search, offset, depth):
        """Value, the gradient of f, every layer's W, gamma and beta
        gradients and running statistics, against oracle.composed_sa."""
        rng = np.random.default_rng(21)
        for _ in range(3):
            positions, nbr = sa_neighborhood(rng, search, offset)
            feat = rng.standard_normal((2, 24, 4))
            layers = sa_mlp(rng, 4, 7, depth)
            probe = rng.standard_normal((2, 12, 7))
            got = run_sa(setabs.pooled_sa, positions, feat, nbr, layers, mode, probe)
            want = run_sa(oracle.composed_sa, positions, feat, nbr, layers, mode, probe)
            assert len(got) == len(want) == 2 + 5 * depth
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("mode,depth", TIE_CASES)
    def test_ties_route_to_the_first_slot(self, mode, depth):
        # every point twice, so every max and min is an exact tie between two
        # slots; knn puts the lower index, the first copy, first
        rng = np.random.default_rng(22)
        half = PointSetBatch(positions=rng.uniform(-1, 1, (1, 12, 3)))
        positions = np.concatenate([half.positions, half.positions], axis=1)
        feat = np.tile(rng.standard_normal((1, 12, 4)), (1, 2, 1))
        cfg = BlockConfig(in_channels=4, out_channels=6, k_neighbors=6, stride=2)
        nbr = setabs.group(PointSetBatch(positions=positions), cfg)
        layers = sa_mlp(rng, 4, 6, depth)
        probe = rng.standard_normal((1, 12, 6))
        got = run_sa(setabs.pooled_sa, positions, feat, nbr, layers, mode, probe)
        want = run_sa(oracle.composed_sa, positions, feat, nbr, layers, mode, probe)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), 1.0)
        if mode == "eval":
            # only the selected slot gets a gradient, never the second copy
            assert np.abs(got[1][0, 12:]).max() == 0.0
            assert np.abs(got[1][0, :12]).max() > 0.0

    def test_zero_gamma_channel_routes_to_slot_zero(self):
        got, want = zero_gamma_dgamma(1)
        assert abs(got - want) < 1e-12

    def test_zero_gamma_channel_routes_to_slot_zero_at_depth_2(self):
        got, want = zero_gamma_dgamma(2)
        assert abs(got - want) < 1e-12

    def test_zero_gamma_channel_routes_to_slot_zero_at_depth_3(self):
        # sa_mlp zeroes channel 0's gamma in every layer, the first and the
        # middle one included
        got, want = zero_gamma_dgamma(3)
        assert abs(got - want) < 1e-12

    def test_deep_train_mode_needs_two_rows(self):
        # one center with one neighbor is one row per channel: the first
        # batchnorm of a depth-2 block has no batch statistics to take
        rng = np.random.default_rng(27)
        positions = rng.uniform(-1, 1, (1, 1, 3))
        idx = np.zeros((1, 1, 1), dtype=np.int64)
        feat = Tensor(rng.standard_normal((1, 1, 4)))
        with pytest.raises(DegenerateStatisticsError, match=">=2 samples"):
            setabs.pooled_sa(positions, positions, feat, idx, idx.astype(bool),
                             sa_mlp(rng, 4, 7, 2), "train")

    def test_pads_must_repeat_slot_zero(self):
        rng = np.random.default_rng(24)
        positions, nbr = sa_neighborhood(rng, "ball", 0.0)
        layers = sa_mlp(rng, 4, 7)
        feat = Tensor(rng.standard_normal((2, 24, 4)))
        b, i, j = np.argwhere(nbr.pad_mask)[0]
        nbr.indices[b, i, j] = (nbr.indices[b, i, 0] + 1) % 24
        ctr = positions[np.arange(2)[:, None], nbr.centers]
        with pytest.raises(InvalidNeighborhoodError, match="repeat"):
            setabs.pooled_sa(positions, ctr, feat, nbr.indices, nbr.pad_mask, layers,
                             "train")

    def test_channel_mismatch(self):
        rng = np.random.default_rng(25)
        positions, nbr = sa_neighborhood(rng, "knn", 0.0)
        ctr = positions[np.arange(2)[:, None], nbr.centers]
        with pytest.raises(SizeError, match="input channels"):
            setabs.pooled_sa(positions, ctr, Tensor(np.zeros((2, 24, 5))), nbr.indices,
                             nbr.pad_mask, sa_mlp(rng, 4, 7), "train")
        with pytest.raises(SizeError, match="center positions"):
            setabs.pooled_sa(positions, ctr[:, :-1], Tensor(np.zeros((2, 24, 4))),
                             nbr.indices, nbr.pad_mask, sa_mlp(rng, 4, 7), "train")

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("bad,match", [
        ("past_end", "out of range"), ("negative", "out of range"),
        ("float", "integer"), ("pad_shape", "pad mask")],
        ids=["past_end", "negative", "float", "pad_shape"])
    def test_bad_neighborhood_is_size_error(self, mode, bad, match):
        """With B=2 and N=6, index 6 in cloud 0 would read cloud 1's first
        point and -1 the batch's last point; float indices and a pad mask
        of another shape would fail inside numpy."""
        rng = np.random.default_rng(29)
        positions = rng.uniform(-1, 1, (2, 6, 3))
        idx = np.tile(np.arange(3), (2, 2, 1))
        pad = np.zeros(idx.shape, dtype=bool)
        if bad == "past_end":
            idx[0, 1, 2] = 6
        elif bad == "negative":
            idx[0, 1, 2] = -1
        elif bad == "float":
            idx = idx.astype(np.float64)
        else:
            pad = pad[..., :2]
        feat = Tensor(rng.standard_normal((2, 6, 4)))
        with pytest.raises(SizeError, match=match):
            setabs.pooled_sa(positions, positions[:, :2], feat, idx, pad,
                             sa_mlp(rng, 4, 7), mode)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_betaless_last_layer_matches_composition(self, mode, depth):
        """A last layer without beta, like the classification head's
        global_sa, shifts by 0: value, every gradient and the running
        statistics against oracle.composed_sa."""
        rng = np.random.default_rng(28)
        for search in ("knn", "ball"):
            positions, nbr = sa_neighborhood(rng, search, 0.0)
            feat = rng.standard_normal((2, 24, 4))
            layers = sa_mlp(rng, 4, 7, depth)
            layers[-1].norm_beta = None
            probe = rng.standard_normal((2, 12, 7))
            got = run_sa(setabs.pooled_sa, positions, feat, nbr, layers, mode, probe)
            want = run_sa(oracle.composed_sa, positions, feat, nbr, layers, mode, probe)
            assert len(got) == len(want) == 1 + 5 * depth
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_deep_sa_block_is_one_pooled_op(self, mode):
        """A depth-2 block makes one pooled_sa call with its whole MLP, and
        a tape records that one op for it."""
        rng = np.random.default_rng(26)
        cloud, feats = random_cloud(rng, n=12, c=4)
        cfg = BlockConfig(in_channels=4, out_channels=6, k_neighbors=3, stride=2,
                          sa_layers=2)
        p = setabs.sa_block_params(rng, cfg)
        with mock.patch.object(setabs, "pooled_sa", wraps=setabs.pooled_sa) as pooled, \
                GradTape() as tape:
            _, out = sa_block(cloud, Tensor(feats, requires_grad=True), cfg, p, mode)
        assert pooled.call_count == 1
        assert pooled.call_args.args[5] is p.mlp
        assert len(tape) == 1
        assert out.data.shape == (1, 6, 6)

    def test_deep_op_holds_under_two_neighbor_arrays(self):
        """The depth-2 op keeps the last layer's channel-major x-hat and no
        other [B,M,K,C] array, and per point only a - mu_a, the gather counts
        and the gathered center positions: 1.62 arrays (B=2, N=256, 16
        channels, stride 4, K=16, C=32), bounded at 1.7. Keeping a' and u per
        point as well holds 2.12; the op that kept the first layer's a and b
        and standardized the gathered block held 1.65, and the composed
        block, oracle.composed_sa, holds about 4."""
        assert pooled_sa_held(setabs.pooled_sa) <= 1.7


@pytest.mark.matrix
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_deep_sa_on_scene_clouds_equals_composition(mode, monkeypatch):
    # every pooled_sa call of a toy-seg-ball model with three-layer SA
    # blocks, a first, a middle and a last layer, in a forward on the
    # fit-toy-ball benchmark's batch: B=8 scene clouds of 512 points
    data = dataio.make_segmentation_dataset(num_scenes=8, num_points=512, seed=0)
    mdl = Model(preset_config("toy-seg-ball", num_classes=data.num_classes, sa_layers=3),
                seed=1)
    rng = np.random.default_rng(29)
    for layer in mdl.layer_map().values():
        if layer.running_mean is not None:
            c = layer.running_mean.shape[0]
            layer.running_mean = rng.standard_normal(c) * 0.1
            layer.running_var = rng.uniform(0.5, 2.0, c)
    calls = []
    pooled = setabs.pooled_sa

    def spy(positions, ctr, f, idx, pad, layers, mode):
        calls.append((positions, ctr, f.data.copy(), idx, pad, copy.deepcopy(layers), mode))
        return pooled(positions, ctr, f, idx, pad, layers, mode)

    monkeypatch.setattr(setabs, "pooled_sa", spy)
    mdl.forward_seg(PointSetBatch(positions=data.positions), mode)
    assert len(calls) == 2 and all(len(call[5]) == 3 for call in calls)
    assert calls[0][4].any()   # the first ball query pads
    for call in calls:
        probe = rng.standard_normal(call[1].shape[:2] + (call[5][-1].weight.data.shape[1],))
        got = run_pooled(pooled, *call, probe)
        want = run_pooled(oracle.composed_sa, *call, probe)
        assert len(got) == len(want) == 2 + 5 * 3
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


class TestVPSAMixing:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("search", ["knn", "ball"])
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_brute_force(self, mode, search, offset, stride):
        rng = np.random.default_rng(27)
        for _ in range(2):
            cloud, feats = random_cloud(rng, b=2, n=16, c=6)
            cloud = PointSetBatch(positions=cloud.positions + offset)
            cfg = BlockConfig(in_channels=6, out_channels=6, k_neighbors=5,
                              stride=stride, radius=0.8 if search == "ball" else None)
            p = setabs.vpsa_block_params(rng, cfg)
            p.pos.bias.data = rng.uniform(-0.3, 0.3, 6)
            nbr = setabs.group(cloud, cfg)
            assert nbr.pad_mask.any() == (search == "ball")
            _, out = vpsa_block(cloud, Tensor(feats), cfg, p, mode,
                                nbr=nbr if stride == 1 else None)
            expected = oracle.brute_force_vpsa(
                cloud.positions, feats, nbr.centers, nbr.indices,
                nbr.pad_mask, vpsa_weights_dict(p, cfg), mode=mode)
            assert np.abs(out.data - expected).max() < 1e-10

    def test_equals_the_grouped_mixing(self):
        # in train mode the default cell mixes every neighbor at once, in vecenc._mixed
        rng = np.random.default_rng(28)
        cloud, feats = random_cloud(rng, b=2, n=16, c=6)
        cfg = BlockConfig(in_channels=6, out_channels=6, k_neighbors=5, stride=2)
        p = setabs.vpsa_block_params(rng, cfg)
        p.pos.bias.data = rng.uniform(-0.3, 0.3, 6)
        nbr = setabs.group(cloud, cfg)
        mixed = []
        original = vecenc._mixed

        def spy(*args):
            fp = original(*args)
            mixed.append(fp.copy())
            return fp

        with mock.patch.object(vecenc, "_mixed", spy):
            vpsa_block(cloud, Tensor(feats), cfg, p, "train")
        rel_feat, rel_pos = oracle.group_relative(cloud.positions, feats, nbr)
        want = oracle.mix_features(Tensor(rel_feat), Tensor(rel_pos), p.pos).data
        assert len(mixed) == 1
        assert np.abs(mixed[0] - want).max() < 1e-12


def vpsa_with_statistics(rng, cfg):
    """Default-cell VPSA params with random biases, norm affines and running
    statistics, so that every eval-mode term is nontrivial."""
    p = setabs.vpsa_block_params(rng, cfg)
    for layer in (p.pos, p.encoder.zx, p.res):
        layer.bias.data = rng.uniform(-0.3, 0.3, layer.bias.data.shape)
    for layer in (p.encoder.angles, p.mix):
        c = layer.norm_gamma.data.shape[0]
        layer.norm_gamma.data = rng.uniform(0.5, 1.5, c)
        layer.norm_beta.data = rng.standard_normal(c) * 0.2
        layer.running_mean = rng.standard_normal(c) * 0.1
        layer.running_var = rng.uniform(0.5, 2.0, c)
    return p


def tiled_inputs(rng, b, n, m, k, c, padded=False):
    """Arguments of vecenc.rotate_cell with random neighbor indices, u and
    ctr as parameters, and, when `padded`, pads that leave slot 0 real."""
    p = vpsa_with_statistics(rng, BlockConfig(in_channels=c, out_channels=c,
                                              k_neighbors=k))
    u = nnops.parameter(rng.standard_normal((b, n, c)))
    ctr = nnops.parameter(rng.standard_normal((b, m, c)))
    idx = rng.integers(0, n, (b, m, k))
    pad = None
    if padded:
        pad = rng.random((b, m, k)) < 0.3
        pad[..., 0] = False
    return u, ctr, idx, pad, p.encoder, p.proj


class TestTiledInference:
    """The default cell in eval mode, vecenc.rotate_cell(..., "eval"): each
    tile of centers gathers its own mixed features, with or without a tape,
    and equals the op-by-op chain oracle.unfused_rotate_cell in eval mode."""

    @pytest.mark.parametrize("stride,search,offset,b", [
        (1, "knn", 0.0, 2), (2, "knn", 0.0, 2), (1, "ball", 0.0, 2),
        (2, "ball", 1e3, 2), (1, "knn", 1e3, 1), (2, "ball", 0.0, 1)])
    def test_equals_the_composed_path(self, stride, search, offset, b, monkeypatch):
        """A tape-free eval block against the same block whose cell is the
        composed chain."""
        rng = np.random.default_rng(40)
        cloud, feats = random_cloud(rng, b=b, n=30, c=6)
        cloud = PointSetBatch(positions=cloud.positions + offset)
        cfg = BlockConfig(in_channels=6, out_channels=8, k_neighbors=5, stride=stride,
                          radius=0.8 if search == "ball" else None)
        p = vpsa_with_statistics(rng, cfg)
        # 4 centers per tile, so the last tile of 15 or 30 centers is partial
        monkeypatch.setattr(vecenc, "_TILE_BYTES", 4 * 5 * 18 * 8)
        with mock.patch.object(vecenc, "rotate_cell", wraps=vecenc.rotate_cell) as cell:
            _, got = vpsa_block(cloud, Tensor(feats), cfg, p, "eval")
        assert cell.call_count == 1 and cell.call_args.args[6] == "eval"
        if search == "ball":
            assert cell.call_args.args[3] is not None   # pads reach the op
        monkeypatch.setattr(vecenc, "rotate_cell", oracle.unfused_rotate_cell)
        _, want = vpsa_block(cloud, Tensor(feats), cfg, p, "eval")
        assert np.abs(got.data - want.data).max() <= 1e-12 * np.abs(want.data).max()

    @pytest.mark.parametrize("tape", [False, True], ids=["tape_free", "under_a_tape"])
    @pytest.mark.parametrize("padded", [False, True])
    def test_equals_the_unfused_chain(self, padded, tape, monkeypatch):
        """The value and, under a tape, all eight input gradients; 4 centers
        per tile, so the last of the 2 x 7 centers' tiles is partial."""
        rng = np.random.default_rng(44)
        u, ctr, idx, pad, enc, proj = tiled_inputs(rng, 2, 12, 7, 5, 6, padded)
        monkeypatch.setattr(vecenc, "_TILE_BYTES", 4 * 5 * 18 * 8)
        probe = rng.standard_normal((2, 7, 6))
        leaves = [u, ctr] + [t for layer in (enc.zx, enc.angles, proj)
                             for _, t in layer.tensors()]
        runs = []
        for cell in (vecenc.rotate_cell, oracle.unfused_rotate_cell):
            if not tape:
                runs.append((cell(u, ctr, idx, pad, enc, proj, "eval").data, []))
                continue
            with GradTape() as t:
                out = cell(u, ctr, idx, pad, enc, proj, "eval")
                grads = nnops.backward(t, nnops.sum_all(nnops.mul(out, Tensor(probe))))
            runs.append((out.data, [grads[x] for x in leaves]))
        (got, got_grads), (want, want_grads) = runs
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert len(got_grads) == (8 if tape else 0)
        for g, w in zip(got_grads, want_grads):
            assert g.shape == w.shape and np.abs(w).max() > 0
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_single_precision(self):
        rng = np.random.default_rng(41)
        u, ctr, idx, _, enc, proj = tiled_inputs(rng, 2, 40, 20, 6, 8)
        want = vecenc.rotate_cell(u, ctr, idx, None, enc, proj, "eval")
        enc32, proj32 = copy.deepcopy((enc, proj))
        for layer in (enc32.zx, enc32.angles, proj32):
            for _, t in layer.tensors():
                t.data = t.data.astype(np.float32)
        enc32.angles.running_mean = enc32.angles.running_mean.astype(np.float32)
        enc32.angles.running_var = enc32.angles.running_var.astype(np.float32)
        got = vecenc.rotate_cell(Tensor(u.data.astype(np.float32)),
                                 Tensor(ctr.data.astype(np.float32)), idx, None,
                                 enc32, proj32, "eval")
        assert got.data.dtype == np.float32
        assert np.abs(got.data - want.data).max() <= 1e-4 * np.abs(want.data).max()

    def test_builds_no_neighbor_tensor(self):
        # one [B,M,K,C] float64 array at B=2, M=2048, K=8, C=64 is 16.8 MB
        rng = np.random.default_rng(43)
        u, ctr, idx, _, enc, proj = tiled_inputs(rng, 2, 2048, 2048, 8, 64)
        tracemalloc.start()
        try:
            vecenc.rotate_cell(u, ctr, idx, None, enc, proj, "eval")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2048 * 8 * 64 * 8


def numpy_aggregation(v, pad, mode, p):
    """The six aggregation modes written out in numpy; v [B,M,K,C,m]."""
    b, mm, k, c, m = v.shape
    keep = np.ones((b, mm, k, 1, 1), bool) if pad is None else ~pad[..., None, None]
    if mode.startswith("sum"):
        agg = (v * keep).sum(axis=2)[:, :, None]               # [B,M,1,C,m]
    elif mode.startswith("max"):
        agg = np.where(keep, v, -np.inf).max(axis=2)[:, :, None]
    else:
        agg = v * keep                                           # all K slots, pads 0
    if mode.endswith("groupconv"):
        # channel c: its slots' m-vectors, slot-major, dotted with row c of proj
        out = np.empty((b, mm, c))
        for ci in range(c):
            out[..., ci] = agg[:, :, :, ci, :].reshape(b, mm, -1) @ p.proj.weight.data[ci]
        return out
    return agg.reshape(b, mm, -1)                              # [B,M,K'·C·m]


class TestAggregationVariants:
    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("mode", setabs.AGGREGATION_MODES)
    def test_matches_numpy_formula(self, mode, padded):
        rng = np.random.default_rng(19)
        b, mm, k, c, m = 2, 5, 4, 6, 2
        cfg = BlockConfig(in_channels=c, out_channels=3, k_neighbors=k, vector_dim=m,
                          aggregation=mode)
        for _ in range(3):
            p = setabs.vpsa_block_params(rng, cfg)
            v = rng.standard_normal((b, mm, k, c, m))
            pad = None
            if padded:
                pad = rng.random((b, mm, k)) < 0.4
                pad[..., 0] = False
            out = aggregation_variant(Tensor(v), mode, p, pad).data
            want = numpy_aggregation(v, pad, mode, p)
            width = c if p.fc is None else (1 if mode.endswith("fc") else k) * c * m
            assert out.shape == want.shape == (b, mm, width)
            assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()

    def test_masked_slots_hold_only_the_mask_for_backward(self):
        """Zeroing the pads of a slot-keeping mode under a tape keeps the
        [B,M,K] mask for backward, not the unmasked field: a [2,256,16,32,3]
        float64 field (6.3 MB) is freed once the forward drops it."""
        rng = np.random.default_rng(16)
        x = nnops.parameter(rng.standard_normal((2, 256, 16, 32, 3)))
        pad = rng.random((2, 256, 16)) < 0.3
        pad[..., 0] = False
        with GradTape():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                v = nnops.add(x, x)     # a recorded field whose closure holds no array
                out = setabs._mask_padded(v, pad)
                del v
                held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
            finally:
                tracemalloc.stop()
        assert held <= pad.size * 8 + 4096   # the float64 mask and the record

    def test_sum_groupconv_linearity_in_neighbors(self):
        rng = np.random.default_rng(9)
        c, m, k = 4, 3, 5
        single = rng.standard_normal((1, 1, 1, c, m))
        repeated = np.repeat(single, k, axis=2)
        cfg = BlockConfig(in_channels=c, out_channels=c, k_neighbors=k,
                          vector_dim=m)
        p = setabs.vpsa_block_params(rng, cfg)
        out_k = aggregation_variant(Tensor(repeated), "sum_groupconv", p).data
        out_1 = aggregation_variant(Tensor(single), "sum_groupconv", p).data
        assert np.abs(out_k - k * out_1).max() < 1e-10

    def test_max_fc_zero_weights_bias(self):
        rng = np.random.default_rng(10)
        c, m, k, cout = 4, 3, 5, 6
        cfg = BlockConfig(in_channels=c, out_channels=cout, k_neighbors=k,
                          vector_dim=m, aggregation="max_fc")
        p = setabs.vpsa_block_params(rng, cfg)
        p.fc.weight.data = np.zeros_like(p.fc.weight.data)
        v = Tensor(rng.standard_normal((2, 3, k, c, m)))
        field = aggregation_variant(v, "max_fc", p)
        assert np.array_equal(field.data, v.data.max(axis=2).reshape(2, 3, c * m))
        out = nnops.linear(field, p.fc)
        assert np.abs(out.data).max() == 0.0  # bias-free linear before the norm

    def test_sum_groupconv_is_special_case_of_groupconv(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            c, m, k = 5, 3, 4
            v = Tensor(rng.standard_normal((2, 6, k, c, m)))
            cfg = BlockConfig(in_channels=c, out_channels=c, k_neighbors=k,
                              vector_dim=m)
            p = setabs.vpsa_block_params(rng, cfg)
            fused = aggregation_variant(v, "sum_groupconv", p).data
            slots = setabs.vpsa_block_params(
                rng, BlockConfig(in_channels=c, out_channels=c, k_neighbors=k,
                                 vector_dim=m, aggregation="groupconv"))
            # the same m-vector kernel in every slot
            slots.proj = nnops.LayerParams(
                weight=nnops.parameter(np.tile(p.proj.weight.data, (1, k))))
            general = aggregation_variant(v, "groupconv", slots).data
            assert np.abs(fused - general).max() < 1e-10

    def test_fused_equals_reduce_then_project(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            c, m, k = 6, 3, 5
            v = Tensor(rng.standard_normal((2, 4, k, c, m)))
            cfg = BlockConfig(in_channels=c, out_channels=c, k_neighbors=k,
                              vector_dim=m)
            p = setabs.vpsa_block_params(rng, cfg)
            fused = aggregation_variant(v, "sum_groupconv", p).data
            summed = nnops.neighbor_reduce(v, "sum")
            factored = nnops.grouped_projection(
                nnops.reshape(summed, (2, 4, 1, c, m)), p.proj).data
            assert np.abs(fused - factored).max() < 1e-12

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(13)
        cfg = BlockConfig(in_channels=4, out_channels=4, k_neighbors=2)
        p = setabs.vpsa_block_params(rng, cfg)
        with pytest.raises(ConfigError):
            aggregation_variant(Tensor(np.zeros((1, 2, 2, 4, 3))), "mean_pool", p)

    def test_parameter_count_ordering(self):
        # dense conv > FC variants > per-channel groupconv variants
        from pointvector.model import param_count
        rng = np.random.default_rng(14)
        counts = {}
        for agg in ("conv", "sum_fc", "max_fc", "groupconv", "sum_groupconv",
                    "max_groupconv"):
            cfg = BlockConfig(in_channels=32, out_channels=32, k_neighbors=8,
                              vector_dim=3, aggregation=agg)
            counts[agg] = param_count(setabs.vpsa_block_params(rng, cfg))
        assert counts["conv"] > counts["sum_fc"] == counts["max_fc"]
        assert counts["sum_fc"] > counts["groupconv"]
        assert counts["groupconv"] > counts["sum_groupconv"] == counts["max_groupconv"]

    def test_all_variants_run_and_differ(self):
        rng = np.random.default_rng(15)
        v = Tensor(rng.standard_normal((1, 3, 4, 5, 3)))
        outs = {}
        for agg in setabs.AGGREGATION_MODES:
            cfg = BlockConfig(in_channels=5, out_channels=5, k_neighbors=4,
                              vector_dim=3, aggregation=agg)
            p = setabs.vpsa_block_params(rng, cfg)
            outs[agg] = aggregation_variant(v, agg, p).data
            assert outs[agg].shape[:2] == (1, 3)


class TestFeaturePropagate:
    def test_coincident_point_copies_feature(self):
        rng = np.random.default_rng(16)
        coarse_pos = rng.uniform(-1, 1, (1, 4, 3))
        coarse_feat = rng.standard_normal((1, 4, 5))
        fine_pos = coarse_pos[:, :1].copy()
        idx = geometry.knn_points(fine_pos, PointSetBatch(positions=coarse_pos), 3)
        diff = fine_pos[:, :, None, :] - coarse_pos[0][idx]
        d2 = (diff ** 2).sum(-1)
        w = 1.0 / (d2 + 1e-8)
        w = w / w.sum(-1, keepdims=True)
        interp = (coarse_feat[0][idx] * w[..., None]).sum(2)
        assert np.abs(interp[0, 0] - coarse_feat[0, 0]).max() < 1e-4

    def test_equidistant_pair_averages(self):
        coarse_pos = np.array([[[1.0, 0, 0], [-1.0, 0, 0]]])
        coarse_feat = np.array([[[2.0], [4.0]]])
        fine_pos = np.zeros((1, 1, 3))
        out = oracle.naive_interpolate(coarse_pos, coarse_feat, fine_pos, num=2)
        assert np.abs(out[0, 0, 0] - 3.0) < 1e-9

    def test_matches_naive_interpolation(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            coarse, coarse_feats = random_cloud(rng, n=10, c=6)
            fine_pos = rng.uniform(-1, 1, (1, 25, 3))
            skip = Tensor(np.zeros((1, 25, 2)))
            # isolate the interpolation: the decoder's first op with
            # W = [I; 0] gives the interpolated features alone
            layer = LayerParams(weight=Tensor(np.vstack([np.eye(6), np.zeros((2, 6))])))
            idx = geometry.knn_points(fine_pos, coarse, 3)
            diff = (fine_pos[:, :, None, :] - coarse.positions[0][idx])
            d2 = np.einsum("bnkc,bnkc->bnk", diff, diff)
            w = 1.0 / (d2 + 1e-8)
            w = w / w.sum(-1, keepdims=True)
            interp = setabs._interpolate_linear(Tensor(coarse_feats), skip, idx, w, layer)
            expected = oracle.naive_interpolate(coarse.positions, coarse_feats,
                                                fine_pos)
            assert np.abs(interp.data - expected).max() < 1e-10

    def test_full_block_runs(self):
        rng = np.random.default_rng(18)
        coarse, coarse_feats = random_cloud(rng, n=6, c=4)
        fine_pos = rng.uniform(-1, 1, (1, 15, 3))
        skip = Tensor(rng.standard_normal((1, 15, 3)))
        p = setabs.fp_params(rng, 4, 3, 8)
        out = feature_propagate(coarse, Tensor(coarse_feats), fine_pos, skip, p,
                                "train")
        assert out.data.shape == (1, 15, 8)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("b,n_coarse", [(2, 6), (1, 2)])
    def test_matches_unfused_decoder_step(self, mode, b, n_coarse):
        rng = np.random.default_rng(19)
        coarse, coarse_feats = random_cloud(rng, b=b, n=n_coarse, c=5)
        fine_pos = rng.uniform(-1, 1, (b, 11, 3))
        skip = rng.standard_normal((b, 11, 3))
        p = setabs.fp_params(rng, 5, 3, 4)
        for layer in (p.mlp1, p.mlp2):
            layer.norm_gamma.data = rng.uniform(-1.5, 1.5, 4)
            layer.norm_beta.data = rng.standard_normal(4)
            layer.running_mean = rng.standard_normal(4)
            layer.running_var = rng.uniform(0.5, 2.0, 4)
        q = copy.deepcopy(p)
        got = feature_propagate(coarse, Tensor(coarse_feats), fine_pos, Tensor(skip),
                                p, mode).data
        want = oracle.unfused_feature_propagate(coarse.positions, coarse_feats,
                                                fine_pos, skip, q, mode)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        for layer, ref in ((p.mlp1, q.mlp1), (p.mlp2, q.mlp2)):
            np.testing.assert_allclose(layer.running_mean, ref.running_mean, rtol=1e-12)
            np.testing.assert_allclose(layer.running_var, ref.running_var, rtol=1e-12)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_first_layer_is_one_op(self, mode):
        """A tape records six ops for the decoder step in train mode: the
        first linear with its interpolation, batchnorm, ReLU, and mlp2's
        linear, batchnorm and ReLU. In eval mode it records four without
        the batchnorms, and four small ops for each layer's fold."""
        rng = np.random.default_rng(21)
        coarse, coarse_feats = random_cloud(rng, n=6, c=4)
        fine_pos = rng.uniform(-1, 1, (1, 15, 3))
        p = setabs.fp_params(rng, 4, 3, 8)
        with mock.patch.object(setabs, "_interpolate_linear",
                               wraps=setabs._interpolate_linear) as first, GradTape() as tape:
            feature_propagate(coarse, nnops.parameter(coarse_feats), fine_pos,
                              nnops.parameter(rng.standard_normal((1, 15, 3))), p, mode)
        assert first.call_count == 1
        assert len(tape) == (6 if mode == "train" else 4 + 2 * 4)

    # a wrong N, N = 1, a wrong B (each named beside the fine positions) and
    # a wrong channel count (named beside the coarse features)
    @pytest.mark.parametrize("skip_shape,other", [
        ((1, 8, 3), (1, 9, 3)), ((1, 1, 3), (1, 9, 3)), ((2, 9, 3), (1, 9, 3)),
        ((1, 9, 2), (1, 5, 4))])
    def test_skip_features_must_fit_fine_points_and_mlp1(self, skip_shape, other):
        rng = np.random.default_rng(20)
        coarse, coarse_feats = random_cloud(rng, n=5, c=4)
        fine_pos = rng.uniform(-1, 1, (1, 9, 3))
        p = setabs.fp_params(rng, 4, 3, 6)
        skip = Tensor(rng.standard_normal(skip_shape))
        with pytest.raises(SizeError) as err:
            feature_propagate(coarse, Tensor(coarse_feats), fine_pos, skip, p, "eval")
        assert str(skip_shape) in str(err.value) and str(other) in str(err.value)


class TestInterpolateLinear:
    """setabs._interpolate_linear, the decoder's first linear as one op."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("slots", [1, 3])
    def test_equals_numpys_slot_sum(self, slots, b, dtype):
        # the slot-by-slot sum is bit-equal to numpy's sum over the slot
        # axis, with the skip product and bias added last
        rng = np.random.default_rng(slots + 10 * b)
        f = rng.standard_normal((b, 40, 16)).astype(dtype)
        s = rng.standard_normal((b, 64, 5)).astype(dtype)
        idx = rng.integers(0, 40, size=(b, 64, slots))
        w = rng.uniform(size=(b, 64, slots)).astype(dtype)
        with nnops.precision("single" if dtype == np.float32 else "double"):
            layer = nnops.linear_params(rng, 21, 16)
        layer.bias.data = rng.standard_normal(16).astype(dtype)
        wd = layer.weight.data
        a = (f.reshape(-1, 16) @ wd[:16]).reshape(b, 40, 16)
        want = (a[np.arange(b)[:, None, None], idx] * w[..., None]).sum(axis=-2)
        skip = s.reshape(-1, 5) @ wd[16:]
        skip += layer.bias.data
        want += skip.reshape(want.shape)
        got = setabs._interpolate_linear(Tensor(f), Tensor(s), idx, w, layer).data
        assert got.dtype == dtype
        assert np.array_equal(got, want)

    def test_builds_no_slot_tensor(self):
        rng = np.random.default_rng(0)
        f = Tensor(rng.standard_normal((2, 2048, 64)))
        s = Tensor(rng.standard_normal((2, 8192, 16)))
        layer = nnops.linear_params(rng, 80, 64)
        idx = rng.integers(0, 2048, size=(2, 8192, 3))
        w = rng.uniform(size=(2, 8192, 3))
        tracemalloc.start()
        try:
            setabs._interpolate_linear(f, s, idx, w, layer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8192 * 3 * 64 * 8   # one [B,N,3,C] float64 array, 25 MB


class TestBlockGradients:
    def test_full_block_gradcheck_small(self):
        from pointvector import gradcheck
        assert gradcheck.run_case("vpsa_block", 3) < 1e-5
        assert gradcheck.run_case("sa_block", 3) < 1e-5
