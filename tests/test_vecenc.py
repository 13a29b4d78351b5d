import copy
import tracemalloc

import numpy as np
import pytest

from pointvector import nnops, oracle, setabs, vecenc
from pointvector.errors import ConfigError, NumericFaultError, SizeError
from pointvector.geometry import PointSetBatch
from pointvector.nnops import GradTape, Tensor
from pointvector.setabs import BlockConfig


class TestRotate3d:
    def test_zero_angles_point_up(self):
        assert np.allclose(oracle.rotate3d(1.0, 0.0, 0.0), [0.0, 0.0, 1.0])

    def test_beta_quarter_turn(self):
        assert np.allclose(oracle.rotate3d(1.0, 0.0, np.pi / 2), [0.0, 1.0, 0.0],
                           atol=1e-15)

    def test_both_quarter_turns(self):
        assert np.allclose(oracle.rotate3d(2.0, np.pi / 2, np.pi / 2),
                           [-2.0, 0.0, 0.0], atol=1e-15)

    def test_norm_is_abs_zx(self):
        rng = np.random.default_rng(0)
        zx = rng.standard_normal(100000)
        a = rng.uniform(0, 2 * np.pi, 100000)
        b = rng.uniform(0, 2 * np.pi, 100000)
        out = oracle.rotate3d(zx, a, b)
        norms = np.linalg.norm(out, axis=-1)
        assert np.abs(norms - np.abs(zx)).max() < 1e-12

    def test_matches_matrix_action(self):
        rng = np.random.default_rng(1)
        zx = rng.standard_normal(50)
        a = rng.uniform(-5, 5, 50)
        b = rng.uniform(-5, 5, 50)
        rot = oracle.rotation_matrix(a, b)
        lifted = np.zeros((50, 3))
        lifted[:, 1] = zx
        expected = np.einsum("nij,nj->ni", rot, lifted)
        assert np.abs(oracle.rotate3d(zx, a, b) - expected).max() < 1e-12


class TestRotationMatrix:
    def test_orthogonal_and_special(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-7, 7, 200)
        b = rng.uniform(-7, 7, 200)
        rot = oracle.rotation_matrix(a, b)
        eye = np.einsum("nij,nik->njk", rot, rot)
        assert np.abs(eye - np.eye(3)).max() < 1e-12
        det = np.linalg.det(rot)
        assert np.abs(det - 1.0).max() < 1e-12


class TestRotate2d:
    def test_zero_angle(self):
        assert np.allclose(oracle.rotate2d(1.0, 0.0), [0.0, 1.0])

    def test_quarter_turn(self):
        assert np.allclose(oracle.rotate2d(1.0, np.pi / 2), [-1.0, 0.0], atol=1e-15)

    def test_isometry(self):
        rng = np.random.default_rng(3)
        zx = rng.standard_normal(100000)
        a = rng.uniform(0, 2 * np.pi, 100000)
        norms = np.linalg.norm(oracle.rotate2d(zx, a), axis=-1)
        assert np.abs(norms - np.abs(zx)).max() < 1e-12


class TestMixFeatures:
    def test_zero_position_weights(self):
        rng = np.random.default_rng(4)
        rel_feat = Tensor(rng.standard_normal((2, 3, 4)))
        rel_pos = Tensor(rng.standard_normal((2, 3, 3)))
        p = nnops.LayerParams(weight=nnops.parameter(np.zeros((3, 4))),
                              bias=nnops.parameter(np.zeros(4)))
        fp = oracle.mix_features(rel_feat, rel_pos, p)
        assert np.allclose(fp.data, np.maximum(rel_feat.data, 0.0))

    def test_zero_features_pass_position_encoding(self):
        rng = np.random.default_rng(5)
        rel_feat = Tensor(np.zeros((2, 3, 3)))
        rel_pos = Tensor(rng.standard_normal((2, 3, 3)))
        p = nnops.LayerParams(weight=nnops.parameter(np.eye(3)),
                              bias=nnops.parameter(np.zeros(3)))
        fp = oracle.mix_features(rel_feat, rel_pos, p)
        assert np.allclose(fp.data, np.maximum(rel_pos.data, 0.0))

    def test_matches_loop(self):
        rng = np.random.default_rng(6)
        rel_feat = rng.standard_normal((2, 4, 5))
        rel_pos = rng.standard_normal((2, 4, 3))
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(5)
        p = nnops.LayerParams(weight=nnops.parameter(w), bias=nnops.parameter(b))
        fp = oracle.mix_features(Tensor(rel_feat), Tensor(rel_pos), p)
        for i in range(2):
            for j in range(4):
                expected = np.maximum(rel_feat[i, j] + rel_pos[i, j] @ w + b, 0.0)
                assert np.allclose(fp.data[i, j], expected)


def random_fp(rng, shape=(2, 3, 4, 6)):
    return Tensor(np.abs(rng.standard_normal(shape)) + 0.05)


class TestEncodeRotation:
    def test_zero_zx_weights_zero_field(self):
        rng = np.random.default_rng(7)
        fp = random_fp(rng)
        p = vecenc.rotation_encoder_params(rng, 6, 3)
        p.zx.weight.data = np.zeros_like(p.zx.weight.data)
        field = vecenc.encode_rotation(fp, p, 3)
        assert np.all(field.data == 0.0)

    def test_m1_is_bitwise_scalar_path(self):
        rng = np.random.default_rng(8)
        fp = random_fp(rng)
        p = vecenc.rotation_encoder_params(rng, 6, 1)
        field = vecenc.encode_rotation(fp, p, 1)
        zx = nnops.linear(fp, p.zx)
        assert field.data.shape == fp.data.shape + (1,)
        assert np.array_equal(field.data[..., 0], zx.data)

    def test_norm_equals_abs_zx(self):
        rng = np.random.default_rng(9)
        fp = random_fp(rng)
        p = vecenc.rotation_encoder_params(rng, 6, 3)
        field = vecenc.encode_rotation(fp, p, 3, "train")
        zx = nnops.linear(fp, p.zx)
        norms = np.linalg.norm(field.data, axis=-1)
        assert np.abs(norms - np.abs(zx.data)).max() < 1e-9

    def test_angles_nonnegative(self):
        rng = np.random.default_rng(10)
        fp = random_fp(rng)
        p = vecenc.rotation_encoder_params(rng, 6, 3)
        ang = nnops.dense(fp, p.angles, "train")
        assert ang.data.shape == fp.data.shape[:-1] + (12,)
        assert ang.data.min() >= 0.0

    def test_bad_dimension_rejected(self):
        rng = np.random.default_rng(11)
        p = vecenc.rotation_encoder_params(rng, 6, 3)
        with pytest.raises(ConfigError):
            vecenc.encode_rotation(random_fp(rng), p, 4)


class TestEncodeMLP:
    def test_zero_second_layer_zero_field(self):
        rng = np.random.default_rng(12)
        fp = random_fp(rng)
        p = vecenc.mlp_encoder_params(rng, 6, 3)
        p.out.weight.data = np.zeros_like(p.out.weight.data)
        field = vecenc.encode_mlp(fp, p, 3)
        assert np.all(field.data == 0.0)

    def test_matches_loop(self):
        rng = np.random.default_rng(13)
        fp = random_fp(rng, (2, 5, 4))
        p = vecenc.mlp_encoder_params(rng, 4, 2)
        field = vecenc.encode_mlp(fp, p, 2, "eval")
        h = np.maximum(
            (fp.data @ p.hidden.weight.data - p.hidden.running_mean)
            / np.sqrt(p.hidden.running_var + nnops.BN_EPS)
            * p.hidden.norm_gamma.data + p.hidden.norm_beta.data, 0.0)
        flat = h @ p.out.weight.data
        assert np.allclose(field.data, flat.reshape(2, 5, 4, 2))


class TestEncodeDirection:
    def test_zero_modulus_zero_field(self):
        rng = np.random.default_rng(14)
        fp = random_fp(rng)
        p = vecenc.direction_encoder_params(rng, 6, 3)
        p.modulus.weight.data = np.zeros_like(p.modulus.weight.data)
        p.modulus.bias.data = np.zeros_like(p.modulus.bias.data)
        field = vecenc.encode_direction(fp, p, 3)
        assert np.abs(field.data).max() == 0.0

    def test_unit_normalization(self):
        x = Tensor(np.array([[3.0, 0.0, 0.0]]))
        unit = nnops.unit_normalize(x)
        assert np.allclose(unit.data, [[1.0, 0.0, 0.0]], atol=1e-7)

    def test_field_norm_equals_abs_modulus(self):
        rng = np.random.default_rng(15)
        fp = random_fp(rng)
        p = vecenc.direction_encoder_params(rng, 6, 3)
        field = vecenc.encode_direction(fp, p, 3, "train")
        modulus = nnops.linear(fp, p.modulus)
        norms = np.linalg.norm(field.data, axis=-1)
        assert np.abs(norms - np.abs(modulus.data)).max() < 1e-6


class TestEncoderGradients:
    def test_all_encoders_gradcheck(self):
        from pointvector import gradcheck
        for case in ("encode_rotation", "encode_rotation_2d", "encode_mlp",
                     "encode_direction"):
            assert gradcheck.run_case(case, 1) < 1e-5


def _values_and_grads(forward, leaves, probe):
    with GradTape() as tape:
        out = forward()
        grads = nnops.backward(tape, nnops.sum_all(nnops.mul(out, Tensor(probe))))
    return out.data, [grads.get(t) for t in leaves]


def _assert_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def _pad(rng, shape):
    pad = rng.random(shape) < 0.3
    pad[..., 0] = False
    return pad


def _cell_inputs(rng, b=2, n=9, m=5, k=6, c=7, padded=False):
    """u, ctr, idx and pad of `vecenc.rotate_cell`, and a rotation encoder
    and kernel with random biases, norm affine and running statistics."""
    u = nnops.parameter(rng.standard_normal((b, n, c)))
    ctr = nnops.parameter(rng.standard_normal((b, m, c)))
    idx = rng.integers(0, n, (b, m, k))
    enc = vecenc.rotation_encoder_params(rng, c, 3)
    enc.zx.bias.data = rng.uniform(-0.3, 0.3, c)
    enc.angles.norm_gamma.data = rng.uniform(0.5, 1.5, 2 * c)
    enc.angles.norm_beta.data = rng.standard_normal(2 * c) * 0.2
    enc.angles.running_mean = rng.standard_normal(2 * c)
    enc.angles.running_var = rng.uniform(0.5, 2.0, 2 * c)
    proj = nnops.grouped_params(rng, c, 3)
    return u, ctr, idx, _pad(rng, (b, m, k)) if padded else None, enc, proj


def _cell_params(enc, proj):
    """The op's six parameter inputs: W_zx, b_zx, W_ang, gamma, beta, w."""
    return [t for layer in (enc.zx, enc.angles, proj) for _, t in layer.tensors()]


def _cell_peaks(padded, mode="train", b=2, m=256, k=8, c=32):
    """(held, peak) of one `vecenc.rotate_cell` in `mode` under a tape, in [B,M,K,C]
    arrays: the bytes it keeps once it returns, output aside, and the
    highest traced bytes above its inputs while it runs."""
    rng = np.random.default_rng(22)
    u, ctr, idx, _, enc, proj = _cell_inputs(rng, b, m, m, k, c)
    pad = None
    if padded:
        pad = np.zeros((b, m, k), dtype=bool)
        pad[..., 5:] = True
    with GradTape():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = vecenc.rotate_cell(u, ctr, idx, pad, enc, proj, mode)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    unit = b * m * k * c * 8
    return (now - before - out.data.nbytes) / unit, (peak - before) / unit


class TestRotateCell:
    """The default cell's rotation at m=3, neighbor sum and projection in
    training, `vecenc.rotate_cell`, against the op-by-op chain
    oracle.unfused_rotate_cell."""

    @pytest.mark.parametrize("tile_bytes", [None, 3 * 6 * 21 * 8],
                             ids=["one_tile", "tiles_3_3_3_1"])
    @pytest.mark.parametrize("padded", [False, True])
    def test_equals_unfused_composition(self, padded, tile_bytes, monkeypatch):
        """Value, all eight input gradients and the running statistics; the
        10 centers run as one tile, or as tiles of 3, 3, 3 and 1."""
        if tile_bytes is not None:
            monkeypatch.setattr(vecenc, "_TILE_BYTES", tile_bytes)
        rng = np.random.default_rng(20)
        u, ctr, idx, pad, enc, proj = _cell_inputs(rng, padded=padded)
        probe = rng.standard_normal((2, 5, 7))
        enc_ref = copy.deepcopy(enc)
        out, grads = _values_and_grads(
            lambda: vecenc.rotate_cell(u, ctr, idx, pad, enc, proj),
            [u, ctr] + _cell_params(enc, proj), probe)
        want, want_grads = _values_and_grads(
            lambda: oracle.unfused_rotate_cell(u, ctr, idx, pad, enc_ref, proj),
            [u, ctr] + _cell_params(enc_ref, proj), probe)
        _assert_close(out, want)
        assert len(grads) == 8
        for g, w in zip(grads, want_grads):
            _assert_close(g, w)
        _assert_close(enc.angles.running_mean, enc_ref.angles.running_mean)
        _assert_close(enc.angles.running_var, enc_ref.angles.running_var)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("padded", [False, True])
    def test_encoder_path_equals_unfused(self, mode, padded):
        """The default VPSA cell under a tape, one op in either mode, equals
        the block rebuilt around the op-by-op chain in value and in the
        gradients of the encoder and the kernel; in eval mode they reach the
        angle layer's W, gamma and beta through its folded linear."""
        rng = np.random.default_rng(21)
        cloud = PointSetBatch(positions=rng.uniform(-1, 1, (2, 16, 3)))
        f = nnops.parameter(rng.standard_normal((2, 16, 6)))
        cfg = BlockConfig(in_channels=6, out_channels=6, k_neighbors=5,
                          radius=0.8 if padded else None)
        p = setabs.vpsa_block_params(rng, cfg)
        _, _, _, _, p.encoder, p.proj = _cell_inputs(rng, c=6)
        nbr = setabs.group(cloud, cfg)
        assert nbr.pad_mask.any() == padded
        probe = rng.standard_normal((2, 16, 6))

        def block(p):
            return setabs.vpsa_block(cloud, f, cfg, p, mode, nbr)[1]

        def rebuilt(p):
            pos = setabs._centered_positions(cloud.positions)
            u = nnops.input_tensor(f.data + pos @ p.pos.weight.data)
            ctr = nnops.input_tensor(u.data - p.pos.bias.data)
            main = oracle.unfused_rotate_cell(u, ctr, nbr.indices, nbr.pad_mask, p.encoder,
                                              p.proj, mode)
            main = nnops.linear_bn(main, p.mix, mode)
            return nnops.residual_fuse(main, nnops.linear(f, p.res))

        outs = []
        for run in (block, rebuilt):
            q = copy.deepcopy(p)
            outs.append(_values_and_grads(lambda: run(q), _cell_params(q.encoder, q.proj),
                                          probe))
        (out, grads), (want, want_grads) = outs
        _assert_close(out, want)
        for g, w in zip(grads, want_grads):
            assert np.abs(w).max() > 0
            _assert_close(g, w)

    @pytest.mark.parametrize("padded", [False, True])
    def test_backward_keeps_no_mixed_features(self, padded):
        """Under a tape the op keeps its three factors d out / d zx, alpha and
        beta, the normalized angles x-hat (two arrays' worth) and the small
        neighbor sums: at most 5.5 [B,M,K,C] arrays. The composed chain it
        replaces keeps about 6.8: the rotation's factors, x-hat, the mixed
        features fp that both linears read, and the ReLU masks."""
        held, _ = _cell_peaks(padded)
        assert held <= 5.5

    @pytest.mark.parametrize("padded", [False, True])
    def test_eval_backward_keeps_three_factors(self, padded):
        """In eval mode under a tape the op keeps d out / d zx, alpha and
        beta and the small neighbor sums, but no x-hat: at most 3.5
        [B,M,K,C] arrays, against 5.5 in train mode."""
        held, _ = _cell_peaks(padded, "eval")
        assert held <= 3.5

    @pytest.mark.parametrize("padded", [False, True])
    def test_forward_builds_factors_per_tile(self, padded, monkeypatch):
        """With small tiles the forward's peak is zx, the angles, the three
        factors and tile-sized temporaries: at most 7.5 [B,M,K,C] arrays.
        Building the factors over all centers at once peaks at 9.7."""
        monkeypatch.setattr(vecenc, "_TILE_BYTES", 1 << 14)
        _, peak = _cell_peaks(padded)
        assert peak <= 7.5

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("bad,match", [
        ("past_end", "out of range"), ("negative", "out of range"),
        ("float", "integer"), ("pad_shape", "pad mask")],
        ids=["past_end", "negative", "float", "pad_shape"])
    def test_bad_neighborhood_is_size_error(self, mode, bad, match):
        """Float indices, indices outside [0, N) and a pad mask of another
        shape are library errors, not numpy's IndexError."""
        rng = np.random.default_rng(22)
        u, ctr, idx, pad, enc, proj = _cell_inputs(rng, padded=True)
        if bad == "past_end":
            idx[0, 1, 2] = 9
        elif bad == "negative":
            idx[1, 0, 0] = -1
        elif bad == "float":
            idx = idx.astype(np.float64)
        else:
            pad = pad[..., 1:]
        with pytest.raises(SizeError, match=match):
            vecenc.rotate_cell(u, ctr, idx, pad, enc, proj, mode)


EPS64 = np.finfo(np.float64).eps
EPS32 = np.finfo(np.float32).eps


def _assert_sincos(x, tol):
    s, c = vecenc._sincos(x)
    assert s.dtype == c.dtype == x.dtype and s.shape == c.shape == x.shape
    ref = x.astype(np.float64)
    assert np.abs(s - np.sin(ref)).max() <= tol
    assert np.abs(c - np.cos(ref)).max() <= tol


class TestSinCos:
    """vecenc._sincos, the half-angle sine and cosine, against np.sin/np.cos."""

    def test_uniform_and_negative(self):
        x = np.random.default_rng(30).uniform(0, 1e3, 200_000)
        _assert_sincos(x, 4 * EPS64)
        _assert_sincos(-x, 4 * EPS64)

    @pytest.mark.parametrize("step", [np.pi, np.pi / 2])
    def test_near_odd_multiples(self, step):
        # odd multiples of pi are the poles of tan(x/2)
        rng = np.random.default_rng(31)
        n = np.arange(-201, 202, 2)[:, None]
        x = n * step + rng.uniform(-1e-9, 1e-9, (n.size, 40))
        _assert_sincos(np.concatenate([x.ravel(), n.ravel() * step]), 4 * EPS64)

    def test_exact_at_zero(self):
        s, c = vecenc._sincos(np.array([0.0, -0.0]))
        assert np.array_equal(s, [0.0, 0.0]) and np.array_equal(c, [1.0, 1.0])

    def test_single_precision(self):
        x = np.random.default_rng(32).uniform(-50, 50, 50_000).astype(np.float32)
        _assert_sincos(x, 4 * EPS32)

    def test_non_finite_gives_nan(self):
        with np.errstate(invalid="ignore"):
            s, c = vecenc._sincos(np.array([np.nan, np.inf, -np.inf]))
        assert np.isnan(s).all() and np.isnan(c).all()

    def test_non_finite_angle_reaches_check_finite(self):
        rng = np.random.default_rng(33)
        u, ctr, idx, _, enc, proj = _cell_inputs(rng, 1, 3, 2, 3, 4)
        enc.angles.norm_gamma.data[5] = 0.0
        enc.angles.norm_beta.data[5] = np.inf    # beta of channel 1
        with GradTape(), np.errstate(invalid="ignore"):
            out = vecenc.rotate_cell(u, ctr, idx, None, enc, proj)
        with pytest.raises(NumericFaultError):
            nnops.check_finite(out, "rotate_cell")


class TestRotationOpsMatchOracle:
    """The rotation ops against the sin/cos formulas of oracle.rotate3d/rotate2d,
    with angles drawn near pi, where tan(x/2) has its pole."""

    @staticmethod
    def _inputs(seed, c=5):
        rng = np.random.default_rng(seed)
        zx = rng.standard_normal((2, 3, 4, c))
        ang = np.pi + rng.uniform(-1e-3, 1e-3, (2, 3, 4, 2 * c))
        ang[..., ::3] = np.pi  # the float nearest pi, too
        return rng, zx, ang

    def test_rotate_field3(self):
        _, zx, ang = self._inputs(40)
        c = zx.shape[-1]
        out = vecenc.rotate_field(Tensor(zx), Tensor(ang))
        _assert_close(out.data, oracle.rotate3d(zx, ang[..., :c], ang[..., c:]))

    def test_rotate_field2(self):
        _, zx, ang = self._inputs(41)
        a = ang[..., :zx.shape[-1]]
        _assert_close(vecenc.rotate_field(Tensor(zx), Tensor(a)).data,
                      oracle.rotate2d(zx, a))

    @pytest.mark.parametrize("width", [3, 8, 15])
    def test_rotate_field_rejects_other_angle_widths(self, width):
        zx = Tensor(np.zeros((2, 3, 5)))
        with pytest.raises(SizeError, match="rotate_field"):
            vecenc.rotate_field(zx, Tensor(np.zeros((2, 3, width))))

    @pytest.mark.parametrize("padded", [False, True])
    def test_rotate_cell(self, padded):
        """rotate_cell with gamma 0, so that each channel's angles are its
        betas near pi, against the rotated field of oracle.rotate3d."""
        rng, _, ang = self._inputs(42)
        u, ctr, idx, pad, enc, proj = _cell_inputs(rng, c=5, padded=padded)
        enc.angles.norm_gamma.data[:] = 0.0
        enc.angles.norm_beta.data = ang[0, 0, 0]
        fp = np.maximum(u.data[np.arange(2)[:, None, None], idx] - ctr.data[:, :, None], 0)
        zx = fp @ enc.zx.weight.data + enc.zx.bias.data
        keep = 1.0 if pad is None else (~pad)[..., None, None]
        field = oracle.rotate3d(zx, ang[0, 0, 0, :5], ang[0, 0, 0, 5:]) * keep
        want = np.einsum("bikcd,cd->bic", field, proj.weight.data)
        out = vecenc.rotate_cell(u, ctr, idx, pad, enc, proj)
        _assert_close(out.data, want)
