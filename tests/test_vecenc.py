import numpy as np
import pytest

from pointvector import nnops, oracle, vecenc
from pointvector.errors import ConfigError, NumericFaultError, SizeError
from pointvector.nnops import GradTape, Tensor


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
    def test_rotation_field_gradcheck(self):
        from pointvector import gradcheck
        assert gradcheck.run_case("rotate_field3", 0) < 1e-5
        assert gradcheck.run_case("rotate_field2", 0) < 1e-5

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


class TestRotateProject3:
    """The fused op equals oracle.unfused_rotate_project in value and gradient."""

    @pytest.mark.parametrize("padded", [False, True])
    def test_equals_unfused_composition(self, padded):
        rng = np.random.default_rng(20)
        b, m, k, c = 2, 5, 6, 7
        zx = Tensor(rng.standard_normal((b, m, k, c)), requires_grad=True)
        ang = Tensor(rng.uniform(0, 3, (b, m, k, 2 * c)), requires_grad=True)
        proj = nnops.grouped_params(rng, c, 3)
        pad = _pad(rng, (b, m, k)) if padded else None
        probe = rng.standard_normal((b, m, c))
        leaves = [zx, ang, proj.weight]
        out, grads = _values_and_grads(
            lambda: vecenc.rotate_project3(zx, ang, proj, pad), leaves, probe)
        want, want_grads = _values_and_grads(
            lambda: oracle.unfused_rotate_project(zx, ang, proj, pad), leaves, probe)
        _assert_close(out, want)
        for g, w in zip(grads, want_grads):
            _assert_close(g, w)
        if padded:
            assert not grads[0][pad].any() and not grads[1][pad].any()

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("padded", [False, True])
    def test_encoder_path_equals_unfused(self, mode, padded):
        rng = np.random.default_rng(21)
        c = 6
        fp = Tensor(np.abs(rng.standard_normal((2, 4, 5, c))), requires_grad=True)
        enc = vecenc.rotation_encoder_params(rng, c, 3)
        enc.angles.running_mean = rng.standard_normal(2 * c)
        enc.angles.running_var = rng.uniform(0.5, 2.0, 2 * c)
        proj = nnops.grouped_params(rng, c, 3)
        pad = _pad(rng, (2, 4, 5)) if padded else None
        probe = rng.standard_normal((2, 4, c))
        leaves = [fp, proj.weight] + [
            t for layer in (enc.zx, enc.angles) for _, t in layer.tensors()]

        def unfused():
            return oracle.unfused_rotate_project(
                nnops.linear(fp, enc.zx), nnops.dense(fp, enc.angles, mode), proj, pad)

        out, grads = _values_and_grads(
            lambda: vecenc.encode_rotation_projected(fp, enc, proj, pad, mode),
            leaves, probe)
        want, want_grads = _values_and_grads(unfused, leaves, probe)
        _assert_close(out, want)
        for g, w in zip(grads, want_grads):
            _assert_close(g, w)

    def test_gradcheck_padded(self):
        # the unpadded case runs in test_nnops.TestGradientShapeContract
        from pointvector import gradcheck
        assert gradcheck.run_case("rotate_project3", 0) < 1e-5


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
        ang = rng.uniform(0, 3, (1, 2, 3, 8))
        ang[0, 1, 2, 5] = np.inf
        proj = nnops.grouped_params(rng, 4, 3)
        with np.errstate(invalid="ignore"):
            out = vecenc.rotate_project3(Tensor(rng.standard_normal((1, 2, 3, 4))),
                                         Tensor(ang), proj)
        with pytest.raises(NumericFaultError):
            nnops.check_finite(out, "rotate_project3")


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
    def test_rotate_project3(self, padded):
        rng, zx, ang = self._inputs(42)
        c = zx.shape[-1]
        proj = nnops.grouped_params(rng, c, 3)
        pad = _pad(rng, zx.shape[:-1]) if padded else None
        keep = 1.0 if pad is None else (~pad)[..., None, None]
        field = oracle.rotate3d(zx, ang[..., :c], ang[..., c:]) * keep
        want = np.einsum("bikcd,cd->bic", field, proj.weight.data)
        out = vecenc.rotate_project3(Tensor(zx), Tensor(ang), proj, pad)
        _assert_close(out.data, want)
