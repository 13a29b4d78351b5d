import numpy as np
import pytest

from pointvector import nnops
from pointvector.errors import (
    ContractError,
    DegenerateStatisticsError,
    InvalidNeighborhoodError,
    SizeError,
)
from pointvector.nnops import GradTape, LayerParams, Tensor


def run_loss(forward):
    with GradTape() as tape:
        loss = forward()
        return loss, nnops.backward(tape, loss)


class TestLinear:
    def test_identity_weight(self):
        x = Tensor(np.random.default_rng(0).standard_normal((5, 3)))
        p = LayerParams(weight=nnops.parameter(np.eye(3)),
                        bias=nnops.parameter(np.zeros(3)))
        y = nnops.linear(x, p)
        assert np.allclose(y.data, x.data)

    def test_zero_weight_bias_broadcast(self):
        x = Tensor(np.ones((4, 3)))
        p = LayerParams(weight=nnops.parameter(np.zeros((3, 2))),
                        bias=nnops.parameter(np.array([1.0, 2.0])))
        y = nnops.linear(x, p)
        assert np.allclose(y.data, np.tile([1.0, 2.0], (4, 1)))

    def test_dimension_mismatch(self):
        x = Tensor(np.ones((4, 3)))
        p = LayerParams(weight=nnops.parameter(np.zeros((2, 2))))
        with pytest.raises(SizeError):
            nnops.linear(x, p)

    def test_gradients_match_manual(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        p = LayerParams(weight=nnops.parameter(rng.standard_normal((3, 2))),
                        bias=nnops.parameter(rng.standard_normal(2)))
        _, grads = run_loss(lambda: nnops.sum_all(nnops.linear(x, p)))
        g = np.ones((6, 2))
        assert np.allclose(grads[p.weight], x.data.T @ g)
        assert np.allclose(grads[p.bias], g.sum(0))
        assert np.allclose(grads[x], g @ p.weight.data.T)


class TestBatchnorm:
    def test_constant_input_zeros(self):
        x = Tensor(np.full((8, 3), 2.5))
        p = nnops.attach_norm(LayerParams(), 3)
        y = nnops.batchnorm(x, p, "train")
        assert np.allclose(y.data, 0.0)

    def test_gamma_zero_beta_five(self):
        x = Tensor(np.random.default_rng(2).standard_normal((8, 3)))
        p = nnops.attach_norm(LayerParams(), 3)
        p.norm_gamma.data = np.zeros(3)
        p.norm_beta.data = np.full(3, 5.0)
        y = nnops.batchnorm(x, p, "train")
        assert np.allclose(y.data, 5.0)

    def test_normalized_statistics(self):
        # spread the input so the eps in the denominator stays negligible
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((200, 4)) * 5.0 + 3.0)
        p = nnops.attach_norm(LayerParams(), 4)
        y = nnops.batchnorm(x, p, "train")
        mean = y.data.mean(axis=0)
        var = y.data.var(axis=0)
        assert np.abs(mean).max() < 1e-10
        assert np.abs(var - 1.0).max() < 1e-6

    def test_single_sample_degenerate(self):
        x = Tensor(np.ones((1, 3)))
        p = nnops.attach_norm(LayerParams(), 3)
        with pytest.raises(DegenerateStatisticsError):
            nnops.batchnorm(x, p, "train")

    def test_running_stats_drive_eval(self):
        rng = np.random.default_rng(4)
        p = nnops.attach_norm(LayerParams(), 2)
        x = Tensor(rng.standard_normal((64, 2)) * 2.0 + 1.0)
        for _ in range(200):
            nnops.batchnorm(x, p, "train")
        y = nnops.batchnorm(x, p, "eval")
        assert np.abs(y.data.mean(axis=0)).max() < 0.05
        assert np.abs(y.data.std(axis=0) - 1.0).max() < 0.05


class TestActivation:
    def test_relu_values(self):
        y = nnops.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        assert y.data.tolist() == [0.0, 0.0, 2.0]

    def test_relu_gradient_mask(self):
        x = Tensor(np.array([3.0, -3.0]), requires_grad=True)
        _, grads = run_loss(lambda: nnops.sum_all(nnops.relu(x)))
        assert grads[x].tolist() == [1.0, 0.0]

    def test_relu_keeps_nan(self):
        assert np.isnan(nnops.relu(Tensor(np.array([np.nan]))).data[0])
        out = nnops.residual_fuse(Tensor(np.array([np.nan, -1.0])), Tensor(np.zeros(2)))
        assert np.isnan(out.data[0]) and out.data[1] == 0.0


class TestNeighborReduce:
    def test_sum(self):
        v = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = nnops.neighbor_reduce(v, "sum")
        assert out.data.tolist() == [[[4.0, 6.0]]]

    def test_max(self):
        v = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = nnops.neighbor_reduce(v, "max")
        assert out.data.tolist() == [[[3.0, 4.0]]]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((2, 3, 6, 4))
        perm = rng.permutation(6)
        for mode in ("sum", "max"):
            a = nnops.neighbor_reduce(Tensor(v), mode).data
            b = nnops.neighbor_reduce(Tensor(v[:, :, perm]), mode).data
            assert np.abs(a - b).max() < 1e-9

    def test_sum_skips_padded_duplicates(self):
        v = np.ones((1, 1, 3, 2))
        pad = np.array([[[False, True, True]]])
        out = nnops.neighbor_reduce(Tensor(v), "sum", pad)
        assert out.data.tolist() == [[[1.0, 1.0]]]

    def test_max_ignores_padded(self):
        v = np.array([[[[1.0], [9.0], [2.0]]]])
        pad = np.array([[[False, True, False]]])
        out = nnops.neighbor_reduce(Tensor(v), "max", pad)
        assert out.data.tolist() == [[[2.0]]]

    def test_all_padded_rejected(self):
        v = Tensor(np.ones((1, 1, 2, 2)))
        pad = np.ones((1, 1, 2), dtype=bool)
        with pytest.raises(InvalidNeighborhoodError):
            nnops.neighbor_reduce(v, "sum", pad)

    def test_max_tie_gradient_goes_to_first(self):
        v = Tensor(np.array([[[[2.0], [2.0], [1.0]]]]), requires_grad=True)
        _, grads = run_loss(lambda: nnops.sum_all(nnops.neighbor_reduce(v, "max")))
        assert grads[v][0, 0, :, 0].tolist() == [1.0, 0.0, 0.0]


class TestGroupedProjection:
    def test_single_channel_dot(self):
        v = Tensor(np.array([[[[1.0, 2.0, 3.0]]]]))
        p = LayerParams(weight=nnops.parameter(np.ones((1, 3))),
                        bias=nnops.parameter(np.zeros(1)))
        out = nnops.grouped_projection(v, p)
        assert out.data.tolist() == [[[6.0]]]

    def test_zero_weight_bias_broadcast(self):
        v = Tensor(np.random.default_rng(6).standard_normal((2, 3, 4, 2)))
        p = LayerParams(weight=nnops.parameter(np.zeros((4, 2))),
                        bias=nnops.parameter(np.arange(4.0)))
        out = nnops.grouped_projection(v, p)
        assert np.allclose(out.data, np.broadcast_to(np.arange(4.0), (2, 3, 4)))

    def test_equals_block_diagonal_matmul(self):
        rng = np.random.default_rng(7)
        c, m = 5, 3
        v = rng.standard_normal((4, 6, c, m))
        w = rng.standard_normal((c, m))
        b = rng.standard_normal(c)
        p = LayerParams(weight=nnops.parameter(w), bias=nnops.parameter(b))
        out = nnops.grouped_projection(Tensor(v), p)
        dense = np.zeros((c * m, c))
        for ci in range(c):
            dense[ci * m:(ci + 1) * m, ci] = w[ci]
        expected = v.reshape(4, 6, c * m) @ dense + b
        assert np.abs(out.data - expected).max() < 1e-12

    def test_m_mismatch(self):
        v = Tensor(np.zeros((1, 2, 4, 3)))
        p = LayerParams(weight=nnops.parameter(np.zeros((4, 2))))
        with pytest.raises(SizeError):
            nnops.grouped_projection(v, p)


class TestResidualFuse:
    def test_cancellation(self):
        a = Tensor(np.array([1.0, -2.0]))
        b = Tensor(np.array([-1.0, 2.0]))
        assert nnops.residual_fuse(a, b).data.tolist() == [0.0, 0.0]

    def test_zero_skip_is_relu(self):
        x = np.array([-1.0, 3.0])
        out = nnops.residual_fuse(Tensor(x), Tensor(np.zeros(2)))
        assert out.data.tolist() == [0.0, 3.0]

    def test_gradient_to_both_branches(self):
        a = Tensor(np.array([1.0, -5.0]), requires_grad=True)
        b = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        _, grads = run_loss(lambda: nnops.sum_all(nnops.residual_fuse(a, b)))
        assert grads[a].tolist() == [1.0, 0.0]
        assert grads[b].tolist() == [1.0, 0.0]

    def test_shape_mismatch(self):
        with pytest.raises(SizeError):
            nnops.residual_fuse(Tensor(np.zeros(2)), Tensor(np.zeros(3)))


class TestScatterAdd:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_add_at_with_duplicate_indices(self, dtype):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 5, size=40)  # every row hit several times
        rows = rng.standard_normal((40, 3)).astype(dtype)
        want = np.zeros((7, 3), dtype=np.float64)
        np.add.at(want, idx, rows.astype(np.float64))
        got = nnops._scatter_add_rows(idx, rows, 7)
        assert got.dtype == dtype and got.shape == (7, 3)
        tol = 1e-14 if dtype == np.float64 else 1e-6
        assert np.abs(got - want).max() <= tol * np.abs(want).max()
        assert not got[5:].any()


class TestGather:
    """Index checks of nnops.gather: numpy indexing alone would read a
    negative index from the end of the cloud and broadcast a batch-1 index."""

    def test_negative_weighted_index_rejected(self):
        x = Tensor(np.arange(10.0).reshape(1, 5, 2))
        with pytest.raises(SizeError, match="out of range"):
            nnops.gather(x, np.array([[[0, -1]]]), np.array([[[0.5, 0.5]]]))

    def test_weighted_index_past_end_is_size_error(self):
        x = Tensor(np.zeros((1, 5, 2)))
        with pytest.raises(SizeError, match="out of range"):
            nnops.gather(x, np.array([[[0, 5]]]), np.array([[[0.5, 0.5]]]))

    @pytest.mark.parametrize("shape", [(1, 3), (1, 3, 2)])
    def test_index_batch_must_match(self, shape):
        x = Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(SizeError, match="batch of 2"):
            nnops.gather(x, np.zeros(shape, dtype=np.int64))

    def test_weight_shape_must_match(self):
        x = Tensor(np.zeros((1, 4, 3)))
        with pytest.raises(SizeError, match="weights shape"):
            nnops.gather(x, np.zeros((1, 2, 3), dtype=np.int64), np.ones((1, 2, 2)))

    def test_weighted_equals_sum_of_unweighted(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 7, 3)))
        idx = rng.integers(0, 7, size=(2, 5, 3))
        w = rng.uniform(size=(2, 5, 3))
        rows = nnops.gather(x, idx).data
        assert np.array_equal(nnops.gather(x, idx, w).data,
                              (rows * w[..., None]).sum(axis=2))


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0, -3.0]), requires_grad=True)
        _, grads = run_loss(lambda: nnops.sum_all(nnops.mul(x, x)))
        assert np.allclose(grads[x], 2 * x.data)

    def test_unused_parameter_gets_no_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        unused = Tensor(np.ones(3), requires_grad=True)
        _, grads = run_loss(lambda: nnops.sum_all(x))
        assert unused not in grads

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            y = nnops.mul(x, x)
            with pytest.raises(ContractError):
                nnops.backward(tape, y)

    def test_tape_cleared_after_use(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            loss = nnops.sum_all(nnops.mul(x, x))
            nnops.backward(tape, loss)
        assert len(tape) == 0
        assert x.grad is None

    def test_reuse_accumulates_through_branches(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        # loss = x*x + 3x -> grad 2x + 3
        _, grads = run_loss(
            lambda: nnops.add(nnops.sum_all(nnops.mul(x, x)),
                              nnops.sum_all(nnops.mul(x, Tensor(np.array([3.0]))))))
        assert np.allclose(grads[x], [7.0])


class TestPrecision:
    def test_single_precision_context(self):
        with nnops.precision("single"):
            t = Tensor([1.0, 2.0])
            assert t.data.dtype == np.float32
        t = Tensor([1.0, 2.0])
        assert t.data.dtype == np.float64

    def test_float_arrays_keep_dtype(self):
        arr = np.zeros(3, dtype=np.float32)
        assert Tensor(arr).data.dtype == np.float32


class TestGradientShapeContract:
    def test_backward_rejects_wrongly_shaped_gradient(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)

        def forward():
            y = nnops.custom_op(x.data * 2.0, (x,), lambda g: (g[:1] * 2.0,))
            return nnops.sum_all(y)

        with pytest.raises(ContractError, match="shape"):
            run_loss(forward)

    def test_relative_error_rejects_shape_mismatch(self):
        from pointvector import gradcheck

        with pytest.raises(ContractError):
            gradcheck.relative_error(np.ones((2, 1, 3)), np.ones((2, 4, 3)))

    def test_fused_sum_groupconv_without_pad_mask(self):
        from pointvector import gradcheck

        assert gradcheck.run_case("rotate_project3_unpadded", 0) < 1e-5
