import copy
import pickle
import tracemalloc
import weakref

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
        y = nnops.batchnorm(x, p)
        assert np.allclose(y.data, 0.0)

    def test_gamma_zero_beta_five(self):
        x = Tensor(np.random.default_rng(2).standard_normal((8, 3)))
        p = nnops.attach_norm(LayerParams(), 3)
        p.norm_gamma.data = np.zeros(3)
        p.norm_beta.data = np.full(3, 5.0)
        y = nnops.batchnorm(x, p)
        assert np.allclose(y.data, 5.0)

    def test_normalized_statistics(self):
        # spread the input so the eps in the denominator stays negligible
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((200, 4)) * 5.0 + 3.0)
        p = nnops.attach_norm(LayerParams(), 4)
        y = nnops.batchnorm(x, p)
        mean = y.data.mean(axis=0)
        var = y.data.var(axis=0)
        assert np.abs(mean).max() < 1e-10
        assert np.abs(var - 1.0).max() < 1e-6

    def test_single_sample_degenerate(self):
        x = Tensor(np.ones((1, 3)))
        p = nnops.attach_norm(LayerParams(), 3)
        with pytest.raises(DegenerateStatisticsError):
            nnops.batchnorm(x, p)

    def test_running_stats_drive_eval(self):
        rng = np.random.default_rng(4)
        p = nnops.attach_norm(LayerParams(), 2)
        p.norm_gamma.data = np.array([1.5, -0.5])
        p.norm_beta.data = np.array([0.25, 2.0])
        x = rng.standard_normal((64, 2)) * 2.0 + 1.0
        for _ in range(200):
            nnops.batchnorm(Tensor(x), p)
        p.weight = nnops.parameter(np.eye(2))
        y = nnops.linear_bn(Tensor(x), p, "eval").data
        xhat = (x - p.running_mean) / np.sqrt(p.running_var + nnops.BN_EPS)
        want = xhat * p.norm_gamma.data + p.norm_beta.data
        assert np.abs(y - want).max() <= 1e-13 * np.abs(want).max()
        assert np.abs(xhat.mean(axis=0)).max() < 0.05
        assert np.abs(xhat.std(axis=0) - 1.0).max() < 0.05

    def test_linear_bn_rejects_other_modes(self):
        p = nnops.linear_params(np.random.default_rng(5), 3, 2, norm=True)
        with pytest.raises(ContractError, match="train or eval"):
            nnops.linear_bn(Tensor(np.ones((4, 3))), p, "test")


class TestDense:
    def test_eval_equals_linear_batchnorm_relu(self):
        rng = np.random.default_rng(11)
        p = nnops.linear_params(rng, 5, 4, norm=True)
        p.norm_gamma.data = rng.uniform(-1.5, 1.5, 4)
        p.norm_beta.data = rng.standard_normal(4)
        p.running_mean = rng.standard_normal(4)
        p.running_var = rng.uniform(0.5, 2.0, 4)
        x = Tensor(rng.standard_normal((3, 7, 5)))
        y = x.data @ p.weight.data
        y = (y - p.running_mean) / np.sqrt(p.running_var + nnops.BN_EPS)
        want = np.maximum(y * p.norm_gamma.data + p.norm_beta.data, 0.0)
        got = nnops.dense(x, p, "eval").data
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_without_a_tape_it_keeps_its_input(self, mode):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((6, 5)))
        saved = x.data.copy()
        p = nnops.linear_params(rng, 5, 4, norm=True)
        want = nnops.relu(nnops.linear_bn(x, copy.deepcopy(p), mode)).data
        assert np.array_equal(nnops.dense(x, p, mode).data, want)
        assert np.array_equal(x.data, saved)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_under_a_tape_it_records_its_relu(self, mode):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        probe = Tensor(rng.standard_normal((6, 4)))
        p = nnops.linear_params(rng, 5, 4, norm=True)
        records, grads = [], []
        for run in (lambda: nnops.dense(x, p, mode),
                    lambda: nnops.relu(nnops.linear_bn(x, p, mode))):
            with GradTape() as tape:
                y = run()
                records.append(len(tape))
                grads.append(nnops.backward(tape, nnops.sum_all(nnops.mul(y, probe))))
        assert records[0] == records[1]
        assert all(np.array_equal(grads[0][t], grads[1][t]) for t in (x, p.weight))


class TestNormalizedLayerShift:
    """A normalized layer's only shift is its beta, and a layer may have none."""

    def test_normalized_layer_has_no_bias(self):
        rng = np.random.default_rng(12)
        assert nnops.linear_params(rng, 5, 4, norm=True).bias is None
        assert nnops.linear_params(rng, 5, 4, bias=True, norm=True).bias is None
        assert nnops.linear_params(rng, 5, 4).bias is not None

    def test_norm_refuses_a_biased_layer(self):
        p = nnops.linear_params(np.random.default_rng(13), 5, 4)
        with pytest.raises(ContractError, match="no bias"):
            nnops.attach_norm(p, 4)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_missing_beta_is_zero_beta(self, mode):
        rng = np.random.default_rng(14)
        p = nnops.linear_params(rng, 5, 4, norm=True)
        p.norm_gamma.data = rng.uniform(-1.5, 1.5, 4)
        p.running_mean = rng.standard_normal(4)
        p.running_var = rng.uniform(0.5, 2.0, 4)
        x = Tensor(rng.standard_normal((6, 5)))
        want = nnops.linear_bn(x, copy.deepcopy(p), mode)
        p.norm_beta = None
        with GradTape() as tape:
            got = nnops.linear_bn(x, p, mode)
            grads = nnops.backward(tape, nnops.sum_all(nnops.relu(got)))
        assert np.array_equal(got.data, want.data)
        assert set(grads) == {p.weight, p.norm_gamma}


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
        v = Tensor(np.array([[[[[1.0, 2.0, 3.0]]]]]))
        p = LayerParams(weight=nnops.parameter(np.ones((1, 3))))
        out = nnops.grouped_projection(v, p)
        assert out.data.tolist() == [[[6.0]]]

    def test_equals_block_diagonal_matmul(self):
        # the kernel row of channel c holds one m-vector per slot, slot-major
        rng = np.random.default_rng(7)
        c, m = 5, 3
        for slots in (1, 4):
            v = rng.standard_normal((4, 6, slots, c, m))
            w = rng.standard_normal((c, slots * m))
            p = LayerParams(weight=nnops.parameter(w))
            out = nnops.grouped_projection(Tensor(v), p)
            dense = np.zeros((slots, c, m, c))
            for ci in range(c):
                dense[:, ci, :, ci] = w[ci].reshape(slots, m)
            expected = v.reshape(4, 6, slots * c * m) @ dense.reshape(-1, c)
            assert np.abs(out.data - expected).max() < 1e-12

    def test_m_mismatch(self):
        v = Tensor(np.zeros((1, 2, 1, 4, 3)))
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b", [1, 2])
    @pytest.mark.parametrize("slots", [1, 3])
    def test_weighted_equals_sum_of_unweighted(self, slots, b, dtype):
        # the slot-by-slot sum is bit-equal to numpy's sum over the slot axis
        rng = np.random.default_rng(slots + 10 * b)
        x = Tensor(rng.standard_normal((b, 40, 16)).astype(dtype))
        idx = rng.integers(0, 40, size=(b, 64, slots))
        w = rng.uniform(size=(b, 64, slots)).astype(dtype)
        rows = nnops.gather(x, idx).data
        got = nnops.gather(x, idx, w).data
        assert got.dtype == dtype
        assert np.array_equal(got, (rows * w[..., None]).sum(axis=-2))

    def test_weighted_builds_no_slot_tensor(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, 2048, 64)))
        idx = rng.integers(0, 2048, size=(2, 8192, 3))
        w = rng.uniform(size=(2, 8192, 3))
        tracemalloc.start()
        try:
            nnops.gather(x, idx, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8192 * 3 * 64 * 8   # one [B,N,3,C] float64 array, 25 MB


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

    def test_reuse_accumulates_through_branches(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        # loss = x*x + 3x -> grad 2x + 3
        _, grads = run_loss(
            lambda: nnops.add(nnops.sum_all(nnops.mul(x, x)),
                              nnops.sum_all(nnops.mul(x, Tensor(np.array([3.0]))))))
        assert np.allclose(grads[x], [7.0])

    def test_gradient_dropped_once_consumed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        incoming = []

        def later_grad(g):
            incoming.append(weakref.ref(g))
            return (np.full(3, 2.0 * float(g)),)

        def earlier_grad(g):
            # the later op has run: the gradient it received is gone
            assert incoming[0]() is None
            return (g * 3.0,)

        def forward():
            y = nnops.custom_op(x.data * 3.0, (x,), earlier_grad)
            return nnops.custom_op(np.asarray(y.data.sum() * 2.0), (y,), later_grad)

        _, grads = run_loss(forward)
        assert np.allclose(grads[x], 6.0)

    def test_output_of_another_tape_is_a_constant(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape():
            y = nnops.mul(x, x)
        with GradTape() as tape:
            z = nnops.sum_all(y)
            assert len(tape) == 0
            loss = nnops.add(z, nnops.sum_all(x))
            grads = nnops.backward(tape, loss)
        assert list(grads) == [x]
        assert np.allclose(grads[x], 1.0)

    def test_tape_keeps_only_what_backward_reads(self):
        """Under a tape, a train-mode dense layer holds, besides its output,
        the normalized copy that batchnorm's backward reads and the relu
        mask; not the outputs of its linear and its batchnorm."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4096, 64)))
        p = nnops.linear_params(rng, 64, 64, bias=False, norm=True)
        tracemalloc.start()
        try:
            with GradTape() as tape:
                y = nnops.dense(x, p, "train")
                held = tracemalloc.get_traced_memory()[0] - y.data.nbytes
        finally:
            tracemalloc.stop()
        assert len(tape) == 3
        needed = x.data.nbytes + x.data.size    # float64 xhat and a bool mask
        assert held <= 1.25 * needed

    def test_constant_made_after_a_dropped_output_is_not_tracked(self):
        """A new tensor may take the memory, and so the id(), of an op
        output the forward dropped; its key is new, so the tape still sees
        a constant and backward gives it no gradient."""
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            for _ in range(20):
                nnops.mul(x, x)
                c = Tensor(np.full(3, 2.0))
                assert not tape.tracks(c)
            # a gradient for c would be checked against c's shape and fail
            y = nnops.custom_op(x.data * c.data, (x, c), lambda g: (g * c.data, np.ones(5)))
            grads = nnops.backward(tape, nnops.sum_all(y))
        assert list(grads) == [x]
        assert np.array_equal(grads[x], c.data)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda t: pickle.loads(pickle.dumps(t))])
    def test_a_copied_tensor_has_its_own_key(self, clone):
        w = nnops.parameter(np.arange(3.0))
        w2 = clone(w)
        assert w2.key != w.key and w2.requires_grad
        assert np.array_equal(w2.data, w.data)
        with GradTape() as tape:
            grads = nnops.backward(tape, nnops.sum_all(nnops.add(w, nnops.mul(w2, w2))))
        assert np.array_equal(grads[w], np.ones(3)) and np.array_equal(grads[w2], 2 * w.data)

    def test_parameter_loss(self):
        w = nnops.parameter(np.array(2.5))
        with GradTape() as tape:
            grads = nnops.backward(tape, w)
        assert list(grads) == [w]
        assert grads[w] == 1.0


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

    def test_numpy_scalars_keep_dtype(self):
        # 0-d arithmetic returns numpy scalars, as `add` of two 0-d arrays does
        with nnops.precision("single"):
            assert Tensor(np.float64(1.5)).data.dtype == np.float64
            a = Tensor(np.array(1.0, dtype=np.float64))
            assert nnops.add(a, a).data.dtype == np.float64
            assert Tensor(1.5).data.dtype == np.float32


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
