import copy
import dataclasses
import functools

import numpy as np
import pytest

from pointvector import geometry, nnops, oracle, setabs, vecenc
from pointvector import model as model_mod
from pointvector.errors import CheckpointError, ConfigError, NumericFaultError, SizeError
from pointvector.geometry import PointSetBatch
from pointvector.model import (
    Model,
    ModelConfig,
    load_checkpoint,
    param_count,
    preset_config,
    save_checkpoint,
)
from pointvector.nnops import GradTape, Tensor


def cloud(rng, b, n):
    return PointSetBatch(positions=rng.uniform(-1, 1, (b, n, 3)))


@functools.lru_cache(maxsize=None)
def preset_model(name):
    """One default-built model per preset, shared by tests that leave its
    parameters and statistics untouched (pointvector-xl takes 0.3 s to build)."""
    return Model(preset_config(name))


class TestCloudSize:
    def test_min_points_is_exact(self):
        rng = np.random.default_rng(0)
        mdl = Model(preset_config("toy-seg", num_classes=4))
        need = mdl.cfg.min_points()
        assert mdl.forward_seg(cloud(rng, 1, need), "eval").data.shape == (1, need, 4)
        with pytest.raises(SizeError, match=f"at least {need} points"):
            mdl.forward_seg(cloud(rng, 1, need - 1), "eval")

    def test_preset_rejects_small_cloud_at_entry(self):
        mdl = Model(preset_config("pointvector-s"))
        assert mdl.cfg.min_points() == 449  # 449 -> 113 -> 29 -> 8 points, k=8
        with pytest.raises(SizeError, match="at least 449 points"):
            mdl.forward_seg(cloud(np.random.default_rng(1), 1, 256), "eval")

    def test_classification_checks_too(self):
        mdl = Model(preset_config("toy-cls", num_classes=3))
        with pytest.raises(SizeError, match=f"at least {mdl.cfg.min_points()} points"):
            mdl.forward_cls(cloud(np.random.default_rng(2), 2, mdl.cfg.min_points() - 1))


class TestAblationCellsTrain:
    @pytest.mark.parametrize("encoder", ["rotation", "mlp", "direction"])
    @pytest.mark.parametrize("vector_dim", [1, 2, 3])
    def test_backward_gives_parameter_shaped_gradients(self, encoder, vector_dim):
        rng = np.random.default_rng(3)
        mdl = Model(preset_config("toy-seg", num_classes=3, encoder=encoder,
                                  vector_dim=vector_dim))
        with GradTape() as tape:
            logits = mdl.forward_seg(cloud(rng, 2, 40), "train")
            loss = nnops.sum_all(logits)
            grads = nnops.backward(tape, loss)
        params = mdl.named_params()
        assert grads
        for t, g in grads.items():
            assert g.shape == t.data.shape
        assert set(map(id, grads)) <= set(map(id, params.values()))


class TestNonFinite:
    def test_nan_weight_is_reported_not_hidden(self):
        # batchnorm spreads the NaN over its channel; a relu that maps NaN to
        # 0 used to zero all of it and return finite logits
        mdl = Model(preset_config("toy-seg", num_classes=3))
        mdl.embed.weight.data[0, 0] = np.nan
        with pytest.raises(NumericFaultError):
            mdl.forward_seg(cloud(np.random.default_rng(4), 2, 40), "train")

    def test_fault_names_the_layer_map_path(self):
        mdl = Model(preset_config("toy-seg", num_classes=3))
        mdl.named_params()["stage0.vpsa0.res.weight"].data[0, 0] = np.nan
        with pytest.raises(NumericFaultError, match=r"in stage0\.vpsa0$"):
            mdl.forward_seg(cloud(np.random.default_rng(4), 2, 40), "train")
        assert any(path.startswith("stage0.vpsa0.") for path in mdl.layer_map())

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("param", ["stage0.sa0.mlp.0.weight", "stage0.sa0.mlp.1.weight"])
    def test_fault_in_a_deep_sa_block_names_it(self, param, mode):
        # the first layer of a two-layer SA block runs per point, the last
        # channel-major; a NaN in either weight must reach the block's output
        mdl = Model(preset_config("toy-seg-ball", num_classes=3))
        mdl.named_params()[param].data[0, 0] = np.nan
        with pytest.raises(NumericFaultError, match=r"in stage0\.sa0$"):
            mdl.forward_seg(cloud(np.random.default_rng(4), 2, 40), mode)

    @pytest.mark.parametrize("preset,param,where", [
        ("toy-cls", "global_sa.weight", r"global_sa"),
        ("toy-seg", "head.hidden.weight", r"head\.hidden"),
        ("toy-cls", "head.hidden.weight", r"head\.hidden")])
    def test_fault_in_the_head_names_its_layer(self, preset, param, where):
        mdl = Model(preset_config(preset, num_classes=3))
        mdl.named_params()[param].data[0, 0] = np.nan
        forward = mdl.forward_seg if mdl.cfg.task == "segmentation" else mdl.forward_cls
        with pytest.raises(NumericFaultError, match=rf"in {where}$"):
            forward(cloud(np.random.default_rng(4), 2, 40), "train")


def _random_running_stats(mdl, rng):
    """Give every normalized layer running statistics away from 0 and 1."""
    for layer in mdl.layer_map().values():
        if layer.running_mean is not None:
            c = layer.running_mean.shape[0]
            layer.running_mean = rng.standard_normal(c) * 0.1
            layer.running_var = rng.uniform(0.5, 2.0, c)


def _spy_on_batchnorm(monkeypatch):
    """Record every call of nnops.batchnorm in the returned list."""
    calls = []
    batchnorm = nnops.batchnorm
    monkeypatch.setattr(nnops, "batchnorm",
                        lambda *a, **kw: calls.append(1) or batchnorm(*a, **kw))
    return calls


class TestTapeFreeEval:
    """Eval runs the folded dense layers and runs the default VPSA cell as
    one op, vecenc.rotate_cell, with or without a tape."""

    @pytest.mark.parametrize("preset", [
        "pointvector-s", pytest.param("pointvector-l", marks=pytest.mark.matrix), "toy-seg",
        "toy-seg-ball", "pointvector-s-cls", "toy-cls"])
    def test_equals_eval_under_a_tape(self, preset, monkeypatch):
        """Tape-free eval and eval under a tape against the same model whose
        cell is the op-by-op chain oracle.unfused_rotate_cell, under a tape."""
        rng = np.random.default_rng(9)
        mdl = Model(preset_config(preset, num_classes=5), seed=1)
        _random_running_stats(mdl, rng)
        need = mdl.cfg.min_points()
        batch = cloud(rng, 2 if need < 500 else 1, max(need, 40))
        forward = mdl.forward_seg if mdl.cfg.task == "segmentation" else mdl.forward_cls
        calls = _spy_on_batchnorm(monkeypatch)   # eval folds every batchnorm
        got = forward(batch, "eval").data
        with GradTape():
            got_taped = forward(batch, "eval").data
        assert calls == []
        monkeypatch.setattr(vecenc, "rotate_cell", oracle.unfused_rotate_cell)
        with GradTape():
            want = forward(batch, "eval").data
        for g in (got, got_taped):
            assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.matrix
    def test_xl_eval_folds_every_batchnorm(self, monkeypatch):
        # the other presets are spied on in test_equals_eval_under_a_tape
        calls = _spy_on_batchnorm(monkeypatch)
        mdl = preset_model("pointvector-xl")
        mdl.forward_seg(cloud(np.random.default_rng(10), 1, mdl.cfg.min_points()), "eval")
        assert calls == []

    def test_nan_angle_weight_names_the_block(self):
        mdl = Model(preset_config("toy-seg", num_classes=3))
        mdl.named_params()["stage0.vpsa0.encoder.angles.weight"].data[0, 0] = np.nan
        with pytest.raises(NumericFaultError, match=r"in stage0\.vpsa0$"):
            mdl.forward_seg(cloud(np.random.default_rng(4), 2, 40), "eval")


def _cls_step(mdl, batch, mode, probe):
    """Logits, every parameter's gradient and the running statistics after
    one forward_cls and backward of the probe-weighted logits."""
    with GradTape() as tape:
        logits = mdl.forward_cls(batch, mode)
        grads = nnops.backward(tape, nnops.sum_all(nnops.mul(logits, Tensor(probe))))
    return ([logits.data] + [grads[t] for t in mdl.named_params().values()]
            + list(mdl.named_running().values()))


class TestGlobalSA:
    """The classification head's global set abstraction is one
    setabs.pooled_sa op over all points around the centroid."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_matches_the_composed_global_sa(self, mode, offset, monkeypatch):
        """Logits, every gradient and the running statistics of toy-cls
        against the same model whose head runs oracle.composed_sa."""
        rng = np.random.default_rng(14)
        mdl = Model(preset_config("toy-cls", num_classes=5), seed=4)
        _random_running_stats(mdl, rng)
        ref = copy.deepcopy(mdl)
        batch = cloud(rng, 2, 64)
        batch.positions += offset
        probe = rng.standard_normal((2, 5))
        got = _cls_step(mdl, batch, mode, probe)
        monkeypatch.setattr(setabs, "pooled_sa", oracle.composed_sa)
        want = _cls_step(ref, batch, mode, probe)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_is_one_pooled_sa_call(self, monkeypatch):
        mdl = Model(preset_config("toy-cls", num_classes=3))
        calls = []
        pooled = setabs.pooled_sa
        monkeypatch.setattr(setabs, "pooled_sa",
                            lambda *a: calls.append(a[5]) or pooled(*a))
        logits = mdl.forward_cls(cloud(np.random.default_rng(15), 2, 40), "train")
        assert logits.data.shape == (2, 3)
        assert len(calls) == 1
        assert len(calls[0]) == 1 and calls[0][0] is mdl.global_sa


class TestPointOrder:
    """Permuting the points of each cloud permutes the segmentation logits
    and leaves the classification logits unchanged, for the kNN presets.
    toy-seg-ball is not pinned: its ball query keeps the first k in-radius
    points by index."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("preset,n", [
        ("toy-seg", 128), ("toy-cls", 128),
        pytest.param("pointvector-s", 512, marks=pytest.mark.matrix)])
    def test_logits_follow_the_points(self, preset, n, mode):
        rng = np.random.default_rng(13)
        mdl = Model(preset_config(preset, num_classes=5), seed=2)
        _random_running_stats(mdl, rng)
        batch = cloud(rng, 2, n)
        perm = np.stack([rng.permutation(n) for _ in range(2)])
        permuted = PointSetBatch(
            positions=np.take_along_axis(batch.positions, perm[..., None], axis=1))
        if mdl.cfg.task == "segmentation":
            want = np.take_along_axis(mdl.forward_seg(batch, mode).data, perm[..., None], axis=1)
            got = mdl.forward_seg(permuted, mode).data
        else:
            want = mdl.forward_cls(batch, mode).data
            got = mdl.forward_cls(permuted, mode).data
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _assert_step_stays_float32(**overrides):
    """One single-precision toy-seg train step: every parameter gets a
    float32 gradient and every running statistic stays float32."""
    with nnops.precision("single"):
        mdl = Model(preset_config("toy-seg", num_classes=3, **overrides))
        with GradTape() as tape:
            logits = mdl.forward_seg(cloud(np.random.default_rng(5), 2, 40), "train")
            grads = nnops.backward(tape, nnops.sum_all(logits))
    assert len(grads) == len(mdl.named_params())
    assert all(g.dtype == np.float32 for g in grads.values())
    assert all(a.dtype == np.float32 for a in mdl.named_running().values())


class TestSinglePrecision:
    def test_every_gradient_of_a_step_stays_float32(self):
        with nnops.precision("single"):
            mdl = Model(preset_config("toy-seg", num_classes=3))
            with GradTape() as tape:
                logits = mdl.forward_seg(cloud(np.random.default_rng(5), 2, 40), "train")
                grads = nnops.backward(tape, nnops.sum_all(logits))
        assert logits.data.dtype == np.float32
        assert len(grads) == len(mdl.named_params())
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}


    def test_pooled_sa_step_stays_float32(self):
        _assert_step_stays_float32(sa_layers=1)

    def test_deep_pooled_sa_step_stays_float32(self):
        # the toy-seg preset's SA blocks have two layers
        assert preset_config("toy-seg", num_classes=3).sa_layers == 2
        _assert_step_stays_float32()


class TestCheckpointPrecision:
    def test_load_follows_the_current_precision(self, tmp_path):
        mdl = Model(preset_config("toy-seg", num_classes=3), seed=1)
        path = tmp_path / "m.npz"
        save_checkpoint(mdl, path)
        with nnops.precision("single"):
            single, _ = load_checkpoint(path)
        for t in single.named_params().values():
            assert t.data.dtype == np.float32
        for arr in single.named_running().values():
            assert arr.dtype == np.float32

    def test_double_round_trip_is_bit_exact(self, tmp_path):
        mdl = Model(preset_config("toy-seg", num_classes=3), seed=2)
        path = tmp_path / "m.npz"
        save_checkpoint(mdl, path)
        loaded, _ = load_checkpoint(path)
        pairs = [(t.data, loaded.named_params()[name].data)
                 for name, t in mdl.named_params().items()]
        pairs += [(arr, loaded.named_running()[name])
                  for name, arr in mdl.named_running().items()]
        for want, got in pairs:
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("aggregation", setabs.AGGREGATION_MODES)
    def test_round_trip_is_bit_exact_for_every_aggregation(self, tmp_path, aggregation):
        mdl = Model(preset_config("toy-seg", num_classes=3, aggregation=aggregation,
                                  vector_dim=2), seed=3)
        rng = np.random.default_rng(4)
        for layer in mdl.layer_map().values():
            if layer.running_mean is not None:
                layer.running_mean = rng.standard_normal(layer.running_mean.shape)
                layer.running_var = rng.uniform(0.5, 2.0, layer.running_var.shape)
        path = tmp_path / "m.npz"
        save_checkpoint(mdl, path)
        loaded, _ = load_checkpoint(path)
        params, got_params = mdl.named_params(), loaded.named_params()
        running, got_running = mdl.named_running(), loaded.named_running()
        assert list(got_params) == list(params) and list(got_running) == list(running)
        pairs = [(t.data, got_params[name].data) for name, t in params.items()]
        pairs += [(arr, got_running[name]) for name, arr in running.items()]
        for want, got in pairs:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # one projection slot per block: proj [C, K'·m] or fc [K'·C·m, Cout]
        block = loaded.stages[0][1].params
        k_slots = 8 if aggregation in ("conv", "groupconv") else 1
        if block.fc is None:
            assert block.proj.weight.data.shape == (32, k_slots * 2)
        else:
            assert block.fc.weight.data.shape == (k_slots * 32 * 2, 32)
        batch = PointSetBatch(positions=rng.uniform(-1, 1, (1, 64, 3)))
        assert np.array_equal(loaded.forward_seg(batch, "eval").data,
                              mdl.forward_seg(batch, "eval").data)


class TestSharedNeighborhoods:
    """Stride-1 VPSA blocks of a stage group once and share the neighborhood."""

    @pytest.mark.parametrize("preset,search", [("toy-seg", "knn"),
                                               ("toy-seg-ball", "ball_query")])
    def test_one_grouping_per_stage(self, preset, search, monkeypatch):
        # two stages of [SA stride 2, VPSA, VPSA]
        mdl = Model(preset_config(preset, num_classes=4, vpsa_per_stage=[2, 2]))
        batch = cloud(np.random.default_rng(6), 2, 64)
        calls = []
        original = getattr(geometry, search)
        monkeypatch.setattr(geometry, search,
                            lambda *a, **kw: calls.append(1) or original(*a, **kw))
        shared = mdl.forward_seg(batch, "train").data
        assert len(calls) == 4  # 2 SA + 2 VPSA groupings

        # every block grouping on its own gives the same logits
        vpsa_block = setabs.vpsa_block
        monkeypatch.setattr(setabs, "vpsa_block",
                            lambda *a, nbr=None, **kw: vpsa_block(*a, **kw))
        calls.clear()
        own = mdl.forward_seg(batch, "train").data
        assert len(calls) == 2 + 6  # the model's shared groupings go unused
        assert np.array_equal(own, shared)

    def test_given_neighborhood_needs_stride_one(self):
        rng = np.random.default_rng(7)
        mdl = Model(preset_config("toy-seg", num_classes=4))
        block = mdl.stages[0][1]
        x = PointSetBatch(positions=rng.uniform(-1, 1, (1, 20, 3)))
        f = Tensor(rng.standard_normal((1, 20, 16)))
        nbr = setabs.group(x, block.cfg)
        strided = dataclasses.replace(block.cfg, stride=2)
        with pytest.raises(ConfigError, match="stride-1"):
            setabs.vpsa_block(x, f, strided, block.params, "eval", nbr=nbr)


class TestParameterCounts:
    """The segmentation presets' sizes and some ablation cells', pinned so
    that no change adds or drops a weight unnoticed."""

    COUNTS = {"pointvector-s": 969_709, "pointvector-l": 4_208_749,
              "pointvector-xl": 24_078_413}

    @pytest.mark.parametrize("preset", COUNTS)
    def test_preset_count(self, preset):
        assert param_count(preset_model(preset)) == self.COUNTS[preset]

    # three classes, one per data kind; each cell lacks a bias that a
    # batchnorm cancels: global_sa's beta (128), the mlp encoder's output
    # bias (96 + 192) and the m=1 zx bias (32 + 64)
    CELL_COUNTS = [("toy-cls", {}, 27_139),
                   ("toy-seg", dict(encoder="mlp"), 45_971),
                   ("toy-seg", dict(aggregation="max_fc", vector_dim=1), 30_131)]

    @pytest.mark.parametrize("preset, cell, count", CELL_COUNTS)
    def test_cell_count(self, preset, cell, count):
        assert param_count(Model(preset_config(preset, num_classes=3, **cell))) == count

    def test_xl_is_58_percent_of_pointnext_xl(self):
        # the abstract's "58% of PointNeXt's parameters"; PointNeXt-XL has
        # 41.6M (Qian et al., PointNeXt, arXiv 2206.04670)
        count = param_count(preset_model("pointvector-xl"))
        assert abs(count - 0.58 * 41.6e6) <= 0.01 * 0.58 * 41.6e6


class TestModelConfigSwitches:
    def test_default_aggregation_follows_the_task(self):
        assert preset_config("toy-seg").resolved_aggregation() == "sum_groupconv"
        assert preset_config("toy-cls").resolved_aggregation() == "max_groupconv"

    @pytest.mark.parametrize("switch", [{"aggregation": "mean"}, {"encoder": "bogus"},
                                        {"vector_dim": 4}])
    def test_bad_switch_rejected_without_vpsa_blocks(self, switch):
        # an SA-only model never reads the switches, yet still rejects a bad one
        with pytest.raises(ConfigError, match=next(iter(switch))):
            ModelConfig(sa_per_stage=[1, 1], vpsa_per_stage=[0, 0], strides=[2, 2],
                        **switch)

    def test_unknown_preset_override_is_a_config_error(self):
        with pytest.raises(ConfigError, match="reduction"):
            preset_config("toy-seg", reduction="max")


def test_older_checkpoint_version_rejected(tmp_path, monkeypatch):
    # version 2 stored the groupconv kernel as slot [C, K, m] and conv's map as
    # conv; version 3 had a VPSA projection bias and a separate VPSA norm layer;
    # version 4 had the mlp encoder's output bias, the m=1 zx bias and
    # global_sa's beta, which a load would silently drop
    for version in (1, 2, 3, 4):
        path = tmp_path / f"v{version}.npz"
        monkeypatch.setattr(model_mod, "CHECKPOINT_FORMAT_VERSION", version)
        save_checkpoint(Model(preset_config("toy-seg", num_classes=3)), path)
        monkeypatch.undo()
        with pytest.raises(CheckpointError, match=f"version {version}"):
            load_checkpoint(path)
