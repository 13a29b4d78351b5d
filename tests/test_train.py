import numpy as np
import pytest

from pointvector import dataio, nnops
from pointvector.errors import ConfigError, NumericFaultError
from pointvector.geometry import PointSetBatch
from pointvector.model import Model, preset_config
from pointvector.train import (
    AdamWHyper,
    AdamWState,
    TrainConfig,
    adamw_step,
    ce_label_smoothing,
    evaluate,
    report_to_csv,
    train_loop,
)


def test_remainder_of_one_cloud_joins_previous_batch():
    data = dataio.make_classification_dataset(num_clouds=25, num_points=32, seed=0)
    assert len(data.split_indices("train")) == 20
    cfg = TrainConfig(epochs=1, batch_size=19, augment=False, seed=0)
    report = train_loop(preset_config("toy-cls", num_classes=data.num_classes),
                        cfg, data)
    assert [r.split for r in report.rows] == ["train", "val"]
    assert all(np.isfinite(r.loss) for r in report.rows)


def _adamw_formula(p, g, m, v, t, h):
    """The textbook update with bias-corrected moments."""
    m = h.beta1 * m + (1.0 - h.beta1) * g
    v = h.beta2 * v + (1.0 - h.beta2) * g * g
    m_hat = m / (1.0 - h.beta1 ** t)
    v_hat = v / (1.0 - h.beta2 ** t)
    return p - h.lr * h.weight_decay * p - h.lr * m_hat / (np.sqrt(v_hat) + h.eps), m, v


class TestAdamW:
    def test_equals_formula_over_steps(self):
        rng = np.random.default_rng(0)
        w = nnops.parameter(rng.standard_normal((4, 3)))
        params, state = {"w": w}, AdamWState()
        hyper = AdamWHyper(lr=0.05, weight_decay=0.01)
        p, m, v = w.data.copy(), np.zeros((4, 3)), np.zeros((4, 3))
        for t in range(1, 6):
            g = rng.standard_normal((4, 3))
            held = w.data
            before = held.copy()
            adamw_step(params, {w: g}, state, hyper)
            p, m, v = _adamw_formula(p, g, m, v, t, hyper)
            assert np.array_equal(held, before)  # the caller's array is untouched
            assert np.abs(w.data - p).max() <= 1e-14 * np.abs(p).max()
            assert np.abs(state.m["w"] - m).max() <= 1e-14 * np.abs(m).max()
            assert np.abs(state.v["w"] - v).max() <= 1e-14 * np.abs(v).max()

    def test_non_finite_gradient_rejected(self):
        w = nnops.parameter(np.ones(3))
        with pytest.raises(NumericFaultError, match="w"):
            adamw_step({"w": w}, {w: np.array([0.0, np.inf, 1.0])}, AdamWState(),
                       AdamWHyper())


class TestRadiusScale:
    def test_equals_model_built_with_scaled_radii(self):
        data = dataio.make_segmentation_dataset(num_scenes=8, num_points=128, seed=0)
        cfg = preset_config("toy-seg-ball", num_classes=data.num_classes)
        scaled = preset_config("toy-seg-ball", num_classes=data.num_classes,
                               radii=[r * 1.2 for r in cfg.radii])
        loss, confusion = evaluate(Model(cfg, seed=3), data, "val", 0.1, 4,
                                   radius_scale=1.2)
        want_loss, want_confusion = evaluate(Model(scaled, seed=3), data, "val", 0.1, 4)
        assert loss == want_loss
        assert np.array_equal(confusion, want_confusion)

    def test_knn_model_rejects_radius_scale(self):
        data = dataio.make_segmentation_dataset(num_scenes=5, num_points=64, seed=0)
        mdl = Model(preset_config("toy-seg", num_classes=data.num_classes))
        with pytest.raises(ConfigError, match="ball-query"):
            evaluate(mdl, data, "val", 0.1, radius_scale=1.2)


@pytest.mark.parametrize("entry", ["evaluate", "train_loop"])
@pytest.mark.parametrize("model_classes", [8, 6])
def test_class_count_mismatch_is_a_config_error(entry, model_classes):
    data = dataio.make_segmentation_dataset(num_scenes=5, num_points=64, seed=0)
    assert data.num_classes == 3
    cfg = preset_config("toy-seg", num_classes=model_classes)
    with pytest.raises(ConfigError, match=f"{model_classes} classes .* has 3"):
        if entry == "evaluate":
            evaluate(Model(cfg), data, "val", 0.1)
        else:
            train_loop(cfg, TrainConfig(epochs=1, batch_size=4), data)


def test_metrics_csv_is_seed_deterministic():
    data = dataio.make_segmentation_dataset(num_scenes=6, num_points=64, seed=0)
    model_cfg = preset_config("toy-seg", num_classes=data.num_classes)

    def csv(seed):
        """Every column but the last, wall_ms, which is a clock reading."""
        cfg = TrainConfig(epochs=2, batch_size=4, seed=seed)
        lines = report_to_csv(train_loop(model_cfg, cfg, data)).splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    first = csv(1)
    assert csv(1) == first
    assert csv(2) != first


def test_toy_seg_overfits_two_scenes():
    """40 AdamW steps at lr 0.01 on two 64-point scenes, no augmentation and
    no smoothing, reach a train-mode loss of about 0.009 and 100% accuracy;
    a sign error in the update or an untrained output layer stays far above
    the loss bound."""
    data = dataio.make_segmentation_dataset(num_scenes=2, num_points=64, seed=0)
    mdl = Model(preset_config("toy-seg", num_classes=data.num_classes), seed=0)
    batch = PointSetBatch(positions=data.positions, labels=data.labels)
    labels = data.labels.reshape(-1)
    params, state, hyper = mdl.named_params(), AdamWState(), AdamWHyper(lr=0.01)
    for _ in range(40):
        with nnops.GradTape() as tape:
            logits = mdl.forward_seg(batch, "train")
            loss = ce_label_smoothing(nnops.reshape(logits, (-1, data.num_classes)), labels)
            grads = nnops.backward(tape, loss)
        adamw_step(params, grads, state, hyper)
    assert (logits.data.argmax(axis=-1) == data.labels).mean() >= 0.95
    assert float(loss.data) < 0.03


@pytest.mark.parametrize("preset", ["toy-seg", "toy-seg-ball"])
def test_every_parameter_learns(preset):
    """One train step reaches exactly the named parameters, and each of them
    with a gradient above 1e-12 of the largest: no layer is left out of
    `named_params`, and none is frozen, e.g. cancelled by a batchnorm.

    Classification is left out: its global_sa.norm_beta sits before a max
    and a batchnorm, so its gradient is 0 whenever every pooled maximum is
    positive."""
    data = dataio.make_segmentation_dataset(num_scenes=2, num_points=128, seed=0)
    mdl = Model(preset_config(preset, num_classes=data.num_classes), seed=0)
    batch = PointSetBatch(positions=data.positions, labels=data.labels)
    with nnops.GradTape() as tape:
        logits = mdl.forward_seg(batch, "train")
        loss = ce_label_smoothing(nnops.reshape(logits, (-1, data.num_classes)),
                                  data.labels.reshape(-1), 0.1)
        grads = nnops.backward(tape, loss)
    params = mdl.named_params()
    named = {id(t) for t in params.values()}
    assert [t.shape for t in grads if id(t) not in named] == []   # unnamed tensors
    assert len(grads) == len(params)
    largest = max(np.abs(g).max() for g in grads.values())
    frozen = [name for name, t in params.items() if np.abs(grads[t]).max() <= 1e-12 * largest]
    assert frozen == []
