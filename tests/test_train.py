import numpy as np
import pytest

from pointvector import dataio, nnops
from pointvector.errors import ConfigError, NumericFaultError
from pointvector.model import Model, preset_config
from pointvector.train import (
    AdamWHyper,
    AdamWState,
    TrainConfig,
    adamw_step,
    evaluate,
    report_to_csv,
    train_loop,
)


def test_remainder_of_one_cloud_joins_previous_batch():
    data = dataio.make_classification_dataset(num_clouds=25, num_points=32, seed=0)
    assert len(data.split_indices("train")) == 20
    cfg = TrainConfig(epochs=1, batch_size=19, augment=False, seed=0,
                      deterministic_timing=True)
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


def test_metrics_csv_is_seed_deterministic():
    data = dataio.make_segmentation_dataset(num_scenes=6, num_points=64, seed=0)
    model_cfg = preset_config("toy-seg", num_classes=data.num_classes)

    def csv(seed):
        cfg = TrainConfig(epochs=2, batch_size=4, seed=seed, deterministic_timing=True)
        return report_to_csv(train_loop(model_cfg, cfg, data))

    first = csv(1)
    assert csv(1) == first
    assert csv(2) != first
