from dataclasses import replace

import numpy as np
import pytest

from pointvector import dataio, gradcheck, nnops, oracle, setabs, train, vecenc
from pointvector.errors import ConfigError, DataError, NumericFaultError
from pointvector.geometry import PointSetBatch
from pointvector.model import Model, preset_config
from pointvector.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamWHyper,
    AdamWState,
    TrainConfig,
    adamw_step,
    ce_label_smoothing,
    check_trainable,
    evaluate,
    metrics,
    report_to_csv,
    train_loop,
)


def test_remainder_of_one_cloud_joins_previous_batch():
    data = dataio.make_dataset(dataio.DataConfig(num_scenes=25, num_points=32, noise_sigma=0.02),
                               "classification")
    assert len(data.split_indices("train")) == 20
    cfg = TrainConfig(epochs=1, batch_size=19, augment=False, seed=0)
    report = train_loop(preset_config("toy-cls", num_classes=data.num_classes),
                        cfg, data)
    assert [r.split for r in report.rows] == ["train", "val"]
    assert all(np.isfinite(r.loss) for r in report.rows)


def test_segmentation_trains_on_batches_of_one():
    """Only the classification head needs two clouds per batch."""
    data = dataio.make_dataset(dataio.DataConfig(num_scenes=3, num_points=64,
                                                 val_fraction=0.5), "segmentation")
    cfg = preset_config("toy-seg", num_classes=data.num_classes)
    check_trainable(cfg, TrainConfig(batch_size=1), data)
    with pytest.raises(ConfigError, match="train.batch_size"):
        check_trainable(replace(cfg, task="classification"), TrainConfig(batch_size=1), data)


def _adamw_formula(p, g, m, v, t, h):
    """The textbook update with bias-corrected moments."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    return p - h.lr * h.weight_decay * p - h.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


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

    @pytest.mark.parametrize("kind", ["double", "single"])
    def test_blocked_update_equals_oracle_bit_for_bit(self, kind):
        # "big" spans two full blocks and a ragged tail; "c" gets no
        # gradient on step 3
        shapes = {"big": (5, train._ADAM_BLOCK // 2 + 3), "one": (1,), "c": (7, 3)}
        rng = np.random.default_rng(1)
        with nnops.precision(kind):
            dtype = nnops.default_dtype()
            init = {n: rng.standard_normal(s).astype(dtype) for n, s in shapes.items()}
            params = {n: nnops.parameter(a.copy()) for n, a in init.items()}
            want = {n: nnops.parameter(a.copy()) for n, a in init.items()}
        state, want_state = AdamWState(), AdamWState()
        hyper = AdamWHyper(lr=0.05, weight_decay=0.01)
        for t in range(1, 6):
            g = {n: rng.standard_normal(s).astype(dtype) for n, s in shapes.items()
                 if not (n == "c" and t == 3)}
            held = {n: p.data for n, p in params.items()}
            before = {n: a.copy() for n, a in held.items()}
            moments = dict(state.m), dict(state.v)
            adamw_step(params, {params[n]: a for n, a in g.items()}, state, hyper)
            oracle.adamw_step(want, {want[n]: a for n, a in g.items()}, want_state, hyper)
            for n in shapes:
                assert params[n].data.dtype == dtype
                assert np.array_equal(params[n].data, want[n].data)
                assert np.array_equal(state.m[n], want_state.m[n])
                assert np.array_equal(state.v[n], want_state.v[n])
                assert np.array_equal(held[n], before[n])  # the caller's array is untouched
                for seen, now in zip(moments, (state.m, state.v)):
                    assert n not in seen or now[n] is seen[n]  # moments update in place
            assert (params["c"].data is held["c"]) == (t == 3)

    def test_non_finite_in_last_block_leaves_parameter_unchanged(self):
        rng = np.random.default_rng(2)
        w = nnops.parameter(rng.standard_normal(2 * train._ADAM_BLOCK + 9))
        params, state, hyper = {"layer.w": w}, AdamWState(), AdamWHyper()
        adamw_step(params, {w: rng.standard_normal(w.shape)}, state, hyper)
        saved = w.data.copy(), state.m["layer.w"].copy(), state.v["layer.w"].copy()
        g = rng.standard_normal(w.shape)
        g[-3] = np.nan
        with pytest.raises(NumericFaultError, match="layer.w"):
            adamw_step(params, {w: g}, state, hyper)
        for was, now in zip(saved, (w.data, state.m["layer.w"], state.v["layer.w"])):
            assert np.array_equal(was, now)


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


def test_metrics_of_no_samples_is_a_data_error():
    with pytest.raises(DataError, match="empty confusion matrix"):
        metrics(np.zeros((3, 3), dtype=np.int64))


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


def train_mode_fit(preset, num_clouds, num_points, steps=40):
    """(loss, accuracy) in train mode at each of `steps` AdamW steps at lr
    0.01 on the same `num_clouds` clouds, no augmentation and no smoothing."""
    task = preset_config(preset).task
    data = dataio.make_dataset(dataio.DataConfig(
        num_scenes=num_clouds, num_points=num_points, seed=0), task)
    mdl = Model(preset_config(preset, num_classes=data.num_classes), seed=0)
    forward = mdl.forward_seg if task == "segmentation" else mdl.forward_cls
    batch = PointSetBatch(positions=data.positions)
    params, state, hyper = mdl.named_params(), AdamWState(), AdamWHyper(lr=0.01)
    fits = []
    for _ in range(steps):
        with nnops.GradTape() as tape:
            logits = forward(batch, "train")
            loss = ce_label_smoothing(nnops.reshape(logits, (-1, data.num_classes)),
                                      data.labels.reshape(-1))
            grads = nnops.backward(tape, loss)
        adamw_step(params, grads, state, hyper)
        fits.append((float(loss.data), (logits.data.argmax(axis=-1) == data.labels).mean()))
    return fits


@pytest.mark.matrix
def test_toy_seg_overfits_two_scenes():
    """40 steps on two 64-point scenes reach a train-mode loss of about
    0.009 and 100% accuracy; a sign error in the update or an untrained
    output layer stays far above the loss bound."""
    loss, accuracy = train_mode_fit("toy-seg", 2, 64)[-1]
    assert accuracy >= 0.95
    assert loss < 0.03


def cell_step(preset, cell, seed=0):
    """A `preset` model with the ablation overrides `cell`, its data and
    the gradients of one train-mode step with label smoothing 0.1: two
    scenes for segmentation, four clouds for classification, 128 points."""
    task = preset_config(preset).task
    data = dataio.make_dataset(dataio.DataConfig(
        num_scenes=2 if task == "segmentation" else 4, num_points=128, seed=0), task)
    mdl = Model(preset_config(preset, num_classes=data.num_classes, **cell), seed=seed)
    with nnops.GradTape() as tape:
        grads = nnops.backward(tape, train_loss(mdl, data))
    return mdl, data, grads


def train_loss(mdl, data):
    """Label-smoothed (0.1) train-mode loss over every cloud of `data`."""
    forward = mdl.forward_seg if mdl.cfg.task == "segmentation" else mdl.forward_cls
    logits = forward(PointSetBatch(positions=data.positions), "train")
    return ce_label_smoothing(nnops.reshape(logits, (-1, data.num_classes)),
                              data.labels.reshape(-1), 0.1)


def cell_param(preset, aggregation, encoder, m, prefix="", marks=()):
    return pytest.param(preset, dict(aggregation=aggregation, encoder=encoder, vector_dim=m),
                        id=f"{prefix}{preset}-{aggregation}-{encoder}-{m}", marks=marks)


# the default cells, and one cell of each kind whose shift a batchnorm
# cancelled while the mlp encoder's output, the m=1 zx layer or global_sa's
# norm had one (toy-cls at its defaults still learned global_sa's beta)
LEARNING_CELLS = [
    pytest.param("toy-seg", {}, id="toy-seg"),
    pytest.param("toy-seg-ball", {}, id="toy-seg-ball"),
    pytest.param("toy-cls", {}, id="toy-cls"),
    cell_param("toy-seg", "sum_groupconv", "mlp", 3),
    cell_param("toy-seg", "max_fc", "rotation", 1),
    cell_param("toy-seg", "conv", "mlp", 2),
    cell_param("toy-seg-ball", "max_groupconv", "rotation", 1),
    cell_param("toy-cls", "sum_groupconv", "rotation", 3),
]
# every aggregation x encoder x vector-dim cell of each toy preset
MATRIX_CELLS = [
    cell_param(preset, agg, enc, m, prefix="matrix-", marks=pytest.mark.matrix)
    for preset in ("toy-seg", "toy-seg-ball", "toy-cls")
    for agg in setabs.AGGREGATION_MODES for enc in sorted(vecenc.ENCODERS) for m in (1, 2, 3)]


@pytest.mark.parametrize("preset, cell", LEARNING_CELLS + MATRIX_CELLS)
def test_every_parameter_learns(preset, cell):
    """One train step reaches exactly the named parameters, and each of them
    with a gradient above 1e-12 of the largest: no layer is left out of
    `named_params`, and none is frozen, e.g. cancelled by a batchnorm."""
    mdl, _, grads = cell_step(preset, cell)
    params = mdl.named_params()
    named = {id(t) for t in params.values()}
    assert [t.shape for t in grads if id(t) not in named] == []   # unnamed tensors
    assert len(grads) == len(params)
    largest = max(np.abs(g).max() for g in grads.values())
    frozen = [name for name, t in params.items() if np.abs(grads[t]).max() <= 1e-12 * largest]
    assert frozen == []


@pytest.mark.matrix
@pytest.mark.parametrize("preset", ["toy-seg", "toy-cls"])
def test_whole_model_gradient_matches_finite_differences(preset):
    """Backward through the composed network against a central difference
    (h = 1e-8, float64) of the train-mode loss along one random direction
    per parameter tensor, within 1e-4 relative.

    Every bias is first moved 0.05 N(0,1) off zero: a zero VPSA pos.bias
    puts the self-neighbor's mixed feature exactly on its relu kink, where a
    central difference reads half the slope. A draw near another kink is
    redrawn, up to gradcheck.RETRIES times."""
    h = 1e-8
    with nnops.precision("double"):
        for attempt in range(gradcheck.RETRIES):
            rng = np.random.default_rng([attempt, 0xfd])
            mdl, data, _ = cell_step(preset, {}, seed=attempt)
            params = mdl.named_params()
            for name, t in params.items():
                if name.endswith(".bias"):
                    t.data = t.data + 0.05 * rng.standard_normal(t.shape)
            with nnops.GradTape() as tape:
                grads = nnops.backward(tape, train_loss(mdl, data))
            worst = 0.0
            for t in params.values():
                d, saved = rng.standard_normal(t.shape), t.data
                t.data = saved + h * d
                up = float(train_loss(mdl, data).data)
                t.data = saved - h * d
                down = float(train_loss(mdl, data).data)
                t.data = saved
                analytic = np.asarray(np.sum(grads[t] * d))
                worst = max(worst, gradcheck.relative_error(
                    analytic, np.asarray((up - down) / (2 * h))))
            if worst < 1e-4:
                break
    assert worst < 1e-4


@pytest.mark.matrix
@pytest.mark.parametrize("preset", ["toy-cls", "toy-seg-ball"])
def test_train_mode_fit_improves(preset):
    """40 steps on the same 128-point clouds (8 for classification, 2 scenes
    for segmentation) cut the train-mode loss on them 20-fold, to about 4e-4
    for toy-cls and 0.011 for toy-seg-ball, and lift the train-mode accuracy
    from about 0.5 and 0.3 to 1. Val accuracy would not show it: eval mode
    reads running statistics that lag the weights for the first epochs."""
    fits = train_mode_fit(preset, 8 if preset == "toy-cls" else 2, 128)
    (first_loss, first_acc), (last_loss, last_acc) = fits[0], fits[-1]
    assert last_loss < 0.05 * first_loss
    assert first_acc < 0.6 and last_acc >= 0.95
