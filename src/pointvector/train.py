"""Loss, optimizer, schedule, metrics, augmentation, and the training loop.

Everything is deterministic under a fixed seed: parameter init, batch order,
and augmentation draws all derive from independent seed-sequence streams.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as model_mod
from . import nnops
from .dataio import Dataset
from .errors import ConfigError, DataError, NumericFaultError
from .geometry import PointSetBatch
from .model import Model, ModelConfig
from .nnops import GradTape, Tensor, custom_op


# train-section keys of older configs and the model field that replaces each
_MOVED_TO_MODEL = {"encoder": "model.encoder", "vector_dim": "model.vector_dim",
                  "aggregation": "model.aggregation", "reduction": "model.aggregation"}


@dataclass
class TrainConfig:
    lr0: float = 0.002
    weight_decay: float = 1e-4
    epochs: int = 20
    batch_size: int = 16
    label_smoothing: float = 0.1
    seed: int = 0
    augment: bool = True
    rotate_mode: str = "discrete"  # discrete {0, pi/2, pi, 3pi/2} | uniform | none
    jitter_sigma: float = 0.01
    jitter_clip: float = 0.05
    shift_max: float = 0.2
    scale_range: list[float] = field(default_factory=lambda: [0.8, 1.2])

    def __post_init__(self):
        model_mod.check_field_types(self, "train")
        for name in ("lr0", "weight_decay", "jitter_sigma", "jitter_clip", "shift_max"):
            if getattr(self, name) < 0:
                raise ConfigError(f"train.{name} must be nonnegative, got {getattr(self, name)}")
        if len(self.scale_range) != 2 or not 0 < self.scale_range[0] <= self.scale_range[1]:
            raise ConfigError(f"train.scale_range must be [lo, hi] with 0 < lo <= hi, "
                              f"got {self.scale_range}")
        if not 0 <= self.label_smoothing < 1:
            raise ConfigError(
                f"train.label_smoothing must lie in [0, 1), got {self.label_smoothing}")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"train.{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.seed}")
        if self.rotate_mode not in ("discrete", "uniform", "none"):
            raise ConfigError(f"train.rotate_mode must be discrete, uniform or none, "
                              f"got {self.rotate_mode!r}")

    @classmethod
    def from_dict(cls, d) -> "TrainConfig":
        """The train section, read by `read_section`; a key that moved to
        the model section gets a hint naming its new home."""
        moved = sorted(set(d) & _MOVED_TO_MODEL.keys()) if isinstance(d, dict) else []
        if moved:
            raise ConfigError("set model switches in the model section: " + ", ".join(
                f"train.{k} -> {_MOVED_TO_MODEL[k]}" for k in moved))
        return model_mod.read_section(cls, d, "train")


@dataclass
class EpochRow:
    epoch: int
    split: str
    loss: float
    lr: float
    oa: float
    macc: float
    miou: float
    wall_ms: float


@dataclass
class TrainReport:
    rows: list = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float = -1.0
    checkpoint_path: str | None = None
    param_count: int = 0


CSV_HEADER = "epoch,split,loss,lr,oa,macc,miou,wall_ms"


def report_to_csv(report: TrainReport) -> str:
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(f"{r.epoch},{r.split},{r.loss!r},{r.lr!r},{r.oa!r},"
                     f"{r.macc!r},{r.miou!r},{r.wall_ms!r}")
    return "\n".join(lines) + "\n"


def write_metrics_csv(report: TrainReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_to_csv(report))


# ---------------------------------------------------------------------------
# loss


def ce_label_smoothing(logits: Tensor, labels: np.ndarray, eps: float = 0.0) -> Tensor:
    """Mean cross entropy against (1-eps)*onehot + eps/K targets."""
    if logits.data.ndim != 2:
        raise ConfigError(f"expected flat [S,K] logits, got {logits.data.shape}")
    s, k = logits.data.shape
    labels = np.asarray(labels).reshape(-1)
    if labels.shape[0] != s:
        raise DataError(f"{labels.shape[0]} labels for {s} logit rows")
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(f"labels outside [0, {k})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    rows = np.arange(s)
    # -sum_k q_k logp_k with q = (1-eps) onehot + eps/K
    per_sample = -(1.0 - eps) * logp[rows, labels] - (eps / k) * logp.sum(axis=1)
    loss = np.asarray(per_sample.mean())
    softmax = np.exp(logp)
    dtype = logits.data.dtype

    def grad_fn(g):
        q = np.full((s, k), eps / k, dtype=dtype)
        q[rows, labels] += 1.0 - eps
        return ((softmax - q) * (float(g) / s),)

    return custom_op(loss, (logits,), grad_fn)


# ---------------------------------------------------------------------------
# optimizer and schedule


# AdamW's moment decay rates and the term that keeps its denominator positive
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamWHyper:
    lr: float = 0.002
    weight_decay: float = 1e-4


@dataclass
class AdamWState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


# Elements per block of the AdamW update: g, m, v, p and the new array each
# cross memory once, and the block's temporaries stay in cache. Median step
# on the pointvector-l parameter set (4.2M float64, 2-core Xeon, one thread):
# 55 ms unblocked; 57 ms at 2^12, 52 at 2^13, 48 at 2^14, 2^15 and 2^16, and
# 51 at 2^17
_ADAM_BLOCK = 2 ** 15


def adamw_step(params: dict, grads: dict, state: AdamWState, hyper: AdamWHyper) -> None:
    """One decoupled-weight-decay Adam update of the parameter tensors.

    params maps name -> Tensor; grads maps Tensor -> gradient array (the map
    returned by backward). Parameters without a gradient this step are skipped.
    The moments are updated in place; each updated parameter gets a fresh
    array, so an array a caller still holds keeps its values. The update runs
    in blocks of `_ADAM_BLOCK` elements through one scratch buffer, with the
    per-element operations of `oracle.adamw_step` in the same order, so the
    result equals it bit for bit. A non-finite gradient raises before its
    parameter, m or v changes.
    """
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    decay = hyper.lr * hyper.weight_decay
    scratch = {}
    for name, p in params.items():
        g = grads.get(p)
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NumericFaultError(f"non-finite gradient for {name}")
        m = state.m.get(name)
        if m is None:
            # C order, so that reshape(-1) below views them
            m = state.m[name] = np.zeros(p.data.shape, p.data.dtype)
            v = state.v[name] = np.zeros(p.data.shape, p.data.dtype)
        else:
            v = state.v[name]
        new = np.empty(p.data.shape, p.data.dtype)
        flat = [a.reshape(-1) for a in (g, m, v, p.data, new)]
        # the oracle's temporaries take the gradient's dtype, and so does this
        buf = scratch.get(g.dtype)
        if buf is None:
            buf = scratch[g.dtype] = np.empty(_ADAM_BLOCK, g.dtype)
        for lo in range(0, new.size, _ADAM_BLOCK):
            gb, mb, vb, pb, nb = (a[lo:lo + _ADAM_BLOCK] for a in flat)
            step = buf[:gb.size]
            # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g^2
            np.multiply(gb, 1.0 - b1, out=step)
            mb *= b1
            mb += step
            np.multiply(gb, 1.0 - b2, out=step)
            step *= gb
            vb *= b2
            vb += step
            # p (1 - lr wd) - lr (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(vb, bias2, out=step)
            np.sqrt(step, out=step)
            step += ADAM_EPS
            np.divide(mb, step, out=step)
            step *= hyper.lr / bias1
            np.multiply(pb, 1.0 - decay, out=nb)
            nb -= step
        p.data = new


def cosine_lr(step: int, total: int, lr0: float) -> float:
    """lr0 * (1 + cos(pi * step / total)) / 2."""
    if total <= 0:
        raise ConfigError("total steps must be positive")
    return lr0 * (1.0 + math.cos(math.pi * step / total)) / 2.0


# ---------------------------------------------------------------------------
# metrics


def confusion_matrix(pred: np.ndarray, truth: np.ndarray, num_classes: int) -> np.ndarray:
    """Rows are ground truth, columns are predictions."""
    pred = np.asarray(pred).reshape(-1)
    truth = np.asarray(truth).reshape(-1)
    if pred.shape != truth.shape:
        raise DataError("prediction/truth size mismatch")
    idx = truth * num_classes + pred
    counts = np.bincount(idx, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def metrics(confusion: np.ndarray) -> tuple[float, float, float]:
    """(OA, mAcc, mIoU) from a confusion matrix.

    mAcc averages recall over classes present in the ground truth; mIoU
    averages TP/(TP+FP+FN) over classes present in either truth or prediction.
    """
    confusion = np.asarray(confusion, dtype=np.float64)
    total = confusion.sum()
    if total == 0:
        raise DataError("empty confusion matrix")
    tp = np.diag(confusion)
    gt = confusion.sum(axis=1)
    pr = confusion.sum(axis=0)
    oa = tp.sum() / total
    seen = gt > 0
    macc = float((tp[seen] / gt[seen]).mean())
    union = gt + pr - tp
    present = union > 0
    miou = float((tp[present] / union[present]).mean())
    return float(oa), macc, miou


# ---------------------------------------------------------------------------
# augmentation / perturbation


@dataclass
class AugmentSpec:
    """A concrete, deterministic cloud transform.

    rotate_z is an angle in radians; shift adds one scalar to every
    coordinate; scale multiplies positions; jitter adds clipped Gaussian
    noise drawn from jitter_seed.
    """

    rotate_z: float | None = None
    shift: float | None = None
    scale: float | None = None
    jitter_sigma: float | None = None
    jitter_clip: float = 0.05
    jitter_seed: int = 0


def augment(cloud: PointSetBatch, spec: AugmentSpec) -> PointSetBatch:
    """Apply a deterministic transform to positions; labels pass through."""
    pos = cloud.positions.astype(np.float64)
    if spec.rotate_z is not None:
        c, s = math.cos(spec.rotate_z), math.sin(spec.rotate_z)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        pos = pos @ rot.T
    if spec.scale is not None:
        pos = pos * spec.scale
    if spec.shift is not None:
        pos = pos + spec.shift
    if spec.jitter_sigma is not None and spec.jitter_sigma > 0:
        rng = np.random.default_rng(spec.jitter_seed)
        noise = rng.normal(0.0, spec.jitter_sigma, size=pos.shape)
        pos = pos + np.clip(noise, -spec.jitter_clip, spec.jitter_clip)
    return PointSetBatch(positions=pos, labels=cloud.labels)


def table8_specs(rescale_radius: bool = False):
    """The standard test-time perturbation battery: identity, three z-axis
    rotations, two shifts, two scalings, and jitter of sigma 0.01 clipped
    to +-0.05.

    Returns (name, AugmentSpec, radius_scale) triples; radius_scale rescales
    ball-query radii together with the scaling perturbations when requested.
    """
    rows = [
        ("none", AugmentSpec(), 1.0),
        ("rot_pi_2", AugmentSpec(rotate_z=math.pi / 2), 1.0),
        ("rot_pi", AugmentSpec(rotate_z=math.pi), 1.0),
        ("rot_3pi_2", AugmentSpec(rotate_z=3 * math.pi / 2), 1.0),
        ("shift_+0.2", AugmentSpec(shift=0.2), 1.0),
        ("shift_-0.2", AugmentSpec(shift=-0.2), 1.0),
        ("scale_0.8", AugmentSpec(scale=0.8), 0.8 if rescale_radius else 1.0),
        ("scale_1.2", AugmentSpec(scale=1.2), 1.2 if rescale_radius else 1.0),
        ("jitter", AugmentSpec(jitter_sigma=0.01, jitter_clip=0.05, jitter_seed=7), 1.0),
    ]
    return rows


# ---------------------------------------------------------------------------
# batching and evaluation


def _make_batch(dataset: Dataset, idx: np.ndarray) -> PointSetBatch:
    if dataset.task == "segmentation":
        return PointSetBatch(positions=dataset.positions[idx],
                             labels=dataset.labels[idx])
    return PointSetBatch(positions=dataset.positions[idx])


def _forward(mdl: Model, batch: PointSetBatch, mode: str) -> Tensor:
    if mdl.cfg.task == "segmentation":
        return mdl.forward_seg(batch, mode)
    return mdl.forward_cls(batch, mode)


def _check_num_classes(cfg: ModelConfig, dataset: Dataset) -> None:
    """The logits are read by the dataset's class count, so the model must
    predict exactly that many classes."""
    if cfg.num_classes != dataset.num_classes:
        raise ConfigError(f"the model predicts {cfg.num_classes} classes but the "
                          f"dataset has {dataset.num_classes}")


def check_trainable(cfg: ModelConfig, train_cfg: TrainConfig, dataset: Dataset) -> None:
    """The checks train_loop makes of its inputs before it trains, for a
    caller to run before it writes anything: the model predicts the
    dataset's classes, its clouds are large enough for the model, and the
    train split is not empty. A classification model also needs two clouds
    in every train batch, since its pooled head takes batch statistics over
    the clouds, so its batch size and train split must both exceed one."""
    _check_num_classes(cfg, dataset)
    points, need = dataset.positions.shape[1], cfg.min_points()
    if points < need:
        raise DataError(f"clouds of {points} points are too small for this model: its "
                        f"strides {cfg.strides} and neighborhood sizes need at least "
                        f"{need} points; raise data.num_points to {need} or more")
    train = len(dataset.split_indices("train"))
    if train == 0:
        raise DataError(f"the train split of {dataset.num_scenes} scenes is empty; "
                        "raise data.num_scenes or lower data.val_fraction")
    if cfg.task == "classification" and train_cfg.batch_size < 2:
        raise ConfigError("classification trains on batches of at least two clouds; "
                          f"raise train.batch_size to 2 or more, got {train_cfg.batch_size}")
    if cfg.task == "classification" and train == 1:
        raise DataError(f"the train split of {dataset.num_scenes} scenes holds one cloud, "
                        "but classification trains on batches of at least two; raise "
                        "data.num_scenes or lower data.val_fraction")


def evaluate(mdl: Model, dataset: Dataset, split: str, eps: float,
             batch_size: int = 16, spec: AugmentSpec | None = None,
             radius_scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Deterministic eval-mode pass; returns (mean loss, confusion matrix)."""
    _check_num_classes(mdl.cfg, dataset)
    indices = dataset.split_indices(split)
    k = dataset.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    losses, weights = [], []
    eval_model = mdl
    if radius_scale != 1.0:
        if mdl.cfg.radii is None:
            raise ConfigError("radius_scale needs a ball-query model")
        # a shallow copy sharing the parameters, with scaled ball radii
        eval_model = copy.copy(mdl)
        eval_model.cfg = replace(mdl.cfg, radii=[r * radius_scale for r in mdl.cfg.radii])
        eval_model.stages = [
            [replace(b, cfg=replace(b.cfg, radius=b.cfg.radius * radius_scale))
             for b in blocks]
            for blocks in mdl.stages]
    for lo in range(0, len(indices), batch_size):
        idx = indices[lo:lo + batch_size]
        batch = _make_batch(dataset, idx)
        if spec is not None:
            batch = augment(batch, spec)
        logits = _forward(eval_model, batch, "eval")
        labels = dataset.labels[idx]
        flat = logits.data.reshape(-1, k)
        loss = ce_label_smoothing(Tensor(flat), labels.reshape(-1), eps)
        losses.append(float(loss.data))
        weights.append(labels.size)
        pred = flat.argmax(axis=1)
        confusion += confusion_matrix(pred, labels.reshape(-1), k)
    total = sum(weights)
    mean_loss = sum(l * w for l, w in zip(losses, weights)) / total
    return mean_loss, confusion


def perturbation_eval(mdl: Model, dataset: Dataset, specs, split: str = "val",
                      eps: float = 0.0, batch_size: int = 16):
    """Evaluate under each (name, AugmentSpec, radius_scale) and report metrics.

    No invariance is asserted; the table simply records what each perturbation
    does to the metrics.
    """
    rows = []
    for name, spec, radius_scale in specs:
        loss, confusion = evaluate(mdl, dataset, split, eps, batch_size,
                                   spec=spec, radius_scale=radius_scale)
        oa, macc, miou = metrics(confusion)
        rows.append({"name": name, "loss": loss, "oa": oa, "macc": macc,
                     "miou": miou})
    return rows


# ---------------------------------------------------------------------------
# training loop


def _sample_augment(cfg: TrainConfig, rng: np.random.Generator) -> AugmentSpec:
    if cfg.rotate_mode == "discrete":
        angle = float(rng.integers(0, 4)) * math.pi / 2.0
    elif cfg.rotate_mode == "uniform":
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
    else:
        angle = 0.0
    return AugmentSpec(
        rotate_z=angle,
        shift=float(rng.uniform(-cfg.shift_max, cfg.shift_max)),
        scale=float(rng.uniform(*cfg.scale_range)),
        jitter_sigma=cfg.jitter_sigma,
        jitter_clip=cfg.jitter_clip,
        jitter_seed=int(rng.integers(0, 2 ** 31)),
    )


def train_loop(model_cfg: ModelConfig, train_cfg: TrainConfig, dataset: Dataset,
               run_dir=None, log=None) -> TrainReport:
    """Train with AdamW under a cosine schedule; evaluate every epoch.

    The best checkpoint (val mIoU for segmentation, val OA for classification)
    is written to run_dir/best.ckpt when run_dir is given. Fully deterministic
    for a fixed train_cfg.seed. The report records the trained model's
    parameter count.

    An epoch that would end with a batch of one cloud folds that cloud into
    the batch before it, since batch statistics over one sample are
    undefined for the pooled classification head.
    """
    check_trainable(model_cfg, train_cfg, dataset)
    seq = np.random.SeedSequence([train_cfg.seed, 0x7e57])
    model_seed, order_seed, aug_seed = seq.generate_state(3)
    mdl = Model(model_cfg, seed=int(model_seed))
    params = mdl.named_params()
    state = AdamWState()
    hyper = AdamWHyper(lr=train_cfg.lr0, weight_decay=train_cfg.weight_decay)
    order_rng = np.random.default_rng(int(order_seed))
    aug_rng = np.random.default_rng(int(aug_seed))
    train_idx = dataset.split_indices("train")
    k = dataset.num_classes
    eps = train_cfg.label_smoothing
    select_by = "miou" if dataset.task == "segmentation" else "oa"

    report = TrainReport(param_count=model_mod.param_count(mdl))
    best_metric = -1.0
    for epoch in range(train_cfg.epochs):
        t0 = time.perf_counter()
        lr = cosine_lr(epoch, train_cfg.epochs, train_cfg.lr0)
        hyper.lr = lr
        order = order_rng.permutation(train_idx)
        epoch_losses, epoch_weights = [], []
        confusion = np.zeros((k, k), dtype=np.int64)
        bounds = list(range(0, len(order), train_cfg.batch_size)) + [len(order)]
        if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
            del bounds[-2]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            idx = order[lo:hi]
            batch = _make_batch(dataset, idx)
            if train_cfg.augment:
                batch = augment(batch, _sample_augment(train_cfg, aug_rng))
            labels = dataset.labels[idx].reshape(-1)
            with GradTape() as tape:
                logits = _forward(mdl, batch, "train")
                flat = nnops.reshape(logits, (-1, k))
                loss = ce_label_smoothing(flat, labels, eps)
                loss_val = float(loss.data)
                if not math.isfinite(loss_val):
                    raise NumericFaultError(
                        f"training loss diverged at epoch {epoch}")
                grads = nnops.backward(tape, loss)
            adamw_step(params, grads, state, hyper)
            epoch_losses.append(loss_val)
            epoch_weights.append(labels.size)
            confusion += confusion_matrix(logits.data.reshape(-1, k).argmax(axis=1),
                                          labels, k)
        train_loss = (sum(l * w for l, w in zip(epoch_losses, epoch_weights))
                      / sum(epoch_weights))
        oa, macc, miou = metrics(confusion)
        report.rows.append(EpochRow(epoch, "train", train_loss, lr, oa, macc,
                                    miou, (time.perf_counter() - t0) * 1000.0))

        t1 = time.perf_counter()
        val_loss, val_conf = evaluate(mdl, dataset, "val", eps,
                                      train_cfg.batch_size)
        oa, macc, miou = metrics(val_conf)
        report.rows.append(EpochRow(epoch, "val", val_loss, lr, oa, macc,
                                    miou, (time.perf_counter() - t1) * 1000.0))
        current = miou if select_by == "miou" else oa
        if current > best_metric:
            best_metric = current
            report.best_epoch = epoch
            report.best_metric = current
            if run_dir is not None:
                from pathlib import Path

                path = Path(run_dir) / "best.ckpt.npz"
                model_mod.save_checkpoint(mdl, path, extra={
                    "epoch": epoch, "val_oa": oa, "val_macc": macc,
                    "val_miou": miou, "val_loss": val_loss,
                    "train_config": dataclasses.asdict(train_cfg),
                })
                report.checkpoint_path = str(path)
        if log is not None:
            log(f"epoch {epoch}: train_loss {train_loss:.4f} "
                f"val_oa {oa:.4f} val_miou {miou:.4f} lr {lr:.5f}")
    return report
