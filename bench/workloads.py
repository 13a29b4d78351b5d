"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns. `setup()` builds the model and runs the
warm-up operation on the fixed reference inputs, whose outputs must match the
committed reference data. `op(seed, i)` runs operation i on fresh clouds made
by `dataio` from (seed, i) and checks its outputs against oracles and
invariants. Both return `Sample`s: one per operation, with its wall time and
the checks it failed.
"""

from __future__ import annotations

import json
import math
import statistics
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as _now

import numpy as np

from pointvector import dataio, geometry, model, nnops, oracle, train
from pointvector.geometry import PointSetBatch

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_DATA_SEED = 20220521   # dataio seed of the reference inputs
MODEL_SEED = 0                   # model init behind the reference data
NUM_CLASSES = len(dataio.KINDS)
# float64 results may drift by reassociated sums; sqrt(eps) leaves room for
# that and still catches a changed formula
RTOL = math.sqrt(np.finfo(np.float64).eps)
# mIoU is a count ratio: allow a few argmax near-ties to flip
MIOU_ATOL = 2e-3


@dataclass
class Sample:
    wall_s: float
    clouds: int
    failures: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    canary_s: float = math.nan   # mean of the canary runs just before and after


_CANARY_XYZ = np.random.default_rng(12345).uniform(-1.0, 1.0, size=(2, 8192, 3))


def canary() -> float:
    """Seconds of a fixed FPS-like numpy loop that uses no pointvector code.

    Its time tracks the speed of the shared machine; the harness divides the
    wall time of each operation by the canary runs around it.
    """
    rows = np.arange(2)
    t0 = _now()
    min_d = np.full((2, 8192), np.inf)
    last = np.zeros(2, dtype=np.int64)
    for _ in range(64):
        d = ((_CANARY_XYZ - _CANARY_XYZ[rows, last][:, None, :]) ** 2).sum(axis=-1)
        min_d = np.minimum(min_d, d)
        last = np.argmax(min_d, axis=1)
    return _now() - t0


def op_seed(seed: int, i: int) -> int:
    """dataio seed of operation i of a run with the given workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def make_clouds(data_seed: int, batch: int, points: int) -> PointSetBatch:
    ds = dataio.make_segmentation_dataset(num_scenes=batch, num_points=points,
                                          seed=data_seed)
    return PointSetBatch(positions=ds.positions, labels=ds.labels)


def per_second(clouds: int, times) -> float:
    """Clouds per second at the median of the given times."""
    return clouds / statistics.median(times)


def load_reference(name: str) -> dict | None:
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8")).get(name)


def compare(name: str, got, want, rtol: float = RTOL, atol: float = 0.0) -> list:
    """Failures (empty when equal) of an array against its reference; rtol scales max |ref|."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    tol = atol + rtol * float(np.abs(want).max(initial=0.0))
    err = float(np.abs(got - want).max(initial=0.0))
    if not err <= tol:
        return [f"{name}: max error {err:.3e} > tolerance {tol:.3e}"]
    return []


# ---------------------------------------------------------------------------
# train-l


class TrainL:
    """pointvector-l segmentation train steps at B=2, N=2048, float64."""

    name = "train-l"
    batch, points = 2, 2048
    ops_per_call = 1

    def setup(self) -> tuple[list, dict]:
        self.model = model.Model(model.preset_config("pointvector-l", num_classes=NUM_CLASSES),
                                 seed=MODEL_SEED)
        self.params = self.model.named_params()
        self.state = train.AdamWState()
        self.hyper = train.AdamWHyper()
        out = self._step(make_clouds(REFERENCE_DATA_SEED, self.batch, self.points))
        return [out], out.extra

    def check_reference(self, summary: dict, ref: dict) -> list:
        fails = []
        for key in ("loss", "grad_sq_norm", "param_abs_sum"):
            fails += compare(f"train-l {key}", summary[key], ref[key])
        return fails

    def op(self, seed: int, i: int) -> list:
        return [self._step(make_clouds(op_seed(seed, i), self.batch, self.points))]

    def report(self, samples: list) -> dict:
        return {"train_clouds_per_s": (per_second(self.batch, [s.wall_s for s in samples]),
                                       "1/s")}

    def _step(self, batch: PointSetBatch) -> Sample:
        labels = batch.labels.reshape(-1)
        t0 = _now()
        with nnops.GradTape() as tape:
            logits = self.model.forward_seg(batch, "train")
            loss = train.ce_label_smoothing(nnops.reshape(logits, (-1, NUM_CLASSES)),
                                            labels, 0.1)
            grads = nnops.backward(tape, loss)
        train.adamw_step(self.params, grads, self.state, self.hyper)
        wall = _now() - t0
        fails = []
        if not math.isfinite(float(loss.data)):
            fails.append("train-l: non-finite loss")
        for name, p in self.params.items():
            g = grads.get(p)
            if g is None:
                fails.append(f"train-l: no gradient for {name}")
            elif g.shape != p.data.shape:
                fails.append(f"train-l: gradient of {name} has shape {g.shape}, "
                             f"parameter {p.data.shape}")
        return Sample(wall, self.batch, fails, extra={
            "loss": float(loss.data),
            "grad_sq_norm": float(sum(float((g * g).sum()) for g in grads.values())),
            "param_abs_sum": float(sum(np.abs(p.data).sum() for p in self.params.values()))})


# ---------------------------------------------------------------------------
# infer-s-8k


@contextmanager
def capture_geometry():
    """Keep the FPS and kNN results that a forward pass computes, for checking."""
    calls = {"fps": [], "knn": []}
    fps, knn_points = geometry.farthest_point_sample, geometry.knn_points

    def fps_capture(cloud, m, start=0):
        out = fps(cloud, m, start)
        calls["fps"].append((cloud.num_points, out))
        return out

    def knn_capture(query_xyz, cloud, k):
        out = knn_points(query_xyz, cloud, k)
        calls["knn"].append((query_xyz, cloud.positions, k, out))
        return out

    geometry.farthest_point_sample, geometry.knn_points = fps_capture, knn_capture
    try:
        yield calls
    finally:
        geometry.farthest_point_sample, geometry.knn_points = fps, knn_points


def check_geometry(calls: dict, rng: np.random.Generator, knn_calls: int = 2) -> list:
    """FPS indices unique and in range; sampled kNN rows equal oracle.naive_knn."""
    fails = []
    if not calls["fps"] or not calls["knn"]:
        fails.append("infer-s-8k: forward pass made no FPS or kNN call to check")
    for n, idx in calls["fps"]:
        for row in idx:
            if len(np.unique(row)) != row.size or row.min() < 0 or row.max() >= n:
                fails.append("infer-s-8k: FPS indices repeat or leave the cloud")
    picks = rng.choice(len(calls["knn"]), size=min(knn_calls, len(calls["knn"])),
                       replace=False) if calls["knn"] else []
    for c in picks:
        query, ref, k, idx = calls["knn"][c]
        row = int(rng.integers(query.shape[1]))
        want = oracle.naive_knn(query[:, row:row + 1], ref, k)
        if not np.array_equal(np.sort(idx[:, row:row + 1], axis=-1), np.sort(want, axis=-1)):
            fails.append(f"infer-s-8k: kNN call {c} row {row} differs from naive_knn")
    return fails


class InferS8K:
    """pointvector-s eval-mode forward_seg at B=2, N=8192."""

    name = "infer-s-8k"
    batch, points = 2, 8192
    ops_per_call = 1
    # reference logits are kept for these points of every cloud, plus column sums
    ref_rows = np.linspace(0, points - 1, 64).astype(np.int64)

    def setup(self) -> tuple[list, dict]:
        self.model = model.Model(model.preset_config("pointvector-s", num_classes=NUM_CLASSES),
                                 seed=MODEL_SEED)
        out, logits = self._pass(make_clouds(REFERENCE_DATA_SEED, self.batch, self.points),
                                 None)
        return [out], {"logits": logits[:, self.ref_rows].tolist(),
                       "column_sums": logits.sum(axis=1).tolist()}

    def check_reference(self, summary: dict, ref: dict) -> list:
        return (compare("infer-s-8k logits", summary["logits"], ref["logits"])
                + compare("infer-s-8k column sums", summary["column_sums"],
                          ref["column_sums"]))

    def op(self, seed: int, i: int) -> list:
        data_seed = op_seed(seed, i)
        out, _ = self._pass(make_clouds(data_seed, self.batch, self.points),
                            np.random.default_rng(data_seed))
        return [out]

    def report(self, samples: list) -> dict:
        return {"eval_clouds_per_s": (per_second(self.batch, [s.wall_s for s in samples]),
                                      "1/s")}

    def _pass(self, batch: PointSetBatch, rng) -> tuple[Sample, np.ndarray]:
        with capture_geometry() as calls:
            t0 = _now()
            logits = self.model.forward_seg(batch, "eval").data
            wall = _now() - t0
        fails = []
        if logits.shape != (self.batch, self.points, NUM_CLASSES):
            fails.append(f"infer-s-8k: logits shape {logits.shape}")
        if not np.all(np.isfinite(logits)):
            fails.append("infer-s-8k: non-finite logits")
        if rng is not None:
            fails += check_geometry(calls, rng)
        return Sample(wall, self.batch, fails), logits


# ---------------------------------------------------------------------------
# fit-toy-ball


class FitToyBall:
    """train.train_loop on toy-seg-ball: 40 scenes x 512 points, batch 8, val 0.2."""

    name = "fit-toy-ball"
    scenes, points, batch_size, val_fraction = 40, 512, 8, 0.2
    epochs = 2            # per timed train_loop call; the warm-up call runs one
    ops_per_call = epochs

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def setup(self) -> tuple[list, dict]:
        samples, report = self._fit(REFERENCE_DATA_SEED, MODEL_SEED, epochs=1)
        return samples, {"rows": [{"split": r.split, "loss": r.loss, "miou": r.miou}
                                  for r in report.rows]}

    def check_reference(self, summary: dict, ref: dict) -> list:
        got, want = summary["rows"], ref["rows"]
        if [r["split"] for r in got] != [r["split"] for r in want]:
            return ["fit-toy-ball: epoch rows differ from the reference"]
        return (compare("fit-toy-ball loss", [r["loss"] for r in got],
                        [r["loss"] for r in want])
                + compare("fit-toy-ball miou", [r["miou"] for r in got],
                          [r["miou"] for r in want], rtol=0.0, atol=MIOU_ATOL))

    def op(self, seed: int, i: int) -> list:
        data_seed = op_seed(seed, i)
        samples, _ = self._fit(data_seed, data_seed, self.epochs)
        return samples

    def report(self, samples: list) -> dict:
        extra = [s.extra for s in samples]
        return {"train_clouds_per_s": (per_second(extra[0]["train_clouds"],
                                                  [e["train_s"] for e in extra]), "1/s"),
                "eval_clouds_per_s": (per_second(extra[0]["val_clouds"],
                                                 [e["val_s"] for e in extra]), "1/s"),
                "val_miou": (statistics.median(e["best_miou"] for e in extra), "ratio")}

    def _fit(self, data_seed: int, train_seed: int, epochs: int):
        dataset = dataio.make_segmentation_dataset(
            num_scenes=self.scenes, num_points=self.points, seed=data_seed,
            val_fraction=self.val_fraction)
        n_val = len(dataset.split_indices("val"))
        n_train = len(dataset.split_indices("train"))
        cfg = train.TrainConfig(epochs=epochs, batch_size=self.batch_size, seed=train_seed)
        # train_loop logs after each epoch, outside the epoch's timed rows: a
        # canary run there brackets every epoch
        canaries = [canary()]
        with tempfile.TemporaryDirectory(dir=self.work_dir) as run_dir:
            report = train.train_loop(model.preset_config("toy-seg-ball", num_classes=NUM_CLASSES),
                                      cfg, dataset, run_dir=run_dir,
                                      log=lambda _line: canaries.append(canary()))
            saved = report.checkpoint_path is not None and Path(report.checkpoint_path).exists()
        if len(report.rows) != 2 * epochs:
            raise RuntimeError(f"train_loop returned {len(report.rows)} rows for {epochs} epochs")
        samples = []
        for epoch, (tr, va) in enumerate(zip(report.rows[0::2], report.rows[1::2])):
            fails = [f"fit-toy-ball: epoch {r.epoch} {r.split} loss {r.loss} miou {r.miou}"
                     for r in (tr, va)
                     if not (math.isfinite(r.loss) and 0.0 <= r.miou <= 1.0)]
            if not saved:
                fails.append("fit-toy-ball: no checkpoint written")
            samples.append(Sample((tr.wall_ms + va.wall_ms) / 1e3, n_train + n_val, fails,
                                  extra={"train_s": tr.wall_ms / 1e3, "val_s": va.wall_ms / 1e3,
                                         "train_clouds": n_train, "val_clouds": n_val,
                                         "best_miou": report.best_metric},
                                  canary_s=(canaries[epoch] + canaries[epoch + 1]) / 2))
        return samples, report


def make(name: str, work_dir: Path):
    """The workload called `name`; fit-toy-ball writes its checkpoints under work_dir."""
    if name == "fit-toy-ball":
        return FitToyBall(work_dir)
    return {"train-l": TrainL, "infer-s-8k": InferS8K}[name]()
