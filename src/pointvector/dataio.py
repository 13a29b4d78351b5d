"""The dataset spec, synthetic labeled point clouds, and plain-text I/O.

`DataConfig`, the data section of a config, is the one description of a
dataset: it holds the defaults and the range check of every value, each
naming `data.<key>`. `make_dataset(cfg, task)` builds the dataset for a
model of the given task, from the scene files of `cfg.manifest` or
synthetically, and adds the one check that depends on the task;
`make_segmentation_dataset(**settings)` is its keyword form for synthetic
segmentation.

Synthetic clouds are sampled on randomly posed geometric primitives (plane
patches, spheres, open cylinders), and a class id is the index of a kind in
`kinds`. A segmentation scene holds `num_primitives` primitives and labels
each point with its primitive's kind, so the task is solvable from local
geometry alone, which is exactly what the aggregation operators consume. A
classification cloud holds one primitive, whose kind is its label, so
`num_primitives` does not apply to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, SizeError
from .geometry import PointSetBatch
from .model import check_field_types

KINDS = ("plane", "sphere", "cylinder")
EXTENT = 2.0      # the scene's bounding half-extent is EXTENT/2
MIN_SIZE = 0.25   # primitive size range; small primitives keep local curvature visible
MAX_SIZE = 0.5


@dataclass
class DataConfig:
    """A synthetic dataset's settings; a manifest of scene files replaces
    the synthetic scenes, and its class ids still index `kinds`."""
    num_scenes: int = 200
    num_points: int = 512
    kinds: list[str] = field(default_factory=lambda: list(KINDS))
    noise_sigma: float = 0.01
    num_primitives: int = 3
    seed: int = 0
    val_fraction: float = 0.2
    manifest: str | None = None

    def __post_init__(self):
        check_field_types(self, "data")
        for name in ("num_scenes", "num_points", "num_primitives"):
            if getattr(self, name) < 1:
                raise ConfigError(f"data.{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"data.seed must be >= 0, got {self.seed}")
        if self.noise_sigma < 0:
            raise ConfigError(f"data.noise_sigma must be nonnegative, got {self.noise_sigma}")
        if not 0 <= self.val_fraction <= 1:
            raise ConfigError(f"data.val_fraction must lie in [0, 1], got {self.val_fraction}")
        if not self.kinds or not set(self.kinds) <= set(KINDS):
            raise ConfigError(f"data.kinds must list primitive kinds from {list(KINDS)}, "
                              f"got {self.kinds}")
        if len(set(self.kinds)) != len(self.kinds):
            raise ConfigError(f"data.kinds must not repeat a kind, got {self.kinds}: "
                              "a repeat is a class no point carries")


@dataclass
class Primitive:
    kind: str
    center: np.ndarray
    frame: np.ndarray  # rows are an orthonormal basis; frame[2] is the axis/normal
    size: float        # sphere/cylinder radius, or plane patch half-extent
    height: float = 0.0


def _random_frame(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random right-handed orthonormal basis (QR of a Gaussian)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q.T


def _sample_primitive(rng: np.random.Generator, prim: Primitive, n: int) -> np.ndarray:
    if prim.kind == "plane":
        uv = rng.uniform(-prim.size, prim.size, size=(n, 2))
        local = np.concatenate([uv, np.zeros((n, 1))], axis=1)
    elif prim.kind == "sphere":
        d = rng.standard_normal((n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        local = prim.size * d
    else:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        h = rng.uniform(-prim.height / 2.0, prim.height / 2.0, size=n)
        local = np.stack([prim.size * np.cos(theta), prim.size * np.sin(theta), h], axis=1)
    return prim.center + local @ prim.frame


def _bounding_radius(prim: Primitive) -> float:
    if prim.kind == "plane":
        return prim.size * np.sqrt(2.0)
    if prim.kind == "sphere":
        return prim.size
    return float(np.hypot(prim.size, prim.height / 2.0))


def _make_primitives(layout: list[str], rng: np.random.Generator) -> list[Primitive]:
    """One randomly posed primitive per kind in layout, rejection-sampled so
    surfaces stay disjoint.

    Separated surfaces keep every point locally unambiguous, so the labels are
    recoverable from local geometry alone. The separation margin is relaxed
    when a crowded layout leaves no room.
    """
    span = EXTENT / 2.0 * 0.7
    prims: list[Primitive] = []
    for kind in layout:
        size = rng.uniform(MIN_SIZE, MAX_SIZE)
        height = rng.uniform(MIN_SIZE, MAX_SIZE) * 2.0
        prim = Primitive(kind=kind, center=np.zeros(3), frame=_random_frame(rng),
                         size=size, height=height)
        margin = 1.0
        while True:
            placed = False
            for _ in range(40):
                center = rng.uniform(-span, span, size=3)
                if all(np.linalg.norm(center - other.center)
                       >= margin * (_bounding_radius(prim) + _bounding_radius(other))
                       for other in prims):
                    prim.center = center
                    placed = True
                    break
            if placed:
                break
            margin *= 0.85
        prims.append(prim)
    return prims


def _allocate(total: int, parts: int) -> list[int]:
    base = total // parts
    counts = [base] * parts
    for i in range(total - base * parts):
        counts[i] += 1
    return counts


def _cloud(seed: int, layout: list[str], kinds: list[str], num_points: int,
           noise_sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions [N,3] of points on one posed primitive per kind in layout,
    and each point's class, the index of its primitive's kind in kinds.
    Deterministic per seed."""
    rng = np.random.default_rng(seed)
    prims = _make_primitives(layout, rng)
    counts = _allocate(num_points, len(prims))
    positions = np.concatenate([_sample_primitive(rng, prim, count)
                                for prim, count in zip(prims, counts)], axis=0)
    labels = np.repeat(np.asarray([kinds.index(p.kind) for p in prims], dtype=np.int64),
                       counts)
    if noise_sigma > 0:
        positions = positions + rng.normal(0.0, noise_sigma, size=positions.shape)
    return positions, labels


# ---------------------------------------------------------------------------
# text I/O: one point per line, `x y z [label]`, '#' comments


def write_points(path, cloud: PointSetBatch) -> None:
    if cloud.batch_size != 1:
        raise SizeError("write_points expects a single-cloud batch")
    pos = cloud.positions[0]
    labels = None if cloud.labels is None else cloud.labels[0]
    lines = []
    for i in range(pos.shape[0]):
        cols = [f"{v:.17g}" for v in pos[i]]
        if labels is not None:
            cols.append(str(int(labels[i])))
        lines.append(" ".join(cols))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _read_text(path) -> str:
    """A UTF-8 text file's contents; DataError naming the file if unreadable."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc


def read_points(path) -> PointSetBatch:
    """Parse a point-cloud text file; exact round trip with write_points."""
    text = _read_text(path)
    pos, labels = [], []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        cols = line.split()
        if width is None:
            width = len(cols)
            if width not in (3, 4):
                raise DataError(
                    f"{path}: line {lineno}: expected 3 or 4 columns, got {width}")
        elif len(cols) != width:
            raise DataError(
                f"{path}: line {lineno}: {len(cols)} columns, expected {width}")
        try:
            xyz = [float(c) for c in cols[:3]]
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: bad coordinate: {exc}") from exc
        pos.append(xyz)
        if width == 4:
            try:
                labels.append(int(cols[3]))
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: bad label: {exc}") from exc
    if not pos:
        raise DataError(f"{path}: no points found")
    positions = np.asarray(pos, dtype=np.float64)[None]
    lab = np.asarray(labels, dtype=np.int64)[None] if labels else None
    return PointSetBatch(positions=positions, labels=lab)


def write_manifest(path, entries) -> None:
    """entries: iterable of (split, scene_path); one `split path` line each."""
    lines = [f"{split} {p}" for split, p in entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_manifest(path) -> list[tuple[str, str]]:
    out = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2 or parts[0] not in ("train", "val", "test"):
            raise DataError(f"{path}: line {lineno}: expected 'train|val|test <path>'")
        out.append((parts[0], parts[1]))
    return out


# ---------------------------------------------------------------------------
# in-memory datasets


@dataclass
class Dataset:
    """Stacked scenes with split assignments.

    positions [S,N,3]; labels [S,N] for segmentation or [S] for classification.
    """

    positions: np.ndarray
    labels: np.ndarray
    task: str
    num_classes: int
    splits: dict = field(default_factory=dict)

    def split_indices(self, name: str) -> np.ndarray:
        if name not in self.splits:
            raise DataError(f"dataset has no split {name!r}; has {sorted(self.splits)}")
        return self.splits[name]

    @property
    def num_scenes(self) -> int:
        return self.positions.shape[0]


def _split_indices(n: int, val_fraction: float, rng: np.random.Generator) -> dict:
    order = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    return {"val": np.sort(order[:n_val]), "train": np.sort(order[n_val:])}


def make_dataset(cfg: DataConfig, task: str) -> Dataset:
    """The dataset cfg describes, for a model of the given task: the scenes
    listed in cfg.manifest, else seed-fixed synthetic ones.

    Every synthetic cloud draws from its own seed: segmentation scene i from
    a seed derived from (cfg.seed, i), classification cloud i from the i-th
    draw of a generator seeded with cfg.seed. Cloud i of a classification
    set is a kinds[i % len(kinds)] primitive.
    """
    if task not in ("segmentation", "classification"):
        raise ConfigError(f"task must be segmentation or classification, got {task!r}")
    kinds = cfg.kinds
    if cfg.manifest is not None:
        if not Path(cfg.manifest).is_file():
            raise ConfigError(f"data.manifest {cfg.manifest} is not a file")
        return load_dataset_from_manifest(cfg.manifest, task, len(kinds))
    if task == "segmentation":
        if cfg.num_points < cfg.num_primitives:
            raise ConfigError(f"data.num_points must be >= data.num_primitives "
                              f"({cfg.num_primitives}), got {cfg.num_points}")
        seeds = np.random.SeedSequence([cfg.seed, 0x5e60]).generate_state(cfg.num_scenes)
        layout = [kinds[i % len(kinds)] for i in range(cfg.num_primitives)]
        layouts = [layout] * cfg.num_scenes
        split_tag = 0x51f7
    else:
        rng = np.random.default_rng(cfg.seed)
        # one draw per cloud: a single draw of n values would give other seeds
        seeds = [rng.integers(0, 2 ** 31) for _ in range(cfg.num_scenes)]
        layouts = [[kinds[i % len(kinds)]] for i in range(cfg.num_scenes)]
        split_tag = 0xc1a5
    clouds = [_cloud(int(seed), layout, kinds, cfg.num_points, cfg.noise_sigma)
              for seed, layout in zip(seeds, layouts)]
    labels = np.stack([lab if task == "segmentation" else lab[0] for _, lab in clouds])
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, split_tag]))
    return Dataset(positions=np.stack([pos for pos, _ in clouds]), labels=labels,
                   task=task, num_classes=len(kinds),
                   splits=_split_indices(cfg.num_scenes, cfg.val_fraction, rng))


def make_segmentation_dataset(**settings) -> Dataset:
    """The synthetic segmentation dataset of DataConfig(**settings)."""
    return make_dataset(DataConfig(**settings), "segmentation")


def save_dataset_scenes(dataset: Dataset, directory) -> str:
    """Write every scene as a text file, scene_<index>.xyz, plus a manifest;
    returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    split_of = {}
    for split, idx in dataset.splits.items():
        for i in idx:
            split_of[int(i)] = split
    entries = []
    for i in range(dataset.num_scenes):
        name = f"scene_{i:05d}.xyz"
        if dataset.task == "segmentation":
            cloud = PointSetBatch(positions=dataset.positions[i:i + 1],
                                  labels=dataset.labels[i:i + 1])
        else:
            n = dataset.positions.shape[1]
            lab = np.full((1, n), dataset.labels[i], dtype=np.int64)
            cloud = PointSetBatch(positions=dataset.positions[i:i + 1], labels=lab)
        write_points(directory / name, cloud)
        entries.append((split_of.get(i, "train"), name))
    manifest = directory / "manifest.txt"
    write_manifest(manifest, entries)
    return str(manifest)


def load_dataset_from_manifest(manifest_path, task: str, num_classes: int) -> Dataset:
    """The scenes a manifest lists, which must share one point count and
    carry labels in [0, num_classes); for classification, every point of a
    scene carries its one label."""
    base = Path(manifest_path).parent
    entries = read_manifest(manifest_path)
    if not entries:
        raise DataError(f"{manifest_path}: empty manifest")
    positions, labels, split_lists = [], [], {}
    for i, (split, rel) in enumerate(entries):
        cloud = read_points(base / rel)
        if cloud.labels is None:
            raise DataError(f"{rel}: scenes in a dataset need labels")
        if positions and cloud.num_points != len(positions[0]):
            raise DataError(f"{rel}: {cloud.num_points} points, but {entries[0][1]} has "
                            f"{len(positions[0])}; the scenes of a dataset need one size")
        if cloud.labels.min() < 0 or cloud.labels.max() >= num_classes:
            raise DataError(f"{rel}: labels outside [0, {num_classes}), the indices "
                            "of data.kinds")
        lab = cloud.labels[0]
        if task == "classification" and np.any(lab != lab[0]):
            raise DataError(f"{rel}: a classification scene carries one label, but its "
                            f"points carry {np.unique(lab).tolist()}")
        positions.append(cloud.positions[0])
        labels.append(lab if task == "segmentation" else lab[0])
        split_lists.setdefault(split, []).append(i)
    splits = {k: np.asarray(v, dtype=np.int64) for k, v in split_lists.items()}
    return Dataset(positions=np.stack(positions), labels=np.stack(labels),
                   task=task, num_classes=num_classes, splits=splits)
