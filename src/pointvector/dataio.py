"""Synthetic labeled point-cloud generation and plain-text point-cloud I/O.

Scenes are sampled on randomly posed geometric primitives (plane patches,
spheres, open cylinders); each point's class is the kind of its primitive.
The toy segmentation task is therefore solvable from local geometry alone,
which is exactly what the aggregation operators consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, EmptyCloudError, FormatError, ParseError
from .geometry import PointSetBatch

KINDS = ("plane", "sphere", "cylinder")


@dataclass
class SceneSpec:
    num_points: int = 512
    num_primitives: int = 3
    kinds: tuple = KINDS
    noise_sigma: float = 0.01
    seed: int = 0
    extent: float = 2.0          # scene bounding half-extent is extent/2
    min_size: float = 0.25       # small primitives keep local curvature visible
    max_size: float = 0.5

    def __post_init__(self):
        if self.num_primitives < 1:
            raise ConfigError(f"num_primitives must be >= 1, got {self.num_primitives}")
        if self.num_points < self.num_primitives:
            raise ConfigError("num_points must be >= num_primitives")
        if self.noise_sigma < 0:
            raise ConfigError("noise sigma must be nonnegative")
        if not self.kinds:
            raise ConfigError("at least one primitive kind is required")
        for kind in self.kinds:
            if kind not in KINDS:
                raise ConfigError(f"unknown primitive kind {kind!r}")


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


def _make_primitives(spec: SceneSpec, rng: np.random.Generator) -> list[Primitive]:
    """Randomly posed primitives, rejection-sampled so surfaces stay disjoint.

    Separated surfaces keep every point locally unambiguous, so the labels are
    recoverable from local geometry alone. The separation margin is relaxed
    when a crowded spec leaves no room.
    """
    span = spec.extent / 2.0 * 0.7
    prims: list[Primitive] = []
    for i in range(spec.num_primitives):
        kind = spec.kinds[i % len(spec.kinds)]
        size = rng.uniform(spec.min_size, spec.max_size)
        height = rng.uniform(spec.min_size, spec.max_size) * 2.0
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


def gen_segmentation_scene(spec: SceneSpec) -> PointSetBatch:
    """One scene: points sampled on posed primitives, labeled by primitive kind.

    Deterministic per spec.seed. The class id of a point is the index of its
    primitive's kind within spec.kinds.
    """
    rng = np.random.default_rng(spec.seed)
    prims = _make_primitives(spec, rng)
    counts = _allocate(spec.num_points, len(prims))
    points, labels = [], []
    for prim, count in zip(prims, counts):
        points.append(_sample_primitive(rng, prim, count))
        labels.append(np.full(count, spec.kinds.index(prim.kind), dtype=np.int64))
    positions = np.concatenate(points, axis=0)
    if spec.noise_sigma > 0:
        positions = positions + rng.normal(0.0, spec.noise_sigma, size=positions.shape)
    return PointSetBatch(positions=positions[None], labels=np.concatenate(labels)[None])


def gen_classification_set(spec: SceneSpec):
    """num_primitives single-primitive clouds; label = index of the kind in spec.kinds."""
    rng = np.random.default_rng(spec.seed)
    out = []
    for i in range(spec.num_primitives):
        sub = SceneSpec(num_points=spec.num_points, num_primitives=1,
                        kinds=(spec.kinds[i % len(spec.kinds)],),
                        noise_sigma=spec.noise_sigma,
                        seed=int(rng.integers(0, 2 ** 31)),
                        extent=spec.extent, min_size=spec.min_size,
                        max_size=spec.max_size)
        cloud = gen_segmentation_scene(sub)
        label = spec.kinds.index(sub.kinds[0])
        out.append((PointSetBatch(positions=cloud.positions), label))
    return out


# ---------------------------------------------------------------------------
# text I/O: one point per line, `x y z [label]`, '#' comments


def write_points(path, cloud: PointSetBatch) -> None:
    if cloud.batch_size != 1:
        raise FormatError("write_points expects a single-cloud batch")
    pos = cloud.positions[0]
    labels = None if cloud.labels is None else cloud.labels[0]
    lines = []
    for i in range(pos.shape[0]):
        cols = [f"{v:.17g}" for v in pos[i]]
        if labels is not None:
            cols.append(str(int(labels[i])))
        lines.append(" ".join(cols))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_points(path) -> PointSetBatch:
    """Parse a point-cloud text file; exact round trip with write_points."""
    text = Path(path).read_text(encoding="utf-8")
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
                raise FormatError(
                    f"{path}: line {lineno}: expected 3 or 4 columns, got {width}")
        elif len(cols) != width:
            raise FormatError(
                f"{path}: line {lineno}: {len(cols)} columns, expected {width}")
        try:
            xyz = [float(c) for c in cols[:3]]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: bad coordinate: {exc}") from exc
        pos.append(xyz)
        if width == 4:
            try:
                labels.append(int(cols[3]))
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: bad label: {exc}") from exc
    if not pos:
        raise EmptyCloudError(f"{path}: no points found")
    positions = np.asarray(pos, dtype=np.float64)[None]
    lab = np.asarray(labels, dtype=np.int64)[None] if labels else None
    return PointSetBatch(positions=positions, labels=lab)


def write_manifest(path, entries) -> None:
    """entries: iterable of (split, scene_path); one `split path` line each."""
    lines = [f"{split} {p}" for split, p in entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_manifest(path) -> list[tuple[str, str]]:
    out = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 1)
        if len(parts) != 2 or parts[0] not in ("train", "val", "test"):
            raise FormatError(f"{path}: line {lineno}: expected 'train|val|test <path>'")
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
    if not 0 <= val_fraction <= 1:
        raise ConfigError(f"val_fraction must lie in [0, 1], got {val_fraction}")
    order = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    return {"val": np.sort(order[:n_val]), "train": np.sort(order[n_val:])}


def make_segmentation_dataset(num_scenes: int = 200, num_points: int = 512,
                              kinds: tuple = KINDS, noise_sigma: float = 0.01,
                              num_primitives: int = 3, seed: int = 0,
                              val_fraction: float = 0.2) -> Dataset:
    """Seed-fixed synthetic segmentation task; scene i uses seed derived from (seed, i)."""
    if num_scenes < 1:
        raise ConfigError(f"num_scenes must be >= 1, got {num_scenes}")
    seq = np.random.SeedSequence([seed, 0x5e60])
    scene_seeds = seq.generate_state(num_scenes)
    positions, labels = [], []
    for i in range(num_scenes):
        spec = SceneSpec(num_points=num_points, num_primitives=num_primitives,
                         kinds=kinds, noise_sigma=noise_sigma,
                         seed=int(scene_seeds[i]))
        cloud = gen_segmentation_scene(spec)
        positions.append(cloud.positions[0])
        labels.append(cloud.labels[0])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51f7]))
    return Dataset(positions=np.stack(positions), labels=np.stack(labels),
                   task="segmentation", num_classes=len(kinds),
                   splits=_split_indices(num_scenes, val_fraction, rng))


def make_classification_dataset(num_clouds: int = 120, num_points: int = 256,
                                kinds: tuple = KINDS, noise_sigma: float = 0.02,
                                seed: int = 0, val_fraction: float = 0.2) -> Dataset:
    if num_clouds < 1:
        raise ConfigError(f"num_clouds must be >= 1, got {num_clouds}")
    spec = SceneSpec(num_points=num_points, num_primitives=num_clouds,
                     kinds=kinds, noise_sigma=noise_sigma, seed=seed)
    items = gen_classification_set(spec)
    positions = np.stack([c.positions[0] for c, _ in items])
    labels = np.asarray([lab for _, lab in items], dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xc1a5]))
    return Dataset(positions=positions, labels=labels, task="classification",
                   num_classes=len(kinds),
                   splits=_split_indices(num_clouds, val_fraction, rng))


def save_dataset_scenes(dataset: Dataset, directory, prefix: str = "scene") -> str:
    """Write every scene as a text file plus a manifest; returns manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    split_of = {}
    for split, idx in dataset.splits.items():
        for i in idx:
            split_of[int(i)] = split
    entries = []
    for i in range(dataset.num_scenes):
        name = f"{prefix}_{i:05d}.xyz"
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
    base = Path(manifest_path).parent
    entries = read_manifest(manifest_path)
    if not entries:
        raise EmptyCloudError(f"{manifest_path}: empty manifest")
    positions, labels, split_lists = [], [], {}
    for i, (split, rel) in enumerate(entries):
        cloud = read_points(base / rel)
        positions.append(cloud.positions[0])
        if cloud.labels is None:
            raise DataError(f"{rel}: scenes in a dataset need labels")
        if task == "segmentation":
            labels.append(cloud.labels[0])
        else:
            labels.append(cloud.labels[0][0])
        split_lists.setdefault(split, []).append(i)
    splits = {k: np.asarray(v, dtype=np.int64) for k, v in split_lists.items()}
    return Dataset(positions=np.stack(positions), labels=np.stack(labels),
                   task=task, num_classes=num_classes, splits=splits)
