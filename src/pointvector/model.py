"""Hierarchical encoder/decoder assembly and named presets.

A model is an embedding MLP, stages of [SA x S_i, VPSA x V_i] blocks with
channel width doubling at each downsampling stage, and either a
feature-propagation decoder with a per-point head (segmentation) or a global
aggregation head (classification).

The global aggregation head is PointNet++'s "group all" set abstraction:
one `setabs.pooled_sa` op whose one center is the centroid of the coarsest
cloud and whose neighborhood is all of its points, so it max-pools
`global_sa` over [f_j, p_j - centroid].

Every parameter gets a gradient: a shift that a later batchnorm cancels is
not built. Normalized layers have no bias (`nnops.linear_params`), and the
classification head's `global_sa` norm keeps its gamma but has no beta,
since its shift passes the max pool unchanged and `head.hidden`'s batchnorm
removes it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import typing
from dataclasses import dataclass, field

import numpy as np

from . import nnops, setabs, vecenc
from .errors import CheckpointError, ConfigError, SizeError
from .geometry import PointSetBatch
from .nnops import LayerParams, Tensor
from .setabs import BlockConfig, FPParams

CHECKPOINT_FORMAT_VERSION = 5
INPUT_CHANNELS = 4  # [p, p_z]


def read_section(cls, d, section: str):
    """cls(**d) for config section `section`; a ConfigError naming the
    section if d is not a JSON object or has a key that is not a field of
    the dataclass cls."""
    if not isinstance(d, dict):
        raise ConfigError(f"{section} must be a JSON object, got {d!r}")
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError("unknown config keys: "
                          + ", ".join(f"{section}.{k}" for k in sorted(unknown)))
    return cls(**d)


def check_field_types(cfg, section: str) -> None:
    """ConfigError naming `section.field` for the first field of the config
    dataclass cfg whose value lacks its declared type. The elements of a
    `list[X]` must be X's; `X | None` admits None."""
    hints = typing.get_type_hints(type(cfg))
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if not _has_type(value, hints[f.name]):
            raise ConfigError(f"{section}.{f.name} must be {f.type}, got {value!r}")


def _has_type(value, t) -> bool:
    """Whether value is a t: a class, list[X] or a union. An int passes
    where a float is declared; a bool passes only where a bool is."""
    args = typing.get_args(t)
    if typing.get_origin(t) is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if args:
        return any(_has_type(value, a) for a in args)
    t = {float: numbers.Real, int: numbers.Integral}.get(t, t)
    return isinstance(value, t) and (t is bool or not isinstance(value, bool))


@dataclass
class ModelConfig:
    embed_channels: int = 32
    sa_per_stage: list[int] = field(default_factory=lambda: [1, 1, 1, 1])
    vpsa_per_stage: list[int] = field(default_factory=lambda: [1, 1, 1, 1])
    strides: list[int] = field(default_factory=lambda: [4, 4, 4, 4])
    k_sa: int = 32
    k_vpsa: int = 8
    sa_layers: int = 1
    task: str = "segmentation"
    num_classes: int = 13
    # the ablation switches; this config is their only home
    encoder: str = "rotation"         # scalar-to-vector encoder, a key of vecenc.ENCODERS
    vector_dim: int = 3               # vector dimension m
    aggregation: str | None = None    # in setabs.AGGREGATION_MODES; None: resolved_aggregation
    radii: list[float] | None = None  # per-stage ball-query radii; None -> knn

    def __post_init__(self):
        check_field_types(self, "model")
        for name in ("embed_channels", "k_sa", "k_vpsa", "sa_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        n = len(self.sa_per_stage)
        if not (len(self.vpsa_per_stage) == len(self.strides) == n):
            raise ConfigError(
                "model.sa_per_stage, model.vpsa_per_stage and model.strides must have "
                f"equal length, got {len(self.sa_per_stage)}/{len(self.vpsa_per_stage)}/"
                f"{len(self.strides)}")
        if n == 0:
            raise ConfigError("model.sa_per_stage must list at least one stage")
        if self.radii is not None and len(self.radii) != n:
            raise ConfigError(f"model.radii must list one radius per stage ({n}), "
                              f"got {self.radii}")
        for name, low in (("sa_per_stage", 0), ("vpsa_per_stage", 0), ("strides", 1)):
            if min(getattr(self, name)) < low:
                raise ConfigError(f"model.{name} must be >= {low}, got {getattr(self, name)}")
        if self.radii is not None and not all(math.isfinite(r) and r > 0 for r in self.radii):
            raise ConfigError(f"model.radii must be finite and > 0, got {self.radii}")
        if self.task not in ("segmentation", "classification"):
            raise ConfigError(
                f"model.task must be segmentation or classification, got {self.task!r}")
        if self.vector_dim not in (1, 2, 3):
            raise ConfigError(f"model.vector_dim must be 1, 2 or 3, got {self.vector_dim}")
        if self.encoder not in vecenc.ENCODERS:
            raise ConfigError(f"unknown model.encoder {self.encoder!r}; "
                              f"choose from {sorted(vecenc.ENCODERS)}")
        if self.aggregation is not None and self.aggregation not in setabs.AGGREGATION_MODES:
            raise ConfigError(f"model.aggregation must be one of {setabs.AGGREGATION_MODES}, "
                              f"got {self.aggregation!r}")
        for i, (s, v) in enumerate(zip(self.sa_per_stage, self.vpsa_per_stage)):
            if s == 0 and v == 0:
                raise ConfigError(f"stage {i} has neither SA nor VPSA blocks: "
                                  "model.sa_per_stage and model.vpsa_per_stage are both 0")

    @property
    def num_stages(self) -> int:
        return len(self.sa_per_stage)

    def resolved_aggregation(self) -> str:
        """The aggregation; by default sum_groupconv for segmentation and
        max_groupconv for classification."""
        if self.aggregation is not None:
            return self.aggregation
        return "sum_groupconv" if self.task == "segmentation" else "max_groupconv"

    def stage_width(self, i: int) -> int:
        return self.embed_channels * (2 ** (i + 1))

    def stage_blocks(self, i: int) -> list[tuple[str, int, int]]:
        """(kind, k_neighbors, stride) of each block of stage i, in order:
        the SA blocks, then the VPSA blocks; the first block takes the
        stage's stride."""
        kinds = ["sa"] * self.sa_per_stage[i] + ["vpsa"] * self.vpsa_per_stage[i]
        return [(kind, self.k_sa if kind == "sa" else self.k_vpsa,
                 self.strides[i] if j == 0 else 1) for j, kind in enumerate(kinds)]

    def min_points(self) -> int:
        """Smallest cloud size every block accepts.

        Walks the blocks backwards: a block needs at least k input points to
        group, and a stride-s block must leave as many points as the blocks
        after it need, so its input needs s*(need - 1) + 1.
        """
        need = 1
        for i in reversed(range(self.num_stages)):
            for _, k, stride in reversed(self.stage_blocks(i)):
                need = max(k, stride * (need - 1) + 1)
        return need


@dataclass
class Block:
    kind: str  # "sa" | "vpsa"
    cfg: BlockConfig
    params: object


class Model:
    """Parameter container plus forward logic for one ModelConfig."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9e3779b9]))
        agg = cfg.resolved_aggregation()

        self.embed = nnops.linear_params(rng, INPUT_CHANNELS, cfg.embed_channels, norm=True)
        self.stages: list[list[Block]] = []
        width = cfg.embed_channels
        for i in range(cfg.num_stages):
            out_w = cfg.stage_width(i)
            radius = None if cfg.radii is None else cfg.radii[i]
            blocks: list[Block] = []
            for j, (kind, k, stride) in enumerate(cfg.stage_blocks(i)):
                common = dict(in_channels=width if j == 0 else out_w, out_channels=out_w,
                             k_neighbors=k, radius=radius, stride=stride)
                if kind == "sa":
                    bc = BlockConfig(**common, sa_layers=cfg.sa_layers)
                    blocks.append(Block("sa", bc, setabs.sa_block_params(rng, bc)))
                else:
                    bc = BlockConfig(**common, vector_dim=cfg.vector_dim,
                                     encoder=cfg.encoder, aggregation=agg)
                    blocks.append(Block("vpsa", bc, setabs.vpsa_block_params(rng, bc)))
            self.stages.append(blocks)
            width = out_w

        if cfg.task == "segmentation":
            self.decoder: list[FPParams] = []
            for i in range(cfg.num_stages - 1, -1, -1):
                coarse_w = cfg.stage_width(i)
                skip_w = cfg.embed_channels if i == 0 else cfg.stage_width(i - 1)
                self.decoder.append(setabs.fp_params(rng, coarse_w, skip_w, skip_w))
            self.head_hidden = nnops.linear_params(
                rng, cfg.embed_channels, cfg.embed_channels, norm=True)
            self.head_out = nnops.linear_params(rng, cfg.embed_channels, cfg.num_classes)
            self.global_sa = None
        else:
            self.decoder = []
            glob_w = 2 * width
            self.global_sa = nnops.linear_params(rng, width + 3, glob_w, norm=True)
            self.global_sa.norm_beta = None
            self.head_hidden = nnops.linear_params(rng, glob_w, width, norm=True)
            self.head_out = nnops.linear_params(rng, width, cfg.num_classes)

    # -- parameter bookkeeping ------------------------------------------------

    def _stage_blocks(self, i: int):
        """(path, block) for each block of stage i; the path is
        `stage{i}.{kind}{n}`, n counting the blocks of that kind in the stage."""
        counters = {"sa": 0, "vpsa": 0}
        for block in self.stages[i]:
            yield f"stage{i}.{block.kind}{counters[block.kind]}", block
            counters[block.kind] += 1

    def layer_map(self) -> dict[str, LayerParams]:
        """All LayerParams keyed by their module path."""
        parts = [("embed", self.embed)]
        for i in range(len(self.stages)):
            parts += [(path, block.params) for path, block in self._stage_blocks(i)]
        parts += [(f"decoder.fp{i}", fp) for i, fp in enumerate(self.decoder)]
        parts += [("global_sa", self.global_sa), ("head.hidden", self.head_hidden),
                  ("head.out", self.head_out)]
        return {path: layer for prefix, obj in parts
                for path, layer in walk_layers(obj, prefix)}

    def named_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for path, layer in self.layer_map().items():
            for slot, tensor in layer.tensors():
                out[f"{path}.{slot}"] = tensor
        return out

    def named_running(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for path, layer in self.layer_map().items():
            if layer.running_mean is not None:
                out[f"{path}.running_mean"] = layer.running_mean
                out[f"{path}.running_var"] = layer.running_var
        return out

    # -- forward ---------------------------------------------------------------

    def _run_encoder(self, batch: PointSetBatch, mode: str):
        """Embedding plus all stages; returns a (cloud, features) pair per
        resolution, the cloud holding positions only."""
        need = self.cfg.min_points()
        if batch.num_points < need:
            raise SizeError(
                f"clouds of {batch.num_points} points are too small for this "
                f"model: its strides {self.cfg.strides} and neighborhood sizes "
                f"need at least {need} points")
        pos = batch.positions
        # [p, p_z]: z is up, so the height is invariant under z-axis rotation
        feats = nnops.input_tensor(np.concatenate([pos, pos[..., 2:]], axis=-1))
        f = nnops.dense(feats, self.embed, mode)
        cloud = PointSetBatch(positions=batch.positions)
        skips = [(cloud, f)]
        for i in range(len(self.stages)):
            # the stride-1 VPSA blocks of a stage run on the same points with
            # the same k and radius, so they share one neighborhood
            shared = None
            for path, block in self._stage_blocks(i):
                if block.kind == "sa":
                    cloud, f = setabs.sa_block(cloud, f, block.cfg, block.params, mode)
                else:
                    if block.cfg.stride == 1 and shared is None:
                        shared = setabs.group(cloud, block.cfg)
                    nbr = shared if block.cfg.stride == 1 else None
                    cloud, f = setabs.vpsa_block(cloud, f, block.cfg, block.params,
                                                 mode, nbr=nbr)
                nnops.check_finite(f, path)
            skips.append((cloud, f))
        return skips

    def forward_seg(self, batch: PointSetBatch, mode: str = "train") -> Tensor:
        if self.cfg.task != "segmentation":
            raise ConfigError("forward_seg on a classification model")
        skips = self._run_encoder(batch, mode)
        coarse, f = skips.pop()
        for d, fp in enumerate(self.decoder):
            # popped, so each skip is dropped once its block has used it
            fine, skip_f = skips.pop()
            f = setabs.feature_propagate(coarse, f, fine.positions, skip_f, fp, mode)
            coarse = fine
            del skip_f
            nnops.check_finite(f, f"decoder.fp{d}")
        return self._head(f, mode)

    def forward_cls(self, batch: PointSetBatch, mode: str = "train") -> Tensor:
        if self.cfg.task != "classification":
            raise ConfigError("forward_cls on a segmentation model")
        cloud, f = self._run_encoder(batch, mode)[-1]
        pos = cloud.positions
        b, n = pos.shape[:2]
        # one neighborhood of all n points around the centroid
        pooled = setabs.pooled_sa(pos, pos.mean(axis=1, keepdims=True), f,
                                  np.broadcast_to(np.arange(n), (b, 1, n)),
                                  np.zeros((b, 1, n), dtype=bool), [self.global_sa], mode)
        pooled = nnops.check_finite(nnops.reshape(pooled, (b, -1)), "global_sa")
        return self._head(pooled, mode)

    def _head(self, f: Tensor, mode: str) -> Tensor:
        """The logits of features f: head.hidden, then head.out."""
        h = nnops.check_finite(nnops.dense(f, self.head_hidden, mode), "head.hidden")
        logits = nnops.linear(h, self.head_out)
        return nnops.check_finite(logits, "head.out")


def walk_layers(obj, prefix: str = ""):
    """(path, LayerParams) for every layer in a params container: a
    LayerParams, or a list, tuple or dataclass of containers, walked in
    order. Paths join the prefix, field names and list indices with dots."""
    def join(name):
        return f"{prefix}.{name}" if prefix else str(name)

    if isinstance(obj, LayerParams):
        yield prefix, obj
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from walk_layers(item, join(i))
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from walk_layers(getattr(obj, f.name), join(f.name))


def param_count(obj) -> int:
    """Number of learnable scalars in a model or a params container."""
    layers = obj.layer_map().values() if isinstance(obj, Model) else (
        layer for _, layer in walk_layers(obj))
    return sum(t.data.size for layer in layers for _, t in layer.tensors())


# ---------------------------------------------------------------------------
# presets


def preset_config(name: str, /, num_classes: int = 13, **overrides) -> ModelConfig:
    """Named architecture presets; extra keyword arguments override fields."""
    presets = {
        "pointvector-s": dict(
            embed_channels=32, sa_per_stage=[0, 0, 0, 0], vpsa_per_stage=[1, 1, 1, 1],
            strides=[4, 4, 4, 4], task="segmentation"),
        "pointvector-l": dict(
            embed_channels=32, sa_per_stage=[1, 1, 1, 1], vpsa_per_stage=[2, 4, 2, 2],
            strides=[4, 4, 4, 4], task="segmentation"),
        "pointvector-xl": dict(
            embed_channels=64, sa_per_stage=[1, 1, 1, 1], vpsa_per_stage=[3, 6, 3, 3],
            strides=[4, 4, 4, 4], task="segmentation"),
        "pointvector-s-cls": dict(
            embed_channels=32, sa_per_stage=[0, 0, 0, 0], vpsa_per_stage=[1, 1, 1, 1],
            strides=[2, 2, 2, 2], task="classification"),
        "toy-seg": dict(
            embed_channels=16, sa_per_stage=[1, 1], vpsa_per_stage=[1, 1],
            strides=[2, 2], k_sa=16, k_vpsa=8, sa_layers=2, task="segmentation"),
        "toy-seg-ball": dict(
            embed_channels=16, sa_per_stage=[1, 1], vpsa_per_stage=[1, 1],
            strides=[2, 2], k_sa=16, k_vpsa=8, sa_layers=2, radii=[0.3, 0.6],
            task="segmentation"),
        "toy-cls": dict(
            embed_channels=16, sa_per_stage=[0, 0], vpsa_per_stage=[1, 1],
            strides=[2, 2], k_vpsa=8, task="classification"),
    }
    if not isinstance(name, str) or name not in presets:
        raise ConfigError(f"unknown model.preset {name!r}; choose from {sorted(presets)}")
    params = dict(presets[name])
    params["num_classes"] = num_classes
    params.update(overrides)
    return read_section(ModelConfig, params, "model")


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Model, path, extra: dict | None = None) -> None:
    """Write parameters and running statistics with a JSON header; bit-exact."""
    arrays = {}
    for name, t in model.named_params().items():
        arrays[f"param/{name}"] = t.data
    for name, arr in model.named_running().items():
        arrays[f"running/{name}"] = arr
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": dataclasses.asdict(model.cfg),
        "extra": extra or {},
        "shapes": {k: list(v.shape) for k, v in arrays.items()},
    }
    header = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"),
                           dtype=np.uint8)
    np.savez(path, __meta__=header, **arrays)


def load_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild the model from a checkpoint; returns (model, extra metadata).

    Parameters and running statistics take the current default dtype
    (`nnops.precision`), whatever dtype they were saved in.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if "__meta__" not in data:
        raise CheckpointError(f"checkpoint {path} has no metadata header")
    try:
        meta = json.loads(bytes(data["__meta__"].tobytes()).decode("utf-8"))
    except Exception as exc:
        raise CheckpointError(f"corrupt metadata header in {path}: {exc}") from exc
    if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {meta.get('format_version')}")
    try:
        cfg = read_section(ModelConfig, meta["config"], "model")
    except (KeyError, ConfigError) as exc:
        raise CheckpointError(f"invalid config in checkpoint: {exc}") from exc
    model = Model(cfg, seed=0)
    dtype = nnops.default_dtype()
    for name, t in model.named_params().items():
        key = f"param/{name}"
        if key not in data:
            raise CheckpointError(f"checkpoint missing parameter {name}")
        arr = data[key]
        if arr.shape != t.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name}: checkpoint {arr.shape}, model {t.data.shape}")
        t.data = arr.astype(dtype, copy=False)
    layers = model.layer_map()
    for path_name, layer in layers.items():
        if layer.running_mean is None:
            continue
        for stat in ("running_mean", "running_var"):
            key = f"running/{path_name}.{stat}"
            if key not in data:
                raise CheckpointError(f"checkpoint missing statistic {key}")
            arr = data[key]
            if arr.shape != getattr(layer, stat).shape:
                raise CheckpointError(f"shape mismatch for {key}")
            setattr(layer, stat, arr.astype(dtype, copy=False))
    return model, meta.get("extra", {})
