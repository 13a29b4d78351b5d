"""Rotation-based vector feature encoding and vector-oriented point set
abstraction for point clouds, with hand-written gradients, a synthetic
training pipeline, brute-force oracles, and an ablation CLI."""

from . import (  # noqa: F401
    dataio,
    errors,
    geometry,
    gradcheck,
    model,
    nnops,
    oracle,
    setabs,
    train,
    vecenc,
)
from .geometry import NeighborIndex, PointSetBatch  # noqa: F401
from .model import Model, ModelConfig, param_count, preset_config  # noqa: F401
from .nnops import GradTape, LayerParams, Tensor  # noqa: F401
from .setabs import BlockConfig  # noqa: F401
from .train import TrainConfig  # noqa: F401

__version__ = "0.1.0"
