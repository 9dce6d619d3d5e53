"""Pan-sharpening with a memory-based spatial-detail network.

The package is organised as:

- tensor_core / backend: minimal reverse-mode autodiff over numpy, with
  shift-and-accumulate GEMM convolution kernels.
- msdn / injection_net: the detail-synthesis network and the full model.
- losses: L1 + weighted memorizing (KL) objective.
- classic_fusion: box filtering, the CS/MRA/SFIM baselines and the
  high-pass extractor, forward only on plain ndarrays.
- metrics: reduced- and full-resolution quality indices.
- data_pipeline: synthetic scenes as plain float32 arrays, Wald protocol,
  .msdt and PPM I/O.
- trainer: batching and flip augmentation, Adam at a constant lr,
  checkpoints.
- cli: the `msdnpan` command.
"""

from .errors import (
    DegenerateInputError, FormatError, NumericError, ShapeError,
)
from .injection_net import ModelConfig, PansharpenModel, pansharpen
from .tensor_core import Tensor, backward

__version__ = "0.1.0"

__all__ = [
    "DegenerateInputError", "FormatError", "ModelConfig", "NumericError",
    "PansharpenModel", "ShapeError", "Tensor", "backward", "pansharpen",
    "__version__",
]
