"""Pan-sharpening with a memory-based spatial-detail network.

The package is organised as:

- tensor_core / backend: minimal reverse-mode autodiff over numpy, with
  shift-and-accumulate GEMM convolution kernels.
- msdn / injection_net: the detail-synthesis network and the full model.
- losses: L1 + weighted memorizing (KL + sparsity) objective.
- classic_fusion: CS/MRA/SFIM baselines and the high-pass extractor.
- metrics: reduced- and full-resolution quality indices.
- data_pipeline: synthetic scenes, Wald protocol, .msdt and PPM I/O.
- trainer: Adam, lr schedule, checkpoints.
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
