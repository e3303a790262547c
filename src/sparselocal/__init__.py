"""Per-sample sparse linear models generated by a neural network.

The package trains a weight-generator network that emits one dense
weight vector per sample, gates it down to exactly k nonzero entries
with a differentiable sequential softmax mechanism, and predicts with an
inner product against a simplified, human-readable representation. The
open gates and their signed weights are the explanation of each
prediction.
"""

from .autodiff import Tensor
from .gate import k_hot_gate
from .model import Explanation, GatedLocalLinear, DirectClassifier, ModelConfig
from .train import Adam, MomentumSGD, TrainSchedule, coarse_to_fine_train, evaluate
from .data import Dataset, Sample, make_synthetic, split_dataset

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "Dataset",
    "DirectClassifier",
    "Explanation",
    "GatedLocalLinear",
    "ModelConfig",
    "MomentumSGD",
    "Sample",
    "Tensor",
    "TrainSchedule",
    "coarse_to_fine_train",
    "evaluate",
    "k_hot_gate",
    "make_synthetic",
    "split_dataset",
]
