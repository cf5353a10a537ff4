"""repro.nn — a from-scratch NumPy deep-learning substrate.

The MLCNN paper evaluates its cross-layer optimization inside PyTorch;
this package provides the part of that substrate the reproduction's
models use, without external ML dependencies: a reverse-mode autograd
:class:`Tensor`, vectorized (im2col) convolution / pooling kernels,
``Module``-based layers, He initialization, and the SGD and Adam
optimizers.  No model here uses batch norm, LR schedules or
checkpoints, so the package has none of them.

Public surface::

    from repro.nn import Tensor, Conv2d, AvgPool2d, ReLU, Linear, ...
    from repro.nn import functional as F
"""

from repro.nn.tensor import Tensor, no_grad, is_grad_enabled
from repro.nn import functional
from repro.nn.layers import (
    Module,
    Sequential,
    ModuleList,
    Conv2d,
    Linear,
    ReLU,
    Sigmoid,
    Tanh,
    AvgPool2d,
    MaxPool2d,
    GlobalAvgPool2d,
    Dropout,
    Flatten,
    Identity,
)
from repro.nn.optim import SGD, Adam
from repro.nn import init

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "Module",
    "Sequential",
    "ModuleList",
    "Conv2d",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "AvgPool2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Dropout",
    "Flatten",
    "Identity",
    "SGD",
    "Adam",
    "init",
]
