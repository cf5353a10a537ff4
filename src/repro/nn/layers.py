"""Module-based layers (PyTorch-like).

A :class:`Module` owns named parameters/buffers and child modules,
supports ``state_dict``/``load_state_dict`` round trips, and toggles
train/eval mode recursively.  These layers are the building blocks of
the model zoo in :mod:`repro.models` and the unit of graph rewriting in
:mod:`repro.models.reorder` and :mod:`repro.core.transform`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import Tensor, is_grad_enabled

IntPair = Union[int, Tuple[int, int]]


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Tensor]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -- attribute plumbing -------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, value: Tensor) -> None:
        value.requires_grad = True
        self._parameters[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -----------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, p in self._parameters.items():
            yield prefix + name, p
        for mname, mod in self._modules.items():
            yield from mod.named_parameters(prefix + mname + ".")

    def parameters(self) -> List[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, b in self._buffers.items():
            yield prefix + name, b
        for mname, mod in self._modules.items():
            yield from mod.named_buffers(prefix + mname + ".")

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for mname, mod in self._modules.items():
            yield from mod.named_modules(prefix + mname + ".")

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def num_parameters(self) -> int:
        """Total learnable parameter count."""
        return sum(p.size for p in self.parameters())

    # -- mode / grads ----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for mod in self._modules.values():
            mod.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def to_dtype(self, dtype) -> "Module":
        """Cast all parameters and buffers to ``dtype`` in place.

        Use ``np.float32`` to halve memory and roughly double GEMM
        throughput for training runs; create optimizers *after* the
        cast (their state mirrors parameter dtypes).  Inputs must be
        cast by the caller — NumPy promotes mixed-precision ops to the
        wider type.
        """
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"only float32/float64 are supported, got {dtype}")
        for _, p in self.named_parameters():
            p.data = p.data.astype(dtype)
            p.bump_version()
            p.grad = None
        for name, b in self.named_buffers():
            b_cast = b.astype(dtype)
            # buffers are replaced in place on their owning module
            owner = self
            parts = name.split(".")
            for part in parts[:-1]:
                owner = owner._modules[part]
            owner._buffers[parts[-1]] = b_cast
            object.__setattr__(owner, parts[-1], b_cast)
        return self

    # -- serialization ---------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, p in self.named_parameters():
            state[name] = p.data.copy()
        for name, b in self.named_buffers():
            state[name] = b.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        missing = (set(params) | set(buffers)) - set(state)
        if missing:
            raise KeyError(f"state_dict missing keys: {sorted(missing)}")
        for name, p in params.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs {state[name].shape}"
                )
            p.data[...] = state[name]
            p.bump_version()
        for name, b in buffers.items():
            b[...] = state[name]

    # -- call ---------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, mod in self._modules.items():
            child = repr(mod).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        return "\n".join(lines) + ")"


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for i, mod in enumerate(modules):
            self._modules[str(i)] = mod

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, idx: int) -> Module:
        return list(self._modules.values())[idx]

    def append(self, mod: Module) -> "Sequential":
        self._modules[str(len(self._modules))] = mod
        return self

    def forward(self, x: Tensor) -> Tensor:
        for mod in self._modules.values():
            x = mod(x)
        return x


class ModuleList(Module):
    """A list container whose entries are registered as children."""

    def __init__(self, modules: Optional[Iterable[Module]] = None) -> None:
        super().__init__()
        for mod in modules or []:
            self.append(mod)

    def append(self, mod: Module) -> "ModuleList":
        self._modules[str(len(self._modules))] = mod
        return self

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __getitem__(self, idx: int) -> Module:
        return list(self._modules.values())[idx]

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover
        raise RuntimeError("ModuleList is a container; call its children directly")


class Conv2d(Module):
    """2-D convolution layer (cross-correlation).

    The lowering pass may :meth:`attach_kernel` a lowered inference
    kernel: a fused conv-pool kernel with a 1x1 pool, which is a plain
    stride-1 convolution.  It then serves gradient-free forwards, taking
    its weight operand from the kernel's ``folded`` cache; training
    forwards keep :func:`repro.nn.functional.conv2d`.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        kh, kw = F._pair(kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = F._pair(stride)
        self.padding = F._pair(padding)
        self.register_parameter(
            "weight", Tensor(init.kaiming_normal((out_channels, in_channels, kh, kw), rng))
        )
        if bias:
            self.register_parameter("bias", Tensor(np.zeros(out_channels)))
        else:
            self.bias = None
        self._kernel = None  # lowered kernel bound by the compiler

    @property
    def lowering_pool(self) -> Optional[int]:
        """1 when a lowered fused kernel computes this conv, else ``None``.

        The kernel runs a stride-1 convolution with a square window and
        square padding as its pool-1 case.
        """
        (kh, kw), (ph, pw) = self.kernel_size, self.padding
        return 1 if self.stride == (1, 1) and kh == kw and ph == pw else None

    def attach_kernel(self, kernel) -> None:
        """Bind (or with ``None``, unbind) a lowered inference kernel."""
        if kernel is not None and kernel.pool != self.lowering_pool:
            raise ValueError(
                "a lowered conv kernel needs pool 1, stride 1, a square kernel and "
                f"square padding; got kernel pool {kernel.pool}, stride {self.stride}, "
                f"kernel_size {self.kernel_size}, padding {self.padding}"
            )
        self._kernel = kernel

    @property
    def kernel(self):
        """The bound lowered kernel, or ``None`` before lowering."""
        return self._kernel

    def forward(self, x: Tensor) -> Tensor:
        if self._kernel is not None and not is_grad_enabled():
            out = self._kernel.run_nchw(
                x.data,
                self.weight.data,
                padding=self.padding[0],
                activation="none",
                wmat=self._kernel.folded(self.weight, self.bias),
            )
            return Tensor(out)
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}"
        )


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.register_parameter("weight", Tensor(init.kaiming_normal((out_features, in_features), rng)))
        if bias:
            self.register_parameter("bias", Tensor(np.zeros(out_features)))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def extra_repr(self) -> str:
        return f"{self.in_features}, {self.out_features}"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class AvgPool2d(Module):
    """Average pooling; the layer MLCNN reorders ahead of ReLU."""

    def __init__(
        self,
        kernel_size: IntPair,
        stride: Optional[IntPair] = None,
        padding: IntPair = 0,
    ) -> None:
        super().__init__()
        self.kernel_size = F._pair(kernel_size)
        self.stride = F._pair(stride) if stride is not None else self.kernel_size
        self.padding = F._pair(padding)

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride, self.padding)

    def extra_repr(self) -> str:
        return f"kernel_size={self.kernel_size}, stride={self.stride}"


class MaxPool2d(Module):
    def __init__(
        self,
        kernel_size: IntPair,
        stride: Optional[IntPair] = None,
        padding: IntPair = 0,
    ) -> None:
        super().__init__()
        self.kernel_size = F._pair(kernel_size)
        self.stride = F._pair(stride) if stride is not None else self.kernel_size
        self.padding = F._pair(padding)

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)

    def extra_repr(self) -> str:
        return f"kernel_size={self.kernel_size}, stride={self.stride}"


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class BatchNorm2d(Module):
    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.register_parameter("gamma", Tensor(np.ones(num_features)))
        self.register_parameter("beta", Tensor(np.zeros(num_features)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            self.training,
            self.momentum,
            self.eps,
        )

    def extra_repr(self) -> str:
        return f"{self.num_features}"


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)

    def extra_repr(self) -> str:
        return f"p={self.p}"


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.flatten(x)
