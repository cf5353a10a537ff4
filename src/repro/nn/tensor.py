"""Reverse-mode autograd tensor.

A :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations
applied to it in a DAG of closures.  Calling :meth:`Tensor.backward`
topologically sorts the DAG and accumulates gradients into ``.grad``.

The design mirrors the "define-by-run" style of PyTorch but stays
deliberately small: every differentiable primitive is a function that
creates an output tensor whose ``_backward`` closure knows how to push
the output gradient to its parents.  Heavier NN primitives (conv2d,
pooling, losses) live in :mod:`repro.nn.functional`.

Graphs are acyclic: a node holds its parents (through ``_parents`` and
its closure), never the other way round, so reference counting frees a
whole graph, activations and fused-layer residuals included, as soon
as the last reference to its output goes; the cyclic garbage collector
is never needed.  The rule for a new op: its backward closure must not
capture its own output node.  One that needs the forward result (as
``exp``, ``tanh`` and ``sigmoid`` do) captures the output *array*.

All data is kept in ``float64`` by default for numerically robust
gradient checking; training code may pass ``float32``.  An op's result
takes its operands' dtype by NumPy promotion, except that a Python
scalar operand takes the tensor's dtype (``t * 0.5`` and ``t.mean()``
keep a float32 ``t`` float32) and a NumPy scalar, such as ``t.sum()``'s
result, keeps its own, so a float32 graph stays float32 from input to
loss.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

Arrayish = Union["Tensor", np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return True when operations should record the autograd graph."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_is_leaf",
        "name",
    )

    def __init__(
        self,
        data: Arrayish,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        # A NumPy scalar (a full reduction's result) keeps its dtype.
        typed = isinstance(data, (np.ndarray, np.generic))
        self.data = np.asarray(data, dtype=data.dtype if typed else np.float64)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self._is_leaf = True
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut out of the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def astype(self, dtype) -> "Tensor":
        out = _make(self.data.astype(dtype), (self,))
        if out.requires_grad:

            def _bw(g: np.ndarray) -> None:
                self._accumulate(g.astype(self.data.dtype))

            out._backward = _bw
        return out

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (scalar outputs only need ``None``).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only valid "
                    f"for scalar tensors, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} != tensor shape {self.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._is_leaf:
                node._accumulate(g)
            if node._backward is not None:
                _CURRENT_SINK.append(grads)
                try:
                    node._backward(g)
                finally:
                    _CURRENT_SINK.pop()

    # ------------------------------------------------------------------
    # Arithmetic (each returns a new graph node)
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayish) -> "Tensor":
        other = _as_tensor(other, self.dtype)
        out = _make(self.data + other.data, (self, other))
        if out.requires_grad:

            def _bw(g: np.ndarray) -> None:
                _send(self, _unbroadcast(g, self.shape))
                _send(other, _unbroadcast(g, other.shape))

            out._backward = _bw
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = _make(-self.data, (self,))
        if out.requires_grad:
            out._backward = lambda g: _send(self, -g)
        return out

    def __sub__(self, other: Arrayish) -> "Tensor":
        other = _as_tensor(other, self.dtype)
        out = _make(self.data - other.data, (self, other))
        if out.requires_grad:

            def _bw(g: np.ndarray) -> None:
                _send(self, _unbroadcast(g, self.shape))
                _send(other, _unbroadcast(-g, other.shape))

            out._backward = _bw
        return out

    def __rsub__(self, other: Arrayish) -> "Tensor":
        return _as_tensor(other, self.dtype).__sub__(self)

    def __mul__(self, other: Arrayish) -> "Tensor":
        other = _as_tensor(other, self.dtype)
        out = _make(self.data * other.data, (self, other))
        if out.requires_grad:

            def _bw(g: np.ndarray) -> None:
                _send(self, _unbroadcast(g * other.data, self.shape))
                _send(other, _unbroadcast(g * self.data, other.shape))

            out._backward = _bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayish) -> "Tensor":
        other = _as_tensor(other, self.dtype)
        out = _make(self.data / other.data, (self, other))
        if out.requires_grad:

            def _bw(g: np.ndarray) -> None:
                _send(self, _unbroadcast(g / other.data, self.shape))
                _send(other, _unbroadcast(-g * self.data / (other.data ** 2), other.shape))

            out._backward = _bw
        return out

    def __rtruediv__(self, other: Arrayish) -> "Tensor":
        return _as_tensor(other, self.dtype).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out = _make(self.data ** exponent, (self,))
        if out.requires_grad:
            out._backward = lambda g: _send(
                self, g * exponent * self.data ** (exponent - 1)
            )
        return out

    def __matmul__(self, other: Arrayish) -> "Tensor":
        other = _as_tensor(other, self.dtype)
        out = _make(self.data @ other.data, (self, other))
        if out.requires_grad:

            def _bw(g: np.ndarray) -> None:
                a, b = self.data, other.data
                if a.ndim == 1 and b.ndim == 1:
                    _send(self, g * b)
                    _send(other, g * a)
                    return
                ga = g @ np.swapaxes(b, -1, -2) if b.ndim > 1 else np.outer(g, b)
                gb = np.swapaxes(a, -1, -2) @ g if a.ndim > 1 else np.outer(a, g)
                _send(self, _unbroadcast(ga, self.shape))
                _send(other, _unbroadcast(gb, other.shape))

            out._backward = _bw
        return out

    # ------------------------------------------------------------------
    # Reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:

            def _bw(g: np.ndarray) -> None:
                if axis is None:
                    _send(self, np.broadcast_to(g, self.shape).copy())
                    return
                if not keepdims:
                    g = np.expand_dims(g, axis)
                _send(self, np.broadcast_to(g, self.shape).copy())

            out._backward = _bw
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _make(self.data.reshape(shape), (self,))
        if out.requires_grad:
            out._backward = lambda g: _send(self, g.reshape(self.shape))
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        axes = axes or tuple(reversed(range(self.ndim)))
        out = _make(self.data.transpose(axes), (self,))
        if out.requires_grad:
            inv = np.argsort(axes)
            out._backward = lambda g: _send(self, g.transpose(inv))
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        out = _make(self.data[idx], (self,))
        if out.requires_grad:

            def _bw(g: np.ndarray) -> None:
                full = np.zeros_like(self.data)
                np.add.at(full, idx, g)
                _send(self, full)

            out._backward = _bw
        return out

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        y = np.exp(self.data)
        out = _make(y, (self,))
        if out.requires_grad:
            out._backward = lambda g: _send(self, g * y)
        return out

    def log(self) -> "Tensor":
        out = _make(np.log(self.data), (self,))
        if out.requires_grad:
            out._backward = lambda g: _send(self, g / self.data)
        return out

    def tanh(self) -> "Tensor":
        y = np.tanh(self.data)
        out = _make(y, (self,))
        if out.requires_grad:
            out._backward = lambda g: _send(self, g * (1.0 - y ** 2))
        return out

    def sigmoid(self) -> "Tensor":
        y = 1.0 / (1.0 + np.exp(-self.data))
        out = _make(y, (self,))
        if out.requires_grad:
            out._backward = lambda g: _send(self, g * y * (1.0 - y))
        return out

    def relu(self) -> "Tensor":
        out = _make(np.maximum(self.data, 0.0), (self,))
        if out.requires_grad:
            mask = self.data > 0
            out._backward = lambda g: _send(self, g * mask)
        return out

    def abs(self) -> "Tensor":
        out = _make(np.abs(self.data), (self,))
        if out.requires_grad:
            sign = np.sign(self.data)
            out._backward = lambda g: _send(self, g * sign)
        return out

    def clip(self, lo: float, hi: float) -> "Tensor":
        out = _make(np.clip(self.data, lo, hi), (self,))
        if out.requires_grad:
            mask = (self.data >= lo) & (self.data <= hi)
            out._backward = lambda g: _send(self, g * mask)
        return out

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = _make(out_data, (self,))
        if out.requires_grad:

            def _bw(g: np.ndarray) -> None:
                expanded = out_data if keepdims or axis is None else np.expand_dims(out_data, axis)
                gexp = g if keepdims or axis is None else np.expand_dims(g, axis)
                mask = self.data == expanded
                # Split gradient among ties, matching subgradient convention.
                counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
                _send(self, mask * gexp / counts)

            out._backward = _bw
        return out


_CURRENT_SINK: list[dict] = []


def needs_grad(tensor: Tensor) -> bool:
    """Whether a gradient sent to ``tensor`` is used.

    It is when ``tensor`` accumulates one (``requires_grad``) or passes
    one on to its parents (``_backward``).  :func:`_send` drops every
    other gradient, so a backward closure may skip computing it: that
    is its output mask for the parent.
    """
    return tensor.requires_grad or tensor._backward is not None


def _send(tensor: Tensor, grad: np.ndarray) -> None:
    """Route a computed parent gradient into the active backward pass.

    During ``Tensor.backward`` gradients are staged in a dict keyed by
    tensor identity so that each node's ``_backward`` runs exactly once,
    after all of its consumers have contributed.
    """
    if not needs_grad(tensor):
        return
    sink = _CURRENT_SINK[-1]
    key = id(tensor)
    if key in sink:
        sink[key] = sink[key] + grad
    else:
        sink[key] = grad


def _as_tensor(x: Arrayish, dtype=None) -> Tensor:
    """Wrap ``x`` as a constant tensor.

    A Python scalar takes ``dtype`` when one is given: the operator
    methods pass their own dtype, so ``t * 0.5`` keeps a float32 ``t``
    float32.  (NumPy 2 promotes a float64 0-d array like any array.)
    """
    if isinstance(x, Tensor):
        return x
    if dtype is not None and isinstance(x, (int, float)):
        return Tensor(np.asarray(x, dtype=dtype))
    return Tensor(x)


def _make(data: np.ndarray, parents: Iterable[Tensor]) -> Tensor:
    """Create a graph node whose requires_grad is inherited from parents."""
    parents = tuple(parents)
    out = Tensor(data)
    if is_grad_enabled() and any(needs_grad(p) for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._is_leaf = False
    return out


def make_node(data: np.ndarray, parents: Iterable[Tensor]) -> Tensor:
    """Public hook for :mod:`repro.nn.functional` to create graph nodes."""
    return _make(data, parents)


def send_grad(tensor: Tensor, grad: np.ndarray) -> None:
    """Public hook for functional backward closures."""
    _send(tensor, grad)
