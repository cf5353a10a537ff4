"""Vectorized NN primitives with autograd support.

All spatial kernels use the NCHW layout and are implemented with
``numpy.lib.stride_tricks.sliding_window_view`` (views, no copies on the
forward path until the final GEMM), following the HPC guidance of
vectorizing loops and avoiding unnecessary copies.

Every function accepts :class:`repro.nn.tensor.Tensor` inputs and
returns a graph node; plain ``numpy`` arrays are accepted and treated as
constants.  :func:`conv2d` and :func:`linear` record the
multiply-accumulates of each forward into the measured op counters
(:mod:`repro.nn.counters`).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.counters import get_recorder
from repro.nn.tensor import Tensor, _as_tensor, make_node, send_grad

IntPair = Union[int, Tuple[int, int]]


def _pair(v: IntPair) -> Tuple[int, int]:
    if isinstance(v, tuple):
        if len(v) != 2:
            raise ValueError(f"expected an int or a 2-tuple, got {v!r}")
        return (int(v[0]), int(v[1]))
    return (int(v), int(v))


def conv2d_output_shape(
    h: int, w: int, kernel: IntPair, stride: IntPair = 1, padding: IntPair = 0
) -> Tuple[int, int]:
    """Spatial output shape of a 2-D convolution (floor semantics)."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"convolution output would be empty: input {h}x{w}, "
            f"kernel {kh}x{kw}, stride {sh}x{sw}, padding {ph}x{pw}"
        )
    return ho, wo


def im2col(
    x: np.ndarray, kernel: IntPair, stride: IntPair = 1, padding: IntPair = 0
) -> np.ndarray:
    """Extract convolution patches.

    Parameters
    ----------
    x:
        ``(N, C, H, W)`` input array.

    Returns
    -------
    ``(N, Ho, Wo, C, kh, kw)`` view-backed patch array (materialized
    only if padding requires it).
    """
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    if x.ndim != 4:
        raise ValueError(f"im2col expects NCHW input, got ndim={x.ndim}")
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    # windows: (N, C, Ho_full, Wo_full, kh, kw); subsample by stride.
    windows = windows[:, :, ::sh, ::sw, :, :]
    return windows.transpose(0, 2, 3, 1, 4, 5)


def col2im_add(
    grad_cols: np.ndarray,
    x_shape: Tuple[int, ...],
    kernel: IntPair,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> np.ndarray:
    """Scatter-add patch gradients back to the input (inverse of im2col).

    ``grad_cols`` has shape ``(N, Ho, Wo, C, kh, kw)``.
    """
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c, h, w = x_shape
    ho, wo = grad_cols.shape[1], grad_cols.shape[2]
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=grad_cols.dtype)
    gc = grad_cols.transpose(0, 3, 1, 2, 4, 5)  # (N, C, Ho, Wo, kh, kw)
    for i in range(kh):
        hi = i + sh * ho
        for j in range(kw):
            wj = j + sw * wo
            padded[:, :, i:hi:sh, j:wj:sw] += gc[:, :, :, :, i, j]
    if ph or pw:
        return padded[:, :, ph : ph + h, pw : pw + w]
    return padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D cross-correlation (the CNN "convolution").

    ``x``: (N, C, H, W); ``weight``: (M, C, kh, kw); ``bias``: (M,).
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    n, c, h, w = x.shape
    m, cw, kh, kw = weight.shape
    if c != cw:
        raise ValueError(f"input channels {c} != weight channels {cw}")
    ho, wo = conv2d_output_shape(h, w, (kh, kw), stride, padding)

    cols = im2col(x.data, (kh, kw), stride, padding)  # (N,Ho,Wo,C,kh,kw)
    cols2d = np.ascontiguousarray(cols).reshape(n * ho * wo, c * kh * kw)
    wmat = weight.data.reshape(m, c * kh * kw)
    out = cols2d @ wmat.T  # (N*Ho*Wo, M)
    get_recorder().record(mults=cols2d.size * m)
    out = out.reshape(n, ho, wo, m).transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias.data.reshape(1, m, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    node = make_node(out, parents)
    if node.requires_grad:

        def _bw(g: np.ndarray) -> None:
            gm = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, m)
            # dW = g^T @ cols
            gw = (gm.T @ cols2d).reshape(m, c, kh, kw)
            send_grad(weight, gw)
            # dX = scatter(g @ W)
            gcols = (gm @ wmat).reshape(n, ho, wo, c, kh, kw)
            send_grad(x, col2im_add(gcols, x.shape, (kh, kw), stride, padding))
            if bias is not None:
                send_grad(bias, g.sum(axis=(0, 2, 3)))

        node._backward = _bw
    return node


def avg_pool2d(
    x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0
) -> Tensor:
    """Average pooling (NCHW). ``stride`` defaults to ``kernel``.

    Zero padding is counted in the average (count_include_pad=True).
    """
    x = _as_tensor(x)
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride if stride is not None else (kh, kw))
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    ho, wo = conv2d_output_shape(h, w, (kh, kw), (sh, sw), (ph, pw))
    xd = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x.data
    windows = sliding_window_view(xd, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    out = windows.mean(axis=(-2, -1))
    node = make_node(out, (x,))
    if node.requires_grad:

        def _bw(g: np.ndarray) -> None:
            scale = 1.0 / (kh * kw)
            gcols = np.broadcast_to(
                (g * scale)[:, :, :, :, None, None], (n, c, ho, wo, kh, kw)
            ).transpose(0, 2, 3, 1, 4, 5)
            send_grad(
                x,
                col2im_add(np.ascontiguousarray(gcols), x.shape, (kh, kw), (sh, sw), (ph, pw)),
            )

        node._backward = _bw
    return node


def max_pool2d(
    x: Tensor, kernel: IntPair, stride: Optional[IntPair] = None, padding: IntPair = 0
) -> Tensor:
    """Max pooling (NCHW). ``stride`` defaults to ``kernel``.

    Padding uses ``-inf`` so padded positions never win the max.
    """
    x = _as_tensor(x)
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride if stride is not None else (kh, kw))
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    ho, wo = conv2d_output_shape(h, w, (kh, kw), (sh, sw), (ph, pw))
    if ph or pw:
        xd = np.pad(
            x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf
        )
    else:
        xd = x.data
    windows = sliding_window_view(xd, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    flat = windows.reshape(n, c, ho, wo, kh * kw)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    node = make_node(out, (x,))
    if node.requires_grad:

        def _bw(g: np.ndarray) -> None:
            gcols = np.zeros((n, c, ho, wo, kh * kw), dtype=g.dtype)
            np.put_along_axis(gcols, arg[..., None], g[..., None], axis=-1)
            gcols = gcols.reshape(n, c, ho, wo, kh, kw).transpose(0, 2, 3, 1, 4, 5)
            send_grad(
                x,
                col2im_add(np.ascontiguousarray(gcols), x.shape, (kh, kw), (sh, sw), (ph, pw)),
            )

        node._backward = _bw
    return node


def concat(tensors, axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis`` (used by Inception/DenseNet)."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of an empty sequence")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    node = make_node(out, tuple(tensors))
    if node.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _bw(g: np.ndarray) -> None:
            slicer = [slice(None)] * g.ndim
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                slicer[axis] = slice(lo, hi)
                send_grad(t, g[tuple(slicer)])

        node._backward = _bw
    return node


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Pool each channel to a single value (adaptive 1x1 average pool)."""
    return _as_tensor(x).mean(axis=(2, 3))


def relu(x: Tensor) -> Tensor:
    return _as_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    return _as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    return _as_tensor(x).tanh()


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ W.T + b``; ``weight``: (out, in)."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    out = x @ weight.T
    get_recorder().record(mults=x.data.size * weight.shape[0])
    if bias is not None:
        out = out + bias
    return out


def flatten(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    return x.reshape(x.shape[0], -1)


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: identity in eval mode."""
    if not training or p <= 0.0:
        return _as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = rng or np.random.default_rng()
    x = _as_tensor(x)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * mask


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over (N, H, W) per channel.

    ``running_mean``/``running_var`` are updated in place in training
    mode, matching PyTorch semantics.
    """
    x = _as_tensor(x)
    n, c, h, w = x.shape
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        # Unbiased variance for the running estimate, as in PyTorch.
        count = n * h * w
        unbias = count / max(count - 1, 1)
        running_var *= 1.0 - momentum
        running_var += momentum * var * unbias
    else:
        mean = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = xhat * gamma.data[None, :, None, None] + beta.data[None, :, None, None]
    node = make_node(out, (x, gamma, beta))
    if node.requires_grad:

        def _bw(g: np.ndarray) -> None:
            send_grad(gamma, (g * xhat).sum(axis=(0, 2, 3)))
            send_grad(beta, g.sum(axis=(0, 2, 3)))
            gxhat = g * gamma.data[None, :, None, None]
            if training:
                m = n * h * w
                gx = (
                    gxhat
                    - gxhat.mean(axis=(0, 2, 3), keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
                ) * inv_std[None, :, None, None]
                del m
            else:
                gx = gxhat * inv_std[None, :, None, None]
            send_grad(x, gx)

        node._backward = _bw
    return node


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer class targets against logits."""
    logits = _as_tensor(logits)
    targets = np.asarray(targets)
    if targets.ndim != 1 or len(targets) != logits.shape[0]:
        raise ValueError(
            f"targets must be 1-D of length {logits.shape[0]}, got shape {targets.shape}"
        )
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(len(targets)), targets]
    return -picked.mean()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels.ravel()] = 1.0
    return out


def accuracy_topk(logits: np.ndarray, targets: np.ndarray, k: int = 1) -> float:
    """Top-k classification accuracy in [0, 1]."""
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if k == 1:
        return float((logits.argmax(axis=-1) == targets).mean())
    topk = np.argpartition(-logits, min(k, logits.shape[-1] - 1), axis=-1)[:, :k]
    return float((topk == targets[:, None]).any(axis=-1).mean())
