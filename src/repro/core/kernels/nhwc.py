"""The specialized fp32 NHWC fused kernel (the mlcnn-fp32 fast path).

This is the kernel the lowering stage binds for ``lower_bits=32`` to
every fused layer whose pool stride equals its pool, and, as its pool-1
case, to every stride-1 convolution with a square kernel and padding —
the software analogue of the accelerator's ``mlcnn-fp32`` configuration,
which runs plain and fused layers on one MAC datapath.  It trades the
float64 path's exactness for single-precision GEMM throughput and a
channels-last layout in which every memory stage is contiguous:

* **layout** — NHWC internally: the pooled-patch gather copies
  contiguous ``(kj, c)`` runs in both source and destination instead
  of strided per-channel elements.  :meth:`F32NHWCKernel.run_nchw`
  returns the NCHW view of a fresh NHWC result (never a workspace) and
  copies only input that is not a C-contiguous float32 channels-last
  view, so consecutive lowered layers hand each other channels-last
  memory without a copy.
* **padding folded into the box sum** — for ``pool=2`` on inputs at
  least 2 pixels high and wide the horizontal pairwise sum writes pad
  columns directly from the input edges; no padded copy of the input
  is ever materialized (every other case uses a zero-padded workspace).
* **no box sum at pool 1** — the ``I_Acc`` plane of a 1x1 pool is the
  input itself, so patches are gathered straight from the input, or
  from the zero-padded workspace when there is padding.
* **bias folded into the GEMM** — the patch matrix carries a constant
  ones column and the weight matrix a bias row, so bias addition costs
  nothing extra; the ``1/p^2`` scaling is folded into the weights.
* **GEMM orientation per call** — :func:`weight_major` picks it from
  the call's patch rows and fold size.  Most calls run row-major,
  ``cols (rows, C*K*K+1) @ wmat``.  A few rows against a large fold
  (vgg16's ``features.5``-``12`` at batch 1) run weight-major,
  ``out^T = wT @ cols^T``, which streams the weights once; the small
  ``(M, rows)`` result is then copied into a fresh C-contiguous NHWC
  array.  Both products read the same fold.
* **one workspace per layer geometry** — all activation intermediates
  live in one plan for each per-sample geometry ``(H, W, C, K,
  padding)``, sized for the largest batch the kernel has run at it; a
  smaller batch runs on batch-prefix views, so a workload that draws
  many batch sizes holds one workspace per layer, not one per size.  A
  larger batch replaces the workspace with one for that batch.
  Steady-state calls allocate only the output of the final GEMM, plus
  its NHWC copy when it ran weight-major.
* **plan-time views** — each plan builds the strided gather source over
  its own box-sum or pad workspace, and the patch-matrix destination,
  once per batch size, so a call gathers with one copy; only pool 1
  without padding, whose source is the input itself, builds its window
  per call.

Folding the weights — cast to the gather order, scale and append the
bias row — is a separate step, :meth:`F32NHWCKernel.fold`.  It moves
the whole (M, C, K, K) tensor (3-4 ms for a 512x512x3x3 layer on a
2-core x86 VM, against about a millisecond for its batch-1 GEMM), so
callers that run the same weights repeatedly fold once and pass the
result as ``wmat=``.  The fold is the logical ``(C*K*K+1, M)`` operand
in one layout, picked by its size: a large fold, the only kind a call
runs weight-major, is the transpose view of a C-contiguous
``(M, C*K*K+1)`` array, the layout that product streams; a smaller one
is C-contiguous, the faster layout for the row-major product.
:meth:`F32NHWCKernel.folded` is that cache for the module the kernel is
bound to (one kernel per module): it re-folds only when a parameter's
data object or version changes, whatever the calls' batch sizes.
Pickles and copies of the kernel drop it and the plans, both derived
state.  Called without ``wmat``, the kernel folds on every call.

Accuracy: outputs deviate from the float64 reference by single-
precision round-off (measured max ~3e-5 on the benchmark workload;
documented bound ~1e-3 for unit-variance inputs).  The lowering pass
therefore declares ``preserves_semantics=False``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.core.kernels.fused import record_rme_counters

__all__ = ["F32NHWCKernel", "weight_major"]

#: A fold of at least this many floats (2 MiB) is stored weight-major ...
WEIGHT_MAJOR_MIN_FOLD = 1 << 19
#: ... and calls of at most this many patch rows against it run the
#: weight-major product.  Both from ``benchmarks/gemm_orientation.py``,
#: whose docstring records the sweep.
WEIGHT_MAJOR_MAX_ROWS = 128


def weight_major(rows: int, fold_size: int) -> bool:
    """Whether ``rows`` patch rows against a fold of ``fold_size`` floats,
    ``(C*K*K + 1) * M``, run the weight-major product."""
    return rows <= WEIGHT_MAJOR_MAX_ROWS and fold_size >= WEIGHT_MAJOR_MIN_FOLD


class _Batch(NamedTuple):
    """The views one batch size runs on: batch-prefix views of a plan's
    workspaces and the gather views over them."""

    xpad: Optional[np.ndarray]
    tmp: Optional[np.ndarray]
    acc: Optional[np.ndarray]
    #: ``cols[:n*Po*Qo]``, the patch rows of this batch: all the GEMM reads
    cols: np.ndarray
    #: the gather destination: contiguous (kj, c) runs of ``cols``
    dst: np.ndarray
    #: the gather source over the I_Acc workspace; ``None`` when I_Acc
    #: is the input itself (pool 1 without padding)
    src: Optional[np.ndarray]


class _Plan:
    """Activation workspaces for one layer geometry ``(H, W, C, K, padding)``.

    They are sized for ``capacity`` images, the largest batch the kernel
    has run at this geometry.  A call with ``n <= capacity`` images runs
    on the batch-prefix views of :meth:`batch`: ``xpad[:n]``,
    ``tmp[:n]``, ``acc[:n]`` and ``cols[:n*Po*Qo]``.  A prefix view
    holds what any earlier call left in it, so three invariants keep it
    correct whatever ran before:

    * nothing writes the zero border of ``xpad``, or of the pairwise
      ``tmp`` (its pad rows, and its outer ``pad - 1`` columns): a call
      writes only their interiors, so the zeros written at allocation
      hold for every image of the capacity;
    * the ones column of ``cols`` is set once, for the whole capacity;
    * the GEMM reads only ``cols[:n*Po*Qo]``: the rows past it hold an
      earlier, larger batch's patches.
    """

    def __init__(self, capacity: int, h: int, w: int, c: int, k: int, pool: int, pad: int):
        self.capacity = capacity
        self.h, self.w, self.c, self.k = h, w, c, k
        self.pool, self.pad = pool, pad
        hp, wp = h + 2 * pad, w + 2 * pad
        self.ha, self.wa = hp - pool + 1, wp - pool + 1
        self.po = (self.ha - k) // pool + 1
        self.qo = (self.wa - k) // pool + 1
        if self.po < 1 or self.qo < 1:
            raise ValueError("input too small for one pooled output")
        self.ck = c * k * k
        n, f32 = capacity, np.float32
        #: the pairwise box sum (pad folded in) serves this plan
        self.pairwise = pool == 2 and h >= 2 and w >= 2
        self.xpad = self.tmp = self.acc = None
        if pool == 1:
            # I_Acc is the input: only padding needs a workspace
            if pad:
                self.xpad = np.zeros((n, hp, wp, c), dtype=f32)
        else:
            if self.pairwise:
                # pad folded into the horizontal sum: pad rows stay zero
                self.tmp = np.zeros((n, hp, self.wa, c), dtype=f32)
            else:
                self.xpad = np.zeros((n, hp, wp, c), dtype=f32)
                self.tmp = np.empty((n, hp, self.wa, c), dtype=f32)
            self.acc = np.empty((n, self.ha, self.wa, c), dtype=f32)
        # patch matrix with a trailing ones column (bias folded into GEMM)
        self.cols = np.empty((n * self.po * self.qo, self.ck + 1), dtype=f32)
        self.cols[:, self.ck] = 1.0
        self._batches: Dict[int, _Batch] = {}

    def batch(self, n: int) -> _Batch:
        """The views a call with ``n <= capacity`` images runs on, built
        on its first call."""
        views = self._batches.get(n)
        if views is None:
            xpad, tmp, acc = (None if a is None else a[:n] for a in (self.xpad, self.tmp, self.acc))
            cols = self.cols[: n * self.po * self.qo]
            dst = cols[:, : self.ck].reshape(n, self.po, self.qo, self.k, self.k, self.c)
            plane = acc if self.pool > 1 else xpad
            src = None if plane is None else self.windows(plane)
            views = self._batches[n] = _Batch(xpad, tmp, acc, cols, dst, src)
        return views

    def windows(self, plane: np.ndarray) -> np.ndarray:
        """The ``(N, Po, Qo, Ki, Kj, C)`` pooled-stride patch view of an
        NHWC ``I_Acc`` plane, over the plane's own memory."""
        sn, sh, sw, sc = plane.strides
        p = self.pool
        return as_strided(
            plane,
            (len(plane), self.po, self.qo, self.k, self.k, self.c),
            (sn, p * sh, p * sw, sh, sw, sc),
            writeable=False,
        )


class F32NHWCKernel:
    """Plan-specialized fused conv-pool: fp32 arithmetic, NHWC layout.

    ``pool=1`` is a plain stride-1 convolution: RME eliminates
    ``1 - 1/p^2`` of the multiplications, none at ``p = 1``.  Every
    call records its multiplications through
    :func:`~repro.core.kernels.fused.record_rme_counters`.

    The kernel holds one workspace per layer geometry, shared by every
    batch size it runs (see :class:`_Plan`), so it serves one call at a
    time: two threads must not call one kernel, even with different
    batch sizes.  Its ``repr`` shows each workspace's capacity in images.
    """

    layout = "nhwc"

    def __init__(self, pool: int) -> None:
        if pool < 1:
            raise ValueError(f"pool must be >= 1, got {pool}")
        self.pool = pool
        self._plans: Dict[Tuple, _Plan] = {}
        self._folded = None  # (weight data, version, bias data, version, wmat)
        #: ``"row-major"`` or ``"weight-major"``: the product of the latest
        #: call, ``None`` before one
        self.orientation: Optional[str] = None

    @property
    def name(self) -> str:
        """``conv-f32-nhwc`` for the pool-1 case, else ``fused-f32-nhwc``."""
        return "conv-f32-nhwc" if self.pool == 1 else "fused-f32-nhwc"

    def __getstate__(self):
        # the folded operand and the plans are derived state: pickles and
        # deep copies rebuild them on first use.  A copied plan would also
        # hold a detached copy of its gather view, not a view of its own
        # workspace.
        state = self.__dict__.copy()
        state["_folded"] = None
        state["_plans"] = {}
        return state

    # -- planning -----------------------------------------------------------

    def _plan_for(self, x_shape: Tuple[int, ...], k: int, pad: int) -> _Plan:
        """The plan of the geometry of ``x_shape``, grown to its batch."""
        n, h, w, c = x_shape
        key = (h, w, c, k, pad)
        plan = self._plans.get(key)
        if plan is None or n > plan.capacity:
            # free the smaller workspace, and every view over it, first
            self._plans.pop(key, None)
            del plan
            plan = self._plans[key] = _Plan(n, h, w, c, k, self.pool, pad)
        return plan

    # -- weight folding -----------------------------------------------------

    def fold(self, weight: np.ndarray, bias: Optional[np.ndarray] = None) -> np.ndarray:
        """The (C*K*K + 1, M) float32 GEMM operand for ``weight``/``bias``.

        Rows follow the patch gather order (ki, kj, c), the ``1/p^2``
        pool scaling is folded in, and the last row is the bias (zero
        without one), multiplying the patch matrix's ones column.  A
        fold of at least :data:`WEIGHT_MAJOR_MIN_FOLD` floats is the
        transpose view of a C-contiguous (M, C*K*K + 1) array; a smaller
        one is C-contiguous.  ``weight`` must be a square (M, C, K, K)
        kernel.
        """
        m, c, k, kw = weight.shape
        if k != kw:
            raise ValueError(f"the fp32 kernel needs a square kernel (KH == KW), got {k}x{kw}")
        ck = c * k * k
        # cast straight into gather order: a large fold needs no transposing pass
        wt = np.empty((m, ck + 1), dtype=np.float32)
        rows = wt[:, :ck]
        np.copyto(rows.reshape(m, k, k, c), weight.transpose(0, 2, 3, 1))
        if self.pool > 1:
            rows *= np.float32(1.0 / (self.pool ** 2))
        wt[:, ck] = 0.0 if bias is None else bias
        return wt.T if wt.size >= WEIGHT_MAJOR_MIN_FOLD else np.ascontiguousarray(wt.T)

    def folded(self, weight, bias=None) -> np.ndarray:
        """:meth:`fold` of parameter tensors, cached per parameter version.

        ``weight`` and ``bias`` are the bound module's parameters (any
        objects with ``.data`` and ``._version``).  The cache is keyed on
        the identity and version of their data, so it re-folds only after
        a rebind of ``.data`` or an in-place write that bumped the version.
        """
        bdata, bver = (None, 0) if bias is None else (bias.data, bias._version)
        cached = self._folded
        if (
            cached is None
            or cached[0] is not weight.data
            or cached[1] != weight._version
            or cached[2] is not bdata
            or cached[3] != bver
        ):
            wmat = self.fold(weight.data, bdata)
            # holding the arrays (not their ids) keeps an id from being reused
            cached = self._folded = (weight.data, weight._version, bdata, bver, wmat)
        return cached[4]

    # -- the box sum (I_Acc) --------------------------------------------------

    def _box_sum(self, plan: _Plan, views: _Batch, x: np.ndarray) -> None:
        """Fill the batch's padded ``I_Acc`` workspace views from ``x``.

        Pool 1 without padding has no workspace: its ``I_Acc`` is ``x``.
        """
        p, pad, h, w = plan.pool, plan.pad, plan.h, plan.w
        tmp, acc = views.tmp, views.acc
        if plan.pairwise:
            # horizontal pairwise sum with the zero padding folded in
            core = tmp[:, pad : pad + h]
            np.add(x[:, :, :-1, :], x[:, :, 1:, :], out=core[:, :, pad : pad + w - 1, :])
            if pad >= 1:
                core[:, :, pad - 1, :] = x[:, :, 0, :]
                core[:, :, pad + w - 1, :] = x[:, :, w - 1, :]
            # vertical pairwise sum (pad rows are zero by construction)
            np.add(tmp[:, :-1], tmp[:, 1:], out=acc)
            return
        xp = views.xpad
        if xp is None:  # pool 1 without padding
            return
        xp[:, pad : pad + h, pad : pad + w, :] = x
        if p == 1:
            return
        tmp[:] = xp[:, :, : plan.wa, :]
        for d in range(1, p):
            tmp += xp[:, :, d : d + plan.wa, :]
        acc[:] = tmp[:, : plan.ha]
        for d in range(1, p):
            acc += tmp[:, d : d + plan.ha]

    # -- execution ----------------------------------------------------------

    def __call__(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        *,
        padding: int = 0,
        activation: str = "relu",
        wmat: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run on an NHWC float32 batch ``(N, H, W, C)``; returns NHWC.

        ``wmat`` is a pre-folded weight operand from :meth:`fold`; with
        it, ``weight`` supplies only the layer geometry and ``bias`` is
        ignored.  Without it the weights are folded for this call.
        Either GEMM orientation runs over any layout of ``wmat``.
        """
        if x.ndim != 4:
            raise ValueError(f"expected NHWC (N,H,W,C), got shape {x.shape}")
        if x.dtype != np.float32:
            x = np.asarray(x, dtype=np.float32)
        m, cw, k, _ = weight.shape
        if x.shape[-1] != cw:
            raise ValueError(f"channel mismatch: input {x.shape[-1]}, weight {cw}")
        if wmat is None:
            wmat = self.fold(weight, bias)  # rejects a non-square kernel
        n = x.shape[0]
        plan = self._plan_for(x.shape, k, padding)
        p, po, qo, ck = plan.pool, plan.po, plan.qo, plan.ck
        if wmat.shape != (ck + 1, m) or wmat.dtype != np.float32:
            raise ValueError(
                f"folded weights must be float32 {(ck + 1, m)}, got {wmat.dtype} {wmat.shape}"
            )
        views = plan.batch(n)
        self._box_sum(plan, views, x)
        # gather: contiguous (kj, c) runs in both source and destination
        np.copyto(views.dst, plan.windows(x) if views.src is None else views.src)
        cols = views.cols
        if weight_major(len(cols), wmat.size):
            self.orientation = "weight-major"
            # out = (wT @ cols^T)^T, copied into fresh channels-last memory
            out = np.ascontiguousarray(np.matmul(wmat.T, cols.T).T)
        else:
            self.orientation = "row-major"
            out = np.matmul(cols, wmat)
        if activation == "relu":
            np.maximum(out, 0.0, out=out)
        elif activation == "sigmoid":
            np.negative(out, out=out)
            np.exp(out, out=out)
            out += 1.0
            np.reciprocal(out, out=out)
        elif activation == "tanh":
            np.tanh(out, out=out)
        elif activation != "none":
            raise ValueError(f"unknown activation {activation!r}")
        record_rme_counters(n, m, plan.c, k, p, po, qo, plan.h + 2 * padding, plan.w + 2 * padding)
        return out.reshape(n, po, qo, m)

    def run_nchw(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        *,
        padding: int = 0,
        activation: str = "relu",
        wmat: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run on an NCHW batch; returns the NCHW view of the NHWC result.

        ``x`` reaches the kernel as its channels-last view, copied only
        when that view is not C-contiguous float32.  The output of a
        previous call is such a view, so consecutive lowered layers hand
        each other channels-last memory without a copy.  The result is
        fresh channels-last memory in either GEMM orientation, never a
        plan workspace.
        """
        xh = np.ascontiguousarray(x.transpose(0, 2, 3, 1), dtype=np.float32)
        out = self(xh, weight, bias, padding=padding, activation=activation, wmat=wmat)
        return out.transpose(0, 3, 1, 2)

    def __repr__(self) -> str:
        caps = ", ".join(str(plan.capacity) for plan in self._plans.values()) or "none"
        last = f", last call {self.orientation}" if self.orientation else ""
        return f"<F32NHWCKernel pool={self.pool}, workspace capacity {caps}{last}>"
