"""One golden for every fused conv-pool implementation (Section IV).

RME, LAR and GAR change *how* ``act(AvgPool(Conv(x)))`` is computed,
never *what*.  This file holds every implementation of the fused
operator to one golden, :func:`golden`: the unfused float64 composition
``F.conv2d -> F.avg_pool2d(pool, stride) -> activation``, and its
autograd gradients.

* :data:`ROWS` is the table: one :class:`Row` per implementation, with
  its declared tolerance, the configurations its signature can state
  and the constraints of its supported-shape predicate.
* :data:`GRID` is the one seeded shape generator's grid.  It covers
  p ∤ H, padding > 0, k < p, overlapping pools (s < p), H ≠ W, batch 1,
  C = 1, non-square kernels and int accumulators at the int64 edge
  (:func:`test_grid_covers_every_edge` checks that it does).
* Every case a row can state either lies inside its predicate, and then
  must match the golden within the row's tolerance (outputs, and
  gradients for the rows that define them) and, when a ``LayerSpec``
  can describe it, record the ``OpCounters`` :mod:`repro.core.opcount`
  predicts; or it lies outside, and then must raise a ``ValueError``
  that names a constraint it violates.

A case whose padding, pool stride or activation a row's signature has
no way to state is not that row's case: the int path, the counted loop
nests and the RTL layer take an unpadded, non-overlapping pool and
their own epilogue, and the fp32 kernel's pool stride is its pool.  The
int row quantizes the case's operands and is held to the golden on the
dequantized ones.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

import numpy as np
import pytest

from repro.accel.rtl import RTLFusedConvPoolLayer
from repro.core.fixedpoint import (
    ACC_LIMIT,
    accumulator_bound,
    fused_conv_pool_int,
    int_path_error_bound,
    quantize_tensor,
)
from repro.core.fusion import (
    dense_conv_pool_counted,
    fused_conv_pool,
    fused_conv_pool_counted,
)
from repro.core.kernels import F32NHWCKernel
from repro.core.opcount import dcnn_layer_ops, mlcnn_layer_ops
from repro.models.specs import LayerSpec
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.obs import collect_counters

ACTIVATIONS = {"relu": F.relu, "sigmoid": F.sigmoid, "tanh": F.tanh, "none": lambda t: t}


def golden(x, w, b, pool, stride=None, padding=0, activation="relu", gout=None):
    """The unfused float64 ``conv2d -> avg_pool2d -> activation``.

    Returns the (N, M, Po, Qo) output; given the upstream gradient
    ``gout``, returns ``(out, gx, gw, gb)`` (``gb`` is ``None`` without
    a bias).
    """
    grads = gout is not None
    xt, wt = Tensor(x, requires_grad=grads), Tensor(w, requires_grad=grads)
    bt = None if b is None else Tensor(b, requires_grad=grads)
    conv = F.conv2d(xt, wt, bt, padding=padding)
    out = ACTIVATIONS[activation](F.avg_pool2d(conv, pool, stride))
    if not grads:
        return out.data
    out.backward(gout)
    return out.data, xt.grad, wt.grad, None if bt is None else bt.grad


# ---------------------------------------------------------------------------
# the shape generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One fused conv-pool problem: an (N, C, H, W) input through M
    KH x KW filters, a ``pool`` average pool at ``stride``, padding and
    an activation.  ``bits`` is the int row's operand width; ``fill``
    makes the operands constant, which the int row quantizes to qmax."""

    n: int
    c: int
    m: int
    h: int
    w: int
    kh: int
    kw: int
    pool: int
    stride: int
    padding: int = 0
    activation: str = "relu"
    bias: bool = True
    bits: int = 8
    fill: bool = False
    seed: int = 0

    @property
    def out_hw(self) -> Tuple[int, int]:
        p = 2 * self.padding
        return (
            (self.h + p - self.kh + 1 - self.pool) // self.stride + 1,
            (self.w + p - self.kw + 1 - self.pool) // self.stride + 1,
        )

    def __str__(self) -> str:
        extra = f" {self.bits}b" + (" qmax-filled" if self.fill else "")
        return (
            f"#{self.seed} {self.n}x{self.c}x{self.h}x{self.w} * {self.m}x{self.kh}x{self.kw}"
            f" pool {self.pool}/{self.stride} pad {self.padding} {self.activation}"
            + ("" if self.bias else " no-bias")
            + extra
        )


def _edges() -> List[Case]:
    """Hand-placed cases: the int64 edge and the shapes earlier bugs lived on."""
    return [
        # int accumulators at the int64 edge: 4 * (2^30 - 1)^2 fits, 4 * (2^31 - 1)^2 does not
        Case(1, 1, 2, 8, 8, 1, 1, 2, 2, bits=31, fill=True, seed=-1),
        Case(1, 1, 2, 8, 8, 1, 1, 2, 2, bits=32, fill=True, seed=-2),
        # a (3, 2, 3, 5) weight on a 12x12 input: a (3, 5, 4) map, or a clear error
        Case(1, 2, 3, 12, 12, 3, 5, 2, 2, seed=-3),
        # k < p, where the analytic I_Acc count needs its own case, with p not dividing H
        Case(1, 2, 2, 11, 11, 1, 1, 3, 3, seed=-4),
        Case(1, 1, 1, 9, 9, 2, 2, 3, 3, seed=-5),
        # overlapping and gapped pools, H != W, padding
        Case(2, 2, 3, 11, 9, 3, 3, 3, 2, padding=1, activation="tanh", seed=-6),
        Case(1, 1, 2, 10, 13, 3, 3, 2, 3, padding=2, activation="sigmoid", seed=-7),
        # the pool-1 case, the plain stride-1 convolution the fp32 kernel also runs
        Case(2, 3, 2, 6, 7, 3, 3, 1, 1, padding=1, seed=-8),
        # a 1-pixel-high input padded up to one pooled output
        Case(2, 1, 4, 1, 6, 1, 1, 2, 2, padding=1, activation="none", seed=-9),
        # the shape of lenet5's C2 on the RTL datapath
        Case(1, 6, 2, 14, 14, 5, 5, 2, 2, seed=-10),
        # paper layers the single-image, square-only rows must reject
        Case(1, 2, 3, 8, 12, 3, 3, 2, 2, seed=-11),
        Case(1, 2, 3, 12, 8, 3, 3, 2, 2, seed=-12),
        Case(3, 2, 2, 10, 10, 3, 3, 2, 2, seed=-13),
        # the int path without its ReLU
        Case(1, 3, 2, 10, 10, 3, 3, 2, 2, activation="none", bits=16, seed=-14),
    ]


def grid(seed: int = 29, count: int = 120) -> List[Case]:
    """The one shared grid: :func:`_edges`, then ``count`` seeded draws.

    Two draws in five are paper layers (one image, no padding, a square
    input and kernel, a non-overlapping pool, ReLU), the configuration
    every row can state; the rest draw each setting independently.
    """
    rng = np.random.default_rng(seed)
    cases = _edges()
    for i in range(count):
        plain = rng.random() < 0.4
        kh = int(rng.integers(1, 5))
        kw = kh if plain or rng.random() < 0.8 else int(rng.integers(1, 5))
        pool = int(rng.choice([2, 2, 3, 4])) if plain else int(rng.integers(1, 5))
        stride = pool if plain or rng.random() < 0.4 else int(rng.integers(1, pool + 2))
        padding = 0 if plain else int(rng.choice([0, 1, 2]))
        h_min = max(1, kh + pool - 1 - 2 * padding)
        w_min = max(1, kw + pool - 1 - 2 * padding)
        if plain or rng.random() < 0.5:
            h = w = max(h_min, w_min) + int(rng.integers(0, 6))
        else:
            h, w = h_min + int(rng.integers(0, 6)), w_min + int(rng.integers(0, 6))
        cases.append(
            Case(
                n=1 if plain else int(rng.choice([1, 2, 3])),
                c=int(rng.integers(1, 4)),
                m=int(rng.integers(1, 4)),
                h=h,
                w=w,
                kh=kh,
                kw=kw,
                pool=pool,
                stride=stride,
                padding=padding,
                activation="relu" if plain else str(rng.choice(list(ACTIVATIONS))),
                bias=bool(rng.random() < 0.8),
                bits=int(rng.choice([4, 8, 16, 24])),
                seed=i,
            )
        )
    return cases


GRID = grid()


@lru_cache(maxsize=None)
def operands(case: Case):
    """The case's seeded float64 ``(x, w, b, gout)``."""
    g = np.random.default_rng(case.seed + 1000)
    shape_x, shape_w = (case.n, case.c, case.h, case.w), (case.m, case.c, case.kh, case.kw)
    if case.fill:
        x, w = np.ones(shape_x), np.ones(shape_w)
    else:
        x, w = g.normal(size=shape_x), g.normal(size=shape_w)
    b = g.normal(size=case.m) if case.bias else None
    gout = g.normal(size=(case.n, case.m) + case.out_hw)
    return x, w, b, gout


def dequantized(case: Case):
    """The int row's operands as the golden sees them."""
    x, w, b, gout = operands(case)
    xq, wq = (quantize_tensor(t, case.bits).dequantize() for t in (x, w))
    return xq, wq, b, gout


@lru_cache(maxsize=None)
def golden_of(case: Case, quantized: bool = False):
    """:func:`golden` with gradients on the case's (dequantized) operands."""
    x, w, b, gout = dequantized(case) if quantized else operands(case)
    return golden(x, w, b, case.pool, case.stride, case.padding, case.activation, gout)


# ---------------------------------------------------------------------------
# the rows
# ---------------------------------------------------------------------------

#: constraint name (a regex the ValueError must match) -> supported-shape test
SQUARE_KERNEL = (r"square kernel \(KH == KW\)", lambda c: c.kh == c.kw)
SQUARE_INPUT = (r"square input \(H == W\)", lambda c: c.h == c.w)
ONE_IMAGE = (r"\(C, H, W\)", lambda c: c.n == 1)
POOL_2 = (r"2x2 pooling", lambda c: c.pool == 2)
INT64 = (
    r"int64 limit",
    lambda c: c.c * c.kh * c.kw * c.pool**2 * (2 ** (c.bits - 1) - 1) ** 2 <= ACC_LIMIT,
)


def _paper_layer(case: Case) -> bool:
    """What a signature without padding, pool-stride and activation
    settings states: an unpadded, non-overlapping pool and ReLU."""
    return case.padding == 0 and case.stride == case.pool and case.activation == "relu"


def _image(case: Case, x: np.ndarray) -> np.ndarray:
    """A single-image row's input: the image, or the whole batch, which
    the row must reject."""
    return x[0] if case.n == 1 else x


def _fused(impl: str):
    def run(case, x, w, b, gout):
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        bt = None if b is None else Tensor(b, requires_grad=True)
        out = fused_conv_pool(
            xt, wt, bt, pool=case.pool, pool_stride=case.stride, padding=case.padding,
            activation=case.activation, impl=impl,
        )
        out.backward(gout)
        return out.data, xt.grad, wt.grad, None if bt is None else bt.grad

    return run


def _f32(case, x, w, b, gout):
    kernel = F32NHWCKernel(case.pool)
    return (kernel.run_nchw(x, w, b, padding=case.padding, activation=case.activation),)


def _int(case, x, w, b, gout):
    qx, qw = quantize_tensor(_image(case, x), case.bits), quantize_tensor(w, case.bits)
    out = fused_conv_pool_int(qx, qw, b, pool=case.pool, apply_relu=case.activation == "relu")
    return (out[None],)


def _counted(executor):
    def run(case, x, w, b, gout):
        out, _ = executor(_image(case, x), w, b, pool=case.pool)
        return (out[None],)

    return run


def _rtl(case, x, w, b, gout):
    return (RTLFusedConvPoolLayer(w, b).run(_image(case, x), pool=case.pool).outputs[None],)


@dataclass(frozen=True)
class Row:
    """One implementation: how to run it, its tolerance, what it can state.

    Every array it returns must satisfy
    ``|got - golden| <= atol + rtol * |golden|`` elementwise.
    """

    name: str
    run: Callable  # (case, x, w, b, gout) -> (out,) or (out, gx, gw, gb)
    rtol: float
    atol: float
    #: whether the signature can state the case at all
    states: Callable[[Case], bool] = lambda case: True
    #: the supported-shape predicate, as (constraint regex, test) pairs
    limits: Tuple = ()
    #: the counters it records: "rme" (mults and mults_eliminated),
    #: "counted" (the whole fused tally), "dense" or "" (none)
    counters: str = ""
    quantized: bool = False

    def violated(self, case: Case) -> List[str]:
        """The constraints of the predicate that ``case`` breaks."""
        return [name for name, ok in self.limits if not ok(case)]


ROWS = [
    Row("fused_conv_pool", _fused("vectorized"), 1e-9, 1e-12,
        limits=(SQUARE_KERNEL,), counters="rme"),
    Row("fused_conv_pool[reference]", _fused("reference"), 1e-9, 1e-12,
        limits=(SQUARE_KERNEL,), counters="rme"),
    # fp32: single-precision round-off; the kernel's pool is its stride
    Row("F32NHWCKernel", _f32, 1e-7, 1e-3, states=lambda c: c.stride == c.pool,
        limits=(SQUARE_KERNEL,), counters="rme"),
    Row("fused_conv_pool_int", _int, 1e-9, 1e-9,
        states=lambda c: c.padding == 0 and c.stride == c.pool and c.activation in ("relu", "none"),
        limits=(ONE_IMAGE, SQUARE_INPUT, SQUARE_KERNEL, INT64), quantized=True),
    Row("fused_conv_pool_counted", _counted(fused_conv_pool_counted), 1e-9, 1e-12,
        states=_paper_layer, limits=(ONE_IMAGE, SQUARE_INPUT, SQUARE_KERNEL), counters="counted"),
    Row("dense_conv_pool_counted", _counted(dense_conv_pool_counted), 1e-9, 1e-12,
        states=_paper_layer, limits=(ONE_IMAGE, SQUARE_INPUT, SQUARE_KERNEL), counters="dense"),
    Row("RTLFusedConvPoolLayer", _rtl, 1e-9, 1e-12,
        states=_paper_layer, limits=(ONE_IMAGE, SQUARE_INPUT, SQUARE_KERNEL, POOL_2)),
]


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def layer_spec(case: Case) -> Optional[LayerSpec]:
    """The ``LayerSpec`` describing ``case``, or ``None`` when none can:
    it needs a square input and kernel, and a pool of at least 2 or none
    (pool 1 at stride 1, the plain convolution)."""
    if case.h != case.w or case.kh != case.kw or (case.pool == 1 and case.stride != 1):
        return None
    pooled = case.pool > 1
    return LayerSpec(
        str(case), case.c, case.m, case.h, case.kh, padding=case.padding,
        pool=case.pool if pooled else 0, pool_stride=case.stride if pooled else 0,
    )


def expected_counters(kind: str, case: Case, spec: LayerSpec) -> dict:
    """The analytic counts of one run of ``case``, per measured quantity."""
    ml, dc = mlcnn_layer_ops(spec), dcnn_layer_ops(spec)
    if kind == "dense":
        no_bias = 0 if case.bias else case.m * spec.conv_output_size**2
        return {"mults": dc.multiplications, "mults_eliminated": 0,
                "additions": dc.additions - no_bias}
    want = {
        "mults": case.n * ml.multiplications,
        "mults_eliminated": case.n * (dc.multiplications - ml.multiplications),
    }
    if kind == "counted":
        no_bias = 0 if case.bias else case.m * spec.output_size**2
        want["half_additions + full_additions"] = ml.preprocessing_additions
        want["major_additions + bias_additions"] = ml.additions - no_bias
    return want


def measured(oc, quantity: str) -> float:
    """The collected value of ``quantity``: a field, or a sum of fields."""
    return sum(getattr(oc, name) for name in quantity.split(" + "))


def check(row: Row, case: Case) -> None:
    """Hold ``row`` to the golden on ``case`` (or to its rejection)."""
    x, w, b, gout = operands(case)
    violated = row.violated(case)
    if violated:
        try:
            row.run(case, x, w, b, gout)
        except ValueError as err:
            message = str(err)
        else:
            raise AssertionError(f"ran a case outside its predicate: {violated}")
        assert any(re.search(name, message) for name in violated), (
            f"rejected with {message!r}, which names none of {violated}"
        )
        return
    with collect_counters() as oc:
        got = row.run(case, x, w, b, gout)
    want = golden_of(case, row.quantized)
    for what, g, r in zip(("out", "gx", "gw", "gb"), got, want):
        if r is None:
            assert g is None, what
            continue
        assert g.shape == r.shape, f"{what}: shape {g.shape}, golden {r.shape}"
        np.testing.assert_allclose(g, r, rtol=row.rtol, atol=row.atol, err_msg=what)
    spec = layer_spec(case)
    if row.counters and spec is not None:
        for quantity, value in expected_counters(row.counters, case, spec).items():
            assert measured(oc, quantity) == value, (
                f"{quantity}: measured {measured(oc, quantity)}, opcount {value}"
            )


def test_grid_covers_every_edge():
    """The generator covers the shapes the oracle exists for."""
    covers = {
        "p does not divide H": lambda c: c.h % c.pool != 0,
        "padding > 0": lambda c: c.padding > 0,
        "k < p": lambda c: min(c.kh, c.kw) < c.pool,
        "overlapping pool (s < p)": lambda c: c.stride < c.pool,
        "gapped pool (s > p)": lambda c: c.stride > c.pool,
        "H != W": lambda c: c.h != c.w,
        "batch 1": lambda c: c.n == 1,
        "C = 1": lambda c: c.c == 1,
        "non-square kernel": lambda c: c.kh != c.kw,
        "no bias": lambda c: not c.bias,
        "int64 edge, fits": lambda c: c.fill and INT64[1](c),
        "int64 edge, overflows": lambda c: c.fill and not INT64[1](c),
    }
    for activation in ACTIVATIONS:
        covers[activation] = lambda c, a=activation: c.activation == a
    missing = [name for name, hit in covers.items() if not any(map(hit, GRID))]
    assert not missing, missing
    for row in ROWS:
        cases = [c for c in GRID if row.states(c)]
        inside = sum(not row.violated(c) for c in cases)
        assert inside >= 10 and (not row.limits or inside < len(cases)), row.name


@pytest.mark.parametrize("case", GRID, ids=lambda c: f"#{c.seed}")
def test_every_row_agrees_with_the_golden(case):
    """Every row that can state the case: the golden's answer within the
    row's tolerance and opcount's counters, or a named rejection."""
    failures = []
    for row in ROWS:
        if not row.states(case):
            continue
        try:
            check(row, case)
        except AssertionError as exc:
            failures.append(f"{row.name}: {exc}")
    assert not failures, "\n".join([str(case)] + failures)


def test_int_path_within_its_a_priori_bound():
    """On the unquantized operands, the int path stays within
    ``int_path_error_bound`` of the golden: the bound the INT8 numerics
    bench behind Fig. 12 reports."""
    row = next(r for r in ROWS if r.name == "fused_conv_pool_int")
    for case in GRID:
        if not row.states(case) or row.violated(case):
            continue
        x, w, b, _ = operands(case)
        qx, qw = quantize_tensor(x[0], case.bits), quantize_tensor(w, case.bits)
        got = fused_conv_pool_int(qx, qw, b, pool=case.pool, apply_relu=case.activation == "relu")
        err = np.abs(got - golden_of(case)[0][0]).max()
        assert err <= int_path_error_bound(qx, qw, case.pool), case


def test_int_path_at_the_int64_edge_is_exact():
    """qmax-filled 31-bit operands accumulate to 4 (2^30 - 1)^2, within
    a factor of two of the int64 limit, and match Python-int arithmetic
    bit for bit; 32-bit ones, whose bound is past the limit, raise
    instead of wrapping."""
    fits, overflows = (c for c in GRID if c.fill)
    x, w, b, _ = operands(fits)
    qx, qw = quantize_tensor(x[0], fits.bits), quantize_tensor(w, fits.bits)
    assert (qx.values == qx.qmax).all() and (qw.values == qw.qmax).all()
    got = fused_conv_pool_int(qx, qw, b, pool=fits.pool)
    p, k = fits.pool, fits.kh
    bound = accumulator_bound(qx, qw, p)
    wider = (quantize_tensor(t, overflows.bits) for t in (x[0], w))
    assert bound <= ACC_LIMIT < accumulator_bound(*wider, p)
    scale = qx.scale * qw.scale / float(p * p)
    xv, wv = qx.values.tolist(), qw.values.tolist()
    po, qo = fits.out_hw
    for m in range(fits.m):
        for i in range(po):
            for j in range(qo):
                acc = sum(
                    xv[c][p * i + ki + di][p * j + kj + dj] * wv[m][c][ki][kj]
                    for c in range(fits.c) for ki in range(k) for kj in range(k)
                    for di in range(p) for dj in range(p)
                )
                assert acc == bound  # qmax-filled operands reach the bound
                assert got[m, i, j] == max(float(acc) * scale + b[m], 0.0)
    x, w, b, _ = operands(overflows)
    qx, qw = quantize_tensor(x[0], overflows.bits), quantize_tensor(w, overflows.bits)
    with pytest.raises(ValueError, match="int64 limit"):
        fused_conv_pool_int(qx, qw, b)
