"""Lowered parameters live in the fold: stored once, never stale.

The fp32 kernel bound to each lowered layer (``FusedConvPool`` and
``Conv2d`` alike) folds the layer's weight and bias into its GEMM
operand and rebinds their ``.data`` to views of that fold.  These tests
check the fold itself against the one-expression formula, in both of
its layouts, and its parameter views; that every writer of parameter
data, a bare in-place write included, reaches every lowered layer:
after each write the compiled model's gradient-free output must still
match the uncompiled float64 model carrying the same weights; and that
a rebind, ``to_dtype``, a pickle or a deep copy moves the parameters
back into a fold.  They also check that calls at any mix of batch
sizes, and so of GEMM orientations, never re-fold.
"""

import copy
import pickle

import numpy as np
import pytest

from repro import build_model, mlcnn_pipeline
from repro.compiler import clear_plan_cache, lowered_kernels
from repro.core.kernels import F32NHWCKernel
from repro.core.kernels.nhwc import WEIGHT_MAJOR_MIN_FOLD, fold_views
from repro.core.prune import capture_masks, magnitude_prune, restore_masks
from repro.nn import functional as F
from repro.nn.layers import Conv2d
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor, no_grad

from tests.conftest import reference_like

#: the end-to-end inference bound: max |y - ref| <= RTOL * max |ref|
RTOL = 1e-4


def _formula_fold(weight, bias):
    """The fold as a single expression: unscaled rows in gather order."""
    m, c, k, _ = weight.shape
    ck = c * k * k
    wmat = np.empty((ck + 1, m), dtype=np.float32)
    wmat[:ck] = np.asarray(weight, dtype=np.float32).transpose(2, 3, 1, 0).reshape(ck, m)
    wmat[ck] = 0.0 if bias is None else np.asarray(bias, dtype=np.float32)
    return wmat


class TestFold:
    @pytest.mark.parametrize(
        "m, c, k, pool, with_bias",
        [
            (4, 3, 3, 2, True),
            (6, 1, 5, 2, True),  # C = 1
            (3, 2, 3, 3, True),  # pool = 3
            (5, 1, 2, 3, False),  # C = 1, pool = 3, no bias
            (64, 32, 3, 2, False),
            (2, 7, 1, 2, True),  # 1x1 kernel
            (4, 3, 3, 1, True),  # pool = 1: a plain conv
            (256, 256, 3, 2, True),  # above the floor: the weight-major layout
            (256, 256, 3, 1, False),
        ],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_identical_to_formula(self, m, c, k, pool, with_bias, dtype):
        rng = np.random.default_rng(m * 100 + c * 10 + k)
        w = rng.standard_normal((m, c, k, k)).astype(dtype)
        b = rng.standard_normal(m).astype(dtype) if with_bias else None
        got = F32NHWCKernel(pool).fold(w, b)
        assert got.dtype == np.float32 and got.shape == (c * k * k + 1, m)
        # a large fold is the transpose view of (M, C*K*K + 1) memory
        large = got.size >= WEIGHT_MAJOR_MIN_FOLD
        assert got.flags.c_contiguous != large and got.T.flags.c_contiguous == large
        np.testing.assert_array_equal(got, _formula_fold(w, b))
        # the parameter views read the weights and bias back, in the fold
        wv, bv = fold_views(got, w.shape)
        np.testing.assert_array_equal(wv, w.astype(np.float32))
        np.testing.assert_array_equal(bv, 0.0 if b is None else b.astype(np.float32))
        assert np.shares_memory(wv, got) and np.shares_memory(bv, got)

    def test_prefolded_run_matches_folding_run(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 12, 12))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        kern = F32NHWCKernel(2)
        folded = kern.run_nchw(x, w, b, padding=1, wmat=kern.fold(w, b))
        np.testing.assert_array_equal(folded, kern.run_nchw(x, w, b, padding=1))

    def test_rejects_a_wmat_for_other_geometry(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 3, 10, 10))
        w = rng.standard_normal((4, 3, 3, 3))
        kern = F32NHWCKernel(2)
        with pytest.raises(ValueError, match="folded weights"):
            kern.run_nchw(x, w, wmat=kern.fold(w[:2]))
        with pytest.raises(ValueError, match="folded weights"):
            kern.run_nchw(x, w, wmat=kern.fold(w).astype(np.float64))


# ---------------------------------------------------------------------------
# the per-kernel cache of every lowered layer of a compiled lenet5
# ---------------------------------------------------------------------------


def _compiled():
    model, _ = mlcnn_pipeline(strict=False, lower_bits=32).run(build_model("lenet5", seed=0))
    return model.eval()


def _bound(model):
    """Every lowered layer: the two fused conv-pools and the C5 conv."""
    modules = dict(model.named_modules())
    return [modules[path] for path, _ in lowered_kernels(model)]


X = np.random.default_rng(7).standard_normal((4, 3, 32, 32))


def _infer(model, x=X):
    with no_grad():
        return model(Tensor(x)).data


def _assert_current(model):
    """The compiled output matches the f64 model with the same weights."""
    y = _infer(model)
    ref = _infer(reference_like(model))
    bound = RTOL * float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(y - ref))) <= bound
    return y


def _changed(before, after):
    return float(np.max(np.abs(after - before))) > RTOL * float(np.max(np.abs(before)))


def _assert_in_fold(layers):
    """Each layer's weight and bias are views of its kernel's fold."""
    for f in layers:
        wmat = f.kernel._folded[-1]
        assert f.kernel._folded[0] is f.weight.data
        assert np.shares_memory(f.weight.data, wmat)
        assert np.shares_memory(f.bias.data, wmat)


@pytest.fixture
def model():
    m = _compiled()
    assert len(_bound(m)) == 3
    assert all(isinstance(f.kernel, F32NHWCKernel) for f in _bound(m))
    _assert_current(m)
    return m


def _train_step(model, optim):
    out = model(Tensor(X))
    (out * out).sum().backward()
    optim.step()
    optim.zero_grad()


class TestNoStaleWeights:
    def test_sgd_step(self, model):
        before = _infer(model)
        _train_step(model, SGD(model.parameters(), lr=1e-3))
        assert _changed(before, _assert_current(model))

    def test_adam_step(self, model):
        before = _infer(model)
        _train_step(model, Adam(model.parameters(), lr=1e-2))
        assert _changed(before, _assert_current(model))

    def test_load_state_dict(self, model):
        before = _infer(model)
        state = {k: v * 0.5 for k, v in model.state_dict().items()}
        model.load_state_dict(state)
        assert _changed(before, _assert_current(model))

    def test_to_dtype_float32(self, model):
        """The cast moves the parameters out of the folds; the next
        inference forward moves them back in."""
        model.to_dtype(np.float32)
        assert not any(np.shares_memory(f.weight.data, f.kernel._folded[-1]) for f in _bound(model))
        _assert_current(model)
        _assert_in_fold(_bound(model))

    def test_prune_then_restore_masks(self, model):
        before = _infer(model)
        report = magnitude_prune(model, 0.5)
        # pruning reaches every lowered layer, fused or plain
        assert len(report.per_layer) == len(_bound(model))
        assert all(frac > 0 for frac in report.per_layer.values())
        masks = capture_masks(model)
        pruned = _assert_current(model)
        assert _changed(before, pruned)
        # an optimizer step regrows the pruned weights ...
        _train_step(model, SGD(model.parameters(), lr=1e-3))
        _assert_current(model)
        # ... and restoring the masks zeroes them again
        assert restore_masks(model, masks) > 0
        _assert_current(model)

    @pytest.mark.parametrize("name", ["weight", "bias"])
    def test_bare_in_place_write(self, model, name):
        """A write into ``.data`` is a write into the fold: the next
        forward serves it with no re-fold and nothing to announce."""
        folds = [f.kernel._folded for f in _bound(model)]
        before = _infer(model)
        for f in _bound(model):
            param = getattr(f, name)
            param.data[...] = param.data * 2.0 - 1.0
        assert _changed(before, _assert_current(model))
        assert all(f.kernel._folded is fold for f, fold in zip(_bound(model), folds))

    @pytest.mark.parametrize("name", ["weight", "bias"])
    def test_data_rebind(self, model, name):
        before = _infer(model)
        for f in _bound(model):
            param = getattr(f, name)
            param.data = param.data * 2.0 - 1.0
            assert not np.shares_memory(param.data, f.kernel._folded[-1])
        assert _changed(before, _assert_current(model))
        _assert_in_fold(_bound(model))

    def test_attaching_a_kernel_drops_the_cache(self, model):
        for f in _bound(model):
            f.attach_kernel(F32NHWCKernel(f.lowering_pool))
            assert f.kernel._folded is None
        _assert_current(model)

    def test_copies_drop_the_cache_and_refold(self, model):
        """Copies drop the folds, of either layout, and the plans; a copied
        plan would gather from a detached copy of its workspace, stale on
        any new input.  A copy's parameters move into its own folds on
        first use."""
        x_new = np.random.default_rng(8).standard_normal(X.shape)
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert all(f.kernel._folded is None for f in _bound(clone))
            assert all(not f.kernel._plans for f in _bound(clone))
            np.testing.assert_array_equal(_infer(clone), _infer(model))
            _assert_in_fold(_bound(clone))
            np.testing.assert_array_equal(_infer(clone, x_new), _infer(model, x_new))
        # lenet5's folds are C-contiguous; a large layer's is weight-major
        conv = _large_conv()
        x = Tensor(np.random.default_rng(9).standard_normal((1, 256, 4, 4)))
        with no_grad():
            y = conv(x).data
        assert conv.kernel._folded[-1].T.flags.c_contiguous
        for clone in (copy.deepcopy(conv), pickle.loads(pickle.dumps(conv))):
            assert clone.kernel._folded is None and not clone.kernel._plans
            with no_grad():
                np.testing.assert_array_equal(clone(x).data, y)
            _assert_in_fold([clone])

    def test_float64_parameters_fold_on_every_call(self, model):
        """A model cast back to float64 keeps its dtype: its parameters
        cannot live in a float32 fold, so each call folds them."""
        model.to_dtype(np.float64)
        y = _assert_current(model)
        assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float64)}
        assert all(f.kernel._folded is None for f in _bound(model))
        for f in _bound(model):
            f.weight.data[...] *= -1.0
        assert _changed(y, _assert_current(model))


def _count_folds(monkeypatch):
    """The kernel of every :meth:`F32NHWCKernel.fold` call, in order."""
    folded = []
    original = F32NHWCKernel.fold

    def counting(self, weight, bias=None):
        folded.append(self)
        return original(self, weight, bias)

    monkeypatch.setattr(F32NHWCKernel, "fold", counting)
    return folded


def _kernels(model):
    return [kernel for _, kernel in lowered_kernels(model)]


@pytest.mark.parametrize("name, width", [("lenet5", 1.0), ("vgg16", 0.125)])
def test_compile_moves_every_lowered_parameter_into_its_fold(name, width):
    """Right after the compile, before any forward, each lowered layer's
    weight and bias are views of its kernel's fold, and no other
    parameter shares memory with a fold."""
    model, _ = mlcnn_pipeline(strict=False, lower_bits=32).run(
        build_model(name, width_mult=width, seed=0)
    )
    layers = _bound(model)
    assert len(layers) == {"lenet5": 3, "vgg16": 13}[name]
    _assert_in_fold(layers)
    lowered = {id(p) for f in layers for p in (f.weight, f.bias)}
    folds = [f.kernel._folded[-1] for f in layers]
    for p in model.parameters():
        if id(p) not in lowered:
            assert not any(np.shares_memory(p.data, fold) for fold in folds)


def test_fifty_calls_over_all_batch_sizes_fold_each_layer_once(monkeypatch):
    folded = _count_folds(monkeypatch)
    model = _compiled()
    assert sorted(map(id, folded)) == sorted(map(id, _kernels(model)))
    rng = np.random.default_rng(0)
    with no_grad():
        for i in range(50):
            model(Tensor(rng.standard_normal((i % 16 + 1, 3, 32, 32))))
    assert len(folded) == 3
    _assert_in_fold(_bound(model))


# ---------------------------------------------------------------------------
# one fold per parameter version, whatever the calls' batch sizes
# ---------------------------------------------------------------------------


def _large_conv():
    """A lowered 256->256 3x3 conv: a 2305x256 fold, above the floor."""
    conv = Conv2d(256, 256, 3, padding=1, rng=np.random.default_rng(0))
    conv.bias.data = np.random.default_rng(1).standard_normal(256)
    conv.to_dtype(np.float32)
    conv.attach_kernel(F32NHWCKernel(1))
    return conv


def test_both_orientations_read_one_fold(monkeypatch):
    """On 4x4 inputs batch 1 has 16 patch rows and batch 4 has 64, both
    weight-major; batch 16 has 256, row-major.  Every call reads the one
    weight-major fold built by the first."""
    folded = _count_folds(monkeypatch)
    conv = _large_conv()
    kern = conv.kernel
    rng = np.random.default_rng(2)
    for batch in (1, 16, 4, 16, 1):
        x = Tensor(rng.standard_normal((batch, 256, 4, 4)))
        with no_grad():
            y = conv(x).data
            ref = F.conv2d(x, conv.weight, conv.bias, padding=1).data
        assert float(np.max(np.abs(y - ref))) <= RTOL * float(np.max(np.abs(ref)))
        orientation = "row-major" if batch == 16 else "weight-major"
        assert kern.orientation == orientation
        assert f"last call {orientation}" in repr(kern)
    assert folded == [kern]
    assert kern._folded[-1].T.flags.c_contiguous
    _assert_in_fold([conv])


def test_vgg16_alternating_batch_1_and_16_folds_each_layer_once(monkeypatch):
    """Full-width vgg16 at the compile probe's batch 2, then batches 1 and
    16 in turn, which run its late layers in both orientations: each
    layer folds once, in the ``lower`` pass."""
    folded = _count_folds(monkeypatch)
    clear_plan_cache()  # a cached plan would skip the validating probe
    model, _ = mlcnn_pipeline(strict=False, lower_bits=32).run(build_model("vgg16", seed=0))
    model.eval()
    assert len(folded) == 13
    rng = np.random.default_rng(0)
    with no_grad():
        for batch in (1, 16, 1, 16):
            model(Tensor(rng.standard_normal((batch, 3, 32, 32))))
    assert sorted(map(id, folded)) == sorted(map(id, _kernels(model)))
    _assert_in_fold(_bound(model))
