"""Functional kernels: shapes, values, reference cross-checks."""

import numpy as np
import pytest
from scipy import signal

from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestOutputShapes:
    @pytest.mark.parametrize(
        "h,w,k,s,p,expected",
        [
            (32, 32, 3, 1, 1, (32, 32)),
            (32, 32, 3, 2, 1, (16, 16)),
            (28, 28, 5, 1, 0, (24, 24)),
            (7, 9, 3, 2, 0, (3, 4)),
            (8, 8, 8, 1, 0, (1, 1)),
        ],
    )
    def test_conv_output_shape(self, h, w, k, s, p, expected):
        assert F.conv2d_output_shape(h, w, k, s, p) == expected

    def test_empty_output_raises(self):
        with pytest.raises(ValueError):
            F.conv2d_output_shape(4, 4, 5, 1, 0)

    def test_conv2d_shape(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 10, 10)))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)))
        assert F.conv2d(x, w, stride=2, padding=1).shape == (2, 5, 5, 5)

    def test_conv2d_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(rng.normal(size=(1, 3, 8, 8))), Tensor(rng.normal(size=(2, 4, 3, 3))))

    def test_im2col_requires_nchw(self, rng):
        with pytest.raises(ValueError):
            F.im2col(rng.normal(size=(3, 8, 8)), 3)


class TestConvValues:
    def test_matches_scipy_correlate_single_channel(self, rng):
        x = rng.normal(size=(6, 6))
        w = rng.normal(size=(3, 3))
        ours = F.conv2d(Tensor(x[None, None]), Tensor(w[None, None])).data[0, 0]
        ref = signal.correlate2d(x, w, mode="valid")
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_multi_channel_sums_over_inputs(self, rng):
        x = rng.normal(size=(1, 3, 5, 5))
        w = rng.normal(size=(1, 3, 3, 3))
        ours = F.conv2d(Tensor(x), Tensor(w)).data[0, 0]
        ref = sum(
            signal.correlate2d(x[0, c], w[0, c], mode="valid") for c in range(3)
        )
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_bias_broadcasts_per_channel(self, rng):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((3, 1, 2, 2)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        out = F.conv2d(x, w, b).data
        for m in range(3):
            assert np.allclose(out[0, m], m + 1.0)

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = F.conv2d(Tensor(x), Tensor(w), padding=1).data
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_stride_subsamples(self, rng):
        x = rng.normal(size=(1, 1, 8, 8))
        w = rng.normal(size=(1, 1, 3, 3))
        full = F.conv2d(Tensor(x), Tensor(w)).data
        strided = F.conv2d(Tensor(x), Tensor(w), stride=2).data
        np.testing.assert_allclose(strided[0, 0], full[0, 0, ::2, ::2], atol=1e-12)


class TestPooling:
    def test_avg_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2).data
        expected = np.array([[2.5, 4.5], [10.5, 12.5]])
        np.testing.assert_allclose(out[0, 0], expected)

    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2).data
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_stride_defaults_to_kernel(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 6, 6)))
        assert F.avg_pool2d(x, 3).shape == (1, 1, 2, 2)

    def test_overlapping_pool_shape(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 7, 7)))
        assert F.max_pool2d(x, 3, stride=1).shape == (1, 1, 5, 5)

    def test_max_pool_padding_never_wins(self):
        x = -np.ones((1, 1, 4, 4))
        out = F.max_pool2d(Tensor(x), 3, 2, padding=1).data
        assert (out == -1).all()

    def test_avg_pool_padding_counts_zeros(self):
        x = np.ones((1, 1, 2, 2))
        out = F.avg_pool2d(Tensor(x), 2, 2, padding=1).data
        # each corner window holds one 1 and three zeros
        np.testing.assert_allclose(out[0, 0], 0.25)

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x)).data
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)), atol=1e-12)

    def test_pool_floor_crops_remainder(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        assert F.avg_pool2d(x, 2).shape == (1, 1, 2, 2)


class TestActivationAndLosses:
    def test_softmax_rows_sum_to_one(self, rng):
        p = F.softmax(Tensor(rng.normal(size=(5, 7)) * 10)).data
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
        assert (p >= 0).all()

    def test_softmax_shift_invariant(self, rng):
        x = rng.normal(size=(2, 4))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_log_softmax_consistent(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data, np.log(F.softmax(Tensor(x)).data), atol=1e-10
        )

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = F.cross_entropy(logits, np.zeros(4, dtype=int))
        assert np.isclose(loss.item(), np.log(10))

    def test_cross_entropy_perfect_prediction(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        loss = F.cross_entropy(Tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-6

    def test_cross_entropy_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((4, 3))), np.zeros((4, 3)))

    def test_one_hot(self):
        oh = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(oh, [[1, 0, 0], [0, 0, 1]])

    def test_accuracy_topk(self):
        logits = np.array([[0.1, 0.9, 0.0], [0.8, 0.1, 0.1], [0.2, 0.3, 0.5]])
        targets = np.array([1, 0, 0])
        assert F.accuracy_topk(logits, targets, k=1) == pytest.approx(2 / 3)
        assert F.accuracy_topk(logits, targets, k=2) == pytest.approx(2 / 3)
        assert F.accuracy_topk(logits, targets, k=3) == pytest.approx(1.0)

    def test_dropout_eval_is_identity(self, rng):
        x = rng.normal(size=(4, 4))
        out = F.dropout(Tensor(x), 0.5, training=False).data
        np.testing.assert_allclose(out, x)

    def test_dropout_preserves_expectation(self, rng):
        x = np.ones((200, 200))
        out = F.dropout(Tensor(x), 0.3, training=True, rng=rng).data
        assert abs(out.mean() - 1.0) < 0.02

    def test_dropout_rejects_invalid_p(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)

    def test_concat_values(self, rng):
        a, b = rng.normal(size=(1, 2, 3, 3)), rng.normal(size=(1, 4, 3, 3))
        out = F.concat([Tensor(a), Tensor(b)], axis=1).data
        np.testing.assert_allclose(out, np.concatenate([a, b], axis=1))

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            F.concat([])


class TestBatchNorm:
    def test_normalizes_in_training(self, rng):
        x = rng.normal(2.0, 3.0, size=(8, 4, 5, 5))
        g, b = Tensor(np.ones(4)), Tensor(np.zeros(4))
        out = F.batch_norm2d(x if False else Tensor(x), g, b, np.zeros(4), np.ones(4), training=True).data
        assert abs(out.mean()) < 1e-8
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_running_stats_updated(self, rng):
        x = rng.normal(5.0, 1.0, size=(16, 2, 4, 4))
        rm, rv = np.zeros(2), np.ones(2)
        F.batch_norm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True)
        assert (rm > 0.4).all()  # moved 10% of the way towards ~5

    def test_eval_uses_running_stats(self, rng):
        x = rng.normal(size=(4, 2, 3, 3))
        rm = np.array([1.0, -1.0])
        rv = np.array([4.0, 0.25])
        out = F.batch_norm2d(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=False).data
        expected = (x - rm[None, :, None, None]) / np.sqrt(rv[None, :, None, None] + 1e-5)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_gamma_beta_affine(self, rng):
        x = rng.normal(size=(4, 1, 3, 3))
        out = F.batch_norm2d(
            Tensor(x), Tensor(np.array([2.0])), Tensor(np.array([3.0])),
            np.zeros(1), np.ones(1), training=True,
        ).data
        assert abs(out.mean() - 3.0) < 1e-8


class TestIm2colRoundTrip:
    def test_col2im_inverts_counts(self, rng):
        """col2im_add of ones equals the per-pixel window coverage count."""
        x_shape = (1, 1, 6, 6)
        cols = np.ones((1, 4, 4, 1, 3, 3))
        back = F.col2im_add(cols, x_shape, 3, 1, 0)
        # center pixels are covered by 9 windows
        assert back[0, 0, 3, 3] == 9
        assert back[0, 0, 0, 0] == 1

    def test_im2col_values(self, rng):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        cols = F.im2col(x, 2, 2, 0)
        assert cols.shape == (1, 2, 2, 1, 2, 2)
        np.testing.assert_allclose(cols[0, 0, 0, 0], [[0, 1], [4, 5]])
        np.testing.assert_allclose(cols[0, 1, 1, 0], [[10, 11], [14, 15]])
