"""Synthetic CIFAR-like generator: structure, determinism, learnability."""

import numpy as np
import pytest

from repro.data import SyntheticImageConfig, make_synth_cifar, synth_cifar10


class TestConfigValidation:
    def test_rejects_one_class(self):
        with pytest.raises(ValueError):
            SyntheticImageConfig(num_classes=1)

    def test_rejects_tiny_images(self):
        with pytest.raises(ValueError):
            SyntheticImageConfig(image_size=4)

    def test_rejects_huge_shift(self):
        with pytest.raises(ValueError):
            SyntheticImageConfig(image_size=16, max_shift=8)


class TestGeneratedData:
    def test_shapes_and_counts(self):
        ds = make_synth_cifar(SyntheticImageConfig(num_classes=5, samples_per_class=10, image_size=16))
        assert ds.images.shape == (50, 3, 16, 16)
        assert sorted(np.bincount(ds.labels)) == [10] * 5

    def test_standardized(self):
        ds = synth_cifar10(samples_per_class=20, image_size=16)
        assert abs(ds.images.mean()) < 1e-8
        assert abs(ds.images.std() - 1.0) < 1e-6

    def test_deterministic_given_seed(self):
        a = synth_cifar10(samples_per_class=4, image_size=16, seed=3)
        b = synth_cifar10(samples_per_class=4, image_size=16, seed=3)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = synth_cifar10(samples_per_class=4, image_size=16, seed=1)
        b = synth_cifar10(samples_per_class=4, image_size=16, seed=2)
        assert not np.allclose(a.images, b.images)

    def test_classes_are_linearly_separable_enough(self):
        """A nearest-class-mean classifier must beat chance comfortably —
        otherwise the accuracy experiments would only measure noise."""
        ds = make_synth_cifar(
            SyntheticImageConfig(num_classes=5, samples_per_class=40, image_size=16, seed=0)
        )
        X = ds.images.reshape(len(ds), -1)
        # fit class means on the first half, evaluate on the second
        half = len(ds) // 2
        means = np.stack([X[:half][ds.labels[:half] == c].mean(axis=0) for c in range(5)])
        d = ((X[half:, None, :] - means[None, :, :]) ** 2).sum(axis=-1)
        acc = (d.argmin(axis=1) == ds.labels[half:]).mean()
        assert acc > 0.5  # chance is 0.2

    def test_harder_with_more_noise(self):
        def ncm_accuracy(noise):
            ds = make_synth_cifar(
                SyntheticImageConfig(
                    num_classes=5, samples_per_class=40, image_size=16,
                    noise_sigma=noise, seed=0,
                )
            )
            X = ds.images.reshape(len(ds), -1)
            half = len(ds) // 2
            means = np.stack([X[:half][ds.labels[:half] == c].mean(axis=0) for c in range(5)])
            d = ((X[half:, None, :] - means[None, :, :]) ** 2).sum(axis=-1)
            return (d.argmin(axis=1) == ds.labels[half:]).mean()

        assert ncm_accuracy(0.1) >= ncm_accuracy(2.0)

    def test_shift_jitter_applied(self):
        """With zero noise, samples of one class differ only by shifts —
        so pairwise differences are nonzero but norms match."""
        ds = make_synth_cifar(
            SyntheticImageConfig(
                num_classes=2, samples_per_class=8, image_size=16,
                noise_sigma=0.0, gain_jitter=0.0, max_shift=3, seed=0,
            )
        )
        cls0 = ds.images[ds.labels == 0]
        norms = np.linalg.norm(cls0.reshape(len(cls0), -1), axis=1)
        np.testing.assert_allclose(norms, norms[0], rtol=1e-6)
        assert not np.allclose(cls0[0], cls0[1])
