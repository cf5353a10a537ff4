"""Synthetic CIFAR-like image classification tasks.

The paper's accuracy experiments (Figs. 3, 4, 12) compare *the same
model trained three ways* (original, reordered, all-conv) on CIFAR.
What those comparisons need from the data is (a) class structure that a
small CNN can learn, (b) spatial translation jitter so that pooling's
shift tolerance matters, and (c) a "hard" many-class variant mirroring
CIFAR-100.  ``make_synth_cifar`` provides all three without network
access:

* each class owns a prototype built from a small random bank of 2-D
  sinusoidal gratings (Gabor-like energy at class-specific frequencies
  and orientations) plus a class color cast;
* each sample is the prototype under a random circular shift, per-sample
  gain, and additive Gaussian pixel noise;
* the 100-class variant draws prototypes from a shared low-dimensional
  basis, so classes crowd together and errors become likely — small
  modelling differences (e.g. dropping pooling) then show up in
  accuracy, as on CIFAR-100 in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.data.dataset import ArrayDataset


@dataclass(frozen=True)
class SyntheticImageConfig:
    """Parameters of the synthetic task generator."""

    num_classes: int = 10
    samples_per_class: int = 64
    image_size: int = 32
    channels: int = 3
    #: number of sinusoidal gratings mixed into each class prototype
    gratings_per_class: int = 4
    #: dimension of the shared grating basis (small => crowded classes)
    basis_size: int = 48
    #: maximum circular shift (pixels) applied per sample
    max_shift: int = 3
    #: additive Gaussian noise sigma (images are roughly unit-scale)
    noise_sigma: float = 0.35
    #: per-sample multiplicative gain jitter
    gain_jitter: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.image_size < 8:
            raise ValueError("image_size must be >= 8")
        if self.max_shift >= self.image_size // 2:
            raise ValueError("max_shift too large for the image size")


def _grating_basis(cfg: SyntheticImageConfig, rng: np.random.Generator) -> np.ndarray:
    """Build ``basis_size`` unit-norm gratings of shape (C, H, W)."""
    h = w = cfg.image_size
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    basis = np.empty((cfg.basis_size, cfg.channels, h, w))
    for b in range(cfg.basis_size):
        freq = rng.uniform(0.5, 3.0)  # cycles across the image
        theta = rng.uniform(0.0, np.pi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        k = 2.0 * np.pi * freq / h
        wave = np.sin(k * (np.cos(theta) * xx + np.sin(theta) * yy) + phase)
        color = rng.normal(0.0, 1.0, size=cfg.channels)
        color /= np.linalg.norm(color) + 1e-12
        pat = color[:, None, None] * wave[None, :, :]
        basis[b] = pat / (np.linalg.norm(pat) + 1e-12)
    return basis


def make_synth_cifar(cfg: SyntheticImageConfig) -> ArrayDataset:
    """Generate a synthetic dataset according to ``cfg``.

    Returns images of shape ``(N, C, H, W)`` normalized to roughly zero
    mean / unit variance, with integer labels.
    """
    rng = np.random.default_rng(cfg.seed)
    basis = _grating_basis(cfg, rng)

    # Class prototypes: sparse mixtures over the shared basis.
    protos = np.zeros((cfg.num_classes, cfg.channels, cfg.image_size, cfg.image_size))
    for c in range(cfg.num_classes):
        picks = rng.choice(cfg.basis_size, size=cfg.gratings_per_class, replace=False)
        coefs = rng.normal(1.0, 0.3, size=cfg.gratings_per_class) * rng.choice(
            [-1.0, 1.0], size=cfg.gratings_per_class
        )
        protos[c] = np.tensordot(coefs, basis[picks], axes=(0, 0))
        protos[c] /= np.abs(protos[c]).max() + 1e-12

    n = cfg.num_classes * cfg.samples_per_class
    images = np.empty((n, cfg.channels, cfg.image_size, cfg.image_size))
    labels = np.repeat(np.arange(cfg.num_classes), cfg.samples_per_class)
    shifts = rng.integers(-cfg.max_shift, cfg.max_shift + 1, size=(n, 2))
    gains = 1.0 + cfg.gain_jitter * rng.standard_normal(n)
    for i in range(n):
        img = protos[labels[i]]
        img = np.roll(img, (shifts[i, 0], shifts[i, 1]), axis=(1, 2))
        images[i] = gains[i] * img
    images += cfg.noise_sigma * rng.standard_normal(images.shape)

    # Per-dataset standardization mirrors CIFAR's mean/std normalization.
    images -= images.mean()
    images /= images.std() + 1e-12
    order = rng.permutation(n)
    return ArrayDataset(images[order].astype(np.float64), labels[order])


def synth_cifar10(
    samples_per_class: int = 64, image_size: int = 32, seed: int = 0
) -> ArrayDataset:
    """A 10-class synthetic stand-in for CIFAR-10."""
    return make_synth_cifar(
        SyntheticImageConfig(
            num_classes=10,
            samples_per_class=samples_per_class,
            image_size=image_size,
            seed=seed,
        )
    )
