"""Dataset/DataLoader utilities (array-backed, NumPy-native)."""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np


class ArrayDataset:
    """A dataset of (images, labels) held as contiguous arrays."""

    def __init__(self, images: np.ndarray, labels: np.ndarray) -> None:
        images = np.asarray(images)
        labels = np.asarray(labels)
        if len(images) != len(labels):
            raise ValueError(f"images ({len(images)}) and labels ({len(labels)}) disagree")
        if labels.ndim != 1:
            raise ValueError("labels must be a 1-D integer array")
        self.images = images
        self.labels = labels.astype(np.int64)

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, idx) -> Tuple[np.ndarray, np.ndarray]:
        return self.images[idx], self.labels[idx]

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        return ArrayDataset(self.images[indices], self.labels[indices])


def train_val_split(
    dataset: ArrayDataset, val_fraction: float = 0.2, seed: int = 0
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Shuffle and split into train/validation datasets."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(dataset))
    n_val = max(1, int(round(len(dataset) * val_fraction)))
    return dataset.subset(idx[n_val:]), dataset.subset(idx[:n_val])


class DataLoader:
    """Mini-batch iterator with optional shuffling.

    Each epoch re-shuffles with a stream drawn from the seed so runs
    are reproducible but epochs differ.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int = 32,
        shuffle: bool = True,
        seed: int = 0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            batch = order[start : start + self.batch_size]
            yield self.dataset.images[batch], self.dataset.labels[batch]
