"""repro.data — dataset substrate.

The paper trains on CIFAR-10/100; this environment has no network
access, so :mod:`repro.data.synthetic` generates structured synthetic
image-classification tasks ("synth-CIFAR") that exercise the identical
training/inference code paths: class-specific spatial patterns, random
shifts (which make pooling's shift tolerance matter, as in the paper's
All-Conv comparison), and additive noise.  :class:`DataLoader` serves
them as seeded, shuffled mini-batches, unaugmented.
"""

from repro.data.dataset import ArrayDataset, DataLoader, train_val_split
from repro.data.synthetic import SyntheticImageConfig, make_synth_cifar, synth_cifar10

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "train_val_split",
    "SyntheticImageConfig",
    "make_synth_cifar",
    "synth_cifar10",
]
