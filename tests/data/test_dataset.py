"""ArrayDataset / DataLoader / splits."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader, train_val_split


@pytest.fixture
def dataset():
    rng = np.random.default_rng(0)
    return ArrayDataset(rng.normal(size=(50, 3, 8, 8)), rng.integers(0, 5, size=50))


class TestArrayDataset:
    def test_len_and_getitem(self, dataset):
        assert len(dataset) == 50
        img, label = dataset[3]
        assert img.shape == (3, 8, 8)
        assert np.issubdtype(np.asarray(label).dtype, np.integer)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1, 2, 2)), np.zeros(4))

    def test_2d_labels_raise(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 1, 2, 2)), np.zeros((3, 1)))

    def test_subset(self, dataset):
        sub = dataset.subset(np.array([0, 2, 4]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.images[1], dataset.images[2])


class TestTrainValSplit:
    def test_sizes(self, dataset):
        tr, va = train_val_split(dataset, 0.2, seed=1)
        assert len(va) == 10
        assert len(tr) == 40

    def test_disjoint_and_complete(self, dataset):
        dataset.images[:, 0, 0, 0] = np.arange(50)  # unique ids
        tr, va = train_val_split(dataset, 0.3, seed=2)
        ids = np.concatenate([tr.images[:, 0, 0, 0], va.images[:, 0, 0, 0]])
        assert sorted(ids) == list(range(50))

    def test_deterministic_given_seed(self, dataset):
        tr1, _ = train_val_split(dataset, 0.2, seed=5)
        tr2, _ = train_val_split(dataset, 0.2, seed=5)
        np.testing.assert_array_equal(tr1.labels, tr2.labels)

    def test_invalid_fraction(self, dataset):
        with pytest.raises(ValueError):
            train_val_split(dataset, 1.5)

    @pytest.mark.parametrize("fraction", (0.02, 0.1, 0.25, 0.5, 0.9))
    def test_validation_size_rounds_with_at_least_one(self, dataset, fraction):
        tr, va = train_val_split(dataset, fraction, seed=0)
        assert len(va) == max(1, round(50 * fraction))
        assert len(tr) + len(va) == 50


class TestDataLoader:
    def test_batch_shapes(self, dataset):
        loader = DataLoader(dataset, batch_size=16, shuffle=False)
        batches = list(loader)
        assert len(batches) == 4  # 16+16+16+2
        assert batches[0][0].shape == (16, 3, 8, 8)
        assert batches[-1][0].shape == (2, 3, 8, 8)

    def test_len_matches_iteration(self, dataset):
        for bs in (16, 50, 7, 64):
            loader = DataLoader(dataset, batch_size=bs)
            assert len(list(loader)) == len(loader)

    def test_covers_all_samples_without_drop(self, dataset):
        loader = DataLoader(dataset, batch_size=7, shuffle=True, seed=3)
        n = sum(len(y) for _, y in loader)
        assert n == 50

    def test_shuffle_changes_across_epochs(self, dataset):
        loader = DataLoader(dataset, batch_size=50, shuffle=True, seed=4)
        first = next(iter(loader))[1].copy()
        second = next(iter(loader))[1].copy()
        assert not np.array_equal(first, second)

    def test_no_shuffle_preserves_order(self, dataset):
        loader = DataLoader(dataset, batch_size=50, shuffle=False)
        _, labels = next(iter(loader))
        np.testing.assert_array_equal(labels, dataset.labels)

    def test_invalid_batch_size(self, dataset):
        with pytest.raises(ValueError):
            DataLoader(dataset, batch_size=0)



class TestDataLoaderEpochs:
    @pytest.mark.parametrize("shuffle", (False, True), ids=["ordered", "shuffled"])
    @pytest.mark.parametrize("batch_size", (1, 7, 16, 50, 64))
    def test_each_epoch_yields_every_sample_once(self, dataset, batch_size, shuffle):
        dataset.images[:, 0, 0, 0] = np.arange(50)  # unique ids
        loader = DataLoader(dataset, batch_size=batch_size, shuffle=shuffle, seed=1)
        for _ in range(2):
            batches = list(loader)
            assert len(batches) == len(loader)
            sizes = [len(y) for _, y in batches]
            assert all(n == batch_size for n in sizes[:-1])
            assert 0 < sizes[-1] <= batch_size
            ids = np.concatenate([x[:, 0, 0, 0] for x, _ in batches])
            assert sorted(ids) == list(range(50))
            for x, y in batches:  # images stay paired with their labels
                np.testing.assert_array_equal(y, dataset.labels[x[:, 0, 0, 0].astype(int)])

    @pytest.mark.parametrize("seed", (0, 1, 7))
    def test_shuffle_draws_one_permutation_per_epoch_from_the_seed(self, dataset, seed):
        """The order of every fit's batches: epoch ``e`` takes the
        ``e``-th permutation of ``default_rng(seed)``."""
        dataset.images[:, 0, 0, 0] = np.arange(50)  # unique ids
        loader = DataLoader(dataset, batch_size=16, shuffle=True, seed=seed)
        stream = np.random.default_rng(seed)
        for _ in range(3):
            ids = np.concatenate([x[:, 0, 0, 0] for x, _ in loader])
            np.testing.assert_array_equal(ids, stream.permutation(50))
