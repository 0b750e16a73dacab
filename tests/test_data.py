"""Synthetic dataset generation, splitting and label-noise injection."""

import hashlib

import numpy as np
import pytest

from mixboot.data import build_dataset, inject_label_noise
from mixboot.errors import InvalidInputError


class TestGenerateDataset:
    """Generation, shuffle and split, at noise rate 0."""

    def test_balanced_classes(self):
        ds = build_dataset("two_moons", 80, 20, 0.1, 0.0, seed=0)
        labels = np.concatenate([ds.train_labels, ds.val_labels])
        assert (labels == 0).sum() == 50
        assert (labels == 1).sum() == 50

    def test_same_seed_identical(self):
        a = build_dataset("two_moons", 48, 12, 0.2, 0.0, seed=3)
        b = build_dataset("two_moons", 48, 12, 0.2, 0.0, seed=3)
        assert (a.train_inputs == b.train_inputs).all()
        assert (a.val_inputs == b.val_inputs).all()
        assert (a.train_labels == b.train_labels).all()
        assert (a.val_labels == b.val_labels).all()

    def test_different_seed_differs(self):
        a = build_dataset("two_moons", 48, 12, 0.2, 0.0, seed=3)
        b = build_dataset("two_moons", 48, 12, 0.2, 0.0, seed=4)
        assert not (a.train_inputs == b.train_inputs).all()

    def test_explicit_split(self):
        ds = build_dataset("blobs", 90, 10, 0.1, 0.0, seed=1)
        assert ds.train_inputs.shape == (90, 2)
        assert ds.val_inputs.shape == (10, 2)

    def test_noiseless_blobs_two_points(self):
        ds = build_dataset("blobs", 32, 8, 0.0, 0.0, seed=2)
        inputs = np.vstack([ds.train_inputs, ds.val_inputs])
        labels = np.concatenate([ds.train_labels, ds.val_labels])
        for label, center in ((0, (-2.0, 0.0)), (1, (2.0, 0.0))):
            rows = inputs[labels == label]
            assert (rows == np.array(center)).all()

    def test_observed_equals_clean_before_injection(self):
        ds = build_dataset("two_moons", 32, 8, 0.2, 0.0, seed=5)
        assert not ds.train_flip_mask.any()

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown generator"):
            build_dataset("spiral", 32, 8, 0.1, 0.0, seed=0)

    def test_odd_n_rejected(self):
        with pytest.raises(InvalidInputError, match="must be even"):
            build_dataset("blobs", 33, 8, 0.1, 0.0, seed=0)

    @pytest.mark.parametrize("n_train,n_val", [(1, 9), (9, 1), (0, 10)])
    def test_tiny_split_rejected(self, n_train, n_val):
        with pytest.raises(InvalidInputError, match=">= 2"):
            build_dataset("blobs", n_train, n_val, 0.1, 0.0, seed=0)

    def test_split_views_consistent(self):
        ds = build_dataset("two_moons", 40, 10, 0.1, 0.0, seed=6)
        assert len(ds.train_labels) == len(ds.train_flip_mask) == 40
        assert len(ds.val_labels) == 10
        assert ds.train_flip_mask.dtype == bool


class TestInjectLabelNoise:
    def test_rate_zero_no_flips(self):
        labels = np.array([0, 1, 0, 1, 1])
        flipped, idx = inject_label_noise(labels, 0.0, seed=0)
        assert (flipped == labels).all()
        assert idx.size == 0

    def test_rate_one_flips_everything(self):
        labels = np.array([0, 1, 0, 1])
        flipped, idx = inject_label_noise(labels, 1.0, seed=0)
        assert (flipped == 1 - labels).all()
        assert idx.size == 4

    def test_floor_rule_exact_count(self):
        labels = np.zeros(1000, dtype=int)
        _, idx = inject_label_noise(labels, 0.2, seed=1)
        assert idx.size == 200
        _, idx = inject_label_noise(np.zeros(7, dtype=int), 0.5, seed=1)
        assert idx.size == 3  # floor(0.5 * 7)

    def test_indices_sorted_and_flipped(self):
        labels = np.random.default_rng(2).integers(0, 2, size=50)
        flipped, idx = inject_label_noise(labels, 0.3, seed=3)
        assert (np.diff(idx) > 0).all()
        assert (flipped[idx] == 1 - labels[idx]).all()
        mask = np.ones(50, dtype=bool)
        mask[idx] = False
        assert (flipped[mask] == labels[mask]).all()

    def test_deterministic(self):
        labels = np.random.default_rng(4).integers(0, 2, size=40)
        a = inject_label_noise(labels, 0.25, seed=9)
        b = inject_label_noise(labels, 0.25, seed=9)
        assert (a[0] == b[0]).all()
        assert (a[1] == b[1]).all()

    def test_input_left_untouched(self):
        labels = np.array([0, 1, 0, 1])
        inject_label_noise(labels, 0.5, seed=0)
        assert (labels == [0, 1, 0, 1]).all()


class TestBuildDataset:
    def test_shapes_and_counts(self):
        ds = build_dataset("two_moons", 200, 50, 0.2, 0.2, seed=0)
        assert ds.train_inputs.shape == (200, 2)
        assert ds.val_inputs.shape == (50, 2)
        assert ds.train_flip_mask.sum() == 40  # floor(0.2 * 200)

    def test_noise_confined_to_train(self):
        noisy = build_dataset("two_moons", 200, 50, 0.2, 0.3, seed=1)
        clean = build_dataset("two_moons", 200, 50, 0.2, 0.0, seed=1)
        np.testing.assert_array_equal(noisy.val_labels, clean.val_labels)
        np.testing.assert_array_equal(noisy.val_inputs, clean.val_inputs)
        np.testing.assert_array_equal(noisy.train_inputs, clean.train_inputs)

    def test_flip_mask_matches_disagreement(self):
        noisy = build_dataset("two_moons", 100, 20, 0.2, 0.25, seed=2)
        clean = build_dataset("two_moons", 100, 20, 0.2, 0.0, seed=2)
        np.testing.assert_array_equal(noisy.train_labels != clean.train_labels,
                                      noisy.train_flip_mask)
        assert noisy.train_flip_mask.sum() == 25

    def test_deterministic(self):
        a = build_dataset("blobs", 80, 20, 0.1, 0.2, seed=3)
        b = build_dataset("blobs", 80, 20, 0.1, 0.2, seed=3)
        assert (a.train_inputs == b.train_inputs).all()
        assert (a.train_labels == b.train_labels).all()
        assert (a.train_flip_mask == b.train_flip_mask).all()

    @pytest.mark.parametrize("args,digest", [
        pytest.param(("two_moons", 200, 50, 0.2, 0.2, 0),
                     "72d2acf0043e170ac6a2aa81adac5a3ad9e209d6515a0cef6b98e87c0cc3b4c9",
                     id="two_moons"),
        pytest.param(("blobs", 97, 33, 0.1, 0.3, 7),
                     "77d732aa7aca31a941ada9526ead67f43222cb11cddf3e512ca24dbab57864ea",
                     id="blobs"),
    ])
    def test_bytes_frozen(self, args, digest):
        # sha256 of the splits as built before Dataset held only them
        ds = build_dataset(*args)
        h = hashlib.sha256()
        for part in (ds.train_inputs, ds.train_labels.astype(np.int64),
                     ds.train_flip_mask.astype(bool), ds.val_inputs,
                     ds.val_labels.astype(np.int64)):
            h.update(np.ascontiguousarray(part).tobytes())
        assert h.hexdigest() == digest
