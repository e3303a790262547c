import pytest

from sparselocal.data import (
    load_image_dataset,
    make_synthetic,
    split_dataset,
    write_idx_images,
    write_idx_labels,
)
from sparselocal.digits import make_digit_images


@pytest.fixture(scope="session")
def synthetic_splits():
    """The 4000-sample planted-explanation task used by the heavier tests."""
    ds = make_synthetic(4000, 20, seed=77)
    train, val, test = split_dataset(ds.samples, [0.7, 0.05, 0.25], seed=77)
    return train, val, test


@pytest.fixture(scope="session")
def digit_splits(tmp_path_factory):
    """5000 train / 1000 test rendered digit images, round-tripped through IDX files."""
    root = tmp_path_factory.mktemp("digits")
    images, digits = make_digit_images(6000, seed=123)
    write_idx_images(root / "train-images.idx", images[:5000])
    write_idx_labels(root / "train-labels.idx", digits[:5000])
    write_idx_images(root / "test-images.idx", images[5000:])
    write_idx_labels(root / "test-labels.idx", digits[5000:])
    train_ds = load_image_dataset(root / "train-images.idx", root / "train-labels.idx")
    test_ds = load_image_dataset(root / "test-images.idx", root / "test-labels.idx")
    train, val = split_dataset(train_ds.samples, [0.9, 0.1], seed=0)
    return train, val, test_ds.samples
