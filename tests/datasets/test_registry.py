"""Tests for the dataset registry."""

import pytest

from repro.datasets import DATASETS, load_dataset


def test_registry_contains_paper_datasets():
    assert set(DATASETS) == {
        "flickr-small",
        "flickr-large",
        "yahoo-answers",
    }


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_load_tiny_scale(name):
    dataset = load_dataset(name, seed=1, scale=0.01)
    assert dataset.name == name
    assert dataset.num_items >= 10
    assert dataset.num_consumers >= 5
    assert dataset.consumer_activity


def test_unknown_dataset():
    with pytest.raises(ValueError, match="unknown dataset"):
        load_dataset("netflix")


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
def test_load_dataset_rejects_non_positive_scale(scale):
    with pytest.raises(ValueError, match="scale must be positive"):
        load_dataset("flickr-small", scale=scale)
