"""Named dataset registry used by the harness, benches, and examples."""

from __future__ import annotations

from typing import Callable, Dict

from .base import Dataset
from .flickr import flickr_large, flickr_small
from .yahoo_answers import yahoo_answers

__all__ = ["DATASETS", "load_dataset"]

#: Builders for the three datasets of the paper's evaluation.
DATASETS: Dict[str, Callable[..., Dataset]] = {
    "flickr-small": flickr_small,
    "flickr-large": flickr_large,
    "yahoo-answers": yahoo_answers,
}


def load_dataset(name: str, seed: int = 0, scale: float = 1.0) -> Dataset:
    """Build the named dataset (``scale`` shrinks it for quick runs).

    >>> d = load_dataset("flickr-small", scale=0.05)
    >>> d.num_items > 0 and d.num_consumers > 0
    True
    """
    try:
        builder = DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise ValueError(
            f"unknown dataset {name!r}; known: {known}"
        ) from None
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return builder(seed=seed, scale=scale)
