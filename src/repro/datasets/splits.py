"""Train/validation/test splitting."""

from __future__ import annotations

import numpy as np

from repro.datasets.windows import WindowDataset

__all__ = ["temporal_split", "random_split"]


def temporal_split(
    dataset: WindowDataset,
    train_fraction: float = 0.8,
    val_fraction: float = 0.1,
) -> tuple[WindowDataset, WindowDataset, WindowDataset]:
    """Split windows by position: earliest for training, latest for test.

    Windows are stored in (run, time) order, so a positional split keeps
    the test set temporally after the training data within each run's
    block — the honest evaluation regime for sequence models ("we
    reserve a fraction for testing", §4).  The splits share the input's
    packet columns; only the window ends are divided.
    """
    if not 0.0 < train_fraction < 1.0 or not 0.0 <= val_fraction < 1.0:
        raise ValueError("fractions must lie in (0, 1)")
    if train_fraction + val_fraction >= 1.0:
        raise ValueError("train + val fractions must leave room for the test split")
    count = len(dataset)
    if count < 3:
        raise ValueError(f"dataset too small to split ({count} windows)")
    train_end = max(1, int(count * train_fraction))
    val_end = max(train_end + 1, int(count * (train_fraction + val_fraction)))
    val_end = min(val_end, count - 1)
    return (
        dataset.subset(slice(0, train_end)),
        dataset.subset(slice(train_end, val_end)),
        dataset.subset(slice(val_end, count)),
    )


def random_split(
    dataset: WindowDataset,
    train_fraction: float,
    rng: np.random.Generator,
) -> tuple[WindowDataset, WindowDataset]:
    """Shuffled two-way split (for i.i.d.-style ablation experiments)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    indices = np.arange(len(dataset))
    rng.shuffle(indices)
    cut = max(1, int(len(dataset) * train_fraction))
    return dataset.subset(indices[:cut]), dataset.subset(indices[cut:])
