"""Dimensionality reduction: PCA fit on a uniform sample of the rows, then
applied to every row. Vectors reduced elsewhere skip it: with the ``reduce``
stage disabled, later stages read the corpus embeddings as they are."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .util import substream

DEFAULT_OUTPUT_DIM = 5
DEFAULT_SAMPLE_FRACTION = 0.10


@dataclass
class ReducerModel:
    """Fitted PCA: a row x maps to (x - mean) @ components.T."""

    mean: np.ndarray
    components: np.ndarray  # (output_dim, input_dim), orthonormal rows
    sample_rows: Optional[np.ndarray] = None  # diagnostic: rows the fit saw

    def __post_init__(self):
        gram = self.components @ self.components.T
        if not np.allclose(gram, np.eye(self.components.shape[0]), atol=1e-8):
            raise ValueError("pca components must be row-orthonormal")


def _canonical_signs(components: np.ndarray) -> np.ndarray:
    """Flip each component so its largest-magnitude loading is positive."""
    largest = np.take_along_axis(components, np.argmax(np.abs(components), axis=1)[:, None], axis=1)
    return np.where(largest < 0, -components, components)


def _fit_pca(sample: np.ndarray, output_dim: int) -> tuple[np.ndarray, np.ndarray]:
    mean = sample.mean(axis=0)
    centered = sample - mean
    cov = centered.T @ centered / (len(sample) - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:output_dim]
    return mean, _canonical_signs(eigvecs[:, order].T)


def fit_on_sample(
    values: np.ndarray,
    fraction: float = DEFAULT_SAMPLE_FRACTION,
    output_dim: int = DEFAULT_OUTPUT_DIM,
    seed: int = 0,
) -> ReducerModel:
    """Fit PCA on a uniform without-replacement sample of the rows.

    Sample size is floor(fraction * n), at least output_dim + 1.
    """
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    if output_dim > d:
        raise ValueError("output_dim cannot exceed the input dimension")
    sample_size = max(int(fraction * n), output_dim + 1)
    if sample_size > n:
        raise ValueError(
            f"sample of {sample_size} rows (need >= output_dim + 1) exceeds n = {n}"
        )
    rng = substream(seed, "reduce-sample")
    rows = np.sort(rng.choice(n, size=sample_size, replace=False))
    mean, components = _fit_pca(values[rows], output_dim)
    return ReducerModel(mean=mean, components=components, sample_rows=rows)


def transform(model: ReducerModel, values: np.ndarray) -> np.ndarray:
    """Project rows, or one row, through the model."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape[-1] != model.mean.size:
        raise ValueError(f"matrix has {values.shape[-1]} columns, model expects {model.mean.size}")
    return (values - model.mean) @ model.components.T
