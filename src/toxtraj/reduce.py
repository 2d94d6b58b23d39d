"""Dimensionality reduction: fit-on-sample workflow with a PCA reference
reducer, plus an external pass-through for vectors reduced elsewhere."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .corpus import EmbeddingMatrix
from .util import substream

DEFAULT_OUTPUT_DIM = 5
DEFAULT_SAMPLE_FRACTION = 0.10


@dataclass
class ReducerModel:
    """Fitted reducer. kind="pca" projects; kind="external" passes through."""

    kind: str
    input_dim: int
    output_dim: int
    mean: Optional[np.ndarray] = None
    components: Optional[np.ndarray] = None  # (output_dim, input_dim), orthonormal rows
    sample_rows: Optional[np.ndarray] = None  # diagnostic: rows the fit saw

    def __post_init__(self):
        if self.kind not in ("pca", "external"):
            raise ValueError(f"unknown reducer kind: {self.kind!r}")
        if self.output_dim > self.input_dim:
            raise ValueError("output_dim cannot exceed input_dim")
        if self.kind == "pca":
            if self.mean is None or self.components is None:
                raise ValueError("pca model requires mean and components")
            gram = self.components @ self.components.T
            if not np.allclose(gram, np.eye(self.output_dim), atol=1e-8):
                raise ValueError("pca components must be row-orthonormal")


def external_model(dim: int) -> ReducerModel:
    """Identity model for embeddings already reduced by an outside tool."""
    return ReducerModel(kind="external", input_dim=dim, output_dim=dim)


def _canonical_signs(components: np.ndarray) -> np.ndarray:
    """Flip each component so its largest-magnitude loading is positive."""
    out = components.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def _fit_pca(sample: np.ndarray, output_dim: int) -> tuple[np.ndarray, np.ndarray]:
    mean = sample.mean(axis=0)
    centered = sample - mean
    m, d = centered.shape
    if d <= m:
        cov = centered.T @ centered / (m - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1][:output_dim]
        components = eigvecs[:, order].T
    else:
        # Fewer samples than features: economy SVD gives the same subspace.
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        components = vt[:output_dim]
    return mean, _canonical_signs(components)


def fit_on_sample(
    matrix: EmbeddingMatrix | np.ndarray,
    fraction: float = DEFAULT_SAMPLE_FRACTION,
    output_dim: int = DEFAULT_OUTPUT_DIM,
    seed: int = 0,
) -> ReducerModel:
    """Fit PCA on a uniform without-replacement sample of the rows.

    Sample size is floor(fraction * n), at least output_dim + 1.
    """
    values = matrix.values if isinstance(matrix, EmbeddingMatrix) else np.asarray(matrix, dtype=np.float64)
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
    return ReducerModel(
        kind="pca",
        input_dim=d,
        output_dim=output_dim,
        mean=mean,
        components=components,
        sample_rows=rows,
    )


def transform(model: ReducerModel, matrix: EmbeddingMatrix | np.ndarray) -> EmbeddingMatrix | np.ndarray:
    """Project rows through the model; external models pass rows through."""
    is_matrix = isinstance(matrix, EmbeddingMatrix)
    values = matrix.values if is_matrix else np.asarray(matrix, dtype=np.float64)
    if values.ndim == 1:
        values = values[None, :]
        squeeze = True
    else:
        squeeze = False
    if values.shape[1] != model.input_dim:
        raise ValueError(
            f"matrix has {values.shape[1]} columns, model expects {model.input_dim}"
        )
    if model.kind == "external":
        out = values.copy()
    else:
        out = (values - model.mean) @ model.components.T
    if squeeze:
        out = out[0]
    if is_matrix:
        return EmbeddingMatrix(values=out, row_ids=list(matrix.row_ids))
    return out
