import numpy as np
import pytest

from toxtraj.reduce import (
    ReducerModel,
    fit_on_sample,
    transform,
)


def rank2_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(2, 6))
    coeffs = rng.normal(size=(n, 2))
    return coeffs @ basis + rng.normal(size=6)


class TestFitOnSample:
    def test_full_fraction_rank2_reconstruction(self):
        data = rank2_data()
        model = fit_on_sample(data, fraction=1.0, output_dim=2, seed=0)
        projected = transform(model, data)
        reconstructed = projected @ model.components + model.mean
        assert np.max(np.abs(reconstructed - data)) < 1e-8

    def test_sample_size_floor(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(10000, 4))
        model = fit_on_sample(data, fraction=0.1, output_dim=3, seed=5)
        assert model.sample_rows.size == 1000

    def test_sample_minimum_is_output_dim_plus_one(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(50, 6))
        model = fit_on_sample(data, fraction=0.01, output_dim=4, seed=0)
        assert model.sample_rows.size == 5

    def test_sample_too_small_errors(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(4, 6))
        with pytest.raises(ValueError):
            fit_on_sample(data, fraction=1.0, output_dim=5, seed=0)

    def test_planted_subspace_recovered(self):
        # 5-D linear subspace + tiny noise inside 50-D: principal angles
        # between fitted components and the planted basis stay below 1e-3.
        rng = np.random.default_rng(4)
        basis, _ = np.linalg.qr(rng.normal(size=(50, 5)))
        coeffs = rng.normal(scale=3.0, size=(2000, 5))
        data = coeffs @ basis.T + 1e-6 * rng.normal(size=(2000, 50))
        model = fit_on_sample(data, fraction=1.0, output_dim=5, seed=0)
        # Principal angles via singular values of cross-projection.
        sv = np.linalg.svd(model.components @ basis, compute_uv=False)
        angles = np.arccos(np.clip(sv, -1, 1))
        assert np.max(angles) < 1e-3

    def test_components_orthonormal(self):
        data = np.random.default_rng(5).normal(size=(300, 8))
        model = fit_on_sample(data, fraction=0.5, output_dim=4, seed=1)
        np.testing.assert_allclose(
            model.components @ model.components.T, np.eye(4), atol=1e-10
        )

    def test_deterministic_and_sign_canonical(self):
        data = np.random.default_rng(6).normal(size=(400, 7))
        m1 = fit_on_sample(data, fraction=0.3, output_dim=3, seed=9)
        m2 = fit_on_sample(data, fraction=0.3, output_dim=3, seed=9)
        np.testing.assert_array_equal(m1.components, m2.components)
        np.testing.assert_array_equal(m1.mean, m2.mean)
        for row in m1.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_variance_ordering(self):
        data = np.random.default_rng(7).normal(size=(500, 6)) * np.array([5, 3, 2, 1, 0.5, 0.1])
        model = fit_on_sample(data, fraction=1.0, output_dim=6, seed=0)
        projected = transform(model, data)
        variances = projected.var(axis=0)
        assert np.all(np.diff(variances) <= 1e-9)

    def test_tall_and_wide_paths_agree(self):
        # More features than samples triggers the SVD route; subspaces match.
        rng = np.random.default_rng(8)
        data = rng.normal(size=(30, 80))
        model = fit_on_sample(data, fraction=1.0, output_dim=3, seed=0)
        cov = np.cov(data - data.mean(axis=0), rowvar=False)
        eigvals, eigvecs = np.linalg.eigh(cov)
        top = eigvecs[:, np.argsort(eigvals)[::-1][:3]].T
        sv = np.linalg.svd(model.components @ top.T, compute_uv=False)
        assert np.min(sv) > 1 - 1e-8


class TestTransform:
    def test_mean_row_maps_to_zero(self):
        data = rank2_data(seed=10)
        model = fit_on_sample(data, fraction=1.0, output_dim=2, seed=0)
        out = transform(model, data.mean(axis=0))
        assert np.max(np.abs(out)) < 1e-9

    def test_fitting_sample_centered(self):
        data = np.random.default_rng(11).normal(size=(250, 5))
        model = fit_on_sample(data, fraction=1.0, output_dim=3, seed=0)
        projected = transform(model, data)
        assert np.max(np.abs(projected.mean(axis=0))) < 1e-9

    def test_projection_contracts_distances(self):
        rng = np.random.default_rng(12)
        data = rng.normal(size=(300, 10))
        model = fit_on_sample(data, fraction=0.5, output_dim=4, seed=2)
        xs = rng.normal(size=(1000, 10))
        ys = rng.normal(size=(1000, 10))
        px = transform(model, xs)
        py = transform(model, ys)
        d_in = np.linalg.norm(xs - ys, axis=1)
        d_out = np.linalg.norm(px - py, axis=1)
        assert np.all(d_out <= d_in + 1e-9)

    def test_dimension_mismatch(self):
        data = np.random.default_rng(13).normal(size=(100, 6))
        model = fit_on_sample(data, fraction=1.0, output_dim=2, seed=0)
        with pytest.raises(ValueError, match="columns"):
            transform(model, np.zeros((5, 4)))

    def test_embedding_matrix_round_trip(self):
        values = np.random.default_rng(15).normal(size=(40, 6))
        model = fit_on_sample(values, fraction=1.0, output_dim=2, seed=3)
        out = transform(model, values)
        assert isinstance(out, np.ndarray)
        assert out.shape == (40, 2)
        np.testing.assert_array_equal(out, (values - model.mean) @ model.components.T)


class TestModelSerialization:
    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            ReducerModel(mean=np.zeros(3), components=np.array([[1.0, 0, 0], [1.0, 0, 0]]))
