"""Variance-ratio component selection, fitting, and projection."""

import numpy as np
import pytest

from kanreg.errors import (
    DegenerateDataError,
    InsufficientDataError,
    NumericError,
    ParameterError,
    ShapeError,
)
from kanreg.pca import K_FLOOR, fit, select_k, transform, variance_ratio


class TestSelectK:
    def test_single_dominant_eigenvalue_small_d(self):
        # k_var = 1, floor 64 capped at d = 4
        assert select_k([4.0, 0.0, 0.0, 0.0], 0.9) == 4

    def test_equal_spectrum(self):
        assert select_k([1.0] * 100, 0.90) == 90

    def test_floor_engages(self):
        # 30 live directions out of 200: k_var = 30, floored to 64
        spectrum = [1.0] * 30 + [0.0] * 170
        assert select_k(spectrum, 1.0) == 64

    def test_floor_value(self):
        assert K_FLOOR == 64

    def test_all_zero_spectrum(self):
        with pytest.raises(DegenerateDataError):
            select_k([0.0, 0.0, 0.0], 0.95)

    def test_tau_range_checked(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ParameterError):
                select_k([1.0] * 80, bad)

    def test_unsorted_spectrum_rejected(self):
        with pytest.raises(ParameterError):
            select_k([1.0, 3.0, 2.0], 0.9)

    def test_negative_spectrum_rejected(self):
        with pytest.raises(NumericError):
            select_k([1.0, 0.5, -0.2], 0.9)

    def test_tiny_negative_clamped(self):
        # eigensolver roundoff below the clamp threshold is tolerated
        assert select_k([1.0] * 70 + [-1e-10], 1.0) == 70


class TestVarianceRatio:
    def test_monotone_and_complete(self):
        w = np.sort(np.random.default_rng(0).uniform(0.1, 5.0, size=12))[::-1]
        ratios = [variance_ratio(w, k) for k in range(13)]
        assert ratios[0] == 0.0
        assert ratios[-1] == pytest.approx(1.0, abs=1e-15)
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_k_out_of_range(self):
        with pytest.raises(ParameterError):
            variance_ratio([1.0, 0.5], 3)


class TestFit:
    def test_line_in_three_dims(self):
        t = np.linspace(-2.0, 2.0, 25)
        direction = np.array([1.0, 2.0, -1.0])
        x = np.outer(t, direction) + np.array([5.0, -3.0, 0.5])
        model = fit(x, 0.95)
        # rank-1 spectrum: k_var = 1, floor capped at d = 3
        assert model.k == 3
        assert variance_ratio(model.eigenvalues, 1) == pytest.approx(1.0, abs=1e-9)

    def test_isotropic_keeps_many(self):
        x = np.random.default_rng(7).normal(size=(300, 128))
        model = fit(x, 0.95)
        assert model.k >= 64

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 6))
        perm = rng.permutation(30)
        a = fit(x, 0.95)
        b = fit(x[perm], 0.95)
        assert a.k == b.k
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
        np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, atol=1e-9)
        np.testing.assert_allclose(a.components, b.components, atol=1e-7)

    def test_orthonormal_components(self):
        x = np.random.default_rng(13).normal(size=(50, 10))
        model = fit(x, 1.0)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(model.k), atol=1e-8)

    def test_sign_convention(self):
        x = np.random.default_rng(17).normal(size=(40, 8))
        model = fit(x, 1.0)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0.0

    def test_needs_two_rows(self):
        with pytest.raises(InsufficientDataError):
            fit(np.ones((1, 4)), 0.95)

    def test_tau_validated(self):
        with pytest.raises(ParameterError):
            fit(np.random.default_rng(0).normal(size=(10, 4)), 0.0)

    def test_numpy_oracle_small(self):
        """Spectrum and directions agree with an independent eigensolver."""
        x = np.random.default_rng(19).normal(size=(20, 6))
        model = fit(x, 1.0)
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (x.shape[0] - 1)
        w, v = np.linalg.eigh(cov)
        w = w[::-1]
        v = v[:, ::-1]
        np.testing.assert_allclose(model.eigenvalues, w, atol=1e-6)
        for i in range(6):
            # eigenvectors defined up to sign
            np.testing.assert_allclose(
                np.abs(model.components[i]), np.abs(v[:, i]), atol=1e-6)

    def test_wide_data_matches_tall_duplicate(self):
        """The n x n and d x d eigendecomposition routes agree.

        Tiling the rows of a wide matrix flips the fit onto the covariance
        route without moving the mean, the principal directions, or the
        eigenvalue ratios. Both routes keep the live spectrum and fill the
        rest of the k components with the same completion, so every
        component and the whole projection match, in either row order.
        """
        rng = np.random.default_rng(23)
        x = rng.normal(size=(10, 30))
        wide = fit(x, 0.95)                      # 10 < 30: Gram route
        tiled = np.tile(x, (4, 1))               # 40 > 30: covariance route
        for tall in (fit(tiled, 0.95), fit(tiled[::-1], 0.95)):
            assert wide.k == tall.k == 30
            np.testing.assert_allclose(wide.components, tall.components, rtol=0, atol=1e-12)
            np.testing.assert_allclose(transform(wide, x), transform(tall, x),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5)], ids=["covariance", "gram"])
    def test_identical_rows_rejected(self, shape):
        with pytest.raises(DegenerateDataError):
            fit(np.full(shape, 2.5), 0.95)

    def test_low_rank_high_dim_floor(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 2048))
        model = fit(x, 0.95)
        assert model.k == 64
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(64), atol=1e-8)


class TestCovarianceRoute:
    """The d x d product of ``fit`` (n >= d), checked on small exact cases."""

    def test_definition_oracle(self):
        # covariance of [[0, 0], [2, 2]] is [[2, 2], [2, 2]]: spectrum (4, 0)
        model = fit([[0.0, 0.0], [2.0, 2.0]], 1.0)
        np.testing.assert_allclose(model.eigenvalues, [4.0, 0.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(model.components[0], [0.5 ** 0.5, 0.5 ** 0.5],
                                   rtol=0, atol=1e-15)

    def test_row_permutation_invariance(self):
        rows = np.random.default_rng(0).normal(size=(8, 3))
        a = fit(rows, 1.0)
        b = fit(rows[::-1], 1.0)
        np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.components, b.components, rtol=0, atol=1e-12)

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit([[1.0, 2.0]], 0.95)


class TestTransform:
    def test_mean_row_maps_to_zero(self):
        x = np.random.default_rng(31).normal(size=(25, 7))
        model = fit(x, 1.0)
        out = transform(model, model.mean.reshape(1, -1))
        np.testing.assert_allclose(out, np.zeros((1, model.k)), atol=1e-12)

    def test_full_rank_isometry(self):
        x = np.random.default_rng(37).normal(size=(50, 6))
        model = fit(x, 1.0)
        assert model.k == 6
        centered = x - model.mean
        projected = transform(model, x)
        np.testing.assert_allclose(np.linalg.norm(projected, axis=1),
                                   np.linalg.norm(centered, axis=1), atol=1e-8)

    def test_full_rank_reconstruction(self):
        x = np.random.default_rng(41).normal(size=(50, 6))
        model = fit(x, 1.0)
        rebuilt = transform(model, x) @ model.components + model.mean
        np.testing.assert_allclose(rebuilt, x, atol=1e-7)

    def test_training_columns_centered(self):
        x = np.random.default_rng(43).normal(size=(60, 9)) + 5.0
        model = fit(x, 0.95)
        cols = transform(model, x).mean(axis=0)
        np.testing.assert_allclose(cols, np.zeros(model.k), atol=1e-8)

    def test_dim_mismatch(self):
        model = fit(np.random.default_rng(47).normal(size=(10, 4)), 0.95)
        with pytest.raises(ShapeError):
            transform(model, np.ones((3, 5)))

    def test_output_shape(self):
        x = np.random.default_rng(53).normal(size=(20, 12))
        model = fit(x, 0.95)
        assert transform(model, x).shape == (20, model.k)
