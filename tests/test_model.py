"""Covariance model, empirical estimation, and synthetic generator tests."""

import numpy as np
import pytest

from wclmmse import (
    CovarianceModel,
    DimensionError,
    InsufficientDataError,
    InvalidSpectrumError,
    ModelError,
    NumericInputError,
    condition_number,
    estimate_covariance,
    geometric_spectrum,
    sample_from_model,
    sym_eig,
    synthetic_model,
)


class TestCovarianceModel:
    def test_joint_assembly_round_trip(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        c_z = a @ a.T
        model = CovarianceModel.from_joint(c_z, 2)
        assert model.n == 2 and model.m == 3
        assert np.array_equal(model.c_z, c_z)
        again = CovarianceModel.from_joint(model.c_z, 2)
        for name in ("c_x", "c_y", "c_xy"):
            assert np.array_equal(getattr(again, name), getattr(model, name))

    def test_top_block_is_x(self):
        c_z = np.arange(16.0).reshape(4, 4)
        c_z = 0.5 * (c_z + c_z.T)
        model = CovarianceModel.from_joint(c_z, 1)
        assert model.c_x.shape == (1, 1) and model.c_x[0, 0] == c_z[0, 0]
        assert model.c_xy.shape == (1, 3)
        np.testing.assert_array_equal(model.c_xy[0], c_z[0, 1:])

    def test_holds_only_its_three_blocks(self):
        model = CovarianceModel.from_joint(np.eye(5), 2)
        arrays = {name for name, value in vars(model).items() if isinstance(value, np.ndarray)}
        assert arrays == {"c_x", "c_y", "c_xy"}
        assert all(getattr(model, name).flags.c_contiguous for name in arrays)

    @pytest.mark.parametrize("c_z, n", [(np.ones(4), 2), (np.ones((3, 4)), 1),
                                        (np.eye(3), 4), (np.eye(3), -1)])
    def test_from_joint_rejects_a_non_square_joint_or_a_bad_n(self, c_z, n):
        with pytest.raises(DimensionError):
            CovarianceModel.from_joint(c_z, n)

    def test_joint_eigendecomposition_is_that_of_c_z(self):
        rng = np.random.default_rng(6)
        model = estimate_covariance(rng.standard_normal((40, 9)), n=2)
        eig, direct = model.spectral.eig_z, sym_eig(model.c_z)
        assert np.array_equal(eig.eigenvalues, direct.eigenvalues)
        assert np.array_equal(eig.eigenvectors, direct.eigenvectors)

    def test_rejects_asymmetric_block(self):
        with pytest.raises(ModelError):
            CovarianceModel(c_x=np.eye(1), c_y=np.array([[1.0, 0.5], [0.0, 1.0]]),
                            c_xy=np.zeros((1, 2)))

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            CovarianceModel(c_x=np.eye(3), c_y=np.eye(2), c_xy=np.zeros((2, 2)))

    def test_sizes_come_from_the_blocks(self):
        model = CovarianceModel(np.eye(2), np.eye(3), np.zeros((2, 3)))
        assert (model.n, model.m, model.dim) == (2, 3, 5)
        with pytest.raises(DimensionError, match="c_y"):
            CovarianceModel(np.eye(2), np.ones((3, 2)), np.zeros((2, 3)))
        with pytest.raises(TypeError):
            CovarianceModel(n=2, m=3, c_x=np.eye(2), c_y=np.eye(3), c_xy=np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_cross_covariance(self, bad):
        c_xy = np.zeros((1, 2))
        c_xy[0, 1] = bad
        with pytest.raises(NumericInputError, match="c_xy"):
            CovarianceModel(c_x=np.eye(1), c_y=np.eye(2), c_xy=c_xy)


class TestEstimateCovariance:
    def test_two_scalar_samples(self):
        model = estimate_covariance([[1.0], [-1.0]], n=1)
        np.testing.assert_allclose(model.c_z, [[2.0]])

    def test_all_zero(self):
        model = estimate_covariance(np.zeros((4, 3)), n=1)
        np.testing.assert_array_equal(model.c_z, np.zeros((3, 3)))

    def test_monte_carlo_against_truth(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 4))
        truth = a @ a.T + np.eye(4)
        root = np.linalg.cholesky(truth)
        k = 1000
        z = rng.standard_normal((k, 4)) @ root.T
        z = z - z.mean(axis=0)
        model = estimate_covariance(z, n=2)
        # std error of a covariance entry ~ sqrt((c_ii c_jj + c_ij^2) / k)
        d = np.diag(truth)
        se = np.sqrt((np.outer(d, d) + truth**2) / k)
        assert np.all(np.abs(model.c_z - truth) <= 5.0 * se)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((50, 6))
        model = estimate_covariance(z, n=2)
        assert np.array_equal(model.c_z, model.c_z.T)

    def test_block_round_trip_bit_exact(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((30, 5))
        model = estimate_covariance(z, n=2)
        c_z = z.T @ z / 29
        assert np.array_equal(model.c_z, 0.5 * (c_z + c_z.T))

    def test_estimated_joint_is_psd(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((6, 12))  # fewer samples than dimensions
        model = estimate_covariance(z, n=3)
        vals = np.linalg.eigvalsh(model.c_z)
        assert vals[0] >= -1e-10 * max(vals[-1], 0.0)

    def test_errors(self):
        with pytest.raises(InsufficientDataError):
            estimate_covariance([[1.0, 2.0]], n=1)
        with pytest.raises(DimensionError):
            estimate_covariance(np.zeros(5), n=1)


class TestSyntheticModel:
    def test_isotropic_spectrum_gives_identity(self):
        model = synthetic_model(2, np.ones(6), seed=0)
        np.testing.assert_allclose(model.c_z, np.eye(6), atol=1e-12)
        np.testing.assert_allclose(model.c_xy, 0.0, atol=1e-12)

    def test_deterministic_per_seed(self):
        spec = geometric_spectrum(6, 1.0, 0.5)
        one = synthetic_model(2, spec, seed=9)
        two = synthetic_model(2, spec, seed=9)
        assert np.array_equal(one.c_z, two.c_z)
        other = synthetic_model(2, spec, seed=10)
        assert not np.array_equal(one.c_z, other.c_z)

    def test_condition_grows_with_decay(self):
        sharp = synthetic_model(2, geometric_spectrum(6, 1.0, 0.1), seed=1)
        gentle = synthetic_model(2, geometric_spectrum(6, 1.0, 0.9), seed=1)
        assert condition_number(sharp.c_y) > condition_number(gentle.c_y)

    def test_spectrum_recovered(self):
        spec = geometric_spectrum(8, 2.0, 0.6)
        model = synthetic_model(3, spec, seed=2)
        eig = sym_eig(model.c_z)
        np.testing.assert_allclose(eig.eigenvalues, np.sort(spec)[::-1], rtol=1e-10)

    def test_invalid_spectrum(self):
        with pytest.raises(InvalidSpectrumError):
            synthetic_model(1, [1.0, 0.0, 0.5], seed=0)
        with pytest.raises(InvalidSpectrumError):
            geometric_spectrum(4, scale=-1.0)
        with pytest.raises(DimensionError):
            synthetic_model(2, [1.0, 0.5], seed=0)
        with pytest.raises(DimensionError):
            synthetic_model(1, np.ones((2, 2)), seed=0)

    def test_size_comes_from_the_spectrum(self):
        model = synthetic_model(2, geometric_spectrum(7, 1.0, 0.5), seed=3)
        assert (model.n, model.m) == (2, 5)
        with pytest.raises(TypeError):
            synthetic_model(2, 5, geometric_spectrum(7, 1.0, 0.5), seed=3)


class TestSampleFromModel:
    def test_empty_draw(self):
        model = synthetic_model(1, np.ones(3), seed=0)
        out = sample_from_model(model, 0, seed=0)
        assert out.shape == (0, 3)

    def test_identity_covariance_recovered(self):
        model = CovarianceModel.from_joint(np.eye(4), 2)
        out = sample_from_model(model, 20000, seed=5)
        k = out.shape[0]
        cov = out.T @ out / k
        assert np.abs(cov - np.eye(4)).max() < 5.0 * np.sqrt(2.0 / k)

    def test_deterministic(self):
        model = synthetic_model(2, geometric_spectrum(5, 1.0, 0.5), seed=1)
        one = sample_from_model(model, 10, seed=3)
        two = sample_from_model(model, 10, seed=3)
        assert np.array_equal(one, two)

    def test_non_psd_rejected(self):
        c_z = np.diag([1.0, 1.0, -0.5])
        model = CovarianceModel.from_joint(c_z, 1)
        with pytest.raises(ModelError):
            sample_from_model(model, 5, seed=0)

    def test_general_covariance_recovered(self):
        model = synthetic_model(2, [4.0, 2.0, 1.0, 0.5], seed=8)
        out = sample_from_model(model, 50000, seed=9)
        k = out.shape[0]
        cov = out.T @ out / k
        scale = np.sqrt(np.outer(np.diag(model.c_z), np.diag(model.c_z)))
        assert np.abs(cov - model.c_z).max() < 5.0 * np.sqrt(2.0 / k) * scale.max()
