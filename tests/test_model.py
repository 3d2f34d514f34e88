"""Covariance model, empirical estimation, and synthetic generator tests."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ar1_series
from wclmmse import (
    CovarianceModel,
    DimensionError,
    InsufficientDataError,
    InvalidSpectrumError,
    ModelError,
    NumericInputError,
    WclmmseError,
    condition_number,
    estimate_covariance,
    geometric_spectrum,
    sample_from_model,
    series_covariance,
    sym_eig,
    synthetic_model,
    window_samples,
)
from wclmmse.dataio import _split, _split_series


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

    def test_from_joint_rejects_cross_blocks_that_disagree(self):
        # the model keeps the upper cross block, so a lower one that is not
        # its transpose would be dropped in silence
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        c_z = a @ a.T + 6.0 * np.eye(6)
        c_z[3:, :3] += 0.5
        assert np.all(np.linalg.eigvalsh(0.5 * (c_z + c_z.T)) > 0.0)
        with pytest.raises(ModelError, match="cross blocks"):
            CovarianceModel.from_joint(c_z, 3)
        c_z[3:, :3] = c_z[:3, 3:].T * (1.0 + 1e-12)
        assert np.array_equal(CovarianceModel.from_joint(c_z, 3).c_xy, c_z[:3, 3:])

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


_EPS = np.finfo(np.float64).eps


def _training_windows(series, m, n, seed):
    """The training windows of ``window_samples(series, m, n, seed)``,
    gathered uncentered in ``np.longdouble``."""
    values, test_rows = _split(series, m, n, seed)
    k = values.shape[0] - (m + n)
    mask = np.ones(k, dtype=bool)
    mask[test_rows] = False
    cols = np.concatenate([np.arange(m, m + n), np.arange(m)])
    windows = np.lib.stride_tricks.sliding_window_view(values.astype(np.longdouble), m + n)
    return windows[np.flatnonzero(mask)[:, None], cols]


class TestSeriesCovariance:
    @pytest.mark.parametrize("seed", range(4))
    def test_as_accurate_as_the_gathered_windows(self, seed):
        # AR(1) series with a level of 20, as VIX has, against the training
        # Gram and mean summed in extended precision from the gathered
        # windows
        series = ar1_series(800, phi=0.95, level=20.0, seed=seed)
        for m in (100, 250, 400):
            n = 7
            exact = _training_windows(series, m, n, seed)
            exact_mean = exact.mean()
            exact -= exact_mean
            exact_gram = exact.T @ exact / (exact.shape[0] - 1)
            scale = float(np.abs(exact_gram).max())
            train, _, gathered_mean = window_samples(series, m, n, seed)
            gathered = estimate_covariance(train, n)
            centered, test, mean = _split_series(series, m, n, seed)
            shifted = series_covariance(centered, test, n)
            gathered_error = float(np.abs(gathered.c_z - exact_gram).max()) / scale
            shifted_error = float(np.abs(shifted.c_z - exact_gram).max()) / scale
            assert shifted_error <= 2.5 * gathered_error, (m, shifted_error, gathered_error)
            mean_bound = (float(abs(gathered_mean - exact_mean))
                          + 4 * _EPS * float(np.abs(series).mean()))
            assert float(abs(mean - exact_mean)) <= mean_bound

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(length=st.integers(12, 400), m=st.integers(1, 150), n=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1), level=st.floats(-1e3, 1e3),
           phi=st.floats(0.0, 0.99))
    def test_equals_the_gathered_windows(self, length, m, n, seed, level, phi):
        # the model's blocks, the test windows and the mean against
        # estimate_covariance(window_samples(...)):
        # every block entry within 1e-12 of the joint's largest entry, the
        # mean within 16 eps of the series' largest |value|, and each test
        # entry within the means' difference and the rounding of an entry
        series = ar1_series(length, phi=phi, level=level, seed=seed % 1000)
        try:
            train, test, mean = window_samples(series, m, n, seed)
        except WclmmseError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                _split_series(series, m, n, seed)
            return
        gathered = estimate_covariance(train, n)
        centered, shifted_test, shifted_mean = _split_series(series, m, n, seed)
        shifted = series_covariance(centered, shifted_test, n)
        top = float(np.abs(series).max())
        assert abs(shifted_mean - mean) <= 16 * _EPS * top
        np.testing.assert_allclose(shifted_test, test, rtol=0.0,
                                   atol=abs(shifted_mean - mean) + 2 * _EPS * top)
        scale = float(np.abs(gathered.c_z).max())
        for name in ("c_x", "c_y", "c_xy"):
            np.testing.assert_allclose(getattr(shifted, name), getattr(gathered, name),
                                       rtol=0.0, atol=1e-12 * scale, err_msg=name)

    @pytest.mark.parametrize("series, m, n", [
        (np.arange(40.0).reshape(2, 20), 4, 2),
        (np.arange(40.0), 0, 2),
        (np.arange(40.0), 4, 0),
        (np.arange(40.0), 4.5, 2),
        (np.arange(40.0), 4, 2.0),
        (np.where(np.arange(40) == 17, np.nan, 1.0), 4, 2),
        (np.arange(6.0), 4, 2),
        (np.arange(8.0), 3, 1),
    ])
    def test_refuses_what_window_samples_refuses(self, series, m, n):
        with pytest.raises(WclmmseError) as refused:
            window_samples(series, m, n, 0)
        with pytest.raises(type(refused.value), match=re.escape(str(refused.value))):
            _split_series(series, m, n, 0)

    def test_blocks_are_exactly_symmetric_and_contiguous(self):
        centered, test, _ = _split_series(ar1_series(900, seed=2), 300, 5, 3)
        model = series_covariance(centered, test, 5)
        assert np.array_equal(model.c_y, model.c_y.T) and np.array_equal(model.c_x, model.c_x.T)
        assert all(getattr(model, b).flags.c_contiguous for b in ("c_x", "c_y", "c_xy"))

    def test_errors(self):
        centered, test, _ = _split_series(ar1_series(40, seed=1), 4, 2, 0)
        with pytest.raises(DimensionError):
            series_covariance(centered[None, :], test, 2)
        with pytest.raises(DimensionError):
            series_covariance(centered, test, 6)
        with pytest.raises(InsufficientDataError):
            series_covariance(centered[:8], test, 2)
        centered[3] = np.inf
        with pytest.raises(NumericInputError):
            series_covariance(centered, test, 2)


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
