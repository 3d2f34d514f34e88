"""Diagnostics tests: MSE formulas, objectives, truncation loss, scaling."""

import numpy as np
import pytest

from conftest import haar_model
from wclmmse import (
    CovarianceModel,
    DimensionError,
    FilterKind,
    analytic_mse,
    best_l_search,
    det_objective,
    error_covariance,
    filter_power_loss,
    geometric_spectrum,
    lrw,
    nuclear_norm,
    sample_from_model,
    scaling_study,
    svd,
    truncation_power_loss,
    weighted_trace_objective,
    wiener,
)


class TestAnalyticMse:
    def test_zero_filter(self):
        model = haar_model(2, 3, seed=0)
        assert analytic_mse(model, np.zeros((2, 3))) == pytest.approx(np.trace(model.c_x))

    def test_wiener_simplification(self):
        # at the optimum the mse collapses to tr(c_x) - tr(A c_xy')
        model = haar_model(2, 4, seed=1)
        filt = wiener(model)
        expected = np.trace(model.c_x) - np.trace(filt.matrix @ model.c_xy.T)
        assert analytic_mse(model, filt) == pytest.approx(expected, rel=1e-12)

    def test_matches_sampled_mse(self):
        model = haar_model(2, 3, ratio=0.6, seed=2)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 3))
        draws = sample_from_model(model, 200000, seed=4)
        errors = draws[:, 2:] @ a.T - draws[:, :2]
        per_sample = np.einsum("ij,ij->i", errors, errors)
        se = per_sample.std(ddof=1) / np.sqrt(per_sample.shape[0])
        assert abs(analytic_mse(model, a) - per_sample.mean()) <= 3.0 * se

    def test_dimension_mismatch(self):
        model = haar_model(2, 3, seed=5)
        with pytest.raises(DimensionError):
            analytic_mse(model, np.zeros((3, 3)))


class TestWeightedTrace:
    def test_identity_weight_equals_mse(self):
        model = haar_model(2, 4, seed=6)
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 4))
        got = weighted_trace_objective(model, a, np.eye(2))
        assert got == pytest.approx(analytic_mse(model, a), rel=1e-12)

    def test_zero_filter(self):
        model = haar_model(2, 3, seed=8)
        g = np.array([[2.0, 0.0], [1.0, 1.0]])
        expected = np.trace(g.T @ g @ model.c_x)
        assert weighted_trace_objective(model, np.zeros((2, 3)), g) == pytest.approx(expected)

    def test_transform_identity(self):
        # J_wt on the original model equals the plain mse of g @ A on the
        # model with transformed target block
        model = haar_model(2, 3, ratio=0.5, seed=9)
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 3))
        g = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        c_x_t = g @ model.c_x @ g.T
        transformed = CovarianceModel(n=2, m=3, c_x=0.5 * (c_x_t + c_x_t.T),
                                      c_y=model.c_y, c_xy=g @ model.c_xy)
        assert weighted_trace_objective(model, a, g) == pytest.approx(
            analytic_mse(transformed, g @ a), rel=1e-10)


class TestDetObjective:
    def test_zero_cross_zero_filter(self):
        c_x = np.diag([2.0, 3.0])
        model = CovarianceModel(n=2, m=2, c_x=c_x, c_y=np.eye(2), c_xy=np.zeros((2, 2)))
        assert det_objective(model, np.zeros((2, 2))) == pytest.approx(6.0)

    def test_perfect_copy(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3))
        c = a @ a.T + np.eye(3)
        model = CovarianceModel(n=3, m=3, c_x=c, c_y=c, c_xy=c)
        assert det_objective(model, np.eye(3)) == pytest.approx(0.0, abs=1e-10)

    def test_matches_cofactor_expansion(self):
        def det3(m):
            # cofactor expansion along the first row
            if m.shape == (1, 1):
                return m[0, 0]
            if m.shape == (2, 2):
                return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
                    - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
                    + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))

        for n in (1, 2, 3):
            model = haar_model(n, 3, ratio=0.7, seed=20 + n)
            rng = np.random.default_rng(30 + n)
            a = 0.3 * rng.standard_normal((n, 3))
            expected = det3(error_covariance(model, a))
            assert det_objective(model, a) == pytest.approx(expected, rel=1e-9)

    def test_nonnegative_for_constructed_filters(self):
        for seed in range(5):
            model = haar_model(2, 4, ratio=0.6, seed=seed)
            for filt in (wiener(model), lrw(model, 1)):
                assert det_objective(model, filt) >= -1e-10


class TestTruncationPowerLoss:
    def test_full_truncation_is_zero(self):
        assert truncation_power_loss(np.array([3.0, 2.0, 1.0]), 3) == 0.0

    def test_keep_first_one(self):
        assert truncation_power_loss(np.array([3.0, 2.0, 1.0]), 1) == pytest.approx(3.0)

    def test_geometric_tail_closed_form(self):
        ratio, size = 0.5, 30
        spectrum = geometric_spectrum(size, 1.0, ratio)
        for l in (1, 5, 12):
            expected = ratio**l * (1.0 - ratio ** (size - l)) / (1.0 - ratio)
            assert truncation_power_loss(spectrum, l) == pytest.approx(expected, rel=1e-10)

    def test_monotone_and_flavors(self):
        # filter_power_loss picks the spectrum: joint eigenvalues for jpc,
        # whitened singular values, cut at min(l, n), for lrw
        model = haar_model(2, 5, ratio=0.6, seed=12)
        cache = model.spectral
        jpc_losses = [filter_power_loss(model, FilterKind.JPC, l) for l in range(1, 6)]
        assert np.all(np.diff(jpc_losses) <= 0)
        assert all(v >= 0 for v in jpc_losses)
        assert jpc_losses[0] == truncation_power_loss(cache.eig_z.eigenvalues, 1)
        lrw_losses = [filter_power_loss(model, FilterKind.LRW, l) for l in (1, 2, 5)]
        assert lrw_losses[0] >= lrw_losses[1] == lrw_losses[2] == 0.0
        assert lrw_losses[0] == truncation_power_loss(cache.whitened_cross_svd.s, 1)
        assert truncation_power_loss(svd(np.diag([3.0, 1.0])).s, 1) == pytest.approx(1.0)

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            truncation_power_loss(np.array([1.0, 0.5]), 3)
        with pytest.raises(DimensionError):
            truncation_power_loss(np.array([1.0, 0.5]), 0)
        with pytest.raises(DimensionError):
            truncation_power_loss(np.eye(2), 1)


class TestScalingStudy:
    def test_exact_recovery_at_full_level(self):
        # the kind may also be given by its name
        for kind, grid, ratio in ((FilterKind.JPC, range(2, 7), 0.7), ("jpc", [2, 4, 6], 0.6)):
            model = haar_model(2, 6, ratio=ratio, seed=13)
            study = scaling_study(model, kind, grid, "nuclear")
            assert study.kind is FilterKind.JPC
            assert study.l.tolist() == list(grid)
            assert study.dist[-1] <= 1e-8

    def test_ratio_bounded_on_gentle_decay(self):
        model = haar_model(2, 8, ratio=0.5, seed=14)
        study = scaling_study(model, FilterKind.JPC, range(1, 9), "nuclear")
        floor = 1e-10 * max(1.0, nuclear_norm(wiener(model).matrix))
        ratios = study.ratios(converged_floor=floor)
        assert np.isfinite(ratios).all()
        assert ratios[-1] <= 10.0 * ratios[0]

    def test_lrw_flavor_ratio_bounded(self):
        model = haar_model(2, 8, ratio=0.5, seed=14)
        study = scaling_study(model, FilterKind.LRW, range(1, 9), "nuclear")
        floor = 1e-10 * max(1.0, nuclear_norm(wiener(model).matrix))
        ratios = study.ratios(converged_floor=floor)
        assert np.isfinite(ratios).all()
        assert ratios[-1] <= 10.0 * ratios[0]
        # rank saturates at n: the loss hits exactly zero there
        assert study.rho_l[-1] == 0.0

    def test_jpc_distance_non_increasing_on_decaying_spectrum(self):
        # nested prefilter spans: more components never hurt the
        # joint-eigenbasis truncation
        model = haar_model(2, 8, ratio=0.5, seed=15)
        study = scaling_study(model, FilterKind.JPC, range(2, 9), "nuclear")
        assert np.all(np.diff(study.dist) <= 1e-12)
        assert np.all(np.diff(study.mse_gap) <= 1e-12)

    def test_lsjpc_distance_non_increasing_in_y_dominated_regime(self):
        # the least-squares variant is only monotone when the leading
        # eigenbasis is Y-dominated (tiny Gram defect)
        from conftest import tail_mixed_model

        model = tail_mixed_model(2, 8, ratio=0.5, mix=1e-4, seed=16)
        study = scaling_study(model, FilterKind.LSJPC, range(1, 9), "nuclear")
        assert np.all(np.diff(study.dist) <= 1e-12 * max(1.0, study.dist[0]))

    def test_gram_defect_reported(self):
        model = haar_model(2, 6, ratio=0.6, seed=16)
        study = scaling_study(model, FilterKind.JPC, [2, 4], "frobenius")
        cache = model.spectral
        np.testing.assert_allclose(study.gram_defect,
                                   [cache.gram_defect(2), cache.gram_defect(4)])

    def test_norm_choices(self):
        model = haar_model(2, 5, ratio=0.5, seed=17)
        nuc = scaling_study(model, FilterKind.LSJPC, [1, 3], "nuclear")
        fro = scaling_study(model, FilterKind.LSJPC, [1, 3], "frobenius")
        assert nuc.dist[0] >= fro.dist[0]


class TestBestLSearch:
    def test_single_point_grid(self):
        model = haar_model(2, 4, ratio=0.6, seed=18)
        l_best, mse_best = best_l_search(model, FilterKind.JPC, 2, 2)
        assert l_best == 2
        assert mse_best == pytest.approx(analytic_mse(model, __import__("wclmmse").jpc(model, 2)))

    def test_monotone_training_mse_puts_optimum_at_top(self):
        # in exact arithmetic the training mse of the joint-eigenbasis
        # truncation only improves with more components
        model = haar_model(2, 6, ratio=0.8, seed=19)
        l_best, _ = best_l_search(model, FilterKind.JPC, 1, 6)
        assert l_best == 6

    def test_plateau_breaks_toward_smaller_l(self):
        # the rank of the svd truncation saturates at n=2, so every level
        # from 2 up has bit-identical mse: the search must return 2
        model = haar_model(2, 6, ratio=0.6, seed=20)
        l_best, _ = best_l_search(model, FilterKind.LRW, 2, 6)
        assert l_best == 2

    def test_empty_grid(self):
        model = haar_model(2, 4, seed=21)
        with pytest.raises(DimensionError):
            best_l_search(model, FilterKind.JPC, 5, 2)
        with pytest.raises(DimensionError):
            best_l_search(model, FilterKind.JPC, 1, 4, step=0)
