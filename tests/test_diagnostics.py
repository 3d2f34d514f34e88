"""Diagnostics tests: MSE formulas, objectives, truncation loss, scaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ar1_series,
    assert_near_the_lsjpc_oracle,
    direct_joint_build,
    haar_model,
    jpc_bounds,
)
from wclmmse import (
    CovarianceModel,
    DimensionError,
    FilterKind,
    RankError,
    SingularMatrixError,
    analytic_mse,
    best_l_search,
    det_objective,
    error_covariance,
    estimate_covariance,
    filter_power_loss,
    geometric_spectrum,
    inv_sqrt_spd,
    lrw,
    nuclear_norm,
    sample_from_model,
    scaling_study,
    truncation_power_loss,
    weighted_trace_objective,
    wiener,
    window_samples,
)
from wclmmse.diagnostics import _search_grid
from wclmmse.filters import FILTER_CONSTRUCTORS


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


class TestStackedAnalyticMse:
    def test_one_value_per_filter_as_each_scored_alone(self):
        model = haar_model(3, 12, ratio=0.8, seed=6)
        rng = np.random.default_rng(7)
        filters = [lrw(model, 2), wiener(model)] + [rng.standard_normal((3, 12))
                                                     for _ in range(18)]
        got = analytic_mse(model, filters)
        assert isinstance(got, list) and len(got) == 20
        for filt, value in zip(filters, got):
            assert isinstance(value, float)
            assert value == pytest.approx(analytic_mse(model, filt), rel=1e-12, abs=0.0)

    def test_one_filter_in_a_sequence_is_the_single_call(self):
        model = haar_model(3, 12, ratio=0.8, seed=6)
        filt = lrw(model, 2)
        assert analytic_mse(model, [filt]) == [analytic_mse(model, filt)]
        assert analytic_mse(model, (filt.matrix,)) == [analytic_mse(model, filt.matrix)]

    def test_nested_list_is_one_filter(self):
        model = haar_model(3, 12, ratio=0.8, seed=6)
        a = np.random.default_rng(8).standard_normal((3, 12))
        got = analytic_mse(model, a.tolist())
        assert isinstance(got, float) and got == analytic_mse(model, a)

    def test_empty_sequence_rejected(self):
        with pytest.raises(DimensionError, match="no filters"):
            analytic_mse(haar_model(2, 3, seed=0), [])

    def test_mixed_shapes_rejected(self):
        model = haar_model(2, 3, seed=0)
        with pytest.raises(DimensionError, match="mixed shapes"):
            analytic_mse(model, [np.zeros((2, 3)), np.zeros((3, 3))])
        with pytest.raises(DimensionError, match="expected"):
            analytic_mse(model, [np.zeros((3, 3)), np.zeros((3, 3))])


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
        transformed = CovarianceModel(c_x=0.5 * (c_x_t + c_x_t.T),
                                      c_y=model.c_y, c_xy=g @ model.c_xy)
        assert weighted_trace_objective(model, a, g) == pytest.approx(
            analytic_mse(transformed, g @ a), rel=1e-10)


class TestDetObjective:
    def test_zero_cross_zero_filter(self):
        c_x = np.diag([2.0, 3.0])
        model = CovarianceModel(c_x=c_x, c_y=np.eye(2), c_xy=np.zeros((2, 2)))
        assert det_objective(model, np.zeros((2, 2))) == pytest.approx(6.0)

    def test_perfect_copy(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3))
        c = a @ a.T + np.eye(3)
        model = CovarianceModel(c_x=c, c_y=c, c_xy=c)
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
        # singular values of the whitened cross-covariance c_xy c_y^-1/2,
        # cut at min(l, n), for lrw
        model = haar_model(2, 5, ratio=0.6, seed=12)
        cache = model.spectral
        jpc_losses = [filter_power_loss(model, FilterKind.JPC, l) for l in range(1, 6)]
        assert np.all(np.diff(jpc_losses) <= 0)
        assert all(v >= 0 for v in jpc_losses)
        assert jpc_losses[0] == truncation_power_loss(cache.eig_z.eigenvalues, 1)
        lrw_losses = [filter_power_loss(model, FilterKind.LRW, l) for l in (1, 2, 5)]
        assert lrw_losses[0] >= lrw_losses[1] == lrw_losses[2] == 0.0
        whitened = np.linalg.svd(model.c_xy @ inv_sqrt_spd(model.c_y), compute_uv=False)
        assert lrw_losses[0] == pytest.approx(truncation_power_loss(whitened, 1), rel=1e-10)
        # the kind may also be given by its name
        assert filter_power_loss(model, "lrw", 1) == lrw_losses[0]

    def test_csw_loses_the_directions_it_discards(self):
        # the whitened cross-covariance's column norms over the c_y
        # eigendirections csw does not keep: positive until it keeps all m
        model = haar_model(2, 40, ratio=0.9, seed=0)
        losses = [filter_power_loss(model, FilterKind.CSW, l) for l in range(1, 41)]
        assert all(v > 0.0 for v in losses[:-1])
        assert np.all(np.diff(losses) <= 0.0)
        assert losses[-1] == 0.0

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            truncation_power_loss(np.array([1.0, 0.5]), 3)
        with pytest.raises(DimensionError):
            truncation_power_loss(np.array([1.0, 0.5]), 0)
        with pytest.raises(DimensionError):
            truncation_power_loss(np.eye(2), 1)


class TestScalingStudy:
    @pytest.mark.parametrize("grid", [[4, 2], [2, 2]])
    def test_grid_not_increasing_is_refused_before_any_build(self, monkeypatch, grid):
        builds = _counting_builds(monkeypatch, FilterKind.JPC)
        with pytest.raises(DimensionError, match="strictly increasing"):
            scaling_study(haar_model(2, 6, seed=13), FilterKind.JPC, grid)
        assert builds == []

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


def _exhaustive_search(model, kind):
    """Reference for best_l_search: build and score every grid level in
    order; a strictly smaller MSE wins, so ties keep the smaller level."""
    grid = _search_grid(model)
    best_l, best_mse = grid[0], np.inf
    for l in grid:
        try:
            mse = analytic_mse(model, FILTER_CONSTRUCTORS[kind](model, l))
        except (SingularMatrixError, RankError):
            continue
        if mse < best_mse:
            best_l, best_mse = l, mse
    return best_l, float(best_mse)


def _series_model(length, phi, seed, m, n):
    """Covariance estimated from the training windows of an AR(1) series."""
    train, _, _ = window_samples(ar1_series(length, phi=phi, seed=seed), m, n, seed)
    return estimate_covariance(train, n)


def _counting_builds(monkeypatch, kind):
    builds = []
    constructor = FILTER_CONSTRUCTORS[kind]

    def counting(model, l):
        builds.append(l)
        return constructor(model, l)

    monkeypatch.setitem(FILTER_CONSTRUCTORS, kind, counting)
    return builds


_SEARCH_MODELS = {
    # estimated AR(1): the training MSE keeps falling with l
    "ar1_n7_m200": lambda: _series_model(1500, 0.95, 0, 200, 7),
    # direct builds are float64 noise near the rank edge, so jpc's lower
    # bound orders several levels within 1e-8 tr(c_x) of the best one
    "synthetic_0.9_m400": lambda: haar_model(7, 400, ratio=0.9, seed=0),
    # 38 training windows for d=252: rank-deficient training covariance
    "rank_deficient_m250": lambda: _series_model(300, 0.8, 0, 250, 2),
    # 34 training windows for d=57; from l=38 the rank margin of Y_l is
    # below eps / 1e-8, and lsjpc's direct builds there score as noise
    # down to -4.7e-7 against tr(c_x) = 2.5
    "rank_edge_m55": lambda: _series_model(100, 0.8, 0, 55, 2),
}


class TestBestLSearch:
    def test_grid_runs_from_n_to_m_in_sixteenths(self):
        # min(max(1, n), m) to m in steps of max(1, m // 16)
        assert list(_search_grid(haar_model(7, 400, seed=0))) == [
            7, 32, 57, 82, 107, 132, 157, 182, 207, 232, 257, 282, 307, 332, 357, 382]
        assert list(_search_grid(haar_model(2, 4, seed=0))) == [2, 3, 4]
        assert list(_search_grid(haar_model(4, 3, seed=0))) == [3]

    def test_single_point_grid(self):
        # n > m: the grid is the one level m
        model = haar_model(4, 3, ratio=0.6, seed=18)
        l_best, mse_best, filt = best_l_search(model, FilterKind.JPC)
        assert l_best == 3
        assert mse_best == pytest.approx(analytic_mse(model, __import__("wclmmse").jpc(model, 3)))
        assert filt.kind is FilterKind.JPC and filt.l == 3

    def test_monotone_training_mse_puts_optimum_at_top(self):
        # in exact arithmetic the training mse of the joint-eigenbasis
        # truncation only improves with more components
        model = haar_model(2, 6, ratio=0.8, seed=19)
        l_best, _, _ = best_l_search(model, FilterKind.JPC)
        assert l_best == 6

    def test_plateau_breaks_toward_smaller_l(self):
        # the rank of the svd truncation saturates at n=2, so every level
        # from 2 up has bit-identical mse: the search must return 2
        model = haar_model(2, 6, ratio=0.6, seed=20)
        l_best, _, _ = best_l_search(model, FilterKind.LRW)
        assert l_best == 2

    @pytest.mark.parametrize("kind", [FilterKind.WIENER, FilterKind.WIENER_STRUCTURED,
                                      FilterKind.WEIGHTED])
    def test_refuses_kinds_without_a_level_to_search(self, monkeypatch, kind):
        # wiener has no level; the other two are not in FILTER_CONSTRUCTORS
        model = haar_model(2, 8, seed=21)
        builds = _counting_builds(monkeypatch, FilterKind.WIENER)
        with pytest.raises(ValueError, match="undefined"):
            best_l_search(model, kind)
        assert builds == []

    # The search returns what building every level does.

    @pytest.mark.parametrize("kind", [FilterKind.JPC, FilterKind.LSJPC])
    @pytest.mark.parametrize("name", sorted(_SEARCH_MODELS))
    def test_matches_exhaustive_search(self, name, kind):
        model = _SEARCH_MODELS[name]()
        assert best_l_search(model, kind)[:2] == _exhaustive_search(model, kind)

    def test_ill_conditioned_model_needs_several_builds(self, monkeypatch):
        model = _SEARCH_MODELS["synthetic_0.9_m400"]()
        builds = _counting_builds(monkeypatch, FilterKind.JPC)
        best_l_search(model, FilterKind.JPC)
        assert 1 < len(builds) < len(_search_grid(model))

    @pytest.mark.parametrize("kind", [FilterKind.JPC])
    def test_well_conditioned_search_builds_one_level(self, monkeypatch, kind):
        # the exhaustive search builds all 17 grid levels; jpc's lower bound
        # rules out every level but the one it picks
        model = _SEARCH_MODELS["ar1_n7_m200"]()
        builds = _counting_builds(monkeypatch, kind)
        l_best, _, _ = best_l_search(model, kind)
        assert builds == [l_best]

    def test_lsjpc_search_builds_each_grid_level_once(self, monkeypatch):
        # lsjpc has no bound to order by: its search is the exhaustive one
        model = _SEARCH_MODELS["ar1_n7_m200"]()
        builds = _counting_builds(monkeypatch, FilterKind.LSJPC)
        found = best_l_search(model, FilterKind.LSJPC)
        assert builds == list(_search_grid(model))
        assert found[:2] == _exhaustive_search(model, FilterKind.LSJPC)

    @pytest.mark.parametrize("kind", [FilterKind.JPC, FilterKind.LSJPC, FilterKind.LRW])
    def test_returns_the_build_it_scored(self, kind):
        model = _SEARCH_MODELS["ar1_n7_m200"]()
        l_best, mse_best, filt = best_l_search(model, kind)
        direct = FILTER_CONSTRUCTORS[kind](model, l_best)
        assert filt.kind is kind and filt.l == l_best
        assert np.array_equal(filt.matrix, direct.matrix)
        assert analytic_mse(model, filt) == mse_best

    def test_no_buildable_level_returns_no_filter(self):
        # c_y is singular in float64, so lrw cannot whiten at any level
        model = haar_model(2, 8, ratio=0.02, seed=3)
        assert best_l_search(model, FilterKind.LRW) == (2, np.inf, None)

    def test_search_without_profile_builds_every_level(self, monkeypatch):
        # csw has no profile, and each level keeps one more direction
        model = _SEARCH_MODELS["ar1_n7_m200"]()
        builds = _counting_builds(monkeypatch, FilterKind.CSW)
        best_l_search(model, FilterKind.CSW)
        assert builds == list(_search_grid(model))

    def test_lrw_search_builds_each_truncation_once(self, monkeypatch):
        # lrw keeps min(l, n) = 7 triplets at every level of the grid 7, 19,
        # ..., 199, so the other levels would build level 7's filter again;
        # the exhaustive loop builds all 17
        model = _SEARCH_MODELS["ar1_n7_m200"]()
        builds = _counting_builds(monkeypatch, FilterKind.LRW)
        found = best_l_search(model, FilterKind.LRW)
        assert builds == [7]
        assert found[:2] == _exhaustive_search(model, FilterKind.LRW)

    @pytest.mark.parametrize("kind", [FilterKind.JPC])
    def test_profile_matches_direct_builds(self, kind):
        # jpc's lower bound p(l) is its exact-arithmetic MSE, which the
        # builds reach within 1e-8 tr(c_x). jpc builds its levels from 163
        # up directly (their rcond is below eps / 1e-8), every other level
        # here from the ladder
        model = _SEARCH_MODELS["ar1_n7_m200"]()
        levels = list(_search_grid(model))
        bounds = jpc_bounds(model)
        profile = [bounds[l] for l in levels]
        direct = [analytic_mse(model, FILTER_CONSTRUCTORS[kind](model, l)) for l in levels]
        np.testing.assert_allclose(profile, direct, rtol=1e-10,
                                   atol=1e-8 * np.trace(model.c_x))

    def test_levels_near_the_rank_edge_are_always_built(self, monkeypatch):
        # their direct builds are rounding noise larger than 1e-8 tr(c_x)
        model = _SEARCH_MODELS["rank_edge_m55"]()
        builds = _counting_builds(monkeypatch, FilterKind.LSJPC)
        best_l_search(model, FilterKind.LSJPC)
        edge = []
        for l in _search_grid(model):
            try:
                margin = model.spectral.check_y_rank(l)
            except RankError:
                continue
            if margin <= np.finfo(float).eps / 1e-8:
                edge.append(l)
        assert edge and set(edge) <= set(builds)

    def test_jpc_profile_is_non_increasing(self):
        # jpc is optimal over the span of Y_l, and those spans are nested
        model = _SEARCH_MODELS["ar1_n7_m200"]()
        bounds = jpc_bounds(model)
        assert list(bounds) == list(range(1, 200))
        assert np.all(np.diff(list(bounds.values())) <= 0.0)

    @pytest.mark.parametrize("name", sorted(_SEARCH_MODELS))
    def test_jpc_bound_is_a_lower_bound(self, name):
        _assert_jpc_bound_holds(_SEARCH_MODELS[name]())


@st.composite
def _small_models(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        m = draw(st.integers(1, 96))
        ratio = draw(st.floats(0.5, 0.99))
        return haar_model(n, m, ratio=ratio, seed=draw(st.integers(0, 2**16)))
    n = draw(st.integers(1, 4))
    length = draw(st.integers(40, 200))
    m = draw(st.integers(1, min(96, length - n - 5)))
    phi = draw(st.floats(0.3, 0.99))
    return _series_model(length, phi, draw(st.integers(0, 2**16)), m, n)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(model=_small_models(), kind=st.sampled_from([FilterKind.JPC, FilterKind.LSJPC]))
def test_best_l_search_equals_exhaustive_search(model, kind):
    assert best_l_search(model, kind)[:2] == _exhaustive_search(model, kind)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(model=_small_models(), kind=st.sampled_from([FilterKind.JPC, FilterKind.LSJPC]))
def test_ladder_builds_match_direct_builds(model, kind):
    # Every level that passes the rank check. jpc: where the model's ladder
    # reaches a level, the build's analytic MSE agrees with the direct
    # formula's to 1e-8 tr(c_x), the benchmark's analytic_mse tolerance;
    # at every other level the build is the direct one, bit for bit, and
    # fails where it fails. lsjpc, which has no ladder: each build's MSE,
    # in longdouble, is within 1e-8 tr(c_x) of lsjpc_oracle's, or no
    # further from it than the direct float64 formula's
    tol = 1e-8 * np.trace(model.c_x)
    for l in range(1, model.m + 1):
        try:
            model.spectral.check_y_rank(l)
        except RankError:
            continue
        if kind is FilterKind.LSJPC:
            assert_near_the_lsjpc_oracle(model, l)
            continue
        try:
            expected = direct_joint_build(model, kind, l)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                FILTER_CONSTRUCTORS[kind](model, l)
            continue
        filt = FILTER_CONSTRUCTORS[kind](model, l)
        if model.spectral.jpc_ladder.reaches(l):
            assert abs(analytic_mse(model, filt) - analytic_mse(model, expected)) <= tol, l
        else:
            assert np.array_equal(filt.matrix, expected), l


def _assert_jpc_bound_holds(model):
    """At every level up to the jpc ladder's top, the analytic MSE of jpc
    is at least its lower bound p(l), less the 1e-8 tr(c_x) by which
    best_l_search lets rounding put a build below it. A level whose
    bound is -inf (the ladder's Cholesky failed) needs no build."""
    tol = 1e-8 * np.trace(model.c_x)
    for l, p in jpc_bounds(model).items():
        if p == -np.inf:
            continue
        try:
            filt = FILTER_CONSTRUCTORS[FilterKind.JPC](model, l)
        except RankError:
            continue
        assert analytic_mse(model, filt) >= p - tol, l


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(model=_small_models())
def test_jpc_bound_is_a_lower_bound_on_small_models(model):
    _assert_jpc_bound_holds(model)
