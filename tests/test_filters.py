"""Filter constructor tests: closed-form cases, oracles, and invariants."""

import dataclasses
import gc
import sys
import weakref

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    ar1_series,
    assert_near_the_lsjpc_oracle,
    direct_joint_build,
    haar_model,
    live_spd_factors,
    lsjpc_oracle,
    tail_mixed_model,
)
from wclmmse import (
    CovarianceModel,
    DimensionError,
    FilterKind,
    InvalidWeightError,
    LPolicy,
    Prefilter,
    RankError,
    SingularMatrixError,
    UndefinedConditionError,
    WclmmseError,
    analytic_mse,
    best_l_search,
    csw,
    det_optimal_weight,
    estimate_covariance,
    filter_power_loss,
    geometric_spectrum,
    inv_sqrt_spd,
    is_l_well_conditioned,
    jpc,
    jpc_simplified,
    lrw,
    lsjpc,
    lsjpc_simplified,
    nuclear_norm,
    run_condition_report,
    run_l_sweep,
    run_m_sweep,
    sample_from_model,
    scaling_study,
    sym_eig,
    synthetic_model,
    truncation_power_loss,
    weighted_filter,
    weighted_trace_objective,
    wiener,
    wiener_structured,
    window_samples,
)
from wclmmse import harness, linalg
from wclmmse.filters import _LEVELED_KINDS, FILTER_CONSTRUCTORS
from wclmmse.model import _LADDER_RCOND, _search_grid


def copy_model(dim=3, seed=5):
    """X = Y exactly: c_x = c_y = c_xy."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    c = a @ a.T + 3.0 * np.eye(dim)
    return CovarianceModel(c_x=c, c_y=c, c_xy=c)


class TestWiener:
    def test_identity_input_covariance(self):
        model = CovarianceModel(c_x=np.eye(1), c_y=np.eye(2),
                                c_xy=np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(wiener(model).matrix, [[1.0, 0.0]], atol=1e-14)

    def test_scaled_input_covariance(self):
        model = CovarianceModel(c_x=np.eye(1), c_y=2.0 * np.eye(2),
                                c_xy=np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(wiener(model).matrix, [[0.5, 0.0]], atol=1e-14)

    def test_against_explicit_inverse(self):
        model = haar_model(2, 3, ratio=0.6, seed=1)
        expected = model.c_xy @ np.linalg.inv(model.c_y)
        np.testing.assert_allclose(wiener(model).matrix, expected, atol=1e-8)

    def test_max_inverse_dim_is_m(self):
        model = haar_model(2, 5, seed=2)
        filt = wiener(model)
        assert filt.max_inverse_dim == 5
        assert filt.l is None

    def test_singular_input_raises(self):
        model = CovarianceModel(c_x=np.eye(1), c_y=np.diag([1.0, 0.0]),
                                c_xy=np.array([[0.5, 0.5]]))
        with pytest.raises(SingularMatrixError, match="condition number"):
            wiener(model)

    def test_input_covariance_without_positive_eigenvalue_has_no_condition(self):
        # the failure message reads cond_y, which every sweep of this
        # model raises on too
        model = CovarianceModel(c_x=np.eye(1), c_y=np.zeros((2, 2)),
                                c_xy=np.zeros((1, 2)))
        with pytest.raises(UndefinedConditionError):
            wiener(model)

    def test_failure_message_and_cond_y_share_one_eigvalsh(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        model = CovarianceModel.from_joint(np.diag([1.0, 1.0, 0.0]), 1)
        with pytest.raises(SingularMatrixError, match="condition number inf"):
            wiener(model)
        assert model.spectral.cond_y == np.inf
        assert shapes == [(2, 2)]


class TestWienerStructured:
    def test_identity_prefilter_collapses_to_wiener(self):
        model = haar_model(2, 4, seed=3)
        got = wiener_structured(model, Prefilter(np.eye(4)))
        np.testing.assert_allclose(got.matrix, wiener(model).matrix, atol=1e-10)

    def test_invariant_to_invertible_premultiplication(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            model = haar_model(2, 5, ratio=0.7, seed=trial)
            b = rng.standard_normal((2, 5))
            t = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
            one = wiener_structured(model, Prefilter(b)).matrix
            two = wiener_structured(model, Prefilter(t @ b)).matrix
            assert np.linalg.norm(one - two) <= 1e-8 * np.linalg.norm(one)

    def test_matches_scalar_least_squares_oracle(self):
        # L=1, M=2: best scalar d for E|d (b y) - x|^2 is cov(x, by) / var(by)
        model = haar_model(1, 2, ratio=0.5, seed=4)
        b = np.array([[0.8, -0.4]])
        var_by = (b @ model.c_y @ b.T).item()
        cov_xby = (model.c_xy @ b.T).item()
        expected = (cov_xby / var_by) * b
        got = wiener_structured(model, Prefilter(b)).matrix
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_optimal_among_same_prefilter(self):
        rng = np.random.default_rng(8)
        model = haar_model(2, 4, seed=9)
        b = rng.standard_normal((2, 4))
        best = analytic_mse(model, wiener_structured(model, Prefilter(b)))
        for _ in range(100):
            d = rng.standard_normal((2, 2))
            assert best <= analytic_mse(model, d @ b) + 1e-10

    def test_rank_deficient_prefilter_rejected(self):
        with pytest.raises(RankError):
            Prefilter(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_records_l_sized_inverse(self):
        model = haar_model(2, 6, seed=10)
        filt = wiener_structured(model, Prefilter(np.random.default_rng(1).standard_normal((3, 6))))
        assert filt.max_inverse_dim == 3


def lrw_reference(model, l):
    """The direct formula: the first min(l, n) singular triplets of the
    whitened cross-covariance c_xy c_y^-1/2, mapped back through c_y^-1/2."""
    root_inv = inv_sqrt_spd(model.c_y)
    u, s, vt = np.linalg.svd(model.c_xy @ root_inv, full_matrices=False)
    keep = min(l, model.n)
    return (u[:, :keep] * s[:keep]) @ vt[:keep] @ root_inv


class TestLrw:
    @pytest.mark.parametrize("n, m, ratio, seed, rtol", [
        (2, 6, 0.6, 0, 1e-12),
        (3, 12, 0.8, 1, 1e-12),
        (4, 20, 0.7, 2, 1e-12),
        (2, 40, 0.56, 2, 1e-5),
    ])
    def test_matches_whitened_svd_formula(self, n, m, ratio, seed, rtol):
        # Relative Frobenius distance. Both paths lose about eps * cond(c_y):
        # cond(c_y) is below 100 on the first three models and 1.1e10 on
        # the last, where the two paths differ by up to 5e-7.
        model = haar_model(n, m, ratio=ratio, seed=seed)
        for l in sorted({1, n - 1, n, n + 1, m}):
            want = lrw_reference(model, l)
            assert np.linalg.norm(lrw(model, l).matrix - want) <= rtol * np.linalg.norm(want)

    def test_refuses_c_y_at_the_definiteness_floor(self):
        # lrw builds while the smallest eigenvalue of c_y is above 1e-12
        # times the largest, and raises with its index and value at or below
        for cond, builds in ((0.99e12, True), (1.01e12, False)):
            model = CovarianceModel(c_x=np.eye(1),
                                    c_y=np.diag([1.0, 0.5, 1.0 / cond]),
                                    c_xy=np.array([[0.1, 0.1, 1e-7]]))
            if builds:
                np.testing.assert_allclose(lrw(model, 1).matrix, wiener(model).matrix,
                                           rtol=1e-12)
                continue
            with pytest.raises(SingularMatrixError) as info:
                lrw(model, 1)
            assert (info.value.index, info.value.value) == (2, 1.0 / cond)

    def test_no_truncation_equals_wiener(self):
        model = haar_model(2, 4, seed=11)
        for l in (2, 3, 4):
            got = lrw(model, l).matrix
            np.testing.assert_allclose(got, wiener(model).matrix, atol=1e-8)

    def test_rank_one_example_mse(self):
        # c_y = I3, c_xy keeps singular values (3, 1); truncating to the
        # sigma=3 direction leaves mse = tr(c_x) - 9 = 11.
        model = CovarianceModel(c_x=np.diag([10.0, 10.0]), c_y=np.eye(3),
                                c_xy=np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        filt = lrw(model, 1)
        assert np.linalg.matrix_rank(filt.matrix) == 1
        assert analytic_mse(model, filt) == pytest.approx(11.0, abs=1e-10)

    def test_beats_random_rank_one_structured_filters(self):
        rng = np.random.default_rng(12)
        model = haar_model(3, 4, ratio=0.5, seed=13)
        best = analytic_mse(model, lrw(model, 1))
        for _ in range(200):
            b = rng.standard_normal((1, 4))
            competitor = analytic_mse(model, wiener_structured(model, Prefilter(b)))
            assert best <= competitor + 1e-9

    def test_max_inverse_dim_is_m(self):
        model = haar_model(2, 5, seed=14)
        assert lrw(model, 2).max_inverse_dim == 5


class TestCsw:
    def test_full_basis_equals_wiener(self):
        model = haar_model(2, 4, seed=16)
        np.testing.assert_allclose(csw(model, 4).matrix, wiener(model).matrix, atol=1e-8)

    def test_equals_lrw_when_orderings_agree(self):
        # White input, axis-aligned cross-covariance: eigen order and
        # cross-spectral order coincide and both truncations keep axes.
        model = CovarianceModel(c_x=np.diag([10.0, 10.0]), c_y=np.eye(3),
                                c_xy=np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        for l in (1, 2, 3):
            np.testing.assert_allclose(csw(model, l).matrix, lrw(model, l).matrix,
                                       atol=1e-10)
            assert filter_power_loss(model, FilterKind.CSW, l) == pytest.approx(
                filter_power_loss(model, FilterKind.LRW, l), abs=1e-12)

    def test_never_beats_lrw(self):
        for seed in range(10):
            model = haar_model(2, 4, ratio=0.6, seed=seed)
            assert analytic_mse(model, csw(model, 1)) >= analytic_mse(model, lrw(model, 1)) - 1e-10

    def test_ranks_by_cross_spectral_power(self):
        # second eigendirection has lower variance but much higher score
        model = CovarianceModel(c_x=np.array([[5.0]]), c_y=np.diag([4.0, 1.0]),
                                c_xy=np.array([[0.2, 0.9]]))
        got = csw(model, 1).matrix
        np.testing.assert_allclose(got, [[0.0, 0.9]], atol=1e-12)


class TestJpc:
    def test_full_basis_equals_wiener(self):
        model = haar_model(2, 4, seed=17)
        np.testing.assert_allclose(jpc(model, 4).matrix, wiener(model).matrix, atol=1e-8)

    def test_identity_joint_gives_zero_filter(self):
        model = CovarianceModel.from_joint(np.eye(6), 2)
        np.testing.assert_array_equal(jpc(model, 3).matrix, np.zeros((2, 4)))

    def test_bit_identical_to_structured_path(self):
        # where jpc builds a level directly (here above the ladder's top,
        # 47 on the grid 2, 5, ..., 47), it is the structured path bit for
        # bit; where its ladder reaches a level, TestLadder checks it
        model = haar_model(2, 49, ratio=0.6, seed=18)
        assert model.spectral.ladder_top == 47
        for l in (48, 49):
            direct = jpc(model, l).matrix
            via_prefilter = wiener_structured(model, Prefilter(model.spectral.y_block(l).T)).matrix
            assert np.array_equal(direct, via_prefilter)

    def test_certificate(self):
        model = haar_model(2, 6, seed=19)
        filt = jpc(model, 3)
        assert filt.max_inverse_dim == 3
        assert is_l_well_conditioned(filt, 3)

    def test_pure_x_leading_eigenvector_raises(self):
        # dominant eigendirection lives entirely in the X block
        model = CovarianceModel.from_joint(np.diag([10.0, 1.0, 2.0]), 1)
        with pytest.raises(RankError):
            jpc(model, 1)


def _rcond_gated(model, levels):
    """The ``levels`` up to the jpc ladder's top whose system S_l has a
    ``dppcon`` reciprocal condition estimate, from the ladder's factor, at
    or below ``_LADDER_RCOND``: those the per-level gate builds directly
    on a joint over the bound."""
    ladder = model.spectral.jpc_ladder
    y = model.spectral.y_block(ladder.top)
    s = (y.T @ model.c_y) @ y
    s = 0.5 * (s + s.T)
    return [l for l in levels if l <= ladder.top and scipy.linalg.lapack.dppcon(
        l, ladder.u[: l * (l + 1) // 2], np.abs(s[:l, :l]).sum(axis=0).max())[0]
        <= _LADDER_RCOND]


class TestLadder:
    # Every level from 1 to m. Where the model's jpc ladder reaches a
    # level, the build's analytic MSE agrees with the direct formula's to
    # 1e-8 tr(c_x), the tolerance the benchmark checks analytic_mse to;
    # every other level (above the top, or, on a joint whose condition
    # lambda_1 / lambda_d is over eps / 1e-8 = 4.5e7, rcond at or below
    # eps / 1e-8) is the direct build, bit for bit. At ratio 0.97 and 0.9
    # the joint is within the bound (condition 157 and 3.9e7), so the
    # ladder reaches every level up to its top; at ratio 0.88 (1.6e9) jpc's
    # systems fall to that rcond from l=116 on. lsjpc has no ladder: every
    # level is near lsjpc_oracle (assert_near_the_lsjpc_oracle), to the
    # same bits whatever the top.

    @pytest.mark.parametrize("kind", [FilterKind.JPC, FilterKind.LSJPC])
    @pytest.mark.parametrize("ratio", [0.97, 0.9, 0.88])
    def test_every_level_matches_the_direct_build(self, ratio, kind):
        # first at the best grid's top, 157, then on a fresh model with the
        # top raised to m = 160 before its ladder is read, as a sweep up
        # to l = m prepares it: the raised ladder reaches the levels above
        # 157, except at ratio 0.88, whose rcond gate keeps their direct
        # builds
        lsjpc_builds = {}
        for top in (157, 160):
            model = haar_model(7, 160, ratio=ratio, seed=0)
            tol = 1e-8 * np.trace(model.c_x)
            model.spectral.prepare_sweep([kind], [top])
            assert model.spectral.ladder_top == top
            if kind is FilterKind.LSJPC:
                for l in range(1, model.m + 1):
                    matrix = lsjpc(model, l).matrix
                    if l not in lsjpc_builds:
                        assert_near_the_lsjpc_oracle(model, l)
                        lsjpc_builds[l] = matrix
                    assert np.array_equal(matrix, lsjpc_builds[l]), l
                continue
            ladder = model.spectral.jpc_ladder
            reached, direct = [], []
            for l in range(1, model.m + 1):
                filt = FILTER_CONSTRUCTORS[kind](model, l)
                expected = direct_joint_build(model, kind, l)
                if ladder.reaches(l):
                    reached.append(l)
                    assert abs(analytic_mse(model, filt) - analytic_mse(model, expected)) <= tol, l
                else:
                    direct.append(l)
                    assert np.array_equal(filt.matrix, expected), l
            assert ladder.top == top and reached
            gated = [l for l in direct if l <= top]
            assert direct[len(gated):] == list(range(top + 1, model.m + 1))
            assert len(gated) > 10 if ratio == 0.88 else not gated
            assert (reached[-1] > 157) == (top == 160 and ratio != 0.88)

    @pytest.mark.parametrize("name, seed, m", [
        *[("sweep-l-m400", seed, 400) for seed in (0, 1, 5, 7)],
        *[("sweep-m-best", 0, m) for m in (400, 800, 1200)],
        ("haar-0.9", 0, 160),
    ])
    def test_ladder_reaches_what_the_rcond_gate_would_build_directly(self, name, seed, m):
        # joints within the bound, prepared as their sweep prepares them:
        # the benchmark's sweep-l-m400 model at its sweep's levels, its
        # sweep-m-best series at the best grid's, and a joint of condition
        # 3.9e7 at every level. The ladder keeps no product and no norms
        # and reaches every level up to its top; at each level the
        # per-level gate would send direct (2 to 27 per model), the
        # ladder's build is within 1e-8 tr(c_x) in analytic MSE of the
        # direct build, and its norm_rms on the sweep's own test vectors
        # within 1e-6 relative. Measured at one BLAS thread: at most
        # 9.1e-7 of the first and 1.9e-2 of the second
        if name == "sweep-m-best":
            source, levels = ar1_series(8000, phi=0.98, seed=seed), None
        else:
            ratio, levels = (0.97, range(10, 401, 10)) if m == 400 else (0.9, range(1, 161))
            source = haar_model(7, m, ratio=ratio, seed=seed)
        model, test_z, mean = harness._prepare(source, m, 7, seed)
        model.spectral.prepare_sweep([FilterKind.JPC], levels or [])
        levels = levels or _search_grid(model)
        ladder = model.spectral.jpc_ladder
        assert ladder.product is None and ladder.norms is None
        assert all(ladder.reaches(l) for l in range(1, ladder.top + 1))
        gated = _rcond_gated(model, levels)
        assert gated
        tol = 1e-8 * np.trace(model.c_x)
        for l in gated:
            filt = jpc(model, l)
            direct = dataclasses.replace(filt, matrix=direct_joint_build(model, "jpc", l))
            mse = analytic_mse(model, [filt, direct])
            assert abs(mse[0] - mse[1]) <= tol, l
            rms = harness.dataio.normalized_rms([filt, direct], test_z, mean)
            assert rms[0] == pytest.approx(rms[1], rel=1e-6, abs=0.0), l

    @pytest.mark.parametrize("last", [-1e-6, None])
    def test_a_joint_over_the_bound_keeps_the_per_level_gate(self, last):
        # a joint with lambda_d < 0, and the ratio-0.88 joint of condition
        # 1.6e9: each ladder's top Cholesky succeeds, and it keeps its
        # product and norms and reaches exactly the levels up to its top
        # whose rcond estimate is above eps / 1e-8
        if last is None:
            model = haar_model(7, 160, ratio=0.88, seed=0)
        else:
            spectrum = geometric_spectrum(67, 1.0, 0.9)
            spectrum[-1] = last
            q = np.linalg.qr(np.random.default_rng(3).standard_normal((67, 67)))[0]
            model = CovarianceModel.from_joint((q * spectrum) @ q.T, 7)
        lam = model.spectral.eig_z.eigenvalues
        assert lam[-1] <= 0.0 if last is not None else lam[0] > 4.5e7 * lam[-1] > 0.0
        ladder = model.spectral.jpc_ladder
        assert ladder.u is not None and ladder.product is not None
        assert ladder.norms is not None
        gated = _rcond_gated(model, range(1, model.m + 1))
        assert [l for l in range(1, ladder.top + 1) if not ladder.reaches(l)] == gated
        assert len(gated) > 10 if last is None else not gated
        for l in gated[:3]:
            assert np.array_equal(jpc(model, l).matrix, direct_joint_build(model, "jpc", l))

    def test_built_once_per_model_and_kind(self, monkeypatch):
        # jpc's ladder factors its top system once; lsjpc has no ladder and
        # factors only its n x n system, once per level
        model = haar_model(7, 120, ratio=0.9, seed=1)
        factored = []
        original = linalg.factor_spd

        def recording(a):
            factored.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(sys.modules["wclmmse.model"], "factor_spd", recording)
        for l in (10, 50, 100):
            jpc(model, l)
            lsjpc(model, l)
        top = model.spectral.ladder_top
        assert factored == [(top, top)] + [(7, 7)] * 3

    def test_gated_levels_match_the_structured_filter_on_the_illcond_model(self):
        # the benchmark's sweep-l-illcond model at seed 7, c_y singular in
        # float64, its ladder topped by the sweep's levels: every level of
        # the sweep up to the top that the rcond gate builds directly, from
        # the first rows of the ladder's product Y_top' c_y, is within
        # 1e-8 tr(c_x) in analytic MSE of the structured filter through
        # Y_l', which forms Y_l' c_y itself
        model = synthetic_model(7, geometric_spectrum(407, 1.0, 0.9), seed=7)
        levels = range(10, 401, 10)
        model.spectral.prepare_sweep([FilterKind.JPC], levels)
        ladder = model.spectral.jpc_ladder
        tol = 1e-8 * np.trace(model.c_x)
        gated = [l for l in levels if l <= ladder.top and not ladder.reaches(l)]
        assert ladder.top == 340 and len(gated) > 10
        for l in gated:
            structured = wiener_structured(model, model.spectral.y_block(l).T)
            gap = analytic_mse(model, jpc(model, l)) - analytic_mse(model, structured)
            assert abs(gap) <= tol, l

    def test_failed_top_factorization_builds_every_level_directly(self):
        # d = 252 from 38 training windows: the top jpc system is indefinite
        # in float64, so the ladder keeps it for the LU solve and reaches
        # no level
        train, _, _ = window_samples(ar1_series(300, phi=0.8, seed=0), 250, 2, 0)
        model = estimate_covariance(train, 2)
        ladder = model.spectral.jpc_ladder
        assert ladder.failed.cholesky is None and ladder.u is None
        for l in (10, ladder.top):
            assert not ladder.reaches(l)
            assert np.array_equal(jpc(model, l).matrix, direct_joint_build(model, "jpc", l))


class TestLsjpc:
    def test_copy_task_recovers_identity(self):
        model = copy_model(dim=3)
        np.testing.assert_allclose(lsjpc(model, 3).matrix, np.eye(3), atol=1e-8)

    def test_identity_joint(self):
        model = CovarianceModel.from_joint(np.eye(6), 2)
        filt = lsjpc(model, 3)
        np.testing.assert_allclose(filt.matrix, 0.0, atol=1e-12)
        assert analytic_mse(model, filt) == pytest.approx(np.trace(model.c_x))
        assert np.linalg.norm(filt.matrix @ model.c_y @ filt.matrix.T) < 1e-20

    def test_matches_pseudoinverse_path(self):
        model = haar_model(2, 5, ratio=0.7, seed=20)
        cache = model.spectral
        for l in (1, 3, 5):
            resolution = np.linalg.pinv(cache.y_block(l))
            expected = cache.x_block(l) @ resolution
            np.testing.assert_allclose(lsjpc(model, l).matrix, expected,
                                       atol=1e-10)

    def test_certificate(self):
        filt = lsjpc(haar_model(2, 6, seed=21), 2)
        assert filt.max_inverse_dim == 2

    @pytest.mark.parametrize("seed", [0, 7])
    def test_rank_edge_level_of_the_series_model_is_near_the_oracle(self, seed):
        # the sweep-l --data model: the benchmark's 8000-point AR(1) series
        # (phi 0.98), m=400 and n=7, prepared as that sweep prepares it. Its
        # top level, next to the rank edge, is within 1e-11 relative of
        # lsjpc_oracle; built from its ladder's Gram of Y_l it was 2.7e-10 to
        # 1.5e-9 off at one BLAS thread
        series = ar1_series(8000, phi=0.98, seed=seed)
        model, _, _ = harness._prepare(series, 400, 7, seed)
        model.spectral.prepare_sweep(["lsjpc"], range(10, 401, 10))
        oracle = lsjpc_oracle(model, 400)
        error = lsjpc(model, 400).matrix - oracle
        assert np.sqrt(np.sum(error * error) / np.sum(oracle * oracle)) <= 1e-11

    def test_bits_do_not_depend_on_the_ladder_top(self):
        # two fresh models, one prepared for the best grid's top (382), the
        # other for a sweep up to l=m (400): every level, the bits alike
        models = []
        for top in (382, 400):
            model = haar_model(7, 400, ratio=0.97, seed=0)
            model.spectral.prepare_sweep(["lsjpc"], [top])
            assert model.spectral.ladder_top == top
            models.append(model)
        for l in range(10, 401, 10):
            assert np.array_equal(lsjpc(models[0], l).matrix, lsjpc(models[1], l).matrix), l


class TestSimplifiedVariants:
    def test_jpc_simplified_exact_when_top_basis_is_pure_y(self):
        # leading eigenvectors supported on Y only: the Gram matrix is the
        # identity and the l x l system is already diagonal
        model = tail_mixed_model(2, 6, ratio=0.7, mix=0.0, seed=22)
        for l in (1, 3, 6):
            np.testing.assert_allclose(jpc_simplified(model, l).matrix,
                                       jpc(model, l).matrix, atol=1e-8)

    def test_identity_joint_gives_zero(self):
        model = CovarianceModel.from_joint(np.eye(5), 2)
        np.testing.assert_array_equal(jpc_simplified(model, 2).matrix, np.zeros((2, 3)))
        np.testing.assert_allclose(lsjpc_simplified(model, 2).matrix, 0.0, atol=1e-14)

    def test_accurate_in_y_dominated_regime(self):
        # with X-mass confined to the spectral tail both approximations
        # track their exact counterparts at every truncation level
        model = tail_mixed_model(2, 10, ratio=0.7, mix=1e-3, seed=23)
        scale = nuclear_norm(wiener(model).matrix)
        for l in range(1, 11):
            dj = np.linalg.norm(jpc_simplified(model, l).matrix - jpc(model, l).matrix)
            dl = np.linalg.norm(lsjpc_simplified(model, l).matrix - lsjpc(model, l).matrix)
            assert dj <= 1e-5 * max(scale, 1.0)
            assert dl <= 1e-5 * max(scale, 1.0)

    def test_lsjpc_simplified_copy_task_factor(self):
        # X = Y: the Y-block Gram matrix is I/2, so dropping its inverse
        # halves the filter
        model = copy_model(dim=3)
        full = lsjpc(model, 3).matrix
        simplified = lsjpc_simplified(model, 3).matrix
        np.testing.assert_allclose(simplified, 0.5 * full, atol=1e-10)

    def test_no_inverse_certificates(self):
        model = haar_model(2, 5, seed=24)
        assert jpc_simplified(model, 2).max_inverse_dim == 0
        assert lsjpc_simplified(model, 2).max_inverse_dim == 0
        assert is_l_well_conditioned(lsjpc_simplified(model, 2), 0)

    def test_zero_joint_eigenvalue_rejected(self):
        c_z = np.diag([2.0, 0.0, 0.0])
        model = CovarianceModel.from_joint(c_z, 1)
        with pytest.raises(SingularMatrixError):
            jpc_simplified(model, 2)


class TestSpectralCache:
    @pytest.mark.parametrize("order", [("extremes_y", "wiener_solve"),
                                       ("wiener_solve", "extremes_y")])
    def test_c_y_factor_is_shared_and_dropped_once_both_readers_are_made(
            self, monkeypatch, order):
        # cond_y's extremes and wiener's solve read one Cholesky factor of
        # c_y, in either order; both are made at the first read, and the
        # cache never holds the factor
        model = haar_model(2, 30, ratio=0.9, seed=1)
        factored, cho_factor = [], scipy.linalg.cho_factor

        def recording(a, *args, **kwargs):
            factored.append(a)
            return cho_factor(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", recording)
        cache = model.spectral
        for name in order:
            getattr(cache, name)
            assert live_spd_factors(model.m) == []
        assert len(factored) == 1 and factored[0] is model.c_y
        np.testing.assert_array_equal(cache.wiener_solve,
                                      scipy.linalg.cho_solve(cho_factor(model.c_y),
                                                             model.c_xy.T))

    def test_singular_c_y_reraises_without_decomposing_again(self, sym_eig_shapes):
        # lrw's and csw's decompositions both re-raise from the stored
        # extreme eigenvalues of c_y, before either decomposes anything
        model = haar_model(2, 8, ratio=0.02, seed=3)
        cache = model.spectral
        raised = []
        for _ in range(3):
            with pytest.raises(SingularMatrixError) as info:
                cache.eig_wiener
            raised.append((info.value.index, info.value.value))
        for build in (lrw, csw):
            with pytest.raises(SingularMatrixError):
                build(model, 2)
        assert raised == [raised[0]] * 3
        assert raised[0] == (7, cache.extremes_y[-1])
        assert sym_eig_shapes == []
        with pytest.raises(SingularMatrixError) as info:
            inv_sqrt_spd(model.c_y)
        assert info.value.index == raised[0][0]
        assert info.value.value == pytest.approx(raised[0][1], abs=1e-15 * cache.extremes_y[0])

    def test_rank_truncations_decompose_only_what_they_read(self, sym_eig_shapes):
        # lrw: the n x n c_xy c_y^-1 c_xy'; csw: c_y; neither the joint c_z
        model = haar_model(2, 6, seed=28)
        lrw(model, 2)
        csw(model, 2)
        assert sym_eig_shapes == [(2, 2), (6, 6)]

    def test_every_caller_shares_the_model_decompositions(self, sym_eig_shapes):
        model = haar_model(2, 6, seed=28)
        for kind in (FilterKind.JPC, FilterKind.LSJPC):
            best_l_search(model, kind)
        scaling_study(model, FilterKind.JPC, [2, 4])
        lrw(model, 2)
        csw(model, 2)
        assert sym_eig_shapes == [(8, 8), (2, 2), (6, 6)]

    def test_decompositions_freed_with_the_model(self):
        # With the collector off, only reference counting can free the
        # cache: a model -> cache -> model cycle would keep it alive.
        model = haar_model(2, 6, seed=28)
        jpc(model, 2)
        lrw(model, 2)
        cache = weakref.ref(model.spectral)
        gc.disable()
        try:
            del model
            assert cache() is None
        finally:
            gc.enable()

    def test_rank_check_matches_singular_values_of_y_block(self):
        # sigma_min(Y_l)^2 = 1 - ||X_l||^2 on an orthonormal basis
        model = haar_model(2, 6, ratio=0.6, seed=30)
        cache = model.spectral
        for l in range(1, 7):
            y_min = np.linalg.svd(cache.y_block(l), compute_uv=False)[-1]
            x_max = np.linalg.svd(cache.x_block(l), compute_uv=False)[0]
            assert y_min**2 == pytest.approx(1.0 - x_max**2, abs=1e-14)
            cache.check_y_rank(l)
        degenerate = CovarianceModel.from_joint(np.diag([10.0, 1.0, 2.0]), 1)
        with pytest.raises(RankError):
            degenerate.spectral.check_y_rank(1)

    def test_rank_check_computes_each_level_once(self, monkeypatch):
        # jpc and lsjpc at one level share its SVD; a level at or below the
        # floor still raises on every call
        norms = []
        original = linalg.spectral_norm

        def counting(a):
            norms.append(np.shape(a))
            return original(a)

        monkeypatch.setattr(sys.modules["wclmmse.model"], "spectral_norm", counting)
        model = haar_model(2, 6, ratio=0.6, seed=30)
        for _ in range(2):
            jpc(model, 3)
            lsjpc(model, 3)
        assert model.spectral.check_y_rank(3) == model.spectral.check_y_rank(3)
        degenerate = CovarianceModel.from_joint(np.diag([10.0, 1.0, 2.0]), 1)
        for _ in range(2):
            with pytest.raises(RankError):
                degenerate.spectral.check_y_rank(1)
        # level 3's X block, then the ladder top 6's, then the degenerate one
        assert model.spectral.ladder_top == 6
        assert norms == [(2, 3), (2, 6), (1, 1)]


class TestSignInvariance:
    def test_filters_unchanged_by_eigenvector_sign_flips(self):
        model = haar_model(2, 5, ratio=0.6, seed=25)
        flipped = CovarianceModel(c_x=model.c_x, c_y=model.c_y, c_xy=model.c_xy)
        flipped_eig = sym_eig(model.c_z)
        rng = np.random.default_rng(26)
        signs = np.where(rng.random(model.dim) < 0.5, -1.0, 1.0)
        flipped_eig.eigenvectors = flipped_eig.eigenvectors * signs
        flipped.spectral.eig_z = flipped_eig
        for build in (jpc, lsjpc, jpc_simplified, lsjpc_simplified):
            one = build(model, 3).matrix
            two = build(flipped, 3).matrix
            np.testing.assert_allclose(one, two, atol=1e-10)


class TestWeighted:
    def test_identity_weight_reproduces_base(self):
        model = haar_model(2, 4, seed=27)
        got = weighted_filter(model, np.eye(2), FilterKind.LRW, l=1)
        np.testing.assert_allclose(got.matrix, lrw(model, 1).matrix, atol=1e-12)
        assert got.kind is FilterKind.WEIGHTED

    def test_wiener_base_is_weight_independent(self):
        model = haar_model(2, 4, seed=28)
        reference = wiener(model).matrix
        rng = np.random.default_rng(29)
        for _ in range(20):
            g = rng.standard_normal((2, 2)) + 3.0 * np.eye(2)
            got = weighted_filter(model, g, FilterKind.WIENER).matrix
            assert np.linalg.norm(got - reference) <= 1e-8 * np.linalg.norm(reference)

    def test_weighted_lrw_improves_weighted_objective(self):
        model = haar_model(2, 3, ratio=0.5, seed=30)
        g = np.diag([2.0, 1.0])
        improved = weighted_filter(model, g, FilterKind.LRW, l=1)
        baseline = lrw(model, 1)
        assert (weighted_trace_objective(model, improved, g)
                <= weighted_trace_objective(model, baseline, g) + 1e-10)

    def test_singular_weight_rejected(self):
        model = haar_model(2, 3, seed=31)
        with pytest.raises(InvalidWeightError):
            weighted_filter(model, np.array([[1.0, 0.0], [1.0, 0.0]]), FilterKind.WIENER)

    def test_det_optimal_weight(self):
        np.testing.assert_allclose(det_optimal_weight(
            CovarianceModel(c_x=np.eye(2), c_y=np.eye(1), c_xy=np.zeros((2, 1)))),
            np.eye(2), atol=1e-14)
        model = CovarianceModel(c_x=np.diag([4.0, 9.0]), c_y=np.eye(1),
                                c_xy=np.zeros((2, 1)))
        np.testing.assert_allclose(det_optimal_weight(model), np.diag([0.5, 1.0 / 3.0]),
                                   atol=1e-14)
        random_model = haar_model(3, 2, seed=32)
        g = det_optimal_weight(random_model)
        np.testing.assert_allclose(g @ random_model.c_x @ g.T, np.eye(3), atol=1e-8)


LEVELED_BUILDS = (lrw, csw, jpc, lsjpc, jpc_simplified, lsjpc_simplified)


def _series():
    return ar1_series(120, seed=5)


# Every entry point that takes a count, as (call, low, high, a valid count):
# the count must be an integer in [low, high], high None for no upper bound.
COUNT_ENTRY_POINTS = {
    "from_joint-n": (lambda v: CovarianceModel.from_joint(np.eye(6), v), 0, 6, 2),
    "synthetic_model-n": (lambda v: synthetic_model(v, geometric_spectrum(6)), 1, 5, 2),
    "sample_from_model-k": (lambda v: sample_from_model(haar_model(2, 8), v), 0, None, 3),
    "geometric_spectrum-size": (geometric_spectrum, 0, None, 4),
    "truncation_power_loss-l": (lambda v: truncation_power_loss(np.arange(6.0, 0.0, -1.0), v),
                                1, 6, 2),
    "jpc-l": (lambda v: jpc(haar_model(2, 8), v), 1, 8, 3),
    **{f"filter_power_loss-{kind.value}-l":
       (lambda v, kind=kind: filter_power_loss(haar_model(2, 8), kind, v), 1, 8, 3)
       for kind in _LEVELED_KINDS},
    "scaling_study-grid": (lambda v: scaling_study(haar_model(2, 8), "jpc", [v]), 1, 8, 3),
    "LPolicy-fixed-l": (lambda v: LPolicy(mode="fixed", l=v), 1, None, 3),
    "run_l_sweep-grid": (lambda v: run_l_sweep(haar_model(2, 8), 8, 2, [v], ["jpc"]), 1, 8, 3),
    "run_m_sweep-grid": (lambda v: run_m_sweep(_series(), [v], 2, ["jpc"],
                                               LPolicy(mode="fixed", l=2)), 1, None, 6),
    "run_condition_report-model-grid": (lambda v: run_condition_report(haar_model(2, 8), [v], 2),
                                        1, 8, 4),
    "run_condition_report-series-grid": (lambda v: run_condition_report(_series(), [v], 2),
                                         1, None, 6),
    "window_samples-m": (lambda v: window_samples(_series(), v, 2, 0), 1, None, 6),
    "window_samples-n": (lambda v: window_samples(_series(), 6, v, 0), 1, None, 2),
}


def _bits(value):
    """``value`` as nested tuples of plain data, ``wall_ms`` dropped, equal
    exactly when two results are the same bits and the same types."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(_bits(item) for item in value)
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name)))
                     for f in dataclasses.fields(value) if f.name != "wall_ms")
    return type(value).__name__, repr(value)


class TestTruncationLevel:
    @pytest.mark.parametrize("build", LEVELED_BUILDS, ids=lambda build: build.__name__)
    @pytest.mark.parametrize("level", [None, 2.5])
    def test_a_level_that_is_not_an_integer_is_refused(self, build, level):
        with pytest.raises(DimensionError, match="not an integer"):
            build(haar_model(2, 6, seed=3), level)

    def test_weighted_filter_without_a_level_is_refused(self):
        model = haar_model(2, 6, seed=3)
        for kind in FILTER_CONSTRUCTORS:
            if kind is not FilterKind.WIENER:
                with pytest.raises(DimensionError, match="not an integer"):
                    weighted_filter(model, np.eye(2), kind)

    @pytest.mark.parametrize("build", LEVELED_BUILDS, ids=lambda build: build.__name__)
    def test_numpy_integer_level_builds_the_int_level(self, build):
        """At a ladder level, at the ladder's top (48) and above it."""
        for level in (3, 48, 50):
            got = build(haar_model(3, 50, ratio=0.9, seed=4), np.int64(level)).matrix
            want = build(haar_model(3, 50, ratio=0.9, seed=4), level).matrix
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
    def test_every_count_is_an_integer_in_its_range(self, entry):
        """One rule at every entry point: a non-integer and a count one past
        either bound raise DimensionError, and a numpy integer gives the
        same result, bit for bit and type for type, as the int."""
        call, low, high, valid = COUNT_ENTRY_POINTS[entry]
        with pytest.raises(DimensionError, match="not an integer"):
            call(2.5)
        for outside in [low - 1] + ([] if high is None else [high + 1]):
            with pytest.raises(DimensionError, match=f"={outside} outside"):
                call(outside)
        assert _bits(call(np.int64(valid))) == _bits(call(valid))


class TestWellConditionedCertificates:
    def test_kinds_report_expected_inverse_sizes(self):
        model = haar_model(2, 6, ratio=0.7, seed=33)
        l = 3
        assert is_l_well_conditioned(jpc(model, l), l)
        assert is_l_well_conditioned(lsjpc(model, l), l)
        assert is_l_well_conditioned(jpc_simplified(model, l), l)
        assert is_l_well_conditioned(lsjpc_simplified(model, l), l)
        assert not is_l_well_conditioned(lrw(model, l), l)
        assert not is_l_well_conditioned(csw(model, l), l)
        assert not is_l_well_conditioned(wiener(model), l)

    def test_largest_solve_matches_certificate(self, monkeypatch):
        # Every system a construction solves goes to cho_factor, the LU
        # fallback or, for a level jpc's ladder reaches, the packed
        # triangular solve with that level's own factor U_l, of order its
        # first argument. Each build runs on a fresh model, so the model's
        # lazy solves fall inside the spy too, except jpc's ladder: its one
        # top x top factorization is made before. lsjpc's largest solve is
        # min(l, n), within its certificate l.
        solved = []

        def spy(name, original):
            def recording(a, *args, **kwargs):
                solved.append((name, a if isinstance(a, int) else np.shape(a)[0]))
                return original(a, *args, **kwargs)
            return recording

        monkeypatch.setattr(scipy.linalg, "cho_factor", spy("cholesky", scipy.linalg.cho_factor))
        monkeypatch.setattr(np.linalg, "solve", spy("lu", np.linalg.solve))
        monkeypatch.setattr(scipy.linalg.blas, "dtpsv", spy("triangular", scipy.linalg.blas.dtpsv))
        rng = np.random.default_rng(34)
        builds = dict(FILTER_CONSTRUCTORS)
        builds[FilterKind.WIENER_STRUCTURED] = lambda model, l: wiener_structured(
            model, rng.standard_normal((l, model.m)))
        exact = {FilterKind.WIENER, FilterKind.LRW, FilterKind.JPC,
                 FilterKind.WIENER_STRUCTURED}
        for kind, build in builds.items():
            for l in (1, 2, 6):  # below n, at n and at m, the ladder's top
                model = haar_model(2, 6, ratio=0.7, seed=33)
                assert model.spectral.jpc_ladder.top == 6
                solved.clear()
                filt = build(model, l)
                largest = max((dim for _, dim in solved), default=0)
                if kind in exact:
                    assert largest == filt.max_inverse_dim, (kind, l)
                else:
                    assert largest <= filt.max_inverse_dim, (kind, l)
                if kind is FilterKind.LSJPC:
                    assert largest == min(l, model.n), l
        # c_y is indefinite in float64, so Cholesky fails and LU solves
        solved.clear()
        filt = wiener(haar_model(2, 16, ratio=0.05, seed=0))
        assert solved == [("cholesky", 16), ("lu", 16)]
        assert filt.max_inverse_dim == 16

    def test_every_solve_goes_through_solve_spd(self, monkeypatch):
        # what the traced linalg.solve_spd metrics count: every Cholesky or
        # LU solve a sweepable kind makes, a best search's included, is
        # made by linalg.solve_spd itself
        callers = []

        def spy(name, original):
            def recording(*args, **kwargs):
                callers.append((name, sys._getframe(1).f_code))
                return original(*args, **kwargs)
            return recording

        monkeypatch.setattr(scipy.linalg, "cho_solve", spy("cholesky", scipy.linalg.cho_solve))
        monkeypatch.setattr(np.linalg, "solve", spy("lu", np.linalg.solve))
        # the second c_y is indefinite in float64, so its solves take LU
        for model in (haar_model(2, 6, ratio=0.7, seed=33),
                      haar_model(2, 16, ratio=0.05, seed=0)):
            for build in FILTER_CONSTRUCTORS.values():
                for l in (1, 2, model.m):
                    try:
                        build(model, l)
                    except WclmmseError:
                        pass
        model = haar_model(2, 6, ratio=0.7, seed=33)
        for kind in (FilterKind.JPC, FilterKind.LSJPC):
            assert best_l_search(model, kind)[2] is not None
        assert {name for name, _ in callers} == {"cholesky", "lu"}
        assert {code for _, code in callers} == {linalg.solve_spd.__code__}

    def test_wiener_lower_bounds_all_filters(self):
        for seed in range(8):
            model = haar_model(2, 5, ratio=0.6, seed=seed)
            floor = analytic_mse(model, wiener(model))
            candidates = [lrw(model, 2), csw(model, 2), jpc(model, 2), lsjpc(model, 2),
                          jpc_simplified(model, 2), lsjpc_simplified(model, 2)]
            for filt in candidates:
                assert analytic_mse(model, filt) >= floor - 1e-10
