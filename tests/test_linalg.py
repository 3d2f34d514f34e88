"""Kernel tests: eigendecomposition, inverse roots, solves, norms."""

import numpy as np
import pytest
import scipy.linalg

from conftest import ar1_series, haar_model
from wclmmse import (
    CovarianceModel,
    DimensionError,
    NumericInputError,
    SingularMatrixError,
    UndefinedConditionError,
    condition_number,
    factor_spd,
    harness,
    inv_sqrt_spd,
    linalg,
    matrix_norm,
    nuclear_norm,
    solve_spd,
    sym_eig,
)
from wclmmse.linalg import (
    SPDFactor,
    _spd_extremes,
    _spectral_condition,
    spectral_norm,
    sym_eigvals,
)


def random_spd(dim, seed, spread=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return a @ a.T + spread * np.eye(dim)


class TestSymEig:
    def test_identity(self):
        eig = sym_eig(np.eye(3))
        np.testing.assert_allclose(eig.eigenvalues, np.ones(3))
        np.testing.assert_allclose(eig.eigenvectors @ eig.eigenvectors.T, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        eig = sym_eig(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [4.0, 1.0])
        np.testing.assert_allclose(np.abs(eig.eigenvectors), np.eye(2), atol=1e-14)

    def test_reconstruction_random_symmetric(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 5))
        a = 0.5 * (a + a.T)
        eig = sym_eig(a)
        v = eig.eigenvectors
        residual = np.linalg.norm((v * eig.eigenvalues) @ v.T - a)
        assert residual <= 1e-8 * np.linalg.norm(a)

    def test_invariants_across_sizes(self):
        for dim, seed in ((2, 0), (5, 1), (16, 2), (33, 3)):
            a = random_spd(dim, seed)
            eig = sym_eig(a)
            assert np.all(np.diff(eig.eigenvalues) <= 0)
            v = eig.eigenvectors
            assert np.abs(v.T @ v - np.eye(dim)).max() <= 1e-10 * dim
            assert np.linalg.norm((v * eig.eigenvalues) @ v.T - a) <= 1e-8 * np.linalg.norm(a)

    def test_symmetrizes_input(self):
        a = np.array([[2.0, 1.0], [0.0, 2.0]])
        eig = sym_eig(a)
        np.testing.assert_allclose(sorted(eig.eigenvalues), [1.5, 2.5])

    def test_deterministic(self):
        a = random_spd(7, 4)
        first = sym_eig(a)
        second = sym_eig(a.copy())
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_sign_convention(self):
        eig = sym_eig(random_spd(6, 5))
        lead = np.abs(eig.eigenvectors).argmax(axis=0)
        assert np.all(eig.eigenvectors[lead, np.arange(6)] > 0)

    def test_errors(self):
        with pytest.raises(DimensionError):
            sym_eig(np.ones((2, 3)))
        with pytest.raises(NumericInputError):
            sym_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestInvSqrtSpd:
    def test_identity(self):
        np.testing.assert_allclose(inv_sqrt_spd(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        out = inv_sqrt_spd(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)

    def test_multiply_back(self):
        a = random_spd(4, 12)
        b = inv_sqrt_spd(a)
        np.testing.assert_allclose(b @ a @ b, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(b, b.T, atol=1e-14)

    def test_multiply_back_up_to_64(self):
        for dim in (8, 32, 64):
            a = random_spd(dim, dim)
            b = inv_sqrt_spd(a)
            residual = np.linalg.norm(b @ a @ b - np.eye(dim))
            assert residual <= 1e-8 * np.sqrt(dim)

    def test_singular_carries_index_and_value(self):
        a = np.diag([1.0, 1e-15])
        with pytest.raises(SingularMatrixError) as info:
            inv_sqrt_spd(a)
        assert info.value.index == 1
        assert info.value.value == pytest.approx(1e-15)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(np.diag([100.0, 1.0])) == pytest.approx(100.0)

    def test_scale_invariant(self):
        a = random_spd(6, 21)
        base = condition_number(a)
        for c in (1e-7, 3.0, 1e9):
            assert condition_number(c * a) == pytest.approx(base, rel=1e-12)

    def test_zero_matrix(self):
        with pytest.raises(UndefinedConditionError):
            condition_number(np.zeros((3, 3)))

    def test_singular_gives_infinity(self):
        assert condition_number(np.diag([1.0, 0.0])) == np.inf


def _refuse_eigvalsh(monkeypatch):
    """Make any ``sym_eigvals`` call fail, so that a pass shows Lanczos alone ran."""
    def refused(a):
        raise AssertionError("sym_eigvals on the Lanczos path")
    monkeypatch.setattr(linalg, "sym_eigvals", refused)


def _ends(a):
    """(lambda_max, lambda_min) as the ends of ``sym_eigvals``."""
    eigenvalues = sym_eigvals(a)
    return float(eigenvalues[0]), float(eigenvalues[-1])


def _spread_spd(dim, cond, seed=0):
    """A random-basis SPD matrix with eigenvalues log-spaced from 1 to 1 / cond."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    a = (q * np.logspace(0.0, -np.log10(cond), dim)) @ q.T
    return 0.5 * (a + a.T)


def _rank_deficient_gram(dim, rank, seed=0):
    """The Gram of ``rank`` random rows of length ``dim``: singular, so
    that its Cholesky factorization fails in float64."""
    rows = np.random.default_rng(seed).standard_normal((rank, dim))
    return rows.T @ rows


def _model_of(c_y):
    m = c_y.shape[0]
    return CovarianceModel(c_x=np.eye(1), c_y=c_y, c_xy=np.full((1, m), 1e-3))


class TestSpdExtremes:
    """``linalg._spd_extremes``, the (lambda_max, lambda_min) that
    ``condition_number``, ``cond_y`` and the definiteness rule read."""

    @pytest.mark.parametrize("m", [50, 51])
    def test_ar1_toeplitz_condition_matches_eigvalsh(self, monkeypatch, m):
        # an exact AR(1) covariance is persymmetric: a constant start vector
        # is orthogonal to its skew eigenvectors, the seeded random one is not
        a = scipy.linalg.toeplitz(0.95 ** np.arange(m))
        eigenvalues = np.linalg.eigvalsh(a)
        want = eigenvalues[-1] / eigenvalues[0]
        _refuse_eigvalsh(monkeypatch)
        lam_max, lam_min = _spd_extremes(a, factor_spd(a))
        assert lam_max / lam_min == pytest.approx(want, rel=1e-10, abs=0.0)
        assert condition_number(a) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("model", [
        haar_model(7, 200, ratio=0.97, seed=0),
        haar_model(2, 40, ratio=0.9, seed=3),
        harness._prepare(ar1_series(2000, phi=0.95, seed=0), 300, 7, 0)[0],
        harness._prepare(ar1_series(1200, phi=0.98, seed=1), 400, 7, 0)[0],
    ], ids=["haar-0.97-m200", "haar-0.9-m40", "ar1-0.95-m300", "ar1-0.98-m400"])
    def test_each_extreme_matches_eigvalsh(self, monkeypatch, model):
        eigenvalues = np.linalg.eigvalsh(model.c_y)
        assert eigenvalues[-1] / eigenvalues[0] <= 1e8
        _refuse_eigvalsh(monkeypatch)
        lam_max, lam_min = model.spectral.extremes_y
        assert lam_max == pytest.approx(eigenvalues[-1], rel=1e-10, abs=0.0)
        assert lam_min == pytest.approx(eigenvalues[0], rel=1e-10, abs=0.0)
        assert model.spectral.cond_y == condition_number(model.c_y)

    @pytest.mark.parametrize("c_y", [
        _rank_deficient_gram(12, 5),  # its Cholesky fails
        _spread_spd(30, 1e10),
    ], ids=["cholesky-fails", "cond-1e10"])
    def test_off_the_lanczos_path_every_bit_is_the_eigvalsh_path(self, c_y):
        eigenvalues = sym_eigvals(c_y)
        want = _spectral_condition(eigenvalues)
        model = _model_of(c_y)
        assert model.spectral.extremes_y == _ends(c_y)
        assert model.spectral.cond_y == want
        assert condition_number(c_y) == want
        if eigenvalues[-1] > 1e-12 * eigenvalues[0]:
            assert factor_spd(c_y).cholesky is not None and want > 1e8
            model.spectral.eig_wiener  # definite: no error
            return
        assert factor_spd(c_y).cholesky is None
        with pytest.raises(SingularMatrixError) as info:
            model.spectral.eig_wiener
        assert info.value.index == c_y.shape[0] - 1
        assert info.value.value == float(eigenvalues[-1])

    def test_unconverged_lanczos_takes_the_eigvalsh_path(self, monkeypatch):
        a = scipy.linalg.toeplitz(0.95 ** np.arange(50))
        monkeypatch.setattr(linalg, "_LANCZOS_STEPS", 3)
        assert _spd_extremes(a, factor_spd(a)) == _ends(a)

    def test_two_calls_give_the_same_bits(self):
        a = harness._prepare(ar1_series(2000, phi=0.95, seed=0), 300, 7, 0)[0].c_y
        assert _spd_extremes(a, factor_spd(a)) == _spd_extremes(a, factor_spd(a))
        assert condition_number(a) == condition_number(a.copy())
        fresh = [CovarianceModel(np.eye(1), a, np.zeros((1, 300))).spectral.cond_y
                 for _ in range(2)]
        assert fresh == [condition_number(a)] * 2


class TestSolveSpd:
    def test_identity(self):
        rng = np.random.default_rng(31)
        b = rng.standard_normal((3, 2))
        np.testing.assert_allclose(solve_spd(factor_spd(np.eye(3)), b), b, atol=1e-14)

    def test_diagonal_vector(self):
        out = solve_spd(factor_spd(np.diag([2.0, 4.0])), np.array([2.0, 4.0]))
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-14)

    def test_against_explicit_inverse(self):
        a = random_spd(6, 32)
        rng = np.random.default_rng(33)
        b = rng.standard_normal((6, 3))
        expected = np.linalg.inv(a) @ b
        got = solve_spd(factor_spd(a), b)
        assert np.linalg.norm(a @ got - b) <= 1e-8 * np.linalg.norm(b)
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_matches_inverse_all_small_dims(self):
        for dim in range(1, 9):
            a = random_spd(dim, 100 + dim)
            rng = np.random.default_rng(200 + dim)
            b = rng.standard_normal((dim, 2))
            expected = np.linalg.inv(a) @ b
            got = solve_spd(factor_spd(a), b)
            assert np.linalg.norm(got - expected) <= 1e-8 * max(1.0, np.linalg.norm(expected))

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_spd(factor_spd(np.diag([1.0, 0.0])), np.ones(2))

    def test_indefinite_falls_back_to_lu(self):
        a = np.diag([1.0, -1.0])
        out = solve_spd(factor_spd(a), np.array([2.0, 2.0]))
        np.testing.assert_allclose(out, [2.0, -2.0], atol=1e-12)


class TestFactorThenSolve:
    # a system factored once gives, in every solve, the bits of a solve
    # that factors it afresh

    def test_spd_takes_cholesky(self):
        a = random_spd(7, 51)
        b = np.random.default_rng(52).standard_normal((7, 3))
        factor = factor_spd(a)
        assert factor.cholesky is not None
        direct = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), b)
        for rhs in (b, b[:, 0]):
            assert np.array_equal(solve_spd(factor, rhs), solve_spd(factor_spd(a), rhs))
        assert np.array_equal(solve_spd(factor, b), direct)

    def test_indefinite_takes_lu(self):
        # c_y is indefinite in float64, so Cholesky fails
        c_y = haar_model(2, 16, ratio=0.05, seed=0).c_y
        b = np.random.default_rng(53).standard_normal((16, 2))
        factor = factor_spd(c_y)
        assert factor.cholesky is None
        assert np.array_equal(solve_spd(factor, b), np.linalg.solve(c_y, b))

    def test_singular_raises_as_solve_spd_does(self):
        # on the LU path too, every solve of a factored system raises alike
        a, b = np.diag([1.0, 0.0]), np.ones(2)
        factor = factor_spd(a)
        assert factor.cholesky is None
        with pytest.raises(SingularMatrixError) as first:
            solve_spd(factor, b)
        with pytest.raises(SingularMatrixError) as second:
            solve_spd(factor, b[:, None])
        assert str(second.value) == str(first.value)

    def test_rhs_checked_against_the_factored_dimension(self):
        factor = factor_spd(np.eye(3))
        with pytest.raises(DimensionError):
            solve_spd(factor, np.ones(2))
        with pytest.raises(NumericInputError):
            solve_spd(factor, np.array([1.0, np.nan, 0.0]))

    def test_dim_is_read_from_the_factor_or_the_matrix(self):
        assert factor_spd(random_spd(4, 54)).dim == 4
        assert factor_spd(np.diag([1.0, -1.0, 2.0])).dim == 3

    def test_leading_block_of_a_factor_factors_the_leading_block(self):
        a = random_spd(6, 55)
        b = np.random.default_rng(56).standard_normal((4, 2))
        block = SPDFactor((factor_spd(a).cholesky[0][:4, :4], False))
        assert block.dim == 4
        np.testing.assert_allclose(solve_spd(block, b), np.linalg.solve(a[:4, :4], b),
                                   rtol=1e-10)


class TestNorms:
    def test_zero(self):
        assert nuclear_norm(np.zeros((3, 4))) == 0.0

    def test_diagonal(self):
        assert nuclear_norm(np.diag([3.0, 4.0])) == pytest.approx(7.0)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(41)
        u = rng.standard_normal(4)
        v = rng.standard_normal(6)
        got = nuclear_norm(np.outer(u, v))
        assert got == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)

    def test_matrix_norm_kinds(self):
        a = np.diag([3.0, 4.0])
        assert matrix_norm(a, "nuclear") == pytest.approx(7.0)
        assert matrix_norm(a, "frobenius") == pytest.approx(5.0)
        with pytest.raises(ValueError):
            matrix_norm(a, "spectral")

    def test_spectral_norm(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
        assert spectral_norm(np.zeros((0, 3))) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(NumericInputError):
            nuclear_norm(np.array([[np.inf, 0.0]]))
