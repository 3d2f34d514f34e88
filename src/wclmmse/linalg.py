"""Deterministic dense linear-algebra kernels over real matrices.

Thin, reproducibility-minded wrappers around LAPACK (via numpy/scipy):
symmetric eigendecomposition and eigenvalues, SPD inverse square root,
SPD systems (factored by :func:`factor_spd`, solved by :func:`solve_spd`,
Cholesky or LU), the two extreme eigenvalues by Lanczos, condition
numbers, and norms.

Determinism conventions
-----------------------
* Eigenvalues are returned in descending order, obtained by reversing
  LAPACK's ascending output, so ties keep the backend's order reversed.
* Each eigenvector is sign-normalized so that its largest-magnitude
  entry is positive, making outputs a pure function of the input bits.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray
from scipy.linalg.blas import dtrsv

from .errors import (
    DimensionError,
    NumericInputError,
    SingularMatrixError,
    UndefinedConditionError,
)

__all__ = [
    "SymEig",
    "sym_eig",
    "sym_eigvals",
    "inv_sqrt_spd",
    "condition_number",
    "SPDFactor",
    "factor_spd",
    "solve_spd",
    "nuclear_norm",
    "spectral_norm",
    "matrix_norm",
]

Matrix = NDArray[np.float64]

# Lanczos steps after which _spd_extremes gives up on a run and decomposes.
_LANCZOS_STEPS = 300
# The largest condition number _spd_extremes takes from Lanczos. Below it
# the inverse's rounding, up to eps * cond relative, stays far inside the
# 1e-6 relative tolerance the benchmark gives cond_cy.
_LANCZOS_COND = 1e8


def _as_matrix(a, name: str = "matrix") -> Matrix:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise NumericInputError(f"{name} contains non-finite entries")
    return out


def _as_square(a, name: str = "matrix") -> Matrix:
    out = _as_matrix(a, name)
    if out.shape[0] != out.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {out.shape}")
    return out


def _as_count(value, name: str, low: int, high: float = np.inf) -> int:
    """``value`` as an int in [low, high], the rule for every count; else DimensionError."""
    try:
        count = operator.index(value)
    except TypeError:
        raise DimensionError(f"{name}={value!r} is not an integer") from None
    if not low <= count <= high:
        raise DimensionError(f"{name}={count} outside [{low}, {high}]")
    return count


def _count_grid(values, grid: str, name: str, low: int, high: float = np.inf) -> list[int]:
    """The entries of a nonempty ``grid``, each a count by :func:`_as_count`."""
    counts = [_as_count(v, name, low, high) for v in values]
    if not counts:
        raise DimensionError(f"empty {grid} grid")
    return counts


def _lead_signs(vectors: Matrix) -> NDArray[np.float64]:
    """The +-1 per column that makes its largest-magnitude entry positive."""
    if vectors.size == 0:
        return np.ones(vectors.shape[1])
    lead = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def _symmetric_part(a: Matrix) -> Matrix:
    """(A + A') / 2, halved in place: one temporary the size of A, and the
    bits of ``0.5 * (a + a.T)``."""
    sym = a + a.T
    sym *= 0.5
    return sym


@dataclass
class SymEig:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    eigenvalues: NDArray[np.float64]
    eigenvectors: Matrix


def sym_eig(a) -> SymEig:
    """Eigendecomposition of the symmetric part of a square matrix.

    The input is symmetrized as (A + A') / 2 before decomposition, which
    absorbs the tiny asymmetry of accumulated empirical covariances. An
    input that equals its transpose bit for bit is its own symmetric part
    and is decomposed as it is, with no copy; the bits are compared as
    int64, so a 0.0 facing a -0.0, which (A + A') / 2 turns into 0.0,
    still takes the copy.

    Returns eigenvalues in descending order with sign-normalized,
    orthonormal eigenvectors; the output is deterministic for identical
    input bits.
    """
    a = _as_square(a, "sym_eig input")
    bits = a.view(np.int64)
    vals, vecs = np.linalg.eigh(a if np.array_equal(bits, bits.T) else _symmetric_part(a))
    # eigh returns ascending order; reverse rather than argsort so that
    # repeated eigenvalues come out in reversed backend order.
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1]
    vecs = vecs * _lead_signs(vecs)
    return SymEig(eigenvalues=vals, eigenvectors=vecs)


def sym_eigvals(a) -> NDArray[np.float64]:
    """Eigenvalues of the symmetric part (A + A') / 2 of a square matrix,
    descending; :func:`_spd_extremes` reads their ends where Lanczos cannot."""
    a = _as_square(a, "sym_eigvals input")
    return np.linalg.eigvalsh(_symmetric_part(a))[::-1]


def _check_definite(extremes, dim: int) -> None:
    """Raise :class:`SingularMatrixError` when the smallest eigenvalue of a
    dim x dim matrix is at or below 1e-12 times the largest; ``extremes``
    holds the largest first and the smallest last, as its descending
    eigenvalues or :func:`_spd_extremes`' pair do.

    The error carries the offending index, dim - 1, and value; that error
    is itself a conditioning diagnostic.
    """
    floor = 1e-12 * max(extremes[0], 0.0) if dim else 0.0
    if dim and extremes[-1] <= floor:
        idx = dim - 1
        raise SingularMatrixError(
            f"matrix is numerically singular: eigenvalue[{idx}] = {extremes[-1]:.6e}"
            f" <= floor {floor:.6e}",
            index=idx,
            value=float(extremes[-1]),
        )


def inv_sqrt_spd(a) -> Matrix:
    """Inverse square root of an SPD matrix via its eigendecomposition.

    Returns symmetric B with B @ A @ B = I; raises
    :class:`SingularMatrixError` as :func:`_check_definite` does on the
    eigenvalues of A.
    """
    eig = sym_eig(a)
    _check_definite(eig.eigenvalues, eig.eigenvalues.shape[0])
    v = eig.eigenvectors
    return _symmetric_part((v / np.sqrt(eig.eigenvalues)) @ v.T)


def condition_number(a) -> float:
    """Ratio of largest to smallest eigenvalue of the symmetric part
    (A + A') / 2 of a square PSD matrix, from :func:`_spd_extremes`.

    Returns +inf when the smallest eigenvalue is nonpositive in floating
    point; an all-zero matrix has no condition number and raises.
    """
    a = _as_square(a, "condition_number input")
    if a.size == 0 or not np.any(a):
        raise UndefinedConditionError("condition number of the zero matrix is undefined")
    sym = _symmetric_part(a)
    return _spectral_condition(_spd_extremes(sym, factor_spd(sym)))


def _spectral_condition(extremes) -> float:
    """:func:`condition_number` from the largest and the smallest eigenvalue,
    first and last in ``extremes``."""
    lam_max, lam_min = float(extremes[0]), float(extremes[-1])
    if lam_max <= 0.0:
        raise UndefinedConditionError("matrix has no positive eigenvalue")
    if lam_min <= 0.0:
        return float("inf")
    return lam_max / lam_min


@dataclass(frozen=True)
class SPDFactor:
    """A square system A as :func:`factor_spd` factors it, for any number
    of :func:`solve_spd` calls: ``cholesky`` is ``scipy.linalg.cho_factor``'s
    upper factor of A, or None where that fails; ``lhs`` then keeps A for
    the LU solve that :func:`solve_spd` falls back to.

    The leading l x l block u[:l, :l] of an upper factor u of A is the
    upper factor of A's leading l x l block. ``jpc``'s ladder
    (:class:`~wclmmse.model.Ladder`) rests on this: its factor call is
    top x top, but level l reads only u[:l, :l], the factor of its own
    l x l system."""

    cholesky: tuple[Matrix, bool] | None
    lhs: Matrix | None = None

    @property
    def dim(self) -> int:
        return (self.lhs if self.cholesky is None else self.cholesky[0]).shape[0]


def factor_spd(a) -> SPDFactor:
    """The one factor step of an SPD system: an upper Cholesky factor of A,
    or, where A is not positive definite in floating point, A itself for
    :func:`solve_spd`'s LU solve."""
    a = _as_square(a, "solve_spd lhs")
    try:
        return SPDFactor(scipy.linalg.cho_factor(a, check_finite=False))
    except scipy.linalg.LinAlgError:
        return SPDFactor(None, a)


def solve_spd(system: SPDFactor, b) -> Matrix:
    """The one solve step: X with A @ X = B, for the system A that
    :func:`factor_spd` factored, without forming an explicit inverse.

    Solves through the Cholesky factor. Inputs that violate the SPD
    assumption but are still invertible fall back to an LU solve (this
    best-effort path is what covariance-perturbation studies exercise);
    numerically singular systems raise :class:`SingularMatrixError`.
    """
    b = np.asarray(b, dtype=np.float64)
    rhs = b if b.ndim == 2 else b.reshape(-1, 1)
    if rhs.shape[0] != system.dim:
        raise DimensionError(f"rhs has {rhs.shape[0]} rows, expected {system.dim}")
    if not np.all(np.isfinite(rhs)):
        raise NumericInputError("solve_spd rhs contains non-finite entries")
    if system.cholesky is not None:
        x = scipy.linalg.cho_solve(system.cholesky, rhs, check_finite=False)
    else:
        try:
            x = np.linalg.solve(system.lhs, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"linear system is singular: {exc}") from exc
    return x if b.ndim == 2 else x.ravel()


def _lanczos_top(apply, dim: int) -> float | None:
    """The largest eigenvalue of the symmetric dim x dim operator ``apply``
    by Lanczos (Golub & Van Loan, *Matrix Computations*, 4th ed., 10.1),
    or None when it has not converged within ``_LANCZOS_STEPS`` steps.

    The basis is kept as rows and each new vector is orthogonalized
    against all of them twice. The start is a seeded Gaussian vector
    (Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl. 13(4), 1992),
    so it is not orthogonal to the top eigenvector by any symmetry of the
    matrix, as a constant start is to every skew one of a persymmetric
    matrix. It stops once the top Ritz pair (theta, s) of the tridiagonal
    has the residual beta |s_k| <= 1e-10 theta.
    """
    start = np.random.default_rng(0).standard_normal(dim)
    basis = np.empty((min(_LANCZOS_STEPS, dim), dim))
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = np.empty(basis.shape[0]), np.empty(basis.shape[0])
    for k in range(basis.shape[0]):
        w = apply(basis[k])
        alpha[k] = 0.0
        for _ in range(2):
            h = basis[: k + 1] @ w
            w -= h @ basis[: k + 1]
            alpha[k] += h[k]
        beta[k] = np.linalg.norm(w)
        theta, s = scipy.linalg.eigh_tridiagonal(alpha[: k + 1], beta[:k], select="i",
                                                 select_range=(k, k), check_finite=False)
        if beta[k] * abs(s[k, 0]) <= 1e-10 * theta[0]:
            return float(theta[0])
        if k + 1 < basis.shape[0]:
            basis[k + 1] = w / beta[k]
    return None


def _spd_extremes(a: Matrix, system: SPDFactor) -> tuple[float, float]:
    """(lambda_max, lambda_min) of the symmetric matrix ``a``, the two
    eigenvalues that :func:`condition_number`, ``cond_y`` and the
    definiteness rule read.

    Where ``system``, :func:`factor_spd` of ``a``, has a Cholesky factor
    U, they come from two Lanczos runs (:func:`_lanczos_top`): on ``a``
    for lambda_max, and on a^-1, applied as two triangular solves with U,
    for 1 / lambda_min. Where the Cholesky failed, a run has not
    converged, or the ratio of the two is above ``_LANCZOS_COND``, they
    are the ends of :func:`sym_eigvals`, bit for bit.
    """
    if system.cholesky is not None:
        u = system.cholesky[0]
        lam_max = _lanczos_top(lambda v: a @ v, a.shape[0])
        inv_min = lam_max and _lanczos_top(lambda v: dtrsv(u, dtrsv(u, v, trans=1)), a.shape[0])
        if inv_min and lam_max * inv_min <= _LANCZOS_COND:
            return lam_max, 1.0 / inv_min
    eigenvalues = sym_eigvals(a)
    return float(eigenvalues[0]), float(eigenvalues[-1])


def nuclear_norm(a) -> float:
    """Sum of singular values."""
    a = _as_matrix(a, "nuclear_norm input")
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False).sum())


def spectral_norm(a) -> float:
    """Largest singular value; 0 for an empty matrix."""
    a = _as_matrix(a, "spectral_norm input")
    return float(np.linalg.svd(a, compute_uv=False).max(initial=0.0))


def matrix_norm(a, kind: str = "nuclear") -> float:
    """Submultiplicative matrix norm: ``"nuclear"`` or ``"frobenius"``."""
    if kind == "nuclear":
        return nuclear_norm(a)
    if kind == "frobenius":
        a = _as_matrix(a, "matrix_norm input")
        return float(np.linalg.norm(a))
    raise ValueError(f"unknown norm kind: {kind!r}")
