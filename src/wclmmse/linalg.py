"""Deterministic dense linear-algebra kernels over real matrices.

Thin, reproducibility-minded wrappers around LAPACK (via numpy/scipy):
symmetric eigendecomposition and eigenvalues, SPD inverse square root,
SPD systems (factored by :func:`factor_spd`, solved by :func:`solve_spd`,
Cholesky or LU), condition numbers, and norms.

Determinism conventions
-----------------------
* Eigenvalues are returned in descending order, obtained by reversing
  LAPACK's ascending output, so ties keep the backend's order reversed.
* Each eigenvector is sign-normalized so that its largest-magnitude
  entry is positive, making outputs a pure function of the input bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

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
    absorbs the tiny asymmetry of accumulated empirical covariances.

    Returns eigenvalues in descending order with sign-normalized,
    orthonormal eigenvectors; the output is deterministic for identical
    input bits.
    """
    a = _as_square(a, "sym_eig input")
    vals, vecs = np.linalg.eigh(_symmetric_part(a))
    # eigh returns ascending order; reverse rather than argsort so that
    # repeated eigenvalues come out in reversed backend order.
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1]
    vecs = vecs * _lead_signs(vecs)
    return SymEig(eigenvalues=vals, eigenvectors=vecs)


def sym_eigvals(a) -> NDArray[np.float64]:
    """Eigenvalues of the symmetric part (A + A') / 2 of a square matrix,
    descending; the values :func:`condition_number` reads."""
    a = _as_square(a, "sym_eigvals input")
    return np.linalg.eigvalsh(_symmetric_part(a))[::-1]


def _check_definite(eigenvalues: NDArray[np.float64]) -> None:
    """Raise :class:`SingularMatrixError` when the smallest of descending
    ``eigenvalues`` is at or below 1e-12 times the largest.

    The error carries the offending index and value; that error is
    itself a conditioning diagnostic.
    """
    dim = eigenvalues.shape[0]
    floor = 1e-12 * max(eigenvalues[0], 0.0) if dim else 0.0
    if dim and eigenvalues[-1] <= floor:
        idx = dim - 1
        raise SingularMatrixError(
            f"matrix is numerically singular: eigenvalue[{idx}] = {eigenvalues[idx]:.6e}"
            f" <= floor {floor:.6e}",
            index=idx,
            value=float(eigenvalues[idx]),
        )


def inv_sqrt_spd(a) -> Matrix:
    """Inverse square root of an SPD matrix via its eigendecomposition.

    Returns symmetric B with B @ A @ B = I; raises
    :class:`SingularMatrixError` as :func:`_check_definite` does on the
    eigenvalues of A.
    """
    eig = sym_eig(a)
    _check_definite(eig.eigenvalues)
    v = eig.eigenvectors
    b = (v / np.sqrt(eig.eigenvalues)) @ v.T
    return 0.5 * (b + b.T)


def condition_number(a) -> float:
    """Ratio of largest to smallest eigenvalue of a symmetric PSD matrix.

    Returns +inf when the smallest eigenvalue is nonpositive in floating
    point; an all-zero matrix has no condition number and raises.
    """
    a = _as_square(a, "condition_number input")
    if a.size == 0 or not np.any(a):
        raise UndefinedConditionError("condition number of the zero matrix is undefined")
    return _spectral_condition(sym_eigvals(a))


def _spectral_condition(eigenvalues: NDArray[np.float64]) -> float:
    """:func:`condition_number` from the matrix's descending eigenvalues."""
    lam_max, lam_min = float(eigenvalues[0]), float(eigenvalues[-1])
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
    upper factor of A's leading l x l block. A model's ladders
    (:class:`~wclmmse.model.Ladder`) rest on this: their factor call is
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
