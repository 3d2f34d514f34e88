"""Analytic error metrics and convergence diagnostics.

Covers the closed-form mean square error and its weighted-trace /
determinant generalizations, the truncation-power loss of a spectrum,
convergence-vs-loss scaling studies against the unconstrained filter,
and a grid line search for the truncation level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionError, RankError, SingularMatrixError, WclmmseError
from .filters import (
    FILTER_CONSTRUCTORS,
    FilterKind,
    LinearFilter,
    _csw_ranking,
    _effective_level,
    _ladder,
    wiener,
)
from .linalg import matrix_norm
from .model import CovarianceModel, _search_grid

__all__ = [
    "ScalingStudy",
    "analytic_mse",
    "weighted_trace_objective",
    "det_objective",
    "error_covariance",
    "truncation_power_loss",
    "filter_power_loss",
    "scaling_study",
    "best_l_search",
]

# Distances below this relative floor mean the filter has already
# converged to the reference; the loss ratio is reported as 0 there.
_CONVERGED_RTOL = 1e-10
# How far, relative to tr(c_x), best_l_search trusts an MSE profile value
# to sit from the analytic MSE of the built filter: the tolerance to
# which the benchmark checks analytic_mse itself.
_PROFILE_ATOL = 1e-8
# A level whose rank margin sigma_min(Y_l)^2 is at or below this is always
# built: its build solves a system of condition at least 1/margin, so the
# build's own rounding can move its MSE by more than _PROFILE_ATOL.
_TRUSTED_MARGIN = np.finfo(np.float64).eps / _PROFILE_ATOL


def _matrix_of(filt) -> NDArray[np.float64]:
    a = filt.matrix if isinstance(filt, LinearFilter) else np.asarray(filt, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError("filter must be a matrix")
    return a


def _check_shape(model: CovarianceModel, a: np.ndarray) -> None:
    if a.shape != (model.n, model.m):
        raise DimensionError(
            f"filter has shape {a.shape}, expected {(model.n, model.m)}")


def analytic_mse(model: CovarianceModel, filt) -> float:
    """Mean square error tr(c_x) - 2 tr(c_xy A') + tr(A c_y A')."""
    a = _matrix_of(filt)
    _check_shape(model, a)
    return _mse(model, a)


def _mse(model: CovarianceModel, a: NDArray[np.float64]) -> float:
    cross = float(np.einsum("ij,ij->", model.c_xy, a))
    quad = float(np.einsum("ij,ij->", a @ model.c_y, a))
    return float(np.trace(model.c_x)) - 2.0 * cross + quad


def error_covariance(model: CovarianceModel, filt) -> NDArray[np.float64]:
    """Covariance of the estimation error A y - x."""
    a = _matrix_of(filt)
    _check_shape(model, a)
    ac = a @ model.c_xy.T
    c_err = model.c_x - ac - ac.T + a @ model.c_y @ a.T
    return 0.5 * (c_err + c_err.T)


def weighted_trace_objective(model: CovarianceModel, filt, g) -> float:
    """tr(g'g @ C_err): the mean square error of the g-weighted residual."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape[1] != model.n:
        raise DimensionError(f"weight has {g.shape[1]} columns, expected {model.n}")
    c_err = error_covariance(model, filt)
    return float(np.einsum("ij,ij->", g.T @ g, c_err))


def det_objective(model: CovarianceModel, filt) -> float:
    """Determinant of the error covariance, via its eigenvalue product.

    The error covariance is PSD for any filter; eigenvalues below
    -1e-10 relative indicate a numerical problem and raise.
    """
    c_err = error_covariance(model, filt)
    vals = np.linalg.eigvalsh(c_err)
    lam_max = max(float(vals[-1]), 0.0)
    if vals.size and float(vals[0]) < -1e-10 * max(lam_max, 1.0):
        raise WclmmseError(
            f"error covariance is not PSD: smallest eigenvalue {vals[0]:.3e}")
    return float(np.prod(np.clip(vals, 0.0, None)))


def truncation_power_loss(spectrum, l: int) -> float:
    """Spectrum mass discarded by keeping the leading l components of a
    1-D spectrum."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.ndim != 1:
        raise DimensionError("spectrum must be 1-D")
    if not 1 <= l <= spectrum.shape[0]:
        raise DimensionError(
            f"truncation level l={l} outside [1, {spectrum.shape[0]}]")
    return float(spectrum[l:].sum())


def filter_power_loss(model: CovarianceModel, kind: FilterKind, l: int) -> float:
    """Truncation-power loss of the spectrum a filter kind truncates at level l.

    ``lrw`` discards the singular values of the whitened cross-covariance
    c_xy c_y^-1/2, the square roots of the eigenvalues of c_xy c_y^-1 c_xy',
    beyond its effective truncation min(l, n). ``csw`` discards, in the
    same units, the whitened cross-covariance's column norms
    ``norm(c_xy @ q_i) / sqrt(lambda_i)`` of the c_y eigendirections it
    does not keep; both raise as the filter does on a c_y too singular to
    invert. Every other kind discards the joint-eigenvalue tail beyond l.
    """
    if kind is FilterKind.LRW:
        power = np.clip(model.spectral.eig_wiener.eigenvalues, 0.0, None)
        return truncation_power_loss(np.sqrt(power), _effective_level(model, kind, l))
    if kind is FilterKind.CSW:
        _, _, scores, order = _csw_ranking(model)
        return truncation_power_loss(np.sqrt(scores[order]), l)
    return truncation_power_loss(model.spectral.eig_z.eigenvalues, l)


@dataclass
class ScalingStudy:
    """Convergence-to-unconstrained data over a truncation grid.

    One row per level l: the truncation-power loss, the distance of the
    truncated filter from the unconstrained one in the chosen norm, the
    mean-square-error gap, and the Y-block Gram defect. ``slope`` is the
    through-origin fit of distance against loss; ``max_ratio`` the
    largest distance/loss ratio on the grid (0 where the loss is zero
    and the filter has converged).
    """

    kind: FilterKind
    norm: str
    l: NDArray[np.intp]
    rho_l: NDArray[np.float64]
    dist: NDArray[np.float64]
    mse_gap: NDArray[np.float64]
    gram_defect: NDArray[np.float64]
    slope: float = field(default=0.0)
    max_ratio: float = field(default=0.0)

    def __post_init__(self) -> None:
        if not np.all(np.diff(self.l) > 0):
            raise DimensionError("grid levels must be strictly increasing")
        if np.any(np.diff(self.rho_l) > 1e-12 * max(self.rho_l.max(initial=0.0), 1.0)):
            raise WclmmseError("truncation-power loss must be non-increasing in l")

    def ratios(self, converged_floor: float) -> NDArray[np.float64]:
        """dist / rho_l with the zero-loss convention described above."""
        out = np.empty_like(self.dist)
        for i, (d, r) in enumerate(zip(self.dist, self.rho_l)):
            if r > 0.0:
                out[i] = d / r
            else:
                out[i] = 0.0 if d <= converged_floor else np.inf
        return out


def scaling_study(model: CovarianceModel, filter_kind: FilterKind,
                  l_grid, norm: str = "nuclear") -> ScalingStudy:
    """Measure how fast a truncated filter approaches the unconstrained one.

    For each level on the grid, records the truncation-power loss that
    :func:`filter_power_loss` gives, the filter's distance to the
    unconstrained filter, the MSE gap, and the Gram defect of the
    Y-block basis.
    """
    filter_kind = FilterKind(filter_kind)
    if filter_kind not in FILTER_CONSTRUCTORS or filter_kind is FilterKind.WIENER:
        raise ValueError(f"scaling study undefined for kind {filter_kind}")
    grid = np.asarray(list(l_grid), dtype=np.intp)
    if grid.size == 0:
        raise DimensionError("empty truncation grid")
    reference = wiener(model)
    ref_mse = analytic_mse(model, reference)
    ref_norm = matrix_norm(reference.matrix, norm)
    constructor = FILTER_CONSTRUCTORS[filter_kind]

    rho = np.empty(grid.size)
    dist = np.empty(grid.size)
    gap = np.empty(grid.size)
    gram = np.empty(grid.size)
    for i, l in enumerate(grid):
        filt = constructor(model, int(l))
        rho[i] = filter_power_loss(model, filter_kind, int(l))
        dist[i] = matrix_norm(filt.matrix - reference.matrix, norm)
        gap[i] = analytic_mse(model, filt) - ref_mse
        gram[i] = model.spectral.gram_defect(int(l))

    study = ScalingStudy(kind=filter_kind, norm=norm, l=grid, rho_l=rho,
                         dist=dist, mse_gap=gap, gram_defect=gram)
    denom = float(np.dot(rho, rho))
    study.slope = float(np.dot(rho, dist) / denom) if denom > 0.0 else 0.0
    floor = _CONVERGED_RTOL * max(ref_norm, 1.0)
    ratios = study.ratios(converged_floor=floor)
    study.max_ratio = float(ratios.max()) if ratios.size else 0.0
    return study


def _mse_profile(model: CovarianceModel, kind: FilterKind, levels: list[int]
                 ) -> list[float] | None:
    """Exact-arithmetic analytic MSE of ``jpc`` or ``lsjpc`` at each of
    ``levels`` (none above the top), from the model's ladder for the kind
    (:class:`~wclmmse.model.Ladder`); see :func:`best_l_search`. None
    when the ladder's Cholesky failed.

    With the ladder's ``z = U^-T B``, the ``jpc`` MSE at l is ``tr(c_x)``
    minus the sum of the first l squared row norms of z. ``lsjpc`` is
    scored as the n x m matrix ``(U_l^-1 z[:l])' Y_l'``, the ladder's
    build, because expanding its quadratic form through the Gram
    multiplies the rounding of ``Y_l'(.)Y_l`` by ``S_l^-1``, which is
    large along Y_l's near-null directions.
    """
    ladder = _ladder(model, kind)
    if ladder.z is None:
        return None
    if kind is FilterKind.JPC:
        explained = np.cumsum(np.einsum("ij,ij->i", ladder.z, ladder.z))
        at = np.array(levels, dtype=np.intp) - 1
        return (float(np.trace(model.c_x)) - explained[at]).tolist()
    return [_mse(model, ladder.solve(l).T @ model.spectral.y_block(l).T) for l in levels]


def _build_order(model: CovarianceModel, kind: FilterKind, grid: range
                 ) -> list[tuple[float, int]]:
    """The grid levels that pass the rank check, as sorted (p(l), l) pairs.

    p(l) is the :func:`_mse_profile`, or -inf where it cannot predict the
    build to ``_PROFILE_ATOL``: at a rank margin of ``_TRUSTED_MARGIN`` or
    less, and at every level when the ladder's factorization fails.
    """
    margins = {}
    for l in grid:
        try:
            margins[l] = model.spectral.check_y_rank(l)
        except RankError:
            pass
    profile = _mse_profile(model, kind, list(margins))
    if profile is None:
        return [(-np.inf, l) for l in margins]
    return sorted((p if np.isfinite(p) and margin > _TRUSTED_MARGIN else -np.inf, l)
                  for p, (l, margin) in zip(profile, margins.items()))


def best_l_search(model: CovarianceModel, filter_kind: FilterKind
                  ) -> tuple[int, float, LinearFilter | None]:
    """Grid line search for the truncation level with smallest analytic MSE.

    The grid runs from min(max(1, n), m) up to m in steps of
    max(1, m // 16), so it is never empty. Evaluates the closed-form MSE
    on the (training) covariances; ties go to the smaller level, which is
    cheaper and better conditioned. Returns the level, its MSE and the
    filter built there, so that a caller never builds it again. A level
    whose filter cannot be built (singular or rank-deficient) is skipped;
    when none can be, the grid's first level comes back with an infinite
    MSE and no filter. ``wiener`` has no level and is refused, as is any
    kind outside ``FILTER_CONSTRUCTORS``.

    The returned level and MSE always come from a build by the kind's
    constructor, scored by :func:`analytic_mse`, so they are those of a
    fixed-level build there; other levels are only left unbuilt when they
    cannot win. A level whose effective truncation equals that of a level
    already tried (``lrw`` from n up) is not built again. Other kinds
    build levels in grid order. ``jpc`` and ``lsjpc`` first compute the
    exact-arithmetic MSE profile p(l) at every grid level that passes the
    rank check (:func:`_mse_profile`), from the model's one ladder for
    the kind (:class:`~wclmmse.model.Ladder`), which their builds read
    too. They then build levels in increasing (p(l), l) and stop at the
    first whose p(l) exceeds the best MSE built so far by more than
    1e-8 tr(c_x), the tolerance to which p(l) predicts a build. Levels it
    cannot predict to that tolerance come first and are always built:
    those with a rank margin sigma_min(Y_l)^2 at or below eps / 1e-8, and
    all of them when the ladder's factorization fails.
    """
    filter_kind = FilterKind(filter_kind)
    if filter_kind not in FILTER_CONSTRUCTORS or filter_kind is FilterKind.WIENER:
        raise ValueError(f"truncation-level search undefined for kind {filter_kind}")
    grid = _search_grid(model)
    constructor = FILTER_CONSTRUCTORS[filter_kind]
    order = [(-np.inf, l) for l in grid]
    if filter_kind in (FilterKind.JPC, FilterKind.LSJPC):
        order = _build_order(model, filter_kind, grid)
    slack = _PROFILE_ATOL * float(np.trace(model.c_x))
    best_l, best_mse, best_filt = grid[0], np.inf, None
    tried = set()
    for p, l in order:
        if p > best_mse + slack:
            break
        level = _effective_level(model, filter_kind, l)
        if level in tried:
            continue
        tried.add(level)
        try:
            filt = constructor(model, l)
        except (SingularMatrixError, RankError):
            continue
        mse = analytic_mse(model, filt)
        if mse < best_mse or (mse == best_mse and l < best_l):
            best_l, best_mse, best_filt = l, mse, filt
    return best_l, float(best_mse), best_filt
