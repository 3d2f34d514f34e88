"""Analytic error metrics and convergence diagnostics.

Covers the closed-form mean square error and its weighted-trace /
determinant generalizations, the truncation-power loss of a spectrum,
convergence-vs-loss scaling studies against the unconstrained filter,
and a grid line search for the truncation level.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionError, RankError, SingularMatrixError, WclmmseError
from .filters import (
    FILTER_CONSTRUCTORS,
    _LEVELED_KINDS,
    FilterKind,
    LinearFilter,
    _effective_level,
    _kind,
    _lsjpc_system,
    _stacked,
    wiener,
)
from .linalg import _as_count, _count_grid, _symmetric_part, matrix_norm, solve_spd
from .model import _MSE_ATOL, CovarianceModel, _search_grid

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


def _matrix_of(filt) -> NDArray[np.float64]:
    a = filt.matrix if isinstance(filt, LinearFilter) else np.asarray(filt, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError("filter must be a matrix")
    return a


def _check_shape(model: CovarianceModel, a: np.ndarray) -> None:
    if a.shape != (model.n, model.m):
        raise DimensionError(
            f"filter has shape {a.shape}, expected {(model.n, model.m)}")


def analytic_mse(model: CovarianceModel, filt) -> float | list[float]:
    """Mean square error tr(c_x) - 2 tr(c_xy A') + tr(A c_y A').

    ``filt`` is one filter (a :class:`LinearFilter` or any N x M array-like,
    nested lists included), or a sequence of filters of that shape, for
    which one MSE per filter comes back, in order. The products A c_y of
    all of them are one product of their stacked matrices with c_y; a
    single filter is the stack of one. An empty sequence, or filters of
    mixed shapes, raise :class:`DimensionError`.
    """
    one = isinstance(filt, LinearFilter) or np.ndim(filt[:1]) == 2  # 2-D: row 0 is 1 x M
    matrices = [_matrix_of(f) for f in ([filt] if one else filt)]
    stack = _stacked(matrices)
    _check_shape(model, matrices[0])
    n, trace = model.n, float(np.trace(model.c_x))
    quads = stack @ model.c_y
    mse = [trace - 2.0 * float(np.einsum("ij,ij->", model.c_xy, a))
           + float(np.einsum("ij,ij->", quads[i * n:(i + 1) * n], a))
           for i, a in enumerate(matrices)]
    return mse[0] if one else mse


def _error_terms(model: CovarianceModel, filt) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The covariance of the estimation error A y - x, and its term A c_y A'."""
    a = _matrix_of(filt)
    _check_shape(model, a)
    ac = a @ model.c_xy.T
    quad = a @ model.c_y @ a.T
    return _symmetric_part(model.c_x - ac - ac.T + quad), quad


def error_covariance(model: CovarianceModel, filt) -> NDArray[np.float64]:
    """Covariance of the estimation error A y - x."""
    return _error_terms(model, filt)[0]


def weighted_trace_objective(model: CovarianceModel, filt, g) -> float:
    """tr(g'g @ C_err): the mean square error of the g-weighted residual."""
    g = np.asarray(g, dtype=np.float64)
    if g.shape[1] != model.n:
        raise DimensionError(f"weight has {g.shape[1]} columns, expected {model.n}")
    c_err = error_covariance(model, filt)
    return float(np.einsum("ij,ij->", g.T @ g, c_err))


def det_objective(model: CovarianceModel, filt) -> float:
    """Determinant of the error covariance, via its eigenvalue product.

    The error covariance is PSD for any filter on a PSD model, and its
    rounding scales with the terms it sums: an eigenvalue below -1e-10 times
    max(max diag c_x, max diag A c_y A') shows a numerical problem or a
    model that is not PSD, and raises.
    """
    c_err, quad = _error_terms(model, filt)
    vals = np.linalg.eigvalsh(c_err)
    scale = max(np.diag(model.c_x).max(initial=0.0), np.diag(quad).max(initial=0.0))
    if vals.size and float(vals[0]) < -1e-10 * scale:
        raise WclmmseError(
            f"error covariance is not PSD: smallest eigenvalue {vals[0]:.3e}")
    return float(np.prod(np.clip(vals, 0.0, None)))


def truncation_power_loss(spectrum, l: int) -> float:
    """Spectrum mass discarded by keeping the leading l components of a
    1-D spectrum."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.ndim != 1:
        raise DimensionError("spectrum must be 1-D")
    return float(spectrum[_as_count(l, "truncation level l", 1, spectrum.shape[0]):].sum())


def filter_power_loss(model: CovarianceModel, kind: FilterKind, l: int) -> float:
    """Truncation-power loss of the spectrum a filter kind truncates at level l.

    ``lrw`` discards the singular values of the whitened cross-covariance
    c_xy c_y^-1/2, the square roots of the eigenvalues of c_xy c_y^-1 c_xy',
    beyond its effective truncation min(l, n). ``csw`` discards, in the
    same units, the whitened cross-covariance's column norms
    ``norm(c_xy @ q_i) / sqrt(lambda_i)`` of the c_y eigendirections it
    does not keep; both raise as the filter does on a c_y too singular to
    invert. The joint-eigenbasis kinds discard the joint-eigenvalue tail
    beyond l in [1, m]; a kind with no level truncates nothing and is refused.
    """
    kind = _kind(kind, "truncation-power loss", _LEVELED_KINDS)
    if kind is FilterKind.LRW:
        power = np.clip(model.spectral.eig_wiener.eigenvalues, 0.0, None)
        return truncation_power_loss(np.sqrt(power), _effective_level(model, kind, l))
    if kind is FilterKind.CSW:
        _, _, scores, order = model.spectral.csw_ranking
        return truncation_power_loss(np.sqrt(scores[order]), l)
    return truncation_power_loss(model.spectral.eig_z.eigenvalues, model.spectral._check_l(l))


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
        _check_increasing(self.l)
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


def _check_increasing(grid: NDArray[np.intp]) -> None:
    if not np.all(np.diff(grid) > 0):
        raise DimensionError("grid levels must be strictly increasing")


def scaling_study(model: CovarianceModel, filter_kind: FilterKind,
                  l_grid, norm: str = "nuclear") -> ScalingStudy:
    """Measure how fast a truncated filter approaches the unconstrained one.

    For each level on the grid, records the truncation-power loss that
    :func:`filter_power_loss` gives, the filter's distance to the
    unconstrained filter, the MSE gap, and the Gram defect of the
    Y-block basis. A grid that is empty, not strictly increasing or not of
    integers in [1, m] is refused before any level is built.
    """
    filter_kind = _kind(filter_kind, "scaling study", _LEVELED_KINDS)
    grid = np.array(_count_grid(l_grid, "truncation", "truncation level l", 1, model.m),
                    dtype=np.intp)
    _check_increasing(grid)
    reference = wiener(model)
    ref_mse = analytic_mse(model, reference)
    ref_norm = matrix_norm(reference.matrix, norm)
    constructor = FILTER_CONSTRUCTORS[filter_kind]

    rho, dist, gap, gram = np.empty((4, grid.size))
    for i, l in enumerate(grid.tolist()):
        filt = constructor(model, l)
        rho[i] = filter_power_loss(model, filter_kind, l)
        dist[i] = matrix_norm(filt.matrix - reference.matrix, norm)
        gap[i] = analytic_mse(model, filt) - ref_mse
        gram[i] = model.spectral.gram_defect(l)

    study = ScalingStudy(kind=filter_kind, norm=norm, l=grid, rho_l=rho,
                         dist=dist, mse_gap=gap, gram_defect=gram)
    denom = float(np.dot(rho, rho))
    study.slope = float(np.dot(rho, dist) / denom) if denom > 0.0 else 0.0
    floor = _CONVERGED_RTOL * max(ref_norm, 1.0)
    ratios = study.ratios(converged_floor=floor)
    study.max_ratio = float(ratios.max()) if ratios.size else 0.0
    return study


def _jpc_order(model: CovarianceModel, grid: range) -> list[tuple[float, int]]:
    """The grid levels up to the ``jpc`` ladder's top as sorted (p(l), l) pairs.

    With the ladder's ``z = U^-T Y' c_xy'``, p(l) = tr(c_x) minus the sum
    of the first l squared row norms of z: the MSE of the optimum over
    the span of Y_l', so a lower bound on any build of level l. Every
    level is at -inf when the ladder's Cholesky failed.
    """
    ladder = model.spectral.jpc_ladder
    levels = [l for l in grid if l <= ladder.top]
    if ladder.z is None:
        return [(-np.inf, l) for l in levels]
    p = float(np.trace(model.c_x)) - np.cumsum(np.einsum("ij,ij->i", ladder.z, ladder.z))
    return sorted((float(p[l - 1]), l) for l in levels)


def _lsjpc_estimate(model: CovarianceModel, l: int) -> tuple[float, float]:
    """(q, e): ``lsjpc``'s training MSE at a level l up to ``ladder_top``
    estimated without building its filter, and a bound e on
    |q - analytic_mse(lsjpc(l))|, both in O(n^2 l).

    w = (Y_l'Y_l)^-1 X_l' are the unrefined weights of
    :func:`~wclmmse.filters.lsjpc`, from the same factored system, as
    (I_l - X_l'X_l)^-1 X_l' below n and X_l'(I_n - X_l X_l')^-1 from n up,
    and B_l = Y_l' c_xy' is the first l rows of ``_top_map``'s transpose.
    The bottom rows of the
    joint eigen-equation, c_y Y_l = Y_l Lambda_l - c_xy' X_l, turn the
    MSE tr c_x - 2<B_l, w> + tr(w' Y_l'c_y Y_l w) into
    q = tr c_x - 2<B_l, w> + <w, Lambda_l w> - <X_l Lambda_l w, X_l w>
    - tr((w'B_l)(X_l w)), with no product with c_y. That identity and
    Y_l'Y_l = I - X_l'X_l hold as far as the computed basis is an
    orthonormal eigenbasis: to about lambda_1 (delta + d eps), delta
    being ``basis_defect``, in each term quadratic in w, and so
    e = 16 lambda_1 (delta + d eps)(1 + ||w||_F^2). The factor 16 is a
    margin, not a proof: e was at least 4.3e3 times |q - MSE| at every
    grid level of the search tests' four models and of the
    window-length benchmark's (m = 400..1200, seeds 0, 1, 5, 7), and
    at least 21 times on the property tests' models of d <= 104, whose
    gap is the rounding of the sums themselves.
    Raises :class:`SingularMatrixError` where the system cannot be solved.
    """
    cache = model.spectral
    x, small, system = _lsjpc_system(model, l)
    w = solve_spd(system, x.T) if small else solve_spd(system, x).T
    lam = cache.leading_eigenvalues(l)
    b = cache._top_map[:, :l].T
    xw = x @ w
    q = (np.trace(model.c_x) - 2.0 * np.einsum("ij,ij->", b, w)
         + np.einsum("i,ij,ij->", lam, w, w)
         - np.einsum("ij,ij->", (x * lam) @ w, xw)
         - np.einsum("ij,ji->", w.T @ b, xw))
    rounding = cache.basis_defect + model.dim * np.finfo(np.float64).eps
    e = 16.0 * cache.eig_z.eigenvalues[0] * rounding * (1.0 + np.einsum("ij,ij->", w, w))
    return float(q), float(e)


def _lsjpc_order(model: CovarianceModel, grid: range) -> list[tuple[float, int]]:
    """The grid levels up to ``ladder_top`` as sorted (q - e, l) pairs, from
    ``lsjpc``'s estimated MSE q and its error bound e
    (:func:`_lsjpc_estimate`), so a lower bound on the level's build. A
    level whose estimate cannot be solved or is not finite is at -inf."""
    order = []
    for l in (l for l in grid if l <= model.spectral.ladder_top):
        bound = -np.inf
        with suppress(SingularMatrixError):
            q, e = _lsjpc_estimate(model, l)
            bound = q - e if np.isfinite(q - e) else -np.inf
        order.append((bound, l))
    return sorted(order)


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

    Every level the search tries is built by the kind's constructor and
    scored by :func:`analytic_mse`. ``lrw``, ``csw`` and the simplified
    kinds try the grid's levels in order, except that a level whose
    effective truncation equals one already tried (``lrw`` from n up) is
    not built again. The joint kinds have a lower bound b(l) on the MSE of
    a build at each grid level up to ``ladder_top`` (the levels above it
    fail the rank check): ``jpc`` its exact-arithmetic MSE p(l)
    (:func:`_jpc_order`), ``lsjpc`` its estimate less its error bound,
    q(l) - e(l) (:func:`_lsjpc_order`). Both try their levels in
    increasing (b(l), l) and stop at the first level whose b(l) exceeds
    the best MSE built so far by more than 1e-8 tr(c_x), since that level
    cannot win.
    """
    filter_kind = _kind(filter_kind, "truncation-level search", _LEVELED_KINDS)
    grid = _search_grid(model)
    constructor = FILTER_CONSTRUCTORS[filter_kind]
    order = [(-np.inf, l) for l in grid]
    if filter_kind is FilterKind.JPC:
        order = _jpc_order(model, grid)
    elif filter_kind is FilterKind.LSJPC:
        order = _lsjpc_order(model, grid)
    # how far rounding may put a build's MSE below its bound
    slack = _MSE_ATOL * float(np.trace(model.c_x))
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
