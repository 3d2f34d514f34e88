"""Linear MMSE filter constructors.

Builds every estimator supported by the library from a
:class:`~wclmmse.model.CovarianceModel`; every decomposition a filter
truncates is read from ``model.spectral``, so each matrix of a model is
decomposed at most once however many filters and levels are built:

* ``wiener`` -- the unconstrained optimum ``c_xy @ inv(c_y)``.
* ``wiener_structured`` -- the optimum among filters sharing a prefilter.
* ``lrw`` -- the reduced-rank Wiener filter: ``wiener`` projected onto the
  leading eigenvectors of the n x n matrix ``c_xy @ inv(c_y) @ c_xy'``.
* ``csw`` -- a rank truncation in the eigenbasis of ``c_y``.
* ``jpc`` / ``lsjpc`` -- truncations of the joint-covariance eigenbasis
  that never invert anything larger than L x L: B_L' S_L^-1 Y_L', with
  S_L = Y_L' c_y Y_L and B_L' = c_xy Y_L for ``jpc``, and S_L = Y_L'Y_L
  and B_L' = X_L for ``lsjpc``, which solves it as a min(L, N) system.
  ``jpc`` is ``wiener_structured`` through Y_L' where its ladder does not reach L.
* ``jpc_simplified`` / ``lsjpc_simplified`` -- inverse-free approximations
  that keep their kind's map B_L' and drop S_L.
* ``weighted_filter`` -- any of the above under a weighted-trace objective.

No constructor ever forms an explicit M x M inverse; every ``inv(.) @``
in the defining formulas is realized as a linear solve, and each filter
carries a ``max_inverse_dim`` certificate: the dimension of the largest
system its construction solves, stated once per kind by
:func:`_certificate`. ``wiener`` and ``lrw`` read the model's one M x M
solve and ``csw`` the full spectrum of c_y, so all three certify M.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionError, InvalidWeightError, RankError, SingularMatrixError
from .linalg import SPDFactor, _symmetric_part, factor_spd, inv_sqrt_spd, solve_spd
# SpectralCache, defined in model, is re-exported here: perfbench/tracing.py
# patches filters.SpectralCache.__init__.
from .model import CovarianceModel, SpectralCache

__all__ = [
    "FilterKind",
    "LinearFilter",
    "Prefilter",
    "SpectralCache",
    "wiener",
    "wiener_structured",
    "lrw",
    "csw",
    "jpc",
    "lsjpc",
    "jpc_simplified",
    "lsjpc_simplified",
    "weighted_filter",
    "det_optimal_weight",
    "is_l_well_conditioned",
    "FILTER_CONSTRUCTORS",
]

_RANK_RTOL = 1e-10


class FilterKind(str, enum.Enum):
    WIENER = "wiener"
    WIENER_STRUCTURED = "wiener_structured"
    LRW = "lrw"
    CSW = "csw"
    JPC = "jpc"
    LSJPC = "lsjpc"
    JPC_SIMPLIFIED = "jpc_simplified"
    LSJPC_SIMPLIFIED = "lsjpc_simplified"
    WEIGHTED = "weighted"


@dataclass
class LinearFilter:
    """An N x M estimator matrix with its construction certificate.

    ``max_inverse_dim`` is the dimension of the largest linear system
    solved while building the filter, as :func:`_certificate` states it
    for the filter's kind; ``is_l_well_conditioned`` checks it against a
    truncation level.
    """

    matrix: NDArray[np.float64]
    kind: FilterKind
    max_inverse_dim: int
    l: int | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]

    def apply(self, y) -> NDArray[np.float64]:
        """Estimate x from input vectors y of shape (m,) or (k, m)."""
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            return self.matrix @ y
        return y @ self.matrix.T


def _stacked(matrices: list[NDArray[np.float64]]) -> NDArray[np.float64]:
    """k filter matrices of one N x M shape as one kN x M block, filter i
    in rows iN to (i+1)N. Raises :class:`DimensionError` on none or on
    mixed shapes."""
    if not matrices:
        raise DimensionError("no filters to score")
    shapes = sorted({a.shape for a in matrices})
    if len(shapes) > 1:
        raise DimensionError(f"filters of mixed shapes {shapes}")
    return np.concatenate(matrices)


@dataclass
class Prefilter:
    """A full-row-rank L x M matrix applied to the input before estimation."""

    matrix: NDArray[np.float64]

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise DimensionError("prefilter must be a 2-D matrix")
        rows, cols = self.matrix.shape
        if rows > cols:
            raise DimensionError(
                f"prefilter has more rows ({rows}) than columns ({cols})")
        if not _has_full_column_rank(self.matrix.T):
            raise RankError(f"prefilter is rank-deficient (needs rank {rows})")

    @property
    def l(self) -> int:
        return self.matrix.shape[0]


def _has_full_column_rank(a: np.ndarray) -> bool:
    if a.shape[1] == 0:
        return True
    s = np.linalg.svd(a, compute_uv=False)
    return s.shape[0] >= a.shape[1] and s[-1] > _RANK_RTOL * s[0]


def _certificate(kind: FilterKind, m: int, l: int | None) -> int:
    """The dimension of the largest system ``kind`` solves on an M = ``m``
    input at level ``l``: L for ``jpc``, ``lsjpc`` and
    ``wiener_structured``; none for the inverse-free simplified kinds; M
    for the others. Sweep rows state it whether or not the build succeeded.

    For ``jpc`` it stays L where a level is built from the model's ladder:
    the factor call there is top x top, but level L reads only U_L, the
    factor of its own L x L system (see :class:`~wclmmse.model.Ladder`).
    ``lsjpc``'s largest solve is min(L, N), which is at most L; its
    certificate states L, the bound ``perfbench/checks.py`` expects.
    """
    if kind in (FilterKind.JPC, FilterKind.LSJPC, FilterKind.WIENER_STRUCTURED):
        return l
    if kind in (FilterKind.JPC_SIMPLIFIED, FilterKind.LSJPC_SIMPLIFIED):
        return 0
    return m


def _at_level(kind: FilterKind, model: CovarianceModel, l: int, matrix) -> LinearFilter:
    """``kind``'s filter ``matrix`` built at level l, recorded with l as an int."""
    l = model.spectral._check_l(l)
    return LinearFilter(matrix=matrix, kind=kind, l=l,
                        max_inverse_dim=_certificate(kind, model.m, l))


def _structured_system(c_y, b) -> NDArray[np.float64]:
    """The L x L system ``b @ c_y @ b'`` that a filter factoring through
    prefilter ``b`` solves, symmetrized."""
    return _symmetric_part(b @ c_y @ b.T)


def _structured_filter(model: CovarianceModel, b, system: SPDFactor | None = None):
    """``(c_xy @ b') @ inv(b @ c_y @ b') @ b``: the filter through prefilter b,
    solving ``system``, b c_y b' factored, where the caller has it."""
    return (model.c_xy @ b.T) @ solve_spd(system or factor_spd(_structured_system(model.c_y, b)), b)


def wiener(model: CovarianceModel) -> LinearFilter:
    """The unconstrained LMMSE filter c_xy @ inv(c_y), via the model's one
    M x M solve (``model.spectral.wiener_solve``), which raises on a
    singular c_y, naming its condition number."""
    return LinearFilter(matrix=model.spectral.wiener_solve.T, kind=FilterKind.WIENER,
                        max_inverse_dim=_certificate(FilterKind.WIENER, model.m, None))


def wiener_structured(model: CovarianceModel, b: Prefilter | np.ndarray) -> LinearFilter:
    """The optimal filter among those factoring through prefilter ``b``.

    The result is invariant to premultiplication of ``b`` by any
    invertible matrix, and only an L x L system is solved.
    """
    if not isinstance(b, Prefilter):
        b = Prefilter(b)
    if b.matrix.shape[1] != model.m:
        raise DimensionError(
            f"prefilter has {b.matrix.shape[1]} columns, expected {model.m}")
    kind = FilterKind.WIENER_STRUCTURED
    matrix = _structured_filter(model, b.matrix)
    return LinearFilter(matrix=matrix, kind=kind, l=b.l,
                        max_inverse_dim=_certificate(kind, model.m, b.l))


def _effective_level(model: CovarianceModel, kind: FilterKind, l: int) -> int:
    """The truncation ``kind`` applies at level ``l``.

    ``lrw`` keeps min(l, n) eigenvectors of the n x n matrix
    c_xy c_y^-1 c_xy' (l checked to lie in [1, m]), so every level from n
    up builds the same filter; every other kind keeps l.
    """
    if kind is FilterKind.LRW:
        return min(model.spectral._check_l(l), model.n)
    return l


def lrw(model: CovarianceModel, l: int) -> LinearFilter:
    """Reduced-rank Wiener filter ``U_k U_k' W``.

    ``W = c_xy c_y^-1`` is the Wiener filter and ``U_k`` holds the leading
    k = min(l, n) eigenvectors of ``c_xy c_y^-1 c_xy'`` (Hua, Nikpour &
    Stoica, "Optimal reduced-rank estimation and filtering", IEEE TSP
    49(3), 2001). This is the first k singular triplets of the whitened
    cross-covariance ``c_xy c_y^-1/2``, mapped back through ``c_y^-1/2``,
    without decomposing c_y. Constraining the rank does not shrink the
    inversion: ``W`` is the M x M solve ``wiener`` reads, so the
    certificate is M regardless of l.
    """
    keep = _effective_level(model, FilterKind.LRW, l)
    cache = model.spectral
    u = cache.eig_wiener.eigenvectors[:, :keep]
    return _at_level(FilterKind.LRW, model, l, u @ (u.T @ cache.wiener_solve.T))


def csw(model: CovarianceModel, l: int) -> LinearFilter:
    """Rank-truncated filter keeping input eigendirections by cross-spectral power.

    Components of the c_y eigenbasis are ranked by the score
    ``norm(c_xy @ q_i)^2 / lambda_i`` and the top l retained. It relies on
    the full spectrum of c_y, so the recorded inverse size is M. The
    ranking is read from ``model.spectral.csw_ranking``.
    """
    l = model.spectral._check_l(l)
    eig, proj, _, order = model.spectral.csw_ranking
    kept = order[:l]
    matrix = (proj[:, kept] / eig.eigenvalues[kept]) @ eig.eigenvectors[:, kept].T
    return _at_level(FilterKind.CSW, model, l, matrix)


def jpc(model: CovarianceModel, l: int) -> LinearFilter:
    """Joint-principal-component filter: Wiener-structured with the Y rows
    of the leading joint eigenvectors as prefilter.

    B_l' S_l^-1 Y_l' with S_l = Y_l' c_y Y_l and B_l' = c_xy Y_l, once
    ``check_y_rank`` passes. Only the l x l system S_l is solved, so no
    inverse is larger than l x l however ill-conditioned c_y is. The levels
    ``model.spectral.jpc_ladder`` reaches are built from its one factor;
    any other is ``wiener_structured``'s build through Y_l', solving the S_l
    of :meth:`~wclmmse.model.Ladder.system_at` up to the top, Y_l' c_y Y_l above.
    """
    cache = model.spectral
    cache.check_y_rank(l)
    y = cache.y_block(l)
    if cache.jpc_ladder.reaches(l):
        matrix = cache.jpc_ladder.solve(l).T @ y.T
    else:
        matrix = _structured_filter(model, y.T, cache.jpc_ladder.system_at(l, y))
    return _at_level(FilterKind.JPC, model, l, matrix)


def _lsjpc_system(model: CovarianceModel, l: int) -> tuple[NDArray[np.float64], bool, SPDFactor]:
    """X_l, whether l < n, and ``lsjpc``'s one factored system at level
    l: I_l - X_l'X_l below n, I_n - X_l X_l' from n up."""
    x = model.spectral.x_block(l)
    small = l < model.n
    return x, small, factor_spd(np.eye(l) - x.T @ x if small else np.eye(model.n) - x @ x.T)


def lsjpc(model: CovarianceModel, l: int) -> LinearFilter:
    """Least-squares variant of the joint-principal-component filter.

    Resolves the input onto the range of the Y-block basis and maps the
    coordinates through the X block: X_l (Y_l'Y_l)^-1 Y_l', once
    ``check_y_rank`` passes. Not Wiener-structured. Its one system is
    min(l, n) x min(l, n), with no Gram of Y_l formed: the basis is
    orthonormal, so w = (Y_l'Y_l)^-1 X_l' is M X_l' with
    M = (I_l - X_l'X_l)^-1 for l < n, else, pushed through,
    M r = r + X_l' (I_n - X_l X_l')^-1 X_l r: one min(l, n) system,
    factored once. M is exact only as far as the basis is orthonormal,
    so one step of iterative refinement against Y_l itself,
    w += M (X_l' - Y_l'(Y_l w)) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 12), follows; the filter is w' Y_l'.
    """
    model.spectral.check_y_rank(l)
    x, small, system = _lsjpc_system(model, l)
    y = model.spectral.y_block(l)

    def inverse(r):  # M r
        return solve_spd(system, r) if small else r + x.T @ solve_spd(system, x @ r)
    w = inverse(x.T)
    w += inverse(x.T - y.T @ (y @ w))
    return _at_level(FilterKind.LSJPC, model, l, w.T @ y.T)


def jpc_simplified(model: CovarianceModel, l: int) -> LinearFilter:
    """Inverse-free JPC: ``jpc``'s map B_l' = c_xy Y_l with Lambda_l^-1 in place of S_l^-1."""
    cache = model.spectral
    s = cache.leading_eigenvalues(l)
    if np.any(s <= 0.0):
        idx = int(np.argmax(s <= 0.0))
        raise SingularMatrixError(
            f"joint eigenvalue[{idx}] = {s[idx]:.6e} is not positive",
            index=idx,
            value=float(s[idx]),
        )
    matrix = ((model.c_xy @ cache.y_block(l)) / s) @ cache.y_block(l).T
    return _at_level(FilterKind.JPC_SIMPLIFIED, model, l, matrix)


def lsjpc_simplified(model: CovarianceModel, l: int) -> LinearFilter:
    """Inverse-free LSJPC: ``lsjpc``'s map B_l' = X_l with the identity in place of S_l^-1."""
    matrix = model.spectral.x_block(l) @ model.spectral.y_block(l).T
    return _at_level(FilterKind.LSJPC_SIMPLIFIED, model, l, matrix)


FILTER_CONSTRUCTORS = {
    FilterKind.WIENER: lambda model, l=None: wiener(model),
    FilterKind.LRW: lrw,
    FilterKind.CSW: csw,
    FilterKind.JPC: jpc,
    FilterKind.LSJPC: lsjpc,
    FilterKind.JPC_SIMPLIFIED: jpc_simplified,
    FilterKind.LSJPC_SIMPLIFIED: lsjpc_simplified,
}
_LEVELED_KINDS = tuple(kind for kind in FILTER_CONSTRUCTORS if kind is not FilterKind.WIENER)


def _kind(kind, purpose: str, kinds=FILTER_CONSTRUCTORS) -> FilterKind:
    """``kind`` as the :class:`FilterKind` in ``kinds``; else a ValueError for ``purpose``."""
    kind = FilterKind(kind)
    if kind not in kinds:
        raise ValueError(f"{purpose} undefined for kind {kind}")
    return kind


def weighted_filter(model: CovarianceModel, g, base: FilterKind,
                    l: int | None = None) -> LinearFilter:
    """Optimal filter for the weighted-trace objective tr(g'g @ C_err).

    Equivalent to building the base filter for the transformed targets
    ``g @ x`` and mapping back through ``inv(g)``. Weighting never
    changes the unconstrained optimum, so base ``wiener`` reproduces the
    plain Wiener filter.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (model.n, model.n):
        raise InvalidWeightError(f"weight must be {model.n} x {model.n}, got {g.shape}")
    if not _has_full_column_rank(g):
        raise InvalidWeightError("weight matrix is numerically singular")
    base = _kind(base, "weighted filter")
    transformed = CovarianceModel(_symmetric_part(g @ model.c_x @ g.T), model.c_y,
                                  g @ model.c_xy)
    inner = FILTER_CONSTRUCTORS[base](transformed, l)
    matrix = np.linalg.solve(g, inner.matrix)
    return LinearFilter(matrix=matrix, kind=FilterKind.WEIGHTED, l=inner.l,
                        max_inverse_dim=max(inner.max_inverse_dim, model.n))


def det_optimal_weight(model: CovarianceModel) -> NDArray[np.float64]:
    """The weight that makes the weighted-trace optimum minimize the
    determinant of the error covariance: inv_sqrt(c_x)."""
    return inv_sqrt_spd(model.c_x)


def is_l_well_conditioned(filt: LinearFilter, l: int) -> bool:
    """True when the filter was built without any inverse larger than l x l.

    A ``jpc`` level built from the model's ladder counts as l: the
    ladder's one factorization is top x top, but the level reads only the
    leading l x l block of its factor, the factor of its own l x l system.
    ``lsjpc``'s largest solve is min(l, n), which is at most l.
    """
    return filt.max_inverse_dim <= l

