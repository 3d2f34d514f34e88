"""Covariance data model, empirical estimation, and synthetic generators.

The stacking convention used everywhere in this package: the joint vector
holds the target block X in its TOP ``n`` coordinates and the input block
Y in the BOTTOM ``m`` coordinates; :meth:`CovarianceModel.from_joint`
and :attr:`CovarianceModel.c_z` state that layout. Sample vectors,
estimated from or drawn for a model, are the rows of a plain (k, n+m)
array in the same layout. A model holds its three blocks alone, its only
covariance arrays: n and m are read from their shapes.

Each model owns its decompositions: :attr:`CovarianceModel.spectral` is
the model's one :class:`SpectralCache`, built on first access, and every
filter, diagnostic and sweep reads from it.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .errors import (
    DimensionError,
    InsufficientDataError,
    InvalidSpectrumError,
    ModelError,
    NumericInputError,
    RankError,
    SingularMatrixError,
)
from .linalg import (
    SPDFactor,
    SymEig,
    _as_count,
    _as_square,
    _check_definite,
    _spd_extremes,
    _spectral_condition,
    _symmetric_part,
    factor_spd,
    solve_spd,
    spectral_norm,
    sym_eig,
)

__all__ = [
    "CovarianceModel",
    "SpectralCache",
    "Ladder",
    "estimate_covariance",
    "series_covariance",
    "geometric_spectrum",
    "synthetic_model",
    "sample_from_model",
]

_SYM_RTOL = 1e-10
# The tolerance, per tr(c_x), to which the benchmark checks analytic_mse.
_MSE_ATOL = 1e-8
# Floor on sigma_min(Y_l)^2 = 1 - ||X_l||_2^2 below which the Y rows of the
# leading l joint eigenvectors count as rank-deficient.
_Y_RANK_FLOOR = 1e-12
# A jpc filter depends only on span(Y_l), as c_xy Q (Q'c_y Q)^-1 Q' for any
# orthonormal basis Q of it, and by Cauchy interlacing cond(Q'c_y Q) <=
# lambda_1 / lambda_d of the joint. So where lambda_d > 0 and lambda_1 times
# this is at most lambda_d, the ladder reaches every level up to its top: on
# the benchmark's models its builds and the direct ones agreed to 1e-14
# tr(c_x) in MSE. Otherwise a level whose S_l has a dppcon estimate at or
# below it is built directly, bit for bit: a solve errs up to eps / rcond.
_LADDER_RCOND = np.finfo(np.float64).eps / _MSE_ATOL


def _joint(c_x, c_xy, c_y) -> NDArray[np.float64]:
    """Joint covariance [[c_x, c_xy], [c_xy', c_y]] (X block on top)."""
    return np.block([[c_x, c_xy], [c_xy.T, c_y]])


def _check_symmetric(a: np.ndarray, name: str, lower: np.ndarray | None = None) -> None:
    """Refuse ``a`` unless it is the transpose of ``lower`` (of ``a`` itself
    by default) within ``_SYM_RTOL`` times the largest |entry| of either.
    An exact transpose, as ``series_covariance`` mirrors, passes on one
    exact comparison, before the tolerance test."""
    lower = a if lower is None else lower
    if np.array_equal(a, lower.T):
        return
    scale = max((np.abs(b).max() for b in (a, lower) if b.size), default=0.0)
    if scale and np.abs(a - lower.T).max() > _SYM_RTOL * scale:
        raise ModelError(f"{name} is not symmetric within {_SYM_RTOL:g} relative")


@dataclass
class CovarianceModel:
    """The covariance triple (c_x, c_y, c_xy), the model's only covariance arrays.

    ``n``, the dimension of the estimated block X, is read from ``c_x``,
    and ``m``, that of the input block Y, from ``c_y``; c_x and c_y must
    be square and symmetric, c_xy n x m, and all three finite. Instances
    are treated as immutable after construction. The joint covariance is
    not stored: :attr:`c_z` assembles it from the blocks on each read.
    """

    c_x: NDArray[np.float64]
    c_y: NDArray[np.float64]
    c_xy: NDArray[np.float64]
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self) -> None:
        self.c_x, self.c_y, self.c_xy = (np.asarray(block, dtype=np.float64)
                                         for block in (self.c_x, self.c_y, self.c_xy))
        self.n, self.m = (block.shape[0] if block.ndim else 0 for block in (self.c_x, self.c_y))
        expected = {"c_x": (self.n, self.n), "c_y": (self.m, self.m), "c_xy": (self.n, self.m)}
        for name, shape in expected.items():
            block = getattr(self, name)
            if block.shape != shape:
                raise DimensionError(f"{name} has shape {block.shape}, expected {shape}")
            if not np.all(np.isfinite(block)):
                raise NumericInputError(f"{name} contains non-finite entries")
        _check_symmetric(self.c_x, "c_x")
        _check_symmetric(self.c_y, "c_y")

    @property
    def dim(self) -> int:
        return self.n + self.m

    @property
    def c_z(self) -> NDArray[np.float64]:
        """The joint covariance [[c_x, c_xy], [c_xy', c_y]], assembled anew on
        each read; the library itself does not read it."""
        return _joint(self.c_x, self.c_xy, self.c_y)

    @classmethod
    def from_joint(cls, c_z, n: int) -> "CovarianceModel":
        """Model from copies (not views) of the blocks of a square joint
        covariance ``c_z``, whose cross blocks must be each other's
        transpose; X is its top ``n`` coordinates, 0 <= n <= d."""
        c_z = _as_square(c_z, "joint covariance")
        n = _as_count(n, "target size n", 0, c_z.shape[0])
        _check_symmetric(c_z[:n, n:], "joint covariance (cross blocks)", c_z[n:, :n])
        return cls(c_z[:n, :n].copy(), c_z[n:, n:].copy(), c_z[:n, n:].copy())

    @cached_property
    def spectral(self) -> SpectralCache:
        """The model's one :class:`SpectralCache`, built on first access."""
        return SpectralCache(self)


def _search_grid(model) -> range:
    """The levels :func:`~wclmmse.diagnostics.best_l_search` tries on a
    model (or its :class:`SpectralCache`): min(max(1, n), m) up to m in
    steps of max(1, m // 16). Its levels, with those a sweep asks for,
    are the candidates for the top of the model's ladders."""
    m = model.m
    return range(min(max(1, model.n), m), m + 1, max(1, m // 16))


def _structured_system(c_y, b) -> NDArray[np.float64]:
    """The L x L system ``b @ c_y @ b'`` that a filter factoring through
    prefilter ``b`` solves, symmetrized."""
    return _symmetric_part(b @ c_y @ b.T)


@dataclass(frozen=True)
class Ladder:
    """``jpc``'s system at the top level :attr:`SpectralCache.ladder_top`,
    factored once, from which every level up to the top is solved.

    ``jpc``'s prefilters are nested, so level l's l x l system
    S_l = Y_l' c_y Y_l is the leading block of the top system S, and its
    upper Cholesky factor U_l is the leading block of S's factor U.
    Forward substitution is prefix-stable, so with the right-hand side
    B = Y' c_xy' (top x n), ``z = U^-T B`` gives ``S_l^-1 B[:l] = U_l^-1
    z[:l]`` at every level: l^2 n work and no solve against m columns.
    This is the multistage form of the Wiener filter (Goldstein, Reed &
    Scharf, IEEE Trans. Inf. Theory 44(7), 1998).

    Where S's Cholesky succeeded, ``u`` holds U in LAPACK's packed upper
    storage, column after column, so U_l is its first l(l+1)/2 entries,
    and ``z`` is U^-T B; where it failed, those are None and ``failed``
    keeps S as :func:`~wclmmse.linalg.factor_spd` left it, for the LU solve.
    Where it succeeded on a joint over the ``_LADDER_RCOND`` bound,
    ``norms[l - 1]`` is the 1-norm of S_l, for :meth:`reaches`. In those
    two cases alone the ladder keeps ``product``, P = Y' c_y (top x m), so
    that a level built directly forms S_l as P[:l] Y_l (:meth:`system_at`),
    with no product with c_y of its own. At top 0 there is no system.
    """

    top: int
    product: NDArray[np.float64] | None = None
    u: NDArray[np.float64] | None = None
    z: NDArray[np.float64] | None = None
    norms: NDArray[np.float64] | None = None
    failed: SPDFactor | None = None

    def _leading(self, l: int) -> NDArray[np.float64]:
        return self.u[: l * (l + 1) // 2]

    def reaches(self, l: int) -> bool:
        """Whether level l is solved from the factor: l is at most the top,
        the top's Cholesky succeeded, and the ladder has no ``norms`` or
        LAPACK's ``dppcon`` rcond estimate of S_l, from U_l, is above ``_LADDER_RCOND``."""
        if self.u is None or l > self.top:
            return False
        return self.norms is None or scipy.linalg.lapack.dppcon(
            l, self._leading(l), self.norms[l - 1])[0] > _LADDER_RCOND

    def solve(self, l: int) -> NDArray[np.float64]:
        """``S_l^-1 B[:l]`` (l x n), as ``U_l^-1 z[:l]``, for a level it reaches."""
        u_l = self._leading(l)
        out = np.empty((l, self.z.shape[1]))
        for j in range(out.shape[1]):
            out[:, j] = scipy.linalg.blas.dtpsv(l, u_l, self.z[:l, j])
        return out

    def system_at(self, l: int, y: NDArray[np.float64]) -> SPDFactor | None:
        """The factored system S_l of level l, for a direct build with
        ``y`` = Y_l: at the top, the ladder's own; below it, the
        symmetric part of P[:l] Y_l, factored here; above it, None."""
        if l > self.top:
            return None
        if l < self.top:
            return factor_spd(_symmetric_part(self.product[:l] @ y))
        if self.failed is not None:
            return self.failed
        return SPDFactor((scipy.linalg.lapack.dtpttr(self.top, self.u)[0], False))


# The products on a SpectralCache that each filter kind reads, by kind name.
_SWEEP_READS = {
    "wiener": ("wiener_solve",),
    "lrw": ("eig_wiener",),
    "csw": ("csw_ranking",),
    "jpc": ("eig_z", "jpc_ladder"),
    "lsjpc": ("eig_z",),
    "jpc_simplified": ("eig_z",),
    "lsjpc_simplified": ("eig_z",),
}


class SpectralCache:
    """The one owner of a model's decompositions, each made lazily and at most once.

    * ``eig_z``: the joint eigendecomposition, which ``jpc``, ``lsjpc``,
      their simplified variants and the sampler truncate. Its
      orthonormality check's ||V'V - I||_F is kept as ``basis_defect``,
      the delta of ``_lsjpc_estimate``'s error bound.
    * ``_cy_reads``: the two products of c_y's one ``factor_spd``
      factorization, made together so that the factor is dropped at once:
      ``extremes_y``, the largest and the smallest eigenvalue of c_y, from
      two Lanczos runs through the factor (``linalg._spd_extremes``), or
      from one ``eigvalsh`` where the Cholesky fails or c_y is worse
      conditioned than 1e8, which ``cond_y`` and the definiteness rule
      read; and ``wiener_solve``, the m x n solve c_y^-1 c_xy', the Wiener
      filter's transpose, which ``wiener`` and ``lrw`` read.
    * ``eig_wiener``: the n x n eigendecomposition of c_xy c_y^-1 c_xy',
      which ``lrw`` and its ``rho_l`` read.
    * ``csw_ranking``: the m x m eigendecomposition of c_y and ``csw``'s
      ranking of its eigendirections, which ``csw`` and its ``rho_l`` read.
    * ``jpc_ladder``: ``jpc``'s :class:`Ladder`, its system S_l at
      ``ladder_top`` factored once, from which ``_jpc_filter`` builds the
      levels it reaches: all of them up to the top on a joint within the
      ``_LADDER_RCOND`` bound. ``lsjpc`` has no ladder: ``_lsjpc_filter``
      factors one min(l, n) system per level.
    * ``_top_map``: the n x top map c_xy Y at ``ladder_top``, formed once.
      ``jpc_ladder`` solves it for z, and ``_lsjpc_estimate`` reads its
      first l columns as B_l', so that the ``best`` search of ``lsjpc``
      (``diagnostics._lsjpc_order``) estimates the MSE of every level up
      to the top in O(n^2 l) each and builds only the levels that can win.

    A sweep makes the products its kinds read, before it times any cell,
    on a model it owns (``harness._prepare``), by :meth:`prepare_sweep`.

    Read it as ``model.spectral``. It keeps the model's three blocks, not
    the model, so no reference cycle holds the decompositions once the
    model is gone; the joint covariance exists only while ``eig_z``
    decomposes it. The joint eigenvectors are row-partitioned into the X
    part (top n rows) and the Y part (bottom m rows); truncations are
    views of the leading columns. A c_y too singular to invert re-raises
    from the stored ``extremes_y`` on every access to ``eig_wiener`` or
    ``csw_ranking``, without solving or decomposing; one too singular to
    solve, from the stored error on every access to ``wiener_solve``.
    """

    def __init__(self, model: CovarianceModel):
        self.n, self.m = model.n, model.m
        self.c_x, self.c_y, self.c_xy = model.c_x, model.c_y, model.c_xy
        self._margins: dict[int, float] = {}
        self._sweep_levels: tuple[int, ...] = ()

    @cached_property
    def eig_z(self) -> SymEig:
        """Joint eigendecomposition of the blocks, assembled for it and then
        dropped, checked to be a full orthonormal basis; the check's
        ||V'V - I||_F is kept as ``basis_defect``."""
        eig = sym_eig(_joint(self.c_x, self.c_xy, self.c_y))
        v = eig.eigenvectors
        gram = v.T @ v
        gram.flat[:: self.n + self.m + 1] -= 1.0  # V'V - I, in place
        defect = float(np.linalg.norm(gram))
        if defect > 1e-8:
            raise ModelError(f"joint eigenbasis is not orthonormal (defect {defect:.3e})")
        self.basis_defect = defect
        return eig

    def _check_l(self, l: int) -> int:
        return _as_count(l, "truncation level l", 1, self.m)

    def x_block(self, l: int) -> NDArray[np.float64]:
        """Top-n rows of the leading l joint eigenvectors."""
        return self.eig_z.eigenvectors[: self.n, : self._check_l(l)]

    def y_block(self, l: int) -> NDArray[np.float64]:
        """Bottom-m rows of the leading l joint eigenvectors."""
        return self.eig_z.eigenvectors[self.n :, : self._check_l(l)]

    def leading_eigenvalues(self, l: int) -> NDArray[np.float64]:
        return self.eig_z.eigenvalues[: self._check_l(l)]

    def gram_defect(self, l: int) -> float:
        """Frobenius distance of the Y-block Gram matrix from the identity."""
        y = self.y_block(l)
        return float(np.linalg.norm(y.T @ y - np.eye(l)))

    def check_y_rank(self, l: int) -> float:
        """Return sigma_min(Y_l)^2 for ``Y_l = y_block(l)``; raise
        :class:`RankError` when Y_l is rank-deficient.

        The joint basis is orthonormal, so Y_l'Y_l = I - X_l'X_l and
        sigma_min(Y_l)^2 = 1 - ||X_l||_2^2, which an n x l SVD gives. The
        floor on it is 1e-12: rounding leaves 1 - ||X_l||^2 uncertain by a
        few eps, so it cannot resolve a singular-value ratio as small as
        the 1e-10 an m x l SVD of Y_l can. Each level's margin is computed
        once and kept.
        """
        margin = self._margins.get(self._check_l(l))
        if margin is None:
            margin = self._margins[l] = 1.0 - spectral_norm(self.x_block(l))**2
        if margin <= _Y_RANK_FLOOR:
            raise RankError(
                f"Y rows of the leading {l} joint eigenvectors are rank-deficient"
                " (degenerate joint spectrum)")
        return margin

    @cached_property
    def ladder_top(self) -> int:
        """The top of ``jpc``'s ladder: the highest level that passes
        :meth:`check_y_rank` among those of the ``best`` search grid and
        those a sweep asks for (:meth:`prepare_sweep`), 0 when none does;
        it checks from the highest level down, and stops at the first pass."""
        for l in sorted({*_search_grid(self), *self._sweep_levels}, reverse=True):
            try:
                self.check_y_rank(l)
            except RankError:
                continue
            return l
        return 0

    def prepare_sweep(self, kinds, levels) -> None:
        """Make each product the filter ``kinds`` read (``_SWEEP_READS``)
        once, for a sweep at ``levels`` to call before it times any cell
        or reads ``ladder_top``. A product that c_y is too singular for
        stays unmade, and each cell that reads it fails on its own.

        * ``eig_z``, the joint eigendecomposition, for ``jpc``, ``lsjpc``
          and their simplified variants;
        * ``jpc``'s ladder, its one factored system at ``ladder_top``, which
          ``levels`` join the ``best`` grid in setting, so that no level the
          sweep asks for factors a system of its own above the ladder;
        * ``wiener_solve``, the one solve c_y^-1 c_xy', for ``wiener``,
          which a sweep's ``cond_y`` has made with the extremes of c_y; it
          and the n x n ``eig_wiener`` for ``lrw``;
        * ``csw_ranking``, the m x m eigendecomposition of c_y and the
          ranking of its eigendirections, for ``csw`` alone.
        """
        self._sweep_levels = tuple(levels)
        for kind in kinds:
            for name in _SWEEP_READS[kind]:
                with suppress(SingularMatrixError):
                    getattr(self, name)

    def _jpc_map(self, l: int) -> NDArray[np.float64]:
        """B_l' = c_xy Y_l, ``jpc``'s n x l map, which ``jpc_simplified`` keeps too."""
        return self.c_xy @ self.y_block(l)

    @cached_property
    def _top_map(self) -> NDArray[np.float64]:
        """``_jpc_map(ladder_top)``, formed once: the right-hand side B' of
        ``jpc``'s ladder, and the columns B_l' of ``_lsjpc_estimate``."""
        return self._jpc_map(self.ladder_top)

    @cached_property
    def jpc_ladder(self) -> Ladder:
        """``jpc``'s :class:`Ladder`: S = P Y, with P = Y' c_y, and
        B = Y' c_xy' at ``ladder_top``; P and the 1-norms of the S_l are
        kept only on a joint over the bound, and P where S's Cholesky fails."""
        top = self.ladder_top
        if not top:
            return Ladder(0)
        y = self.y_block(top)
        product = y.T @ self.c_y
        system = _symmetric_part(product @ y)
        lam, norms = self.eig_z.eigenvalues, None
        if not 0.0 < lam[0] * _LADDER_RCOND <= lam[-1]:  # the joint fails the bound
            sums = np.abs(system)
            np.cumsum(sums, axis=0, out=sums)  # row l - 1, up to column l: S_l's column sums
            norms = sums.max(axis=1, where=np.tri(top, dtype=bool), initial=0.0)
            del sums
        factor = factor_spd(system)
        if factor.cholesky is None:
            return Ladder(top, product, failed=factor)
        u = factor.cholesky[0]
        z = scipy.linalg.solve_triangular(u, self._top_map.T, trans="T", check_finite=False)
        return Ladder(top, None if norms is None else product,
                      scipy.linalg.lapack.dtrttp(u)[0], z, norms)

    def _jpc_filter(self, l: int) -> NDArray[np.float64]:
        """``jpc``'s n x m filter B_l' S_l^-1 Y_l' at level l, once
        :meth:`check_y_rank` passes: from the ladder where it reaches l,
        else solving S_l: the ladder's own at the top, P[:l] Y_l below it,
        from the P a ladder keeps where it may not reach a level
        (:meth:`Ladder.system_at`), and Y_l' c_y Y_l above it."""
        self.check_y_rank(l)
        y = self.y_block(l)
        if self.jpc_ladder.reaches(l):
            return self.jpc_ladder.solve(l).T @ y.T
        system = self.jpc_ladder.system_at(l, y) or factor_spd(_structured_system(self.c_y, y.T))
        return self._jpc_map(l) @ solve_spd(system, y.T)

    def _lsjpc_filter(self, l: int) -> NDArray[np.float64]:
        """``lsjpc``'s n x m filter X_l (Y_l'Y_l)^-1 Y_l' at level l, once
        :meth:`check_y_rank` passes, with no Gram of Y_l. The basis is
        orthonormal, so w = (Y_l'Y_l)^-1 X_l' is M X_l' with
        M = (I_l - X_l'X_l)^-1 for l < n, else, pushed through,
        M r = r + X_l' (I_n - X_l X_l')^-1 X_l r: one min(l, n) system,
        factored once. M is exact only as far as the basis is orthonormal,
        so one step of iterative refinement against Y_l itself,
        w += M (X_l' - Y_l'(Y_l w)) (Higham, *Accuracy and Stability of
        Numerical Algorithms*, 2nd ed., ch. 12), follows; the filter is w' Y_l'."""
        self.check_y_rank(l)
        x, small, system = self._lsjpc_system(l)
        y = self.y_block(l)

        def inverse(r):  # M r
            return solve_spd(system, r) if small else r + x.T @ solve_spd(system, x @ r)
        w = inverse(x.T)
        w += inverse(x.T - y.T @ (y @ w))
        return w.T @ y.T

    def _lsjpc_system(self, l: int) -> tuple[NDArray[np.float64], bool, SPDFactor]:
        """X_l, whether l < n, and ``lsjpc``'s one factored system at level
        l: I_l - X_l'X_l below n, I_n - X_l X_l' from n up."""
        x = self.x_block(l)
        small = l < self.n
        return x, small, factor_spd(np.eye(l) - x.T @ x if small else np.eye(self.n) - x @ x.T)

    def _lsjpc_estimate(self, l: int) -> tuple[float, float]:
        """(q, e): ``lsjpc``'s training MSE at a level l up to ``ladder_top``
        estimated without building its filter, and a bound e on
        |q - analytic_mse(lsjpc(l))|, both in O(n^2 l).

        w = (Y_l'Y_l)^-1 X_l' are the unrefined weights of
        :meth:`_lsjpc_filter`, as (I_l - X_l'X_l)^-1 X_l' below n and
        X_l'(I_n - X_l X_l')^-1 from n up, and B_l = Y_l' c_xy' is the
        first l rows of ``_top_map``'s transpose. The bottom rows of the
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
        x, small, system = self._lsjpc_system(l)
        w = solve_spd(system, x.T) if small else solve_spd(system, x).T
        lam = self.leading_eigenvalues(l)
        b = self._top_map[:, :l].T
        xw = x @ w
        q = (np.trace(self.c_x) - 2.0 * np.einsum("ij,ij->", b, w)
             + np.einsum("i,ij,ij->", lam, w, w)
             - np.einsum("ij,ij->", (x * lam) @ w, xw)
             - np.einsum("ij,ji->", w.T @ b, xw))
        rounding = self.basis_defect + (self.n + self.m) * np.finfo(np.float64).eps
        e = 16.0 * self.eig_z.eigenvalues[0] * rounding * (1.0 + np.einsum("ij,ij->", w, w))
        return float(q), float(e)

    @cached_property
    def _cy_reads(self) -> tuple[tuple[float, float], NDArray[np.float64] | SingularMatrixError]:
        """c_y factored once by ``factor_spd`` and read twice: its largest
        and smallest eigenvalue through the factor (``linalg._spd_extremes``),
        then the solve c_y^-1 c_xy', or the SingularMatrixError that solve
        raised. The factor is a local, so no attribute ever holds it."""
        factor = factor_spd(self.c_y)
        extremes = _spd_extremes(self.c_y, factor)
        try:
            return extremes, solve_spd(factor, self.c_xy.T)
        except SingularMatrixError as exc:
            # a copy without the traceback, whose frames hold the factor and the cache
            return extremes, SingularMatrixError(str(exc))

    @property
    def extremes_y(self) -> tuple[float, float]:
        """The largest and the smallest eigenvalue of c_y, from ``_cy_reads``."""
        return self._cy_reads[0]

    @property
    def cond_y(self) -> float:
        """Condition number of c_y from ``extremes_y``. For an exactly
        symmetric c_y it is bit-identical to ``condition_number(c_y)``,
        which reads the same helper."""
        return _spectral_condition(self.extremes_y)

    @property
    def wiener_solve(self) -> NDArray[np.float64]:
        """c_y^-1 c_xy' (m x n) from ``_cy_reads``, the Wiener filter's
        transpose; where c_y is too singular to solve, the stored error,
        re-raised naming ``cond_y`` (which raises on no positive eigenvalue)."""
        solve = self._cy_reads[1]
        if isinstance(solve, SingularMatrixError):
            raise SingularMatrixError(
                f"input covariance is singular (condition number {self.cond_y:.3e}): {solve}"
            ) from solve
        return solve

    @cached_property
    def eig_wiener(self) -> SymEig:
        """Eigendecomposition of c_xy c_y^-1 c_xy' (n x n), the covariance of
        the Wiener estimate.

        Its eigenvectors are the left singular vectors of the whitened
        cross-covariance c_xy c_y^-1/2, and its eigenvalues the squares of
        their singular values. Raises :class:`SingularMatrixError` as
        ``_check_definite`` does on ``extremes_y``, before solving.
        """
        _check_definite(self.extremes_y, self.m)
        return sym_eig(self.c_xy @ self.wiener_solve)

    @cached_property
    def csw_ranking(self) -> tuple:
        """What ``csw`` and its ``rho_l`` read: the m x m eigendecomposition
        of c_y, ``c_xy`` times its eigenvectors, the scores
        ``norm(c_xy @ q_i)^2 / lambda_i`` and the order ``csw`` keeps the
        eigendirections in, highest score first.

        Raises :class:`SingularMatrixError` as ``_check_definite`` does on
        ``extremes_y``, before decomposing, so a c_y too singular to invert
        is refused by the same rule as in ``eig_wiener``.
        """
        _check_definite(self.extremes_y, self.m)
        eig = sym_eig(self.c_y)
        proj = self.c_xy @ eig.eigenvectors
        scores = np.einsum("ij,ij->j", proj, proj) / eig.eigenvalues
        return eig, proj, scores, np.argsort(-scores, kind="stable")


def estimate_covariance(samples, n: int) -> CovarianceModel:
    """Empirical covariance of zero-mean sample vectors, (K-1) denominator.

    ``samples`` is an iterable of equal-length vectors (or a (k, d)
    array) whose mean has already been subtracted; ``n`` is the size of
    the X block occupying the top coordinates of each vector. The K-1
    denominator is fixed, not configurable.
    """
    z = np.asarray(samples, dtype=np.float64)
    if z.ndim == 1:
        raise DimensionError("samples must be a sequence of vectors")
    if z.ndim != 2:
        raise DimensionError(f"samples must be 2-D, got ndim={z.ndim}")
    k, d = z.shape
    if k < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {k}")
    if not np.all(np.isfinite(z)):
        raise NumericInputError("samples contain non-finite entries")
    gram = z.T @ z
    gram /= k - 1
    return CovarianceModel.from_joint(gram, n)


# Rows between exact restarts of series_covariance's diagonal recurrence.
# Restarting every 32nd row, the Gram of AR(1) series of level 20 at
# m = 100..400 was as close to an extended-precision one as the gathered
# windows' Gram (tests/test_model.py).
_SHIFT_RESTART = 32


def series_covariance(centered, test, n: int) -> CovarianceModel:
    """Empirical covariance, (K-1) denominator, of the training windows of
    a centered series: all K = len - d of its windows of d consecutive
    values but the rows of ``test``.

    ``centered`` is the series less its training mean and ``test`` its test
    windows, each once and [later n | earlier m] as in
    ``dataio._split_series``, which makes both; d is the width of
    ``test``. The result equals :func:`estimate_covariance` of the gathered
    training windows up to rounding, but no window array is formed.

    The windows are shifts of one series, so in natural order, with
    c = ``centered``, the Gram of all K windows is
    G[i, j] = sum_{t<K} c[t+i] c[t+j] and
    G[i, j] = G[i-1, j-1] - c[i-1] c[j-1] + c[K+i-1] c[K+j-1]: its upper
    triangle is an O(K d) correlation for the first row and an O(d^2)
    recurrence along the diagonals (the covariance method's
    shift-invariance; Morf, Dickinson, Kailath & Vieira, IEEE Trans. ASSP
    25(5), 1977), restarted from an exact correlation every
    ``_SHIFT_RESTART`` rows. Each row goes straight into the model's
    blocks, c_y's upper triangle for the first m and c_x's for the last n,
    with c_xy from the columns past m; one rank-k update per block
    subtracts the test windows' Gram, and the upper triangles are mirrored
    exactly.
    """
    c = np.asarray(centered, dtype=np.float64)
    z = np.asarray(test, dtype=np.float64)
    if c.ndim != 1 or z.ndim != 2:
        raise DimensionError("need a 1-D series and a 2-D array of its test windows")
    d = z.shape[1]
    n = _as_count(n, "target size n", 1, d - 1)
    m, k = d - n, c.shape[0] - d
    if k - z.shape[0] < 2:
        raise InsufficientDataError(f"need at least 2 training windows, got {k - z.shape[0]}")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(z))):
        raise NumericInputError("series or test windows contain non-finite entries")
    c_x, c_y, c_xy = np.empty((n, n)), np.empty((m, m)), np.empty((n, m))
    for i in range(d):
        if i % _SHIFT_RESTART == 0:
            exact = row = np.correlate(c[i:k + d - 1], c[i:i + k], "valid")
            step = np.zeros(d - i)
        else:
            # the steps since the exact row, summed apart from it, so that
            # each entry of the row is rounded once against its own size
            step = step[:-1] + (c[k + i - 1] * c[k + i - 1:k + d - 1]
                                - c[i - 1] * c[i - 1:d - 1])
            row = exact[:d - i] + step
        # row is G[i, i:]
        if i < m:
            c_y[i, i:] = row[:m - i]
            c_xy[:, i] = row[m - i:]
        else:
            c_x[i - m, i - m:] = row
    x, y = z[:, :n], np.ascontiguousarray(z[:, n:])
    # c_y's upper triangle is the lower one of its Fortran-ordered transpose
    scipy.linalg.blas.dsyrk(-1.0, y.T, beta=1.0, c=c_y.T, lower=1, overwrite_c=1)
    c_x -= x.T @ x
    c_xy -= x.T @ y
    for block in (c_x, c_y):
        for i in range(1, block.shape[0]):  # the upper triangle mirrored, exactly
            block[i, :i] = block[:i, i]
    for block in (c_x, c_y, c_xy):
        block /= k - z.shape[0] - 1
    return CovarianceModel(c_x, c_y, c_xy)


def geometric_spectrum(size: int, scale: float = 1.0, ratio: float = 0.6) -> NDArray[np.float64]:
    """Spectrum scale * ratio**i for i = 0..size-1."""
    size = _as_count(size, "spectrum size", 0)
    if scale <= 0.0 or ratio <= 0.0:
        raise InvalidSpectrumError("geometric spectrum needs scale > 0 and ratio > 0")
    return scale * ratio ** np.arange(size, dtype=np.float64)


def synthetic_model(n: int, spectrum, *, seed: int = 0) -> CovarianceModel:
    """Random covariance model with a prescribed joint spectrum.

    The spectrum, 1-D and positive, has length n + m, so m is its length
    less n. Draws a Haar-like orthonormal basis from the QR of a seeded
    Gaussian matrix, forms the joint covariance from the descending-sorted
    spectrum, and partitions it. Deterministic per seed.
    """
    spec = np.asarray(spectrum, dtype=np.float64)
    if spec.ndim != 1:
        raise DimensionError(f"spectrum must be 1-D, got shape {spec.shape}")
    n = _as_count(n, "target size n", 1, spec.shape[0] - 1)
    if not np.all(spec > 0.0):
        bad = int(np.argmin(spec))
        raise InvalidSpectrumError(
            f"spectrum entry {bad} is nonpositive ({spec[bad]:g})")
    spec = np.sort(spec)[::-1]
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((spec.size, spec.size)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    return CovarianceModel.from_joint(_symmetric_part((q * spec) @ q.T), n)


def sample_from_model(model: CovarianceModel, k: int, seed: int = 0) -> NDArray[np.float64]:
    """Draw k i.i.d. zero-mean Gaussian vectors with the model's joint covariance.

    Returns the (k, n+m) array of draws, one vector per row. Uses the
    symmetric square root of the joint covariance from the model's own
    joint eigendecomposition (``model.spectral.eig_z``, the one its
    filters truncate), not an assembled ``c_z``; negative
    eigenvalues beyond -1e-10 * lambda_max are a model error, smaller
    ones are clipped to zero. Deterministic per seed.
    """
    k = _as_count(k, "sample count k", 0)
    eig = model.spectral.eig_z
    vals = eig.eigenvalues
    lam_max = max(float(vals[0]), 0.0) if vals.size else 0.0
    if vals.size and float(vals[-1]) < -1e-10 * lam_max:
        raise ModelError(
            f"joint covariance is not PSD: smallest eigenvalue {vals[-1]:.3e}")
    root = (eig.eigenvectors * np.sqrt(np.clip(vals, 0.0, None))) @ eig.eigenvectors.T
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((k, model.dim))
    return draws @ root.T
