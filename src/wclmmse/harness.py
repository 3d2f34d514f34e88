"""Experiment orchestration: truncation sweeps, window-length sweeps,
and condition-number reports.

Rows are plot-ready records in the fixed result schema. Every cell of a
sweep reads the decompositions of the model the sweep owns
(``model.spectral``), so each matrix of a model is decomposed once per
sweep. A construction failure (e.g. a singular input covariance) is
captured in its row as NaN metrics instead of aborting the sweep:
failure regimes are part of what these experiments measure. Built or
not, a row's ``max_inverse_dim`` is the certificate its filter kind
states for its level. Rows are sorted by (filter, m, l) before
serialization so ordering never depends on execution order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import dataio
from .dataio import ExperimentResult
from .diagnostics import analytic_mse, best_l_search, filter_power_loss
from .errors import WclmmseError
from .filters import FILTER_CONSTRUCTORS, FilterKind, LinearFilter, _certificate, _kind
from .linalg import _as_count, _count_grid, condition_number
from .model import CovarianceModel, sample_from_model, series_covariance

__all__ = [
    "LPolicy",
    "parse_l_policy",
    "run_l_sweep",
    "run_m_sweep",
    "run_condition_report",
]

_TEST_DRAWS = 1000
# Built filters scored per stacked product: a chunk predicts a model
# source's 1000 test vectors as one 1000 x 16n block. In-process medians
# of the seed-7 sweep-l-m400 sweep (10 alternating rounds, 2-vCPU Xeon VM,
# one BLAS thread): 0.340 s with chunks of 1; 0.270 / 0.262 / 0.255 /
# 0.263 / 0.257 s with chunks of 4 / 8 / 16 / 24 / 40. Past 16 the blocks
# grow for no further gain. The chunk also fixes result bytes: a product's
# shape sets the order BLAS sums in. With one product per kind, norm_rms
# moved in 2-3 of 241 sweep-l-illcond rows at each of seeds 0, 1, 5 and 7
# at one BLAS thread (2 and 1 rows at seeds 0 and 7 at two), by up to
# 3.4e-8 of its tolerance, so a new chunk size is a result-bytes change.
_SCORE_CHUNK = 16


@dataclass
class LPolicy:
    """Truncation-level policy for window-length sweeps.

    ``fixed`` uses the given level, an integer from 1 up, everywhere, capped
    at m. ``best`` takes no level: it takes the level and the filter that
    :func:`~wclmmse.diagnostics.best_l_search` finds on the training
    covariances; its docstring gives the grid and the search. The row's
    ``wall_ms`` is then the time of choosing and building the filter,
    which is the search. ``wiener`` has no level: either mode builds it
    once, at ``l=None``.
    """

    mode: str = "best"
    l: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "best"):
            raise ValueError(f"unknown policy mode: {self.mode!r}")
        if self.mode == "fixed":
            self.l = _as_count(self.l, "truncation level l", 1)
        elif self.l is not None:
            raise ValueError(f"best policy takes no level, got l={self.l!r}")

    def choose(self, model: CovarianceModel,
               kind: FilterKind) -> tuple[int | None, LinearFilter | None]:
        """The level for ``kind`` on ``model`` (None for ``wiener``) and the
        filter built there, None when it cannot be built."""
        if kind is FilterKind.WIENER:
            return _build(kind, model, None)
        if self.mode == "fixed":
            return _build(kind, model, min(self.l, model.m))
        l, _, filt = best_l_search(model, kind)
        return l, filt


def parse_l_policy(text: str) -> LPolicy:
    """Parse ``best`` or ``fixed:L``."""
    if text == "best":
        return LPolicy(mode="best")
    if text.startswith("fixed:"):
        return LPolicy(mode="fixed", l=int(text.split(":", 1)[1]))
    raise ValueError(f"cannot parse l-policy {text!r} (use 'best' or 'fixed:L')")


def _check_size(model: CovarianceModel, m: int, n: int) -> None:
    """Refuse a model source whose (n, m) is not the one requested."""
    if model.m != m or model.n != n:
        raise ValueError(f"model has (n, m) = {(model.n, model.m)}, requested {(n, m)}")


def _prepare(source, m: int, n: int, seed: int):
    """Turn a series or model into (the sweep's own model, test vectors,
    mean). A model source gets a new model over its three arrays, none
    copied, so a sweep never reads or changes the caller's ``model.spectral``.
    A series is split as by :func:`~wclmmse.dataio.window_samples`, but
    only its test windows are gathered (``dataio._split_series``):
    :func:`~wclmmse.model.series_covariance` builds the training
    covariance from the series' shifts, with no training window array."""
    if isinstance(source, CovarianceModel):
        _check_size(source, m, n)
        model = CovarianceModel(source.c_x, source.c_y, source.c_xy)
        return model, sample_from_model(model, _TEST_DRAWS, seed=seed + 1), 0.0
    centered, test, mean = dataio._split_series(source, m, n, seed)
    return series_covariance(centered, test, n), test, mean


def _build(kind: FilterKind, model: CovarianceModel,
           l: int | None) -> tuple[int | None, LinearFilter | None]:
    """``kind`` built at ``l``: (l, the filter, or None when it cannot be built)."""
    try:
        return l, FILTER_CONSTRUCTORS[kind](model, l)
    except WclmmseError:
        return l, None


def _sweep_model(source, m: int, n: int, seed: int, kinds,
                 policies: list[LPolicy]) -> list[ExperimentResult]:
    """Score each kind on one model: one row per policy, ``wiener``'s from the first.

    Every cell reads the one set of decompositions of the model the
    sweep owns (:func:`_prepare`), ``model.spectral``, all made before any
    cell is timed: the extreme eigenvalues of ``c_y``, which give
    ``cond_cy``, and those the kinds read at the sweep's fixed levels
    (:meth:`~wclmmse.model.SpectralCache.prepare_sweep`).

    Each cell's build is timed alone (:func:`_sweep_cell`). A kind's
    built filters are then scored in chunks of ``_SCORE_CHUNK``, each
    chunk by one call of :func:`~wclmmse.dataio.normalized_rms` and one
    of :func:`~wclmmse.diagnostics.analytic_mse` on its filters, which
    are dropped once scored.
    """
    model, test_z, mean = _prepare(source, m, n, seed)
    cond_cy = model.spectral.cond_y
    model.spectral.prepare_sweep(kinds, [min(p.l, m) for p in policies if p.mode == "fixed"])
    rows = []
    for kind in kinds:
        built = []
        for policy in (policies[:1] if kind is FilterKind.WIENER else policies):
            row, filt = _sweep_cell(kind, model, policy, cond_cy)
            rows.append(row)
            if filt is not None:
                built.append((row, filt))
            if len(built) == _SCORE_CHUNK:
                _score(built, model, test_z, mean)
                built = []
        if built:
            _score(built, model, test_z, mean)
    return rows


def _score(built: list[tuple[ExperimentResult, LinearFilter]], model: CovarianceModel,
           test_z: np.ndarray, mean: float) -> None:
    """Fill in the ``norm_rms`` and ``analytic_mse`` of each built row
    from its filter, all filters in one stacked call of each."""
    filters = [filt for _, filt in built]
    rms = dataio.normalized_rms(filters, test_z, mean)
    mse = analytic_mse(model, filters)
    for (row, _), row_rms, row_mse in zip(built, rms, mse):
        row.norm_rms, row.analytic_mse = row_rms, row_mse


def _sort_key(row: ExperimentResult):
    return (row.filter, row.m, -1 if row.l is None else row.l)


def _sweep_cell(kind: FilterKind, model: CovarianceModel, policy: LPolicy,
                cond_cy: float) -> tuple[ExperimentResult, LinearFilter | None]:
    """The row of ``kind`` on ``model`` at the level ``policy`` chooses,
    through :meth:`LPolicy.choose`, and the filter built there (None when
    it cannot be built); for ``wiener``, which has no level, the row at
    ``l=None``.

    ``wall_ms`` times only getting the filter, which reads the model's
    shared decompositions: building the filter at its level, and for an
    ``--l-policy best`` row also the search that chose the level and
    built the filter there. Neither the one-time decompositions of the
    model (``jpc``'s ladder factorization among them) nor
    the scoring are in it. The row's ``norm_rms`` and ``analytic_mse``
    are NaN here; :func:`_sweep_model` scores a built filter afterwards,
    so they stay NaN only for a filter that cannot be built. Every other
    field is as for a built one.
    """
    started = time.perf_counter()
    l, filt = policy.choose(model, kind)
    wall_ms = (time.perf_counter() - started) * 1e3
    nan = float("nan")
    return ExperimentResult(
        filter=kind.value, m=model.m, n=model.n, l=l,
        norm_rms=nan, analytic_mse=nan,
        rho_l=_rho_for(kind, model, l),
        cond_cy=cond_cy,
        max_inverse_dim=_certificate(kind, model.m, l),
        wall_ms=wall_ms,
    ), filt


def _rho_for(kind: FilterKind, model: CovarianceModel, l: int | None) -> float:
    if l is None:
        return 0.0
    try:
        return filter_power_loss(model, kind, l)
    except WclmmseError:
        return float("nan")


def run_l_sweep(source, m: int, n: int, l_grid, filters,
                seed: int = 0) -> list[ExperimentResult]:
    """One row per (filter, truncation level); the unconstrained filter
    appears once with the level omitted. The grid must not be empty, and
    every level must be an integer in [1, m]. A model ``source`` is swept
    through a model of its own (:func:`_prepare`), so its ladder top stays."""
    kinds = [_kind(item, "sweep") for item in filters]
    grid = _count_grid(l_grid, "truncation", "truncation level l", 1, m)
    rows = _sweep_model(source, m, n, seed, kinds,
                        [LPolicy(mode="fixed", l=l) for l in grid])
    rows.sort(key=_sort_key)
    return rows


def run_m_sweep(series, m_grid, n: int, filters, l_policy: LPolicy,
                seed: int = 0) -> list[ExperimentResult]:
    """Re-window the series at each length and score every filter there.
    The grid must not be empty, and every length must be an integer from 1 up."""
    kinds = [_kind(item, "sweep") for item in filters]
    rows = []
    for m in _count_grid(m_grid, "window-length", "window length m", 1):
        rows += _sweep_model(series, m, n, seed, kinds, [l_policy])
    rows.sort(key=_sort_key)
    return rows


def run_condition_report(source, m_grid, n: int, seed: int = 0) -> list[tuple[int, float]]:
    """Condition number of the input covariance at each window length.

    For a covariance model the length-m input covariance is the trailing
    principal m x m block (the coordinates nearest the target block);
    for a series it is re-estimated at each length, and its condition
    number is the ``cond_cy`` of a ``sweep-m`` row at that length. The
    grid must not be empty, and its lengths are integers from 1 up, for a
    model in [1, M]; a model's n must be ``n``, as in the sweeps.
    """
    high = np.inf
    if isinstance(source, CovarianceModel):
        _check_size(source, source.m, n)
        high = source.m
    rows = []
    for m in _count_grid(m_grid, "window-length", "window length m", 1, high):
        if isinstance(source, CovarianceModel):
            cond = condition_number(source.c_y[source.m - m :, source.m - m :])
        else:
            cond = _prepare(source, m, n, seed)[0].spectral.cond_y
        rows.append((m, cond))
    return rows

