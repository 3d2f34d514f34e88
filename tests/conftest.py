"""Shared model builders for the test suite."""

import sys

import numpy as np
import pytest

from wclmmse import CovarianceModel, FilterKind, SingularMatrixError, SpectralCache, linalg
from wclmmse.diagnostics import _jpc_order
from wclmmse.filters import FILTER_CONSTRUCTORS, _structured_filter


def haar_model(n, m, ratio=0.7, seed=0, scale=1.0):
    """Random-basis covariance model with a geometric joint spectrum."""
    from wclmmse import geometric_spectrum, synthetic_model

    return synthetic_model(n, geometric_spectrum(n + m, scale, ratio), seed=seed)


def tail_mixed_model(n, m, ratio=0.7, mix=1e-3, seed=0):
    """Covariance model whose leading joint eigenvectors are nearly pure-Y.

    Cross-information enters through n rotation pairs whose X-heavy
    partners carry the smallest eigenvalues, so every truncation keeps
    Y-dominated directions (Gram defect ~ mix**2). This is the regime
    where the inverse-free filter approximations are accurate.
    """
    d = n + m
    rng = np.random.default_rng(seed)
    qa, ra = np.linalg.qr(rng.standard_normal((n, n)))
    qa = qa * np.sign(np.diag(ra))
    qb, rb = np.linalg.qr(rng.standard_normal((m, m)))
    qb = qb * np.sign(np.diag(rb))
    v = np.zeros((d, d))
    s, c = mix, np.sqrt(1.0 - mix * mix)
    for i in range(n):
        v[:n, i] = s * qa[:, i]
        v[n:, i] = c * qb[:, i]
        v[:n, m + i] = c * qa[:, i]
        v[n:, m + i] = -s * qb[:, i]
    for i in range(n, m):
        v[n:, i] = qb[:, i]
    spectrum = ratio ** np.arange(d)
    c_z = (v * spectrum) @ v.T
    return CovarianceModel.from_joint(0.5 * (c_z + c_z.T), n)


def ar1_model(n, m, phi=0.9, noise=0.0):
    """Stationary AR(1) joint covariance, stacked [later n | earlier m]."""
    d = n + m
    t = np.arange(d)
    time_cov = phi ** np.abs(t[:, None] - t[None, :]) + noise * np.eye(d)
    order = np.concatenate([np.arange(m, d), np.arange(m)])
    return CovarianceModel.from_joint(time_cov[np.ix_(order, order)], n)


def direct_joint_build(model, kind, l):
    """``jpc`` or ``lsjpc`` at level l by its defining formula in float64:
    level l's own system formed, factored and solved against Y_l'. Spelled
    out here, not read from the model's definitions, so that it stays an
    independent reference: ``jpc``'s, and the float64 formula that
    :func:`assert_near_the_lsjpc_oracle` measures ``lsjpc`` against."""
    y = model.spectral.y_block(l)
    if FilterKind(kind) is FilterKind.JPC:
        return _structured_filter(model, y.T)
    gram = y.T @ y
    system = linalg.factor_spd(0.5 * (gram + gram.T))
    return model.spectral.x_block(l) @ linalg.solve_spd(system, y.T)


def lsjpc_oracle(model, l):
    """``lsjpc`` at level l, X_l (Y_l'Y_l)^-1 Y_l' on the model's float64
    basis, in ``longdouble``: the Gram formed, Cholesky-factored and solved
    against X_l' in that precision, so that its rounding is far below any
    float64 build's."""
    x = model.spectral.x_block(l).astype(np.longdouble)
    y = model.spectral.y_block(l).astype(np.longdouble)
    gram = y.T @ y
    low = np.zeros_like(gram)
    for j in range(l):
        low[j, j] = np.sqrt(gram[j, j] - low[j, :j] @ low[j, :j])
        low[j + 1:, j] = (gram[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    w = x.T.copy()
    for i in range(l):  # low^-1 X_l'
        w[i] = (w[i] - low[i, :i] @ w[:i]) / low[i, i]
    for i in reversed(range(l)):  # low'^-1 of that
        w[i] = (w[i] - low[i + 1:, i] @ w[i + 1:]) / low[i, i]
    return w.T @ y.T


def assert_near_the_lsjpc_oracle(model, l):
    """``lsjpc``'s build at level l is within 1e-8 tr(c_x), the benchmark's
    analytic_mse tolerance, of :func:`lsjpc_oracle` in ``longdouble`` MSE,
    or no further from it than the direct float64 formula
    (:func:`direct_joint_build`), which near the rank edge is further off."""
    oracle = longdouble_mse(model, lsjpc_oracle(model, l))
    gap = abs(longdouble_mse(model, FILTER_CONSTRUCTORS[FilterKind.LSJPC](model, l).matrix)
              - oracle)
    try:
        direct = abs(longdouble_mse(model, direct_joint_build(model, FilterKind.LSJPC, l))
                     - oracle)
    except SingularMatrixError:
        direct = 0.0
    assert gap <= max(1e-8 * np.trace(model.c_x), direct), l


def longdouble_mse(model, a):
    """tr(c_x) - 2 tr(c_xy A') + tr(A c_y A') for the filter matrix ``a``,
    evaluated in ``longdouble``."""
    a = np.asarray(a, dtype=np.longdouble)
    c_x, c_y, c_xy = (np.asarray(block, dtype=np.longdouble)
                      for block in (model.c_x, model.c_y, model.c_xy))
    return np.trace(c_x) - 2 * np.sum(c_xy * a) + np.sum((a @ c_y) * a)


def jpc_bounds(model):
    """{l: p(l)} at every level up to the ``jpc`` ladder's top, p(l) the
    lower bound on the analytic MSE of ``jpc`` that ``best_l_search``
    orders its builds by (-inf where the ladder's Cholesky failed), in
    level order."""
    return dict(sorted((l, p) for p, l in _jpc_order(model, range(1, model.m + 1))))


def ar1_series(length, phi=0.8, level=20.0, sigma=1.0, seed=0):
    """A synthetic daily series (1-D values) for pipeline tests."""
    rng = np.random.default_rng(seed)
    values = np.empty(length)
    values[0] = 0.0
    for i in range(1, length):
        values[i] = phi * values[i - 1] + sigma * rng.standard_normal()
    return values + level


@pytest.fixture
def sym_eig_shapes(monkeypatch):
    """Shapes of the matrices handed to ``sym_eig`` anywhere in the package."""
    shapes = []
    original = linalg.sym_eig

    def counting(a):
        shapes.append(np.shape(a))
        return original(a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "wclmmse" and getattr(module, "sym_eig", None) is original:
            monkeypatch.setattr(module, "sym_eig", counting)
    return shapes


@pytest.fixture
def cache_builds(monkeypatch):
    """One entry per ``SpectralCache`` constructed."""
    built = []
    init = SpectralCache.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SpectralCache, "__init__", counting_init)
    return built
