"""Shared model builders for the test suite."""

import sys

import numpy as np
import pytest

from wclmmse import CovarianceModel, FilterKind, SpectralCache, linalg
from wclmmse.diagnostics import _jpc_order
from wclmmse.filters import _structured_filter


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
    """``jpc`` or ``lsjpc`` at level l built without the model's ladder:
    level l's own system formed, factored and solved against Y_l'. Spelled
    out here, not read from the model's definitions, so that it stays an
    independent reference."""
    y = model.spectral.y_block(l)
    if FilterKind(kind) is FilterKind.JPC:
        return _structured_filter(model, y.T)
    gram = y.T @ y
    system = linalg.factor_spd(0.5 * (gram + gram.T))
    return model.spectral.x_block(l) @ linalg.solve_spd(system, y.T)


def ladder_of(model, kind):
    """The model's ladder for ``jpc`` or ``lsjpc``."""
    cache = model.spectral
    return cache.jpc_ladder if FilterKind(kind) is FilterKind.JPC else cache.lsjpc_ladder


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
