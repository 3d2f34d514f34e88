"""Experiment harness tests: sweeps, condition reports, failure capture."""

import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import wclmmse
from conftest import ar1_series, haar_model, live_spd_factors
from wclmmse import (
    CovarianceModel,
    DimensionError,
    FilterKind,
    LPolicy,
    RankError,
    SingularMatrixError,
    SpectralCache,
    analytic_mse,
    best_l_search,
    condition_number,
    estimate_covariance,
    jpc,
    geometric_spectrum,
    lsjpc,
    run_condition_report,
    run_l_sweep,
    run_m_sweep,
    synthetic_model,
    window_samples,
)
from wclmmse import harness, linalg
from wclmmse.diagnostics import _search_grid
from wclmmse.filters import FILTER_CONSTRUCTORS
from wclmmse.harness import parse_l_policy


ALL_KINDS = ["wiener", "lrw", "csw", "jpc", "lsjpc", "jpc_simplified", "lsjpc_simplified"]


# 1..40 in the order 1, 40, 2, 39, ...: on a model whose top levels fail,
# failed cells fall between built ones of the same chunk
_INTERLEAVED_40 = [l for pair in zip(range(1, 21), range(40, 20, -1)) for l in pair]


def _record_models(monkeypatch):
    """The models a sweep estimates from a series, in order."""
    models, estimate = [], harness.series_covariance

    def recording(*args, **kwargs):
        models.append(estimate(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(harness, "series_covariance", recording)
    return models


def _record_prepared(monkeypatch):
    """The models sweeps prepare for themselves, in order."""
    models, prepare = [], harness._prepare

    def recording(*args):
        prepared = prepare(*args)
        models.append(prepared[0])
        return prepared

    monkeypatch.setattr(harness, "_prepare", recording)
    return models


def _record_cho_factor(monkeypatch):
    """Every matrix handed to cho_factor, failed factorizations included."""
    factored, cho_factor = [], scipy.linalg.cho_factor

    def recording(a, *args, **kwargs):
        factored.append(a)
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", recording)
    return factored


def _jpc_system(model, l):
    """jpc's l x l system Y_l' c_y Y_l, formed afresh."""
    y = model.spectral.y_block(l)
    return y.T @ model.c_y @ y


def _rank_deficient_m250():
    """The m=250 model estimated from the gathered training windows of a
    300-point AR(1) series (phi 0.8, seed 0, n=2): 38 windows for d=252,
    so a rank-deficient c_y. Its ladder top is set by rounding, so the
    tests sweep this model, which ``estimate_covariance`` fixes, rather
    than the series, whose estimate a change of summation order moves."""
    train, _, _ = window_samples(ar1_series(300, phi=0.8, seed=0), 250, 2, 0)
    return estimate_covariance(train, 2)


def _search_rank_deficient_m250(monkeypatch, kind):
    """A best-policy ``kind`` row on the sweep's own m=250 model
    (:func:`_rank_deficient_m250`), that model, the matrices handed to
    cho_factor and the filters the search built."""
    models = _record_prepared(monkeypatch)
    factored = _record_cho_factor(monkeypatch)
    built = {}
    constructor = FILTER_CONSTRUCTORS[kind]

    def recording(model, l):
        built[l] = constructor(model, l)
        return built[l]

    monkeypatch.setitem(FILTER_CONSTRUCTORS, kind, recording)
    (row,) = run_m_sweep(_rank_deficient_m250(), [250], 2, [kind],
                         LPolicy(mode="best"), seed=0)
    (model,) = models
    return row, model, factored, built


def _assert_is_the_fixed_row(row):
    """The m=250 row equals the fixed-level row at its level, wall_ms aside."""
    fixed = run_m_sweep(_rank_deficient_m250(), [row.m], row.n, [row.filter],
                        parse_l_policy(f"fixed:{row.l}"), seed=0)
    assert fixed == [dataclasses.replace(row, wall_ms=fixed[0].wall_ms)]


def _factorizations_of(factored, system):
    """How many of the factored matrices are ``system`` up to rounding; the
    tolerance is far below what tells it from any other matrix factored."""
    atol = 1e-8 * np.abs(system).max()
    return sum(np.shape(a) == system.shape and np.allclose(a, system, rtol=0.0, atol=atol)
               for a in factored)


class TestRunLSweep:
    def test_row_layout(self):
        model = haar_model(2, 6, ratio=0.7, seed=0)
        rows = run_l_sweep(model, 6, 2, range(1, 7),
                           ["wiener", "jpc", "lsjpc"], seed=0)
        assert len(rows) == 1 + 6 + 6
        wiener_rows = [r for r in rows if r.filter == "wiener"]
        assert len(wiener_rows) == 1 and wiener_rows[0].l is None
        assert rows == sorted(rows, key=lambda r: (r.filter, r.m, -1 if r.l is None else r.l))

    def test_certificates_in_rows(self):
        model = haar_model(2, 6, ratio=0.7, seed=1)
        rows = run_l_sweep(model, 6, 2, [2, 4], ["wiener", "lrw", "jpc", "lsjpc"], seed=0)
        for row in rows:
            if row.filter in ("jpc", "lsjpc"):
                assert row.max_inverse_dim <= row.l
            else:
                assert row.max_inverse_dim == 6

    def test_jpc_training_mse_non_increasing_and_rms_within_noise(self):
        model = haar_model(2, 8, ratio=0.8, seed=2)
        rows = [r for r in run_l_sweep(model, 8, 2, range(1, 9), ["jpc"], seed=0)]
        mse = np.array([r.analytic_mse for r in rows])
        assert np.all(np.diff(mse) <= 1e-10)
        rms = np.array([r.norm_rms for r in rows])
        assert np.all(np.diff(rms) <= 0.05 * rms[:-1])

    def test_endpoint_matches_unconstrained_within_one_percent(self):
        model = haar_model(2, 8, ratio=0.8, seed=3)
        rows = run_l_sweep(model, 8, 2, [8], ["wiener", "jpc"], seed=0)
        by_kind = {r.filter: r for r in rows}
        assert by_kind["jpc"].norm_rms == pytest.approx(by_kind["wiener"].norm_rms, rel=0.01)

    def test_failure_captured_per_row(self):
        # exactly singular input covariance: the unconstrained filter and
        # the whitening-based one fail, the joint-eigenbasis one survives
        c_z = np.zeros((5, 5))
        c_z[:3, :3] = np.array([[2.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 0.5]])
        model = CovarianceModel.from_joint(c_z, 1)
        rows = run_l_sweep(model, 4, 1, [1], ["wiener", "lrw", "jpc"], seed=0)
        by_kind = {r.filter: r for r in rows}
        assert np.isnan(by_kind["wiener"].norm_rms)
        assert np.isnan(by_kind["lrw"].norm_rms)
        assert by_kind["wiener"].cond_cy == np.inf
        assert np.isfinite(by_kind["jpc"].norm_rms)

    def test_series_source(self):
        series = ar1_series(220, phi=0.8, seed=4)
        rows = run_l_sweep(series, 6, 2, [2, 4], ["wiener", "jpc"], seed=0)
        assert len(rows) == 3
        for row in rows:
            assert row.norm_rms < 1.0
            assert row.cond_cy > 1.0

    def test_empty_grid_rejected(self):
        model = haar_model(2, 6, ratio=0.7, seed=0)
        with pytest.raises(DimensionError, match="empty truncation grid"):
            run_l_sweep(model, 6, 2, [], ["wiener", "jpc"], seed=0)

    def test_dimension_mismatch_rejected(self):
        model = haar_model(2, 6, seed=5)
        with pytest.raises(ValueError):
            run_l_sweep(model, 5, 2, [1], ["wiener"], seed=0)

    @pytest.mark.parametrize("ratio", [0.97, 0.9])
    def test_l_sweep_factors_one_top_system_per_kind(self, monkeypatch, ratio):
        # cho_factor sees c_y once, for the rows' cond_cy, and jpc's
        # ladder, its system at the top, once: at the sweep's largest level
        # that passes the rank check where that is above the best grid's top (400 at ratio 0.97, 340 at 0.9, where
        # 350 up fail it), else at the grid's top (382 and 332), which a
        # sweep up to l=300 leaves as it is. Then only the systems of the
        # levels below the top that the ladder does not reach: none at
        # ratio 0.97, whose joint is within the bound, so the ladder reaches
        # every level up to its top; at ratio 0.9 the top it does not reach
        # reuses the ladder's factor. lsjpc has no top system: it factors
        # one n x n system at each level that passes. All of it on the
        # sweep's own model: the caller's model keeps the grid's top
        prepared = _record_prepared(monkeypatch)
        factored = _record_cho_factor(monkeypatch)
        tops = {0.97: {400: (382, 400), 300: (382, 382)},
                0.9: {400: (332, 340), 300: (332, 332)}}[ratio]
        for l_max, (grid_top, top) in tops.items():
            model = haar_model(7, 400, ratio=ratio, seed=0)
            assert model.spectral.ladder_top == grid_top
            grid = range(10, l_max + 1, 10)
            factored.clear()
            prepared.clear()
            rows = run_l_sweep(model, 400, 7, grid, ["jpc", "lsjpc"], seed=0)
            assert len(rows) == 2 * len(grid)
            (own,) = prepared
            assert own is not model and model.spectral.ladder_top == grid_top
            assert "jpc_ladder" not in vars(model.spectral)
            cache = own.spectral
            passing = []
            for l in grid:
                try:
                    cache.check_y_rank(l)
                except RankError:
                    continue
                passing.append(l)
            assert top == max(passing[-1], grid_top)
            ladder = cache.jpc_ladder
            assert ladder.top == cache.ladder_top == top
            expected = [_jpc_system(own, top)]
            expected += [_jpc_system(own, l) for l in passing
                         if l < top and not ladder.reaches(l)]
            assert ladder.reaches(top) == (ratio == 0.97)
            assert (len(expected) > 10) == (ratio == 0.9)
            assert sum(a is own.c_y for a in factored) == 1
            large = [a for a in factored if np.shape(a) != (7, 7) and a is not own.c_y]
            assert len(large) == len(expected)
            assert all(_factorizations_of(large, system) == 1 for system in expected)
            assert len(factored) - 1 - len(large) == len(passing)

    def test_l_sweep_leaves_the_callers_model_as_it_was(self):
        # a sweep up to l=m raises its ladders' top from the grid's 382 to
        # 400 on a model of its own; the caller's model builds the same
        # bits after it as before it, ladder levels and direct ones alike
        model = synthetic_model(7, geometric_spectrum(407, 1.0, 0.97), seed=7)

        def outputs():
            matrices = [constructor(model, l).matrix for constructor in (jpc, lsjpc)
                        for l in (100, 200, 382, 390, 400)]
            return matrices, [best_l_search(model, kind)[:2] for kind in ("jpc", "lsjpc")]

        before = outputs()
        assert model.spectral.ladder_top == 382
        run_l_sweep(model, 400, 7, range(10, 401, 10), ["jpc", "lsjpc"], seed=0)
        after = outputs()
        assert [np.array_equal(a, b) for a, b in zip(before[0], after[0])] == [True] * 10
        assert before[1] == after[1]
        assert model.spectral.ladder_top == model.spectral.jpc_ladder.top == 382

    def test_csw_sweep_ranks_c_y_once(self, monkeypatch, sym_eig_shapes):
        # every csw cell and its rho_l read one ranking, of one
        # eigendecomposition of c_y; the joint one draws the test vectors
        rankings, ranking = [], SpectralCache.csw_ranking.func

        def counting(cache):
            rankings.append(cache.m)
            return ranking(cache)

        counted = functools.cached_property(counting)
        counted.__set_name__(SpectralCache, "csw_ranking")
        monkeypatch.setattr(SpectralCache, "csw_ranking", counted)
        model = haar_model(2, 8, ratio=0.8, seed=14)
        rows = run_l_sweep(model, 8, 2, range(1, 9), ["csw"], seed=0)
        assert len(rows) == 8
        assert all(np.isfinite([r.norm_rms, r.analytic_mse, r.rho_l]).all() for r in rows)
        assert sorted(sym_eig_shapes) == [(8, 8), (10, 10)]
        assert rankings == [8]

    def test_l_sweep_decomposes_the_model_once(self, cache_builds):
        model = haar_model(2, 8, ratio=0.8, seed=14)
        rows = run_l_sweep(model, 8, 2, [2, 4, 8], ALL_KINDS, seed=0)
        assert len(rows) == 1 + 6 * 3
        assert len(cache_builds) == 1

    def test_levels_outside_one_to_m_rejected_before_any_work(self, cache_builds):
        model = haar_model(2, 6, ratio=0.7, seed=0)
        for grid in ([0, 2], [2, 9]):
            with pytest.raises(DimensionError):
                run_l_sweep(model, 6, 2, grid, ["wiener", "jpc"], seed=0)
        assert cache_builds == []

    def test_each_built_row_scored_once_in_chunks_of_one_kind(self, monkeypatch):
        # the ratio-0.3 model's jpc fails from l=37 up, and its c_y is too
        # singular for lrw and csw
        chunks = {"rms": [], "mse": []}
        normalized_rms, analytic_mse_ = wclmmse.dataio.normalized_rms, harness.analytic_mse

        def recording(name, score):
            def wrapper(*args):
                filters = args[0] if name == "rms" else args[1]
                chunks[name].append([(f.kind.value, f.l) for f in filters])
                return score(*args)
            return wrapper

        monkeypatch.setattr(wclmmse.dataio, "normalized_rms", recording("rms", normalized_rms))
        monkeypatch.setattr(harness, "analytic_mse", recording("mse", analytic_mse_))
        model = haar_model(2, 40, ratio=0.3, seed=3)
        rows = run_l_sweep(model, 40, 2, _INTERLEAVED_40, ALL_KINDS, seed=0)
        built = sorted((r.filter, r.l) for r in rows if np.isfinite(r.norm_rms))
        assert 0 < len(built) < len(rows)
        assert {("jpc", l) for l in range(37, 41)} <= {
            (r.filter, r.l) for r in rows if np.isnan(r.norm_rms)}
        assert chunks["rms"] == chunks["mse"]
        assert sorted(cell for chunk in chunks["rms"] for cell in chunk) == built
        for chunk in chunks["rms"]:
            assert 1 <= len(chunk) <= harness._SCORE_CHUNK
            assert len({kind for kind, _ in chunk}) == 1
        jpc_chunks = [len(c) for c in chunks["rms"] if c[0][0] == "jpc"]
        assert jpc_chunks == [16, 16, 4]

    def test_singular_c_y_is_decomposed_once(self, sym_eig_shapes):
        # c_y is singular in float64, so lrw and csw fail at every level;
        # both are refused from the eigenvalues of c_y, and only the joint
        # c_z is decomposed
        model = haar_model(2, 8, ratio=0.02, seed=3)
        rows = run_l_sweep(model, 8, 2, [2, 4, 8], ALL_KINDS, seed=0)
        failed = [r for r in rows if r.filter in ("lrw", "csw")]
        assert len(failed) == 6 and all(np.isnan(r.norm_rms) for r in failed)
        assert all(np.isnan(r.rho_l) for r in failed)
        assert sorted(sym_eig_shapes) == [(10, 10)]

    @pytest.mark.parametrize("kinds", [["jpc", "lsjpc"], ["jpc", "wiener"]])
    def test_no_c_y_factor_lives_through_the_joint_decomposition(self, monkeypatch, kinds):
        # the joint decomposition sets a sweep's peak memory, so whatever
        # the kind order, no m x m factor of c_y is alive while it runs.
        # A series source: a model source's joint decomposition comes
        # first, when the sweep draws its test vectors
        n, m, alive = 2, 23, []
        decompose = wclmmse.model.sym_eig

        def recording(a):
            if len(a) == n + m:
                alive.append(len(live_spd_factors(m)))
            return decompose(a)

        monkeypatch.setattr(wclmmse.model, "sym_eig", recording)
        run_l_sweep(ar1_series(220, phi=0.8, seed=4), m, n, [2, 5], kinds, seed=0)
        assert alive == [0]


def _guard_timed_cells(monkeypatch):
    """Fail any decomposition made while :meth:`LPolicy.choose` builds a
    timed cell: a ``sym_eig``, ``sym_eigvals`` or ``jpc_ladder`` call, a
    ``factor_spd`` of the m x m c_y, or a product with c_y
    (``_structured_system``) at a level up to the ladder's top, which
    ``jpc`` reads from its ladder. Returns how often each guarded call ran
    outside the cells, and under ``cells`` how many cells were built."""
    counts = dict.fromkeys(("cells", "sym_eig", "sym_eigvals", "jpc_ladder", "factor_spd",
                            "_structured_system"), 0)
    building = []  # the model of the cell being built, while one is
    choose = LPolicy.choose

    def timed(policy, model, kind):
        building.append(model)
        try:
            return choose(policy, model, kind)
        finally:
            building.pop()
            counts["cells"] += 1

    def guarded(name, original, refused):
        def call(*args):
            if building:
                assert not refused(building[0], *args), f"{name} inside a timed cell"
            else:
                counts[name] += 1
            return original(*args)
        return call

    def anything(model, *args):
        return True

    monkeypatch.setattr(LPolicy, "choose", timed)
    ladder = functools.cached_property(
        guarded("jpc_ladder", SpectralCache.jpc_ladder.func, anything))
    ladder.__set_name__(SpectralCache, "jpc_ladder")
    monkeypatch.setattr(SpectralCache, "jpc_ladder", ladder)

    def up_to_the_top(model, c_y, b):
        return len(b) <= model.spectral.ladder_top

    for owner, name, refused in (
            (linalg, "sym_eig", anything), (linalg, "sym_eigvals", anything),
            (linalg, "factor_spd", lambda model, a: np.array_equal(a, model.c_y)),
            (wclmmse.filters, "_structured_system", up_to_the_top)):
        original = getattr(owner, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "wclmmse" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, guarded(name, original, refused))
    return counts


class TestTimedCells:
    """Every decomposition a sweep's kinds read is made before its cells
    are timed, so no cell's ``wall_ms`` takes one in."""

    @pytest.mark.parametrize("ratio, sweep_top", [(0.9, 49), (0.3, 30)],
                             ids=["definite", "illcond"])
    def test_l_sweep_of_every_kind(self, monkeypatch, ratio, sweep_top):
        # the grid's top is 47; 49, above it, passes the rank check on the
        # definite model, whose ladder the sweep tops there. On the
        # ill-conditioned one c_y is too singular for lrw and csw, and no
        # level from 31 up passes
        model = haar_model(2, 49, ratio=ratio, seed=3)
        assert model.spectral.ladder_top < 49
        prepared = _record_prepared(monkeypatch)
        counts = _guard_timed_cells(monkeypatch)
        rows = run_l_sweep(model, 49, 2, [1, 10, 30, 46, 48, 49], ALL_KINDS, seed=0)
        (own,) = prepared
        assert own.spectral.ladder_top == sweep_top
        assert counts["cells"] == len(rows) == 1 + 6 * 6
        # c_y and the jpc ladder's top system; lsjpc's n x n systems are
        # factored inside its cells
        assert counts["factor_spd"] == 2 and counts["jpc_ladder"] == 1

    @pytest.mark.parametrize("policy", ["best", "fixed:30"])
    def test_m_sweep_of_every_kind(self, monkeypatch, policy):
        counts = _guard_timed_cells(monkeypatch)
        series = ar1_series(400, phi=0.9, seed=0)
        rows = run_m_sweep(series, [20, 40], 2, ALL_KINDS, parse_l_policy(policy), seed=0)
        assert counts["cells"] == len(rows) == 2 * 7
        # c_y is definite at both lengths, so cond_cy reads its extremes by
        # Lanczos through the factor wiener solves from, with no eigvalsh;
        # c_y and the jpc ladder's top system are factored once per model
        assert counts["jpc_ladder"] == 2 and counts["sym_eigvals"] == 0
        assert counts["factor_spd"] == 2 * 2

    def test_l_sweep_of_jpc_on_the_illcond_model(self, monkeypatch):
        # the benchmark's sweep-l-illcond model at seed 7: the rcond gate
        # builds jpc directly at more than ten levels below the ladder's
        # top, 340, and each reads its product with c_y from the ladder
        model = synthetic_model(7, geometric_spectrum(407, 1.0, 0.9), seed=7)
        prepared = _record_prepared(monkeypatch)
        counts = _guard_timed_cells(monkeypatch)
        rows = run_l_sweep(model, 400, 7, range(10, 401, 10), ["jpc"], seed=0)
        (own,) = prepared
        ladder = own.spectral.jpc_ladder
        assert ladder.top == 340
        assert sum(not ladder.reaches(l) for l in range(10, 341, 10)) > 10
        assert counts["cells"] == len(rows) == 40
        assert counts["_structured_system"] == 0


def _inline_scores(model, test_z, mean, filt):
    """A row's norm_rms and analytic_mse by the single-filter formulas,
    with the reductions the scoring makes."""
    x, y = test_z[:, :model.n], test_z[:, model.n:]
    err = filt.apply(y) - x
    shifted = x + mean
    rms = np.sqrt(np.mean(np.einsum("ij,ij->i", err, err))
                  / np.mean(np.einsum("ij,ij->i", shifted, shifted)))
    a = filt.matrix
    mse = (np.trace(model.c_x) - 2.0 * np.einsum("ij,ij->", model.c_xy, a)
           + np.einsum("ij,ij->", a @ model.c_y, a))
    return rms, mse


class TestStackedScoring:
    """A kind's built filters are scored together, in chunks of
    ``harness._SCORE_CHUNK``, after its cells' timed builds."""

    @pytest.mark.parametrize("source, grid", [
        # a model source, its grid longer than two chunks
        (haar_model(2, 40, ratio=0.9, seed=0), range(1, 41)),
        # a series source
        (ar1_series(400, phi=0.9, seed=0), range(1, 41)),
        # c_y too singular for lrw and csw, and jpc failing from l=37 up
        (haar_model(2, 40, ratio=0.3, seed=3), _INTERLEAVED_40),
    ], ids=["model", "series", "illcond"])
    def test_rows_equal_the_single_filter_formulas(self, source, grid):
        rows = run_l_sweep(source, 40, 2, grid, ALL_KINDS, seed=0)
        model, test_z, mean = harness._prepare(source, 40, 2, 0)
        scored = 0
        for row in rows:
            try:
                filt = FILTER_CONSTRUCTORS[FilterKind(row.filter)](model, row.l)
            except (RankError, SingularMatrixError):
                assert np.isnan(row.norm_rms) and np.isnan(row.analytic_mse)
                continue
            rms, mse = _inline_scores(model, test_z, mean, filt)
            assert row.norm_rms == pytest.approx(rms, rel=1e-12, abs=0.0)
            assert row.analytic_mse == pytest.approx(mse, rel=1e-12, abs=0.0)
            scored += 1
        assert scored > 2 * harness._SCORE_CHUNK

    def test_chunked_rows_are_the_bits_of_rows_swept_alone_on_a_model(self):
        # the benchmark's model shape: 1000 test draws of 400 inputs, n=7.
        # Here OpenBLAS gives each filter's columns of the stacked product
        # the bits of its own product. Each row is compared with its own
        # filter, built at the sweep's ladder top (400) and scored alone
        model = haar_model(7, 400, ratio=0.97, seed=0)
        grid = range(10, 401, 10)
        rows = run_l_sweep(model, 400, 7, grid, ["jpc", "lsjpc"], seed=0)
        own, test_z, mean = harness._prepare(model, 400, 7, 0)
        own.spectral.prepare_sweep(["jpc", "lsjpc"], grid)
        assert own.spectral.ladder_top == 400
        nan = float("nan")
        for row in rows:
            if row.l in (10, 160, 170, 330, 400):
                filt = FILTER_CONSTRUCTORS[FilterKind(row.filter)](own, row.l)
                alone = dataclasses.replace(row, norm_rms=nan, analytic_mse=nan)
                harness._score([(alone, filt)], own, test_z, mean)
                assert alone == row

    def test_chunked_rows_agree_with_rows_swept_alone_on_a_series(self):
        # 72 test windows of 40 inputs: OpenBLAS sums the stacked product
        # in another order than a lone filter's, so only 1e-12 holds
        series = ar1_series(400, phi=0.9, seed=0)
        rows = run_l_sweep(series, 40, 2, range(1, 41), ["jpc", "lsjpc"], seed=0)
        for row in rows:
            alone = run_l_sweep(series, 40, 2, [row.l], [row.filter], seed=0)[0]
            assert alone.norm_rms == pytest.approx(row.norm_rms, rel=1e-12, abs=0.0)
            assert alone.analytic_mse == pytest.approx(row.analytic_mse, rel=1e-12, abs=0.0)


class TestRunMSweep:
    def test_fixed_policy(self):
        series = ar1_series(300, phi=0.8, seed=6)
        rows = run_m_sweep(series, [4, 8], 2, ["wiener", "jpc"],
                           parse_l_policy("fixed:2"), seed=0)
        assert len(rows) == 4
        jpc_rows = [r for r in rows if r.filter == "jpc"]
        assert all(r.l == 2 for r in jpc_rows)
        assert {r.m for r in rows} == {4, 8}

    def test_empty_window_length_grid_rejected(self):
        series = ar1_series(300, phi=0.8, seed=0)
        for report in (lambda grid: run_m_sweep(series, grid, 2, ["jpc"], LPolicy()),
                       lambda grid: run_condition_report(series, grid, 2)):
            for grid in ([], range(5, 2)):
                with pytest.raises(DimensionError, match="empty window-length grid"):
                    report(grid)

    def test_best_policy_decomposes_each_window_length_once(self, cache_builds):
        series = ar1_series(300, phi=0.8, seed=7)
        rows = run_m_sweep(series, [6, 8], 2, ["wiener", "lrw", "jpc", "lsjpc"],
                           LPolicy(mode="best"), seed=0)
        assert len(rows) == 8
        assert len(cache_builds) == 2

    def test_best_policy_builds_each_row_once(self, monkeypatch):
        # each kind's search builds the one level it picks; each row takes
        # its search's build, building nothing
        builds = []
        for kind in ("jpc", "lsjpc"):
            constructor = FILTER_CONSTRUCTORS[kind]

            def counting(model, l, kind=kind, constructor=constructor):
                builds.append((kind, model.m, l))
                return constructor(model, l)

            monkeypatch.setitem(FILTER_CONSTRUCTORS, kind, counting)
        series = ar1_series(1500, phi=0.95, seed=0)
        rows = run_m_sweep(series, [100, 200], 7, ["jpc", "lsjpc"],
                           LPolicy(mode="best"), seed=0)
        assert len(rows) == 4 and all(np.isfinite(r.norm_rms) for r in rows)
        expected = [(r.filter, r.m, r.l) for r in rows]
        assert sorted(builds) == sorted(expected)

    def test_best_policy_solves_c_y_once_and_decomposes_no_m_by_m(
            self, monkeypatch, sym_eig_shapes):
        # wiener and lrw share one Cholesky solve of c_y; lrw decomposes
        # only the n x n c_xy c_y^-1 c_xy'; cond_cy reads the eigenvalues
        # of c_y bit-identically to condition_number. jpc's search picks
        # its top level, the top of the model's jpc ladder: the search's
        # order and the row's build read that level's system, factored
        # once.
        models = _record_models(monkeypatch)
        factored = _record_cho_factor(monkeypatch)
        series = ar1_series(1500, phi=0.95, seed=0)
        rows = run_m_sweep(series, [50, 100], 7, ["wiener", "lrw", "jpc", "lsjpc"],
                           LPolicy(mode="best"), seed=0)
        assert len(rows) == 8 and all(np.isfinite(r.norm_rms) for r in rows)
        assert [model.m for model in models] == [50, 100]
        assert sorted(sym_eig_shapes) == [(7, 7), (7, 7), (57, 57), (107, 107)]
        for model in models:
            assert sum(a is model.c_y for a in factored) == 1
            assert {r.cond_cy for r in rows if r.m == model.m} == {condition_number(model.c_y)}
            (l_top,) = [r.l for r in rows if r.m == model.m and r.filter == "jpc"]
            assert l_top == range(7, model.m + 1, model.m // 16)[-1]
            assert _factorizations_of(factored, _jpc_system(model, l_top)) == 1

    def test_best_policy_factors_a_failing_jpc_system_once(self, monkeypatch):
        # the m=250 model below: the top level's jpc system is indefinite
        # in float64, so the model's jpc ladder fails to factor it, and the
        # build at that level solves the matrix the ladder keeps by LU,
        # without a second Cholesky attempt; that build is bit for bit a
        # fixed build
        row, model, factored, built = _search_rank_deficient_m250(monkeypatch, "jpc")
        assert np.isfinite(row.norm_rms)
        assert _factorizations_of(factored, _jpc_system(model, 242)) == 1
        assert np.array_equal(built[242].matrix, jpc(model, 242).matrix)
        _assert_is_the_fixed_row(row)

    def test_best_policy_factors_only_lsjpcs_n_by_n_systems(self, monkeypatch):
        # on the same model lsjpc's search estimates every grid level up to
        # the top grid level that passes the rank check, 242, and builds
        # those its estimates do not rule out, the top among them; each
        # estimate and each build factors its own n x n system, with no
        # l x l Gram, and the row is bit for bit a fixed row; before them
        # cho_factor sees only c_y, once, for the row's cond_cy. The MSEs
        # there are rounding noise, so the level picked depends on the
        # BLAS thread count; it must be the one building and scoring every
        # grid level here picks
        row, model, factored, built = _search_rank_deficient_m250(monkeypatch, "lsjpc")
        assert 242 in built
        assert factored[0] is model.c_y
        estimated = [l for l in _search_grid(model) if l <= 242]
        assert [np.shape(a) for a in factored[1:]] == [(2, 2)] * (len(estimated) + len(built))
        mse = {}
        for l in _search_grid(model):
            try:
                mse[l] = analytic_mse(model, lsjpc(model, l))
            except (SingularMatrixError, RankError):
                pass
        assert row.l == min(mse, key=lambda l: (mse[l], l))
        _assert_is_the_fixed_row(row)

    def test_fixed_and_searched_builds_share_the_ladder(self, monkeypatch):
        # the search factors the model's one jpc ladder and builds its level
        # from it; a fixed build there reads the same factor, factoring
        # nothing, to the same bits
        series = ar1_series(1500, phi=0.95, seed=0)
        train, _, _ = window_samples(series, 100, 7, 0)
        model = estimate_covariance(train, 7)
        factored = _record_cho_factor(monkeypatch)
        l, _, searched = best_l_search(model, FilterKind.JPC)
        top = model.spectral.jpc_ladder.top
        assert l == top and [np.shape(a) for a in factored] == [(top, top)]
        fixed = jpc(model, l)
        assert len(factored) == 1
        assert np.array_equal(fixed.matrix, searched.matrix)

    def test_series_sweep_decomposes_only_what_its_kinds_read(self, sym_eig_shapes):
        # wiener and lrw read no joint eigendecomposition, only lrw's n x n
        series = ar1_series(1500, phi=0.95, seed=0)
        rows = run_m_sweep(series, [50, 100], 7, ["wiener", "lrw"],
                           LPolicy(mode="best"), seed=0)
        assert len(rows) == 4 and all(np.isfinite(r.norm_rms) for r in rows)
        assert sym_eig_shapes == [(7, 7), (7, 7)]

    def test_best_rows_equal_fixed_rows_at_the_chosen_level(self):
        # wall_ms aside: it also times the search
        series = ar1_series(1500, phi=0.95, seed=0)
        kinds = ["wiener", "lrw", "csw", "jpc", "lsjpc"]
        best = run_m_sweep(series, [50, 100], 7, kinds, LPolicy(mode="best"), seed=0)
        assert len(best) == 10 and all(np.isfinite(r.norm_rms) for r in best)
        for row in best:
            fixed = run_m_sweep(series, [row.m], 7, [row.filter],
                                parse_l_policy(f"fixed:{row.l or 1}"), seed=0)
            assert [dataclasses.replace(r, wall_ms=row.wall_ms) for r in fixed] == [row]

    def test_best_policy(self):
        # the search runs over max(1, n), ... , m in steps of max(1, m // 16)
        # on the training covariances
        series = ar1_series(300, phi=0.8, seed=7)
        for m, grid in ((6, range(2, 7)), (64, range(2, 65, 4))):
            rows = run_m_sweep(series, [m], 2, ["jpc"], LPolicy(mode="best"), seed=0)
            assert len(rows) == 1
            train, _, _ = window_samples(series, m, 2, 0)
            model = estimate_covariance(train, 2)
            mse = {l: analytic_mse(model, jpc(model, l)) for l in grid}
            assert rows[0].l == min(mse, key=lambda l: (mse[l], l))

    def test_best_policy_skips_levels_it_cannot_build(self, monkeypatch):
        # at m=250 only ~40 training windows remain, so c_y cannot be
        # whitened: lrw's search has no level to build and its row records
        # the failure; every other row is built. Every grid level there
        # keeps min(l, n) = 2 triplets, so the search tries to build once,
        # and the row does not build again
        builds = []
        constructor = FILTER_CONSTRUCTORS["lrw"]

        def counting(model, l):
            builds.append((model.m, l))
            return constructor(model, l)

        monkeypatch.setitem(FILTER_CONSTRUCTORS, "lrw", counting)
        series = ar1_series(300, phi=0.8, seed=0)
        rows = run_m_sweep(series, [50, 250], 2, ["wiener", "lrw", "jpc", "lsjpc"],
                           LPolicy(mode="best"), seed=0)
        assert len(rows) == 8
        failed = [(r.filter, r.m, r.l) for r in rows if np.isnan(r.norm_rms)]
        assert failed == [("lrw", 250, 2)]
        assert [l for m, l in builds if m == 250] == [2]

    @pytest.mark.parametrize("policy", [LPolicy(mode="fixed", l=5), LPolicy(mode="best")],
                             ids=["fixed", "best"])
    def test_policy_builds_wiener_once_without_a_level(self, monkeypatch, policy):
        builds = []
        constructor = FILTER_CONSTRUCTORS[FilterKind.WIENER]

        def counting(model, l=None):
            builds.append(l)
            return constructor(model, l)

        monkeypatch.setitem(FILTER_CONSTRUCTORS, FilterKind.WIENER, counting)
        model = haar_model(2, 64)
        l, filt = policy.choose(model, FilterKind.WIENER)
        assert l is None and filt.kind is FilterKind.WIENER
        assert builds == [None]

    def test_policy_parsing(self):
        assert parse_l_policy("best").mode == "best"
        assert parse_l_policy("fixed:12").l == 12
        with pytest.raises(ValueError):
            parse_l_policy("fixed")
        with pytest.raises(ValueError):
            parse_l_policy("fixed:0")

    def test_best_policy_takes_no_level(self):
        # a level given with best would be ignored by choose
        with pytest.raises(ValueError, match="no level"):
            LPolicy(mode="best", l=5)


class TestRunConditionReport:
    def test_isotropic_model(self):
        model = CovarianceModel.from_joint(np.eye(10), 2)
        rows = run_condition_report(model, [2, 4, 8], 2)
        assert [c for _, c in rows] == pytest.approx([1.0, 1.0, 1.0])

    def test_geometric_diagonal_closed_form(self):
        # diagonal joint covariance: the trailing m x m input block is
        # exactly diag(r^n .. r^(n+m-1)), so cond = r^-(m-1)
        n, m, r = 2, 8, 0.8
        c_z = np.diag(geometric_spectrum(n + m, 1.0, r))
        model = CovarianceModel.from_joint(c_z, n)
        rows = run_condition_report(model, [2, 4, 8], n)
        for m_req, cond in rows:
            assert cond == pytest.approx(r ** (-(m_req - 1)), rel=0.1)

    def test_series_report_monotone_scale(self):
        series = ar1_series(400, phi=0.9, seed=8)
        rows = run_condition_report(series, [2, 6], 2, seed=0)
        assert rows[0][1] >= 1.0 and rows[1][1] >= rows[0][1]

    def test_series_report_equals_the_sweep_rows_cond_cy(self):
        series = ar1_series(1500, phi=0.95, seed=0)
        report = run_condition_report(series, [50, 100], 7)
        rows = run_m_sweep(series, [50, 100], 7, ["wiener"], LPolicy(mode="best"))
        assert report == [(r.m, r.cond_cy) for r in rows]

    def test_m_exceeding_model_rejected(self):
        # and m below 1, whose trailing block would be empty
        model = haar_model(2, 4, seed=9)
        for m in (8, 0, -3):
            with pytest.raises(DimensionError, match=rf"window length m={m} outside \[1, 4\]"):
                run_condition_report(model, [m], 2)

    def test_model_of_another_n_rejected(self):
        # as the sweeps refuse it
        model = haar_model(2, 8, seed=0)
        message = re.escape("model has (n, m) = (2, 8), requested (99, 8)")
        for report in (lambda: run_condition_report(model, [4], 99),
                       lambda: run_l_sweep(model, 8, 99, [4], ["jpc"])):
            with pytest.raises(ValueError, match=message):
                report()


_TIMING_CHILD = """
import json
import time
from conftest import haar_model
from wclmmse import jpc, lsjpc

builds = {"jpc": jpc, "lsjpc": lsjpc}
times = {"jpc": [], "lsjpc": []}
for rep in range(8):
    for kind in (["jpc", "lsjpc"] if rep % 2 == 0 else ["lsjpc", "jpc"]):
        model = haar_model(2, 200, ratio=0.95, seed=10)
        model.spectral.eig_z
        started = time.perf_counter()
        builds[kind](model, 24)
        times[kind].append((time.perf_counter() - started) * 1e3)
print(json.dumps(times))
"""


class TestTiming:
    def test_lsjpc_not_slower_than_jpc(self):
        # fewer multiplications: no input-covariance products, median over
        # repeated runs with 1.2x slack. Every level of a kind is built
        # from its ladder, the model's one factored top-level system, so
        # the products differ only there: each build is timed on a fresh
        # model whose joint eigendecomposition is made before the clock
        # starts, and the time covers the ladder and the build at l=24.
        # The builds run in a child process with BLAS pinned to one thread
        # before numpy loads: with a multi-threaded pool, the first Cholesky
        # after other BLAS work can stall for milliseconds, more than the
        # whole build. The order alternates over an even number of
        # repetitions, so each kind is timed first equally often.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        paths = [str(Path(wclmmse.__file__).resolve().parents[1]),
                 str(Path(__file__).resolve().parent)]
        env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
        child = subprocess.run([sys.executable, "-c", _TIMING_CHILD], env=env,
                               capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        times = json.loads(child.stdout.splitlines()[-1])
        assert len(times["jpc"]) == len(times["lsjpc"]) == 8
        assert np.median(times["lsjpc"]) <= 1.2 * np.median(times["jpc"])


class TestDeterminism:
    def test_l_sweep_rows_reproducible(self):
        model = haar_model(2, 6, ratio=0.7, seed=11)
        one = run_l_sweep(model, 6, 2, [1, 3], ["wiener", "jpc"], seed=5)
        two = run_l_sweep(model, 6, 2, [1, 3], ["wiener", "jpc"], seed=5)
        for a, b in zip(one, two):
            assert a.filter == b.filter and a.l == b.l
            assert a.norm_rms == b.norm_rms
            assert a.analytic_mse == b.analytic_mse
            assert a.rho_l == b.rho_l
            assert a.cond_cy == b.cond_cy

    def test_seed_changes_sampled_metrics(self):
        model = haar_model(2, 6, ratio=0.7, seed=12)
        one = run_l_sweep(model, 6, 2, [2], ["jpc"], seed=1)
        two = run_l_sweep(model, 6, 2, [2], ["jpc"], seed=2)
        assert one[0].norm_rms != two[0].norm_rms
        assert one[0].analytic_mse == two[0].analytic_mse
