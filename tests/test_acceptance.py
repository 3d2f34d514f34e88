"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criterion 8 is skipped unless a real volatility-index CSV is
supplied (``WCLMMSE_VIX_CSV`` environment variable or ``data/vix.csv``).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import haar_model
from wclmmse import (
    CovarianceModel,
    DimensionError,
    FilterKind,
    Prefilter,
    SingularMatrixError,
    analytic_mse,
    condition_number,
    csw,
    det_objective,
    det_optimal_weight,
    estimate_covariance,
    geometric_spectrum,
    is_l_well_conditioned,
    jpc,
    jpc_simplified,
    load_csv,
    lrw,
    lsjpc,
    lsjpc_simplified,
    normalized_rms,
    sample_from_model,
    scaling_study,
    synthetic_model,
    weighted_filter,
    weighted_trace_objective,
    wiener,
    wiener_structured,
    window_samples,
)
from wclmmse.cli import main as cli_main


class criterion:
    """Prints the per-criterion verdict line and enforces the runtime bound."""

    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.limit = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def elapsed(self):
        return time.perf_counter() - self.started

    def check_runtime(self):
        assert self.elapsed() < self.limit, (
            f"criterion {self.number} exceeded its {self.limit}s budget")

    def __exit__(self, exc_type, exc, tb):
        took = self.elapsed()
        if exc_type is None:
            verdict = "PASS"
        elif exc_type.__name__ == "Skipped":
            verdict = "SKIPPED"
        else:
            verdict = "FAIL"
        print(f"\nACCEPTANCE {self.number}: {verdict} - {self.label} ({took:.2f}s)")
        return False


def random_invertible(rng, dim, max_cond=1e3):
    while True:
        t = rng.standard_normal((dim, dim))
        s = np.linalg.svd(t, compute_uv=False)
        if s[-1] > s[0] / max_cond:
            return t


def test_criterion_1_prefilter_invariance():
    with criterion(1, "prefilter invariance under invertible premultiplication", 5.0) as c:
        rng = np.random.default_rng(101)
        for trial in range(500):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(2, 9))
            l = int(rng.integers(1, min(4, m) + 1))
            model = haar_model(n, m, ratio=0.5 + 0.4 * rng.random(), seed=trial)
            b = random_invertible(rng, max(l, m))[:l, :m]
            while np.linalg.matrix_rank(b) < l:
                b = rng.standard_normal((l, m))
            t = random_invertible(rng, l)
            one = wiener_structured(model, Prefilter(b)).matrix
            two = wiener_structured(model, Prefilter(t @ b)).matrix
            deviation = np.linalg.norm(one - two)
            assert deviation <= 1e-8 * max(np.linalg.norm(one), 1e-30), (
                f"trial {trial}: relative deviation {deviation:.3e}")
        c.check_runtime()


def test_criterion_2_wiener_structure_optimality():
    with criterion(2, "optimality of the Wiener structure for a fixed prefilter", 10.0) as c:
        rng = np.random.default_rng(202)
        for trial in range(100):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 7))
            l = int(rng.integers(1, min(3, m) + 1))
            model = haar_model(n, m, ratio=0.4 + 0.5 * rng.random(), seed=1000 + trial)
            b = rng.standard_normal((l, m))
            best = analytic_mse(model, wiener_structured(model, Prefilter(b)))
            for _ in range(100):
                d = rng.standard_normal((n, l))
                assert best <= analytic_mse(model, d @ b) + 1e-10
        c.check_runtime()


def test_criterion_3_lrw_optimality_oracle():
    with criterion(3, "rank-one svd truncation beats random structured filters", 10.0) as c:
        rng = np.random.default_rng(303)
        for trial in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            model = haar_model(n, m, ratio=0.3 + 0.6 * rng.random(), seed=2000 + trial)
            best = analytic_mse(model, lrw(model, 1))
            for _ in range(500):
                b = rng.standard_normal((1, m))
                assert best <= analytic_mse(model, wiener_structured(model, Prefilter(b))) + 1e-9
        c.check_runtime()


def test_criterion_4_scaling_law():
    """The truncated filters approach the unconstrained one W as the
    truncation-power loss rho_l goes to zero.

    The quantity bounded is the excess mean square error
    ``mse_gap = MSE(A) - MSE(W) = ||(A - W) c_y^(1/2)||_F^2``, the distance
    to W in the metric the objective induces. With X_l, Y_l the X and Y
    rows of the leading l joint eigenvectors and X_t, Y_t, c_t those of
    the discarded ones:

    * the ``lsjpc`` error is ``(X_t - X_l Y_l^+ Y_t) c_t``, and X_t, Y_t
      are blocks of an orthogonal matrix, so
      ``MSE(lsjpc_l) <= K_l rho_l`` with ``K_l = (1 + ||X_l Y_l^+||_2)^2``;
    * ``jpc_l`` and ``lsjpc_l`` both factor through ``Y_l'``, and ``jpc``
      is the optimum among such filters (criterion 2), so
      ``MSE(jpc_l) <= MSE(lsjpc_l)``;
    * ``lrw`` keeps min(l, n) singular triplets, so it equals W for
      l >= n: its rho_l is 0 and its gap must be below the floor.

    The ``jpc`` gap is non-increasing because its prefilter ranges are
    nested; for ``lsjpc`` that is measured, not derived.

    The nuclear distance ||A - W||_* does not follow rho_l: W = -P^-1 Q,
    with P = X Lambda^-1 X' and Q = X Lambda^-1 Y' over all joint
    eigenpairs, weights the eigenvectors by 1/lambda, so W lives in the
    tail that truncation drops. The spectrum ratio is 0.8 (cond(c_y) ~ 2e6):
    with 0.6, Cauchy interlacing forces cond(c_y) >= 0.6^-59 ~ 1e13,
    past the 1e-12 floor at which ``lrw`` refuses to invert c_y, and the
    float64 reference W is far less accurate than K_l rho_l at l=56.
    """
    with criterion(4, "excess mse of truncated filters is bounded by the truncation loss", 5.0) as c:
        model = synthetic_model(4, geometric_spectrum(68, 1.0, 0.8), seed=0)
        grid = range(8, 57, 8)
        floor = 1e-10 * max(1.0, float(np.trace(model.c_x)))
        cache = model.spectral
        bound = np.array([
            (1.0 + np.linalg.norm(cache.x_block(l) @ np.linalg.pinv(cache.y_block(l)), 2)) ** 2
            for l in grid])
        failures = []
        for kind in (FilterKind.LRW, FilterKind.JPC, FilterKind.LSJPC):
            try:
                study = scaling_study(model, kind, grid, "nuclear")
            except SingularMatrixError as exc:
                print(f"  {kind.value}: construction failed ({exc})")
                failures.append(f"{kind.value}: not computable")
                continue
            gap, rho = study.mse_gap, study.rho_l
            non_increasing = bool(np.all(np.diff(gap) <= max(1e-12 * gap[0], floor)))
            within_bound = bool(np.all(np.where(rho > 0.0, gap <= bound * rho, gap <= floor)))
            ratios = np.divide(gap, rho, out=np.zeros_like(gap), where=rho > 0.0)
            print(f"  {kind.value}: mse gap non-increasing={non_increasing},"
                  f" max gap/rho={ratios.max():.3e}, K_l in [{bound.min():.3g}, {bound.max():.3g}],"
                  f" within K_l rho_l={within_bound}")
            if not non_increasing:
                failures.append(f"{kind.value}: mse gap not non-increasing")
            if not within_bound:
                failures.append(f"{kind.value}: mse gap exceeds K_l rho_l")
        c.check_runtime()
        assert not failures, "; ".join(failures)


def test_criterion_5_analytic_vs_empirical_mse():
    with criterion(5, "closed-form mse matches sampled mse within 3 standard errors", 30.0) as c:
        model = haar_model(3, 5, ratio=0.7, seed=404)
        draws = sample_from_model(model, 50_000, seed=405)
        x, y = draws[:, :3], draws[:, 3:]
        rng = np.random.default_rng(406)
        for _ in range(10):
            a = rng.standard_normal((3, 5))
            errors = y @ a.T - x
            per_sample = np.einsum("ij,ij->i", errors, errors)
            se = per_sample.std(ddof=1) / np.sqrt(per_sample.shape[0])
            assert abs(analytic_mse(model, a) - per_sample.mean()) <= 3.0 * se
        c.check_runtime()


def test_criterion_6_weighted_and_determinant_equivalence():
    with criterion(6, "weighted-trace and determinant objectives reduce to the plain case", 10.0) as c:
        rng = np.random.default_rng(505)
        # weighting never moves the unconstrained optimum
        model = haar_model(3, 5, ratio=0.6, seed=506)
        reference = wiener(model).matrix
        for _ in range(20):
            g = random_invertible(rng, 3)
            got = weighted_filter(model, g, FilterKind.WIENER).matrix
            assert np.linalg.norm(got - reference) <= 1e-8 * np.linalg.norm(reference)
        # identity weight reproduces the mean square error exactly
        for trial in range(20):
            other = haar_model(2, 4, ratio=0.5, seed=600 + trial)
            a = rng.standard_normal((2, 4))
            wt = weighted_trace_objective(other, a, np.eye(2))
            mse = analytic_mse(other, a)
            assert abs(wt - mse) <= 1e-12 * abs(mse)
        # the inverse-root weight minimizes the determinant objective
        for trial in range(20):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(2, 6))
            other = haar_model(n, m, ratio=0.4 + 0.5 * rng.random(), seed=700 + trial)
            l = int(rng.integers(1, min(n, m) + 1))
            weighted = weighted_filter(other, det_optimal_weight(other), FilterKind.LRW, l=l)
            plain = lrw(other, l)
            assert det_objective(other, weighted) <= det_objective(other, plain) + 1e-10
        c.check_runtime()


def test_criterion_7_well_conditioned_certificates():
    with criterion(7, "largest-inverse certificates across the filter matrix", 10.0) as c:
        for seed in range(6):
            n = 2 + seed % 3
            m = 4 + seed
            model = haar_model(n, m, ratio=0.6, seed=800 + seed)
            for l in (1, max(1, m // 2), m):
                assert jpc(model, l).max_inverse_dim <= l
                assert lsjpc(model, l).max_inverse_dim <= l
                assert jpc_simplified(model, l).max_inverse_dim <= l
                assert lsjpc_simplified(model, l).max_inverse_dim <= l
                assert lrw(model, l).max_inverse_dim == m
                assert csw(model, l).max_inverse_dim == m
                assert is_l_well_conditioned(jpc(model, l), l)
                assert not is_l_well_conditioned(lrw(model, l), l) or l >= m
            assert wiener(model).max_inverse_dim == m
        c.check_runtime()


def _vix_path():
    env = os.environ.get("WCLMMSE_VIX_CSV")
    if env:
        return Path(env)
    bundled = Path(__file__).resolve().parent.parent / "data" / "vix.csv"
    return bundled if bundled.exists() else None


def test_criterion_8_real_data_pipeline():
    with criterion(8, "real volatility-index pipeline counts and error ratios", 1200.0) as c:
        path = _vix_path()
        if path is None or not path.exists():
            pytest.skip("real data not supplied (set WCLMMSE_VIX_CSV)")
        try:
            series = load_csv(path, date_column="date", value_column="value")
        except DimensionError:
            series = load_csv(path, date_column="date", value_column="close")
        assert len(series) == 7923

        train, test, _ = window_samples(series, 2000, 7, 0)
        assert abs(train.shape[0] + test.shape[0] - 5917) <= 1
        assert abs(train.shape[0] - 4733) <= 1
        assert abs(test.shape[0] - 1184) <= 1

        train1600, _, _ = window_samples(series, 1600, 7, 0)
        model1600 = estimate_covariance(train1600, 7)
        cond = condition_number(model1600.c_y)
        assert 5e4 <= cond <= 1e6, f"cond at m=1600: {cond:.3e}"

        train3200, test_z, mean3200 = window_samples(series, 3200, 7, 0)
        model3200 = estimate_covariance(train3200, 7)
        rms_wiener = normalized_rms(wiener(model3200), test_z, mean3200)
        # truncation level inside the reported flat region around the optimum
        rms_jpc = normalized_rms(jpc(model3200, 400), test_z, mean3200)
        ratio = rms_wiener / rms_jpc
        print(f"  m=3200: rms(wiener)={rms_wiener:.4f} rms(jpc@400)={rms_jpc:.4f}"
              f" ratio={ratio:.2f}")
        assert 2.0 <= ratio <= 5.0
        c.check_runtime()


def test_criterion_9_ill_conditioning_mechanism():
    with criterion(9, "covariance noise wrecks the unconstrained filter, not the truncated one", 30.0) as c:
        n, m = 4, 256
        model = synthetic_model(n, geometric_spectrum(n + m, 1.0, 0.91), seed=7)
        assert condition_number(model.c_y) >= 1e10

        rng = np.random.default_rng(123)

        def perturb(a):
            return a * (1.0 + 1e-6 * rng.standard_normal(a.shape))

        c_y_p = perturb(model.c_y)
        c_x_p = perturb(model.c_x)
        perturbed = CovarianceModel(
            c_x=0.5 * (c_x_p + c_x_p.T),
            c_y=0.5 * (c_y_p + c_y_p.T),
            c_xy=perturb(model.c_xy),
        )

        mse_opt = analytic_mse(model, wiener(model))
        mse_wiener_perturbed = analytic_mse(model, wiener(perturbed))
        assert mse_wiener_perturbed >= 10.0 * mse_opt, (
            f"unconstrained filter survived covariance noise:"
            f" {mse_wiener_perturbed:.3e} vs optimal {mse_opt:.3e}")

        excess_true = analytic_mse(model, jpc(model, 32)) - mse_opt
        excess_perturbed = analytic_mse(model, jpc(perturbed, 32)) - mse_opt
        print(f"  wiener degradation x{mse_wiener_perturbed / mse_opt:.1e},"
              f" jpc excess change x{excess_perturbed / excess_true:.3f}")
        assert excess_perturbed <= 2.0 * excess_true
        c.check_runtime()


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "identical CLI invocations give identical result bytes", 60.0) as c:
        def run(into):
            into.mkdir()
            model = into / "model.bin"
            cli_main(["synth", "--n", "2", "--m", "8", "--spectrum", "geometric:1.0,0.7",
                      "--seed", "3", "--out", str(model)])
            cli_main(["sweep-l", "--model", str(model), "--m", "8", "--n", "2",
                      "--l-min", "1", "--l-max", "8", "--l-step", "1",
                      "--filters", "wiener,lrw,csw,jpc,lsjpc", "--seed", "0",
                      "--out", str(into / "results.csv")])
            cli_main(["cond", "--model", str(model), "--m-grid", "2:8:2",
                      "--out", str(into / "cond.csv")])
            cli_main(["scaling", "--model", str(model), "--filter", "jpc",
                      "--norm", "nuclear", "--l-min", "1", "--l-max", "8",
                      "--l-step", "1", "--out", str(into / "scaling.csv")])

        def mask_wall(text):
            # wall-clock time is physical, not seeded; every other byte is
            # covered
            lines = text.splitlines()
            fields = lines[0].split(",")
            keep = [i for i, f in enumerate(fields) if f != "wall_ms"]
            return "\n".join(",".join(row.split(",")[i] for i in keep) for row in lines)

        run(tmp_path / "one")
        run(tmp_path / "two")
        for name in ("cond.csv", "scaling.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        one = (tmp_path / "one" / "results.csv").read_text()
        two = (tmp_path / "two" / "results.csv").read_text()
        assert mask_wall(one) == mask_wall(two)
        assert one.splitlines()[0] == two.splitlines()[0]
        c.check_runtime()
