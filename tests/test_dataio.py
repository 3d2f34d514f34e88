"""Data pipeline tests: CSV ingestion, windowing, splitting, metrics, files."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import ar1_series
from wclmmse import (
    DegenerateDataError,
    DimensionError,
    FilterKind,
    LinearFilter,
    ModelError,
    NumericInputError,
    estimate_covariance,
    load_csv,
    normalized_rms,
    window_samples,
)
from wclmmse.dataio import (
    RESULT_FIELDS,
    ExperimentResult,
    write_condition_csv,
    write_results_csv,
    write_results_json,
)


def write(tmp_path, text, name="series.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def window_starts(series, rows, mean, n):
    """Index of the window each row was cut from, found by its first earlier value."""
    centered = series - mean
    starts = []
    for row in rows:
        (start,) = np.flatnonzero(centered == row[n])
        starts.append(int(start))
    return np.array(starts, dtype=np.intp)


class TestLoadCsv:
    def test_three_row_toy(self, tmp_path):
        path = write(tmp_path, "date,value\n2020-01-02,10.5\n2020-01-03,11.0\n2020-01-06,9.75\n")
        series = load_csv(path)
        assert series.shape == (3,) and series.dtype == np.float64
        np.testing.assert_array_equal(series, [10.5, 11.0, 9.75])

    def test_utf8_byte_order_mark_skipped(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with the mark
        path = tmp_path / "series.csv"
        path.write_bytes(b"\xef\xbb\xbfdate,value\n2020-01-03,2\n2020-01-02,1\n")
        np.testing.assert_array_equal(load_csv(path), [1.0, 2.0])

    def test_unsorted_rows_sorted(self, tmp_path):
        path = write(tmp_path, "date,value\n2020-01-03,2\n2020-01-02,1\n")
        series = load_csv(path)
        np.testing.assert_array_equal(series, [1.0, 2.0])

    def test_us_date_format_and_custom_columns(self, tmp_path):
        # M/D/YYYY dates sort by date, not as text: 12/29/1989 comes first
        path = write(tmp_path, "DATE,OPEN,CLOSE\n1/03/1990,18.0,18.19\n"
                               "12/29/1989,17.0,17.5\n1/02/1990,17.2,17.24\n")
        series = load_csv(path, date_column="DATE", value_column="CLOSE")
        np.testing.assert_array_equal(series, [17.5, 17.24, 18.19])

    def test_malformed_value_names_line(self, tmp_path):
        path = write(tmp_path, "date,value\n2020-01-02,1.0\n2020-01-03,oops\n")
        with pytest.raises(NumericInputError, match=":3:"):
            load_csv(path)

    def test_short_row_names_line(self, tmp_path):
        # a row without the value column is malformed, as a bad value is
        path = write(tmp_path, "date,value\n2020-01-02,1.0\n\n2020-01-03\n2020-01-06,2.0\n")
        with pytest.raises(NumericInputError, match=":4:"):
            load_csv(path)

    def test_blank_lines_and_extra_fields_ignored(self, tmp_path):
        path = write(tmp_path, "value,date\n\n1.5,2020-01-03,x\n\n2.5,2020-01-02\n")
        np.testing.assert_array_equal(load_csv(path), [2.5, 1.5])

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "day,value\n2020-01-02,1.0\n")
        with pytest.raises(DimensionError, match="missing column"):
            load_csv(path)

    def test_duplicate_date(self, tmp_path):
        path = write(tmp_path, "date,value\n2020-01-02,1.0\n2020-01-02,2.0\n")
        with pytest.raises(ModelError, match="duplicate"):
            load_csv(path)


class TestWindowSamples:
    def test_window_count(self):
        series = ar1_series(10, seed=0)
        train, test, _ = window_samples(series, 2, 1, 0)
        assert train.shape[0] + test.shape[0] == 7
        assert train.shape[1] == test.shape[1] == 3

    def test_later_values_on_top(self):
        series = ar1_series(12, seed=1)
        train, test, mean = window_samples(series, 3, 2, 0)
        windows = np.concatenate([train, test])
        starts = window_starts(series, windows, mean, 2)
        # window i = [values[i+3 : i+5] | values[i : i+3]], mean-shifted
        for i in (0, 4):
            expected = np.concatenate([series[i + 3 : i + 5], series[i : i + 3]])
            (row,) = np.flatnonzero(starts == i)
            np.testing.assert_array_equal(windows[row] + mean, expected)

    def test_rows_in_increasing_window_order(self):
        series = ar1_series(60, seed=6)
        train, test, mean = window_samples(series, 4, 2, 3)
        for rows in (train, test):
            assert rows.flags["C_CONTIGUOUS"]
            assert np.all(np.diff(window_starts(series, rows, mean, 2)) > 0)

    def test_constant_series_centers_to_zero(self):
        series = ar1_series(20, sigma=0.0, phi=0.0, level=20.0, seed=2)
        train, test, _ = window_samples(series, 3, 1, 0)
        np.testing.assert_array_equal(train, np.zeros_like(train))
        np.testing.assert_array_equal(test, np.zeros_like(test))
        model = estimate_covariance(train, n=1)
        np.testing.assert_array_equal(model.c_z, np.zeros((4, 4)))

    def test_training_mean_is_zero_after_subtraction(self):
        series = ar1_series(200, seed=3)
        train, _, _ = window_samples(series, 5, 2, 1)
        assert abs(train.mean()) <= 1e-10

    def test_round_trip_reassembles_series(self):
        # the K = len - (m+n) window count leaves the final value uncovered
        series = ar1_series(40, seed=4)
        train, test, mean = window_samples(series, 4, 2, 0)
        windows = np.concatenate([train, test])
        centered = series - mean
        rebuilt = np.full(40, np.nan)
        for i, row in zip(window_starts(series, windows, mean, 2), windows):
            rebuilt[i : i + 4] = row[2:]      # earlier block
            rebuilt[i + 4 : i + 6] = row[:2]  # later block
        assert np.array_equal(rebuilt[:-1], centered[:-1])
        assert np.isnan(rebuilt[-1])

    def test_too_short(self):
        series = ar1_series(6, seed=5)
        with pytest.raises(DegenerateDataError):
            window_samples(series, 4, 2, 0)

    def test_rejects_series_not_1d_or_not_finite(self):
        series = ar1_series(40, seed=5)
        with pytest.raises(DimensionError):
            window_samples(series.reshape(2, 20), 4, 2, 0)
        for m, n in ((0, 2), (4, 0)):
            with pytest.raises(DimensionError):
                window_samples(series, m, n, 0)
        series[17] = np.nan
        with pytest.raises(NumericInputError):
            window_samples(series, 4, 2, 0)

    def test_peak_memory_is_the_returned_windows(self):
        # k = 2200 windows of m + n = 207 values: the windows are gathered
        # straight into train and test, with no full window matrix besides
        series = ar1_series(2200 + 207, seed=6)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            train, test, _ = window_samples(series, 200, 7, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (train.nbytes + test.nbytes)


class TestSplit:
    def test_sizes(self):
        series = ar1_series(16, seed=6)
        train, test, _ = window_samples(series, 4, 2, 0)
        assert train.shape[0] + test.shape[0] == 10
        assert test.shape[0] == 2 and train.shape[0] == 8

    def test_deterministic_and_disjoint(self):
        series = ar1_series(30, seed=7)
        one = window_samples(series, 4, 2, 11)
        two = window_samples(series, 4, 2, 11)
        assert np.array_equal(one[0], two[0])
        assert np.array_equal(one[1], two[1])
        assert one[2] == two[2]
        train = window_starts(series, one[0], one[2], 2)
        test = window_starts(series, one[1], one[2], 2)
        assert np.intersect1d(train, test).size == 0
        assert train.size + test.size == 30 - 6

    def test_seed_changes_partition(self):
        series = ar1_series(30, seed=8)
        _, one, mean_one = window_samples(series, 4, 2, 1)
        _, two, mean_two = window_samples(series, 4, 2, 2)
        assert not np.array_equal(window_starts(series, one, mean_one, 2),
                                  window_starts(series, two, mean_two, 2))

    def test_degenerate_count(self):
        series = ar1_series(8, seed=9)
        with pytest.raises(DegenerateDataError):
            window_samples(series, 3, 1, 0)


class TestNormalizedRms:
    def test_perfect_filter_on_copy_task(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((2, 3))
        y = rng.standard_normal((6, 3))
        z = np.concatenate([y @ a.T, y], axis=1)
        filt = LinearFilter(matrix=a, kind=FilterKind.WIENER, max_inverse_dim=3)
        assert normalized_rms(filt, z, mean=1.3) == pytest.approx(0.0, abs=1e-14)

    def test_zero_filter_with_zero_mean_is_one(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((40, 4))
        filt = LinearFilter(matrix=np.zeros((1, 3)), kind=FilterKind.WIENER, max_inverse_dim=3)
        assert normalized_rms(filt, z, mean=0.0) == pytest.approx(1.0)

    def test_hand_computed_three_samples(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((1, 2))
        z = rng.standard_normal((3, 3))
        mean = 0.7
        num = sum(np.sum((a @ zi[1:] - zi[:1]) ** 2) for zi in z) / 3.0
        den = sum(np.sum((zi[:1] + mean) ** 2) for zi in z) / 3.0
        expected = np.sqrt(num) / np.sqrt(den)
        filt = LinearFilter(matrix=a, kind=FilterKind.WIENER, max_inverse_dim=2)
        assert normalized_rms(filt, z, mean) == pytest.approx(expected, rel=1e-12)

    def test_certificate_is_required(self):
        with pytest.raises(TypeError):
            LinearFilter(matrix=np.eye(3), kind=FilterKind.WIENER)

    def test_zero_denominator(self):
        filt = LinearFilter(matrix=np.zeros((1, 2)), kind=FilterKind.WIENER, max_inverse_dim=2)
        z = np.zeros((3, 3))
        with pytest.raises(DegenerateDataError):
            normalized_rms(filt, z, mean=0.0)


class TestStackedNormalizedRms:
    def _filters(self, shapes, seed=13):
        rng = np.random.default_rng(seed)
        return [LinearFilter(matrix=rng.standard_normal(shape), kind=FilterKind.JPC,
                             max_inverse_dim=shape[1]) for shape in shapes]

    def test_one_value_per_filter_as_each_scored_alone(self):
        filters = self._filters([(2, 5)] * 20)
        z = np.random.default_rng(14).standard_normal((50, 7))
        got = normalized_rms(filters, z, mean=0.4)
        assert isinstance(got, list) and len(got) == 20
        for filt, value in zip(filters, got):
            assert isinstance(value, float)
            assert value == pytest.approx(normalized_rms(filt, z, 0.4), rel=1e-12, abs=0.0)

    def test_one_filter_in_a_sequence_is_the_single_call(self):
        filt, = self._filters([(2, 5)])
        z = np.random.default_rng(15).standard_normal((50, 7))
        assert normalized_rms((filt,), z, mean=0.4) == [normalized_rms(filt, z, mean=0.4)]

    def test_empty_sequence_rejected(self):
        z = np.random.default_rng(16).standard_normal((50, 7))
        with pytest.raises(DimensionError, match="no filters"):
            normalized_rms([], z, mean=0.0)

    def test_mixed_shapes_rejected(self):
        z = np.random.default_rng(17).standard_normal((50, 7))
        for shapes in ([(2, 5), (1, 6)], [(2, 5), (2, 5), (3, 5)]):
            with pytest.raises(DimensionError, match="mixed shapes"):
                normalized_rms(self._filters(shapes), z, mean=0.0)


class TestResultFiles:
    def rows(self):
        return [
            ExperimentResult(filter="wiener", m=8, n=2, l=None, norm_rms=0.5,
                             analytic_mse=1.25, rho_l=0.0, cond_cy=12.5,
                             max_inverse_dim=8, wall_ms=3.25),
            ExperimentResult(filter="jpc", m=8, n=2, l=3, norm_rms=float("nan"),
                             analytic_mse=float("nan"), rho_l=0.125, cond_cy=12.5,
                             max_inverse_dim=3, wall_ms=1.5),
        ]

    def test_csv_schema_and_empty_l(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results_csv(self.rows(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(RESULT_FIELDS)
        assert lines[1].startswith("wiener,8,2,,0.5,")
        assert ",nan," in lines[2]

    def test_header_is_the_fixed_ten_columns(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results_csv(self.rows(), path)
        assert path.read_text().splitlines()[0] == (
            "filter,m,n,l,norm_rms,analytic_mse,rho_l,cond_cy,max_inverse_dim,wall_ms")

    def test_csv_bytes_stable(self, tmp_path):
        one, two = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(self.rows(), one)
        write_results_csv(self.rows(), two)
        assert one.read_bytes() == two.read_bytes()

    def test_json_equivalent(self, tmp_path):
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        write_results_csv(self.rows(), csv_path)
        write_results_json(self.rows(), json_path)
        records = json.loads(json_path.read_text())
        assert [r["filter"] for r in records] == ["wiener", "jpc"]
        assert records[0]["l"] is None
        assert records[0]["norm_rms"] == 0.5
        header = csv_path.read_text().splitlines()[0].split(",")
        assert set(records[0]) == set(header)

    def test_condition_csv(self, tmp_path):
        path = tmp_path / "cond.csv"
        write_condition_csv([(4, 1.0), (8, float("inf"))], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "m,cond_cy"
        assert lines[1] == "4,1.0"
        assert lines[2] == "8,inf"
