"""Time-series ingestion, windowing, train/test split, and result files.

A daily-valued series is a plain 1-D array of values in date order.
``window_samples(series, m, n, seed)`` cuts it into overlapping windows
of m + n consecutive values; the n later values form the prediction
target X (stored in the TOP coordinates, matching the model module's
stacking convention) and the m earlier values form the input Y below.
The seed alone decides which windows are held out for testing. The
training and test windows are the rows of two plain arrays. A scalar
global mean, computed over the training windows only, is subtracted
from every entry and kept for adding back at evaluation time.

The sweeps never gather the training windows: ``_split_series`` makes the
same split and mean, from counts of the training windows that hold each
value, and returns the centred series with the test windows, from which
:func:`~wclmmse.model.series_covariance` builds the training covariance.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DegenerateDataError,
    DimensionError,
    ModelError,
    NumericInputError,
)
from .filters import LinearFilter, _stacked
from .linalg import _as_count

__all__ = [
    "load_csv",
    "window_samples",
    "normalized_rms",
    "ExperimentResult",
    "RESULT_FIELDS",
    "write_results_csv",
    "write_results_json",
    "write_condition_csv",
    "write_scaling_csv",
]


# Share of windows reserved for out-of-sample evaluation.
_TEST_FRACTION = 0.2


def _parse_date(text: str) -> datetime.date:
    text = text.strip()
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        pass
    try:
        return datetime.datetime.strptime(text, "%m/%d/%Y").date()
    except ValueError:
        raise ValueError(f"unparseable date: {text!r}") from None


def load_csv(path, date_column: str = "date",
             value_column: str = "value") -> NDArray[np.float64]:
    """Read a header-bearing CSV into the 1-D float64 values, sorted by date.

    Column names are matched case-insensitively. Dates may be ISO-8601
    or M/D/YYYY. Rows are sorted by date internally; duplicate dates and
    malformed or non-finite rows are errors that name the offending line.
    A leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped.
    """
    path = Path(path)
    rows: list[tuple[datetime.date, float]] = []
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DegenerateDataError(f"{path}: empty file")
        lookup = {name.strip().lower(): i for i, name in enumerate(header)}
        try:
            date_at = lookup[date_column.strip().lower()]
            value_at = lookup[value_column.strip().lower()]
        except KeyError as exc:
            raise DimensionError(
                f"{path}: missing column {exc.args[0]!r}; available: {header}") from None
        needed = max(date_at, value_at) + 1
        for record in reader:
            if not record:  # a blank line, skipped as csv.DictReader does
                continue
            line = reader.line_num
            if len(record) < needed:
                raise NumericInputError(
                    f"{path}:{line}: {len(record)} fields, expected at least {needed}")
            try:
                date = _parse_date(record[date_at])
                value = float(record[value_at])
            except ValueError as exc:
                raise NumericInputError(f"{path}:{line}: {exc}") from None
            if not math.isfinite(value):
                raise NumericInputError(f"{path}:{line}: non-finite value {value!r}")
            rows.append((date, value))
    rows.sort(key=lambda item: item[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise ModelError(f"{path}: duplicate date {d1}")
    return np.array([v for _, v in rows], dtype=np.float64)


def _split(series, m: int, n: int, seed: int) -> tuple[NDArray[np.float64], NDArray[np.intp]]:
    """The validated series as float64 and the sorted starts of its test
    windows: a uniform draw without replacement, deterministic per
    ``seed``, of a fifth (``_TEST_FRACTION``) of its K = len - (m+n)
    windows. Raises :class:`DimensionError` unless m and n are integers
    from 1 up and the series is 1-D, and :class:`DegenerateDataError`
    below 5 windows."""
    m, n = _as_count(m, "window length m", 1), _as_count(n, "target length n", 1)
    values = np.asarray(series, dtype=np.float64)
    if values.ndim != 1:
        raise DimensionError(f"series must be 1-D, got ndim={values.ndim}")
    if not np.all(np.isfinite(values)):
        raise NumericInputError("series contains non-finite values")
    length = values.shape[0]
    if length < m + n + 1:
        raise DegenerateDataError(
            f"series of length {length} too short for m+n = {m + n}")
    k = length - (m + n)
    if k < 5:
        raise DegenerateDataError(f"need at least 5 windows to split, got {k}")
    rng = np.random.default_rng(seed)
    test_size = int(round(_TEST_FRACTION * k))
    return values, np.sort(rng.choice(k, size=test_size, replace=False))


def _gather(values: NDArray[np.float64], starts: NDArray[np.intp], m: int,
            n: int) -> NDArray[np.float64]:
    """The windows of ``values`` at ``starts`` as C-contiguous rows, each
    [later n | earlier m], gathered from the strided view."""
    cols = np.concatenate([np.arange(m, m + n), np.arange(m)])
    windows = np.lib.stride_tricks.sliding_window_view(values, m + n)
    return windows[starts[:, None], cols]


def window_samples(series, m: int, n: int, seed: int):
    """Cut a 1-D series into K = len - (m+n) overlapping windows.

    Window i covers series[i : i+m+n]; its n later values go on top (X)
    and its m earlier values below (Y). A uniform without-replacement
    draw, deterministic per ``seed``, reserves a fifth of the windows
    (``_TEST_FRACTION``) for testing. Returns ``(train, test, mean)``:
    the training and test windows as C-contiguous rows in increasing
    window order, with ``mean``, the scalar mean of the training
    windows, subtracted from every entry. Raises
    :class:`DimensionError` unless m and n are integers from 1 up.
    """
    values, test_rows = _split(series, m, n, seed)
    mask = np.ones(values.shape[0] - (m + n), dtype=bool)
    mask[test_rows] = False
    train = _gather(values, np.flatnonzero(mask), m, n)
    test = _gather(values, test_rows, m, n)
    mean = float(train.mean())
    train -= mean
    test -= mean
    return train, test, mean


def _split_series(series, m: int, n: int, seed: int):
    """The split of :func:`window_samples` without gathering the training
    windows: ``(centered, test, mean)``, the series less ``mean`` and its
    test windows, rows as there, with ``mean`` the scalar mean of the
    training windows. :func:`~wclmmse.model.series_covariance` estimates
    the training covariance from the two.

    The mean is taken from how many training windows hold each value,
    exact integer counts: the count-weighted values are summed with one
    rounding (``math.fsum``) and divided by the number of entries. The
    series and window lengths are refused as by :func:`window_samples`.
    """
    values, test_rows = _split(series, m, n, seed)
    d = m + n
    k = values.shape[0] - d
    # the training window starting at s holds values[s : s + d], so the
    # count of those holding each value is a running sum of +1 at s, -1 at s + d
    train = np.ones(k, dtype=np.int64)
    train[test_rows] = 0
    edges = np.zeros(values.shape[0], dtype=np.int64)
    edges[:k] += train
    edges[d:] -= train
    covered = np.cumsum(edges)
    mean = math.fsum(covered * values) / ((k - test_rows.shape[0]) * d)
    centered = values - mean
    return centered, _gather(centered, test_rows, m, n), mean


def normalized_rms(filt: LinearFilter | Sequence[LinearFilter], test_samples,
                   mean: float) -> float | list[float]:
    """RMS prediction error over the RMS magnitude of the (un-centered) targets.

    Each test vector holds the target block x in its top coordinates and
    the input block y below; ``mean`` is added back in the denominator
    so the normalization reflects the original scale of the data.
    ``filt`` is one filter, or a sequence of filters of one shape, for
    which one value per filter comes back, in order: the predictions of
    all of them are one product of the test inputs with their stacked
    matrices, and the denominator is computed once. A single filter is
    the stack of one. An empty sequence, or filters of mixed shapes,
    raise :class:`DimensionError`.
    """
    one = isinstance(filt, LinearFilter)
    filters = [filt] if one else list(filt)
    stack = _stacked([f.matrix for f in filters])
    z = np.asarray(test_samples, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] == 0:
        raise DegenerateDataError("test set must be a nonempty 2-D array")
    n, m = filters[0].n, filters[0].m
    if z.shape[1] != n + m:
        raise DimensionError(
            f"test vectors have length {z.shape[1]}, expected {n + m}")
    x = z[:, :n]
    shifted = x + mean
    den = float(np.mean(np.einsum("ij,ij->i", shifted, shifted)))
    if den <= 0.0:
        raise DegenerateDataError("zero-magnitude targets: normalization undefined")
    # On the benchmark's test sets (1000 draws, or 1519 windows, of 400 to
    # 1200 inputs) OpenBLAS gives each filter's columns of y @ stack' the
    # bits of its own y @ A'; stack @ y' moves some at 1519 windows
    predictions = z[:, n:] @ stack.T
    values = []
    for i in range(len(filters)):
        err = predictions[:, i * n:(i + 1) * n] - x
        num = float(np.mean(np.einsum("ij,ij->i", err, err)))
        values.append(float(np.sqrt(num) / np.sqrt(den)))
    return values[0] if one else values


@dataclass
class ExperimentResult:
    """One (filter, m, l) record of a sweep; its fields are the result schema."""

    filter: str
    m: int
    n: int
    l: int | None
    norm_rms: float
    analytic_mse: float
    rho_l: float
    cond_cy: float
    max_inverse_dim: int
    wall_ms: float


RESULT_FIELDS = tuple(f.name for f in fields(ExperimentResult))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows) -> None:
    """A header line, then one line of formatted cells per row."""
    lines = [",".join(header)]
    lines += [",".join(_format_cell(cell) for cell in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_results_csv(results, path) -> None:
    """Experiment rows in the fixed result schema; bytes depend only on values."""
    _write_csv(path, RESULT_FIELDS,
               ([getattr(row, f) for f in RESULT_FIELDS] for row in results))


def write_results_json(results, path) -> None:
    """The same rows as a JSON array."""
    records = [{f: getattr(row, f) for f in RESULT_FIELDS} for row in results]
    Path(path).write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")


def write_condition_csv(rows, path) -> None:
    """(m, cond_cy) pairs from a condition-number sweep."""
    _write_csv(path, ("m", "cond_cy"), ((int(m), float(cond)) for m, cond in rows))


def write_scaling_csv(study, path) -> None:
    """Scaling-study rows: level, loss, distance, MSE gap, Gram defect."""
    columns = zip(study.l, study.rho_l, study.dist, study.mse_gap, study.gram_defect)
    _write_csv(path, ("l", "rho_l", "dist", "mse_gap", "gram_defect"),
               ((int(l), *map(float, rest)) for l, *rest in columns))
