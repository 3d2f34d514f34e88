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
"""

from __future__ import annotations

import csv
import datetime
import json
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
    """
    path = Path(path)
    rows: list[tuple[datetime.date, float]] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise DegenerateDataError(f"{path}: empty file")
        lookup = {name.strip().lower(): name for name in reader.fieldnames}
        try:
            date_key = lookup[date_column.strip().lower()]
            value_key = lookup[value_column.strip().lower()]
        except KeyError as exc:
            raise DimensionError(
                f"{path}: missing column {exc.args[0]!r};"
                f" available: {reader.fieldnames}") from None
        for record in reader:
            line = reader.line_num
            try:
                date = _parse_date(record[date_key])
                value = float(record[value_key])
            except (TypeError, ValueError) as exc:
                raise NumericInputError(f"{path}:{line}: {exc}") from None
            if not np.isfinite(value):
                raise NumericInputError(f"{path}:{line}: non-finite value {value!r}")
            rows.append((date, value))
    rows.sort(key=lambda item: item[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise ModelError(f"{path}: duplicate date {d1}")
    return np.array([v for _, v in rows], dtype=np.float64)


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
    test_rows = np.sort(rng.choice(k, size=test_size, replace=False))
    mask = np.ones(k, dtype=bool)
    mask[test_rows] = False
    # [later n | earlier m], gathered from the strided view straight into
    # the train and test rows
    cols = np.concatenate([np.arange(m, m + n), np.arange(m)])
    windows = np.lib.stride_tricks.sliding_window_view(values, m + n)
    train = windows[np.flatnonzero(mask)[:, None], cols]
    test = windows[test_rows[:, None], cols]
    mean = float(train.mean())
    train -= mean
    test -= mean
    return train, test, mean


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
