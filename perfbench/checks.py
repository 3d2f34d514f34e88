"""Correctness of result rows, with and without a seed-commit reference.

One operation is one expected row. A row fails when it is missing, when
it breaks a reference-free invariant, or, for a seed with a reference
file, when it disagrees with the reference. A NaN row (a filter whose
construction failed) is a correct result when the reference has it as
NaN too, or, without a reference, when ``c_y`` is singular in float64.

Tolerances live in ``spec.json``; the ``analytic_mse`` and ``rho_l``
tolerances are multiplied by ``tr(c_x)`` of the model the row was built
on, which the benchmark computes itself, outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
TOLERANCES = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))["tolerances"]
REFERENCES = HERE / "references"
FLOAT_FIELDS = ("norm_rms", "analytic_mse", "rho_l", "cond_cy")
JOINT_FAMILY = ("jpc", "lsjpc", "jpc_simplified", "lsjpc_simplified")


@dataclass
class CheckResult:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    nan_rows: int = 0
    bit_identical: int | None = None


def read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def reference_path(name: str, seed: int) -> Path:
    return REFERENCES / f"{name}-seed{seed}.csv"


def expected_inverse_dim(filt: str, m: int, l: int | None) -> int:
    """The certificate each filter must carry."""
    if filt in ("jpc", "lsjpc"):
        return l
    if filt in ("jpc_simplified", "lsjpc_simplified"):
        return 0
    return m


def _series_joint(values: np.ndarray, m: int, n: int, seed: int) -> np.ndarray:
    """Training covariance of the windowed series, derived independently:
    windows of m+n values, the later n on top, 20% of windows drawn
    without replacement for test, the training mean removed, K-1 denominator."""
    k = values.shape[0] - (m + n)
    windows = np.lib.stride_tricks.sliding_window_view(values, m + n)[:k]
    samples = np.concatenate([windows[:, m:], windows[:, :m]], axis=1)
    test = np.random.default_rng(seed).choice(k, size=int(round(0.2 * k)), replace=False)
    train = np.ones(k, dtype=bool)
    train[test] = False
    z = samples[train] - samples[train].mean()
    c_z = z.T @ z / (z.shape[0] - 1)
    return 0.5 * (c_z + c_z.T)


def model_facts(workload: workloads.Workload, seed: int, inputs: Path) -> dict[int, tuple]:
    """(tr(c_x), descending joint eigenvalues) for every model the sweep builds."""
    n = workloads.N
    if workload.kind == "sweep-l":
        with np.load(inputs) as data:
            joint = np.block([[data["c_x"], data["c_xy"]], [data["c_xy"].T, data["c_y"]]])
        joints = {workloads.SWEEP_L_M: joint}
    else:
        values = workloads.read_series_csv(inputs)
        joints = {m: _series_joint(values, m, n, seed) for m in workloads.SWEEP_M_GRID}
    return {m: (float(np.trace(j[:n, :n])), np.linalg.eigvalsh(0.5 * (j + j.T))[::-1])
            for m, j in joints.items()}


def _key(workload: workloads.Workload, row: dict[str, str]) -> tuple:
    l = int(row["l"]) if row["l"] else None
    if workload.kind == "sweep-m":
        return (row["filter"], int(row["m"]))
    return (row["filter"], int(row["m"]), l)


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _row_problems(row: dict[str, str], facts: dict[int, tuple], wiener_mse: dict) -> list[str]:
    """Reference-free invariants of one row."""
    out = []
    filt, m = row["filter"], int(row["m"])
    l = int(row["l"]) if row["l"] else None
    v = {f: float(row[f]) for f in FLOAT_FIELDS}
    trace_cx, eigenvalues = facts[m]
    tol = TOLERANCES["analytic_mse"]["atol_per_trace_cx"] * trace_cx
    if int(row["n"]) != workloads.N:
        out.append(f"n={row['n']}")
    if (filt == "wiener") != (l is None) or (l is not None and not 1 <= l <= m):
        out.append(f"level {row['l']!r} invalid for {filt} at m={m}")
        return out
    if int(row["max_inverse_dim"]) != expected_inverse_dim(filt, m, l):
        out.append(f"max_inverse_dim={row['max_inverse_dim']}, certificate needs"
                   f" {expected_inverse_dim(filt, m, l)}")
    if not v["cond_cy"] > 0.0:
        out.append(f"cond_cy={row['cond_cy']}")
    singular = math.isinf(v["cond_cy"])
    failed_build = math.isnan(v["norm_rms"]), math.isnan(v["analytic_mse"])
    if failed_build[0] != failed_build[1]:
        out.append("norm_rms and analytic_mse disagree on failure")
    elif failed_build[0] and not singular:
        out.append("construction failed on a c_y that is not singular in float64")
    elif not failed_build[0]:
        if not v["norm_rms"] >= 0.0:
            out.append(f"norm_rms={row['norm_rms']}")
        # Where c_y is singular in float64 the stored covariances are PSD only
        # to rounding, and a filter of norm |A| sees them as negative by up
        # to about eps |A|^2 |c_y|; the row does not carry |A|, so no
        # tolerance in units of tr(c_x) bounds the MSE from below there.
        if not singular and not v["analytic_mse"] >= -tol:
            out.append(f"analytic_mse={row['analytic_mse']} is negative")
        if not singular and filt != "wiener" and m in wiener_mse \
                and v["analytic_mse"] < wiener_mse[m] - tol:
            out.append(f"analytic_mse={row['analytic_mse']} beats wiener's {wiener_mse[m]!r}")
    if filt == "wiener":
        expected_rho = 0.0
    elif filt in JOINT_FAMILY:
        expected_rho = float(eigenvalues[l:].sum())
    else:  # the whitened cross-covariance has only n singular values
        expected_rho = float("nan") if singular and math.isnan(v["rho_l"]) else 0.0
    if not (math.isnan(expected_rho) or abs(v["rho_l"] - expected_rho)
            <= TOLERANCES["rho_l"]["atol_per_trace_cx"] * trace_cx):
        out.append(f"rho_l={row['rho_l']}, joint-eigenvalue tail gives {expected_rho!r}")
    if not 0.0 <= float(row["wall_ms"]) < math.inf:
        out.append(f"wall_ms={row['wall_ms']}")
    return out


def _reference_problems(row: dict[str, str], ref: dict[str, str], trace_cx: float) -> list[str]:
    out = []
    for f in ("l", "n", "max_inverse_dim"):
        if row[f] != ref[f]:
            out.append(f"{f}={row[f]!r}, reference {ref[f]!r}")
    for f in FLOAT_FIELDS:
        a, b = float(row[f]), float(ref[f])
        if math.isnan(a) != math.isnan(b) or math.isinf(a) != math.isinf(b):
            out.append(f"{f}={row[f]}, reference {ref[f]}")
            continue
        if math.isnan(a) or math.isinf(a):
            continue
        tol = TOLERANCES[f]
        atol = tol.get("atol", 0.0) + tol.get("atol_per_trace_cx", 0.0) * trace_cx
        if not _close(a, b, tol.get("rtol", 0.0), atol):
            out.append(f"{f}={row[f]}, reference {ref[f]}")
    return out


def check_rows(workload: workloads.Workload, rows: list[dict[str, str]] | None,
               facts: dict[int, tuple], reference: list[dict[str, str]] | None) -> CheckResult:
    """Check one sweep's rows; ``rows`` is None when the command failed."""
    expected = workload.expected_keys()
    result = CheckResult(attempted=len(expected))
    if rows is None:
        result.failed = result.attempted
        result.problems.append("the command failed; every row counts as failed")
        return result
    by_key: dict[tuple, dict[str, str]] = {}
    bad: set = set()
    for row in rows:
        key = _key(workload, row)
        if key not in expected or key in by_key:
            result.problems.append(f"{key}: unexpected or duplicate row")
            bad.add(key)
        by_key[key] = row
    wiener_mse = {k[1]: float(r["analytic_mse"]) for k, r in by_key.items() if k[0] == "wiener"}
    refs = {_key(workload, r): r for r in reference} if reference is not None else None
    identical = 0
    for key in sorted(expected, key=str):
        row = by_key.get(key)
        if row is None:
            result.problems.append(f"{key}: missing")
            bad.add(key)
            continue
        result.nan_rows += math.isnan(float(row["norm_rms"]))
        problems = _row_problems(row, facts, wiener_mse)
        if refs is not None:
            ref = refs[key]
            problems += _reference_problems(row, ref, facts[key[1]][0])
            identical += all(row[f] == ref[f] for f in row if f != "wall_ms")
        if problems:
            bad.add(key)
            result.problems += [f"{key}: {p}" for p in problems]
    result.failed = min(len(bad), result.attempted)
    result.bit_identical = identical if refs is not None else None
    return result


def same_bits(a: list[dict[str, str]], b: list[dict[str, str]]) -> int:
    """Rows of ``a`` equal, field for field except ``wall_ms``, to the row at
    the same position of ``b``."""
    return sum(all(x[f] == y[f] for f in x if f != "wall_ms") for x, y in zip(a, b))
