"""Check that this checkout prints the same result bytes as a git revision.

    python3 tools/same_outputs.py REV [--seeds 0,1,5,7] [--blas-threads 1]

Exports REV's ``src/`` with ``git archive`` and runs the same ``wclmmse``
command lines against it and against this checkout's ``src/``, each in a
fresh process with BLAS pinned to ``--blas-threads`` threads (default 1),
at every seed:

* the benchmark's three workloads (``synth`` or the series CSV, then the
  sweep), with inputs and argv from ``perfbench/workloads.py``;
* ``cond`` on the series and on the ``sweep-l-m400`` model;
* ``scaling`` of ``jpc`` and of ``lsjpc`` on that model;
* ``sweep-l`` of ``csw`` and the simplified kinds on that model, whose
  ``c_y`` is definite, so that ``csw`` builds every row;
* ``sweep-m --l-policy fixed:20`` and ``sweep-l --data`` on the series;
* ``sweep-m --l-policy fixed:20 --filters jpc,lsjpc,wiener`` on the
  series, whose joint decomposition comes before the Wiener solve.

Every CSV and JSON is compared with its ``wall_ms`` dropped, and every
``synth`` model file array by array, bit for bit. It prints one line per
file and exits 1 on any difference or failed command. For a CSV that
differs, the line also says how many rows differ, for each float field
the largest |change| as a fraction of that field's tolerance in
``perfbench/spec.json`` (the file's raw largest |change| for a field that
has none there), and which rows differ: per filter, their levels l, or
their window lengths m in a file of more than one m. A tolerance per
tr(c_x) uses the trace of the row's model: the model file, or the
training covariance of the series at the row's m. Run it from any
directory; nothing is written inside the checkout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SPEC = ROOT / "perfbench" / "spec.json"
TOLERANCES = json.loads(SPEC.read_text(encoding="utf-8"))["tolerances"]
# CSV columns compared as text only: they name a row, or count
TEXT_FIELDS = ("filter", "m", "n", "l", "max_inverse_dim")

sys.dont_write_bytecode = True  # import the benchmark's workloads without writing beside them
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(1, str(ROOT / "src"))  # wclmmse, for the windowing of series_trace_cx
import workloads  # noqa: E402


def export_src(rev: str, dest: Path) -> Path:
    """Unpack REV's ``src/`` under ``dest`` and return that ``src`` directory."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def command_lines(seed: int, series: Path, out: Path) -> list[list[str]]:
    """Every command line run at ``seed``, writing under ``out``."""
    lines = []
    for name, workload in workloads.WORKLOADS.items():
        inputs = series
        if workload.kind == "sweep-l":
            inputs = out / f"{name}.bin"
            lines.append(workload.synth_argv(seed, inputs))
        lines.append(workload.sweep_argv(seed, inputs, out / f"{name}.csv"))
    model = out / "sweep-l-m400.bin"
    n, m_grid = str(workloads.N), ",".join(map(str, workloads.SWEEP_M_GRID))
    l_grid = workloads.SWEEP_L_GRID
    seeded = ["--n", n, "--seed", str(seed)]
    lines += [
        ["cond", "--data", series, "--m-grid", m_grid, *seeded, "--out", out / "cond-data.csv"],
        ["cond", "--model", model, "--m-grid", "100:400:100", *seeded,
         "--out", out / "cond-model.csv"],
        ["scaling", "--model", model, "--filter", "jpc", "--out", out / "scaling-jpc.csv"],
        ["scaling", "--model", model, "--filter", "lsjpc", "--out", out / "scaling-lsjpc.csv"],
        ["sweep-m", "--data", series, "--m-grid", m_grid, "--l-policy", "fixed:20", *seeded,
         "--out", out / "sweep-m-fixed.csv"],
        ["sweep-m", "--data", series, "--m-grid", m_grid, "--l-policy", "fixed:20", *seeded,
         "--filters", "jpc,lsjpc,wiener", "--out", out / "sweep-m-jpc-first.csv"],
        ["sweep-l", "--data", series, "--m", str(workloads.SWEEP_L_M), *seeded,
         "--l-min", str(l_grid[0]), "--l-max", str(l_grid[-1]),
         "--l-step", str(l_grid[1] - l_grid[0]), "--out", out / "sweep-l-data.csv"],
        ["sweep-l", "--model", model, "--m", str(workloads.SWEEP_L_M), *seeded,
         "--l-min", "40", "--l-max", "400", "--l-step", "40",
         "--filters", "csw,jpc_simplified,lsjpc_simplified", "--out", out / "sweep-l-csw.csv"],
    ]
    return [[str(a) for a in line] for line in lines]


def tree_env(src: Path, blas_threads: int) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.update({name: str(blas_threads) for name in BLAS_ENV})
    return env


def check_import(src: Path) -> None:
    """Refuse to compare when ``wclmmse`` would not be imported from ``src``."""
    found = subprocess.run([sys.executable, "-c", "import wclmmse; print(wclmmse.__file__)"],
                           env=tree_env(src, 1), capture_output=True, text=True, check=True)
    if not Path(found.stdout.strip()).resolve().is_relative_to(src.resolve()):
        sys.exit(f"wclmmse imports from {found.stdout.strip()}, not from {src}")


def without_wall_ms_csv(path: Path) -> list[list[str]]:
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_ms"]
    return [[row[i] for i in keep] for row in rows]


def without_wall_ms_json(path: Path) -> str:
    records = json.loads(path.read_text(encoding="utf-8"))
    records = [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]
    # text, not objects: NaN != NaN, but its JSON spelling is stable
    return json.dumps(records, sort_keys=True)


def same_arrays(a: Path, b: Path) -> bool:
    with np.load(a) as left, np.load(b) as right:
        if sorted(left.files) != sorted(right.files):
            return False
        return all(left[k].dtype == right[k].dtype and left[k].shape == right[k].shape
                   and left[k].tobytes() == right[k].tobytes() for k in left.files)


def model_file(name: str, out: Path) -> Path | None:
    """The model file the rows of CSV ``name`` were built on; None for the series."""
    stem = name.removesuffix(".csv")
    if stem.startswith("scaling-") or stem in ("cond-model", "sweep-l-csw"):
        stem = "sweep-l-m400"
    path = out / f"{stem}.bin"
    return path if path.exists() else None


def series_trace_cx(series: Path, m: int, n: int, seed: int) -> float:
    """tr(c_x) of the training covariance that ``sweep-m``/``sweep-l --data``
    estimate from the series at window length m."""
    from wclmmse import window_samples

    train, _, _ = window_samples(workloads.read_series_csv(series), m, n, seed)
    return float(np.einsum("ij,ij->", train[:, :n], train[:, :n]) / (train.shape[0] - 1))


def field_tolerance(field: str, reference: float, trace_cx) -> float | None:
    """``spec.json``'s tolerance for ``field`` at a row whose rev value is
    ``reference``; ``trace_cx()`` gives the row's tr(c_x). None without one."""
    tol = TOLERANCES.get(field)
    if tol is None:
        return None
    if "atol_per_trace_cx" in tol:
        return tol["atol_per_trace_cx"] * trace_cx()
    return tol.get("atol", 0.0) + tol.get("rtol", 0.0) * abs(reference)


def spans(values: list[int]) -> str:
    """Sorted integers, compactly: each run of three or more at one step as
    first..last/step, any other value alone."""
    out, i = [], 0
    while i < len(values):
        j = i + 1
        while j + 1 < len(values) and values[j + 1] - values[j] == values[i + 1] - values[i]:
            j += 1
        if j - i >= 2:
            out.append(f"{values[i]}..{values[j]}/{values[i + 1] - values[i]}")
            i = j + 1
        else:
            out.append(str(values[i]))
            i += 1
    return ", ".join(out)


def row_keys(header: list[str], rows: list[list[str]], by: str) -> str:
    """The keys of ``rows``: per filter, in order of first appearance, the
    ``by`` values (l or m) of its rows; a filter's row with no level (the
    ``wiener`` row of a ``sweep-l``) shows as the filter alone."""
    groups: dict[str, list[int]] = {}
    for row in rows:
        row = dict(zip(header, row))
        values = groups.setdefault(row.get("filter", ""), [])
        if row[by]:
            values.append(int(row[by]))
    parts = []
    for name, values in groups.items():
        keys = values and f"{by}={spans(sorted(values))}"
        parts.append(" ".join(filter(None, (name, keys))))
    return "; ".join(parts)


def csv_difference(rev: Path, here: Path, series: Path, seed: int) -> str:
    """How many rows of two differing CSVs differ, per float field the
    largest |change| as a fraction of its spec tolerance, and the keys of
    the rows that differ: (filter, l), or (filter, m) in a file of more
    than one m."""
    header, *old = without_wall_ms_csv(rev)
    new = without_wall_ms_csv(here)[1:]
    if len(old) != len(new):
        return f"{len(old)} rows at the rev, {len(new)} here"
    model = model_file(rev.name, rev.parent)
    traces: dict[int, float] = {}

    def trace_cx(row: dict[str, str]) -> float:
        m = int(row.get("m") or workloads.SWEEP_L_M)
        if m not in traces:
            if model is not None:
                with np.load(model) as arrays:
                    traces[m] = float(np.trace(arrays["c_x"]))
            else:
                traces[m] = series_trace_cx(series, m, int(row["n"]), seed)
        return traces[m]

    fields = [f for f in header if f not in TEXT_FIELDS]
    worst = dict.fromkeys(fields, 0.0)
    changed = []
    for a, b in zip(old, new):
        if a == b:
            continue
        changed.append(a)
        row = dict(zip(header, a))
        for field, x, y in zip(header, a, b):
            if field in TEXT_FIELDS or x == y:
                continue
            x, y = float(x), float(y)
            delta = abs(x - y) if x == x and y == y else float("inf")
            tol = field_tolerance(field, x, lambda: trace_cx(row))
            worst[field] = max(worst[field], delta / tol if tol else delta)
    spelled = ", ".join(f"{f} {worst[f]:.3g}" + ("" if f in TOLERANCES else " (|change|)")
                        for f in fields)
    lengths = {row[header.index("m")] for row in old} if "m" in header else set()
    by = "l" if "l" in header and len(lengths) < 2 else "m"
    return (f"{len(changed)} of {len(old)} rows differ; largest |change|/tolerance: {spelled};"
            f" rows: {row_keys(header, changed, by)}")


def same_file(a: Path, b: Path) -> bool:
    if a.suffix == ".csv":
        return without_wall_ms_csv(a) == without_wall_ms_csv(b)
    if a.suffix == ".json":
        return without_wall_ms_json(a) == without_wall_ms_json(b)
    return same_arrays(a, b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare this checkout with")
    parser.add_argument("--seeds", default="0,1,5,7", help="comma list of seeds")
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads in every wclmmse process (default 1)")
    args = parser.parse_args(argv)
    if args.blas_threads < 1:
        parser.error("--blas-threads must be at least 1")
    seeds = [int(s) for s in args.seeds.split(",") if s]
    differences = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        trees = {"rev": export_src(args.rev, work / "rev"), "here": ROOT / "src"}
        for src in trees.values():
            check_import(src)
        for seed in seeds:
            series = work / f"series-seed{seed}.csv"
            workloads.write_series_csv(seed, series)
            outs = {tree: work / tree / f"seed{seed}" for tree in trees}
            for tree, src in trees.items():
                outs[tree].mkdir(parents=True)
                for line in command_lines(seed, series, outs[tree]):
                    run = subprocess.run([sys.executable, "-m", "wclmmse.cli", *line],
                                         env=tree_env(src, args.blas_threads),
                                         capture_output=True, text=True)
                    if run.returncode != 0:
                        differences += 1
                        last = (run.stderr.strip().splitlines() or [""])[-1]
                        print(f"FAILED     {tree} seed {seed}: wclmmse {' '.join(line)}: {last}")
            for name in sorted({p.name for out in outs.values() for p in out.iterdir()}):
                a, b = (out / name for out in outs.values())
                same = a.exists() and b.exists() and same_file(a, b)
                differences += not same
                detail = ""
                if not same and a.exists() and b.exists() and a.suffix == ".csv":
                    detail = f": {csv_difference(a, b, series, seed)}"
                print(f"{'identical' if same else 'DIFFERENT':10} seed{seed}/{name}{detail}",
                      flush=True)
    print(f"{differences} difference(s) against {args.rev} at seeds {args.seeds},"
          f" {args.blas_threads} BLAS thread(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
