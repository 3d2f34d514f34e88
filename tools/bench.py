"""Time the paper's sweeps end to end and by phase; write BENCH_<label>.json.

    python3 tools/bench.py --label X [--rev REV] [--repeats 5] [--m 400,800,1200]
                           [--out-dir DIR]

Times this checkout's ``src/``, or with ``--rev`` that revision's, unpacked
by ``tools/same_outputs.export_src``. Every measurement is a fresh
``python3`` process with BLAS pinned to one thread (``BLAS_THREADS``), on
the 8000-point AR(1) series of ``perfbench/workloads.py`` at seed 0
(``SEED``, which also seeds the split) or, for ``sweep_l``, on a
synthetic model of that seed; the JSON records both:

* ``sweep``: ``wclmmse sweep-m --l-policy best`` over the ``--m`` lengths
  with the filters ``wiener,lrw,jpc,lsjpc`` and n=7, through
  ``wclmmse.cli.main``, from reading the CSV to writing the result;
* ``phases``, one process per length m: the series set-up
  (``harness._prepare``: windowing and estimation), then the model's joint
  decomposition ``eig_z``, the condition number ``cond_y`` of c_y, the
  ladder top and ``jpc``'s ladder, then ``diagnostics.best_l_search`` for
  ``jpc`` and for ``lsjpc``, each timed alone. The ``cond_y`` phase
  makes both products of c_y's one factorization: its extremes, and the
  m x n Wiener solve c_y^-1 c_xy' (about 17 ms at m=3200, n=7, one BLAS
  thread on a 2-vCPU Xeon VM), so a ``--rev`` comparison with a revision
  that solved later shows that solve in this phase. Under ``calls``, each
  phase's ``factor_spd``, ``sym_eig`` and ``sym_eigvals`` calls, counted
  by the dimension of the matrix handed in, so that n x n factorizations
  stay apart from the O(d^3) ones; under ``builds``, each phase's filter
  builds, counted by kind;
* ``sweep_l``, one process per synthetic model of the benchmark's
  ``sweep-l`` workloads (``SWEEP_L``), made as ``perfbench/run.py`` makes
  it at seed ``SEED`` (m=400, n=7): ``wclmmse sweep-l`` over l=10..400 in
  steps of 10 with the workload's filters, timed from reading the model
  to writing the result (``run_s``); then, on a fresh model from the same
  file with ``jpc``'s ladder made as the sweep makes it, the ``jpc``
  builds of the sweep's levels up to the ladder's top that its rcond gate
  builds directly (``jpc_gated_s``, over the levels ``jpc_gated``), and
  the model's joint condition lambda_1 / lambda_d (``joint_cond``, null
  where lambda_d <= 0): a joint within the gate's bound, eps / 1e-8, has
  no such level.

The paper's full grid goes to m=3200 (``--m 400,800,1200,3200``). Each
process reports its ``VmHWM`` (read from
``/proc/self/status``; after the set-up too, for a phases process), the
BLAS thread count each OpenBLAS reports at run time, and
``perfbench/run.py``'s ``calibrate()`` timed before and after its
measurement. The JSON holds every repeat and, per figure, the median over
repeats; each time is also given scaled by ``CAL_REF_S`` over the
process's mean calibration (``*_cal``), as ``perfbench/run.py`` scales.
It is written to ``--out-dir``, by default the repository root.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
N = 7
SEED = 0
BLAS_THREADS = 1
FILTERS = "wiener,lrw,jpc,lsjpc"
# What a phases process times after the set-up, in order: the model's
# decompositions, by attribute, then best_l_search of each kind.
PHASES = ("eig_z", "cond_y", "ladder_top", "jpc_ladder", "best_jpc", "best_lsjpc")
COUNTED = ("factor_spd", "sym_eig", "sym_eigvals")
# The benchmark's sweep-l workloads, each timed in a process of its own.
SWEEP_L = ("sweep-l-m400", "sweep-l-illcond")


def vm_hwm_mb() -> float:
    """This process's peak resident set, ``VmHWM``, in MB (10^6 bytes)."""
    for line in Path("/proc/self/status").read_text(encoding="utf-8").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def count_calls(linalg) -> dict:
    """Wrap ``COUNTED`` in every loaded ``wclmmse`` module that holds them;
    return {name: {dimension: calls}}, which the wrappers fill in."""
    calls = {name: {} for name in COUNTED}

    def counting(name, original):
        def call(a, *args, **kwargs):
            dim = str(len(a))
            calls[name][dim] = calls[name].get(dim, 0) + 1
            return original(a, *args, **kwargs)
        return call

    for name in COUNTED:
        original = getattr(linalg, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "wclmmse" and getattr(module, name, None) is original:
                setattr(module, name, counting(name, original))
    return calls


def count_builds(filters) -> dict:
    """Wrap every ``FILTER_CONSTRUCTORS`` entry, which ``best_l_search``
    builds through; return {kind: builds}, which the wrappers fill in."""
    builds = {}

    def counting(kind, original):
        def build(model, l=None):
            builds[kind] = builds.get(kind, 0) + 1
            return original(model, l)
        return build

    for kind, original in list(filters.FILTER_CONSTRUCTORS.items()):
        filters.FILTER_CONSTRUCTORS[kind] = counting(kind.value, original)
    return builds


def child(task: str, series_csv: Path, m_grid: list[int], src: Path) -> dict:
    """One measurement in this process; ``wclmmse`` must come from ``src``."""
    blas_env = {name: os.environ.get(name) for name in BLAS_ENV}
    import wclmmse  # loads numpy's and scipy's BLAS under the pinned environment
    from wclmmse import cli, diagnostics, filters, harness, linalg

    where = Path(wclmmse.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"wclmmse imported from {where}, not from {src}")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    import worker
    import workloads

    out = {"blas_env": blas_env, "blas_runtime_threads": worker.blas_runtime_threads(),
           "calibration_s": [run.calibrate()]}
    if task == "sweep":
        with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
            argv = ["sweep-m", "--data", str(series_csv),
                    "--m-grid", ",".join(map(str, m_grid)), "--n", str(N),
                    "--l-policy", "best", "--filters", FILTERS, "--seed", str(SEED),
                    "--out", str(Path(tmp) / "sweep-m.csv")]
            started = time.perf_counter()
            if cli.main(argv) != 0:
                raise SystemExit("sweep-m failed")
            out["run_s"] = time.perf_counter() - started
    elif task in SWEEP_L:
        workload = workloads.WORKLOADS[task]
        with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
            model_file = Path(tmp) / workload.input_name
            if cli.main(workload.synth_argv(SEED, model_file)) != 0:
                raise SystemExit("synth failed")
            started = time.perf_counter()
            if cli.main(workload.sweep_argv(SEED, model_file, Path(tmp) / "sweep-l.csv")) != 0:
                raise SystemExit("sweep-l failed")
            out["run_s"] = time.perf_counter() - started
            model = cli.load_model(model_file)
        model.spectral.prepare_sweep(["jpc"], workloads.SWEEP_L_GRID)
        ladder = model.spectral.jpc_ladder
        gated = [l for l in workloads.SWEEP_L_GRID if l <= ladder.top and not ladder.reaches(l)]
        started = time.perf_counter()
        for l in gated:
            filters.jpc(model, l)
        out["jpc_gated_s"] = time.perf_counter() - started
        out["jpc_gated"] = gated
        out["ladder_top"] = ladder.top
        lam = model.spectral.eig_z.eigenvalues
        out["joint_cond"] = float(lam[0] / lam[-1]) if lam[-1] > 0.0 else None
    else:
        (m,) = m_grid
        series = workloads.read_series_csv(series_csv)
        calls = count_calls(linalg)
        out["calls"], out["builds"] = {}, {}
        started = time.perf_counter()
        model, _, _ = harness._prepare(series, m, N, SEED)
        out["setup_s"] = time.perf_counter() - started
        out["setup_vm_hwm_mb"] = vm_hwm_mb()
        out["calls"]["setup"] = copy.deepcopy(calls)
        cache = model.spectral
        builds = count_builds(filters)
        for name in PHASES:
            for counts in calls.values():
                counts.clear()
            builds.clear()
            started = time.perf_counter()
            if name.startswith("best_"):
                diagnostics.best_l_search(model, name[len("best_"):])
            else:
                getattr(cache, name)
            out[f"{name}_s"] = time.perf_counter() - started
            out["calls"][name] = copy.deepcopy(calls)
            out["builds"][name] = dict(builds)
        out["ladder_top"] = cache.ladder_top
    out["vm_hwm_mb"] = vm_hwm_mb()
    out["calibration_s"].append(run.calibrate())
    return out


def spawn(task: str, series_csv: Path, m_grid: list[int], src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", task,
            "--series", str(series_csv), "--m", ",".join(map(str, m_grid)), "--src", str(src)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{task} at m={m_grid} failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(runs: list[dict], cal_ref_s: float) -> dict:
    """Median over repeats of every number the runs report, with each time
    (``*_s``) also scaled to the reference speed as ``*_s_cal``."""
    summary = {}
    for key, value in runs[0].items():
        if isinstance(value, (int, float)) and key not in ("ladder_top", "joint_cond"):
            summary[key] = statistics.median(r[key] for r in runs)
        if key.endswith("_s") and key != "calibration_s":
            summary[f"{key}_cal"] = statistics.median(
                r[key] * cal_ref_s / statistics.mean(r["calibration_s"]) for r in runs)
    summary["calibration_s"] = statistics.median(c for r in runs for c in r["calibration_s"])
    for key in ("ladder_top", "joint_cond", "calls", "builds", "jpc_gated"):  # in every repeat
        if key in runs[0]:
            summary[key] = runs[0][key]
    return summary


def git_rev(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev],
                          capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="names the output, BENCH_<label>.json")
    parser.add_argument("--rev", help="git revision whose src/ to time (default: this checkout)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--m", default="400,800,1200", help="comma list of window lengths")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    parser.add_argument("--child", choices=("sweep", "phases", *SWEEP_L), help=argparse.SUPPRESS)
    parser.add_argument("--series", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--src", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    m_grid = [int(m) for m in args.m.split(",") if m]
    if args.child:
        print(json.dumps(child(args.child, args.series, m_grid, args.src)))
        return 0
    if not args.label:
        parser.error("--label is required")
    if args.repeats < 1 or not m_grid:
        parser.error("--repeats must be at least 1, and --m nonempty")
    sys.dont_write_bytecode = True  # import the benchmark's modules without writing beside them
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    import workloads

    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        work = Path(tmp)
        src = ROOT / "src"
        if args.rev:
            sys.path.insert(0, str(ROOT / "tools"))
            from same_outputs import export_src

            src = export_src(args.rev, work / "rev")
        series_csv = work / f"series-seed{SEED}.csv"
        workloads.write_series_csv(SEED, series_csv)
        sweeps, phases, sweep_l = [], {m: [] for m in m_grid}, {w: [] for w in SWEEP_L}
        for _ in range(args.repeats):
            sweeps.append(spawn("sweep", series_csv, m_grid, src))
            for m in m_grid:
                phases[m].append(spawn("phases", series_csv, [m], src))
            for name, runs in sweep_l.items():
                runs.append(spawn(name, series_csv, m_grid, src))
    import numpy
    import scipy

    report = {
        "label": args.label,
        "rev": git_rev(args.rev) if args.rev else "checkout",
        "seed": SEED,
        "n": N,
        "filters": FILTERS,
        "m": m_grid,
        "repeats": args.repeats,
        "blas_threads": BLAS_THREADS,
        "blas": {"env": sweeps[0]["blas_env"],
                 "runtime_threads": sweeps[0]["blas_runtime_threads"]},
        "cal_ref_s": run.CAL_REF_S,
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "cpu": run.cpu_model()},
        "sweep": summarize(sweeps, run.CAL_REF_S),
        "phases": {str(m): summarize(runs, run.CAL_REF_S) for m, runs in phases.items()},
        "sweep_l": {name: summarize(runs, run.CAL_REF_S) for name, runs in sweep_l.items()},
        "runs": {"sweep": sweeps, "phases": {str(m): runs for m, runs in phases.items()},
                 "sweep_l": sweep_l},
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    print(json.dumps({key: report[key] for key in ("sweep", "phases", "sweep_l")}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
