"""One benchmark process: writes a workload's inputs, or runs its sweep
through ``wclmmse.cli.main`` untraced or traced.

Started by ``run.py`` as a fresh interpreter for every set-up and every
sweep, so each timing pays what a user's own ``wclmmse`` process pays.

    worker.py setup WORKLOAD SEED DIR
    worker.py sweep|trace WORKLOAD SEED INPUTS OUT_CSV REPORT_JSON
"""

from __future__ import annotations

import os
import sys

# BLAS reads these once, when numpy loads; the pin must precede that import.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def import_cli():
    """Import the package from this checkout's ``src`` and nowhere else."""
    from wclmmse import cli

    where = Path(cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"wclmmse imported from {where}, not from {SRC}")
    return cli


def blas_runtime_threads() -> dict:
    """Threads each bundled OpenBLAS reports at run time (numpy's, scipy's)."""
    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parents[1] / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    found[pkg.__name__] = int(getter())
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {name: os.environ[name] for name in BLAS_ENV},
        "blas_runtime_threads": blas_runtime_threads(),
    }


def setup(name: str, seed: int, out_dir: Path) -> None:
    cli = import_cli()
    workload = workloads.WORKLOADS[name]
    out = out_dir / workload.input_name
    if workload.kind == "sweep-l":
        if cli.main(workload.synth_argv(seed, out)) != 0:
            raise SystemExit("synth failed")
    else:
        workloads.write_series_csv(seed, out)


def sweep(traced: bool, name: str, seed: int, inputs: Path, out_csv: Path,
          report_path: Path) -> None:
    cli = import_cli()
    argv = workloads.WORKLOADS[name].sweep_argv(seed, inputs, out_csv)
    report = {"environment": environment()}
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        report["unpatched_bindings"] = tracer.install()
    started, cpu_started = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # the row check counts every row as failed
        rc = f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    if tracer is not None:
        tracer.uninstall()
        report.update(tracer.report(out_csv.with_suffix(".spans.jsonl")))
    report.update({
        "returncode": rc,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str]) -> None:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        setup(name, seed, Path(argv[3]))
    elif mode in ("sweep", "trace"):
        sweep(mode == "trace", name, seed, *(Path(a) for a in argv[3:6]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
