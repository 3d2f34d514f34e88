"""Benchmark of the ``wclmmse`` sweeps behind the paper's figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. One closed-loop caller: set-up, then one sweep after
another, each in a fresh ``python3`` process (``worker.py``) that calls
``wclmmse.cli.main`` in-process, as many as fit in ``--seconds``. BLAS is
pinned to one thread in every process. Every row of every sweep is
checked (``checks.py``). Set-up and sweep times are scaled by a
calibration kernel timed around each of them (``calibrate``), so that the
host's slow phases do not show as changes of the program. With
``--trace 1`` one more sweep runs with every layer wrapped (``tracing.py``)
and the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (rows), and ``metrics``. A fuller record,
with the machine and library versions, is written under
``.perfbench-out/results/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and (through the environment) in every child.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# The whole run must end within 180 s; children share what is left of this.
DEADLINE_S = 170.0
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Time of calibrate() on a 2-vCPU Xeon VM with one BLAS thread, in its
# fast phases. The host's speed changes by up to 40%, for seconds to
# minutes at a time; each set-up and sweep time is scaled by CAL_REF_S over
# the mean calibration taken within one duration of it (``speed_factor``).
CAL_REF_S = 0.16


class RunFailed(Exception):
    """A set-up or sweep process could not produce what the run needs."""


def calibrate() -> float:
    """Wall time of a fixed kernel that no change to the program can affect:
    eight eigendecompositions of a seeded 400 x 400 symmetric matrix."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((400, 400))
    a = a + a.T
    started = time.perf_counter()
    for _ in range(8):
        np.linalg.eigh(a)
    return time.perf_counter() - started


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "WCLMMSE_SEED"}
    env.update({name: "1" for name in BLAS_ENV})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S
        calibrate()  # the first call in a process pays for warming up
        self.calibrations: list[tuple[float, float]] = []  # (taken at, seconds)
        self.spans: list[tuple[float, float]] = []  # (start, end) of each spawn

    def calibrate(self) -> None:
        self.calibrations.append((time.perf_counter(), calibrate()))

    def speed_factor(self, span: int) -> float:
        """CAL_REF_S over the mean of the calibrations taken from one
        duration before spawn ``span`` started to one duration after it
        ended: the one just before and just after a short set-up or sweep,
        more around a long one, whose own time averages over more."""
        start, end = self.spans[span]
        reach = max(end - start, 1.0)
        near = [c for at, c in self.calibrations if start - reach <= at <= end + reach]
        return CAL_REF_S * len(near) / sum(near)

    def spawn(self, *argv: str) -> float:
        """Run one worker to completion. The deadline is enforced by a timer
        rather than ``wait(timeout=...)``, which polls in 50 ms steps and
        would quantize the set-up times."""
        log = self.work / "worker.log"
        self.calibrate()
        timed_out = threading.Event()
        started = time.perf_counter()
        with log.open("a", encoding="utf-8") as handle:
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                                    cwd=ROOT, env=self.env, stdout=handle,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    lambda: (timed_out.set(), proc.kill()))
            timer.start()
            try:
                proc.wait()
            finally:
                timer.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        self.spans.append((started, time.perf_counter()))
        if timed_out.is_set():
            raise RunFailed(f"worker {argv[0]} timed out")
        if proc.returncode != 0:
            tail = log.read_text(encoding="utf-8").splitlines()[-5:]
            raise RunFailed(f"worker {argv[0]} exited {proc.returncode}: {' | '.join(tail)}")
        return self.spans[-1][1] - self.spans[-1][0]

    def set_up(self) -> tuple[list[float], Path]:
        """Write the inputs SETUP_REPEATS times, each in a fresh process;
        return the wall time of each and the path of the first copy."""
        times, paths = [], []
        for k in range(SETUP_REPEATS):
            out_dir = self.work / f"setup{k}"
            out_dir.mkdir()
            times.append(self.spawn("setup", self.workload.name, str(self.seed), str(out_dir)))
            paths.append(out_dir / self.workload.input_name)
        if not all(same_inputs(paths[0], p) for p in paths[1:]):
            raise RunFailed("set-up wrote different inputs for the same seed")
        return times, paths[0]

    def sweep(self, mode: str, inputs: Path, tag: str) -> tuple[dict, Path]:
        out = self.work / f"{tag}.csv"
        report = self.work / f"{tag}.json"
        self.spawn(mode, self.workload.name, str(self.seed), str(inputs), str(out), str(report))
        return json.loads(report.read_text(encoding="utf-8")), out


def same_inputs(a: Path, b: Path) -> bool:
    if a.suffix == ".csv":
        return a.read_bytes() == b.read_bytes()
    import numpy as np

    with np.load(a) as x, np.load(b) as y:
        return x.files == y.files and all(np.array_equal(x[k], y[k]) for k in x.files)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_benchmark_json(tracing) -> None:
    """The metric lists in BENCHMARK.json must be exactly what this prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(END_TO_END):
        raise RunFailed(f"BENCHMARK.json end_to_end {declared} != {list(END_TO_END)}")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != list(tracing.PER_LAYER):
        raise RunFailed("BENCHMARK.json per_layer differs from tracing.PER_LAYER")


def run(args) -> dict:
    import checks
    import tracing
    import workloads

    check_benchmark_json(tracing)
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench-out" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, args.seed, work)
    try:
        setup_times, inputs = runner.set_up()
        facts = checks.model_facts(workload, args.seed, inputs)
        ref_path = checks.reference_path(workload.name, args.seed)
        reference = checks.read_rows(ref_path) if ref_path.is_file() else None

        def checked(report: dict, out: Path):
            rows = checks.read_rows(out) if report["returncode"] == 0 and out.is_file() else None
            return rows, checks.check_rows(workload, rows, facts, reference)

        # Sweeps run back to back while the next one, at the median pace so
        # far, still ends within --seconds; the first always runs.
        reports, results, first_rows, paces = [], [], None, []
        started = time.perf_counter()
        while not reports or (time.perf_counter() - started + statistics.median(paces)
                              <= args.seconds):
            begun = time.perf_counter()
            report, out = runner.sweep("sweep", inputs, f"run{len(reports)}")
            rows, result = checked(report, out)
            paces.append(time.perf_counter() - begun)
            reports.append(report)
            results.append(result)
            first_rows = first_rows if first_rows is not None else rows
        runner.calibrate()
        setup_wall, run_wall = setup_times, [r["run_s"] for r in reports]
        setup_times = [t * runner.speed_factor(k) for k, t in enumerate(setup_wall)]
        run_s = [t * runner.speed_factor(len(setup_wall) + k) for k, t in enumerate(run_wall)]
        record = {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "reference": ref_path.name if reference else None,
            "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                        "platform": platform.platform()},
            "environment": reports[0]["environment"],
            "closed_loop": {"callers": 1, "sweeps": len(reports)},
            "run_s": {"samples": run_s, "quartiles": quartiles(run_s), "n": len(run_s)},
            "setup_s": {"samples": setup_times, "quartiles": quartiles(setup_times),
                        "n": len(setup_times)},
            "wall": {"run_s": run_wall, "setup_s": setup_wall,
                     "run_s_median": statistics.median(run_wall),
                     "setup_s_median": statistics.median(setup_wall)},
            "calibrations": runner.calibrations, "cal_ref_s": CAL_REF_S,
            "cpu_s": [r["cpu_s"] for r in reports],
            "peak_rss_kb": [r["peak_rss_kb"] for r in reports],
        }
        metrics = {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in reports) * 1024 / 1e6,
        }
        units = dict(END_TO_END)
        problems = []
        if args.trace:
            report, out = runner.sweep("trace", inputs, "traced")
            rows, result = checked(report, out)
            results.append(result)
            spans = tracing.load_spans(work / report["spans_file"])
            problems += tracing.check_coverage(spans, report)
            same = checks.same_bits(rows or [], first_rows or [])
            if rows is None or first_rows is None or same != len(first_rows) \
                    or len(rows) != len(first_rows):
                problems.append("traced rows differ from untraced rows")
            counters = dict(report)
            counters.update({
                "harness.rows": len(rows or []),
                "harness.nan_rows": result.nan_rows,
                "harness.rows_bit_identical":
                    result.bit_identical if result.bit_identical is not None else same,
                "trace.overhead_s": report["run_s"] - record["wall"]["run_s_median"],
            })
            metrics = tracing.layer_metrics(spans, counters)
            units = dict(tracing.PER_LAYER)
            record["traced_run_s"] = report["run_s"]
            record["profile_counts"] = report["profile_counts"]
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        problems = [p for r in results for p in r.problems] + problems
        record.update({"attempted": attempted, "failed": failed, "problems": problems,
                       "nan_rows": results[0].nan_rows,
                       "rows_bit_identical_to_reference": results[0].bit_identical,
                       "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results_dir = ROOT / ".perfbench-out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    (results_dir / f"{name}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wclmmse" / "cli.py").is_file():
        print(f"no wclmmse sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        record = run(args)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    q1, q2, q3 = record["run_s"]["quartiles"]
    print(f"workload {record['workload']} seed {record['seed']}:"
          f" {record['closed_loop']['sweeps']} sweeps, 1 closed-loop caller,"
          f" BLAS threads {record['environment']['blas_runtime_threads']},"
          f" nproc {record['machine']['nproc']}")
    print(f"run_s quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s over n={record['run_s']['n']};"
          f" unscaled wall-clock medians: run {record['wall']['run_s_median']:.4f} s,"
          f" set-up {record['wall']['setup_s_median']:.4f} s")
    print(f"fail_ratio {record['failed']}/{record['attempted']}"
          f" (NaN rows {record['nan_rows']}, matching the reference where one exists)")
    for problem in record["problems"][:20]:
        print(f"problem: {problem}")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
