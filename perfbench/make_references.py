"""Write the reference rows that ``checks.py`` compares against.

    python3 perfbench/make_references.py

Runs every workload once for each reference seed through the same worker
processes as the benchmark and stores the result CSVs (``wall_ms`` is
kept but never compared) under ``perfbench/references/``. The committed
files were written at the commit that introduced the benchmark; rewriting
them moves the baseline that later changes are checked against.
"""

from __future__ import annotations

import shutil

import run
import workloads

REFERENCE_SEEDS = (0, 1)


def main() -> None:
    import checks

    checks.REFERENCES.mkdir(exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        for seed in REFERENCE_SEEDS:
            work = run.ROOT / ".perfbench-out" / f"reference-{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                runner = run.Runner(workload, seed, work)
                (setup_dir := work / "setup").mkdir()
                runner.spawn("setup", name, str(seed), str(setup_dir))
                report, out = runner.sweep("sweep", setup_dir / workload.input_name, "ref")
                if report["returncode"] != 0:
                    raise SystemExit(f"{name} seed {seed}: sweep failed: {report['returncode']}")
                shutil.copyfile(out, checks.reference_path(name, seed))
                print(f"wrote {checks.reference_path(name, seed)}")
            finally:
                shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
