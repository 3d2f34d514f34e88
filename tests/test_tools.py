"""Tests of the repository's command-line tools."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_writes_medians_per_phase(tmp_path):
    # one small window length and one repeat, in fresh processes
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "bench.py"), "--label", "t",
                           "--m", "60", "--repeats", "1", "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert {"label", "rev", "seed", "m", "repeats", "blas_threads", "blas", "cal_ref_s",
            "machine", "sweep", "phases", "runs"} <= set(report)
    assert report["m"] == [60] and report["rev"] == "checkout"
    assert report["blas"]["env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(report["blas"]["runtime_threads"].values()) <= {1}
    assert {"run_s", "run_s_cal", "vm_hwm_mb", "calibration_s"} <= set(report["sweep"])
    phases = report["phases"]["60"]
    names = ("setup", "eig_z", "cond_y", "ladder_top", "jpc_ladder", "best_jpc", "best_lsjpc")
    for name in names:
        assert phases[f"{name}_s"] >= 0.0 and phases[f"{name}_s_cal"] >= 0.0
    # calls by the dimension of their matrix: the joint eigh at d = 67,
    # c_y's Cholesky factorization for cond_y, with no eigvalsh, and
    # lsjpc's search factors nothing larger than n = 7
    calls = phases["calls"]
    assert set(calls) == set(names)
    assert calls["eig_z"] == {"factor_spd": {}, "sym_eig": {"67": 1}, "sym_eigvals": {}}
    assert calls["cond_y"] == {"factor_spd": {"60": 1}, "sym_eig": {}, "sym_eigvals": {}}
    assert calls["jpc_ladder"]["factor_spd"] == {str(phases["ladder_top"]): 1}
    assert set(calls["best_lsjpc"]["factor_spd"]) == {"7"}
    assert phases["setup_vm_hwm_mb"] <= phases["vm_hwm_mb"]
    assert len(report["runs"]["sweep"]) == 1 and len(report["runs"]["phases"]["60"]) == 1
