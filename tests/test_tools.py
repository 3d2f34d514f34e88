"""Tests of the repository's command-line tools."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    # each search builds the one level it picks, of its own kind, and no
    # other phase builds a filter
    assert phases["builds"] == {**{name: {} for name in names[1:-2]},
                                "best_jpc": {"jpc": 1}, "best_lsjpc": {"lsjpc": 1}}
    assert phases["setup_vm_hwm_mb"] <= phases["vm_hwm_mb"]
    assert len(report["runs"]["sweep"]) == 1 and len(report["runs"]["phases"]["60"]) == 1
    # the benchmark's two sweep-l models, each swept end to end, then its
    # jpc levels that the rcond gate builds directly, timed alone, and its
    # joint condition: none on sweep-l-m400, whose joint (condition
    # 0.97^-406 = 2.3e5) is within the gate's bound of eps / 1e-8 = 4.5e7;
    # on the ill-conditioned one, whose smallest joint eigenvalue (0.9^406
    # = 2.6e-19 in exact arithmetic) rounds below 0 at seed 0, more than
    # ten of the levels below its top, 340
    assert set(report["sweep_l"]) == {"sweep-l-m400", "sweep-l-illcond"}
    for summary in report["sweep_l"].values():
        for key in ("run_s", "run_s_cal", "jpc_gated_s", "jpc_gated_s_cal", "vm_hwm_mb"):
            assert summary[key] >= 0.0
        assert all(l <= summary["ladder_top"] for l in summary["jpc_gated"])
    well = report["sweep_l"]["sweep-l-m400"]
    assert well["joint_cond"] == pytest.approx(0.97 ** -406, rel=1e-6)
    assert well["jpc_gated"] == []
    illcond = report["sweep_l"]["sweep-l-illcond"]
    assert illcond["joint_cond"] is None
    assert illcond["ladder_top"] == 340 and len(illcond["jpc_gated"]) > 10
    assert [run["joint_cond"] for run in report["runs"]["sweep_l"]["sweep-l-m400"]] == [
        well["joint_cond"]]
    assert {len(runs) for runs in report["runs"]["sweep_l"].values()} == {1}
