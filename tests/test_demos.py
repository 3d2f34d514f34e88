"""Every script under demos/, and the README quickstart, runs to completion
against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wclmmse

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def _run_script(script, tmp_path):
    # BLAS pinned to one thread before numpy loads; the script's temporary
    # files go under tmp_path
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", TMPDIR=str(tmp_path))
    src = str(Path(wclmmse.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    child = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip()
    return child.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    _run_script(demo, tmp_path)


def test_readme_quickstart_runs(tmp_path):
    blocks = (ROOT / "README.md").read_text(encoding="utf-8").split("```python\n")[1:]
    assert len(blocks) == 1
    script = tmp_path / "quickstart.py"
    script.write_text(blocks[0].split("```")[0], encoding="utf-8")
    # the first line printed is the certificate of jpc at l=8
    assert _run_script(script, tmp_path).splitlines()[0] == "8"
