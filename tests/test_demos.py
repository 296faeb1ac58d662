"""Every demo script, and README's quick start, runs to completion from a scratch directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(script, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    run_script(demo, tmp_path)


def test_readme_quick_start_exits_zero(tmp_path):
    readme = (ROOT / "README.md").read_text()
    script = tmp_path / "quick_start.py"
    script.write_text(readme.split("```python\n", 1)[1].split("```", 1)[0])
    run_script(script, tmp_path)
