"""Smoke test: every demo script runs to completion against src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_are_present():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    res = run_demo(path, tmp_path)
    assert res.returncode == 0, res.stderr
    if path.stem.startswith("02"):
        assert "a=2   (1, 1)    (2, 2)    (2, 2)    (1, 1)" in res.stdout
