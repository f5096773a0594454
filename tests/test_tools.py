import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ab_times_the_repo_against_itself():
    proc = subprocess.run([sys.executable, os.path.join("tools", "ab.py"), "src", "src",
                           "--workload", "hom_rank8", "--rounds", "2"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, lines
    for line in lines[:2]:
        assert re.fullmatch(r"src: median [\d.]+ ms, quartiles [\d.]+-[\d.]+ ms", line), line
    assert re.fullmatch(r"second lower in [012] of 2 rounds", lines[2]), lines[2]
