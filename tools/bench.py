"""Write a BENCH file: every benchmark workload, tier-1 time and src/ size.

Run from the root of a checkout:

    python3 tools/bench.py --out BENCH_<n>.json --seed 11 --seconds 20

Each workload of BENCHMARK.json runs once through ``perfbench/run.py
--trace 0``, each in a fresh process, and its five end-to-end metrics
and answer counts are kept from the JSON result line.  Tier-1 is timed
as one ``pytest -q`` run of ``tests/``.  The lines of ``src/`` are
counted by ``wc -l`` (``src_loc``) and as code (``src_code_lines``): the
lines that are not blank, hold not only a comment and are not part of a
module, class or function docstring.  The file records the commit, ``nproc``, the
Python version, the seed and ``--seconds``.  Nothing under
``perfbench/`` is written except the run records ``run.py`` keeps in
``perfbench/out/``.
"""

import argparse
import ast
import glob
import io
import json
import os
import subprocess
import sys
import time
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(cmd, **kw):
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, **kw)


def workload(name, seed, seconds):
    """The result line of one run.py process, or the error it left."""
    proc = _run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"error": (proc.stderr.strip().splitlines() or ["exit %d" % proc.returncode])[-1]}
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in sorted(result["metrics"].items())}}


def tier1():
    """Wall seconds of one tier-1 run and its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = _run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                 "-p", "no:cacheprovider"], env=env)
    seconds = time.perf_counter() - start
    return {"seconds": round(seconds, 2), "exit": proc.returncode,
            "summary": (proc.stdout.strip().splitlines() or [""])[-1]}


def _sources():
    return sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True))


def source_lines():
    out = _run(["wc", "-l"] + _sources()).stdout.split()
    return int(out[-2])  # the "total" line


_SILENT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(text):
    """The number of lines of Python source `text` that a token other than
    a comment touches, less those of module, class and function docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SILENT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def source_code_lines():
    total = 0
    for path in _sources():
        with open(path, encoding="utf-8") as fh:
            total += code_lines(fh.read())
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the BENCH file to write")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    commit = _run(["git", "rev-parse", "HEAD"]).stdout.strip() or "unknown"
    bench = {
        "commit": commit, "dirty": bool(_run(["git", "status", "--porcelain", "src"]).stdout),
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "seed": args.seed, "seconds": args.seconds,
        "src_loc": source_lines(), "src_code_lines": source_code_lines(),
        "workloads": {name: workload(name, args.seed, args.seconds) for name in names},
        "tier1": tier1(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(bench, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
