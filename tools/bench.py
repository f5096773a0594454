"""Write a BENCH file: every benchmark workload, tier-1 time and src/ size.

Run from the root of a checkout:

    python3 tools/bench.py --out BENCH_<n>.json --seed 11 --seconds 20

Each workload of BENCHMARK.json runs once through ``perfbench/run.py
--trace 0``, each in a fresh process, and its five end-to-end metrics
and answer counts are kept from the JSON result line.  Tier-1 is timed
as one ``pytest -q`` run of ``tests/``, and the lines of ``src/`` are
counted by ``wc -l``.  The file records the commit, ``nproc``, the
Python version, the seed and ``--seconds``.  Nothing under
``perfbench/`` is written except the run records ``run.py`` keeps in
``perfbench/out/``.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import time

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


def source_lines():
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True))
    out = _run(["wc", "-l"] + files).stdout.split()
    return int(out[-2])  # the "total" line


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
        "src_loc": source_lines(),
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
