"""Time one benchmark workload on two source trees, alternating, in one process.

Run from the root of a checkout:

    python3 tools/ab.py PARENT/src src --workload hom_rank8 --rounds 40

Each tree's ``mfcat`` is imported in turn, with ``perfbench/workloads.py``
of this checkout, and keeps its own modules after the next tree is
imported.  Every answer of each tree is computed and checked once, and
the two trees' answers are compared item by item: the workload's checks
do not pin every answer (``mirror_random`` reads the F1 and dP6
eliminants only at the draws of ``perfbench/reference.json``), so two
trees can both pass them and still answer differently.  Failed checks or
a differing answer end the run with exit 1, naming the first such item.
Then each round times one pass of the workload's items per tree, in a
fixed order, the first tree first in even rounds and the second first in
odd ones.  The output is each tree's median pass time with its
quartiles, and the number of rounds in which the second tree was faster.
Nothing is written.
"""

import argparse
import importlib
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load(src, name, seed):
    """(items, answers, failed) of workload `name` for the mfcat under
    `src`, with `failed` the number of items whose answer fails its check."""
    for module in [m for m in sys.modules if m == "workloads" or m.split(".")[0] == "mfcat"]:
        del sys.modules[module]
    sys.path[:0] = [os.path.abspath(src), PERFBENCH]
    try:
        workloads = importlib.import_module("workloads")
    finally:
        del sys.path[:2]
    workload = workloads.WORKLOADS[name]
    items = workload.make_items(workload.setup(), workloads.load_reference(), seed)
    answers = [item.call() for item in items]
    return items, answers, sum(not item.check(a) for item, a in zip(items, answers))


def timed(items):
    """Wall seconds of one pass over `items`."""
    start = time.perf_counter()
    for item in items:
        item.call()
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", help="the first src/ tree, such as the parent's")
    parser.add_argument("second", help="the second src/ tree, such as the change's")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    trees = [load(src, args.workload, args.seed) for src in (args.first, args.second)]
    for src, (_, _, failed) in zip((args.first, args.second), trees):
        if failed:
            print("%s: %d answers fail their checks" % (src, failed))
            return 1
    (items, first, _), (_, second, _) = trees
    differ = next((item.key for item, a, b in zip(items, first, second) if a != b), None)
    if differ is not None:
        print("%s and %s answer item %r differently" % (args.first, args.second, differ))
        return 1
    times = ([], [])
    for r in range(args.rounds):
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            times[k].append(timed(trees[k][0]))
    for src, t in zip((args.first, args.second), times):
        q1, q2, q3 = (statistics.quantiles(t, n=4, method="inclusive") if len(t) > 1
                      else t * 3)
        print("%s: median %.3f ms, quartiles %.3f-%.3f ms" % (src, q2 * 1e3, q1 * 1e3, q3 * 1e3))
    print("second lower in %d of %d rounds" % (sum(b < a for a, b in zip(*times)), args.rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
