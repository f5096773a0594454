"""mfcat benchmark: one workload per process, one caller in a closed loop.

    python3 perfbench/run.py --workload hom_corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A run builds the workload's inputs (set-up), then makes passes over
the same answers, each pass in its own seed-derived order, until
``--seconds`` have gone by; at least two passes are made.  Every answer
is checked.  Times are reported at a fixed reference machine speed,
measured alongside the work by ``speed.py``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
pass untraced, repeats it with the tracer of ``tracing.py`` installed,
and reports the per-layer metrics and the tracing overhead; its spans
go to ``perfbench/out/``.  See README.md for the metrics.
"""

import argparse
import contextlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed
import tracing  # imports no mfcat module until a tracer is installed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 9        # set-ups per run; setup_s is their median
MIN_PASSES = 2           # so that hom_rank8 always has two answers
# Candidate tail quantiles.  p99 is left out: the slowest 1% of the corpus
# answers is a few fixed problems in clusters, and p99 falls at the edge
# of one, where a single answer moves it.
TAIL_QUANTILES = (50, 90, 95)
MIN_BEYOND = 10          # answers of a pass a tail quantile must have above it

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "answer_p50_ms": "ms",
    "answer_tail_ms": "ms", "peak_rss_mb": "MB",
}

LOC_MODULES = ("poly", "matrix", "groebner", "mf", "hom", "mirror", "oracle",
               "corpus", "files", "cli", "init")

# Per-layer metrics of a traced run, with units.
PER_LAYER = {}
for _layer in tracing.LAYERS:
    PER_LAYER[_layer + ".calls"] = "count"
    PER_LAYER[_layer + ".self_s"] = "s"
for _name in ("poly.poly_init.calls", "poly.ring_eq.calls", "poly.poly_mul.calls",
              "poly.field_ops.calls", "poly.parse.calls",
              "matrix.kron.calls", "matrix.block.calls", "matrix.matmul.calls",
              "groebner.syzygy_basis.calls", "groebner.syzygy_basis_of_vectors.calls",
              "groebner.subquotient_basis.calls", "groebner.module_groebner.calls",
              "groebner.module_groebner.basis_elems", "groebner.module_groebner.input_vecs",
              "groebner.module_normal_form.calls", "groebner.membership_witness.calls",
              "groebner.buchberger.calls", "groebner.buchberger.basis_elems",
              "groebner.normal_form.calls", "groebner.standard_monomials.calls",
              "groebner.standard_monomials.monomials",
              "hom.hom_dims.calls", "hom.hom_complex.calls", "hom.is_null_homotopic.calls",
              "mirror.build_superpotential.calls", "mirror.critical_count.calls",
              "mirror.critical_values.calls", "mirror.fiber_cardinality.calls",
              "oracle.hom_dims_truncated.calls"):
    PER_LAYER[_name] = "count"
for _name in ("poly.parse.self_s", "matrix.kron.self_s", "matrix.block.self_s",
              "matrix.matmul.self_s", "groebner.syzygy_basis.self_s",
              "groebner.syzygy_basis.incl_s", "groebner.syzygy_basis_of_vectors.self_s",
              "groebner.subquotient_basis.self_s", "groebner.subquotient_basis.incl_s",
              "groebner.module_groebner.self_s", "groebner.module_normal_form.self_s",
              "groebner.membership_witness.self_s", "groebner.buchberger.self_s",
              "groebner.normal_form.self_s", "groebner.standard_monomials.self_s",
              "hom.hom_dims.self_s", "hom.hom_complex.self_s", "hom.is_null_homotopic.self_s",
              "mirror.build_superpotential.self_s", "mirror.critical_count.self_s",
              "mirror.critical_values.self_s", "mirror.fiber_cardinality.self_s",
              "oracle.hom_dims_truncated.self_s", "traced_wall_s", "untraced_wall_s"):
    PER_LAYER[_name] = "s"
PER_LAYER["groebner.max_coeff_bits"] = "bits"
PER_LAYER["trace_overhead_frac"] = "fraction"
for _module in LOC_MODULES + ("src",):
    PER_LAYER[_module + ".loc"] = "lines"


WORKLOAD_NAMES = ("hom_corpus", "hom_rank8", "oracle_corpus", "mirror_random")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print setup_s as JSON and exit "
                             "(how a run takes its extra set-up samples)")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def timed_pass(items):
    """Call every item in order; [(start, end, answer)].

    An exception is the answer of the call that raised it.
    """
    clock = time.perf_counter
    results = []
    for item in items:
        t0 = clock()
        try:
            answer = item.call()
        except Exception as exc:  # counted as a failed answer, run goes on
            answer = exc
        results.append((t0, clock(), answer))
    return results


class Tally:
    """Answers attempted and failed, with the first few failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reports = []

    def check(self, items, results):
        for item, (_, _, answer) in zip(items, results):
            self.attempted += 1
            if isinstance(answer, Exception):
                ok, why = False, "".join(traceback.format_exception(answer)).rstrip()
            else:
                try:
                    ok, why = bool(item.check(answer)), "wrong answer %r" % (answer,)
                except Exception:  # a check that cannot run is a failure
                    ok, why = False, traceback.format_exc().rstrip()
            if not ok:
                self.failed += 1
                if len(self.reports) < 5:
                    self.reports.append("%r: %s" % (item.key, why))

    def add_roundtrips(self, inputs):
        self.attempted += inputs.roundtrip_checks
        self.failed += inputs.roundtrip_failures
        if inputs.roundtrip_failures:
            self.reports.append("%d document round trips were not byte-identical"
                                % inputs.roundtrip_failures)


def pass_order(n, seed, k):
    """Indices 0..n-1 in the seeded order of pass k of a run."""
    order = list(range(n))
    random.Random("%d/%d" % (seed, k)).shuffle(order)
    return order


def run_passes(items, seed, tally, seconds):
    """Passes over `items`, each in its own seeded order, until `seconds`
    have gone by and at least MIN_PASSES are made.  Returns, pass by
    pass, the (start, end) of every answer."""
    passes = []
    begin = time.perf_counter()
    while True:
        order = pass_order(len(items), seed, len(passes))
        batch = [items[i] for i in order]
        results = timed_pass(batch)
        tally.check(batch, results)
        passes.append([(t0, t1) for t0, t1, _ in results])
        if len(passes) >= MIN_PASSES and time.perf_counter() - begin >= seconds:
            return passes


def quantile(ordered, q):
    """q-th percentile of the sorted list `ordered`, interpolated between
    the nearest ranks like statistics.quantiles(method="inclusive"), so
    that the median of a run with two answers is their mean."""
    pos = (len(ordered) - 1) * q / 100
    i = math.floor(pos)
    if i + 1 >= len(ordered):
        return ordered[-1]
    return ordered[i] + (ordered[i + 1] - ordered[i]) * (pos - i)


def tail(ordered, per_pass):
    """(quantile label, value, samples beyond) of the sorted latencies
    `ordered`, pooled over passes of `per_pass` answers each.  The
    quantile is the highest of TAIL_QUANTILES with at least MIN_BEYOND
    answers of a pass above it, so that it does not depend on the number
    of passes; with too few answers for any, it is the median."""
    q = 50
    for candidate in TAIL_QUANTILES:
        if per_pass - max(math.ceil(candidate * per_pass / 100), 1) >= MIN_BEYOND:
            q = candidate
    beyond = len(ordered) - max(math.ceil(q * len(ordered) / 100), 1)
    return "p%g" % q, quantile(ordered, q), beyond


def child_setup_samples(args, count):
    """setup_s of `count` fresh processes, each timed like this one's own
    set-up: from before the import of mfcat until the inputs are ready,
    at the reference speed."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# run facts
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout's own git repository, or "unknown" when the
    checkout is not the top of one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def source_lines():
    """<module>.loc for src/mfcat/*.py and their total as src.loc."""
    pkg = os.path.join(SRC, "mfcat")
    out = {name + ".loc": 0 for name in LOC_MODULES}
    total = 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            module = fname[:-3].strip("_")
            out[module + ".loc"] = lines
            total += lines
    out["src.loc"] = total
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def emit(args, meta, table, result):
    """Human-readable lines, the result file, then the JSON result line."""
    print("# perfbench %s" % json.dumps(meta, sort_keys=True))
    for name in sorted(table):
        print("%-44s %s" % (name, table[name]))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "table": table, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))


def measure_end_to_end(args, items, tally, own_setup_s):
    """--trace 0: set-up samples, then timed passes; (passes, metrics, table).

    Every answer's latency is its time at the reference speed
    (speed.Speedometer.at_reference); a pass's duration is the sum of
    its answers' latencies."""
    setups = [own_setup_s] + child_setup_samples(args, SETUP_SAMPLES - 1)
    with speed.Speedometer() as meter:
        passes = run_passes(items, args.seed, tally, args.seconds)
    per_pass = [[meter.at_reference(t0, t1) for t0, t1 in spans] for spans in passes]
    durations = [sum(latencies) for latencies in per_pass]
    measured = [spans[-1][1] - spans[0][0] for spans in passes]
    latencies = sorted(latency for latencies in per_pass for latency in latencies)
    label, tail_s, beyond = tail(latencies, len(items))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(durations),
        "answer_p50_ms": quantile(latencies, 50) * 1e3,
        "answer_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    table = {name: "%.6g %s" % (values[name], unit) for name, unit in END_TO_END.items()}
    table["setup_s"] += "  (median of %d set-ups: %s)" % (
        len(setups), " ".join("%.4g" % x for x in setups))
    table["wall_s"] += "  (median of %d passes of %d answers: %s; as measured: %s)" % (
        len(durations), len(items), " ".join("%.4g" % x for x in durations),
        " ".join("%.4g" % x for x in measured))
    table["answer_p50_ms"] += "  (%d answers)" % len(latencies)
    table["answer_tail_ms"] += "  (%s, %d answers beyond it)" % (label, beyond)
    return len(durations), metrics, table


def measure_layers(args, items, tally, tracer):
    """--trace 1: one pass untraced, then the same pass traced;
    (passes, metrics, table).  The tracer already holds the spans of the
    traced set-up."""
    batch = [items[i] for i in pass_order(len(items), args.seed, 0)]
    plain = timed_pass(batch)
    tracer.install()
    try:
        traced = timed_pass(batch)
    finally:
        tracer.uninstall()
    tally.check(batch, plain)
    tally.check(batch, traced)
    mismatched = sum(1 for (_, _, x), (_, _, y) in zip(plain, traced)
                     if not isinstance(x, Exception) and x != y)
    if mismatched:
        tally.failed += mismatched
        tally.reports.append("%d traced answers differ from untraced ones" % mismatched)
    layers = tracer.table()
    layers.update(source_lines())
    layers["untraced_wall_s"] = sum(t1 - t0 for t0, t1, _ in plain)
    layers["traced_wall_s"] = sum(t1 - t0 for t0, t1, _ in traced)
    layers["trace_overhead_frac"] = layers["traced_wall_s"] / layers["untraced_wall_s"] - 1
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, "%s-seed%d-spans.jsonl" % (args.workload, args.seed)))
    metrics = {name: metric(layers.get(name, 0), unit) for name, unit in PER_LAYER.items()}
    table = {name: "%.6g" % value for name, value in layers.items()}
    return 1, metrics, table


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "mfcat", "__init__.py")):
        print("error: no mfcat sources under %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A traced run builds its inputs under the tracer, without the
    # speedometer's chunks, and reports no setup_s.
    meter = speed.Speedometer()
    with contextlib.nullcontext() if args.trace else meter:
        start = time.perf_counter()
        import workloads  # imports mfcat

        workload = workloads.WORKLOADS[args.workload]
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        inputs = workload.setup()
        end = time.perf_counter()
    setup_s = None if args.trace else meter.at_reference(start, end)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer:
        tracer.uninstall()

    items = workload.make_items(inputs, workloads.load_reference(), args.seed)
    tally = Tally()
    tally.add_roundtrips(inputs)
    if tracer:
        passes, metrics, table = measure_layers(args, items, tally, tracer)
    else:
        passes, metrics, table = measure_end_to_end(args, items, tally, setup_s)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "commit": git_commit(),
        "failed_frac": tally.failed / tally.attempted,
    }
    meta.update(source_lines())
    for report in tally.reports:
        print("FAILED %s" % report, file=sys.stderr)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    emit(args, meta, table, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
