"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import mfcat  # noqa: E402
from mfcat import files, hom, poly  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = workloads.load_reference()


def _mfcat_namespaces():
    """Every mfcat module and every class defined in one, by name."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "mfcat" or name.startswith("mfcat.")):
            continue
        out[name] = mod
        for attr, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == name:
                out["%s.%s" % (name, attr)] = value
    return out


def _snapshot():
    return {name: dict(vars(ns)) for name, ns in _mfcat_namespaces().items()}


def _slice(name, seed=1, k=0, limit=None):
    """The first `limit` items of pass k of a run of workload `name`."""
    workload = workloads.WORKLOADS[name]
    items = workload.make_items(workload.setup(), REFERENCE, seed)
    batch = [items[i] for i in run.pass_order(len(items), seed, k)]
    return batch if limit is None else batch[:limit]


def _traced(items):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        answers = [item.call() for item in items]
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, answers, wall


def test_tracer_restores_every_patched_attribute():
    before = _snapshot()
    original = hom.hom_dims
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hom.hom_dims is not original
        assert mfcat.hom_dims is hom.hom_dims          # package re-export
        assert files.parse_polynomial is poly.parse_polynomial  # bound by name
        assert poly.RingContext.__eq__ is not before["mfcat.poly.RingContext"]["__eq__"]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        for attr, value in attrs.items():
            assert after[name][attr] is value, "%s.%s" % (name, attr)


def test_traced_and_untraced_answers_are_equal_and_correct():
    for name, limit in (("hom_corpus", 30), ("oracle_corpus", 15), ("mirror_random", 21)):
        items = _slice(name, limit=limit)
        plain = [item.call() for item in items]
        _, traced, _ = _traced(items)
        assert traced == plain, name
        assert all(item.check(answer) for item, answer in zip(items, plain)), name


def test_witness_items_answer_true():
    items = [i for i in _slice("hom_corpus") if i.key[0] == "contractible_cone"][:5]
    _, answers, _ = _traced(items)
    assert answers == [True] * 5


def test_hom_dims_calls_match_answers_and_oracle_skips_groebner():
    items = _slice("hom_corpus", limit=40)
    tracer, _, _ = _traced(items)
    table = tracer.table()
    hom_answers = sum(1 for i in items if i.key[0] == "hom")
    assert 0 < hom_answers < 40  # the slice mixes hom answers and witness queries
    assert table["hom.hom_dims.calls"] == hom_answers
    assert table["poly.poly_init.calls"] > 0 and table["poly.ring_eq.calls"] > 0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        inputs = workloads.setup_corpus()
        items = workloads.oracle_corpus_items(inputs, REFERENCE, 1)[:15]
        for item in items:
            item.call()
    finally:
        tracer.uninstall()
    table = tracer.table()
    assert table["oracle.hom_dims_truncated.calls"] == 15
    assert table["groebner.calls"] == 0
    assert not any(name.startswith("groebner.") for name, *_ in tracer.spans)


def test_self_times_are_nonnegative_and_fit_in_the_wall_time():
    tracer, _, wall = _traced(_slice("hom_corpus", limit=20) + _slice("mirror_random", limit=14))
    own = tracer.self_times()
    assert own and min(own) >= -1e-9
    assert sum(own) <= wall
    table = tracer.table()
    layer_total = sum(table[layer + ".self_s"] for layer in tracing.LAYERS)
    assert abs(layer_total - sum(own)) < 1e-6


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in ("hom_corpus", "oracle_corpus", "mirror_random"):
        keys = [i.key for i in _slice(name, seed=7)]
        assert keys == [i.key for i in _slice(name, seed=7)], name
        assert keys != [i.key for i in _slice(name, seed=8)], name
        assert keys != [i.key for i in _slice(name, seed=7, k=1)], name
    # hom_rank8 is one fixed problem whatever the seed
    assert [i.key for i in _slice("hom_rank8", seed=7)] == [i.key for i in _slice("hom_rank8", seed=8)]


def test_roundtrip_of_every_input_is_byte_identical():
    for name in workloads.WORKLOADS:
        inputs = workloads.WORKLOADS[name].setup()
        assert inputs.roundtrip_checks > 0 and inputs.roundtrip_failures == 0, name


def test_wrong_answers_and_exceptions_count_as_failures():
    items = _slice("mirror_random", limit=7)
    bad = [workloads.Item(("boom",), lambda: 1 // 0, lambda a: True),
           workloads.Item(("wrong",), lambda: 3, lambda a: a == 2)]
    tally = run.Tally()
    results = run.timed_pass(items + bad)
    tally.check(items + bad, results)
    assert (tally.attempted, tally.failed) == (len(items) + 2, 2)


def test_tail_quantile_follows_the_answers_of_one_pass():
    # one answer per pass: no quantile has ten beyond it, so the median
    assert run.tail([0.1, 0.2, 0.3], 1) == ("p50", 0.2, 1)
    assert run.tail([0.1, 0.2], 1) == ("p50", run.quantile([0.1, 0.2], 50), 1)
    assert run.quantile([0.1, 0.2], 50) == statistics.median([0.1, 0.2])
    label, value, beyond = run.tail([i / 1000 for i in range(1730)], 1730)
    assert (label, beyond) == ("p95", 86)
    assert abs(value - statistics.quantiles(range(1730), n=20, method="inclusive")[-1] / 1000) < 1e-12
    # 105 answers a pass: p90, however many passes are pooled
    assert run.tail(list(range(105)), 105)[0] == "p90"
    assert run.tail(list(range(315)), 105)[0] == "p90"


def test_speedometer_takes_out_its_chunks_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [cost for stamp, cost in zip(meter.stamps, meter.costs) if t0 <= stamp <= t1]
    assert len(inside) >= 5
    assert abs(meter.busy(t0, t1) - (t1 - t0 - sum(inside))) < 1e-9
    assert meter.scale(t0, t1) > 0
    assert meter.at_reference(t0, t1) == meter.busy(t0, t1) * meter.scale(t0, t1)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_command_line_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "mirror_random",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2 * 140  # two passes at least
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    # without the sources next to it the benchmark refuses, printing no result
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hom_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
