"""The benchmark's workloads: seeded inputs, timed calls and answer checks.

Each workload has a set-up that builds its inputs and passes them
through their canonical documents, the way command-line users supply
them, and a fixed list of items that every pass of a run calls, each
pass in its own order.  An item's ``call`` is the timed call into
mfcat; its ``check`` runs untimed on the answer.  Every call
goes through a module attribute (``hom.hom_dims``, never a bound name)
so that the tracer's wrappers see it.

Why these workloads:

* ``hom_corpus`` — many small module problems (rank <= 2), where
  per-call overhead and the syzygy -> subquotient pipeline dominate,
  plus one contractibility witness per corpus object, which runs the
  tracked-basis (membership witness) path.
* ``hom_rank8`` — one large module problem, where long divisions and
  large bases dominate and per-call overhead does not.  It is the same
  problem for every seed: across the 16 choices of An:2:a factors the
  time ran from 6.3 s to 12.7 s (2-vCPU VM, Python 3.11), so a seeded
  choice would make a run's time follow the seed rather than the code.
* ``oracle_corpus`` — the truncation oracle on every fourth pair of the
  same list: exact row reduction that never calls ``groebner``.  It is
  the predicted no-change workload for every Groebner-path change.  All
  1627 pairs take about twice as long as the ``hom_dims`` sweep; a
  quarter of them fits two passes in a run of the length the others use.
* ``mirror_random`` — critical data of toric superpotentials at random
  rational parameters: the only workload on the ideal (rank-one)
  Buchberger path, with coefficient growth from the parameters.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mfcat import corpus, files, hom, mf, mirror, oracle, groebner, poly

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# The bundled presets plus P4.  With P4 a draw has seven answers, so the
# median answer falls inside one fan's latencies (P3 and F1, which
# overlap) instead of between the slowest P2 and the fastest P3.
MIRROR_FANS = ("P1", "P2", "P3", "P4", "F1", "dP6")
CRITICAL_COUNTS = {"P1": 2, "P2": 3, "P3": 4, "P4": 5, "F1": 4, "dP6": 6}
PROJECTIVE_DIM = {"P1": 1, "P2": 2, "P3": 3, "P4": 4}
# Parameter draws per fan: 140 answers, enough for a p90 with ten beyond,
# and enough draws that their cost varies little from seed to seed.
MIRROR_DRAWS = 20
# oracle_corpus takes every ORACLE_PAIR_STEP-th pair of corpus.hom_pairs().
ORACLE_PAIR_STEP = 4
RANK8_VARIABLES = ("x", "y", "z", "w")


@dataclass(frozen=True)
class Item:
    """One answer of a pass: a timed call and an untimed check."""
    key: tuple
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Inputs:
    """What a workload's set-up produced."""
    objects: dict           # input name -> object rebuilt from its document
    roundtrip_checks: int   # documents round-tripped
    roundtrip_failures: int  # of those, not byte-identical
    pairs: tuple = ()       # (source name, target name) hom pairs


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def round_trip(objects):
    """Rebuild every object from its canonical document.

    The document of the rebuilt object must be byte-identical to the
    original's; a mismatch is counted, and the rebuilt object is used.
    """
    out, failures = {}, 0
    for name, obj in objects.items():
        text = files.dumps(files.object_to_document(obj))
        back = files.document_to_object(json.loads(text))
        if files.dumps(files.object_to_document(back)) != text:
            failures += 1
        out[name] = back
    return Inputs(out, len(objects), failures)


def dims_answer(value):
    """(h0, h1) as JSON-friendly values, INFINITE as the string "inf"."""
    return tuple("inf" if d is groebner.INFINITE else d for d in value)


def pair_key(ns, nt):
    return "%s|%s" % (ns, nt)


def _an_invariant(ns, nt):
    """hom(An:n:a, An:n:c) = (m, m), m = min(a, n+1-a, c, n+1-c)."""
    if not (ns.startswith("An:") and nt.startswith("An:")):
        return None
    _, n, a = ns.split(":")
    _, n2, c = nt.split(":")
    n, a, c = int(n), int(a), int(c)
    if int(n2) != n:
        return None
    m = min(a, n + 1 - a, c, n + 1 - c)
    return (m, m)


def _pair_check(reference, ns, nt):
    expected = reference["hom"].get(pair_key(ns, nt))
    invariant = _an_invariant(ns, nt)

    def check(answer):
        return (expected is not None and answer == tuple(expected)
                and (invariant is None or answer == invariant))
    return check


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_corpus():
    inputs = round_trip(corpus.corpus_objects())
    inputs.pairs = tuple((ns, nt) for ns, nt, _, _ in corpus.hom_pairs())
    return inputs


def _power_factorization(variable, a):
    """(v^a, v^(3-a)) of v^3: the corpus object An:2:a in variable v."""
    ring = poly.RingContext((variable,), poly.QQ)
    v = ring.variable(variable)
    return mf.rank_one(ring, v ** 3, 0, v ** a, v ** (3 - a))


def rank8_object():
    """tensor of An:2:1 in x, y, z and w: a rank-8 factorization of
    x^3 + y^3 + z^3 + w^3."""
    obj = None
    for v in RANK8_VARIABLES:
        factor = _power_factorization(v, 1)
        obj = factor if obj is None else mf.tensor(obj, factor)
    return obj


def setup_rank8():
    return round_trip({"rank8": rank8_object()})


def mirror_fan(name):
    return mirror.projective_space(4) if name == "P4" else mirror.preset(name)


def setup_mirror():
    fans = round_trip({name: mirror_fan(name) for name in MIRROR_FANS})
    specs = {name: mirror.build_superpotential(fan) for name, fan in fans.objects.items()}
    return Inputs(specs, fans.roundtrip_checks, fans.roundtrip_failures)


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------

def hom_corpus_items(inputs, reference, seed):
    objs = inputs.objects
    items = [Item(("hom", ns, nt),
                  lambda s=objs[ns], t=objs[nt]: dims_answer(hom.hom_dims(s, t).dims()),
                  _pair_check(reference, ns, nt))
             for ns, nt in inputs.pairs]
    for name in sorted(objs):
        items.append(Item(("contractible_cone", name),
                          lambda o=objs[name]: hom.is_contractible(mf.cone(mf.identity_morphism(o))),
                          lambda answer: answer is True))
    return items


def oracle_corpus_items(inputs, reference, seed):
    objs = inputs.objects
    return [Item(("oracle", ns, nt),
                 lambda s=objs[ns], t=objs[nt]: dims_answer(oracle.hom_dims_truncated(s, t)),
                 _pair_check(reference, ns, nt))
            for ns, nt in inputs.pairs[::ORACLE_PAIR_STEP]]


def hom_rank8_items(inputs, reference, seed):
    obj = inputs.objects["rank8"]
    return [Item(("hom", "rank8"),
                 lambda: dims_answer(hom.hom_dims(obj, obj).dims()),
                 lambda answer: answer == (8, 8))]


def mirror_params(spec, rng):
    """Positive rationals with numerator and denominator in 1..12."""
    return {name: Fraction(rng.randint(1, 12), rng.randint(1, 12))
            for name in spec.param_names}


def params_key(fan, params):
    return "%s:%s" % (fan, ",".join("%s=%s" % (n, params[n]) for n in sorted(params)))


def critical_answer(report):
    """(count, eliminant text, eliminant coefficients by degree)."""
    poly_ = report.value_polynomial
    return (report.count, str(poly_),
            {e[0]: c for e, c in poly_.terms.items()})


def _critical_check(reference, fan, params):
    expected_count = CRITICAL_COUNTS[fan]
    expected_text = reference["mirror"].get(params_key(fan, params))
    n = PROJECTIVE_DIM.get(fan)

    def check(answer):
        count, text, coeffs = answer
        degree = max(coeffs)
        ok = count == expected_count and coeffs[degree] == 1 and degree <= count
        if n is not None:
            # P^n: w^(n+1) - (n+1)^(n+1) q exactly
            ok = ok and coeffs == {n + 1: 1, 0: -(n + 1) ** (n + 1) * params["q"]}
        if expected_text is not None:
            ok = ok and text == expected_text
        return ok
    return check


def mirror_random_items(inputs, reference, seed):
    rng = random.Random("%d/draws" % seed)
    specs = inputs.objects
    items = []
    for _ in range(MIRROR_DRAWS):
        for fan in MIRROR_FANS:
            params = mirror_params(specs[fan], rng)
            items.append(Item(("critical_values", params_key(fan, params)),
                              lambda s=specs[fan], p=params: critical_answer(mirror.critical_values(s, p)),
                              _critical_check(reference, fan, params)))
            if fan == "P1":
                items.append(Item(("fiber", params_key(fan, params)),
                                  lambda s=specs[fan], p=params: mirror.fiber_cardinality(s, p, 0),
                                  lambda answer: answer == 2))
    return items


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[], Inputs]
    make_items: Callable  # (inputs, reference, seed) -> [Item], the same every pass


WORKLOADS = {
    "hom_corpus": Workload("hom_corpus", setup_corpus, hom_corpus_items),
    "hom_rank8": Workload("hom_rank8", setup_rank8, hom_rank8_items),
    "oracle_corpus": Workload("oracle_corpus", setup_corpus, oracle_corpus_items),
    "mirror_random": Workload("mirror_random", setup_mirror, mirror_random_items),
}
