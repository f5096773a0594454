"""A small built-in family of factorizations for tests and presets.

The corpus mixes one-variable power factorizations (x^a, x^(n+1-a)) of
x^(n+1), the two rank-one factorizations of a product uv, and everything
the functors generate from them: shifts, direct sums, cones of identity
maps, tensor products and stabilized doubles.  Objects come with stable
names so command-line users and the tests can refer to them.
"""

from __future__ import annotations

import functools

from .poly import RingContext, QQ, quoted
from . import mf

MAX_POWER = 6


def power_ring(field=QQ) -> RingContext:
    return RingContext(("x",), field)


def pair_ring(field=QQ) -> RingContext:
    return RingContext(("u", "v"), field)


def power_factorization(n: int, a: int = 1, field=QQ) -> mf.MatrixFactorization:
    """(x^a, x^(n+1-a)) with product x^(n+1), for 1 <= a <= n."""
    if not 1 <= a <= n:
        raise ValueError("need 1 <= a <= n, got a=%d, n=%d" % (a, n))
    ring = power_ring(field)
    x = ring.variable("x")
    return mf.rank_one(ring, x ** (n + 1), 0, x ** a, x ** (n + 1 - a))


def product_factorization(swap: bool = False, field=QQ) -> mf.MatrixFactorization:
    """(u, v) or (v, u) with product uv."""
    ring = pair_ring(field)
    u, v = ring.variable("u"), ring.variable("v")
    if swap:
        u, v = v, u
    return mf.rank_one(ring, ring.variable("u") * ring.variable("v"), 0, u, v)


def base_objects(field=QQ):
    """The rank-one seeds, as (name, factorization) pairs."""
    out = []
    for n in range(1, MAX_POWER + 1):
        for a in range(1, n + 1):
            out.append(("An:%d:%d" % (n, a), power_factorization(n, a, field)))
    out.append(("pair:uv", product_factorization(False, field)))
    out.append(("pair:vu", product_factorization(True, field)))
    return out


def corpus_objects(field=QQ):
    """name -> factorization for the full derived corpus."""
    return dict(_corpus_objects_cached(field))


@functools.lru_cache(maxsize=8)
def _corpus_objects_cached(field):
    bases = base_objects(field)
    named = dict(bases)
    for name, obj in bases:
        named["shift(%s)" % name] = mf.shift(obj)
    for name, obj in bases:
        named["sum(%s,shift(%s))" % (name, name)] = mf.direct_sum(obj, mf.shift(obj))
    small = [(name, obj) for name, obj in bases
             if name.startswith("An:") and int(name.split(":")[1]) <= 3]
    for i, (na, a) in enumerate(small):
        for nb, b in small[i + 1:]:
            if a.potential_context() == b.potential_context():
                named["sum(%s,%s)" % (na, nb)] = mf.direct_sum(a, b)
    for name, obj in bases:
        named["cone(id:%s)" % name] = mf.cone(mf.identity_morphism(obj))
    x2 = power_factorization(1, 1, field)
    named["tensor(An:1:1,An:1:1~y)"] = _tensor_renamed(x2, "y")
    # the tensor of (u, v) with (s, t) is the Knoerrer periodicity of (u, v)
    uv_st = mf.knorrer(product_factorization(False, field), names=("s", "t"))
    named["tensor(pair:uv,pair:st)"] = uv_st
    for n in range(1, 5):
        named["knorrer(An:%d:1)" % n] = mf.knorrer(power_factorization(n, 1, field))
    named["knorrer(pair:uv)"] = uv_st
    return named


def _tensor_renamed(obj, newvar):
    """Tensor a one-variable object with a copy of itself in a fresh variable."""
    ring = RingContext((newvar,), obj.ring.field)
    other = mf.MatrixFactorization._derived(ring, obj.w.extend(ring, [0]), obj.lam,
                                            obj.e1.extend(ring, [0]), obj.e0.extend(ring, [0]))
    return mf.tensor(obj, other)


def hom_pairs(field=QQ):
    """All ordered corpus pairs sharing a potential context."""
    named = corpus_objects(field)
    items = sorted(named.items())
    pairs = []
    for ns, src in items:
        for nt, tgt in items:
            if src.potential_context() == tgt.potential_context():
                pairs.append((ns, nt, src, tgt))
    return pairs


def lookup(name: str, field=QQ) -> mf.MatrixFactorization:
    """Resolve a preset name like An:3:1, pair:uv, or any corpus key."""
    named = corpus_objects(field)
    if name in named:
        return named[name]
    raise KeyError("unknown preset %s (try one of: %s, ...)" %
                   (quoted(name), ", ".join(sorted(named)[:6])))
