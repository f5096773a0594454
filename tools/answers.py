"""Print mfcat's answers on a fixed set of inputs, one line per item.

Run it once per checkout and compare the outputs as text; a change that
must not alter answers leaves them byte-identical:

    PYTHONPATH=<checkout>/src python3 tools/answers.py > answers.txt

Items, each line "<key>\t<answer>":
  * hom_dims dimensions and bases on every corpus hom pair, over Q and
    over F_32749, and on the rank-8 tensor of An:2:1 in x, y, z, w;
  * is_null_homotopic witnesses of the identity of every cone of an
    identity, and of d_i W * id_X for every corpus object X and variable i;
  * oracle.hom_dims_truncated on every fourth corpus pair;
  * `cok <object>` output, human and machine, for every corpus object.
"""

from __future__ import annotations

import sys

from click.testing import CliRunner

from mfcat import corpus, hom, mf, oracle
from mfcat.cli import main
from mfcat.matrix import PolyMatrix
from mfcat.poly import PrimeField, QQ, RingContext


def _hom_text(rep):
    even = ["%r %r" % (p.p1, p.p0) for p in rep.basis_even]
    odd = ["%r %r" % (s.s0, s.s1) for s in rep.basis_odd]
    return "%r | %s | %s" % (rep.dims(), " ; ".join(even), " ; ".join(odd))


def _witness_text(result):
    flag, s = result
    return "%s %r %r" % (flag, s.s0, s.s1) if flag else str(flag)


def _rank8():
    obj = None
    for v in ("x", "y", "z", "w"):
        ring = RingContext((v,), QQ)
        t = ring.variable(v)
        factor = mf.rank_one(ring, t ** 3, 0, t, t ** 2)
        obj = factor if obj is None else mf.tensor(obj, factor)
    return obj


def items():
    for field in (QQ, PrimeField(32749)):
        for ns, nt, s, t in corpus.hom_pairs(field):
            yield "hom %r %s %s" % (field, ns, nt), _hom_text(hom.hom_dims(s, t))
    rank8 = _rank8()
    yield "hom rank8", _hom_text(hom.hom_dims(rank8, rank8))
    objects = sorted(corpus.corpus_objects().items())
    for name, X in objects:
        C = mf.cone(mf.identity_morphism(X))
        yield "cone-id %s" % name, _witness_text(hom.is_null_homotopic(mf.identity_morphism(C)))
    for name, X in objects:
        for i in range(X.ring.nvars):
            dw = PolyMatrix.scalar(X.w.derivative(i), X.rank)
            yield ("jacobian %s %d" % (name, i),
                   _witness_text(hom.is_null_homotopic(mf.MFMorphism(X, X, dw, dw))))
    for ns, nt, s, t in corpus.hom_pairs()[::4]:
        yield "oracle %s %s" % (ns, nt), repr(oracle.hom_dims_truncated(s, t))
    runner = CliRunner()
    for name, _ in objects:
        for fmt in ("human", "machine"):
            res = runner.invoke(main, ["--format", fmt, "cok", name])
            yield "cok %s %s" % (fmt, name), repr((res.exit_code, res.output))


if __name__ == "__main__":
    count = 0
    for key, answer in items():
        sys.stdout.write("%s\t%s\n" % (key, answer))
        count += 1
    sys.stderr.write("%d items\n" % count)
