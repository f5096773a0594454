"""
Building and validating two-periodic factorizations
====================================================

A factorization of a potential W at a value lam is a pair of square
polynomial matrices (e1, e0) with e0*e1 = (W - lam)*Id, checked here
cell by cell with exact rational arithmetic; over Q[x] this implies
e1*e0 = (W - lam)*Id.  This script builds the rank-one
factorizations of x^(n+1), applies the shift and cone constructions,
and shows what a failed validation reports.
"""

from mfcat import (
    QQ,
    RingContext,
    cone,
    direct_sum,
    files,
    identity_morphism,
    parse_polynomial,
    rank_one,
    shift,
    validate,
)

# one variable over the rationals; x^4 has rank-one factorizations
# (x^a, x^(4-a)) for a = 1, 2, 3
R = RingContext(("x",), QQ)
x = parse_polynomial(R, "x")
w = x ** 4

for a in (1, 2, 3):
    E = rank_one(R, w, 0, x ** a, x ** (4 - a))
    print("factor x^4 as x^%d * x^%d:" % (a, 4 - a), validate(E))

# validation is exact: a wrong bottom entry names the offending product
# cell by cell, and the constructor refuses to build the object
from mfcat import NotAFactorization

try:
    rank_one(R, w, 0, x, x ** 2)
except NotAFactorization as exc:
    print("\ndeliberately wrong pair is rejected:")
    print(" ", exc)

# the shift swaps the two matrices and flips their signs; applying it
# twice returns the object on the nose, byte for byte
E = rank_one(R, w, 0, x, x ** 3)
doc = files.dumps(files.object_to_document(E))
doc_twice = files.dumps(files.object_to_document(shift(shift(E))))
print("\nshift applied twice is the identity on serialized bytes:",
      doc == doc_twice)

# the cone of the identity morphism is the zero object up to homotopy,
# while the cone of the zero morphism is a genuine direct sum
F = rank_one(R, w, 0, x ** 2, x ** 2)
print("cone(id) has rank", cone(identity_morphism(E)).rank,
      "and direct_sum has rank", direct_sum(E, F).rank)

# every object serializes to a canonical JSON document and loads back
print("\ncanonical document for (x, x^3):")
print(doc)
