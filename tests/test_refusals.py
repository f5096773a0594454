"""Every public refusal that no other test reaches, each on a minimal bad
input: the exception type and its whole one-line message."""

import pytest

from mfcat import corpus, mf
from mfcat.groebner import buchberger, membership_witness, module_groebner, module_normal_form
from mfcat.matrix import PolyMatrix
from mfcat.mirror import ToricSpec, critical_count
from mfcat.poly import (
    QQ, LaurentPolynomial, PrimeField, Polynomial, RingContext, RingMismatch, univariate_gcd,
)

R, S = RingContext(("x",), QQ), RingContext(("x", "y"), QQ)
x, (sx, sy) = R.variable("x"), S.gens()
I1, I2 = PolyMatrix.identity(R, 1), PolyMatrix.identity(R, 2)


def ends(*names):
    return [corpus.lookup(name) for name in names]


CASES = {
    # mf
    "mf-w-ring": (lambda: mf.MatrixFactorization(R, sx**4, 0, I1, I1), RingMismatch,
                  "superpotential lives in a different ring"),
    "mf-matrix-ring": (lambda: mf.MatrixFactorization(R, x**4, 0, PolyMatrix.identity(S, 1), I1),
                       RingMismatch, "structure matrices live in a different ring"),
    "mf-shape": (lambda: mf.MatrixFactorization(R, x**4, 0, I2, I1), ValueError,
                 "structure matrices must be square of equal size"),
    "morphism-context": (lambda: mf.MFMorphism(*ends("An:3:1", "An:2:1"), I1, I1), RingMismatch,
                         "morphism endpoints have different (ring, W, lambda)"),
    "morphism-p1": (lambda: mf.MFMorphism(*ends("An:3:1", "An:3:2"), I2, I1), ValueError,
                    "p1 must be 1x1"),
    "morphism-p0": (lambda: mf.MFMorphism(*ends("An:3:1", "An:3:2"), I1, I2), ValueError,
                    "p0 must be 1x1"),
    "morphism-ring": (lambda: mf.MFMorphism(*ends("An:3:1", "An:3:2"), PolyMatrix.zeros(S, 1, 1),
                                            PolyMatrix.zeros(S, 1, 1)),
                      RingMismatch, "morphism entries live in a different ring"),
    # the zero map is built unchecked, so it refuses mismatched ends itself
    "zero-morphism-context": (lambda: mf.zero_morphism(*ends("An:3:1", "An:2:1")), RingMismatch,
                              "morphism endpoints have different (ring, W, lambda)"),
    "compose": (lambda: mf.compose(*map(mf.identity_morphism, ends("An:3:1", "An:3:2"))),
                RingMismatch, "composition endpoints do not match"),
    "tensor-fields": (lambda: mf.tensor(corpus.power_factorization(3),
                                        corpus.power_factorization(3, field=PrimeField(32749))),
                      RingMismatch, "tensor factors over different coefficient fields"),
    "complex-empty": (lambda: mf.PairComplex([], []), ValueError,
                      "a complex needs at least one object"),
    "complex-maps": (lambda: mf.PairComplex(ends("An:3:1"), [None]), ValueError,
                     "expected 0 maps, got 1"),
    "complex-context": (lambda: mf.PairComplex(ends("An:3:1", "An:2:1"), [None]), RingMismatch,
                        "complex objects have different (ring, W, lambda)"),
    "complex-connect": (lambda: mf.PairComplex(ends("An:3:1", "An:3:2"),
                                               [mf.identity_morphism(corpus.lookup("An:3:2"))]),
                        ValueError, "map 0 does not connect objects 0 -> 1"),
    # matrix
    "matrix-shape": (lambda: PolyMatrix(R, -1, 0, []), ValueError, "negative matrix shape"),
    "matrix-count": (lambda: PolyMatrix(R, 1, 1, []), ValueError, "expected 1 entries, got 0"),
    "matrix-entry": (lambda: PolyMatrix(R, 1, 1, [1]), TypeError,
                     "matrix entries must be Polynomials"),
    "matrix-ragged": (lambda: PolyMatrix.from_rows(R, [[x], [x, x]]), ValueError, "ragged rows"),
    "block-empty": (lambda: PolyMatrix.block([]), ValueError, "empty block grid"),
    "block-ragged": (lambda: PolyMatrix.block([[I1, I1], [I1]]), ValueError, "ragged block grid"),
    "block-rings": (lambda: PolyMatrix.block([[I1, PolyMatrix.identity(S, 1)]]), RingMismatch,
                    "blocks over different rings"),
    "matrix-add-type": (lambda: I1 + 1, TypeError, "expected a PolyMatrix"),
    "matrix-add-shape": (lambda: I1 + I2, ValueError, "shape mismatch in matrix addition"),
    "matrix-get": (lambda: I2.get(0, 3), IndexError, "entry (0, 3) of a 2x2 matrix"),
    "matrix-row": (lambda: I2.row(2), IndexError, "row 2 of a 2x2 matrix"),
    "matrix-column": (lambda: I2.column(-1), IndexError, "column -1 of a 2x2 matrix"),
    # poly
    "ring-names": (lambda: RingContext(("x", "x")), ValueError,
                   "duplicate variable names: ('x', 'x')"),
    "ring-order": (lambda: RingContext(("x",), QQ, "lexx"), ValueError,
                   "unknown monomial order 'lexx'"),
    "ring-field": (lambda: RingContext(("x",), "Q"), TypeError, "field must be a Field instance"),
    "exponent-length": (lambda: Polynomial(R, {(1, 2): 1}), ValueError,
                        "exponent tuple (1, 2) has wrong length"),
    "zero-lead": (lambda: R.zero().lead_term(), ValueError, "zero polynomial has no leading term"),
    "negative-power": (lambda: x ** -1, ValueError, "negative power of a polynomial"),
    "evaluate-point": (lambda: (sx + sy).evaluate([1]), ValueError,
                       "a point needs 2 coordinates, got 1"),
    "derivative-index": (lambda: (sx * sy ** 2).derivative(2), ValueError,
                         "no variable with that index (the ring has 2)"),
    "derivative-negative": (lambda: (sx * sy ** 2).derivative(-1), ValueError,
                            "no variable with that index (the ring has 2)"),
    "derivative-zero": (lambda: S.zero().derivative(2), ValueError,
                        "no variable with that index (the ring has 2)"),
    "log-derivative-negative": (lambda: LaurentPolynomial(S, {(-1, 2): 1}).log_derivative(-1),
                                ValueError, "no variable with that index (the ring has 2)"),
    "log-derivative-zero": (lambda: LaurentPolynomial(R, {}).log_derivative(1), ValueError,
                            "no variable with that index (the ring has 1)"),
    "mul-term-long": (lambda: x.mul_term((1, 5), 1), ValueError,
                      "expected one exponent per variable (1), got 2"),
    "mul-term-short": (lambda: (sx + sy).mul_term((1,), 1), ValueError,
                       "expected one exponent per variable (2), got 1"),
    "gcd-rings": (lambda: univariate_gcd(x, corpus.power_ring(PrimeField(32749)).variable("x")),
                  RingMismatch, "gcd operands in different rings"),
    "gcd-two-variables": (lambda: univariate_gcd(sx * sy, sx), ValueError,
                          "univariate_gcd needs a ring of one variable, not 2"),
    "gcd-no-variables": (lambda: univariate_gcd(*map(RingContext((), QQ).constant, (2, 4))),
                         ValueError, "univariate_gcd needs a ring of one variable, not 0"),
    # groebner
    "groebner-ring": (lambda: buchberger([]), ValueError, "cannot infer the ring"),
    "groebner-rank": (lambda: module_groebner([], ring=R), ValueError, "ambient rank required"),
    "module-normal-form": (lambda: module_normal_form([x], buchberger([x])), ValueError,
                           "expected a module Groebner basis"),
    "witness-untracked": (lambda: membership_witness(x, buchberger([x])), ValueError,
                          "witnesses need a tracked Groebner basis (track=True)"),
    # mirror
    "fan-ray": (lambda: ToricSpec(2, [(1,)], [], [0, 1]), ValueError,
                "every ray needs 2 coordinates"),
    "fan-names": (lambda: ToricSpec(1, [(1,), (-1,)], [((1, 1), "q"), ((1, 1), "q")], [0]),
                  ValueError, "duplicate parameter names"),
    "fan-relation": (lambda: ToricSpec(1, [(1,), (-1,)], [((1,), "q")], [0]), ValueError,
                     "relation coefficient vector has wrong length"),
    "superpotential": (lambda: critical_count("Y + 1/Y"), TypeError,
                       "expected a SuperpotentialSpec or LaurentPolynomial"),
    # corpus
    "power-factorization": (lambda: corpus.power_factorization(2, 3), ValueError,
                            "need 1 <= a <= n, got a=3, n=2"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_refusals_name_the_fault_on_one_line(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
