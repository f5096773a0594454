"""Property tests: text and document round trips over Q and F_p."""

import json
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from mfcat import files, mf
from mfcat.poly import (
    QQ, PrimeField, RingContext, Polynomial, LaurentPolynomial,
    parse_polynomial, parse_laurent, parse_coefficient,
)

FIELDS = (QQ, PrimeField(7), PrimeField(32749))
VARIABLES = ("x", "y", "z")

fields = st.sampled_from(FIELDS)
fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
quick = settings(max_examples=60, deadline=None, derandomize=True)


def coefficients(field):
    if field == QQ:
        return fractions
    return st.integers(0, field.p - 1)


def term_dicts(field, nvars, low):
    exps = st.tuples(*[st.integers(low, 3)] * nvars)
    return st.dictionaries(exps, coefficients(field), max_size=5)


@st.composite
def polynomials(draw, laurent=False):
    field = draw(fields)
    nvars = draw(st.integers(1, len(VARIABLES)))
    ring = RingContext(VARIABLES[:nvars], field)
    cls = LaurentPolynomial if laurent else Polynomial
    return cls(ring, draw(term_dicts(field, nvars, -3 if laurent else 0)))


@quick
@given(polynomials())
def test_polynomial_text_round_trip(p):
    assert parse_polynomial(p.ring, str(p)) == p


@quick
@given(polynomials(laurent=True))
def test_laurent_text_round_trip(p):
    assert parse_laurent(p.ring, str(p)) == p


@quick
@given(st.data())
def test_coefficient_text_round_trip(data):
    field = data.draw(fields)
    c = field.coerce(data.draw(coefficients(field)))
    assert parse_coefficient(field, field.format(c)) == c


@quick
@given(st.data())
def test_rank_one_documents_round_trip_byte_identically(data):
    field = data.draw(fields)
    nvars = data.draw(st.integers(1, 2))
    ring = RingContext(VARIABLES[:nvars], field)
    top, bottom = (Polynomial(ring, data.draw(term_dicts(field, nvars, 0))) for _ in "tb")
    assume(not top.is_zero and not bottom.is_zero)  # a factorization has nonzero W - lambda
    lam = field.coerce(data.draw(coefficients(field)))
    obj = mf.rank_one(ring, top * bottom + ring.constant(lam), lam, top, bottom)
    text = files.dumps(files.object_to_document(obj))
    back = files.document_to_object(json.loads(text))
    assert back == obj
    assert files.dumps(files.object_to_document(back)) == text
