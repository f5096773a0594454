import importlib
import math
import random
import sys
import time
from fractions import Fraction

import pytest

from mfcat.poly import (
    QQ, PrimeField, field_from_spec, RingContext, Polynomial,
    LaurentPolynomial, parse_polynomial, parse_laurent, parse_coefficient,
    ParseError, PolyError, RingMismatch, univariate_gcd, integer_multiple, _TermPoly, _is_squarefree,
)
from mfcat.matrix import PolyMatrix, RowEchelon


def ring(*names, **kw):
    return RingContext(tuple(names), kw.get("field", QQ), kw.get("order", "grevlex"))


def test_field_specs():
    assert field_from_spec("Q") is QQ
    f = field_from_spec("Fp:32749")
    assert f.p == 32749
    with pytest.raises(ParseError):
        field_from_spec("R")
    with pytest.raises(ValueError):
        field_from_spec("Fp:32748")  # not prime


def test_prime_modulus_is_certified_or_refused():
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    # a strong pseudoprime to every prime base up to 37; 41 exposes it
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(318665857834031151167461)
    # from the least strong pseudoprime to the bases up to 41 on, every
    # modulus is refused, the Mersenne prime 2^89 - 1 included
    with pytest.raises(ValueError, match="too large"):
        PrimeField(3317044064679887385961981)
    with pytest.raises(ValueError, match="too large"):
        field_from_spec("Fp:%d" % (2**89 - 1))


def test_prime_field_arithmetic():
    f7 = PrimeField(7)
    assert f7.inv(2) == 4
    assert f7.add(5, 5) == 3
    assert f7.coerce(Fraction(1, 2)) == 4
    assert parse_coefficient(f7, "3/2") == f7.mul(3, f7.inv(2))


def test_rational_inverse_and_quotient_are_exact():
    for a in (3, Fraction(3), Fraction(-3, 2)):
        assert type(QQ.inv(a)) is Fraction and QQ.inv(a) * a == 1
        for b in (1, Fraction(1), Fraction(5, 7)):
            assert type(QQ.div(b, a)) is Fraction and QQ.div(b, a) * a == b
    assert QQ.div(1, 3) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


@pytest.mark.parametrize("field", [QQ, PrimeField(32749)], ids=repr)
def test_field_stored_form_is_the_one_row_encoding(field):
    rng = random.Random("stored-form/%r" % (field,))
    bound = 40 if field.p is None else field.p - 1
    for _ in range(200):
        scale = rng.choice([-1, 1]) * rng.randint(1, 12)
        terms = {k: scale * rng.randint(-bound, bound) for k in rng.sample(range(-5, 15), 6)}
        if field.p is not None:
            terms = {k: v % field.p for k, v in terms.items()}
        terms = {k: v for k, v in terms.items() if v}
        if not terms:
            continue
        lead = rng.choice(list(terms))
        stored = field.stored_form(dict(terms), lead)
        assert stored.keys() == terms.keys()
        # a nonzero multiple of the row: stored / stored[lead] = terms / terms[lead]
        for k, v in terms.items():
            assert (field.from_scaled(stored[k], stored[lead])
                    == field.from_scaled(v, terms[lead]))
        if field.p is None:
            assert math.gcd(*stored.values()) == 1 and stored[lead] > 0
        else:
            assert stored[lead] == 1
            assert all(0 < v < field.p for v in stored.values())
        assert field.stored_form(stored, lead) is stored
    assert field.from_scaled(6, 3) == field.coerce(2)
    assert field.from_scaled(1, 3) == field.div(field.one, field.coerce(3))


def test_only_poly_tells_the_fields_apart():
    for name in ("cli", "corpus", "files", "groebner", "hom", "matrix", "mf", "mirror", "oracle"):
        module = importlib.import_module("mfcat." + name)
        assert not hasattr(module, "RationalField") and not hasattr(module, "PrimeField"), name
    assert not hasattr(RowEchelon(PrimeField(7)), "_modulus")


def test_parse_and_format_round_trip():
    R = ring("x", "y", "z")
    p = parse_polynomial(R, "x^2*y - 3/2*z + 1")
    assert str(p) == "x^2*y - 3/2*z + 1"
    assert parse_polynomial(R, str(p)) == p
    # whitespace is insignificant and +- may repeat through terms
    assert parse_polynomial(R, "  x^2 * y-3/2*z   +1 ") == p


def test_parse_errors_carry_position():
    R = ring("x")
    with pytest.raises(ParseError):
        parse_polynomial(R, "x^")
    with pytest.raises(ParseError):
        parse_polynomial(R, "x + w")  # unknown variable
    with pytest.raises(ParseError):
        parse_polynomial(R, "x^-2")  # negative power needs the laurent parser
    err = None
    try:
        parse_polynomial(R, "x + + x")
    except ParseError as e:
        err = e
    assert err is not None and err.column is not None


@pytest.mark.parametrize("text, message", [
    ("x +", "dangling sign at end of input (line 1, column 3)"),
    ("x*", "expected a variable name at end of input (line 1, column 2)"),
    # a newline starts line 2 at column 0
    ("x^2 +\n  y*", "expected a variable name at end of input (line 2, column 4)"),
    ("x +\n\n y + q", "unknown variable 'q' near 'q' (line 3, column 5)"),
])
def test_parse_errors_name_the_line_and_column(text, message):
    with pytest.raises(ParseError) as info:
        parse_polynomial(ring("x", "y"), text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, name, column", [("x*q + 1", "q", 2), ("x^2 + qq", "qq", 6)])
def test_unknown_variable_is_reported_at_its_own_token(text, name, column):
    with pytest.raises(ParseError) as info:
        parse_polynomial(ring("x", "y"), text)
    assert info.value.column == column
    assert str(info.value) == "unknown variable %r near %r (line 1, column %d)" % (name, name, column)


@pytest.mark.parametrize("text", [
    "x^\u00b2",        # superscript two: int() raised a bare ValueError
    "\u0663*x",        # Arabic-Indic three: read as 3*x
    "x + \uff17",      # fullwidth seven
    "x^2 + 1/\u0663",
])
def test_only_ascii_digits_are_numbers(text):
    with pytest.raises(ParseError):
        parse_polynomial(ring("x"), text)
    with pytest.raises(ParseError):
        parse_laurent(ring("x"), text)


@pytest.mark.parametrize("spec", ["Fp:3_1", "Fp:+7", "Fp: 7", "Fp:\u0663", "Fp:",
                                  "Fp:-7", "Fp:\u00b3"])
def test_field_spec_modulus_is_ascii_digits(spec):
    # int() read "3_1" as 31, "+7" and " 7" as 7 and Arabic-Indic three as 3
    with pytest.raises(ParseError):
        field_from_spec(spec)


@pytest.mark.parametrize("text, column", [
    ("x^2 + %s*y", 6),         # a coefficient
    ("x +\n 1/%s", 3),         # a denominator, on line 2
    ("x^%s", 2),               # an exponent
])
def test_integers_too_long_for_int_are_parse_errors(text, column):
    # int() refuses more than sys.get_int_max_str_digits() digits with
    # advice to raise that limit, which no document can follow
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as info:
        parse_polynomial(ring("x", "y"), text % ("9" * (limit + 1)))
    assert str(info.value) == "integer of %d digits, more than the %d allowed (line %d, column %d)" % (
        limit + 1, limit, text.count("\n") + 1, column)
    assert parse_polynomial(ring("x", "y"), text % ("9" * limit)).terms


def test_a_modulus_too_long_for_int_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError, match="integer of %d digits, more than the %d allowed"
                       % (limit + 1, limit)):
        field_from_spec("Fp:" + "9" * (limit + 1))


@pytest.mark.parametrize("name", ["x\u00b2", "y\u0663", "z\uff17"])
def test_variable_names_take_only_ascii_digits(name):
    # superscript two, Arabic-Indic three and fullwidth seven are not digits
    # of a name: "x\u00b2" squared printed as "x\u00b2^2"
    with pytest.raises(ValueError, match="bad variable name"):
        RingContext((name,), QQ)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_polynomial(ring("x", "y", "z"), name)
    assert RingContext((name[0] + "2",), QQ).variables == (name[0] + "2",)


def test_coefficients_are_always_reduced_into_the_field():
    F7 = PrimeField(7)
    R = ring("x", field=F7)
    x = R.variable("x")
    assert R.constant(7).is_zero
    assert R.constant(-3) == R.constant(4)
    assert x.scale(Fraction(1, 2)).terms == {(1,): 4}
    assert x.mul_term((1,), Fraction(1, 2)).terms == {(2,): 4}
    assert x.evaluate([Fraction(1, 2)]) == 4
    assert type(ring("x").constant(3).terms[(0,)]) is Fraction
    for field in (QQ, F7):
        with pytest.raises(TypeError):
            field.coerce(True)
    with pytest.raises(TypeError):
        R.constant(True)


def test_basic_arithmetic():
    R = ring("x", "y")
    x, y = R.gens()
    assert (x + y) * (x + y) == x**2 + 2*x*y + y**2
    assert (x - y) * (x + y) == x**2 - y**2
    p = x**3 - 2*x*y
    assert p.derivative(0) == 3*x**2 - 2*y
    assert p.derivative(1) == -2*x
    assert p.evaluate([Fraction(2), Fraction(3)]) == Fraction(-4)
    assert (p - p).is_zero


def test_ring_mismatch_is_rejected():
    R1, R2 = ring("x"), ring("y")
    with pytest.raises(RingMismatch):
        R1.variable("x") + R2.variable("y")


def test_monomial_orders_disagree_where_expected():
    # x*y^2 beats x^2*z in grevlex; the opposite in grlex
    grev = ring("x", "y", "z")
    grl = ring("x", "y", "z", order="grlex")
    s_grev = str(grev.variable("x")**2 * grev.variable("z")
                 + grev.variable("x") * grev.variable("y")**2)
    s_grl = str(grl.variable("x")**2 * grl.variable("z")
                + grl.variable("x") * grl.variable("y")**2)
    assert s_grev == "x*y^2 + x^2*z"
    assert s_grl == "x^2*z + x*y^2"
    lex = ring("x", "y", order="lex")
    assert str(lex.variable("x") + lex.variable("y")**5) == "x + y^5"


def test_laurent_parse_and_clear():
    R = ring("Y", "q")
    w = parse_laurent(R, "Y + Y^-1*q")
    cleared, shifts = w.clear_denominators()
    assert shifts == (1, 0)
    assert str(cleared) == "Y^2 + q"
    assert str(w.log_derivative(0)) == "Y - Y^-1*q"
    target = ring("Y")
    at1 = w.substitute({"q": Fraction(1)}, target)
    assert str(at1) == "Y + Y^-1"


def test_laurent_round_trip_and_arithmetic():
    R = ring("Y")
    a = parse_laurent(R, "Y^-2 - 2 + Y^2")
    b = parse_laurent(R, "Y^-1 + Y")
    assert a == b * b - LaurentPolynomial(R, {(0,): Fraction(4)})
    assert parse_laurent(R, str(a)) == a


def test_univariate_gcd_is_monic():
    R = ring("x")
    x, = R.gens()
    g = univariate_gcd(2*x**2 - 2, 4*x + 4)
    assert str(g) == "x + 1"
    assert str(univariate_gcd(x**2, R.zero())) == "x^2"


def _euclid_gcd(f, g):
    """The reference: Euclid with field division, made monic."""
    fld = f.ring.field
    a, b = f, g
    while not b.is_zero:
        r = a
        be, bc = b.lead_term()
        while not r.is_zero and r.lead_term()[0][0] >= be[0]:
            re, rc = r.lead_term()
            r = r - b.mul_term((re[0] - be[0],), fld.div(rc, bc))
        a, b = b, r
    if a.is_zero:
        return a
    return a.scale(fld.inv(a.lead_term()[1]))


@pytest.mark.parametrize("field", [QQ, PrimeField(32749)], ids=repr)
def test_univariate_gcd_matches_euclid_on_seeded_polynomials(field):
    rng = random.Random("gcd/%r" % (field,))
    R = ring("x", field=field)
    x, = R.gens()

    def rand_poly(degree):
        return sum((R.constant(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) * x**k
                    for k in range(degree + 1)), R.zero())

    for _ in range(60):
        h = rand_poly(rng.randint(0, 3))
        f = h * rand_poly(rng.randint(0, 4))
        g = h * rand_poly(rng.randint(0, 4))
        for a, b in ((f, g), (g, f), (f, R.zero()), (R.zero(), g), (f, f.derivative(0))):
            got = univariate_gcd(a, b)
            assert got == _euclid_gcd(a, b), (a, b)
            assert got.is_zero or got.lead_term()[1] == 1
        if not (f.is_zero or g.is_zero):
            assert univariate_gcd(f, g).total_degree() >= h.total_degree()
    assert univariate_gcd(R.zero(), R.zero()).is_zero


@pytest.mark.parametrize("field", [QQ, PrimeField(32749)], ids=repr)
def test_squarefree_test_agrees_with_the_gcd_of_f_and_its_derivative(field):
    # _is_squarefree reads gcd(f, f') off int coefficient lists, with no
    # Polynomial; univariate_gcd is the reference, its zero of degree None
    rng = random.Random("squarefree/%r" % (field,))
    R = ring("x", field=field)
    x, = R.gens()

    def rand_poly(degree):
        return sum((R.constant(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) * x**k
                    for k in range(degree + 1)), R.zero())

    def dense(f):
        return [f.terms.get((k,), field.zero) for k in range((f.total_degree() or 0) + 1)]

    cases = [R.zero(), R.constant(3), R.constant(Fraction(-2, 5)), x, (x - 1)**2, x**3 * (x + 2),
             (2*x + 1)**2 * (x - 3)]
    for _ in range(60):
        h = rand_poly(rng.randint(0, 2))
        f = rand_poly(rng.randint(0, 4))
        cases += [f, h * f, h * h * f]
    verdicts = set()
    for f in cases:
        verdict = univariate_gcd(f, f.derivative(0)).total_degree() == 0
        assert _is_squarefree(dense(f), field) is verdict, f
        assert _is_squarefree(dense(f) + [field.zero], field) is verdict, f
        verdicts.add(verdict)
    assert verdicts == {True, False}
    assert not _is_squarefree([], field) and not _is_squarefree(dense(R.zero()), field)
    assert _is_squarefree([field.one], field)


def test_x_to_the_p_minus_one_is_not_squarefree_over_f_p():
    # over F_7 the derivative 7 x^6 of x^7 - 1 = (x - 1)^7 vanishes, so
    # gcd(f, f') = f; over Q it is squarefree
    F7 = PrimeField(7)
    x, = ring("x", field=F7).gens()
    f = x**7 - 1
    assert f.derivative(0).is_zero and univariate_gcd(f, f.derivative(0)) == f
    assert not _is_squarefree([F7.coerce(-1)] + [0] * 6 + [1], F7)
    assert _is_squarefree([Fraction(-1)] + [Fraction(0)] * 6 + [Fraction(1)], QQ)


def _field_echelon(rows, fld):
    """The reference: rows reduced in insertion order against monic pivot
    rows with field operations; pivot column -> monic row."""
    pivots = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v != fld.zero}
        while row and min(row) in pivots:
            prow, coef = pivots[min(row)], row[min(row)]
            for c, v in prow.items():
                s = fld.sub(row.get(c, fld.zero), fld.mul(coef, v))
                if s == fld.zero:
                    row.pop(c, None)
                else:
                    row[c] = s
        if row:
            inv = fld.inv(row[min(row)])
            pivots[min(row)] = {c: fld.mul(v, inv) for c, v in row.items()}
    return pivots


@pytest.mark.parametrize("fld", [QQ, PrimeField(32749)], ids=repr)
def test_row_echelon_matches_a_field_elimination_on_seeded_matrices(fld):
    rng = random.Random("echelon/%r" % (fld,))
    for trial in range(40):
        ncols = rng.randint(1, 12)
        rows = []
        for _ in range(rng.randint(1, 16)):
            if rows and rng.random() < 0.3:  # a dependent row
                a, b = rng.choice(rows), rng.choice(rows)
                k = fld.coerce(Fraction(rng.randint(-5, 5), rng.randint(1, 9)))
                rows.append({c: fld.add(a.get(c, fld.zero), fld.mul(k, b.get(c, fld.zero)))
                             for c in set(a) | set(b)})
                continue
            cols = rng.sample(range(ncols), rng.randint(0, min(ncols, 4)))
            rows.append({c: fld.coerce(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                                rng.randint(1, 9)))
                         for c in cols})
        expected = _field_echelon(rows, fld)
        echelon = RowEchelon(fld)
        for row in rows:
            row = {c: v for c, v in row.items() if v != fld.zero}
            echelon.insert(integer_multiple(row)[0])
        assert echelon.rank == len(expected)
        assert sorted(echelon.pivots) == sorted(expected)
        for c, row in echelon.pivots.items():
            assert all(type(v) is int for v in row.values())
            monic = {k: fld.div(fld.coerce(v), fld.coerce(row[c])) for k, v in row.items()}
            assert monic == expected[c], (trial, c)


def test_coefficient_parsing():
    assert parse_coefficient(QQ, "-7/3") == Fraction(-7, 3)
    with pytest.raises(ParseError):
        parse_coefficient(QQ, "1/0")


def test_coefficients_share_the_polynomial_grammar():
    f7 = PrimeField(7)
    assert parse_coefficient(QQ, " +7 ") == 7
    assert parse_coefficient(f7, "-3/2") == f7.neg(f7.div(3, 2))
    for text in ("--3", "+-3", "3/-2", "", "x", "3/", "1/2/3"):
        with pytest.raises(ParseError):
            parse_coefficient(QQ, text)


def test_zero_denominators_are_parse_errors():
    f7 = PrimeField(7)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial(ring("x"), "x + 1/0*x")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial(ring("x", field=f7), "1/7*x")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_laurent(ring("x", field=f7), "x^-1 + 2/14")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_coefficient(f7, "1/7")
    assert parse_coefficient(QQ, "1/7") == Fraction(1, 7)


def test_matrix_products_and_kron():
    R = ring("x", "y")
    x, y = R.gens()
    a = PolyMatrix.from_rows(R, [[x, y], [R.zero(), x]])
    b = PolyMatrix.from_rows(R, [[R.one(), y], [x, R.zero()]])
    ab = a @ b
    assert ab.get(0, 0) == x + x*y
    assert ab.get(0, 1) == x*y
    assert ab.get(1, 0) == x**2
    assert ab.get(1, 1).is_zero
    # row-major kron: (A (x) B)[i*p+k, j*q+l] = A[i,j] B[k,l]
    k = a.kron(b)
    assert k.rows == 4 and k.cols == 4
    assert k.get(0, 1) == x*y
    assert k.get(1, 0) == x**2
    assert k.get(0, 3) == y**2
    assert k.get(2, 2) == x
    ident = PolyMatrix.identity(R, 3)
    assert (ident @ ident) == ident
    with pytest.raises(ValueError, match=r"shape mismatch in matrix product: 2x2 @ 3x3"):
        a @ ident
    with pytest.raises(RingMismatch, match="matrices over different rings"):
        a @ PolyMatrix.identity(ring("x", "y", field=PrimeField(7)), 2)
    for field in (QQ, PrimeField(32749)):
        _check_seeded_products(field)


def _naive_product(a, b):
    """a @ b as sums of Polynomial products, entry by entry."""
    R = a.ring
    return PolyMatrix(R, a.rows, b.cols,
                      [sum((a.get(i, k) * b.get(k, j) for k in range(a.cols)), R.zero())
                       for i in range(a.rows) for j in range(b.cols)])


def _check_seeded_products(field):
    rng = random.Random("products/%r" % (field,))
    R = ring("x", "y", field=field)
    x, y = R.gens()
    coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-3, 5)] if field == QQ else [1, 2, 32748, 32747]

    def entry():
        if rng.random() < 0.3:
            return R.zero()
        return sum((R.constant(rng.choice(coeffs)) * x ** rng.randint(0, 2) * y ** rng.randint(0, 2)
                    for _ in range(rng.randint(1, 3))), R.zero())

    def matrix(rows, cols):
        return PolyMatrix(R, rows, cols, [entry() for _ in range(rows * cols)])

    cancelled = 0  # nonzero entries of a @ b that [a | a] @ [b ; -b] cancels
    for _ in range(60):
        n, k, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a, b = matrix(n, k), matrix(k, m)
        ab = a @ b
        assert (ab.rows, ab.cols) == (n, m)
        assert ab == _naive_product(a, b)
        if k:
            c, d = PolyMatrix.block([[a, a]]), PolyMatrix.block([[b], [-b]])
            assert (c @ d).is_zero and _naive_product(c, d).is_zero
            cancelled += sum(1 for p in ab.entries if not p.is_zero)
    assert cancelled > 0
    assert PolyMatrix.zeros(R, 0, 3) @ matrix(3, 2) == PolyMatrix.zeros(R, 0, 2)
    assert matrix(2, 0) @ PolyMatrix.zeros(R, 0, 3) == PolyMatrix.zeros(R, 2, 3)
    zero_row = PolyMatrix.block([[PolyMatrix.zeros(R, 1, 3)], [matrix(2, 3)]])
    b = matrix(3, 2)
    assert zero_row @ b == _naive_product(zero_row, b)
    assert (zero_row @ b).row(0) == [R.zero(), R.zero()]


def test_matrix_block():
    R = ring("x")
    x, = R.gens()
    a = PolyMatrix.scalar(x, 2)
    c = PolyMatrix.from_rows(R, [[x**2], [R.one()]])
    blk = PolyMatrix.block([[a, c], [PolyMatrix.zeros(R, 1, 2), PolyMatrix.from_rows(R, [[x]])]])
    assert blk.rows == 3 and blk.cols == 3
    assert blk.get(0, 2) == x**2
    assert blk.get(2, 2) == x
    assert blk.get(2, 0).is_zero and blk.get(2, 1).is_zero
    with pytest.raises(ValueError):
        PolyMatrix.block([[a, PolyMatrix.zeros(R, 3, 1)]])


def test_a_matrix_compares_each_rebuilt_ring_once(monkeypatch):
    # Entries rebuilt in rings equal to the matrix's ring but not it: each
    # distinct ring is compared once per matrix, however many entries it has.
    R = ring("x", "y")
    rebuilt = [ring("x", "y") for _ in range(2)]
    compared = [0]
    equal = RingContext.__eq__

    def counted(self, other):
        compared[0] += 1
        return equal(self, other)
    monkeypatch.setattr(RingContext, "__eq__", counted)
    counts = []
    for n in (2, 8):
        entries = [S.variable("x") ** k for k in range(n) for S in rebuilt]
        compared[0] = 0
        m = PolyMatrix(R, n, 2, entries)
        counts.append(compared[0])
        assert m.entries == tuple(entries)
    assert counts == [2, 2]
    compared[0] = 0
    PolyMatrix.identity(R, 8)  # entries of the matrix's own ring compare nothing
    assert compared == [0]
    with pytest.raises(RingMismatch, match="matrix entry in a different ring"):
        PolyMatrix(R, 1, 2, [R.one(), ring("x", "z").one()])


def test_row_echelon_reports_pivot_columns():
    echelon = RowEchelon(QQ)
    assert echelon.insert({2: 3, 5: 1}) == 2
    assert echelon.insert({2: 6, 5: 2}) is None
    assert echelon.insert({2: 1, 4: 1}) == 4
    assert echelon.insert({}) is None
    assert echelon.rank == 2
    # stored primitive over Z; scaled to a leading 1 they are the rows over Q
    assert echelon.pivots == {2: {2: 3, 5: 1}, 4: {4: 3, 5: -1}}
    monic = {c: {k: Fraction(v, row[c]) for k, v in row.items()}
             for c, row in echelon.pivots.items()}
    assert monic == {2: {2: 1, 5: Fraction(1, 3)}, 4: {4: 1, 5: Fraction(-1, 3)}}


def test_random_ring_axioms():
    rng = random.Random(11)
    R = ring("x", "y")
    x, y = R.gens()

    def rand_poly():
        out = R.zero()
        for _ in range(rng.randint(1, 4)):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            out = out + R.constant(c) * x**rng.randint(0, 3) * y**rng.randint(0, 2)
        return out

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * (b + c) == a*b + a*c
        assert (a * b) * c == a * (b * c)
        assert a - a == R.zero()
        assert str(parse_polynomial(R, str(a))) == str(a)


def _signed_text(pairs, names):
    """Text of the sum of (exponents, coefficient) pairs, in that order,
    repeats and zero coefficients included."""
    out = []
    for exps, c in pairs:
        mono = "*".join("%s^%d" % (v, e) for v, e in zip(names, exps))
        out.append("%s %s*%s" % ("-" if c < 0 else "+", abs(c), mono))
    return " ".join(out)


def test_a_parse_builds_one_polynomial(monkeypatch):
    R = ring("x", "y")
    built = []
    init = _TermPoly.__init__

    def counted(self, ring, terms):
        built.append(type(self))
        init(self, ring, terms)

    monkeypatch.setattr(_TermPoly, "__init__", counted)
    for n in (1, 2, 40, 400):
        pairs = [((k % 5, k % 3), k % 7 - 3) for k in range(n)]
        negative = [((-(k % 5), k % 3), k % 7 - 3) for k in range(n)]
        for parse, text in ((parse_polynomial, _signed_text(pairs, R.variables)),
                            (parse_laurent, _signed_text(negative, R.variables))):
            built.clear()
            p = parse(R, text)
            assert built == [type(p)]
            assert len(p.terms) <= 15
    built.clear()
    assert parse_coefficient(QQ, "- 3/4") == Fraction(-3, 4)
    assert built == [Polynomial]


def _reference_terms(pairs, field):
    """The sum of (exponents, coefficient) pairs, one term at a time, with
    its zero coefficients removed at the end."""
    out = {}
    for exps, c in pairs:
        out[exps] = field.add(out.get(exps, field.zero), field.coerce(c))
    return {e: c for e, c in out.items() if c != field.zero}


def _assert_stored(p, pairs):
    """p stores no zero coefficient and equals the term-by-term sum of pairs."""
    field = p.ring.field
    assert all(c != field.zero for c in p.terms.values())
    assert p.terms == _reference_terms(pairs, field)


def _shifted(a, b):
    return tuple(i + j for i, j in zip(a, b))


@pytest.mark.parametrize("field", [QQ, PrimeField(32749)])
def test_no_result_stores_a_zero_coefficient(field):
    rng = random.Random("zeros/%r" % (field,))
    R = ring("x", "y", field=field)
    x, y = R.gens()
    coeffs = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 0]

    def draw(low=0):
        return [((rng.randint(low, 2), rng.randint(0, 2)), field.coerce(rng.choice(coeffs)))
                for _ in range(rng.randint(0, 5))]

    def product_pairs(fp, gp):
        return [(_shifted(e1, e2), field.mul(c1, c2)) for e1, c1 in fp for e2, c2 in gp]

    cancelled = 0  # results with fewer terms than their inputs' distinct exponents
    for _ in range(80):
        fp, gp = draw(), draw()
        f, g = Polynomial(R, _reference_terms(fp, field)), Polynomial(R, _reference_terms(gp, field))
        _assert_stored(f + g, fp + gp)
        _assert_stored(f - g, fp + [(e, field.neg(c)) for e, c in gp])
        _assert_stored(f * g, product_pairs(fp, gp))
        cancelled += len((f + g).terms) < len(set(f.terms) | set(g.terms))
        cancelled += len((f * g).terms) < len({e for e, _ in product_pairs(fp, gp)})
        c, e = rng.choice(coeffs), (rng.randint(0, 2), rng.randint(0, 2))
        _assert_stored(f.scale(c), [(e1, field.mul(c1, field.coerce(c))) for e1, c1 in fp])
        _assert_stored(f.mul_term(e, c),
                       [(_shifted(e1, e), field.mul(c1, field.coerce(c))) for e1, c1 in fp])
        _assert_stored(f.derivative(0), [((e1[0] - 1, e1[1]), field.mul(c1, field.coerce(e1[0])))
                                         for e1, c1 in fp if e1[0]])
        if fp + gp:
            _assert_stored(parse_polynomial(R, _signed_text(fp + gp, R.variables)), fp + gp)
        # 2x2 products whose entries cancel about as often as the sums above
        a, b = [draw() for _ in range(4)], [draw() for _ in range(4)]
        ab = (PolyMatrix(R, 2, 2, [Polynomial(R, _reference_terms(p, field)) for p in a])
              @ PolyMatrix(R, 2, 2, [Polynomial(R, _reference_terms(p, field)) for p in b]))
        for i in range(2):
            for j in range(2):
                _assert_stored(ab.get(i, j), product_pairs(a[2 * i], b[j])
                               + product_pairs(a[2 * i + 1], b[2 + j]))
        # Laurent parse, then q = v merges the terms of each power of Y
        L, Y = ring("Y", "q", field=field), ring("Y", field=field)
        wp = [((rng.randint(-2, 2), rng.randint(-1, 1)), rng.choice(coeffs)) for _ in range(5)]
        w = parse_laurent(L, _signed_text(wp, L.variables))
        _assert_stored(w, wp)
        v = field.coerce(rng.choice([1, -1, 2, Fraction(-1, 2)]))
        _assert_stored(w.substitute({"q": v}, Y),
                       [((e[0],), field.mul(field.coerce(c), v if e[1] > 0 else
                                            field.inv(v) if e[1] < 0 else field.one))
                        for e, c in wp])
    assert cancelled > 20
    _assert_stored(x + y - x - y, [])
    _assert_stored((x + y) * (x - y), [((2, 0), 1), ((0, 2), -1)])
    _assert_stored((x + y).scale(0), [])
    _assert_stored((x + y).mul_term((1, 1), 0), [])
    _assert_stored(R.constant(32749), [((0, 0), 32749)])
    _assert_stored(R.constant(0), [])
    _assert_stored(R.constant(1) - R.one(), [])
    _assert_stored(parse_polynomial(R, "x - x + 0*y"), [])
    _assert_stored(parse_polynomial(R, "32749*x"), [((1, 0), 32749)])
    _assert_stored(parse_polynomial(R, "1 + x - 1"), [((1, 0), 1)])
    t, = ring("x", field=field).gens()
    _assert_stored((t ** 32749).derivative(0), [((32748,), 32749)])
    _assert_stored(parse_laurent(ring("x", field=field), "x^-1 - x^-1"), [])
    W = parse_laurent(ring("Y", "q", field=field), "q*Y - Y + Y^-1 + 2*q^-1")
    _assert_stored(W.substitute({"q": 1}, ring("Y", field=field)), [((-1,), 1), ((0,), 2)])
    row, col = PolyMatrix.from_rows(R, [[x, y]]), PolyMatrix.from_rows(R, [[y], [-x]])
    _assert_stored((row @ col).get(0, 0), [])


def test_rationals_whose_denominator_p_divides_are_refused_over_f_p():
    # each raised a bare ZeroDivisionError ("inverse of 0 mod 7") from
    # PrimeField.coerce, which names the value now
    from mfcat.mf import rank_one
    R = ring("x", field=PrimeField(7))
    x = R.variable("x")
    for call, name in ((lambda: x + Fraction(1, 7), "1/7"),
                       (lambda: x.scale(Fraction(3, 7)), "3/7"),
                       (lambda: R.constant(Fraction(-3, 49)), "-3/49"),
                       (lambda: rank_one(R, x * x, Fraction(1, 7), x, x), "1/7"),
                       (lambda: x * Fraction(1, 7 * 10 ** 60),
                        "'1/7000000000'... (63 characters)")):
        with pytest.raises(PolyError) as caught:
            call()
        assert str(caught.value) == "%s is not in F_7: 7 divides its denominator" % name
    assert x + Fraction(1, 2) == x + 4


@pytest.mark.parametrize("field", (QQ, PrimeField(32749)), ids=repr)
def test_substitution_and_evaluation_take_powers_by_squaring(field):
    # q^100000 took 3.2 s one multiplication at a time (2-vCPU VM, Python
    # 3.11); squaring takes milliseconds, so 0.5 s catches the linear loop.
    start = time.perf_counter()
    w = parse_laurent(ring("q", "Y", field=field), "q^100000*Y + 2*q^-3*Y^-1")
    at3 = w.substitute({"q": 3}, ring("Y", field=field))
    p = parse_polynomial(ring("x", "y", field=field), "x^100000*y - x^2")
    value = p.evaluate([3, Fraction(1, 2)])
    assert time.perf_counter() - start < 0.5
    big = field.coerce(3 ** 100000)
    assert at3.terms == {(1,): big, (-1,): field.coerce(Fraction(2, 27))}
    assert value == field.sub(field.mul(big, field.coerce(Fraction(1, 2))), field.coerce(9))
    with pytest.raises(ZeroDivisionError):
        w.substitute({"q": 0}, ring("Y", field=field))
