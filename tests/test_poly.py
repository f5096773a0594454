import random
from fractions import Fraction

import pytest

from mfcat.poly import (
    QQ, PrimeField, field_from_spec, RingContext, Polynomial,
    LaurentPolynomial, parse_polynomial, parse_laurent, parse_coefficient,
    ParseError, RingMismatch, univariate_gcd,
)
from mfcat.matrix import PolyMatrix


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
    assert f7.parse("3/2") == f7.mul(3, f7.inv(2))


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


def test_coefficient_parsing():
    assert parse_coefficient(QQ, "-7/3") == Fraction(-7, 3)
    with pytest.raises(ParseError):
        parse_coefficient(QQ, "1/0")


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


def test_matrix_block_and_transpose():
    R = ring("x")
    x, = R.gens()
    a = PolyMatrix.scalar(x, 2)
    z = PolyMatrix.zeros(R, 2, 1)
    c = PolyMatrix.from_rows(R, [[x**2], [R.one()]])
    blk = PolyMatrix.block([[a, c], [z.transpose(), PolyMatrix.from_rows(R, [[x]])]])
    assert blk.rows == 3 and blk.cols == 3
    assert blk.get(0, 2) == x**2
    assert blk.get(2, 2) == x
    assert blk.transpose().get(2, 0) == x**2
    with pytest.raises(ValueError):
        PolyMatrix.block([[a, PolyMatrix.zeros(R, 3, 1)]])


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
