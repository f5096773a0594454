"""Exact sparse multivariate polynomials over Q or a prime field.

Coefficients are `fractions.Fraction` (over Q) or plain ints in [0, p)
(over F_p).  A polynomial is a dict mapping exponent tuples to nonzero
coefficients; all arithmetic is exact and deterministic.  Laurent
polynomials reuse the same term dict but allow negative exponents.

The constructor is the one place that drops zero coefficients: every
operation, and the parser, sums its terms into one dict and builds one
polynomial from it, cancelled terms included.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, lcm


class PolyError(Exception):
    """Base class for all domain errors raised by this package."""


class RingMismatch(PolyError):
    pass


class ParseError(PolyError):
    def __init__(self, message, line=1, column=0):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


def quoted(value):
    """repr(value), or when value (its repr, if not a string) is longer than
    40 characters, its first 12 characters and its length: an error names
    user input without echoing all of it."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 40:
        return repr(value)
    return "%r... (%d characters)" % (text[:12], len(text))


def shortened(text, limit=40):
    """text itself, or when it is longer than limit (at least 40)
    characters, its name by ``quoted``."""
    return text if len(text) <= limit else quoted(text)


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

# Miller-Rabin to the prime bases up to 41 is exact below this bound, and to
# those up to 37 only below 318665857834031151167461 (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin; callers keep n below _PRIME_TEST_BOUND
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Arithmetic interface shared by Q and F_p, and the one integer
    encoding of the exact kernels: they compute on int dicts, fraction-free
    over Q and mod `p` over F_p, and come back through `from_scaled`.

    Each field defines add, sub, mul, neg and inv, and:
      * coerce(value): the field element of an int or Fraction; anything
        else, bool included, raises TypeError;
      * stored_form(terms, lead): an int dict in its stored form at the key
        `lead`, over Q divided by its content and signed so the lead is
        positive, over F_p monic; returned as given when already stored;
      * from_scaled(c, d): the field element c/d of ints c and d.
    """

    p = None  # the modulus over F_p

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, k):
        """a to the int power k, by square and multiply; a is nonzero when k < 0."""
        if k < 0:
            a, k = self.inv(a), -k
        return a ** k if self.p is None else pow(a, k, self.p)

    def format(self, a) -> str:
        return str(a)


class RationalField(Field):
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.one / a

    def stored_form(self, terms, lead):
        g = gcd(*terms.values()) if terms[lead] > 0 else -gcd(*terms.values())
        return terms if g == 1 else {t: v // g for t, v in terms.items()}

    def from_scaled(self, c, d):
        return Fraction(c, d)

    def coerce(self, value):
        if not _is_coeff(value):
            raise TypeError("cannot coerce %r into Q" % (value,))
        return value if isinstance(value, Fraction) else Fraction(value)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= _PRIME_TEST_BOUND:
            raise ValueError("field modulus %d is too large to certify as prime (limit %d)"
                             % (p, _PRIME_TEST_BOUND))
        if not _is_prime(p):
            raise ValueError("field modulus %d is not prime" % p)
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 mod %d" % self.p)
        return pow(a, self.p - 2, self.p)

    def stored_form(self, terms, lead):
        inv = pow(terms[lead], -1, self.p)
        return terms if inv == 1 else {t: v * inv % self.p for t, v in terms.items()}

    def from_scaled(self, c, d):
        return c * pow(d, -1, self.p) % self.p

    def coerce(self, value):
        if not _is_coeff(value):
            raise TypeError("cannot coerce %r into F_%d" % (value, self.p))
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if not den:
                raise PolyError("%s is not in F_%d: %d divides its denominator"
                                % (shortened(str(value)), self.p, self.p))
            return self.div(value.numerator % self.p, den)
        return value % self.p

    def __repr__(self):
        return "Fp:%d" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


def field_from_spec(spec: str) -> Field:
    """Field given as "Q" or "Fp:<prime>"."""
    spec = spec.strip()
    if spec == "Q":
        return QQ
    if spec.startswith("Fp:"):
        digits = spec[3:]
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError("bad field spec %s (the modulus must be ASCII digits)" % quoted(spec))
        return PrimeField(parse_coefficient(QQ, digits).numerator)
    raise ParseError("bad field spec %s (expected Q or Fp:<p>)" % quoted(spec))


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

def _key_lex(exps):
    return exps


def _key_grlex(exps):
    return (sum(exps), exps)


def _key_grevlex(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


ORDER_KEYS = {"lex": _key_lex, "grlex": _key_grlex, "grevlex": _key_grevlex}


class RingContext:
    """A polynomial ring: ordered variables, coefficient field, monomial order.

    The first variable in `variables` has the highest precedence.
    """

    __slots__ = ("variables", "field", "order", "nvars", "key", "_index")

    def __init__(self, variables, field: Field = QQ, order: str = "grevlex"):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names: %s" % quoted(variables))
        for v in variables:
            if not v or not _is_name(v):
                raise ValueError("bad variable name %s" % quoted(v))
        if order not in ORDER_KEYS:
            raise ValueError("unknown monomial order %r" % order)
        if not isinstance(field, Field):
            raise TypeError("field must be a Field instance")
        self.variables = variables
        self.field = field
        self.order = order
        self.nvars = len(variables)
        self.key = ORDER_KEYS[order]
        self._index = {v: i for i, v in enumerate(variables)}

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("unknown variable %r in ring %r" % (name, self.variables)) from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, c) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.field.coerce(c)})

    def variable(self, name: str) -> "Polynomial":
        i = self.var_index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: self.field.one})

    def gens(self):
        return [self.variable(v) for v in self.variables]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RingContext)
            and self.variables == other.variables
            and self.field == other.field
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.variables, self.field, self.order))

    def __repr__(self):
        return "RingContext(%s; %r; %s)" % (", ".join(self.variables), self.field, self.order)


def _is_coeff(c):
    return isinstance(c, (Fraction, int)) and not isinstance(c, bool)


def _is_name_char(ch: str) -> bool:
    """Letters, "_" and the ASCII digits: the characters of a variable name."""
    return ch.isalpha() or ch == "_" or "0" <= ch <= "9"


def _is_name(s: str) -> bool:
    if not (s[0].isalpha() or s[0] == "_"):
        return False
    return all(_is_name_char(ch) for ch in s[1:])


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class _TermPoly:
    """Shared term-dict plumbing for Polynomial and LaurentPolynomial.

    The constructor checks the exponents and drops the zero coefficients;
    no other code does, so callers pass their sums as they are."""

    __slots__ = ("ring", "terms")

    _allow_negative = False

    def __init__(self, ring: RingContext, terms: dict):
        self.ring = ring
        clean = {}
        zero = ring.field.zero
        n = ring.nvars
        for exps, c in terms.items():
            if c == zero:
                continue
            if len(exps) != n:
                raise ValueError("exponent tuple %r has wrong length" % (exps,))
            if not self._allow_negative and any(e < 0 for e in exps):
                raise ValueError("negative exponent in %r" % (exps,))
            clean[exps] = c
        self.terms = clean

    # -- ring plumbing ------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch("operands live in different rings: %r vs %r" % (self.ring, other.ring))

    def _coerce_other(self, other):
        if isinstance(other, _TermPoly):
            self._check(other)
            return other
        if _is_coeff(other):
            c = self.ring.field.coerce(other)
            return type(self)(self.ring, {(0,) * self.ring.nvars: c})
        return None

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self):
        """Max total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def lead_term(self):
        """(exponents, coeff) of the leading term under the ring order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = self.ring.key
        exps = max(self.terms, key=key)
        return exps, self.terms[exps]

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        plus = self.ring.field.add
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = plus(out[e], c) if e in out else c
        return type(self)(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return type(self)(self.ring, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        plus, times = self.ring.field.add, self.ring.field.mul
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = times(c1, c2)
                out[e] = plus(out[e], c) if e in out else c
        return type(self)(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = type(self)(self.ring, {(0,) * self.ring.nvars: self.ring.field.one})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def scale(self, c):
        """Multiply by a field coefficient."""
        fld = self.ring.field
        c = fld.coerce(c)
        return type(self)(self.ring, {e: fld.mul(v, c) for e, v in self.terms.items()})

    def mul_term(self, exps, c):
        """Multiply by the single term c * x^exps."""
        fld = self.ring.field
        c = fld.coerce(c)
        if len(exps) != self.ring.nvars:
            raise ValueError("expected one exponent per variable (%d), got %d"
                             % (self.ring.nvars, len(exps)))
        return type(self)(
            self.ring,
            {tuple(a + b for a, b in zip(e, exps)): fld.mul(v, c) for e, v in self.terms.items()},
        )

    def _variable(self, var):
        """var, refused unless it is the index of one of the ring's variables."""
        if not (isinstance(var, int) and 0 <= var < self.ring.nvars):
            raise ValueError("no variable with that index (the ring has %d)" % self.ring.nvars)
        return var

    def __eq__(self, other):
        if _is_coeff(other):
            other = self._coerce_other(other)
        if not isinstance(other, _TermPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- output ---------------------------------------------------------

    def sorted_terms(self):
        """Terms sorted descending under the ring order (ties impossible)."""
        key = self.ring.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else "%s^%d" % (v, e)
                for v, e in zip(self.ring.variables, exps)
                if e != 0
            )
            negative = isinstance(c, Fraction) and c < 0
            mag = -c if negative else c
            if mono:
                body = mono if mag == 1 else "%s*%s" % (mag, mono)
            else:
                body = str(mag)
            if not chunks:
                chunks.append("-" + body if negative else body)
            else:
                chunks.append(("- " if negative else "+ ") + body)
        return " ".join(chunks)

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, self)


class Polynomial(_TermPoly):
    _allow_negative = False

    def derivative(self, var: int) -> "Polynomial":
        fld, var = self.ring.field, self._variable(var)
        out = {}
        for exps, c in self.terms.items():
            k = exps[var]
            if k:  # distinct terms stay distinct: nothing to merge
                out[exps[:var] + (k - 1,) + exps[var + 1:]] = fld.mul(c, fld.coerce(k))
        return Polynomial(self.ring, out)

    def evaluate(self, values):
        """Evaluate at a full point given as a list of coefficients."""
        fld = self.ring.field
        values = [fld.coerce(v) for v in values]
        if len(values) != self.ring.nvars:
            raise ValueError("a point needs %d coordinates, got %d"
                             % (self.ring.nvars, len(values)))
        total = fld.zero
        for exps, c in self.terms.items():
            for v, e in zip(values, exps):
                c = fld.mul(c, fld.pow(v, e))
            total = fld.add(total, c)
        return total

    def extend(self, new_ring: RingContext, index_map=None) -> "Polynomial":
        """Re-express in a bigger ring; index_map sends old var index to new."""
        if index_map is None:
            index_map = [new_ring.var_index(v) for v in self.ring.variables]
        out = {}
        for exps, c in self.terms.items():
            e = [0] * new_ring.nvars
            for i, k in enumerate(exps):
                e[index_map[i]] = k
            out[tuple(e)] = new_ring.field.coerce(c)
        return Polynomial(new_ring, out)


class LaurentPolynomial(_TermPoly):
    _allow_negative = True

    def log_derivative(self, var: int) -> "LaurentPolynomial":
        """y_i * d/dy_i: multiplies each term by its y_i exponent."""
        fld, var = self.ring.field, self._variable(var)
        return LaurentPolynomial(
            self.ring, {e: fld.mul(c, fld.coerce(e[var])) for e, c in self.terms.items()})

    def clear_denominators(self):
        """Return (poly, shifts) with poly = self * prod y_i^shifts[i]."""
        if not self.terms:
            return Polynomial(self.ring, {}), (0,) * self.ring.nvars
        n = self.ring.nvars
        shifts = tuple(max(0, -min(e[i] for e in self.terms)) for i in range(n))
        out = {tuple(a + b for a, b in zip(e, shifts)): c for e, c in self.terms.items()}
        return Polynomial(self.ring, out), shifts

    def substitute(self, assignments: dict, new_ring: RingContext) -> "LaurentPolynomial":
        """Substitute field values for some variables; the rest map into new_ring.

        `assignments` maps variable names to coefficients.  Substituted
        variables must not appear with negative exponents unless the value
        is invertible (it always is for nonzero field elements).
        """
        fld, n = new_ring.field, new_ring.nvars
        keep = []
        for i, v in enumerate(self.ring.variables):
            if v not in assignments:
                keep.append((i, new_ring.var_index(v)))
        values = [(self.ring.var_index(name), fld.coerce(val))
                  for name, val in assignments.items()]
        out = {}
        for exps, c in self.terms.items():
            coeff = fld.coerce(c)
            for i, val in values:
                if exps[i]:  # a zeroth power is 1
                    coeff = fld.mul(coeff, fld.pow(val, exps[i]))
            e = [0] * n
            for old, new in keep:
                e[new] = exps[old]
            e = tuple(e)
            out[e] = fld.add(out[e], coeff) if e in out else coeff
        return LaurentPolynomial(new_ring, out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _tokenize(text: str):
    """Yield (kind, value, line, col) tokens; kinds: INT NAME OP END."""
    line, col = 1, 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 0
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            yield ("INT", text[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and _is_name_char(text[j]):
                j += 1
            yield ("NAME", text[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch in "+-*/^":
            yield ("OP", ch, line, col)
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    yield ("END", "", line, col)


class _Parser:
    """Recursive-descent parser for the term grammar.

    poly  := term (('+'|'-') term)*
    term  := [sign] (coeff ['*' mono ('*' mono)*] | mono ('*' mono)*)
    coeff := INT ['/' INT]
    mono  := NAME ['^' ['-'] INT]
    """

    def __init__(self, ring: RingContext, text: str, laurent: bool):
        self.ring = ring
        self.laurent = laurent
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message):
        kind, value, line, col = self.peek()
        raise ParseError(message + (" near " + quoted(value) if value else " at end of input"),
                         line, col)

    def integer(self, what):
        """The value of the INT token at the cursor, not taken."""
        kind, value, line, col = self.peek()
        if kind != "INT":
            self.error("expected " + what)
        try:
            return int(value)
        except ValueError:  # more digits than Python converts
            raise ParseError("integer of %d digits, more than the %d allowed"
                             % (len(value), sys.get_int_max_str_digits()), line, col) from None

    def parse(self):
        """The one polynomial of the text, its terms summed in one dict."""
        fld = self.ring.field
        terms = {}
        first = True
        while True:
            sign = 1
            kind, value, _, _ = self.peek()
            if kind == "OP" and value in "+-":
                self.take()
                sign = -1 if value == "-" else 1
            elif not first:
                self.error("expected '+' or '-'")
            if self.peek()[0] == "END":
                if first and sign == 1 and self.pos == 0:
                    self.error("empty polynomial")
                self.error("dangling sign")
            exps, coeff = self.term()
            if sign < 0:
                coeff = fld.neg(coeff)
            terms[exps] = fld.add(terms[exps], coeff) if exps in terms else coeff
            first = False
            if self.peek()[0] == "END":
                break
        return (LaurentPolynomial if self.laurent else Polynomial)(self.ring, terms)

    def term(self):
        fld = self.ring.field
        coeff = fld.one
        exps = [0] * self.ring.nvars
        kind, value, _, _ = self.peek()
        if kind == "INT":
            num = self.integer("a coefficient")
            self.take()
            if self.peek()[:2] == ("OP", "/"):
                self.take()
                den = fld.coerce(self.integer("denominator"))
                if den == fld.zero:
                    self.error("zero denominator in %s" % fld)
                self.take()
                coeff = fld.div(fld.coerce(num), den)
            else:
                coeff = fld.coerce(num)
            if self.peek()[:2] == ("OP", "*"):
                self.take()
                self.monomial(exps)
            else:
                return tuple(exps), coeff
        elif kind == "NAME":
            self.monomial(exps)
        else:
            self.error("expected a term")
        while self.peek()[:2] == ("OP", "*"):
            self.take()
            self.monomial(exps)
        return tuple(exps), coeff

    def monomial(self, exps):
        kind, value, _, _ = self.peek()
        if kind != "NAME":
            self.error("expected a variable name")
        try:
            idx = self.ring.var_index(value)
        except KeyError:
            self.error("unknown variable " + quoted(value))
        self.take()
        power = 1
        if self.peek()[:2] == ("OP", "^"):
            self.take()
            neg = False
            if self.peek()[:2] == ("OP", "-"):
                if not self.laurent:
                    self.error("negative exponent outside a Laurent context")
                self.take()
                neg = True
            power = -self.integer("an exponent") if neg else self.integer("an exponent")
            self.take()
        exps[idx] += power


def parse_polynomial(ring: RingContext, text: str) -> Polynomial:
    """Parse text like "x^2*y - 3/2*z + 1" into a Polynomial."""
    return _Parser(ring, text, laurent=False).parse()


def parse_laurent(ring: RingContext, text: str) -> LaurentPolynomial:
    return _Parser(ring, text, laurent=True).parse()


def parse_coefficient(field: Field, text: str):
    """Parse a bare coefficient ("3", "-3/2") with the polynomial grammar."""
    return parse_polynomial(RingContext((), field), text).terms.get((), field.zero)


def integer_multiple(coeffs: dict):
    """(D * coeffs, D) for the lcm D of the denominators of a dict's
    coefficients, the values as ints.  Over F_p, whose coefficients are
    ints, D is 1 and the values are unchanged."""
    d = lcm(*(c.denominator for c in coeffs.values()))
    return {k: c.numerator * (d // c.denominator) for k, c in coeffs.items()}, d


# ---------------------------------------------------------------------------
# univariate helpers (used by the mirror side)
# ---------------------------------------------------------------------------

def univariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd of univariate polynomials over the ring's field.

    Euclid on dense coefficient lists of ints (Knuth, TAOCP vol. 2,
    4.6.1), each in the field's stored form (_euclid).  Over Q it is the
    primitive remainder sequence over Z: each operand is cleared of
    denominators, each remainder is a pseudo-remainder, and each is divided
    by its content, so it is a nonzero multiple of the remainder over Q.
    Over F_p the operands are ints mod p, made monic.
    """
    if f.ring != g.ring:
        raise RingMismatch("gcd operands in different rings")
    if f.ring.nvars != 1:
        raise ValueError("univariate_gcd needs a ring of one variable, not %d" % f.ring.nvars)
    field = f.ring.field
    a, b = ([h.terms.get((k,), 0) for k in range((h.total_degree() or 0) + 1)] for h in (f, g))
    a = _euclid(_coefficient_list(a, field), _coefficient_list(b, field), field)
    lead = a[-1] if a else 1
    return Polynomial(f.ring, {(k,): field.from_scaled(c, lead) for k, c in enumerate(a)})


def _is_squarefree(coeffs, field) -> bool:
    """Whether f = sum_k coeffs[k] x^k, field elements by degree, has a
    constant gcd with f', as univariate_gcd(f, f').total_degree() == 0
    reads it: so 0 is not squarefree, and neither is x^p - 1 over F_p,
    whose derivative vanishes."""
    a = _coefficient_list(coeffs, field)
    return len(_euclid(a, _normalised([field.mul(k, c) for k, c in enumerate(a)][1:], field),
                       field)) == 1


def _euclid(a, b, field):
    """The last nonzero remainder of Euclid on coefficient lists in stored
    form, a multiple of their gcd over the field; [] when both are 0."""
    while b:
        a, b = b, _normalised(_pseudo_remainder(a, b, field.p), field)
    return a


def _coefficient_list(coeffs, field):
    """Field elements by degree as ints, cleared of their denominators and
    normalised as in _normalised."""
    d = lcm(*(c.denominator for c in coeffs))
    return _normalised([c.numerator * (d // c.denominator) for c in coeffs], field)


def _normalised(coeffs, field):
    """Trailing zeros dropped, then in the field's stored form at the lead."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        return coeffs
    return list(field.stored_form(dict(enumerate(coeffs)), len(coeffs) - 1).values())


def _pseudo_remainder(a, b, p):
    """A nonzero multiple of the remainder of a by b over the field, lists
    by degree: each step cancels the lead of a as (lb/g) a - (la/g) x^s b
    with g = gcd(la, lb), reduced mod p over F_p."""
    a = list(a)
    n = len(b) - 1
    lb = b[-1]
    while len(a) > n:
        la = a.pop()
        if not la:
            continue
        g = gcd(la, lb)
        ka, kb = lb // g, la // g
        if ka != 1:
            a = [ka * c for c in a]
        s = len(a) - n
        for i in range(n):
            a[s + i] -= kb * b[i]
        if p:
            a = [c % p for c in a]
    return a
