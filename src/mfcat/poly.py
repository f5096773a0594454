"""Exact sparse multivariate polynomials over Q or a prime field.

Coefficients are `fractions.Fraction` (over Q) or plain ints in [0, p)
(over F_p).  A polynomial is a dict mapping exponent tuples to nonzero
coefficients; all arithmetic is exact and deterministic.  Laurent
polynomials reuse the same term dict but allow negative exponents.
"""

from __future__ import annotations

from fractions import Fraction


class PolyError(Exception):
    """Base class for all domain errors raised by this package."""


class RingMismatch(PolyError):
    pass


class ParseError(PolyError):
    def __init__(self, message, line=1, column=0):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


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
    """Arithmetic interface shared by Q and F_p."""

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def coerce(self, value):
        raise NotImplementedError

    def parse(self, text: str):
        """Parse an integer or a/b literal into a coefficient."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            num, den = int(num), int(den)
            if den == 0:
                raise ParseError("zero denominator in %r" % text)
            return self.div(self.coerce(num), self.coerce(den))
        return self.coerce(int(text))

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
        return 1 / a

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError("cannot coerce %r into Q" % (value,))

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

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            return self.div(self.coerce(value.numerator), self.coerce(value.denominator))
        raise TypeError("cannot coerce %r into F_%d" % (value, self.p))

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
        try:
            p = int(spec[3:])
        except ValueError:
            raise ParseError("bad field spec %r" % spec) from None
        return PrimeField(p)
    raise ParseError("bad field spec %r (expected Q or Fp:<p>)" % spec)


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

_NAME_RE = None  # compiled lazily in the parser section


class RingContext:
    """A polynomial ring: ordered variables, coefficient field, monomial order.

    The first variable in `variables` has the highest precedence.
    """

    __slots__ = ("variables", "field", "order", "nvars", "key", "_index")

    def __init__(self, variables, field: Field = QQ, order: str = "grevlex"):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names: %r" % (variables,))
        for v in variables:
            if not v or not _is_name(v):
                raise ValueError("bad variable name %r" % (v,))
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
        c = self.field.coerce(c) if not _is_coeff(c) else c
        if c == self.field.zero:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, name: str) -> "Polynomial":
        i = self.var_index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: self.field.one})

    def gens(self):
        return [self.variable(v) for v in self.variables]

    def __eq__(self, other):
        return (
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


def _is_name(s: str) -> bool:
    if not (s[0].isalpha() or s[0] == "_"):
        return False
    return all(ch.isalnum() or ch == "_" for ch in s[1:])


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class _TermPoly:
    """Shared term-dict plumbing for Polynomial and LaurentPolynomial."""

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

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.ring.field.zero)

    def constant_coefficient(self):
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        fld = self.ring.field
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = fld.add(out.get(exps, fld.zero), c)
            if s == fld.zero:
                out.pop(exps, None)
            else:
                out[exps] = s
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
        fld = self.ring.field
        zero = fld.zero
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = fld.add(out.get(e, zero), fld.mul(c1, c2))
                if s == zero:
                    out.pop(e, None)
                else:
                    out[e] = s
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
        c = fld.coerce(c) if not _is_coeff(c) else c
        if c == fld.zero:
            return type(self)(self.ring, {})
        return type(self)(self.ring, {e: fld.mul(v, c) for e, v in self.terms.items()})

    def mul_term(self, exps, c):
        """Multiply by the single term c * x^exps."""
        fld = self.ring.field
        if c == fld.zero:
            return type(self)(self.ring, {})
        return type(self)(
            self.ring,
            {tuple(a + b for a, b in zip(e, exps)): fld.mul(v, c) for e, v in self.terms.items()},
        )

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
        fld = self.ring.field
        out = {}
        for exps, c in self.terms.items():
            k = exps[var]
            if k == 0:
                continue
            e = exps[:var] + (k - 1,) + exps[var + 1:]
            s = fld.add(out.get(e, fld.zero), fld.mul(c, fld.coerce(k)))
            if s == fld.zero:
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial(self.ring, out)

    def evaluate(self, values):
        """Evaluate at a full point given as a list of coefficients."""
        fld = self.ring.field
        values = [fld.coerce(v) if not _is_coeff(v) else v for v in values]
        total = fld.zero
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(values, exps):
                for _ in range(e):
                    term = fld.mul(term, v)
            total = fld.add(total, term)
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

    def as_laurent(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.ring, dict(self.terms))


class LaurentPolynomial(_TermPoly):
    _allow_negative = True

    def log_derivative(self, var: int) -> "LaurentPolynomial":
        """y_i * d/dy_i: multiplies each term by its y_i exponent."""
        fld = self.ring.field
        out = {}
        for exps, c in self.terms.items():
            k = exps[var]
            if k == 0:
                continue
            out[exps] = fld.mul(c, fld.coerce(k))
        return LaurentPolynomial(self.ring, out)

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
        fld = new_ring.field
        keep = []
        for i, v in enumerate(self.ring.variables):
            if v not in assignments:
                keep.append((i, new_ring.var_index(v)))
        values = {
            self.ring.var_index(name): fld.coerce(val) if not _is_coeff(val) else val
            for name, val in assignments.items()
        }
        out = {}
        for exps, c in self.terms.items():
            coeff = fld.coerce(c)
            for i, val in values.items():
                k = exps[i]
                if k < 0:
                    val = fld.inv(val)
                    k = -k
                for _ in range(k):
                    coeff = fld.mul(coeff, val)
            e = [0] * new_ring.nvars
            for old, new in keep:
                e[new] = exps[old]
            e = tuple(e)
            s = fld.add(out.get(e, fld.zero), coeff)
            if s == fld.zero:
                out.pop(e, None)
            else:
                out[e] = s
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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("INT", text[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
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
        raise ParseError(message + (" near %r" % value if value else " at end of input"), line, col)

    def parse(self):
        cls = LaurentPolynomial if self.laurent else Polynomial
        fld = self.ring.field
        total = cls(self.ring, {})
        first = True
        while True:
            sign = 1
            kind, value, _, _ = self.peek()
            if kind == "OP" and value in "+-":
                self.take()
                sign = -1 if value == "-" else 1
            elif not first:
                if kind == "END":
                    break
                self.error("expected '+' or '-'")
            if self.peek()[0] == "END":
                if first and sign == 1 and self.pos == 0:
                    self.error("empty polynomial")
                self.error("dangling sign")
            exps, coeff = self.term()
            if sign < 0:
                coeff = fld.neg(coeff)
            total = total + cls(self.ring, {exps: coeff})
            first = False
            if self.peek()[0] == "END":
                break
        return total

    def term(self):
        fld = self.ring.field
        coeff = fld.one
        exps = [0] * self.ring.nvars
        kind, value, _, _ = self.peek()
        if kind == "INT":
            self.take()
            num = int(value)
            if self.peek()[:2] == ("OP", "/"):
                self.take()
                k2, v2, _, _ = self.peek()
                if k2 != "INT":
                    self.error("expected denominator")
                self.take()
                coeff = fld.div(fld.coerce(num), fld.coerce(int(v2)))
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
        self.take()
        try:
            idx = self.ring.var_index(value)
        except KeyError:
            self.error("unknown variable %r" % value)
        power = 1
        if self.peek()[:2] == ("OP", "^"):
            self.take()
            neg = False
            if self.peek()[:2] == ("OP", "-"):
                if not self.laurent:
                    self.error("negative exponent outside a Laurent context")
                self.take()
                neg = True
            kind2, value2, _, _ = self.peek()
            if kind2 != "INT":
                self.error("expected an exponent")
            self.take()
            power = -int(value2) if neg else int(value2)
        exps[idx] += power


def parse_polynomial(ring: RingContext, text: str) -> Polynomial:
    """Parse text like "x^2*y - 3/2*z + 1" into a Polynomial."""
    return _Parser(ring, text, laurent=False).parse()


def parse_laurent(ring: RingContext, text: str) -> LaurentPolynomial:
    return _Parser(ring, text, laurent=True).parse()


def parse_coefficient(field: Field, text: str):
    """Parse a bare coefficient ("3", "-3/2")."""
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:]
    elif text.startswith("+"):
        text = text[1:]
    value = field.parse(text)
    return field.neg(value) if sign < 0 else value


# ---------------------------------------------------------------------------
# univariate helpers (used by the mirror side)
# ---------------------------------------------------------------------------

def univariate_coeffs(f: Polynomial):
    """Dense coefficient list [c0, c1, ...] for a univariate polynomial."""
    if f.ring.nvars != 1:
        raise ValueError("polynomial is not univariate")
    if f.is_zero:
        return []
    deg = max(e[0] for e in f.terms)
    fld = f.ring.field
    return [f.terms.get((i,), fld.zero) for i in range(deg + 1)]


def univariate_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd of univariate polynomials over the ring's field."""
    if f.ring != g.ring:
        raise RingMismatch("gcd operands in different rings")
    ring = f.ring
    fld = ring.field
    a, b = f, g
    while not b.is_zero:
        a, b = b, _univariate_rem(a, b)
    if a.is_zero:
        return a
    _, lc = a.lead_term()
    return a.scale(fld.inv(lc))


def _univariate_rem(a: Polynomial, b: Polynomial) -> Polynomial:
    fld = a.ring.field
    be, bc = b.lead_term()
    r = a
    while not r.is_zero:
        re, rc = r.lead_term()
        if re[0] < be[0]:
            break
        shift = (re[0] - be[0],)
        r = r - b.mul_term(shift, fld.div(rc, bc))
    return r
