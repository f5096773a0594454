"""Hori-Vafa superpotentials from toric fans, with exact critical data.

A fan is given by its rays, a distinguished unimodular basis among them,
and integer relations sum_i a_i T_i = t_j between the ray coordinates
(one per Kaehler parameter; a relation may also carry no parameter).
Writing Y_k = e^(-T_basis_k) and q_j = e^(-t_j), each ray gives one
Laurent term: its Y-exponents are its integer coordinates in the
unimodular basis, and a non-basis ray's q-exponents are a row of the
inverse of the relations restricted to the non-basis rays.

Critical points on the algebraic torus are counted through the ideal
I = (Y_i dW/dY_i, z Y_1 ... Y_n - 1) of k[Y, z] (Cox-Little-O'Shea, Ideals,
Varieties, and Algorithms, 4.2), over the field k of W: Q for every fan,
F_p for a bare Laurent W over F_p.  Each Laurent term c Y^e of W is
lifted once, to Y^(e + a 1) z^a with a = max(0, -min e).  That is
Y^e (z Y_1 ... Y_n)^a, and (z Y_1 ... Y_n)^a = 1 modulo the localizer,
which I contains; so I is the full preimage of the Laurent critical ideal,
whatever the lift.  Generator i takes the coefficient c e_i at each lifted
exponent, and W keeps c there, so one pass over the terms of W builds
every generator and the lifted W, as the Groebner kernel's sparse vectors.
Critical values come from the minimal polynomial of multiplication by the
lifted W (groebner.minimal_polynomial), and their distinctness from one
Euclid run on the eliminant's coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import (Polynomial, LaurentPolynomial, RingContext, QQ,
                   PolyError, quoted, _is_squarefree)
from . import groebner


class NonUnimodularBasis(PolyError):
    pass


class UnresolvableRay(PolyError):
    pass


class MissingParameter(PolyError):
    pass


class InfiniteCriticalLocus(PolyError):
    pass


class CriticalValueError(PolyError):
    pass


def _inverse(rows):
    """(det, inverse) of a square rational matrix by Gauss-Jordan over Q;
    the inverse is None when det is 0."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        lead = m[col][col]
        det *= lead
        m[col] = [x / lead for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det, [row[n:] for row in m]


def _exact_int(x, what):
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError("%s must be an integer, got %r" % (what, x))
    return x


def _exact_rational(x, what):
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError("%s must be an int or Fraction, got %r" % (what, x))
    return Fraction(x)


class ToricSpec:
    """Rays, relations and a basis choice describing a smooth toric fan."""

    __slots__ = ("dimension", "rays", "relations", "basis")

    def __init__(self, dimension, rays, relations, basis):
        rays = tuple(tuple(_exact_int(x, "ray coordinate") for x in ray) for ray in rays)
        relations = tuple((tuple(_exact_int(c, "relation coefficient") for c in coeffs), name)
                          for coeffs, name in relations)
        basis = tuple(_exact_int(b, "basis index") for b in basis)
        if any(len(ray) != dimension for ray in rays):
            raise ValueError("every ray needs %d coordinates" % dimension)
        if len(set(rays)) != len(rays):
            raise ValueError("duplicate rays")
        if len(basis) != dimension or len(set(basis)) != dimension:
            raise ValueError("basis must pick %d distinct rays" % dimension)
        if any(b < 0 or b >= len(rays) for b in basis):
            raise ValueError("basis index out of range")
        det, _ = _inverse([rays[b] for b in basis])
        if det not in (1, -1):
            raise NonUnimodularBasis("basis rays have determinant %s, need +-1" % det)
        names = [name for _, name in relations if name is not None]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        for coeffs, name in relations:
            if len(coeffs) != len(rays):
                raise ValueError("relation coefficient vector has wrong length")
            total = [0] * dimension
            for c, ray in zip(coeffs, rays):
                for i in range(dimension):
                    total[i] += c * ray[i]
            if any(total):
                raise UnresolvableRay(
                    "relation %r is not a ray relation (sums to %r)" % (coeffs, tuple(total)))
        self.dimension = dimension
        self.rays = rays
        self.relations = relations
        self.basis = basis

    @property
    def parameter_names(self):
        return tuple(name for _, name in self.relations if name is not None)

    def __repr__(self):
        return "ToricSpec(dim %d, %d rays, %d relations)" % (
            self.dimension, len(self.rays), len(self.relations))


def _param_variable(name: str) -> str:
    return name if name == "q" else "q_" + name


class SuperpotentialSpec:
    """One Laurent term per ray, over variables Y1..Yn and the q-parameters."""

    __slots__ = ("toric", "ring", "y_names", "y_ring", "param_names", "param_vars", "w",
                 "ray_terms")

    def __init__(self, toric, ring, y_names, param_names, param_vars, w, ray_terms):
        self.toric = toric
        self.ring = ring
        self.y_names = tuple(y_names)
        self.y_ring = RingContext(self.y_names, QQ, "grevlex")  # where substituted lands
        self.param_names = tuple(param_names)
        self.param_vars = tuple(param_vars)
        self.w = w
        self.ray_terms = tuple(ray_terms)

    @property
    def dimension(self):
        return len(self.y_names)

    def substituted(self, params: dict) -> LaurentPolynomial:
        """The superpotential with positive rational parameter values filled in."""
        values = {}
        for name in self.param_names:
            if name not in params:
                raise MissingParameter("parameter %r has no value" % name)
            val = _exact_rational(params[name], "parameter %r" % name)
            if val <= 0:
                raise ValueError("parameter %r must be positive, got %s" % (name, val))
            values[_param_variable(name)] = val
        extra = set(params) - set(self.param_names)
        if extra:
            raise MissingParameter("unknown parameter(s): %s" % quoted(sorted(extra)))
        return self.w.substitute(values, self.y_ring)

    def __repr__(self):
        return "SuperpotentialSpec(%s)" % self.w


def build_superpotential(spec: ToricSpec) -> SuperpotentialSpec:
    """Rewrite every ray through the relations into a single Laurent term."""
    n = spec.dimension
    rays = spec.rays
    m = len(rays)
    basis = list(spec.basis)
    nonbasis = [i for i in range(m) if i not in basis]
    if len(spec.relations) != m - n:
        raise UnresolvableRay(
            "need %d relations to resolve %d non-basis rays, got %d"
            % (m - n, len(nonbasis), len(spec.relations)))

    y_names = tuple("Y%d" % (k + 1) for k in range(n))
    param_names = spec.parameter_names
    param_vars = tuple(_param_variable(p) for p in param_names)
    ring = RingContext(y_names + param_vars, QQ, "grevlex")

    # The relations vanish on the rays, so solving A_nb u + A_b T_b = t for
    # the non-basis T-values gives u_c = sum_j (A_nb^-1)[c][j] t_j + x . T_b
    # with x = ray_c B^-1 the coordinates in the basis rays B: integers, as
    # B is unimodular.  An unnamed relation contributes e^0 = 1.
    _, relation_inverse = _inverse([[coeffs[r] for r in nonbasis] for coeffs, _ in spec.relations])
    if relation_inverse is None:
        raise UnresolvableRay("relations do not determine every non-basis ray")
    _, basis_inverse = _inverse([rays[b] for b in basis])
    named = [j for j, (_, name) in enumerate(spec.relations) if name is not None]

    one = ring.field.one
    terms = {}
    ray_terms = []
    for idx, ray in enumerate(rays):
        exps = [sum(x * b for x, b in zip(ray, column)).numerator
                for column in zip(*basis_inverse)] + [0] * len(param_vars)
        if idx in nonbasis:
            row = relation_inverse[nonbasis.index(idx)]
            for pos, j in enumerate(named, n):
                if row[j].denominator != 1:
                    raise UnresolvableRay("ray %d needs fractional parameter powers" % idx)
                exps[pos] = row[j].numerator
        key = tuple(exps)  # distinct for distinct rays, as B is invertible
        terms[key] = one
        ray_terms.append(LaurentPolynomial(ring, {key: one}))

    w = LaurentPolynomial(ring, terms)
    return SuperpotentialSpec(spec, ring, y_names, param_names, param_vars, w, ray_terms)


# ---------------------------------------------------------------------------
# critical points
# ---------------------------------------------------------------------------

def _substituted_w(w_spec, params):
    if isinstance(w_spec, SuperpotentialSpec):
        return w_spec.substituted(params or {})
    if isinstance(w_spec, LaurentPolynomial):
        if params:
            raise MissingParameter("a bare Laurent superpotential takes no parameters")
        return w_spec
    raise TypeError("expected a SuperpotentialSpec or LaurentPolynomial")


def _critical_basis(W):
    """(basis, lifted W): the basis of Y_i dW/dY_i and z Y1 ... Yn - 1 in
    k[Y1..Yn, z] (grevlex), k the field of W, and W lifted as they are, as
    groebner._minimal_polynomial takes it.

    Each term c Y^e is lifted once, to Y^(e + a 1) z^a, a = max(0, -min e),
    that is multiplied by (z Y1 ... Yn)^a, which is 1 mod z Y1 ... Yn - 1:
    for P^n the generators are Y_i - q z.  Generator i takes c e_i there; a
    product that is 0, which only F_p makes, is dropped."""
    n, fld = W.ring.nvars, W.ring.field
    ring = RingContext(W.ring.variables + ("z",), fld, "grevlex")
    lifted = []  # (lifted exponents, exponents, coefficient) of each term
    for e, c in W.terms.items():
        a = -min((0,) + e)
        lifted.append((tuple([x + a for x in e]) + (a,), e, c))
    gens = []
    for i in range(n):
        terms = {}
        for t, e, c in lifted:
            product = fld.mul(c, e[i])
            if product:
                terms[t] = product
        gens.append([(0, terms)] if terms else [])
    gens.append([(0, {(1,) * (n + 1): fld.one, (0,) * (n + 1): fld.neg(fld.one)})])
    w = {t: c for t, _, c in lifted}
    return groebner._basis(gens, ring, 1, None, False), [[(0, w)] if w else []]


def critical_ideal(w_spec, params=None) -> groebner.GroebnerBasis:
    """Basis of the critical ideal on the torus, in k[Y1..Yn, z] (grevlex)
    for the field k of the potential."""
    return _critical_basis(_substituted_w(w_spec, params))[0]


def critical_count(w_spec, params=None) -> int:
    """Number of torus critical points counted with multiplicity."""
    gb = critical_ideal(w_spec, params)
    dim = groebner.quotient_dim(gb)
    if dim is groebner.INFINITE:
        raise InfiniteCriticalLocus("critical locus is not zero-dimensional")
    return dim


class CriticalReport:
    """count, the monic eliminant of the critical values, and squarefreeness."""

    __slots__ = ("count", "value_polynomial", "distinct_values")

    def __init__(self, count, value_polynomial, distinct_values):
        self.count = count
        self.value_polynomial = value_polynomial
        self.distinct_values = distinct_values

    def __repr__(self):
        return "CriticalReport(count=%d, values=%s, distinct=%s)" % (
            self.count, self.value_polynomial, self.distinct_values)


def critical_values(w_spec, params=None) -> CriticalReport:
    """Critical count and minimal polynomial of the value function.

    Both are read in the algebra of critical_ideal, k[Y1..Yn, z]/I: the
    count is its number of standard monomials (InfiniteCriticalLocus when
    they are infinite).  W is lifted as the generators are (_critical_basis),
    so it is W in the algebra; the eliminant, over k, is the monic minimal
    polynomial of multiplication by it, and the values are distinct when
    it has no repeated factor.
    """
    W = _substituted_w(w_spec, params)
    gb, w = _critical_basis(W)
    count, coefficients = groebner._minimal_polynomial(w, gb)
    if count is groebner.INFINITE:
        raise InfiniteCriticalLocus("critical locus is not zero-dimensional")
    fld = W.ring.field
    value_poly = Polynomial(RingContext(("w",), fld, "lex"),
                            {(k,): c for k, c in enumerate(coefficients)})
    return CriticalReport(count, value_poly, _is_squarefree(coefficients, fld))


def fiber_cardinality(w_spec, params=None, value=0) -> int:
    """Distinct closed points of the fiber of a one-variable superpotential.

    The value must be non-critical; roots off the torus (at Y = 0) do not
    count.  Let g be Y^s (W - value) with its roots at 0 stripped, over the
    field of W.  At a root Y0 != 0 of g, W'(Y0) = g'(Y0) Y0^e for an integer
    e, so the value is critical exactly when gcd(g, g') is not constant;
    otherwise the fiber has deg g points.
    """
    value = _exact_rational(value, "fiber value")
    W = _substituted_w(w_spec, params)
    if W.ring.nvars != 1:
        raise ValueError("fiber counting is implemented for one variable only")
    if W.log_derivative(0).is_zero:
        raise InfiniteCriticalLocus("critical locus is not zero-dimensional")
    fld = W.ring.field
    terms = (W - LaurentPolynomial(W.ring, {(0,): fld.coerce(value)})).terms
    low, high = min(terms)[0], max(terms)[0]
    g = [terms.get((k,), fld.zero) for k in range(low, high + 1)]
    if not _is_squarefree(g, fld):
        raise CriticalValueError("%s is a critical value" % value)
    return high - low


# ---------------------------------------------------------------------------
# built-in fans
# ---------------------------------------------------------------------------

def projective_space(n: int) -> ToricSpec:
    """The fan of P^n: unit rays plus the anti-diagonal, one relation."""
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append(tuple([-1] * n))
    relation = (tuple([1] * (n + 1)), "q")
    return ToricSpec(n, rays, [relation], tuple(range(n)))


def hirzebruch_one() -> ToricSpec:
    """The blow-up of P^2 at a point (the Hirzebruch surface F1)."""
    rays = [(1, 0), (0, 1), (-1, -1), (0, -1)]
    relations = [((1, 1, 1, 0), "t"), ((0, 1, 0, 1), "s")]
    return ToricSpec(2, rays, relations, (0, 1))


def del_pezzo_six() -> ToricSpec:
    """The smooth del Pezzo surface of degree 6 (hexagonal fan)."""
    rays = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]
    relations = [
        ((-1, -1, 1, 0, 0, 0), None),
        ((1, 0, 0, 1, 0, 0), "r"),
        ((0, 1, 0, 0, 1, 0), "s"),
        ((1, 1, 0, 0, 0, 1), "t"),
    ]
    return ToricSpec(2, rays, relations, (0, 1))


PRESETS = {
    "P1": lambda: projective_space(1),
    "P2": lambda: projective_space(2),
    "P3": lambda: projective_space(3),
    "F1": hirzebruch_one,
    "dP6": del_pezzo_six,
}


def preset(name: str) -> ToricSpec:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError("unknown preset %s (have: %s)"
                       % (quoted(name), ", ".join(sorted(PRESETS)))) from None
    return factory()
