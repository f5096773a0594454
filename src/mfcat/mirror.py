"""Hori-Vafa superpotentials from toric fans, with exact critical data.

A fan is given by its rays, a distinguished unimodular basis among them,
and integer relations sum_i a_i T_i = t_j between the ray coordinates
(one per Kaehler parameter; a relation may also carry no parameter).
Writing Y_k = e^(-T_basis_k) and q_j = e^(-t_j), each ray gives one
Laurent term: its Y-exponents are its integer coordinates in the
unimodular basis, and a non-basis ray's q-exponents are a row of the
inverse of the relations restricted to the non-basis rays.

Critical points on the algebraic torus are counted through the ideal
I = (Y_i dW/dY_i, z Y_1 ... Y_n - 1) of Q[Y, z] (Cox-Little-O'Shea, Ideals,
Varieties, and Algorithms, 4.2), each Laurent term Y^e written as
Y^(e + a 1) z^a, a = max(0, -min e).  That is Y^e (z Y_1 ... Y_n)^a, and
(z Y_1 ... Y_n)^a = 1 modulo the localizer, which I contains; so I is the
full preimage of the Laurent critical ideal, whatever the lift.  Critical
values come from the minimal polynomial of multiplication by the lifted W
(groebner.minimal_polynomial).
"""

from __future__ import annotations

from fractions import Fraction

from .poly import (Polynomial, LaurentPolynomial, RingContext, QQ,
                   PolyError, quoted, univariate_gcd)
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

    __slots__ = ("toric", "ring", "y_names", "param_names", "param_vars", "w", "ray_terms")

    def __init__(self, toric, ring, y_names, param_names, param_vars, w, ray_terms):
        self.toric = toric
        self.ring = ring
        self.y_names = tuple(y_names)
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
        target = RingContext(self.y_names, QQ, "grevlex")
        return self.w.substitute(values, target)

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


def _on_torus(W, ring) -> Polynomial:
    """W in ring, each term Y^e as Y^(e + a 1) z^a, a = max(0, -min e): one-to-one on terms."""
    out = {}
    for e, c in W.terms.items():
        a = -min((0,) + e)
        out[tuple(x + a for x in e) + (a,)] = QQ.coerce(c)
    return Polynomial(ring, out)


def _critical_basis(W) -> groebner.GroebnerBasis:
    """Basis of Y_i dW/dY_i and z Y1 ... Yn - 1 in Q[Y1..Yn, z] (grevlex).

    Each term is lifted by _on_torus, that is multiplied by (z Y1 ... Yn)^a,
    which is 1 mod z Y1 ... Yn - 1: for P^n the generators are Y_i - q z."""
    n = W.ring.nvars
    ring = RingContext(W.ring.variables + ("z",), QQ, "grevlex")
    gens = [_on_torus(W.log_derivative(i), ring) for i in range(n)]
    gens.append(Polynomial(ring, {(1,) * (n + 1): QQ.one, (0,) * (n + 1): -QQ.one}))
    return groebner.buchberger(gens, ring)


def critical_ideal(w_spec, params=None) -> groebner.GroebnerBasis:
    """Basis of the critical ideal on the torus, in Q[Y1..Yn, z] (grevlex)."""
    return _critical_basis(_substituted_w(w_spec, params))


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

    Both are read in the algebra of critical_ideal, Q[Y1..Yn, z]/I: the
    count is its number of standard monomials (InfiniteCriticalLocus when
    they are infinite).  W is lifted as the generators are (_on_torus), so
    it is W in the algebra; the eliminant is the monic minimal polynomial
    of multiplication by it.
    """
    W = _substituted_w(w_spec, params)
    gb = _critical_basis(W)
    count, coefficients = groebner.minimal_polynomial(_on_torus(W, gb.ring), gb)
    if count is groebner.INFINITE:
        raise InfiniteCriticalLocus("critical locus is not zero-dimensional")
    wring = RingContext(("w",), QQ, "lex")
    value_poly = Polynomial(wring, {(k,): c for k, c in enumerate(coefficients)})
    distinct = univariate_gcd(value_poly, value_poly.derivative(0)).total_degree() == 0
    return CriticalReport(count, value_poly, distinct)


def fiber_cardinality(w_spec, params=None, value=0) -> int:
    """Distinct closed points of the fiber of a one-variable superpotential.

    The value must be non-critical; roots off the torus (at Y = 0) do not
    count.  Let g be Y^s (W - value) with its roots at 0 stripped.  At a
    root Y0 != 0 of g, W'(Y0) = g'(Y0) Y0^e for an integer e, so the value
    is critical exactly when gcd(g, g') is not constant; otherwise the
    fiber has deg g points.
    """
    value = _exact_rational(value, "fiber value")
    W = _substituted_w(w_spec, params)
    if W.ring.nvars != 1:
        raise ValueError("fiber counting is implemented for one variable only")
    if W.log_derivative(0).is_zero:
        raise InfiniteCriticalLocus("critical locus is not zero-dimensional")
    shifted = W - LaurentPolynomial(W.ring, {(0,): QQ.coerce(value)})
    f, _ = shifted.clear_denominators()
    drop = min(e[0] for e in f.terms)
    g = Polynomial(f.ring, {(e[0] - drop,): c for e, c in f.terms.items()})
    if univariate_gcd(g, g.derivative(0)).total_degree() > 0:
        raise CriticalValueError("%s is a critical value" % value)
    return g.total_degree()


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
