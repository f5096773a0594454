"""Hori-Vafa superpotentials from toric fans, with exact critical data.

A fan is given by its rays, a distinguished unimodular basis among them,
and integer relations sum_i a_i T_i = t_j between the ray coordinates
(one per Kaehler parameter; a relation may also carry no parameter).
Writing Y_k = e^(-T_basis_k) and q_j = e^(-t_j), every non-basis ray is
rewritten through the relations, producing one Laurent term per ray.

Critical points on the algebraic torus are counted through the ideal
generated by the cleared logarithmic derivatives Y_i dW/dY_i together
with the torus localizer z Y_1 ... Y_n - 1.  Critical values come from
the minimal polynomial of multiplication by w = W on the quotient
algebra, found by linear algebra over its grevlex standard monomials.
"""

from __future__ import annotations

from fractions import Fraction

from .matrix import RowEchelon
from .poly import (Polynomial, LaurentPolynomial, RingContext, QQ,
                   PolyError, integer_multiple, univariate_gcd)
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


def _det(rows):
    """Exact determinant of a square integer matrix."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


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
        det = _det([rays[b] for b in basis])
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
            raise MissingParameter("unknown parameter(s): %s" % sorted(extra))
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

    # Solve A_nb u = rhs for the non-basis ray coordinates, where
    # rhs_j = t_j - sum_k A[j][basis_k] T_basis_k.  Columns of the answer
    # are tracked symbolically over (t_j) and (T_basis_k).
    nrel = len(spec.relations)
    A = [list(coeffs) for coeffs, _ in spec.relations]
    aug = []
    for j in range(nrel):
        row = [Fraction(A[j][r]) for r in nonbasis]
        rhs = [Fraction(0)] * (nrel + n)
        rhs[j] = Fraction(1)  # stands for t_j (zero contribution if unnamed)
        for k, b in enumerate(basis):
            rhs[nrel + k] = Fraction(-A[j][b])  # stands for T_basis_k
        aug.append(row + rhs)
    # exact Gauss-Jordan on the left block
    cols = len(nonbasis)
    pivot_of = [-1] * cols
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, nrel) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrel):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_of[c] = r
        r += 1
    if r < cols:
        raise UnresolvableRay("relations do not determine every non-basis ray")

    fld = ring.field
    terms = {}
    ray_terms = []
    named_index = {}  # relation index -> param var position
    for j, (_, name) in enumerate(spec.relations):
        if name is not None:
            named_index[j] = n + param_vars.index(_param_variable(name))

    for idx, ray in enumerate(rays):
        exps = [0] * ring.nvars
        if idx in basis:
            exps[basis.index(idx)] = 1
        else:
            c = nonbasis.index(idx)
            row = aug[pivot_of[c]]
            # u = sum_j row[cols+j] t_j + sum_k row[cols+nrel+k] T_basis_k
            for j in range(nrel):
                coef = row[cols + j]
                if coef == 0 or j not in named_index:
                    continue  # unnamed relations contribute e^0 = 1
                if coef.denominator != 1:
                    raise UnresolvableRay("ray %d needs fractional parameter powers" % idx)
                exps[named_index[j]] += int(coef)
            for k in range(n):
                coef = row[cols + nrel + k]
                if coef.denominator != 1:
                    raise UnresolvableRay("ray %d is not an integer combination" % idx)
                # u contains coef * T_basis_k, so e^(-u) contains Y_k^(coef)
                exps[k] += int(coef)
        key = tuple(exps)
        if key in terms:
            raise UnresolvableRay("two rays map to the same Laurent term")
        terms[key] = fld.one
        ray_terms.append(LaurentPolynomial(ring, {key: fld.one}))

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


def _torus_generators(W, extra=()):
    """Cleared Y_i dW/dY_i and z Y1 ... Yn - 1 in Q[Y1..Yn, z, *extra] (grevlex)."""
    n = W.ring.nvars
    ring = RingContext(W.ring.variables + ("z",) + extra, QQ, "grevlex")
    index_map = [ring.var_index(v) for v in W.ring.variables]
    gens = [W.log_derivative(i).clear_denominators()[0].extend(ring, index_map)
            for i in range(n)]
    torus = (1,) * (n + 1) + (0,) * len(extra)
    gens.append(Polynomial(ring, {torus: ring.field.one}) - ring.one())
    return ring, index_map, gens


def critical_ideal(w_spec, params=None) -> groebner.GroebnerBasis:
    """Basis of the critical ideal on the torus, in Q[Y1..Yn, z] (grevlex)."""
    ring, _, gens = _torus_generators(_substituted_w(w_spec, params))
    return groebner.buchberger(gens, ring)

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

    W is adjoined as a new coordinate w through w * denom(W) = num(W).
    denom(W) is a monomial, a unit on the torus, so this quotient algebra
    is isomorphic to that of critical_ideal: the count is its number of
    standard monomials (InfiniteCriticalLocus when they are infinite).
    The monic minimal polynomial of multiplication by w on it is found
    by linear algebra over the standard monomial basis.
    """
    W = _substituted_w(w_spec, params)
    ring, index_map, gens = _torus_generators(W, ("w",))
    numerator, shifts = W.clear_denominators()
    denom = Polynomial(ring, {tuple(shifts) + (0, 0): ring.field.one})
    wvar = ring.variable("w")
    gens.append(wvar * denom - numerator.extend(ring, index_map))
    gb = groebner.buchberger(gens, ring)
    sm = groebner.standard_monomials(gb)
    if sm is groebner.INFINITE:
        raise InfiniteCriticalLocus("critical locus is not zero-dimensional")
    count = len(sm)
    coord = {exps: i for i, (_, exps) in enumerate(sm)}
    # rows D [NF(w^k) coordinates | e_k], D clearing the denominators: the
    # first pivot in the e-columns is the first linear relation among 1, w,
    # ..., w^k, the minimal polynomial up to a factor; divided by its w^k
    # entry it is monic.  count + 1 rows in count coordinates always reach one.
    echelon = RowEchelon(QQ)
    power = ring.one()
    for k in range(count + 1):
        terms, scale = integer_multiple(groebner.normal_form(power, gb).terms)
        row = {coord[e]: c for e, c in terms.items()}
        row[count + k] = scale
        pivot = echelon.insert(row)
        if pivot >= count:
            break
        power = power * wvar
    relation = echelon.pivots[pivot]
    lead = relation[count + k]
    wring = RingContext(("w",), QQ, "lex")
    value_poly = Polynomial(wring, {(c - count,): Fraction(v, lead) for c, v in relation.items()})
    distinct = univariate_gcd(value_poly, value_poly.derivative(0)).total_degree() == 0
    if value_poly.total_degree() > count:
        raise AssertionError("eliminant degree exceeds the critical count")
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
        raise KeyError("unknown preset %r (have: %s)" % (name, ", ".join(sorted(PRESETS)))) from None
    return factory()
