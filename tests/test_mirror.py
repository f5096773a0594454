import random
from fractions import Fraction

import pytest

from mfcat import groebner, mirror
from mfcat.matrix import RowEchelon
from mfcat.poly import (QQ, LaurentPolynomial, Polynomial, PolyError, PrimeField, RingContext,
                        integer_multiple, parse_laurent, univariate_gcd)
from mfcat.mirror import (
    ToricSpec, build_superpotential, critical_ideal, critical_count,
    critical_values, fiber_cardinality, preset, projective_space, PRESETS,
    NonUnimodularBasis, UnresolvableRay, MissingParameter,
    InfiniteCriticalLocus, CriticalValueError,
)


def test_preset_superpotentials_are_verbatim():
    expected = {
        "P1": "Y1 + Y1^-1*q",
        "P2": "Y1 + Y2 + Y1^-1*Y2^-1*q",
        "P3": "Y1 + Y2 + Y3 + Y1^-1*Y2^-1*Y3^-1*q",
        "F1": "Y1 + Y2 + Y2^-1*q_s + Y1^-1*Y2^-1*q_t",
        "dP6": "Y1*Y2 + Y1 + Y2 + Y1^-1*q_r + Y2^-1*q_s + Y1^-1*Y2^-1*q_t",
    }
    for name, wanted in expected.items():
        built = build_superpotential(preset(name))
        assert str(built.w) == wanted, name
        assert len(built.ray_terms) == len(preset(name).rays)


def test_critical_counts_at_unit_parameters():
    expected = {"P1": 2, "P2": 3, "F1": 4, "dP6": 6}
    for name, count in expected.items():
        built = build_superpotential(preset(name))
        params = {p: 1 for p in built.param_names}
        assert critical_count(built, params) == count, name


def test_critical_counts_at_random_positive_rationals():
    rng = random.Random(23)
    expected = {"P1": 2, "P2": 3, "F1": 4, "dP6": 6}
    for trial in range(3):
        for name, count in expected.items():
            built = build_superpotential(preset(name))
            params = {p: Fraction(rng.randint(1, 12), rng.randint(1, 12))
                      for p in built.param_names}
            assert critical_count(built, params) == count, (name, params)


def test_p1_critical_ideal_reduces_to_two_points():
    built = build_superpotential(preset("P1"))
    gb = critical_ideal(built, {"q": 1})
    # reduced basis, leads sorted descending: z^2 then Y1
    assert [str(g) for g in gb.generators] == ["z^2 - 1", "Y1 - z"]


def test_p1_critical_values():
    built = build_superpotential(preset("P1"))
    for q in (Fraction(1), Fraction(4), Fraction(9, 4)):
        report = critical_values(built, {"q": q})
        assert report.count == 2
        assert report.distinct_values
        w = report.value_polynomial.ring.variable("w")
        assert report.value_polynomial == w**2 - report.value_polynomial.ring.constant(4 * q)


def test_p2_values_are_distinct_cube_roots():
    built = build_superpotential(preset("P2"))
    report = critical_values(built, {"q": 1})
    assert report.count == 3
    assert report.value_polynomial.total_degree() == 3
    assert report.distinct_values


def test_fiber_cardinality_p1():
    built = build_superpotential(preset("P1"))
    assert fiber_cardinality(built, {"q": 1}, 0) == 2
    assert fiber_cardinality(built, {"q": 1}, 5) == 2
    with pytest.raises(CriticalValueError):
        fiber_cardinality(built, {"q": 1}, 2)  # 2 = W(1) is critical


def test_parameter_validation():
    built = build_superpotential(preset("F1"))
    with pytest.raises(MissingParameter):
        built.substituted({"t": 1})  # s missing
    with pytest.raises(MissingParameter):
        built.substituted({"t": 1, "s": 1, "extra": 2})
    with pytest.raises(ValueError):
        built.substituted({"t": 1, "s": -1})


def test_relation_consistency_checks():
    with pytest.raises(NonUnimodularBasis):
        ToricSpec(1, [(2,), (-2,)], [((1, 1), "q")], (0,))
    with pytest.raises(UnresolvableRay):
        # (1, 2) is not a relation among the rays
        ToricSpec(1, [(1,), (-1,)], [((1, 2), "q")], (0,))
    with pytest.raises(UnresolvableRay):
        # too few relations to pin the extra ray down
        build_superpotential(ToricSpec(2, [(1, 0), (0, 1), (-1, -1)], [], (0, 1)))
    with pytest.raises(UnresolvableRay):
        # half-integral solution: the non-basis ray needs q^(1/2)
        spec = ToricSpec(1, [(1,), (-1,)], [((2, 2), "q")], (0,))
        build_superpotential(spec)
    with pytest.raises(ValueError):
        ToricSpec(1, [(1,), (1,)], [((1, -1), "q")], (0,))  # duplicate rays


def test_basis_choice_does_not_change_the_count():
    # same P2 fan, rays listed in a different order and another unimodular basis
    spec = ToricSpec(2, [(-1, -1), (0, 1), (1, 0)], [((1, 1, 1), "q")], (1, 2))
    built = build_superpotential(spec)
    assert critical_count(built, {"q": 1}) == 3
    other = ToricSpec(2, [(-1, -1), (0, 1), (1, 0)], [((1, 1, 1), "q")], (0, 1))
    assert critical_count(build_superpotential(other), {"q": 1}) == 3


def test_bare_laurent_input_and_infinite_locus():
    R = RingContext(("Y1", "Y2"), QQ)
    w = parse_laurent(R, "Y1 + Y1^-1")
    with pytest.raises(InfiniteCriticalLocus):
        critical_count(w)  # independent of Y2: a whole curve of critical points
    R1 = RingContext(("Y1",), QQ)
    w1 = parse_laurent(R1, "Y1 + Y1^-1")
    assert critical_count(w1) == 2
    with pytest.raises(MissingParameter):
        critical_count(w1, {"q": 1})  # bare potentials take no parameters


def test_value_count_matches_critical_count_on_every_preset():
    rng = random.Random(29)
    for name in sorted(PRESETS):
        built = build_superpotential(preset(name))
        for params in ({p: 1 for p in built.param_names},
                       {p: Fraction(rng.randint(1, 12), rng.randint(1, 12))
                        for p in built.param_names}):
            assert critical_values(built, params).count == critical_count(built, params), \
                (name, params)


def test_critical_values_reduce_few_s_pairs(monkeypatch):
    # Without the Gebauer-Moeller pair criteria these counts were
    # P1 19, P2 55, P3 126, F1 92 and dP6 171; with them 8, 13, 19, 20, 41
    # while W was adjoined as a variable w; in the critical ideal's own
    # algebra 3, 7, 12, 12, 18 with each generator cleared by its least
    # monomial; with each term lifted on its own (Y_i - q z for P^n) they
    # are 1, 1, 1, 2, 12.
    bounds = {"P1": 1, "P2": 1, "P3": 1, "F1": 2, "dP6": 12}
    reductions = [0]
    original = groebner._s_remainder

    def counted(*args):
        reductions[0] += 1
        return original(*args)
    monkeypatch.setattr(groebner, "_s_remainder", counted)
    for name, bound in bounds.items():
        built = build_superpotential(preset(name))
        reductions[0] = 0
        critical_values(built, {p: 1 for p in built.param_names})
        assert reductions[0] <= bound, (name, reductions[0])


def test_fiber_criticality_matches_the_eliminant():
    # fiber_cardinality decides criticality by gcd(g, g'); the reference is
    # the eliminant of critical_values vanishing at the value
    rng = random.Random(41)
    p1 = build_superpotential(preset("P1"))
    cases = []
    for _ in range(12):
        r = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        other = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
        cases += [(p1, {"q": r * r}, v) for v in (2 * r, -2 * r, r, 0, other)]
    R1 = RingContext(("Y1",), QQ)
    for text in ("Y1^3 - 3*Y1", "Y1^2 + 2*Y1 + Y1^-1", "Y1^-2 + Y1^-1", "Y1^2 - 2*Y1 + 1"):
        w = parse_laurent(R1, text)
        cases += [(w, None, Fraction(v, 4)) for v in range(-9, 10)]
    critical = 0
    for w, params, v in cases:
        if critical_values(w, params).value_polynomial.evaluate([v]) == 0:
            critical += 1
            with pytest.raises(CriticalValueError, match="^%s is a critical value$" % v):
                fiber_cardinality(w, params, v)
        else:
            assert fiber_cardinality(w, params, v) >= 0
    # +-2r for each P1 draw, +-2 for Y^3 - 3Y, -1/4 for Y^-2 + Y^-1, 0 for (Y - 1)^2
    assert critical == 2 * 12 + 2 + 1 + 1
    constant = parse_laurent(R1, "5")
    for call in (lambda: critical_values(constant), lambda: fiber_cardinality(constant, None, 5),
                 lambda: fiber_cardinality(constant, None, 1)):
        with pytest.raises(InfiniteCriticalLocus, match="not zero-dimensional"):
            call()


def test_values_of_a_curve_of_critical_points_are_refused():
    R = RingContext(("Y1", "Y2"), QQ)
    with pytest.raises(InfiniteCriticalLocus, match="not zero-dimensional"):
        critical_values(parse_laurent(R, "Y1 + Y1^-1"))


def test_multiplicity_is_counted():
    # Y + 1/Y - 2 has a double critical point at Y = 1 shifted into the potential:
    # (Y - 1)^3 / Y^2-style degeneration obtained by adding a linear term
    R1 = RingContext(("Y1",), QQ)
    w = parse_laurent(R1, "Y1 + Y1^-2")
    # Y dW/dY = Y - 2 Y^-2 -> cleared Y^3 - 2: three simple critical points
    assert critical_count(w) == 3
    report = critical_values(w)
    assert report.count == 3
    assert report.value_polynomial.total_degree() <= 3


def test_unit_critical_ideal_means_no_points():
    R1 = RingContext(("Y1",), QQ)
    w = parse_laurent(R1, "Y1")
    assert critical_count(w) == 0
    report = critical_values(w)
    assert report.count == 0
    assert report.value_polynomial.total_degree() == 0


def test_preset_table():
    assert set(PRESETS) == {"P1", "P2", "P3", "F1", "dP6"}
    with pytest.raises(KeyError):
        preset("P4")


@pytest.mark.parametrize("bad", [0.1, "1e2", "1", True, None, 1.0])
def test_parameters_and_fiber_values_must_be_exact(bad):
    # Fraction(...) read 0.1 as 3602879701896397/36028797018963968 and "1e2" as 100
    built = build_superpotential(preset("P1"))
    with pytest.raises(TypeError):
        built.substituted({"q": bad})
    with pytest.raises(TypeError):
        critical_count(built, {"q": bad})
    with pytest.raises(TypeError):
        fiber_cardinality(built, {"q": 1}, bad)


@pytest.mark.parametrize("rays, relations, basis", [
    ([(1.7,), (-1,)], [((1, 1), "q")], (0,)),  # int() truncated this to 1
    ([(1,), (-1.0,)], [((1, 1), "q")], (0,)),
    ([(True,), (-1,)], [((1, 1), "q")], (0,)),
    ([(1,), (-1,)], [((1.0, 1), "q")], (0,)),
    ([(1,), (-1,)], [((1, Fraction(1)), "q")], (0,)),
    ([(1,), (-1,)], [(("1", 1), "q")], (0,)),
    ([(1,), (-1,)], [((1, 1), "q")], (0.0,)),
    ([(1,), (-1,)], [((1, 1), "q")], (False,)),
])
def test_toric_spec_refuses_non_integers(rays, relations, basis):
    with pytest.raises(TypeError):
        ToricSpec(1, rays, relations, basis)


# ---------------------------------------------------------------------------
# references for the mirror rewrite: critical values through an adjoined
# variable w, the superpotential by an augmented elimination, and _det
# ---------------------------------------------------------------------------

def _adjoined_w_values(W):
    """(count, eliminant, distinct) in k[Y, z, w]/(I + (w Y^s - num W)), k
    the field of W."""
    n, fld = W.ring.nvars, W.ring.field
    ring = RingContext(W.ring.variables + ("z", "w"), fld, "grevlex")
    index_map = [ring.var_index(v) for v in W.ring.variables]
    gens = [W.log_derivative(i).clear_denominators()[0].extend(ring, index_map)
            for i in range(n)]
    gens.append(Polynomial(ring, {(1,) * (n + 1) + (0,): ring.field.one}) - ring.one())
    numerator, shifts = W.clear_denominators()
    wvar = ring.variable("w")
    gens.append(wvar * Polynomial(ring, {tuple(shifts) + (0, 0): ring.field.one})
                - numerator.extend(ring, index_map))
    gb = groebner.buchberger(gens, ring)
    sm = groebner.standard_monomials(gb)
    if sm is groebner.INFINITE:
        raise InfiniteCriticalLocus("critical locus is not zero-dimensional")
    count = len(sm)
    coord = {exps: i for i, (_, exps) in enumerate(sm)}
    echelon = RowEchelon(fld)
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
    wring = RingContext(("w",), fld, "lex")
    value_poly = Polynomial(wring, {(c - count,): fld.from_scaled(v, lead)
                                    for c, v in relation.items()})
    distinct = univariate_gcd(value_poly, value_poly.derivative(0)).total_degree() == 0
    return count, value_poly, distinct


def _fan(name):
    return projective_space(4) if name == "P4" else preset(name)


def test_critical_values_match_the_adjoined_w_reference():
    rng = random.Random(53)
    cases = []
    for name in ("P1", "P2", "P3", "P4", "F1", "dP6"):
        built = build_superpotential(_fan(name))
        for _ in range(2):
            params = {p: Fraction(rng.randint(1, 12), rng.randint(1, 12))
                      for p in built.param_names}
            cases.append((built, params))
    R1, R2 = RingContext(("Y1",), QQ), RingContext(("Y1", "Y2"), QQ)
    for ring, text in ((R1, "Y1 + Y1^-2"), (R1, "Y1^-2 + Y1^-1"), (R1, "Y1^-3 - 2/3*Y1^2 + Y1"),
                       (R1, "Y1^3 - 3*Y1"), (R1, "Y1"), (R2, "Y1 + Y2 + 3*Y1^-2*Y2^-1 - Y2^-2"),
                       (R2, "Y1^2*Y2^-1 + Y2 + Y1^-1"), (R2, "Y1*Y2 + Y1^-1 + 1/2*Y2^-3")):
        cases.append((parse_laurent(ring, text), None))
    for w_spec, params in cases:
        report = critical_values(w_spec, params)
        W = mirror._substituted_w(w_spec, params)
        assert (report.count, report.value_polynomial, report.distinct_values) \
            == _adjoined_w_values(W), (W, params)
        assert report.value_polynomial.ring.variables == ("w",)
    for ring, text in ((R1, "5"), (R2, "Y1 + Y1^-1"), (R2, "Y1*Y2 + Y1^-1*Y2^-1")):
        for values in (critical_values, _adjoined_w_values):
            with pytest.raises(InfiniteCriticalLocus, match="not zero-dimensional"):
                values(parse_laurent(ring, text))


def _bare_potentials():
    R1, R2 = RingContext(("Y1",), QQ), RingContext(("Y1", "Y2"), QQ)
    return [parse_laurent(ring, text) for ring, text in (
        (R1, "Y1 + Y1^-2"), (R1, "Y1^-2 + Y1^-1"), (R1, "Y1^-3 - 2/3*Y1^2 + Y1"),
        (R1, "Y1^3 - 3*Y1"), (R1, "Y1"), (R1, "5"), (R1, "Y1 + Y1^-1"), (R1, "Y1^2 - 2*Y1 + 1"),
        (R2, "Y1 + Y2 + 3*Y1^-2*Y2^-1 - Y2^-2"), (R2, "Y1^2*Y2^-1 + Y2 + Y1^-1"),
        (R2, "Y1*Y2 + Y1^-1 + 1/2*Y2^-3"), (R2, "Y1 + Y1^-1"), (R2, "Y1*Y2 + Y1^-1*Y2^-1"))]


def _three_step_basis(W):
    # the construction before the term-by-term lift: each Y_i dW/dY_i cleared
    # by its own least monomial (log_derivative -> clear_denominators -> extend)
    n = W.ring.nvars
    ring = RingContext(W.ring.variables + ("z",), QQ, "grevlex")
    gens = [W.log_derivative(i).clear_denominators()[0].extend(ring) for i in range(n)]
    gens.append(Polynomial(ring, {(1,) * (n + 1): ring.field.one}) - ring.one())
    return groebner.buchberger(gens, ring)


def _lift(e):
    a = max([0] + [-x for x in e])
    return tuple(x + a for x in e) + (a,)


def test_critical_generators_are_lifted_term_by_term_to_the_same_basis(monkeypatch):
    # each term c Y^e of Y_i dW/dY_i becomes c Y^(e + a 1) z^a, a = max(0, -min e);
    # that is the term times (z Y1 ... Yn)^a = 1 mod the localizer, so the
    # reduced basis is the one the cleared generators give, in fewer S-pairs.
    # The generators reach the kernel as sparse vectors, through groebner._basis.
    reductions = [0]
    seen = []
    original, basis = groebner._s_remainder, groebner._basis

    def counted(*args):
        reductions[0] += 1
        return original(*args)

    def recorded(sparse, ring, rank, ambient_rank, track):
        seen.append((sparse, ring))
        return basis(sparse, ring, rank, ambient_rank, track)
    rng = random.Random(59)
    potentials = _bare_potentials()
    for name in sorted(PRESETS) + ["P4"]:
        built = build_superpotential(_fan(name))
        potentials.append(built.substituted({p: 1 for p in built.param_names}))
        for _ in range(2):
            potentials.append(built.substituted({p: Fraction(rng.randint(1, 12), rng.randint(1, 12))
                                                 for p in built.param_names}))
    reference = [_three_step_basis(W) for W in potentials]
    monkeypatch.setattr(groebner, "_basis", recorded)
    for W, old in zip(potentials, reference):
        del seen[:]
        gb = mirror.critical_ideal(W)
        [(gens, ring)] = seen
        n = W.ring.nvars
        lifted = [[(_lift(e), c * e[i]) for e, c in W.terms.items() if e[i]] for i in range(n)]
        lifted.append([((1,) * (n + 1), 1), ((0,) * (n + 1), -1)])
        assert all(pos == 0 for vec in gens for pos, _ in vec)
        assert [[t for _, terms in vec for t in terms.items()] for vec in gens] == lifted, W
        assert gb.ring is ring and ring.variables == W.ring.variables + ("z",)
        assert [g.terms for g in gb.generators] == [g.terms for g in old.generators], W
    p2 = build_superpotential(preset("P2"))
    del seen[:]
    critical_ideal(p2, {"q": 2})
    [(gens, ring)] = seen
    assert [str(Polynomial(ring, terms)) for [(_, terms)] in gens] \
        == ["Y1 - 2*z", "Y2 - 2*z", "Y1*Y2*z - 1"]
    monkeypatch.setattr(groebner, "_s_remainder", counted)
    counts = {}
    for name in ("P1", "P2", "P3", "P4", "F1", "dP6"):
        built = build_superpotential(_fan(name))
        reductions[0] = 0
        critical_values(built, {p: 1 for p in built.param_names})
        counts[name] = reductions[0]
    assert counts == {"P1": 1, "P2": 1, "P3": 1, "P4": 1, "F1": 2, "dP6": 12}


def _reduced(W, fld):
    return LaurentPolynomial(RingContext(W.ring.variables, fld),
                             {e: fld.coerce(c) for e, c in W.terms.items()})


def _critical_answer(W):
    try:
        report = critical_values(W)
    except InfiniteCriticalLocus as exc:
        return str(exc)
    return report.count, report.value_polynomial


# Where p divides what the rational answer needs, reduction mod p and the
# F_p answer part: over F_7 two of the nine critical values of the first
# potential meet, and the values of the second, all 7-adically divisible,
# become 0 (its eliminant over Q is w^7 - 7^7/1458).  There the eliminant
# over F_p is a proper divisor of the rational one mod p.
_BAD_REDUCTION = {7: {"Y1 + Y2 - Y2^-2 + 3*Y1^-2*Y2^-1", "Y1*Y2 + Y1^-1 + 1/2*Y2^-3"}}


@pytest.mark.parametrize("p", [7, 32749])
def test_critical_data_over_f_p_are_the_rational_ones_mod_p(p):
    # the torus ring and the value ring are built over W's own field: an
    # F_p residue used to be read as a rational, so Y + Y^-1 over F_7 gave
    # w^2 + 25/6 over Q (-1 read as 6)
    fld = PrimeField(p)
    wring = RingContext(("w",), fld, "lex")
    potentials = _bare_potentials()
    for name in ("P1", "P2", "P3", "P4", "F1", "dP6"):
        built = build_superpotential(_fan(name))
        potentials.append(built.substituted({q: 1 for q in built.param_names}))
    for W in potentials:
        over_q, over_p = _critical_answer(W), _critical_answer(_reduced(W, fld))
        if isinstance(over_q, str):
            assert over_p == over_q, W
            continue
        count, eliminant = over_q
        reduced = Polynomial(wring, {e: fld.coerce(c) for e, c in eliminant.terms.items()})
        assert over_p[0] == count and over_p == _adjoined_w_values(_reduced(W, fld))[:2], W
        if str(W) in _BAD_REDUCTION.get(p, ()):
            assert over_p[1] != reduced and univariate_gcd(over_p[1], reduced) == over_p[1], W
        else:
            assert over_p[1] == reduced, W
        gb = critical_ideal(_reduced(W, fld))
        assert gb.ring.field == fld and all(g.ring.field == fld for g in gb.generators)
        assert critical_count(_reduced(W, fld)) == count
    if p == 7:
        R1, R2 = RingContext(("Y1",), fld), RingContext(("Y1", "Y2"), fld)
        for ring, text, answer in ((R1, "Y1 + Y1^-1", "w^2 + 3"),
                                   (R2, "Y1 + Y2 + Y1^-1*Y2^-1", "w^3 + 1")):
            assert str(critical_values(parse_laurent(ring, text)).value_polynomial) == answer
        dp6 = build_superpotential(preset("dP6"))
        report = critical_values(_reduced(dp6.substituted({q: 1 for q in dp6.param_names}), fld))
        assert str(report.value_polynomial) == "w^3 + 6*w^2 + 4*w + 6"
        # 7 Y^7 = 0 over F_7: Y dW/dY = -Y^-1 is a unit, so no critical point
        w7 = parse_laurent(R1, "Y1^7 + Y1^-1")
        assert critical_count(w7) == 0 and critical_values(w7).count == 0
        assert critical_count(parse_laurent(RingContext(("Y1",), QQ), "Y1^7 + Y1^-1")) == 8
        # the fiber sits over F_7 too: (Y - 1)^2 at the critical value 2
        w = parse_laurent(R1, "Y1 + Y1^-1")
        assert fiber_cardinality(w, None, 0) == 2
        with pytest.raises(CriticalValueError, match="^2 is a critical value$"):
            fiber_cardinality(w, None, 2)


def test_fiber_value_whose_denominator_p_divides_is_refused_over_f_p():
    # 1/7 has no image in F_7; coercing it used to raise a bare
    # ZeroDivisionError ("inverse of 0 mod 7"), now PrimeField.coerce's
    # PolyError
    w = parse_laurent(RingContext(("Y1",), PrimeField(7)), "Y1 + Y1^-1")
    for value, name in ((Fraction(1, 7), "1/7"), (Fraction(-3, 49), "-3/49"),
                        (Fraction(1, 7 * 10 ** 60), "'1/7000000000'... (63 characters)")):
        with pytest.raises(PolyError) as caught:
            fiber_cardinality(w, None, value)
        assert str(caught.value) == "%s is not in F_7: 7 divides its denominator" % name
    assert fiber_cardinality(w, None, Fraction(1, 2)) == 2


def test_critical_values_stay_in_the_kernel(monkeypatch):
    # the powers of W are int term dicts inside groebner.minimal_polynomial:
    # no normal_form call and no Polynomial product on the way
    cases = [(W, None) for W in _bare_potentials()[:5]]
    for name in sorted(PRESETS):
        built = build_superpotential(_fan(name))
        cases.append((built, {p: Fraction(3, 7) for p in built.param_names}))
    expected = [str(critical_values(w_spec, params)) for w_spec, params in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("called from critical_values")
    monkeypatch.setattr(groebner, "normal_form", forbidden)
    monkeypatch.setattr(Polynomial, "__mul__", forbidden)
    assert [str(critical_values(w_spec, params)) for w_spec, params in cases] == expected


def _hull_area_doubled(points):
    """Twice the area of the convex hull of lattice points: Andrew's
    monotone chain, then the shoelace."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]
    hull = half(pts) + half(pts[::-1])
    return abs(sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(hull, hull[1:] + hull[:1])))


def _blown_up_fan(rng):
    """P^2 or P^1 x P^1 blown up 0-4 times, each time inserting a + b
    between adjacent rays a and b; the relations express every other ray
    in a basis of two adjacent rays, one parameter each."""
    rays = rng.choice(([(1, 0), (0, 1), (-1, -1)], [(1, 0), (0, 1), (-1, 0), (0, -1)]))
    for _ in range(rng.randint(0, 4)):
        i = rng.randrange(len(rays))
        a, b = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
    i = rng.randrange(len(rays))
    j = (i + 1) % len(rays)
    (u1, u2), (v1, v2) = rays[i], rays[j]
    det = u1 * v2 - u2 * v1  # +-1: adjacent rays of a smooth fan
    relations = []
    for r, (x, y) in enumerate(rays):
        if r not in (i, j):
            coeffs = [0] * len(rays)
            coeffs[r] = 1
            coeffs[i] = -(x * v2 - y * v1) * det  # the ray is alpha u + beta v
            coeffs[j] = -(u1 * y - u2 * x) * det
            relations.append((tuple(coeffs), "t%d" % r))
    return ToricSpec(2, rays, relations, (i, j))


def test_kouchnirenko_count_on_blown_up_fans():
    # Kouchnirenko: for generic parameters a superpotential whose Newton
    # polygon is conv(rays) has 2 * area(conv(rays)) torus critical points
    rng = random.Random(67)
    not_fano = 0
    for trial in range(60):
        spec = _blown_up_fan(rng)
        built = build_superpotential(spec)
        params = {p: Fraction(rng.randint(1, 12), rng.randint(1, 12)) for p in built.param_names}
        expected = _hull_area_doubled(spec.rays)
        assert critical_count(built, params) == expected, (spec.rays, params)
        report = critical_values(built, params)
        assert report.count == expected
        assert report.value_polynomial.total_degree() <= expected
        if trial % 6 == 0:
            W = built.substituted(params)
            assert (report.count, report.value_polynomial, report.distinct_values) \
                == _adjoined_w_values(W), (spec.rays, params)
        # a ray whose removal keeps the hull is not a vertex: not Fano
        not_fano += any(_hull_area_doubled([q for q in spec.rays if q != r]) == expected
                        for r in spec.rays)
    assert not_fano >= 10, not_fano


def _augmented_superpotential(spec):
    """build_superpotential by Gauss-Jordan on [A_nb | I | -A_b]."""
    n = spec.dimension
    m = len(spec.rays)
    basis = list(spec.basis)
    nonbasis = [i for i in range(m) if i not in basis]
    if len(spec.relations) != m - n:
        raise UnresolvableRay(
            "need %d relations to resolve %d non-basis rays, got %d"
            % (m - n, len(nonbasis), len(spec.relations)))
    y_names = tuple("Y%d" % (k + 1) for k in range(n))
    param_vars = tuple(mirror._param_variable(p) for p in spec.parameter_names)
    ring = RingContext(y_names + param_vars, QQ, "grevlex")
    nrel = len(spec.relations)
    A = [list(coeffs) for coeffs, _ in spec.relations]
    aug = []
    for j in range(nrel):
        rhs = [Fraction(0)] * (nrel + n)
        rhs[j] = Fraction(1)
        for k, b in enumerate(basis):
            rhs[nrel + k] = Fraction(-A[j][b])
        aug.append([Fraction(A[j][r]) for r in nonbasis] + rhs)
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
    named_index = {j: n + param_vars.index(mirror._param_variable(name))
                   for j, (_, name) in enumerate(spec.relations) if name is not None}
    terms, ray_terms = {}, []
    for idx in range(m):
        exps = [0] * ring.nvars
        if idx in basis:
            exps[basis.index(idx)] = 1
        else:
            row = aug[pivot_of[nonbasis.index(idx)]]
            for j in range(nrel):
                coef = row[cols + j]
                if coef == 0 or j not in named_index:
                    continue
                if coef.denominator != 1:
                    raise UnresolvableRay("ray %d needs fractional parameter powers" % idx)
                exps[named_index[j]] += int(coef)
            for k in range(n):
                coef = row[cols + nrel + k]
                if coef.denominator != 1:
                    raise UnresolvableRay("ray %d is not an integer combination" % idx)
                exps[k] += int(coef)
        key = tuple(exps)
        if key in terms:
            raise UnresolvableRay("two rays map to the same Laurent term")
        terms[key] = ring.field.one
        ray_terms.append(LaurentPolynomial(ring, {key: ring.field.one}))
    return LaurentPolynomial(ring, terms), ray_terms


def _seeded_fan(rng):
    """A fan of P1-P4, F1 or dP6 with permuted rays, relations mixed by
    elementary row operations or by a random integer matrix, a fifth of
    the names dropped, one relation in ten missing, and half the time a
    random basis."""
    base = _fan(rng.choice(("P1", "P2", "P3", "P4", "F1", "dP6")))
    m, n = len(base.rays), base.dimension
    perm = rng.sample(range(m), m)
    rays = [base.rays[i] for i in perm]
    rows = [[coeffs[i] for i in perm] for coeffs, _ in base.relations]
    k = len(rows)
    if rng.random() < 0.5:
        for _ in range(rng.randint(0, 4) if k > 1 else 0):
            i, j = rng.sample(range(k), 2)
            c = rng.randint(-2, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    else:
        mix = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        rows = [[sum(mix[i][l] * rows[l][c] for l in range(k)) for c in range(m)]
                for i in range(k)]
    names = [None if rng.random() < 0.2 else p for _, p in base.relations]
    relations = [(tuple(r), p) for r, p in zip(rows, names)]
    if rng.random() < 0.1:
        relations.pop()
    if rng.random() < 0.5:
        basis = tuple(perm.index(b) for b in base.basis)
    else:
        basis = tuple(rng.sample(range(m), n))
    return n, rays, relations, basis


def _built(spec):
    built = build_superpotential(spec)
    return built.w, built.ray_terms


def _outcome(build, spec):
    try:
        w, ray_terms = build(spec)
    except PolyError as exc:
        return type(exc).__name__, str(exc)
    return "built", str(w), [str(t) for t in ray_terms]


def test_superpotential_matches_the_augmented_elimination():
    rng = random.Random(59)
    seen = set()
    for _ in range(240):
        try:
            spec = ToricSpec(*_seeded_fan(rng))
        except NonUnimodularBasis:
            seen.add("non-unimodular")
            continue
        got = _outcome(_built, spec)
        assert got == _outcome(_augmented_superpotential, spec), spec
        seen.add(got[0] if got[0] == "built" else got[1].split()[0])
    # besides a non-unimodular basis, every outcome occurs: built, too few
    # relations ("need"), a singular A_nb ("relations") and fractional
    # parameter powers ("ray")
    assert seen == {"non-unimodular", "built", "need", "relations", "ray"}, seen


def test_every_ray_gives_a_term_of_its_own():
    # a ray's Y-exponents are its coordinates ray B^-1, integers as B is
    # unimodular, and B is invertible, so distinct rays never share a term:
    # W has one term per ray.  The seeded fans are those of tools/answers.py
    # (seed "fans", 240 draws).
    specs = [_fan(name) for name in sorted(PRESETS) + ["P4"]]
    rng = random.Random("fans")
    for _ in range(240):
        try:
            specs.append(ToricSpec(*_seeded_fan(rng)))
        except NonUnimodularBasis:
            pass
    built = 0
    for spec in specs:
        try:
            superpotential = build_superpotential(spec)
        except UnresolvableRay:
            continue
        n = spec.dimension
        basis = [spec.rays[b] for b in spec.basis]
        for ray, term in zip(spec.rays, superpotential.ray_terms):
            (exps,) = term.terms
            assert tuple(sum(e * row[j] for e, row in zip(exps[:n], basis))
                         for j in range(n)) == ray, spec
        assert len(superpotential.w.terms) == len(spec.rays), spec
        built += 1
    assert built >= 100


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


def test_inverse_matches_det_and_inverts():
    rng = random.Random(61)
    singular = 0
    for _ in range(300):
        n = rng.randint(0, 5)
        rows = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
        det, inverse = mirror._inverse(rows)
        assert det == _det(rows), rows
        if det == 0:
            singular += 1
            assert inverse is None
            continue
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)]
                for row in rows] == identity, rows
    assert 50 <= singular <= 250, singular
