import random
from fractions import Fraction

import pytest

from mfcat.poly import QQ, RingContext, parse_laurent
from mfcat.mirror import (
    ToricSpec, build_superpotential, critical_ideal, critical_count,
    critical_values, fiber_cardinality, preset, PRESETS,
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
    # P1 19, P2 55, P3 126, F1 92 and dP6 171; with them 8, 13, 19, 20, 41.
    from mfcat import groebner
    bounds = {"P1": 10, "P2": 16, "P3": 24, "F1": 24, "dP6": 48}
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
