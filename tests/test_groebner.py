import math
import operator
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mfcat.poly import (
    QQ, PrimeField, LaurentPolynomial, Polynomial, RingContext, RingMismatch, integer_multiple,
    parse_polynomial,
)
from mfcat.matrix import PolyMatrix, RowEchelon
from mfcat.groebner import (
    INFINITE, buchberger, module_groebner, normal_form, module_normal_form,
    ideal_membership, submodule_membership, membership_witness, image_and_syzygies,
    syzygy_basis, syzygy_basis_of_vectors, syzygy_module, standard_monomials,
    quotient_dim, hilbert_slices, quotient_module_dim, subquotient_basis,
    minimal_polynomial, ImageNotInKernel,
)


def ring(*names, **kw):
    return RingContext(tuple(names), kw.get("field", QQ), kw.get("order", "grevlex"))


def P(R, s):
    return parse_polynomial(R, s)


def test_normal_form_single_generator():
    R = ring("x", "y", order="grlex")
    x, y = R.gens()
    gb = buchberger([x**2 - y], R)
    assert normal_form(x**3, gb) == x*y
    assert normal_form(x**2 - y, gb).is_zero


def test_division_uses_the_first_listed_divisor():
    R = ring("x", "y")
    x, y = R.gens()
    assert normal_form(x*y, [x*y - 1, x - y]) == R.one()
    assert normal_form(x*y, [x - y, x*y - 1]) == y**2


def test_membership_in_a_generator_list_is_decided_against_its_basis():
    R = ring("x", "y")
    x, y = R.gens()
    # y is left over by division by x + y and then x, but (x + y, x) = (x, y)
    assert normal_form(y, [x + y, x]) == y
    assert ideal_membership(y, [x + y, x])
    for field in (QQ, PrimeField(32749)):
        rng = random.Random("list-membership/%r" % (field,))
        S = ring("x", "y", "z", field=field)

        def poly(degree, terms):
            out = S.zero()
            for _ in range(terms):
                e = [rng.randint(0, degree) for _ in range(3)]
                c = S.constant(Fraction(rng.randint(-6, 6), rng.randint(1, 9)))
                out = out + c * math.prod(v ** k for v, k in zip(S.gens(), e))
            return out
        undivided = 0
        for _ in range(20):
            gens = [poly(2, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            divisors = gens + [S.zero()]
            rng.shuffle(divisors)
            member = sum((poly(1, 2) * g for g in gens), S.zero())
            assert ideal_membership(member, divisors)
            undivided += not normal_form(member, divisors).is_zero
            f = poly(2, 3)
            assert ideal_membership(f, divisors) == ideal_membership(f, buchberger(gens, S))
        assert undivided  # the draws reach members that list division misses


def test_reduced_basis_is_interreduced():
    R = ring("x", "y")
    x, y = R.gens()
    gb = buchberger([x**2 + y, y], R)
    assert [str(g) for g in gb.generators] == ["x^2", "y"]


def test_coprime_leads_stay_put():
    R = RingContext(("y", "z", "x"), QQ, "lex")
    y, z, x = R.gens()
    gb = buchberger([y - x**2, z - x**3], R)
    assert [str(g) for g in gb.generators] == ["y - x^2", "z - x^3"]


def test_groebner_is_deterministic():
    R = ring("x", "y", "z")
    gens = [P(R, "x^2 + y*z"), P(R, "y^2 - x*z"), P(R, "z^3 - x*y")]
    a = buchberger(gens, R)
    b = buchberger(list(reversed(gens)), R)
    assert [str(g) for g in a.generators] == [str(g) for g in b.generators]


def test_quotient_dimensions():
    R = ring("x", "y")
    x, y = R.gens()
    assert quotient_dim(buchberger([x**2, y**2], R)) == 4
    assert quotient_dim(buchberger([x**3, y**2], R)) == 6
    assert quotient_dim(buchberger([x**2 + y, y], R)) == 2
    assert quotient_dim(buchberger([R.one()], R)) == 0
    assert quotient_dim(buchberger([x*y], R)) is INFINITE


def test_standard_monomials_are_sorted_and_complete():
    R = ring("x", "y")
    x, y = R.gens()
    sm = standard_monomials(buchberger([x**2, y**2], R))
    assert [(pos, exps) for pos, exps in sm] == [
        (0, (0, 0)), (0, (0, 1)), (0, (1, 0)), (0, (1, 1))]


def test_hilbert_slices_count_degrees_exactly():
    R = ring("x", "y")
    x, y = R.gens()
    assert hilbert_slices(buchberger([x*y], R), upto=5) == [1, 2, 2, 2, 2, 2]
    assert hilbert_slices(buchberger([x**2, y**2], R), upto=4) == [1, 2, 1, 0, 0]


def test_ideal_membership_and_witness():
    R = ring("x", "y")
    x, y = R.gens()
    inputs = [x**2 + y, y]
    gb = buchberger(inputs, R, track=True)
    assert ideal_membership(x**2 + y, gb)
    assert ideal_membership(x**2, gb)
    assert not ideal_membership(x, gb)
    w = membership_witness((x**2,), gb)
    assert w is not None
    recomposed = sum((wi * gi for wi, gi in zip(w, inputs)), R.zero())
    assert recomposed == x**2
    assert membership_witness((x,), gb) is None


def test_module_membership():
    R = ring("x", "y")
    x, y = R.gens()
    gb = module_groebner([(x, y)], 2, R)
    assert submodule_membership((x**2, x*y), gb)
    assert not submodule_membership((x, R.zero()), gb)


def test_koszul_syzygy():
    R = ring("x", "y")
    x, y = R.gens()
    syz = syzygy_basis(PolyMatrix.from_rows(R, [[x, y]]))
    assert [(str(a), str(b)) for a, b in syz] == [("y", "-x")]
    # regular sequence: the syzygy module of the syzygy is zero
    assert syzygy_basis_of_vectors(syz, 2, R) == []


def test_three_variable_koszul_relations():
    R = ring("x", "y", "z")
    gens = list(R.gens())
    mat = PolyMatrix.from_rows(R, [gens])
    syz = syzygy_basis(mat)
    assert len(syz) == 3
    for v in syz:
        combo = sum((vi * gi for vi, gi in zip(v, gens)), R.zero())
        assert combo.is_zero


def test_syzygies_annihilate_for_random_inputs():
    rng = random.Random(5)
    R = ring("x", "y")
    x, y = R.gens()

    def rand_poly():
        out = R.zero()
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.randint(-3, 3))
            out = out + R.constant(c) * x**rng.randint(0, 2) * y**rng.randint(0, 2)
        return out

    for _ in range(25):
        vecs = [tuple(rand_poly() for _ in range(2)) for _ in range(3)]
        for v in syzygy_basis_of_vectors(vecs, 2, R):
            total = [R.zero(), R.zero()]
            for coef, vec in zip(v, vecs):
                for i in range(2):
                    total[i] = total[i] + coef * vec[i]
            assert all(t.is_zero for t in total)


def test_quotient_module_dims():
    R = ring("x")
    x, = R.gens()
    one = R.one()
    # A / (x) has dimension 1
    assert quotient_module_dim([(one,)], [(x,)], R, 1) == 1
    # (x) / (x^2) has dimension 1
    assert quotient_module_dim([(x,)], [(x**2,)], R, 1) == 1
    # (x) / (x^3) has dimension 2 with representatives x, x^2
    dim, reps = subquotient_basis([(x,)], [(x**3,)], R, 1)
    assert dim == 2
    assert [str(v[0]) for v in reps] == ["x", "x^2"]


def test_quotient_module_infinite_and_containment():
    R = ring("x", "y")
    x, y = R.gens()
    one, zero = R.one(), R.zero()
    full = [(one, zero), (zero, one)]
    image = [(x, zero), (zero, x)]
    assert quotient_module_dim(full, image, R, 2) is INFINITE
    with pytest.raises(ImageNotInKernel):
        quotient_module_dim([(x,)], [(y,)], R, 1)
    # zero kernel with zero image is fine
    assert quotient_module_dim([], [(zero,)], R, 1) == 0


def _vector_lead(vec, R):
    pos = next(i for i, p in enumerate(vec) if not p.is_zero)
    return pos, max(vec[pos].terms, key=R.key)


def test_subquotient_count_matches_difference_of_quotients():
    # I <= K <= A^N with A^N / I finite, so dim K/I = dim A^N/I - dim A^N/K
    for seed, field in ((41, QQ), (43, PrimeField(32749))):
        rng = random.Random(seed)
        R = RingContext(("x", "y"), field, "grevlex")
        x, y = R.gens()

        def rand_poly():
            out = R.zero()
            for _ in range(rng.randint(1, 3)):
                c = field.coerce(rng.randint(-4, 4))
                out = out + R.constant(c) * x**rng.randint(0, 3) * y**rng.randint(0, 3)
            return out

        for trial in range(12):
            N = 1 + trial % 2
            zero = [R.zero()] * N
            image = []
            for j in range(N):
                for xi in (x, y):
                    unit = list(zero)
                    unit[j] = xi**rng.randint(2, 4)
                    image.append(tuple(unit))
            image += [tuple(rand_poly() * xi for _ in range(N)) for xi in (x, y)]
            kernel = image + [tuple(rand_poly() for _ in range(N))
                              for _ in range(rng.randint(1, 2))]
            I_gb = module_groebner(image, N, R)
            K_gb = module_groebner(kernel, N, R)
            dim, reps = subquotient_basis(kernel, image, R, N)
            assert dim == quotient_dim(I_gb) - quotient_dim(K_gb), (field, trial)
            assert quotient_module_dim(kernel, I_gb, R, N) == dim
            assert len(reps) == dim
            leads = [_vector_lead(v, R) for v in reps]
            assert len(set(leads)) == dim
            I_leads = I_gb.leading_terms()
            for v, (pos, m) in zip(reps, leads):
                assert submodule_membership(v, K_gb)
                assert not any(p == pos and all(a <= b for a, b in zip(l, m))
                               for p, l in I_leads)
            assert leads == sorted(leads, key=lambda t: (t[0], R.key(t[1])))


def test_subquotient_finiteness_follows_the_leads_of_both_modules():
    R = ring("x", "y")
    x, y = R.gens()
    zero = R.zero()
    # I = 0 with K != 0
    assert quotient_module_dim([(x, zero)], [], R, 2) is INFINITE
    assert quotient_module_dim([(x, zero)], [(zero, zero)], R, 2) is INFINITE
    # A / I is infinite (y^t survives) but (x) / (x^2, x y^3) is not
    dim, reps = subquotient_basis([(x,)], [(x**2,), (x*y**3,)], R, 1)
    assert dim == 3
    assert [str(v[0]) for v in reps] == ["x", "x*y", "x*y^2"]
    # the lead y of K = (x, y) rises along y forever outside (x^2, x y)
    assert quotient_module_dim([(x,), (y,)], [(x**2,), (x*y,)], R, 1) is INFINITE
    # a finite count at one position does not hide an infinite one at another
    K = [(x, zero), (zero, y)]
    assert quotient_module_dim(K, [(x**2, zero), (zero, y**2)], R, 2) is INFINITE
    assert quotient_module_dim(K, [(x**2, zero), (x*y, zero), (zero, y**2), (zero, x*y)],
                               R, 2) == 2


def test_rotation_cokernel_is_a_curve():
    # columns of [[x, y], [-y, x]] cut out the plane conic x^2 + y^2
    R = ring("x", "y")
    x, y = R.gens()
    mat = PolyMatrix.from_rows(R, [[x, y], [-y, x]])
    gb = module_groebner(mat.columns(), 2, R)
    gens = [tuple(str(p) for p in g) for g in gb.generators]
    assert gens == [("x", "-y"), ("y", "x"), ("0", "x^2 + y^2")]
    assert quotient_dim(gb) is INFINITE
    assert hilbert_slices(gb, upto=6) == [2, 2, 2, 2, 2, 2, 2]


def test_normal_form_idempotence_randomized_both_fields():
    for field in (QQ, PrimeField(32749)):
        rng = random.Random(17)
        R = RingContext(("x", "y", "z"), field, "grevlex")
        xs = R.gens()

        def rand_poly(maxdeg=3):
            out = R.zero()
            for _ in range(rng.randint(1, 4)):
                c = field.coerce(rng.randint(-6, 6))
                budget = rng.randint(0, maxdeg)
                mono = R.one()
                for xi in xs:
                    e = rng.randint(0, budget)
                    mono = mono * xi**e
                    budget -= e
                out = out + R.constant(c) * mono
            return out

        for _ in range(20):
            gens = [g for g in (rand_poly() for _ in range(3)) if not g.is_zero]
            if not gens:
                continue
            gb = buchberger(gens, R)
            for g in gens:
                assert normal_form(g, gb).is_zero
            f = rand_poly()
            nf = normal_form(f, gb)
            assert normal_form(nf, gb) == nf
            assert ideal_membership(f - nf, gb)


def test_division_entry_points_reject_mis_shaped_vectors():
    R = ring("x", "y")
    x, y = R.gens()
    span = module_groebner([(x, y)], 2, R, track=True)
    ideal = buchberger([x, y], R, track=True)
    with pytest.raises(ValueError, match="vector of length 1 in rank-2 module"):
        module_normal_form((x,), span)  # once zero-padded to (x, 0) -> (0, -y)
    with pytest.raises(ValueError, match="vector of length 3 in rank-2 module"):
        module_normal_form((x, y, x), span)
    with pytest.raises(ValueError, match="vector of length 1 in rank-2 module"):
        submodule_membership((x,), span)
    with pytest.raises(ValueError, match="vector of length 3 in rank-2 module"):
        submodule_membership((x, y, x), span)
    # an over-long vector must not spill into the witness coordinates
    with pytest.raises(ValueError, match="vector of length 3 in rank-2 module"):
        membership_witness((x, y, x), span)
    with pytest.raises(ValueError, match="vector of length 1 in rank-2 module"):
        membership_witness(x, span)
    with pytest.raises(ValueError, match="vector of length 2 in rank-1 module"):
        membership_witness((x, y), ideal)
    with pytest.raises(ValueError, match="expected an ideal Groebner basis"):
        normal_form(x, span)
    with pytest.raises(ValueError, match="expected an ideal Groebner basis"):
        ideal_membership(x, span)
    # a polynomial stays accepted where G is an ideal
    assert membership_witness(x, ideal) == [R.one(), R.zero()]
    assert membership_witness((x * y,), ideal) is not None


def _rand_poly(R, rng, maxdeg=2):
    x, y = R.gens()
    out = R.zero()
    for _ in range(rng.randint(1, 3)):
        c = R.field.coerce(rng.randint(-3, 3))
        out = out + R.constant(c) * x**rng.randint(0, maxdeg) * y**rng.randint(0, maxdeg)
    return out


def _combination(coeffs, vectors, R, rank):
    total = [R.zero()] * rank
    for c, v in zip(coeffs, vectors):
        for i in range(rank):
            total[i] = total[i] + c * v[i]
    return tuple(total)


def test_module_witnesses_recompose_and_match_membership():
    for seed, field in ((61, QQ), (67, PrimeField(32749))):
        rng = random.Random(seed)
        R = RingContext(("x", "y"), field, "grevlex")
        hits = 0
        for _ in range(20):
            rank = rng.randint(1, 2)
            vectors = [tuple(_rand_poly(R, rng) for _ in range(rank))
                       for _ in range(rng.randint(2, 3))]
            gb = module_groebner(vectors, rank, R, track=True)
            coeffs = [_rand_poly(R, rng) for _ in vectors]
            vec = _combination(coeffs, vectors, R, rank)
            w = membership_witness(vec, gb)
            assert w is not None and len(w) == len(vectors)
            assert _combination(w, vectors, R, rank) == vec
            probe = tuple(_rand_poly(R, rng) for _ in range(rank))
            w = membership_witness(probe, gb)
            assert (w is not None) == submodule_membership(probe, gb)
            if w is not None:
                hits += 1
                assert _combination(w, vectors, R, rank) == probe
        assert 0 < hits < 20, hits


def test_syzygy_basis_is_already_reduced():
    for seed, field in ((71, QQ), (73, PrimeField(32749))):
        rng = random.Random(seed)
        R = RingContext(("x", "y"), field, "grevlex")
        for _ in range(15):
            rank = rng.randint(1, 2)
            vectors = [tuple(_rand_poly(R, rng) for _ in range(rank))
                       for _ in range(rng.randint(2, 3))]
            syz = syzygy_basis_of_vectors(vectors, rank, R)
            s = len(vectors)
            assert syz == list(module_groebner(syz, s, R).generators)
            assert syz == list(syzygy_module(vectors, rank, R).generators)
            for v in syz:
                assert all(p.is_zero for p in _combination(v, vectors, R, rank))


def test_syzygies_contain_every_koszul_relation():
    R = ring("x", "y", "z")
    x, y, z = R.gens()
    for fs in ([x, y, z], [x * y, y * z, x * z], [x**2, x * y, y**2, z]):
        vectors = [(f,) for f in fs]
        s = len(fs)
        module = module_groebner(syzygy_basis_of_vectors(vectors, 1, R), s, R)
        for i in range(s):
            for j in range(i + 1, s):
                koszul = [R.zero()] * s
                koszul[i] = fs[j]
                koszul[j] = -fs[i]
                assert submodule_membership(tuple(koszul), module)


def test_syzygy_edge_inputs():
    R = ring("x", "y")
    x, y = R.gens()
    zero, one = R.zero(), R.one()
    # a zero vector gives its unit syzygy
    assert syzygy_basis_of_vectors([(x, y), (zero, zero)], 2, R) == [(zero, one)]
    # a repeated vector gives e_1 - e_2
    assert syzygy_basis_of_vectors([(x, y), (x, y)], 2, R) == [(one, -one)]
    assert syzygy_basis_of_vectors([], 2, R) == []


def test_subquotient_accepts_the_kernel_as_a_basis():
    R = ring("x", "y")
    x, y = R.gens()
    mat = PolyMatrix.from_rows(R, [[x, y, x * y], [y, x, R.zero()]])
    K = syzygy_module(mat.columns(), 2, R)
    image = [tuple(p * x**2 for p in g) for g in K.generators]
    image += [tuple(p * y**2 for p in g) for g in K.generators]
    as_basis = subquotient_basis(K, image, R, 3)
    as_vectors = subquotient_basis(list(K.generators), image, R, 3)
    assert as_basis[0] == as_vectors[0] == 4
    assert as_basis[1] == as_vectors[1]
    with pytest.raises(ValueError, match="rank-2 module"):
        subquotient_basis(K, [], R, 2)


def _augmented_syzygies(vectors, rank, R):
    """The reduced syzygy basis read off module_groebner of the [v_j ; e_j]."""
    s = len(vectors)
    unit = [[R.one() if i == j else R.zero() for i in range(s)] for j in range(s)]
    full = module_groebner([tuple(v) + tuple(e) for v, e in zip(vectors, unit)],
                           rank + s, R)
    return tuple(g[rank:] for g in full.generators if all(p.is_zero for p in g[:rank]))


def test_image_and_syzygies_equal_the_two_run_bases():
    for seed, field in ((79, QQ), (83, PrimeField(32749))):
        rng = random.Random(seed)
        R = RingContext(("x", "y"), field, "grevlex")
        for _ in range(20):
            rank = rng.randint(1, 2)
            vectors = [tuple(_rand_poly(R, rng) for _ in range(rank))
                       for _ in range(rng.randint(1, 3))]
            image, syz = image_and_syzygies(vectors, rank, R)
            expected = module_groebner(vectors, rank, R)
            assert image.generators == expected.generators
            assert image.leading_terms() == expected.leading_terms()
            assert (image.ambient_rank, syz.ambient_rank) == (rank, len(vectors))
            assert syz.generators == syzygy_module(vectors, rank, R).generators
            assert syz.generators == _augmented_syzygies(vectors, rank, R)


def test_image_and_syzygies_edge_inputs():
    R = ring("x", "y")
    x, y = R.gens()
    zero, one = R.zero(), R.one()
    for vectors, syzygies in (([], ()),
                              ([(x, y), (zero, zero)], ((zero, one),)),
                              ([(x, y), (x, y)], ((one, -one),)),
                              ([(zero, zero)], ((one,),))):
        image, syz = image_and_syzygies(vectors, 2, R)
        assert image.generators == module_groebner(vectors, 2, R).generators
        assert syz.generators == syzygies == syzygy_module(vectors, 2, R).generators
        assert len(image) == len(image.generators) and len(syz) == len(syzygies)


def test_subquotient_refuses_an_image_outside_the_kernel():
    R = ring("x", "y")
    x, y = R.gens()
    zero = R.zero()
    with pytest.raises(ImageNotInKernel):
        subquotient_basis([(x,)], [(x**2,), (y,)], R, 1)
    with pytest.raises(ImageNotInKernel):
        subquotient_basis([(x, zero), (zero, y)], [(x * y, x)], R, 2)
    kernel = module_groebner([(x, zero), (zero, y)], 2, R)
    with pytest.raises(ImageNotInKernel):
        subquotient_basis(kernel, [(x * y, x)], R, 2)
    assert subquotient_basis(kernel, [(x * y, y)], R, 2, want_reps=False)[0] is INFINITE


def test_every_entry_point_checks_the_ring_of_each_entry():
    # One entry in each call is moved to another ring: an unequal ring is
    # refused, an equal but distinct RingContext (as every object rebuilt
    # from a document carries) gives the same answer as the ring itself,
    # and so does a LaurentPolynomial entry unless it has a negative
    # exponent, which packed monomials cannot hold.
    R = ring("x", "y")
    x, y = R.gens()
    zero = R.zero()
    ideal = buchberger([x**2, y**2], R, track=True)
    module = module_groebner([(x, y), (y, zero)], 2, R, track=True)
    image = [(x**2, zero), (x * y, zero), (zero, y**2), (zero, x * y)]
    calls = {
        "buchberger": lambda m: buchberger([x**2, m(y**2)], R).generators,
        "module_groebner": lambda m: module_groebner([(x, y), (m(y), zero)], 2, R).generators,
        "image_and_syzygies": lambda m: [
            gb.generators for gb in image_and_syzygies([(x, y), (m(y), zero)], 2, R)],
        "normal_form, basis": lambda m: normal_form(m(x**2 + x * y), ideal),
        "normal_form, list": lambda m: normal_form(x**2 + x * y, [m(x**2), zero, y]),
        "module_normal_form": lambda m: module_normal_form((x * y, m(y**2)), module),
        "membership_witness, ideal": lambda m: membership_witness(m(x**2 * y), ideal),
        "membership_witness, module": lambda m: membership_witness((m(x * y), y**2), module),
        "subquotient_basis, kernel": lambda m: subquotient_basis(
            [(m(x), zero), (zero, y)], image, R, 2),
        "subquotient_basis, image": lambda m: subquotient_basis(
            [(x, zero), (zero, y)], image[:1] + [(m(x * y), zero)] + image[2:], R, 2),
    }
    same = ring("x", "y")
    assert same == R and same is not R
    others = [ring("x", "z"), ring("x", "y", field=PrimeField(7)), ring("x", "y", order="lex")]
    for name, call in calls.items():
        expected = call(lambda p: p)
        assert call(lambda p: Polynomial(same, dict(p.terms))) == expected, name
        for other in others:
            with pytest.raises(RingMismatch):
                call(lambda p: Polynomial(other, dict(p.terms)))
        # a Laurent entry enters as a polynomial: a negative exponent is refused
        assert call(lambda p: LaurentPolynomial(R, dict(p.terms))) == expected, name
        with pytest.raises(ValueError, match="negative exponent"):
            call(lambda p: LaurentPolynomial(R, {(-1, 0): R.field.one, **p.terms}))


def test_each_rebuilt_ring_is_compared_once_per_call(monkeypatch):
    # Every object loaded from a document carries a RingContext of its own,
    # equal to the ring of the call but not it.  Each such context is
    # compared once per call, so the comparisons do not grow with the
    # number of entries that carry it.
    import json
    from mfcat import files, mf
    R = ring("x", "y")
    x, y = R.gens()
    doc = files.dumps(files.factorization_to_doc(mf.rank_one(R, x**2 * y - y**3, 0, x - y,
                                                             x * y + y**2)))
    E, F = (files.document_to_object(json.loads(doc)) for _ in range(2))
    assert E.ring == F.ring == R and len({id(E.ring), id(F.ring), id(R)}) == 3
    a, b = E.e1.entries[0], F.e0.entries[0]
    xa, yb = E.ring.variable("x") * a, F.ring.variable("y") * b
    compared = [0]
    equal = RingContext.__eq__

    def counted(self, other):
        compared[0] += 1
        return equal(self, other)
    monkeypatch.setattr(RingContext, "__eq__", counted)
    counts = []
    for n in (3, 12):
        vectors = [(a, b), (b, a), (xa, yb)] * (n // 3)
        compared[0] = 0
        image, syz = image_and_syzygies(vectors, 2, R)
        assert len(syz) > 0
        counts.append(compared[0])
    assert counts[0] == counts[1] <= 2


# ---------------------------------------------------------------------------
# an independent reference: plain Buchberger over every pair, no criteria
# ---------------------------------------------------------------------------

def _term_dict(vec):
    return {(p, e): c for p, poly in enumerate(vec) for e, c in poly.terms.items()}


def _ref_lead(f, R):
    return max(f, key=lambda t: (-t[0], R.key(t[1])))


def _ref_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _ref_minus_multiple(f, g, shift, c, fld):
    """f - c * x^shift * g, on term dicts."""
    out = dict(f)
    for (p, e), v in g.items():
        t = (p, tuple(a + b for a, b in zip(e, shift)))
        s = fld.sub(out.get(t, fld.zero), fld.mul(c, v))
        if s == fld.zero:
            out.pop(t, None)
        else:
            out[t] = s
    return out


def _ref_remainder(f, G, R):
    """Remainder of a term dict f under the term dicts G over the field,
    dividing each lead by the first listed g whose lead divides it."""
    fld = R.field
    rem = {}
    while f:
        t = _ref_lead(f, R)
        g = next((g for g in G if _ref_lead(g, R)[0] == t[0]
                  and _ref_divides(_ref_lead(g, R)[1], t[1])), None)
        if g is None:
            rem[t] = f.pop(t)
        else:
            lg = _ref_lead(g, R)
            shift = tuple(a - b for a, b in zip(t[1], lg[1]))
            f = _ref_minus_multiple(f, g, shift, fld.div(f[t], g[lg]), fld)
    return rem


def _reference_basis(vectors, rank, R):
    """Reduced Groebner basis of the span of `vectors` in A^rank, as tuples
    sorted by descending lead, position over term with position 0 highest.

    Every pair of leads at one position is reduced, with no pair criterion,
    by a division loop of its own.
    """
    fld = R.field

    def lead(f):
        return _ref_lead(f, R)

    G = [g for g in map(_term_dict, vectors) if g]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        li, lj = lead(G[i]), lead(G[j])
        if li[0] != lj[0]:
            continue
        lcm = tuple(max(a, b) for a, b in zip(li[1], lj[1]))
        s = _ref_minus_multiple({}, G[i], tuple(a - b for a, b in zip(lcm, li[1])),
                                fld.neg(fld.inv(G[i][li])), fld)
        s = _ref_minus_multiple(s, G[j], tuple(a - b for a, b in zip(lcm, lj[1])),
                                fld.inv(G[j][lj]), fld)
        r = _ref_remainder(s, G, R)
        if r:
            pairs.extend((k, len(G)) for k in range(len(G)))
            G.append(r)

    G.sort(key=lambda g: (-lead(g)[0], R.key(lead(g)[1])))
    minimal = []
    for g in G:
        if not any(lead(h)[0] == lead(g)[0] and _ref_divides(lead(h)[1], lead(g)[1])
                   for h in minimal):
            minimal.append(g)
    out = []
    for g in minimal:
        g = _ref_remainder(dict(g), [h for h in minimal if h is not g], R)
        inv = fld.inv(g[lead(g)])
        out.append({t: fld.mul(c, inv) for t, c in g.items()})
    out.sort(key=lambda g: (-lead(g)[0], R.key(lead(g)[1])), reverse=True)
    return [tuple(Polynomial(R, {e: c for (p, e), c in g.items() if p == pos})
                  for pos in range(rank)) for g in out]


def _rand_entry(R, rng, degrees, terms, denominators=1):
    """A sum of random terms; their number and total degrees drawn from the
    inclusive ranges `terms` and `degrees`, their coefficients n/d with n
    in -4..4 and d in 1..denominators.  May be 0."""
    out = {}
    for _ in range(rng.randint(*terms)):
        exps = [0] * R.nvars
        for _ in range(rng.randint(*degrees)):
            exps[rng.randrange(R.nvars)] += 1
        c = rng.randint(-4, 4)
        if denominators > 1:
            c = Fraction(c, rng.randint(1, denominators))
        out[tuple(exps)] = R.field.coerce(c)
    return Polynomial(R, out)


def _assert_matches_reference(vectors, rank, R):
    expected = _reference_basis(vectors, rank, R)
    module = module_groebner(vectors, rank, R)
    assert list(module.generators) == expected
    assert list(module_groebner(vectors, rank, R, track=True).generators) == expected
    image, syz = image_and_syzygies(vectors, rank, R)
    assert list(image.generators) == expected
    s = len(vectors)
    unit = [tuple(R.one() if i == j else R.zero() for i in range(s)) for j in range(s)]
    augmented = _reference_basis([tuple(v) + e for v, e in zip(vectors, unit)], rank + s, R)
    assert list(syz.generators) == [g[rank:] for g in augmented
                                    if all(p.is_zero for p in g[:rank])]
    if rank == 1:
        polys = [v[0] for v in vectors]
        assert [(g,) for g in buchberger(polys, R).generators] == expected
        assert [(g,) for g in buchberger(polys, R, track=True).generators] == expected


def test_bases_match_an_all_pairs_reference_on_random_ideals():
    for seed, field in ((101, QQ), (103, PrimeField(32749))):
        rng = random.Random(seed)
        for n in range(36):
            names = ("x", "y", "z")[:2 + n % 2]
            R = RingContext(names, field, ("lex", "grevlex", "grlex")[n % 3])
            gens = [(_rand_entry(R, rng, (1, 3), (1, 3)),) for _ in range(rng.randint(2, 3))]
            _assert_matches_reference(gens, 1, R)


def test_bases_match_an_all_pairs_reference_on_random_modules():
    for seed, field in ((107, QQ), (109, PrimeField(32749))):
        rng = random.Random(seed)
        R = RingContext(("x", "y"), field, "grevlex")
        for n in range(24):
            rank = rng.randint(2, 3)
            vectors = [tuple(_rand_entry(R, rng, (0, 2), (0, 2)) for _ in range(rank))
                       for _ in range(rng.randint(rank, rank + 1))]
            _assert_matches_reference(vectors, rank, R)


def test_bases_match_an_all_pairs_reference_on_special_leads():
    R = ring("x", "y", "z")
    x, y, z = R.gens()
    zero = R.zero()
    for gens in ([x**2 + y, y**3 + z, z**2 + x],          # pairwise coprime leads
                 [x * y + z, y * z + x, x * z + y],
                 [x * y + 1, x * y + x, x * y + 1],        # repeated leads and generators
                 [zero, x + y, zero, y**2 - z],            # zero generators
                 [zero]):
        _assert_matches_reference([(g,) for g in gens], 1, R)
    for vectors in ([(x**2, y), (y**2, z), (z**2, x)],     # coprime leads, one position
                    [(x * y, zero), (x * y, z), (x * y, zero)],
                    [(zero, zero), (x, y), (zero, zero)],
                    [(zero, x * y, z), (zero, x * y, y), (x, zero, zero)]):
        _assert_matches_reference(vectors, len(vectors[0]), R)


def test_bases_match_an_all_pairs_reference_over_q_with_denominators():
    # Coefficients n/d with d in 1..5: the kernel clears the denominators
    # of every input and divides by primitive integer elements whose leads
    # need not be units, where the inputs' leads may be negative.
    rng = random.Random(113)
    negative_leads = fractional = 0
    for n in range(40):
        if n < 24:
            names, rank = ("x", "y", "z")[:2 + n % 2], 1
            R = RingContext(names, QQ, ("lex", "grevlex", "grlex")[n % 3])
            vectors = [(_rand_entry(R, rng, (1, 3), (1, 3), 5),) for _ in range(rng.randint(2, 3))]
        else:
            rank = rng.randint(2, 3)
            R = RingContext(("x", "y"), QQ, "grevlex")
            vectors = [tuple(_rand_entry(R, rng, (0, 2), (0, 2), 5) for _ in range(rank))
                       for _ in range(rng.randint(rank, rank + 1))]
        _assert_matches_reference(vectors, rank, R)
        for v in vectors:
            terms = _term_dict(v)
            if terms:
                negative_leads += terms[_ref_lead(terms, R)] < 0
                fractional += any(c.denominator > 1 for c in terms.values())
        gb = module_groebner(vectors, rank, R, track=True)
        coeffs = [_rand_entry(R, rng, (0, 2), (1, 2), 5) for _ in vectors]
        vec = _combination(coeffs, vectors, R, rank)
        w = membership_witness(vec, gb)
        assert w is not None and _combination(w, vectors, R, rank) == vec
        if rank == 1:
            polys = [v[0] for v in vectors]
            w = membership_witness(vec[0], buchberger(polys, R, track=True))
            assert sum((a * p for a, p in zip(w, polys)), R.zero()) == vec[0]
    assert negative_leads > 10 and fractional > 20, (negative_leads, fractional)


def _assert_field_elements(polys, field):
    """Over Q every coefficient is a Fraction, over F_p an int in [0, p)."""
    polys = list(polys)
    assert polys
    for p in polys:
        for c in p.terms.values():
            if field == QQ:
                assert type(c) is Fraction, (p, c)
            else:
                assert type(c) is int and 0 <= c < field.p, (p, c)
        assert "+ -" not in str(p), p


def test_coefficients_handed_out_are_field_elements():
    for field in (QQ, PrimeField(32749)):
        R = RingContext(("x", "y"), field, "grevlex")
        x, y = R.gens()
        half, third = R.constant(Fraction(1, 2)), R.constant(Fraction(-2, 3))
        gens = [third * x**2 * y + half * y, half * x * y**2 - third * x, third * y**3 + x]
        f = half * x**3 * y + third * x * y - x + half

        def flat(vectors):
            return [p for v in vectors for p in v]

        for track in (False, True):
            gb = buchberger(gens, R, track=track)
            _assert_field_elements(gb.generators, field)
        _assert_field_elements([normal_form(f, gb), normal_form(f, gens)], field)
        w = membership_witness(x * gens[0] - half * gens[2], gb)
        _assert_field_elements(w, field)

        vectors = [(third * x, half * y**2), (half * y - x, third * x * y), (x * y, third)]
        for track in (False, True):
            mb = module_groebner(vectors, 2, R, track=track)
            _assert_field_elements(flat(mb.generators), field)
        _assert_field_elements(module_normal_form((f, half * f), mb), field)
        w = membership_witness(_combination([half, third * x, y], vectors, R, 2), mb)
        _assert_field_elements(w, field)
        image, syz = image_and_syzygies(vectors, 2, R)
        _assert_field_elements(flat(image.generators) + flat(syz.generators), field)
        dim, reps = subquotient_basis(syz, [tuple(m * p for p in s) for s in syz for m in (x, y)],
                                      R, 3)
        assert dim == len(reps) > 0
        _assert_field_elements(flat(reps), field)


def test_division_by_raw_non_monic_divisors():
    R = ring("x", "y")
    x, y = R.gens()
    two, three = R.constant(2), R.constant(3)
    # the first listed divisor whose lead divides is used, however scaled
    assert normal_form(x*y, [two*x*y - two, three*x - three*y]) == R.one()
    assert normal_form(x*y, [three*x - three*y, two*x*y - two]) == y**2
    assert normal_form(x*y, [R.constant(Fraction(-2, 3))*x*y + y]) == R.constant(Fraction(3, 2))*y
    for seed, field in ((127, QQ), (131, PrimeField(32749))):
        rng = random.Random(seed)
        for n in range(30):
            R = RingContext(("x", "y", "z")[:2 + n % 2], field, ("lex", "grevlex", "grlex")[n % 3])
            divisors = [_rand_entry(R, rng, (1, 2), (1, 3), 5) for _ in range(rng.randint(1, 3))]
            f = _rand_entry(R, rng, (0, 4), (1, 5), 5)
            expected = _ref_remainder(_term_dict((f,)), [_term_dict((g,)) for g in divisors
                                                        if not g.is_zero], R)
            assert normal_form(f, divisors) == Polynomial(R, {e: c for (_, e), c in expected.items()})


def _assert_primitive(elems, field):
    """Over Q: int coefficients of gcd 1 and a positive lead; over F_p: monic."""
    assert elems
    for e in elems:
        coeffs = list(e.terms.values())
        assert e.lc == e.terms[e.lt]
        if field == QQ:
            assert all(type(c) is int for c in coeffs)
            assert math.gcd(*coeffs) == 1 and e.lc > 0
        else:
            assert e.lc == 1


def test_kernel_elements_stay_primitive():
    # Dropping content removal keeps every answer right while coefficients
    # grow without bound, so the internal elements are checked directly.
    from mfcat import groebner
    for seed, field in ((137, QQ), (139, PrimeField(32749))):
        rng = random.Random(seed)
        R = RingContext(("x", "y"), field, "grevlex")
        for n in range(16):
            rank = 1 + n % 2
            vectors = [tuple(_rand_entry(R, rng, (0, 3), (1, 3), 5) for _ in range(rank))
                       for _ in range(3)]
            sparse = groebner._sparse(vectors, R, rank)
            pk = groebner._packing(R.nvars, R.order, groebner._START_WIDTH)
            basis = groebner._buchberger_core(R, pk, groebner._entry(sparse, R, rank, pk, True),
                                              rank, syzygies=True)
            _assert_primitive(basis, field)
            _assert_primitive(groebner._reduce(R, pk, basis), field)
            # the reduced bases of a syzygy run, the image parts cut off their e-block
            for G in groebner._syzygy_run(sparse, rank, R):
                _assert_primitive(G._elems, field)


def test_syzygy_run_keeps_the_pairs_above_its_e_block(monkeypatch):
    # The chain criterion is not applied above the e-block of a syzygy run.
    # Applied there, these four cubics need far more S-pair reductions
    # (over 200 s), whose remainders pass 200 terms by the 36th; without it
    # they need 71, and no remainder has more than 126 terms.  The counter
    # stops the run as soon as either bound is passed, so a regression
    # fails in well under a second.
    from mfcat import groebner
    R = ring("x", "y", "z", field=PrimeField(32749))
    cubics = [(P(R, s),) for s in ("3*x^2*y + 2*x*y*z + 3*x^2", "-3*x*y*z + y + z",
                                   "x^2*y - 2*y*z^2", "-4*x^2*z - 4*y*z - 2*y")]
    reductions = [0]
    original = groebner._s_remainder

    def counted(*args):
        reductions[0] += 1
        assert reductions[0] <= 100, "more than 100 S-pair reductions"
        rem = original(*args)
        assert len(rem) <= 200, "an S-pair remainder of %d terms" % len(rem)
        return rem
    monkeypatch.setattr(groebner, "_s_remainder", counted)
    image, syz = image_and_syzygies(cubics, 1, R)
    assert len(syz) > 0
    for s in syz.generators:
        assert sum((c[0] * a for c, a in zip(cubics, s)), R.zero()).is_zero


def test_image_and_syzygies_keeps_the_leads_it_knows(monkeypatch):
    # A remainder leaves the division in descending order, and the image and
    # e-block parts of an element keep its lead; the kernel orders packed
    # monomials by int keys of its own, so for D_even of the rank-8 tensor
    # it calls the ring's order key 0 times, against 1,589 with exponent
    # tuples and 13,954 when every new element searched its terms for the
    # lead.  The S-pair reductions of both differentials are unchanged at
    # 987.
    from mfcat import groebner, mf
    from mfcat.hom import hom_complex
    E = None
    for v in ("x", "y", "z", "w"):
        R = ring(v)
        t = R.variable(v)
        factor = mf.rank_one(R, t ** 3, 0, t, t ** 2)
        E = factor if E is None else mf.tensor(E, factor)
    H = hom_complex(E, E)
    R, n = E.ring, len(H.even_columns)
    keys, reductions = [0], [0]
    order_key, s_remainder = R.key, groebner._s_remainder

    def counted_key(exps):
        keys[0] += 1
        return order_key(exps)

    def counted_remainder(*args):
        reductions[0] += 1
        return s_remainder(*args)
    monkeypatch.setattr(groebner, "_s_remainder", counted_remainder)
    monkeypatch.setattr(R, "key", counted_key)
    image_and_syzygies(H.even_columns, n, R)
    monkeypatch.setattr(R, "key", order_key)
    assert keys[0] <= 10
    image_and_syzygies(H.odd_columns, n, R)
    assert reductions[0] == 987


# ---------------------------------------------------------------------------
# the walk of standard monomials against the box and the per-degree scan
# ---------------------------------------------------------------------------

def _box_difference(kernel_leads, image_leads, nvars, key):
    """Monomials of LT(K) outside LT(I), sorted by position then `key`, or
    INFINITE: each kernel lead's multiples filtered from the box that the
    image leads bounding it span."""
    found = set()
    for pos, k in kernel_leads:
        leads = [l for p, l in image_leads if p == pos]
        ranges = []
        for i in range(nvars):
            caps = [l[i] for l in leads
                    if all(l[j] <= k[j] for j in range(nvars) if j != i)]
            if not caps:
                return INFINITE
            ranges.append(range(k[i], min(caps)))
        for m in product(*ranges):
            if not any(all(a <= b for a, b in zip(l, m)) for l in leads):
                found.add((pos, m))
    return sorted(found, key=lambda t: (t[0], key(t[1])))


def _monomials_of_degree(nvars, d):
    if nvars == 0:
        return [()] if d == 0 else []
    return [(a,) + rest for a in range(d, -1, -1)
            for rest in _monomials_of_degree(nvars - 1, d - a)]


def _scan(leads, rank, nvars, upto, weights=None, shifts=None):
    """Standard monomials of each degree 0..upto, every monomial tested
    against every lead: x_i of degree weights[i] (default 1), position p
    raised by shifts[p] >= 0 (default 0)."""
    weights = weights or (1,) * nvars
    shifts = shifts or [0] * rank
    counts = [0] * (upto + 1)
    for pos in range(rank):
        for d in range(upto - shifts[pos] + 1):  # a weighted degree is at least d
            for m in _monomials_of_degree(nvars, d):
                k = shifts[pos] + sum(map(operator.mul, weights, m))
                if k <= upto and not any(p == pos and all(a <= b for a, b in zip(l, m))
                                         for p, l in leads):
                    counts[k] += 1
    return counts


def _scan_slices(G, upto):
    """Standard monomials of each degree, every monomial tested against every lead."""
    return _scan(G.leading_terms(), G.ambient_rank or 1, G.ring.nvars, upto)


def _monomial(R, exps):
    return Polynomial(R, {exps: R.field.one})


def _seeded_monomial_vectors(rng, R, N):
    """Monomial vectors of A^N: random ones, often pure powers of every
    variable at a position (a finite quotient there), sometimes a unit."""
    n = R.nvars
    zero = [R.zero()] * N
    out = []

    def at(pos, exps):
        v = list(zero)
        v[pos] = _monomial(R, exps)
        out.append(tuple(v))
    for pos in range(N):
        draw = rng.random()
        if draw < 0.1:
            at(pos, (0,) * n)
        elif draw < 0.7:
            for i in range(n):
                at(pos, tuple(rng.randint(1, 3) if j == i else 0 for j in range(n)))
        for _ in range(rng.randint(0, 3)):
            at(pos, tuple(rng.randint(0, 2) for _ in range(n)))
    return out


def _seeded_polynomial_vector(rng, R, N):
    n = R.nvars
    return tuple(sum((R.constant(R.field.coerce(rng.randint(-3, 3)))
                      * _monomial(R, tuple(rng.randint(0, 2) for _ in range(n)))
                      for _ in range(rng.randint(0, 2))), R.zero()) for _ in range(N))


def test_standard_monomial_walk_matches_the_box_and_the_degree_scan():
    seen = set()
    for field in (QQ, PrimeField(32749)):
        rng = random.Random("walk/%r" % (field,))
        for trial in range(60):
            n, N = trial % 5, rng.randint(1, 3)
            R = RingContext(("x", "y", "z", "w")[:n], field)
            G = module_groebner(_seeded_monomial_vectors(rng, R, N), N, R)
            units = [(pos, (0,) * n) for pos in range(N)]
            want = _box_difference(units, G.leading_terms(), n, R.key)
            assert standard_monomials(G) == want, (field, trial)
            assert quotient_dim(G) == (INFINITE if want is INFINITE else len(want))
            upto = rng.randint(0, 6)
            assert hilbert_slices(G, upto) == _scan_slices(G, upto), (field, trial)
            seen.add(want is INFINITE)
    assert seen == {True, False}


def test_subquotient_walk_matches_the_box_and_the_first_kernel_lead():
    """Representatives are NF_I(x^a g) for the first basis element g of K
    whose lead divides the standard monomial, taken here by search."""
    seen = set()
    for field in (QQ, PrimeField(32749)):
        rng = random.Random("subquotient-walk/%r" % (field,))
        for trial in range(100):
            n, N = trial % 5, rng.randint(1, 3)
            R = RingContext(("x", "y", "z", "w")[:n], field)
            kernel = [_seeded_polynomial_vector(rng, R, N)
                      for _ in range(rng.randint(1, 4 - n // 2))]
            if rng.random() < 0.5:
                kernel += _seeded_monomial_vectors(rng, R, N)
            K = module_groebner(kernel, N, R)
            if not len(K):
                continue
            draw = rng.random()
            if draw < 0.15:
                image = []
            elif draw < 0.3:
                image = list(K.generators)
            else:  # K times powers of some variables, and some of K times a monomial
                powers = [_monomial(R, tuple(rng.randint(1, 3) if j == i else 0
                                             for j in range(n)))
                          for i in range(n) if rng.random() < 0.85]
                image = [tuple(m * p for p in g) for g in K.generators for m in powers]
                for g in K.generators[::2]:
                    m = _monomial(R, tuple(rng.randint(0, 1) for _ in range(n)))
                    image.append(tuple(m * p for p in g))
            I = module_groebner(image, N, R)
            want = _box_difference(K.leading_terms(), I.leading_terms(), n, R.key)
            dim, reps = subquotient_basis(K, I, R, N)
            assert quotient_module_dim(K, I, R, N) == dim
            seen.add(want is INFINITE)
            if want is INFINITE:
                assert (dim, reps) == (INFINITE, [])
                continue
            assert dim == len(want) == len(reps), (field, trial)
            for (pos, m), rep in zip(want, reps):
                g, k = next((g, k) for g, (p, k) in zip(K.generators, K.leading_terms())
                            if p == pos and all(a <= b for a, b in zip(k, m)))
                shift = _monomial(R, tuple(a - b for a, b in zip(m, k)))
                assert rep == module_normal_form(tuple(shift * p for p in g), I)
    assert seen == {True, False}


def test_standard_monomial_walk_tests_few_leads_per_monomial(monkeypatch):
    # Only an image lead l with l_j = m_j + 1 can divide m x_j and not m,
    # so the walk makes 2,038 divisibility tests for the 14,425 standard
    # monomials of this rank-2 module, where testing every monomial
    # against every lead at its position would make 77,300.
    from mfcat import groebner
    R = ring("x", "y", "z")
    x, y, z = R.gens()
    zero = R.zero()
    G = module_groebner(
        [(g, zero) for g in (x ** 30, y ** 30, z ** 30, x ** 10 * y ** 10, y ** 12 * z ** 15,
                             x ** 20 * z ** 5)]
        + [(zero, g) for g in (x ** 20, y ** 20, z ** 20, x ** 5 * y ** 5 * z ** 5)], 2, R)
    calls = [0]
    divides = groebner._divides

    def counted(a, b):
        calls[0] += 1
        return divides(a, b)
    monkeypatch.setattr(groebner, "_divides", counted)
    monomials = standard_monomials(G)
    assert len(monomials) == quotient_dim(G) == 14425
    assert calls[0] < 2 * len(monomials)


# ---------------------------------------------------------------------------
# Hilbert numerators against the box and the scan
# ---------------------------------------------------------------------------

def _seeded_leads(rng, n, N):
    """Leads of a monomial submodule of A^N: often pure powers of every
    variable at a position (finite there), a few other monomials, and
    sometimes a unit."""
    out = []
    for pos in range(N):
        draw = rng.random()
        if draw < 0.1:
            out.append((pos, (0,) * n))
        elif draw < 0.75:
            out += [(pos, tuple(rng.randint(1, 4) if j == i else 0 for j in range(n)))
                    for i in range(n)]
        out += [(pos, tuple(rng.randint(0, 3) for _ in range(n)))
                for _ in range(rng.randint(0, 4))]
    return out


def _series(numerator, weights, low, top):
    """The coefficients of numerator / prod_i (1 - q^weights[i]) at the
    degrees low..top, by expanding each factor as a geometric series."""
    coeffs = [0] * (top - low + 1)
    for k, c in numerator.items():
        if low <= k <= top:
            coeffs[k - low] += c
    for w in weights:
        for k in range(w, len(coeffs)):
            coeffs[k] += coeffs[k - w]
    return coeffs


@pytest.mark.parametrize("weighted", (False, True), ids=("unweighted", "weighted"))
def test_hilbert_numerators_match_the_box_and_the_scan(weighted):
    """The numerator gives the box's count of standard monomials, or
    INFINITE where the box finds an unbounded variable, and its series
    counts the standard monomials degree by degree as a scan of every
    monomial does: position p in degree degrees[p], x_i of degree weights[i]."""
    from mfcat import groebner
    rng = random.Random("numerator/%s" % weighted)
    seen = set()
    for trial in range(80):
        n, N = trial % 5, rng.randint(1, 3)
        weights = tuple(rng.randint(1, 3) if weighted else 1 for _ in range(n))
        degrees = [rng.randint(-3, 3) for _ in range(N)]
        leads = _seeded_leads(rng, n, N)
        numerator = groebner._numerator(leads, degrees, weights)
        boxed = _box_difference([(pos, (0,) * n) for pos in range(N)], leads, n, tuple)
        dim = groebner._series_dim(numerator, weights)
        seen.add(dim is INFINITE)
        assert dim == (INFINITE if boxed is INFINITE else len(boxed)), trial
        low, top = min(degrees), max(degrees) + 8
        assert (_series(numerator, weights, low, top)
                == _scan(leads, N, n, top - low, weights, [d - low for d in degrees])), trial
    assert seen == {True, False}


def _nonzero(numerator):
    return {k: c for k, c in numerator.items() if c}


def test_hilbert_numerators_of_small_modules():
    from mfcat import groebner
    # (x^2, y^3) with x, y of degrees 2, 3: (1 - q^4)(1 - q^9), dimension 6
    numerator = groebner._numerator([(0, (2, 0)), (0, (0, 3))], [0], (2, 3))
    assert _nonzero(numerator) == {0: 1, 13: 1, 4: -1, 9: -1}
    assert groebner._series_dim(numerator, (2, 3)) == 6
    # x^2 in k[x, y] leaves y free; at two positions in degrees 1 and -2
    numerator = groebner._numerator([(0, (2, 0)), (1, (2, 0))], [1, -2], (1, 1))
    assert _nonzero(numerator) == {1: 1, -2: 1, 3: -1, 0: -1}
    assert groebner._series_dim(numerator, (1, 1)) is INFINITE
    # a unit, an empty module, no variables
    assert groebner._series_dim(groebner._numerator([(0, (0, 0))], [5], (1, 1)), (1, 1)) == 0
    assert groebner._series_dim(groebner._numerator([], [], (1,)), (1,)) == 0
    assert groebner._series_dim(groebner._numerator([], [0, 4], ()), ()) == 2


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_numerators_share_nothing_between_positions(data):
    """_numerator is the sum over the positions of q^degree N(I_p), each
    N(I_p) computed on its own, where one ideal repeats at several
    positions, its leads listed in different orders, beside an ideal with
    as many leads and an empty one, under each draw's weights."""
    from mfcat import groebner
    n = data.draw(st.integers(1, 3))
    weights = tuple(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    base = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=4,
                              unique=True))
    other = [tuple(a + (i == 0) for i, a in enumerate(base[0]))] + base[1:]
    ideals = [data.draw(st.permutations(base)) for _ in range(data.draw(st.integers(2, 4)))]
    ideals = data.draw(st.permutations(ideals + [other, []]))
    degrees = data.draw(st.lists(st.integers(-3, 3), min_size=len(ideals), max_size=len(ideals)))
    leads = data.draw(st.permutations([(p, x) for p, gens in enumerate(ideals) for x in gens]))
    expected = {}
    for d, gens in zip(degrees, ideals):
        for k, c in groebner._ideal_numerator(groebner._minimal(gens), weights).items():
            expected[d + k] = expected.get(d + k, 0) + c
    assert _nonzero(groebner._numerator(leads, degrees, weights)) == _nonzero(expected)


def test_counts_read_numerators_and_never_walk(monkeypatch):
    """With _walk raising, every count still answers: quotient dimensions,
    Hilbert slices, cokernels, critical values and ungraded Hom dimensions.
    minimal_polynomial refuses a count above the limit before it computes
    its first normal form."""
    from mfcat import corpus, groebner, hom, mf, mirror

    def refused(*args):
        raise AssertionError("called")
    monkeypatch.setattr(groebner, "_walk", refused)
    R = ring("x", "y", "z")
    x, y, z = R.gens()
    assert quotient_dim(buchberger([x ** 80, y ** 80, z ** 80], R)) == 512000
    dp6 = mirror.build_superpotential(mirror.preset("dP6"))
    params = {p: 1 for p in dp6.param_names}
    G = mirror.critical_ideal(dp6, params)
    assert hilbert_slices(G, 4) == [1, 3, 2, 0, 0]
    assert mirror.critical_values(dp6, params).count == 6
    cokernel = mf.cokernel_presentation(corpus.lookup("knorrer(pair:uv)"), 4)
    assert (cokernel.dimension, cokernel.hilbert) == (INFINITE, (2, 6, 12, 20, 30))
    S = ring("x")
    t = S.variable("x")
    E = mf.rank_one(S, t ** 2 - 2 * t + 2, 1, t - 1, t - 1)  # W - 1 = (x - 1)^2
    assert hom._homology(E, E, want_reps=False)[0] == (1, 1)
    monkeypatch.setattr(groebner, "HILBERT_MONOMIAL_LIMIT", 5)
    monkeypatch.setattr(groebner, "_divide", refused)
    with pytest.raises(ValueError, match="more than 5 standard monomials"):
        minimal_polynomial(G.ring.gens()[0], G)


# ---------------------------------------------------------------------------
# packed monomials
# ---------------------------------------------------------------------------

def _split(rng, degree, n):
    """A random exponent tuple of n entries summing to degree."""
    cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


def test_packed_order_keys_and_guard_test_match_the_order_and_divisibility():
    # A kernel term's int key must order terms position over term, position
    # 0 highest and the ring's key reversed within a position; the guard-bit
    # test of _divide must agree with exponent-wise divisibility, up to the
    # field boundary 2**(w-1) - 1; multiplying by x^u must add one constant,
    # the key of x^u at position 0 less the key of 1, and a product past the
    # boundary must clear the top bit _divide and _combine check; and moving
    # a term r positions down, as the e-block split does, must add r << bits.
    from mfcat import groebner
    rng = random.Random(2207)
    for order in ("lex", "grlex", "grevlex"):
        for n in range(1, 5):
            R = ring(*"xyzw"[:n], order=order)
            for w in (4, 16):
                pk = groebner._packing(n, order, w)
                edge = 2 ** (w - 1) - 1
                degrees = [rng.randint(0, 6) for _ in range(40)] + [edge - rng.randint(0, 3)
                                                                   for _ in range(20)]
                monos = list({_split(rng, d, n) for d in degrees}
                             | {tuple(edge if j == i else 0 for j in range(n)) for i in range(n)})
                keys = {(pos, m): pk.key(pos, m) for pos in range(4) for m in monos}
                assert all(pk.unpack(k) == m and k >> pk.bits == pos
                           for (pos, m), k in keys.items())
                by_term = sorted(keys, key=lambda t: R.key(t[1]), reverse=True)
                assert sorted(keys, key=keys.get) == sorted(by_term, key=lambda t: t[0])
                for (pos, m), k in keys.items():
                    for r in range(4 - pos):
                        assert keys[pos + r, m] == k + (r << pk.bits)
                guard, base, one = pk.guard, pk.base, pk.key(0, (0,) * n)

                def shift(u):  # the key difference of x^u
                    return pk.key(0, u) - one
                for a in monos:
                    for b in monos:
                        pos = rng.randrange(4)
                        ka, kb = keys[pos, a], keys[pos, b]
                        divides = all(i <= j for i, j in zip(a, b))
                        assert (((kb ^ base | guard) - (ka ^ base)) & guard == guard) == divides
                        if divides:
                            assert kb - ka == shift(tuple(j - i for i, j in zip(a, b)))
                        product = ka + shift(b)
                        if sum(a) + sum(b) <= edge:
                            assert product == pk.key(pos, tuple(map(sum, zip(a, b))))
                            assert product & pk.top
                        else:
                            assert not product & pk.top
                with pytest.raises(groebner._Overflow):
                    pk.key(0, (edge + 1,) + (0,) * (n - 1))


def test_huge_exponents_keep_their_answers():
    R = ring("x")
    x = R.variable("x")
    assert quotient_dim(buchberger([x ** (10 ** 18), x])) == 1
    G = buchberger([x ** (10 ** 18) - 1])
    assert normal_form(x ** (10 ** 18 + 5), G) == x ** 5
    assert G.leading_terms() == [(0, (10 ** 18,))]


def test_a_guard_trip_redoes_the_run_at_twice_the_width(monkeypatch):
    # In lex, x - y^5 and x^2 - y give y^10 - y: with 4-bit fields the
    # inputs fit but the reduction does not, so the run is redone at 8
    # bits, and a normal form that passes 8 bits repacks the basis at 16.
    from mfcat import groebner
    R = ring("x", "y", order="lex")
    x, y = R.gens()
    gens = [x - y ** 5, x ** 2 - y]
    ample = buchberger(gens)
    wanted = normal_form(x ** 40 * y ** 3, ample)
    widths = []
    packing = groebner._packing

    def recorded(nvars, order, w):
        widths.append(w)
        return packing(nvars, order, w)
    monkeypatch.setattr(groebner, "_packing", recorded)
    monkeypatch.setattr(groebner, "_START_WIDTH", 4)
    G = buchberger(gens)
    assert widths == [4, 8]
    assert G.generators == ample.generators == (x - y ** 5, y ** 10 - y)
    assert G.leading_terms() == ample.leading_terms()
    # x^40 reduces to y^200 on the way, which needs 16 bits
    assert normal_form(x ** 40 * y ** 3, G) == wanted
    assert widths[2:] == [8, 16] and G._pk.w == 16
    G._generators = None  # unpack again from the repacked elements
    assert G.generators == ample.generators
    assert normal_form(x ** 40 * y ** 3, G) == wanted and widths[4:] == [16]


# ---------------------------------------------------------------------------
# minimal polynomials of multiplication maps, against the Polynomial loop
# ---------------------------------------------------------------------------

def _reference_minimal_polynomial(f, G):
    """Rows [NF(f^k) on the standard monomials | e_k] of Polynomial powers,
    each cleared by integer_multiple, into one RowEchelon until a pivot
    lands in the e-columns; that row divided by its e_k entry."""
    sm = standard_monomials(G)
    if sm is INFINITE:
        return INFINITE, None
    dim = len(sm)
    coord = {exps: i for i, (_, exps) in enumerate(sm)}
    fld = G.ring.field
    value = normal_form(f, G)
    echelon = RowEchelon(fld)
    power = G.ring.one()
    for k in range(dim + 1):
        power = normal_form(power, G)
        terms, scale = integer_multiple(power.terms)
        row = {coord[e]: c for e, c in terms.items()}
        row[dim + k] = scale
        pivot = echelon.insert(row)
        if pivot >= dim:
            break
        power = power * value
    relation = echelon.pivots[pivot]
    return dim, [fld.from_scaled(relation.get(dim + j, 0), relation[dim + k])
                 for j in range(k + 1)]


def _zero_dimensional(rng, R, denominators):
    """x_i^d_i plus terms of lower degree for each variable, which the
    grevlex order keeps as the leads, and half the time one more random
    generator."""
    gens = []
    for i in range(R.nvars):
        d = rng.randint(1, 3)
        lead = Polynomial(R, {tuple(d if j == i else 0 for j in range(R.nvars)): R.field.one})
        gens.append(lead + _rand_entry(R, rng, (0, d - 1), (0, 3), denominators))
    if rng.random() < 1 / 3:
        gens.append(_rand_entry(R, rng, (1, 3), (1, 3), denominators))
    return buchberger(gens, R)


def test_minimal_polynomial_matches_the_polynomial_loop():
    lower = 0
    for seed, field, denominators in ((131, QQ, 5), (137, PrimeField(32749), 1)):
        rng = random.Random(seed)
        for trial in range(24):
            R = ring(*("x", "y", "z")[:2 + trial % 2], field=field)
            G = _zero_dimensional(rng, R, denominators)
            for f in (_rand_entry(R, rng, (1, 4), (2, 4), denominators), R.zero(),
                      R.constant(Fraction(-3, 2)), R.gens()[0]):
                dim, coefficients = minimal_polynomial(f, G)
                assert (dim, coefficients) == _reference_minimal_polynomial(f, G), (G, f)
                assert dim == quotient_dim(G)
                assert coefficients[-1] == field.one
                assert all(type(c) is type(field.one) for c in coefficients)
                lower += len(coefficients) - 1 < dim
    assert lower >= 20


def test_minimal_polynomial_special_cases():
    R = ring("x", "y")
    x, y = R.gens()
    G = buchberger([x ** 2 - 1, y ** 2 - 1], R)
    # dim 4, but x^2 = 1 already: degree 2, below the dimension
    assert minimal_polynomial(x, G) == (4, [-1, 0, 1])
    assert minimal_polynomial(x + y, G) == (4, [0, -4, 0, 1])
    assert minimal_polynomial(R.zero(), G) == (4, [0, 1])
    assert minimal_polynomial(R.constant(Fraction(2, 3)), G) == (4, [Fraction(-2, 3), 1])
    # the unit ideal: A/I is the zero space, whose minimal polynomial is 1
    for f in (x, R.zero(), R.constant(5)):
        assert minimal_polynomial(f, buchberger([x - 1, x - 2], R)) == (0, [1])
    assert minimal_polynomial(x, buchberger([x * y - 1], R)) == (INFINITE, None)
    with pytest.raises(ValueError, match="expected an ideal"):
        minimal_polynomial(x, module_groebner([(x, y)], 2, R))
    with pytest.raises(RingMismatch):
        minimal_polynomial(ring("x", "y", field=PrimeField(7)).gens()[0], G)


def test_minimal_polynomial_redoes_its_loop_at_twice_the_width(monkeypatch):
    # At 4-bit fields the standard monomials (degree <= 6) fit but their
    # products do not, so the guard trips inside the power loop and the
    # whole loop, echelon included, runs again at 8 bits.
    from mfcat import groebner
    R = ring("x", "y")
    x, y = R.gens()
    gens = [x ** 4 - Fraction(1, 2) * y - 1, y ** 4 - x ** 2 + 3]
    f = x * y + Fraction(1, 3) * x ** 3
    wanted = _reference_minimal_polynomial(f, buchberger(gens, R))
    widths = []
    packing = groebner._packing

    def recorded(nvars, order, w):
        widths.append(w)
        return packing(nvars, order, w)
    monkeypatch.setattr(groebner, "_packing", recorded)
    monkeypatch.setattr(groebner, "_START_WIDTH", 4)
    G = buchberger(gens, R)
    assert widths == [4] and G._pk.w == 4
    assert minimal_polynomial(f, G) == wanted
    assert widths[1:] == [4, 8] and G._pk.w == 8
    # an exponent past 2**15 redoes the run at once, from its entry
    monkeypatch.setattr(groebner, "_START_WIDTH", 16)
    G = buchberger([x ** 3 - 2, y ** 2 - x], R)
    f = x ** 40000 * y + y
    del widths[:]
    got = minimal_polynomial(f, G)
    assert widths == [16, 32] and G._pk.w == 32
    assert got == _reference_minimal_polynomial(f, G)
