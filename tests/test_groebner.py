import random
from fractions import Fraction

import pytest

from mfcat.poly import QQ, PrimeField, RingContext, parse_polynomial
from mfcat.matrix import PolyMatrix
from mfcat.groebner import (
    INFINITE, buchberger, module_groebner, normal_form, module_normal_form,
    ideal_membership, submodule_membership, membership_witness,
    syzygy_basis, syzygy_basis_of_vectors, standard_monomials,
    quotient_dim, hilbert_slices, quotient_module_dim, subquotient_basis,
    ImageNotInKernel,
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
