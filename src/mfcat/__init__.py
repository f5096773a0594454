"""Exact matrix-factorization categories and toric mirror superpotentials.

Everything runs over exact coefficient fields (Q or F_p): sparse
multivariate polynomials, Groebner bases for ideals and submodules,
factorizations of a potential with their shift/cone/tensor calculus,
Z/2-graded Hom complexes with decidable null-homotopy, and Hori-Vafa
superpotentials with exact critical-point counts.
"""

from .poly import (
    Field, RationalField, PrimeField, QQ, field_from_spec,
    RingContext, Polynomial, LaurentPolynomial,
    parse_polynomial, parse_laurent, parse_coefficient,
    PolyError, ParseError, RingMismatch,
)
from .matrix import PolyMatrix
from .groebner import (
    INFINITE, GroebnerBasis, buchberger, module_groebner,
    normal_form, module_normal_form, ideal_membership, submodule_membership,
    membership_witness, image_and_syzygies, syzygy_module, syzygy_basis,
    syzygy_basis_of_vectors, standard_monomials, quotient_dim, hilbert_slices,
    minimal_polynomial, quotient_module_dim, subquotient_basis, ImageNotInKernel,
)
from .mf import (
    MatrixFactorization, MFMorphism, ValidationReport, ModulePresentation,
    PairComplex, NotAFactorization, InvalidMorphism, VariableCollision,
    CompositionNonzero, validate, rank_one, identity_morphism, zero_morphism,
    compose, shift, shift_morphism, direct_sum, cone, cone_triangle,
    tensor, knorrer, minimal_model, koszul, cokernel_presentation, totalize,
)
from .hom import (
    HomComplex, HomReport, OddMorphism, hom_complex, hom_dims,
    is_null_homotopic, is_contractible, is_homotopy_equivalence,
)
from .mirror import (
    ToricSpec, SuperpotentialSpec, CriticalReport,
    build_superpotential, critical_ideal, critical_count, critical_values,
    fiber_cardinality, projective_space, hirzebruch_one, del_pezzo_six,
    preset, PRESETS, NonUnimodularBasis, UnresolvableRay, MissingParameter,
    InfiniteCriticalLocus, CriticalValueError,
)
from . import corpus, files, oracle

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
