"""Exact presentations and verification oracles for reciprocal planes of
hyperplane arrangements and their graded-commutative analogs."""

from .arrangement import (
    Arrangement,
    Flat,
    Relation,
    circuits,
    closure,
    flats,
    relation_space,
    restrict_to_flat,
)
from .caps import Caps, CapExceeded
from .fields import PrimeField, RationalField
from .groebner import eliminate, groebner_ideal, ideal_equal, normal_form
from .modules import (
    module_groebner,
    module_intersect,
    module_normal_form,
    module_preimage,
)
from .oracle import (
    count_points,
    eval_h,
    eval_psi,
    hilbert,
    kernel_I,
    kernel_K_degree,
    verify_charts,
    verify_groebner_lemma,
    verify_lemma7,
    verify_minimal,
    verify_theorem1,
    verify_theorem2,
)
from .polynomials import Polynomial, PolyRing
from .relations import (
    Presentation,
    chart_ring,
    commutative_generators,
    d_of_L,
    p_of_L,
    p_of_LS,
    q_of_LS,
    super_generators,
    t_ring,
)
from .superalg import ExtElement, ext_mul, shuffle_sign, xi_from_tdz

__all__ = [
    "Arrangement", "Flat", "Relation", "circuits", "closure", "flats",
    "relation_space", "restrict_to_flat", "Caps", "CapExceeded",
    "PrimeField", "RationalField", "eliminate", "groebner_ideal",
    "ideal_equal", "normal_form", "ExtElement",
    "module_groebner", "module_intersect", "module_normal_form",
    "module_preimage", "Polynomial", "PolyRing", "Presentation",
    "chart_ring", "commutative_generators", "d_of_L", "p_of_L", "p_of_LS",
    "q_of_LS", "super_generators", "t_ring",
    "ext_mul", "shuffle_sign", "xi_from_tdz", "count_points", "eval_h",
    "eval_psi", "hilbert", "kernel_I", "kernel_K_degree", "verify_charts",
    "verify_groebner_lemma", "verify_lemma7", "verify_minimal",
    "verify_theorem1", "verify_theorem2",
]
