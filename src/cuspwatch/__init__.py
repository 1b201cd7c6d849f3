"""Exact-arithmetic toolkit for diagonal flows on SL_n lattice quotients.

Everything here computes over exact scalars: rationals, quadratic field
elements a + b*sqrt(d), and log-affine values q + sum(e_k * log(nu_k)).
There is no floating-point tolerance anywhere in a decision path; floats
appear only in convenience output fields.
"""

__version__ = "0.1.0"

from .scalars import QuadScalar, frac, frac_str, parse_frac
from .matrix import Mat
from .wedge import WedgeVector, plucker, leading_tuple
from .loglin import LogLin
from .chars import Character, SubgroupSpec, ambient_independent
from .bruhat import WeylElement, BruhatFactorization, bruhat_factor, weight_bound_check
from .radicals import (
    RadicalWitness,
    standard_radical,
    radical_from_subspace,
    enumerate_witnesses,
    active_radicals,
    cusp_profile,
)
from .bordered import (
    Gauge,
    BorderedSet,
    ConvexSpec,
    conjunction,
    positively_nontrivial,
    is_bounded,
    invdim,
    is_k_trivial,
    epsilon_bound,
    contract_step,
    intersect_nonempty,
)
from .cover import (
    CoverElement,
    CoverReport,
    build_cover,
    enumerate_local,
    good_restrictions,
    verify_subcover,
)
from .divergence import (
    WitnessVector,
    DivergenceCertificate,
    ray_shrink_set,
    cone_nonempty,
    check_certificate,
    build_certificate,
    ray_profile,
    search_witnesses,
)
from .sl4q import (
    Quaternion,
    iota,
    iota2,
    in_gamma,
    verify_periodicity,
    gr_plus,
    x_membership,
    v_g_check,
    sl4_divergence_demo,
    DemoResult,
)
from .errors import PreconditionError, DependentInput, GaugeTooSteep, InternalError

__all__ = [
    "QuadScalar", "frac", "frac_str", "parse_frac", "Mat",
    "WedgeVector", "plucker", "leading_tuple",
    "LogLin", "Character", "SubgroupSpec", "ambient_independent",
    "WeylElement", "BruhatFactorization", "bruhat_factor", "weight_bound_check",
    "RadicalWitness", "standard_radical", "radical_from_subspace",
    "enumerate_witnesses", "active_radicals", "cusp_profile",
    "Gauge", "BorderedSet", "ConvexSpec", "conjunction",
    "positively_nontrivial", "is_bounded", "invdim", "is_k_trivial",
    "epsilon_bound", "contract_step", "intersect_nonempty",
    "CoverElement", "CoverReport", "build_cover", "enumerate_local",
    "good_restrictions", "verify_subcover",
    "WitnessVector", "DivergenceCertificate", "ray_shrink_set", "cone_nonempty",
    "check_certificate", "build_certificate", "ray_profile", "search_witnesses",
    "Quaternion", "iota", "iota2", "in_gamma", "verify_periodicity",
    "gr_plus", "x_membership", "v_g_check", "sl4_divergence_demo", "DemoResult",
    "PreconditionError", "DependentInput", "GaugeTooSteep", "InternalError",
]
