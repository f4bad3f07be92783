"""Exact K0 invariants of commuting matrix tuples over Q and F_p."""

from .errors import (
    EnumerationBoundError,
    FieldMismatchError,
    NonCommutingError,
    ParseError,
)
from .fields import GF, QQ, FieldElement, FieldSpec
from .poly import (
    MultiPoly,
    UniPoly,
    normal_form,
    signed_reversal,
    squarefree_part,
    uni_gcd,
)
from .factor import factor_univariate
from .linalg import (
    Matrix,
    Subspace,
    charpoly,
    eval_poly_at_matrix,
    kernel_basis,
    minimal_polynomial,
    rref,
)
from .modules import (
    CommutingTuple,
    Ideal,
    InvariantSubmodule,
    MaximalIdealKey,
    quotient_is_field,
)
from .ktheory import (
    GrothendieckClass,
    TildeClass,
    compare_splittings,
    free_abelian_to_tilde,
    k0_class,
    kelley_spanier_split,
    lambda_t,
    principal_maximal_key,
    tilde_to_free_abelian,
    verify_additivity,
)
from .bruteforce import (
    all_invariant_submodules,
    composition_factors_bruteforce,
    k0_class_oracle,
    random_commuting_tuple,
)

__version__ = "0.1.0"
