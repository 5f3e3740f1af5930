"""cartanlab: exact Cartan-class computations for structure-constant Lie
algebras, Heisenberg deformations, contractions of exact-symplectic
algebras, and polynomial contact geometry on matrix groups.

Every computation is over the Gaussian rationals; nothing here touches a
float.
"""

from .scalars import Scalar, ZERO, ONE, I
from .liealg import LieAlgebra, Subspace, change_basis
from .forms import (
    DualForm,
    wedge,
    wedge_power,
    ce_differential,
    interior_product,
    cartan_class,
    characteristic_space,
    skew_reduce,
    wedge_power_class,
    CartanClass,
)
from .structure import (
    jacobi_check,
    center,
    lower_central_series,
    diagonal_derivations,
    bracket_compatible_endomorphisms,
    bracket_compatible_dimension,
    PreconditionError,
)
from .deformation import (
    DeformationSpec,
    circle_product,
    bullet_product,
    bullet_power,
    coboundary_of_map,
    coboundary_of_bilinear,
    check_quadratic_deformation,
    assemble,
    bilinear_from_endomorphism,
    normalize_linear_deformation,
    central_extension,
    central_quotient,
    NotCocycleError,
    DegenerateFormError,
)
from .contraction import (
    ContractionSpec,
    contract,
    frobenius_model_parameters,
    is_reduced_frobenius_shape,
)
from .spectrum import adjoint_spectrum, charpoly, scalar_roots, SpectrumResult
from . import catalog
from .poly import Poly
from .polyforms import (
    PolyForm,
    poly_wedge,
    poly_wedge_power,
    exterior_d,
    poly_interior,
    vf_bracket,
    form_on_field,
)
from .sturm import sturm_chain, count_real_roots
from .slgroup import (
    sl_contact_data,
    sl_contact_identity,
    singular_pairings,
    evaluate_singular_equations,
    so_invariance_check,
    pythagorean_rotation,
    block_rotation,
    reeb_identities,
)
from .heisenberg_group import (
    left_invariant_frames,
    right_invariant_frames,
    left_invariant_coframes,
    invariant_form,
    h3_contact_polynomial,
    h3_singular_system,
    h3_is_contact_everywhere,
)
from .poisson import darboux_poisson, darboux_vars
from .randgen import DEFAULT_SEED, rng, random_covector

__version__ = "0.1.0"
