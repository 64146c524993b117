"""Exact and numeric workbench for orbifold quotients of SU(3).

Exact integer/rational layers decide orbifold validity, orbifold groups,
singular loci, and positive-curvature properties of circle and torus
quotients; a floating-point su(3) layer verifies the curvature claims
for the 5-dimensional quotient by the twisted SU(2) action.
"""

from .lattice import (
    AbelianGroup2,
    TRIVIAL_GROUP,
    RationalWitness,
    feasibility,
    kernel_elements,
    kernel_generator,
    kernel_group,
    snf2,
)
from .eschenburg7 import (
    ALL_PERMS,
    CYCLE_123,
    CYCLE_132,
    IDENTITY,
    PERM_NAMES,
    SWAP_12,
    SWAP_13,
    SWAP_23,
    CircleAction7,
    Validity,
    almost_positive7,
    cohom1_match,
    gamma7,
    permute,
    positive7,
    validate7,
)
from .eschenburg6 import (
    EDGE_ENDPOINTS,
    EDGE_ORDER,
    VERTEX_ORDER,
    Cohom1Params,
    Cohom1Tables,
    EdgeReport,
    GL2Z,
    Permute,
    Scale,
    Shift,
    SingularLocusReport,
    Swap,
    FamilyClassification,
    TorusAction6,
    apply_equivalence,
    cohom1_params,
    cohom1_tables,
    effectivize,
    effectivize_cohom1,
    gamma6,
    kernel_of_action,
    lgroup6,
    singular_report,
    classify_family_member,
    validate6,
    vertex_order_formula,
)
from .curvature import (
    CircleCombo,
    ExhaustedBound,
    FlatWitness,
    ReparCase,
    find_circle,
    flat_witness,
    repar_normal_form,
)
from .special import (
    NotPrimitiveError,
    O5Descriptor,
    Rp2Stratum,
    WeightedCP,
    WuReport,
    ZeroWeightError,
    o5_descriptor,
    weighted_cp,
    wu_quotient,
)
from .su3 import (
    CheegerMetric,
    Y3,
    flatness,
    haar_su3,
    horizontal_basis_O5,
    inner,
    inner_nu,
    su3_basis,
    vertical_basis_O5,
)
from .o5 import (
    CertificateError,
    FlatPlaneCertificate,
    FlatnessSearch,
    O5Verification,
    distance_to_torus,
    flat_plane_at_torus,
    g_z,
    min_flatness,
    o5_verify,
    plane_angle,
    plane_contains,
    stabilizer_check,
    torus_point,
    torus_tangents,
)

__version__ = "0.1.0"
