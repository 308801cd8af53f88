"""chaingeo: computable chain geometry of complex hyperbolic space.

Cartan angular invariants and chain incidence, Busemann/visual-measure
machinery, explicit bounded Kahler-form representatives, Toledo invariants
with the Milnor-Wood bound, boundary-map rigidity at desk scale, and exact
finite-group models of fibered-product resolutions.
"""

from .busemann import (
    Entropy,
    VisualMeasure,
    busemann,
    e_xi,
    measure_transform_check,
    unit_mass_check,
    volume_entropy,
)
from .chains import (
    Chain,
    cartan_invariant,
    cartan_invariant_flagged,
    chain_contains,
    chain_through,
    sample_chain_point,
)
from .forms import (
    BoundaryCocycle,
    BoundaryMapHandle,
    FormEvaluation,
    chain_formula_check,
    delta_form_eval,
    delta_form_field,
    exterior_derivative_fd,
    pullback_kappa_form,
)
from .hermitian import (
    HermitianModel,
    ProjPoint,
    TangentVector,
    TriangleArea,
    exp_map,
    inner,
    metric_and_kahler,
    tangent,
    triangle_area,
)
from .isometries import (
    EmbeddingMap,
    Isometry,
    apply_isometry,
    random_isometry,
    standard_embedding,
    translation_along_axis,
)
from .projective import (
    AT_INFINITY,
    AffLine,
    QQi,
    QuadConfig,
    QuadrilateralStepError,
    complete_quadrilateral,
    cross_ratio,
    fit_affine,
    harmonic_conjugate,
)
from .reconstruction import (
    BoundarySampleMap,
    NoRigidModelError,
    chain_compatibility_check,
    fit_embedding,
    verify_embedding,
)
from .toledo import (
    SurfaceGroupRep,
    ToledoResult,
    conjugate_rep,
    fuchsian_genus2_rep,
    milnor_wood_check,
    toledo_surface_group,
)

__version__ = "0.1.0"
