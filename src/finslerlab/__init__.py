"""finslerlab: numerical Finsler geometry on ball and interval charts.

Fundamental tensors, sprays, geodesics and Finslerian distances; Riemann,
flag and Ricci curvature with Einstein classification; projective
parameters measured through the interval Funk gauge, chains, and the
resulting projectively invariant pseudo-distance with its proportionality
check against the Finslerian distance.
"""

import types

from .curvature import (
    EinsteinReport,
    RicciData,
    RiemannCurvature,
    einstein_classify,
    flag_curvature,
    ricci_scalar,
    ricci_tensor,
    riemann_curvature,
    scalar_curvature_residual,
)
from .errors import (
    ConfigError,
    CriticalPointError,
    DegenerateFlagError,
    DomainExitError,
    EvaluationDomainError,
    FinslerError,
    IterationLimitError,
    MalformedChainError,
    NotEinsteinError,
    PoleError,
    SearchFailureError,
    StiffnessError,
    StrongConvexityError,
)
from .geodesics import (
    DistanceResult,
    Geodesic,
    finsler_distance,
    geodesic_ivp,
    spray_coefficients,
    spray_jet_functions,
)
from .jets import (
    Jet,
    JetSpace,
    jet_space,
)
from .metrics import (
    FinslerStructure,
    FundamentalTensor,
    MetricConfig,
    StructureValidation,
    fundamental_tensor,
    load_config,
    make_metric,
    validate_structure,
)
from .ode import OdeTrajectory, integrate_ivp
from .projective import (
    Chain,
    FunkGauge,
    GeodesicProjectiveMap,
    Lemma2Result,
    NumericalProjectiveMap,
    ProjectiveParameter,
    ProjectiveRelation,
    PseudoDistanceResult,
    Theorem1Report,
    build_canonical_chain,
    canonical_projective_map,
    chain_length,
    funk_distance,
    lemma2_check,
    projective_parameter,
    projective_relation,
    pseudo_distance,
    schwarzian,
    theorem1_verify,
)

__version__ = "0.1.0"

# the public names imported above; the submodules themselves are not exported
__all__ = sorted(
    name
    for name, value in vars().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
