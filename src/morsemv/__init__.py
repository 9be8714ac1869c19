"""Integer simplicial homology of a union X = A ∪ B through discrete
Morse theory: gradient vector fields on the pieces and their intersection
are combined into a small Mayer-Vietoris chain complex whose homology is
that of X, together with machinery that verifies the construction against
ordinary simplicial homology.
"""
from .complexes import (
    ComplexCopy,
    PrismComplex,
    Simplex,
    SimplicialComplex,
    build_complex,
    copy_relabel,
    incidence,
    intersection,
    prism,
    union,
)
from .errors import (
    ComplexError,
    DecompositionError,
    FieldError,
    InternalConsistencyError,
    MorsemvError,
    NotAcyclicError,
    ParseError,
)
from .homology import (
    HomologyResult,
    IntegerChainComplex,
    homology,
    simplicial_chain_complex,
    simplicial_homology,
    smith_normal_form,
)
from .morse import (
    DEFAULT_SEED,
    AcyclicityReport,
    GradientField,
    Trajectory,
    VectorField,
    critical_simplices,
    enumerate_trajectories,
    greedy_gvf,
    is_acyclic,
    thom_smale_boundary,
    thom_smale_complex,
    trajectories_from,
    trajectory_weight,
    validate_trajectory,
)
from .mv import (
    FROM_A,
    FROM_B,
    SHIFTED,
    Decomposition,
    MVGenerator,
    MVTrajectory,
    build_decomposition,
    enumerate_mv,
    mv_boundary,
    mv_chain_complex,
    mv_generators,
    mv_homology,
    mv_trajectories_from,
    validate_mv_trajectory,
)
from .formats import (
    DecompositionFile,
    parse_complex,
    parse_decomposition,
    parse_generator_name,
)
from .verify import (
    CheckResult,
    VerifyReport,
    WField,
    XTilde,
    build_v_field,
    build_w_field,
    build_xtilde,
    check_iso_simplicial,
    check_main_iso,
    classify_w_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # complexes
    "Simplex", "SimplicialComplex", "ComplexCopy", "PrismComplex",
    "incidence", "build_complex", "union", "intersection", "copy_relabel",
    "prism",
    # errors
    "MorsemvError", "ParseError", "ComplexError", "FieldError",
    "NotAcyclicError", "DecompositionError", "InternalConsistencyError",
    # homology
    "smith_normal_form", "IntegerChainComplex",
    "HomologyResult", "homology", "simplicial_chain_complex",
    "simplicial_homology",
    # morse
    "DEFAULT_SEED", "VectorField", "GradientField", "AcyclicityReport",
    "is_acyclic", "critical_simplices", "Trajectory", "trajectory_weight",
    "validate_trajectory", "trajectories_from", "enumerate_trajectories",
    "thom_smale_boundary", "thom_smale_complex", "greedy_gvf",
    # mv
    "FROM_A", "FROM_B", "SHIFTED", "MVGenerator", "Decomposition",
    "build_decomposition", "mv_generators", "MVTrajectory",
    "mv_trajectories_from", "enumerate_mv", "validate_mv_trajectory",
    "mv_boundary", "mv_chain_complex", "mv_homology",
    # formats
    "parse_complex", "parse_decomposition", "parse_generator_name",
    "DecompositionFile",
    # verify
    "XTilde", "WField", "build_xtilde", "build_v_field", "build_w_field",
    "classify_w_trajectory", "CheckResult", "VerifyReport",
    "check_iso_simplicial", "check_main_iso",
]
