"""Integer simplicial homology of a union X = A ∪ B through discrete
Morse theory: gradient vector fields on the pieces and their intersection
are combined into a small Mayer-Vietoris chain complex whose homology is
that of X, together with machinery that verifies the construction against
ordinary simplicial homology.

The package exports the names of the README's library tour and the error
types; everything else is imported from its own module.

`build_xtilde`, `check_iso_simplicial` and `check_main_iso` load lazily:
the first access to one of them imports `morsemv.verify` (PEP 562
`__getattr__`), and `from morsemv import *` binds them too.  Only the
`verify` command needs that module, so a fresh `morsemv homology`, `oracle`
or `trajectories` process does not pay for compiling it.
"""
from .complexes import Simplex, SimplicialComplex, build_complex, incidence
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
    simplicial_homology,
    smith_normal_form,
)
from .morse import (
    GradientField,
    Trajectory,
    VectorField,
    greedy_gvf,
    thom_smale_complex,
    trajectories_from,
)
from .mv import (
    Decomposition,
    MVGenerator,
    MVTrajectory,
    build_decomposition,
    enumerate_mv,
    mv_chain_complex,
    mv_generators,
    mv_homology,
)
from .formats import parse_complex, parse_decomposition

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "MorsemvError", "ParseError", "ComplexError", "FieldError",
    "NotAcyclicError", "DecompositionError", "InternalConsistencyError",
    # the library tour, in README order
    "Simplex", "SimplicialComplex", "build_complex", "incidence",
    "VectorField", "GradientField", "greedy_gvf",
    "trajectories_from", "Trajectory", "thom_smale_complex",
    "build_decomposition", "Decomposition",
    "mv_generators", "MVGenerator", "enumerate_mv", "MVTrajectory",
    "mv_chain_complex", "mv_homology",
    "build_xtilde", "check_iso_simplicial", "check_main_iso",
    "IntegerChainComplex", "HomologyResult",
    "smith_normal_form", "homology", "simplicial_homology",
    "parse_complex", "parse_decomposition",
]

_LAZY = ("build_xtilde", "check_iso_simplicial", "check_main_iso")


def __getattr__(name: str):
    if name in _LAZY:
        from . import verify

        value = globals()[name] = getattr(verify, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
