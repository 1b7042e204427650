"""Split-complex scalars, 2-norms on D^n, bounded 2-functionals, extensions.

The package is organized along the idempotent decomposition of the scalar
ring: `hyperbolic` holds the ring with its order and lattice structure,
`dmodule` the free module D^n and its submodules, `two_norm` real 2-norms
and their hyperbolic-valued lift, `two_functional` bounded 2-functionals as
antisymmetric component matrices with two independent norm computations, and
`hahn_banach` the constructive norm-preserving extension engine.  `cli`
exposes everything as JSON-driven subcommands.
"""

from .hyperbolic import (
    E1,
    E2,
    K,
    ONE,
    ZERO,
    EmptyCollection,
    Hyperbolic,
    NotInvertible,
    OrderResult,
    inf_d,
    sup_d,
)
from .dmodule import (
    AlreadyContained,
    DimensionMismatch,
    DSubmodule,
    DVector,
    linear_dependent,
)
from .two_norm import (
    AxiomReport,
    AxiomViolation,
    D2Norm,
    axiom_check,
    decompose,
)
from .two_functional import (
    BoundednessReport,
    DBilinear2Functional,
    NormCertificate,
    is_bounded_check,
    norm_bruteforce,
    norm_spectral,
)
from .hahn_banach import (
    DependentPair,
    ExtensionProblem,
    ExtensionStep,
    ExtensionTrace,
    RestrictedFunctional,
    ZeroDivisorInput,
    corollary_functional,
    full_extend,
)

__version__ = "0.1.0"

__all__ = [
    "E1",
    "E2",
    "K",
    "ONE",
    "ZERO",
    "EmptyCollection",
    "Hyperbolic",
    "NotInvertible",
    "OrderResult",
    "inf_d",
    "sup_d",
    "AlreadyContained",
    "DimensionMismatch",
    "DSubmodule",
    "DVector",
    "linear_dependent",
    "AxiomReport",
    "AxiomViolation",
    "D2Norm",
    "axiom_check",
    "decompose",
    "BoundednessReport",
    "DBilinear2Functional",
    "NormCertificate",
    "is_bounded_check",
    "norm_bruteforce",
    "norm_spectral",
    "DependentPair",
    "ExtensionProblem",
    "ExtensionStep",
    "ExtensionTrace",
    "RestrictedFunctional",
    "ZeroDivisorInput",
    "corollary_functional",
    "full_extend",
]
