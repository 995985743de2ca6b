"""Hilbert spaces of entire functions with imposed zeros.

Evaluates reproducing kernels of de Branges spaces, builds the structure
function of the subspace obtained by imposing a finite list of zeros
(with multiplicities handled through confluent mixed partials), and
verifies the resulting identities numerically at desk scale.
"""

from .errors import (
    ConfigError,
    DeBrangesError,
    DomainError,
    InvalidScheduleError,
    LinearDependenceError,
    PoleError,
    RangeError,
    UnsupportedOrderError,
)
from .gram import CONDITION_LIMIT, GramSystem, build
from .kernels import PaleyWiener, PolynomialHB, StructureFunction
from .sigma import ZeroSequence, bracket, canonicalize
from .structure import SigmaStructureFunction, derive, derive_iterative
from .verify import (
    CheckReport,
    check_hb_inheritance,
    check_n1_identities,
    check_projection,
    check_pw_example,
    check_theorem2,
    run_config_checks,
    run_default_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CONDITION_LIMIT",
    "CheckReport",
    "ConfigError",
    "DeBrangesError",
    "DomainError",
    "GramSystem",
    "InvalidScheduleError",
    "LinearDependenceError",
    "PaleyWiener",
    "PoleError",
    "PolynomialHB",
    "RangeError",
    "SigmaStructureFunction",
    "StructureFunction",
    "UnsupportedOrderError",
    "ZeroSequence",
    "bracket",
    "build",
    "canonicalize",
    "check_hb_inheritance",
    "check_n1_identities",
    "check_projection",
    "check_pw_example",
    "check_theorem2",
    "derive",
    "derive_iterative",
    "run_config_checks",
    "run_default_suite",
]
