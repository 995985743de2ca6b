"""Hilbert spaces of entire functions with imposed zeros.

Evaluates reproducing kernels of de Branges spaces, builds the structure
function of the subspace obtained by imposing a finite list of zeros
(with multiplicities handled through confluent mixed partials), and
verifies the resulting identities numerically at desk scale.

The check names (`CheckReport`, the `check_*` functions,
`run_config_checks` and `run_default_suite`) live in `debranges.verify`,
which is imported on first use of any of them (PEP 562): `import
debranges`, and a `kernel` or `structure` run, do not load it.
"""

from .errors import (
    ConfigError,
    DeBrangesError,
    DomainError,
    LinearDependenceError,
    RangeError,
    UnsupportedOrderError,
)
from .gram import CONDITION_LIMIT, GramSystem, build
from .kernels import PaleyWiener, PolynomialHB, StructureFunction
from .sigma import ZeroSequence, canonicalize
from .structure import SigmaStructureFunction, derive, derive_iterative

__version__ = "0.1.0"

__all__ = [
    "CONDITION_LIMIT",
    "CheckReport",
    "ConfigError",
    "DeBrangesError",
    "DomainError",
    "GramSystem",
    "LinearDependenceError",
    "PaleyWiener",
    "PolynomialHB",
    "RangeError",
    "SigmaStructureFunction",
    "StructureFunction",
    "UnsupportedOrderError",
    "ZeroSequence",
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


def __getattr__(name: str):
    # called only for a name not bound above: a public one is one of verify's
    if name in __all__:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
