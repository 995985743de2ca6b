"""The names `import debranges` exports, and the test-only oracle that is not among them."""

import debranges
from debranges import sigma, structure

PUBLIC = {
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
}
# the split-zero oracle, which lives in tests/split_zero_oracle.py
ORACLE = ("bracket_eps", "derive_epsilon_oracle", "EpsilonSplitOracle", "extrapolate_to_zero")


def test_all_is_the_public_surface():
    assert len(debranges.__all__) == len(PUBLIC) == 28
    assert set(debranges.__all__) == PUBLIC


def test_every_public_name_resolves():
    assert [name for name in sorted(PUBLIC) if not hasattr(debranges, name)] == []


def test_the_oracle_is_not_library_code():
    leaked = [(m.__name__, name) for m in (debranges, structure, sigma) for name in ORACLE if hasattr(m, name)]
    assert leaked == []
