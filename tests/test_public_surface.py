"""The names `import debranges` exports, and the test-only oracle that is not among them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_dir_lists_the_lazily_loaded_names():
    # the check names resolve through the module __getattr__ (PEP 562); __dir__ lists them too
    assert set(debranges.__all__) <= set(dir(debranges))


def test_check_names_import_in_a_fresh_process():
    env = dict(os.environ, PYTHONPATH=str(Path(debranges.__file__).resolve().parents[1]))
    code = (
        "import sys\n"
        "import debranges\n"
        "before = 'debranges.verify' in sys.modules\n"
        "from debranges import CheckReport, run_default_suite\n"
        "print(before, run_default_suite.__module__, CheckReport is sys.modules['debranges.verify'].CheckReport)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "debranges.verify", "True"]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'check_theorem3'"):
        debranges.check_theorem3
    assert not hasattr(debranges, "CHECKS")  # a verify name that is not public stays there
    with pytest.raises(ImportError):
        exec("from debranges import check_theorem3", {})
