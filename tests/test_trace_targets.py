"""Every function the benchmark's tracer wraps still exists in debranges.

`perfbench/spans.py` names the public functions it times; `Tracer.install`
skips a name the package no longer has, and that layer's metrics then read
0. This pins the names, so a refactor that moves one shows up here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, owners in spans.TARGETS.items():
        for owner_name, functions in owners.items():
            for fn_name in functions:
                yield module_name, owner_name, fn_name


@pytest.mark.parametrize("module_name, owner_name, fn_name", list(_targets()))
def test_trace_target_exists(module_name, owner_name, fn_name):
    module = importlib.import_module(f"debranges.{module_name}")
    owner = module if owner_name is None else getattr(module, owner_name)
    assert callable(getattr(owner, fn_name, None))
