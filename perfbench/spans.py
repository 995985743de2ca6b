"""In-process tracing of the library's public functions, from outside it.

`Tracer.install` replaces each public function and method listed in
`TARGETS` with a wrapper that times the call as a span and counts it. The
wrappers live only in the traced process; nothing under `src/` changes.
Spans are folded into per-name totals as they close (calls, self time),
so memory stays flat over millions of calls; the totals are written out
once, when the process ends.

Self time is a span's duration minus the time covered by the spans it
encloses, so `gram.sigma_kernel.self_s` excludes the kernel partials and
solves it calls.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# module -> {class name or None for module-level functions: function names}
TARGETS = {
    "kernels": {
        "StructureFunction": ("kernel", "kernel_mixed_partial", "eval_E", "eval_E_star"),
        "PaleyWiener": ("kernel", "kernel_mixed_partial", "eval_E", "eval_E_star"),
        "PolynomialHB": ("kernel", "kernel_mixed_partial", "eval_E", "eval_E_star"),
    },
    "gram": {
        "GramSystem": ("solve", "sigma_kernel", "sigma_kernel_det"),
        None: ("build",),
    },
    "sigma": {"ZeroSequence": ("local_group", "product")},
    "structure": {
        "SigmaStructureFunction": ("eval", "incomplete"),
        None: ("derive",),
    },
    "verify": {
        None: (
            "check_theorem2",
            "check_projection",
            "check_hb_inheritance",
            "check_n1_identities",
            "check_pw_example",
        ),
    },
    "cli": {None: ("load_config", "run")},
}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # one [seconds covered by child spans] per open span
        self.totals: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters: dict[str, float] = {}

    def wrap(self, name: str, fn, on_result=None):
        stack = self.stack
        totals = self.totals.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals[0] += 1
                totals[1] += elapsed - frame[0]
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_hit(self, result) -> None:
        if result is not None:
            self.counters["sigma.local_group.hits"] = self.counters.get("sigma.local_group.hits", 0) + 1

    def _record_condition(self, gs) -> None:
        key = "gram.condition_estimate.max"
        self.counters[key] = max(self.counters.get(key, 0.0), gs.condition_estimate)

    def install(self) -> None:
        """Wrap every target in the already imported `debranges` package.

        A target the package no longer has is skipped; its metrics read 0.
        """
        hooks = {"sigma.local_group": self._count_hit, "gram.build": self._record_condition}
        package = [m for n, m in sys.modules.items() if n == "debranges" or n.startswith("debranges.")]
        for module_name, owners in TARGETS.items():
            module = sys.modules.get(f"debranges.{module_name}")
            for owner_name, functions in owners.items():
                owner = module if owner_name is None else getattr(module, owner_name, None)
                for fn_name in functions:
                    name = f"{module_name}.{fn_name}"
                    if owner_name is not None:
                        # a subclass that inherits the method is served by the base wrapper
                        if owner is not None and fn_name in vars(owner):
                            setattr(owner, fn_name, self.wrap(name, vars(owner)[fn_name], hooks.get(name)))
                        continue
                    original = getattr(owner, fn_name, None)
                    if original is None:
                        continue
                    wrapped = self.wrap(name, original, hooks.get(name))
                    # the function is also bound under its name in every module that imported it
                    for mod in package:
                        if getattr(mod, fn_name, None) is original:
                            setattr(mod, fn_name, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"totals": self.totals, "counters": self.counters}, handle)


def import_split(importtime_log: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and debranges's own modules.

    Parses `python -X importtime` output. numpy and scipy are the whole
    subtrees imported from outside either of them; `debranges` is the
    cumulative time of the package minus those subtrees, which it imports.
    """
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, int(cumulative), name.strip()))
    # -X importtime prints a module after the modules it imported, so walking
    # backwards meets every parent before its children
    split = {"numpy": 0, "scipy": 0, "debranges": 0}
    ancestors: list[str] = []
    for depth, cumulative, name in reversed(rows):
        del ancestors[depth:]
        root = name.split(".")[0]
        if root in ("numpy", "scipy") and not any(a in ("numpy", "scipy") for a in ancestors):
            split[root] += cumulative
        if name == "debranges":
            split["debranges"] += cumulative
        ancestors.append(root)
    split["debranges"] -= split["numpy"] + split["scipy"]
    return {f"import.{k}_s": v * 1e-6 for k, v in split.items()}
