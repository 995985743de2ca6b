"""Cross-route checks of the program's output values.

A seeded sample of each output's rows is recomputed by a second route of
the library, in the benchmark's own process:

* kernel rows with z and w off every de-singularization disk: the
  bordered-determinant route `GramSystem.sigma_kernel_det`;
* kernel rows with z or w inside a disk: Hermitian symmetry,
  K_z(w) = conj K_w(z), which moves the Taylor route to the other variable;
* structure rows: the diagonal identity
  |E_s(w)|^2 - |F_s(w)|^2 = 2 Im(w) K_w(w), with K_w(w) from the
  determinant route off the disks and from `sigma_kernel` inside them.

Off the disks a residual is measured against the size of the base-space
quantities that cancel in it (the derived values are the small remainders
of a projection, divided by prod(w - z_i)); DET_TOL sits about 100x above
the largest such residual seen (8e-15). Inside a disk those sizes blow up,
so the residual is measured against the derived-space values themselves,
with the tolerance rule of the library's own identity checks: a base
tolerance scaled by max(1, condition estimate / 1e4). There both routes
lose digits: at grid nodes exactly on a zero they sit 5e-11 to 1.5e-9
from a 50-digit mpmath reference, and the symmetry residual reaches
1.4e-9, about 50x below the scaled tolerance on the PW workloads.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DET_TOL = 1e-12
DISK_BASE_TOL = 1e-8
SAMPLE_ROWS = 64


def sample_rows(rows: int, inside: list[bool], seed: int) -> list[int]:
    """Up to SAMPLE_ROWS row indices, half of them inside a disk where possible."""
    rng = np.random.default_rng([seed, 99])
    ins = [i for i in range(rows) if inside[i]]
    outs = [i for i in range(rows) if not inside[i]]
    take_in = min(len(ins), max(SAMPLE_ROWS // 2, SAMPLE_ROWS - len(outs)))
    take_out = min(len(outs), SAMPLE_ROWS - take_in)
    picked = list(rng.choice(ins, take_in, replace=False)) + list(rng.choice(outs, take_out, replace=False))
    return sorted(int(i) for i in picked)


def disk_tol(gs) -> float:
    return DISK_BASE_TOL * max(1.0, gs.condition_estimate / 1e4)


def kernel_row_ok(gs, z: complex, w: complex, value: complex) -> bool:
    zs, space = gs.zeros, gs.space
    if zs.local_group(z) is None and zs.local_group(w) is None:
        ref = gs.sigma_kernel_det(z, w)
        scale = math.sqrt(space.kernel(z, z).real * space.kernel(w, w).real) / abs(
            zs.product(z) * zs.product(w)
        )
        return abs(value - ref) <= DET_TOL * scale
    ref = gs.sigma_kernel(w, z).conjugate()
    scale = math.sqrt(gs.sigma_kernel(z, z).real * gs.sigma_kernel(w, w).real)
    return abs(value - ref) <= disk_tol(gs) * scale


def structure_row_ok(gs, ssf, w: complex, e_value: complex) -> bool:
    zs, space = gs.zeros, gs.space
    f_value = ssf.eval("F", w)
    lhs = abs(e_value) ** 2 - abs(f_value) ** 2
    if zs.local_group(w) is None:
        rhs = 2.0 * w.imag * gs.sigma_kernel_det(w, w).real
        scale = (abs(space.eval_E(w)) ** 2 + abs(space.eval_E_star(w)) ** 2) / abs(zs.product(w)) ** 2
        return abs(lhs - rhs) <= DET_TOL * scale
    rhs = 2.0 * w.imag * gs.sigma_kernel(w, w).real
    return abs(lhs - rhs) <= disk_tol(gs) * (abs(e_value) ** 2 + abs(f_value) ** 2)


def check_output(kind: str, config: dict, path: str, seed: int) -> tuple[int, int, int, int]:
    """(checked, wrong, rows inside a disk, rows) for one output file.

    On the suite every report is checked, and one with passed=false is wrong.
    """
    import debranges

    if kind == "suite":
        reports = [json.loads(line) for line in Path(path).read_text().splitlines()]
        return len(reports), sum(1 for r in reports if not r["passed"]), 0, len(reports)
    raw = config["space"]
    if raw["family"] == "paley-wiener":
        space = debranges.PaleyWiener(raw["x"])
    else:
        space = debranges.PolynomialHB(tuple(complex(*r) for r in raw["roots"]))
    zs = debranges.canonicalize([complex(*p) for p in config["sigma"]])
    gs = debranges.build(space, zs)
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if config["command"] == "kernel":
        z = complex(*config["z"])
        if not np.array_equal(rows[:, :2], np.tile([z.real, z.imag], (len(rows), 1))):
            return 1, 1, 0, len(rows)
        args = [(z, complex(re, im), complex(vr, vi)) for _, _, re, im, vr, vi in rows]
        inside = [zs.local_group(z) is not None or zs.local_group(w) is not None for _, w, _ in args]
        picked = sample_rows(len(rows), inside, seed)
        wrong = sum(not kernel_row_ok(gs, *args[i]) for i in picked)
    else:
        ssf = debranges.derive(gs)
        args = [(complex(re, im), complex(vr, vi)) for re, im, vr, vi in rows]
        inside = [zs.local_group(w) is not None for w, _ in args]
        picked = sample_rows(len(rows), inside, seed)
        wrong = sum(not structure_row_ok(gs, ssf, *args[i]) for i in picked)
    return len(picked), wrong, sum(inside), len(rows)
