"""Seeded inputs for the benchmark workloads.

Each generator turns a seed into the exact input the program receives: a
JSON run configuration for the `kernel` / `structure` CLI commands, or the
suite seed for `default-suite`. The same seed always yields the same
bytes. Why each workload exists is stated in BENCHMARK.json. Nothing here
calls into the program; the share of points inside a de-singularization
disk is measured by the caller through the library's `ZeroSequence.local_group`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# The program switches to its Taylor (de-singularized) route inside
# |w - v| <= 1e-3 * (1 + |v|) of a zero v. The generators place "inside"
# points well within that disk and "outside" points well beyond it, so a
# small change of the program's radius does not move a point across.
DISK_FACTOR = 1e-3
INSIDE = 0.9
OUTSIDE = 2.0

PW_SPACE = {"family": "paley-wiener", "x": 1.0}
PW_SIGMA = (1j, 1j, 2j, 1 + 1j)
HB_SPACE_ROOTS = (-1j, 1 - 1j, -1 - 2j, 0.5 - 0.5j, -0.5 - 1.5j)
HB_SIGMA = (1j, 1j, 1 + 1j)

# Rectangle [-2, 2] x [0, 2] of the upper half-plane used by every point set.
RE_MIN, RE_MAX, IM_MIN, IM_MAX = -2.0, 2.0, 0.0, 2.0

# Sizes give each process about half a second of evaluation after its
# ~0.45 s of set-up, so that a run holds a few dozen processes: one
# process's time varies by ~10% on a shared machine, and the median of
# many short processes is steadier than that of a few long ones.
PW_GRID_STEPS = (101, 51)
HB_POINTS = 5000
HB_INSIDE_SHARE = 0.01
NEAR_ZERO_POINTS = 60


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli" runs the debranges CLI on `config`; "suite" runs run_default_suite
    config: dict
    points: int  # evaluation points per process; 0 for the suite, which counts its reports


def _pair(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _radius(v: complex) -> float:
    return DISK_FACTOR * (1.0 + abs(v))


def _distinct(zeros) -> list[complex]:
    return list(dict.fromkeys(complex(v) for v in zeros))


def _inside(rng: np.random.Generator, v: complex) -> complex:
    """A point strictly inside the disk of v, uniform by area, never v itself."""
    while True:
        r = INSIDE * _radius(v) * math.sqrt(rng.uniform())
        t = rng.uniform(0, 2 * math.pi)
        if r > 0:
            return v + cmath.rect(r, t)


def _outside(rng: np.random.Generator, zeros) -> complex:
    """A point of the rectangle farther than OUTSIDE disk radii from every zero."""
    while True:
        w = complex(rng.uniform(RE_MIN, RE_MAX), rng.uniform(IM_MIN, IM_MAX))
        if all(abs(w - v) > OUTSIDE * _radius(v) for v in zeros):
            return w


def _cli_config(command: str, space: dict, sigma, **extra) -> dict:
    config = {"command": command, "space": space, "sigma": [_pair(v) for v in sigma]}
    config.update(extra)
    config["output"] = {"format": "csv"}
    return config


def pw_kernel_grid(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    zeros = _distinct(PW_SIGMA)
    # z stays in the upper half-plane, off the real axis and off every disk
    while True:
        z = complex(rng.uniform(RE_MIN, RE_MAX), rng.uniform(0.1, IM_MAX))
        if all(abs(z - v) > OUTSIDE * _radius(v) for v in zeros):
            break
    re_steps, im_steps = PW_GRID_STEPS
    grid = {"re_min": RE_MIN, "re_max": RE_MAX, "re_steps": re_steps,
            "im_min": IM_MIN, "im_max": IM_MAX, "im_steps": im_steps}
    config = _cli_config("kernel", PW_SPACE, PW_SIGMA, z=_pair(z), grid=grid)
    return Workload("pw-kernel-grid", "cli", config, re_steps * im_steps)


def hb_structure_points(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    zeros = _distinct(HB_SIGMA)
    inside = round(HB_POINTS * HB_INSIDE_SHARE)
    pts = [_inside(rng, zeros[i % len(zeros)]) for i in range(inside)]
    pts += [_outside(rng, zeros) for _ in range(HB_POINTS - inside)]
    pts = [pts[i] for i in rng.permutation(len(pts))]
    config = _cli_config(
        "structure",
        {"family": "polynomial-hb", "roots": [_pair(r) for r in HB_SPACE_ROOTS]},
        HB_SIGMA,
        eval_points=[_pair(w) for w in pts],
    )
    return Workload("hb-structure-points", "cli", config, len(pts))


def near_zero_kernel(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    zeros = _distinct(PW_SIGMA)
    z = _inside(rng, 1j)
    pts = list(zeros)  # a few points exactly on the zeros
    pts += [_inside(rng, zeros[i % len(zeros)]) for i in range(NEAR_ZERO_POINTS - len(zeros))]
    pts = [pts[i] for i in rng.permutation(len(pts))]
    config = _cli_config("kernel", PW_SPACE, PW_SIGMA, z=_pair(z), eval_points=[_pair(w) for w in pts])
    return Workload("near-zero-kernel", "cli", config, len(pts))


def default_suite(seed: int) -> Workload:
    return Workload("default-suite", "suite", {"seed": seed}, 0)


GENERATORS = {
    "pw-kernel-grid": pw_kernel_grid,
    "hb-structure-points": hb_structure_points,
    "near-zero-kernel": near_zero_kernel,
    "default-suite": default_suite,
}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
