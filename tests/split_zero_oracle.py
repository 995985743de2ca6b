"""Split-zero extrapolation: an oracle for the confluent Gram solve.

Every repeated zero z_i is split to z_i - k_i*eps, the distinct-zero
derivation runs on each split configuration, and the results extrapolate
to eps = 0. Nothing here reads a mixed partial of order above zero, so it
checks the confluent entries and the derived forms that `derive` builds
from them by another road. The test modules import it; its name keeps
pytest from collecting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from debranges import (
    DeBrangesError, GramSystem, SigmaStructureFunction, StructureFunction, ZeroSequence,
    build, canonicalize, derive,
)


class InvalidScheduleError(DeBrangesError):
    """A split-zero schedule produced colliding split points."""


def extrapolate_to_zero(steps: Sequence[float], values: Sequence[complex]) -> complex:
    """Value at 0 of the polynomial through (steps[i], values[i]).

    Neville's scheme evaluated at 0; with steps in constant ratio this is
    the classic elimination of the leading error powers eps, eps^2, ...
    """
    if len(steps) != len(values):
        raise ValueError("steps and values must have matching lengths")
    if not steps:
        raise ValueError("at least one step is required")
    e = [float(s) for s in steps]
    if len(set(e)) != len(e):
        raise ValueError("steps must be distinct")
    p = [complex(v) for v in values]
    n = len(p)
    for level in range(1, n):
        for i in range(n - level):
            p[i] = (e[i] * p[i + 1] - e[i + level] * p[i]) / (e[i] - e[i + level])
    return p[0]


def bracket_eps(f: Callable[[complex], complex], zs: ZeroSequence, i: int, eps: float) -> complex:
    """One-sided difference approximation of f^(k_i)(z_i), the i-th entry's derivative.

    eps^(-k_i) * sum_l (-1)^l binom(k_i, l) f(z_i - l*eps), which tends to
    f^(k_i)(z_i) as eps -> 0 for analytic f.
    """
    eps = float(eps)
    if not eps > 0:
        raise ValueError("eps must be positive")
    k = zs.confluence[i]
    z = zs.points[i]
    acc = 0j
    for ell in range(k + 1):
        acc += ((-1) ** ell) * math.comb(k, ell) * f(z - ell * eps)
    return acc / eps**k


@dataclass(frozen=True, eq=False)
class EpsilonSplitOracle:
    """Extrapolated evaluators over a family of split-zero configurations.

    Every repeated zero z_i is displaced to z_i - k_i*eps for each eps of
    the schedule, the distinct-zero derivation runs on each configuration,
    and all exposed quantities extrapolate the results to eps = 0 with a
    first-order (one-sided difference) error model.
    """

    space: StructureFunction
    zeros: ZeroSequence
    schedule: tuple[float, ...]
    systems: tuple[GramSystem, ...]
    derived: tuple[SigmaStructureFunction, ...]

    def incomplete(self, w: complex) -> complex:
        """Extrapolated incomplete form of the derived E."""
        return extrapolate_to_zero(self.schedule, [ssf.incomplete(w) for ssf in self.derived])

    def incomplete_kernel(self, z: complex, w: complex) -> complex:
        """Extrapolated projection residual of the split configurations."""
        return extrapolate_to_zero(
            self.schedule, [gs.incomplete_kernel(z, w) for gs in self.systems]
        )

    def gram_entry(self, i: int, j: int) -> complex:
        """Double one-sided difference of plain kernel values, extrapolated.

        Converges to the confluent Gram entry (Z_i, Z_j); assembled from
        kernel evaluations alone so it is independent of the analytic
        mixed-partial route.
        """
        zs, kernel = self.zeros, self.space.kernel
        return extrapolate_to_zero(
            self.schedule,
            [
                bracket_eps(lambda w: bracket_eps(lambda z: kernel(z, w), zs, j, eps), zs, i, eps)
                for eps in self.schedule
            ],
        )


def derive_epsilon_oracle(
    space: StructureFunction,
    zeros: ZeroSequence,
    eps_schedule: Sequence[float],
) -> EpsilonSplitOracle:
    """Split repeated zeros, derive on each configuration, extrapolate.

    For distinct zeros no splitting happens and every configuration equals
    the confluent one. Colliding split points raise InvalidScheduleError.
    """
    schedule = tuple(float(e) for e in eps_schedule)
    if not schedule:
        raise InvalidScheduleError("schedule must contain at least one eps")
    if any(not (math.isfinite(e) and e > 0) for e in schedule):
        raise InvalidScheduleError("every eps must be a positive finite real")
    if len(set(schedule)) != len(schedule):
        raise InvalidScheduleError("eps values must be distinct")

    systems: list[GramSystem] = []
    derived: list[SigmaStructureFunction] = []
    for eps in schedule:
        pts = [z - k * eps for z, k in zip(zeros.points, zeros.confluence)]
        if len(set(pts)) != len(pts):
            raise InvalidScheduleError(
                f"split points collide at eps={eps}; choose a different schedule"
            )
        gs = build(space, canonicalize(pts))
        systems.append(gs)
        derived.append(derive(gs))
    return EpsilonSplitOracle(space, zeros, schedule, tuple(systems), tuple(derived))
