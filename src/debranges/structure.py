"""The derived structure function and its construction routes.

Imposing a zero sequence on a space with structure function E produces a
new space whose structure function is determined by a finite datum: the
incomplete form E(w) - sum_j c_j Z_j(w) must vanish on the sequence with
multiplicity, which pins the coefficients c through one Gram fit. The
complete form E_sigma is the gram layer's Remainder of E with those
coefficients; its companion F_sigma is its reflection,
F_sigma(w) = conj(E_sigma(conj(w))), as for any structure function. Both
are calls of that Remainder, the one place a derived value is
range-checked. On a space of polynomials the Remainder is the exact
quotient of the incomplete form, a polynomial of degree d - n, built once
from (space, zeros, coefficients), so every route below gets it;
otherwise it divides the incomplete form point by point. Three routes
exist:

* ``derive``: the direct Gram solve; production path, handles repeated
  zeros through confluent mixed-partial entries.
* ``derive_iterative``: adds distinct zeros one at a time via the
  single-zero update, re-expressed against the original evaluators.
* ``derive_epsilon_oracle``: splits repeated zeros by z_i - k_i*eps,
  derives on each distinct configuration and extrapolates eps -> 0.
  Test-only oracle for the confluent solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import DomainError, InvalidScheduleError, LinearDependenceError
from .gram import GramSystem, Remainder, _span, build
from .kernels import StructureFunction
from .sigma import ZeroSequence, bracket_eps, canonicalize

# Relative floor on the projected kernel diagonal below which adding one
# more zero is declared linearly dependent (mirrors the Gram condition cap).
_DIAGONAL_FLOOR = 1e-12


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


@dataclass(frozen=True)
class SigmaStructureFunction:
    """Structure function of the derived space, stored by coefficients.

    The incomplete form E(w) - sum c_j Z_j(w) vanishes on the zero sequence
    with multiplicity; the complete form E_sigma is that divided by
    prod (w - z_i), the :class:`Remainder` of E with those coefficients.
    The companion F_sigma is the reflection of E_sigma.
    """

    base: StructureFunction
    zeros: ZeroSequence
    coeffs_E: tuple[complex, ...]

    @cached_property
    def _remainder(self) -> Remainder:
        return Remainder(self.base, self.zeros, 1.0, (), self.coeffs_E)

    def incomplete(self, w: complex, order: int = 0) -> complex:
        """order-th w-derivative of the incomplete form of E at w."""
        return self._remainder.residual(complex(w), order)

    def eval(self, which: str, w: complex) -> complex:
        """E_sigma(w), or F_sigma(w) = conj(E_sigma(conj(w))): one call of the Remainder of E.

        A value past the double range raises RangeError naming E_sigma at
        w, and for F at conj w (`Remainder.__call__`).
        """
        if which == "E":
            return self._remainder(w)
        if which == "F":
            return self._remainder(complex(w).conjugate()).conjugate()
        raise ValueError("which must be 'E' or 'F'")


def derive(gs: GramSystem) -> SigmaStructureFunction:
    """Coefficients of E from one fit on the Gram factorization."""
    return SigmaStructureFunction(gs.space, gs.zeros, gs.fit(1.0, ()))


def derive_iterative(space: StructureFunction, zeros: ZeroSequence) -> SigmaStructureFunction:
    """Distinct zeros added one at a time.

    Each step divides the current derived structure function by the new
    linear factor and removes its value through the current derived-space
    kernel; the update is folded back onto the original evaluators:
    with mu = p(z_new) / k(z_new, z_new), the coefficients become
    c_j -> c_j - mu * beta_j(z_new) and c_new = mu.
    """
    if any(k != 0 for k in zeros.confluence):
        raise DomainError("iterative route requires distinct zeros; derive handles repetitions")
    pts = zeros.points
    c: list[complex] = []
    for m, znew in enumerate(pts):
        prefix = canonicalize(pts[:m])
        gs = build(space, prefix)
        p = space.combination(1.0, _span(prefix, c))(znew)
        beta = gs.solve_beta(znew)
        diag = gs.incomplete_kernel(znew, znew, beta)
        if abs(diag) < _DIAGONAL_FLOOR * abs(space.kernel(znew, znew)):
            raise LinearDependenceError(
                f"evaluator at {znew} is numerically in the span of the previous ones"
            )
        mu = p / diag
        c = [cj - mu * bj for cj, bj in zip(c, beta)] + [mu]
    return SigmaStructureFunction(space, zeros, tuple(c))


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
