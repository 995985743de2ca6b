"""The derived structure function and its construction routes.

Imposing a zero sequence on a space with structure function E produces a
new space whose structure function is determined by a finite datum: the
incomplete form E(w) - sum_j c_j Z_j(w) must vanish on the sequence with
multiplicity, which pins the coefficients c through one Gram fit. The
incomplete form is read as the checked `combination` of E and the fit's
terms. The complete form E_sigma is the gram layer's Remainder of E with
those coefficients, the incomplete form's quotient by prod (w - z_i); its
companion F_sigma is its reflection, F_sigma(w) = conj(E_sigma(conj(w))),
as for any structure function. Both are calls of that Remainder, the one
place a derived value is range-checked. On a space of polynomials the
Remainder is the exact quotient, a polynomial of degree d - n, built once
from (space, zeros, coefficients), so both routes below get it;
otherwise it divides the incomplete form point by point. Two routes
exist:

* ``derive``: the direct Gram solve; production path, handles repeated
  zeros through confluent mixed-partial entries.
* ``derive_iterative``: adds distinct zeros one at a time via the
  single-zero update, re-expressed against the original evaluators.

The tests add a third, independent of the confluent entries: split the
repeated zeros by z_i - k_i*eps, derive on each distinct configuration and
extrapolate eps -> 0 (``tests/split_zero_oracle.py``).
"""

from __future__ import annotations

from functools import cached_property

from ._record import FrozenRecord
from .errors import DomainError, LinearDependenceError
from .gram import GramSystem, Remainder, _quotient, _span, build
from .kernels import StructureFunction
from .sigma import ZeroSequence, canonicalize

# Relative floor on the projected kernel diagonal below which adding one
# more zero is declared linearly dependent (mirrors the Gram condition cap).
_DIAGONAL_FLOOR = 1e-12


class SigmaStructureFunction(FrozenRecord):
    """Structure function of the derived space, stored by coefficients.

    The incomplete form E(w) - sum c_j Z_j(w) vanishes on the zero sequence
    with multiplicity; the complete form E_sigma is that divided by
    prod (w - z_i), the :class:`Remainder` of E with those coefficients.
    The companion F_sigma is the reflection of E_sigma.
    """

    base: StructureFunction
    zeros: ZeroSequence
    coeffs_E: tuple[complex, ...]

    def __init__(self, base: StructureFunction, zeros: ZeroSequence, coeffs_E: tuple[complex, ...]):
        self._set(base, zeros, coeffs_E)

    @cached_property
    def _remainder(self) -> Remainder:
        return Remainder(_quotient(self.base, self.zeros, 1.0, (), self.coeffs_E), "E_sigma(w) at w = {0}")

    def incomplete(self, w: complex, order: int = 0) -> complex:
        """order-th w-derivative of the incomplete form of E at w: the checked `combination` of the fit."""
        return self.base.combination(1.0, _span(self.zeros, self.coeffs_E))(complex(w), order)

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
        # the projection residual at znew, read from the fit already in hand
        diag = space.combination(0, [(1.0, 0, znew), *_span(prefix, beta)])(znew)
        if abs(diag) < _DIAGONAL_FLOOR * abs(space.kernel(znew, znew)):
            raise LinearDependenceError(
                f"evaluator at {znew} is numerically in the span of the previous ones"
            )
        mu = p / diag
        c = [cj - mu * bj for cj, bj in zip(c, beta)] + [mu]
    return SigmaStructureFunction(space, zeros, tuple(c))
