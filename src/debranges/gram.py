"""Gram systems of point evaluators and the derived-space kernel.

The Gram matrix couples the evaluators attached to a zero sequence,
G[i][j] = (Z_i, Z_j) = kernel_mixed_partial(k_i, k_j, z_j, z_i). Solving
G beta = ((Z_i, Z_z))_i yields the projection coefficients of Z_z onto
the span of the Z_j; the derived-space kernel is the projection residual
rescaled by the rational factors,

    K_z(w) = gamma(w) * conj(gamma(z)) * (Z_z(w) - sum_j beta_j Z_j(w)).

The linear-solve route is the production path. The bordered-determinant
route exists purely as an independent cross-check and is therefore kept
free of any shared intermediate beyond the Gram matrix itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, LinearDependenceError, RangeError
from .kernels import StructureFunction
from .sigma import DESINGULARIZATION_TERMS, ZeroSequence

CONDITION_LIMIT = 1e12


def bordered_det(a: np.ndarray, col, row, corner: complex) -> complex:
    """det [[a, col], [row, corner]] for a square a, bordered by one column and one row."""
    n = a.shape[0]
    m = np.empty((n + 1, n + 1), dtype=complex)
    m[:n, :n] = a
    m[:n, n] = col
    m[n, :n] = row
    m[n, n] = corner
    return complex(np.linalg.det(m))


@dataclass(frozen=True, eq=False)
class GramSystem:
    """Hermitian positive-definite Gram matrix plus solve machinery."""

    space: StructureFunction
    zeros: ZeroSequence
    matrix: np.ndarray
    factorization: Optional[np.ndarray]  # lower Cholesky factor L, matrix = L L^H
    det: float
    condition_estimate: float

    @property
    def n(self) -> int:
        return len(self.zeros)

    def solve(self, rhs) -> np.ndarray:
        """G x = rhs for one right-hand side vector.

        Forward substitution on L, then back substitution on L^H, in plain
        complex arithmetic: at these sizes that beats any array call.
        """
        rhs = np.asarray(rhs, dtype=complex)
        n = self.n
        if n == 0:
            return np.zeros(0, dtype=complex)
        low = self.factorization.tolist()
        y = []
        for i, acc in enumerate(rhs.tolist()):
            row = low[i]
            for j in range(i):
                acc -= row[j] * y[j]
            y.append(acc / row[i])
        x = [0j] * n
        for i in range(n - 1, -1, -1):
            acc = y[i]
            for j in range(i + 1, n):
                acc -= low[j][i].conjugate() * x[j]
            x[i] = acc / low[i][i].conjugate()
        return np.array(x, dtype=complex)

    def _constraint_rhs(self, z: complex, b: int = 0) -> np.ndarray:
        pts, ks = self.zeros.points, self.zeros.confluence
        return np.array(
            [self.space.kernel_mixed_partial(ks[i], b, z, pts[i]) for i in range(self.n)],
            dtype=complex,
        )

    def solve_beta(self, z: complex) -> np.ndarray:
        """Projection coefficients beta with sum_j beta_j Z_j[z_i] = Z_z[z_i]."""
        return self.solve(self._constraint_rhs(complex(z)))

    def incomplete_kernel(self, z: complex, w: complex, beta=None) -> complex:
        """Projection residual Z_z(w) - sum_j beta_j(z) Z_j(w).

        Vanishes on the zero sequence in w (to the run multiplicity) and,
        by symmetry, anti-analytically in z. A caller that already holds
        solve_beta(z) passes it as `beta` to skip the solve.
        """
        z, w = complex(z), complex(w)
        if beta is None:
            beta = self.solve_beta(z)
        pts, ks = self.zeros.points, self.zeros.confluence
        val = self.space.kernel(z, w)
        for t in range(self.n):
            val -= beta[t] * self.space.kernel_mixed_partial(0, ks[t], pts[t], w)
        return complex(val)

    def kernel_row(self, z: complex) -> KernelRow:
        """The derived-space evaluator K_z as a function of w, for fixed z."""
        return KernelRow(self, z)

    def sigma_kernel(self, z: complex, w: complex) -> complex:
        """Derived-space evaluator K_z(w), finite also on the zero sequence.

        One-point form of :meth:`kernel_row`; a caller evaluating many w
        for one z should keep the row instead.
        """
        return self.kernel_row(z)(w)

    def sigma_kernel_det(self, z: complex, w: complex) -> complex:
        """Bordered-determinant form of K_z(w); cross-validation route.

        Undefined when z or w equals a zero of the sequence (those limits
        are served by :meth:`sigma_kernel`).
        """
        z, w = complex(z), complex(w)
        zs = self.zeros
        pts, ks = zs.points, zs.confluence
        if any(z == p for p in pts) or any(w == p for p in pts):
            raise DomainError(
                "determinant route is undefined on the zero sequence; "
                "sigma_kernel evaluates those limits"
            )
        space, n = self.space, self.n
        col = [space.kernel_mixed_partial(ks[i], 0, z, pts[i]) for i in range(n)]
        row = [space.kernel_mixed_partial(0, ks[j], pts[j], w) for j in range(n)]
        det = bordered_det(self.matrix, col, row, space.kernel(z, w))
        denom = zs.product(w) * zs.product(z).conjugate()
        return det / (self.det * denom)


class KernelRow:
    """K_z(w) for one fixed z, evaluated at any number of points w.

    The projection coefficients beta depend on z alone, so they are solved
    once here. When z sits inside the de-singularization disk of a run of m
    equal zeros, the vanishing order of the projection residual in conj(z)
    is divided out through its Taylor coefficients (mixed partials of the
    residual), so the removable singularities of the gamma factors are
    crossed with analytic derivatives rather than extrapolation. The w side
    goes through :meth:`ZeroSequence.divide_out`, whose Taylor coefficients
    depend only on (z, run): each run's table is filled the first time a w
    falls in its disk and extended by derivative order as points need it.
    """

    def __init__(self, gs: GramSystem, z: complex):
        z = complex(z)
        zs = gs.zeros
        self.gs = gs
        zg = zs.local_group(z)
        if zg is None:
            z0, mz, qmax, z_excl = z, 0, 0, None
        else:
            z0, mz = zg
            qmax = 0 if z == z0 else DESINGULARIZATION_TERMS
            z_excl = z0
        self.z0, self.mz = z0, mz
        dz = (z - z0).conjugate()
        self.betas = [gs.solve(gs._constraint_rhs(z0, mz + q)) for q in range(qmax + 1)]
        self.zfacs = [dz**q / math.factorial(mz + q) for q in range(qmax + 1)]
        self.zprod_conj = zs.product(z, exclude_value=z_excl).conjugate()
        self._taylor: dict[complex, tuple[complex, ...]] = {}

    def _residual(self, w0: complex, a: int) -> complex:
        """d^a/dw^a at w0 of the projection residual, summed over the z-orders."""
        space, zs = self.gs.space, self.gs.zeros
        pts, ks = zs.points, zs.confluence
        basis = [space.kernel_mixed_partial(a, ks[t], pts[t], w0) for t in range(len(pts))]
        total = 0j
        for q, beta in enumerate(self.betas):
            val = space.kernel_mixed_partial(a, self.mz + q, self.z0, w0)
            for t in range(len(basis)):
                val -= beta[t] * basis[t]
            total += val * self.zfacs[q]
        return total

    def __call__(self, w: complex) -> complex:
        return self.gs.zeros.divide_out(self._residual, complex(w), self._taylor) / self.zprod_conj


def build(space: StructureFunction, zeros: ZeroSequence) -> GramSystem:
    """Assemble, symmetrize and factor the Gram matrix of the evaluators.

    Raises LinearDependenceError when the matrix has a non-positive pivot
    or a condition estimate above CONDITION_LIMIT, both of which signal
    numerically dependent evaluators, and RangeError when an entry is not
    finite.
    """
    n = len(zeros)
    pts, ks = zeros.points, zeros.confluence
    g = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            g[i, j] = space.kernel_mixed_partial(ks[i], ks[j], pts[j], pts[i])
    if not np.isfinite(g).all():
        raise RangeError("Gram matrix has non-finite entries; the zeros lie outside the double range")
    # entries come from two different partial routes; symmetry is exact in
    # theory, so average away the rounding asymmetry before factoring
    g = 0.5 * (g + g.conj().T)

    if n == 0:
        return GramSystem(space, zeros, g, None, 1.0, 1.0)

    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        cond = float(np.linalg.cond(g))
        raise LinearDependenceError(
            f"Gram matrix has a non-positive pivot (condition estimate {cond:.3e}); "
            "the evaluators are numerically linearly dependent",
            cond,
        ) from None

    eig = np.linalg.eigvalsh(g)
    if eig[0] <= 0:
        raise LinearDependenceError(
            "Gram matrix is numerically indefinite; the evaluators are "
            "linearly dependent",
            float("inf"),
        )
    cond = float(eig[-1] / eig[0])
    if cond > CONDITION_LIMIT:
        raise LinearDependenceError(
            f"Gram condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; "
            "the evaluators are numerically linearly dependent",
            cond,
        )
    det = float(np.prod(np.diag(low).real) ** 2)
    return GramSystem(space, zeros, g, low, det, cond)
