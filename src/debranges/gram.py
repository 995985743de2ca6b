"""Gram systems of point evaluators and the remainder built on them.

The Gram matrix couples the evaluators attached to a zero sequence,
G[i][j] = (Z_i, Z_j) = kernel_mixed_partial(k_i, k_j, z_j, z_i). For
f = e E + sum_t weight_t Z_t (`StructureFunction.combination`),
`GramSystem.fit` solves G c = (f^(k_i)(z_i))_i, so that the residual
f - sum_j c_j Z_j vanishes on the sequence with multiplicity, and
`_quotient` is that residual's quotient by prod (w - z_i). The derived
structure function is the quotient of E (e = 1, no terms), and its
companion the reflection of that (see structure.py); the derived-space
kernel is the quotient of Z_z (e = 0, one term (1, 0, z)), whose fit beta
is the projection of Z_z onto the span of the Z_j, rescaled in z:

    K_z(w) = (Z_z(w) - sum_j beta_j Z_j(w)) / (prod_i (w - z_i) * conj prod_i (z - z_i)).

The space's `dimension` picks the route, once per derived function or
row. On a space of polynomials (a finite dimension: `PolynomialHB`, whose
`polynomial` hook gives the coefficients) the residual is a polynomial:
E_sigma is its exact quotient (`_divide`), and a kernel row contracts the
matrix B' that `GramSystem._closed_kernel` divides out of the Schur
complement once per system, with no disk and no fit in either variable.
Otherwise (`PaleyWiener`) the residual is divided
point by point, crossing the trivial zeros by Taylor series, and a kernel
row has conj prod (z - z_i) as its divisor. A `Remainder` is the derived
function of either route as a plain value function and the name of its
point, and `Remainder.__call__` is the one place a derived value is
range-checked: `_rhs` (every fit's right-hand side) and `_quotient` sum
the family's plain math (`space._at_order`, the same hook `combination`
checks), each order checked where it is used. The Taylor series at a run reads the
residual's derivatives there from one table per run, filled through the
row's one `_at_order` function, which on `PaleyWiener` evaluates each
distinct moment once for the whole row. A residual
read on its own (`GramSystem.incomplete_kernel`,
`SigmaStructureFunction.incomplete`, `check_projection`) is the checked
`combination` of the fit's terms and builds no `Remainder`.

The linear-solve route is the production path. The bordered-determinant
route (`GramSystem.det_row`) is the cross-check: by the Schur complement,
det [[G, col], [row, corner]] / det G = corner - row . G^-1 col, so it is
the kernel row's own route (`GramSystem._row`, `_quotient`) with its fit
from one LU solve with partial pivoting (`_lu_solve`, the elimination of
`determinant`), never from the Cholesky factor. Either way the row is a
`Remainder`, defined on the zeros too. `determinant`, `bordered_det` and
`GramSystem.det` serve `check_pw_example`'s bordered determinants. All of
it is plain Python on rows of complex numbers; at n <= ~10 that is as
fast as array calls and needs no numpy.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence
from functools import cached_property, partial

from ._record import FrozenRecord
from .errors import LinearDependenceError
from .kernels import _COMBINATION, StructureFunction, Term, _differentiate, _horner, _in_range
from .sigma import DESINGULARIZATION_TERMS, ZeroSequence

CONDITION_LIMIT = 1e12
_JACOBI_SWEEPS = 50  # a cap only; Jacobi converges quadratically, in 5 sweeps at n = 4

Rows = Sequence[Sequence[complex]]


def _eliminate(m: list[list[complex]]) -> complex:
    """LU with partial pivoting, in place, on the first n columns of the n x (n + k) rows m; their det.

    Row swaps and eliminations carry the k trailing columns along, so on
    [A | b] this is Gaussian elimination's forward pass and leaves m upper
    triangular in its first n columns. Stops at a zero pivot, with det 0.
    """
    n = len(m)
    det = 1.0 + 0j
    for k in range(n):
        piv, big = k, abs(m[k][k])
        for i in range(k + 1, n):
            size = abs(m[i][k])
            if size > big:
                piv, big = i, size
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        top = m[k]
        pivot = top[k]
        det *= pivot
        if not pivot:
            return det
        for row in m[k + 1:]:
            f = row[k] / pivot
            for j in range(k + 1, len(top)):
                row[j] -= f * top[j]
    return det


def determinant(rows: Rows) -> complex:
    """det of a square matrix given by rows; LU with partial pivoting (1 for n = 0)."""
    return _eliminate([list(row) for row in rows])


def _lu_solve(rows: Rows, rhs: Sequence[complex]) -> tuple[complex, ...]:
    """x with rows x = rhs: `determinant`'s elimination on [rows | rhs], then back substitution."""
    m = [[*row, b] for row, b in zip(rows, rhs)]
    _eliminate(m)
    n = len(m)
    x = [0j] * n
    for i in range(n - 1, -1, -1):
        acc = m[i][n]
        for j in range(i + 1, n):
            acc -= m[i][j] * x[j]
        x[i] = acc / m[i][i]
    return tuple(x)


def bordered_det(
    a: Rows, col: Sequence[complex], row: Sequence[complex], corner: complex
) -> complex:
    """det [[a, col], [row, corner]] for a square a given by rows, bordered by a column and a row."""
    m = [[*a_row, c] for a_row, c in zip(a, col)]
    m.append([*row, corner])
    return determinant(m)


def hermitian_eigenvalues(rows: Rows) -> list[float]:
    """Eigenvalues, ascending, of the Hermitian matrix whose lower triangle `rows` holds.

    Cyclic Jacobi: each sweep rotates every pair (p, q) whose entry exceeds
    2**-53 sqrt(|a_pp a_qq|), the phase of a_pq taken out first so that the
    2 x 2 rotation is real; sweeps stop when none is left. On a positive
    definite matrix this gets every eigenvalue to the accuracy of the
    scaled condition (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).
    """
    n = len(rows)
    a = [[rows[i][j] if j < i else rows[j][i].conjugate() for j in range(n)] for i in range(n)]
    d = [rows[i][i].real for i in range(n)]
    pairs = [
        (p, q, [k for k in range(n) if k != p and k != q])
        for p in range(n)
        for q in range(p + 1, n)
    ]
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for p, q, others in pairs:
            ap, aq = a[p], a[q]
            g = abs(ap[q])
            if g <= 2.0**-53 * math.sqrt(abs(d[p])) * math.sqrt(abs(d[q])):
                continue
            rotated = True
            theta = (d[q] - d[p]) / (2.0 * g)
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            tau = s / (1.0 + c)
            phase = ap[q].conjugate() / g
            d[p] -= t * g
            d[q] += t * g
            ap[q] = aq[p] = 0j
            # column q times conj(e), e = a_pq / |a_pq|, then the real
            # rotation [[c, s], [-s, c]] in Rutishauser's form, which
            # rounds less than the plain c/s products
            for k in others:
                ak = a[k]
                akp, akq = ak[p], ak[q] * phase
                ak[p] = new_p = akp - s * (akq + tau * akp)
                ak[q] = new_q = akq + s * (akp - tau * akq)
                ap[k] = new_p.conjugate()
                aq[k] = new_q.conjugate()
        if not rotated:
            break
    return sorted(d)


def spectral_condition(eigenvalues: Sequence[float]) -> float:
    """max |lambda| / min |lambda|, the 2-norm condition of a Hermitian matrix (1 for n = 0)."""
    mags = [abs(v) for v in eigenvalues]
    if not mags:
        return 1.0
    low = min(mags)
    return max(mags) / low if low else math.inf


def _cholesky(g: Rows) -> tuple[tuple[complex, ...], ...] | None:
    """Lower factor L of g = L L^H by rows, from g's lower triangle.

    None at a pivot that is not > 0.
    """
    low: list[tuple[complex, ...]] = []
    for i, g_row in enumerate(g):
        row: list[complex] = []
        for j, l_row in enumerate(low):
            acc = g_row[j]
            for k in range(j):
                acc -= row[k] * l_row[k].conjugate()
            row.append(acc / l_row[j])
        # left to right from 0.0: the builtin sum compensates float sums since
        # Python 3.12, which would make the factor depend on the interpreter
        squares = 0.0
        for v in row:
            squares += v.real * v.real + v.imag * v.imag
        pivot = g_row[i].real - squares
        if not pivot > 0:
            return None
        row.append(complex(math.sqrt(pivot)))
        low.append(tuple(row))
    return tuple(low)


class GramSystem(FrozenRecord):
    """Hermitian positive-definite Gram matrix plus solve machinery; equal only to itself."""

    space: StructureFunction
    zeros: ZeroSequence
    rows: tuple[tuple[complex, ...], ...]  # the Gram matrix by rows, exactly Hermitian
    factorization: tuple[tuple[complex, ...], ...]  # lower Cholesky factor L by rows, rows = L L^H
    det: float  # det G by LU (`determinant`), for `check_pw_example`'s bordered determinants
    condition_estimate: float

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, space, zeros, rows, factorization, det, condition_estimate):
        self._set(space, zeros, rows, factorization, det, condition_estimate)

    @property
    def n(self) -> int:
        return len(self.zeros)

    def solve(self, rhs) -> tuple[complex, ...]:
        """G x = rhs for one right-hand side sequence.

        Forward substitution on L, then back substitution on L^H in place,
        in plain complex arithmetic: at these sizes that beats any array call.
        """
        low = self.factorization
        if len(rhs) != len(low):
            raise ValueError(f"right-hand side of length {len(rhs)} for a system of {len(low)} zeros")
        x = []
        for i, acc in enumerate(rhs):
            row = low[i]
            for j in range(i):
                acc -= row[j] * x[j]
            x.append(acc / row[i])
        n = len(x)
        for i in range(n - 1, -1, -1):
            acc = x[i]
            for j in range(i + 1, n):
                acc -= low[j][i].conjugate() * x[j]
            x[i] = acc / low[i][i].conjugate()
        return tuple(x)

    def fit(self, e: complex, terms: Sequence[Term]) -> tuple[complex, ...]:
        """Coefficients c of the span of the Z_j matching f = e E + sum_t weight_t Z_t on the sequence.

        Solves G c = (f^(k_i)(z_i))_i (`_rhs`) by the Cholesky factor.
        """
        return self.solve(self._rhs(e, terms))

    def _rhs(self, e: complex, terms: Sequence[Term]) -> list[complex]:
        """(f^(k_i)(z_i))_i for f = e E + sum_t weight_t Z_t: the right-hand side of every fit.

        The family's plain per-order math (`space._at_order`, as `_quotient`
        and `combination` read it), each zero's order checked as it is
        reached and each value range-checked, as the `combination` closure
        would.
        """
        space, zs = self.space, self.zeros
        at_order = space._at_order(e, terms)
        rhs = []
        for p, k in zip(zs.points, zs.confluence):
            space._check_orders(e, terms, k)
            f = at_order(k)
            try:
                value = f(p)
            except OverflowError:
                value = cmath.nan
            if not cmath.isfinite(value):
                # the same deterministic value again, raised with _in_range's wording
                value = _in_range(_COMBINATION.format(k), f, p)
            rhs.append(value)
        return rhs

    def solve_beta(self, z: complex) -> tuple[complex, ...]:
        """Projection coefficients beta with sum_j beta_j Z_j[z_i] = Z_z[z_i]."""
        return self.fit(0, ((1.0, 0, complex(z)),))

    def incomplete_kernel(self, z: complex, w: complex) -> complex:
        """Projection residual Z_z(w) - sum_j beta_j(z) Z_j(w).

        Vanishes on the zero sequence in w (to the run multiplicity) and,
        by symmetry, anti-analytically in z.
        """
        terms = ((1.0, 0, complex(z)),)
        return self.space.combination(0, [*terms, *_span(self.zeros, self.fit(0, terms))])(complex(w))

    @cached_property
    def _closed_kernel(self) -> Rows | None:
        """B' by columns on a space of polynomials, else None.

        The base kernel is Z_z(w) = sum_r conj(z)^r T_r(w), T_r its r-th
        Taylor coefficient in conj(z) at 0, the term (1/r!, r, 0). Fitting
        each T_r (one solve apiece) gives the projection residual
        sum_r conj(z)^r R_r(w), R_r the residual of T_r: the rows of the
        Schur complement B - X^T D. Each row divided by prod (w - z_i), and
        then each column by prod (s - conj z_i), leaves the (d - n) x (d - n)
        matrix B' with K_z(w) = sum_rk B'[r][k] conj(z)^r w^k, for every z
        and w, on the zeros too. The fits are not kept: no row needs beta(z).
        """
        space, zs = self.space, self.zeros
        d = space.dimension
        if d is None:  # not a space of polynomials
            return None
        pts, ks = zs.points, zs.confluence
        rows = []
        for r in range(d):
            taylor = ((1.0 / math.factorial(r), r, 0j),)
            t_r = space.polynomial(0, taylor)
            x = self.solve([_horner(_differentiate(t_r, k), p) for p, k in zip(pts, ks)])
            rows.append(_divide(space.polynomial(0, [*taylor, *_span(zs, x)]), zs._runs))
        conj_runs = [(v.conjugate(), m) for v, m in zs._runs]
        return tuple(_divide(col, conj_runs) for col in zip(*rows))

    def kernel_row(self, z: complex) -> Remainder:
        """The derived-space evaluator K_z as a function of w, for fixed z, as a `Remainder`.

        On a space of polynomials the row's value is B' contracted with the
        powers of conj(z) (`_closed_kernel`) under one Horner pass: no
        solve and no disk in either variable. Otherwise it is `_row`'s
        quotient, fitted by the Cholesky factor (`solve`).
        """
        z = complex(z)
        columns = self._closed_kernel
        if columns is not None:
            return Remainder(partial(_horner, [_horner(c, z.conjugate()) for c in columns]), "K_z(w) at w = {0}")
        return self._row(z, self.solve, "K_z(w) at w = {0}")

    def _row(self, z: complex, solve: Callable[[Sequence[complex]], Sequence[complex]], name: str) -> Remainder:
        """K_z as the `_quotient` of Z_z's fit by `solve`, over conj prod (z - z_i); `name` names its point.

        Off the de-singularization disks the fitted function is Z_z itself.
        When z sits in the disk of a run z0 of m equal zeros, the projection
        residual vanishes to order m in conj(z) at z0, so the fitted
        function is its conj(z)-Taylor sum from order m on, the terms
        `_taylor_terms(m, conj(z - z0), z0)`, and the row's divisor
        conj prod (z - z_i) leaves out z0's run. One solve serves every w.
        """
        zs = self.zeros
        group = zs.local_group(z)
        if group is None:
            terms, zprod_conj = ((1.0, 0, z),), zs.product(z).conjugate()
        else:
            z0, mz = group
            terms = _taylor_terms(mz, (z - z0).conjugate(), z0)
            zprod_conj = zs.product(z, exclude_value=z0).conjugate()
        coeffs = solve(self._rhs(0, terms))
        return Remainder(_quotient(self.space, zs, 0, terms, coeffs, zprod_conj), name)

    def sigma_kernel(self, z: complex, w: complex) -> complex:
        """Derived-space evaluator K_z(w), finite also on the zero sequence.

        One-point form of :meth:`kernel_row`; a caller evaluating many w
        for one z should keep the row instead.
        """
        return self.kernel_row(z)(w)

    def det_row(self, z: complex) -> Remainder:
        """The bordered-determinant form of K_z as a function of w, for fixed z; cross-validation route.

        det [[G, col], [row(w), Z_z(w)]], col = (Z_z^(k_i)(z_i))_i and
        row(w) = (Z_j(w))_j, over det G, prod (w - z_i) and conj prod (z - z_i).
        By the Schur complement, the determinant over det G is
        Z_z(w) - row(w) . G^-1 col = Z_z(w) - sum_j c_j Z_j(w), with
        G c = col. Here c comes from one LU solve of G with partial
        pivoting (`_lu_solve`, the elimination of `determinant`), never
        from the Cholesky factor, and the residual takes the kernel row's
        own route (`_row`, `_quotient`): on a space of polynomials the
        exact quotient, otherwise the quotient point by point with the
        Taylor disks in both variables. So the row is defined on the zeros
        in z and in w, like :meth:`kernel_row`, which it cross-checks
        through the independent fit. A value past the double range raises
        RangeError (`Remainder.__call__`).
        """
        z = complex(z)
        return self._row(z, partial(_lu_solve, self.rows), f"determinant-route K_z(w) at z = {z}, w = {{0}}")

    def sigma_kernel_det(self, z: complex, w: complex) -> complex:
        """Bordered-determinant form of K_z(w), by an LU fit: one-point form of :meth:`det_row`."""
        return self.det_row(z)(w)


def _taylor_terms(m: int, delta: complex, v: complex) -> tuple[Term, ...]:
    """Terms (delta^q / (m+q)!, m + q, v) over the de-singularization terms q.

    Summed against the (m+q)-th derivatives at v of a g vanishing to order
    m there, they give g(v + delta) / delta^m; at delta == 0 only the
    leading term is taken.
    """
    terms = []
    dpow = 1.0 + 0j
    for order in range(m, m + 1 + (0 if delta == 0 else DESINGULARIZATION_TERMS)):
        terms.append((dpow / math.factorial(order), order, v))
        dpow *= delta
    return tuple(terms)


def _span(zeros: ZeroSequence, coeffs) -> list[Term]:
    """The terms (-c_j, k_j, z_j) that subtract the fitted span sum_j c_j Z_j."""
    return [(-c, k, p) for c, k, p in zip(coeffs, zeros.confluence, zeros.points)]


def _divide(coeffs: Sequence[complex], runs: Sequence[tuple[complex, int]]) -> tuple[complex, ...]:
    """Ascending coefficients of sum_k coeffs[k] x^k divided by (x - v)^m for each run (v, m).

    Synthetic division by each factor: from the leading coefficient down
    (forward deflation) when |v| is at most the geometric mean of the
    dividend's root moduli, |v|^deg <= |c_0| / |c_deg|, and from the
    constant term up (backward) when it is larger. Deflating a root that
    is small against the others forward, and a large one backward, keeps
    the quotient's error at the size of the dividend's (Wilkinson,
    Rounding Errors in Algebraic Processes, 1963; Peters & Wilkinson,
    J. Inst. Maths Applics 8, 1971). The rule is scale invariant: a
    threshold of |v| = 1 would deflate zeros of modulus ~1 backward among
    roots of modulus ~3, and lost 7e-6 of the derived kernel at degree 12.
    The comparison is made in logarithms, so no power overflows; v = 0
    deflates forward and a dividend with c_0 = 0 backward. Each
    dropped remainder is the dividend's value at a zero it vanishes on,
    zero up to the rounding of the fit, and is not fed back.
    """
    c = list(coeffs)
    for v, m in runs:
        size, low, high = abs(v), abs(c[0]), abs(c[-1])
        forward = size == 0 or high == 0 or (
            low != 0 and (len(c) - 1) * math.log(size) <= math.log(low) - math.log(high)
        )
        for _ in range(m):
            if forward:
                for k in range(len(c) - 2, -1, -1):
                    c[k] += c[k + 1] * v
                del c[0]
            else:
                prev = 0j
                for k in range(len(c) - 1):
                    prev = c[k] = (prev - c[k]) / v
                c.pop()
    return tuple(c)


def _quotient(
    space: StructureFunction, zeros: ZeroSequence, e: complex, terms: Sequence[Term],
    coeffs: Sequence[complex], divisor: complex | None = None,
) -> Callable[[complex], complex]:
    """w -> (f - its fit on the zeros) / prod (w - z_i), then / `divisor`, for f = e E + sum_t weight_t Z_t.

    `coeffs` are a fit of f (:meth:`GramSystem.fit`, or `det_row`'s LU
    fit), so the residual f - sum_j c_j Z_j, the space's `combination` of
    e with the fitted terms (f's terms, then the span's (-c_j, k_j, z_j)),
    vanishes at each run to the run's multiplicity. The route is chosen once, here:

    * On a space of polynomials (a finite `dimension`) the quotient is a
      polynomial and a point costs one Horner pass: the residual's
      coefficients (`polynomial`) divided exactly (`_divide`), and then by
      `divisor`.
    * Otherwise the quotient is the residual over prod (w - z_i): the
      residual's plain order-0 math (`StructureFunction._at_order`, its
      orders checked here, once), and inside the de-singularization disk
      of a run v of m equal zeros the Taylor series of the residual at v
      from order m on, divided by the other factors. The derivatives at v
      come from the run's table: the orders a point reads (m alone at v
      itself, else m .. m + DESINGULARIZATION_TERMS), each read once
      through the same `_at_order` function, whose moments the row's runs
      share, and checked and range-checked as a `combination` read is,
      order by order. `divisor` divides it last.

    The result is a plain value function; `Remainder` range-checks it.
    """
    fitted = [*terms, *_span(zeros, coeffs)]
    if space.dimension is not None:
        quotient = _divide(space.polynomial(e, fitted), zeros._runs)
        if divisor is not None:
            quotient = [c / divisor for c in quotient]
        return partial(_horner, quotient)
    space._check_orders(e, fitted, 0)
    at_order = space._at_order(e, fitted)
    plain = at_order(0)
    tables: dict[complex, list[complex]] = {}  # run point v -> the residual's derivatives from order m on

    def table(v: complex, m: int, count: int) -> list[complex]:
        """The residual's derivatives of orders m .. m + count - 1 at the run v, each summed once."""
        known = tables.setdefault(v, [])
        for a in range(m + len(known), m + count):
            space._check_orders(e, fitted, a)
            known.append(_in_range(_COMBINATION.format(a), at_order(a), v))
        return known

    def pointwise(w: complex) -> complex:
        w = complex(w)
        group = zeros.local_group(w)
        if group is None:
            value = plain(w) / zeros.product(w)
        else:
            v, m = group
            taylor = _taylor_terms(m, w - v, v)
            quotient = 0j
            for (c, _, _), d in zip(taylor, table(v, m, len(taylor))):
                quotient += c * d
            value = quotient / zeros.product(w, exclude_value=v)
        # None, not 1: dividing by 1+0j can flip the sign of a zero part
        return value if divisor is None else value / divisor

    return pointwise


class Remainder:
    """A derived value function and the name of its point: the one range check of every derived value.

    `value` is the plain w -> value of E_sigma, a kernel row or a
    determinant row (`_quotient`, or a contracted B' under `_horner`);
    `name` formats w into what a RangeError names.
    A call is the finished derived value at w. A residual read on its own
    takes the `combination` of the fit's terms and builds no Remainder.
    """

    def __init__(self, value: Callable[[complex], complex], name: str):
        self._value, self._name = value, name

    def __call__(self, w: complex) -> complex:
        """The derived value at w; past the double range, RangeError (`kernels._in_range`)."""
        try:
            value = self._value(w)
            if cmath.isfinite(value):
                return value
        except OverflowError:
            pass
        # out of range: the same deterministic value again, raised with _in_range's wording
        return _in_range(self._name, self._value, w)


def build(space: StructureFunction, zeros: ZeroSequence) -> GramSystem:
    """Assemble, symmetrize and factor the Gram matrix of the evaluators.

    Raises LinearDependenceError when the matrix has a non-positive
    Cholesky pivot or eigenvalue, or a condition estimate above
    CONDITION_LIMIT, all of which signal numerically dependent evaluators.
    An entry past the double range raises RangeError from
    `kernel_mixed_partial`, before any arithmetic on the matrix.
    """
    n = len(zeros)
    pts, ks = zeros.points, zeros.confluence
    g = [
        [space.kernel_mixed_partial(ks[i], ks[j], pts[j], pts[i]) for j in range(n)]
        for i in range(n)
    ]
    # entries come from two different partial routes; symmetry is exact in
    # theory, so average away the rounding asymmetry before factoring
    rows = tuple(
        tuple(0.5 * (g[i][j] + g[j][i].conjugate()) for j in range(n)) for i in range(n)
    )
    if n == 0:
        return GramSystem(space, zeros, rows, (), 1.0, 1.0)

    eig = hermitian_eigenvalues(rows)
    cond = spectral_condition(eig)
    low = _cholesky(rows)
    indefinite = low is None or eig[0] <= 0
    if indefinite or cond > CONDITION_LIMIT:
        reason = (
            f"has a non-positive pivot (condition estimate {cond:.3e})" if indefinite
            else f"condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
        raise LinearDependenceError(
            f"Gram matrix {reason}; the evaluators are numerically linearly dependent", cond
        )
    return GramSystem(space, zeros, rows, low, determinant(rows).real, cond)
