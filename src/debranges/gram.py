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

    K_z(w) = gamma(w) * conj(gamma(z)) * (Z_z(w) - sum_j beta_j Z_j(w)).

The family hook `StructureFunction.polynomial` picks the route, once per
derived function or row. On a space of polynomials (`PolynomialHB`) the
residual is a polynomial: E_sigma is its exact quotient (`_divide`), and a
kernel row contracts the matrix B' that `GramSystem._closed_kernel`
divides out of the Schur complement once per system, with no disk and no
fit in either variable. Otherwise (`PaleyWiener`) the residual is divided
point by point, crossing the trivial zeros by Taylor series, and a kernel
row has conj prod (z - z_i) as its divisor. A `Remainder` is the derived
function of either route as a plain value function and the name of its
point, and `Remainder.__call__` is the one place a derived value is
range-checked: `fit` and `_quotient` sum the family's plain math
(`space._at_order`, the same hook `combination` checks), each order
checked where it is used. The Taylor series at a run reads the
residual's derivatives there from one table per run, filled through the
row's one `_at_order` function, which on `PaleyWiener` evaluates each
distinct moment once for the whole row. A residual
read on its own (`GramSystem.incomplete_kernel`,
`SigmaStructureFunction.incomplete`, `check_projection`) is the checked
`combination` of the fit's terms and builds no `Remainder`.

The linear-solve route is the production path. The bordered-determinant
route (`GramSystem.det_row`) is the cross-check, and its fit comes from
its own LU factorization (det G, `GramSystem.det`, and either the Cramer
numerators or a bordered determinant per point), never from the Cholesky
factor. On a space of polynomials its residual is divided exactly, like
the solve route's, so the two share `_quotient`; otherwise each point's
bordered determinant is divided directly and the routes share only the
Gram matrix. Either way the row is a `Remainder`. All of it is plain
Python on rows of complex numbers; at n <= ~10 that is as fast as array
calls and needs no numpy.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence
from functools import cached_property, partial

from ._record import FrozenRecord
from .errors import DomainError, LinearDependenceError
from .kernels import _COMBINATION, StructureFunction, Term, _differentiate, _horner, _in_range
from .sigma import DESINGULARIZATION_TERMS, ZeroSequence

CONDITION_LIMIT = 1e12
_JACOBI_SWEEPS = 50  # a cap only; Jacobi converges quadratically, in 5 sweeps at n = 4

Rows = Sequence[Sequence[complex]]
_OFF_SEQUENCE = "determinant route is undefined on the zero sequence; sigma_kernel evaluates those limits"


def determinant(rows: Rows) -> complex:
    """det of a square matrix given by rows; LU with partial pivoting (1 for n = 0)."""
    m = [list(row) for row in rows]
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
            for j in range(k + 1, n):
                row[j] -= f * top[j]
    return det


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
    det: float  # det G by LU (`determinant`), for the determinant route only
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

        Solves G c = (f^(k_i)(z_i))_i. The right-hand side is the family's
        plain per-order math (`space._at_order`, as `_quotient` and
        `combination` read it), each zero's order checked as it is reached
        and each value range-checked, as the `combination` closure would.
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
        return self.solve(rhs)

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
        if space.polynomial(0, ()) is None:  # the family hook: not a space of polynomials
            return None
        d = space.dimension
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
        solve and no disk in either variable. Otherwise the value is the
        `_quotient` of the row's fitted function, and off the
        de-singularization disks the fitted function is Z_z itself. When z
        sits in the disk of a run z0 of m equal zeros, the projection
        residual vanishes to order m in conj(z) at z0, so the fitted
        function is its conj(z)-Taylor sum from order m on, the terms
        `_taylor_terms(m, conj(z - z0), z0)`, and the row's divisor
        conj prod (z - z_i) leaves out z0's run. One solve serves every w.
        """
        z = complex(z)
        zs = self.zeros
        columns = self._closed_kernel
        if columns is not None:
            s = z.conjugate()
            return Remainder(partial(_horner, [_horner(c, s) for c in columns]), "K_z(w) at w = {0}")
        group = zs.local_group(z)
        if group is None:
            terms, zprod_conj = ((1.0, 0, z),), zs.product(z).conjugate()
        else:
            z0, mz = group
            terms = _taylor_terms(mz, (z - z0).conjugate(), z0)
            zprod_conj = zs.product(z, exclude_value=z0).conjugate()
        quotient = _quotient(self.space, zs, 0, terms, self.fit(0, terms), zprod_conj)
        return Remainder(quotient, "K_z(w) at w = {0}")

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
        Expanded along its last row, the determinant over det G is
        Z_z(w) - sum_j c_j Z_j(w), with c_j = det G_j / det G by Cramer's
        rule, G_j being G with column j replaced by col. The row is a
        `Remainder` on both families. On a space of polynomials its value
        is that residual's `_quotient` with divisor conj prod (z - z_i):
        one LU per c_j for all w, then the exact quotient, defined on the
        zeros too. Otherwise each w takes its own bordered LU
        (`bordered_det`), divided directly, and w on a zero raises
        DomainError. z's column and divisor are built once per row.

        Undefined when z equals a zero of the sequence (those limits are
        served by :meth:`kernel_row`). A value past the double range raises
        RangeError (`Remainder.__call__`).
        """
        z = complex(z)
        zs, space = self.zeros, self.space
        pts, ks = zs.points, zs.confluence
        if any(z == p for p in pts):
            raise DomainError(_OFF_SEQUENCE)
        what = f"determinant-route K_z(w) at z = {z}, w = {{0}}"
        col = [space.kernel_mixed_partial(k, 0, z, p) for p, k in zip(pts, ks)]
        zprod_conj = zs.product(z).conjugate()
        g, det = self.rows, self.det
        if space.polynomial(0, ()) is not None:  # the family hook: a space of polynomials
            coeffs = [
                determinant([[*r[:j], c, *r[j + 1:]] for r, c in zip(g, col)]) / det for j in range(self.n)
            ]
            return Remainder(_quotient(space, zs, 0, ((1.0, 0, z),), coeffs, zprod_conj), what)
        mixed = space._mixed

        def value(w: complex) -> complex:
            w = complex(w)
            if any(w == p for p in pts):
                raise DomainError(_OFF_SEQUENCE)
            # plain partials: `build` checked orders (k_i, k_j), which bound these
            row = [mixed(0, k, p, w) for p, k in zip(pts, ks)]
            return bordered_det(g, col, row, mixed(0, 0, z, w)) / (det * (zs.product(w) * zprod_conj))

        return Remainder(value, what)

    def sigma_kernel_det(self, z: complex, w: complex) -> complex:
        """Bordered-determinant form of K_z(w): one-point form of :meth:`det_row`."""
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

    `coeffs` are the fit of f from :meth:`GramSystem.fit`, so the residual
    f - sum_j c_j Z_j, the space's `combination` of e with the fitted terms
    (f's terms, then the span's (-c_j, k_j, z_j)), vanishes at each run to
    the run's multiplicity. The route is chosen once, here:

    * On a space of polynomials (`StructureFunction.polynomial`) the
      quotient is a polynomial and a point costs one Horner pass: the
      residual's coefficients divided exactly (`_divide`), and then by
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
    poly = space.polynomial(e, fitted)
    if poly is not None:
        quotient = _divide(poly, zeros._runs)
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
    determinant row (`_quotient`, a contracted B' under `_horner`, or a
    row's own per-w form); `name` formats w into what a RangeError names.
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
