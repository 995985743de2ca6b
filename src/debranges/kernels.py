"""Structure functions and the reproducing kernel of the base space.

A structure function is an entire function E with |E(z)| > |E(conj(z))|
on the upper half-plane, used together with its reflected companion
Estar(w) = conj(E(conj(w))). The associated Hilbert space of entire
functions has reproducing kernel

    Z_z(w) = (conj(E(z))*E(w) - conj(Estar(z))*Estar(w)) / (1j*(conj(z) - w))

analytic in w, anti-analytic in z, and finite across the removable
singularity at w = conj(z).

Two families are implemented:

* ``PaleyWiener(x)``: E(w) = exp(-1j*x*w). The kernel is the sinc form
  2*x*sin(v)/v with v = (w - conj(z))*x, exact also at v = 0 (it is 2*x
  there) and across subnormal v, so no series protection is needed. Every
  other mixed partial reduces to the moment M_p(u) of t**p * exp(1j*u*t)
  over [-x, x], u = w - conj(z), which has two routes: up to
  |u*x| = 0.75*(p+2) a Kummer-transformed series in even powers of u*x
  whose terms never grow, summed by Horner, and beyond it the closed
  antiderivative. The cutoff sits where the two routes' errors cross.
  Against 40-digit mpmath, both routes stay within 1e-15 (p <= 2) and
  1e-13 (p <= 20) of the moment scale 2*x**(p+1)/(p+1)*exp(|Im u|*x) on
  either side of it (measured: 2.8e-16).
* ``PolynomialHB(roots)``: E(w) = prod(w - r) with every root in the open
  lower half-plane. The space is finite dimensional (polynomials of
  degree < deg E, d = deg E) and the kernel is exactly the polynomial
  v(w)^T B v(conj(z)) / 1j, with v(w) = (1, w, ..., w^(d-1)) and B the
  d x d Bezoutian of (E, Estar) (the Christoffel-Darboux form). That is
  its one kernel form: the partial (a, b) is the ``polynomial`` of the
  single term (1, b, z), differentiated a times in w, so no diagonal
  switch is needed.

Both families supply E (``_eval_E_raw``; Estar is its reflection, taken in
the base class) and the kernel and its partials through the ``_mixed``
hook, as plain math. e E + sum_t weight_t Z_t, the form of every function
the gram layer divides, is served the same way: each family writes its
plain per-order math (``_at_order``), and ``combination``, written once
in the base class, is the checked public closure over it
(``StructureFunction._checked`` checks the order of every read and
range-checks its value). The default sums one ``_mixed`` per term at
every point. The gram layer's hot paths sum plain math under one range
check of their own: a fit's right-hand side is that default per-term sum
at the zeros, and a quotient (under Remainder) reads ``_sum``, the
per-order math over terms that a family may ``_prepare`` once. A Gram
system prepares its span's evaluators once, so a row prepares only its
own terms. ``PaleyWiener`` prepares an evaluator as its conjugated point,
power of 1j, order and series cutoff; order 0, read at every point, sums
the same sinc and moment values as ``_mixed``, in the same order and so
to the same bits, without the per-term dispatch. Each other order is the
default's sum with its moments read through one memo per ``_sum`` call,
so the many orders that a row's Taylor disks read at a few points, the
runs, share them across orders, terms and runs. ``PolynomialHB`` keeps
the defaults: its derived values take no combination and its quotients
no disk.

``dimension`` picks the gram layer's route for the derived functions:
None by default, so ``PaleyWiener`` divides its residuals point by point.
A family of finite dimension is a space of polynomials and supplies
``polynomial``, the coefficients of e E + sum_t weight_t Z_t; on
``PolynomialHB`` the gram layer divides them exactly (E_sigma, the
derived kernel's matrix B' and the determinant route's residual).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence
from functools import cache, cached_property, partial

from ._record import FrozenRecord
from .errors import DomainError, RangeError, UnsupportedOrderError

DEFAULT_DERIVATIVE_BUDGET = 64
Term = tuple[complex, int, complex]  # (weight, order, point), see StructureFunction.combination
_PARTIAL = "kernel partial ({0}, {1}) at z = {2}, w = {3}"
_COMBINATION = "combination of order {} at w = {{0}}"  # .format(a), then formatted over w like _PARTIAL

# distinct moments one PaleyWiener._at_order function keeps; a derived row
# reads about 100 (94 on the benchmark's kernel rows), a held `combination`
# read at ever new points would otherwise keep every moment it evaluated
_MOMENT_MEMO = 1024
_IPOW = (1 + 0j, 1j, -1 + 0j, -1j)  # 1j**n for n mod 4


def _ipow(n: int) -> complex:
    return _IPOW[n % 4]


def _inegpow(n: int) -> complex:
    """(-1j)**n."""
    return _IPOW[(-n) % 4]


def _series_cutoff(p: int) -> float:
    """|u*x| up to which the order-p PaleyWiener moment is summed as a series.

    The series and the closed-form errors cross near this line (an mpmath
    scan of p = 0..20 on five rays of u, out to 1.4 times the cutoff); both
    stay within 5e-16 of the moment scale 2 x^(p+1)/(p+1) e^(|Im u| x) on
    their side of it.
    """
    return 0.75 * (p + 2)


def _series_pairs(r: float) -> int:
    """Term pairs (m = 0..n-1) that leave every omitted term below 2**-56 at |u*x| = r.

    Sized for p = 0, where r**(2m)/(p+2)_(2m) falls slowest.
    """
    return 10 + int(1.7 * r)


@cache
def _series_coeffs(p: int) -> tuple[tuple[float, float], ...]:
    """(1/(p+2)_(2m), 1/(p+2)_(2m+1)) for as many m as the cutoff needs."""
    r = _series_cutoff(p)
    pairs: list[tuple[float, float]] = []
    term = 1.0  # r^(2m) / (p+2)_(2m), falling since r < p + 2
    while term >= 2.0**-56:
        k = 2 * len(pairs)
        pairs.append((1 / math.perm(p + 1 + k, k), 1 / math.perm(p + 2 + k, k + 1)))
        term *= r * r / ((p + 2 + k) * (p + 3 + k))
    return tuple(pairs)


@cache
def _series_horner(p: int, n: int) -> tuple[tuple[float, float], ...]:
    """The first n pairs of _series_coeffs(p), last first: the order a Horner pass takes them in."""
    return _series_coeffs(p)[n - 1::-1]


def _in_range(what: str, fn: Callable[..., complex], *args) -> complex:
    """fn(*args), or RangeError if it raises OverflowError (cmath, float powers) or is inf or nan.

    `what` names the value as a format string over args; it is formatted only to raise.
    """
    try:
        value = fn(*args)
    except OverflowError:
        raise RangeError(f"{what.format(*args)} overflows the double range") from None
    if not cmath.isfinite(value):
        raise RangeError(f"{what.format(*args)} is not finite ({value})")
    return value


def _horner(coeffs: Sequence[complex], w: complex) -> complex:
    """sum_k coeffs[k] w^k for ascending coefficients."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * w + c
    return acc


def _differentiate(coeffs: Sequence[complex], a: int) -> tuple[complex, ...]:
    """Ascending monomial coefficients of the a-th derivative: k!/(k-a)! c_k for k >= a."""
    return tuple(math.perm(k, a) * coeffs[k] for k in range(a, len(coeffs)))


class StructureFunction:
    """Shared public operations over the family hooks.

    The hooks are plain math. The public operations and the `combination`
    closure check the orders and, through `_in_range`, raise RangeError
    for a value that overflows or is not finite.
    """

    max_derivative_order: int

    # ------------------------------------------------------------------
    # family hooks
    # ------------------------------------------------------------------

    def _eval_E_raw(self, w: complex, order: int) -> complex:
        raise NotImplementedError

    def _eval_E_star_raw(self, w: complex, order: int) -> complex:
        # Estar is the reflection of E, and so is each of its derivatives
        return self._eval_E_raw(w.conjugate(), order).conjugate()

    def _mixed(self, a: int, b: int, z: complex, w: complex) -> complex:
        """d^a/dw^a d^b/d(conj z)^b of the kernel; orders already validated."""
        raise NotImplementedError

    @property
    def dimension(self) -> int | None:
        """Dimension of the space, None when infinite.

        A finite dimension makes the space one of polynomials: the family
        then supplies `polynomial`, and the gram layer divides its
        coefficients exactly instead of point by point.
        """
        return None

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def eval_E(self, w: complex, order: int = 0) -> complex:
        """order-th derivative of E at w."""
        self._check_partial(order)
        return _in_range("E^({1})({0})", self._eval_E_raw, complex(w), order)

    def eval_E_star(self, w: complex, order: int = 0) -> complex:
        """order-th derivative of Estar at w, Estar(w) = conj(E(conj(w)))."""
        self._check_partial(order)
        return _in_range("Estar^({1})({0})", self._eval_E_star_raw, complex(w), order)

    def kernel(self, z: complex, w: complex) -> complex:
        """Reproducing kernel Z_z(w); total, stable across w = conj(z)."""
        return _in_range(_PARTIAL, self._mixed, 0, 0, complex(z), complex(w))

    def kernel_mixed_partial(self, a: int, b: int, z: complex, w: complex) -> complex:
        """d^a/dw^a d^b/d(conj z)^b of the kernel.

        a differentiates the analytic evaluation point, b the conjugated
        parameter. a + b is capped by the family's derivative budget unless
        the family's `_check_mixed` lifts it.
        """
        self._check_mixed(a, b)
        return _in_range(_PARTIAL, self._mixed, a, b, complex(z), complex(w))

    def _check_partial(self, a: int, b: int = 0) -> None:
        """Orders of a derivative (b = 0) or a kernel partial against the budget."""
        if a < 0 or b < 0:
            raise ValueError("derivative orders must be nonnegative")
        if a + b > self.max_derivative_order:
            raise UnsupportedOrderError(
                f"derivative of total order {a + b} exceeds the budget "
                f"{self.max_derivative_order}"
            )

    def _check_mixed(self, a: int, b: int) -> None:
        """Orders of a kernel partial; the budget caps them by default."""
        self._check_partial(a, b)

    def combination(self, e: complex, terms: Sequence[Term]) -> Callable[..., complex]:
        """(w, a) -> d^a/dw^a of e E(w) + sum_t weight_t Z_t(w), a defaulting to 0.

        A term (weight, order, point) stands for the evaluator
        Z_t(w) = kernel_mixed_partial(., order, point, w) of the order-th
        derivative at point. This is the checked public closure
        (`_checked`) over the family's plain per-order math, `_at_order`.
        """
        return self._checked(e, terms, self._at_order(e, terms))

    def _at_order(self, e: complex, terms: Sequence[Term]) -> Callable[[int], Callable[[complex], complex]]:
        """a -> the order-a combination as w -> value, plain math like the other hooks.

        No order or range check: a caller checks each order first
        (`_check_orders`). This default sums one `_mixed` per term at every
        point; a family may prepare the terms of an order it reads often.
        """
        eval_E, mixed = self._eval_E_raw, self._mixed

        def total(a: int, w: complex) -> complex:
            acc = e * eval_E(w, a) if e else 0j
            for weight, k, p in terms:
                acc += weight * mixed(a, k, p, w)
            return acc

        return lambda a: partial(total, a)

    def _prepare(self, order: int, point: complex):
        """The evaluator Z_(order, point) in the form `_sum` reads; by default the pair (order, point).

        A caller that sums the same evaluators under many weights (the
        gram layer's span of a Gram system) prepares them once.
        """
        return order, point

    def _sum(self, e: complex, rows: Sequence[tuple[complex, object]]) -> Callable[[int], Callable[[complex], complex]]:
        """`_at_order` of the rows (weight, `_prepare`d evaluator); by default `_at_order` of their terms."""
        return self._at_order(e, [(weight, k, p) for weight, (k, p) in rows])

    def _check_orders(self, e: complex, terms: Sequence[Term], a: int) -> None:
        """Order a of a combination against E (when e != 0) and against every term."""
        if e:
            self._check_partial(a)
        for _, k, _ in terms:
            self._check_mixed(a, k)

    def _checked(
        self, e: complex, terms: Sequence[Term], at_order: Callable[[int], Callable[[complex], complex]]
    ) -> Callable[..., complex]:
        """The `combination` closure (w, a=0) over a family's plain math.

        Every read checks its order a (`_check_orders`) and sums at_order(a),
        the order-a combination as w -> value, under one range check. The
        gram layer's hot paths call the plain math under their own single
        range check instead (a row's quotient under `gram.Remainder`, `GramSystem.fit`).
        """

        def combined(w: complex, a: int = 0) -> complex:
            self._check_orders(e, terms, a)
            return _in_range(_COMBINATION.format(a), at_order(a), complex(w))

        return combined

    def hb_margin(self, z: complex) -> float:
        """|E(z)|^2 - |Estar(z)|^2; strictly positive for Im(z) > 0."""
        z = complex(z)
        if not z.imag > 0:
            raise DomainError("hb_margin requires Im(z) > 0")
        e = self.eval_E(z)
        f = self.eval_E_star(z)
        return (e.real * e.real + e.imag * e.imag) - (f.real * f.real + f.imag * f.imag)


class PaleyWiener(StructureFunction, FrozenRecord):
    """E(w) = exp(-1j*x*w) for exponential type x > 0.

    The kernel is the exact sinc form and every other mixed partial a
    moment, so they are not limited by the derivative budget (the budget
    still governs the explicit eval_E / eval_E_star derivatives).
    """

    x: float
    max_derivative_order: int

    def __init__(self, x: float, max_derivative_order: int = DEFAULT_DERIVATIVE_BUDGET):
        x = float(x)
        if not (math.isfinite(x) and x > 0):
            raise ValueError("exponential type x must be a positive finite real")
        self._set(x, max_derivative_order)

    def _eval_E_raw(self, w: complex, order: int) -> complex:
        return _inegpow(order) * self.x**order * cmath.exp(-1j * self.x * w)

    # no budget check: moments serve any order (acceptance criterion 7, test_pw_route_unrestricted)
    def _check_mixed(self, a: int, b: int) -> None:
        if a < 0 or b < 0:
            raise ValueError("partial orders must be nonnegative")

    def _mixed(self, a: int, b: int, z: complex, w: complex) -> complex:
        u = w - z.conjugate()
        if a == b == 0:
            x = self.x
            v = u * x
            return 2.0 * x * (cmath.sin(v) / v if v else 1.0)
        return _ipow(a) * _inegpow(b) * self._moment(a + b, u)

    def _prepare(self, order: int, point: complex) -> tuple[complex, complex, int, float]:
        """The evaluator as (conj(point), _ipow(0) * _inegpow(order), order, that moment order's series cutoff)."""
        return point.conjugate(), _ipow(0) * _inegpow(order), order, _series_cutoff(order)

    def _sum(self, e: complex, rows: Sequence[tuple[complex, tuple]]) -> Callable[[int], Callable[[complex], complex]]:
        """The default's sum over `_prepare`d evaluators, order 0 inline and the other orders sharing moments, bit for bit.

        Order 0 is read at every point (E_sigma, F_sigma and every kernel
        row): a point sums, in the rows' own order, the inline sinc of an
        evaluator of order 0 and the series or closed moment of any other,
        as `_mixed` would. Near a multiple zero the terms cancel to about
        1e-8 of their size, so any other order of summation would move the
        result. Each order a >= 1 (a run's Taylor derivatives,
        `incomplete`) is the default's per-term sum of
        _ipow(a) * _inegpow(order) * M_{a+order}(w - conj(point)), as
        `_mixed` forms it, with each moment read through one memo per call:
        the orders of a run, the terms at one point and the runs of one row
        share it. The memo is emptied when it holds _MOMENT_MEMO moments,
        so a held function read at ever new points keeps a bounded memory;
        a memo only spares evaluations and never changes a value. Order 0
        keeps no memo, which would grow with every point.
        """
        x, eval_E, moment = self.x, self._eval_E_raw, self._moment
        series, closed = self._moment_series, self._moment_closed
        moments: dict[tuple[int, complex], complex] = {}

        def total(w: complex) -> complex:
            acc = e * eval_E(w, 0) if e else 0j
            for weight, (s, factor, p, cutoff) in rows:
                u = w - s
                v = u * x
                if p:
                    r = abs(v)
                    acc += weight * (factor * (series(p, v, r) if r <= cutoff else closed(p, u)))
                else:
                    acc += weight * (2.0 * x * (cmath.sin(v) / v if v else 1.0))
            return acc

        def derivative(a: int, w: complex) -> complex:
            acc = e * eval_E(w, a) if e else 0j
            for weight, (s, _, k, _) in rows:
                key = a + k, w - s
                m = moments.get(key)
                if m is None:
                    if len(moments) >= _MOMENT_MEMO:
                        moments.clear()
                    m = moments[key] = moment(*key)
                acc += weight * (_ipow(a) * _inegpow(k) * m)
            return acc

        return lambda a: partial(derivative, a) if a else total

    def _at_order(self, e: complex, terms: Sequence[Term]) -> Callable[[int], Callable[[complex], complex]]:
        """`_sum` of the terms' weights over their `_prepare`d evaluators."""
        return self._sum(e, [(weight, self._prepare(k, p)) for weight, k, p in terms])

    # moment integral of t**p * exp(1j*u*t) over [-x, x]: the series up to
    # |u*x| = _series_cutoff(p), where the errors of the two routes cross,
    # the closed antiderivative beyond
    def _moment(self, p: int, u: complex) -> complex:
        v = u * self.x
        r = abs(v)
        if r <= _series_cutoff(p):
            return self._moment_series(p, v, r)
        return self._moment_closed(p, u)

    def _moment_series(self, p: int, v: complex, r: float) -> complex:
        # Kummer's transformation gives int_0^x t^p exp(1j*u*t) dt =
        # x^(p+1)/(p+1) exp(1j*v) F(-1j*v) with v = u*x and
        # F(w) = sum_k w^k / (p+2)_k, whose terms shrink while |v| < p + 2.
        # Split as F(w) = Fe(w^2) + w Fo(w^2), with w^2 = s = -v^2 for both
        # half intervals, the two halves add up to
        #   2 x^(p+1)/(p+1) (cos(v) Fe(s) + v sin(v) Fo(s))    for even p,
        #   2j x^(p+1)/(p+1) (sin(v) Fe(s) - v cos(v) Fo(s))   for odd p,
        # with Fe and Fo summed by Horner in s over the pairs r = |v| needs.
        s = -(v * v)
        fe = fo = 0j
        for even, odd in _series_horner(p, _series_pairs(r)):
            fe = fe * s + even
            fo = fo * s + odd
        cos, sin = cmath.cos(v), cmath.sin(v)
        scale = 2.0 * self.x ** (p + 1) / (p + 1)
        if p % 2:
            return 1j * scale * (sin * fe - v * cos * fo)
        return scale * (cos * fe + v * sin * fo)

    def _moment_closed(self, p: int, u: complex) -> complex:
        # the antiderivative exp(1j*u*t) * _primitive(p, t, 1j*u) between -x and x
        iu = 1j * u
        x = self.x
        return cmath.exp(iu * x) * _primitive(p, x, iu) - cmath.exp(-iu * x) * _primitive(p, -x, iu)


def _primitive(p: int, t: float, iu: complex) -> complex:
    """sum_j (-1)^j p!/(p-j)! t^(p-j) / iu^(j+1), times exp(iu t) an antiderivative of t^p exp(iu t).

    Each term is built from the one before it, so that neither the falling
    factorial nor the power of iu overflows on its own; the rounding error
    falls as |u*x| grows past the series cutoff.
    """
    term = t**p / iu
    acc = term
    for j in range(p, 0, -1):
        term *= -j / (t * iu)
        acc += term
    return acc


class PolynomialHB(StructureFunction, FrozenRecord):
    """E(w) = prod(w - r) with every root in the open lower half-plane."""

    roots: tuple[complex, ...]
    max_derivative_order: int

    def __init__(self, roots: tuple[complex, ...], max_derivative_order: int = DEFAULT_DERIVATIVE_BUDGET):
        rts = tuple(complex(r) for r in roots)
        if not rts:
            raise ValueError("at least one root is required")
        if any(not r.imag < 0 for r in rts):
            raise ValueError("all roots must lie in the open lower half-plane")
        self._set(rts, max_derivative_order)

    @property
    def dimension(self) -> int | None:
        return len(self.roots)

    @cached_property
    def _coeffs(self) -> tuple[complex, ...]:
        # monomial coefficients, ascending, leading coefficient 1
        coeffs = [1.0 + 0j]
        for r in self.roots:
            nxt = [0j] * (len(coeffs) + 1)
            for k, ck in enumerate(coeffs):
                nxt[k] -= r * ck
                nxt[k + 1] += ck
            coeffs = nxt
        return tuple(coeffs)

    def _eval_E_raw(self, w: complex, order: int) -> complex:
        return _horner(_differentiate(self._coeffs, order), w)

    @cached_property
    def _bezoutian(self) -> tuple[tuple[float, ...], ...]:
        # Estar(s)E(w) - E(s)Estar(w) = sum_jk c[j][k] s^j w^k with
        # c[j][k] = conj(e_j) e_k - e_j conj(e_k) = 2j Im(conj(e_j) e_k);
        # dividing by (s - w) leaves the Bezoutian B, B[j][k] =
        # c[j+1][k] + B[j+1][k-1]. Stored as B / 1j, real, so Z_z(w) =
        # sum_jk B[j][k] conj(z)^j w^k, and by columns: entry k is B[.][k],
        # the s-coefficients of w^k. B is symmetric only up to rounding:
        # B[j][k] and B[k][j] add the c's in different orders.
        e = self._coeffs
        d = len(e) - 1
        c = [[2.0 * (e[j].conjugate() * e[k]).imag for k in range(d)] for j in range(d + 1)]
        bez = [[0.0] * d for _ in range(d + 1)]
        for j in range(d - 1, -1, -1):
            for k in range(d):
                bez[j][k] = c[j + 1][k] + (bez[j + 1][k - 1] if k else 0.0)
        return tuple(zip(*bez[:d]))

    def _mixed(self, a: int, b: int, z: complex, w: complex) -> complex:
        return _horner(_differentiate(self.polynomial(0, ((1.0, b, z),)), a), w)

    def polynomial(self, e: complex, terms: Sequence[Term]) -> list[complex]:
        """e E + sum_t weight_t Z_t collapsed into one coefficient vector, of length d + 1, or d when e == 0.

        E has degree d and each Z_t is the polynomial
        sum_k (sum_r B[r][k] d^order/ds^order s^r) w^k at s = conj(point),
        of degree < d.
        """
        columns = self._bezoutian
        d = len(columns)
        poly = [e * c for c in self._coeffs] if e else [0j] * d
        for weight, k, p in terms:
            s, spow = p.conjugate(), 1.0
            ds = [0.0] * d  # d^k/ds^k s^r, r = 0..d-1
            for r in range(k, d):
                ds[r] = math.perm(r, k) * spow
                spow *= s
            for j, col in enumerate(columns):
                # left to right from 0j: the builtin sum compensates complex sums since Python 3.14
                dot = 0j
                for dr, b in zip(ds, col):
                    dot += dr * b
                poly[j] += weight * dot
        return poly
