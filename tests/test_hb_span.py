"""The collapsed PolynomialHB combination, audited three ways.

`PolynomialHB.combination(e, terms)` sums e E + sum_t weight_t Z_t, with a
term (weight, order, point) standing for the evaluator of the order-th
derivative at point, into one polynomial in w. A remainder passes it the
fitted function's terms and the span's terms (-c_j, k_j, z_j). It is
checked (a) against the base-class hook, which sums one kernel partial per
term, with and without E, a Z_z term and the conj(z)-Taylor terms of a z
in a disk, (b) through the derived structure functions E_sigma and F_sigma
and the derived kernel K_z against 50-digit mpmath constructions that
share nothing with the library but the inputs, off the de-singularization
disks, inside them and exactly on the zeros, and (c) on the derivative
budget: a tight budget raises UnsupportedOrderError exactly where the
per-term loop does.
"""

import re

import mpmath
import numpy as np
import pytest

from debranges import (
    PaleyWiener,
    PolynomialHB,
    RangeError,
    StructureFunction,
    UnsupportedOrderError,
    build,
    canonicalize,
    derive,
)
from debranges.gram import _taylor_terms

ROOTS = {
    1: (-1j,),
    3: (-1j, 1 - 1j, -1 - 2j),
    5: (-1j, 1 - 1j, -1 - 2j, 0.5 - 0.5j, -0.5 - 1.5j),
}
ZERO_SETS = {
    "distinct": (1j, 1 + 1j, -0.5 + 0.8j),
    "double": (1j, 1j, 1 + 1j),
}
AUDIT_POINTS = (
    0.3 + 0.7j,  # off every disk
    -1.2 + 0.4j,  # off every disk
    4.0 + 3.0j,  # far out, where the span's terms are large
    2.5 - 1.0j,  # lower half-plane
    1j + (7e-4 + 3e-4j),  # inside the disk of 1j
    1j,  # exactly on a zero
    1 + 1j,  # exactly on a zero
)


def _coefficients(hb, zeros, source):
    if source == "fit":
        return build(hb, zeros).fit(1.0, ())
    rng = np.random.default_rng(len(hb.roots))
    return tuple(complex(*rng.uniform(-2, 2, 2)) for _ in zeros.points)


# (d, zero set, coefficient source); a fit needs no more zeros than dimensions
AUDIT_CASES = [
    (d, name, source)
    for d in sorted(ROOTS)
    for name in sorted(ZERO_SETS)
    for source in ("fit", "random")
    if source == "random" or len(ZERO_SETS[name]) <= d
]


def _fitted_terms(zeros):
    """Terms of a fitted function besides E: none, Z_z, or the Taylor terms of a z in the disk of 1j."""
    z_in = 1j + (7e-4 + 3e-4j)
    v, m = zeros.local_group(z_in)
    taylor = _taylor_terms(m, (z_in - v).conjugate(), v)
    return {"none": (), "Z_z": ((1.0, 0, 0.3 + 0.7j),), "taylor": taylor}


@pytest.mark.parametrize("d, zero_set, source", AUDIT_CASES)
def test_collapsed_span_matches_the_per_term_loop(d, zero_set, source):
    hb = PolynomialHB(ROOTS[d])
    zeros = canonicalize(ZERO_SETS[zero_set])
    coeffs = _coefficients(hb, zeros, source)
    span = [(-c, k, p) for c, k, p in zip(coeffs, zeros.confluence, zeros.points)]
    for e in (0, 1):
        for name, fitted in _fitted_terms(zeros).items():
            terms = [*fitted, *span]
            collapsed = hb.combination(e, terms)
            loop = StructureFunction.combination(hb, e, terms)
            for a in range(d + 2):
                for w in AUDIT_POINTS:
                    parts = [c * hb.kernel_mixed_partial(a, k, p, w) for c, k, p in terms]
                    scale = abs(e * hb.eval_E(w, a)) + sum(abs(t) for t in parts)
                    assert abs(collapsed(w, a) - loop(w, a)) <= 1e-13 * scale, (e, name, a, w)


def _mp_structure(roots, zero_points, which):
    """E_sigma (which = "E") or F_sigma as a function of w, in 50-digit arithmetic.

    The Gram matrix and the right-hand side come from mpmath.diff of the
    direct kernel formula and of E or Estar; the residual f - sum c_j Z_j,
    a polynomial of degree <= d, is interpolated at the (d+1)-th roots of
    unity and divided by every (w - z_i) synthetically, so the quotient
    holds on the zeros too.
    """
    zeros = canonicalize(zero_points)
    with mpmath.workdps(50):
        rts = [mpmath.mpc(r) for r in roots]

        def e(u):
            return mpmath.fprod(u - r for r in rts)

        def estar(u):
            return mpmath.fprod(u - mpmath.conj(r) for r in rts)

        def kernel(s, w):
            return (estar(s) * e(w) - e(s) * estar(w)) / (1j * (s - w))

        f = e if which == "E" else estar
        pts = [mpmath.mpc(p) for p in zeros.points]
        ks = zeros.confluence
        n = len(pts)
        gram = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                gram[i, j] = mpmath.diff(kernel, (mpmath.conj(pts[j]), pts[i]), (ks[j], ks[i]))
        rhs = mpmath.matrix([mpmath.diff(f, p, k) for p, k in zip(pts, ks)])
        c = mpmath.lu_solve(gram, rhs)

        def residual(w):
            span = sum(
                c[j] * mpmath.diff(lambda s: kernel(s, w), mpmath.conj(pts[j]), ks[j]) for j in range(n)
            )
            return f(w) - span

        size = len(rts) + 1
        nodes = [mpmath.expjpi(2 * mpmath.mpf(m) / size) for m in range(size)]
        values = [residual(u) for u in nodes]
        # coefficients, highest power first, of the degree <= d residual
        poly = [sum(v * u ** (-k) for v, u in zip(values, nodes)) / size for k in range(size)][::-1]
        for p in pts:
            quotient = [poly[0]]
            for coef in poly[1:]:
                quotient.append(coef + quotient[-1] * p)
            assert abs(quotient[-1]) < mpmath.mpf(10) ** -30 * max(abs(q) for q in quotient)
            poly = quotient[:-1]

    def evaluate(w):
        with mpmath.workdps(50):
            return complex(mpmath.polyval(poly, mpmath.mpc(w)))

    return evaluate


STRUCTURE_POINTS = (
    0.3 + 0.7j,  # off every disk
    -1.2 + 0.4j,  # off every disk
    1.5 + 1.8j,  # off every disk
    1j + 0.19,  # within 0.2 of 1j, off its disk
    1j + 0.05j,  # within 0.2 of 1j, off its disk
    1 + 1j - 0.01,  # within 0.2 of 1+1j, off its disk
    1j + (7e-4 + 3e-4j),  # inside the disk of 1j
    1j + 1e-5j,  # inside the disk of 1j
    1 + 1j + (-5e-4 + 6e-4j),  # inside the disk of 1+1j
    1j,  # exactly on a zero
    1 + 1j,  # exactly on a zero
)


@pytest.mark.parametrize("zero_set", sorted(ZERO_SETS))
@pytest.mark.parametrize("which", ("E", "F"))
def test_structure_matches_mpmath(zero_set, which):
    roots, zero_points = ROOTS[5], ZERO_SETS[zero_set]
    ssf = derive(build(PolynomialHB(roots), canonicalize(zero_points)))
    want = _mp_structure(roots, zero_points, which)
    for w in STRUCTURE_POINTS:
        ref = want(w)
        assert abs(ssf.eval(which, w) - ref) <= 1e-10 * abs(ref), w


def _mp_kernel(roots, zero_points):
    """K_z(w) as a function of (z, w), in 50-digit arithmetic.

    The base kernel Z_z(w) = (Estar(s) E(w) - E(s) Estar(w)) / (1j (s - w)),
    s = conj(z), is a polynomial of degree < d in s and in w; its
    coefficients are interpolated on two circles of d-th roots of unity
    that never meet. The projection residual
    R(s, w) = Z(s, w) - sum_j beta_j(s) b_j(w), with beta = G^-1 a,
    a_i(s) = d^k_i/dw^k_i Z(s, z_i) and b_j(w) = d^k_j/ds^k_j Z(conj z_j, w),
    is then a coefficient matrix too, and it is divided synthetically by
    prod (w - z_i) and by prod (s - conj z_i), so the quotient, which is
    K_z(w), holds inside the disks and on the zeros too.
    """
    zeros = canonicalize(zero_points)
    d = len(roots)
    with mpmath.workdps(50):
        rts = [mpmath.mpc(r) for r in roots]

        def e(u):
            return mpmath.fprod(u - r for r in rts)

        def estar(u):
            return mpmath.fprod(u - mpmath.conj(r) for r in rts)

        def kernel(s, w):
            return (estar(s) * e(w) - e(s) * estar(w)) / (1j * (s - w))

        nodes = [mpmath.expjpi(2 * mpmath.mpf(m) / d) for m in range(d)]
        radius = 2  # s on a circle of radius 2, w on the unit circle
        values = [[kernel(radius * u, v) for v in nodes] for u in nodes]
        # coef[j][k] of s^j w^k, by the inverse discrete Fourier transform in both variables
        coef = [
            [
                sum(values[a][b] * nodes[a] ** -j * nodes[b] ** -k for a in range(d) for b in range(d))
                / (d * d * radius**j)
                for k in range(d)
            ]
            for j in range(d)
        ]
        pts = [mpmath.mpc(p) for p in zeros.points]
        ks = zeros.confluence
        n = len(pts)

        def dpoly(c, order, at):
            # order-th derivative at `at` of sum_k c[k] x^k
            return sum(mpmath.ff(k, order) * c[k] * at ** (k - order) for k in range(order, d))

        # a_i(s) as coefficients in s, b_j(w) as coefficients in w
        a_poly = [[dpoly(coef[j], ks[i], pts[i]) for j in range(d)] for i in range(n)]
        columns = [[coef[j][k] for j in range(d)] for k in range(d)]
        b_poly = [[dpoly(columns[k], ks[i], mpmath.conj(pts[i])) for k in range(d)] for i in range(n)]
        gram = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                gram[i, j] = dpoly(b_poly[j], ks[i], pts[i])
        ginv = gram**-1
        beta = [[sum(ginv[j, i] * a_poly[i][r] for i in range(n)) for r in range(d)] for j in range(n)]
        resid = [
            [coef[r][k] - sum(beta[j][r] * b_poly[j][k] for j in range(n)) for k in range(d)]
            for r in range(d)
        ]

        def divide(c, roots_):
            # ascending coefficients of c(x) / prod (x - r), each remainder ~ 0
            for r in roots_:
                high = c[::-1]
                quotient = [high[0]]
                for q in high[1:]:
                    quotient.append(q + quotient[-1] * r)
                assert abs(quotient[-1]) < mpmath.mpf(10) ** -30 * max(abs(q) for q in quotient)
                c = quotient[:-1][::-1]
            return c

        rows = [divide(row, pts) for row in resid]  # in w, per power of s
        conj_pts = [mpmath.conj(p) for p in pts]
        cols = [divide([row[k] for row in rows], conj_pts) for k in range(len(rows[0]))]  # in s, per power of w

    def evaluate(z, w):
        with mpmath.workdps(50):
            s, w = mpmath.conj(mpmath.mpc(z)), mpmath.mpc(w)
            return complex(sum(c * s**r * w**k for k, col in enumerate(cols) for r, c in enumerate(col)))

    return evaluate


KERNEL_ROW_Z = (
    0.3 + 0.7j,  # off every disk
    1.05j,  # within 0.05 of 1j, off its disk
    1j + (7e-4 + 3e-4j),  # inside the disk of 1j
    1j,  # exactly on a zero
)
# w off the disks, inside them and on the zeros; the band just outside a
# disk, where the direct quotient loses digits, is left to an audit of its own
KERNEL_ROW_W = tuple(w for w in STRUCTURE_POINTS if w not in (1j + 0.19, 1j + 0.05j, 1 + 1j - 0.01))


@pytest.mark.parametrize("z", KERNEL_ROW_Z)
def test_kernel_row_matches_mpmath(z):
    roots, zero_points = ROOTS[5], ZERO_SETS["double"]
    row = build(PolynomialHB(roots), canonicalize(zero_points)).kernel_row(z)
    want = _mp_kernel(roots, zero_points)
    for w in KERNEL_ROW_W:
        ref = want(z, w)
        assert abs(row(w) - ref) <= 1e-9 * abs(ref), w


class _LoopHB(PolynomialHB):
    """PolynomialHB with the base-class combination, one partial per term."""

    combination = StructureFunction.combination


def _outcome(run):
    try:
        return run()
    except UnsupportedOrderError:
        return UnsupportedOrderError


BUDGET_Z = (0.3 + 0.7j, 1j + (7e-4 + 3e-4j))  # off and inside the disk of the double zero
BUDGET_W = (0.3 + 0.7j, 1j + (7e-4 + 3e-4j), 1j, 1 + 1j)


@pytest.mark.parametrize("budget", range(13))
def test_tight_budget_raises_where_the_loop_does(budget):
    zeros = canonicalize(ZERO_SETS["double"])
    results = []
    for family in (PolynomialHB, _LoopHB):
        hb = family(ROOTS[5], max_derivative_order=budget)
        gs = _outcome(lambda: build(hb, zeros))
        if gs is UnsupportedOrderError:
            results.append(gs)
            continue
        ssf = _outcome(lambda: derive(gs))
        row = []
        for w in BUDGET_W:
            for which in ("E", "F"):
                row.append(ssf if ssf is UnsupportedOrderError else _outcome(lambda: ssf.eval(which, w)))
            for z in BUDGET_Z:
                row.append(_outcome(lambda: gs.kernel_row(z)(w)))
        results.append(row)
    collapsed, loop = results
    if loop is UnsupportedOrderError:
        assert collapsed is UnsupportedOrderError
        return
    for got, want in zip(collapsed, loop, strict=True):
        if want is UnsupportedOrderError:
            assert got is UnsupportedOrderError
        else:
            assert got is not UnsupportedOrderError
            assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("family", ["pw", "hb"])
@pytest.mark.parametrize(
    "e, terms, w, a, error",
    [
        (0, ((1.0, -1, 1j),), 1j, 0, ValueError),  # a negative term order
        (1, ((1.0, 2, 1j),), 1j, 65, UnsupportedOrderError),  # E past the budget, beside a term of order 2
        (1, ((1.0, 0, 0.5j), (1.0, 2, 0.5j)), None, 0, RangeError),  # an overflow at the family's far point
    ],
    ids=["negative-order", "budget", "overflow"],
)
def test_family_combination_raises_like_the_default(family, e, terms, w, a, error):
    # both closures are built inside pytest.raises: an order may be
    # rejected while the closure is built or when it is first called
    space, far = {"pw": (PaleyWiener(1.0), 800j), "hb": (PolynomialHB(ROOTS[3]), 1e300)}[family]
    w = far if w is None else w
    messages = []
    for combination in (type(space).combination, StructureFunction.combination):
        with pytest.raises(error) as info:
            combination(space, e, terms)(w, a)
        # the value named after "is not finite" may differ between the two sums
        messages.append(re.split(" is not finite| overflows", str(info.value))[0])
    assert messages[0] == messages[1]


def test_budget_stops_the_taylor_orders_of_a_double_zero():
    # inside the disk of the double zero E_sigma needs the residual's
    # derivatives up to order 2 + DESINGULARIZATION_TERMS = 10, each
    # against a partial of order 1 in conj(z): 11 in all
    zeros = canonicalize(ZERO_SETS["double"])
    ssf = derive(build(PolynomialHB(ROOTS[5], max_derivative_order=10), zeros))
    assert np.isfinite(ssf.eval("E", 0.3 + 0.7j))
    with pytest.raises(UnsupportedOrderError):
        ssf.eval("E", 1j + (7e-4 + 3e-4j))
    ssf = derive(build(PolynomialHB(ROOTS[5], max_derivative_order=11), zeros))
    assert np.isfinite(ssf.eval("E", 1j + (7e-4 + 3e-4j)))
