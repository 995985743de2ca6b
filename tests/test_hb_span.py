"""The PolynomialHB closed forms, audited three ways.

`PolynomialHB.polynomial(e, terms)` sums e E + sum_t weight_t Z_t, with a
term (weight, order, point) standing for the evaluator of the order-th
derivative at point, into one coefficient vector in w. A remainder passes
it the fitted function's terms and the span's terms (-c_j, k_j, z_j). It
is checked (a) against the checked `combination` closure, which sums one
kernel partial per term, with and without E, a Z_z term and the
conj(z)-Taylor terms of a z in a disk, (b) through the derived structure
functions E_sigma and F_sigma and the derived kernel K_z, which the gram
layer serves in closed form (exact quotients of that polynomial, and the
matrix B'), against 50-digit mpmath constructions that share nothing with
the library but the inputs: off the de-singularization disks, inside them,
exactly on the zeros and in the band just outside them, with a double and
a triple zero, with zeros far from the origin and in the trivial derived
space d = n, without asking for a disk anywhere, and (c) on the derivative
budget: a tight budget refuses values with UnsupportedOrderError but never
changes one. A kernel row is its quotient alone; a residual is read from
the checked `combination` of a fit's terms.
"""

import cmath
import re
from functools import cache

import mpmath
import numpy as np
import pytest

from debranges import (
    PaleyWiener,
    PolynomialHB,
    RangeError,
    StructureFunction,
    UnsupportedOrderError,
    ZeroSequence,
    build,
    canonicalize,
    derive,
    gram,
    run_config_checks,
)
from debranges.verify import PROJECTION_POINT, _sample_pair, _uniforms
from debranges.gram import _taylor_terms
from debranges.kernels import _differentiate, _horner

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
            poly = hb.polynomial(e, terms)
            loop = hb._checked(e, terms, StructureFunction._at_order(hb, e, terms))
            for a in range(d + 2):
                collapsed = _differentiate(poly, a)
                for w in AUDIT_POINTS:
                    parts = [c * hb.kernel_mixed_partial(a, k, p, w) for c, k, p in terms]
                    scale = abs(e * hb.eval_E(w, a)) + sum(abs(t) for t in parts)
                    assert abs(_horner(collapsed, w) - loop(w, a)) <= 1e-13 * scale, (e, name, a, w)


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


def _outcome(run):
    try:
        return run()
    except UnsupportedOrderError:
        return UnsupportedOrderError


BUDGET_Z = (0.3 + 0.7j, 1j + (7e-4 + 3e-4j))  # off and inside the disk of the double zero
BUDGET_W = (0.3 + 0.7j, 1j + (7e-4 + 3e-4j), 1j, 1 + 1j)


@pytest.mark.parametrize("budget", range(13))
def test_tight_budget_raises_where_the_loop_does(budget):
    # a tight budget may refuse a value, but every value it serves is the
    # default budget's, bit for bit
    zeros = canonicalize(ZERO_SETS["double"])
    results = []
    for hb in (PolynomialHB(ROOTS[5], max_derivative_order=budget), PolynomialHB(ROOTS[5])):
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
            # the one value here that takes the checked `combination`: the incomplete form of E
            row.append(ssf if ssf is UnsupportedOrderError else _outcome(lambda: ssf.incomplete(w, 3)))
        results.append(row)
    tight, full = results
    assert UnsupportedOrderError not in full
    if tight is UnsupportedOrderError:
        return
    for got, want in zip(tight, full, strict=True):
        assert got is UnsupportedOrderError or got == want


@pytest.mark.parametrize("family", ["pw"])  # the one family with math of its own under `combination`
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
    space, far = PaleyWiener(1.0), 800j
    w = far if w is None else w
    messages = []
    closures = (
        lambda: space.combination(e, terms),
        # the checked closure over the base class's plain math, one partial per term
        lambda: space._checked(e, terms, StructureFunction._at_order(space, e, terms)),
    )
    for closure in closures:
        with pytest.raises(error) as info:
            closure()(w, a)
        # the value named after "is not finite" may differ between the two sums
        messages.append(re.split(" is not finite| overflows", str(info.value))[0])
    assert messages[0] == messages[1]


def test_budget_serves_the_closed_quotient_inside_a_disk():
    # the quotient is exact and takes no Taylor orders, so the least budget
    # that builds the Gram matrix (partials of order 1 + 1) serves E_sigma
    # inside the double zero's disk, where the Taylor route needed order 11
    zeros = canonicalize(ZERO_SETS["double"])
    w = 1j + (7e-4 + 3e-4j)
    want = _mp_structure(ROOTS[5], ZERO_SETS["double"], "E")(w)
    for budget in (2, 10):
        ssf = derive(build(PolynomialHB(ROOTS[5], max_derivative_order=budget), zeros))
        assert abs(ssf.eval("E", w) - want) <= 1e-12 * max(1.0, abs(want)), budget


# a triple zero leaves a one-dimensional derived space on degree 5
TRIPLE = (1j, 1j, 1j, 2j)
CLOSED_SETS = {"double": ZERO_SETS["double"], "triple": TRIPLE}
# just outside the disk of 1j (radius 2e-3), where a direct quotient by
# prod (w - z_i) cancels most digits
BAND_CIRCLE = tuple(1j + 2.1e-3 * cmath.exp(0.25j * cmath.pi * m) for m in range(8))
BAND_W = (1j + 0.19, 1j + 0.05j, 1 + 1j - 0.01, *BAND_CIRCLE)
BAND_Z = (1j + 0.19, 1 + 1j - 0.01, BAND_CIRCLE[1], BAND_CIRCLE[6])
CLOSED_BOUND = 1e-12


@cache
def _mp_structure_of(zero_set, which):
    return _mp_structure(ROOTS[5], CLOSED_SETS[zero_set], which)


@cache
def _mp_kernel_of(zero_set):
    return _mp_kernel(ROOTS[5], CLOSED_SETS[zero_set])


@pytest.mark.parametrize("zero_set", sorted(CLOSED_SETS))
@pytest.mark.parametrize("which", ("E", "F"))
def test_structure_in_the_band_matches_mpmath(zero_set, which):
    # F's band lies around the conjugate zeros, so every point is taken with its mirror
    ssf = derive(build(PolynomialHB(ROOTS[5]), canonicalize(CLOSED_SETS[zero_set])))
    want = _mp_structure_of(zero_set, which)
    points = (*STRUCTURE_POINTS, *BAND_W)
    for w in (*points, *(p.conjugate() for p in points)):
        ref = want(w)
        assert abs(ssf.eval(which, w) - ref) <= CLOSED_BOUND * max(1.0, abs(ref)), w


@pytest.mark.parametrize("zero_set", sorted(CLOSED_SETS))
@pytest.mark.parametrize("z", (*KERNEL_ROW_Z, *BAND_Z))
def test_kernel_row_in_the_band_matches_mpmath(zero_set, z):
    row = build(PolynomialHB(ROOTS[5]), canonicalize(CLOSED_SETS[zero_set])).kernel_row(z)
    want = _mp_kernel_of(zero_set)
    for w in (*STRUCTURE_POINTS, *BAND_CIRCLE):
        ref = want(z, w)
        assert abs(row(w) - ref) <= CLOSED_BOUND * max(1.0, abs(ref)), w


# the determinant route on hb-deg3, at the projection check's z; w on
# circles around the double zero 1j, from just outside its disk out to
# the suite's samples
DET_SETS = {"n2-double": (1j, 1j), "n3-double": (1j, 1j, 2j), "n2": (1j, 2j), "n3": (1j, 1 + 1j, -1 + 2j)}
DET_W = tuple(1j + r * cmath.exp(0.25j * cmath.pi * m) for r in (2.1e-3, 3e-3, 6e-3, 2.5e-2) for m in range(8))


@pytest.mark.parametrize("zero_set", sorted(DET_SETS))
def test_det_route_near_a_double_zero_matches_mpmath(zero_set):
    # the determinant over prod (w - z_i) cancels near a multiple zero; its
    # residual is divided exactly, so it holds there as the solve route does
    zero_points = DET_SETS[zero_set]
    gs = build(PolynomialHB(ROOTS[3]), canonicalize(zero_points))
    # n = d leaves the derived space {0}, and _mp_kernel's division asserts on a quotient that is all zero
    want = (lambda z, w: 0j) if len(zero_points) == 3 else _mp_kernel(ROOTS[3], zero_points)
    det_row = gs.det_row(PROJECTION_POINT)
    for w in DET_W:
        ref = want(PROJECTION_POINT, w)
        assert abs(det_row(w) - ref) <= CLOSED_BOUND * max(1.0, abs(ref)), w


def test_derived_values_ask_no_disk(monkeypatch):
    # the closed forms serve every point alike: no derived value asks which
    # disk a point is in or reaches the Taylor quotient
    gs = build(PolynomialHB(ROOTS[5]), canonicalize(TRIPLE))
    ssf = derive(gs)

    def forbidden(*args):
        raise AssertionError("a disk route was taken")

    monkeypatch.setattr(ZeroSequence, "local_group", forbidden)
    monkeypatch.setattr(gram, "_taylor_terms", forbidden)
    for w in (*STRUCTURE_POINTS, *BAND_W, 2j):
        for which in ("E", "F"):
            ssf.eval(which, w)
        for z in (*KERNEL_ROW_Z, *BAND_Z, 2j):
            gs.kernel_row(z)(w)
            gs.sigma_kernel(z, w)


def _projection_residual(gs, z):
    """The projection residual of Z_z: the checked combination of Z_z and the span over a fresh beta(z)."""
    span = ((-c, k, p) for c, k, p in zip(gs.solve_beta(z), gs.zeros.confluence, gs.zeros.points))
    return gs.space.combination(0, [(1.0, 0, z), *span])


def test_kernel_rows_build_no_combination(monkeypatch):
    # an HB row's value is B' contracted with conj(z), and nothing else: it
    # builds no checked closure and solves nothing
    gs = build(PolynomialHB(ROOTS[5]), canonicalize(TRIPLE))
    gs._closed_kernel  # B' is built once per system, by solves of its own

    def forbidden(*args):
        raise AssertionError("a combination closure was built or a system solved")

    monkeypatch.setattr(StructureFunction, "_checked", forbidden)
    monkeypatch.setattr(type(gs), "solve", forbidden)
    for z in (*KERNEL_ROW_Z, *BAND_Z, 2j):
        row = gs.kernel_row(z)
        for w in (*STRUCTURE_POINTS, *BAND_W, 2j):
            assert row(w) == gs.sigma_kernel(z, w)
    monkeypatch.undo()
    # read from the fit, the projection residual of Z_z vanishes on the zeros
    z = 0.3 + 0.7j
    residual = _projection_residual(gs, z)
    for p, k in zip(gs.zeros.points, gs.zeros.confluence):
        assert abs(residual(p, k)) <= 1e-14 * abs(gs.space.kernel_mixed_partial(k, 0, z, p)), (p, k)


# zeros far from the origin, where a division from the leading coefficient
# would multiply the fit's rounding by |z_i| at every step
FAR_SETS = {"10j": (10j,), "5j,-3+4j": (5j, -3 + 4j), "20j,1j": (20j, 1j)}
FAR_POINTS = (0.3 + 0.7j, -1.2 + 0.4j, 4 + 3j, 2.5 - 1j, 10 + 10j, 0.5j, -5 + 1j, 30j)


@pytest.mark.parametrize("zero_set", sorted(FAR_SETS))
def test_far_zeros_match_mpmath(zero_set):
    zero_points = FAR_SETS[zero_set]
    gs = build(PolynomialHB(ROOTS[5]), canonicalize(zero_points))
    ssf = derive(gs)
    points = (*FAR_POINTS, *zero_points)
    for which in ("E", "F"):
        want = _mp_structure(ROOTS[5], zero_points, which)
        for w in points:
            ref = want(w)
            assert abs(ssf.eval(which, w) - ref) <= CLOSED_BOUND * max(1.0, abs(ref)), (which, w)
    want = _mp_kernel(ROOTS[5], zero_points)
    for z in (*FAR_POINTS[:4], *zero_points):
        row = gs.kernel_row(z)
        for w in points:
            ref = want(z, w)
            assert abs(row(w) - ref) <= CLOSED_BOUND * max(1.0, abs(ref)), (z, w)


@pytest.mark.parametrize(
    "d, zero_points",
    [(3, (1j, 1j, 2j)), (1, (1j,))],
    ids=["deg3:n3-double", "deg1:n1"],
)
def test_trivial_derived_space(d, zero_points):
    # d = n: the derived space is {0}, so K_z is 0, E_sigma the constant 1 and B' is 0 x 0
    space, zeros = PolynomialHB(ROOTS[d]), canonicalize(zero_points)
    gs = build(space, zeros)
    assert gs._closed_kernel == ()
    ssf = derive(gs)
    # a suite sample 0.025 from the double zero 1j, and a point just outside its disk
    w = -0.001361086759250174 + 0.9746971913422087j
    for at in (w, 1.0021j, 0.3 + 0.7j, *zero_points):
        for z in (0.7 + 1.3j, at, *zero_points):
            assert abs(gs.kernel_row(z)(at)) <= 1e-15
            assert abs(gs.sigma_kernel(z, at)) <= 1e-15
        for which in ("E", "F"):
            assert abs(ssf.eval(which, at) - 1) <= 1e-13
    # the undivided residuals vanish on the zeros, against the size of what cancels there
    z = 0.7 + 1.3j
    residual = _projection_residual(gs, z)
    for p, k in zip(zeros.points, zeros.confluence):
        assert abs(residual(p, k)) <= 1e-12 * abs(space.kernel_mixed_partial(k, 0, z, p))
        assert abs(ssf.incomplete(p, k)) <= 1e-12 * abs(space.eval_E(p, k))
    reports = run_config_checks(space, zeros)
    assert reports and all(r.passed for r in reports), reports


# high degree with roots of modulus about 3 and zeros of modulus 1.1-1.4: a
# division that deflates a zero from the side of its size relative to 1,
# not to the dividend's other roots, lost 7e-6 of K_sigma at degree 12
DEGREE_ZEROS = (1j, 1j, 0.5 + 1j, -1 + 0.5j)


@pytest.mark.parametrize("d", [8, 12, 16])
def test_high_degree_matches_mpmath(d):
    roots = tuple(3 * cmath.cos(cmath.pi * (k + 0.5) / d) - 1j for k in range(d))
    gs = build(PolynomialHB(roots), canonicalize(DEGREE_ZEROS))
    ssf = derive(gs)
    uniform = _uniforms(1)
    pairs = [_sample_pair(uniform) for _ in range(60)]
    want_e = _mp_structure(roots, DEGREE_ZEROS, "E")
    want_k = _mp_kernel(roots, DEGREE_ZEROS)
    for z, w in pairs:
        ref = want_e(w)
        assert abs(ssf.eval("E", w) - ref) <= 1e-9 * abs(ref), w
        ref = want_k(z, w)
        assert abs(gs.sigma_kernel(z, w) - ref) <= 1e-9 * abs(ref), (z, w)
