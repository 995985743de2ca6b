"""Accuracy audit of the PaleyWiener kernel routes against mpmath.

* The moment M_p(u) = int_{-x}^{x} t**p exp(1j*u*t) dt is summed as a
  series up to |u*x| = _series_cutoff(p) and in closed form beyond it. It
  is checked for p = 0..20 on both sides of the switch and at the switch
  itself, on the real, imaginary and diagonal rays of u, x in {0.5, 1, 2},
  and at orders up to 200 far past the cutoff.
* The kernel 2*x*sin(v)/v, v = u*x, has no switch. It is checked on
  either side of |v| = 1e-3, where a series switch used to sit, and down
  to u = 0 through subnormal |u|.

Moment errors are measured relative to the moment scale
2 x**(p+1)/(p+1) exp(|Im u| x), which bounds |M_p(u)|, except at the
large orders, which are measured relative to the moment itself; kernel
errors relative to the kernel value. The references carry 40 correct digits.
Every sample is fixed, and the hypothesis property is derandomized.

The Taylor disk of the derived space is audited on its inside: K_z(w) from
`kernel_row` and E, F from `derive` with z or w inside a zero's
de-singularization disk, exactly on a zero, and far from every zero,
against a 60-digit evaluation that makes the Gram solve, the residual and
the division by the zero products in mpmath, taking exact derivatives at
points on a zero. F, the reflection of E, is also checked on circles just
outside the upper-half-plane disks, where it is served by E far from the
zeros. Inside a disk that route takes E's derivatives up to the Taylor
orders, and the derivative budget stops it there.
"""

import cmath
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from debranges import PaleyWiener, UnsupportedOrderError, build, canonicalize, derive
from debranges.kernels import (
    DEFAULT_DERIVATIVE_BUDGET,
    _series_coeffs,
    _series_cutoff,
    _series_pairs,
)

RAYS = {"real": 1.0 + 0j, "imaginary": 1j, "diagonal": cmath.exp(0.25j * math.pi)}
XS = (0.5, 1.0, 2.0)
ORDERS = range(21)
# |u*x| as multiples of the cutoff: well inside, next to it on both sides,
# and well beyond
CUTOFF_FACTORS = (0.5, 0.9, 1 - 1e-9, 1.0, 1 + 1e-9, 1.1, 1.5, 2.0)
# |u*x| on either side of the former fixed cutoff 16, where the old series
# lost five digits
FORMER_CUTOFF = (15.9, 16.1)
SINC_RADII = (1e-8, 0.999e-3, 1.001e-3, 0.1)
# |u| down to zero: the smallest subnormal, a subnormal, a tiny normal
TINY_RADII = (0.0, 5e-324, 1e-310, 1e-300)
# orders and arguments far past the cutoff, where the falling factorial and
# the power of 1j*u overflow on their own
LARGE_ORDER_MOMENTS = ((170, 150 + 0.5j), (200, 160 + 1j))


def moment_bound(p: int) -> float:
    return 1e-15 if p <= 2 else 1e-13


def moment_scale(p: int, u: complex, x: float) -> float:
    return 2 * x ** (p + 1) / (p + 1) * math.exp(abs(u.imag) * x)


def moment_mp(p: int, u: complex, x: float) -> complex:
    """sum_k (1j*u)^k/k! * 2 x^(p+k+1)/(p+k+1) over even p+k, to 40 digits.

    The terms reach about exp(|u*x|) times the result, so the working
    precision grows with |u*x| to keep 40 digits after the cancellation.
    """
    with mpmath.workdps(45 + int(abs(u) * x)):
        iu, xm = 1j * mpmath.mpc(u), mpmath.mpf(x)
        tol = mpmath.mpf(10) ** -(mpmath.mp.dps + 5)
        total, term, k = mpmath.mpc(0), mpmath.mpc(1), 0
        while True:
            q = p + k
            if q % 2 == 0:
                piece = term * 2 * xm ** (q + 1) / (q + 1)
                total += piece
                if k > abs(iu) * xm and abs(piece) < tol * max(1, abs(total)):
                    return complex(total)
            k += 1
            term *= iu / k


def moment_samples(p: int):
    cut = _series_cutoff(p)
    for ray, d in RAYS.items():
        for x in XS:
            for f in CUTOFF_FACTORS:
                yield ray, x, f, f * cut * d / x
            for r in FORMER_CUTOFF:
                yield ray, x, r / cut, r * d / x


@pytest.mark.parametrize(
    "u, x, p",
    [(3.7 + 0.4j, 1.0, 1), (-2.0 + 1.5j, 0.5, 6), (9.2 - 0.3j, 1.0, 20), (4.0j, 2.0, 17)],
)
def test_moment_reference_matches_quadrature(u, x, p):
    # the series oracle against an independent tanh-sinh quadrature
    with mpmath.workdps(40):
        um = mpmath.mpc(u)
        quad = complex(mpmath.quad(lambda t: t**p * mpmath.exp(1j * um * t), [-x, 0, x]))
    assert abs(moment_mp(p, u, x) - quad) <= 1e-30 * moment_scale(p, u, x)


@pytest.mark.parametrize("p", ORDERS)
def test_moment_routes_match_mpmath(p):
    spaces = {x: PaleyWiener(x) for x in XS}
    worst, where = 0.0, None
    for ray, x, f, u in moment_samples(p):
        got = spaces[x]._moment(p, u)
        err = abs(got - moment_mp(p, u, x)) / moment_scale(p, u, x)
        if err > worst:
            worst, where = err, (ray, x, f)
    assert worst <= moment_bound(p), f"p={p}: relative error {worst:.2e} at {where}"


@pytest.mark.parametrize("p", range(DEFAULT_DERIVATIVE_BUDGET + 1))
def test_series_truncation_leaves_only_negligible_terms(p):
    # the first pair the series omits at |u*x| = r is below 2**-56 of the
    # leading term for every r up to the cutoff
    pairs = _series_coeffs(p)
    cut = _series_cutoff(p)
    for i in range(101):
        r = cut * i / 100
        n = min(_series_pairs(r), len(pairs))
        first_omitted = 1 / math.perm(p + 1 + 2 * n, 2 * n)
        assert first_omitted * r ** (2 * n) < 2.0**-56


@settings(derandomize=True, max_examples=300)
@given(
    p=st.integers(0, 20),
    angle=st.floats(0.0, 2 * math.pi),
    x=st.floats(0.25, 4.0),
)
def test_moment_continuous_across_cutoff(p, angle, x):
    # the two routes a few ulps apart on either side of the cutoff differ by
    # no more than their error bounds plus the moment's own change,
    # |dM_p/du| = |M_(p+1)| <= x * moment_scale(p, u, x)
    sf = PaleyWiener(x)
    cut = _series_cutoff(p)
    below = above = cut * cmath.exp(1j * angle) / x
    while abs(below * x) > cut:
        below *= 1 - 2**-52
    while abs(above * x) <= cut:
        above *= 1 + 2**-52
    jump = abs(sf._moment(p, below) - sf._moment(p, above))
    allowed = 2 * moment_bound(p) + abs(above - below) * x
    assert jump <= allowed * moment_scale(p, above, x)


@pytest.mark.parametrize("p, u", LARGE_ORDER_MOMENTS)
def test_moment_large_order_matches_mpmath(p, u):
    got = PaleyWiener(1.0)._moment(p, u)
    assert abs(u) > _series_cutoff(p)  # the closed route
    want = moment_mp(p, u, 1.0)
    assert cmath.isfinite(got)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("ray", sorted(RAYS))
@pytest.mark.parametrize("r", SINC_RADII)
@pytest.mark.parametrize("x", XS)
def test_kernel_sinc_switch_matches_mpmath(ray, r, x):
    # the exact form on both sides of the former switch radius
    sf = PaleyWiener(x)
    z = 0.3 + 0.7j
    w = z.conjugate() - r * RAYS[ray] / x
    got = sf.kernel(z, w)
    with mpmath.workdps(40):
        u = mpmath.mpc(z).conjugate() - mpmath.mpc(w)
        want = complex(2 * mpmath.sin(u * x) / u)
    assert abs(got - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("ray", sorted(RAYS))
@pytest.mark.parametrize("r", TINY_RADII)
@pytest.mark.parametrize("x", XS)
def test_kernel_exact_form_at_tiny_u(ray, r, x):
    # z = 0 makes u = w - conj(z) = w exactly, so a subnormal u reaches the kernel
    w = r * RAYS[ray]
    got = PaleyWiener(x).kernel(0, w)
    with mpmath.workdps(40):
        u = mpmath.mpc(w)
        want = complex(2 * mpmath.sin(u * x) / u) if w else 2 * x
    assert abs(got - want) <= 1e-15 * abs(want)


# Taylor-disk audit: PW x = 1 with a double zero at 1j (disk radius 2e-3)
TAYLOR_CONFIGS = {"3 zeros": (1j, 1j, 1 + 1j), "4 zeros": (1j, 1j, 2j, 1 + 1j)}
TAYLOR_Z = {
    "inside the double zero's disk": 1j + (7e-4 + 3e-4j),
    "on the double zero": 1j,
    "inside the single zero's disk": 1 + 1j + (-5e-4 + 6e-4j),
    "far": 0.3 + 0.7j,
}
TAYLOR_W = (
    1j + (-4e-4 + 9e-4j),  # inside the double zero's disk
    1 + 1j + (1.2e-3 - 8e-4j),  # inside the single zero's disk
    1j,  # on the double zero
    1 + 1j,  # on the single zero
    -1.2 + 0.4j,  # far
    1.5 + 1.8j,  # far
)
# measured worst relative error: 4.9e-10 (K_z, 4 zeros, z far), 4.1e-10 (K_z,
# 4 zeros, z in a disk), 1.1e-11 (K_z, 3 zeros) and 2.6e-11 (E, F); the Gram
# condition estimate of the 4 zeros is 6.5e4
TAYLOR_BOUND = 1e-9
MOMENT_TERMS = 120  # fixed length: every other term of a moment series is 0


def mixed_mp(a: int, b: int, z, w):
    """d^a/dw^a d^b/d(conj z)^b of the PW x = 1 kernel, as a power series in w - conj(z)."""
    iu = 1j * (mpmath.mpc(w) - mpmath.conj(mpmath.mpc(z)))
    p = a + b
    total, term = mpmath.mpc(0), mpmath.mpc(1)
    for k in range(MOMENT_TERMS):
        if (p + k) % 2 == 0:
            total += term * 2 / (p + k + 1)
        term *= iu / (k + 1)
    return mpmath.mpc(1j) ** a * mpmath.mpc(-1j) ** b * total


def derived_mp(zeros, f, w, b=0, z=None):
    """(Remainder of f at w) as in the library: fit f on the zeros, subtract, divide out.

    `f(point, a)` is the a-th w-derivative of the fitted function; at a w on
    a zero run of multiplicity m, the m-th derivative of the residual over
    m! replaces the vanishing factors.
    """
    zs = canonicalize(zeros)
    pts, ks = zs.points, zs.confluence
    n = len(pts)
    g = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            g[i, j] = mixed_mp(ks[i], ks[j], pts[j], pts[i])
    c = mpmath.lu_solve(g, mpmath.matrix([f(p, k) for p, k in zip(pts, ks)]))
    group = [p for p in pts if p == w]
    m = len(group)
    resid = f(w, m) - sum(c[j] * mixed_mp(m, ks[j], pts[j], w) for j in range(n))
    denom = mpmath.mpc(1)
    for p in pts:
        if p != w:
            denom *= mpmath.mpc(w) - mpmath.mpc(p)
    return resid / mpmath.factorial(m) / denom


def kernel_row_mp(zeros, z, w):
    """K_z(w); at a z on a zero run of multiplicity m, the m-th conj(z)-derivative over m!."""
    mz = sum(1 for p in zeros if p == z)
    k = derived_mp(zeros, lambda p, a: mixed_mp(a, mz, z, p), w)
    zprod = mpmath.mpc(1)
    for p in zeros:
        if p != z:
            zprod *= mpmath.mpc(z) - mpmath.mpc(p)
    return k / mpmath.factorial(mz) / mpmath.conj(zprod)


def structure_mp(zeros, which, w):
    sign = -1 if which == "E" else 1
    return derived_mp(
        zeros, lambda p, a: (sign * 1j) ** a * mpmath.exp(sign * 1j * mpmath.mpc(p)), w
    )


@pytest.mark.parametrize("config", sorted(TAYLOR_CONFIGS))
@pytest.mark.parametrize("z_at", sorted(TAYLOR_Z))
def test_kernel_row_taylor_disk_matches_mpmath(config, z_at):
    # the solve route's row and the determinant route's (an LU fit through
    # the same quotient) both cross the disks in z and in w
    zeros = TAYLOR_CONFIGS[config]
    z = TAYLOR_Z[z_at]
    gs = build(PaleyWiener(1.0), canonicalize(zeros))
    with mpmath.workdps(60):
        wants = [complex(kernel_row_mp(zeros, z, w)) for w in TAYLOR_W]
    for route in ("kernel_row", "det_row"):
        row = getattr(gs, route)(z)
        worst, where = 0.0, None
        for w, want in zip(TAYLOR_W, wants):
            err = abs(row(w) - want) / abs(want)
            if err > worst:
                worst, where = err, w
        assert worst <= TAYLOR_BOUND, f"{route}: relative error {worst:.2e} at w={where}"


@pytest.mark.parametrize("config", sorted(TAYLOR_CONFIGS))
@pytest.mark.parametrize("which", ("E", "F"))
def test_structure_taylor_disk_matches_mpmath(config, which):
    zeros = TAYLOR_CONFIGS[config]
    ssf = derive(build(PaleyWiener(1.0), canonicalize(zeros)))
    worst, where = 0.0, None
    with mpmath.workdps(60):
        for w in TAYLOR_W:
            want = complex(structure_mp(zeros, which, w))
            err = abs(ssf.eval(which, w) - want) / abs(want)
            if err > worst:
                worst, where = err, w
    assert worst <= TAYLOR_BOUND, f"relative error {worst:.2e} at w={where}"


# around the upper-half-plane zeros (the 2.1e-3 circle lies just outside the
# double zero's disk and inside the single zero's), F_sigma(w) =
# conj(E_sigma(conj w)) is served by E far from every zero; a separate fit of
# Estar, divided directly, would lose up to 3.1e-6 there. Measured worst: 8.9e-12.
# The mirror circles around conj(sigma) are where E itself is divided
# directly, and are left to the Taylor-radius work on E.
OUTSIDE_ZEROS = TAYLOR_CONFIGS["4 zeros"]
OUTSIDE_CENTRES = (1j, 1 + 1j)
OUTSIDE_RADII = (2.1e-3, 1e-2, 0.1)


@pytest.mark.parametrize("radius", OUTSIDE_RADII)
@pytest.mark.parametrize("centre", OUTSIDE_CENTRES)
def test_structure_F_around_upper_zeros_matches_mpmath(centre, radius):
    ssf = derive(build(PaleyWiener(1.0), canonicalize(OUTSIDE_ZEROS)))
    circle = [centre + radius * cmath.exp(2j * math.pi * k / 8) for k in range(8)]
    worst, where = 0.0, None
    with mpmath.workdps(60):
        for w in circle:
            want = complex(structure_mp(OUTSIDE_ZEROS, "F", w))
            err = abs(ssf.eval("F", w) - want) / abs(want)
            if err > worst:
                worst, where = err, w
    assert worst <= TAYLOR_BOUND, f"relative error {worst:.2e} at w={where}"


def test_budget_stops_the_taylor_orders_of_a_double_zero():
    # inside the disk of the double zero E_sigma needs the residual's
    # derivatives up to order 2 + DESINGULARIZATION_TERMS = 10, E's among
    # them; the kernel partials take no budget on PaleyWiener
    zeros = canonicalize(TAYLOR_CONFIGS["3 zeros"])
    ssf = derive(build(PaleyWiener(1.0, max_derivative_order=9), zeros))
    assert math.isfinite(abs(ssf.eval("E", 0.3 + 0.7j)))
    with pytest.raises(UnsupportedOrderError):
        ssf.eval("E", 1j + (7e-4 + 3e-4j))
    ssf = derive(build(PaleyWiener(1.0, max_derivative_order=10), zeros))
    assert math.isfinite(abs(ssf.eval("E", 1j + (7e-4 + 3e-4j))))
