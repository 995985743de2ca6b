"""Accuracy audit of the PaleyWiener route switches against mpmath.

Two switches are covered, each on both sides and at the switch itself:

* the moment M_p(u) = int_{-x}^{x} t**p exp(1j*u*t) dt, summed as a series
  up to |u*x| = _series_cutoff(p) and in closed form beyond it, for
  p = 0..20 on the real, imaginary and diagonal rays of u, x in {0.5, 1, 2};
* the kernel 2 sin(v)/u, v = u*x, taken from its Taylor series inside
  |v| < SINC_PROTECTION_RADIUS and by direct division outside.

Moment errors are measured relative to the moment scale
2 x**(p+1)/(p+1) exp(|Im u| x), which bounds |M_p(u)|; kernel errors
relative to the kernel value. The references carry 40 correct digits.
Every sample is fixed, and the hypothesis property is derandomized.
"""

import cmath
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from debranges import PaleyWiener
from debranges.kernels import (
    DEFAULT_DERIVATIVE_BUDGET,
    SINC_PROTECTION_RADIUS,
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


@pytest.mark.parametrize("ray", sorted(RAYS))
@pytest.mark.parametrize("r", SINC_RADII)
@pytest.mark.parametrize("x", XS)
def test_kernel_sinc_switch_matches_mpmath(ray, r, x):
    sf = PaleyWiener(x)
    z = 0.3 + 0.7j
    w = z.conjugate() - r * RAYS[ray] / x
    got = sf.kernel(z, w)
    with mpmath.workdps(40):
        u = mpmath.mpc(z).conjugate() - mpmath.mpc(w)
        want = complex(2 * mpmath.sin(u * x) / u)
    assert (abs(u * x) < SINC_PROTECTION_RADIUS) == (r < SINC_PROTECTION_RADIUS)
    assert abs(got - want) <= 1e-15 * abs(want)
