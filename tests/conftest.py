"""Shared fixtures and independent numerical oracles for the test suite.

The oracles here deliberately avoid the library's evaluation paths:
kernel values come from Gauss-Legendre quadrature of the defining
integral, derivatives from central finite differences, and mixed partials
also from the generic Leibniz / divided-difference route, which needs
nothing of a family but its E and Estar derivatives.
"""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest
from hypothesis import settings

from debranges import PaleyWiener, PolynomialHB

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int = 96) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def pw_kernel_quadrature(x: float, z: complex, w: complex) -> complex:
    """Quadrature of the defining integral of the sinc-type kernel."""
    return pw_moment_quadrature(x, 0, z, w)


def pw_moment_quadrature(x: float, p: int, z: complex, w: complex) -> complex:
    """Quadrature of t**p * exp(1j*(w - conj(z))*t) over [-x, x]."""
    nodes, weights = _gl_nodes()
    t = nodes * x
    u = complex(w) - complex(z).conjugate()
    vals = t**p * np.exp(1j * u * t)
    return complex(np.sum(weights * vals) * x)


# five-point central stencils, truncation O(h^4)
_CENTRAL = {
    0: ((0, 1.0),),
    1: ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12)),
    2: ((-2, -1 / 12), (-1, 16 / 12), (0, -30 / 12), (1, 16 / 12), (2, -1 / 12)),
}


def fd_mixed_partial(fn, a: int, b: int, z: complex, w: complex, h: float | None = None) -> complex:
    """Central finite differences in w and in conj(z) of fn(z, w).

    A real step applied to z moves conj(z) by the same real step, so the
    anti-analytic derivative uses plain real displacements of z. The step
    grows with the total order: rounding noise scales like eps / h^(a+b),
    so the tight step only suits low orders.
    """
    if h is None:
        h = 1e-4 if a + b <= 2 else 1e-2
    total = 0j
    for di, ci in _CENTRAL[b]:
        for dj, cj in _CENTRAL[a]:
            total += ci * cj * fn(z + di * h, w + dj * h)
    return total / h ** (a + b)


# The far route divides by conj(z) - w; below this |conj(z) - w| * scale the
# plain kernel (a + b = 0) takes the near-diagonal series instead.
KERNEL_PROTECTION_RADIUS = 1e-3

# The far route differentiates 1/(conj(z) - w), so an order-p partial
# amplifies rounding by p!/|delta|^(p+1); partials switch to the series
# form much earlier than the plain kernel does.
PARTIAL_PROTECTION_RADIUS = 5e-2

# Series terms of the near-diagonal divided-difference expansion; a mixed
# partial of orders (a, b) then consumes E-derivatives up to order
# a + b + 1 + DIAGONAL_SERIES_TERMS.
DIAGONAL_SERIES_TERMS = 8


def generic_scale(sf) -> float:
    """Frequency scale that normalizes distances to the diagonal."""
    return sf.x if isinstance(sf, PaleyWiener) else 1.0


def generic_mixed(sf, a: int, b: int, z: complex, w: complex) -> complex:
    """d^a/dw^a d^b/d(conj z)^b of the kernel of `sf` by the generic route."""
    s = complex(z).conjugate()
    w = complex(w)
    radius = KERNEL_PROTECTION_RADIUS if a + b == 0 else PARTIAL_PROTECTION_RADIUS
    if abs(s - w) * generic_scale(sf) < radius:
        return generic_mixed_near(sf, a, b, s, w)
    return generic_mixed_far(sf, a, b, s, w)


def generic_mixed_far(sf, a: int, b: int, s: complex, w: complex) -> complex:
    """Double Leibniz on N(s, w) / (1j*(s - w)), N(s, w) = Estar(s)E(w) - E(s)Estar(w)."""
    delta = s - w
    ew = [sf._eval_E_raw(w, j) for j in range(a + 1)]
    fw = [sf._eval_E_star_raw(w, j) for j in range(a + 1)]
    es = [sf._eval_E_raw(s, k) for k in range(b + 1)]
    fs = [sf._eval_E_star_raw(s, k) for k in range(b + 1)]
    total = 0j
    for j in range(a + 1):
        ca = math.comb(a, j)
        for k in range(b + 1):
            njk = fs[k] * ew[j] - es[k] * fw[j]
            order = (a - j) + (b - k)
            gfac = ((-1) ** (b - k)) * math.factorial(order) / delta ** (order + 1)
            total += ca * math.comb(b, k) * njk * gfac
    return total / 1j


def generic_mixed_near(sf, a: int, b: int, s: complex, w: complex) -> complex:
    """N(s,w)/(s-w) = E(w)*D[Estar](s,w) - Estar(w)*D[E](s,w) near the diagonal.

    D[f](s,w) = (f(s)-f(w))/(s-w) is entire and its mixed partials have a
    fast Taylor expansion in (s - w).
    """
    delta = s - w
    total = 0j
    for j in range(a + 1):
        alpha = a - j
        dd_f = _dd_partial(sf, True, alpha, b, w, delta)
        dd_e = _dd_partial(sf, False, alpha, b, w, delta)
        total += math.comb(a, j) * (sf._eval_E_raw(w, j) * dd_f - sf._eval_E_star_raw(w, j) * dd_e)
    return total / 1j


def _dd_partial(sf, star: bool, alpha: int, beta: int, w: complex, delta: complex) -> complex:
    # d^alpha/dw^alpha d^beta/ds^beta of (f(s)-f(w))/(s-w) at s = w + delta:
    # sum_m f^(alpha+beta+1+m)(w) * delta^m/m! * (beta+m)! alpha! / (alpha+beta+m+1)!
    raw = sf._eval_E_star_raw if star else sf._eval_E_raw
    total = 0j
    dpow = 1.0 + 0j
    for m in range(DIAGONAL_SERIES_TERMS + 1):
        order = alpha + beta + 1 + m
        weight = (
            math.factorial(beta + m)
            * math.factorial(alpha)
            / (math.factorial(m) * math.factorial(alpha + beta + m + 1))
        )
        total += raw(w, order) * dpow * weight
        dpow *= delta
    return total


@pytest.fixture(autouse=True)
def _unfreeze_the_heap():
    """`cli.main` freezes the heap for the rest of its process; give it back to the collector."""
    yield
    gc.unfreeze()


@pytest.fixture
def pw1() -> PaleyWiener:
    return PaleyWiener(1.0)


@pytest.fixture
def pw2() -> PaleyWiener:
    return PaleyWiener(2.0)


@pytest.fixture
def hb1() -> PolynomialHB:
    return PolynomialHB((-1j,))


@pytest.fixture
def hb3() -> PolynomialHB:
    return PolynomialHB((-1j, 1 - 1j, -1 - 2j))
