"""Reuse of per-z solves and per-run Taylor derivatives, checked bit for bit.

`GramSystem.kernel_row` fits Z_z (or, for z inside a disk, the terms of its
conj(z)-Taylor sum) with one solve per z, and its `Remainder` keeps each
residual derivative at a zero run; `SigmaStructureFunction.eval` keeps those
of E and F. On PaleyWiener the references below are per-point loops without
those caches: they re-solve and re-differentiate for every point, fit the
Taylor terms term by term, and take the residual through the same
`combination` hook, so the arithmetic order is the library's and every
value must match exactly. PolynomialHB serves the same values in closed
form (exact quotients and the matrix B'), with no Taylor route to replay:
there a reused row or structure function must equal a fresh one exactly,
and both must lie within 1e-12 of the 50-digit mpmath constructions of
tests/test_hb_span.py.
"""

import math

import numpy as np
import pytest

from debranges import GramSystem, PaleyWiener, PolynomialHB, build, canonicalize, derive, derive_iterative
from debranges.sigma import DESINGULARIZATION_TERMS
from test_hb_span import _mp_kernel, _mp_structure

ZEROS = (1j, 1j, 1 + 1j)  # a double zero at 1j and a single zero at 1+1j
POINTS = (
    0.3 + 0.7j,  # off every disk
    -1.2 + 0.4j,  # off every disk
    1j + (7e-4 + 3e-4j),  # inside the double zero's disk
    1 + 1j + (-5e-4 + 6e-4j),  # inside the single zero's disk
    1j,  # exactly on the double zero
    1 + 1j,  # exactly on the single zero
)
SPACES = {
    "pw": PaleyWiener(1.0),
    "hb": PolynomialHB((-1j, 1 - 1j, -1 - 2j, 0.5 - 0.5j, -0.5 - 1.5j)),
}
MP_BOUND = 1e-12  # PolynomialHB against mpmath, relative to max(1, |reference|)


def reference_sigma_kernel(gs, z, w):
    """K_z(w) with a fresh fit and residual derivatives for this one point."""
    zs, space = gs.zeros, gs.space
    pts, ks = zs.points, zs.confluence
    wg = zs.local_group(w)
    if wg is None:
        w0, mw, jmax, w_excl = w, 0, 0, None
    else:
        w0, mw = wg
        jmax = 0 if w == w0 else DESINGULARIZATION_TERMS
        w_excl = w0
    zg = zs.local_group(z)
    if zg is None:
        z0, mz, qmax, z_excl = z, 0, 0, None
    else:
        z0, mz = zg
        qmax = 0 if z == z0 else DESINGULARIZATION_TERMS
        z_excl = z0
    dz = (z - z0).conjugate()
    dw = w - w0

    # the conj(z)-Taylor sum from order mz on, as weighted evaluators at z0
    z_terms = []
    dpow = 1.0 + 0j
    for q in range(qmax + 1):
        z_terms.append((dpow / math.factorial(mz + q), mz + q, z0))
        dpow *= dz

    def z_sum(at, a):
        # a-th w-derivative at `at` of that sum, term by term
        total = 0j
        for weight, b, p in z_terms:
            total += weight * space.kernel_mixed_partial(a, b, p, at)
        return total

    # one solve of the summed right-hand side, then the Taylor sum in w of
    # its residual through the space's combination hook, then the two products
    beta = [complex(c) for c in gs.solve([z_sum(p, k) for p, k in zip(pts, ks)])]
    residual = space.combination(0, [*z_terms, *((-c, k, p) for c, k, p in zip(beta, ks, pts))])
    total = 0j
    dpow = 1.0 + 0j
    for j in range(jmax + 1):
        a = mw + j
        total += dpow / math.factorial(a) * residual(w0, a)
        dpow *= dw
    w_part = total / zs.product(w, exclude_value=w_excl)
    return w_part / zs.product(z, exclude_value=z_excl).conjugate()


def reference_structure_eval(ssf, which, w):
    """Complete form at w with the incomplete-form derivatives taken afresh.

    F is the reflection of E: the conjugate of the E reference at conj(w).
    """
    if which == "F":
        return reference_structure_eval(ssf, "E", w.conjugate()).conjugate()
    group = ssf.zeros.local_group(w)
    if group is None:
        return ssf.incomplete(w) / ssf.zeros.product(w)
    v, m = group
    delta = w - v
    jmax = 0 if delta == 0 else DESINGULARIZATION_TERMS
    total = 0j
    dpow = 1.0 + 0j
    for j in range(jmax + 1):
        total += dpow / math.factorial(m + j) * ssf.incomplete(v, order=m + j)
        dpow *= delta
    return total / ssf.zeros.product(w, exclude_value=v)


def shuffled(points, seed):
    rng = np.random.default_rng(seed)
    doubled = list(points) * 2
    return [doubled[i] for i in rng.permutation(len(doubled))]


@pytest.fixture
def solve_calls(monkeypatch):
    calls = []
    original = GramSystem.solve

    def counted(self, rhs):
        calls.append(1)
        return original(self, rhs)

    monkeypatch.setattr(GramSystem, "solve", counted)
    return calls


@pytest.mark.parametrize("family", sorted(SPACES))
@pytest.mark.parametrize("z", POINTS)
def test_reused_row_matches_fresh_evaluation(family, z):
    gs = build(SPACES[family], canonicalize(ZEROS))
    row = gs.kernel_row(z)
    mp = _mp_kernel(gs.space.roots, ZEROS) if family == "hb" else None
    for w in shuffled(POINTS, seed=7):
        got = row(w)
        assert got == gs.sigma_kernel(z, w)
        if mp is None:
            assert got == reference_sigma_kernel(gs, z, w)
        else:
            want = mp(z, w)
            assert abs(got - want) <= MP_BOUND * max(1.0, abs(want))
        assert np.isfinite(got)


@pytest.mark.parametrize("family", sorted(SPACES))
def test_reused_structure_function_matches_fresh_one(family):
    gs = build(SPACES[family], canonicalize(ZEROS))
    ssf = derive(gs)
    rng = np.random.default_rng(3)
    inside = [v + 1e-3 * complex(*rng.uniform(-0.5, 0.5, 2)) for v in (1j, 1 + 1j) for _ in range(4)]
    mp = {which: _mp_structure(gs.space.roots, ZEROS, which) for which in "EF"} if family == "hb" else None
    for w in shuffled(inside + [1j, 1 + 1j], seed=5):
        for which in ("E", "F"):
            got = ssf.eval(which, w)
            assert got == derive(gs).eval(which, w)
            if mp is None:
                assert got == reference_structure_eval(ssf, which, w)
            else:
                want = mp[which](w)
                assert abs(got - want) <= MP_BOUND * max(1.0, abs(want))


def test_row_solves_once_off_the_disks(pw1, solve_calls):
    gs = build(pw1, canonicalize(ZEROS))
    rng = np.random.default_rng(11)
    ws = [complex(rng.uniform(-2, 2), rng.uniform(1.2, 2)) for _ in range(200)]
    assert all(gs.zeros.local_group(w) is None for w in ws)
    row = gs.kernel_row(0.3 + 0.7j)
    for w in ws:
        row(w)
    assert len(solve_calls) == 1


def test_row_solves_once_inside_a_disk(pw1, solve_calls):
    gs = build(pw1, canonicalize(ZEROS))
    rng = np.random.default_rng(13)
    ws = [complex(rng.uniform(-2, 2), rng.uniform(1.2, 2)) for _ in range(200)]
    row = gs.kernel_row(1j + (7e-4 + 3e-4j))
    for w in ws:
        row(w)
    assert len(solve_calls) == 1


@pytest.mark.parametrize("family", sorted(SPACES))
def test_derive_solves_once(family, solve_calls):
    # F is the reflection of E, so only E is fitted
    gs = build(SPACES[family], canonicalize(ZEROS))
    ssf = derive(gs)
    for w in (0.3 + 0.7j, 1j, 1j + 1e-4, -1j):
        ssf.eval("E", w)
        ssf.eval("F", w)
    assert len(solve_calls) == 1


def test_derive_iterative_solves_once_per_zero(pw1, solve_calls):
    pts = (1j, 2j, 1 + 1j, -0.5 + 1.5j)
    derive_iterative(pw1, canonicalize(pts))
    assert len(solve_calls) == len(pts)
