"""The plain-Python numerics pinned to a reference: sample stream (the standard
library's `random.Random`), grid, eigenvalues, LU solve, factor (numpy)."""

import builtins
import math
import random

import numpy as np
import pytest

from debranges import LinearDependenceError, PaleyWiener, build, canonicalize
from debranges.cli import _linspace
from debranges.gram import _cholesky, _lu_apply, _lu_solve, hermitian_eigenvalues, spectral_condition
from debranges.kernels import StructureFunction
from debranges.verify import DEFAULT_SIGMAS, DEFAULT_SPACES, _uniforms

SEEDS = [*range(200), 2**32 + 5, 2**64 - 1, 10**30]


class TestPCG64:
    # The checks' sample stream, `verify._uniforms`. The names date from its
    # port of numpy's PCG64 default_rng; the default generator it now draws
    # from is the standard library's `random.Random`, seeded with the exact
    # integer and read only through `random()`.
    @pytest.mark.parametrize("seed", SEEDS)
    def test_stream_matches_default_rng(self, seed):
        ours, theirs = _uniforms(seed), random.Random(seed).random
        for lo, hi in ((-3.0, 3.0), (0.05, 3.0)):
            draws = [ours(lo, hi) for _ in range(200)]
            assert draws == [lo + (hi - lo) * theirs() for _ in range(200)]
            assert all(lo <= x <= hi for x in draws)

    def test_negative_seed_rejected(self):
        # Random seeds a negative integer as its absolute value
        assert random.Random(-1).random() == random.Random(1).random()
        with pytest.raises(ValueError):
            _uniforms(-1)


def _same_doubles(ours, theirs):
    # == plus the sign of zero
    return len(ours) == len(theirs) and all(
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b) for a, b in zip(ours, theirs)
    )


class TestLinspace:
    ENDPOINTS = [
        (-1.0, 1.0), (0.0, 1.0), (-3.0, -0.5), (-2.5, 7.3), (0.1, 0.7), (-0.0, 0.0),
        (0.0, -0.0), (-0.0, -0.0), (-0.0, 2.0), (-2.0, -0.0), (1.5, 1.5), (-4.0, -4.0),
        (0.0, 0.0), (1e-310, 3e-310), (-1.0, 1e300),
    ]

    @pytest.mark.parametrize("num", [1, 2, 3, 51, 101])
    @pytest.mark.parametrize("start, stop", ENDPOINTS)
    def test_matches_numpy(self, start, stop, num):
        theirs = [float(v) for v in np.linspace(start, stop, num)]
        assert _same_doubles(_linspace(start, stop, num), theirs)

    def test_workload_grids(self):
        # the grids of the benchmark workloads and the CLI tests
        for start, stop, num in [(-3.0, 3.0, 101), (0.05, 3.0, 51), (-2.0, 2.0, 7), (-1.0, 1.0, 5)]:
            assert _same_doubles(_linspace(start, stop, num), list(np.linspace(start, stop, num)))


def _suite_grams():
    for _, space in DEFAULT_SPACES:
        for _, pts in DEFAULT_SIGMAS:
            if pts and (space.dimension is None or len(pts) <= space.dimension):
                yield build(space, canonicalize(pts))


def _random_hermitian_pd(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(x)
    eig = 10.0 ** rng.uniform(-4, 2, n)
    a = (q * eig) @ q.conj().T
    return 0.5 * (a + a.conj().T)


class TestHermitianEigenvalues:
    def test_default_suite_grams(self):
        grams = list(_suite_grams())
        assert len(grams) == 27
        for gs in grams:
            want = np.linalg.eigvalsh(np.array(gs.rows))
            got = hermitian_eigenvalues(gs.rows)
            assert got == sorted(got)
            assert np.allclose(got, want, rtol=0, atol=1e-14 * want[-1])
            assert gs.condition_estimate == got[-1] / got[0]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_positive_definite(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            a = _random_hermitian_pd(rng, n)
            want = np.linalg.eigvalsh(a)
            got = hermitian_eigenvalues(a.tolist())
            assert np.allclose(got, want, rtol=0, atol=1e-14 * want[-1])
            assert spectral_condition(got) == pytest.approx(np.linalg.cond(a), rel=1e-9)

    def test_reads_lower_triangle(self):
        rows = _random_hermitian_pd(np.random.default_rng(7), 4).tolist()
        upper_spoiled = [[v if j <= i else 99.0 for j, v in enumerate(row)] for i, row in enumerate(rows)]
        assert hermitian_eigenvalues(upper_spoiled) == hermitian_eigenvalues(rows)

    def test_indefinite(self):
        assert hermitian_eigenvalues([[1.0, 2.0], [2.0, 1.0]]) == pytest.approx([-1.0, 3.0])
        assert spectral_condition([-1.0, 3.0]) == 3.0
        assert spectral_condition([0.0, 2.0]) == math.inf
        assert spectral_condition([]) == 1.0


class TestDeterminant:
    """A bordered determinant over det a as `check_pw_example` takes it: corner - row . `_lu_solve`(a, col)."""

    @pytest.mark.parametrize("n", range(0, 6))
    def test_bordered_matches_numpy(self, n):
        rng = np.random.default_rng(40 + n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        col = rng.normal(size=n) + 1j * rng.normal(size=n)
        row = rng.normal(size=n) + 1j * rng.normal(size=n)
        corner = complex(rng.normal(), rng.normal())
        x = _lu_solve(a.tolist(), col.tolist())
        assert x == pytest.approx(tuple(np.linalg.solve(a, col)), rel=1e-13)
        full = np.block([[a, col[:, None]], [row[None, :], np.array([[corner]])]])
        want = complex(np.linalg.det(full)) / complex(np.linalg.det(a))
        assert corner - sum(r * c for r, c in zip(row.tolist(), x)) == pytest.approx(want, rel=1e-13)

    def test_row_swap(self):
        # a zero leading entry forces a pivot swap
        assert _lu_solve([[0j, 1 + 0j], [1 + 0j, 0j]], [2 + 0j, 3 + 0j]) == (3, 2)
        a = [[0j, 2 + 1j, 1j], [3 + 0j, 1 - 1j, 2 + 0j], [1j, 4 + 0j, -1 + 0j]]
        b = [1 + 0j, 2j, -1 + 1j]
        assert _lu_solve(a, b) == pytest.approx(tuple(np.linalg.solve(np.array(a), np.array(b))), rel=1e-14)

    def test_singular(self):
        # a zero pivot raises; a Gram matrix that passed `build` is positive definite and has none
        with pytest.raises(ZeroDivisionError):
            _lu_solve([[1 + 0j, 2 + 0j], [2 + 0j, 4 + 0j]], [1 + 0j, 1 + 0j])

    def test_gram_route(self, pw1):
        gs = build(pw1, canonicalize([1j, 2j, 1 + 1j]))
        rhs = [1 + 0j, -2j, 0.5 + 1j]
        want = np.linalg.solve(np.array(gs.rows), np.array(rhs))
        assert _lu_apply(gs._lu, rhs) == _lu_solve(gs.rows, rhs)
        assert _lu_apply(gs._lu, rhs) == pytest.approx(tuple(want), rel=1e-12)
        assert gs.solve(rhs) == pytest.approx(tuple(want), rel=1e-12)


class _TableSpace(StructureFunction):
    """Gram entries G[i][j] read from a table; the zeros are 1j, 2j, ... in order."""

    max_derivative_order = 0

    def __init__(self, table):
        self.table = table

    def _mixed(self, a, b, z, w):
        return complex(self.table[round(w.imag) - 1][round(z.imag) - 1])


class TestCholeskyFailure:
    @pytest.mark.parametrize(
        "table, finite",
        [
            ([[1.0, 2.0], [2.0, 1.0]], True),  # eigenvalues -1 and 3
            ([[-1.0, 0.0], [0.0, 2.0]], True),  # a negative leading pivot
            ([[0.0, 0.0], [0.0, 1.0]], False),  # a zero eigenvalue
        ],
    )
    def test_indefinite_raises(self, table, finite):
        with pytest.raises(LinearDependenceError) as err:
            build(_TableSpace(table), canonicalize([1j, 2j]))
        assert "non-positive pivot" in str(err.value)
        assert math.isfinite(err.value.condition_estimate) == finite
        want = np.linalg.cond(np.array(table))
        assert err.value.condition_estimate == pytest.approx(want)

    def test_table_space_factors(self):
        gs = build(_TableSpace([[2.0, 1.0], [1.0, 2.0]]), canonicalize([1j, 2j]))
        assert gs.condition_estimate == pytest.approx(3.0)
        assert gs.solve((3.0, 3.0)) == pytest.approx((1.0, 1.0))
        assert gs.factorization[0][0] == math.sqrt(2.0)
        assert np.array(gs.rows).shape == (2, 2)


def test_cholesky_factor_does_not_depend_on_how_sum_adds_floats(monkeypatch):
    # Python 3.12 made the builtin sum add floats with compensation. On the
    # suite's pw-x0.5 n4 Gram matrix (condition 6.9e5) a compensated sum of
    # a pivot's squares moves the factor, and with it every report of that
    # system, so the factor adds them itself, left to right
    rows = build(PaleyWiener(0.5), canonicalize([1j, 2j, 1 + 1j, -1 + 2j])).rows
    want = _cholesky(rows)
    plain_sum = builtins.sum

    def compensated(iterable, /, start=0):
        items = list(iterable)
        if items and all(type(v) is float for v in items):
            return math.fsum([start, *items])
        return plain_sum(items, start)

    monkeypatch.setattr(builtins, "sum", compensated)
    assert _cholesky(rows) == want
