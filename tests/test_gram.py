"""Gram systems: assembly, projection solve, derived kernel routes."""

import math
import warnings

import numpy as np
import pytest

from debranges import (
    DomainError,
    LinearDependenceError,
    PolynomialHB,
    RangeError,
    build,
    canonicalize,
)
from debranges.structure import extrapolate_to_zero

from conftest import pw_moment_quadrature


def herm_cond_entries(gs):
    g = gs.matrix
    return np.max(np.abs(g - g.conj().T))


class TestBuild:
    def test_single_zero(self, pw1):
        gs = build(pw1, canonicalize([1j]))
        assert gs.matrix[0, 0] == pytest.approx(math.sinh(2))
        assert gs.det == pytest.approx(math.sinh(2))
        assert gs.condition_estimate == pytest.approx(1.0)

    def test_empty_sequence(self, pw1):
        gs = build(pw1, canonicalize([]))
        assert gs.n == 0
        assert gs.det == 1.0
        assert gs.condition_estimate == 1.0

    def test_non_finite_entries_raise_range_error(self):
        # the finiteness check precedes all arithmetic on the matrix, so the
        # error arrives without a numpy "invalid value" warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RangeError):
                build(PolynomialHB((-1j, 1 - 1j)), canonicalize([1e200 + 1j]))
        assert [str(w.message) for w in caught] == []

    def test_confluent_entries_match_antiderivative_oracle(self, pw1):
        # moments of t^p e^{2t} over [-1, 1] via explicit antiderivatives
        gs = build(pw1, canonicalize([1j, 1j]))
        g00 = math.sinh(2)
        g11 = (math.exp(2) - 5 * math.exp(-2)) / 4
        g01 = 1j * (3 * math.exp(-2) + math.exp(2)) / 4
        assert gs.matrix[0, 0] == pytest.approx(g00)
        assert gs.matrix[1, 1] == pytest.approx(g11)
        assert gs.matrix[0, 1] == pytest.approx(g01)
        assert gs.matrix[1, 0] == pytest.approx(g01.conjugate())

    def test_confluent_entries_match_quadrature(self, pw1):
        gs = build(pw1, canonicalize([1j, 1j]))
        for i, ki in enumerate((0, 1)):
            for j, kj in enumerate((0, 1)):
                want = (1j**ki) * ((-1j) ** kj) * pw_moment_quadrature(1.0, ki + kj, 1j, 1j)
                assert gs.matrix[i, j] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "pts",
        [[1j], [1j, 2j], [1j, 1j], [1j, 1j, 2j], [1j, 1 + 1j, -1 + 2j]],
    )
    def test_hermitian_positive_definite(self, pw2, pts):
        gs = build(pw2, canonicalize(pts))
        assert herm_cond_entries(gs) == 0.0  # symmetrized on assembly
        eig = np.linalg.eigvalsh(gs.matrix)
        assert eig[0] > 0
        assert gs.det > 0

    def test_polynomial_overdetermined_raises(self, hb1):
        with pytest.raises(LinearDependenceError):
            build(hb1, canonicalize([1j, 2j]))

    def test_near_coincident_zeros_raise(self, pw1):
        with pytest.raises(LinearDependenceError) as excinfo:
            build(pw1, canonicalize([1j, 1j + 1e-9]))
        assert excinfo.value.condition_estimate > 1e12 or math.isinf(
            excinfo.value.condition_estimate
        )

    def test_budget_exceeded_generic_family(self):
        sf = PolynomialHB((-1j, 1 - 1j, -1 - 2j), max_derivative_order=1)
        from debranges import UnsupportedOrderError

        with pytest.raises(UnsupportedOrderError):
            build(sf, canonicalize([1j, 1j, 1j]))


class TestSolveBeta:
    def test_projecting_basis_vector(self, pw1):
        gs = build(pw1, canonicalize([1j]))
        beta = gs.solve_beta(1j)
        assert beta[0] == pytest.approx(1.0)

    def test_single_zero_closed_form(self, pw1):
        gs = build(pw1, canonicalize([1j]))
        beta = gs.solve_beta(2j)
        assert beta[0] == pytest.approx((2 * math.sinh(3) / 3) / math.sinh(2))

    def test_empty_sequence(self, pw1):
        gs = build(pw1, canonicalize([]))
        assert gs.solve_beta(1 + 1j).shape == (0,)

    @pytest.mark.parametrize("pts", [[1j, 2j], [1j, 1j], [1j, 1j, 2j]])
    def test_residual_orthogonality(self, pw1, pts):
        # the projection residual must vanish on the sequence, re-deriving
        # each bracket from fresh mixed partials
        zs = canonicalize(pts)
        gs = build(pw1, zs)
        z = 0.8 + 1.7j
        beta = gs.solve_beta(z)
        rhs = [
            pw1.kernel_mixed_partial(zs.confluence[i], 0, z, zs.points[i])
            for i in range(len(zs))
        ]
        scale = max(abs(v) for v in rhs)
        for i in range(len(zs)):
            resid = rhs[i]
            for j in range(len(zs)):
                resid -= beta[j] * pw1.kernel_mixed_partial(
                    zs.confluence[i], zs.confluence[j], zs.points[j], zs.points[i]
                )
            assert abs(resid) <= 1e-9 * scale


class TestSigmaKernel:
    def test_empty_sequence_reduces_to_base(self, pw1):
        gs = build(pw1, canonicalize([]))
        for z, w in [(0.3 + 0.4j, -1 + 2j), (1j, 1j)]:
            assert gs.sigma_kernel(z, w) == pw1.kernel(z, w)
            assert gs.sigma_kernel_det(z, w) == pytest.approx(pw1.kernel(z, w))

    def test_diagonal_value_single_zero(self, pw1):
        # hand-assembled bordered 2x2 determinant over the sinc values
        gs = build(pw1, canonicalize([1j]))
        want = math.sinh(4) / 2 - (2 * math.sinh(3) / 3) ** 2 / math.sinh(2)
        got = gs.sigma_kernel(2j, 2j)
        assert got.real == pytest.approx(want)
        assert abs(got.imag) < 1e-14

    def test_limit_at_zero_matches_extrapolated_det_route(self, pw1):
        gs = build(pw1, canonicalize([1j]))
        w = 0.7 - 0.4j
        direct = gs.sigma_kernel(1j, w)
        deltas = [1e-3 * (1 + 1j), 5e-4 * (1 + 1j), 2.5e-4 * (1 + 1j)]
        vals = [gs.sigma_kernel_det(1j + d, w) for d in deltas]
        extr = extrapolate_to_zero([abs(d) for d in deltas], vals)
        assert abs(direct - extr) <= 1e-6 * max(1.0, abs(direct))

    @pytest.mark.parametrize("family", ["pw", "hb"])
    @pytest.mark.parametrize(
        "pts",
        [
            [1j],
            [1j, 2j],
            [1j, 1j],
            [1j, 2j, 1 + 1j, -1 + 2j, 0.5 + 0.5j, -2 + 1j],
            [1j, 1j, 2j, 2j, 1 + 1j, -1 + 2j],
        ],
    )
    def test_route_equivalence(self, family, pts, pw1, pw2, hb3):
        if family == "hb" and len(pts) > 2:
            pytest.skip("beyond the dimension of the polynomial family")
        spaces = {"pw": (pw1, pw2), "hb": (hb3,)}[family]
        rng = np.random.default_rng(5)
        for sf in spaces:
            gs = build(sf, canonicalize(pts))
            count = 0
            while count < 100:
                z = complex(*rng.uniform(-3, 3, 2))
                w = complex(*rng.uniform(-3, 3, 2))
                if any(abs(p - z) < 1e-2 or abs(p - w) < 1e-2 for p in gs.zeros.points):
                    continue
                count += 1
                a = gs.sigma_kernel(z, w)
                b = gs.sigma_kernel_det(z, w)
                tol = 1e-9 * max(1.0, gs.condition_estimate / 1e2)
                assert abs(a - b) <= tol * max(1.0, abs(a))

    @pytest.mark.parametrize("pts", [[1j, 2j], [1j, 1j], [1j, 1j, 2j]])
    def test_hermitian_symmetry(self, pw1, pts):
        gs = build(pw1, canonicalize(pts))
        rng = np.random.default_rng(13)
        for _ in range(30):
            z = complex(*rng.uniform(-3, 3, 2))
            w = complex(*rng.uniform(-3, 3, 2))
            a = gs.sigma_kernel(z, w)
            b = gs.sigma_kernel(w, z).conjugate()
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_hermitian_symmetry_on_sequence(self, pw1):
        gs = build(pw1, canonicalize([1j, 1j, 2j]))
        a = gs.sigma_kernel(1j, 0.5 - 0.2j)
        b = gs.sigma_kernel(0.5 - 0.2j, 1j).conjugate()
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    @pytest.mark.parametrize("pts", [[1j, 2j], [1j, 1j]])
    def test_diagonal_positivity(self, pw1, pts):
        gs = build(pw1, canonicalize(pts))
        rng = np.random.default_rng(17)
        for _ in range(25):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3) * rng.choice([-1, 1]))
            if any(abs(p - z) < 1e-2 for p in gs.zeros.points):
                continue
            val = gs.sigma_kernel(z, z)
            assert val.real > 0
            assert abs(val.imag) <= 1e-10 * val.real

    def test_permutation_invariance(self, pw1):
        a = build(pw1, canonicalize([1j, 2j, 1 + 1j]))
        b = build(pw1, canonicalize([1 + 1j, 1j, 2j]))
        rng = np.random.default_rng(29)
        for _ in range(20):
            z = complex(*rng.uniform(-3, 3, 2))
            w = complex(*rng.uniform(-3, 3, 2))
            va = a.sigma_kernel(z, w)
            vb = b.sigma_kernel(z, w)
            assert abs(va - vb) <= 1e-10 * max(1.0, abs(va))

    def test_values_at_sequence_points(self, pw1):
        # evaluator values on the zero set stay finite and consistent with
        # nearby values
        gs = build(pw1, canonicalize([1j, 1j]))
        z = 0.4 + 0.6j
        exact = gs.sigma_kernel(z, 1j)
        for d in (1e-5, 1e-6):
            near = gs.sigma_kernel(z, 1j + d)
            assert abs(near - exact) <= 1e-3 * max(1.0, abs(exact))

    def test_split_zero_kernels_converge(self, pw1):
        # distinct-zero systems at z - k*eps approach the confluent one
        zs = canonicalize([1j, 1j])
        gs = build(pw1, zs)
        z, w = 0.5 + 0.5j, 1 - 0.3j
        steps = [1e-2, 5e-3, 2.5e-3]
        vals = []
        for eps in steps:
            split = canonicalize([1j, 1j - eps])
            vals.append(build(pw1, split).incomplete_kernel(z, w))
        got = extrapolate_to_zero(steps, vals)
        want = gs.incomplete_kernel(z, w)
        assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


class TestSigmaKernelDet:
    def test_domain_error_on_sequence(self, pw1):
        gs = build(pw1, canonicalize([1j, 2j]))
        with pytest.raises(DomainError):
            gs.sigma_kernel_det(1j, 0.5)
        with pytest.raises(DomainError):
            gs.sigma_kernel_det(0.5, 2j)

    def test_agrees_with_solve_route_single_zero(self, pw1):
        gs = build(pw1, canonicalize([1j]))
        a = gs.sigma_kernel(2j, 3j)
        b = gs.sigma_kernel_det(2j, 3j)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
