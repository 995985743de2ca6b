"""Structure functions: derivatives, kernel values, mixed partials."""

import cmath
import math
import struct

import numpy as np
import pytest

import mpmath

from debranges import (
    DomainError,
    PaleyWiener,
    PolynomialHB,
    RangeError,
    StructureFunction,
    UnsupportedOrderError,
)
from debranges.kernels import _series_cutoff

from conftest import (
    KERNEL_PROTECTION_RADIUS,
    PARTIAL_PROTECTION_RADIUS,
    fd_mixed_partial,
    generic_mixed,
    generic_mixed_far,
    generic_mixed_near,
    generic_scale,
    pw_kernel_quadrature,
    pw_moment_quadrature,
)


def _hb_kernel_mp(sf: PolynomialHB, s, w):
    """Direct kernel formula at s = conj(z), analytic in s and w, in mpmath numbers."""

    def poly_e(u):
        acc = mpmath.mpc(1)
        for r in sf.roots:
            acc *= u - mpmath.mpc(r)
        return acc

    def poly_estar(u):
        return poly_e(u.conjugate()).conjugate()

    num = poly_estar(s) * poly_e(w) - poly_e(s) * poly_estar(w)
    return num / (mpmath.mpc(1j) * (s - w))


def _hb_kernel_highprec(sf: PolynomialHB, z: complex, w: complex) -> complex:
    """Direct kernel formula in 50-digit arithmetic; cancellation stays harmless."""
    with mpmath.workdps(50):
        return complex(_hb_kernel_mp(sf, mpmath.mpc(z).conjugate(), mpmath.mpc(w)))


class TestEvalE:
    def test_pw_at_zero(self, pw1):
        assert pw1.eval_E(0) == 1

    def test_pw_at_i(self, pw1):
        # exp(-1j * 1 * 1j) = e
        assert pw1.eval_E(1j) == pytest.approx(math.e)

    def test_pw_derivative_factor(self, pw1):
        w = 0.3 - 0.7j
        assert pw1.eval_E(w, 3) == pytest.approx((-1j) ** 3 * cmath.exp(-1j * w))

    def test_hb_first_derivative(self, hb1):
        assert hb1.eval_E(0, 1) == 1

    def test_hb_matches_product_form(self, hb3):
        w = 0.4 + 0.9j
        expected = 1.0
        for r in hb3.roots:
            expected *= w - r
        assert hb3.eval_E(w) == pytest.approx(expected)

    def test_hb_derivative_vs_finite_difference(self, hb3):
        w = -0.2 + 0.3j
        h = 1e-5
        fd = (hb3.eval_E(w + h) - hb3.eval_E(w - h)) / (2 * h)
        assert hb3.eval_E(w, 1) == pytest.approx(fd, rel=1e-8)

    def test_order_budget(self):
        sf = PaleyWiener(1.0, max_derivative_order=2)
        sf.eval_E(0, 2)
        with pytest.raises(UnsupportedOrderError):
            sf.eval_E(0, 3)

    def test_negative_order_rejected(self, pw1):
        with pytest.raises(ValueError):
            pw1.eval_E(0, -1)


class TestEvalEStar:
    def test_pw_at_zero(self, pw1):
        assert pw1.eval_E_star(0) == 1

    def test_pw_at_i(self, pw1):
        assert pw1.eval_E_star(1j) == pytest.approx(1 / math.e)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("family", ["pw", "hb"])
    def test_reflection_relation(self, order, family, pw1, hb3):
        # conj-of-eval oracle: Estar^(m)(w) = conj(E^(m)(conj(w)))
        sf = pw1 if family == "pw" else hb3
        w = 0.8 - 0.4j
        oracle = sf.eval_E(w.conjugate(), order).conjugate()
        assert sf.eval_E_star(w, order) == pytest.approx(oracle, rel=1e-13)

    def test_hb_single_root_at_i(self, hb1):
        # conj(E(conj(i))) = conj(E(-i)) = conj(0) = 0
        assert hb1.eval_E_star(1j) == 0


class TestKernel:
    def test_pw_diagonal_limit(self, pw1):
        assert pw1.kernel(0, 0) == pytest.approx(2.0)

    def test_pw_zero_of_sinc(self, pw1):
        assert abs(pw1.kernel(0, math.pi)) < 1e-15

    def test_pw_imaginary_diagonal(self, pw1):
        assert pw1.kernel(1j, 1j) == pytest.approx(math.sinh(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_pw_matches_quadrature(self, pw1, pw2, seed):
        rng = np.random.default_rng(seed)
        for sf in (pw1, pw2):
            for _ in range(10):
                z = complex(*rng.uniform(-3, 3, 2))
                w = complex(*rng.uniform(-3, 3, 2))
                got = sf.kernel(z, w)
                want = pw_kernel_quadrature(sf.x, z, w)
                assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    @pytest.mark.parametrize("family", ["pw", "hb"])
    def test_hermitian_symmetry(self, family, pw1, hb3):
        sf = pw1 if family == "pw" else hb3
        rng = np.random.default_rng(7)
        for _ in range(25):
            z = complex(*rng.uniform(-3, 3, 2))
            w = complex(*rng.uniform(-3, 3, 2))
            assert sf.kernel(z, w) == pytest.approx(sf.kernel(w, z).conjugate(), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("family", ["pw", "hb"])
    def test_diagonal_positivity(self, family, pw1, hb3):
        sf = pw1 if family == "pw" else hb3
        rng = np.random.default_rng(11)
        for _ in range(25):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3) * rng.choice([-1, 1]))
            val = sf.kernel(z, z)
            assert val.real > 0
            assert abs(val.imag) < 1e-12 * val.real

    @pytest.mark.parametrize("family", ["pw", "hb"])
    @pytest.mark.parametrize("delta", [1e-4, 1e-6])
    def test_removable_singularity_continuity(self, family, delta, pw1, hb3):
        # the protected branch must agree with the true value approaching
        # the diagonal (the value itself still moves at O(delta), so the
        # comparison is against an independent oracle at the same delta)
        sf = pw1 if family == "pw" else hb3
        z = 0.6 + 0.8j
        w = z.conjugate() + delta
        got = sf.kernel(z, w)
        if family == "pw":
            want = pw_kernel_quadrature(sf.x, z, w)
        else:
            want = _hb_kernel_highprec(sf, z, w)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        # and directly on the diagonal the limit value is returned
        at_zero = sf.kernel(z, z.conjugate())
        assert abs(got - at_zero) <= 1e2 * delta * max(1.0, abs(at_zero))


class TestKernelMixedPartial:
    def test_zero_order_is_kernel(self, pw1):
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = complex(*rng.uniform(-2, 2, 2))
            w = complex(*rng.uniform(-2, 2, 2))
            assert pw1.kernel_mixed_partial(0, 0, z, w) == pw1.kernel(z, w)

    def test_pw_first_moments(self, pw1):
        assert pw1.kernel_mixed_partial(1, 1, 0, 0) == pytest.approx(2.0 / 3.0)
        assert abs(pw1.kernel_mixed_partial(1, 0, 0, 0)) < 1e-15

    @pytest.mark.parametrize("ab", [(0, 1), (1, 1), (2, 2)])
    def test_pw_far_field_closed_form(self, pw2, ab):
        # |u| * x beyond the series cutoff exercises the antiderivative route
        a, b = ab
        sign = (1j**a) * ((-1j) ** b)
        for z, w in [(-4.8 - 4j, 4.8 + 4j), (-6 + 0.5j, 6 - 0.5j), (5 + 1j, -5 + 2j)]:
            assert abs((w - complex(z).conjugate()) * pw2.x) > _series_cutoff(a + b)
            want = sign * pw_moment_quadrature(pw2.x, a + b, z, w)
            got = pw2.kernel_mixed_partial(a, b, z, w)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("ab", [(0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)])
    def test_pw_matches_moment_quadrature(self, pw2, ab):
        a, b = ab
        rng = np.random.default_rng(a * 7 + b)
        sign = (1j**a) * ((-1j) ** b)
        for _ in range(8):
            z = complex(*rng.uniform(-2.5, 2.5, 2))
            w = complex(*rng.uniform(-2.5, 2.5, 2))
            want = sign * pw_moment_quadrature(pw2.x, a + b, z, w)
            got = pw2.kernel_mixed_partial(a, b, z, w)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("family", ["pw", "hb"])
    @pytest.mark.parametrize("a", [0, 1, 2])
    @pytest.mark.parametrize("b", [0, 1, 2])
    def test_against_finite_differences(self, family, a, b, pw1, hb3):
        sf = pw1 if family == "pw" else hb3
        for z, w in [(0.5 + 0.5j, -0.3 + 0.2j), (1j, 2j), (-1 + 0.4j, 0.9 - 0.6j)]:
            got = sf.kernel_mixed_partial(a, b, z, w)
            want = fd_mixed_partial(sf.kernel, a, b, z, w)
            assert abs(got - want) <= 1e-4 * max(1.0, abs(want))

    def test_pw_generic_route_agrees_with_closed_form(self, pw1):
        # the shared divided-difference route must reproduce the moment form
        rng = np.random.default_rng(19)
        for a in range(3):
            for b in range(3):
                for _ in range(5):
                    z = complex(*rng.uniform(-2, 2, 2))
                    w = complex(*rng.uniform(-2, 2, 2))
                    closed = pw1.kernel_mixed_partial(a, b, z, w)
                    generic = generic_mixed(pw1, a, b, z, w)
                    assert abs(closed - generic) <= 1e-10 * max(1.0, abs(closed))

    def test_near_diagonal_seam_consistency(self, pw1, hb3):
        # at the protection seam both generic branches evaluate the same
        # point; they must agree to well below the checked tolerances
        for sf in (pw1, hb3):
            z = 0.4 + 0.3j
            s = z.conjugate()
            for a, b, seam in ((0, 0, KERNEL_PROTECTION_RADIUS), (1, 1, PARTIAL_PROTECTION_RADIUS)):
                w = s + seam / generic_scale(sf)
                near = generic_mixed_near(sf, a, b, s, w)
                far = generic_mixed_far(sf, a, b, s, w)
                assert abs(near - far) <= 1e-9 * max(1.0, abs(far))

    @pytest.mark.parametrize("ab", [(1, 1), (2, 2), (3, 1), (1, 3), (0, 2)])
    @pytest.mark.parametrize("dist", [1e-6, 0.0499, 0.0501, 0.2, 2.0])
    def test_hb_partials_match_highprec(self, hb3, ab, dist):
        # both sides of the old 5e-2 near/far seam, against mpmath.diff of
        # the 50-digit direct formula
        a, b = ab
        z = 0.4 + 0.3j
        w = z.conjugate() + dist * (0.6 + 0.8j)
        with mpmath.workdps(50):
            point = (mpmath.mpc(z).conjugate(), mpmath.mpc(w))
            want = complex(mpmath.diff(lambda s, u: _hb_kernel_mp(hb3, s, u), point, (b, a)))
        got = hb3.kernel_mixed_partial(a, b, z, w)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_generic_budget(self):
        sf = PolynomialHB((-1j,), max_derivative_order=3)
        sf.kernel_mixed_partial(2, 1, 1j, 2j)
        with pytest.raises(UnsupportedOrderError):
            sf.kernel_mixed_partial(2, 2, 1j, 2j)

    def test_pw_route_unrestricted(self):
        sf = PaleyWiener(1.0, max_derivative_order=1)
        sf.kernel_mixed_partial(3, 3, 1j, 2j)  # moment route ignores the budget


class TestHbMargin:
    def test_pw_value(self, pw1):
        assert pw1.hb_margin(1j) == pytest.approx(math.e**2 - math.e**-2)

    def test_hb_value(self, hb1):
        assert hb1.hb_margin(1j) == pytest.approx(4.0)

    def test_small_height_positive(self, pw1):
        assert pw1.hb_margin(0.001j) > 0

    @pytest.mark.parametrize("bad", [0.5, -1j, 1 - 2j])
    def test_domain(self, pw1, bad):
        with pytest.raises(DomainError):
            pw1.hb_margin(bad)

    @pytest.mark.parametrize("family", ["pw", "hb"])
    def test_positive_on_samples(self, family, pw2, hb3):
        sf = pw2 if family == "pw" else hb3
        rng = np.random.default_rng(23)
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 3))
            assert sf.hb_margin(z) > 0


class _ConstantSpace(StructureFunction):
    """Every kernel partial is one constant, whatever it is."""

    max_derivative_order = 0

    def __init__(self, value):
        self.value = value

    def _mixed(self, a, b, z, w):
        return self.value


class TestOverflow:
    """Values past the double range end in RangeError, not a bare OverflowError."""

    def test_kernel_sinc_overflow(self):
        # sin(v) at v = 710.5j overflows
        with pytest.raises(RangeError):
            PaleyWiener(1.0).kernel(0.5j, 710j)

    def test_moment_overflow(self):
        # the closed moment's exp(1j*u*x) at u = 800.5j overflows
        with pytest.raises(RangeError):
            PaleyWiener(1.0).kernel_mixed_partial(3, 2, 0.5j, 800j)

    def test_moment_not_finite(self):
        # the closed moment's exp and primitive are finite, their product is not
        with pytest.raises(RangeError):
            PaleyWiener(2.0).kernel_mixed_partial(10, 0, 0j, 354.4j)

    def test_structure_function_overflow(self):
        pw = PaleyWiener(1.0)
        with pytest.raises(RangeError):
            pw.eval_E(800j)
        with pytest.raises(RangeError):
            pw.eval_E_star(-800j)
        with pytest.raises(RangeError):
            PaleyWiener(1e300).eval_E(1j, 3)  # x**3

    # PolynomialHB's Horner sums do not raise past the double range; they
    # reach inf or nan, which every entry point reports as RangeError
    def test_hb_kernel_overflow(self):
        hb = PolynomialHB((-1j, 1 - 1j))
        with pytest.raises(RangeError):
            hb.kernel(1e200j, 1e200j)
        with pytest.raises(RangeError):
            PolynomialHB((-1j, 1 - 1j, -1 - 2j)).kernel_mixed_partial(1, 0, 1e200j, 1e200j)

    def test_hb_structure_function_overflow(self):
        hb = PolynomialHB((-1j, 1 - 1j))
        with pytest.raises(RangeError):
            hb.eval_E(1e200)
        with pytest.raises(RangeError):
            hb.eval_E_star(1e200)

    def test_hb_span_residual_overflow(self):
        # no E term; the degree-1 span c * Z_j(w) at w = 1e300 is not finite
        hb = PolynomialHB((-1j, 1 - 1j))
        residual = hb.combination(0, ((-1e10, 0, 1j),))
        assert cmath.isfinite(residual(1.0))
        with pytest.raises(RangeError):
            residual(1e300)

    def test_pw_derivative_overflow_without_raising(self):
        # x**2 * exp(100) is past the double range, yet no step raises
        pw = PaleyWiener(1e150)
        with pytest.raises(RangeError):
            pw.eval_E(1e-148j, 2)
        with pytest.raises(RangeError):
            pw.eval_E_star(-1e-148j, 2)

    def test_pw_combination_overflow(self):
        # 1e308 times the sinc kernel's 2x at v = 0 is inf
        with pytest.raises(RangeError):
            PaleyWiener(1.0).combination(0, ((1e308, 0, 0j),))(0j)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_raw_hook_value_is_checked_by_the_public_operations(self, bad):
        # a family hook returns plain math; the public operations own the range rule
        space = _ConstantSpace(complex(bad, 0))
        with pytest.raises(RangeError):
            space.kernel(1j, 2j)
        with pytest.raises(RangeError):
            space.kernel_mixed_partial(0, 0, 1j, 2j)
        with pytest.raises(RangeError):
            space.combination(0, ((1.0, 0, 1j),))(2j)


class TestPaleyWienerCombination:
    """The PaleyWiener override sums the default's values in the default's order: the same bits."""

    @staticmethod
    def _bits(value: complex) -> bytes:
        return struct.pack("<dd", value.real, value.imag)

    @pytest.mark.parametrize("x", [0.5, 1.0, 3.7])
    @pytest.mark.parametrize("e", [0, 1, 0.3 - 0.2j])
    def test_bitwise_equal_to_the_default(self, x, e):
        rng = np.random.default_rng(14)
        space = PaleyWiener(x)
        points = [complex(*rng.uniform(-2, 2, 2)) for _ in range(3)] + [1j]
        terms = [(complex(*rng.normal(size=2)), k, p) for p in points for k in range(4)]
        fast = space.combination(e, terms)
        # the checked closure over the base class's plain math, one partial per term
        default = space._checked(e, terms, StructureFunction._at_order(space, e, terms))
        # both moment routes (|u x| up to about 40), and w = conj(point), where the sinc's v is 0
        ws = [complex(rng.uniform(-8, 8), rng.uniform(-3, 3)) for _ in range(40)]
        ws += [p.conjugate() for p in points]
        for a in range(4):
            for w in ws:
                assert self._bits(fast(w, a)) == self._bits(default(w, a)), (a, w)
        assert all(self._bits(fast(w)) == self._bits(default(w)) for w in ws)

    @pytest.mark.parametrize(
        "e, terms, w, a, error",
        [
            (0, ((1.0, -1, 1j),), 1j, 0, ValueError),  # a negative term order
            (1, ((1.0, 0, 1j),), 1j, 65, UnsupportedOrderError),  # E past the budget
            (0, ((1.0, 0, 0.5j), (1.0, 2, 0.5j)), 800j, 0, RangeError),  # sin(800.5j) overflows
        ],
    )
    def test_same_errors_as_the_default(self, e, terms, w, a, error):
        space = PaleyWiener(1.0)
        messages = []
        default = space._checked(e, terms, StructureFunction._at_order(space, e, terms))
        for combination in (space.combination(e, terms), default):
            with pytest.raises(error) as info:
                combination(w, a)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestConstruction:
    def test_pw_rejects_nonpositive_type(self):
        with pytest.raises(ValueError):
            PaleyWiener(0.0)
        with pytest.raises(ValueError):
            PaleyWiener(-2.0)

    def test_hb_rejects_upper_half_plane_roots(self):
        with pytest.raises(ValueError):
            PolynomialHB((1j,))
        with pytest.raises(ValueError):
            PolynomialHB((-1j, 1.0))  # real root sits on the boundary

    def test_hb_rejects_empty(self):
        with pytest.raises(ValueError):
            PolynomialHB(())

    def test_dimension(self, pw1, hb3):
        assert pw1.dimension is None
        assert hb3.dimension == 3
