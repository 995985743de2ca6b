"""Gram systems: assembly, projection solve, derived kernel routes."""

import math
import struct
import warnings
from collections import Counter

import numpy as np
import pytest

from debranges import (
    LinearDependenceError,
    PaleyWiener,
    PolynomialHB,
    RangeError,
    StructureFunction,
    build,
    canonicalize,
    derive,
    derive_iterative,
    gram,
    kernels,
)
from debranges.gram import Remainder, _divide
from conftest import pw_moment_quadrature
from split_zero_oracle import extrapolate_to_zero


def herm_cond_entries(gs):
    g = np.array(gs.rows)
    return np.max(np.abs(g - g.conj().T))


class TestBuild:
    def test_single_zero(self, pw1):
        gs = build(pw1, canonicalize([1j]))
        assert np.array(gs.rows)[0, 0] == pytest.approx(math.sinh(2))
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
        assert np.array(gs.rows)[0, 0] == pytest.approx(g00)
        assert np.array(gs.rows)[1, 1] == pytest.approx(g11)
        assert np.array(gs.rows)[0, 1] == pytest.approx(g01)
        assert np.array(gs.rows)[1, 0] == pytest.approx(g01.conjugate())

    def test_confluent_entries_match_quadrature(self, pw1):
        gs = build(pw1, canonicalize([1j, 1j]))
        for i, ki in enumerate((0, 1)):
            for j, kj in enumerate((0, 1)):
                want = (1j**ki) * ((-1j) ** kj) * pw_moment_quadrature(1.0, ki + kj, 1j, 1j)
                assert np.array(gs.rows)[i, j] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "pts",
        [[1j], [1j, 2j], [1j, 1j], [1j, 1j, 2j], [1j, 1 + 1j, -1 + 2j]],
    )
    def test_hermitian_positive_definite(self, pw2, pts):
        gs = build(pw2, canonicalize(pts))
        assert herm_cond_entries(gs) == 0.0  # symmetrized on assembly
        eig = np.linalg.eigvalsh(np.array(gs.rows))
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
        assert gs.solve_beta(1 + 1j) == ()

    @pytest.mark.parametrize("rhs", [[1, 2], [1, 2, 3, 4]])
    def test_solve_rejects_a_right_hand_side_of_another_length(self, pw1, rhs):
        gs = build(pw1, canonicalize([1j, 2j, 1 + 1j]))
        with pytest.raises(ValueError, match=f"length {len(rhs)} for a system of 3 zeros"):
            gs.solve(rhs)

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


@pytest.mark.parametrize("case", ["row off the disks", "row in a disk", "E"])
def test_fit_is_the_solve_of_the_per_term_sum_bit_for_bit(case):
    # fit reads the family's plain math (PaleyWiener._at_order): its
    # right-hand side must be the default's per-term sum to the bit, at
    # the order-0 zeros (the prepared sum) and at the double zero's order 1
    space = PaleyWiener(1.0)
    gs = build(space, canonicalize([1j, 1j, 2j, 1 + 1j]))
    e, terms = {
        "row off the disks": (0, ((1.0, 0, 0.3 + 0.4j),)),
        "row in a disk": (0, gram._taylor_terms(2, (4e-4 - 2e-4j).conjugate(), 1j)),
        "E": (1, ()),
    }[case]
    zs = gs.zeros
    rhs = []
    for p, k in zip(zs.points, zs.confluence):
        acc = e * space._eval_E_raw(p, k) if e else 0j
        for weight, order, point in terms:
            acc += weight * space._mixed(k, order, point, p)
        rhs.append(acc)

    def bits(values):
        return [struct.pack("<dd", v.real, v.imag) for v in values]

    assert bits(gs.fit(e, terms)) == bits(gs.solve(rhs))


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
    def test_defined_on_sequence(self, pw1):
        # the LU fit takes the kernel row's own route, Taylor disks included,
        # so z or w on a zero meets the solve route
        gs = build(pw1, canonicalize([1j, 2j]))
        for z, w in ((1j, 0.5), (0.5, 2j), (1j, 2j), (2j, 2j)):
            want = gs.sigma_kernel(z, w)
            assert abs(gs.sigma_kernel_det(z, w) - want) <= 1e-13 * max(1.0, abs(want)), (z, w)

    def test_agrees_with_solve_route_single_zero(self, pw1):
        gs = build(pw1, canonicalize([1j]))
        a = gs.sigma_kernel(2j, 3j)
        b = gs.sigma_kernel_det(2j, 3j)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_hb_row_holds_on_the_zeros(self, hb3):
        # on HB the determinant row's residual is divided exactly, so it is
        # defined on the zeros in w, and in z through the conj(z)-Taylor terms
        # of the zero's disk; there it meets the solve route
        gs = build(hb3, canonicalize([1j, 1j]))
        for z in (0.7 + 1.3j, 1j, 1j + 1e-9):
            det_row, row = gs.det_row(z), gs.kernel_row(z)
            for w in (1j, 1j + 1e-9, 0.3 + 0.7j):
                assert abs(det_row(w) - row(w)) <= 1e-13 * max(1.0, abs(row(w))), (z, w)


class TestDerivedRange:
    """Derived values past the double range raise RangeError, never nan or a bare OverflowError."""

    Z = 0.5 + 0.5j
    FACES = {
        "kernel_row": lambda gs, z, w: gs.kernel_row(z)(w),
        "sigma_kernel": lambda gs, z, w: gs.sigma_kernel(z, w),
        "E": lambda gs, z, w: derive(gs).eval("E", w),
        "F": lambda gs, z, w: derive(gs).eval("F", w),
        "sigma_kernel_det": lambda gs, z, w: gs.sigma_kernel_det(z, w),
    }

    @pytest.fixture
    def gs(self, pw1):
        return build(pw1, canonicalize([1j, 1j, 2j, 1 + 1j]))

    # at 1e155 the zero products overflow and the quotients are nan; at
    # 1.5e308+1.5e308j the distance to a zero is past the double range
    @pytest.mark.parametrize("w", [1e155, 1.5e308 + 1.5e308j])
    @pytest.mark.parametrize("face", FACES)
    def test_far_w(self, gs, face, w):
        with pytest.raises(RangeError):
            self.FACES[face](gs, self.Z, w)

    @pytest.mark.parametrize(
        "face, wording",
        [
            ("kernel_row", "K_z(w) at w = 1e+155 "),
            ("sigma_kernel", "K_z(w) at w = 1e+155 "),
            ("E", "E_sigma(w) at w = 1e+155 "),
            # F is the conjugate of E_sigma at conj w, and names that point
            ("F", "E_sigma(w) at w = (1e+155-0j) "),
        ],
    )
    def test_far_w_wording(self, gs, face, wording):
        with pytest.raises(RangeError) as err:
            self.FACES[face](gs, self.Z, 1e155)
        assert str(err.value).startswith(wording)

    # with no zeros each derived value is its plain sum, and sin or exp of
    # about 800j overflows inside it: the error names the derived value
    @pytest.mark.parametrize(
        "face, wording",
        [
            ("kernel_row", "K_z(w) at w = 800j "),
            ("sigma_kernel", "K_z(w) at w = 800j "),
            ("E", "E_sigma(w) at w = 800j "),
            ("sigma_kernel_det", "determinant-route K_z(w) at z = (0.5+0.5j), w = 800j "),
        ],
    )
    def test_overflow_inside_a_sum_names_the_derived_value(self, pw1, face, wording):
        gs = build(pw1, canonicalize([]))
        with pytest.raises(RangeError) as err:
            self.FACES[face](gs, self.Z, 800j)
        assert str(err.value).startswith(wording)

    def test_overflow_in_a_fit_names_the_combination(self, gs):
        # Z_z(1j) at z = 800j, the fit's first right-hand side, overflows before any derived value exists
        with pytest.raises(RangeError) as err:
            gs.kernel_row(800j)
        assert str(err.value).startswith("combination of order 0 at w = 1j ")

    @pytest.mark.parametrize("z", [1e200, 1.5e308 + 1.5e308j])
    def test_row_of_a_far_z(self, gs, z):
        with pytest.raises(RangeError):
            gs.kernel_row(z)(0.3 + 0.7j)

    # z's column is built once per determinant row, and checked there: at
    # 800j the sinc of the column overflows before any w
    @pytest.mark.parametrize("z", [1e200, 1.5e308 + 1.5e308j, 800j])
    def test_det_row_of_a_far_z(self, gs, z):
        with pytest.raises(RangeError):
            gs.det_row(z)(0.3 + 0.7j)

    def test_row_with_a_zero_past_the_double_range(self):
        # a degree-1 kernel is constant, so the Gram build succeeds; the zero's disk radius overflows
        gs = build(PolynomialHB((-1j,)), canonicalize([1.5e308 + 1.5e308j]))
        with pytest.raises(RangeError, match="zero"):
            gs.kernel_row(0.5j)


def test_pw_derived_values_take_one_range_check(monkeypatch):
    # off the disks a derived value is the plain sum under Remainder.__call__'s
    # one finiteness test: no _in_range call and no combination closure per
    # point, for a reused row, E_sigma, F_sigma and a one-shot sigma_kernel
    gs = build(PaleyWiener(1.0), canonicalize([1j, 1j, 2j, 1 + 1j]))
    ssf = derive(gs)
    z = 0.3 + 0.4j
    row = gs.kernel_row(z)
    ws = [-0.7 + 0.5j, 1.5 - 0.3j, 0.2 + 3j, -2 - 1j, 1.2 + 1.1j]
    assert all(gs.zeros.local_group(w) is None for w in (z, *ws))
    want = [(row(w), ssf.eval("E", w), ssf.eval("F", w), gs.sigma_kernel(z, w)) for w in ws]

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(kernels, "_in_range", counted("_in_range", kernels._in_range))
    monkeypatch.setattr(gram, "_in_range", counted("_in_range", gram._in_range))
    monkeypatch.setattr(StructureFunction, "_checked", counted("_checked", StructureFunction._checked))
    got = [(row(w), ssf.eval("E", w), ssf.eval("F", w), gs.sigma_kernel(z, w)) for w in ws]
    assert calls == Counter()
    assert got == want


@pytest.mark.parametrize("family", ["pw", "hb"])
def test_rows_of_both_routes_are_remainders(family):
    # a kernel row and a determinant row are each a Remainder, on PW and on
    # HB degree 5 with n = 4 < d, so Remainder.__call__ range-checks both
    roots = (-1j, 1 - 1j, -1 - 2j, 0.5 - 0.5j, -0.5 - 1.5j)
    space = PaleyWiener(1.0) if family == "pw" else PolynomialHB(roots)
    gs = build(space, canonicalize([1j, 1j, 2j, 1 + 1j]))
    z = 0.3 + 0.4j
    assert isinstance(gs.kernel_row(z), Remainder)
    assert isinstance(gs.det_row(z), Remainder)


def test_pw_det_row_takes_one_range_check(monkeypatch):
    # a PW determinant row's finite values away from the zeros pass
    # Remainder.__call__'s finiteness test alone: no _in_range call per point
    gs = build(PaleyWiener(1.0), canonicalize([1j, 1j, 2j, 1 + 1j]))
    row = gs.det_row(0.3 + 0.4j)
    ws = [-0.7 + 0.5j, 1.5 - 0.3j]
    want = [row(w) for w in ws]
    calls = Counter()

    def counted(*args):
        calls["_in_range"] += 1
        return kernels._in_range(*args)

    monkeypatch.setattr(gram, "_in_range", counted)
    assert [row(w) for w in ws] == want
    assert calls == Counter()


@pytest.mark.parametrize("family", ["pw", "hb"])
def test_residual_reads_build_no_remainder(family, monkeypatch):
    # the projection residual, the incomplete form of E and the iterative
    # route read a residual only, never a derived quotient, so they take
    # the combination of the fit's terms directly
    space = PaleyWiener(1.0) if family == "pw" else PolynomialHB((-1j, 1 - 1j, -1 - 2j))
    zeros = canonicalize([1j, 2j])
    gs = build(space, zeros)
    z, w = 0.3 + 0.4j, -0.7 + 0.5j

    def read():
        ssf = derive(gs)
        incomplete = ssf.incomplete(w), ssf.incomplete(w, 1)
        return gs.incomplete_kernel(z, w), incomplete, derive_iterative(space, zeros).coeffs_E

    want = read()

    def forbidden(*args, **kwargs):
        raise AssertionError("a Remainder was built")

    monkeypatch.setattr(Remainder, "__init__", forbidden)
    assert read() == want


@pytest.mark.parametrize("family", ["pw", "hb"])
def test_remainders_hold_only_their_quotient(family):
    # a kernel row and E_sigma are quotients only: neither carries a
    # residual closure, and on HB the closed kernel is B' alone, its
    # d - n columns of length d - n
    roots = (-1j, 1 - 1j, -1 - 2j, 0.5 - 0.5j, -0.5 - 1.5j)
    space = PaleyWiener(1.0) if family == "pw" else PolynomialHB(roots)
    gs = build(space, canonicalize([1j, 1j, 2j]))
    remainders = [gs.kernel_row(z) for z in (0.3 + 0.4j, 1j + 5e-4, 1j)]
    remainders.append(derive(gs)._remainder)
    assert not any(hasattr(r, "residual") for r in remainders)
    if family == "pw":
        assert gs._closed_kernel is None
    else:
        columns = gs._closed_kernel
        assert isinstance(columns, tuple) and len(columns) == 5 - 3
        assert all(len(column) == 5 - 3 for column in columns)


@pytest.mark.parametrize(
    "run, rest",
    [
        ((1e200, 1), (2.0, 3.0)),  # |v|**3 overflows a double: the side is chosen in logarithms
        ((1e-200, 1), (2.0, 3.0)),
        ((0.0, 2), (2.0, 3.0)),  # v = 0 deflates forward, as backward would divide by it
        ((2.0, 1), (0.0, 3.0)),  # c_0 = 0: backward, past the geometric mean 0
    ],
)
def test_divide_takes_each_run_from_a_side_without_overflow(run, rest):
    v, m = run
    coeffs = [1.0 + 0j]  # ascending coefficients of prod (x - r)
    for r in (v,) * m + rest:
        coeffs = [low - r * high for low, high in zip([0j, *coeffs], [*coeffs, 0j])]
    got = _divide(coeffs, [run])
    want = np.polynomial.polynomial.polyfromroots(rest)
    assert np.allclose(got, want, rtol=1e-15, atol=0), (got, want)
