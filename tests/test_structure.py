"""Derived structure functions: three routes, evaluation, identities."""

import math

import numpy as np
import pytest

from debranges import (
    DomainError,
    LinearDependenceError,
    PolynomialHB,
    build,
    canonicalize,
    derive,
    derive_iterative,
)
from split_zero_oracle import InvalidScheduleError, derive_epsilon_oracle, extrapolate_to_zero


class TestExtrapolateToZero:
    def test_linear_model_exact(self):
        steps = [0.1, 0.05]
        vals = [3.0 + 2.0 * s for s in steps]
        assert extrapolate_to_zero(steps, vals) == pytest.approx(3.0)

    def test_cubic_model(self):
        steps = [1e-1, 5e-2, 2.5e-2, 1.25e-2]
        vals = [1j + 2 * s - 3 * s**2 + s**3 for s in steps]
        assert extrapolate_to_zero(steps, vals) == pytest.approx(1j, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            extrapolate_to_zero([], [])
        with pytest.raises(ValueError):
            extrapolate_to_zero([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            extrapolate_to_zero([1.0, 1.0], [1, 2])


class TestDerive:
    def test_empty_sequence(self, pw1):
        ssf = derive(build(pw1, canonicalize([])))
        assert ssf.coeffs_E == ()
        w = 0.4 - 1.2j
        assert ssf.eval("E", w) == pw1.eval_E(w)
        assert ssf.eval("F", w) == pw1.eval_E_star(w)

    def test_single_zero_closed_form(self, pw1):
        ssf = derive(build(pw1, canonicalize([1j])))
        assert ssf.coeffs_E[0] == pytest.approx(math.e / math.sinh(2))

    @pytest.mark.parametrize("family", ["pw", "hb"])
    @pytest.mark.parametrize("pts", [[1j], [1j, 2j], [1j, 1j]])
    def test_incomplete_form_vanishes_on_sequence(self, family, pts, pw2, hb3):
        sf = pw2 if family == "pw" else hb3
        zs = canonicalize(pts)
        ssf = derive(build(sf, zs))
        data_scale = max(abs(sf.eval_E(p, k)) for p, k in zip(zs.points, zs.confluence))
        for i in range(len(zs)):
            val = ssf.incomplete(zs.points[i], zs.confluence[i])
            assert abs(val) <= 1e-9 * max(1.0, data_scale)


class TestEval:
    def test_single_zero_value_at_origin(self, pw1):
        # independent hand assembly of the one-zero construction at w = 0
        ssf = derive(build(pw1, canonicalize([1j])))
        z1w = 2 * math.sinh(1)  # base kernel at (i, 0)
        want = (1.0 - math.e * z1w / math.sinh(2)) / (0 - 1j)
        got = ssf.eval("E", 0)
        assert got == pytest.approx(want)
        assert got == pytest.approx(-1j * math.tanh(1))

    def test_value_at_trivial_zero_matches_extrapolation(self, pw1):
        ssf = derive(build(pw1, canonicalize([1j])))
        at = ssf.eval("E", 1j)
        steps = [5e-3, 2.5e-3, 1.25e-3]
        vals = [ssf.eval("E", 1j + s) for s in steps]
        extr = extrapolate_to_zero(steps, vals)
        assert abs(at) > 0
        assert abs(at - extr) <= 1e-6 * abs(at)

    def test_seam_continuity(self, pw1):
        ssf = derive(build(pw1, canonicalize([1j, 1j])))
        r = 1e-3 * 2.0  # de-singularization radius at |v| = 1
        inner = ssf.eval("E", 1j + 0.999 * r)
        outer = ssf.eval("E", 1j + 1.001 * r)
        assert abs(inner - outer) <= 1e-6 * max(1.0, abs(outer))

    def test_star_relation(self, pw2, hb3):
        rng = np.random.default_rng(31)
        for sf in (pw2, hb3):
            ssf = derive(build(sf, canonicalize([1j, 1 + 1j])))
            for _ in range(100):
                w = complex(*rng.uniform(-3, 3, 2))
                fw = ssf.eval("F", w)
                star = ssf.eval("E", w.conjugate()).conjugate()
                assert abs(fw - star) <= 1e-10 * max(1.0, abs(fw))

    def test_hb_inheritance(self, pw1):
        ssf = derive(build(pw1, canonicalize([1j, 2j])))
        rng = np.random.default_rng(37)
        for _ in range(100):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3))
            margin = abs(ssf.eval("E", z)) ** 2 - abs(ssf.eval("F", z)) ** 2
            assert margin > 0

    def test_full_constraint_set_gives_constant(self, hb3):
        # imposing dim-many zeros forces the incomplete form onto the
        # polynomial with those roots; the complete form is constant 1
        ssf = derive(build(hb3, canonicalize([1j, 1 + 1j, -1 + 2j])))
        for w in (0.3 + 0.1j, -2 + 0.7j, 1.5 - 0.4j):
            assert ssf.eval("E", w) == pytest.approx(1.0)

    def test_which_validated(self, pw1):
        ssf = derive(build(pw1, canonicalize([1j])))
        with pytest.raises(ValueError):
            ssf.eval("G", 0)


class TestSingleZeroIdentities:
    @pytest.mark.parametrize("z1", [1j, 1 + 1j, 2 - 3j, 1.0 + 0j])
    @pytest.mark.parametrize("family", ["pw", "hb"])
    def test_boundary_data_combination(self, family, z1, pw1, hb3):
        # conj(E(z1)) * derivedE(w) - conj(F(z1)) * derivedF(w) = -1j * Z_z1(w)
        sf = pw1 if family == "pw" else hb3
        ssf = derive(build(sf, canonicalize([z1])))
        e1 = sf.eval_E(z1)
        f1 = sf.eval_E_star(z1)
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 50:
            w = complex(*rng.uniform(-3, 3, 2))
            if abs(w - z1) < 1e-2:
                continue
            checked += 1
            lhs = e1.conjugate() * ssf.eval("E", w) - f1.conjugate() * ssf.eval("F", w)
            rhs = -1j * sf.kernel(z1, w)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("family", ["pw", "hb"])
    def test_bordered_determinant_equals_quotient(self, family, pw1, hb3):
        sf = pw1 if family == "pw" else hb3
        z1 = 1j
        gs = build(sf, canonicalize([z1]))
        ssf = derive(gs)
        g11 = np.array(gs.rows)[0, 0]
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 50:
            z = complex(*rng.uniform(-3, 3, 2))
            w = complex(*rng.uniform(-3, 3, 2))
            if abs(z.conjugate() - w) < 1e-3 or abs(w - z1) < 1e-2 or abs(z - z1) < 1e-2:
                continue
            checked += 1
            det2 = g11 * sf.kernel(z, w) - sf.kernel(z1, z).conjugate() * sf.kernel(z1, w)
            lhs = det2 / ((w - z1) * (z - z1).conjugate() * g11)
            ez, ew = ssf.eval("E", z), ssf.eval("E", w)
            fz, fw = ssf.eval("F", z), ssf.eval("F", w)
            rhs = (ez.conjugate() * ew - fz.conjugate() * fw) / (1j * (z.conjugate() - w))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestMainIdentity:
    @pytest.mark.parametrize(
        "family,pts",
        [
            ("pw", [1j]),
            ("pw", [1j, 2j]),
            ("pw", [1j, 1 + 1j, -1 + 2j]),
            ("pw", [1j, 1j]),
            ("pw", [1j, 1j, 2j]),
            ("pw", [1j, 2j, 1 + 1j, -1 + 2j, 0.5 + 0.5j, -2 + 1j]),
            ("pw", [1j, 1j, 2j, 2j, 1 + 1j, -1 + 2j]),
            ("hb", [1j]),
            ("hb", [1j, 2j]),
            ("hb", [1j, 1j]),
        ],
    )
    def test_kernel_equals_structure_quotient(self, family, pts, pw1, hb3):
        sf = pw1 if family == "pw" else hb3
        zs = canonicalize(pts)
        gs = build(sf, zs)
        ssf = derive(gs)
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 200:
            z = complex(*rng.uniform(-3, 3, 2))
            w = complex(*rng.uniform(-3, 3, 2))
            if abs(z.conjugate() - w) < 1e-3:
                continue
            checked += 1
            lhs = gs.sigma_kernel(z, w)
            ez, ew = ssf.eval("E", z), ssf.eval("E", w)
            fz, fw = ssf.eval("F", z), ssf.eval("F", w)
            rhs = (ez.conjugate() * ew - fz.conjugate() * fw) / (1j * (z.conjugate() - w))
            tol = 1e-8 * max(1.0, gs.condition_estimate / 1e4)
            assert abs(lhs - rhs) <= tol * max(1.0, abs(lhs))


class TestDeriveIterative:
    def test_single_zero_matches_direct(self, pw1):
        zs = canonicalize([1j])
        it = derive_iterative(pw1, zs)
        dr = derive(build(pw1, zs))
        assert it.coeffs_E[0] == pytest.approx(dr.coeffs_E[0])

    def test_empty(self, pw1):
        ssf = derive_iterative(pw1, canonicalize([]))
        assert ssf.coeffs_E == ()

    @pytest.mark.parametrize(
        "family,pts",
        [
            ("pw", [1j, 2j]),
            ("pw", [1j, 2j, 1 + 1j]),
            ("pw", [1j, 2j, 1 + 1j, -1 + 2j]),
            ("hb", [1j, 2j]),
        ],
    )
    def test_matches_direct_route(self, family, pts, pw1, hb3):
        sf = pw1 if family == "pw" else hb3
        zs = canonicalize(pts)
        it = derive_iterative(sf, zs)
        dr = derive(build(sf, zs))
        scale = max(abs(c) for c in dr.coeffs_E)
        for a, b in zip(it.coeffs_E, dr.coeffs_E):
            assert abs(a - b) <= 1e-9 * scale

    def test_repeated_zeros_rejected(self, pw1):
        with pytest.raises(DomainError):
            derive_iterative(pw1, canonicalize([1j, 1j]))

    def test_dependent_evaluator_rejected(self):
        # the degree-1 space is one-dimensional: the evaluator at 2j is a multiple of the one at 1j
        message = "evaluator at 2j is numerically in the span of the previous ones"
        with pytest.raises(LinearDependenceError, match=message):
            derive_iterative(PolynomialHB((-1j,)), canonicalize([1j, 2j]))


class TestEpsilonOracle:
    def test_distinct_zeros_reproduce_direct(self, pw1):
        zs = canonicalize([1j, 2j])
        oracle = derive_epsilon_oracle(pw1, zs, [1e-2, 5e-3])
        ssf = derive(build(pw1, zs))
        for w in (0j, 0.5 + 0.5j):
            assert oracle.incomplete(w) == pytest.approx(ssf.incomplete(w))

    def test_confluent_incomplete_form(self, pw1):
        zs = canonicalize([1j, 1j])
        oracle = derive_epsilon_oracle(pw1, zs, [1e-2, 5e-3, 2.5e-3])
        ssf = derive(build(pw1, zs))
        for w in (0j, 1 + 0.5j):
            got = oracle.incomplete(w)
            want = ssf.incomplete(w)
            assert abs(got - want) <= 1e-5 * max(1.0, abs(want))

    def test_confluent_gram_entries(self, pw1):
        zs = canonicalize([1j, 1j])
        oracle = derive_epsilon_oracle(pw1, zs, [1e-2, 5e-3, 2.5e-3])
        gs = build(pw1, zs)
        for i in range(2):
            for j in range(2):
                got = oracle.gram_entry(i, j)
                want = np.array(gs.rows)[i, j]
                assert abs(got - want) <= 1e-5 * max(1.0, abs(want))

    def test_confluent_kernel(self, pw1):
        zs = canonicalize([1j, 1j])
        oracle = derive_epsilon_oracle(pw1, zs, [1e-2, 5e-3, 2.5e-3])
        gs = build(pw1, zs)
        z, w = 0.5 + 0.5j, 1 - 0.3j
        got = oracle.incomplete_kernel(z, w)
        want = gs.incomplete_kernel(z, w)
        assert abs(got - want) <= 1e-5 * max(1.0, abs(want))

    def test_collision_raises(self, pw1):
        zs = canonicalize([1j, 1j, 1j - 1e-2])
        with pytest.raises(InvalidScheduleError):
            derive_epsilon_oracle(pw1, zs, [1e-2, 5e-3])

    def test_schedule_validation(self, pw1):
        zs = canonicalize([1j, 1j])
        with pytest.raises(InvalidScheduleError):
            derive_epsilon_oracle(pw1, zs, [])
        with pytest.raises(InvalidScheduleError):
            derive_epsilon_oracle(pw1, zs, [1e-2, -1e-3])
        with pytest.raises(InvalidScheduleError):
            derive_epsilon_oracle(pw1, zs, [1e-2, 1e-2])
