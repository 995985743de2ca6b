"""Zero sequences: canonical order, the one-sided difference oracle, disks."""

import math

import pytest
from hypothesis import given, strategies as st

from debranges import (
    PaleyWiener, RangeError, ZeroSequence, canonicalize,
)

from split_zero_oracle import bracket_eps, extrapolate_to_zero

POOL = [0j, 1j, 2j, 1 + 1j, -1 + 2j, 0.5 - 0.5j]
points_lists = st.lists(st.sampled_from(POOL), max_size=8)


class TestCanonicalize:
    def test_repeated_then_distinct(self):
        zs = canonicalize([1j, 1j, 1j, 2j])
        assert zs.points == (1j, 1j, 1j, 2j)
        assert zs.confluence == (0, 1, 2, 0)

    def test_empty(self):
        zs = canonicalize([])
        assert len(zs) == 0
        assert zs.points == ()

    def test_regroups_scattered_duplicates(self):
        zs = canonicalize([1j, 2j, 1j])
        assert zs.points == (1j, 1j, 2j)
        assert zs.confluence == (0, 1, 0)

    @given(points_lists)
    def test_idempotent(self, pts):
        zs = canonicalize(pts)
        again = canonicalize(zs.points)
        assert again.points == zs.points
        assert again.confluence == zs.confluence

    @given(points_lists)
    def test_runs_contiguous_and_offsets_count_up(self, pts):
        zs = canonicalize(pts)
        seen = set()
        for idx, (p, k) in enumerate(zip(zs.points, zs.confluence)):
            if k == 0:
                assert p not in seen
                seen.add(p)
            else:
                assert zs.points[idx - 1] == p
                assert zs.confluence[idx - 1] == k - 1

    @given(points_lists)
    def test_preserves_multiset(self, pts):
        zs = canonicalize(pts)
        assert sorted(zs.points, key=lambda c: (c.real, c.imag)) == sorted(
            [complex(p) for p in pts], key=lambda c: (c.real, c.imag)
        )

    def test_direct_construction_validated(self):
        with pytest.raises(ValueError):
            ZeroSequence((1j, 2j, 1j))


class TestBracketEps:
    def test_zero_offset_is_plain_value(self):
        zs = canonicalize([2j])
        assert bracket_eps(lambda w: w * w, zs, 0, 0.37) == pytest.approx(-4.0)

    def test_linear_function_exact(self):
        zs = canonicalize([1j, 1j])
        assert bracket_eps(lambda w: w, zs, 1, 0.1) == pytest.approx(1.0)

    def test_first_order_accuracy(self):
        pw = PaleyWiener(1.0)
        zs = canonicalize([1j, 1j])
        got = bracket_eps(pw.eval_E, zs, 1, 1e-3)
        assert abs(got - (-1j * math.e)) < 5e-3
        assert abs(got - (-1j * math.e)) > 1e-5  # genuinely first order

    def test_eps_must_be_positive(self):
        zs = canonicalize([1j])
        with pytest.raises(ValueError):
            bracket_eps(lambda w: w, zs, 0, 0.0)

    @pytest.mark.parametrize("i", [1, 2])
    def test_extrapolated_limit_matches_analytic(self, i):
        pw = PaleyWiener(1.0)
        zs = canonicalize([1j, 1j, 1j])
        steps = [1e-2, 1e-3, 1e-4]
        vals = [bracket_eps(pw.eval_E, zs, i, e) for e in steps]
        want = pw.eval_E(zs.points[i], zs.confluence[i])
        got = extrapolate_to_zero(steps, vals)
        assert abs(got - want) <= 1e-5 * max(1.0, abs(want))

    def test_errors_shrink_along_schedule(self):
        pw = PaleyWiener(1.0)
        zs = canonicalize([1j, 1j])
        want = pw.eval_E(zs.points[1], zs.confluence[1])
        errs = [abs(bracket_eps(pw.eval_E, zs, 1, e) - want) for e in (1e-2, 1e-3, 1e-4)]
        assert errs[0] > errs[1] > errs[2]


class TestLocalGroup:
    def test_exact_hit(self):
        zs = canonicalize([1j, 1j, 2j])
        assert zs.local_group(1j) == (1j, 2)
        assert zs.local_group(2j) == (2j, 1)

    def test_near_hit_and_miss(self):
        zs = canonicalize([1j])
        assert zs.local_group(1j + 1e-4) == (1j, 1)
        assert zs.local_group(1j + 0.5) is None

    def test_distance_past_the_double_range_is_in_no_disk(self):
        # abs(w - 1j) overflows for this w
        assert canonicalize([1j]).local_group(1.5e308 + 1.5e308j) is None

    def test_zero_past_the_double_range_raises_range_error(self):
        # abs(zero) overflows, so the zero has no disk radius
        with pytest.raises(RangeError, match="zero"):
            canonicalize([1.5e308 + 1.5e308j]).local_group(0)

    def test_deflated_product(self):
        zs = canonicalize([1j, 1j, 2j])
        at = 3.0 + 0j
        assert zs.product(at, exclude_value=1j) == pytest.approx(3 - 2j)
        assert zs.product(at) == pytest.approx((3 - 1j) ** 2 * (3 - 2j))
