"""The derivative tables of the Taylor disks on PaleyWiener.

Inside the de-singularization disk of a run v of m equal zeros,
`gram._quotient` sums the residual's derivatives of orders m .. m + T at v
(T = DESINGULARIZATION_TERMS). It keeps one table of them per run, filled
order by order through the row's one `_at_order` function, whose orders
a >= 1 read each distinct moment once through a memo. The reference here
is the per-order route: each derivative one checked `combination` read,
the Taylor sum added left to right from 0j. Every value must match it to
the bit, and every error must be the one that route raises.
"""

import importlib.util
import struct
import sys
from collections import Counter
from pathlib import Path

import pytest

from debranges import (
    PaleyWiener, RangeError, StructureFunction, UnsupportedOrderError, build, canonicalize, derive, gram,
)
from debranges.sigma import DESINGULARIZATION_RADIUS_FACTOR, DESINGULARIZATION_TERMS

CONFIGS = {"triple": (1j, 1j, 1j, 2j), "double": (1j, 1j, 2j, 1 + 1j)}
XS = (0.5, 1.0, 2.0)
Z_CASES = {"off the disks": 0.3 + 0.4j, "inside a disk": 1j + (4e-4 - 2e-4j), "on a zero": 1j}
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def bits(value: complex) -> bytes:
    return struct.pack("<dd", value.real, value.imag)


def disk_points(zs):
    """Each run's point first, then two points inside its disk: a table is read short, then extended."""
    for v, _ in zs._runs:
        radius = DESINGULARIZATION_RADIUS_FACTOR * (1 + abs(v))
        yield from (v, v + 0.6 * radius * (0.6 + 0.8j), v - 0.3 * radius)


def row_terms(gs, z):
    """A kernel row's fitted function and divisor, as `kernel_row` forms them."""
    zs = gs.zeros
    group = zs.local_group(z)
    if group is None:
        return ((1.0, 0, z),), zs.product(z).conjugate()
    z0, mz = group
    return gram._taylor_terms(mz, (z - z0).conjugate(), z0), zs.product(z, exclude_value=z0).conjugate()


def reference(space, zs, e, terms, coeffs, divisor, w):
    """The per-order disk value: each derivative a checked `combination` read, summed left to right from 0j."""
    v, m = zs.local_group(w)
    read = space.combination(e, [*terms, *gram._span(zs, coeffs)])
    acc = 0j
    for c, a, _ in gram._taylor_terms(m, w - v, v):
        acc += c * read(v, a)
    value = acc / zs.product(w, exclude_value=v)
    return value if divisor is None else value / divisor


@pytest.mark.parametrize("x", XS)
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("z_at", [*Z_CASES, "E"])
def test_tables_are_the_per_order_reads_bit_for_bit(x, config, z_at):
    space = PaleyWiener(x)
    gs = build(space, canonicalize(CONFIGS[config]))
    zs = gs.zeros
    if z_at == "E":
        e, terms, divisor = 1.0, (), None
        value = derive(gs)._remainder  # E_sigma
    else:
        e = 0
        terms, divisor = row_terms(gs, Z_CASES[z_at])
        value = gs.kernel_row(Z_CASES[z_at])
    coeffs = gs.fit(e, terms)
    ws = list(disk_points(zs))
    want = [bits(reference(space, zs, e, terms, coeffs, divisor, w)) for w in ws]
    assert [bits(value(w)) for w in ws] == want
    # a fresh row read in the other order: full tables first, a run's point last
    fresh = derive(gs)._remainder if z_at == "E" else gs.kernel_row(Z_CASES[z_at])
    assert [bits(fresh(w)) for w in reversed(ws)] == want[::-1]


@pytest.mark.parametrize("x", XS)
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("z_at", [*Z_CASES, "E"])
def test_family_derivatives_are_the_checked_reads_bit_for_bit(x, config, z_at, monkeypatch):
    # the family's per-order math at each run over the orders the disk reads, against one
    # checked combination read per order
    space = PaleyWiener(x)
    gs = build(space, canonicalize(CONFIGS[config]))
    e, terms = (1.0, ()) if z_at == "E" else (0, row_terms(gs, Z_CASES[z_at])[0])
    fitted = [*terms, *gram._span(gs.zeros, gs.fit(e, terms))]
    read = space.combination(e, fitted)
    reads = [(v, a) for v, m in gs.zeros._runs for a in range(m, m + 1 + DESINGULARIZATION_TERMS)]
    # and orders 0 .. 2 off the runs, where a term of order 0 is the sinc
    reads += [(w, a) for w in (0.3 + 0.4j, -1.2 + 0.1j) for a in range(3)]
    want = [bits(read(w, a)) for w, a in reads]
    # the base class's per-term default
    default = StructureFunction._at_order(space, e, fitted)
    assert [bits(default(a)(w)) for w, a in reads] == want
    # PaleyWiener's, one function read twice over: the second pass takes every moment from its memo
    moments, moment = Counter(), PaleyWiener._moment

    def counted(self, p, u):
        moments[p, u] += 1
        return moment(self, p, u)

    monkeypatch.setattr(PaleyWiener, "_moment", counted)
    at_order = space._at_order(e, fitted)
    assert [bits(at_order(a)(w)) for w, a in reads] == want
    first = moments.copy()
    assert first and max(first.values()) == 1
    assert [bits(at_order(a)(w)) for w, a in reads] == want
    assert moments == first


class TestOutOfRange:
    """A derivative out of range raises when a point reads it, worded as the checked `combination` read."""

    @staticmethod
    def message(fn, *args):
        with pytest.raises(RangeError) as info:
            fn(*args)
        return str(info.value)

    def test_a_derivative_that_is_not_finite(self):
        # 1.5e308 Z_{-5j}: its second derivative at the double zero 1j is about 40 times past the range
        space, zs = PaleyWiener(1.0), canonicalize([1j, 1j])
        terms = ((1.5e308, 0, -5j),)
        quotient = gram._quotient(space, zs, 0, terms, (0j, 0j))
        got = self.message(quotient, 1j + 2e-4)
        assert got.startswith("combination of order 2 at w = 1j is not finite")
        assert got == self.message(space.combination(0, [*terms, *gram._span(zs, (0j, 0j))]), 1j, 2)

    def test_a_derivative_that_overflows_past_the_order_a_point_reads(self):
        # x**11 overflows at x = 1e30: order 9 reads the moment M_10 through the span's term of
        # order 1 and raises, and order 2 alone, all that the zero's own point reads, stays
        # finite before and after
        space, zs = PaleyWiener(1e30), canonicalize([0j, 0j])
        terms, coeffs = ((1.0, 0, 0j),), (0j, 0j)
        quotient = gram._quotient(space, zs, 0, terms, coeffs)
        before = quotient(0j)
        got = self.message(quotient, 1e-4)
        assert got.startswith("combination of order 9 at w = 0j overflows the double range")
        assert got == self.message(space.combination(0, [*terms, *gram._span(zs, coeffs)]), 0j, 9)
        assert bits(quotient(0j)) == bits(before) == bits(reference(space, zs, 0, terms, coeffs, None, 0j))

    def test_an_overflow_below_the_budget_raises_before_the_orders_past_it(self):
        # E^(2)(0) = -x**2 is finite at x = 1e100, but order 2 also reads M_3 through the span's term
        # of order 1, whose x**4 overflows; a point in the disk reads orders 2 .. 10, past the
        # budget 5, and raises at order 2 as the per-order reads do
        space, zs = PaleyWiener(1e100, max_derivative_order=5), canonicalize([0j, 0j])
        coeffs = (0j, 0j)
        read = space.combination(1.0, gram._span(zs, coeffs))
        want = self.message(read, 0j, 2)
        assert want == "combination of order 2 at w = 0j overflows the double range"
        assert self.message(gram._quotient(space, zs, 1.0, (), coeffs), 1e-4) == want
        with pytest.raises(UnsupportedOrderError, match="order 6 exceeds the budget 5"):
            read(0j, 6)


def test_near_zero_kernel_evaluates_each_moment_once(monkeypatch):
    # the near-zero-kernel benchmark's seed-1 input: PW x = 1, a kernel row with z in the double
    # zero's disk, and 60 points in the disks or on the zeros; 394 moment evaluations per
    # process when each order of each run was summed on its own
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass resolves its module by name
    spec.loader.exec_module(workloads)
    config = workloads.generate("near-zero-kernel", 1).config
    space = PaleyWiener(config["space"]["x"])
    zeros = canonicalize([complex(*p) for p in config["sigma"]])
    assert zeros.points == (1j, 1j, 2j, 1 + 1j)
    z, ws = complex(*config["z"]), [complex(*p) for p in config["eval_points"]]
    assert zeros.local_group(z) is not None and all(zeros.local_group(w) for w in ws)
    want = [bits(v) for v in map(build(space, zeros).kernel_row(z), ws)]

    calls = Counter()

    def counted(name):
        route = getattr(PaleyWiener, name)

        def wrapper(self, p, u, *rest):
            calls[name, p, u] += 1
            return route(self, p, u, *rest)

        return wrapper

    for name in ("_moment_series", "_moment_closed"):
        monkeypatch.setattr(PaleyWiener, name, counted(name))
    row = build(space, zeros).kernel_row(z)
    before_points = calls.copy()
    got = [bits(v) for v in map(row, ws)]
    assert sum(calls.values()) <= 140
    assert max((calls - before_points).values()) == 1  # the points share the row's tables
    assert got == want
