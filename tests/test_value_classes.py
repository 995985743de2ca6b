"""The library's value classes: equality, hash, repr, immutability and pickling.

PaleyWiener, PolynomialHB, ZeroSequence and SigmaStructureFunction compare
and hash by their fields and cannot be assigned; GramSystem is immutable
but equal only to itself; the CLI's RunConfig is mutable and unhashable.
The first four pickle, so a caller may send them to another process; the
default suite's forked workers pickle only their reports and errors.
"""

import pickle

import pytest

from debranges import (
    GramSystem, PaleyWiener, PolynomialHB, SigmaStructureFunction, ZeroSequence, build, canonicalize, derive,
)
from debranges.cli import RunConfig

SIGMA = canonicalize([1j, 2j, 1j])


# (make, an unequal value of the same class, its exact repr)
VALUES = {
    "PaleyWiener": (
        lambda: PaleyWiener(2),
        PaleyWiener(2.0, 3),
        "PaleyWiener(x=2.0, max_derivative_order=64)",
    ),
    "PolynomialHB": (
        lambda: PolynomialHB([-1j, 1 - 2j]),
        PolynomialHB([-1j]),
        "PolynomialHB(roots=((-0-1j), (1-2j)), max_derivative_order=64)",
    ),
    "ZeroSequence": (
        lambda: ZeroSequence((1j, 1j, 2j)),
        ZeroSequence((1j, 2j, 2j)),
        "ZeroSequence(points=(1j, 1j, 2j), confluence=(0, 1, 0))",
    ),
    "SigmaStructureFunction": (
        lambda: SigmaStructureFunction(PaleyWiener(1.0), canonicalize([1j]), (0.5 + 0j,)),
        SigmaStructureFunction(PaleyWiener(1.0), canonicalize([1j]), (0.25 + 0j,)),
        "SigmaStructureFunction(base=PaleyWiener(x=1.0, max_derivative_order=64), "
        "zeros=ZeroSequence(points=(1j,), confluence=(0,)), coeffs_E=((0.5+0j),))",
    ),
}
FIELDS = {
    "PaleyWiener": ("x", "max_derivative_order"),
    "PolynomialHB": ("roots", "max_derivative_order"),
    "ZeroSequence": ("points", "confluence"),
    "SigmaStructureFunction": ("base", "zeros", "coeffs_E"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
class TestFrozenValue:
    def test_equal_and_hashed_by_fields(self, name):
        make, other, _ = VALUES[name]
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != other
        assert len({a, b, other}) == 2
        assert a != tuple(getattr(a, f) for f in FIELDS[name])

    def test_repr_names_every_field(self, name):
        make, _, text = VALUES[name]
        assert repr(make()) == text

    @pytest.mark.parametrize("field", [0, 1])
    def test_fields_cannot_be_assigned_or_deleted(self, name, field):
        value = VALUES[name][0]()
        attr = FIELDS[name][field]
        before = getattr(value, attr)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, attr, before)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, attr)
        with pytest.raises(AttributeError, match="cannot assign"):
            value.extra = 1
        assert getattr(value, attr) is before

    def test_pickle_round_trip_is_equal(self, name):
        value = VALUES[name][0]()
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value) and type(copy) is type(value)


def test_cached_properties_are_stored_on_frozen_instances():
    zs, hb = canonicalize([1j, 1j, 2j]), PolynomialHB([-1j, 1 - 2j])
    assert zs._runs is zs._runs == ((1j, 2), (2j, 1))
    assert hb._coeffs is hb._coeffs
    copy = pickle.loads(pickle.dumps(zs))
    assert copy == zs and copy._runs == zs._runs


def test_validation_is_kept():
    with pytest.raises(ValueError, match="positive finite real"):
        PaleyWiener(0.0)
    with pytest.raises(ValueError, match="open lower half-plane"):
        PolynomialHB([1j])
    with pytest.raises(ValueError, match="contiguous"):
        ZeroSequence((1j, 2j, 1j))
    with pytest.raises(TypeError):
        ZeroSequence((1j,), (0,))  # the offsets are derived, never passed


class TestGramSystem:
    def test_equal_only_to_itself(self):
        a, b = build(PaleyWiener(1.0), SIGMA), build(PaleyWiener(1.0), SIGMA)
        assert a.rows == b.rows and a.factorization == b.factorization
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
        assert len({a, b}) == 2

    def test_frozen_repr_and_pickle(self):
        gs = build(PaleyWiener(1.0), SIGMA)
        with pytest.raises(AttributeError, match="cannot assign"):
            gs.det = 0.0
        assert repr(gs).startswith(
            "GramSystem(space=PaleyWiener(x=1.0, max_derivative_order=64), "
            "zeros=ZeroSequence(points=(1j, 1j, 2j), confluence=(0, 1, 0)), rows=((")
        assert repr(gs).endswith(f"det={gs.det!r}, condition_estimate={gs.condition_estimate!r})")
        copy = pickle.loads(pickle.dumps(gs))
        assert isinstance(copy, GramSystem) and copy != gs
        assert (copy.space, copy.zeros, copy.rows, copy.det) == (gs.space, gs.zeros, gs.rows, gs.det)
        assert copy.solve((1.0, 0j, 0j)) == gs.solve((1.0, 0j, 0j))


def test_a_derived_function_evaluates_after_pickling():
    ssf = derive(build(PaleyWiener(1.0), canonicalize([1j])))
    copy = pickle.loads(pickle.dumps(ssf))
    assert copy == ssf and copy.eval("E", 0.3 + 0.7j) == ssf.eval("E", 0.3 + 0.7j)


class TestRunConfig:
    def test_each_config_has_its_own_tolerances(self):
        a, b = RunConfig(PaleyWiener(1.0), SIGMA, "verify"), RunConfig(PaleyWiener(1.0), SIGMA, "verify")
        assert a.tolerances == {} and a.tolerances is not b.tolerances
        a.tolerances["theorem2"] = 1e-3
        assert b.tolerances == {}

    def test_defaults_equality_and_mutation(self):
        a = RunConfig(PaleyWiener(1.0), SIGMA, "kernel")
        assert (a.grid, a.eval_points, a.kernel_z, a.seed, a.out_path, a.out_format) == (None, None, 0j, 0, "", "")
        b = RunConfig(space=PaleyWiener(1.0), sigma=SIGMA, command="kernel", tolerances={})
        assert a == b
        b.out_path = "out.csv"
        assert a != b and b.out_path == "out.csv"
        with pytest.raises(TypeError):
            hash(a)

    def test_repr(self):
        config = RunConfig(PaleyWiener(1.0), canonicalize([1j]), "structure", eval_points=[0.5j])
        assert repr(config) == (
            "RunConfig(space=PaleyWiener(x=1.0, max_derivative_order=64), "
            "sigma=ZeroSequence(points=(1j,), confluence=(0,)), command='structure', grid=None, "
            "eval_points=[0.5j], kernel_z=0j, seed=0, tolerances={}, out_path='', out_format='')"
        )
