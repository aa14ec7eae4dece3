"""The package's value classes behave alike whatever they are built from.

For one sample value of each class: its repr, equality and hash between
equal values, ``AttributeError`` on assigning a field of a frozen class,
and pickle and ``copy.deepcopy`` round trips.  The interned ``CartanData``
and ``DynkinQuiver`` come back as the same object.
"""

import copy
import pickle

import pytest

from rmx import ar_quiver as ar
from rmx import denominators as dn
from rmx import quantum_cartan as qc
from rmx import rep_oracle as ro
from rmx import root_system as rs
from rmx import schur_weyl as sw

A2 = "CartanData(family='A', rank=2, parity_base=0)"
A2_QUIVER = f"DynkinQuiver(cd={A2}, arrows=((1, 2),))"


def _cd():
    return rs.build_cartan("A", 2)


def _quiver():
    return ar.monotone_quiver(_cd())


# (make, its repr, a field)
SAMPLES = {
    "CartanData": (_cd, A2, "rank"),
    "DynkinQuiver": (_quiver, A2_QUIVER, "arrows"),
    "CTildeTable": (
        lambda: qc.ctilde_table(_cd(), 2),
        f"CTildeTable(cd={A2}, L=2, values=(((1, 0), (0, 1)), ((0, 1), (1, 0))))",
        "L"),
    "Denominator": (
        lambda: dn.denominator(_cd(), 1, 2),
        "Denominator(factors=((3, 1),), convention='q')", "convention"),
    "Monomial": (
        lambda: dn.Monomial.y(1, 0) * dn.Monomial.y(2, 1),
        "Monomial(exps=(((1, 0), 1), ((2, 1), 1)))", "exps"),
    "QuiverRep": (
        lambda: ro.QuiverRep(_quiver(), (1, 1), {(1, 2): [[1]]}),
        f"QuiverRep(Q={A2_QUIVER}, dims=(1, 1), mats={{(1, 2): ((1,),)}})", "dims"),
    "GammaWindow": (
        lambda: sw.GammaWindow(vertices=((1, 0),), arrows=()),
        "GammaWindow(vertices=((1, 0),), arrows=())", "arrows"),
    "FamilyMap": (
        lambda: sw.FamilyMap(j_lo=0, j_hi=1, image=((1, 0), (2, 1))),
        "FamilyMap(j_lo=0, j_hi=1, image=((1, 0), (2, 1)))", "image"),
    "KostantPartition": (
        lambda: sw.KostantPartition(nu=(((0, 2), 1),)),
        "KostantPartition(nu=(((0, 2), 1),))", "nu"),
}
INTERNED = {"CartanData", "DynkinQuiver"}
FROZEN = [name for name in SAMPLES if name != "QuiverRep"]  # QuiverRep is mutable


@pytest.mark.parametrize("name", SAMPLES)
def test_repr(name):
    make, text, _ = SAMPLES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_values_are_equal_and_hash_alike(name):
    make = SAMPLES[name][0]
    a, b = make(), make()
    assert a == b and not a != b
    if name in INTERNED:
        assert a is b
    if name == "QuiverRep":  # a mutable class: equal values, no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_unequal_values_differ():
    assert dn.Monomial.y(1, 0) != dn.Monomial.y(1, 2)
    assert dn.denominator(_cd(), 1, 2) != dn.denominator_kashiwara(_cd(), 1, 2)
    Q = _quiver()
    assert ro.QuiverRep(Q, (1, 1), {(1, 2): [[1]]}) != ro.QuiverRep(Q, (1, 1), {(1, 2): [[0]]})
    assert rs.build_cartan("A", 2) != rs.build_cartan("A", 2, parity_base=1)


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_field_cannot_be_assigned(name):
    make, _, field = SAMPLES[name]
    value = make()
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    assert repr(value) == before


@pytest.mark.parametrize("name", SAMPLES)
@pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_pickle_and_deepcopy_round_trips(name, round_trip):
    value = SAMPLES[name][0]()
    twin = round_trip(value)
    assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
    if name in INTERNED:
        assert twin is value


def test_family_map_rejects_a_wrong_length_and_a_repeated_vertex():
    with pytest.raises(ValueError, match="image length does not match the domain interval"):
        sw.FamilyMap(j_lo=0, j_hi=1, image=((1, 0),))
    with pytest.raises(ValueError, match="family map must be injective"):
        sw.FamilyMap(j_lo=0, j_hi=1, image=((1, 0), (1, 0)))
