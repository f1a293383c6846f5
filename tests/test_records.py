"""Value semantics of the fourteen record types: equality within one
class, hash of the field tuple, dataclass-style repr, immutability, and
keyword and default construction; the same values from the trusted
constructor Cls._new."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from rackq import congruence as cg
from rackq import laurent as la
from rackq import shifts as sh
from rackq import tables as tb
from rackq import weighted as wa
from rackq.tables import Record

W = sh.half_congruence_witnesses()
HALF = {"primary": (F(1), F(0), F(1, 2), F(0))}

# (build, fields in declaration order, repr); build() returns a new
# instance each call, so equal-but-not-identical values are compared.
CASES = [
    (lambda: tb.Table([[0, 1], [1, 0]]),
     {"rows": ((0, 1), (1, 0))},
     "Table(rows=((0, 1), (1, 0)))"),
    (lambda: tb.validate(tb.dihedral(3)),
     {"idempotent": True, "right_invertible": True, "right_self_distributive": True,
      "is_rack": True, "is_quandle": True},
     "AxiomReport(idempotent=True, right_invertible=True, right_self_distributive=True, "
     "is_rack=True, is_quandle=True)"),
    (lambda: cg.Partition((5, 1, 5)),
     {"block_of": (0, 1, 0)},
     "Partition(block_of=(0, 1, 0))"),
    (lambda: cg.quotient(tb.dihedral(4), cg.parse_partition("0,2|1,3", 4)),
     {"table": tb.Table(((0, 0), (1, 1))), "blocks": ((0, 2), (1, 3))},
     "QuotientRack(table=Table(rows=((0, 0), (1, 1))), blocks=((0, 2), (1, 3)))"),
    (lambda: cg.FiniteMap(2, 3, [2, 0]),
     {"domain_order": 2, "codomain_order": 3, "image": (2, 0)},
     "FiniteMap(domain_order=2, codomain_order=3, image=(2, 0))"),
    (lambda: la.LaurentPoly({3: -1, -1: 2}),
     {"exps": (-1, 3), "coeffs": (2, -1)},
     "LaurentPoly(exps=(-1, 3), coeffs=(2, -1))"),
    (lambda: la.PrincipalSubmodule(la.LaurentPoly({1: 1, 0: -1}), la.LAURENT_RING),
     {"generator": la.LaurentPoly({1: 1, 0: -1}), "ring": "laurent"},
     "PrincipalSubmodule(generator=LaurentPoly(exps=(0, 1), coeffs=(-1, 1)), ring='laurent')"),
    (lambda: sh.BiSeq(0, -2, (0, 1, 1, 0), 0),
     {"left_tail": 0, "start": -1, "word": (1, 1), "right_tail": 0},
     "BiSeq(left_tail=0, start=-1, word=(1, 1), right_tail=0)"),
    (lambda: sh.Witnesses(W.spike, W.step, W.ones, W.zeros, W.spike_left),
     {"spike": W.spike, "step": W.step, "ones": W.ones, "zeros": W.zeros,
      "spike_left": W.spike_left},
     "Witnesses(spike=BiSeq(left_tail=0, start=0, word=(1,), right_tail=0), "
     "step=BiSeq(left_tail=1, start=1, word=(), right_tail=0), "
     "ones=BiSeq(left_tail=1, start=0, word=(), right_tail=1), "
     "zeros=BiSeq(left_tail=0, start=0, word=(), right_tail=0), "
     "spike_left=BiSeq(left_tail=0, start=-1, word=(1,), right_tail=0))"),
    (lambda: sh.NormalForm("b", -3),
     {"gen": "b", "power": -3},
     "NormalForm(gen='b', power=-3)"),
    (lambda: wa.Weight(F(-4, 6)),
     {"value": F(-2, 3)},
     "Weight(value=Fraction(-2, 3))"),
    (lambda: wa.SubgroupDescriptor("scaled", F(2, 7), 12),
     {"kind": "scaled", "g": F(2, 7), "m": 6},
     "SubgroupDescriptor(kind='scaled', g=Fraction(2, 7), m=6)"),
    (lambda: wa.WitnessStatus("integers", wa.SubgroupDescriptor.integers(),
                              cg.CongruenceClass.BOTH, dict(HALF)),
     {"role": "integers", "descriptor": wa.SubgroupDescriptor.integers(),
      "status": cg.CongruenceClass.BOTH, "half_witnesses": HALF},
     "WitnessStatus(role='integers', descriptor=SubgroupDescriptor(kind='scaled', "
     "g=Fraction(1, 1), m=1), status=<CongruenceClass.BOTH: 'Both'>, "
     "half_witnesses={'primary': (Fraction(1, 1), Fraction(0, 1), Fraction(1, 2), "
     "Fraction(0, 1))})"),
    (lambda: wa.WeightClassification(3, "x", ()),
     {"case": 3, "explanation": "x", "witnesses": ()},
     "WeightClassification(case=3, explanation='x', witnesses=())"),
]
IDS = [repr_.partition("(")[0] for _, _, repr_ in CASES]
# a WitnessStatus holds a dict, so like the dataclass it cannot be hashed
HASHABLE = [case for case, name in zip(CASES, IDS) if name != "WitnessStatus"]
HASHABLE_IDS = [name for name in IDS if name != "WitnessStatus"]


def trusted(build, fields):
    """The record that build() returns, made by its class's _new."""
    return type(build())._new(*fields.values())


def test_every_record_type_is_covered():
    assert len(set(IDS)) == 14
    in_package = {
        cls.__name__ for cls in Record.__subclasses__() if cls.__module__.startswith("rackq.")
    }
    assert in_package == set(IDS)


@pytest.mark.parametrize("build, fields, repr_", CASES, ids=IDS)
def test_fields_and_repr(build, fields, repr_):
    r = build()
    assert r.__slots__ == tuple(fields)
    assert {name: getattr(r, name) for name in fields} == fields
    assert repr(r) == repr_


@pytest.mark.parametrize("build, fields, repr_", CASES, ids=IDS)
def test_equality_is_by_class_and_fields(build, fields, repr_):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != tuple(fields.values())
    # a record of another class with the very same fields
    twin_class = type(type(a).__name__, (Record,), {"__slots__": type(a).__slots__})
    twin = twin_class._new(*fields.values())
    assert a != twin and twin != a
    assert repr(twin) == repr_


@pytest.mark.parametrize("build, fields, repr_", CASES, ids=IDS)
def test_a_record_equals_itself_without_building_a_key(build, fields, repr_, monkeypatch):
    a, b = build(), build()

    def no_key(record):
        raise AssertionError("key built")

    monkeypatch.setattr(type(a), "_key", staticmethod(no_key))
    assert a == a and not a != a
    with pytest.raises(AssertionError, match="key built"):
        a == b


@pytest.mark.parametrize("build, fields, repr_", HASHABLE, ids=HASHABLE_IDS)
def test_hash_is_the_hash_of_the_field_tuple(build, fields, repr_):
    a, b, c = build(), build(), trusted(build, fields)
    assert hash(a) == hash(b) == hash(c) == hash(tuple(fields.values()))
    assert len({a, b, c}) == 1


@pytest.mark.parametrize("build, fields, repr_", CASES, ids=IDS)
def test_trusted_constructor_builds_the_checked_value(build, fields, repr_):
    cls, values = type(build()), tuple(fields.values())
    r = cls._new(*values)
    assert type(r) is cls and r == cls(*values) == build()
    assert repr(r) == repr_ and r._key(r) == values


def test_witness_status_is_unhashable_like_its_dict():
    with pytest.raises(TypeError):
        hash(CASES[IDS.index("WitnessStatus")][0]())


@pytest.mark.parametrize("build, fields, repr_", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(build, fields, repr_):
    for r in (build(), trusted(build, fields)):
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                delattr(r, name)
        with pytest.raises(AttributeError):
            r.extra = 1
        assert {name: getattr(r, name) for name in fields} == fields


@pytest.mark.parametrize("build, fields, repr_", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(build, fields, repr_):
    for r in (build(), trusted(build, fields)):
        for other in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(other) is type(r) and other == r and repr(other) == repr_


@pytest.mark.parametrize("build, fields, repr_", CASES, ids=IDS)
def test_keyword_construction(build, fields, repr_):
    r = build()
    assert type(r)(**fields) == r


def test_default_construction():
    assert la.LaurentPoly() == la.LaurentPoly(()) == la.ZERO
    gen = la.LaurentPoly({0: 2})
    assert la.PrincipalSubmodule(gen).ring == la.POLY_RING
    assert sh.NormalForm("a") == sh.NormalForm("a", 0) == sh.NormalForm(gen="a", power=0)
    d = wa.SubgroupDescriptor("scaled")
    assert (d.g, d.m) == (F(1), 1) and d == wa.SubgroupDescriptor.integers()
    z = wa.SubgroupDescriptor("zero", F(5), 7)
    assert (z.g, z.m) == (F(1), 1)


def test_witness_status_instances_do_not_share_their_default_dict():
    desc = wa.SubgroupDescriptor.integers()
    a = wa.WitnessStatus("integers", desc, cg.CongruenceClass.BOTH)
    b = wa.WitnessStatus(role="integers", descriptor=desc, status=cg.CongruenceClass.BOTH)
    assert a.half_witnesses == {} and a == b
    a.half_witnesses["primary"] = (0, 0, 0, 0)
    assert b.half_witnesses == {}
    assert wa.WitnessStatus("integers", desc, cg.CongruenceClass.BOTH).half_witnesses == {}


def test_construction_still_validates():
    with pytest.raises(ValueError):
        tb.Table(((0, 2), (1, 0)))
    with pytest.raises(ValueError):
        cg.Partition(())
    with pytest.raises(ValueError):
        cg.FiniteMap(2, 2, (0,))
    with pytest.raises(ValueError):
        la.PrincipalSubmodule(la.ZERO)
    with pytest.raises(ValueError):
        sh.NormalForm("c", 1)
    with pytest.raises(ValueError):
        wa.Weight(0)
    with pytest.raises(ValueError):
        wa.SubgroupDescriptor("scaled", F(-1))


@pytest.mark.parametrize("build, fields, repr_", [
    CASES[IDS.index("QuotientRack")], CASES[IDS.index("Witnesses")],
], ids=["QuotientRack", "Witnesses"])
def test_generic_constructor_names_the_fields_of_a_bad_call(build, fields, repr_):
    cls, values = type(build()), list(fields.values())
    first = next(iter(fields))
    names = f"{cls.__name__}({', '.join(fields)})"
    calls = [
        (values + [None], {}),           # one positional argument too many
        (values, {"extra": None}),       # an unknown keyword
        (values, {first: values[0]}),    # a field by position and by name
        (values[:-1], {}),               # a missing field
    ]
    for args, kwargs in calls:
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        assert str(info.value).startswith(names)
    assert cls(*values[:1], **dict(list(fields.items())[1:])) == build()


@pytest.mark.parametrize("flags", [(True, True, True, False, False),
                                   (False, True, True, True, True)])
def test_axiom_report_asserts_its_flags_agree(flags):
    with pytest.raises(AssertionError):
        tb.AxiomReport(*flags)
