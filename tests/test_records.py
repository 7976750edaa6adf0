"""The frozen value records: construction, equality, hashing, repr and
immutability, class by class, with each class's field order pinned."""

import pickle
from fractions import Fraction

import pytest

from sumprod import bounds, field, poly, setops, subgroup, sweep
from sumprod._record import asdict, fields
from sumprod.errors import CompositeInput, ZeroValue

P13 = field.Prime(13)
G3 = subgroup.subgroup_of_order(P13, 3)
G4 = subgroup.subgroup_of_order(P13, 4)
UNI = poly.UniPoly(13, [2, 1])

# class, field names in order, two argument tuples that differ in one field
CASES = [
    (field.Prime, ("p",), (13,), (7,)),
    (subgroup.Subgroup, ("prime", "order", "generator"), (P13, 3, 3), (P13, 3, 9)),
    (subgroup.CosetPartition, ("rows", "zero_present"), (((1, (1, 3)),), False), (((1, (1, 3)),), True)),
    (setops.ValueSet, ("prime", "members"), (P13, (1, 2)), (P13, (1, 3))),
    (setops.PairCount, ("total", "per_level"), (3, {1: 3}), (3, {2: 3})),
    (poly.SquarefreeDecomposition, ("p", "scalar", "parts"), (13, 2, ((UNI, 1),)), (13, 2, ((UNI, 2),))),
    (poly.PowerForm, ("is_power", "exponent"), (True, 2), (True, 3)),
    (poly.GoodCheck, ("ok", "reason"), (False, "not-homogeneous"), (False, "vanishing-axes")),
    (poly.PermissibleCheck, ("ok", "failures"), (False, ((0, "constant"),)), (False, ((1, "constant"),))),
    (bounds.ImageBoundConstants, ("n", "c1", "c2", "c"), (1, 24, Fraction(1, 64000), 1 / 64000), (1, 24, Fraction(1, 64000), 0.5)),
    (bounds.FiberBoundConstants, ("n", "m", "c1", "c2", "c3"), (2, (1, 1), 16, 0.4, 24.0), (2, (1, 1), 16, 0.4, 25.0)),
    (
        bounds.Verdict,
        ("inequality", "premise_ok", "premise_reason", "lhs", "rhs", "holds", "borderline", "ratio"),
        ("gv", True, "", 2, 4.0, True, False, 0.5),
        ("gv", True, "", 2, 4.0, False, False, 0.5),
    ),
    (
        bounds.GrowthReport,
        ("order", "sum_size", "diff_size", "sum_over_pow43", "diff_over_pow43",
         "sum_log_over_pow53", "diff_log_over_pow53", "sum_over_pow32", "diff_over_pow32"),
        (4, 9, 10, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5),
        (4, 9, 11, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5),
    ),
    (
        bounds.ExtractionCertificate,
        ("h", "k", "l", "guarantee", "dropped_leading", "dropped_constant", "picks", "kept_ys"),
        (3, 1, 1, 1, (), (), ((1, ()),), (1,)),
        (3, 1, 1, 1, (), (2,), ((1, ()),), (1,)),
    ),
    (bounds.ProbeConfig, ("delta", "epsilon"), (0.2, 0.1), (0.2, 0.3)),
    (
        bounds.FactorizationProbe,
        ("p", "order", "size_a", "size_b", "image_size", "is_representation", "exponent_a",
         "exponent_b", "in_band", "delta", "epsilon", "min_q"),
        (13, 4, 2, 2, 4, True, 0.5, 0.5, True, 0.2, 0.1, 3),
        (13, 4, 2, 2, 4, True, 0.5, 0.5, False, 0.2, 0.1, 3),
    ),
    (
        sweep.SweepConfig,
        ("inequality", "primes", "orders", "polys", "params", "seed", "max_pairs", "ext_elements", "jobs"),
        ("t2", (13,), "all", ("x+y",), {}, 0, 100, 1000, 1),
        ("t2", (13,), "all", ("x+y",), {}, 0, 100, 1000, 2),
    ),
]
UNHASHABLE = (setops.PairCount, sweep.SweepConfig)  # they hold a dict


@pytest.mark.parametrize("cls, names, a, b", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_semantics(cls, names, a, b):
    assert fields(cls) == names
    x, y = cls(*a), cls(**dict(zip(names, a)))
    assert x == y and not x != y
    assert x != cls(*b) and cls(*b) == cls(*b)
    assert x != a and x != None  # noqa: E711 - equality with other types
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y)
        assert len({x, y, cls(*b)}) == 2
    assert asdict(x) == dict(zip(names, a))
    shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, a))
    assert repr(x) == (f"{cls.__name__}({shown})" if cls is not field.Prime else "Prime(13)")
    with pytest.raises(AttributeError):
        setattr(x, names[0], a[0])
    with pytest.raises(AttributeError):
        x.other = 1
    with pytest.raises(AttributeError):
        delattr(x, names[0])
    assert pickle.loads(pickle.dumps(x)) == x
    with pytest.raises(TypeError):
        cls(*a, a[0])
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*a, **{names[0]: a[0]})
    with pytest.raises(TypeError):
        cls(**dict(zip(names, a)), unknown=1)


def test_records_keep_their_validation():
    with pytest.raises(TypeError, match="prime modulus must be an int"):
        field.Prime(13.0)
    with pytest.raises(ValueError, match=r"modulus must be an odd prime in \[3, 2\^64\): got 2"):
        field.Prime(2)
    with pytest.raises(CompositeInput, match="15 is not prime"):
        field.Prime(p=15)
    with pytest.raises(ValueError, match="value 13 out of range for p=13"):
        setops.ValueSet(P13, (1, 13))
    with pytest.raises(ValueError, match="members must be strictly ascending"):
        setops.ValueSet(prime=P13, members=(2, 2))
    with pytest.raises(ValueError, match="total does not match per-level sum"):
        setops.PairCount(4, {1: 3})
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
        bounds.ProbeConfig(1.0, 0.5)
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
        bounds.ProbeConfig(delta=0.5, epsilon=0.0)
    # the hand-built ValueSet of the kernels skips validation, not equality
    assert setops._trusted_value_set(P13, [1, 2]) == setops.ValueSet(P13, (1, 2))


def test_sweep_config_defaults():
    a = sweep.SweepConfig("t2", (13,), "all", ("x+y",))
    b = sweep.SweepConfig(inequality="t2", primes=(13,), orders="all", polys=("x+y",))
    assert a == b and a.params == {} and a.params is not b.params
    assert (a.seed, a.max_pairs, a.ext_elements, a.jobs) == (
        0, setops.DEFAULT_MAX_PAIRS, field.EXT_ELEMENT_BUDGET, 1
    )
    assert sweep.SweepConfig("t2", (13,), "all", ("x+y",), seed=5).seed == 5


def test_cosets_are_keyed_by_subgroup_and_key():
    for G in (G3, G4, subgroup.subgroup_of_order(P13, 12)):
        for v in range(1, 13):
            C = subgroup.Coset(G, v)
            assert C.member == v and C.key == pow(v, G.order, 13)
            for g in G.elements:
                twin = subgroup.Coset(subgroup=G, representative=v * g)
                assert twin == C and hash(twin) == hash(C)
                assert twin.representative == C.representative == min(C.members)
            assert repr(C) == f"Coset(subgroup={G!r}, representative={min(C.members)})"
    assert subgroup.Coset(G3, 1) != subgroup.Coset(G4, 1)
    assert subgroup.Coset(G3, 1) != subgroup.Coset(G3, 2)
    with pytest.raises(AttributeError):
        subgroup.Coset(G3, 1).member = 2
    with pytest.raises(ZeroValue):
        subgroup.coset_of(0, G3)


def test_cached_properties_fill_once():
    G = subgroup.Subgroup(P13, 3, 3)
    assert G.elements == (1, 3, 9) and G.elements is G.elements
    C = subgroup.Coset(G, 6)
    assert C.members == (2, 5, 6) and C.members is C.members
    assert G == subgroup.Subgroup(P13, 3, 3)  # cached values are no fields


def test_extra_fields_keep_their_order():
    assert sweep._EXTRA_FIELDS == {
        bounds.GrowthReport: (
            "sum_size", "diff_size", "sum_over_pow43", "diff_over_pow43",
            "sum_log_over_pow53", "diff_log_over_pow53", "sum_over_pow32", "diff_over_pow32",
        ),
        bounds.FactorizationProbe: (
            "size_a", "size_b", "image_size", "is_representation", "exponent_a", "exponent_b",
            "in_band", "delta", "epsilon", "min_q",
        ),
    }
