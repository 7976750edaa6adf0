import random

import pytest
from hypothesis import given, settings, strategies as st

from sumprod.bounds import verify_image_lower_bound
from sumprod.errors import SizeBudget, ZeroValue
from sumprod.field import divisors, make_prime
from sumprod.poly import parse_bipoly
from sumprod.subgroup import (
    Coset,
    coset_of,
    coset_partition,
    enumerate_subgroups,
    is_admitted,
    subgroup_of_order,
)

P13 = make_prime(13)


def test_orders_are_divisors():
    subs = enumerate_subgroups(P13)
    assert [G.order for G in subs] == [1, 2, 3, 4, 6, 12]
    subs5 = enumerate_subgroups(make_prime(5))
    assert [G.order for G in subs5] == [1, 2, 4]


def test_order_three_elements():
    G = subgroup_of_order(P13, 3)
    assert G.elements == (1, 3, 9)
    assert 9 in G and 2 not in G
    assert len(G) == 3


def test_bad_order_rejected():
    with pytest.raises(ValueError):
        subgroup_of_order(P13, 5)
    with pytest.raises(ValueError):
        subgroup_of_order(P13, 0)


def test_closure_small_primes():
    # exhaustive: every subgroup of every F_p* with p <= 500 really is closed
    # under multiplication and inversion, and is exactly the claimed set
    for p in range(3, 500):
        try:
            prime = make_prime(p)
        except Exception:
            continue
        for G in enumerate_subgroups(prime):
            members = set(G.elements)
            assert len(members) == G.order
            products = {a * b % p for a in members for b in members}
            assert products == members
            assert {pow(a, p - 2, p) for a in members} == members


def test_elements_sorted_and_start_at_one():
    for d in divisors(12):
        G = subgroup_of_order(P13, d)
        assert G.elements[0] == 1
        assert list(G.elements) == sorted(G.elements)


def test_is_admitted_examples():
    G50 = subgroup_of_order(make_prime(101), 50)
    assert not is_admitted(G50, 1)  # 100 * 1 >= 50
    G12 = subgroup_of_order(P13, 12)
    assert not is_admitted(G12, 1)  # size fine is false: 100 < 12 fails
    with pytest.raises(ValueError):
        is_admitted(G12, 0)


def test_is_admitted_derived_instance():
    # smallest prime p = 1 (mod 101) with 9 * 101^2 < p
    d = 101
    p = 91810
    while True:
        if p % d == 1:
            try:
                prime = make_prime(p)
                break
            except Exception:
                pass
        p += 1
    G = subgroup_of_order(prime, d)
    assert is_admitted(G, 1)
    assert not is_admitted(G, 2)  # 100 * 8 = 800 > 101


def test_admitted_monotone_in_p():
    # same order, bigger modulus: admission can only switch off->on
    d = 101
    small = None
    for p in range(2 * d + 1, 400000, d):
        try:
            prime = make_prime(p)
        except Exception:
            continue
        G = subgroup_of_order(prime, d)
        ok = is_admitted(G, 1)
        if small is None:
            small = ok
        if ok:
            small = True
        elif small is True:
            pytest.fail(f"admission flipped back off at p={p}")


def test_coset_examples():
    G = subgroup_of_order(P13, 3)
    c = coset_of(6, G)
    assert c.representative == 2
    assert c.members == (2, 5, 6)
    assert coset_of(1, G).members == (1, 3, 9)
    assert coset_of(7, G).members == (7, 8, 11)
    with pytest.raises(ZeroValue):
        coset_of(0, G)
    with pytest.raises(ZeroValue):
        coset_of(13, G)


def test_hand_built_cosets_are_checked():
    G3 = subgroup_of_order(P13, 3)
    assert Coset(G3, 2) == coset_of(2, G3)
    built = Coset(G3, 6)  # any member names the coset; it keeps the smallest
    assert built.representative == 2 and built.members == (2, 5, 6)
    assert Coset(G3, 6 + 13) == Coset(G3, 6 - 13) == built
    # 2, 3 and 5 are three residues but not one coset of the order-3 subgroup
    assert {Coset(G3, v).representative for v in (2, 3, 5)} == {1, 2}
    whole = Coset(subgroup_of_order(P13, 12), 7)
    assert whole.representative == 1 and whole.members == tuple(range(1, 13))
    assert all(v in whole for v in range(1, 13)) and len(whole) == 12


def test_coset_rejects_zero():
    G = subgroup_of_order(P13, 3)
    for v in (0, 13, -13):
        with pytest.raises(ZeroValue):
            Coset(G, v)


def test_key_membership_matches_element_lists():
    # v in G and v in C come from keys; the element lists are the reference,
    # including the out-of-range -2, -1, 0, p and p + 1
    for p in range(3, 60):
        try:
            prime = make_prime(p)
        except Exception:
            continue
        for G in enumerate_subgroups(prime):
            elements = set(G.elements)
            assert [v for v in range(-2, p + 2) if v in G] == sorted(elements)
            for C in {Coset(G, v) for v in range(1, p)}:
                members = set(C.members)
                assert len(members) == len(C) == G.order
                assert [v for v in range(-2, p + 2) if v in C] == sorted(members), (p, G, C)


def test_coset_is_the_same_from_every_member():
    for p in (13, 31, 61):
        for G in enumerate_subgroups(make_prime(p)):
            for v in range(1, p):
                C = Coset(G, v)
                assert C.representative == min(C.members)
                twins = [Coset(G, w) for w in C.members]
                assert all(t == C and t.representative == C.representative for t in twins)
                assert len(set(twins)) == 1


def test_budget_records_never_build_elements():
    # |G|^2 is over the pair budget, so the verdict stops before any element
    prime = make_prime(811_501)
    G = subgroup_of_order(prime, prime.p - 1)
    with pytest.raises(SizeBudget):
        verify_image_lower_bound(parse_bipoly("x+y", prime), G)
    assert "elements" not in vars(G)
    assert 2 in G and prime.p not in G


def test_partition_examples():
    G = subgroup_of_order(P13, 3)
    part = coset_partition([2, 5, 7, 0], G)
    assert part.zero_present
    assert [(rep, vals) for rep, vals in part.rows] == [(2, (2, 5)), (7, (7,))]

    whole = coset_partition(G.elements, G)
    assert not whole.zero_present
    assert whole.rows == ((1, (1, 3, 9)),)

    just_zero = coset_partition([0], G)
    assert just_zero.zero_present and just_zero.rows == ()


@settings(max_examples=120)
@given(data=st.data())
def test_partition_properties(data):
    p = data.draw(st.sampled_from([7, 13, 31]))
    prime = make_prime(p)
    d = data.draw(st.sampled_from(divisors(p - 1)))
    G = subgroup_of_order(prime, d)
    values = data.draw(
        st.lists(st.integers(min_value=0, max_value=p - 1), min_size=0, max_size=25)
    )
    part = coset_partition(values, G)
    distinct = {v % p for v in values}
    rebuilt = set()
    for rep, vals in part.rows:
        assert len(vals) <= G.order
        assert all(v in coset_of(rep, G).members for v in vals)
        assert rep == min(coset_of(rep, G).members)
        assert not (rebuilt & set(vals))
        rebuilt |= set(vals)
    assert rebuilt == distinct - {0}
    assert part.zero_present == (0 in distinct)
    reps = [rep for rep, _ in part.rows]
    assert reps == sorted(reps)


def _partition_per_value(values, G):
    """The per-value definition: each value named by min(v*g) over G."""
    p = G.p
    by_rep: dict[int, set[int]] = {}
    for v in values:
        v %= p
        if v:
            by_rep.setdefault(min(v * g % p for g in G.elements), set()).add(v)
    return tuple((rep, tuple(sorted(by_rep[rep]))) for rep in sorted(by_rep))


def test_partition_matches_per_value_definition():
    rng = random.Random(29)
    for p in (3, 13, 31, 97, 211, 1009):
        prime = make_prime(p)
        for G in enumerate_subgroups(prime):
            for _ in range(3):
                values = [rng.randrange(-p, 2 * p) for _ in range(rng.randrange(0, 60))]
                part = coset_partition(values, G)
                assert part.rows == _partition_per_value(values, G), (p, G.order)
                assert part.zero_present == any(v % p == 0 for v in values)
