"""Multiplicative subgroups of F_p* and their cosets.

F_p* is cyclic, so there is exactly one subgroup per divisor of p - 1; each
is generated by g^((p-1)/d) for the canonical (smallest) primitive root g.
Cosets are named by their smallest member, which makes every partition and
report deterministic.  Where only coset identity matters, v^|G| mod p is an
O(log |G|) key: G is the kernel of x -> x^|G|, so v and w share a coset
exactly when their keys agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable

from .errors import ZeroValue
from .field import Prime, _primitive_root_int, divisors


@dataclass(frozen=True)
class Subgroup:
    """The order-d subgroup of F_p*, with an O(1) membership set."""

    prime: Prime
    order: int
    generator: int
    elements: tuple[int, ...]  # ascending
    member_set: frozenset[int] = dc_field(repr=False, compare=False, default=frozenset())

    def __post_init__(self):
        if not self.member_set:
            object.__setattr__(self, "member_set", frozenset(self.elements))

    @property
    def p(self) -> int:
        return self.prime.p

    def __contains__(self, v: int) -> bool:
        return v in self.member_set

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"Subgroup(p={self.p}, order={self.order}, generator={self.generator})"


def subgroup_of_order(prime: Prime, d: int) -> Subgroup:
    """The unique subgroup with |G| = d; requires d | p - 1."""
    p = prime.p
    if d < 1 or (p - 1) % d != 0:
        raise ValueError(f"order {d} does not divide p - 1 = {p - 1}")
    g = pow(_primitive_root_int(p), (p - 1) // d, p)
    elems = [1]
    acc = g
    while acc != 1:
        elems.append(acc)
        acc = acc * g % p
    assert len(elems) == d
    return Subgroup(prime, d, g, tuple(sorted(elems)))


def enumerate_subgroups(prime: Prime) -> list[Subgroup]:
    """All subgroups of F_p*, ascending by order (one per divisor of p-1)."""
    return [subgroup_of_order(prime, d) for d in divisors(prime.p - 1)]


def in_admitted_window(d: int, n: int, p: int) -> bool:
    """Size window for degree-n instances: 100 n^3 < d and d < sqrt(p)/3.

    Both comparisons are exact on integers (the square root never gets
    evaluated: the right inequality is 9 d^2 < p).
    """
    return 100 * n**3 < d and 9 * d * d < p


def is_admitted(G: Subgroup, n: int) -> bool:
    """Whether |G| lies in the degree-n window (see in_admitted_window)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return in_admitted_window(G.order, n, G.p)


@dataclass(frozen=True)
class Coset:
    """A multiplicative coset v * H, named by its smallest member, where H
    is the subgroup of order len(members).

    Construction checks that the members are one such coset: d = |members|
    ascending nonzero residues, d | p - 1, and one common d-th power (H is
    the kernel of x -> x^d, and each of its cosets has exactly d elements).
    F_p* has one subgroup per order, so the prime and the length alone say
    which subgroup a Coset belongs to.  coset_of builds through a trusted
    path that skips the check.
    """

    prime: Prime
    representative: int
    members: tuple[int, ...]  # ascending
    member_set: frozenset[int] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, m = self.prime.p, self.members
        d = len(m)
        if not (
            d
            and (p - 1) % d == 0
            and m[0] == self.representative
            and 0 < m[0]
            and m[-1] < p
            and all(a < b for a, b in zip(m, m[1:]))
            and len({pow(v, d, p) for v in m}) == 1
        ):
            rep = self.representative
            raise ValueError(f"coset of {rep} is not a coset of a subgroup of F_{p}*")
        object.__setattr__(self, "member_set", frozenset(m))

    def __contains__(self, v: int) -> bool:
        return v in self.member_set

    def __len__(self) -> int:
        return len(self.members)


def coset_of(v: int, G: Subgroup) -> Coset:
    """The coset containing v; rejects 0, which lies in no coset."""
    p = G.p
    v %= p
    if v == 0:
        raise ZeroValue("0 belongs to no multiplicative coset")
    members = tuple(sorted(v * g % p for g in G.elements))
    c = object.__new__(Coset)  # v * G is a coset by construction: skip the check
    object.__setattr__(c, "prime", G.prime)
    object.__setattr__(c, "representative", members[0])
    object.__setattr__(c, "members", members)
    object.__setattr__(c, "member_set", frozenset(members))
    return c


@dataclass(frozen=True)
class CosetPartition:
    """Rows (representative, values-from-the-input-in-that-coset), plus a
    flag for any zeros that were set aside."""

    rows: tuple[tuple[int, tuple[int, ...]], ...]
    zero_present: bool

    def __len__(self) -> int:
        return len(self.rows)


def coset_partition(values: Iterable[int], G: Subgroup) -> CosetPartition:
    """Group the given values by coset, rows ascending by representative.

    Zero cannot be placed (it is absorbed by every multiplication) and is
    reported via the flag instead of a row.  Values are grouped by the coset
    key v^|G| mod p, and each row's smallest member is found once.
    """
    p = G.p
    zero_seen = False
    by_key: dict[int, set[int]] = {}
    for v in values:
        v %= p
        if v == 0:
            zero_seen = True
            continue
        by_key.setdefault(pow(v, G.order, p), set()).add(v)
    rows = []
    for vs in by_key.values():
        members = tuple(sorted(vs))
        rows.append((min(members[0] * g % p for g in G.elements), members))
    rows.sort()
    return CosetPartition(tuple(rows), zero_seen)
