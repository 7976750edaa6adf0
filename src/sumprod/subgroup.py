"""Multiplicative subgroups of F_p* and their cosets.

F_p* is cyclic, so there is exactly one subgroup per divisor of p - 1; each
is generated by g^((p-1)/d) for the canonical (smallest) primitive root g.
G is the kernel of x -> x^|G|, so the key v^|G| mod p, found in
O(log |G|), says which coset v lies in.  The key is a coset's identity:
two Cosets are equal exactly when they share the subgroup and the key, and
membership in a subgroup or a coset is read from it.  A Coset keeps the
member it was built from; its smallest member, which names it in every
partition, message and repr, and its element list are computed on first
use.
"""

from __future__ import annotations

import functools
from typing import Iterable

from ._record import record
from .errors import ZeroValue
from .field import Prime, _primitive_root_int, divisors


@record
class Subgroup:
    """The order-d subgroup of F_p*, given by a generator."""

    prime: Prime
    order: int
    generator: int

    @property
    def p(self) -> int:
        return self.prime.p

    @functools.cached_property
    def elements(self) -> tuple[int, ...]:
        """Every member, ascending, from the powers of the generator."""
        p, g = self.p, self.generator
        elems = [1]
        acc = g
        while acc != 1:
            elems.append(acc)
            acc = acc * g % p
        assert len(elems) == self.order
        return tuple(sorted(elems))

    def __contains__(self, v: int) -> bool:
        return 0 < v < self.p and pow(v, self.order, self.p) == 1

    def __len__(self) -> int:
        return self.order


def subgroup_of_order(prime: Prime, d: int) -> Subgroup:
    """The unique subgroup with |G| = d; requires d | p - 1."""
    p = prime.p
    if d < 1 or (p - 1) % d != 0:
        raise ValueError(f"order {d} does not divide p - 1 = {p - 1}")
    return Subgroup(prime, d, pow(_primitive_root_int(p), (p - 1) // d, p))


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


@record
class Coset:
    """The coset v * G for any nonzero v.

    It keeps v mod p as `member` and compares and hashes by (subgroup, key),
    the key being v^|G| mod p, so Cosets built from any two members of one
    coset are equal.  `representative`, the smallest member, and the sorted
    `members` are computed on first read.
    """

    subgroup: Subgroup
    representative: int  # read-only: the smallest member, see below

    def __init__(self, subgroup: Subgroup, representative: int):
        p = subgroup.p
        v = representative % p
        if v == 0:
            raise ZeroValue("0 belongs to no multiplicative coset")
        self.__dict__.update(subgroup=subgroup, member=v, key=pow(v, subgroup.order, p))

    def __eq__(self, other):
        if other.__class__ is Coset:
            return self.key == other.key and self.subgroup == other.subgroup
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.subgroup, self.key))

    @functools.cached_property
    def representative(self) -> int:
        p, v = self.subgroup.p, self.member
        return min(v * g % p for g in self.subgroup.elements)

    @functools.cached_property
    def members(self) -> tuple[int, ...]:
        p, v = self.subgroup.p, self.member
        return tuple(sorted(v * g % p for g in self.subgroup.elements))

    def __contains__(self, w: int) -> bool:
        """By the key: w lies in the coset when w^|G| = member^|G|."""
        p = self.subgroup.p
        return 0 < w < p and pow(w, self.subgroup.order, p) == self.key

    def __len__(self) -> int:
        return self.subgroup.order


def coset_of(v: int, G: Subgroup) -> Coset:
    """The coset containing v; rejects 0, which lies in no coset."""
    return Coset(G, v)


@record
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
    key v^|G| mod p, and each row is named by its Coset's representative.
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
    rows = sorted((Coset(G, min(vs)).representative, tuple(sorted(vs))) for vs in by_key.values())
    return CosetPartition(tuple(rows), zero_seen)
