"""Multiplicative subgroups of F_p* and their cosets.

F_p* is cyclic, so there is exactly one subgroup per divisor of p - 1; each
is generated by g^((p-1)/d) for the canonical (smallest) primitive root g.
G is the kernel of x -> x^|G|, so the key v^|G| mod p, found in
O(log |G|), says which coset v lies in: membership in a subgroup or a
coset comes from the key, and element lists are built on first use.
Cosets are named by their smallest member, which makes every partition and
report deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .errors import ZeroValue
from .field import Prime, _primitive_root_int, divisors


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Coset:
    """The coset v * G for any nonzero v, named by its smallest member.

    Construction replaces v by that member, so two Cosets are equal exactly
    when they are the same coset of the same subgroup.  The sorted members
    are built on first use.
    """

    subgroup: Subgroup
    representative: int

    def __post_init__(self):
        G = self.subgroup
        p, v = G.p, self.representative % G.p
        if v == 0:
            raise ZeroValue("0 belongs to no multiplicative coset")
        object.__setattr__(self, "representative", min(v * g % p for g in G.elements))

    @functools.cached_property
    def members(self) -> tuple[int, ...]:
        p, rep = self.subgroup.p, self.representative
        return tuple(sorted(rep * g % p for g in self.subgroup.elements))

    def __contains__(self, w: int) -> bool:
        """By the key: w lies in the coset when w^|G| = representative^|G|."""
        p, d = self.subgroup.p, self.subgroup.order
        return 0 < w < p and pow(w, d, p) == pow(self.representative, d, p)

    def __len__(self) -> int:
        return self.subgroup.order


def coset_of(v: int, G: Subgroup) -> Coset:
    """The coset containing v; rejects 0, which lies in no coset."""
    return Coset(G, v)


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
