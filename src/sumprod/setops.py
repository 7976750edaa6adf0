"""Exact set-valued computations: polynomial images, sumsets, shifted
intersections, simultaneous-coset fiber sets, and pair counts over G x G.

Everything here is exact — no sampling, no probabilistic shortcuts.
Counts over G x G of a nonzero homogeneous P of degree n (image size, zero
pairs, level pairs) take O(|G|) work: P(a, a*t) = a^n * P(1, t), and
(a, a*t) runs over G x G as (a, t) does, so every value is P(1, t) times an
element of H = {a^n : a in G}.  H has order k = |G|/gcd(n, |G|) and is the
kernel of v -> v^k, so nonzero values lie in one H-coset exactly when their
k-th powers agree; the counts follow from the k-th powers of the |G| values
P(1, t) (see _homogeneous_keys), in plain Python ints.  shift_intersection
is one such count: |G ∩ (G + mu)| is read from the key histogram of x - y
(shift_histogram).  fiber_set walks the coset preimages of a family's
linear members, also in Python ints.  Everything else is full
enumeration: the grid kernels (image, and sumset through it, counts of
non-homogeneous P) and the F_p scan of a family with no linear member
import numpy on first use and work in fixed-size chunks on one path for
every prime; only the dtype depends on p: uint64 below 2^32, where every
product plus a residue, (p-1)^2 + (p-1), fits, and object (Python ints)
from 2^32 up.  Sets are deduplicated by sorting.  Budgets cap pairs (or
scanned points), not answers.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from collections import Counter
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ._record import record
from .errors import (
    CosetCollision,
    LengthMismatch,
    SizeBudget,
    ZeroLevel,
    ZeroPolynomial,
    ZeroShift,
)
from .field import Prime
from .poly import BiPoly, UniPoly
from .subgroup import Coset, Subgroup

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_PAIRS = 10**8
_CHUNK = 1 << 22


@record
class ValueSet:
    """A subset of F_p as a sorted, deduplicated tuple of residues."""

    prime: Prime
    members: tuple[int, ...]

    def __post_init__(self):
        p = self.prime.p
        prev = -1
        for v in self.members:
            if not 0 <= v < p:
                raise ValueError(f"value {v} out of range for p={p}")
            if v <= prev:
                raise ValueError("members must be strictly ascending")
            prev = v

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v: int) -> bool:
        i = bisect_left(self.members, v)
        return i < len(self.members) and self.members[i] == v


def value_set(prime: Prime, values: Iterable[int]) -> ValueSet:
    """Build a ValueSet from any iterable, reducing mod p and deduplicating."""
    p = prime.p
    return ValueSet(prime, tuple(sorted({v % p for v in values})))


@record
class PairCount:
    """Level-set pair counts over G x G; total is the sum of the levels."""

    total: int
    per_level: dict[int, int]

    def __post_init__(self):
        if self.total != sum(self.per_level.values()):
            raise ValueError("total does not match per-level sum")


def _same_prime(*objs) -> Prime:
    primes = {o.prime.p for o in objs}
    if len(primes) != 1:
        raise ValueError(f"mixed primes {sorted(primes)}")
    return objs[0].prime


def _trusted_value_set(prime: Prime, members: list[int]) -> ValueSet:
    """ValueSet from ascending, duplicate-free residues, not re-validated."""
    vs = object.__new__(ValueSet)
    object.__setattr__(vs, "prime", prime)
    object.__setattr__(vs, "members", tuple(members))
    return vs


def _dtype(p: int):
    import numpy as np

    return np.uint64 if p < 1 << 32 else object


def _distinct(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Distinct entries of all chunks, ascending, by sorting; each chunk is
    thinned as it arrives, so memory follows the answer, not the pair count."""
    import numpy as np

    parts = []
    for c in chunks:
        v = np.sort(c, axis=None)
        parts.append(np.concatenate((v[:1], v[1:][v[1:] != v[:-1]])))
    return parts[0] if len(parts) == 1 else _distinct([np.concatenate(parts)])


def _pow_table(arr: np.ndarray, max_exp: int, p: int) -> list[np.ndarray]:
    """[arr^0, arr^1, ..., arr^max_exp] reduced mod p."""
    import numpy as np

    out = [np.ones_like(arr)]
    for _ in range(max_exp):
        out.append(out[-1] * arr % p)
    return out


def _eval_grid(P: BiPoly, ablock: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """P(a, b) over the outer grid ablock x b, mod p, in the inputs' dtype."""
    import numpy as np

    apw = _pow_table(ablock, max(P.deg_x, 0), p)
    bpw = _pow_table(b, max(P.deg_y, 0), p)
    acc = np.zeros((len(ablock), len(b)), dtype=ablock.dtype)
    for (i, j), c in P.coeffs.items():
        acc = (acc + c * (apw[i][:, None] * bpw[j][None, :] % p)) % p
    return acc


def _grid_blocks(avals: Sequence[int], bvals: Sequence[int], p: int):
    """Yield (a-block, b-array) pairs covering the full grid, <= _CHUNK cells each."""
    import numpy as np

    dtype = _dtype(p)
    b = np.asarray(bvals, dtype=dtype)
    rows = max(1, _CHUNK // max(1, len(b)))
    a = np.asarray(avals, dtype=dtype)
    for start in range(0, max(1, len(a)), rows):  # empty avals: one empty block
        yield a[start : start + rows], b


def _eval_blocks(P: BiPoly, avals: Sequence[int], bvals: Sequence[int], p: int):
    """P over the grid avals x bvals, one evaluated block at a time."""
    return (_eval_grid(P, ablock, b, p) for ablock, b in _grid_blocks(avals, bvals, p))


def _homogeneous_degree(P: BiPoly) -> int | None:
    """The total degree of a nonzero homogeneous P; None for any other P."""
    if not P.coeffs:
        return None
    homogeneous, n = P.homogeneity()
    return n if homogeneous else None


def _homogeneous_keys(P: BiPoly, G: Subgroup, n: int) -> tuple[int, int, Counter]:
    """(e, zeros, keys) for P homogeneous of degree n over G x G.

    e = gcd(n, |G|); zeros counts the t in G with P(1, t) = 0; keys counts
    the coset keys v^k mod p, k = |G|/e, of the nonzero v = P(1, t).  Each
    t contributes the values P(a, a*t) = a^n * v, a in G: that is 0 |G|
    times when v = 0, and otherwise every element of the coset v*H,
    H = {a^n : a in G} of order k, e times each.  Two cosets v*H and w*H
    agree exactly when v^k = w^k, because H is the kernel of x -> x^k.
    """
    p = G.p
    e = math.gcd(n, G.order)
    k = G.order // e
    values = list(map(P.subst_x(1), G.elements))
    return e, values.count(0), Counter([pow(v, k, p) for v in values if v])


def image(P: BiPoly, A: ValueSet, B: ValueSet, *, max_pairs: int = DEFAULT_MAX_PAIRS) -> ValueSet:
    """{P(a, b) : a in A, b in B}, by evaluating every pair."""
    prime = _same_prime(A, B)
    if P.p != prime.p:
        raise ValueError("polynomial and sets use different primes")
    n_pairs = len(A) * len(B)
    if n_pairs > max_pairs:
        raise SizeBudget(f"|A|*|B| = {n_pairs} exceeds budget {max_pairs}")
    return _trusted_value_set(
        prime, _distinct(_eval_blocks(P, A.members, B.members, prime.p)).tolist()
    )


def image_size(P: BiPoly, G: Subgroup, *, max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """|P(G, G)|: by the coset keys of P(1, t) for nonzero homogeneous P,
    otherwise by evaluating every pair.

    For homogeneous P the image is {0} when some P(1, t) is 0, plus one
    coset of order k = |G|/gcd(n, |G|) per distinct key (_homogeneous_keys).
    The pair budget applies either way, as it does for image(G, G).
    """
    if P.p != G.p:
        raise ValueError("polynomial and subgroup use different primes")
    n_pairs = G.order * G.order
    if n_pairs > max_pairs:  # image()'s message, which t2 budget records carry
        raise SizeBudget(f"|A|*|B| = {n_pairs} exceeds budget {max_pairs}")
    n = _homogeneous_degree(P)
    if n is None:
        return len(_distinct(_eval_blocks(P, G.elements, G.elements, G.p)))
    e, zeros, keys = _homogeneous_keys(P, G, n)
    return int(zeros > 0) + G.order // e * len(keys)


def sumset(A: ValueSet, B: ValueSet, sign: int = 1) -> ValueSet:
    """A + B or A - B mod p: the image of x + sign*y, under the default pair
    budget."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return image(BiPoly(A.prime.p, {(1, 0): 1, (0, 1): sign}), A, B)


@functools.lru_cache(maxsize=32)
def shift_histogram(G: Subgroup) -> Mapping[int, int]:
    """|G ∩ (G + mu)| by the coset key mu^|G| mod p, for the keys that count
    at least 1: the key histogram of the form x - y over G x G
    (_homogeneous_keys with n = 1, so e = 1 and k = |G|).

    g and g - mu both lie in G exactly when mu = g * (1 - t) for some
    t = (g - mu)/g in G other than 1, and then g = mu/(1 - t); so the count
    is the number of t != 1 in G with 1 - t in the coset mu*G, that is with
    (1 - t)^|G| = mu^|G|.  Built once per subgroup and shared, so the
    mapping is read-only.
    """
    keys = _homogeneous_keys(BiPoly(G.p, {(1, 0): 1, (0, 1): -1}), G, 1)[2]
    return MappingProxyType(keys)


def shift_intersection(G: Subgroup, mu: int) -> int:
    """|G ∩ (G + mu)| — how many g in G have g - mu also in G, read from
    shift_histogram(G) at the key mu^|G| mod p."""
    p = G.p
    mu %= p
    if mu == 0:
        raise ZeroShift("shift must be nonzero")
    return shift_histogram(G).get(pow(mu, G.order, p), 0)


def _walk_fiber(fs: Sequence[UniPoly], cosets: Sequence[Coset], p: int) -> list[int]:
    """The fiber, ascending, from the coset preimages of the linear members
    (the family must have one).

    A linear f = a*x + b maps onto the coset r*G from exactly the preimage
    {(r*g - b) * a^-1 : g in G}, for any member r of the coset.  The fiber
    is the intersection of those preimages, kept where every other f_j(x)
    lies in the j-th coset.
    """
    linear = [i for i, f in enumerate(fs) if f.degree == 1]
    preimages = []
    for i in linear:
        inv = pow(fs[i].coeffs[1], -1, p)
        s = cosets[i].member * inv % p  # (r*g - b) * a^-1 = s*g - t
        t = fs[i].coeffs[0] * inv % p
        preimages.append({(s * g - t) % p for g in cosets[i].subgroup.elements})
    fiber = set.intersection(*preimages)
    rest = [(fs[j], cosets[j]) for j in range(len(fs)) if j not in linear]
    if rest:
        fiber = {x for x in fiber if all(f(x) in c for f, c in rest)}
    return sorted(fiber)


def _scan_fiber(fs: Sequence[UniPoly], cosets: Sequence[Coset], p: int) -> list[int]:
    """The fiber, ascending, by testing every x in F_p in numpy chunks."""
    import numpy as np

    dtype = _dtype(p)
    member_arrs = [np.asarray(c.members, dtype=dtype) for c in cosets]
    hits: list[np.ndarray] = []
    for start in range(0, p, _CHUNK):
        xs = np.arange(start, min(start + _CHUNK, p), dtype=dtype)
        mask = np.ones(len(xs), dtype=bool)
        for f, members in zip(fs, member_arrs):
            vals = np.zeros_like(xs)
            for c in reversed(f.coeffs):
                vals = (vals * xs + c) % p
            idx = np.searchsorted(members, vals)
            idx = np.minimum(idx, len(members) - 1)
            mask &= members[idx] == vals
            if not mask.any():
                break
        hits.append(xs[mask])
    return np.concatenate(hits).tolist()


def fiber_set(
    fs: Sequence[UniPoly], cosets: Sequence[Coset], *, max_pairs: int = DEFAULT_MAX_PAIRS
) -> ValueSet:
    """{x in F_p : f_i(x) lies in the i-th coset for every i}.

    A family with a linear member is walked from its coset preimages
    (_walk_fiber): O(sum of the coset sizes) work in Python ints, at any
    prime.  A family with none is scanned over all of F_p with numpy
    (_scan_fiber), and its p points count against max_pairs.
    """
    if len(fs) == 0 or len(fs) != len(cosets):
        raise LengthMismatch(f"{len(fs)} polynomials vs {len(cosets)} cosets")
    primes = {f.p for f in fs} | {c.subgroup.p for c in cosets}
    if len(primes) != 1:
        raise ValueError(f"mixed primes {sorted(primes)}")
    p = primes.pop()
    prime = cosets[0].subgroup.prime
    if any(f.degree == 1 for f in fs):
        return _trusted_value_set(prime, _walk_fiber(fs, cosets, p))
    if p > max_pairs:
        raise SizeBudget(f"scan of {p} points exceeds budget {max_pairs}")
    return _trusted_value_set(prime, _scan_fiber(fs, cosets, p))


def count_zero_pairs(P: BiPoly, G: Subgroup, *, max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """|{(a, b) in G x G : P(a, b) = 0}|.

    Homogeneous P of degree n satisfies P(a, a*t) = a^n P(1, t), so the
    count collapses to |G| * #{t in G : P(1,t) = 0} — no G x G enumeration
    and hence no pair budget.  Anything else is counted by brute force under
    the budget.
    """
    if not P.coeffs:
        raise ZeroPolynomial("cannot count zeros of the zero polynomial")
    if P.p != G.p:
        raise ValueError("polynomial and subgroup use different primes")
    n = _homogeneous_degree(P)
    if n is not None:
        _, zeros, _ = _homogeneous_keys(P, G, n)
        return G.order * zeros
    n_pairs = G.order * G.order
    if n_pairs > max_pairs:
        raise SizeBudget(f"|G|^2 = {n_pairs} exceeds budget {max_pairs}")
    return sum(int((grid == 0).sum()) for grid in _eval_blocks(P, G.elements, G.elements, G.p))


def count_level_pairs(
    P: BiPoly, G: Subgroup, alphas: ValueSet, *, max_pairs: int = DEFAULT_MAX_PAIRS
) -> PairCount:
    """Per-level counts of {(a, b) in G x G : P(a, b) = alpha_k}.

    The levels must be nonzero and pairwise in distinct G-cosets; both
    conditions are validated up front because the bounds quantified over
    these counts assume them.  For nonzero homogeneous P the count at a
    level alpha is e * #{t in G : P(1, t)^k = alpha^k}, with e and k as in
    _homogeneous_keys: each such t has exactly e solutions a in G of
    a^n * P(1, t) = alpha.  Any other P is evaluated over every pair.
    """
    if P.p != G.p or alphas.prime.p != G.p:
        raise ValueError("mixed primes")
    p = G.p
    by_key: dict[int, int] = {}  # coset key a^|G| -> level
    for a in alphas:
        if a == 0:
            raise ZeroLevel("level values must be nonzero")
        key = pow(a, G.order, p)
        if key in by_key:
            rep = Coset(G, a).representative
            raise CosetCollision(f"levels {by_key[key]} and {a} share the coset of {rep}")
        by_key[key] = a
    n_pairs = G.order * G.order
    if n_pairs > max_pairs:
        raise SizeBudget(f"|G|^2 = {n_pairs} exceeds budget {max_pairs}")
    if not alphas.members:
        return PairCount(0, {})
    n = _homogeneous_degree(P)
    if n is not None:
        e, _, keys = _homogeneous_keys(P, G, n)
        k = G.order // e
        per_level = {a: e * keys[pow(a, k, p)] for a in alphas}
        return PairCount(sum(per_level.values()), per_level)
    import numpy as np

    levels = np.asarray(alphas.members, dtype=_dtype(p))
    tallies = np.zeros(len(levels), dtype=np.int64)
    for grid in _eval_blocks(P, G.elements, G.elements, p):
        vals = grid.ravel()
        idx = np.searchsorted(levels, vals)
        idx = np.minimum(idx, len(levels) - 1)
        hit = levels[idx] == vals
        tallies += np.bincount(idx[hit], minlength=len(levels))
    per_level = {int(a): int(t) for a, t in zip(levels, tallies)}
    return PairCount(int(tallies.sum()), per_level)
