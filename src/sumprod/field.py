"""Exact arithmetic in F_p and in small extensions F_{p^d}.

Primes are certified at construction (deterministic Miller-Rabin, valid for
the whole supported 64-bit range), so everything downstream may assume
primality without re-checking.  Extension fields are table-driven: elements
are integer codes 0..p^d-1 encoding coefficient vectors in base p.  Every
F_{p^d}, d = 1 included, is reduced by its lexicographically smallest monic
primitive polynomial f, so t = x mod f generates the multiplicative group
and the exp table is the walk 1, t, t^2, ... built by multiplying by t.
Multiplication runs on exp/log tables and addition on Zech logarithms, all
of them Python lists, and each field records the smallest subfield holding
every code, so the exhaustive factor search in `poly` can skip codes no
root can take.  Everything here is plain Python ints; nothing loads numpy.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd

from ._record import record
from .errors import BudgetExceeded, CompositeInput, ZeroInverse

MAX_PRIME = 2**64 - 1
EXT_ELEMENT_BUDGET = 1 << 17
EXT_MAX_DEGREE = 6

# Deterministic witness set: correct for every n < 3.3 * 10^24 (covers 64 bits).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n <= 2**64 - 1."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@record
class Prime:
    """An odd prime modulus, certified on construction."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int):
            raise TypeError("prime modulus must be an int")
        if self.p < 3 or self.p > MAX_PRIME:
            raise ValueError(f"modulus must be an odd prime in [3, 2^64): got {self.p}")
        if not is_prime_u64(self.p):
            raise CompositeInput(f"{self.p} is not prime")

    def __int__(self) -> int:
        return self.p

    def __repr__(self) -> str:
        return f"Prime({self.p})"


def make_prime(n: int) -> Prime:
    """Certify n and wrap it.  Raises CompositeInput / ValueError."""
    return Prime(n)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n >= 1, ascending."""
    found: set[int] = set()
    stack = [n]
    while stack:
        m = stack.pop()
        if m < 2:
            continue
        if is_prime_u64(m):
            found.add(m)
            continue
        for q in (2, 3, 5, 7, 11, 13):
            if m % q == 0:
                found.add(q)
                while m % q == 0:
                    m //= q
                stack.append(m)
                break
        else:
            d = _pollard_rho(m)
            stack.extend((d, m // d))
    return tuple(sorted(found))


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    divs = [1]
    m = n
    for q in prime_factors(n):
        e = 0
        while m % q == 0:
            m //= q
            e += 1
        divs = [d * q**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


@lru_cache(maxsize=None)
def _cofactors(m: int) -> tuple[int, ...]:
    """m // r for each prime r dividing m: in a group of order m, x is a
    generator iff x^c != 1 for every such c."""
    return tuple(m // r for r in prime_factors(m))


def _is_primitive_root(g: int, p: int) -> bool:
    """g mod p generates F_p^*."""
    return g % p != 0 and all(pow(g, c, p) != 1 for c in _cofactors(p - 1))


@lru_cache(maxsize=None)
def _primitive_root_int(p: int) -> int:
    """The smallest generator of F_p^*."""
    return next(g for g in range(2, p) if _is_primitive_root(g, p))


def _is_primitive(f: tuple[int, ...], p: int) -> bool:
    """t = x mod the monic f of degree d over F_p has order exactly p^d - 1;
    powers of t are taken on coefficient lists, low degree first."""
    d = len(f) - 1
    one = [1] + [0] * (d - 1)

    def times(a: list[int], b: list[int]) -> list[int]:
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        for k in range(2 * d - 2, d - 1, -1):  # t^k = -t^(k-d) (f_0 + ... + f_(d-1) t^(d-1))
            top = prod.pop()
            for j in range(d):
                prod[k - d + j] -= top * f[j]
        return [c % p for c in prod]

    def power(e: int) -> list[int]:
        acc, base = one, ([-f[0] % p] if d == 1 else [0, 1] + [0] * (d - 2))
        for bit in bin(e)[2:]:
            acc = times(acc, acc)
            if bit == "1":
                acc = times(acc, base)
        return acc

    return power(p**d - 1) == one and all(power(c) != one for c in _cofactors(p**d - 1))


def _smallest_primitive(p: int, d: int) -> tuple[tuple[int, ...], list[int]]:
    """The lexicographically smallest monic primitive f of degree d over F_p,
    coefficients compared low degree first, and the exp table of t = x mod f.

    Candidates whose norm (-1)^d f(0) does not generate F_p^* are skipped
    outright, and the others are tested by powering t modulo f.  The exp
    table is then the walk 1, t, t^2, ... on codes.  Multiplying a code by t
    shifts its digits up one place and folds the top digit c back in as
    -c * (f_0, ..., f_{d-1}), mod p; each new digit comes from one old digit
    and c, so the successor of every code is a sum of per-digit terms, built
    without carries.
    """
    f = next(low + (1,) for low in itertools.product(range(p), repeat=d)
             if _is_primitive_root((-1) ** d * low[0], p) and _is_primitive(low + (1,), p))
    succ = []  # succ[c * p^(d-1) + rest] = t * code, rest's digit 0 fastest
    for c in range(p):
        codes = [-c * f[0] % p]
        for r in range(1, d):
            codes = [a + (s - c * f[r]) % p * p**r for s in range(p) for a in codes]
        succ += codes
    exp = [1]
    while succ[exp[-1]] != 1:
        exp.append(succ[exp[-1]])
    return f, exp


class ExtField:
    """F_{p^d} with element codes 0..q-1 (base-p coefficient digits).

    The reducing modulus is the lexicographically smallest monic primitive
    polynomial of degree d, coefficients compared low degree first, so the
    field is a deterministic function of (p, d) and t = x mod f generates
    its multiplicative group (the convention behind Conway polynomials).
    One construction serves every d: for d = 1 the modulus is x + c with -c
    a primitive root, and codes are plain residues.

    Arithmetic runs on four Python lists of q entries: `exp[k]` = t^k, `log`
    (log[0] = -1), the Zech logarithms `zech[k]` = log(1 + t^k) (-1 where
    the sum is 0), so t^a + t^b = t^(a + zech[b - a]), filled in one pass as
    adding 1 changes only digit 0, and `degree[x]`, the smallest e | d with
    x^(p^e) = x.  `budget` is the element budget the field was built under,
    so that caches keyed by (p, d, budget) resolve it through
    `_ext_field_cached`.
    """

    def __init__(self, prime: Prime, d: int, budget: int = EXT_ELEMENT_BUDGET):
        if not 1 <= d <= EXT_MAX_DEGREE:
            raise ValueError(f"extension degree must be in [1, {EXT_MAX_DEGREE}], got {d}")
        p = prime.p
        q = p**d
        if q > budget:
            raise BudgetExceeded(f"p^d = {q} exceeds the element budget {budget}")
        self.prime = prime
        self.p = p
        self.d = d
        self.q = q
        self.budget = budget
        self.modulus, exp = _smallest_primitive(p, d)
        self.exp = exp
        self.log = log = [-1] * q
        for k, x in enumerate(exp):
            log[x] = k
        self.zech = [log[x + 1] if x % p != p - 1 else log[x + 1 - p] for x in exp]
        self.degree = degree = [d] * q
        for e in reversed(divisors(d)[:-1]):  # a smaller subfield overwrites a larger one
            for x in exp[:: (q - 1) // (p**e - 1)]:
                degree[x] = e
        degree[0] = 1
        self.gen = exp[1]

    # -- element codecs ------------------------------------------------

    def coeffs_of(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.d):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    def code_of(self, coeffs) -> int:
        if len(coeffs) > self.d:
            raise ValueError("too many coefficients")
        acc = 0
        for c in reversed(list(coeffs)):
            acc = acc * self.p + c % self.p
        return acc

    # -- arithmetic on codes --------------------------------------------

    def add(self, a: int, b: int) -> int:
        if not (a and b):
            return a or b
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % (self.q - 1)]
        return self.exp[(la + z) % (self.q - 1)] if z >= 0 else 0

    def sub(self, a: int, b: int) -> int:
        # -1 = t^((q - 1) / 2), as p is odd
        return self.add(a, self.exp[(self.log[b] + (self.q - 1) // 2) % (self.q - 1)]) if b else a

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no inverse")
        return self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroInverse("0 has no inverse")
            return 0
        return self.exp[self.log[a] * e % (self.q - 1)]

    def __repr__(self) -> str:
        return f"ExtField(p={self.p}, d={self.d})"


@lru_cache(maxsize=64)
def _ext_field_cached(p: int, d: int, budget: int) -> ExtField:
    # Prime(p) certifies ints passed directly; lru_cache caches no exception,
    # so a composite p raises on every call
    return ExtField(Prime(p), d, budget)


def ext_field(prime: Prime | int, d: int, budget: int = EXT_ELEMENT_BUDGET) -> ExtField:
    """The canonical F_{p^d} handle (cached; same object for same arguments)."""
    return _ext_field_cached(int(prime), d, budget)
