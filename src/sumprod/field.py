"""Exact arithmetic in F_p and in small extensions F_{p^d}.

Primes are certified at construction (deterministic Miller-Rabin, valid for
the whole supported 64-bit range), so everything downstream may assume
primality without re-checking.  Extension fields are table-driven: elements
are integer codes 0..p^d-1 encoding coefficient vectors in base p, with
exp/log tables for multiplication and digit-wise addition.  Each field also
carries numpy tables of the base-p digits of x^k and of the F_p-linear maps
"multiply by x^k" at every code x (k <= 4), so the exhaustive factor search
in `poly` evaluates all candidates of one field in a few array operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import BudgetExceeded, CompositeInput, ZeroInverse

MAX_PRIME = 2**64 - 1
DLOG_TABLE_LIMIT = 1 << 22
EXT_ELEMENT_BUDGET = 1 << 17
_TABLE_POWERS = 5  # x^0 .. x^4: enough for forms of total degree <= 4

# Deterministic witness set: correct for every n < 3.3 * 10^24 (covers 64 bits).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n <= 2**64 - 1."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FieldElement:
    """A residue mod p with exact operator arithmetic."""

    value: int
    prime: Prime

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.prime.p)

    @property
    def p(self) -> int:
        return self.prime.p

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.prime.p != self.prime.p:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return FieldElement(other, self.prime)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else FieldElement(self.value + o.value, self.prime)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else FieldElement(self.value - o.value, self.prime)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else FieldElement(o.value - self.value, self.prime)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else FieldElement(self.value * o.value, self.prime)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self * inv(o)

    def __neg__(self):
        return FieldElement(-self.value, self.prime)

    def __pow__(self, e: int):
        if e < 0:
            return inv(self) ** (-e)
        return FieldElement(pow(self.value, e, self.prime.p), self.prime)

    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.prime.p})"


def inv(a: FieldElement) -> FieldElement:
    """Multiplicative inverse; ZeroInverse on 0."""
    if a.value == 0:
        raise ZeroInverse(f"0 has no inverse mod {a.p}")
    return FieldElement(pow(a.value, -1, a.p), a.prime)


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
def _primitive_root_int(p: int) -> int:
    phi = p - 1
    checks = [phi // q for q in prime_factors(phi)]
    for g in range(2, p):
        if all(pow(g, c, p) != 1 for c in checks):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")


def primitive_root(prime: Prime) -> FieldElement:
    """Smallest generator of the full multiplicative group mod p."""
    return FieldElement(_primitive_root_int(prime.p), prime)


def dlog_table(prime: Prime) -> list[int]:
    """table[x] = k with g^k = x for the canonical generator g; table[0] = -1.

    Only built for p <= 2^22 (one int per residue).
    """
    p = prime.p
    if p > DLOG_TABLE_LIMIT:
        raise BudgetExceeded(f"dlog table limited to p <= {DLOG_TABLE_LIMIT}, got {p}")
    g = _primitive_root_int(p)
    table = [-1] * p
    acc = 1
    for k in range(p - 1):
        table[acc] = k
        acc = acc * g % p
    return table


# ----------------------------------------------------------------------
# dense univariate helpers over F_p (coefficient lists, low degree first);
# only used to construct extension fields.


def _l_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _l_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    # reduce by the monic modulus
    d = len(mod) - 1
    for i in range(len(res) - 1, d - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(d):
                res[i - d + j] = (res[i - d + j] - c * mod[j]) % p
    return _l_trim(res)


def _l_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _l_mulmod(result, base, mod, p)
        base = _l_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _l_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        # a mod b
        inv_lead = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv_lead % p
            shift = len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] = (a[shift + j] - c * bj) % p
            _l_trim(a)
            if not a:
                break
        a, b = b, a
    return a


def _l_sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _l_trim(out)


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin test for a monic univariate f of degree >= 1 over F_p."""
    d = len(f) - 1
    x = [0, 1]
    if _l_sub(_l_powmod(x, p**d, f, p), x, p):
        return False
    for r in prime_factors(d):
        diff = _l_sub(_l_powmod(x, p ** (d // r), f, p), x, p)
        g = _l_gcd(list(f), diff, p) if diff else list(f)
        if len(g) != 1:
            return False
    return True


class ExtField:
    """F_{p^d} with element codes 0..q-1 (base-p coefficient digits).

    The reducing modulus is the lexicographically smallest monic irreducible
    of degree d, coefficients compared low degree first, so the field is a
    deterministic function of (p, d).  Multiplication runs on exp/log tables;
    addition works on base-p digits.

    Two numpy tables serve batched evaluation, for k <= 4:
    `power_digits[k, :, x]` holds the d digits of x^k, and
    `power_matrices[x, :, k, :]` is the d*d matrix over F_p of multiplication
    by x^k on digit vectors (column e is x^k * t^e, t the generator of the
    power basis).  Entries lie in [0, p).
    """

    def __init__(self, prime: Prime, d: int, budget: int = EXT_ELEMENT_BUDGET):
        if not 1 <= d <= 6:
            raise ValueError(f"extension degree must be in [1, 6], got {d}")
        p = prime.p
        q = p**d
        if q > budget:
            raise BudgetExceeded(f"p^d = {q} exceeds the element budget {budget}")
        self.prime = prime
        self.p = p
        self.d = d
        self.q = q
        self.modulus = self._smallest_irreducible(p, d)
        self._build_tables()

    @staticmethod
    def _smallest_irreducible(p: int, d: int) -> tuple[int, ...]:
        if d == 1:
            return (0, 1)  # x itself: F_p[x]/(x) = F_p, codes are residues
        for low in itertools.product(range(p), repeat=d):
            f = list(low) + [1]
            if any(low) and _is_irreducible(f, p):
                return tuple(f)
        raise AssertionError("unreachable: irreducibles of every degree exist")

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

    def embed(self, c: int) -> int:
        """Code of the base-field constant c."""
        return c % self.p

    # -- table construction --------------------------------------------

    def _mul_coeffwise(self, a: int, b: int) -> int:
        pa = _l_trim(list(self.coeffs_of(a)))
        pb = _l_trim(list(self.coeffs_of(b)))
        return self.code_of(_l_mulmod(pa, pb, list(self.modulus), self.p))

    def _build_tables(self):
        p, q = self.p, self.q
        if self.d == 1:
            g = _primitive_root_int(p)
            exp = [1] * (q - 1)
            for k in range(1, q - 1):
                exp[k] = exp[k - 1] * g % p
        else:
            checks = [(q - 1) // r for r in prime_factors(q - 1)]
            g = None
            for cand in range(p, q):  # codes < p are base-field, never generators for d >= 2
                ok = True
                for c in checks:
                    acc, base, e = 1, cand, c
                    while e:
                        if e & 1:
                            acc = self._mul_coeffwise(acc, base)
                        base = self._mul_coeffwise(base, base)
                        e >>= 1
                    if acc == 1:
                        ok = False
                        break
                if ok:
                    g = cand
                    break
            assert g is not None
            exp = [1] * (q - 1)
            for k in range(1, q - 1):
                exp[k] = self._mul_coeffwise(exp[k - 1], g)
        log = [-1] * q
        for k, v in enumerate(exp):
            log[v] = k
        self.gen = exp[1] if q > 2 else 1
        self.exp = exp
        self.log = log
        self._build_power_tables()

    def _build_power_tables(self):
        p, q, d = self.p, self.q, self.d
        exp = np.array(self.exp, dtype=np.int64)
        log = np.array(self.log, dtype=np.int64)

        def times(a, b):  # elementwise product of code arrays
            prod = exp[(log[a] + log[b]) % (q - 1)]
            return np.where((a != 0) & (b != 0), prod, 0)

        place = p ** np.arange(d, dtype=np.int64)  # code of t^e, also digit weights
        powers = np.ones((_TABLE_POWERS, q), dtype=np.int64)
        codes = np.arange(q, dtype=np.int64)
        for k in range(1, _TABLE_POWERS):
            powers[k] = times(powers[k - 1], codes)
        self.power_digits = powers[:, None, :] // place[:, None] % p  # [k, r, x]
        images = times(powers[:, :, None], place)  # [k, x, e]: code of x^k * t^e
        digits = images[:, :, :, None] // place % p  # [k, x, e, r]
        self.power_matrices = np.ascontiguousarray(digits.transpose(1, 3, 0, 2))  # [x, r, k, e]

    # -- arithmetic on codes --------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a + b) % self.p
        p = self.p
        out, mult = 0, 1
        for _ in range(self.d):
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            out += ((ra + rb) % p) * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.d == 1:
            return (-a) % self.p
        p = self.p
        out, mult = 0, 1
        for _ in range(self.d):
            a, ra = divmod(a, p)
            out += (-ra) % p * mult
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

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
    return ExtField(Prime(p), d, budget)


def ext_field(prime: Prime | int, d: int, budget: int = EXT_ELEMENT_BUDGET) -> ExtField:
    """The canonical F_{p^d} handle (cached; same object for same arguments)."""
    p = int(prime)
    Prime(p)  # re-certify ints passed directly
    return _ext_field_cached(p, d, budget)
