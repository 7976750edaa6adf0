"""Exact arithmetic in F_p and in small extensions F_{p^d}.

Primes are certified at construction (deterministic Miller-Rabin, valid for
the whole supported 64-bit range), so everything downstream may assume
primality without re-checking.  Extension fields are table-driven: elements
are integer codes 0..p^d-1 encoding coefficient vectors in base p, with
exp/log tables for multiplication and digit-wise addition.  Every F_{p^d},
d = 1 included, is reduced by its lexicographically smallest monic primitive
polynomial f, so t = x mod f generates the multiplicative group and the exp
table is the walk 1, t, t^2, ... built by multiplying by t; no other
polynomial arithmetic is needed to construct a field.  Each field also
carries numpy tables of the base-p digits of x^k and of the F_p-linear maps
"multiply by x^k" at every code x (k <= 4), so the exhaustive factor search
in `poly` evaluates all candidates of one field in a few array operations.
numpy is imported when the first extension field is built; prime-field
arithmetic, primality and factoring are plain Python ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import TYPE_CHECKING

from .errors import BudgetExceeded, CompositeInput, ZeroInverse

if TYPE_CHECKING:
    import numpy as np

MAX_PRIME = 2**64 - 1
EXT_ELEMENT_BUDGET = 1 << 17
EXT_MAX_DEGREE = 6
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


def _smallest_primitive(p: int, d: int) -> tuple[tuple[int, ...], list[int]]:
    """The lexicographically smallest monic primitive f of degree d over F_p,
    coefficients compared low degree first, and the exp table of t = x mod f.

    Multiplying a code by t shifts its digits up one place and folds the top
    digit c back in as -c * (f_0, ..., f_{d-1}), mod p.  Since f(0) != 0 this
    permutes the nonzero codes, so the walk 1, t, t^2, ... returns to 1; f is
    primitive iff that takes exactly q - 1 steps, and then the walk is the
    exp table.  The norm of t, (-1)^d f(0), must generate F_p^*, so other
    candidates are skipped without a walk.
    """
    import numpy as np

    q = p**d
    place = p ** np.arange(d, dtype=np.int64)
    digits = np.arange(q, dtype=np.int64)[:, None] // place % p  # [code, r]
    top = digits[:, -1:]
    shifted = np.roll(digits, 1, axis=1)
    shifted[:, 0] = 0
    for low in itertools.product(range(p), repeat=d):
        if not _is_primitive_root((-1) ** d * low[0], p):
            continue
        succ = ((shifted - top * np.array(low)) % p @ place).tolist()
        exp = [1]
        code = succ[1]
        while code != 1:
            exp.append(code)
            code = succ[code]
        if len(exp) == q - 1:
            return low + (1,), exp
    raise AssertionError("unreachable: primitive polynomials of every degree exist")


def _digit_planes(codes: np.ndarray, p: int, d: int) -> np.ndarray:
    """out[:, r] = base-p digit r of codes, for a code array of shape (n, ...).

    Digits are peeled off codes in place, so codes is overwritten, and the
    only memory beyond the result is codes itself.
    """
    import numpy as np

    out = np.empty((codes.shape[0], d) + codes.shape[1:], dtype=codes.dtype)
    for r in range(d):
        np.remainder(codes, p, out=out[:, r])
        np.floor_divide(codes, p, out=codes)
    return out


class ExtField:
    """F_{p^d} with element codes 0..q-1 (base-p coefficient digits).

    The reducing modulus is the lexicographically smallest monic primitive
    polynomial of degree d, coefficients compared low degree first, so the
    field is a deterministic function of (p, d) and t = x mod f generates
    its multiplicative group (the convention behind Conway polynomials).
    One construction serves every d: for d = 1 the modulus is x + c with -c
    a primitive root, and codes are plain residues.  Multiplication runs on
    exp/log tables, exp[k] = t^k; addition works on base-p digits.

    Two numpy tables serve batched evaluation, for k <= 4:
    `power_digits[k, :, x]` holds the d digits of x^k, and
    `power_matrices[x, :, k, :]` is the d*d matrix over F_p of multiplication
    by x^k on digit vectors (column e is x^k * t^e).  Entries lie in [0, p).
    `budget` is the element budget the field was built under, so that caches
    keyed by (p, d, budget) resolve it through `_ext_field_cached`.
    """

    def __init__(self, prime: Prime, d: int, budget: int = EXT_ELEMENT_BUDGET):
        if not 1 <= d <= EXT_MAX_DEGREE:
            raise ValueError(f"extension degree must be in [1, {EXT_MAX_DEGREE}], got {d}")
        p = prime.p
        q = p**d
        if q > budget:
            raise BudgetExceeded(f"p^d = {q} exceeds the element budget {budget}")
        import numpy as np

        self.prime = prime
        self.p = p
        self.d = d
        self.q = q
        self.budget = budget
        self.modulus, self.exp = _smallest_primitive(p, d)
        log = np.full(q, -1, dtype=np.int64)
        log[self.exp] = np.arange(q - 1)
        self.log = log.tolist()
        self.gen = self.exp[1]
        self._build_power_tables()

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

    # -- table construction --------------------------------------------

    def _build_power_tables(self):
        import numpy as np

        p, q, d = self.p, self.q, self.d
        exp = np.array(self.exp, dtype=np.int64)
        log = np.array(self.log, dtype=np.int64)

        def times(a, b):  # elementwise product of code arrays
            prod = exp[(log[a] + log[b]) % (q - 1)]
            return np.where((a != 0) & (b != 0), prod, 0)

        place = p ** np.arange(d, dtype=np.int64)  # code of t^e
        powers = np.ones((_TABLE_POWERS, q), dtype=np.int64)
        codes = np.arange(q, dtype=np.int64)
        for k in range(1, _TABLE_POWERS):
            powers[k] = times(powers[k - 1], codes)
        images = times(powers.T[:, :, None], place)  # [x, k, e]: code of x^k * t^e
        # the tables are filled last, as _digit_planes overwrites its input
        self.power_digits = _digit_planes(powers, p, d)  # [k, r, x]
        self.power_matrices = _digit_planes(images, p, d)  # [x, r, k, e]

    # -- arithmetic on codes --------------------------------------------

    def _digitwise(self, a: int, b: int, sign: int) -> int:
        """Code of a + sign * b, added digit by digit mod p."""
        p = self.p
        out, mult = 0, 1
        for _ in range(self.d):
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            out += (ra + sign * rb) % p * mult
            mult *= p
        return out

    def add(self, a: int, b: int) -> int:
        return self._digitwise(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        return self._digitwise(a, b, -1)

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
