import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from sumprod.errors import BudgetExceeded, CompositeInput, ZeroInverse
from sumprod.field import (
    ExtField,
    Prime,
    _primitive_root_int,
    divisors,
    ext_field,
    is_prime_u64,
    make_prime,
    prime_factors,
)

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 101, 199, 997]


def test_is_prime_known_values():
    assert is_prime_u64(2)
    assert is_prime_u64(2**61 - 1)
    assert not is_prime_u64(1)
    assert not is_prime_u64(0)
    # strong-pseudoprime trap for naive witness sets
    assert not is_prime_u64(3215031751)
    assert not is_prime_u64(341550071728321)
    assert is_prime_u64(4294967311)


def test_make_prime_rejects_bad_input():
    with pytest.raises(CompositeInput):
        make_prime(9)
    with pytest.raises(ValueError):
        make_prime(2)  # char 2 is below the supported range
    with pytest.raises(ValueError):
        make_prime(1)
    assert make_prime(13).p == 13


def test_zero_has_no_inverse():
    for F in (ext_field(13, 1), ext_field(3, 2)):
        with pytest.raises(ZeroInverse):
            F.inv(0)


def test_primitive_roots():
    assert _primitive_root_int(13) == 2
    assert _primitive_root_int(7) == 3
    for p in SMALL_PRIMES:
        g = _primitive_root_int(p)
        assert pow(g, p - 1, p) == 1
        for q in prime_factors(p - 1):
            assert pow(g, (p - 1) // q, p) != 1
        assert all(not all(pow(h, (p - 1) // q, p) != 1 for q in prime_factors(p - 1))
                   for h in range(2, g))  # the smallest generator


def test_factoring_helpers():
    assert prime_factors(12) == (2, 3)
    assert prime_factors(97) == (97,)
    assert prime_factors(2 * 3 * 5 * 7 * 11) == (2, 3, 5, 7, 11)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)


@given(n=st.integers(min_value=1, max_value=10**6))
def test_divisors_divide(n):
    ds = divisors(n)
    assert list(ds) == sorted(ds)
    assert all(n % d == 0 for d in ds)
    assert ds[0] == 1 and ds[-1] == n


def test_ext_field_nine():
    # the modulus is the smallest monic primitive quadratic over F_3, x^2 + x + 2:
    # x^2 + 1 is irreducible, but x has order 4 modulo it, not 8
    F = ext_field(3, 2)
    assert F.q == 9
    assert F.modulus == (2, 1, 1)
    for code in range(9):
        coeffs = F.coeffs_of(code)
        assert len(coeffs) == 2 and all(0 <= c < 3 for c in coeffs)
        assert F.code_of(coeffs) == code
    assert len({F.coeffs_of(code) for code in range(9)}) == 9


def test_ext_field_nine_axioms_exhaustive():
    F = ext_field(3, 2)
    for a in range(9):
        for b in range(9):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in range(9):
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    for a in range(1, 9):
        assert F.mul(a, F.inv(a)) == 1


def test_ext_field_prime_degree_one_is_plain_residues():
    F = ext_field(13, 1)
    assert F.q == 13
    assert F.mul(6, 7) == 42 % 13
    assert F.add(6, 7) == 0


@pytest.mark.parametrize("p, d", [(13, 1), (3, 2), (5, 3)])
def test_ext_field_sub_and_neg_are_digitwise(p, d):
    F = ext_field(p, d)
    for a in range(0, F.q, max(1, F.q // 40)):
        da = F.coeffs_of(a)
        assert F.coeffs_of(F.sub(0, a)) == tuple(-c % p for c in da)
        for b in range(F.q):
            db = F.coeffs_of(b)
            assert F.coeffs_of(F.sub(a, b)) == tuple((x - y) % p for x, y in zip(da, db))


@settings(max_examples=200)
@given(data=st.data())
def test_ext_field_125_sampled_axioms(data):
    F = ext_field(5, 3)
    a = data.draw(st.integers(min_value=0, max_value=124))
    b = data.draw(st.integers(min_value=0, max_value=124))
    c = data.draw(st.integers(min_value=0, max_value=124))
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a != 0:
        assert F.mul(a, F.inv(a)) == 1


def test_ext_field_large_add_path():
    # addition runs on Zech logarithms; spot-check q = 37^2 = 1369 against
    # manual digit arithmetic
    F = ext_field(37, 2)
    assert F.q == 1369
    a, b = 38, 75  # codes (1,1) and (1,2): (x+1) + (2x+1)... base-37 digits
    da = [a % 37, a // 37]
    db = [b % 37, b // 37]
    expect = (da[0] + db[0]) % 37 + 37 * ((da[1] + db[1]) % 37)
    assert F.add(a, b) == expect


@pytest.mark.parametrize("p, d", [(3, 3), (3, 4), (5, 3), (13, 1)])
def test_ext_field_degree_is_the_smallest_subfield(p, d):
    F = ExtField(Prime(p), d)
    for x in range(F.q):
        assert F.degree[x] == next(e for e in range(1, d + 1) if F.pow(x, p**e) == x), x


@pytest.mark.parametrize("p, d", [(3, 2), (3, 4), (5, 3), (13, 1)])
def test_ext_field_zech_adds_one_on_digit_zero(p, d):
    F = ExtField(Prime(p), d)
    for k, x in enumerate(F.exp):
        digits = F.coeffs_of(x)
        one_plus = F.code_of(((digits[0] + 1) % p,) + digits[1:])
        assert F.zech[k] == F.log[one_plus], k  # log 0 = -1 where 1 + x = 0


def test_ext_field_build_peak_memory():
    """Building F_{7^6} (q = 117 649) allocates little beyond its four
    q-entry lists: the measured peak is 10.4 MiB."""
    tracemalloc.start()
    try:
        ExtField(Prime(7), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * 2**20, peak


def test_ext_field_budget():
    with pytest.raises(BudgetExceeded):
        ext_field(101, 3)  # 101^3 = 1030301 > default element budget
    with pytest.raises(ValueError):
        ext_field(3, 12)  # degree above the supported window


def test_ext_field_rejects_a_composite_on_every_call():
    # the field cache stores no exception, so the certification runs again
    for _ in range(2):
        with pytest.raises(CompositeInput):
            ext_field(9, 2)


def test_ext_field_exp_log_roundtrip():
    for p, d in [(3, 3), (359, 2), (7, 6)]:
        F = ext_field(p, d)
        assert F.log[0] == -1
        for code in range(1, F.q):
            assert F.exp[F.log[code]] == code


# list-based arithmetic over F_p for the modulus checks below; coefficient
# lists run low degree first, and nothing here comes from sumprod.field


def _reduce(c: list[int], f: tuple[int, ...], p: int) -> list[int]:
    """c mod the monic f, as exactly deg f coefficients."""
    d = len(f) - 1
    c = [v % p for v in c] + [0] * max(0, d - len(c))
    for k in range(len(c) - 1, d - 1, -1):
        top = c.pop()
        for j in range(d):
            c[k - d + j] = (c[k - d + j] - top * f[j]) % p
    return c


def _mulmod(a: list[int], b: list[int], f: tuple[int, ...], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return _reduce(prod, f, p)


def _powmod(a: list[int], e: int, f: tuple[int, ...], p: int) -> list[int]:
    out = _reduce([1], f, p)
    while e:
        if e & 1:
            out = _mulmod(out, a, f, p)
        a = _mulmod(a, a, f, p)
        e >>= 1
    return out


def _x_is_primitive(f: tuple[int, ...], p: int) -> bool:
    """x mod f has order p^deg(f) - 1, i.e. f is primitive."""
    n = p ** (len(f) - 1) - 1
    x, one = _reduce([0, 1], f, p), _reduce([1], f, p)
    primes = [r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))]
    return _powmod(x, n, f, p) == one and all(_powmod(x, n // r, f, p) != one for r in primes)


@pytest.mark.parametrize(
    "p, d", [(3, 1), (13, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)]
)
def test_ext_field_modulus_is_the_smallest_primitive(p, d):
    F = ext_field(p, d)
    f = F.modulus
    assert len(f) == d + 1 and f[-1] == 1
    assert _x_is_primitive(f, p)
    assert F.exp[1] == F.gen and F.coeffs_of(F.gen) == tuple(_reduce([0, 1], f, p))
    for low in itertools.product(range(p), repeat=d):  # low degree compared first
        if low == f[:-1]:
            break
        assert not _x_is_primitive(low + (1,), p), low
