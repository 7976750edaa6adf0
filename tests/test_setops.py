import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import setops
from sumprod.errors import (
    CosetCollision,
    LengthMismatch,
    SizeBudget,
    ZeroLevel,
    ZeroPolynomial,
    ZeroShift,
)
from sumprod.field import make_prime
from sumprod.poly import UniPoly, parse_bipoly
from sumprod.setops import (
    _CHUNK,
    PairCount,
    ValueSet,
    count_level_pairs,
    count_zero_pairs,
    fiber_set,
    image,
    image_size,
    shift_histogram,
    shift_intersection,
    sumset,
    value_set,
)
from sumprod.subgroup import coset_of, enumerate_subgroups, subgroup_of_order

P13 = make_prime(13)
G3 = subgroup_of_order(P13, 3)  # {1, 3, 9}
VG = value_set(P13, G3.elements)


def brute_image(P, avals, bvals, p):
    return sorted({P.eval(a, b) for a in avals for b in bvals})


# --- image / sumset ----------------------------------------------------------


def test_image_example():
    out = image(parse_bipoly("x+y", P13), VG, VG)
    assert out.members == (2, 4, 5, 6, 10, 12)
    assert image(parse_bipoly("0", P13), VG, VG).members == (0,)
    empty = value_set(P13, [])
    assert image(parse_bipoly("x+y", P13), empty, VG).members == ()
    assert sumset(VG, empty, sign=-1).members == sumset(empty, VG).members == ()


def test_image_equals_sumset_for_addition():
    A = value_set(P13, [1, 2, 7])
    B = value_set(P13, [3, 9, 11, 12])
    assert image(parse_bipoly("x+y", P13), A, B).members == sumset(A, B).members


def test_image_singleton_shift():
    A = value_set(P13, [4])
    B = value_set(P13, [1, 3, 9])
    out = image(parse_bipoly("x+y", P13), A, B)
    assert out.members == tuple(sorted((4 + b) % 13 for b in B.members))


def test_image_budget():
    A = value_set(P13, range(1, 11))
    with pytest.raises(SizeBudget):
        image(parse_bipoly("x*y", P13), A, A, max_pairs=99)


def test_sumset_examples():
    s = sumset(VG, VG)
    assert s.members == (2, 4, 5, 6, 10, 12)
    assert len(s.members) == 6
    d = sumset(VG, VG, sign=-1)
    assert 0 in d
    assert len(d.members) == 7
    zero = value_set(P13, [0])
    assert sumset(VG, zero).members == VG.members
    with pytest.raises(ValueError):
        sumset(VG, VG, sign=2)


def test_sumset_budget_comes_before_any_evaluation(monkeypatch):
    def no_grid(*args):
        raise AssertionError("evaluated past the budget")

    monkeypatch.setattr(setops, "_eval_grid", no_grid)
    prime = make_prime(20011)
    A = value_set(prime, range(1, 10002))
    B = value_set(prime, range(10002, 20003))
    for sign in (1, -1):
        with pytest.raises(SizeBudget) as exc:
            sumset(A, B, sign=sign)
        assert str(exc.value) == "|A|*|B| = 100020001 exceeds budget 100000000"


@settings(max_examples=150)
@given(data=st.data())
def test_sumset_properties(data):
    p = data.draw(st.sampled_from([7, 13, 101]))
    prime = make_prime(p)
    A = value_set(prime, data.draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=12)))
    B = value_set(prime, data.draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=12)))
    s = sumset(A, B)
    assert len(s.members) >= max(len(A.members), len(B.members))
    assert sumset(B, A).members == s.members
    assert 0 in sumset(A, A, sign=-1)


def test_image_against_nested_loop_oracle():
    rng = random.Random(20260817)
    texts = ["x+y", "x*y", "x^2+y^2", "x*y+3*x", "(x+y)^2", "x^3+2*y"]
    for trial in range(100):
        p = rng.choice([5, 13, 101, 257])
        prime = make_prime(p)
        P = parse_bipoly(rng.choice(texts), prime)
        avals = rng.sample(range(p), min(p, rng.randint(1, 30)))
        bvals = rng.sample(range(p), min(p, rng.randint(1, 30)))
        got = image(P, value_set(prime, avals), value_set(prime, bvals))
        assert list(got.members) == brute_image(P, avals, bvals, p), (trial, p, P.to_text())


def test_image_big_prime_python_fallback():
    # 2^31 < p < 2^32: the uint64 kernel, not a Python fallback, must match brute force
    p = 2147483659
    prime = make_prime(p)
    A = value_set(prime, [1, 2, p - 1])
    B = value_set(prime, [5, p - 3])
    P = parse_bipoly("x*y+x", prime)
    got = image(P, A, B)
    assert list(got.members) == brute_image(P, A.members, B.members, p)


# --- shift_intersection --------------------------------------------------------


def test_shift_intersection_examples():
    assert shift_intersection(G3, 1) == 0
    full = subgroup_of_order(P13, 12)
    assert shift_intersection(full, 1) == 11  # p - 2
    with pytest.raises(ZeroShift):
        shift_intersection(G3, 0)
    with pytest.raises(ZeroShift):
        shift_intersection(G3, 13)


def test_shift_intersection_strictly_below_order():
    for p in (7, 13, 31):
        prime = make_prime(p)
        for G in enumerate_subgroups(prime):
            for mu in range(1, p):
                n = shift_intersection(G, mu)
                assert 0 <= n < G.order or (G.order == 1 and n == 0)


def test_shift_intersection_cache_matches_brute():
    # every count is cached per coset of mu; visiting the shifts in shuffled
    # order, plus mu + p and -mu, makes most lookups cache hits, each of which
    # must still equal the direct count
    rng = random.Random(5)
    for p in range(3, 80):
        if any(p % q == 0 for q in range(2, p)):
            continue
        prime = make_prime(p)
        for G in enumerate_subgroups(prime):
            members = set(G.elements)
            shifts = [m for mu in range(1, p) for m in (mu, mu + p, -mu)]
            rng.shuffle(shifts)
            for mu in shifts:
                brute = sum(1 for g in G.elements if (g - mu) % p in members)
                assert shift_intersection(G, mu) == brute, (p, G.order, mu)
            counts = shift_histogram(G)  # the x - y key histogram
            assert sum(counts.values()) == G.order - 1
            assert len(counts) <= (p - 1) // G.order


def _odd_primes_below(n):
    return [p for p in range(3, n) if all(p % q for q in range(2, int(p**0.5) + 1))]


def test_shift_intersection_matches_brute_per_coset():
    # one brute-force count per coset mu*G, then every mu of that coset
    # (G ∩ (G + mu*h) = h * (G ∩ (G + mu)) for h in G) against it
    for p in _odd_primes_below(400):
        for G in enumerate_subgroups(make_prime(p)):
            members = set(G.elements)
            want: dict[int, int] = {}
            for mu in range(1, p):
                if mu not in want:
                    brute = sum(1 for g in G.elements if (g - mu) % p in members)
                    want.update((mu * h % p, brute) for h in G.elements)
            got = {mu: shift_intersection(G, mu) for mu in range(1, p)}
            assert got == want, (p, G.order)
            keys = setops._homogeneous_keys(parse_bipoly("x - y", p), G, 1)
            assert keys == (1, 1, shift_histogram(G))


def test_shift_intersection_at_a_prime_past_2_32():
    p = 2**32 + 15
    prime = make_prime(p)
    rng = random.Random(11)
    for d in (2, 5, 90, 1179, 11790):
        G = subgroup_of_order(prime, d)
        members = set(G.elements)
        shifts = [rng.randrange(1, p) for _ in range(5)]
        shifts += [(rng.choice(G.elements) - rng.choice(G.elements)) % p or 1 for _ in range(5)]
        for mu in shifts:
            got = shift_intersection(G, mu)
            assert type(got) is int
            assert got == sum(1 for g in G.elements if (g - mu) % p in members), (d, mu)
        assert sum(shift_histogram(G).values()) == d - 1


# --- fiber_set -----------------------------------------------------------------


def test_fiber_examples():
    f1 = UniPoly(13, [1, 1])  # x + 1
    c = coset_of(1, G3)
    assert fiber_set([f1], [c]).members == (0, 2, 8)
    f2 = UniPoly(13, [12, 1])  # x + 12 = x - 1
    assert fiber_set([f1, f2], [c, c]).members == (2,)
    fx = UniPoly(13, [0, 1])
    assert fiber_set([fx], [c]).members == G3.elements
    with pytest.raises(LengthMismatch):
        fiber_set([f1, f2], [c])
    with pytest.raises(LengthMismatch):
        fiber_set([], [])


@settings(max_examples=80)
@given(data=st.data())
def test_fiber_matches_shifted_intersections(data):
    p = data.draw(st.sampled_from([13, 31]))
    prime = make_prime(p)
    divs = [d for d in (3, 5, 6) if (p - 1) % d == 0]
    G = subgroup_of_order(prime, data.draw(st.sampled_from(divs)))
    shifts = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
    fs = [UniPoly(p, [a, 1]) for a in shifts]
    c = coset_of(1, G)
    got = set(fiber_set(fs, [c] * len(fs)).members)
    expect = set(range(p))
    for a in shifts:
        expect &= {(g - a) % p for g in G.elements}
    assert got == expect


def _random_member(rng, p, degree):
    """A random polynomial of exactly the given degree (0, 1 or 2) over F_p."""
    coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
    return UniPoly(p, coeffs)


def _brute_fiber(fs, cosets, p):
    return [x for x in range(p) if all(f(x) in c.members for f, c in zip(fs, cosets))]


def test_fiber_walk_matches_scan_below_200():
    # every prime below 200 and every order: the walk of families with one,
    # two or three linear members (plus quadratics and constants) against the
    # F_p scan, and nonlinear-only families, which fiber_set scans, against
    # a Python loop over F_p
    rng = random.Random(2026)
    walked = scanned = nonempty = 0
    for p in [q for q in range(3, 200) if all(q % r for r in range(2, q))]:
        prime = make_prime(p)
        for G in enumerate_subgroups(prime):
            for n_linear, others in ((1, ()), (1, (2,)), (2, ()), (2, (2, 0)), (3, (2,))):
                degrees = [1] * n_linear + list(others)
                rng.shuffle(degrees)
                fs = [_random_member(rng, p, d) for d in degrees]
                cosets = [coset_of(rng.randrange(1, p), G) for _ in fs]
                walk = setops._walk_fiber(fs, cosets, p)
                assert walk == setops._scan_fiber(fs, cosets, p), (p, G.order, fs)
                assert fiber_set(fs, cosets).members == tuple(walk)
                walked += 1
                nonempty += bool(walk)
            fs = [_random_member(rng, p, 2) for _ in range(2)]
            cosets = [coset_of(rng.randrange(1, p), G) for _ in fs]
            assert list(fiber_set(fs, cosets).members) == _brute_fiber(fs, cosets, p)
            scanned += 1
    assert walked > 1500 and scanned > 300 and nonempty > walked // 4


def _explicit_coset(rep, G):
    """rep * G from powers of G's generator, without coset_of."""
    p, out, h = G.p, set(), 1
    for _ in range(G.order):
        out.add(rep * h % p)
        h = h * G.generator % p
    return out


@pytest.mark.parametrize("p, d", [(2**32 - 5, 190), (2**32 + 15, 11790)])
def test_fiber_walk_above_2_31_matches_a_nested_loop(p, d):
    G = subgroup_of_order(make_prime(p), d)
    rng = random.Random(p)
    f1 = _random_member(rng, p, 1)
    g = G.elements[rng.randrange(1, d)]
    f2 = f1.scale(g)  # f2(x) = g*f1(x): in f1's coset whenever f1(x) is
    f3 = f1 * f1
    f4 = _random_member(rng, p, 1)
    x0 = rng.randrange(p)
    c1 = coset_of(f1(x0), G)
    c4 = coset_of(f4(x0), G)  # x0 is in every fiber below that uses f4
    c_sq = coset_of(c1.representative ** 2, G)
    cases = [
        ([f1, f2], [c1, c1]),
        ([f1, f2, f3], [c1, c1, c_sq]),
        ([f1, f4], [c1, c4]),
        ([f3, f1, f4], [c_sq, c1, c4]),
        ([f4, f1], [c4, coset_of(rng.randrange(1, p), G)]),
    ]
    inv = pow(f1.coeffs[1], p - 2, p)  # Fermat, not pow(a, -1, p)
    for fs, cosets in cases:
        explicit = [_explicit_coset(c.representative, G) for c in cosets]
        k = fs.index(f1)
        expect = set()
        for c in explicit[k]:  # the nested loop: preimages of f1's coset x every member
            x = (c - f1.coeffs[0]) * inv % p
            assert f1(x) == c
            if all(f(x) in e for f, e in zip(fs, explicit)):
                expect.add(x)
        assert fiber_set(fs, cosets).members == tuple(sorted(expect))
    assert len(fiber_set(*cases[0]).members) == d
    assert len(fiber_set(*cases[1]).members) == d
    assert x0 in fiber_set(*cases[2]).members
    if d == 190:  # small enough for a loop over both cosets' pairs
        b1, b4 = f1.coeffs[0], f4.coeffs[0]
        inv4 = pow(f4.coeffs[1], p - 2, p)
        explicit4 = _explicit_coset(c4.representative, G)
        pairs = set()
        for c in _explicit_coset(c1.representative, G):
            for e in explicit4:
                if (c - b1) * inv % p == (e - b4) * inv4 % p:
                    pairs.add((c - b1) * inv % p)
        assert fiber_set([f1, f4], [c1, c4]).members == tuple(sorted(pairs))


def test_fiber_scan_counts_against_the_budget():
    p = 31
    G = subgroup_of_order(make_prime(p), 5)
    quad = [UniPoly(p, [1, 0, 1]), UniPoly(p, [3, 2, 1])]
    cosets = [coset_of(1, G), coset_of(3, G)]
    with pytest.raises(SizeBudget, match="scan of 31 points exceeds budget 30"):
        fiber_set(quad, cosets, max_pairs=p - 1)
    assert list(fiber_set(quad, cosets, max_pairs=p).members) == _brute_fiber(quad, cosets, p)
    # a family with a linear member walks its cosets and never scans
    big = 2**32 + 15
    G = subgroup_of_order(make_prime(big), 11790)
    fs = [UniPoly(big, [5, 1]), UniPoly(big, [1, 0, 1])]
    cosets = [coset_of(7, G), coset_of(11, G)]
    fiber_set(fs, cosets, max_pairs=1)
    with pytest.raises(SizeBudget):
        fiber_set(fs[1:], cosets[1:])


# --- count_zero_pairs ------------------------------------------------------------


def brute_zero_pairs(P, G):
    return sum(1 for x in G.elements for y in G.elements if P.eval(x, y) == 0)


def test_zero_pair_examples():
    assert count_zero_pairs(parse_bipoly("x+y", P13), G3) == 0
    diag = parse_bipoly("x+12*y", P13)  # x - y
    for G in enumerate_subgroups(P13):
        assert count_zero_pairs(diag, G) == G.order
    assert count_zero_pairs(parse_bipoly("x^2+12*y^2", P13), G3) == 3
    with pytest.raises(ZeroPolynomial):
        count_zero_pairs(parse_bipoly("13", P13), G3)


def test_zero_pairs_nonhomogeneous_regression():
    # non-homogeneous input must take the full G x G count, not the
    # homogeneous single-row shortcut (which would report 0 here)
    Q = parse_bipoly("x^2+y+1", P13)
    G6 = subgroup_of_order(P13, 6)
    assert count_zero_pairs(Q, G6) == brute_zero_pairs(Q, G6) == 4


def test_zero_pairs_vs_brute_random():
    rng = random.Random(7)
    texts = ["x+y", "x^2+y^2", "x^2+12*y^2", "x^3+y^3", "x*y+1", "x^2+y+1", "x*y^2+3"]
    for p in (13, 31):
        prime = make_prime(p)
        for G in enumerate_subgroups(prime):
            for _ in range(3):
                P = parse_bipoly(rng.choice(texts), prime)
                assert count_zero_pairs(P, G) == brute_zero_pairs(P, G), (p, G.order, P.to_text())


def test_zero_pairs_budget():
    G = subgroup_of_order(P13, 12)
    with pytest.raises(SizeBudget):
        count_zero_pairs(parse_bipoly("x*y+1", P13), G, max_pairs=100)


# --- count_level_pairs -----------------------------------------------------------


def brute_level(P, G, alphas):
    per = {a: 0 for a in alphas}
    for x in G.elements:
        for y in G.elements:
            v = P.eval(x, y)
            if v in per:
                per[v] += 1
    return per


def test_level_pair_examples():
    P = parse_bipoly("x+y", P13)
    pc = count_level_pairs(P, G3, value_set(P13, [2]))
    assert pc.total == 1 and pc.per_level == {2: 1}
    pc = count_level_pairs(P, G3, value_set(P13, [4]))
    assert pc.total == 2 and pc.per_level == {4: 2}
    pc = count_level_pairs(P, G3, value_set(P13, [2, 7]))
    assert pc.per_level == {2: 1, 7: 0}
    assert pc.total == 1
    assert count_level_pairs(P, G3, value_set(P13, [])) == PairCount(0, {})


def test_level_pair_validation():
    P = parse_bipoly("x+y", P13)
    with pytest.raises(ZeroLevel):
        count_level_pairs(P, G3, value_set(P13, [0, 2]))
    # 2 and 5 share the coset 2*G = {2, 5, 6}, named by its smallest member
    with pytest.raises(CosetCollision, match="levels 2 and 5 share the coset of 2$"):
        count_level_pairs(P, G3, value_set(P13, [2, 5]))
    with pytest.raises(CosetCollision, match="levels 5 and 6 share the coset of 2$"):
        count_level_pairs(P, G3, value_set(P13, [1, 5, 6]))


def test_level_pair_totals_match_brute():
    rng = random.Random(11)
    for p in (13, 31):
        prime = make_prime(p)
        P = parse_bipoly("x*y+x+y", prime)
        for G in enumerate_subgroups(prime):
            if G.order < 2:
                continue
            reps = sorted({min(v * g % p for g in G.elements) for v in range(1, p)})
            picks = rng.sample(reps, min(3, len(reps)))
            pc = count_level_pairs(P, G, value_set(prime, picks))
            assert pc.per_level == brute_level(P, G, picks)
            assert pc.total == sum(pc.per_level.values())


def test_paircount_structural_invariant():
    with pytest.raises(ValueError):
        PairCount(total=3, per_level={2: 1})


def test_value_set_validation():
    v = value_set(P13, [9, 1, 3, 3])
    assert v.members == (1, 3, 9)
    with pytest.raises(ValueError):
        ValueSet(P13, (3, 1))
    assert 3 in v and 4 not in v


# --- the uint64 / object boundary and multi-chunk grids -------------------------


# p - 1 and p - 2 push uint64 to (p-1)^2 + (p-1) on the largest prime below
# 2^32; the smallest prime above it runs the same kernel on object arrays.
BOUNDARY_PRIMES = (4294967291, 4294967311)


def _boundary_sets(p):
    prime = make_prime(p)
    A = value_set(prime, [0, 1, 2, 3, p // 2, p - 3, p - 2, p - 1])
    B = value_set(prime, [1, 5, p // 3, p - 2, p - 1])
    return prime, A, B


def _all_int(vs):
    return all(type(m) is int for m in vs.members)


@pytest.mark.parametrize("p", BOUNDARY_PRIMES)
def test_image_sumset_parity_at_uint64_boundary(p):
    prime, A, B = _boundary_sets(p)
    P = parse_bipoly("x^3+7*y^2+x*y+5", prime)
    got = image(P, A, B)
    assert list(got.members) == brute_image(P, A.members, B.members, p)
    assert _all_int(got)
    for sign in (1, -1):
        s = sumset(A, B, sign=sign)
        assert list(s.members) == sorted({(a + sign * b) % p for a in A for b in B})
        assert _all_int(s)


@pytest.mark.parametrize("p", BOUNDARY_PRIMES)
def test_pair_counts_parity_at_uint64_boundary(p):
    prime = make_prime(p)
    G = subgroup_of_order(prime, 10)
    assert p - 1 in G.elements
    for text in ("x*y+%d" % (p - 1), "x^2+%d*y" % (p - 1), "x^3+7*y^2+x*y+5"):
        P = parse_bipoly(text, prime)
        assert count_zero_pairs(P, G) == brute_zero_pairs(P, G), (p, text)
    P = parse_bipoly("x^3+7*y^2+x*y+5", prime)
    # nonzero levels in distinct cosets (v^|G| names v's coset), p-1 and p-2 first
    levels: dict[int, int] = {}
    for v in [p - 1, p - 2] + [P.eval(a, b) for a in G.elements for b in G.elements]:
        if v:
            levels.setdefault(pow(v, G.order, p), v)
    alphas = list(levels.values())[:6]
    pc = count_level_pairs(P, G, value_set(prime, alphas))
    assert pc.per_level == brute_level(P, G, alphas)
    assert all(type(a) is int and type(t) is int for a, t in pc.per_level.items())


@pytest.mark.parametrize("text", ["x", "x*y", "x^2*y"])
def test_image_across_chunks_is_the_subgroup(text):
    # |G|^2 > _CHUNK, so the grid spans several blocks; G is closed under
    # multiplication, so every image is exactly G.  Under "x" each block of
    # a-rows yields different values, so the blocks must be merged.
    p, order = 4201, 2100
    assert order * order > _CHUNK
    prime = make_prime(p)
    G = subgroup_of_order(prime, order)
    VG2 = value_set(prime, G.elements)
    got = image(parse_bipoly(text, prime), VG2, VG2)
    assert got.members == G.elements
    assert _all_int(got)


# --- the homogeneous coset reduction ------------------------------------------


PRIMES_BELOW_100 = [p for p in range(3, 100) if all(p % q for q in range(2, p))]
# forms that vanish on G (x-y, x^2-y^2, x^6-y^6; x^3+y^3 when G holds a cube
# root of -1), degrees sharing a factor with |G| (gcd(n, |G|) > 1), a constant
HOMOGENEOUS = ["x+y", "x-y", "x^2+y^2", "x^2-y^2", "x^3+y^3", "x^2+3*x*y+5*y^2",
               "x^4+2*y^4", "x^3+x*y^2+4*y^3", "x^6-y^6", "2"]
NON_HOMOGENEOUS = ["x*y+x+y", "x^2+y+1", "x^3+7*y^2+x*y+5"]


def grid_values(P, G):
    """Multiset of P(a, b) over G x G by nested P.eval loops."""
    return Counter(P.eval(a, b) for a in G.elements for b in G.elements)


def check_against_nested_loops(P, G):
    vals = grid_values(P, G)
    assert image_size(P, G) == len(vals)
    assert count_zero_pairs(P, G) == vals[0]
    p = G.p
    # candidate levels grouped by G-coset (v^|G| names v's coset): every
    # value P takes, plus a few it may miss
    by_coset: dict[int, list[int]] = {}
    for v in sorted((set(vals) | {v % p for v in (1, 2, 3, p - 2, p - 1)}) - {0}):
        by_coset.setdefault(pow(v, G.order, p), []).append(v)
    # one level per coset, at several places inside it, so that the cosets
    # of the smaller H = {a^n : a in G} inside G are met as well
    for j in range(3):
        alphas = [vs[j % len(vs)] for vs in by_coset.values()]
        pc = count_level_pairs(P, G, value_set(G.prime, alphas))
        assert pc.per_level == {a: vals[a] for a in sorted(alphas)}
        assert all(type(a) is int and type(t) is int for a, t in pc.per_level.items())


def test_homogeneous_counts_match_nested_loops_below_100():
    for p in PRIMES_BELOW_100:
        prime = make_prime(p)
        for G in enumerate_subgroups(prime):
            for text in HOMOGENEOUS + NON_HOMOGENEOUS:
                check_against_nested_loops(parse_bipoly(text, prime), G)


@pytest.mark.parametrize("p", BOUNDARY_PRIMES)
def test_homogeneous_counts_at_uint64_boundary(p):
    prime = make_prime(p)
    G = subgroup_of_order(prime, 10)
    for text in ["x+%d*y" % (p - 1), "x^2+y^2", "x^5+y^5", "x^3+%d*x*y^2" % (p - 2)]:
        P = parse_bipoly(text, prime)
        check_against_nested_loops(P, G)
        assert type(image_size(P, G)) is int and type(count_zero_pairs(P, G)) is int


def test_vanishing_forms_count_their_zero_pairs():
    prime = make_prime(13)
    G12, G4 = subgroup_of_order(prime, 12), subgroup_of_order(prime, 4)
    # x^2 - y^2 vanishes on b = +-a (2|G| pairs); x^3 + y^3 on b = c*a for the
    # three cube roots c of -1, all in G12 = F_13*
    assert count_zero_pairs(parse_bipoly("x^2-y^2", prime), G12) == 24
    assert count_zero_pairs(parse_bipoly("x^3+y^3", prime), G12) == 36
    # on G4 = {1, 5, 8, 12}, x^2 + y^2 vanishes at t = 5 and 8 (5^2 = -1)
    assert count_zero_pairs(parse_bipoly("x^2+y^2", prime), G4) == 8
    assert image_size(parse_bipoly("7", prime), G12) == 1


def test_non_homogeneous_takes_the_grid(monkeypatch):
    prime = make_prime(31)
    G = subgroup_of_order(prime, 10)
    expect = {text: grid_values(parse_bipoly(text, prime), G) for text in NON_HOMOGENEOUS}

    def refuse(*args, **kwargs):
        raise AssertionError("the coset reduction ran on a non-homogeneous form")

    monkeypatch.setattr(setops, "_homogeneous_keys", refuse)
    alphas = value_set(prime, [1, 3])  # 3 is a generator mod 31: distinct cosets
    for text, vals in expect.items():
        P = parse_bipoly(text, prime)
        assert image_size(P, G) == len(vals)
        assert count_zero_pairs(P, G) == vals[0]
        assert count_level_pairs(P, G, alphas).per_level == {1: vals[1], 3: vals[3]}
    zero = parse_bipoly("0", prime)
    assert image_size(zero, G) == 1
    assert count_level_pairs(zero, G, alphas).total == 0


def test_homogeneous_skips_the_grid(monkeypatch):
    prime = make_prime(31)
    G = subgroup_of_order(prime, 10)
    P = parse_bipoly("x^2+3*x*y+5*y^2", prime)
    vals = grid_values(P, G)

    def refuse(*args, **kwargs):
        raise AssertionError("a homogeneous form was evaluated over G x G")

    monkeypatch.setattr(setops, "_eval_grid", refuse)
    assert image_size(P, G) == len(vals)
    assert count_zero_pairs(P, G) == vals[0]
    assert count_level_pairs(P, G, value_set(prime, [1, 3])).per_level == {1: vals[1], 3: vals[3]}


def test_homogeneous_errors_keep_their_order():
    G = subgroup_of_order(P13, 12)
    P = parse_bipoly("x+y", P13)
    with pytest.raises(SizeBudget, match=r"^\|A\|\*\|B\| = 144 exceeds budget 143$"):
        image_size(P, G, max_pairs=143)
    assert image_size(P, G, max_pairs=144) == 13
    with pytest.raises(SizeBudget, match=r"^\|G\|\^2 = 144 exceeds budget 143$"):
        count_level_pairs(P, G, value_set(P13, [1]), max_pairs=143)
    # level checks come before the budget
    with pytest.raises(ZeroLevel):
        count_level_pairs(P, G, value_set(P13, [0]), max_pairs=1)
    with pytest.raises(CosetCollision):
        count_level_pairs(P, G3, value_set(P13, [2, 5]), max_pairs=1)
    # an empty level list still meets the budget check first
    with pytest.raises(SizeBudget):
        count_level_pairs(P, G, value_set(P13, []), max_pairs=143)
    # the homogeneous zero count enumerates one row only, so it has no budget
    assert count_zero_pairs(parse_bipoly("x^2-y^2", P13), G, max_pairs=1) == 24
    with pytest.raises(ValueError):
        image_size(parse_bipoly("x+y", make_prime(31)), G)
