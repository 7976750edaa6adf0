import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sumprod import bounds
from sumprod.bounds import (
    ProbeConfig,
    _verdict,
    extract_permissible,
    fiber_bound_constants,
    h_min_formula,
    image_bound_constants,
    min_q_for_delta,
    probe_factorization,
    probe_growth,
    verify_fiber_bound,
    verify_image_lower_bound,
    verify_level_pair_bound,
    verify_shift_overlap_bound,
)
from sumprod.errors import DuplicateY, NotRequired, SizeBudget, ZeroShift
from sumprod.field import is_prime_u64, make_prime
from sumprod.poly import UniPoly, is_permissible, is_required, parse_bipoly
from sumprod.setops import sumset, value_set
from sumprod.subgroup import (
    Coset,
    coset_of,
    enumerate_subgroups,
    is_admitted,
    subgroup_of_order,
)

P13 = make_prime(13)
G3 = subgroup_of_order(P13, 3)


def smallest_admitted_prime(d):
    """Smallest p = 1 (mod d) with 9 d^2 < p, by direct search."""
    p = 9 * d * d + 1
    p += (1 - p) % d
    while True:
        try:
            return make_prime(p)
        except Exception:
            p += d


# --- constants ---------------------------------------------------------------


def test_image_constants():
    c = image_bound_constants(1)
    assert c.c1 == 24
    assert c.c2 == Fraction(1, 64000)
    assert c.c == pytest.approx(1 / 64000, rel=1e-15)
    assert image_bound_constants(2).c1 == 384
    with pytest.raises(ValueError):
        image_bound_constants(0)


def test_image_constant_min_branch():
    for n in range(1, 11):
        c = image_bound_constants(n)
        assert 0 < c.c <= float(c.c2)
        assert isinstance(c.c1, int)


def test_fiber_constants():
    c = fiber_bound_constants((1, 1), 2)
    assert c.c1 == 16
    assert c.c2 == pytest.approx(3 ** (-4 / 5), rel=1e-15)
    assert c.c3 == pytest.approx(24.0, rel=1e-15)
    assert fiber_bound_constants((2, 2), 2).c1 == 4096
    with pytest.raises(ValueError):
        fiber_bound_constants((1,), 1)
    with pytest.raises(ValueError):
        fiber_bound_constants((0, 1), 2)


def test_fiber_c1_monotone_and_integer():
    prev = 0
    for top in range(1, 7):
        c1 = fiber_bound_constants((top, 1), 2).c1
        assert c1 > prev
        prev = c1
    for n in range(2, 7):
        for m in range(1, 7):
            assert isinstance(fiber_bound_constants((m,) * n, n).c1, int)


# --- verdict engine ----------------------------------------------------------


def test_verdict_borderline_flag():
    v = _verdict("t2", "", 10**6, 10**6 + 1e-10, 10**6 > 10**6 + 1e-10, 1.0)
    assert v.borderline and v.holds is False
    v = _verdict("t2", "", 10**6, 10**6 + 10.0, 10**6 > 10**6 + 10.0, 1.0)
    assert not v.borderline and v.holds is False
    v = _verdict("t2", "because", 5, 1.0, True, 1.0)
    assert v.holds is None and v.premise_reason == "because"


def test_gv_and_vm_hold_at_the_exact_bound_of_a_cube_order(monkeypatch):
    # at |G| = c^3 the float |G|^(2/3) lands just below c^2, so a float
    # comparison would reject lhs equal to the exact bound
    G = subgroup_of_order(smallest_admitted_prime(125), 125)
    monkeypatch.setattr(bounds, "shift_intersection", lambda G, mu: 100)
    v = verify_shift_overlap_bound(G, 1)
    assert v.premise_ok and v.rhs == 99.99999999999999 and v.lhs == 100
    assert v.holds is True and v.borderline

    prime = smallest_admitted_prime(343)
    G = subgroup_of_order(prime, 343)
    monkeypatch.setattr(bounds, "count_level_pairs", lambda *a, **k: SimpleNamespace(total=1176))
    v = verify_level_pair_bound(parse_bipoly("x+y", prime), G, value_set(prime, [2]))
    assert v.premise_ok and v.rhs == 1175.9999999999998 and v.lhs == 1176
    assert v.holds is True and v.borderline


def test_thmap_holds_at_the_exact_bound_of_a_cube_order(monkeypatch):
    # n = 3, m = (1, 1, 1): c3 = 48 and the exponent 1/2 + 1/6 is just below
    # 2/3 as a float, so at |G| = 5^3 the float rhs lands below 48 * 5^2
    prime = smallest_admitted_prime(125)
    G = subgroup_of_order(prime, 125)
    fs = [UniPoly(prime.p, [c, 1]) for c in (1, 2, 3)]
    cosets = [coset_of(r, G) for r in (1, 2, 3)]
    monkeypatch.setattr(bounds, "fiber_set", lambda *a, **k: range(48 * 25))
    v = verify_fiber_bound(fs, cosets, G)
    assert v.premise_ok and v.rhs < 1200 and v.lhs == 1200
    assert v.holds is True and v.borderline
    monkeypatch.setattr(bounds, "fiber_set", lambda *a, **k: range(1201))
    assert verify_fiber_bound(fs, cosets, G).holds is False


@pytest.mark.parametrize("n, poly, k", [(1, "x+y", 80), (2, "x^2+y^2", 320)])
def test_t2_holds_is_the_integer_decision_near_the_bound(monkeypatch, n, poly, k):
    # at |G| = k^2 the bound c * |G|^(3/2) = c * k^3 is an integer; holds
    # must be lhs^2 > c^2 |G|^3 with c^2 = min(base^3, c2^2) taken exactly
    d = k * k
    base = Fraction(100 * n**2 - 1, 100 * n**2 * 24 * n**4)
    c_sq = min(base**3, Fraction(1, 40**3 * n**9) ** 2)
    prime = smallest_admitted_prime(d)
    G, P = subgroup_of_order(prime, d), parse_bipoly(poly, prime)
    exact = math.isqrt(int(c_sq * d**3))  # the integer c * k^3
    assert exact**2 == c_sq * d**3
    for lhs in range(max(exact - 2, 1), exact + 3):
        monkeypatch.setattr(bounds, "image_size", lambda *a, lhs=lhs, **kw: lhs)
        v = verify_image_lower_bound(P, G)
        assert v.premise_ok and v.lhs == lhs
        assert v.holds is (lhs * lhs > c_sq * d**3) is (lhs > exact)


def test_image_lower_bound_small_group_not_admitted():
    v = verify_image_lower_bound(parse_bipoly("x+y", P13), G3)
    assert v.inequality == "t2"
    assert not v.premise_ok and v.premise_reason == "not-admitted"
    assert v.holds is None
    assert v.lhs == 6  # still computed: |__(G,G) image__|


def test_image_lower_bound_not_good():
    v = verify_image_lower_bound(parse_bipoly("(x+y)^2", P13), G3)
    assert not v.premise_ok and v.premise_reason.startswith("not-good")


def test_image_lower_bound_admitted_holds():
    d = 101
    prime = smallest_admitted_prime(d)
    G = subgroup_of_order(prime, d)
    assert is_admitted(G, 1)
    v = verify_image_lower_bound(parse_bipoly("x+y", prime), G)
    assert v.premise_ok and v.holds is True
    assert v.ratio == v.lhs / d**1.5
    assert v.ratio > float(image_bound_constants(1).c2)


def test_level_pair_bound_premises():
    P = parse_bipoly("x+y", P13)
    v = verify_level_pair_bound(P, G3, value_set(P13, [2]))
    assert v.inequality == "vm"
    assert not v.premise_ok and v.premise_reason == "not-admitted"
    assert v.lhs == 1  # the pair (1,1)


def test_level_pair_bound_h_window():
    # at |G|=101 even h=1 violates h * 40^3 * n^9 < |G|^2 (64000 >= 10201),
    # so the h-clause fires only after admissibility already passed
    d = 101
    prime = smallest_admitted_prime(d)
    G = subgroup_of_order(prime, d)
    v = verify_level_pair_bound(parse_bipoly("x+y", prime), G, value_set(prime, [2]))
    assert not v.premise_ok and v.premise_reason == "level-count-bound"


def test_level_pair_bound_met_instance():
    # |G| = 300: 100 < 300, and h=1 gives 64000 < 90000 -> whole premise holds
    d = 300
    prime = smallest_admitted_prime(d)
    G = subgroup_of_order(prime, d)
    v = verify_level_pair_bound(parse_bipoly("x+y", prime), G, value_set(prime, [2]))
    assert v.premise_ok and v.holds is True
    assert v.rhs == pytest.approx(24 * d ** (2 / 3), rel=1e-12)


def test_admitted_window_low_end_is_strict():
    # 100 n^3 < |G| at n = 1: |G| = 100 at p = 90 001 sits on it (the upper
    # end 9 |G|^2 < p holds by 1), |G| = 101 is just past it.  vm's
    # level-count clause comes after the window, so reaching it at |G| = 101
    # shows the window admitted that subgroup
    on = subgroup_of_order(make_prime(90001), 100)
    past = subgroup_of_order(smallest_admitted_prime(101), 101)
    for G, t2_reason, vm_reason in ((on, "not-admitted", "not-admitted"),
                                    (past, "", "level-count-bound")):
        P = parse_bipoly("x+y", G.prime)
        assert verify_image_lower_bound(P, G).premise_reason == t2_reason, G.order
        assert verify_level_pair_bound(P, G, value_set(G.prime, [2])).premise_reason == vm_reason, G.order


def test_level_count_bound_is_strict():
    # h * 40^3 * n^9 < |G|^2 at n = 1, |G| = 800: h = 10 sits on it
    # (640 000 = 800^2), h = 9 is inside.  p = 5 761 601 is the smallest
    # p = 1 (mod 800) past 9 * 800^2 = 5 760 000, so the subgroup is admitted
    prime = smallest_admitted_prime(800)
    assert int(prime) == 5761601
    G = subgroup_of_order(prime, 800)
    P = parse_bipoly("x+y", prime)
    inside = verify_level_pair_bound(P, G, value_set(prime, range(1, 10)))
    on = verify_level_pair_bound(P, G, value_set(prime, range(1, 11)))
    assert inside.premise_ok and inside.holds is True
    assert not on.premise_ok and on.premise_reason == "level-count-bound"


def test_shift_overlap_examples():
    v = verify_shift_overlap_bound(G3, 1)
    assert v.inequality == "gv"
    assert v.premise_ok and v.lhs == 0 and v.holds is True
    assert v.rhs == pytest.approx(4 * 3 ** (2 / 3), rel=1e-12)
    full = subgroup_of_order(P13, 12)
    v = verify_shift_overlap_bound(full, 1)
    assert not v.premise_ok and v.premise_reason == "size-window"
    with pytest.raises(ZeroShift):
        verify_shift_overlap_bound(G3, 0)


def test_shift_overlap_exhaustive_tiny():
    for p in (5, 7, 13, 31):
        prime = make_prime(p)
        for d in [d for d in range(1, p) if (p - 1) % d == 0]:
            G = subgroup_of_order(prime, d)
            for mu in range(1, p):
                v = verify_shift_overlap_bound(G, mu)
                if v.premise_ok:
                    assert v.holds is True, (p, d, mu)


def test_fiber_bound_small_group():
    f1 = UniPoly(13, [1, 1])
    f2 = UniPoly(13, [12, 1])
    c = coset_of(1, G3)
    v = verify_fiber_bound([f1, f2], [c, c], G3)
    assert v.inequality == "thmap"
    assert not v.premise_ok and v.premise_reason == "subgroup-too-small"
    assert v.lhs == 1  # fiber {2}


def test_fiber_bound_not_permissible():
    f1 = UniPoly(13, [1, 1])
    c = coset_of(1, G3)
    v = verify_fiber_bound([f1, f1], [c, c], G3)
    assert not v.premise_ok
    assert v.premise_reason.startswith("not-permissible:")
    assert "[0]" in v.premise_reason or "[1]" in v.premise_reason


def test_fiber_bound_rejects_cosets_of_other_subgroups():
    f1 = UniPoly(13, [1, 1])
    f2 = UniPoly(13, [12, 1])
    G4, G6 = subgroup_of_order(P13, 4), subgroup_of_order(P13, 6)
    G3_at_7 = subgroup_of_order(make_prime(7), 3)
    for other in (coset_of(2, G4), coset_of(1, G6), coset_of(2, G3_at_7)):
        with pytest.raises(ValueError, match="is not a coset of the given subgroup"):
            verify_fiber_bound([f1, f2], [coset_of(1, G3), other], G3)
    # a hand-built coset, from any member, is accepted like coset_of's
    built = Coset(G3, 5)
    assert built == coset_of(6, G3)
    assert verify_fiber_bound([f1, f2], [built, built], G3) == verify_fiber_bound(
        [f1, f2], [coset_of(2, G3)] * 2, G3
    )


def test_fiber_bound_scan_budget():
    # a family with no linear member is scanned over F_p, under max_pairs
    fs = [UniPoly(13, [1, 0, 1]), UniPoly(13, [2, 0, 1])]
    c = coset_of(1, G3)
    with pytest.raises(SizeBudget):
        verify_fiber_bound(fs, [c, c], G3, max_pairs=12)
    assert verify_fiber_bound(fs, [c, c], G3, max_pairs=13).inequality == "thmap"


def _primes_around(d, edge, count):
    """`count` primes p = 1 (mod d) on each side of the real number edge."""
    below, above = [], []
    k = int(edge) // d
    while len(below) < count and k > 0:
        if k * d + 1 < edge and is_prime_u64(k * d + 1):
            below.append(k * d + 1)
        k -= 1
    k = int(edge) // d
    while len(above) < count:
        if k * d + 1 > edge and is_prime_u64(k * d + 1):
            above.append(k * d + 1)
        k += 1
    return sorted(below) + above


@pytest.mark.parametrize(
    "m, orders",
    [((1, 1), (17, 24, 60, 8732)), ((1, 1, 1), (65, 72)), ((2, 1), (4100,)), ((2, 2), (4104,))],
)
def test_fiber_bound_upper_window_is_exact(m, orders):
    # |G| < c2 p^{1-1/(2n+1)} decided as |G|^{2n+1} (n+1)^{2n} (prod m)^2 < p^{2n},
    # at primes on both sides of the edge; p = 253229 with |G| = 8732 comes
    # within a relative 4.9e-8 of it, the closest such instance below 2*10^6
    n = len(m)
    for d in orders:
        lhs = d ** (2 * n + 1) * (n + 1) ** (2 * n) * math.prod(m) ** 2
        seen = set()
        for p in _primes_around(d, lhs ** (1 / (2 * n)), 3):
            G = subgroup_of_order(make_prime(p), d)
            roots = iter(range(1, 2 * sum(m), 2))
            fs = []
            for mi in m:
                f = UniPoly(p, [1])
                for _ in range(mi):
                    f = f * UniPoly(p, [next(roots), 1])
                fs.append(f)
            v = verify_fiber_bound(fs, [coset_of(1, G)] * n, G)
            inside = lhs < p ** (2 * n)
            seen.add(inside)
            assert v.premise_ok == inside, (m, p, d)
            assert v.premise_reason == ("" if inside else "subgroup-too-large"), (m, p, d)
        assert seen == {True, False}


# --- growth and extraction ----------------------------------------------------


def test_growth_sizes_are_the_sumsets():
    for p in (13, 31, 61, 97, 4294967311):
        prime = make_prime(p)
        for G in enumerate_subgroups(prime) if p < 100 else [subgroup_of_order(prime, 30)]:
            if G.order < 2:
                continue
            gv = value_set(prime, G.elements)
            r = probe_growth(G)
            assert (r.sum_size, r.diff_size) == (len(sumset(gv, gv)), len(sumset(gv, gv, -1)))
            assert type(r.sum_size) is int and type(r.diff_size) is int


def test_growth_budget():
    G = subgroup_of_order(P13, 12)
    with pytest.raises(SizeBudget, match=r"^\|G\|\^2 = 144 exceeds budget 143$"):
        probe_growth(G, max_pairs=143)
    assert probe_growth(G, max_pairs=144).sum_size == 13


def test_growth_example():
    r = probe_growth(G3)
    assert r.sum_size == 6 and r.diff_size == 7
    assert r.sum_over_pow43 == pytest.approx(6 / 3 ** (4 / 3), rel=1e-12)
    assert r.sum_over_pow43 == pytest.approx(1.3867225487012695, rel=1e-12)
    for val in (
        r.sum_over_pow43,
        r.diff_over_pow43,
        r.sum_log_over_pow53,
        r.diff_log_over_pow53,
        r.sum_over_pow32,
        r.diff_over_pow32,
    ):
        assert val > 0


def test_growth_rejects_trivial_group():
    with pytest.raises(ValueError):
        probe_growth(subgroup_of_order(P13, 1))


def test_extract_all_kept():
    P = parse_bipoly("x+y", P13)
    kept, cert = extract_permissible(P, [1, 2, 3, 4, 5])
    assert kept == (0, 1, 2, 3, 4)
    assert cert.guarantee == 3
    assert cert.h == 5 and cert.k == 1 and cert.l == 1
    assert cert.dropped_leading == () and cert.dropped_constant == ()


def test_extract_collapsing_pair():
    # y=1 and y=12 square to the same thing: the two slices are equal
    P = parse_bipoly("x^2+y^2", P13)
    kept, cert = extract_permissible(P, [1, 12])
    assert len(kept) == 1
    assert cert.guarantee == 0  # floor((2-4)/4) < 0 -> vacuous


def test_extract_drops_constant_root():
    P = parse_bipoly("x+y", P13)  # free coefficient p_0(y) = y
    kept, cert = extract_permissible(P, [0, 1, 2])
    assert cert.dropped_constant == (0,)
    assert kept == (1, 2)


def test_extract_errors():
    with pytest.raises(NotRequired):
        extract_permissible(parse_bipoly("x*y+x", P13), [1, 2])
    with pytest.raises(DuplicateY):
        extract_permissible(parse_bipoly("x+y", P13), [1, 14])
    with pytest.raises(NotRequired):
        # univariate input is its own single-variable factor
        extract_permissible(parse_bipoly("x+1", P13), [1, 2])


def test_extract_randomized_certificates():
    rng = random.Random(99)
    texts = [
        "x+y",
        "x^2+y^2",
        "x*y+1",
        "x^2+x*y+y^2",
        "x^3+y^2+1",
        "x^2*y^2+x+y",
        "x^2+3*y^3+2",
    ]
    trials = 0
    while trials < 30:
        p = rng.choice([13, 31, 101])
        prime = make_prime(p)
        P = parse_bipoly(rng.choice(texts), prime)
        if not (P.deg_x >= 1 and P.deg_y >= 1 and is_required(P)):
            continue
        h = rng.randint(2, min(20, p - 1))
        ys = rng.sample(range(p), h)
        kept, cert = extract_permissible(P, ys)
        trials += 1
        assert len(kept) >= cert.guarantee
        assert cert.guarantee == max(0, (h - 2 * cert.l) // (cert.k * cert.l))
        fs = [P.subst_y(ys[i]) for i in kept]
        if fs:
            assert is_permissible(fs).ok, (p, P.to_text(), ys, kept)


def test_h_min_formula():
    assert h_min_formula(3, 1, 1) == 5
    assert h_min_formula(1, 1, 1) == 3
    assert h_min_formula(2, 3, 4) == 32
    for base in ((2, 2, 2),):
        v0 = h_min_formula(*base)
        for i in range(3):
            bumped = list(base)
            bumped[i] += 1
            assert h_min_formula(*bumped) > v0
    with pytest.raises(ValueError):
        h_min_formula(0, 1, 1)


# --- factorization probe --------------------------------------------------------


def test_min_q_for_delta():
    assert min_q_for_delta(0.5) == 2
    assert min_q_for_delta(0.25) == 2
    assert min_q_for_delta(0.125) == 4
    # binary 0.2 is a hair above 1/5, so 1/delta < 5 and q=2 suffices
    assert min_q_for_delta(0.2) == 2
    with pytest.raises(ValueError):
        min_q_for_delta(0.0)
    with pytest.raises(ValueError):
        min_q_for_delta(1.0)


def test_probe_config_validation():
    ProbeConfig(delta=0.5, epsilon=0.1)
    with pytest.raises(ValueError):
        ProbeConfig(delta=0.0, epsilon=0.1)
    with pytest.raises(ValueError):
        ProbeConfig(delta=0.5, epsilon=1.0)


def test_probe_factorization_representation():
    G = subgroup_of_order(P13, 12)
    A = value_set(P13, [1, 2, 3, 4])
    B = value_set(P13, [0, 4, 8])
    r = probe_factorization(parse_bipoly("x+y", P13), A, B, G, ProbeConfig(0.5, 0.2))
    assert r.is_representation
    assert r.image_size == 12
    assert r.exponent_a == pytest.approx(math.log(4) / math.log(12), rel=1e-12)
    assert r.exponent_b == pytest.approx(math.log(3) / math.log(12), rel=1e-12)
    assert r.min_q == 2
    # 12^{0.3} = 2.1, 12^{0.7} = 5.7: both 4 and 3 inside the band
    assert r.in_band


def test_probe_factorization_not_representation():
    G = subgroup_of_order(P13, 12)
    A = value_set(P13, [1, 2])
    B = value_set(P13, [1, 2])
    r = probe_factorization(parse_bipoly("x+y", P13), A, B, G, ProbeConfig(0.5, 0.2))
    assert not r.is_representation
    assert r.image_size == 3


def test_probe_factorization_preconditions():
    G = subgroup_of_order(P13, 12)
    small = value_set(P13, [1])
    ok = value_set(P13, [1, 2])
    with pytest.raises(ValueError):
        probe_factorization(parse_bipoly("x+y", P13), small, ok, G, ProbeConfig(0.5, 0.2))
    with pytest.raises(NotRequired):
        probe_factorization(parse_bipoly("x*y+x", P13), ok, ok, G, ProbeConfig(0.5, 0.2))
    with pytest.raises(ValueError):
        probe_factorization(
            parse_bipoly("x+y", P13), ok, ok, subgroup_of_order(P13, 1), ProbeConfig(0.5, 0.2)
        )
