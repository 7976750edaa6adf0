import gc
import itertools
import math
import random
import types

import pytest
from hypothesis import assume, given, settings, strategies as st

from sumprod.errors import (
    BudgetExceeded,
    DegreeOverflow,
    DegreeVsCharacteristic,
    NotHomogeneous,
    ParseError,
    WorkbenchError,
    ZeroPolynomial,
    ZeroShift,
)
from sumprod import field, poly
from sumprod.field import ExtField, ext_field, make_prime
from sumprod.poly import (
    BiPoly,
    UniPoly,
    _line_setup,
    _linear_search,
    _slice_roots,
    abs_irreducible_shift,
    factor_oracle,
    is_good,
    is_homogeneous,
    is_permissible,
    is_required,
    parse_bipoly,
    proper_power_form,
    squarefree_decomposition,
    uni_gcd,
)

P13 = make_prime(13)
P5 = make_prime(5)
P3 = make_prime(3)


# --- parsing ---------------------------------------------------------------


def test_parse_examples():
    assert parse_bipoly("x^2+y^2", P13).coeffs == {(2, 0): 1, (0, 2): 1}
    assert parse_bipoly("(x+y)^2", P13).coeffs == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert parse_bipoly("x*y+x", P13).coeffs == {(1, 1): 1, (1, 0): 1}


def test_parse_reduces_mod_p():
    assert parse_bipoly("14*x", P13).coeffs == {(1, 0): 1}
    assert parse_bipoly("13*x+y", P13).coeffs == {(0, 1): 1}
    assert parse_bipoly("26", P13).coeffs == {}


def test_parse_whitespace_and_nesting():
    a = parse_bipoly(" ( x + y ) * ( x + 12 * y ) ", P13)
    b = parse_bipoly("(x+y)*(x+12*y)", P13)
    assert a.coeffs == b.coeffs == {(2, 0): 1, (0, 2): 12}  # x^2 - y^2


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_bipoly("x+*y", P13)
    assert exc.value.position == 2
    with pytest.raises(ParseError):
        parse_bipoly("", P13)
    with pytest.raises(ParseError):
        parse_bipoly("x+y)", P13)
    with pytest.raises(ParseError):
        parse_bipoly("z", P13)
    with pytest.raises(ParseError):
        parse_bipoly("-x", P13)  # no unary minus in the grammar
    with pytest.raises(ParseError):
        parse_bipoly("x^-2", P13)


def test_degree_cap():
    parse_bipoly("x^16", P13)
    with pytest.raises(DegreeOverflow):
        parse_bipoly("x^17", P13)
    with pytest.raises(DegreeOverflow):
        parse_bipoly("(x+y)^17", P13)
    with pytest.raises(DegreeOverflow):
        parse_bipoly("x^9*y^9", P13)


def test_degree_cap_messages_and_positions():
    cases = {"x^17": 2, "(x+y)^17": 6, "x^9*y^9": 3, "x^8*x^8*x": 7}
    for text, pos in cases.items():
        with pytest.raises(DegreeOverflow) as exc:
            parse_bipoly(text, P13)
        want = f"expression expands past total degree 16 (near position {pos})"
        assert str(exc.value) == want
    # a zero factor has degree 0 here, never -inf
    assert parse_bipoly("(x-x)^99", P13).is_zero()
    assert parse_bipoly("0*x^16*x^16", P13).is_zero()
    assert parse_bipoly("13*x^16*y", P13).is_zero()


@st.composite
def random_bipoly(draw):
    p = draw(st.sampled_from([3, 5, 13, 101]))
    n_terms = draw(st.integers(min_value=0, max_value=8))
    coeffs = {}
    for _ in range(n_terms):
        i = draw(st.integers(min_value=0, max_value=6))
        j = draw(st.integers(min_value=0, max_value=6))
        c = draw(st.integers(min_value=1, max_value=p - 1))
        coeffs[(i, j)] = c
    return BiPoly(p, coeffs)


@settings(max_examples=300)
@given(P=random_bipoly())
def test_parser_roundtrip(P):
    assert parse_bipoly(P.to_text(), P.p).coeffs == P.coeffs


def test_eval_examples():
    assert parse_bipoly("x+y", P13).eval(3, 9) == 12
    assert parse_bipoly("x^2+y^2", P13).eval(1, 1) == 2
    Q = parse_bipoly("x*y+7", P13)
    assert Q.eval(0, 0) == 7


@pytest.mark.parametrize("p", [3, 13, 92921, 4294967311])
def test_unipoly_call_matches_one_pow_per_term(p):
    # Horner against the sum of c * x^d, on dense and sparse polynomials
    rng = random.Random(f"unipoly-call|{p}")
    polys = [UniPoly(p), UniPoly(p, [5]), UniPoly(p, [0] * 7 + [1])]
    for _ in range(40):
        top = rng.randint(0, 12)
        if rng.random() < 0.5:  # dense
            polys.append(UniPoly(p, [rng.randrange(p) for _ in range(top + 1)]))
        else:  # a few terms with gaps
            coeffs = [0] * (top + 1)
            for _ in range(3):
                coeffs[rng.randint(0, top)] = rng.randrange(-p, p)
            polys.append(UniPoly(p, coeffs))
    for f in polys:
        for x in (0, 1, p - 1, -1, -p - 2, rng.randrange(p), -rng.randrange(p)):
            assert f(x) == sum(c * pow(x, d, p) for d, c in enumerate(f.coeffs)) % p, (f, x)


# --- homogeneity / required ------------------------------------------------


def test_is_homogeneous():
    assert is_homogeneous(parse_bipoly("x^2+y^2", P13)) == (True, 2)
    assert is_homogeneous(parse_bipoly("x*y+x", P13)) == (False, None)
    assert is_homogeneous(parse_bipoly("x+y", P13)) == (True, 1)
    with pytest.raises(ZeroPolynomial):
        is_homogeneous(BiPoly(13, {}))


def test_is_required():
    assert is_required(parse_bipoly("x+y", P13))
    assert not is_required(parse_bipoly("x*y+x", P13))  # x*(y+1)
    assert is_required(parse_bipoly("x^2+y^2", P13))
    assert not is_required(parse_bipoly("x^2*y+x", P13))  # x*(xy+1)
    assert not is_required(parse_bipoly("x*y^2+y", P13))  # y*(xy+1)


@settings(max_examples=100)
@given(
    p=st.sampled_from([5, 13]),
    a=st.integers(min_value=1, max_value=4),
    deg=st.integers(min_value=1, max_value=3),
)
def test_single_variable_factor_never_required(p, a, deg):
    # (x^deg + a) * (x + y): divisible by nothing single-variable... then
    # multiply by a pure-x factor and requiredness must break
    mixed = parse_bipoly("x+y", p)
    pure = parse_bipoly(f"x^{deg}+{a}", p)
    assert not is_required(pure * mixed)
    pure_y = parse_bipoly(f"y^{deg}+{a}", p)
    assert not is_required(pure_y * mixed)


# --- univariate helpers ------------------------------------------------------


def test_uni_gcd_examples():
    f = UniPoly(13, [12, 0, 1])  # x^2 - 1
    g = UniPoly(13, [12, 1])  # x - 1
    assert uni_gcd(f, g).coeffs == (12, 1)
    assert uni_gcd(UniPoly(13, [1, 1]), UniPoly(13, [2, 1])).degree == 0
    h = UniPoly(13, [1, 0, 1])
    assert uni_gcd(h, h).coeffs == h.coeffs


@st.composite
def random_unipoly(draw, p, max_deg=5, nonzero=False):
    deg = draw(st.integers(min_value=1 if nonzero else 0, max_value=max_deg))
    coeffs = [draw(st.integers(min_value=0, max_value=p - 1)) for _ in range(deg)]
    coeffs.append(draw(st.integers(min_value=1, max_value=p - 1)))
    return UniPoly(p, coeffs)


@settings(max_examples=200)
@given(data=st.data())
def test_uni_gcd_divides_both(data):
    p = data.draw(st.sampled_from([5, 13]))
    f = data.draw(random_unipoly(p))
    g = data.draw(random_unipoly(p))
    d = uni_gcd(f, g)
    assert (f % d).is_zero()
    assert (g % d).is_zero()
    assert uni_gcd(g, f).coeffs == d.coeffs
    assert d.lead() == 1


@settings(max_examples=200)
@given(data=st.data())
def test_divmod_invariant(data):
    p = data.draw(st.sampled_from([5, 13]))
    f = data.draw(random_unipoly(p))
    g = data.draw(random_unipoly(p, nonzero=True))
    q, r = f.divmod(g)
    assert (q * g + r).coeffs == f.coeffs
    assert r.is_zero() or r.degree < g.degree


def test_squarefree_examples():
    # (x-1)^2 (x-2) over F_13
    f = UniPoly(13, [12, 1]) * UniPoly(13, [12, 1]) * UniPoly(
        13, [11, 1]
    )
    dec = squarefree_decomposition(f)
    parts = [(part.to_text(), m) for part, m in dec.parts]
    assert parts == [("x+11", 1), ("x+12", 2)]
    assert dec.reconstruct().coeffs == f.coeffs

    g = UniPoly(13, [1, 0, 1])  # x^2+1: roots 5, 8 both simple
    dec = squarefree_decomposition(g)
    assert [(part.to_text(), m) for part, m in dec.parts] == [("x^2+1", 1)]

    h = UniPoly(13, [0, 0, 1])  # x^2
    dec = squarefree_decomposition(h)
    assert [(part.to_text(), m) for part, m in dec.parts] == [("x", 2)]


def test_squarefree_degree_vs_characteristic():
    f = UniPoly(5, [4, 0, 0, 0, 0, 1])  # x^5 - 1 over F_5 = (x-1)^5
    with pytest.raises(DegreeVsCharacteristic):
        squarefree_decomposition(f)
    with pytest.raises(ZeroPolynomial):
        squarefree_decomposition(UniPoly(5))


@settings(max_examples=150)
@given(data=st.data())
def test_squarefree_reconstructs(data):
    p = data.draw(st.sampled_from([13, 101]))
    f = data.draw(random_unipoly(p, max_deg=4, nonzero=True))
    g = data.draw(random_unipoly(p, max_deg=3, nonzero=True))
    prod = f * f * g  # guaranteed repeated content
    if prod.degree >= p:
        return
    dec = squarefree_decomposition(prod)
    assert dec.reconstruct().coeffs == prod.coeffs
    for part, _ in dec.parts:
        assert part.lead() == 1
        assert uni_gcd(part, part.derivative()).degree == 0  # squarefree


def test_unipoly_constructor_reduces_and_trims():
    assert UniPoly(13, [15, -1, 26, 0]).coeffs == (2, 12)
    assert UniPoly(13, (13, 0, -26)).coeffs == ()
    assert UniPoly(13, iter([1, 2])).coeffs == (1, 2)
    assert UniPoly(13).coeffs == () and UniPoly(13).degree == poly.NEG_INF
    assert UniPoly(13, [0, 0, 3]).degree == 2 and UniPoly(13, [0, 0, 3]).lead() == 3
    assert UniPoly(13, [1, 2]) == UniPoly(13, [14, 15, 13])
    assert hash(UniPoly(13, [1, 2])) == hash(UniPoly(13, [14, 15, 13]))
    for old in ({0: 1, 1: 1}, {}):  # the old {degree: c} form
        with pytest.raises(TypeError):
            UniPoly(13, old)


@settings(max_examples=200)
@given(data=st.data())
def test_every_unipoly_result_is_a_trimmed_residue_tuple(data):
    # degree and lead read the length and the last entry, so a result with
    # a zero on top or an unreduced entry would answer wrongly without raising
    p = data.draw(st.sampled_from([5, 13, 101]))
    f = data.draw(random_unipoly(p))
    g = data.draw(random_unipoly(p, nonzero=True))
    results = [*f.divmod(g), f % g, f // g, uni_gcd(f, g), g.monic(), f.derivative(),
               f + g, f - g, f * g, g - g, g.scale(p)]
    for s in (g, f * g * g):
        if 1 <= s.degree < p:
            results += [part for part, _ in squarefree_decomposition(s).parts]
    P = data.draw(random_bipoly())  # over a prime of its own
    a = data.draw(st.integers(min_value=-P.p, max_value=2 * P.p))
    results += [P.subst_x(a), P.subst_y(a)]
    results += [P.coeff_of_x_power(k) for k in range(-1, 5)]
    results += [P.coeff_of_y_power(k) for k in range(-1, 5)]
    for u in results:
        assert type(u.coeffs) is tuple, u
        assert all(0 <= c < u.p for c in u.coeffs), u
        assert not u.coeffs or u.coeffs[-1], u


# --- the irreducibility machinery -------------------------------------------


def _power(text, prime=P13):
    r = proper_power_form(parse_bipoly(text, prime))
    return (r.is_power, r.exponent)


def test_proper_power_examples():
    assert _power("(x+y)^2") == (True, 2)
    assert _power("x^2+y^2") == (False, 1)
    assert _power("x^2*y") == (False, 1)
    assert _power("x^3") == (True, 3)
    assert _power("x^2*y^2") == (True, 2)
    with pytest.raises(NotHomogeneous):
        proper_power_form(parse_bipoly("x*y+x", P13))


def test_proper_power_of_explicit_powers():
    for p in (5, 7, 13):
        for m in range(2, p):
            h = parse_bipoly("x+y", p).pow_int(m)
            r = proper_power_form(h)
            assert (r.is_power, r.exponent) == (True, m), (p, m)


def test_abs_irreducible_shift_examples():
    assert abs_irreducible_shift(parse_bipoly("(x+y)^2", P13), 1) is False
    assert abs_irreducible_shift(parse_bipoly("x+y", P13), 5) is True
    assert abs_irreducible_shift(parse_bipoly("x^2+y^2", P13), 1) is True
    with pytest.raises(ZeroShift):
        abs_irreducible_shift(parse_bipoly("x+y", P13), 0)
    with pytest.raises(ZeroShift):
        abs_irreducible_shift(parse_bipoly("x+y", P13), 13)


def test_factor_oracle_examples():
    assert factor_oracle(parse_bipoly("(x+y)^2+4", P5), 2) is True  # (x+y)^2 - 1
    assert factor_oracle(parse_bipoly("x+y+4", P5), 2) is False
    assert factor_oracle(parse_bipoly("x^2+y^2+4", P5), 2) is False
    with pytest.raises(ValueError):
        factor_oracle(parse_bipoly("(x+y)^5", P13), 3)  # degree above oracle range


def test_factor_oracle_quartic_needs_quadratic_search():
    # (x^2+y^2)^2 - 1 = (x^2+y^2-1)(x^2+y^2+1): two smooth conics, so no
    # linear divisor exists and only the quadratic search can find a factor
    Q = parse_bipoly("(x^2+y^2)^2-1", P3)
    assert not any(_linear_search(_line_setup(Q), ext_field(3, d)) for d in (1, 2))
    assert factor_oracle(Q, 2) is True


def test_factor_oracle_irreducible_quartic_shift():
    # the Fermat quartic x^4 + y^4 = 1 is smooth in characteristic 3
    assert factor_oracle(parse_bipoly("x^4+y^4-1", P3), 2) is False


def test_abs_irreducible_shift_quartic_at_p3():
    # degree 4 >= p = 3 routes to the factor search
    assert abs_irreducible_shift(parse_bipoly("(x^2+y^2)^2", P3), 1) is False
    assert abs_irreducible_shift(parse_bipoly("x^4+y^4", P3), 1) is True


def _ref_linear_factor_exists(Q, F):
    """Plain nested-loop search for a divisor y - c or x - (b*y + g) over F."""
    n = Q.total_degree
    coeffs = [((i, j), c % F.p) for (i, j), c in Q.coeffs.items()]

    def power(a, e):
        acc = 1
        for _ in range(e):
            acc = F.mul(acc, a)
        return acc

    for c in range(F.q):
        # y - c divides Q iff Q(x, c) = 0: every coefficient of x^i vanishes
        row = [0] * (n + 1)
        for (i, j), a in coeffs:
            row[i] = F.add(row[i], F.mul(a, power(c, j)))
        if not any(row):
            return True
    for g in range(F.q):
        # the y^0 coefficient of Q(b*y + g, y) is Q(g, 0) for every b
        at_g = 0
        for (i, j), a in coeffs:
            if j == 0:
                at_g = F.add(at_g, F.mul(a, power(g, i)))
        if at_g:
            continue
        for b in range(F.q):
            # expand Q(b*y + g, y) as a list of y-coefficients
            total = [0] * (n + 1)
            for (i, j), a in coeffs:
                term = [a]  # a * (b*y + g)^i, low degree first
                for _ in range(i):
                    nxt = [0] * (len(term) + 1)
                    for t, v in enumerate(term):
                        nxt[t] = F.add(nxt[t], F.mul(v, g))
                        nxt[t + 1] = F.add(nxt[t + 1], F.mul(v, b))
                    term = nxt
                for t, v in enumerate(term):
                    total[t + j] = F.add(total[t + j], v)
            if not any(total):
                return True
    return False


@st.composite
def small_field_poly(draw):
    """(Q, p, d) with Q over F_p of total degree 2..4, divisible by neither x nor y.

    Besides dense random Q, products of univariate factors in y and in
    x + k*y give linear divisors over extensions."""
    p = draw(st.sampled_from([3, 5, 7]))
    d = draw(st.integers(min_value=1, max_value=3))
    coef = st.integers(min_value=0, max_value=p - 1)
    x, y = BiPoly.variable("x", p), BiPoly.variable("y", p)

    def univariate(u, deg):
        acc = BiPoly.const(p, draw(st.integers(min_value=1, max_value=p - 1)))
        for _ in range(deg):
            acc = acc * u + BiPoly.const(p, draw(coef))
        return acc

    Q = BiPoly.const(p, 1)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["dense", "in-y", "in-x+ky"]))
        room = 4 - max(Q.total_degree, 0)
        if room < 1:
            break
        deg = draw(st.integers(min_value=1, max_value=min(room, 3)))
        if kind == "dense":
            factor = BiPoly(p, {(i, t - i): draw(coef) for t in range(deg + 1) for i in range(t + 1)})
        elif kind == "in-y":
            factor = univariate(y, deg)
        else:
            factor = univariate(x + y.scale(draw(coef)), deg)
        if not factor.is_zero():
            Q = Q * factor
    return Q, p, d


@settings(max_examples=120, deadline=None)
@given(case=small_field_poly())
def test_linear_factor_search_matches_scalar_reference(case):
    Q, p, d = case
    assume(Q.total_degree >= 2)
    assume(not all(j >= 1 for _, j in Q.coeffs))  # y | Q is settled by the caller
    assume(not all(i >= 1 for i, _ in Q.coeffs))  # x | Q likewise
    F = ext_field(p, d)
    assert _linear_search(_line_setup(Q), F) == _ref_linear_factor_exists(Q, F)


def test_linear_factor_search_near_element_budget():
    # q = 359^2 = 128881 sits near the 2^17 element budget; x^2 - n*y^2 with
    # n a non-residue splits only over F_{359^2}
    p = 359
    n = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    Q = BiPoly(p, {(2, 0): 1, (0, 2): -n})
    assert factor_oracle(Q, 1) is False
    assert factor_oracle(Q, 2) is True


def test_linear_factor_search_products_exceed_32_bits():
    # p = 2^17 - 1: in a*x^2 - a*r*y^2 with a = p - 2 and r, nr the largest
    # residue and non-residue, the products a * b^2 near b^2 = r reach
    # p^2 ~ 1.7e10, past 32-bit range
    p = 2**17 - 1
    a = p - 2
    r = next(s for s in range(p - 1, 1, -1) if pow(s, (p - 1) // 2, p) == 1)
    nr = next(s for s in range(p - 1, 1, -1) if pow(s, (p - 1) // 2, p) == p - 1)
    F = ext_field(p, 1)
    assert _linear_search(_line_setup(BiPoly(p, {(2, 0): a, (0, 2): -a * r})), F) is True
    assert _linear_search(_line_setup(BiPoly(p, {(2, 0): a, (0, 2): -a * nr})), F) is False


@settings(max_examples=60, deadline=None)
@given(case=small_field_poly())
def test_factor_oracle_matches_scalar_reference_over_every_field(case):
    # the oracle skips F_{p^d} inside a larger searched field; the reference
    # searches every field
    Q, p, _ = case
    assume(Q.total_degree in (2, 3))
    found = False
    for d_max in range(1, 5):
        found = found or _ref_linear_factor_exists(Q, ext_field(p, d_max))
        assert factor_oracle(Q, d_max) == found, d_max


def _zero_root_forms(p, n, count, rng):
    """Random Q over F_p of total degree n, divisible by neither x nor y, whose
    candidate parts b or g include 0: Q(x, 0) or Q_n(x, 1) has the root 0.

    Half are dense with c_00 = 0 or c_0n = 0 (b = 0 or g = 0 survives the
    root filters but may be no divisor); half are (x - b*y - g) * R with b
    or g equal to 0."""
    x, y = BiPoly.variable("x", p), BiPoly.variable("y", p)
    out = []
    while len(out) < count:
        if len(out) % 2:
            b, g = rng.choice([(0, rng.randrange(p)), (rng.randrange(p), 0), (0, 0)])
            R = BiPoly(p, {(i, t - i): rng.randrange(p) for t in range(n) for i in range(t + 1)})
            Q = (x - y.scale(b) - BiPoly.const(p, g)) * R
        else:
            coeffs = {(i, t - i): rng.randrange(p) for t in range(n + 1) for i in range(t + 1)}
            for key in rng.choice([[(0, 0)], [(0, n)], [(0, 0), (0, n)]]):
                coeffs[key] = 0
            Q = BiPoly(p, coeffs)
        if (Q.total_degree == n and any(j == 0 for _, j in Q.coeffs)
                and any(i == 0 for i, _ in Q.coeffs)):
            out.append(Q)
    return out


_ZERO_ROOT_FORMS = [(p, Q) for p in (3, 5, 7) for n in (3, 4)
                    for Q in _zero_root_forms(p, n, 8, random.Random(f"zero-roots|{p}|{n}"))]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_linear_factor_search_with_zero_parts_matches_reference(p):
    for q, Q in _ZERO_ROOT_FORMS:
        if q != p:
            continue
        for d in (1, 2, 3):
            F = ext_field(p, d)
            assert _linear_search(_line_setup(Q), F) == _ref_linear_factor_exists(Q, F), (Q, d)


def _searched_afresh(monkeypatch, run):
    """run() with the shift families, and with them the oracle's stored
    answers, cleared first, so the oracle searches again; asserts it did."""
    poly._family.cache_clear()
    poly._scaled_family.cache_clear()
    searched, real_search = [], poly._linear_search
    monkeypatch.setattr(poly, "_linear_search", lambda lines, F: searched.append(F) or real_search(lines, F))
    out = run()
    assert searched
    return out


def test_factor_oracle_calls_none_of_the_criterion_helpers(monkeypatch):
    # cubics over F_{p^d}, d <= 3, and quartics at p <= 5 with d_max 1,
    # which keeps the quadratic search over F_p
    calls = [(Q, 3 if Q.total_degree == 3 else 1) for p, Q in _ZERO_ROOT_FORMS
             if Q.total_degree == 3 or p <= 5]
    expected = [factor_oracle(Q, d_max) for Q, d_max in calls]

    def forbidden(*args, **kwargs):
        raise AssertionError("factor_oracle must not use the multiplicity criterion")

    for name in ("squarefree_decomposition", "uni_gcd", "proper_power_form"):
        monkeypatch.setattr(poly, name, forbidden)
    assert _searched_afresh(monkeypatch, lambda: [factor_oracle(Q, d_max) for Q, d_max in calls]) == expected


def test_factor_oracle_calls_none_of_the_list_kernels(monkeypatch):
    # the criterion's dense kernels are its own, like its public helpers
    calls = [Q for p, Q in _ZERO_ROOT_FORMS if Q.total_degree == 3]
    expected = [factor_oracle(Q, 3) for Q in calls]

    def forbidden(*args, **kwargs):
        raise AssertionError("factor_oracle must not use the criterion's list kernels")

    for name in ("_divmod_dense", "_gcd_dense", "_derivative_dense", "_difference_dense",
                 "_yun_dense"):
        monkeypatch.setattr(poly, name, forbidden)
    assert _searched_afresh(monkeypatch, lambda: [factor_oracle(Q, 3) for Q in calls]) == expected


def _reference_survivors(Q, F, roots_of):
    """Does F leave the pair check a (b, g) pair?  No common root of Q's
    x-coefficient rows, and roots of both Q(x, 0) and Q_n(x, 1)."""
    n = Q.total_degree
    rows = {}
    for (i, j), c in Q.coeffs.items():
        rows.setdefault(i, {})[j] = c

    def dense(coeffs):
        return tuple(coeffs.get(k, 0) for k in range(max(coeffs) + 1))

    common = set(range(F.q))
    for row in rows.values():
        common &= set(roots_of(dense(row), F))
    x_slice = {i: c for (i, j), c in Q.coeffs.items() if j == 0}
    top_slice = {i: c for (i, j), c in Q.coeffs.items() if i + j == n}
    return (not common and bool(roots_of(dense(x_slice), F))
            and bool(roots_of(dense(top_slice), F)))


def test_line_terms_are_built_at_most_once_and_only_for_surviving_pairs(monkeypatch):
    # every cubic form over F_5 and a seeded sample of cubic and quadratic
    # forms over F_7, each shifted by 1 and 2 and searched with d_max 3
    # (F_25 and F_125, or F_49 and F_343).  Both shifts share one family, so
    # a form builds its terms at most once, and only when some level leaves
    # some field a (b, g) pair.  The caches are cleared for each form, as
    # its scalar multiples share its family
    memo = {}

    def roots_of(coeffs, F):
        key = (F.p, F.d, coeffs)
        if key not in memo:
            memo[key] = _roots_by_evaluation(coeffs, F)
        return memo[key]

    rng = random.Random("line-terms")
    forms = [(5, vec) for vec in itertools.product(range(5), repeat=4) if any(vec)]
    forms += [(7, tuple(rng.randrange(7) for _ in range(n + 1))) for n in (2, 3) for _ in range(40)]
    forms = [(p, vec) for p, vec in dict.fromkeys(forms) if any(vec)]
    built, searched = [], []
    real_terms, real_search = poly._line_terms, poly._linear_search
    monkeypatch.setattr(poly, "_line_terms", lambda *args: built.append(args) or real_terms(*args))
    monkeypatch.setattr(poly, "_linear_search",
                        lambda lines, F: searched.append(F) or real_search(lines, F))
    seen = set()
    for p, vec in forms:
        n = len(vec) - 1
        h = BiPoly(p, {(n - j, j): c for j, c in enumerate(vec)})
        poly._family.cache_clear()
        poly._scaled_family.cache_clear()
        del built[:]
        want = False
        for alpha in (1, 2):
            Q = h.shift_const(alpha)
            del searched[:]
            factor_oracle(Q, 3)
            want = want or any(_reference_survivors(Q, F, roots_of) for F in searched)
        assert len(built) == want, (p, vec)
        seen.add(want)
    assert seen == {False, True}


def test_one_family_per_form_across_every_level():
    # census-style: every form of degree 2 and 3 over F_5 and of degree 2
    # over F_7 at every nonzero level builds its family once, the shared
    # family gives the criterion's answer at each level, and the forms'
    # scalar multiples share one scaled family: one per form with 1 as the
    # coefficient of its largest monomial
    poly._family.cache_clear()
    poly._scaled_family.cache_clear()
    for p, n in ((5, 2), (5, 3), (7, 2)):
        before = poly._scaled_family.cache_info().misses
        for vec in itertools.product(range(p), repeat=n + 1):
            if not any(vec):
                continue
            h = BiPoly(p, {(n - j, j): c for j, c in enumerate(vec)})
            misses = poly._family.cache_info().misses
            for alpha in range(1, p):
                assert factor_oracle(h.shift_const(alpha), 3) is not abs_irreducible_shift(h, alpha), (vec, alpha)
            assert poly._family.cache_info().misses == misses + 1, (p, vec)
        # the forms whose first nonzero coefficient is 1
        assert poly._scaled_family.cache_info().misses - before == (p ** (n + 1) - 1) // (p - 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_family_keeps_each_field_apart(p):
    # one family searched over F_p, F_{p^2}, F_{p^3} in both orders: with r
    # a non-residue, (y^2 - r)(x^2 + y + 1) has the divisors y -+ sqrt(r),
    # common roots of its rows, and (x - 1)^2 - r y^2 the lines
    # x - (+-sqrt(r) y + 1), from the top form's roots, both only over
    # F_{p^2}; and a seeded sample of forms whose (b, g) pairs survive in
    # more than one field
    r = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    x, y = BiPoly.variable("x", p), BiPoly.variable("y", p)
    one = BiPoly.const(p, 1)
    split = [(y * y - BiPoly.const(p, r)) * (x * x + y + one), (x - one) * (x - one) - (y * y).scale(r)]
    for Q in split + [Q for q, Q in _ZERO_ROOT_FORMS if q == p]:
        want = {d: _ref_linear_factor_exists(Q, ext_field(p, d)) for d in (1, 2, 3)}
        if Q in split:
            assert want == {1: False, 2: True, 3: False}, Q
        for order in ((1, 2, 3), (3, 2, 1)):
            poly._family.cache_clear()
            poly._scaled_family.cache_clear()
            assert {d: _linear_search(_line_setup(Q), ext_field(p, d)) for d in order} == want, (Q, order)


def test_family_reads_its_slices_once_per_field(monkeypatch):
    # across the levels of a cubic over F_49 and F_343 each of the family's
    # rows and its top form is read at most once per field, and its logged
    # terms are one list per field: a level reads its two axis slices
    p = 7
    x, y = BiPoly.variable("x", p), BiPoly.variable("y", p)
    h = (x + y) * (x + y.scale(2)) * (x + y.scale(3))
    poly._family.cache_clear()
    poly._scaled_family.cache_clear()
    family = _line_setup(h.shift_const(1))[0]
    own = [*family.rows, family.top]
    reads, axis_reads = [], []
    real_roots = poly._roots

    def roots(F, sl):
        hits = [(F.d, k) for k, o in enumerate(own) if sl is o]
        (reads if hits else axis_reads).extend(hits or [F.d])
        return real_roots(F, sl)

    monkeypatch.setattr(poly, "_roots", roots)
    logged = {}
    for alpha in range(1, p):
        lines = _line_setup(h.shift_const(alpha))
        for F in (ext_field(p, 2), ext_field(p, 3)):
            del axis_reads[:]
            _linear_search(lines, F)
            assert len(axis_reads) <= 2, (alpha, F)
            if family._lines is not None:
                assert logged.setdefault(F.d, family.logged(F)) is family.logged(F)
    assert reads and len(reads) == len(set(reads))
    assert (2, len(own) - 1) in reads and logged  # the top form, and some (b, g) pair


def _reaches(obj, kind):
    """Whether an object of `kind` can be reached from obj through its
    references, not counting types, functions and modules."""
    stack, seen = [obj], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.FunctionType, types.ModuleType)):
            continue
        if isinstance(obj, kind):
            return True
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return False


def test_family_cache_is_keyed_by_value_and_holds_no_field():
    # one family for the same cubic built in two term orders and for every
    # shift of it, and one scaled family for its scalar multiples; after the
    # field cache is cleared no family reaches an ExtField, although the
    # searches filled every per-field entry
    p = 7
    x, y = BiPoly.variable("x", p), BiPoly.variable("y", p)
    h = (x + y) * (x + y.scale(2)) * (x + y.scale(3))
    reordered = BiPoly(p, dict(reversed(list(h.coeffs.items()))))
    assert reordered == h and list(reordered.coeffs) != list(h.coeffs)
    poly._family.cache_clear()
    poly._scaled_family.cache_clear()
    shifts = [P.shift_const(alpha) for P in (h, reordered) for alpha in range(1, p)]
    families = [_line_setup(Q)[0] for Q in shifts]
    assert all(f is families[0] for f in families)
    assert poly._family.cache_info().misses == 1
    multiples = [h.scale(c).shift_const(alpha) for c in range(2, p) for alpha in range(1, p)]
    assert all(_line_setup(Q)[0] is families[0] for Q in multiples)
    assert poly._family.cache_info().misses == p - 1 and poly._scaled_family.cache_info().misses == 1
    searched = [(Q, d_max) for Q in shifts for d_max in (1, 2, 3)]
    searched += [(parse_bipoly(text, make_prime(p)), 2) for text in ("x^2-y^2-1", "x*y+y^2+x+3", "y^2+3")]
    for Q, d_max in searched:
        factor_oracle(Q, d_max)
    families += [_line_setup(Q)[0] for Q, _ in searched]
    assert any(f._logged for f in families)  # a (b, g) pair was checked
    field._ext_field_cached.cache_clear()
    gc.collect()
    assert not any(_reaches(f, ExtField) for f in families)


_POLY_CACHES = ("_frobenius_orbits", "_slice_roots", "_family", "_scaled_family", "_power_form")


def _clear_poly_caches():
    for name in _POLY_CACHES:
        getattr(poly, name).cache_clear()


def _census_forms():
    """Every nonzero form of degree 1-3 over F_5 and 1-2 over F_7."""
    for p, degrees in ((5, (1, 2, 3)), (7, (1, 2))):
        for n in degrees:
            for vec in itertools.product(range(p), repeat=n + 1):
                if any(vec):
                    yield BiPoly(p, {(n - j, j): c for j, c in enumerate(vec)})


def test_stored_answers_are_the_answers_of_a_fresh_search(monkeypatch):
    # every census form at every nonzero level, d_max 3: the oracle searches
    # once per form of degree >= 2 up to a unit (a linear Q - alpha is
    # answered before any search), the criterion runs once per form up to a
    # unit, and every answer equals the one found with every poly cache
    # cleared before the call
    forms = list(_census_forms())
    searches, real_search = [], poly._search
    monkeypatch.setattr(poly, "_search", lambda *args: searches.append(args) or real_search(*args))
    _clear_poly_caches()
    oracle = {(h, alpha): factor_oracle(h.shift_const(alpha), 3) for h in forms for alpha in range(1, h.p)}
    criterion = {h: proper_power_form(h) for h in forms}
    # c*(h - alpha) = c*h - c*alpha: p - 1 of the (h, alpha) are one Q up to a unit
    assert len(oracle) == 5428 and len(searches) == sum(h.total_degree >= 2 for h in forms) == 1090
    # forms up to a unit: the 772 over F_5 in fours, the 390 over F_7 in sixes
    assert poly._power_form.cache_info().misses == 772 // 4 + 390 // 6 == 258
    for (h, alpha), found in oracle.items():
        _clear_poly_caches()
        assert factor_oracle(h.shift_const(alpha), 3) is found, (h, alpha)
    for h, form in criterion.items():
        _clear_poly_caches()
        assert proper_power_form(h) == form, h


def test_a_unit_multiple_reads_the_stored_answer(monkeypatch):
    p = 7
    x, y = BiPoly.variable("x", p), BiPoly.variable("y", p)
    Q = (x + y) * (x + y) - BiPoly.const(p, 2)  # (x + y - 3)(x + y + 3)
    searches, real_search = [], poly._search
    monkeypatch.setattr(poly, "_search", lambda *args: searches.append(args) or real_search(*args))
    _clear_poly_caches()
    assert factor_oracle(Q, 3) is True and len(searches) == 1
    assert all(factor_oracle(Q.scale(c), 3) is True for c in range(2, p)) and len(searches) == 1
    # another level, d_max or budget is a search of its own
    factor_oracle(Q.shift_const(1), 3)
    factor_oracle(Q, 2)
    factor_oracle(Q, 3, ext_budget=p ** 3)
    assert len(searches) == 4


def test_errors_are_never_stored():
    # F_9 is over the budget of 5 elements, and x^2 + y^2 + 1 has no line
    # over F_3, so each call searches F_3 and then raises
    x, y = BiPoly.variable("x", 3), BiPoly.variable("y", 3)
    Q = x * x + y * y + BiPoly.const(3, 1)
    _clear_poly_caches()
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            factor_oracle(Q, 2, ext_budget=5)
    assert factor_oracle(Q, 1, ext_budget=5) is False
    assert _line_setup(Q)[0].answers == {(1, 1, 5): False}
    bad = [(parse_bipoly("x^2+y", P13), NotHomogeneous), (BiPoly.const(13, 4), ZeroPolynomial),
           (parse_bipoly("(x+y)^5", P5), DegreeVsCharacteristic)]
    for h, error in bad * 2:
        with pytest.raises(error):
            proper_power_form(h)
    assert poly._power_form.cache_info().currsize == 0


def test_factor_oracle_rejects_d_max_out_of_range_before_searching(monkeypatch):
    # d_max 7 at p = 3 used to return True for a product of lines, found
    # over F_3, and raise only for an irreducible Q, after searching F_81,
    # F_243 and F_729
    monkeypatch.setattr(poly, "_search", lambda *args: pytest.fail("searched"))
    for text in ("(x+y+1)*(x-y+1)", "x^2+y^2+1"):
        for d_max in (0, 7):
            with pytest.raises(ValueError, match=rf"^extension degree must be in \[1, 6\], got {d_max}$"):
                factor_oracle(parse_bipoly(text, P3), d_max)


def test_classification_caches_are_bounded_and_hold_no_field():
    # one family keeps ANSWERS_PER_FAMILY answers however many levels are
    # searched, and the criterion keeps at most 1024 forms: the 1 331 cubic
    # forms over F_11 whose x^3 coefficient is 1 overflow it
    p = 37
    x, y = BiPoly.variable("x", p), BiPoly.variable("y", p)
    h = x * x + y * y
    _clear_poly_caches()
    for d_max in (1, 2):
        for alpha in range(1, p):
            factor_oracle(h.shift_const(alpha), d_max)
    family = _line_setup(h.shift_const(1))[0]
    assert len(family.answers) == poly.ANSWERS_PER_FAMILY == 16
    for vec in itertools.product(range(11), repeat=3):
        proper_power_form(BiPoly(11, {(3, 0): 1, **{(2 - j, j + 1): c for j, c in enumerate(vec)}}))
    info = poly._power_form.cache_info()
    assert info.misses == 11 ** 3 and info.currsize == info.maxsize == 1024
    field._ext_field_cached.cache_clear()
    gc.collect()
    assert not _reaches(family, ExtField)
    assert not any(_reaches(proper_power_form(h.scale(c)), ExtField) for c in range(1, p))


def _roots_by_evaluation(coeffs, F):
    """Codes where the slice vanishes: x^k by repeated F.mul, sums digit by digit."""

    def vanishes(x):
        acc, xk = [0] * F.d, 1
        for a in coeffs:
            acc = [(u + v) % F.p for u, v in zip(acc, F.coeffs_of(F.mul(a % F.p, xk)))]
            xk = F.mul(xk, x)
        return not any(acc)

    return tuple(x for x in range(F.q) if vanishes(x))


@pytest.mark.parametrize("p, d", [(3, 2), (5, 2), (3, 3), (3, 4), (5, 3), (101, 1)])
def test_slice_roots_match_evaluation_at_every_code(p, d):
    # slices of degree 0-4: every one at p = 3, a seeded sample otherwise.
    # Below degree d only codes of the smaller subfields are evaluated
    F = ext_field(p, d)
    if p == 3:
        slices = [c for c in itertools.product(range(p), repeat=5) if any(c)]
    else:
        rng = random.Random(f"slices|{p}|{d}")
        slices = [tuple(rng.randrange(p) for _ in range(k)) + (rng.randrange(1, p),)
                  for k in (rng.randint(0, 4) for _ in range(200))]
    for coeffs in slices:
        coeffs = coeffs[: max(k for k, a in enumerate(coeffs) if a) + 1]
        assert _slice_roots(p, d, F.budget, coeffs) == _roots_by_evaluation(coeffs, F), coeffs


@pytest.mark.parametrize("p, d", [(3, 4), (3, 6), (5, 3), (7, 2), (13, 1)])
def test_frobenius_orbits_partition_the_field(p, d):
    # each e | d lists the smallest log of every orbit of x -> x^p with e
    # elements, ascending; together the orbits cover F* once, and each
    # holds the elements of degree e
    F = ext_field(p, d)
    covered = []
    for e in range(1, d + 1):
        if d % e:
            continue
        reps = list(poly._frobenius_orbits(p, d, F.budget, e))
        assert reps == sorted(reps), e
        for lx in reps:
            orbit = {F.log[F.pow(F.exp[lx], p**i)] for i in range(d)}
            assert len(orbit) == e and min(orbit) == lx, (e, lx)
            assert all(F.degree[F.exp[k]] == e for k in orbit), (e, lx)
            covered += orbit
    assert sorted(covered) == list(range(F.q - 1))


@pytest.mark.parametrize("p, d", [(3, 2), (5, 2), (5, 3)])
def test_monomial_slices_take_their_roots_without_evaluation(p, d):
    # c*x^k vanishes at 0 alone for k >= 1 and nowhere for k = 0, over
    # F_9, F_25 and F_125; any other slice keeps its coefficients for
    # _slice_roots
    F = ext_field(p, d)
    for k in range(5):
        for c in range(1, p):
            sl = poly._slice({k: c})
            assert sl[0] is None, (c, k)
            assert poly._roots(F, sl) == _roots_by_evaluation((0,) * k + (c,), F), (c, k)
    assert poly._slice({0: 1, 2: 3}) == ((1, 0, 3), None)


def test_slice_roots_are_cached_per_field():
    # x^2 + 3: over F_5 it is x^2 - 2, a non-residue, so its roots lie in
    # F_25 but not F_125; over F_7 it is x^2 - 4 with roots 2 and 5
    coeffs = (3, 0, 1)
    expected = {}
    for p, d in ((5, 2), (5, 3), (7, 2), (5, 2)):
        F = ext_field(p, d)
        roots = _slice_roots(p, d, F.budget, coeffs)
        assert roots == _roots_by_evaluation(coeffs, F), (p, d)
        assert expected.setdefault((p, d), roots) == roots
    assert len(expected[(5, 2)]) == 2 and all(r >= 5 for r in expected[(5, 2)])
    assert expected[(5, 3)] == ()
    assert expected[(7, 2)] == (2, 5)


def test_factor_oracle_subfield_skip_keeps_budget_behaviour():
    # F_p is skipped only when a larger field holding it fits the budget.
    # At p = 59, d_max = 3 the oracle must still search F_{59^2} before
    # F_{59^3} (59^3 > 2^17) raises; at p = 367, 367^2 > 2^17, so F_367 must
    # be searched itself
    P59, P367 = make_prime(59), make_prime(367)
    assert factor_oracle(parse_bipoly("x^2-y^2", P59), 3) is True
    assert factor_oracle(parse_bipoly("(x+y+1)*(x+2*y+3)", P59), 3) is True
    with pytest.raises(BudgetExceeded, match=r"^p\^d = 205379 exceeds the element budget 131072$"):
        factor_oracle(parse_bipoly("x^2+y^2-1", P59), 3)
    assert factor_oracle(parse_bipoly("x^2-y^2", P367), 2) is True
    assert factor_oracle(parse_bipoly("(x+y+1)*(x+2*y+3)", P367), 2) is True
    with pytest.raises(BudgetExceeded, match=r"^p\^d = 134689 exceeds the element budget 131072$"):
        factor_oracle(parse_bipoly("x^2+y^2-1", P367), 2)


def test_criterion_matches_oracle_spot_checks():
    # tiny slice of the exhaustive acceptance sweep, kept here as a fast canary
    for p in (3, 5):
        prime = make_prime(p)
        for text in ("x^2+y^2", "x*y", "(x+y)^2", "x^2+2*x*y", "x^3+y^3"):
            h = parse_bipoly(text, prime)
            if h.is_zero() or h.total_degree < 2:
                continue
            flag, _ = is_homogeneous(h)
            if not flag:
                continue
            crit = abs_irreducible_shift(h, 1)
            orac = not factor_oracle(h.shift_const(1), 3)
            assert crit == orac, (p, text)


def _reference_power(h):
    """(is_power, exponent) from y's multiplicity and the multiplicities of
    `squarefree_decomposition(h(t, 1))`."""
    n = h.total_degree
    H = h.subst_y(1)
    m = n - H.degree
    if H.degree >= 1:
        for k in squarefree_decomposition(H).multiplicities():
            m = math.gcd(m, k)
    return m >= 2, m


def _reference_good(h):
    """is_good's (ok, reason) for a form of degree below p, with the axes
    clause read from the coefficient polynomials of y^0 and x^0."""
    if _reference_power(h)[0]:
        return False, "reducible-shift"
    if h.coeff_of_y_power(0).is_zero() and h.coeff_of_x_power(0).is_zero():
        return False, "vanishing-axes"
    return True, None


def _check_criterion_parity(h):
    r = proper_power_form(h)
    assert (r.is_power, r.exponent) == _reference_power(h), h
    g = is_good(h)
    assert (g.ok, g.reason) == _reference_good(h), h


@pytest.mark.parametrize("p, degrees", [(5, (1, 2, 3, 4)), (7, (1, 2, 3))])
def test_criterion_matches_the_squarefree_decomposition_on_every_form(p, degrees):
    for n in degrees:
        for vec in itertools.product(range(p), repeat=n + 1):
            if any(vec):
                _check_criterion_parity(BiPoly(p, {(n - j, j): c for j, c in enumerate(vec)}))


@settings(max_examples=300)
@given(data=st.data())
def test_criterion_matches_the_squarefree_decomposition_on_products(data):
    # scalar * g1^m1 * g2^m2 for forms g1, g2, so proper powers and mixed
    # multiplicities such as (2, 3) are common
    p = data.draw(st.sampled_from([11, 13, 101]))
    h = BiPoly.const(p, data.draw(st.integers(1, p - 1)))
    for _ in range(2):
        n = data.draw(st.integers(1, 2))
        vec = data.draw(st.lists(st.integers(0, p - 1), min_size=n + 1, max_size=n + 1))
        assume(any(vec))
        g = BiPoly(p, {(n - j, j): c for j, c in enumerate(vec)})
        h = h * g.pow_int(data.draw(st.integers(1, 4)))
    assume(h.total_degree < p)
    _check_criterion_parity(h)


def test_is_good_examples():
    assert is_good(parse_bipoly("x+y", P13)).ok
    r = is_good(parse_bipoly("x*y", P13))
    assert not r.ok and r.reason == "vanishing-axes"
    r = is_good(parse_bipoly("(x+y)^2", P13))
    assert not r.ok and r.reason == "reducible-shift"
    r = is_good(parse_bipoly("x+y^2", P13))
    assert not r.ok and r.reason == "not-homogeneous"


def test_is_good_needs_only_one_axis():
    # P(0, y) = 0 and P(x, 0) = 0 in turn: one nonzero axis is enough
    for text in ("x^2+x*y", "x*y+y^2"):
        assert is_good(parse_bipoly(text, P13)).ok, text


def _is_permissible_on_unipolys(fs):
    """is_permissible as it was on UniPoly arithmetic, one UniPoly per gcd
    and quotient: the reference for the routine on coefficient lists."""
    if not fs:
        raise ValueError("need at least one polynomial")
    p = fs[0].p
    for f in fs:
        if f.p != p:
            raise ValueError("mixed moduli")
        if f.is_zero():
            raise ZeroPolynomial("zero polynomial in the family")

    def radical(f):
        if f.degree >= f.p:
            raise DegreeVsCharacteristic(f"degree {f.degree} >= characteristic {f.p}")
        return f.monic() if f.degree == 1 else (f // uni_gcd(f, f.derivative())).monic()

    failures = []
    radicals = []
    for idx, f in enumerate(fs):
        radicals.append(radical(f) if f.degree >= 1 else None)
        if f(0) == 0:
            failures.append((idx, "zero-constant-term"))
        elif f.degree < 1:
            failures.append((idx, "constant"))
    for idx, u in enumerate(radicals):
        if u is None or any(i == idx for i, _ in failures):
            continue
        own = u
        for jdx, v in enumerate(radicals):
            if jdx == idx or v is None:
                continue
            g = uni_gcd(own, v)
            if g.degree >= 1:
                own = own // g
            if own.degree == 0:
                break
        if own.degree < 1:
            failures.append((idx, "no-private-root"))
    return not failures, tuple(sorted(failures))


def test_is_permissible_matches_the_unipoly_routine():
    # random families at p <= 13: random coefficients, or products of
    # linear factors so that roots repeat and members share them; degrees
    # up to 5 reach p at p = 3 and 5, so errors are compared too
    rng = random.Random(20260)

    def member(p):
        if rng.random() < 0.5:
            return UniPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 6))])
        f = UniPoly(p, [rng.randrange(1, p)])
        for _ in range(rng.randint(1, 4)):
            f = f * UniPoly(p, [rng.randrange(p), 1])
        return f

    def outcome(check, fs):
        try:
            r = check(fs)
        except WorkbenchError as e:
            return type(e), str(e)
        return r if isinstance(r, tuple) else (r.ok, r.failures)

    errors = 0
    for _ in range(3000):
        p = rng.choice([3, 5, 7, 11, 13])
        fs = [member(p) for _ in range(rng.randint(1, 4))]
        want = outcome(_is_permissible_on_unipolys, fs)
        assert outcome(is_permissible, fs) == want, (p, fs)
        errors += isinstance(want[0], type)
    assert 0 < errors < 3000


def test_is_permissible_examples():
    f1 = UniPoly(13, [1, 1])
    f2 = UniPoly(13, [2, 1])
    assert is_permissible([f1, f2]).ok
    r = is_permissible([f1, f1])
    assert not r.ok and all("private" in why for _, why in r.failures)
    r = is_permissible([UniPoly(13, [0, 1]), f1])
    assert not r.ok and r.failures[0][0] == 0
    # a shared root hidden inside a square: (x+1)^2 vs (x+1)(x+2)
    sq = f1 * f1
    both = f1 * f2
    r = is_permissible([sq, both])
    assert not r.ok
