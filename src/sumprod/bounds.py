"""Explicit constants and the verdict engine for the quantified inequalities.

Each verifier returns a Verdict that keeps three things separate:

  * premise — whether the inequality's hypotheses hold for this instance
    (with the first failing clause named when they do not);
  * holds — whether the LHS meets the bound, only assigned when the
    premise is met, and decided exactly: both sides are raised to a power
    that clears the fractional exponent (squared for t2, cubed for gv and
    vm, to the 2n-th for thmap) and compared in integers and Fractions;
  * ratio — LHS divided by the pure power of |G| in the bound, recorded
    unconditionally so sweeps can chart growth even off-premise.

Comparisons landing within 1e-12 (relative) of the RHS are flagged
borderline rather than silently classified.  Bounds stated only up to an
unspecified constant are reported as ratios with no verdict at all.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from ._record import record
from .errors import DuplicateY, LengthMismatch, NotRequired, SizeBudget
from .field import EXT_ELEMENT_BUDGET
from .poly import BiPoly, UniPoly, is_good, is_permissible, is_required, uni_gcd
from .setops import (
    DEFAULT_MAX_PAIRS,
    ValueSet,
    count_level_pairs,
    fiber_set,
    image,
    image_size,
    shift_intersection,
)
from .subgroup import Coset, Subgroup, is_admitted

if TYPE_CHECKING:
    # `fractions` loads `decimal`; it is imported where a Fraction is built,
    # so gv, thmap and the irreducibility checks never load it
    from fractions import Fraction

REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# constants


@record
class ImageBoundConstants:
    """Constants scaling the image lower bound for a degree-n instance.

    c1 and c2 are exact; c = min(((100n^2-1)/(100n^2*c1))^{3/2}, c2) needs
    a real 3/2 power, so the minimum is selected by comparing squares
    exactly and only the winning branch is evaluated in floating point.
    Its exact square is `_image_c_squared`.
    """

    n: int
    c1: int
    c2: Fraction
    c: float


def image_bound_constants(n: int) -> ImageBoundConstants:
    if n < 1:
        raise ValueError("degree must be >= 1")
    from fractions import Fraction

    c1 = 24 * n**4
    c2 = Fraction(1, 40**3 * n**9)
    base = _image_base(n, c1)
    # branch1 = base^{3/2};  branch1 <= c2  <=>  base^3 <= c2^2
    if base**3 <= c2**2:
        c = math.sqrt(float(base)) * float(base)
    else:
        c = float(c2)
    return ImageBoundConstants(n, c1, c2, c)


def _image_base(n: int, c1: int) -> Fraction:
    """(100n^2 - 1)/(100n^2 * c1), whose 3/2 power is c's first branch."""
    from fractions import Fraction

    return Fraction(100 * n**2 - 1, 100 * n**2 * c1)


def _image_c_squared(consts: ImageBoundConstants) -> Fraction:
    """c^2 = min(base^3, c2^2) as an exact Fraction."""
    return min(_image_base(consts.n, consts.c1) ** 3, consts.c2**2)


@record
class FiberBoundConstants:
    """Constants for the fiber-size bound with degree vector m = (m_1..m_n)."""

    n: int
    m: tuple[int, ...]
    c1: int
    c2: float
    c3: float


def fiber_bound_constants(m: Sequence[int], n: int) -> FiberBoundConstants:
    if n < 2:
        raise ValueError("need n >= 2")
    if len(m) != n or any(mi < 1 for mi in m):
        raise ValueError("degree vector must have n entries, all >= 1")
    prod_m = math.prod(m)
    sum_m = sum(m)
    c1 = 2 ** (2 * n) * max(m) ** (4 * n)
    c2 = (n + 1) ** (-2 * n / (2 * n + 1)) * prod_m ** (-2 / (2 * n + 1))
    c3 = 4 * (n + 1) * prod_m ** (1 / n) * sum_m
    return FiberBoundConstants(n, tuple(m), c1, c2, c3)


# ---------------------------------------------------------------------------
# verdicts


@record
class Verdict:
    """Outcome of checking one inequality on one instance."""

    inequality: str
    premise_ok: bool
    premise_reason: str  # "" when met; the first failing clause otherwise
    lhs: int
    rhs: float
    holds: bool | None  # None whenever the premise is not met
    borderline: bool
    ratio: float


def _verdict(inequality: str, reason: str, lhs: int, rhs: float, holds: bool, ratio: float) -> Verdict:
    """holds is the caller's comparison of lhs with the bound; it is kept
    only when the premise is met (reason "")."""
    borderline = abs(lhs - rhs) <= REL_TOL * abs(rhs)
    return Verdict(inequality, reason == "", reason, lhs, rhs, None if reason else holds, borderline, ratio)


def _good_admitted_premise(P: BiPoly, G: Subgroup, n: int, ext_budget: int) -> str:
    """The first failing clause of "P of degree n >= 1 is good and G is
    admitted for n", or "" when both hold."""
    if n < 1:
        return "not-good: constant"
    good = is_good(P, ext_budget=ext_budget)
    if not good:
        return f"not-good: {good.reason}"
    if not is_admitted(G, n):
        return "not-admitted"
    return ""


def verify_image_lower_bound(
    P: BiPoly,
    G: Subgroup,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    ext_budget: int = EXT_ELEMENT_BUDGET,
) -> Verdict:
    """|P(G, G)| > c(n) * |G|^{3/2} for good P and an admitted subgroup.

    holds is decided exactly, as lhs^2 > c^2 * |G|^3.
    """
    n = max(P.total_degree, 0)
    reason = _good_admitted_premise(P, G, n, ext_budget)
    lhs = image_size(P, G, max_pairs=max_pairs)
    denom = G.order**1.5
    consts = image_bound_constants(max(n, 1))
    holds = lhs * lhs > _image_c_squared(consts) * G.order**3
    return _verdict("t2", reason, lhs, consts.c * denom, holds, lhs / denom)


def verify_level_pair_bound(
    P: BiPoly,
    G: Subgroup,
    alphas: ValueSet,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    ext_budget: int = EXT_ELEMENT_BUDGET,
) -> Verdict:
    """Level-set pairs over G x G stay under c1(n) * h^{2/3} * |G|^{2/3}.

    h is the number of levels; the premise needs a good polynomial, an
    admitted subgroup, and h < c2(n) * |G|^2 (checked exactly as
    h * 40^3 * n^9 < |G|^2).  holds is decided exactly, as
    lhs^3 <= c1^3 * h^2 * |G|^2.
    """
    n = max(P.total_degree, 0)
    h = len(alphas)
    reason = _good_admitted_premise(P, G, n, ext_budget)
    if not reason and not h * 40**3 * n**9 < G.order**2:
        reason = "level-count-bound"
    lhs = count_level_pairs(P, G, alphas, max_pairs=max_pairs).total
    denom = G.order ** (2 / 3)
    c1 = image_bound_constants(max(n, 1)).c1
    holds = lhs**3 <= c1**3 * h**2 * G.order**2
    return _verdict("vm", reason, lhs, c1 * h ** (2 / 3) * denom, holds, lhs / denom)


def verify_shift_overlap_bound(G: Subgroup, mu: int) -> Verdict:
    """|G ∩ (G + mu)| <= 4 |G|^{2/3} for small subgroups and mu != 0.

    The size premise |G| < (p-1)/((p-1)^{1/4}+1) is decided exactly: with
    s = p - 1 - |G| it is equivalent to s > 0 and |G|^4 (p-1) < s^4.  So is
    holds, as lhs^3 <= 64 |G|^2.
    """
    d = G.order
    s = G.p - 1 - d
    reason = "" if s > 0 and d**4 * (G.p - 1) < s**4 else "size-window"
    lhs = shift_intersection(G, mu)
    denom = d ** (2 / 3)
    return _verdict("gv", reason, lhs, 4 * denom, lhs**3 <= 64 * d**2, lhs / denom)


def verify_fiber_bound(
    fs: Sequence[UniPoly],
    cosets: Sequence[Coset],
    G: Subgroup,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> Verdict:
    """|{x : f_i(x) in i-th coset for all i}| <= c3 * |G|^{1/2 + 1/(2n)}.

    The premise needs the f_i permissible and c1 < |G| < c2 * p^{1-1/(2n+1)}
    for the constants built from the degree vector m.  The upper window is
    decided exactly: raising both sides to the power 2n+1 turns it into
    |G|^{2n+1} * (n+1)^{2n} * (prod m)^2 < p^{2n}.  So is holds: raising
    both sides to the power 2n turns it into
    lhs^{2n} <= (4 (n+1) sum m)^{2n} * (prod m)^2 * |G|^{n+1}.  A constant
    f_i has no degree-vector entry: the verdict then reports the
    permissibility failure with rhs 0 rather than inventing constants.
    Every Coset carries its subgroup, and F_p* has one subgroup per order,
    so each coset is checked by its subgroup's prime and order.
    max_pairs caps the F_p scan of fiber_set.
    """
    n = len(fs)
    if n < 2 or n != len(cosets):
        raise LengthMismatch(f"need n >= 2 with {n} polynomials and {len(cosets)} cosets")
    for c in cosets:
        if c.subgroup.p != G.p or c.subgroup.order != G.order:
            raise ValueError(f"coset of {c.representative} is not a coset of the given subgroup")
    perm = is_permissible(fs)
    degs = [f.degree for f in fs]
    reason = ""
    rhs = 0.0
    bound = 0  # holds is lhs^{2n} <= bound
    exponent = 0.5 + 1 / (2 * n)
    denom = G.order**exponent
    if not perm:
        reason = "not-permissible: " + "; ".join(f"[{i}] {why}" for i, why in perm.failures)
    if all(d >= 1 for d in degs):
        consts = fiber_bound_constants([int(d) for d in degs], n)
        rhs = consts.c3 * denom
        prod_m = math.prod(consts.m)
        bound = (4 * (n + 1) * sum(consts.m)) ** (2 * n) * prod_m**2 * G.order ** (n + 1)
        if not reason:
            if not consts.c1 < G.order:
                reason = "subgroup-too-small"
            elif not (
                G.order ** (2 * n + 1) * (n + 1) ** (2 * n) * prod_m**2
                < G.p ** (2 * n)
            ):
                reason = "subgroup-too-large"
    lhs = len(fiber_set(fs, cosets, max_pairs=max_pairs))
    return _verdict("thmap", reason, lhs, rhs, lhs ** (2 * n) <= bound, lhs / denom)


# ---------------------------------------------------------------------------
# growth probe (ratio-only: the bounds carry no explicit constant)


@record
class GrowthReport:
    """Sumset/difference-set sizes with ratios against |G|^{4/3},
    |G|^{5/3}/log^{1/2}|G| (natural log), and |G|^{3/2}."""

    order: int
    sum_size: int
    diff_size: int
    sum_over_pow43: float
    diff_over_pow43: float
    sum_log_over_pow53: float
    diff_log_over_pow53: float
    sum_over_pow32: float
    diff_over_pow32: float


def probe_growth(G: Subgroup, *, max_pairs: int = DEFAULT_MAX_PAIRS) -> GrowthReport:
    d = G.order
    if d < 2:
        raise ValueError("growth ratios need |G| >= 2")
    if d * d > max_pairs:
        raise SizeBudget(f"|G|^2 = {d*d} exceeds budget {max_pairs}")
    # |G + G| and |G - G| are the images of the homogeneous x + y and x - y
    s = image_size(BiPoly(G.p, {(1, 0): 1, (0, 1): 1}), G, max_pairs=max_pairs)
    t = image_size(BiPoly(G.p, {(1, 0): 1, (0, 1): -1}), G, max_pairs=max_pairs)
    p43 = d ** (4 / 3)
    p53 = d ** (5 / 3)
    p32 = d**1.5
    lg = math.sqrt(math.log(d))
    return GrowthReport(
        d, s, t, s / p43, t / p43, s * lg / p53, t * lg / p53, s / p32, t / p32
    )


# ---------------------------------------------------------------------------
# permissible-subset extraction


@record
class ExtractionCertificate:
    """Audit trail of one extraction run: what was dropped, why, and the
    guaranteed minimum the kept set had to meet."""

    h: int
    k: int
    l: int
    guarantee: int
    dropped_leading: tuple[int, ...]
    dropped_constant: tuple[int, ...]
    picks: tuple[tuple[int, tuple[int, ...]], ...]
    kept_ys: tuple[int, ...]


def extract_permissible(
    P: BiPoly, ys: Sequence[int]
) -> tuple[tuple[int, ...], ExtractionCertificate]:
    """Pick indices i with {P(x, y_i)} permissible, greedily.

    Phase 1 discards any y that zeroes the leading x-coefficient p_k(y)
    (degree drop) or the free coefficient p_0(y) (zero constant term).
    Phase 2 repeatedly keeps the smallest surviving y and retires every
    mate whose specialization shares a root with it over the closure —
    detected by a nonconstant gcd, since both specializations split
    completely there.  The kept set always passes the permissibility
    check and has at least max(0, (h-2l) // (k*l)) members.
    """
    req = is_required(P)
    if not req:
        raise NotRequired("polynomial has a single-variable factor")
    k, l = P.deg_x, P.deg_y
    if k < 1 or l < 1:
        raise ValueError("need degree >= 1 in each variable")
    p = P.p
    norm = [y % p for y in ys]
    if len(set(norm)) != len(norm):
        raise DuplicateY("substitution points must be distinct")
    h = len(norm)
    p_k = P.coeff_of_x_power(k)
    p_0 = P.coeff_of_x_power(0)
    dropped_lead: list[int] = []
    dropped_const: list[int] = []
    pool: list[tuple[int, int]] = []  # (y, original index)
    for idx, y in enumerate(norm):
        if p_k(y) == 0:
            dropped_lead.append(y)
        elif p_0(y) == 0:
            dropped_const.append(y)
        else:
            pool.append((y, idx))
    pool.sort()
    kept: list[int] = []
    picks: list[tuple[int, tuple[int, ...]]] = []
    while pool:
        y0, idx0 = pool.pop(0)
        kept.append(idx0)
        f0 = P.subst_y(y0)
        retired: list[int] = []
        survivors: list[tuple[int, int]] = []
        for y, idx in pool:
            if uni_gcd(f0, P.subst_y(y)).degree >= 1:
                retired.append(y)
            else:
                survivors.append((y, idx))
        pool = survivors
        picks.append((y0, tuple(retired)))
    kept.sort()
    guarantee = max(0, (h - 2 * l) // (k * l))
    cert = ExtractionCertificate(
        h,
        k,
        l,
        guarantee,
        tuple(dropped_lead),
        tuple(dropped_const),
        tuple(picks),
        tuple(norm[i] for i in kept),
    )
    assert len(kept) >= guarantee
    return tuple(kept), cert


def h_min_formula(n: int, k: int, l: int) -> int:
    """Substitution-point count sufficient to guarantee n kept polynomials."""
    if min(n, k, l) < 1:
        raise ValueError("all arguments must be >= 1")
    return n * k * l + 2 * l


# ---------------------------------------------------------------------------
# factorization probe (asymptotic statement: report, never judge)


@record
class ProbeConfig:
    """Exponent slack (epsilon) and size slack (delta), both in (0, 1)."""

    delta: float
    epsilon: float

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")


@record
class FactorizationProbe:
    """Whether P(A, B) covers G exactly, and where the factor sizes sit
    relative to |G|^{1/2 +- epsilon}."""

    p: int
    order: int
    size_a: int
    size_b: int
    image_size: int
    is_representation: bool
    exponent_a: float
    exponent_b: float
    in_band: bool
    delta: float
    epsilon: float
    min_q: int


def min_q_for_delta(delta: float) -> int:
    """Smallest q >= 2 with 1 - 1/(2q+1) > 1 - delta, i.e. 2q+1 > 1/delta.

    The strict comparison is exact on the binary value of delta (e.g. the
    float 0.2 sits just above 1/5, so 1/delta < 5 and q = 2 qualifies).
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    from fractions import Fraction

    inv = 1 / Fraction(delta)
    q = max(2, int((inv - 1) / 2) + 1)
    while 2 * q + 1 <= inv:
        q += 1
    return q


def probe_factorization(
    P: BiPoly,
    A: ValueSet,
    B: ValueSet,
    G: Subgroup,
    cfg: ProbeConfig,
    *,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> FactorizationProbe:
    if not is_required(P):
        raise NotRequired("polynomial has a single-variable factor")
    if len(A) < 2 or len(B) < 2:
        raise ValueError("both factor sets need at least 2 elements")
    if G.order < 2:
        raise ValueError("need |G| >= 2")
    img = image(P, A, B, max_pairs=max_pairs)
    is_rep = img.members == G.elements
    if is_rep:
        # a surjection A x B -> G cannot come from fewer than |G| pairs
        assert len(A) * len(B) >= G.order
    log_g = math.log(G.order)
    ea = math.log(len(A)) / log_g
    eb = math.log(len(B)) / log_g
    lo, hi = 0.5 - cfg.epsilon, 0.5 + cfg.epsilon
    in_band = lo < ea < hi and lo < eb < hi
    return FactorizationProbe(
        G.p,
        G.order,
        len(A),
        len(B),
        len(img),
        is_rep,
        ea,
        eb,
        in_band,
        cfg.delta,
        cfg.epsilon,
        min_q_for_delta(cfg.delta),
    )
