"""Polynomials over F_p: parsing, structure tests, and irreducibility.

A univariate polynomial stores its coefficients as a dense tuple of
residues mod p, lowest degree first, trimmed so the last one is nonzero;
bivariate ones are sparse maps (x-degree, y-degree) -> coefficient with no
zero coefficient stored.  Either way the zero polynomial is empty and its
degree is the -inf sentinel.  Univariate division, gcd and Yun's algorithm
run directly on that dense layout through five private kernels (division,
gcd, derivative, difference, and Yun's loop, shared by
`squarefree_decomposition` and `proper_power_form`).

Two independent routes decide whether a shifted homogeneous polynomial
h(x, y) - alpha stays irreducible over the algebraic closure:

* `abs_irreducible_shift` uses the multiplicity criterion: h factors into
  linear forms over the closure, and the shifted polynomial is reducible
  exactly when h is a scalar times a proper power of a lower-degree form.
  The gcd of the multiplicities is read off a squarefree decomposition of
  h(t, 1), which needs deg h < p, once per form up to a unit.
* `factor_oracle` knows nothing about that criterion: it enumerates every
  normalized candidate divisor with coefficients in F_{p^d}, d <= d_max, and
  tests divisibility.  Linear candidates are first filtered by the root sets
  of one-variable slices of Q (its x-coefficient rows, Q(x, 0) and its top
  form at y = 1).  Only the two slices that hold the constant term, the x^0
  row and Q(x, 0), are read per search.  The other slices, their roots and
  the line-check terms are read once per shift family Q - alpha, from a
  cache keyed by Q's non-constant terms, and shared by every level and field
  searched and by Q's scalar multiples; the family also keeps each level's
  answer, so Q is searched once up to a unit.  A monomial slice has its roots
  without evaluation; any other root set is found by evaluating the slice
  at one member of every Frobenius orbit that could hold a root, never by
  gcds or factoring: the oracle calls none of `squarefree_decomposition`,
  `uni_gcd`, `proper_power_form` or the list kernels.  The few surviving
  candidates are checked term by term on field codes, and quadratic
  candidates (quartics only) one at a time, by division.  Field arithmetic
  is table lookups on Python ints (`ExtField`), so this module never loads
  numpy.  The two routes are cross-checked exhaustively in the test suite
  and must never be merged.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import lru_cache
from math import comb, gcd, inf
from typing import Iterable, Iterator, Optional, Sequence

from ._record import record
from .errors import (
    BudgetExceeded,
    DegreeOverflow,
    DegreeVsCharacteristic,
    NotHomogeneous,
    ParseError,
    ZeroPolynomial,
    ZeroShift,
)
from .field import (
    EXT_ELEMENT_BUDGET,
    EXT_MAX_DEGREE,
    ExtField,
    Prime,
    _ext_field_cached,
    ext_field,
)

PARSE_DEGREE_CAP = 16
NEG_INF = -inf

# ----------------------------------------------------------------------
# univariate


class UniPoly:
    """Univariate polynomial over F_p; `coeffs` holds its coefficients as
    residues mod p, lowest degree first, trimmed so the last one is nonzero
    (`()` is the zero polynomial)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        if isinstance(coeffs, Mapping):
            raise TypeError("UniPoly takes a coefficient sequence, lowest degree first, not a map")
        self.p = p = int(p)
        self.coeffs = tuple(_trim([c % p for c in coeffs]))

    # basic queries
    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # arithmetic
    def _check(self, other: "UniPoly"):
        if self.p != other.p:
            raise ValueError("mixed moduli")

    def __add__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return UniPoly(self.p, [u + v for u, v in pairs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return UniPoly(self.p, [u - v for u, v in pairs])

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return UniPoly(self.p, out)

    def scale(self, c: int) -> "UniPoly":
        return UniPoly(self.p, [v * c for v in self.coeffs])

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return self.scale(pow(self.lead(), -1, self.p))

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _divmod_dense(self.coeffs, other.coeffs, self.p)
        return UniPoly(self.p, quo), UniPoly(self.p, rem)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def derivative(self) -> "UniPoly":
        return UniPoly(self.p, _derivative_dense(self.coeffs, self.p))

    def __call__(self, x: int) -> int:
        """Horner's rule."""
        p, acc = self.p, 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def to_text(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        terms = [(d, c) for d, c in enumerate(self.coeffs) if c]
        for d, c in reversed(terms):
            if d == 0:
                parts.append(str(c))
            else:
                v = var if d == 1 else f"{var}^{d}"
                parts.append(v if c == 1 else f"{c}*{v}")
        return "+".join(parts)

    def __repr__(self):
        return f"UniPoly({self.to_text()!r} mod {self.p})"


# Dense kernels on UniPoly's layout: coefficients low degree first, reduced
# mod p, trimmed so the last entry is nonzero (empty is the zero polynomial).
# They read any such sequence, `UniPoly.coeffs` included, and return lists.


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _divmod_dense(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b."""
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    inv = pow(b[-1], -1, p)
    if not db:
        return [c * inv % p for c in a], []
    rem, quo = list(a), [0] * (len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        c = rem.pop() * inv % p  # rem loses its top term at every step
        if c:
            quo[k] = c
            for i in range(db):
                rem[k + i] = (rem[k + i] - c * b[i]) % p
    return quo, _trim(rem)


def _gcd_dense(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd of a and b, not both zero."""
    while b:
        a, b = b, _divmod_dense(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _derivative_dense(a: Sequence[int], p: int) -> list[int]:
    return _trim([d * a[d] % p for d in range(1, len(a))])


def _difference_dense(a: list[int], b: list[int], p: int) -> list[int]:
    return _trim([(u - v) % p for u, v in itertools.zip_longest(a, b, fillvalue=0)])


def uni_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd; constant gcds come back as the constant 1."""
    if f.is_zero() and g.is_zero():
        raise ZeroPolynomial("gcd of two zero polynomials")
    if f.p != g.p:
        raise ValueError("mixed moduli")
    return UniPoly(f.p, _gcd_dense(f.coeffs, g.coeffs, f.p))


@record
class SquarefreeDecomposition:
    """f = scalar * prod(factor^multiplicity) with monic squarefree factors."""

    p: int
    scalar: int
    parts: tuple[tuple[UniPoly, int], ...]

    def reconstruct(self) -> UniPoly:
        acc = UniPoly(self.p, (self.scalar,))
        for f, m in self.parts:
            for _ in range(m):
                acc = acc * f
        return acc

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.parts)


def _yun_dense(f: list[int], p: int) -> Iterator[tuple[list[int], int]]:
    """Yun's algorithm on a monic f with 1 <= deg f < p, so derivatives stay
    honest: yields f's nonconstant monic squarefree parts with their
    multiplicities, lowest multiplicity first.  A squarefree f, gcd(f, f') =
    1, is its own only part."""
    df = _derivative_dense(f, p)  # nonzero: 1 <= deg f < p
    g = _gcd_dense(f, df, p)
    if len(g) == 1:
        yield f, 1
        return
    v = _divmod_dense(f, g, p)[0]
    w = _divmod_dense(df, g, p)[0]
    i = 1
    while len(v) > 1:
        z = _difference_dense(w, _derivative_dense(v, p), p)
        h = _gcd_dense(v, z, p)
        if len(h) > 1:
            yield h, i
        v = _divmod_dense(v, h, p)[0]
        w = _divmod_dense(z, h, p)[0]
        i += 1


def squarefree_decomposition(f: UniPoly) -> SquarefreeDecomposition:
    """f = scalar * prod(part^multiplicity) by Yun's algorithm; needs deg f < p."""
    d = f.degree
    if f.is_zero() or d < 1:
        raise ZeroPolynomial("need a nonconstant polynomial")
    if d >= f.p:
        raise DegreeVsCharacteristic(f"degree {d} >= characteristic {f.p}")
    p = f.p
    scalar = f.lead()
    inv = pow(scalar, -1, p)
    parts = _yun_dense([c * inv % p for c in f.coeffs], p)
    return SquarefreeDecomposition(p, scalar, tuple((UniPoly(p, h), i) for h, i in parts))


# ----------------------------------------------------------------------
# bivariate


class BiPoly:
    """Sparse bivariate polynomial over F_p; keys are (x-degree, y-degree)."""

    __slots__ = ("p", "coeffs", "_deg_cache")

    def __init__(self, p: int, coeffs: Optional[dict[tuple[int, int], int]] = None):
        self.p = int(p)
        clean: dict[tuple[int, int], int] = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                c %= self.p
                if c:
                    clean[(i, j)] = c
        self.coeffs = clean
        self._deg_cache: Optional[tuple] = None

    @classmethod
    def const(cls, p: int, c: int) -> "BiPoly":
        return cls(p, {(0, 0): c})

    @classmethod
    def variable(cls, name: str, p: int) -> "BiPoly":
        if name == "x":
            return cls(p, {(1, 0): 1})
        if name == "y":
            return cls(p, {(0, 1): 1})
        raise ValueError(f"unknown variable {name!r}")

    def _degrees(self):
        """(deg_x, deg_y, total degree, lowest total degree), in one pass."""
        if self._deg_cache is None:
            dx = dy = dt = NEG_INF
            low = inf
            for i, j in self.coeffs:
                t = i + j
                if i > dx:
                    dx = i
                if j > dy:
                    dy = j
                if t > dt:
                    dt = t
                if t < low:
                    low = t
            self._deg_cache = (dx, dy, dt, low)
        return self._deg_cache

    @property
    def deg_x(self):
        return self._degrees()[0]

    @property
    def deg_y(self):
        return self._degrees()[1]

    @property
    def total_degree(self):
        return self._degrees()[2]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, frozenset(self.coeffs.items())))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _check(self, other: "BiPoly"):
        if self.p != other.p:
            raise ValueError("mixed moduli")

    def __add__(self, other: "BiPoly") -> "BiPoly":
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return BiPoly(self.p, out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) - c
        return BiPoly(self.p, out)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        self._check(other)
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BiPoly(self.p, out)

    def scale(self, c: int) -> "BiPoly":
        return BiPoly(self.p, {k: v * c for k, v in self.coeffs.items()})

    def pow_int(self, e: int) -> "BiPoly":
        if e < 0:
            raise ValueError("negative exponent")
        acc = BiPoly.const(self.p, 1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base if e > 1 else base
            e >>= 1
        return acc

    def shift_const(self, alpha: int) -> "BiPoly":
        """self - alpha."""
        out = BiPoly(self.p)
        coeffs = out.coeffs = dict(self.coeffs)
        c = (coeffs.get((0, 0), 0) - alpha) % self.p
        if c:
            coeffs[(0, 0)] = c
        else:
            coeffs.pop((0, 0), None)
        return out

    def eval(self, a: int, b: int) -> int:
        p = self.p
        a %= p
        b %= p
        acc = 0
        for (i, j), c in self.coeffs.items():
            acc = (acc + c * pow(a, i, p) * pow(b, j, p)) % p
        return acc

    def _gather(self, var: int, terms: Iterable[tuple[int, int]]) -> UniPoly:
        """sum c * t^k over terms (k, c), each k a degree of P in x (var 0)
        or y (var 1), as a univariate in t."""
        out = [0] * (self._degrees()[var] + 1) if self.coeffs else []
        for k, c in terms:
            out[k] += c
        return UniPoly(self.p, out)

    def subst_y(self, y0: int) -> UniPoly:
        """P(x, y0) as a univariate in x."""
        p = self.p
        return self._gather(0, ((i, c * pow(y0, j, p)) for (i, j), c in self.coeffs.items()))

    def subst_x(self, x0: int) -> UniPoly:
        """P(x0, y) as a univariate in y."""
        p = self.p
        return self._gather(1, ((j, c * pow(x0, i, p)) for (i, j), c in self.coeffs.items()))

    def coeff_of_x_power(self, i0: int) -> UniPoly:
        """The coefficient of x^i0, a univariate in y."""
        return self._gather(1, ((j, c) for (i, j), c in self.coeffs.items() if i == i0))

    def coeff_of_y_power(self, j0: int) -> UniPoly:
        """The coefficient of y^j0, a univariate in x."""
        return self._gather(0, ((i, c) for (i, j), c in self.coeffs.items() if j == j0))

    def homogeneity(self) -> tuple[bool, Optional[int]]:
        """(True, total degree) if every monomial has the same total degree."""
        if not self.coeffs:
            raise ZeroPolynomial("homogeneity of the zero polynomial is undefined")
        _, _, top, low = self._degrees()
        return (True, top) if top == low else (False, None)

    def to_text(self) -> str:
        """Canonical text that re-parses to the same coefficient map."""
        if not self.coeffs:
            return "0"
        parts = []
        for i, j in sorted(self.coeffs, key=lambda k: (-(k[0] + k[1]), -k[0])):
            c = self.coeffs[(i, j)]
            bits = []
            if c != 1 or (i == 0 and j == 0):
                bits.append(str(c))
            if i:
                bits.append("x" if i == 1 else f"x^{i}")
            if j:
                bits.append("y" if j == 1 else f"y^{j}")
            parts.append("*".join(bits))
        return "+".join(parts)

    def __repr__(self):
        return f"BiPoly({self.to_text()!r} mod {self.p})"


# ----------------------------------------------------------------------
# parser
#
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' uint)?
#   atom   := 'x' | 'y' | uint | '(' expr ')'
#
# Whitespace is ignored; coefficients are nonnegative decimals reduced mod p.
# The expansion is capped at total degree 16.


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        """(kind, value, position); kind in {var,int,op,end}."""
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("end", "", self.pos)
        ch = self.text[self.pos]
        if ch in "xy":
            return ("var", ch, self.pos)
        if ch.isdigit():
            j = self.pos
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            return ("int", self.text[self.pos : j], self.pos)
        if ch in "+-*^()":
            return ("op", ch, self.pos)
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        self.pos = tok[2] + (len(tok[1]) or 0)
        return tok


def _cap_degree(degree: int, pos: int) -> None:
    """Reject an expansion past PARSE_DEGREE_CAP; pos is where it was found."""
    if degree > PARSE_DEGREE_CAP:
        raise DegreeOverflow(
            f"expression expands past total degree {PARSE_DEGREE_CAP} (near position {pos})"
        )


def _degree(poly: BiPoly) -> int:
    """Total degree, with 0 (not -inf) for the zero polynomial."""
    return poly.total_degree if poly.coeffs else 0


def _parse_atom(toks: _Tokens, p: int) -> BiPoly:
    kind, val, pos = toks.take()
    if kind == "var":
        return BiPoly.variable(val, p)
    if kind == "int":
        return BiPoly.const(p, int(val))
    if kind == "op" and val == "(":
        inner = _parse_expr(toks, p)
        kind2, val2, pos2 = toks.take()
        if kind2 != "op" or val2 != ")":
            raise ParseError("expected ')'", pos2)
        return inner
    raise ParseError("expected 'x', 'y', an integer, or '('", pos)


def _parse_factor(toks: _Tokens, p: int) -> BiPoly:
    base = _parse_atom(toks, p)
    kind, val, pos = toks.peek()
    if kind == "op" and val == "^":
        toks.take()
        kind2, val2, pos2 = toks.take()
        if kind2 != "int":
            raise ParseError("expected a nonnegative integer exponent", pos2)
        e = int(val2)
        _cap_degree(_degree(base) * e, pos2)  # deg(base^e) = e * deg(base) exactly
        return base.pow_int(e)
    return base


def _parse_term(toks: _Tokens, p: int) -> BiPoly:
    acc = _parse_factor(toks, p)
    while True:
        kind, val, pos = toks.peek()
        if kind == "op" and val == "*":
            toks.take()
            rhs = _parse_factor(toks, p)
            _cap_degree(_degree(acc) + _degree(rhs), pos)
            acc = acc * rhs
        else:
            return acc


def _parse_expr(toks: _Tokens, p: int) -> BiPoly:
    acc = _parse_term(toks, p)
    while True:
        kind, val, _pos = toks.peek()
        if kind == "op" and val in "+-":
            toks.take()
            rhs = _parse_term(toks, p)
            acc = acc + rhs if val == "+" else acc - rhs
        else:
            return acc


def parse_bipoly(text: str, prime: Prime | int) -> BiPoly:
    """Parse expression text into an expanded coefficient map over F_p."""
    p = int(prime)
    toks = _Tokens(text)
    poly = _parse_expr(toks, p)
    kind, val, pos = toks.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    _cap_degree(_degree(poly), pos)
    return poly


# ----------------------------------------------------------------------
# structure predicates


def is_homogeneous(P: BiPoly) -> tuple[bool, Optional[int]]:
    """(flag, total degree or None).  Rejects the zero polynomial."""
    return P.homogeneity()


def is_required(P: BiPoly) -> bool:
    """True when P has no nonconstant factor depending on one variable only.

    Equivalent test: the gcd of the x-coefficient polynomials (in y) is
    constant, and symmetrically for the y-coefficient polynomials (in x).
    """
    if P.is_zero():
        raise ZeroPolynomial("the zero polynomial is not a valid input")
    for slicer, top in ((P.coeff_of_y_power, P.deg_y), (P.coeff_of_x_power, P.deg_x)):
        acc: Optional[UniPoly] = None
        for d in range(top + 1):
            piece = slicer(d)
            if piece.is_zero():
                continue
            acc = piece if acc is None else uni_gcd(acc, piece)
            if acc.degree == 0:
                break
        if acc is not None and acc.degree >= 1:
            return False
    return True


@record
class PowerForm:
    """Whether a homogeneous form is a scalar times a proper power."""

    is_power: bool
    exponent: int


def proper_power_form(h: BiPoly) -> PowerForm:
    """Largest m with h = scalar * g(x, y)^m for a homogeneous form g.

    Over the closure h splits into linear forms; m is the gcd of their
    multiplicities: the multiplicity of y (the root at infinity) and those
    Yun's algorithm yields for h(t, 1), stopping once the gcd is 1, and not
    run at all when y's multiplicity already is 1.  Needs deg h < p.  h is
    checked on every call, and the answer then read from the criterion's own
    cache of up to 1024 forms, keyed by p and h scaled so its largest
    monomial has coefficient 1: h and its scalar multiples share one entry,
    and no code with the oracle's `_family`, so the routes stay independent.
    """
    flag, n = is_homogeneous(h)
    if not flag:
        raise NotHomogeneous("need a homogeneous polynomial")
    if n < 1:
        raise ZeroPolynomial("need degree >= 1")
    if n >= h.p:
        raise DegreeVsCharacteristic(f"degree {n} >= characteristic {h.p}")
    p = h.p
    s = pow(h.coeffs[max(h.coeffs)], -1, p)
    return _power_form(p, n, frozenset((k, c * s % p) for k, c in h.coeffs.items()))


@lru_cache(maxsize=1024)  # forms; an entry is a few hundred bytes
def _power_form(p: int, n: int, terms: frozenset) -> PowerForm:
    """`proper_power_form` of the n-form over F_p whose terms ((i, j), c)
    are `terms`, scaled so that its largest monomial x^top y^(n-top) has
    coefficient 1; h(t, 1) is then monic."""
    top = max(terms)[0][0]
    m = n - top  # the multiplicity of y
    if top and m != 1:
        # h(t, 1): each x^i y^(n-i) gives its coefficient to t^i
        H = [0] * (top + 1)
        for (i, _), c in terms:
            H[i] = c
        for _, k in _yun_dense(H, p):
            m = gcd(m, k)
            if m == 1:
                break
    return PowerForm(m >= 2, m)


def abs_irreducible_shift(h: BiPoly, alpha: int, *, ext_budget: int = EXT_ELEMENT_BUDGET) -> bool:
    """Is h(x, y) - alpha irreducible over the algebraic closure of F_p?

    For deg h < p this is decided by the multiplicity criterion: the shift is
    reducible exactly when h is a scalar times a proper power.  When the
    degree reaches the characteristic that bookkeeping is unavailable, and
    inputs of total degree <= 4 are routed to the exhaustive factor search
    instead (larger ones are rejected).
    """
    flag, n = is_homogeneous(h)
    if not flag:
        raise NotHomogeneous("need a homogeneous polynomial")
    if alpha % h.p == 0:
        raise ZeroShift("shift must be nonzero")
    if n < h.p:
        return not proper_power_form(h).is_power
    if n <= 4:
        # linear factors of an n-form shift live in degree <= n extensions
        return not factor_oracle(h.shift_const(alpha), max(3, n), ext_budget=ext_budget)
    raise DegreeVsCharacteristic(
        f"degree {n} >= characteristic {h.p} is only supported up to total degree 4"
    )


# ----------------------------------------------------------------------
# exhaustive factor search (the independent route)

DEFAULT_QUAD_CANDIDATES = 2_000_000
ROOT_CACHE_SIZE = 4096  # distinct slices; an entry is a few hundred bytes
ANSWERS_PER_FAMILY = 16  # factor_oracle answers a `_Family` keeps; later ones are not kept


@lru_cache(maxsize=256)  # up to 4 sizes for each of the 64 cached fields
def _frobenius_orbits(p: int, d: int, budget: int, e: int) -> Sequence[int]:
    """The smallest log of each orbit of x -> x^p on F_{p^d}* that has e
    elements, ascending; e divides d.

    Those orbits hold the elements of degree e, which lie in the subfield
    F_{p^e}: its nonzero elements have the logs k * step, step = (p^d - 1) /
    (p^e - 1), and x -> x^p maps k to k * p mod (p^e - 1), so only p^e - 1
    logs are visited.  F_p* (e = 1) is a `range` of singleton orbits.  Keyed
    like `_slice_roots`.
    """
    F = _ext_field_cached(p, d, budget)
    m_e = p**e - 1
    step = (F.q - 1) // m_e
    if e == 1:
        return range(0, F.q - 1, step)
    exp, degree = F.exp, F.degree
    seen = bytearray(m_e)
    reps = []
    for k in range(m_e):
        if not seen[k] and degree[exp[k * step]] == e:
            reps.append(k * step)
            j = k
            for _ in range(e):
                seen[j] = 1
                j = j * p % m_e
    return reps


@lru_cache(maxsize=ROOT_CACHE_SIZE)
def _slice_roots(p: int, d: int, budget: int, coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Codes of F_{p^d} at which sum_k coeffs[k] x^k vanishes, ascending.

    coeffs are residues mod p, low degree first, the last one nonzero.  The
    slice's coefficients lie in F_p, so f(x^p) = f(x)^p and its roots are
    unions of Frobenius orbits: it is evaluated once per orbit, and only on
    orbits of at most deg(slice) elements, as a root's minimal polynomial
    divides the slice.  Horner's rule runs in the log domain: multiplying by
    x adds log x, and adding a coefficient is one Zech lookup.  The field is
    looked up by its cache key, so an entry keeps no `ExtField` alive after
    the field cache evicts it.
    """
    F = _ext_field_cached(p, d, budget)
    exp, log, zech, m = F.exp, F.log, F.zech, F.q - 1
    n = len(coeffs) - 1
    top, rest = log[coeffs[-1]], [log[c] for c in coeffs[-2::-1]]  # log 0 = -1
    roots = [] if coeffs[0] else [0]
    for e in range(1, min(n, d) + 1):
        if d % e:
            continue
        for lx in _frobenius_orbits(p, d, budget, e):
            acc = top  # log of the value so far, -1 for 0
            for lc in rest:
                if acc < 0:
                    acc = lc
                else:
                    acc += lx
                    if lc >= 0:
                        z = zech[(lc - acc) % m]
                        acc = acc + z if z >= 0 else -1
            if acc < 0:  # the whole orbit: logs lx * p^i
                roots.extend(exp[lx * p**i % m] for i in range(e))
    roots.sort()
    return tuple(roots)


# a one-variable slice of Q as (coefficients, fixed roots); see `_slice`
_Slice = tuple[Optional[tuple[int, ...]], Optional[tuple[int, ...]]]


def _slice(coeffs: dict[int, int]) -> _Slice:
    """A nonzero slice {degree: c} as (coefficients low degree first, fixed roots).

    A monomial c*x^k vanishes at 0 alone when k >= 1 and nowhere when
    k = 0, in every field, so its roots are fixed without evaluation and it
    has no coefficient tuple; any other slice has fixed roots None and is
    looked up in `_slice_roots`.
    """
    if len(coeffs) == 1:
        return None, ((0,) if next(iter(coeffs)) else ())
    dense = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        dense[k] = c
    return tuple(dense), None


def _roots(F: ExtField, sl: _Slice) -> tuple[int, ...]:
    """Codes of F at which a `_slice` vanishes, ascending."""
    s, fixed = sl
    return _slice_roots(F.p, F.d, F.budget, s) if fixed is None else fixed


def _line_terms(p: int, n: int, terms: Iterable[tuple[tuple[int, int], int]]) -> list[list[tuple[int, int, int]]]:
    """For each y^t with 0 < t < n that has any, the line-check terms
    (F_p scalar, k, i - k) of the terms ((i, j), c) of a Q of total degree
    n.  A constant term has none, as 0 < j + k needs i + j >= 1."""
    rows = [[] for _ in range(n + 1)]
    for (i, j), c in terms:
        for k in range(max(0, 1 - j), min(i, n - 1 - j) + 1):  # 0 < j + k < n
            scalar = c * comb(i, k) % p
            if scalar:
                rows[j + k].append((scalar, k, i - k))
    return [row for row in rows if row]


class _Family:
    """What the linear search reads of Q that does not depend on its
    constant term, so one entry serves every shift Q - alpha.

    `rows` holds the x-coefficient rows sum_j c_ij y^j with i >= 1
    (monomials first) and `top` the top form Q_n(x, 1), as `_slice`s;
    `axes` holds the coefficients of y^1.. in Q(0, y) and of x^1.. in
    Q(x, 0).  Per field it keeps the common roots of `rows`, the roots of
    `top` and the logged line-check terms, each found on first use; the
    `_line_terms` themselves are built at most once.  A field is keyed by
    its degree d, since the codes of F_{p^d} depend on p and d alone.
    `answers` keeps up to ANSWERS_PER_FAMILY of `factor_oracle`'s answers,
    keyed by (scaled constant term, d_max, ext_budget): one per level, for
    every unit multiple.  It holds ints, tuples and bools, never an `ExtField`.
    """

    __slots__ = ("p", "n", "terms", "rows", "top", "axes", "answers", "_lines", "_common", "_tops", "_logged")

    def __init__(self, p: int, n: int, terms: frozenset):
        rows: dict[int, dict[int, int]] = {}
        top: dict[int, int] = {}
        axes = ([0] * (n + 1), [0] * (n + 1))
        for (i, j), c in terms:
            if i:
                rows.setdefault(i, {})[j] = c
                if not j:
                    axes[1][i] = c
            else:
                axes[0][j] = c
            if i + j == n:
                top[i] = c
        self.p, self.n, self.terms = p, n, terms
        self.rows = sorted((_slice(row) for row in rows.values()), key=lambda sl: sl[1] is None)
        self.top = _slice(top)
        self.axes = tuple(tuple(_trim(axis)[1:]) for axis in axes)
        self.answers: dict[tuple[int, int, int], bool] = {}
        self._lines: Optional[list] = None
        self._common: dict[int, frozenset[int]] = {}
        self._tops: dict[int, tuple[int, ...]] = {}
        self._logged: dict[int, list] = {}

    def axis(self, var: int, c0: int) -> _Slice:
        """Q(0, y) (var 0) or Q(x, 0) (var 1) as a `_slice`, for Q's
        constant term c0; it must not be zero."""
        tail = self.axes[var]
        if not c0:
            return _slice({k: c for k, c in enumerate(tail, 1) if c})
        return ((c0,) + tail, None) if tail else (None, ())

    def common(self, F: ExtField) -> frozenset[int]:
        """Codes of F where every row vanishes; needs some row."""
        common = self._common.get(F.d)
        if common is None:
            for row in self.rows:
                roots = _roots(F, row)
                common = frozenset(roots) if common is None else common.intersection(roots)
                if not common:
                    break
            self._common[F.d] = common
        return common

    def top_roots(self, F: ExtField) -> tuple[int, ...]:
        bs = self._tops.get(F.d)
        if bs is None:
            bs = self._tops[F.d] = _roots(F, self.top)
        return bs

    def logged(self, F: ExtField) -> list[list[tuple[int, int, int]]]:
        """The line-check terms with each scalar replaced by its log in F."""
        logged = self._logged.get(F.d)
        if logged is None:
            if self._lines is None:
                self._lines = _line_terms(self.p, self.n, self.terms)
            log = F.log
            logged = self._logged[F.d] = [[(log[s], k, r) for s, k, r in row] for row in self._lines]
        return logged


@lru_cache(maxsize=ROOT_CACHE_SIZE)
def _family(p: int, n: int, terms: frozenset) -> tuple[_Family, int]:
    """(the `_Family` of s*Q, s) for the Q over F_p of total degree n whose
    non-constant terms are `terms`, a frozenset of ((i, j), c); s makes the
    coefficient of Q's largest non-constant monomial 1.  Keyed by value, so
    equal polynomials and every shift Q - alpha share the entry, and every
    scalar multiple of Q shares the `_Family`: Q and s*Q have the same
    divisors."""
    s = pow(max(terms)[1], -1, p)
    return _scaled_family(p, n, frozenset((k, c * s % p) for k, c in terms)), s


@lru_cache(maxsize=ROOT_CACHE_SIZE)
def _scaled_family(p: int, n: int, terms: frozenset) -> _Family:
    """The one `_Family` of each scaled term set; see `_family`."""
    return _Family(p, n, terms)


def _line_setup(Q: BiPoly) -> tuple[_Family, int]:
    """What the linear search needs of Q in any field: the `_Family` that
    `_family` gives Q, shared by every shift and scalar multiple of Q, and
    Q's constant term scaled like that `_Family`.  Q(0, y) and Q(x, 0) may
    not be zero: the caller settles x | Q and y | Q."""
    terms = dict(Q.coeffs)
    c0 = terms.pop((0, 0), 0)
    family, s = _family(Q.p, Q.total_degree, frozenset(terms.items()))
    return family, c0 * s % Q.p


def _linear_search(lines, F: ExtField) -> bool:
    """Any total-degree-1 divisor of Q with coefficients in F, given Q's
    `_line_setup`?

    Candidates are normalized: y - c, or x - (b*y + g).  Each family is
    filtered by the root sets of one-variable slices of Q, read from
    `_slice_roots`:

    * y - c divides Q iff c is a common root of every nonzero x-coefficient
      row sum_j c_ij y^j, so the common roots settle this family;
    * x - (b*y + g) divides Q iff Q(b*y + g, y) = 0.  Its y^0 coefficient
      is Q(g, 0) and its y^n coefficient is Q_n(b, 1), Q_n the top form of
      Q, so g must be a root of Q(x, 0) and b a root of Q_n(x, 1), and then
      both coefficients vanish.  Each surviving pair (b, g) is checked on
      the others term by term: c_ij binom(i, k) b^k g^(i-k) goes into the
      y^(j+k) coefficient, multiplied in the log domain and added through
      the Zech table, and the pair is a divisor when every coefficient
      vanishes.

    Only the x^0 row and Q(x, 0) hold the constant term, so only they are
    built here; every other root set and the logged terms come from Q's
    `_Family`, found once per field for all shifts of Q.  `_search` runs this
    once per field.
    """
    family, c0 = lines
    y_axis, x_axis = family.axis(0, c0), family.axis(1, c0)
    if family.rows:  # the x^0 row must share a root with the others
        common = family.common(F)
        if common and not common.isdisjoint(_roots(F, y_axis)):
            return True
    elif _roots(F, y_axis):
        return True
    gs = _roots(F, x_axis)
    if not gs:
        return False
    bs = family.top_roots(F)
    if not bs:
        return False
    log, zech, m = F.log, F.zech, F.q - 1
    logged = family.logged(F)
    for b, g in itertools.product(bs, gs):
        lb, lg = log[b], log[g]
        for row in logged:
            acc = -1  # log of the coefficient so far, -1 for 0
            for ls, k, r in row:
                if (b or not k) and (g or not r):
                    lt = ls + k * lb + r * lg
                    if acc < 0:
                        acc = lt
                    else:
                        z = zech[(lt - acc) % m]
                        acc = acc + z if z >= 0 else -1
            if acc >= 0:
                break
        else:
            return True
    return False


# graded-lex lead monomials of a normalized quadratic divisor, in order
_GLEX_LEADS = ((2, 0), (1, 1), (0, 2))


def _divides_bivariate(Q: dict[tuple[int, int], int], R: dict[tuple[int, int], int], lead: tuple[int, int], F: ExtField) -> bool:
    """Does R (monic in its graded-lex leading monomial `lead`) divide Q?"""
    rem = dict(Q)
    li, lj = lead
    while rem:
        mi, mj = max(rem, key=lambda k: (k[0] + k[1], k[0]))
        if mi < li or mj < lj:
            return False
        c = rem[(mi, mj)]
        si, sj = mi - li, mj - lj
        for (ri, rj), rc in R.items():
            k = (ri + si, rj + sj)
            v = F.sub(rem.get(k, 0), F.mul(c, rc))
            if v:
                rem[k] = v
            elif k in rem:
                del rem[k]
    return True


def _quadratic_factor_exists(Q: BiPoly, F: ExtField) -> bool:
    """Any total-degree-2 divisor with coefficients in F (full enumeration)."""
    q = F.q
    total = q**5 + q**4 + q**3
    if total > DEFAULT_QUAD_CANDIDATES:
        raise BudgetExceeded(
            f"quadratic factor enumeration needs {total} candidates (cap {DEFAULT_QUAD_CANDIDATES})"
        )
    Qc = dict(Q.coeffs)
    for lead_idx, lead in enumerate(_GLEX_LEADS):
        free = [*_GLEX_LEADS[lead_idx + 1 :], (1, 0), (0, 1), (0, 0)]
        for values in itertools.product(range(q), repeat=len(free)):
            R = {lead: 1}
            for pos, v in zip(free, values):
                if v:
                    R[pos] = v
            if _divides_bivariate(Qc, R, lead, F):
                return True
    return False


def _search(Q: BiPoly, lines: tuple[_Family, int], d_max: int, ext_budget: int) -> bool:
    """`factor_oracle`'s search of Q, given its `_line_setup`."""
    p = Q.p
    for d in range(1, d_max + 1):
        if 2 * d <= d_max and p ** (2 * d) <= ext_budget:
            continue  # F_{p^d} lies in F_{p^(2d)}
        if _linear_search(lines, ext_field(p, d, ext_budget)):
            return True
    if Q.total_degree == 4:
        for d in range(1, min(2, d_max) + 1):
            if _quadratic_factor_exists(Q, ext_field(p, d, ext_budget)):
                return True
    return False


def factor_oracle(Q: BiPoly, d_max: int, *, ext_budget: int = EXT_ELEMENT_BUDGET) -> bool:
    """Brute-force reducibility over extensions: True iff some polynomial of
    total degree in [1, deg Q - 1] with coefficients in F_{p^d}, d <= d_max,
    divides Q.

    Works by exhaustive enumeration of normalized candidate divisors and is
    deliberately independent of the multiplicity criterion.  Degree-1
    candidates are searched over the largest fields that fit the budget,
    which contain the others: F_{p^d} is skipped when F_{p^(2d)}, 2d <= d_max,
    fits, as that field or a larger one holding it is searched.  Fields are
    visited in ascending order, so a field over the budget raises
    `BudgetExceeded` only after every smaller field has been covered.
    Degree-2 candidates (needed only when deg Q = 4) are searched over
    d <= 2, which is enough: a quartic with any in-range factor always has a
    witness that is either linear or a quadratic over F_p or F_{p^2}.  Total
    degree of Q must be <= 4, and d_max at most EXT_MAX_DEGREE.

    After the x | Q and y | Q checks the answer is looked up in Q's
    `_Family` by Q's scaled constant term, d_max and ext_budget, so the
    search runs once for Q and its unit multiples s*Q, which have the same
    divisors.  It never stands in for another level or a rescaled (x, y),
    and shares nothing with the criterion's cache, so the two routes stay
    independent.  At most ANSWERS_PER_FAMILY are kept; errors never are.
    """
    if Q.is_zero():
        raise ZeroPolynomial("the zero polynomial is not a valid input")
    n = Q.total_degree
    if n > 4:
        raise ValueError(f"factor oracle supports total degree <= 4, got {n}")
    if not 1 <= d_max <= EXT_MAX_DEGREE:  # up front, so validity never depends on the answer
        raise ValueError(f"extension degree must be in [1, {EXT_MAX_DEGREE}], got {d_max}")
    if n <= 1:
        return False
    # divisibility by the axes themselves, which a constant term rules out
    if (0, 0) not in Q.coeffs:
        if all(j >= 1 for _, j in Q.coeffs):
            return True  # y | Q
        if all(i >= 1 for i, _ in Q.coeffs):
            return True  # x | Q
    family, c0 = lines = _line_setup(Q)
    key = (c0, d_max, ext_budget)
    found = family.answers.get(key)
    if found is None:
        found = _search(Q, lines, d_max, ext_budget)
        if len(family.answers) < ANSWERS_PER_FAMILY:
            family.answers[key] = found
    return found


# ----------------------------------------------------------------------
# combined shape checks


@record
class GoodCheck:
    """Outcome of the image-growth shape test, with the first failing clause."""

    ok: bool
    reason: Optional[str]  # None | not-homogeneous | reducible-shift | vanishing-axes

    def __bool__(self) -> bool:
        return self.ok


def is_good(P: BiPoly, *, ext_budget: int = EXT_ELEMENT_BUDGET) -> GoodCheck:
    """Homogeneous, shift stays absolutely irreducible, and at least one of
    P(x, 0), P(0, y) is nonzero.  Clauses are checked in that order."""
    flag, _n = is_homogeneous(P)
    if not flag:
        return GoodCheck(False, "not-homogeneous")
    if not abs_irreducible_shift(P, 1, ext_budget=ext_budget):
        return GoodCheck(False, "reducible-shift")
    if all(i and j for i, j in P.coeffs):  # x*y divides P: P(x, 0) = P(0, y) = 0
        return GoodCheck(False, "vanishing-axes")
    return GoodCheck(True, None)


@record
class PermissibleCheck:
    """Outcome of the private-root test for a family of univariates."""

    ok: bool
    failures: tuple[tuple[int, str], ...]  # (index, reason)

    def __bool__(self) -> bool:
        return self.ok


def _radical(f: UniPoly) -> list[int]:
    """The coefficients of the product of the distinct monic irreducible
    factors of f (deg f < p)."""
    d, p = f.degree, f.p
    if d < 1:
        raise ZeroPolynomial("need a nonconstant polynomial")
    if d >= p:
        raise DegreeVsCharacteristic(f"degree {d} >= characteristic {p}")
    inv = pow(f.lead(), -1, p)
    a = [c * inv % p for c in f.coeffs]
    if d == 1:  # a linear f is its own radical
        return a
    return _divmod_dense(a, _gcd_dense(a, _derivative_dense(a, p), p), p)[0]


def is_permissible(fs: list[UniPoly]) -> PermissibleCheck:
    """Every member has a nonzero constant term and owns a closure root no
    other member shares (checked on squarefree parts via gcd degrees)."""
    if not fs:
        raise ValueError("need at least one polynomial")
    p = fs[0].p
    for f in fs:
        if f.p != p:
            raise ValueError("mixed moduli")
        if f.is_zero():
            raise ZeroPolynomial("zero polynomial in the family")
    failures: list[tuple[int, str]] = []
    radicals: list[Optional[list[int]]] = []
    for idx, f in enumerate(fs):
        radicals.append(_radical(f) if f.degree >= 1 else None)
        if not f.coeffs[0]:
            failures.append((idx, "zero-constant-term"))
        elif f.degree < 1:
            failures.append((idx, "constant"))
    for idx, u in enumerate(radicals):
        if u is None or any(i == idx for i, _ in failures):
            continue
        # peel off everything shared with any other member; a private root
        # survives iff something of positive degree is left
        own = u
        for jdx, v in enumerate(radicals):
            if jdx == idx or v is None:
                continue
            g = _gcd_dense(own, v, p)
            if len(g) > 1:
                own = _divmod_dense(own, g, p)[0]
            if len(own) == 1:
                break
        if len(own) < 2:
            failures.append((idx, "no-private-root"))
    failures.sort()
    return PermissibleCheck(not failures, tuple(failures))
