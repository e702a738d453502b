"""Exact arithmetic on integer polynomials and real algebraic numbers.

A polynomial is its ascending coefficient sequence: index i holds the
coefficient of x**i.  Every exact function here takes one, as kernels
does; factor_over_integers, charpoly_int and power_char_poly return
tuples, and an AlgebraicNumber's minpoly is one.  IntPoly only parses and
prints: the CLI reads --poly with from_csv, and a report wraps the
polynomials it prints.  All decisions (signs, comparisons, root
locations) are exact; floats appear only in reporting helpers.

Root isolation takes a squarefree polynomial (every caller holds an
irreducible polynomial or a squarefree part) and bisects (lo, hi] by
Descartes' rule on the Taylor shift (kernels.descartes_bound); the same
bisection from any (lo, hi] is the exact root count there.  A linear
polynomial's root is written down as its exact point, not bisected.
factor_over_integers factors the squarefree part once and reads each
factor's multiplicity by repeated exact division; is_irreducible, the one
irreducibility decision, uses closed forms at degrees 2 and 3 and
factors every other degree.  is_d_number reads the d-number property off
the coefficients (a_n^i | a_i^n) at every degree;
ratio_integrality_oracle, built on the power sums of all root ratios, only
cross-checks it.

The coefficient-list primitives (normalize, primitive_part, derivative,
add, subtract, multiply, exact division, pseudo-remainder) live in
kernels.  Built on them here: poly_gcd_int, poly_squarefree_part and
inverse_square_sum.  Symmetric functions of roots take one path, the power
sums of kernels.power_sums and their inverse kernels.from_power_sums:
inverse_square_sum, ratio_integrality_oracle, charpoly_int (traces of
powers of the matrix) and power_char_poly (every m-th power sum).

Quadratic irrationals are Surds, stored as integers (a + b*sqrt(n))/d with
n squarefree.  square_free_part runs only when a radicand enters from
outside (the constructor, sqrt_fraction); arithmetic within one field, the
sign (one comparison of x^2 with y^2 n), floor and ceil (one isqrt of
b^2 n) stay on plain integers, and a polynomial is evaluated at a surd by
one Horner pass in Z[sqrt(n)] (kernels.eval_surd).  A rational operand
becomes a Surd one way, by _coerce: Surd arithmetic and cmp,
AlgebraicNumber.cmp and the searches' window endpoints all go through it.
A real algebraic number is a minpoly with an isolating interval, the
integer triple (lo, hi, den) meaning (lo/den, hi/den], and only
isolate_real_roots makes one, from the triple its bisection ends at (a
linear minpoly's root is its exact point, lo == hi).  It is compared with
a rational or a surd x by the sign of the minpoly at x against its sign at
the interval's upper end, so no decision ever rests on a rounded value and
no interval is bisected for it; its interval shrinks only by one integer
sign bisection (refine, approx_float, floor).
"""

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from . import _factor, kernels
from ._intfactor import factorize, square_free_part
from .errors import BudgetError, DegreeCapError, InvalidInputError

# enclosure refinement gives up (raises AmbiguityError) below this width
WIDTH_CAP = Fraction(1, 10 ** 40)

# highest degree factor_over_integers and is_d_number take (DegreeCapError
# above it): Zassenhaus recombination tries subsets of the modular factors,
# exponentially many in their number, which can reach the degree; the
# d-number test shares the cap so every polynomial input meets one limit
DEGREE_CAP = 24

# every CLI integer token: ASCII digits, no separators or other scripts
INT_TOKEN = re.compile(r"[+-]?[0-9]+")

# most digits of a CLI integer (read_int): a number the CLI prints is at
# most a square or a product of two of them (repg's inverse square sum,
# search gap's f_max), which stays below Python's 4,300-digit int-to-str
# limit
INT_DIGITS_CAP = 2000

# most bits a coefficient of a characteristic polynomial may have
# (charpoly_int; power_char_poly under ffib_fpdim_bound): 2**14000 <
# 10**4215, so every printed coefficient stays below the same limit
POWER_BITS_CAP = 14000

# most bits of the largest absolute row sum of a matrix charpoly_int takes:
# the sum bounds every eigenvalue, which a report prints as a float, and
# below 2**1023 each eigenvalue and the midpoint of its isolating interval
# stay inside the float range (below 2**1024)
FLOAT_BITS_CAP = 1023

# largest radicand a Surd factors (InvalidInputError above it):
# square_free_part runs Pollard rho, whose steps grow with the square root
# of the smallest prime factor; a 20-digit semiprime takes about 0.2 s
RADICAND_CAP = 10 ** 20


def read_int(text):
    """The integer an INT_TOKEN string spells, or None for any other string
    and for one of more than INT_DIGITS_CAP digits."""
    if INT_TOKEN.fullmatch(text) and \
            len(text.lstrip("+-")) <= INT_DIGITS_CAP:
        return int(text)
    return None


# ---------------------------------------------------------------------------
# coefficient-list helpers (ascending order, plain ints)

def poly_gcd_int(a, b):
    """Primitive gcd over the integers, positive leading coefficient."""
    a = kernels.normalize(a)
    b = kernels.normalize(b)
    if not a:
        return kernels.primitive_part(b)
    if not b:
        return kernels.primitive_part(a)
    a = kernels.primitive_part(a)
    b = kernels.primitive_part(b)
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        r = kernels.pseudo_rem(a, b)
        a, b = b, kernels.primitive_part(r)
    return kernels.primitive_part(a)


def poly_squarefree_part(c):
    """Squarefree part of c: primitive, positive lead, and vanishing exactly
    once at each distinct root of c."""
    w = kernels.primitive_part(c)
    g = poly_gcd_int(w, kernels.derivative(w))
    if len(g) == 1:
        return w
    # w and g are primitive with positive leads, so the quotient is too
    return kernels.div_exact(w, g)


def inverse_square_sum(c):
    """Exact sum of 1/d**2 over the roots d of c, counted with multiplicity.

    c needs a nonzero constant term.  The reversed polynomial has the roots
    1/d and the leading coefficient c0, so its power_sums entry t_2 is
    c0**2 times the sum (c1**2 - 2 c0 c2).
    """
    return Fraction(kernels.power_sums(c[::-1], 2)[2], c[0] * c[0])


# ---------------------------------------------------------------------------
# IntPoly

class IntPoly:
    """The printed form of an ascending coefficient sequence: coeffs[i] is
    the coefficient of x**i, trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(kernels.normalize(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __repr__(self):
        return "IntPoly(%s)" % self.to_str()

    def to_str(self):
        """Human form, descending powers: 'x^2 - 5x + 5'."""
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "x" if mag == 1 else "%dx" % mag
            else:
                body = "x^%d" % i if mag == 1 else "%dx^%d" % (mag, i)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def to_csv(self):
        """CLI form: comma-separated coefficients, highest degree first."""
        if not self.coeffs:
            raise InvalidInputError("zero polynomial is not allowed here")
        return ",".join(str(c) for c in reversed(self.coeffs))

    @staticmethod
    def from_csv(text):
        """Parse the CLI form, integers read by read_int; rejects empty
        input and leading zeros."""
        toks = [t.strip() for t in text.split(",")]
        if any(t == "" for t in toks):
            raise InvalidInputError("bad polynomial %r: empty coefficient" % text)
        vals = [read_int(t) for t in toks]
        if None in vals:
            raise InvalidInputError("bad polynomial %r: coefficients must be "
                                    "integers" % text)
        if vals[0] == 0:
            raise InvalidInputError("bad polynomial %r: leading zero "
                                    "coefficient" % text)
        return IntPoly(vals[::-1])


# ---------------------------------------------------------------------------
# Surd: (a + b*sqrt(n))/d, the exact carrier for every window endpoint

def _surd(a, b, n, d):
    """Surd (a + b*sqrt(n))/d from integers, n squarefree whenever b != 0.

    Builds the reduced form directly; square_free_part never runs here, so
    arithmetic inside one field stays on plain integers.
    """
    if b == 0:
        n = 0
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    s = object.__new__(Surd)
    s.a = a
    s.b = b
    s.n = n
    s.d = d
    return s


def _floor_root(b, n):
    """floor(b * sqrt(n)) for integers b and n >= 0."""
    m = b * b * n
    r = isqrt(m)
    if b >= 0:
        return r
    return -r if r * r == m else -r - 1


def _coerce(x):
    """x as a Surd: a Surd is itself, anything else is the rational
    Fraction(x)."""
    if isinstance(x, Surd):
        return x
    if isinstance(x, int):
        return _surd(x, 0, 0, 1)
    x = Fraction(x)
    return _surd(x.numerator, 0, 0, x.denominator)


class Surd:
    """Quadratic surd (a + b*sqrt(n))/d with integer a, b, d and squarefree n.

    The stored form is reduced: d > 0, gcd(a, b, d) == 1, and a rational
    value has b == 0, n == 0.  The rational and irrational parts read as
    Fractions through p and q.  Sign, floor and ceil reduce to one integer
    square root; comparisons against rationals and other surds (also from a
    different field) are exact.
    """

    __slots__ = ("a", "b", "n", "d")

    def __init__(self, p, q=0, n=0):
        p = Fraction(p)
        q = Fraction(q)
        n = int(n)
        if n < 0:
            raise InvalidInputError("negative radicand")
        if q == 0 or n == 0:
            q, n = Fraction(0), 0
        else:
            if n > RADICAND_CAP:
                raise InvalidInputError("radicand over the cap of 10^20")
            s, m = square_free_part(n)
            q *= m
            n = s
            if n == 1:
                p += q
                q, n = Fraction(0), 0
        d = lcm(p.denominator, q.denominator)
        self.a = p.numerator * (d // p.denominator)
        self.b = q.numerator * (d // q.denominator)
        self.n = n
        self.d = d

    @staticmethod
    def sqrt_fraction(fr):
        """sqrt of a nonnegative rational as a Surd."""
        fr = Fraction(fr)
        if fr < 0:
            raise InvalidInputError("negative radicand")
        a, b = fr.numerator, fr.denominator
        return Surd(0, Fraction(1, b), a * b)

    @property
    def p(self):
        return Fraction(self.a, self.d)

    @property
    def q(self):
        return Fraction(self.b, self.d)

    @property
    def is_rational(self):
        return self.b == 0

    def _same_field(self, other):
        return self.n == other.n or self.b == 0 or other.b == 0

    def __add__(self, other):
        o = _coerce(other)
        if not self._same_field(o):
            raise InvalidInputError("surds from different fields")
        return _surd(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d,
                     self.n or o.n, self.d * o.d)

    __radd__ = __add__

    def __neg__(self):
        return _surd(-self.a, -self.b, self.n, self.d)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        o = _coerce(other)
        if not self._same_field(o):
            raise InvalidInputError("surds from different fields")
        n = self.n or o.n
        return _surd(self.a * o.a + self.b * o.b * n,
                     self.a * o.b + self.b * o.a, n, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o.is_rational:
            if o.a == 0:
                raise ZeroDivisionError("surd division by zero")
            return _surd(self.a * o.d, self.b * o.d, self.n, self.d * o.a)
        if not self._same_field(o):
            raise InvalidInputError("surds from different fields")
        # 1/o = d (a - b sqrt n) / (a^2 - b^2 n)
        return self * _surd(o.d * o.a, -o.d * o.b, o.n,
                            o.a * o.a - o.b * o.b * o.n)

    def cmp(self, other):
        """Exact trichotomy against an int, a Fraction or any Surd."""
        other = _coerce(other)
        # d1 d2 (self - other) = x + y sqrt(n1) - z sqrt(n2)
        x = self.a * other.d - other.a * self.d
        y = self.b * other.d
        z = other.b * self.d
        if self._same_field(other):
            return kernels.surd_sign(x, y - z, self.n or other.n)
        # different radicands: compare x + y sqrt(n1) with z sqrt(n2)
        sx = kernels.surd_sign(x, y, self.n)
        sz = 1 if z > 0 else -1
        if sx != sz:
            return 1 if sx > sz else -1
        # same nonzero sign: compare squares (the right one is rational)
        c = kernels.surd_sign(x * x + y * y * self.n - z * z * other.n,
                              2 * x * y, self.n)
        return c if sx > 0 else -c

    def __eq__(self, other):
        if isinstance(other, (Surd, int, Fraction)):
            return self.cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.n, self.d))

    def floor(self):
        return (self.a + _floor_root(self.b, self.n)) // self.d

    def ceil(self):
        return -((_floor_root(-self.b, self.n) - self.a) // self.d)

    def approx(self, eps):
        """Enclosing pair (lo, hi) of Fractions, hi - lo <= eps (outward
        rounding).

        The endpoints lie on the decimal grid 10**-k of the smallest k >= 1
        with |q| / 10**k <= eps, so a given eps always yields the same
        rationals.
        """
        eps = Fraction(eps)
        if eps <= 0:
            raise InvalidInputError("width must be positive")
        if self.is_rational:
            return self.p, self.p
        a, b, d = self.a, self.b, self.d
        scale = 10
        while abs(b) * eps.denominator > eps.numerator * d * scale:
            scale *= 10
        r = isqrt(self.n * scale * scale)
        lo = Fraction(a * scale + b * r, d * scale)
        hi = Fraction(a * scale + b * (r + 1), d * scale)
        return (lo, hi) if b > 0 else (hi, lo)

    def __float__(self):
        lo, hi = self.approx(Fraction(1, 10 ** 18))
        return float((lo + hi) / 2)

    def __repr__(self):
        if self.is_rational:
            return "Surd(%s)" % self.p
        return "Surd(%s + %s*sqrt(%d))" % (self.p, self.q, self.n)


# ---------------------------------------------------------------------------
# Descartes isolation

def _cauchy_bound(c):
    """Integer B with every real root of c inside (-B, B]."""
    lead = abs(c[-1])
    top = max(abs(x) for x in c)
    return 1 + top // lead + 1


def _isolate_in(c, a, b, d):
    """Ascending isolating intervals of the roots of the squarefree c in
    (a/d, b/d], each an integer triple (a_i, b_i, d_i) meaning
    (a_i/d_i, b_i/d_i]; their number is the exact root count there.

    A node counts descartes_bound (exact when 0 or 1) plus a root at its
    upper end: it is dropped at 0 and kept at 1; any other is halved at its
    midpoint, which goes to the left half.  A halving doubles all three
    integers when a + b is odd, so each midpoint is (a + b)/2 over the same
    d.  A squarefree c ends every path.  Both callers pass a < b.
    """
    stack = [(a, b, d)]
    out = []
    while stack:
        a, b, d = stack.pop()
        n = kernels.descartes_bound(c, a, b, d)
        if n < 2:
            n += kernels.eval_qnum(c, b, d) == 0
            if n == 0:
                continue
            if n == 1:
                out.append((a, b, d))
                continue
        if (a + b) % 2:
            a, b, d = 2 * a, 2 * b, 2 * d
        m = (a + b) // 2
        # the left half pops first, so the output is ascending
        stack.append((m, b, d))
        stack.append((a, m, d))
    return out


def isolate_real_roots(c):
    """The real roots of a squarefree polynomial, ascending, as
    AlgebraicNumbers: the one place a root is made.

    c is an ascending coefficient sequence of any content and leading
    sign, and must be squarefree: an irreducible polynomial or a squarefree
    part.  Each root keeps the integer triple of its isolating interval,
    a node of the dyadic bisection of (-B, B] for a Cauchy bound B that
    holds exactly that root.  A linear c has the one root -c0/c1, which
    is its exact point: the triple (p, p, q) with p/q reduced and q > 0.
    """
    c = tuple(c)
    if len(c) == 2:
        r = Fraction(-c[0], c[1])
        triples = [(r.numerator, r.numerator, r.denominator)]
    else:
        bound = _cauchy_bound(c)
        triples = _isolate_in(c, -bound, bound, 1)
    return [AlgebraicNumber(c, a, b, d) for a, b, d in triples]


# ---------------------------------------------------------------------------
# AlgebraicNumber

class AlgebraicNumber:
    """A designated real root: a squarefree minpoly, an ascending
    coefficient tuple, and an isolating interval, the integer triple
    (lo, hi, den) meaning (lo/den, hi/den].

    Only isolate_real_roots makes one, so the interval holds exactly one
    root; the constructor stores the triple it is given.  The minpoly must
    be squarefree, so every root is simple and a sign bisection can follow
    it; it need be neither monic nor irreducible.  A reducible one
    (exploratory searches isolate a candidate's squarefree part) may have a
    rational root, which refine and cmp meet exactly.  The interval only
    ever shrinks, and only by bisection (refine, approx_float, floor), so
    the designation is stable; cmp against a rational or a surd is one
    sign evaluation at that point and leaves it as it is.  For a degree-1
    minpoly isolation gives the exact point -c0/c1, lo == hi.
    """

    __slots__ = ("minpoly", "lo", "hi", "den")

    def __init__(self, minpoly, lo, hi, den):
        self.minpoly = minpoly
        self.lo, self.hi, self.den = lo, hi, den

    @property
    def degree(self):
        return len(self.minpoly) - 1

    def _shrink(self, w_num, w_den):
        """Bisect the interval until its width is at most w_num/w_den.

        Sign bisection on the one simple root in (lo, hi]: the sign on
        (lo, root) is -sign p(hi), and a midpoint where p vanishes is the
        root and becomes hi.  When p(hi) == 0 the root is hi itself, so every
        midpoint lies below it and becomes lo.  A root of p at lo lies
        outside (lo, hi] and needs no special case.  Every interval is a
        node of the midpoint bisection of the one it started from, so
        shrinking any node on the root's path gives the same interval.
        """
        lo, hi, den = self.lo, self.hi, self.den
        if (hi - lo) * w_den <= w_num * den:
            return  # also the exact point of a degree-1 minpoly
        c = self.minpoly
        s_lo = -_sign(kernels.eval_qnum(c, hi, den))
        while (hi - lo) * w_den > w_num * den:
            if (lo + hi) % 2:
                lo, hi, den = 2 * lo, 2 * hi, 2 * den
            mid = (lo + hi) // 2
            if s_lo == 0 or _sign(kernels.eval_qnum(c, mid, den)) == s_lo:
                lo = mid
            else:
                hi = mid
        self.lo, self.hi, self.den = lo, hi, den

    def refine(self, width):
        """Shrink the interval to width <= width and return its ends
        (lo, hi) as Fractions."""
        width = Fraction(width)
        if width <= 0:
            raise InvalidInputError("width must be positive")
        self._shrink(width.numerator, width.denominator)
        return Fraction(self.lo, self.den), Fraction(self.hi, self.den)

    def approx_float(self):
        """The midpoint of the interval shrunk to width 10**-18, rounded
        once (int true division rounds correctly)."""
        self._shrink(1, 10 ** 18)
        return (self.lo + self.hi) / (2 * self.den)

    def cmp(self, other):
        """Exact sign of (self - other) for a Fraction/int, a Surd or an
        AlgebraicNumber.

        The root lies in (lo, hi].  A rational or surd x at or below lo is
        below it, and one above hi is above it.  Inside, x equals the root
        iff the minpoly p vanishes at x (the interval holds no other root).
        Otherwise the root is below x iff p has one sign on [x, hi]: the
        interval holds no other root, so iff sign p(x) == sign p(hi), and a
        root at hi (p(hi) == 0) is above x.  The interval is not shrunk.
        """
        if isinstance(other, AlgebraicNumber):
            return self._cmp_algebraic(other)
        x = _coerce(other)
        a, b, n, d = x.a, x.b, x.n, x.d
        lo, hi, den = self.lo, self.hi, self.den
        # the sign of x - lo/den, read off den*d*(x - lo/den)
        x_lo = kernels.surd_sign(a * den - lo * d, b * den, n)
        if self.degree == 1:
            return -x_lo
        if x_lo <= 0:
            return 1
        if kernels.surd_sign(a * den - hi * d, b * den, n) > 0:
            return -1
        c = self.minpoly
        # a rational x has b == n == 0, where the surd kernels reduce to the
        # rational ones
        at_x = kernels.surd_sign(*kernels.eval_surd(c, a, b, n, d), n)
        if at_x == 0:
            return 0
        at_hi = _sign(kernels.eval_qnum(c, hi, den))
        return -1 if at_x == at_hi else 1

    def _cmp_algebraic(self, other):
        if other.degree == 1:
            return self.cmp(Fraction(other.lo, other.den))
        if self.degree == 1:
            return -other.cmp(Fraction(self.lo, self.den))
        # a root of gcd(p, q) in the overlap of (lo, hi] is the one root of
        # p in self's interval and the one root of q in other's, so the two
        # values are equal; otherwise they differ and refining both at
        # halving widths separates the intervals
        sd, od = self.den, other.den
        lo = max(self.lo * od, other.lo * sd)
        hi = min(self.hi * od, other.hi * sd)
        if lo < hi:
            g = poly_gcd_int(self.minpoly, other.minpoly)
            if len(g) > 1 and _isolate_in(g, lo, hi, sd * od):
                return 0
        width = max(Fraction(self.hi - self.lo, sd),
                    Fraction(other.hi - other.lo, od))
        while True:
            (a_lo, a_hi), (b_lo, b_hi) = (self.refine(width),
                                          other.refine(width))
            if a_hi <= b_lo or b_hi <= a_lo:
                return -1 if a_hi <= b_lo else 1
            width /= 2

    def floor(self):
        """Exact floor.

        Width 1 leaves an interval that meets at most one integer; when it
        does, one cmp against it decides (and meets an integer root exactly).
        """
        self._shrink(1, 1)
        flo, fhi = self.lo // self.den, self.hi // self.den
        return fhi if flo == fhi or self.cmp(fhi) >= 0 else flo

    def __repr__(self):
        return "AlgebraicNumber(%s, ~%.6f)" % (
            IntPoly(self.minpoly).to_str(), self.approx_float())


def _sign(x):
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# factorization entry point (heavy lifting lives in _factor)

def factor_over_integers(p):
    """Irreducible primitive factors of p as (tuple, multiplicity) pairs,
    in a deterministic order.

    The product of factor**multiplicity reproduces p up to the sign and the
    integer content.  Factors have positive leading coefficients and are
    sorted by degree, then by coefficient sequence.
    """
    coeffs = kernels.normalize(p)
    if not coeffs:
        raise InvalidInputError("cannot factor the zero polynomial")
    if len(coeffs) - 1 > DEGREE_CAP:
        raise DegreeCapError("degree %d exceeds the factorization cap of %d"
                             % (len(coeffs) - 1, DEGREE_CAP))
    if len(coeffs) == 1:
        return []
    w = kernels.primitive_part(coeffs)
    out = []
    for irr in _factor.factor_squarefree_primitive(poly_squarefree_part(w)):
        mult = 0
        q = kernels.div_exact(w, irr)
        while q is not None:
            w, mult = q, mult + 1
            q = kernels.div_exact(w, irr)
        out.append((irr, mult))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return [(tuple(irr), mult) for irr, mult in out]


def is_irreducible(asc):
    """Is the monic polynomial asc irreducible over the rationals?

    The one irreducibility decision of the searches and ffib_fpdim_bound.
    Closed forms at degrees 2 and 3: a monic quadratic is reducible iff its
    discriminant is a square; a monic cubic iff it has an integer root,
    which divides c0, so each divisor pair t, |c0|/t is tried with both
    signs by Horner.  That trial division takes sqrt|c0| steps, more than
    a factorization once |c0| passes 10^6, so a cubic with a larger
    constant term, and every other degree, is factored (DegreeCapError
    above DEGREE_CAP).
    """
    k = len(asc) - 1
    if k == 2:
        disc = asc[1] * asc[1] - 4 * asc[0]
        return disc < 0 or isqrt(disc) ** 2 != disc
    if k == 3 and abs(asc[0]) <= 10 ** 6:
        c0, c1, c2, _ = asc
        m = abs(c0)
        if m == 0:
            return False
        for t in range(1, isqrt(m) + 1):
            if m % t == 0:
                for r in (t, -t, m // t, -(m // t)):
                    if ((r + c2) * r + c1) * r + c0 == 0:
                        return False
        return True
    # a monic poly is primitive, so one simple factor is asc itself
    factors = factor_over_integers(asc)
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# d-numbers


def is_d_number(c):
    """Does every root of p divide every other root (as algebraic integers)?

    c is the ascending coefficient sequence of p = x^n + a_1 x^(n-1) + ...
    + a_n, monic with a_n != 0 and degree at most DEGREE_CAP; p may be
    reducible or have repeated roots.  The answer is yes iff a_n^i divides
    a_i^n for every i = 1..n-1 (V. Ostrik, Pivotal fusion categories of
    rank 3, Mosc. Math. J. 15 (2015)):

    (<=) Take r with r^n = a_n.  Each (a_i / r^i)^n = a_i^n / a_n^i is an
    integer, so p(r y) / r^n is monic in y with algebraic-integer
    coefficients and its roots alpha_j / r are algebraic integers.  Their
    product is +-a_n / r^n = +-1, so each is a unit, and every ratio
    alpha_j / alpha_k = (alpha_j / r) / (alpha_k / r) is integral.

    (=>) Roots that divide each other all generate one ideal I of the
    splitting field's integers.  a_i is a sum of products of i roots, so
    a_i is in I^i, and (a_n) = I^n.  Then a_i^n is in I^(i n) = (a_n^i), so
    a_i^n / a_n^i is a rational algebraic integer, an integer.
    """
    n = len(c) - 1
    if n < 0 or c[n] != 1:
        raise InvalidInputError("d-number test requires a monic polynomial")
    if n < 1 or c[0] == 0:
        raise InvalidInputError("d-number test requires degree >= 1 and a "
                                "nonzero constant term")
    if n > DEGREE_CAP:
        raise DegreeCapError("degree %d exceeds the d-number test's cap of %d"
                             % (n, DEGREE_CAP))
    power = 1
    for i in range(1, n):
        power *= c[0]
        if c[n - i] ** n % power:
            return False
    return True


def ratio_integrality_oracle(c):
    """Ground-truth ratio test: are all root ratios algebraic integers?

    An independent check of is_d_number, which dnumber prints for small
    squarefree input.  With alpha_1..alpha_n the roots of the monic c and
    c0 = c(0) != 0, each c0 / alpha_j is +-(the product of the other roots),
    so the n**2 numbers u_ij = alpha_i * c0 / alpha_j are algebraic
    integers.  Their power sums are P_m * T_m, with P = power_sums(c) and T
    = power_sums of the reversed c, whose roots are the 1 / alpha_j and
    whose leading coefficient is c0, so T_m is the sum of (c0 / alpha_j)**m.
    The multiset of the u_ij is stable under Galois conjugation, so the
    monic polynomial U with these roots has integer coefficients e_m(u)
    (up to sign), and from_power_sums finds them exactly.

    The ratios alpha_i / alpha_j are the u_ij / c0, the roots of the monic
    polynomial with coefficients e_m(u) / c0**m.  If every c0**m divides
    e_m(u), that polynomial is in Z[x] and every ratio is an algebraic
    integer.  Conversely, if every ratio is an algebraic integer, so is each
    e_m(u) / c0**m, the m-th elementary symmetric function of the ratios;
    it is rational, hence an integer.  So the answer is yes iff c0**m
    divides e_m(u) for every m.
    """
    if not c or c[-1] != 1:
        raise InvalidInputError("ratio test requires a monic polynomial")
    if len(c) < 2 or c[0] == 0:
        raise InvalidInputError("ratio test requires degree >= 1 and a "
                                "nonzero constant term")
    if len(poly_squarefree_part(c)) < len(c):
        raise InvalidInputError("ratio test requires a squarefree polynomial")
    count = (len(c) - 1) ** 2
    sums = [a * b for a, b in zip(kernels.power_sums(c, count),
                                  kernels.power_sums(c[::-1], count))]
    desc = kernels.from_power_sums(sums)[::-1]  # desc[m] = (-1)**m e_m(u)
    return all(desc[m] % c[0] ** m == 0 for m in range(1, count + 1))


# ---------------------------------------------------------------------------
# characteristic polynomials: of a matrix, of the powers of a root

def charpoly_int(mat):
    """Characteristic polynomial of an integer matrix, an ascending tuple.

    The traces of mat, mat**2, ..., mat**n are the power sums of its
    eigenvalues, and from_power_sums turns them into the coefficients
    (Newton's identities; every division is exact over the integers).
    Only mat**2, ..., mat**h (h = ceil(n/2)) are built, h - 1 O(n^3)
    products; tr(mat**(h+i)) for i = 1..n-h is the O(n^2) sum of the
    entrywise products of mat**h and the transpose of mat**i.

    Every eigenvalue is at most the largest absolute row sum b, so
    coefficient i is at most C(n, i) b**i < 2**(n (bits(b) + 1)).  A
    report squares the coefficients (inverse_square_sum), so BudgetError
    stops a matrix where twice that bound passes POWER_BITS_CAP; a report
    also prints every eigenvalue as a float, so BudgetError stops one where
    b has more than FLOAT_BITS_CAP bits.
    """
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise InvalidInputError("characteristic polynomial needs a square "
                                "nonempty matrix")
    top = max(sum(map(abs, row)) for row in mat).bit_length()
    bits = n * (top + 1)
    if 2 * bits > POWER_BITS_CAP:
        raise BudgetError("the characteristic polynomial may have "
                          "coefficients of %d bits, whose squares pass the "
                          "cap of %d bits" % (bits, POWER_BITS_CAP))
    if top > FLOAT_BITS_CAP:
        raise BudgetError("an eigenvalue may have %d bits, over the cap of "
                          "%d bits for the floats a report prints"
                          % (top, FLOAT_BITS_CAP))
    h = (n + 1) // 2
    cols = list(zip(*mat))
    powers = [mat]  # powers[i - 1] = mat**i
    for _ in range(h - 1):
        powers.append([[sum(map(mul, row, col)) for col in cols]
                       for row in powers[-1]])
    traces = [n] + [sum(p[i][i] for i in range(n)) for p in powers]
    top = powers[-1]
    for p in powers[:n - h]:
        traces.append(sum(sum(map(mul, row, col))
                          for row, col in zip(top, zip(*p))))
    return tuple(kernels.from_power_sums(traces))


def power_char_poly(a, m):
    """Monic polynomial whose roots are the m-th powers of a's conjugates.

    The power sums of the r**m over the n roots r of the minpoly are its own
    power sums s_m, s_2m, ..., s_nm, so one power_sums run and
    from_power_sums give the coefficients.
    """
    m = int(m)
    if m < 1:
        raise InvalidInputError("power must be a positive integer")
    c = a.minpoly
    return tuple(kernels.from_power_sums(
        kernels.power_sums(c, (len(c) - 1) * m)[::m]))


def largest_integer_divisor(c):
    """Largest M with M**i dividing the i-th (descending) coefficient.

    Equivalently the largest integer M such that root/M stays an algebraic
    integer.  Requires a monic polynomial with some nonzero non-leading
    coefficient.
    """
    if not c or c[-1] != 1:
        raise InvalidInputError("divisor bound requires a monic polynomial")
    n = len(c) - 1
    pairs = []  # (i, |c_i|) for descending-index coefficients c_i != 0
    for i in range(1, n + 1):
        ci = c[n - i]
        if ci:
            pairs.append((i, abs(ci)))
    if not pairs:
        raise InvalidInputError("all trailing coefficients vanish (root 0)")
    m = 1
    for q, _ in factorize(gcd(*(v for _, v in pairs))).items():
        e = None
        for i, v in pairs:
            vq = 0
            while v % q == 0:
                v //= q
                vq += 1
            e = vq // i if e is None else min(e, vq // i)
            if e == 0:
                break
        m *= q ** e
    return m
