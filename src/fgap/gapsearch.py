"""Certified exhaustive searches for candidate global dimensions.

Three entry points: search_quadratic and search_cubic reproduce the
appendix-style enumerations with their published coefficient bounds, and
search_gap runs the general bounded-degree enumeration below a cutoff
d_max.  Every filter decision is exact: quadratic data lives in closed
form as surds, cubic/d_max comparisons use exact order tests against
algebraic numbers, and the one genuinely irrational inequality (the
pair inequality between the smallest and largest root) is decided from its
exact values at the corners of refined isolating intervals, with a hard
precision cap.

Window conventions: the appendix searches use a half-open root window
[d_lo, d_hi); search_gap uses (4/3, d_max].  Irrational endpoints can
never tie with algebraic-integer candidates, which is asserted by the
exact comparisons rather than assumed.

search_gap brackets d_max once between rationals r_lo <= d_max <= r_hi
(equal when d_max is rational).  A leaf decides realness by one
kernels.real_rooted call (Hermite's criterion at every degree), and each
root bound by one sign test on a Taylor shift (Descartes' rule, exact on
real-rooted polynomials): a root in (4/3, r_lo] passes the window, none in
(4/3, r_hi] fails it, and only a smallest root between the two needs
isolation and the exact comparison with d_max.  Without --audit a leaf
first takes the coefficient test of is_d_number, and only a d-number runs
the battery (3 of the 4,810 leaves at 4sqrt(3)/5); see _gap_leaf.

The coefficient walk computes each bound on integers, and the one
rounding point of each bound is a floor division.  Each degree builds a
plan once per depth (_DepthPlan): the coefficient envelope, the
falling-factorial multipliers that turn a prefix into its node
polynomial, and every bound that is linear in the next coefficient t as
one integer constraint N + m*t >= 0, where N is the prefix's dot product
with the constraint's weights plus an offset: the fixed points box_lo and
f_hi, at the final depth the strict cut points gamma and delta, and the
look-ahead pairs (_child_ranges states the form and its proofs).  A node
is its prefix and its depth's plan, which keeps the degree, depth, box and
cut points it was built from.  The walk asks each interior node for the
ranges of its children prefix + [s] as one lazy row,
_child_ranges(prefix, coeffs, plan): every constraint's N is affine in s,
so the row takes each dot product once, steps it by addition from one
child to the next and folds all constraints in one loop.  A critical point
moves with the prefix.  At depth 2 the walk builds none: the node's cubic
w = A x^3 + B x^2 + C x has the critical values
27 A^2 w((-B -+ sqrt D)/(3A)) = X +- sqrt M with D = B^2 - 3AC,
X = B(2B^2 - 9AC) and M = 4D^3, so each bound is floor((Y + sqrt M)/Q)
for an integer Y = +-X and Q = 27 A^2 bcoef, which is
(Y + isqrt(M)) // Q: an integer nQ - Y is at most sqrt M exactly when it
is at most isqrt(M).  At every other depth a critical point is a root from
isolate_real_roots (the exact rational point at depth 1), over whose
interval _interval_eval encloses the bound.  Each non-final node also looks
one depth ahead: a child's bound at a fixed point is affine in the child's
coefficient s, so each pair of a lower-type and an upper-type point is one
linear inequality a*s >= b that every child with a nonempty range meets (a
real-empty range is integer-empty).  The walk never visits an s that
breaks one, and reaches the same leaves in the same order.  From depth 3
on, the leaf's realness test also prunes the walk: by Rolle's theorem a
node whose polynomial lacks distinct real roots has no survivor below it.
A final node hands each s of its range straight to the leaf battery.  A
leaf is its ascending coefficient tuple; an IntPoly is built only for a
Candidate the leaf returns, to be printed.

The appendix searches bound their coefficients on integers too: a bound's
value at a window end s = (x + y sqrt n)/d is one integer pair over d^k
from kernels.eval_surd (the cubic steps it by d^3 s from one b to the
next), rounded with one isqrt and one floor division, as Surd.ceil does;
no Surd is built per coefficient pair.  Divisors of a^2 and a^3 come from
the factorization of a.  Without --audit, a cubic that fails divisibility-a3
(18,243 of the default window's 18,393) costs one modulo and returns a
shared rejected candidate; no polynomial or trace is built for it.

Both appendix searches count their enumeration before building any
candidate and stop with BudgetError above SEARCH_BUDGET, so no window or
--amax makes them run without bound: search_cubic counts (a, b) pairs and
candidates, search_quadratic the values of a and the divisors of a^2.
search_gap cannot know its tree's size in advance, so it keeps one running
count of coefficient ranges and leaves over all degrees and stops with
BudgetError past the same SEARCH_BUDGET, before any result is printed.
"""

from fractions import Fraction
from math import comb, factorial, isqrt, prod
from operator import itemgetter, mul

from . import _intfactor, kernels
from .algnum import (DEGREE_CAP, IntPoly, Surd, WIDTH_CAP, _coerce,
                     _floor_root, inverse_square_sum, is_d_number,
                     is_irreducible, isolate_real_roots, poly_squarefree_part)
from .errors import AmbiguityError, BudgetError, InvalidInputError
from .obstruct import FOUR_THIRDS, orbit_inequality, threshold

SQRT2 = Surd(0, 1, 2)

QUAD_DEFAULT_LO = Surd(Fraction(-1, 4), Fraction(1, 4), 41)   # (sqrt41 - 1)/4
QUAD_DEFAULT_HI = Surd(0, Fraction(4, 5), 3)                  # 4*sqrt(3)/5
CUBIC_DEFAULT_LO = Surd.sqrt_fraction(Fraction(32, 17))
CUBIC_DEFAULT_HI = QUAD_DEFAULT_HI

QUAD_A_MAX = 23
CUBIC_A_MAX = 45

# Most enumeration steps one search may take.  An appendix search counts
# before any candidate is built: for the cubic search (a, b) pairs plus
# candidates (the default window needs 28,848 = 10,455 + 18,393, --window
# 1.4,3 about 1.6 million), for the quadratic search each a plus the
# tau(a^2) divisors of a^2 (the default needs 170, --amax 20000 844,160,
# and --amax 41951 is the last within budget).  The gap search counts as it
# walks, coefficient ranges plus leaves over all degrees (4sqrt(3)/5 needs
# 8,866 = 4,056 + 4,810).  A wider window, --amax or --dmax stops with
# BudgetError.
SEARCH_BUDGET = 2 * 10 ** 6

# Filters an appendix search can drop (--drop-filter), by degree, in the
# order a candidate meets them; "window" widens the enumeration itself.
DROPPABLE_FILTERS = {
    2: ("window", "integer-prefilter", "irreducible", "totally-positive",
        "root-window", "mainineq"),
    3: ("window", "divisibility-a3", "divisibility-b3", "irreducible",
        "totally-positive", "root-window", "mainineq"),
}


def check_drops(degree, drop):
    """Reject the names in drop that the degree's search cannot drop."""
    known = DROPPABLE_FILTERS[degree]
    unknown = sorted(set(drop) - set(known))
    if unknown:
        raise InvalidInputError(
            "unknown filter(s) for the %s search: %s; known: %s"
            % ("quadratic" if degree == 2 else "cubic", ", ".join(unknown),
               ", ".join(known)))


EXPLORATORY_MARK = ("exploratory run - necessary-condition certificate "
                    "does not apply")


def surd_text(s):
    """Stable human form of a Surd for config echoes."""
    if s.is_rational:
        return str(s.p)
    parts = []
    if s.p:
        parts.append(str(s.p))
    q = s.q
    rad = "sqrt(%d)" % s.n
    if q == 1:
        qtxt = rad
    elif q == -1:
        qtxt = "-" + rad
    elif q.denominator == 1:
        qtxt = "%d*%s" % (q.numerator, rad)
    else:
        qtxt = "%d*%s/%d" % (q.numerator, rad, q.denominator)
    parts.append(qtxt)
    return " + ".join(parts).replace("+ -", "- ")


class Candidate:
    """One enumerated polynomial, as the IntPoly the report prints, with its
    ordered filter trace.

    A search without --audit keeps only survivors, so _cubic_candidate
    returns one shared candidate, _A3_REJECTED, for every cubic that fails
    divisibility-a3 (unless that filter is dropped): its poly is None and
    its trace that one failure.
    """

    __slots__ = ("poly", "trace", "survivor", "roots")

    def __init__(self, poly, trace, roots=None):
        self.poly = poly
        self.trace = tuple(trace)
        self.survivor = "fail" not in map(itemgetter(1), self.trace)
        self.roots = tuple(roots) if roots is not None else None

    def first_fail(self):
        for name, st in self.trace:
            if st == "fail":
                return name
        return None

    def __repr__(self):
        return "Candidate(%s, %s)" % (
            "None" if self.poly is None else self.poly.to_str(),
            "pass" if self.survivor else "fail@" + str(self.first_fail()))


_A3_REJECTED = Candidate(None, (("divisibility-a3", "fail"),))


class SearchConfig:
    """Window and override state for the fixed-degree searches; drop may
    name only filters of DROPPABLE_FILTERS[degree] (check_drops)."""

    __slots__ = ("degree", "d_lo", "d_hi", "a_max", "drop", "audit",
                 "exploratory")

    def __init__(self, degree, d_lo=None, d_hi=None, a_max=None, drop=(),
                 audit=False):
        if degree not in (2, 3):
            raise InvalidInputError("degree must be 2 or 3")
        drop = frozenset(drop)
        check_drops(degree, drop)
        default_lo = QUAD_DEFAULT_LO if degree == 2 else CUBIC_DEFAULT_LO
        default_hi = QUAD_DEFAULT_HI if degree == 2 else CUBIC_DEFAULT_HI
        default_amax = QUAD_A_MAX if degree == 2 else CUBIC_A_MAX
        # the completeness certificate needs every necessary-condition
        # filter active and the full coefficient grid; window moves alone
        # keep it (the enumeration bounds are derived from the window)
        loosened = bool(drop)
        d_lo = default_lo if d_lo is None else _as_surd(d_lo)
        d_hi = default_hi if d_hi is None else _as_surd(d_hi)
        if d_lo.cmp(d_hi) >= 0:
            raise InvalidInputError("empty window: d_lo >= d_hi")
        if d_hi.cmp(SQRT2) >= 0 and "mainineq" not in drop:
            raise InvalidInputError(
                "window reaches sqrt(2); the pair inequality is undefined "
                "there (drop the mainineq filter for an exploratory run)")
        self.degree = degree
        self.d_lo = d_lo
        self.d_hi = d_hi
        self.a_max = int(a_max) if a_max is not None else default_amax
        if self.a_max < default_amax:
            loosened = True
        self.drop = drop
        self.audit = bool(audit)
        self.exploratory = loosened

    def echo(self):
        d = {
            "degree": self.degree,
            "d_lo": surd_text(self.d_lo),
            "d_hi": surd_text(self.d_hi),
            "a_max": self.a_max,
            "dropped_filters": sorted(self.drop),
            "exploratory": self.exploratory,
        }
        return d


class SearchResult:
    __slots__ = ("survivors", "rejected", "warnings", "exploratory", "config")

    def __init__(self, survivors, rejected, warnings, exploratory, config):
        self.survivors = tuple(survivors)
        self.rejected = tuple(rejected)
        self.warnings = tuple(warnings)
        self.exploratory = exploratory
        self.config = config


def _as_surd(x):
    if isinstance(x, float):
        raise InvalidInputError("window endpoints must be exact; pass a "
                                "string, Fraction, or Surd")
    return _coerce(x)


# ---------------------------------------------------------------------------
# the pair inequality (smallest vs largest conjugate) by refinement; the
# quadratic search decides it exactly as the orbit inequality

def _pair_bounds(iv1, iv3):
    """Exact bounds (lower, upper) on g = 1/d1^2 + h(d3) - 1/2, with
    h(x) = 1/x^2 - 1/(2x), over d1 in iv1 and d3 in iv3, each a pair
    (lo, hi) of positive Fractions.

    g falls in d1, and h'(x) = (x - 4)/(2x^3), so h falls below 4 and rises
    above it: the largest g is at d1 = lo1 and the larger of h at the ends
    of iv3, the smallest at d1 = hi1 and d3 = 4 clamped into iv3.
    """
    def h(x):
        return 1 / (x * x) - 1 / (2 * x)

    (lo1, hi1), (lo3, hi3) = iv1, iv3
    half = Fraction(1, 2)
    upper = 1 / (lo1 * lo1) + max(h(lo3), h(hi3)) - half
    lower = 1 / (hi1 * hi1) + h(min(max(Fraction(4), lo3), hi3)) - half
    return lower, upper


def mainineq_enclosure_pair(d1, d3, label=""):
    """Certified 1/d1^2 + 1/d3^2 - 1/(2 d3) - 1/2 <= 0 via refinement.

    d1 and d3 are AlgebraicNumbers with positive values.  Refines both until
    the exact bounds of _pair_bounds on their intervals share a sign; raises
    an ambiguity error naming the candidate if that does not happen before
    the width cap.
    """
    width = Fraction(1, 2 ** 8)
    while True:
        iv1 = d1.refine(width)
        iv3 = d3.refine(width)
        if iv1[0] <= 0 or iv3[0] <= 0:
            width /= 16
            continue
        lower, upper = _pair_bounds(iv1, iv3)
        if upper <= 0:
            return True
        if lower > 0:
            return False
        if width < WIDTH_CAP:
            raise AmbiguityError(
                "pair inequality sign not certified at width cap%s"
                % (" for " + label if label else ""))
        width /= 16


# ---------------------------------------------------------------------------
# quadratic search

def _run_filter(cfg, trace, name, decide):
    """One step of an appendix candidate's filter trace: "skip" when cfg
    drops the filter, else decide() recorded as "pass" or "fail".  Returns
    False only for a failure."""
    if name in cfg.drop:
        trace.append((name, "skip"))
        return True
    ok = decide()
    trace.append((name, "pass" if ok else "fail"))
    return ok


def _power_divisors(fac, e):
    """Sorted divisors of a^e, from the factorization {p: k} of a >= 1."""
    divs = [1]
    for p, k in fac.items():
        powers = [p ** i for i in range(k * e + 1)]
        divs = [d * q for q in powers for d in divs]
    divs.sort()
    return divs


# Both window bounds below round (X + Y sqrt n)/L up as Surd.ceil does:
# ceil = -floor((-X - Y sqrt n)/L) = -((_floor_root(-Y, n) - X) // L), where
# kernels.eval_surd writes L = d^k times the value at s = (x + y sqrt n)/d.

def _quad_ceil(s, a):
    """ceil(a s - s^2) at the window end s."""
    x, y = kernels.eval_surd((0, a, -1), s.a, s.b, s.n, s.d)
    return -((_floor_root(-y, s.n) - x) // (s.d * s.d))


def _cubic_ceils(s, a, b_max):
    """ceil(s^3 - a s^2 + b s) for b = 1 .. b_max at the window end s; each
    step of b adds the pair of d^3 s, (x d^2, y d^2)."""
    n, dd = s.n, s.d * s.d
    x, y = kernels.eval_surd((0, 0, -a, 1), s.a, s.b, n, s.d)
    x1, y1, den = s.a * dd, s.b * dd, dd * s.d
    out = []
    for _ in range(b_max):
        x += x1
        y += y1
        out.append(-((_floor_root(-y, n) - x) // den))
    return out


def _quad_plan(cfg):
    """[(a, in-window divisors b of a^2)] for a = 3 .. a_max, counted in
    full before any window bound or divisor list is computed."""
    drop_window = "window" in cfg.drop
    counted = []
    size = 0
    for a in range(3, cfg.a_max + 1):
        # b = d1*(a - d1) is increasing in d1 up to a/2, so no b fits a
        # window whose lower end is past the peak
        if not drop_window and cfg.d_lo.cmp(Fraction(a, 2)) >= 0:
            continue
        # a^2 has tau(a^2) = prod(2k + 1) divisors, read off the
        # factorization of a, so an over-budget run lists none of them
        fac = _intfactor.factorize(a)
        size += 1 + prod(2 * k + 1 for k in fac.values())
        if size > SEARCH_BUDGET:
            raise BudgetError(
                "the quadratic search would take more than %d enumeration "
                "steps (values of a and divisors of a^2); lower --amax"
                % SEARCH_BUDGET)
        counted.append((a, fac))
    plan = []
    for a, fac in counted:
        if drop_window:
            blo, bhi = 1, a * a
        else:
            # integer b window from the root window: the endpoint values
            # bound it; past the peak fall back to the unconditional
            # b < a^2/4
            blo = _quad_ceil(cfg.d_lo, a)
            if cfg.d_hi.cmp(Fraction(a, 2)) <= 0:
                bhi = _quad_ceil(cfg.d_hi, a) - 1
            else:
                bhi = (a * a - 1) // 4
        plan.append((a, [b for b in _power_divisors(fac, 2)
                         if blo <= b <= bhi]))
    return plan


def search_quadratic(cfg=None):
    """Enumerate x^2 - ax + b over the appendix grid and filter exactly."""
    if cfg is None:
        cfg = SearchConfig(2)
    if cfg.degree != 2:
        raise InvalidInputError("config degree must be 2")
    plan = _quad_plan(cfg)
    cands = (_quad_candidate(cfg, a, b) for a, bs in plan for b in bs)
    return _assemble(cfg, [cands])


def _prefilter(asc):
    """The integer prefilter prod(3 d_i - 4) >= 1 over the roots d_i of the
    monic asc: (-1)^k 3^k asc(4/3) at degree k."""
    return (-1) ** (len(asc) - 1) * kernels.eval_qnum(asc, 4, 3) >= 1


def _quad_candidate(cfg, a, b):
    asc = (b, -a, 1)
    trace = []
    roots = None
    ok = _run_filter(cfg, trace, "integer-prefilter", lambda: _prefilter(asc))
    if ok:
        ok = _run_filter(cfg, trace, "irreducible",
                         lambda: is_irreducible(asc))
    disc = a * a - 4 * b
    if ok:
        # the plan's a >= 3 and b >= 1 alternate the signs, so by Descartes'
        # rule no real root is <= 0: totally positive is real
        ok = _run_filter(cfg, trace, "totally-positive", lambda: disc > 0)
    # with disc < 0 there is no real root: root-window and mainineq fail
    d1 = d2 = None
    if ok and disc >= 0:
        d1 = Surd(Fraction(a, 2), Fraction(-1, 2), disc)
        d2 = Surd(Fraction(a, 2), Fraction(1, 2), disc)
    if ok:
        ok = _run_filter(cfg, trace, "root-window",
                         lambda: d1 is not None and d1.cmp(cfg.d_lo) >= 0
                         and d1.cmp(cfg.d_hi) < 0)
    if ok:
        # the orbit inequality at the larger root d2 is the pair inequality
        _run_filter(cfg, trace, "mainineq",
                    lambda: d1 is not None and orbit_inequality(
                        inverse_square_sum(asc), d2)[0])
    if d1 is not None:
        roots = (float(d1), float(d2))
    return Candidate(IntPoly(asc), trace, roots)


# ---------------------------------------------------------------------------
# cubic search

def _cubic_plan(cfg):
    """[(a, b, c values)] for every coefficient pair, counted before any
    candidate is built.  With the window, c runs over the integers in
    [s^3 - a s^2 + b s at d_lo, the same at d_hi), from 1 up."""
    drop_window = "window" in cfg.drop
    if drop_window:
        # rational lower bound on d_lo: P(r) <= 0 stays necessary at any
        # r below every root, which keeps the dropped-window enumeration sane
        r_lo = cfg.d_lo.approx(Fraction(1, 10 ** 20))[0]
    plan = []
    size = 0
    for a in range(1, cfg.a_max + 1):
        b_max = a * a // 3
        if drop_window:
            # finiteness comes from the divisibility constraint
            divs = _power_divisors(_intfactor.factorize(a), 3)
        else:
            lows = _cubic_ceils(cfg.d_lo, a, b_max)
            tops = _cubic_ceils(cfg.d_hi, a, b_max)
        for b in range(1, b_max + 1):
            if drop_window:
                c_min = r_lo * (r_lo * (r_lo - a) + b)
                c_iter = [c for c in divs if c >= c_min]
                size += 1 + len(c_iter)
            else:
                c_lo = max(1, lows[b - 1])
                c_top = tops[b - 1]
                c_iter = range(c_lo, c_top)
                # not len(c_iter): len of a range past sys.maxsize raises
                # OverflowError, and a huge window must end in BudgetError
                size += 1 + max(0, c_top - c_lo)
            if size > SEARCH_BUDGET:
                raise BudgetError(
                    "the cubic search would enumerate more than %d "
                    "coefficient pairs and candidates; narrow --window or "
                    "lower --amax" % SEARCH_BUDGET)
            plan.append((a, b, c_iter))
    return plan


def search_cubic(cfg=None):
    """Enumerate x^3 - ax^2 + bx - c with the appendix constraints.

    _cubic_candidate runs once per enumerated (a, b, c).  Unless cfg audits
    or drops divisibility-a3, a candidate with a^3 % c != 0 is the shared
    _A3_REJECTED (poly None), which only counts as a rejection; every other
    candidate carries its polynomial and full trace.
    """
    if cfg is None:
        cfg = SearchConfig(3)
    if cfg.degree != 3:
        raise InvalidInputError("config degree must be 3")
    plan = _cubic_plan(cfg)
    # streamed: only the candidates the result keeps stay in memory
    cands = (_cubic_candidate(cfg, a, b, c)
             for a, b, c_iter in plan for c in c_iter)
    return _assemble(cfg, [cands])


def _cubic_candidate(cfg, a, b, c):
    """The filter trace of x^3 - ax^2 + bx - c, where the plan's a, b and c
    are at least 1."""
    # nothing outside the audit reads a rejected candidate's polynomial
    if a ** 3 % c and not cfg.audit and "divisibility-a3" not in cfg.drop:
        return _A3_REJECTED
    poly = IntPoly((-c, b, -a, 1))
    asc = poly.coeffs
    trace = []
    roots = None
    ok = _run_filter(cfg, trace, "divisibility-a3", lambda: a ** 3 % c == 0)
    if ok:
        ok = _run_filter(cfg, trace, "divisibility-b3",
                         lambda: b ** 3 % (c * c) == 0)
    if ok:
        ok = _run_filter(cfg, trace, "irreducible",
                         lambda: is_irreducible(asc))
    if ok:
        # signs alternate, so totally positive is real (see _quad_candidate)
        ok = _run_filter(cfg, trace, "totally-positive",
                         lambda: kernels.real_rooted(asc))
    if ok:
        # a candidate that reaches here with a filter dropped may have a
        # repeated root; isolation needs a squarefree polynomial
        isolated = isolate_real_roots(poly_squarefree_part(asc))
        roots = tuple(r.approx_float() for r in isolated)
        d1 = isolated[0]
        ok = _run_filter(cfg, trace, "root-window",
                         lambda: d1.cmp(cfg.d_lo) >= 0
                         and d1.cmp(cfg.d_hi) < 0)
        if ok:
            label = poly.to_str()
            _run_filter(cfg, trace, "mainineq",
                        lambda: mainineq_enclosure_pair(
                            d1, isolated[-1], label=label))
    return Candidate(poly, trace, roots)


def _split(batches, audit):
    """Survivors, and the rejected candidates when auditing, in order."""
    survivors = []
    rejected = []
    for batch in batches:
        for cand in batch:
            if cand.survivor:
                survivors.append(cand)
            elif audit:
                rejected.append(cand)
    return survivors, rejected


def _assemble(cfg, batches):
    survivors, rejected = _split(batches, cfg.audit)
    warnings = []
    if cfg.exploratory:
        warnings.append(EXPLORATORY_MARK)
    return SearchResult(survivors, rejected, warnings, cfg.exploratory,
                        cfg.echo())


# ---------------------------------------------------------------------------
# general bounded-degree search below d_max

def _gap_cut_points(d_max):
    """Rationals (gamma, delta) with d_max < gamma < delta < the lower
    bound on every non-smallest root.

    From the orbit inequality, any root other than the smallest d1 has
    1/g^2 <= 1/2 + 1/(2 d1) - 1/d1^2, which is increasing in d1 on the
    window, so g stays above 1/sqrt(h(d_max)); the band between d_max and
    that bound is root-free and gives two sign conditions on candidates.
    gamma hugs d_max (tight final-coefficient windows) and delta hugs the
    far bound (sharp symmetric-function envelopes).

    Both lie on the grid 1/1000.  search_gap reaches this only for
    4/3 < d_max < threshold("gdim_k", DEGREE_CAP + 1) ~ 1.4105, where the
    band 1/sqrt(h) - d_max is at least 0.275: gamma clears d_max and delta
    stays under the bound by more than 0.008 each, and delta - gamma
    exceeds 0.25, far beyond float error.  The three exact checks still
    decide.
    """
    one = Surd(1)
    h = (Surd(Fraction(1, 2)) + one / (d_max * Fraction(2))
         - one / (d_max * d_max))
    dm = float(d_max)
    bb = 1.0 / float(h) ** 0.5
    gamma = Fraction(int((dm + (bb - dm) / 32) * 1000) + 1, 1000)
    delta = Fraction(int((dm + 31 * (bb - dm) / 32) * 1000), 1000)
    # need delta < 1/sqrt(h)  <=>  h < 1/delta^2
    if gamma >= delta or d_max.cmp(gamma) >= 0 \
            or h.cmp(1 / (delta * delta)) >= 0:
        raise AmbiguityError("could not certify a root-free band above "
                             "d_max")
    return gamma, delta


def _interval_eval(asc, root):
    """Integer enclosure (lo, hi) of den^deg asc(x) over the isolating
    interval (a/den, b/den] of root, deg = len(asc) - 1, by Horner's rule
    on endpoint pairs, homogeneously: each step takes the least and the
    largest of the four products with a and b, then adds the coefficient
    times den^i for the i-th step."""
    a, b, den = root.lo, root.hi, root.den
    lo = hi = asc[-1]
    scale = 1
    for c in reversed(asc[:-1]):
        scale *= den
        prods = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(prods) + c * scale, max(prods) + c * scale
    return lo, hi


def _point_weights(x, mults, d):
    """Weights of q^d f(p/q) at x = p/q for the f whose coefficient of
    x^(d-i) is prefix[i]*mults[i]: the value is the dot product of the
    prefix with mults[i] p^(d-i) q^i."""
    p, q = x.numerator, x.denominator
    return [c * p ** (d - i) * q ** i for i, c in enumerate(mults)]


class _DepthPlan:
    """What the walk needs at depth j of a degree-k search besides a node's
    prefix, built once per degree from the box and cut points it keeps.

    A prefix p_0..p_j (descending, p_0 the leading coefficient) has the node
    polynomial deriv = P^(k-j) with p_i (k-i)!/(j-i)! at x^(j-i), and
    w = P^(k-j-1) of the prefix extended by 0 has p_i (k-i)!/(j+1-i)! at
    x^(j+1-i); deriv_mul and w_mul hold these falling factorials.  With
    deg = j + 1 and bcoef = (k-j-1)!:

    envelope: the integer envelope (lo, hi) of the next coefficient.  The
        coefficient is (-1)^m e_m with m = j + 1, where e_m is the
        elementary symmetric function of one root in (box_lo, gamma) and k-1
        roots in (delta, f_hi]; the envelope bounds e_m by its values at the
        ends of those ranges.
    bounds: (weights, m, offset), one per linear bound N + m*t >= 0 on the
        next coefficient t, where N is the prefix's dot product with weights
        plus offset and m is never 0 (see _child_ranges).  In order: box_lo,
        f_hi, at the final depth j = k - 1 the strict cut points gamma and
        delta (offset -1), and one per look-ahead pair whose a is nonzero.
    """

    __slots__ = ("k", "j", "box_lo", "f_hi", "cuts", "bcoef", "envelope",
                 "deriv_mul", "w_mul", "bounds")

    def __init__(self, k, j, box_lo, f_hi, cuts):
        self.k, self.j = k, j
        self.box_lo, self.f_hi, self.cuts = box_lo, f_hi, cuts
        gamma, delta = cuts
        m = deg = j + 1
        e_min = (box_lo * comb(k - 1, m - 1) * delta ** (m - 1)
                 + comb(k - 1, m) * delta ** m)
        e_max = (gamma * comb(k - 1, m - 1) * f_hi ** (m - 1)
                 + comb(k - 1, m) * f_hi ** m)
        if m % 2:
            self.envelope = ((-e_max).__ceil__(), (-e_min).__floor__())
        else:
            self.envelope = (e_min.__ceil__(), e_max.__floor__())

        self.bcoef = bcoef = factorial(k - deg)
        self.deriv_mul = [factorial(k - i) // factorial(j - i)
                          for i in range(deg)]
        self.w_mul = [factorial(k - i) // factorial(deg - i)
                      for i in range(deg)]
        # (point, sigma, offset): sigma = -1 at box_lo for odd deg and at
        # the cut points for odd k - 1
        points = [(box_lo, (-1) ** deg, 0), (f_hi, 1, 0)]
        if deg == k:
            points += [(x, (-1) ** (k - 1), -1) for x in cuts]
        self.bounds = [
            ([sigma * c for c in _point_weights(x, self.w_mul, deg)],
             sigma * x.denominator ** deg * bcoef, offset)
            for x, sigma, offset in points]
        if deg == k:
            return

        # look-ahead, at j + 1 < k: lower-type points at f_hi, at box_lo
        # for even j and at the cut points for odd j when the child is
        # final, upper-type at the others; without an upper-type point
        # (even j, child not final) there is no pair
        child_cuts = list(cuts) if deg + 1 == k else []
        if j % 2:
            lows, ups = [f_hi] + child_cuts, [box_lo]
        else:
            lows, ups = [box_lo, f_hi], child_cuts
        d = deg + 1
        w0_mul = [factorial(k - i) // factorial(d - i) for i in range(deg)]
        for x_l in lows:
            p_l, q_l = x_l.numerator, x_l.denominator
            n_l = _point_weights(x_l, w0_mul, d)
            for x_u in ups:
                p_u, q_u = x_u.numerator, x_u.denominator
                a = bcoef * (p_l * q_u - p_u * q_l) * (q_l * q_u) ** deg
                if a:
                    n_u = _point_weights(x_u, w0_mul, d)
                    self.bounds.append(([v * q_u ** d - u * q_l ** d
                                         for u, v in zip(n_u, n_l)], a, 0))


def _child_ranges(prefix, coeffs, plan):
    """Integer ranges [lo, hi] of the next descending coefficient t below
    each child prefix + [s] of a node, s running over coeffs, yielded lazily
    and in that order.  The walk's root is the row ([], range(1, 2)).

    coeffs is a range of consecutive integers and plan is the _DepthPlan of
    the children's depth j = len(prefix): it keeps the degree k, the box
    (box_lo, f_hi] and the cut points, and holds every value a range needs
    at them.  P^(k-j-1) of a child extended by t is w + bcoef*t, with w of
    degree deg = j + 1; each bound is a sign condition
    sigma * (w(x) + bcoef*t) >= 0 at the box endpoints, at the (exactly
    computable) critical points for low depth, and, strict, at the
    root-free band cut points for the final coefficient.

    The row is lazy: the walk counts each child's step against
    SEARCH_BUDGET before it asks for the next sibling's range, and a row is
    as wide as its parent's range, so an eager row could compute far more
    ranges than the budget allows.

    Each linear bound's N (below) is the dot product of prefix + [s] with
    the bound's weights, plus its offset, so it is affine in s: the row
    takes each dot product once, at the first s, and steps it by the
    weights' last entry from one child to the next.  At depth 2 the
    critical values' D and X below are affine in the child's last
    coefficient too, and step the same way.  Depths 1 and >= 3 build each
    child's deriv = P^(k-j) (ascending) and w from the plan's multipliers
    for its critical points, only while its range is nonempty.

    A survivor has k simple real roots, so by Rolle's theorem every
    deriv = P^(k-j) has j.  At depth 2 the two critical values have a
    closed form.  Every other depth j >= 1 takes the general branch: a child
    where kernels.real_rooted(deriv) fails gets the empty range (1, 0), and
    otherwise all j critical points come from isolate_real_roots(deriv).
    At depth 1 the Rolle test holds for the linear deriv, and isolation
    returns its one rational critical point as an exact point.

    No separate test that a node's roots lie in the box (box_lo, f_hi] is
    needed.  Through depth 2 the critical-point bounds are exact: the child
    w + bcoef*t has weakly alternating signs at box_lo, at the critical
    points and at f_hi, so when the node's own roots are simple and in the
    box, the intermediate value theorem puts all j + 1 roots of every child
    in [box_lo, f_hi].  Below a depth-2 node with a double root, a depth-3
    child is not real-rooted, and the Rolle prune empties it.  No node
    vanishes at box_lo for k <= 19: its integer coefficients have the
    leading coefficient k!/j!, which divides k!, and the box floor's
    denominator does not divide k!.  So through depth 3 a box test would
    drop only nodes the Rolle prune empties.  At k = 20 and 22 the
    denominator divides k!, and from depth 4 on (k >= 5) the enclosure
    bounds are loose: there the walk may visit nodes with a root at box_lo
    or outside the box, which costs time but not soundness, since the leaf
    battery decides every candidate.

    Evaluation is integer-only.  Every bound that is linear in t is one
    constraint N + m*t >= 0 of plan.bounds, m != 0: it gives
    t >= ceil(-N/m) = -(N // m) for m > 0 and t <= floor(N/-m) = N // -m
    for m < 0, one floor division each, and the row folds them all in one
    loop before the critical points.  Three kinds of bound take this form:
    - At a fixed rational point x = p/q (q > 0): multiplying
      sigma * (w(x) + bcoef*t) >= 0 by q^deg > 0 gives
      sigma*N + sigma*M*t >= 0 with N = q^deg w(p/q) and M = q^deg bcoef,
      so the weights carry sigma and m = sigma*M.
    - At a cut point, a fixed point where the bound is strict: on
      integers N + m*t > 0 is the same as N - 1 + m*t >= 0, so the offset
      is -1.
    - A look-ahead pair's a*t >= b (below) is -b + a*t >= 0.
    A nonempty range is the intersection of all bounds, so their order
    does not change it; it only changes the (lo, hi) of an empty range,
    which the walk reads only as range(lo, hi + 1).

    At depth 2, w = A x^3 + B x^2 + C x, where (A, B, C) is the child times
    the plan's w_mul, and deriv = w'.  With D = B^2 - 3AC > 0 the critical
    points are (-B -+ sqrt D)/(3A), and

        27 A^2 w((-B -+ sqrt D)/(3A)) = X +- sqrt M,
        X = B(2B^2 - 9AC),  M = 4D^3.

    On a walk A > 0, so the first point is the smaller one and bounds t
    from below, t >= -floor((X + sqrt M)/Q) with Q = 27 A^2 bcoef > 0, and
    the second bounds it from above, t <= floor((sqrt M - X)/Q).  For an
    integer Y, floor((Y + sqrt M)/Q) = (Y + isqrt(M)) // Q: an integer
    nQ - Y is at most sqrt M exactly when it is at most isqrt(M).  M is a
    square exactly when D is, and a rational critical point's bound is
    exact.  D <= 0 (no two distinct critical points) gives no bound.  A and
    B are fixed along a row and C = s w_mul[2], so D and X step by
    -3A w_mul[2] and -9AB w_mul[2].

    At every other depth a critical point is a root from
    isolate_real_roots(deriv) with its isolating interval (a/den, b/den]:
    _interval_eval encloses den^deg w over the interval on integers, and
    M = den^deg bcoef.  At depth 1 the interval is the point a = b, where
    the enclosure is the exact value, so that bound is exact too.  Each
    bound is rounded once, outward (ceil for lo, floor for hi) by one floor
    division, so no valid candidate is lost.

    Look-ahead, at j + 1 < k: a grandchild prefix + [s, t] bounds its
    coefficient with w' = w0 + bcoef*t*x in place of w, where w0 is
    P^(k-j-2) of prefix + [s, 0, 0] (t sits at x^1 with the factor
    (k-j-1)!/1! = bcoef).  Its bound at a fixed point x is -w'(x)/c with
    c = (k-j-2)! > 0: lower-type at f_hi, at box_lo for even j and at the
    cut points for odd j when the grandchild is final, upper-type at the
    others.  The grandchild's range lies in [ceil(max lower),
    floor(min upper)] (a strict cut bound only narrows it), so a nonempty
    one needs -w'(x_L) <= -w'(x_U) for every lower-type x_L and upper-type
    x_U, that is bcoef*t*(x_L - x_U) >= w0(x_U) - w0(x_L), affine in t.  A
    real-empty range is integer-empty, so the t this drops have no leaf
    below them.  With x = p/q and N = q^d w0(p/q) (d = j + 2), the
    inequality times q_L^d q_U^d > 0 is a*t >= b with
    a = bcoef (p_L q_U - p_U q_L)(q_L q_U)^(d-1) and b = N_U q_L^d - N_L q_U^d,
    which is linear in the child: the plan keeps it as the constraint
    -b + a*t >= 0.  a = 0 only where x_L = x_U, and then b = 0 too: no
    bound, and the plan keeps no such pair.
    """
    j = plan.j
    env_lo, env_hi = plan.envelope
    # every numerator starts one step before the first child and steps at
    # the top of each child
    before = coeffs.start - 1
    cons = [[sum(map(mul, prefix, w)) + before * w[-1] + offset, w[-1], m]
            for w, m, offset in plan.bounds]
    bcoef = plan.bcoef
    if j == 2:
        a, b = map(mul, prefix, plan.w_mul)
        c_step = plan.w_mul[2]
        c = before * c_step
        d, d_step = b * b - 3 * a * c, -3 * a * c_step
        x, x_step = b * (2 * b * b - 9 * a * c), -9 * a * b * c_step
        q = 27 * a * a * bcoef

    for s in coeffs:
        lo, hi = env_lo, env_hi
        # N + m*t >= 0 for each linear bound
        for con in cons:
            num = con[0] = con[0] + con[1]
            m = con[2]
            if m > 0:
                bound = -(num // m)
                if bound > lo:
                    lo = bound
            else:
                bound = num // -m
                if bound < hi:
                    hi = bound

        # interior alternation at the critical points (roots of P^(k-j))
        if j == 2:
            d += d_step
            x += x_step
            # the critical values of w = A x^3 + B x^2 + C x in closed form
            if d > 0 and lo <= hi:
                root = isqrt(4 * d ** 3)
                bound = -((x + root) // q)
                if bound > lo:
                    lo = bound
                bound = (root - x) // q
                if bound < hi:
                    hi = bound
        elif j and lo <= hi:
            node = prefix + [s]
            deriv = list(map(mul, node, plan.deriv_mul))
            deriv.reverse()
            # Rolle: without j distinct real critical points no leaf
            # survives (always true at j = 1)
            if not kernels.real_rooted(deriv):
                yield 1, 0
                continue
            w = list(map(mul, node, plan.w_mul))
            w.append(0)
            w.reverse()
            for i, pt in enumerate(isolate_real_roots(deriv), start=1):
                enc_lo, enc_hi = _interval_eval(w, pt)
                mod = pt.den ** (j + 1) * bcoef
                if (j + 1 - i) % 2 == 0:
                    bound = -(enc_hi // mod)
                    if bound > lo:
                        lo = bound
                else:
                    bound = (-enc_lo) // mod
                    if bound < hi:
                        hi = bound
        yield lo, hi


def _gap_leaf(asc, d_max, bracket, keep_all):
    """Run the survivor battery on one candidate, the monic polynomial with
    ascending coefficient tuple asc.

    Decisions are exact but routed through cheap paths.  An irreducible
    candidate is squarefree, so one kernels.real_rooted call (distinct real
    roots) says whether every root is real.  On a real-rooted polynomial each
    root bound is one sign test on a Taylor shift (kernels.real_roots_above).
    The strict test at 4/3 runs first: if every root exceeds 4/3, every root
    is at least 1, so the weak test at 1 runs only when the 4/3 test fails,
    and root-window reuses its result (a root <= 4/3 fails the window); the
    trace is the one the two tests in filter order give.  bracket holds
    rationals r_lo <= d_max <= r_hi: a root <= r_lo (a failed strict test)
    passes the window and every root > r_hi (a strict test) fails it, so
    the exact algebraic comparison only runs for a smallest root between
    them.  Isolation runs at most once: for that smallest root, or for the
    few candidates that reach the orbit inequality.  Without keep_all a
    rejected leaf returns None before any Candidate is built, and the
    IntPoly a Candidate prints is built only for one that is returned.

    The d-number test comes first: without keep_all, a leaf that is no
    d-number returns None before the battery runs (3 of the 4,810 leaves at
    4sqrt(3)/5 are d-numbers).  The d-number filter is one of the battery's,
    so such a leaf is never a survivor, and the survivors keep their traces,
    roots and order.  A leaf with constant term 0, on which is_d_number
    raises, is divisible by x and fails irreducible, so it counts as no
    d-number.  Skipping the battery drops no exception it could raise:
    is_irreducible and is_d_number raise DegreeCapError only above
    DEGREE_CAP = 24, which search_gap never reaches, and the root decisions
    are exact.  --audit and the benchmark's tracer pass keep_all, so they
    still see every leaf's full trace.
    """
    dnum = asc[0] != 0 and is_d_number(asc)
    if not (dnum or keep_all):
        return None
    trace = []
    roots = None

    irr = is_irreducible(asc)
    trace.append(("irreducible", "pass" if irr else "fail"))
    ok = irr

    isolated = None  # the roots, isolated at most once
    if ok:
        real = kernels.real_rooted(asc)
        above = real and kernels.real_roots_above(asc, 4, 3, True)
        good = above or (real and kernels.real_roots_above(asc, 1, 1, False))
        trace.append(("roots-real-ge-1", "pass" if good else "fail"))
        ok = good
    if ok:
        r_lo, r_hi = bracket
        if not above:
            inwin = False  # a root at or below 4/3
        elif not kernels.real_roots_above(asc, r_lo.numerator,
                                          r_lo.denominator, True):
            inwin = True
        elif r_lo == r_hi or kernels.real_roots_above(
                asc, r_hi.numerator, r_hi.denominator, True):
            inwin = False  # smallest root above d_max
        else:
            isolated = isolate_real_roots(asc)
            inwin = isolated[0].cmp(d_max) <= 0
        trace.append(("root-window", "pass" if inwin else "fail"))
        ok = inwin
    if ok:
        trace.append(("d-number", "pass" if dnum else "fail"))
        ok = dnum
    if ok:
        ok = _prefilter(asc)
        trace.append(("integer-prefilter", "pass" if ok else "fail"))
    if ok:
        if isolated is None:
            isolated = isolate_real_roots(asc)
        good = orbit_inequality(inverse_square_sum(asc), isolated[-1])[0]
        trace.append(("orbit-inequality", "pass" if good else "fail"))
        ok = good
        roots = tuple(r.approx_float() for r in isolated)
    if ok or keep_all:
        return Candidate(IntPoly(asc), trace, roots)
    return None


def _box_floor(t):
    """Per-degree root floor: every root of a degree-k candidate exceeds
    the degree-k conjugate-count bound t = threshold("gdim_k", k), of which
    this is a certified rational lower bound (at least 4/3)."""
    if t.is_rational:
        return t.p
    return max(FOUR_THIRDS, t.approx(Fraction(1, 10 ** 6))[0])


def _gap_degree(k, d_max, box_lo, f_hi, cuts, bracket, audit, steps):
    """All candidates of one degree via depth-first coefficient search, and
    the search's running count of enumeration steps.

    A node's children prefix + [s], s over its range, take their own ranges
    from one _child_ranges row, which computes each child's range only
    when the walk reaches that child; the root is the row ([], range(1, 2)).
    steps counts the steps of the lower degrees: one per coefficient range,
    and one per leaf, which a final node adds at once by the width of its
    range.  Each child counts its step before its subtree is visited and
    before the row computes the next sibling's range, so past SEARCH_BUDGET
    the search stops with BudgetError before it computes another range.
    A final node (depth k - 1) hands each coefficient t of its range
    straight to _gap_leaf as the leaf's ascending tuple (t, *asc); only the
    nodes above it recurse.  Returns (candidates, steps)."""
    out = []
    plans = [_DepthPlan(k, j, box_lo, f_hi, cuts) for j in range(k)]

    def descend(prefix, coeffs):
        nonlocal steps
        # the children prefix + [s] are final nodes when they reach depth
        # k - 1
        final = len(prefix) + 1 == k
        row = _child_ranges(prefix, coeffs, plans[len(prefix)])
        for s, (lo, hi) in zip(coeffs, row):
            below = range(lo, hi + 1)
            # a final node also counts its leaves
            steps += 1 + len(below) if final else 1
            if steps > SEARCH_BUDGET:
                raise BudgetError(
                    "budget exhausted at degree %d: the gap search takes "
                    "more than %d enumeration steps (coefficient ranges and "
                    "leaves); lower --dmax" % (k, SEARCH_BUDGET))
            if not final:
                descend(prefix + [s], below)
                continue
            asc = (s, *reversed(prefix))
            for t in below:
                cand = _gap_leaf((t, *asc), d_max, bracket, audit)
                if cand is not None:
                    out.append(cand)

    descend([], range(1, 2))
    return out, steps


def search_gap(d_max, audit=False):
    """Certified enumeration of minimal polynomials of candidate spherical
    dimensions in (4/3, d_max].

    Degrees run from 2 (no integer lies in (4/3, sqrt 2)) to the largest k
    whose conjugate-count bound stays below d_max; within each degree,
    coefficients are searched depth-first with interval pruning.  Survivors
    pass: irreducible, all roots real and >= 1, smallest root in
    (4/3, d_max], d-number, the integer prefilter prod(3 d_i - 4) >= 1, and
    the orbit inequality.  A leaf decides realness without isolating, and
    isolates its roots only for a smallest root between the rationals that
    bracket d_max, or for the orbit inequality (see _gap_leaf).
    """
    d_max = _as_surd(d_max)
    if d_max.cmp(FOUR_THIRDS) <= 0:
        raise InvalidInputError("d_max must exceed 4/3")
    if d_max.cmp(SQRT2) >= 0:
        raise InvalidInputError("d_max must stay below sqrt(2)")

    # k_max grows without bound as d_max nears sqrt 2 (about 10^11 at
    # 1.414213562373), and a leaf of degree above DEGREE_CAP cannot be
    # factored, so the count stops there.  threshold("gdim_k", k)^2 =
    # (16k - 16)/(8k - 7) lies strictly between 1 and 2, so it is never an
    # integer and d_max equal to the bound is no algebraic integer: such a
    # degree has no candidate.  Degree 2's bound, 4/3, is below d_max.
    warnings = []
    degrees = []   # (k, box floor)
    k = 2
    while True:
        t = threshold("gdim_k", k)
        c = t.cmp(d_max)
        if c > 0:
            break
        if k > DEGREE_CAP:
            raise BudgetError(
                "d_max admits candidates of degree above %d, the "
                "factorization cap; lower --dmax" % DEGREE_CAP)
        if c:
            degrees.append((k, _box_floor(t)))
        else:
            warnings.append("degree %d skipped: its bound equals d_max, "
                            "which is not an algebraic integer of that "
                            "degree" % k)
        k += 1
    k_max = k - 1
    if k_max >= 4:
        warnings.insert(0, "cost warning: conjugate-count cap k_max = %d; "
                        "higher-degree enumeration may be slow" % k_max)

    f_max = (d_max * d_max) / (Surd(2) - d_max * d_max)
    f_hi = f_max.ceil()
    cuts = _gap_cut_points(d_max)
    # rationals r_lo <= d_max <= r_hi (both equal to a rational d_max), so a
    # leaf settles its root window with sign tests at fixed points
    bracket = d_max.approx(Fraction(1, 10 ** 20))

    batches = []
    steps = 0
    for k, box_lo in degrees:
        cands, steps = _gap_degree(k, d_max, box_lo, f_hi, cuts, bracket,
                                   audit, steps)
        batches.append(cands)
    survivors, rejected = _split(batches, audit)
    config = {
        "d_max": surd_text(d_max),
        "k_max": k_max,
        "f_max": surd_text(f_max),
        "band": [str(cuts[0]), str(cuts[1])],
    }
    return SearchResult(survivors, rejected, warnings, False, config)
