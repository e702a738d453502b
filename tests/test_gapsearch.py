"""Exhaustive small-degree searches and their supporting inequalities."""

import hashlib
import inspect
import math
import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fgap import algnum, gapsearch, kernels
from fgap._intfactor import factorize
from fgap.algnum import (IntPoly, Surd, factor_over_integers,
                         inverse_square_sum, is_d_number, isolate_real_roots,
                         poly_gcd_int, poly_squarefree_part)
from fgap.errors import BudgetError, InvalidInputError
from fgap.obstruct import FOUR_THIRDS, orbit_inequality, threshold
from fgap.gapsearch import (
    CUBIC_DEFAULT_LO,
    EXPLORATORY_MARK,
    QUAD_DEFAULT_HI,
    QUAD_DEFAULT_LO,
    SQRT2,
    Candidate,
    SearchConfig,
    mainineq_enclosure_pair,
    search_cubic,
    search_gap,
    search_quadratic,
    surd_text,
)
from fgap.gapsearch import _child_ranges, _DepthPlan, _pair_bounds
from oracles import (_deriv_prefix, cubic_plan_reference,
                     depth2_critical_bounds_reference, divisors, interval,
                     isolate_sturm, iv_horner, mid, node_range,
                     pair_enclosure, poly_value, quad_plan_reference,
                     real_root_count, sturm_chain, sturm_refine, varcount_at,
                     varcount_at_surd, varcount_inf)

GOLDEN_GAP = Surd(Fraction(5, 2), Fraction(-1, 2), 5)  # (5 - sqrt 5)/2


@pytest.fixture(scope="module")
def gap_default_audit():
    return search_gap(QUAD_DEFAULT_HI, audit=True)


@pytest.fixture(scope="module")
def gap_rational_audit():
    return search_gap(Surd(Fraction(277, 200)), audit=True)


@pytest.fixture(scope="module")
def cubic_default_audit():
    return search_cubic(SearchConfig(3, audit=True))


# ---------------------------------------------------------------------------
# K(d) = (1/4 - sqrt(9/16 - 1/d^2))^(-1), the bound on the larger root of a
# quadratic survivor: the k = 2 oracle for a root region of the gap walk

def K_of(d, digits=40):
    """Outward-rounded enclosure of K(d) = 1/(1/4 - sqrt(9/16 - 1/d^2)).

    Accepts a Surd, Fraction-like, or an interval (lo, hi); requires
    certified 4/3 < d < sqrt(2).  Returns the enclosure (lo, hi).
    """
    if isinstance(d, tuple):
        lo, hi = d
        if not (lo > FOUR_THIRDS and hi * hi < 2):
            raise InvalidInputError("K(d) needs 4/3 < d < sqrt(2)")
    else:
        s = gapsearch._as_surd(d)
        if not (s.cmp(FOUR_THIRDS) > 0 and s.cmp(SQRT2) < 0):
            raise InvalidInputError("K(d) needs 4/3 < d < sqrt(2)")
        lo, hi = s.approx(Fraction(1, 10 ** digits))

    def k_at(v, round_up):
        t = Fraction(9, 16) - 1 / (v * v)
        if t < 0:
            raise InvalidInputError("K(d) domain violated")
        s_lo, s_hi = _sqrt_bounds(t, digits)
        den = Fraction(1, 4) - (s_hi if round_up else s_lo)
        if den <= 0:
            raise InvalidInputError("K(d) domain violated (d too close to "
                                    "sqrt(2) at this precision)")
        return 1 / den

    return k_at(lo, False), k_at(hi, True)


def _sqrt_bounds(f, digits):
    """[lo, hi] rationals with lo <= sqrt(f) <= hi, width 10**-digits."""
    f = Fraction(f)
    if f < 0:
        raise InvalidInputError("negative radicand")
    scale = 10 ** digits
    r = math.isqrt(f.numerator * scale * scale // f.denominator)
    return Fraction(r, scale), Fraction(r + 2, scale)


def test_K_pinned_endpoint():
    # K(4 sqrt 3 / 5) = 12 + 4 sqrt 6, just under 22
    lo, hi = K_of(QUAD_DEFAULT_HI)
    exact = Surd(12, 4, 6)
    assert exact.cmp(lo) >= 0
    assert exact.cmp(hi) <= 0
    assert hi < 22
    assert abs(float(lo) - 21.79795897113271) < 1e-9


def test_K_pinned_golden():
    # K((5 - sqrt 5)/2) = 10 + 4 sqrt 5
    lo, hi = K_of(GOLDEN_GAP)
    exact = Surd(10, 4, 5)
    assert exact.cmp(lo) >= 0
    assert exact.cmp(hi) <= 0
    assert abs(float(lo) - 18.94427190999916) < 1e-9


def test_K_matches_float_formula():
    for num, den in [(27, 20), (69, 50), (11, 8), (138, 100)]:
        d = Fraction(num, den)
        lo, _ = K_of(Surd(d))
        want = 1.0 / (0.25 - math.sqrt(9.0 / 16.0 - 1.0 / float(d) ** 2))
        assert abs(float(lo) - want) < 1e-9 * want


def test_K_domain_errors():
    for bad in [Surd(Fraction(4, 3)), Surd(Fraction(13, 10)),
                Surd(0, 1, 2), Surd(Fraction(3, 2))]:
        with pytest.raises(InvalidInputError):
            K_of(bad)


# ---------------------------------------------------------------------------
# the pair inequality, decided two independent ways

def mainineq_exact_quadratic(a, b):
    """Closed-form pair inequality for x^2 - ax + b.

    Clearing denominators in  1/d1^2 + 1/d2^2 <= 1/2 + 1/(2 d2)  gives
    b*d1 >= 2a^2 - 4b - b^2, decided exactly on the smaller root.
    """
    disc = a * a - 4 * b
    if disc <= 0:
        raise InvalidInputError("needs two distinct real roots")
    d1 = Surd(Fraction(a, 2), Fraction(-1, 2), disc)
    rhs = Fraction(2 * a * a - 4 * b - b * b, b)
    return d1.cmp(rhs) >= 0


def test_mainineq_encodings_agree_on_grid():
    checked = 0
    for a in range(1, 24):
        for b in range(1, a * a + 1):
            if a * a % b:
                continue
            disc = a * a - 4 * b
            if disc <= 0 or math.isqrt(disc) ** 2 == disc:
                continue
            p = (b, -a, 1)
            d1, d2 = isolate_real_roots(p)
            exact = mainineq_exact_quadratic(a, b)
            enclosed = mainineq_enclosure_pair(d1, d2)
            assert exact == enclosed, (a, b)
            checked += 1
    assert checked >= 50


def test_mainineq_enclosure_pair_refines_past_the_first_width():
    # d3 = 4: g = 1/d1^2 - 9/16 is rational for d1^2 rational.  At
    # d1^2 = 1.777, g ~ +2.46e-4 is certified only below width 2^-8; at
    # d1^2 = 2e-6 the first interval of d1 reaches 0, which the pair bounds
    # cannot take, so d1 is refined before any bound is formed
    d3 = isolate_real_roots((-4, 1))[0]
    for c in (Fraction(1777, 1000), Fraction(2, 10 ** 6)):
        d1 = isolate_real_roots((-c.numerator, 0, c.denominator))[-1]
        g = 1 / c + Fraction(1, 16) - Fraction(1, 8) - Fraction(1, 2)
        assert mainineq_enclosure_pair(d1, d3) == (g <= 0)


def test_quadratic_mainineq_filter_matches_closed_form():
    # the search decides the pair inequality as the orbit inequality at the
    # larger root; with every earlier filter dropped it must agree with the
    # closed form, fail without real roots and decide a double root
    cfg = SearchConfig(2, drop=("integer-prefilter", "irreducible",
                                "totally-positive", "root-window"))
    checked = 0
    for a in range(3, 24):
        for b in range(1, a * a + 1):
            status = dict(gapsearch._quad_candidate(cfg, a, b).trace)
            disc = a * a - 4 * b
            if disc < 0:
                assert status["mainineq"] == "fail", (a, b)
            elif disc == 0:
                d = Fraction(a, 2)
                holds = 2 / (d * d) <= Fraction(1, 2) + 1 / (2 * d)
                assert status["mainineq"] == ("pass" if holds else "fail")
            else:
                want = mainineq_exact_quadratic(a, b)
                assert status["mainineq"] == ("pass" if want else "fail")
                checked += 1
    assert checked >= 1000


@st.composite
def pair_boxes(draw):
    """Positive isolating intervals for d1 and d3, some of them around 4."""
    ends = st.fractions(min_value=Fraction(1, 10), max_value=30,
                        max_denominator=64)
    widths = st.fractions(min_value=0, max_value=3, max_denominator=64)
    l1, l3 = draw(ends), draw(ends)
    return (l1, l1 + draw(widths)), (l3, l3 + draw(widths))


def pair_g(d1, d3):
    return 1 / (d1 * d1) + 1 / (d3 * d3) - 1 / (2 * d3) - Fraction(1, 2)


@settings(max_examples=400, deadline=None)
@given(boxes=pair_boxes(),
       ts=st.lists(st.fractions(min_value=0, max_value=1,
                                max_denominator=50), min_size=2, max_size=2))
# d3's interval holds 4, where 1/d3^2 - 1/(2 d3) is least
@example(boxes=((Fraction(13, 10), Fraction(7, 5)),
                (Fraction(3), Fraction(5))),
         ts=[Fraction(1, 2), Fraction(1, 3)])
# d3's interval ends at 4, from either side
@example(boxes=((Fraction(1), Fraction(2)), (Fraction(7, 2), Fraction(4))),
         ts=[0, 1])
@example(boxes=((Fraction(1), Fraction(2)), (Fraction(4), Fraction(9, 2))),
         ts=[0, 1])
# point intervals
@example(boxes=((Fraction(4, 3), Fraction(4, 3)), (Fraction(4), Fraction(4))),
         ts=[0, 0])
def test_pair_bounds_are_exact_inside_the_interval_enclosure(boxes, ts):
    # the corner bounds lie inside the interval-arithmetic enclosure the
    # pair inequality was decided by, hold g at sample points of the box and
    # are attained at a corner or at d3 = 4
    (lo1, hi1), (lo3, hi3) = boxes
    lower, upper = _pair_bounds(*boxes)
    enc_lo, enc_hi = pair_enclosure(*boxes)
    assert enc_lo <= lower <= upper <= enc_hi
    xs1 = [lo1, hi1, lo1 + ts[0] * (hi1 - lo1)]
    xs3 = [lo3, hi3, lo3 + ts[1] * (hi3 - lo3)]
    if lo3 <= 4 <= hi3:
        xs3.append(Fraction(4))
    values = [pair_g(x1, x3) for x1 in xs1 for x3 in xs3]
    assert min(values) == lower and max(values) == upper


def test_mainineq_rejects_repeated_roots():
    with pytest.raises(InvalidInputError):
        mainineq_exact_quadratic(4, 4)


def test_orbit_inequality_matches_quadratic_form():
    for a, b in [(5, 5), (6, 4), (7, 7), (9, 27), (23, 23)]:
        disc = a * a - 4 * b
        if disc <= 0 or math.isqrt(disc) ** 2 == disc:
            continue
        p = (b, -a, 1)
        top = isolate_real_roots(p)[-1]
        assert orbit_inequality(inverse_square_sum(p), top)[0] == \
            mainineq_exact_quadratic(a, b)


def test_quadratic_prefilter_identity():
    # 16 - 12a + 9b = 9 * p(4/3) = product of (3 d_i - 4) over the roots
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randint(-30, 30)
        b = rng.randint(-30, 30)
        disc = a * a - 4 * b
        if disc <= 0:
            continue
        s = math.sqrt(disc)
        prod = (3 * (a - s) / 2 - 4) * (3 * (a + s) / 2 - 4)
        lhs = 16 - 12 * a + 9 * b
        if abs(prod) > 1e-6:
            assert (lhs > 0) == (prod > 0), (a, b)


# ---------------------------------------------------------------------------
# quadratic search

def test_quadratic_default_survivor():
    r = search_quadratic()
    assert [c.poly.coeffs for c in r.survivors] == [(5, -5, 1)]
    assert not r.exploratory
    assert r.warnings == ()
    c = r.survivors[0]
    assert abs(c.roots[0] - 1.381966011250105) < 1e-12
    assert abs(c.roots[1] - 3.618033988749895) < 1e-12
    assert all(status == "pass" for _, status in c.trace)
    assert r.config["d_lo"] == "-1/4 + 1*sqrt(41)/4"
    assert r.config["d_hi"] == "4*sqrt(3)/5"
    assert r.config["a_max"] == 23


def test_quadratic_default_agrees_with_float_sweep():
    # independent float model of the same filters
    lo = (math.sqrt(41) - 1) / 4
    hi = 4 * math.sqrt(3) / 5
    want = set()
    for a in range(1, 24):
        for b in range(1, a * a + 1):
            if a * a % b:
                continue
            disc = a * a - 4 * b
            if disc <= 0 or math.isqrt(disc) ** 2 == disc:
                continue
            d1 = (a - math.sqrt(disc)) / 2
            d2 = (a + math.sqrt(disc)) / 2
            if not (lo < d1 < hi and d1 > 0):
                continue
            if 1 / d1 ** 2 + 1 / d2 ** 2 > 0.5 + 1 / (2 * d2):
                continue
            want.add((b, -a, 1))
    got = {c.poly.coeffs for c in search_quadratic().survivors}
    assert got == want == {(5, -5, 1)}


def test_quadratic_moved_window_stays_certified():
    cfg = SearchConfig(2, d_lo=Surd(Fraction(27, 20)),
                       d_hi=Surd(Fraction(34, 25)))
    r = search_quadratic(cfg)
    assert r.survivors == ()
    assert not r.exploratory


def test_quadratic_empty_window_rejected():
    with pytest.raises(InvalidInputError, match="empty window"):
        SearchConfig(2, d_lo=Surd(Fraction(7, 5)),
                     d_hi=Surd(Fraction(34, 25)))


@pytest.mark.parametrize("build,message", [
    (lambda: SearchConfig(4), "degree must be 2 or 3"),
    (lambda: search_quadratic(SearchConfig(3)), "config degree must be 2"),
    (lambda: search_cubic(SearchConfig(2)), "config degree must be 3"),
    (lambda: SearchConfig(2, d_lo=1.2), "window endpoints must be exact; "
     "pass a string, Fraction, or Surd"),
], ids=["degree-4", "quadratic-of-cubic", "cubic-of-quadratic", "float-end"])
def test_search_config_errors(build, message):
    with pytest.raises(InvalidInputError) as info:
        build()
    assert str(info.value) == message


def test_factorize_splits_a_square_past_trial_division():
    # 100003 is prime and past the trial-division bound of 100000
    assert factorize(100003 ** 2) == {100003: 2}
    assert factorize(3 * 100003 ** 2) == {3: 1, 100003: 2}


def test_quadratic_dropped_window_is_exploratory():
    r = search_quadratic(SearchConfig(2, drop=("window",), audit=True))
    assert r.exploratory
    assert EXPLORATORY_MARK in r.warnings
    assert (5, -5, 1) in {c.poly.coeffs for c in r.survivors}
    assert r.rejected
    for c in r.rejected:
        assert c.first_fail() != "window"


def test_quadratic_truncated_amax_is_exploratory():
    r = search_quadratic(SearchConfig(2, a_max=5))
    assert r.exploratory
    assert EXPLORATORY_MARK in r.warnings


# ---------------------------------------------------------------------------
# cubic search

def test_cubic_default_is_empty(cubic_default_audit):
    r = cubic_default_audit
    assert r.survivors == ()
    assert not r.exploratory
    assert len(r.rejected) == 18393
    hist = Counter(c.first_fail() for c in r.rejected)
    assert dict(hist) == {"divisibility-a3": 18243,
                          "divisibility-b3": 149,
                          "totally-positive": 1}


def test_cubic_divisibility_traces_are_honest(cubic_default_audit):
    rng = random.Random(5)
    sample = rng.sample(list(cubic_default_audit.rejected), 300)
    for c in sample:
        c0, c1, c2, _ = c.poly.coeffs
        a, b, cc = -c2, c1, -c0
        tag = c.first_fail()
        if tag == "divisibility-a3":
            assert a ** 3 % cc != 0
        elif tag == "divisibility-b3":
            assert a ** 3 % cc == 0 and b ** 3 % (cc * cc) != 0


def test_cubic_truncated_amax_is_exploratory():
    r = search_cubic(SearchConfig(3, a_max=3))
    assert r.survivors == ()
    assert r.exploratory


def test_cubic_exploratory_window_finds_seven_family():
    cfg = SearchConfig(3, d_lo=Surd(Fraction(9, 5)), d_hi=Surd(Fraction(19, 10)),
                       drop=("window", "mainineq"), audit=True)
    r = search_cubic(cfg)
    polys = [c.poly.coeffs for c in r.survivors]
    assert polys == [(-49, 49, -14, 1), (-192, 144, -24, 1),
                     (-256, 192, -32, 1), (-216, 180, -36, 1),
                     (-486, 324, -36, 1), (-675, 450, -45, 1)]
    assert r.exploratory
    for c in r.survivors:
        assert dict(c.trace)["mainineq"] == "skip"


@st.composite
def cubic_candidate_cases(draw):
    """(a, b, c, drop): 1 <= a <= 45, b up to a^2/3, c a divisor of a^3 or
    any integer up to a^3, and any set of the cubic search's filters."""
    a = draw(st.integers(1, 45))
    b = draw(st.integers(1, max(1, a * a // 3)))
    c = draw(st.one_of(st.sampled_from(divisors(a ** 3)),
                       st.integers(1, a ** 3)))
    drop = draw(st.frozensets(st.sampled_from(
        gapsearch.DROPPABLE_FILTERS[3])))
    return a, b, c, drop


@settings(max_examples=300, deadline=None)
@given(case=cubic_candidate_cases())
@example(case=(7, 15, 10, frozenset()))                # a^3 % c != 0
@example(case=(7, 15, 10, frozenset({"divisibility-a3"})))
@example(case=(36, 360, 432, frozenset()))             # totally-positive
@example(case=(14, 53, 49, frozenset({"divisibility-b3"})))  # survivor
@example(case=(13, 40, 33, frozenset({"divisibility-a3", "divisibility-b3"})))
@example(case=(19, 65, 56, frozenset({"divisibility-a3", "divisibility-b3"})))
@example(case=(14, 49, 49, frozenset({"window", "root-window", "mainineq"})))
def test_cubic_candidate_without_audit_matches_audit(case):
    """A run without --audit decides every candidate as an audit does; only
    an a^3 % c failure that no dropped filter skips is the shared
    rejected candidate, and a survivor keeps its polynomial, trace and
    roots."""
    a, b, c, drop = case
    got = gapsearch._cubic_candidate(SearchConfig(3, drop=drop), a, b, c)
    want = gapsearch._cubic_candidate(SearchConfig(3, drop=drop, audit=True),
                                      a, b, c)
    assert (got.survivor, got.first_fail()) == (want.survivor,
                                                want.first_fail())
    shared = bool(a ** 3 % c) and "divisibility-a3" not in drop
    assert (got is gapsearch._A3_REJECTED) == shared
    if shared:
        assert repr(got) == "Candidate(None, fail@divisibility-a3)"
    else:
        assert (got.poly.coeffs, got.trace, got.roots) == \
            (want.poly.coeffs, want.trace, want.roots)


def test_cubic_search_without_audit_builds_no_polynomial_for_an_a3_failure(
        monkeypatch):
    # the default window has 18,393 candidates; 150 pass divisibility-a3
    built = []

    class CountedIntPoly(IntPoly):
        __slots__ = ()

        def __init__(self, coeffs):
            built.append(coeffs)
            super().__init__(coeffs)

    monkeypatch.setattr(gapsearch, "IntPoly", CountedIntPoly)
    r = search_cubic()
    assert (r.survivors, r.rejected) == ((), ())
    assert len(built) <= 150
    del built[:]
    assert len(search_cubic(SearchConfig(3, audit=True)).rejected) == 18393
    assert len(built) == 18393


@pytest.mark.parametrize("d_max", [QUAD_DEFAULT_HI, Surd(Fraction(277, 200))],
                         ids=["4sqrt(3)/5", "277/200"])
def test_gap_search_builds_an_intpoly_only_for_a_returned_candidate(
        d_max, monkeypatch):
    # a leaf is its coefficient tuple; of the 4,810 leaves only the one
    # survivor becomes a Candidate, the one IntPoly the search prints
    built = []

    class CountedIntPoly(IntPoly):
        __slots__ = ()

        def __init__(self, coeffs):
            built.append(tuple(coeffs))
            super().__init__(coeffs)

    monkeypatch.setattr(gapsearch, "IntPoly", CountedIntPoly)
    r = search_gap(d_max)
    assert built == [c.poly.coeffs for c in r.survivors] == [(5, -5, 1)]


# ---------------------------------------------------------------------------
# the appendix plans on integers against their Surd references

@st.composite
def window_cases(draw):
    """A window end, rational or p + q sqrt n with either sign of q, and
    1 <= a <= 200, 1 <= b <= max(1, a^2/3)."""
    p = Fraction(draw(st.integers(-300, 300)), draw(st.integers(1, 60)))
    n = draw(st.sampled_from([0, 2, 3, 5, 34, 41, 1155]))
    q = Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 60)))
    end = Surd(p, q if draw(st.booleans()) else -q, n)
    a = draw(st.integers(1, 200))
    return end, a, draw(st.integers(1, max(1, a * a // 3)))


@settings(max_examples=400, deadline=None)
@given(case=window_cases())
@example(case=(CUBIC_DEFAULT_LO, 45, 675))
@example(case=(QUAD_DEFAULT_HI, 45, 675))
@example(case=(QUAD_DEFAULT_LO, 3, 3))
@example(case=(Surd(Fraction(13, 10)), 2, 1))
def test_window_ceilings_match_surd_ceil(case):
    end, a, b = case
    assert gapsearch._quad_ceil(end, a) == \
        (end * Fraction(a) - end * end).ceil()
    row = gapsearch._cubic_ceils(end, a, b)
    assert len(row) == b
    for t in {1, (b + 1) // 2, b}:
        assert row[t - 1] == ((end - a) * end * end + end * t).ceil()


@pytest.mark.parametrize("kwargs", [
    {},
    {"d_lo": "1.2", "d_hi": "1.3"},
    {"d_lo": "1", "d_hi": "1.41", "drop": ("mainineq",)},
    {"a_max": 90},
    {"drop": ("window",), "a_max": 12},
], ids=["default", "1.2,1.3", "1,1.41-mainineq", "amax-90",
        "no-window-amax-12"])
def test_cubic_plan_matches_surd_reference(kwargs):
    cfg = SearchConfig(3, **kwargs)
    got = [(a, b, list(c)) for a, b, c in gapsearch._cubic_plan(cfg)]
    want = [(a, b, list(c)) for a, b, c in cubic_plan_reference(cfg)]
    assert got == want


@pytest.mark.parametrize("kwargs", [
    {},
    {"a_max": 300},
    {"d_lo": "1.2", "d_hi": "1.4", "a_max": 300},
    {"d_lo": "1", "d_hi": "1.41", "drop": ("mainineq",), "a_max": 120},
    {"drop": ("window",), "a_max": 60},
    # a window above the peak skips small a, and one past a/2 caps b at
    # (a^2 - 1)/4
    {"d_lo": "1.5", "d_hi": "2.5", "drop": ("mainineq",), "a_max": 40},
], ids=["default", "amax-300", "1.2,1.4", "1,1.41-mainineq",
        "no-window-amax-60", "1.5,2.5-mainineq-amax-40"])
def test_quadratic_plan_matches_surd_reference(kwargs):
    cfg = SearchConfig(2, **kwargs)
    assert gapsearch._quad_plan(cfg) == quad_plan_reference(cfg)


def test_power_divisors_match_trial_division():
    for a in range(1, 2001):
        fac = factorize(a)
        assert gapsearch._power_divisors(fac, 1) == divisors(a)
        assert gapsearch._power_divisors(fac, 2) == divisors(a * a)
        if a <= 200:
            assert gapsearch._power_divisors(fac, 3) == divisors(a ** 3)


def test_quadratic_budget_counts_divisors_of_a_squared():
    # 1 + tau(a^2) steps per a: 844,160 at --amax 20000, within the budget
    plan = gapsearch._quad_plan(SearchConfig(2, a_max=20000))
    assert [a for a, _ in plan] == list(range(3, 20001))


def test_quadratic_budget_stops_before_listing_the_divisors(monkeypatch):
    # the count 1 + tau(a^2) comes from the factorization of a, so a run
    # that crosses the budget (at a = 41,952) lists no divisors at all
    listed = []

    def power_divisors(*args):
        listed.append(args)
        return []

    monkeypatch.setattr(gapsearch, "_power_divisors", power_divisors)
    with pytest.raises(BudgetError, match="more than 2000000 enumeration"):
        gapsearch._quad_plan(SearchConfig(2, a_max=100000))
    assert listed == []


# ---------------------------------------------------------------------------
# combined gap search

def test_gap_cut_points_settle_on_the_thousandths_grid():
    # search_gap reaches the cut points only for 4/3 < d_max <
    # threshold("gdim_k", 25); both ends, a grid between them and every
    # degree bound d_max may equal get a band on the grid 1/1000
    lo = FOUR_THIRDS + Fraction(1, 10 ** 9)
    hi = threshold("gdim_k", 25).approx(Fraction(1, 10 ** 12))[0]
    grid = [lo + (hi - lo) * Fraction(i, 200) for i in range(201)]
    bounds = [threshold("gdim_k", k) for k in range(3, 25)]
    for d_max in [Surd(x) for x in grid] + bounds + [QUAD_DEFAULT_HI]:
        gamma, delta = gapsearch._gap_cut_points(d_max)
        assert 1000 % gamma.denominator == 0
        assert 1000 % delta.denominator == 0
        assert d_max.cmp(gamma) < 0 and gamma < delta


def test_gap_default_certifies_unique_survivor(gap_default_audit):
    r = gap_default_audit
    assert [c.poly.coeffs for c in r.survivors] == [(5, -5, 1)]
    assert not r.exploratory
    assert r.config == {"d_max": "4*sqrt(3)/5", "k_max": 4, "f_max": "24",
                        "band": ["349/250", "213/125"]}
    assert len(r.warnings) == 2
    assert any("cost warning" in w for w in r.warnings)
    assert any("degree 4 skipped" in w for w in r.warnings)


def test_gap_default_audit_histogram(gap_default_audit):
    r = gap_default_audit
    assert len(r.rejected) == 4809
    hist = Counter(c.first_fail() for c in r.rejected)
    assert dict(hist) == {"d-number": 2623, "root-window": 1991,
                          "orbit-inequality": 1, "irreducible": 138,
                          "roots-real-ge-1": 56}


@pytest.mark.parametrize("audit, d_max", [
    ("gap_default_audit", QUAD_DEFAULT_HI),
    ("gap_rational_audit", Surd(Fraction(277, 200))),
], ids=["4sqrt(3)/5", "277/200"])
def test_gap_bracket_verdicts_match_isolation(audit, d_max, request):
    # every leaf that reaches the root window: the Sturm counts against the
    # rational bracket of d_max give the verdict that isolating the
    # smallest root and comparing it exactly with d_max gives
    r = request.getfixturevalue(audit)
    seen = Counter()
    for cand in r.survivors + r.rejected:
        got = dict(cand.trace).get("root-window")
        if got is None:
            continue
        d1 = isolate_real_roots(cand.poly.coeffs)[0]
        inwin = d1.cmp(FOUR_THIRDS) > 0 and d1.cmp(d_max) <= 0
        assert got == ("pass" if inwin else "fail"), cand
        seen[got] += 1
    assert seen["pass"] > 0 and seen["fail"] > 1000


# Exit code and stdout sha256 of searches whose bytes depend on every
# coefficient range of the walk (the audit lists each rejected leaf) and on
# the exact ceil of an irrational window endpoint, captured before the
# integer surd core replaced the Fraction one.
PINNED = {
    ("search", "gap", "--dmax", "4sqrt(3)/5", "--audit"): (0,
        "33d5ecdf12841585b024abfe6d864f031657ac64ab5ceb8a78d2e5ce9499e84e"),
    ("search", "gap", "--dmax", "277/200", "--audit"): (0,
        "7d0284d9a582f520cff3e848de23555aca763f2dfdaa5c11d5e49e3e55267110"),
    ("search", "cubic", "--drop-filter", "mainineq",
     "--window", "1.3,sqrt(3)"): (0,
        "e18016b3ccb4e361f2ee2407f829a69bcba2692f164e8157d2a592908bb61920"),
    # the appendix filters without the window: integer-prefilter and
    # totally-positive failures, and root-window on candidates with no
    # real root once totally-positive is dropped; captured before the
    # window ends and the prefilter went through the kernels
    ("search", "quadratic", "--drop-filter", "window", "--amax", "30",
     "--audit"): (0,
        "0d7a403ac63adbe60718985be91a6827c4beac359ef632b877217d959741256e"),
    ("search", "quadratic", "--drop-filter", "window", "--drop-filter",
     "totally-positive", "--amax", "30", "--audit"): (0,
        "ea85e32b8151630ec731ad756204fe63e5f225ad13724a0d904955a2d597af03"),
    ("search", "cubic", "--drop-filter", "window", "--amax", "12",
     "--audit"): (0,
        "792edb4b6d6b98faac7dbc020c4d2ba6eede5a5eb7ca3c45e60a2cf5f1f2c5e3"),
    ("search", "cubic", "--drop-filter", "window", "--drop-filter",
     "totally-positive", "--amax", "9", "--audit"): (0,
        "8b46ff913cc7c015e3f44ce98024e58111cc9d9330493bc6d78c3b1b77590a09"),
}


@pytest.mark.parametrize("argv", sorted(PINNED), ids=" ".join)
def test_search_bytes_pinned(argv, run_cli_once):
    rc, out, _ = run_cli_once(*argv)
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == PINNED[argv]


def test_gap_includes_quadratic_survivors(gap_default_audit):
    quad = {c.poly.coeffs for c in search_quadratic().survivors}
    gap = {c.poly.coeffs for c in gap_default_audit.survivors}
    assert quad <= gap


def test_gap_at_golden_bound_is_inclusive():
    r = search_gap(GOLDEN_GAP)
    assert [c.poly.coeffs for c in r.survivors] == [(5, -5, 1)]


def test_gap_below_golden_is_empty():
    r = search_gap(Surd(Fraction(67, 50)))
    assert r.survivors == ()
    assert r.config["d_max"] == "67/50"
    assert r.config["k_max"] == 2
    assert r.config["f_max"] == "4489/511"


def test_gap_preconditions():
    for bad in [Surd(Fraction(4, 3)), Surd(Fraction(13, 10)), Surd(0, 1, 2)]:
        with pytest.raises(InvalidInputError):
            search_gap(bad)


def test_gap_kmax_tracks_thresholds():
    # stay at or below 4 sqrt 3 / 5: past it the degree-4 shell opens up
    from fgap.obstruct import threshold
    for num, den in [(27, 20), (137, 100), (138, 100)]:
        d = Surd(Fraction(num, den))
        k_max = search_gap(d).config["k_max"]
        assert threshold("gdim_k", k_max).cmp(d) <= 0
        assert threshold("gdim_k", k_max + 1).cmp(d) > 0


def test_gap_fmax_formula():
    # f_max = d^2 / (2 - d^2) for rational d_max
    for num, den in [(27, 20), (67, 50), (11, 8)]:
        d = Fraction(num, den)
        got = Fraction(search_gap(Surd(d)).config["f_max"])
        assert got == d * d / (2 - d * d)


# ---------------------------------------------------------------------------
# the coefficient walk against its Fraction reference

def _frac_eval(asc, x):
    x = Fraction(x)
    acc = Fraction(asc[-1])
    for c in reversed(asc[:-1]):
        acc = acc * x + c
    return acc


def _surd_eval(asc, s):
    acc = Surd(asc[-1])
    for c in reversed(asc[:-1]):
        acc = acc * s + c
    return acc


def reference_coeff_range(prefix, k, box_lo, f_hi, cuts, final,
                          look_ahead=True, rolle=True):
    """The coefficient range computed on Fractions and Surds, as the walk
    did before it moved to integer evaluation: every value is exact and
    rounded by Fraction/Surd ceil and floor.  The linear bounds (box ends,
    cut points, look-ahead) apply before the critical points, as the walk
    folds them, so an empty range reads as the walk's too.  Without the
    look-ahead it is the range before the walk dropped children that are
    empty at their fixed points, the oracle for that drop.  From depth 3
    on, a node whose derivative lacks j distinct real roots (by a Sturm
    count) gets an empty range; without the Rolle prune it only skips its
    critical points, as the walk did beside its box test."""
    j = len(prefix) - 1
    gamma, delta = cuts
    w_asc = _deriv_prefix(prefix + [0], k)
    bcoef = 1
    for v in range(1, k - j):
        bcoef *= v
    m = j + 1
    e_min = (box_lo * math.comb(k - 1, m - 1) * delta ** (m - 1)
             + math.comb(k - 1, m) * delta ** m)
    e_max = (gamma * math.comb(k - 1, m - 1) * f_hi ** (m - 1)
             + math.comb(k - 1, m) * f_hi ** m)
    if m % 2:
        lo, hi = (-e_max).__ceil__(), (-e_min).__floor__()
    else:
        lo, hi = e_min.__ceil__(), e_max.__floor__()

    def add(sigma, value, strict=False):
        nonlocal lo, hi
        bound = -value / bcoef
        if isinstance(bound, Surd):
            b = bound.ceil() if sigma > 0 else bound.floor()
        else:
            b = bound.__ceil__() if sigma > 0 else bound.__floor__()
            if strict and bound == b:
                b += sigma
        if sigma > 0:
            lo = max(lo, b)
        else:
            hi = min(hi, b)

    sig_lo = -1 if (j + 1) % 2 else 1
    add(sig_lo, _frac_eval(w_asc, box_lo))
    add(1, _frac_eval(w_asc, f_hi))
    if final:
        sig_cut = 1 if (k - 1) % 2 == 0 else -1
        add(sig_cut, _frac_eval(w_asc, gamma), strict=True)
        add(sig_cut, _frac_eval(w_asc, delta), strict=True)
    if look_ahead and j + 1 < k:
        for kind, bound in reference_look_ahead(prefix, k, box_lo, f_hi,
                                                cuts):
            if kind == "lo":
                lo = max(lo, bound)
            else:
                hi = min(hi, bound)
    if j == 1 and lo <= hi:
        q1 = _deriv_prefix(prefix, k)
        add(-1, _frac_eval(w_asc, Fraction(-q1[0], q1[1])))
    elif j == 2 and lo <= hi:
        q2 = _deriv_prefix(prefix, k)
        disc = q2[1] * q2[1] - 4 * q2[2] * q2[0]
        if disc > 0:
            r1 = Surd(Fraction(-q2[1], 2 * q2[2]),
                      Fraction(-1, 2 * q2[2]), disc)
            r2 = -r1 + Fraction(-q2[1], q2[2])
            add(1, _surd_eval(w_asc, r1))
            add(-1, _surd_eval(w_asc, r2))
    elif j >= 3 and lo <= hi:
        q3 = _deriv_prefix(prefix, k)
        # the critical points count only when all j are real and simple
        if real_root_count(q3) == j:
            for t, x in enumerate(isolate_real_roots(q3), start=1):
                sigma = 1 if (j + 1 - t) % 2 == 0 else -1
                enc = iv_horner(w_asc, interval(x))
                add(sigma, enc[1] if sigma > 0 else enc[0])
        elif rolle:
            return 1, 0
    return lo, hi


def reference_look_ahead(prefix, k, box_lo, f_hi, cuts):
    """The look-ahead bounds of a node at depth j < k - 1 on Fractions, one
    per pair of a lower-type and an upper-type point that bounds s: ("lo",
    ceil) or ("hi", floor).

    The child's bound at a fixed point x is -(w0(x) + bcoef*s*x)/its own
    bcoef, lower- or upper-type as the child types x; a child with a
    nonempty range has no lower bound above an upper one."""
    j = len(prefix) - 1
    bcoef = math.factorial(k - j - 1)
    w0 = _deriv_prefix(prefix + [0, 0], k)
    lows, ups = [f_hi], []
    (ups if j % 2 else lows).append(box_lo)
    if j + 2 == k:
        (lows if j % 2 else ups).extend(cuts)
    out = []
    for x_l in lows:
        for x_u in ups:
            a = bcoef * (Fraction(x_l) - x_u)
            b = _frac_eval(w0, x_u) - _frac_eval(w0, x_l)
            if a > 0:
                out.append(("lo", (b / a).__ceil__()))
            elif a < 0:
                out.append(("hi", (b / a).__floor__()))
    return out


def _coeff_range(prefix, k, box_lo, f_hi, cuts, final):
    """The integer walk's range for the same arguments as the reference.  A
    plan has cut bounds at the final depth only, so final must be
    len(prefix) == k."""
    assert final == (len(prefix) == k)
    plan = _DepthPlan(k, len(prefix) - 1, box_lo, f_hi, cuts)
    return one_child(prefix, plan)


def one_child(prefix, plan):
    """The walk's range below the node prefix: the row of its parent with
    the node's last coefficient alone."""
    s = prefix[-1]
    return next(_child_ranges(prefix[:-1], range(s, s + 1), plan))


def per_node(fn):
    """A row for the walk from fn(prefix, plan), the range of one node."""
    return lambda prefix, coeffs, plan: (fn(prefix + [s], plan)
                                         for s in coeffs)


def reference_at(prefix, plan, **kwargs):
    """reference_coeff_range at a walk node, with the box, the cut points
    and the final depth read from its plan."""
    return reference_coeff_range(prefix, plan.k, plan.box_lo, plan.f_hi,
                                 plan.cuts, len(prefix) == plan.k, **kwargs)


@st.composite
def plan_cases(draw):
    """A degree k = 2..6 with its fixed points and one random integer prefix
    per depth j = 0..k-1: box_lo mostly with a denominator above 1, at most
    0 as often as not, and cut points anywhere."""
    k = draw(st.integers(2, 6))
    box_lo = draw(st.one_of(
        st.builds(Fraction, st.integers(-40, 40), st.integers(2, 12)),
        st.fractions(min_value=-3, max_value=3, max_denominator=12)))
    cut = st.fractions(min_value=-3, max_value=30, max_denominator=12)
    cuts = (draw(cut), draw(cut))
    prefixes = [[draw(st.sampled_from([1, 2, -1, -3]))]
                + draw(st.lists(st.integers(-60, 60), min_size=j,
                                max_size=j))
                for j in range(k)]
    return k, box_lo, draw(st.integers(-10, 30)), cuts, prefixes


@settings(max_examples=300, deadline=None)
@given(case=plan_cases())
# the degree-4 box (4/3, 29] with cut points 7/5 and 2, along
# x^4 - 20x^3 + 132x^2 - 320x
@example(case=(4, FOUR_THIRDS, 29, (Fraction(7, 5), Fraction(2)),
               [[1], [1, -20], [1, -20, 132], [1, -20, 132, -320]]))
# box_lo < 0 with a denominator above 1 at degree 6, every depth
@example(case=(6, Fraction(-7, 3), 5, (Fraction(-1, 2), Fraction(9, 4)),
               [[2], [-1, 5], [1, 0, -3], [3, 1, -4, 2], [1, -9, 30, -44, 24],
                [-2, 7, 0, 1, -5, 8]]))
# a cut point equal to box_lo = 0: that pair has a = 0 and the plan keeps
# no weights for it
@example(case=(3, Fraction(0), 4, (Fraction(0), Fraction(1, 2)),
               [[1], [1, -3], [1, -3, 2]]))
def test_depth_plan_matches_derivative_prefixes(case):
    # each fixed-point constraint's N is sigma times the homogeneous value
    # of w = P^(k-j-1) of prefix + [0] at its point, and the look-ahead
    # pairs give the Fraction reference's bounds, at every depth of degrees
    # 2..6; only the final depth has the strict cut points, offset -1
    k, box_lo, f_hi, cuts, prefixes = case
    for j, prefix in enumerate(prefixes):
        plan = _DepthPlan(k, j, box_lo, f_hi, cuts)
        deg = j + 1
        assert (plan.k, plan.j, plan.box_lo, plan.f_hi, plan.cuts) == (
            k, j, box_lo, f_hi, cuts)
        assert plan.bcoef == math.factorial(k - deg)
        assert (list(map(mul, prefix, plan.deriv_mul))[::-1]
                == _deriv_prefix(prefix, k))
        w = _deriv_prefix(prefix + [0], k)
        assert [0, *list(map(mul, prefix, plan.w_mul))[::-1]] == w
        # sigma = -1 at box_lo for odd deg and at the cut points for odd
        # k - 1
        points = [(box_lo, (-1) ** deg), (f_hi, 1)]
        if deg == k:
            points += [(x, (-1) ** (k - 1)) for x in cuts]
        fixed, pairs = plan.bounds[:len(points)], plan.bounds[len(points):]
        assert all(m for _, m, _ in plan.bounds)
        assert [offset for _, _, offset in plan.bounds] == (
            [0, 0] + [-1] * (len(points) - 2) + [0] * len(pairs))
        for (x, sigma), (weights, m, _) in zip(points, fixed):
            p, q = Fraction(x).numerator, Fraction(x).denominator
            assert (sum(map(mul, prefix, weights))
                    == sigma * kernels.eval_qnum(w, p, q)), (j, x)
            assert m == sigma * q ** deg * math.factorial(k - deg)
        got = []
        for weights, m, offset in pairs:
            num = sum(map(mul, prefix, weights)) + offset
            got.append(("lo", -(num // m)) if m > 0 else ("hi", num // -m))
        want = (reference_look_ahead(prefix, k, box_lo, f_hi, cuts)
                if deg < k else [])
        assert sorted(got) == sorted(want), j


@st.composite
def row_cases(draw):
    """A degree k = 2..6 with its fixed points, a depth j = 0..k-1 and a row
    at it: a prefix of length j and 0..6 consecutive child coefficients
    from s0, which may cross 0."""
    k, box_lo, f_hi, cuts, _ = draw(plan_cases())
    j = draw(st.integers(0, k - 1))
    prefix = [] if j == 0 else (
        [draw(st.sampled_from([1, 2, -1, -3]))]
        + draw(st.lists(st.integers(-60, 60), min_size=j - 1,
                        max_size=j - 1)))
    return (k, box_lo, f_hi, cuts, prefix, draw(st.integers(-60, 60)),
            draw(st.integers(0, 6)))


@settings(max_examples=400, deadline=None)
@given(case=row_cases())
# the degree-2 box (4/3, 29] with cut points 7/5 and 2: the fifth child,
# x^2 - 5x, ties at a cut point and its strict bound sets the range
@example(case=(2, FOUR_THIRDS, 29, (Fraction(7, 5), Fraction(2)), [1], -9,
               6))
# depth 2 of degree 3: D > 0 for s = 10, 11 and D <= 0 from s = 12 on, where
# the closed form gives no bound
@example(case=(3, FOUR_THIRDS, 29, (Fraction(7, 5), Fraction(2)), [1, 6], 9,
               5))
# depth 2 of degree 6: D is a square at s = 0, and its critical value sets
# the range
@example(case=(6, FOUR_THIRDS, 29, (Fraction(7, 5), Fraction(2)), [1, 40],
               -1, 5))
# depth 4 of degree 5: s = 24 has a nonempty range, and s = 25..27 lack
# four distinct real critical points (Rolle)
@example(case=(5, Fraction(-34, 5), 29, (Fraction(115, 2), Fraction(80)),
               [1, -20, -47, -16], 24, 4))
# rows whose first children are empty before the cut points (degree 3,
# s = 60..62) or the critical points (depth 2, s = 28 and 29), each guard
# skips their bound, and later children are nonempty: a bound skipped by
# its guard must still step
@example(case=(3, FOUR_THIRDS, 29, (Fraction(7, 5), Fraction(2)), [-1, 27],
               60, 6))
@example(case=(3, FOUR_THIRDS, 29, (Fraction(7, 5), Fraction(2)), [1, -11],
               28, 6))
# the root's row, and a row of no children
@example(case=(4, FOUR_THIRDS, 29, (Fraction(7, 5), Fraction(2)), [], 1, 1))
@example(case=(3, FOUR_THIRDS, 29, (Fraction(7, 5), Fraction(2)), [1, -6],
               4, 0))
def test_child_ranges_match_the_per_node_oracle(case):
    # the row steps each affine bound from sibling to sibling; each range
    # it yields is the one node_range takes from dot products over the
    # whole child prefix
    k, box_lo, f_hi, cuts, prefix, s0, n = case
    plan = _DepthPlan(k, len(prefix), box_lo, f_hi, cuts)
    coeffs = range(s0, s0 + n)
    assert list(_child_ranges(prefix, coeffs, plan)) == [
        node_range(prefix + [s], plan) for s in coeffs]


# interior nodes of each walk: one range apiece, yielded by its parent's
# row
WALK_NODES = [(QUAD_DEFAULT_HI, 4056), (Surd(Fraction(277, 200)), 4056),
              (Surd(Fraction(138, 100)), 2277)]


@pytest.mark.parametrize("d_max, nodes", WALK_NODES,
                         ids=["4sqrt(3)/5", "277/200", "1.38"])
def test_walk_ranges_match_fraction_reference(d_max, nodes, monkeypatch):
    calls = []

    def checked(prefix, coeffs, plan):
        assert plan.j == len(prefix)
        for s, got in zip(coeffs, _child_ranges(prefix, coeffs, plan)):
            assert got == reference_at(prefix + [s], plan), prefix + [s]
            calls.append(got)
            yield got

    monkeypatch.setattr(gapsearch, "_child_ranges", checked)
    search_gap(d_max)
    assert len(calls) == nodes


def test_depth_3_node_makes_one_realness_test_and_no_squarefree_part(
        monkeypatch):
    # the degree-4 walk, steered down x^4 - 20x^3 + 132x^2 - 320x + s, whose
    # first derivative 4(x - 2)(x - 5)(x - 8) has simple roots, and down
    # x^4 - 16x^3 + 90x^2 - 216x + s, whose first derivative
    # 4(x - 3)^2 (x - 6) has a double root, both inside the box (4/3, 29]:
    # each depth-3 node makes one realness test and builds no squarefree
    # part, and the second gets an empty range (Rolle: no quartic below it
    # has four simple real roots), where its fixed points alone leave
    # s = 163..165
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for owner in (gapsearch, algnum):
        monkeypatch.setattr(owner, "poly_squarefree_part",
                            counted("sqf", owner.poly_squarefree_part))
    monkeypatch.setattr(kernels, "real_rooted",
                        counted("real_rooted", kernels.real_rooted))
    d_max = Surd(Fraction(277, 200))
    cuts = gapsearch._gap_cut_points(d_max)
    for path, nonempty in (([-20, 132, -320], True),
                           ([-16, 90, -216], False)):
        ranges = []

        def steered(prefix, plan):
            j = len(prefix) - 1
            if j < 3:
                return path[j], path[j]
            ranges.append(one_child(prefix, plan))
            return 1, 0  # no leaf

        monkeypatch.setattr(gapsearch, "_child_ranges", per_node(steered))
        counts.clear()
        gapsearch._gap_degree(4, d_max, FOUR_THIRDS, 29, cuts,
                              (d_max.p, d_max.p), False, 0)
        assert len(ranges) == 1
        assert (ranges[0][0] <= ranges[0][1]) == nonempty, path
        assert counts == {"real_rooted": 1}


class _SliceDone(Exception):
    pass


def test_degree_4_walk_slice_matches_references(monkeypatch):
    # search_gap(1.39) up to its 10th degree-4 depth-3 node: every degree-4
    # coefficient range and quartic leaf against its Sturm or Fraction
    # reference
    real_degree = gapsearch._gap_degree
    real_leaf = gapsearch._gap_leaf
    degree = []
    counts = Counter()

    def walk(k, *rest):
        degree.append(k)
        return real_degree(k, *rest)

    def coeff_range(prefix, coeffs, plan):
        for s, got in zip(coeffs, _child_ranges(prefix, coeffs, plan)):
            node = prefix + [s]
            if plan.k == 4 and len(node) == 4:
                if counts["depth 3"] == 10:
                    raise _SliceDone
                counts["depth 3"] += 1
            if plan.k == 4:
                assert got == reference_at(node, plan), node
                counts["range"] += 1
            yield got

    def leaf(poly, d_max, bracket, keep_all):
        got = real_leaf(poly, d_max, bracket, True)
        if len(poly) == 5:
            want = gap_leaf_reference(poly, d_max, bracket, True)
            assert (got.trace, got.roots) == (want.trace, want.roots), poly
            counts["leaf", got.first_fail()] += 1
        return got if got.survivor or keep_all else None

    monkeypatch.setattr(gapsearch, "_gap_degree", walk)
    monkeypatch.setattr(gapsearch, "_child_ranges", coeff_range)
    monkeypatch.setattr(gapsearch, "_gap_leaf", leaf)
    with pytest.raises(_SliceDone):
        search_gap(Surd(Fraction(139, 100)))
    assert degree == [2, 3, 4]
    # every quartic leaf of the slice fails one of its first two filters
    assert counts == {"depth 3": 10, "range": 23,
                      ("leaf", "irreducible"): 2,
                      ("leaf", "roots-real-ge-1"): 1764}


def test_rows_compute_no_range_past_the_step_budget(monkeypatch):
    # search_gap(1.39) over a 60,000-step budget stops in degree 4 in the
    # middle of a row: the rows yield, and the walk's Rolle tests run, as
    # often as on the per-node oracle walk, which computes each range only
    # when the walk visits its node.  An eager row would also test the
    # siblings past the budget (340 Rolle tests, not 252)
    monkeypatch.setattr(gapsearch, "SEARCH_BUDGET", 60000)
    real_row, real_rooted = gapsearch._child_ranges, kernels.real_rooted
    runs = []
    for row in (real_row, per_node(node_range)):
        counts = Counter()

        def counted(prefix, coeffs, plan):
            for got in row(prefix, coeffs, plan):
                counts["ranges"] += 1
                yield got

        def rooted(asc):
            counts["real_rooted"] += 1
            return real_rooted(asc)

        monkeypatch.setattr(gapsearch, "_child_ranges", counted)
        monkeypatch.setattr(kernels, "real_rooted", rooted)
        with pytest.raises(BudgetError) as err:
            search_gap(Surd(Fraction(139, 100)))
        runs.append((counts, str(err.value)))
    assert runs[0] == runs[1]
    assert runs[0][0] == {"ranges": 7582, "real_rooted": 252}
    assert runs[0][1].startswith("budget exhausted at degree 4:")


def test_gap_leaf_keeps_four_positional_parameters():
    # the benchmark's tracer wraps _gap_leaf in an adapter with exactly the
    # parameters (poly, d_max, bracket, keep_all); a call with any other
    # number of arguments fails once the tracer is installed
    params = inspect.signature(gapsearch._gap_leaf).parameters.values()
    assert [(p.kind, p.default) for p in params] == [
        (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty)
    ] * 4


# ---------------------------------------------------------------------------
# the leaf battery against its Sturm-chain reference

def irreducible_reference(asc):
    """The degree <= 3 irreducibility test over a sorted divisor list and
    Horner evaluation (the form before the inline Horner pairs)."""
    k = len(asc) - 1
    if k == 1:
        return True
    if k == 2:
        disc = asc[1] * asc[1] - 4 * asc[0]
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    if k == 3:
        if asc[0] == 0:
            return False
        return all(poly_value(asc, t) != 0 and poly_value(asc, -t) != 0
                   for t in divisors(abs(asc[0])))
    factors = factor_over_integers(asc)
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0] == asc


def gap_leaf_reference(poly, d_max, bracket, keep_all):
    """The leaf battery on Sturm counts alone: one chain per irreducible
    leaf, read at -inf, +inf, 1, 4/3, r_lo and r_hi, at d_max and at the
    orbit inequality's bound, and isolation and bisection on that chain for
    the roots' floats (the form before the closed-form realness, the
    Taylor-shift sign tests and Descartes isolation).  poly is an ascending
    tuple."""
    trace = []
    roots = None
    k = len(poly) - 1
    asc = list(poly)
    ok = irreducible_reference(poly)
    trace.append(("irreducible", "pass" if ok else "fail"))
    if ok:
        chain = sturm_chain(asc)
        v_minus = varcount_inf(chain, False)
        total = v_minus - varcount_inf(chain, True)
        n_le_1 = v_minus - varcount_at(chain, 1, 1)
        ok = total == k and n_le_1 == (poly_value(poly, 1) == 0)
        trace.append(("roots-real-ge-1", "pass" if ok else "fail"))
    if ok:
        r_lo, r_hi = bracket
        v43 = varcount_at(chain, 4, 3)
        if v_minus - v43 != 0:
            ok = False
        elif v43 - varcount_at(chain, r_lo.numerator,
                               r_lo.denominator) >= 1:
            ok = True
        elif r_lo == r_hi or v43 == varcount_at(chain, r_hi.numerator,
                                                r_hi.denominator):
            ok = False
        else:
            # the smallest root is at most d_max iff a root lies in
            # (-inf, d_max]
            ok = v_minus - varcount_at_surd(chain, d_max.a, d_max.b,
                                            d_max.n, d_max.d) >= 1
        trace.append(("root-window", "pass" if ok else "fail"))
    if ok:
        ok = is_d_number(poly)
        trace.append(("d-number", "pass" if ok else "fail"))
    if ok:
        ok = (-1 if k % 2 else 1) * kernels.eval_qnum(asc, 4, 3) >= 1
        trace.append(("integer-prefilter", "pass" if ok else "fail"))
    if ok:
        # lhs <= (1 + 1/f)/2 at the largest root f: 2 lhs - 1 <= 0, or no
        # root above 1/(2 lhs - 1)
        t = 2 * inverse_square_sum(asc) - 1
        good = t <= 0 or varcount_at(chain, t.denominator, t.numerator) == \
            varcount_inf(chain, True)
        trace.append(("orbit-inequality", "pass" if good else "fail"))
        eps = Fraction(1, 10 ** 18)
        roots = tuple(float(mid(sturm_refine(chain, iv, eps)))
                      for iv in isolate_sturm(asc, chain)[0])
    cand = Candidate(IntPoly(poly), trace, roots)
    return cand if cand.survivor or keep_all else None


@pytest.mark.parametrize("d_max, leaves", [
    (Surd(Fraction(277, 200)), 4810),
    (QUAD_DEFAULT_HI, 4810),
    (Surd(Fraction(138, 100)), 1463),
], ids=["277/200", "4sqrt(3)/5", "1.38"])
def test_walk_leaves_match_chain_reference(d_max, leaves, monkeypatch):
    real_leaf = gapsearch._gap_leaf
    calls = []

    def checked(poly, d_max, bracket, keep_all):
        got = real_leaf(poly, d_max, bracket, True)
        want = gap_leaf_reference(poly, d_max, bracket, True)
        assert (got.trace, got.roots) == (want.trace, want.roots), poly
        calls.append(poly)
        return got if got.survivor or keep_all else None

    monkeypatch.setattr(gapsearch, "_gap_leaf", checked)
    search_gap(d_max)
    assert len(calls) == leaves


def test_rational_gap_search_builds_no_chain(monkeypatch):
    # at 277/200 the bracket is the point d_max, so no root window needs
    # isolation: only the leaves that reach the orbit inequality isolate
    # their roots, by Descartes bisection.  The walk isolates each depth-1
    # node's linear critical point too, as an exact point without any
    # bisection, so isolations are counted inside the leaf and bisection
    # steps outside it
    counts = Counter()
    real_isolate = gapsearch.isolate_real_roots
    real_bound = kernels.descartes_bound
    real_leaf = gapsearch._gap_leaf
    reached = []
    in_leaf = []

    def isolate(*args):
        counts["leaf isolate" if in_leaf else "walk isolate"] += 1
        return real_isolate(*args)

    def bound(*args):
        counts["leaf bound" if in_leaf else "walk bound"] += 1
        return real_bound(*args)

    def leaf(poly, d_max, bracket, keep_all):
        in_leaf.append(poly)
        try:
            cand = real_leaf(poly, d_max, bracket, True)
        finally:
            in_leaf.pop()
        if "orbit-inequality" in dict(cand.trace):
            reached.append(cand)
        return cand if cand.survivor or keep_all else None

    monkeypatch.setattr(gapsearch, "isolate_real_roots", isolate)
    monkeypatch.setattr(kernels, "descartes_bound", bound)
    monkeypatch.setattr(gapsearch, "_gap_leaf", leaf)
    search_gap(Surd(Fraction(277, 200)))
    assert counts["leaf isolate"] == len(reached) == 2
    assert counts["walk isolate"] > 0 and counts["walk bound"] == 0


# irrational windows for the leaf; a coarse bracket around one sends leaves
# whose smallest root lies near it through isolation
LEAF_SURDS = (QUAD_DEFAULT_HI, QUAD_DEFAULT_LO, CUBIC_DEFAULT_LO, GOLDEN_GAP)


@st.composite
def leaf_cases(draw):
    """A monic polynomial of degree 1-4 and a window: a rational point
    bracket, or a surd d_max inside a rational bracket r_lo < r_hi."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        asc = draw(st.lists(st.integers(-40, 40), min_size=k, max_size=k))
        asc = asc + [1]
    else:
        # near a product of linear factors: often real-rooted, irreducible
        asc = [1]
        for _ in range(k):
            root = draw(st.integers(1, 12))
            asc = kernels.poly_mul(asc, [-root, 1])
        asc[0] += draw(st.integers(-4, 4))
        asc[1 % k] += draw(st.integers(-4, 4))
    return (tuple(asc),) + _draw_window(draw)


def _draw_window(draw):
    """(d_max, bracket): a rational point bracket, or a surd d_max inside a
    rational bracket r_lo < r_hi."""
    if draw(st.booleans()):
        d = Fraction(draw(st.integers(1334, 1414)), 1000)
        return Surd(d), (d, d)
    d_max = draw(st.sampled_from(LEAF_SURDS))
    return d_max, d_max.approx(Fraction(1, draw(st.sampled_from(
        [10, 100, 10 ** 4, 10 ** 20]))))


def _leaf(asc, d_max, width):
    return tuple(asc), d_max, d_max.approx(width)


@settings(max_examples=400, deadline=None)
@given(case=leaf_cases())
# x - 1: its root sits on the weak bound 1
@example(case=_leaf([-1, 1], QUAD_DEFAULT_HI, Fraction(1, 10)))
# x^2 - 9x + 10: its smallest root, about 1.298, fails the strict test at
# 4/3 and passes the weak test at 1
@example(case=_leaf([10, -9, 1], QUAD_DEFAULT_HI, Fraction(1, 10)))
# the survivor, isolated in a coarse bracket, and at d_max equal to its root
@example(case=_leaf([5, -5, 1], QUAD_DEFAULT_HI, Fraction(1, 10)))
@example(case=_leaf([5, -5, 1], GOLDEN_GAP, Fraction(1, 10)))
# cubics whose smallest root is isolated: inside the window, then above it
@example(case=_leaf([-33, 40, -13, 1], QUAD_DEFAULT_HI, Fraction(1, 10)))
@example(case=_leaf([-26, 32, -11, 1], QUAD_DEFAULT_HI, Fraction(1, 10)))
# quartics past the closed forms, isolated: inside the window, then above it
@example(case=_leaf([186, -252, 108, -18, 1], QUAD_DEFAULT_HI,
                    Fraction(1, 10)))
@example(case=_leaf([154, -214, 96, -17, 1], QUAD_DEFAULT_HI,
                    Fraction(1, 10)))
def test_gap_leaf_matches_chain_reference(case):
    got = gapsearch._gap_leaf(*case, True)
    want = gap_leaf_reference(*case, True)
    assert (got.trace, got.roots) == (want.trace, want.roots)


# ---------------------------------------------------------------------------
# the d-number shortcut of a leaf without keep_all

def _d_number_asc(draw, k):
    """Ascending coefficients of a monic degree-k d-number: constant term c,
    and each a_i a multiple of the least t with c^i | t^k."""
    c = draw(st.integers(1, 60))
    fac = factorize(c)
    asc = [c * draw(st.sampled_from([1, -1]))] + [0] * (k - 1) + [1]
    for i in range(1, k):
        t = math.prod(p ** -(-i * e // k) for p, e in fac.items())
        asc[k - i] = t * draw(st.integers(-8, 8))
    return asc


@st.composite
def shortcut_leaf_cases(draw):
    """A monic polynomial of degree 2-5 and a window.  The polynomial is
    random, near a product of linear factors, with a repeated root, with
    constant term 0, or a d-number."""
    k = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["random", "near-product", "repeated",
                                 "zero-constant", "d-number"]))
    if kind == "random":
        asc = draw(st.lists(st.integers(-40, 40), min_size=k,
                            max_size=k)) + [1]
    elif kind == "d-number":
        asc = _d_number_asc(draw, k)
    else:
        roots = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
        if kind == "repeated":
            roots[1] = roots[0]
        elif kind == "zero-constant":
            roots[0] = 0
        asc = [1]
        for root in roots:
            asc = kernels.poly_mul(asc, [-root, 1])
        if kind == "near-product":
            asc[0] += draw(st.integers(-4, 4))
            asc[1] += draw(st.integers(-4, 4))
    return (tuple(asc),) + _draw_window(draw)


@settings(max_examples=400, deadline=None)
@given(case=shortcut_leaf_cases())
# the survivor, and the two other d-number leaves of the walk at 4sqrt(3)/5
@example(case=_leaf([5, -5, 1], QUAD_DEFAULT_HI, Fraction(1, 10)))
@example(case=_leaf([25, -20, 1], QUAD_DEFAULT_HI, Fraction(1, 10)))
@example(case=_leaf([-343, 294, -35, 1], QUAD_DEFAULT_HI, Fraction(1, 10)))
# constant term 0: x (x - 2)(x - 3), and a repeated root: (x - 2)^2 (x - 3)
@example(case=_leaf([0, 6, -5, 1], QUAD_DEFAULT_HI, Fraction(1, 10)))
@example(case=_leaf([-12, 16, -7, 1], QUAD_DEFAULT_HI, Fraction(1, 10)))
def test_gap_leaf_shortcut_keeps_exactly_the_survivors(case):
    # without keep_all a leaf is None iff the full battery rejects it, and
    # a survivor is the full battery's candidate; the full battery agrees
    # with its Sturm-chain reference
    full = gapsearch._gap_leaf(*case, True)
    want = gap_leaf_reference(*case, True)
    assert (full.trace, full.roots) == (want.trace, want.roots)
    got = gapsearch._gap_leaf(*case, False)
    if full.survivor:
        assert (got.poly.coeffs, got.trace, got.roots) == (
            full.poly.coeffs, full.trace, full.roots)
    else:
        assert got is None


@pytest.mark.parametrize("d_max, leaves, survivors", [
    (QUAD_DEFAULT_HI, 4810, ["x^2 - 5x + 5"]),
    (Surd(Fraction(277, 200)), 4810, ["x^2 - 5x + 5"]),
    (Surd(Fraction(138, 100)), 1463, []),
    (Surd(Fraction(136, 100)), 3, []),
], ids=["4sqrt(3)/5", "277/200", "1.38", "1.36"])
def test_walk_leaf_shortcut_rejects_exactly_the_audit_rejections(
        d_max, leaves, survivors, monkeypatch):
    # every leaf the walk reaches without --audit: None exactly when its
    # audit candidate is rejected, and otherwise that candidate
    real_leaf = gapsearch._gap_leaf
    calls = []

    def leaf(poly, d_max, bracket, keep_all):
        got = real_leaf(poly, d_max, bracket, keep_all)
        audit = real_leaf(poly, d_max, bracket, True)
        if audit.survivor:
            assert (got.trace, got.roots) == (audit.trace, audit.roots), poly
        else:
            assert got is None, poly
        calls.append(keep_all)
        return got

    monkeypatch.setattr(gapsearch, "_gap_leaf", leaf)
    result = search_gap(d_max)
    assert calls == [False] * leaves
    assert [c.poly.to_str() for c in result.survivors] == survivors


@st.composite
def squarefree_low_degree(draw):
    k = draw(st.integers(1, 3))
    asc = draw(st.lists(st.integers(-30, 30), min_size=k + 1,
                        max_size=k + 1).filter(lambda c: c[-1]))
    assume(len(poly_squarefree_part(asc)) == k + 1)
    return asc


@settings(max_examples=400, deadline=None)
@given(asc=squarefree_low_degree())
@example(asc=[-2, 0, 1])             # x^2 - 2: two real roots
@example(asc=[1, 0, 1])              # x^2 + 1: none
@example(asc=[-5, 0, 0, -3])         # -3x^3 - 5: one real root
@example(asc=[5, -5, 0, 1])          # three real roots
@example(asc=[4, 4, -1, -1])         # -(x - 2)(x + 2)(x + 1), lead < 0
def test_closed_form_realness_matches_sturm_count(asc):
    k = len(asc) - 1
    chain = sturm_chain(asc)
    total = varcount_inf(chain, False) - varcount_inf(chain, True)
    assert kernels.real_rooted(asc) == (total == k)
    # squarefree: a nonzero discriminant, whose sign decides
    x = sympy.Symbol("x")
    disc = sympy.discriminant(sum(c * x ** i for i, c in enumerate(asc)), x)
    assert kernels.real_rooted(asc) == (k == 1 or disc > 0)


@st.composite
def coeff_cases(draw):
    """Arguments of one coefficient-range call, off any real walk: any
    nonzero leading coefficient, any depth, unordered box and cut points;
    final is the final depth, j = k - 1, as on a walk."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    k = draw(st.integers(2, 5))
    j = draw(st.integers(0, k - 1))
    prefix = [draw(st.sampled_from([1, 2, -1, -2, -3]))]
    prefix += draw(st.lists(st.integers(-60, 60), min_size=j, max_size=j))
    return (prefix, k, draw(small), draw(st.integers(-10, 30)),
            (draw(small), draw(small)), j + 1 == k)


F = Fraction


# the examples pin inputs where a case random draws rarely reach decides
# the range; each fails the rounding mutant named in its comment
@settings(max_examples=500, deadline=None)
@given(case=coeff_cases())
# depth 1, a negative linear-derivative denominator: the critical bound sets
# hi after the linear bounds leave lo <= hi (fails with that hi rounded up)
@example(case=([-1, 25], 3, F(-2), 18, (F(9, 4), F(-2)), False))
# depth 2, a negative lead A of the node's cubic (fails with the
# closed form's lo rounded down)
@example(case=([-1, -78, 134], 4, F(-41), -60, (F(54), F(248, 11)), False))
# depth 2, a square discriminant (rational critical points) sets lo, then hi
# (each fails with isqrt(M) - 1)
@example(case=([1, 1, 0], 5, F(0), 3, (F(-5, 3), F(-1, 12)), False))
@example(case=([1, -8, 18], 4, F(-13, 7), 5, (F(-7, 12), F(-7, 12)), False))
# at the final depth, an exact tie at a strict cut point moves hi (at gamma),
# then lo (at delta), by one (each fails with the cut offset 0)
@example(case=([1, -19], 2, F(1, 2), 16, (F(5), F(28, 5)), True))
@example(case=([2, 18, -15], 3, F(-2), 15, (F(15, 4), F(-4)), True))
# depth 4 and 3, the interval enclosure at isolated critical points sets lo,
# then hi (fails with that lo rounded down, then that hi rounded up)
@example(case=([1, 9, -14, -28, 7], 5, F(-10, 7), 17, (F(4), F(13)), True))
@example(case=([-1, 8, 39, 24], 4, F(0), 4, (F(127, 8), F(203, 5)), True))
def test_coeff_range_matches_reference_off_walk(case):
    assert _coeff_range(*case) == reference_coeff_range(*case)


WIDE = 10 ** 60


def _critical_only_plan(k):
    """The depth-2 plan of degree k with every bound but the critical ones
    opened: the envelope is (-WIDE, WIDE), and there is no linear bound."""
    plan = _DepthPlan(k, 2, FOUR_THIRDS, 29, (Fraction(7, 5), Fraction(2)))
    plan.envelope = (-WIDE, WIDE)
    plan.bounds = []
    return plan


@st.composite
def depth2_prefixes(draw):
    """A degree k = 3..6 and a depth-2 prefix with any nonzero lead, its
    coefficients small or near +-10^6."""
    coeff = st.one_of(st.integers(-60, 60),
                      st.integers(-10 ** 6, 10 ** 6))
    lead = draw(st.one_of(st.sampled_from([1, 2, -1, -3]),
                          coeff.filter(bool)))
    return draw(st.integers(3, 6)), [lead, draw(coeff), draw(coeff)]


# the examples pin cases random draws rarely reach; all but D < 0 fail a
# mutant of the closed form (isqrt(M) -+ 1, the two roundings swapped,
# D >= 0 for D > 0, Q without its 27 or its A^2)
@settings(max_examples=500, deadline=None)
@given(case=depth2_prefixes())
# A < 0
@example(case=(4, [-1, -78, 134]))
# D = 9, a square: the critical points -1 and 1 are rational and the
# critical values 2 and -2 tie with integers
@example(case=(3, [1, 0, -3]))
# D = 165: isqrt(M) + 1 is a multiple of Q at both critical points
@example(case=(3, [1, -12, -7]))
# D = 0 (a double critical point) and D < 0: no bound
@example(case=(3, [1, 3, 3]))
@example(case=(3, [1, 0, 1]))
# bcoef = 2 and 6, the latter with coefficients near +-10^6
@example(case=(5, [1, -12, -10]))
@example(case=(6, [999_999, -1_000_000, -999_997]))
def test_depth_2_critical_bounds_match_the_surd_reference(case):
    # the closed-form critical values of a depth-2 node bound s exactly as
    # Horner passes in Z[sqrt(disc)] at its critical points do
    k, prefix = case
    ref = depth2_critical_bounds_reference(
        _deriv_prefix(prefix + [0], k), _deriv_prefix(prefix, k),
        math.factorial(k - 3))
    want = (-WIDE, WIDE) if ref is None else (max(-WIDE, ref[0]),
                                              min(WIDE, ref[1]))
    assert one_child(prefix, _critical_only_plan(k)) == want


# walks whose depth-2 ranges take the closed form make no kernels.eval_surd
# call, where their Horner passes in Z[sqrt(disc)] made 7,376; the one call
# left is a leaf's orbit inequality, which compares a root with a surd
@pytest.mark.parametrize("d_max", [QUAD_DEFAULT_HI, Surd(Fraction(277, 200))],
                         ids=["4sqrt(3)/5", "277/200"])
def test_gap_walk_makes_no_surd_horner_pass(d_max, monkeypatch):
    calls = []
    real_eval = kernels.eval_surd

    def eval_surd(*args):
        calls.append(args)
        return real_eval(*args)

    monkeypatch.setattr(kernels, "eval_surd", eval_surd)
    search_gap(d_max)
    assert len(calls) <= 1, len(calls)


def _dropped(old, new, limit=2048):
    """The integers of the range old outside new, an interval inside it;
    past limit on one side, the limit nearest new and the far end of old."""
    (o_lo, o_hi), (n_lo, n_hi) = old, new
    if n_lo > n_hi:
        n_lo, n_hi = o_hi + 1, o_hi
    below = range(o_lo, n_lo)
    above = range(n_hi + 1, o_hi + 1)
    if len(below) > limit:
        below = [o_lo, *below[-limit:]]
    if len(above) > limit:
        above = [*above[:limit], o_hi]
    return [*below, *above]


@settings(max_examples=500, deadline=None)
@given(case=coeff_cases())
# box_lo = 0 with negative cut points, at an even depth whose child is not
# final: no pair, so the range stays the parent's
@example(case=([1, 1, 0], 5, F(0), 3, (F(-5, 3), F(-1, 12)), False))
# a cut point equal to box_lo = 0: that pair has a = b = 0 and bounds nothing
@example(case=([1], 2, F(0), 4, (F(0), F(1, 2)), False))
# negative cut points and box_lo: the cut pairs set lo, then hi
@example(case=([1], 2, F(-27, 2), 1, (F(-22, 5), F(-35, 4)), False))
# odd depth, the cut pairs against box_lo set hi
@example(case=([1, -12], 3, F(32, 3), 30, (F(-9, 2), F(-13, 2)), False))
def test_look_ahead_drops_only_children_the_oracle_empties(case):
    # the range with the look-ahead lies inside the range without it, and
    # every s it drops gives a child whose range, without the look-ahead, is
    # empty
    prefix, k, box_lo, f_hi, cuts, _ = case
    j = len(prefix) - 1
    assume(j + 1 < k)
    new = _coeff_range(*case)
    old = reference_coeff_range(*case, look_ahead=False)
    if new[0] <= new[1]:
        assert old[0] <= new[0] and new[1] <= old[1]
    for s in _dropped(old, new):
        lo, hi = reference_coeff_range(prefix + [s], k, box_lo, f_hi, cuts,
                                       j + 2 == k, look_ahead=False)
        assert lo > hi, s


def test_walks_reach_the_same_leaves_without_the_look_ahead(monkeypatch):
    # each walk, and the degree-4 slice of
    # test_degree_4_walk_slice_matches_references, once as it runs and once
    # as it ran before the look-ahead and the Rolle prune: the Fraction range
    # without either, behind the Sturm box test at every depth >= 1 (the
    # leaf battery does not run).  Each walk reaches the same leaves in the
    # same order; the slice reaches an ordered subsequence of the oracle's
    # leaves, and every leaf it drops lacks four distinct real roots
    def oracle(prefix, plan):
        box_lo = plan.box_lo
        if len(prefix) > 1 and not totally_real_in_box_reference(
                _deriv_prefix(prefix, plan.k), box_lo.numerator,
                box_lo.denominator, plan.f_hi):
            return 1, 0
        return reference_at(prefix, plan, look_ahead=False, rolle=False)

    def leaves(coeff_range, d_max):
        out = []

        def leaf(poly, d_max, bracket, keep_all):
            out.append(poly)

        monkeypatch.setattr(gapsearch, "_child_ranges", coeff_range)
        monkeypatch.setattr(gapsearch, "_gap_leaf", leaf)
        try:
            search_gap(d_max)
        except _SliceDone:
            pass
        return out

    for d_max in (Surd(Fraction(277, 200)), QUAD_DEFAULT_HI,
                  Surd(Fraction(138, 100)), Surd(Fraction(136, 100))):
        want = leaves(per_node(oracle), d_max)
        assert leaves(_child_ranges, d_max) == want, d_max
        assert want
    # the slice ends where the oracle walk meets its 11th degree-4 depth-3
    # node, after the first 2,055 quartic leaves; the walk, in the same
    # lexicographic order, stops at the first depth-3 node not before it
    counts = Counter()
    stop = []

    def slice_oracle(prefix, plan):
        if plan.k == 4 and len(prefix) == 4:
            if counts["depth 3"] == 10:
                stop.append(prefix)
                raise _SliceDone
            counts["depth 3"] += 1
        return oracle(prefix, plan)

    def slice_walk(prefix, coeffs, plan):
        for s, got in zip(coeffs, _child_ranges(prefix, coeffs, plan)):
            if plan.k == 4 and len(prefix) == 3 and prefix + [s] >= stop[0]:
                raise _SliceDone
            yield got

    want = leaves(per_node(slice_oracle), Surd(Fraction(139, 100)))
    assert sum(len(c) == 5 for c in want) == 2055
    got = leaves(slice_walk, Surd(Fraction(139, 100)))
    rest = iter(want)
    dropped = []
    for c in got:
        for w in rest:
            if w == c:
                break
            dropped.append(w)
        else:
            pytest.fail("leaf %s is not in the oracle walk's order" % (c,))
    dropped += rest
    assert len(dropped) == 289
    for c in dropped:
        assert len(c) == 5 and real_root_count(c) < 4, c


# ---------------------------------------------------------------------------
# the box test the walk dropped, and the leaf's irreducibility test, against
# references

def totally_real_in_box_reference(asc, lo_n, lo_d, q_hi):
    """The walk's former box test by Sturm counts on its own squarefree
    part: does every distinct root of asc lie, real, in (lo_n/lo_d, q_hi]?
    The squarefree part is the gcd with the derivative, then exact
    division."""
    deriv = [i * asc[i] for i in range(1, len(asc))]
    g = poly_gcd_int(list(asc), deriv)
    sqf = kernels.div_exact(list(asc), g) if len(g) > 1 else list(asc)
    chain = sturm_chain(sqf)
    total = varcount_inf(chain, False) - varcount_inf(chain, True)
    if total < len(sqf) - 1:
        return False
    inbox = varcount_at(chain, lo_n, lo_d) - varcount_at(chain, q_hi, 1)
    return inbox == total


@st.composite
def walk_nodes(draw):
    """A node at depth 0..2 of a degree-k walk, reached from [1] by drawing
    each coefficient from the walk's own range, with its box (box_lo, f_hi]
    and cut points box_lo < gamma < delta < f_hi."""
    k = draw(st.integers(2, 6))
    box_lo = draw(st.fractions(min_value=-2, max_value=3,
                               max_denominator=12))
    f_hi = draw(st.integers(box_lo.__floor__() + 1, 12))
    gamma, delta = sorted(draw(st.lists(
        st.fractions(min_value=box_lo, max_value=f_hi, max_denominator=12)
        .filter(lambda x: box_lo < x < f_hi),
        min_size=2, max_size=2, unique=True)))
    cuts = (gamma, delta)
    prefix = [1]
    for j in range(draw(st.integers(0, min(2, k - 1)))):
        lo, hi = _coeff_range(prefix, k, box_lo, f_hi, cuts, j + 1 == k)
        assume(lo <= hi)
        prefix.append(draw(st.integers(lo, hi)))
    return prefix, k, box_lo, f_hi, cuts


@settings(max_examples=300, deadline=None)
@given(node=walk_nodes())
# depth 2 of degree 4, with the simple roots 5 -+ sqrt 3 inside the box
@example(node=([1, -20, 132], 4, FOUR_THIRDS, 29,
               (Fraction(7, 5), Fraction(2))))
def test_ranges_through_depth_2_keep_every_child_in_the_box(node):
    # the implication that let the walk drop its box test: with exact
    # critical-point bounds, every s in a node's range gives a child with
    # every root, real, in (box_lo, f_hi], unless the child vanishes at
    # box_lo; a depth-2 node with a double root is the exception the
    # Rolle prune covers one depth down
    prefix, k, box_lo, f_hi, cuts = node
    j = len(prefix) - 1
    assume(j < 2 or real_root_count(_deriv_prefix(prefix, k)) == 2)
    lo, hi = _coeff_range(prefix, k, box_lo, f_hi, cuts, j + 1 == k)
    ss = range(lo, hi + 1)
    if len(ss) > 200:
        ss = [*ss[:100], *ss[-100:]]
    n, d = box_lo.numerator, box_lo.denominator
    for s in ss:
        child = _deriv_prefix(prefix + [s], k)
        assert (totally_real_in_box_reference(child, n, d, f_hi)
                or kernels.eval_qnum(child, n, d) == 0), (prefix, s)


@settings(max_examples=300, deadline=None)
@given(lead=st.sampled_from([-3, -1, 1, 2]),
       roots=st.lists(st.fractions(min_value=-6, max_value=6,
                                   max_denominator=4),
                      min_size=1, max_size=7, unique=True))
def test_derivatives_of_a_real_rooted_polynomial_are_real_rooted(lead, roots):
    # Rolle's theorem, the soundness of the walk's prune from depth 3 on
    asc = [lead]
    for r in roots:
        asc = kernels.poly_mul(asc, [-r.numerator, r.denominator])
    while len(asc) > 1:
        assert kernels.real_rooted(asc), asc
        asc = kernels.derivative(asc)


def test_box_floor_is_no_node_root_through_degree_19():
    # a depth-j node of degree k has integer coefficients and the leading
    # coefficient k!/j!, so a rational root's denominator divides k!; no
    # denominator of degree k's box floor does through k = 19, so no node
    # vanishes at box_lo.  At k = 20 and 22 one does, which the walk's
    # soundness does not need
    ties = [k for k in range(2, 25)
            if math.factorial(k) % gapsearch._box_floor(
                threshold("gdim_k", k)).denominator == 0]
    assert ties == [20, 22]


# ---------------------------------------------------------------------------
# rendering helpers

def test_surd_text_forms():
    assert surd_text(QUAD_DEFAULT_LO) == "-1/4 + 1*sqrt(41)/4"
    assert surd_text(QUAD_DEFAULT_HI) == "4*sqrt(3)/5"
    assert surd_text(Surd(Fraction(67, 50))) == "67/50"
    assert surd_text(Surd(5)) == "5"
