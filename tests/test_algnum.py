"""Exact arithmetic layer: isolation, factorization, surds, designated
roots, d-numbers, power polynomials, divisor bounds."""

import random
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from math import isqrt

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fgap.algnum import (IntPoly, Surd, _cauchy_bound, _isolate_in,
                         charpoly_int, factor_over_integers, is_d_number,
                         is_irreducible, isolate_real_roots,
                         largest_integer_divisor, poly_gcd_int,
                         poly_squarefree_part, power_char_poly,
                         ratio_integrality_oracle)
from fgap.errors import DegreeCapError, InvalidInputError
from fgap.kernels import normalize, poly_mul, primitive_part, surd_sign
from fgap import kernels
from oracles import (charpoly_reference, interval, isolate_sturm, iv_scale,
                     mid, poly_product, poly_value, power_char_poly_reference,
                     is_d_number_reference, ratio_integrality_reference,
                     sturm_chain, sturm_refine, sturm_shrink, varcount_at,
                     varcount_at_surd, varcount_inf)

X = sympy.Symbol("x")


def P(*desc):
    """Ascending coefficient tuple from descending coefficients."""
    return tuple(reversed(desc))


def poly_div_exact(a, b):
    """Quotient a / b of coefficient lists; the division must be exact."""
    q = kernels.div_exact(kernels.normalize(a), kernels.normalize(b))
    assert q is not None, (a, b)
    return q


def squarefree_decomposition(c):
    """Yun decomposition of a nonzero polynomial: [(factor, multiplicity)]
    with primitive squarefree factors of positive lead whose weighted
    product reproduces the primitive part of c.  The path factor_over_integers
    ran before it factored the squarefree part once."""
    w = primitive_part(c)
    if len(w) <= 1:
        return []
    d = kernels.derivative(w)
    g = poly_gcd_int(w, d)
    if len(g) == 1:
        return [(w, 1)]
    cpart = poly_div_exact(w, g)
    dpart = poly_div_exact(d, g)
    out = []
    i = 1
    e = kernels.poly_sub(dpart, kernels.derivative(cpart))
    while True:
        a = poly_gcd_int(cpart, e)
        if len(a) > 1:
            out.append((a, i))
        cpart = poly_div_exact(cpart, a)
        if len(cpart) == 1:
            break
        e = kernels.poly_sub(poly_div_exact(e, a), kernels.derivative(cpart))
        i += 1
    return out


def conjugate(s):
    """The Galois conjugate (a - b sqrt n)/d of the Surd (a + b sqrt n)/d."""
    return Surd(s.p, -s.q, s.n)


def sign(s):
    """Exact sign of a Surd."""
    return kernels.surd_sign(s.a, s.b, s.n)


# ---------------------------------------------------------------------------
# IntPoly: the parsed and printed form

def test_intpoly_text_forms():
    p = IntPoly(P(1, -5, 5))
    assert p.to_str() == "x^2 - 5x + 5"
    assert p.to_csv() == "1,-5,5"
    for text in ("1,-5,5", " 1 , -5 , 5 ", "+1,-5,+5"):
        assert IntPoly.from_csv(text).coeffs == p.coeffs == P(1, -5, 5)


def test_intpoly_csv_rejects_garbage():
    with pytest.raises(InvalidInputError):
        IntPoly.from_csv("0,1,2")  # leading zero
    with pytest.raises(InvalidInputError):
        IntPoly.from_csv("1,,2")
    with pytest.raises(InvalidInputError):
        IntPoly.from_csv("x,1")
    with pytest.raises(InvalidInputError):
        IntPoly.from_csv("")
    # only ASCII digits: no separators, no other scripts' digits
    for text in ("1,1_000", "\u0661,-5,5", "1,\u00b2", "1,- 5"):
        with pytest.raises(InvalidInputError, match="must be integers"):
            IntPoly.from_csv(text)


def test_intpoly_evaluate_exact():
    p = P(1, -5, 5)
    assert poly_value(p, Fraction(4, 3)) == Fraction(16 - 60 + 45, 9)
    assert poly_value(p, 0) == 5
    assert kernels.eval_qnum(p, 4, 3) == 16 - 60 + 45


# ---------------------------------------------------------------------------
# root isolation

RootProfile = namedtuple("RootProfile",
                         "roots n_real totally_real totally_positive")


def isolate_reference(p):
    """Real roots of any nonzero p with multiplicities: a RootProfile whose
    roots are ascending (interval, multiplicity) pairs.

    The general isolator src/ ran before its callers all held squarefree
    polynomials: Yun decomposition, isolation of each squarefree factor,
    shrinking until the intervals of different factors are disjoint, and a
    shrink of the smallest interval off 0 to decide total positivity.
    """
    coeffs = kernels.normalize(p)
    degree = len(coeffs) - 1
    if degree == 0:
        return RootProfile((), 0, True, True)
    items = []  # [interval, multiplicity, chain]
    for factor, mult in squarefree_decomposition(coeffs):
        ivs, chain = isolate_sturm(factor)
        items.extend([iv, mult, chain] for iv in ivs)
    changed = True
    while changed:
        changed = False
        items.sort(key=lambda it: it[0])
        for a, b in zip(items, items[1:]):
            while not (a[0][1] <= b[0][0] or b[0][1] <= a[0][0]):
                a[0] = sturm_shrink(a[2], a[0])
                b[0] = sturm_shrink(b[2], b[0])
                changed = True
    items.sort(key=lambda it: it[0])
    roots = tuple((iv, m) for iv, m, _ in items)
    n_real = sum(m for _, m in roots)
    positive = False
    if n_real == degree:
        if coeffs[0] != 0 and items:
            iv, chain = items[0][0], items[0][2]
            while iv[0] < 0 <= iv[1]:
                iv = sturm_shrink(chain, iv)
            positive = iv[0] >= 0
        else:
            positive = coeffs[0] != 0
    return RootProfile(roots, n_real, n_real == degree, positive)


def positive_roots(chain):
    """Roots in (0, oo) by one Sturm count."""
    return varcount_at(chain, 0, 1) - varcount_inf(chain, True)


def test_isolate_pinned_quadratic():
    p = P(1, -5, 5)
    (lo1, hi1), (lo2, hi2) = (interval(r) for r in isolate_real_roots(p))
    assert positive_roots(sturm_chain(p)) == 2
    assert hi1 <= lo2
    assert float(lo1) - 1e-15 <= 1.3819660112501051 <= float(hi1) + 1e-15
    assert float(lo2) - 1e-15 <= 3.6180339887498949 <= float(hi2) + 1e-15
    prof = isolate_reference(p)
    assert prof.n_real == 2 and prof.totally_real and prof.totally_positive
    assert list(prof.roots) == [((lo1, hi1), 1), ((lo2, hi2), 1)]


def test_isolate_no_real_roots():
    assert isolate_real_roots(P(1, 0, 1)) == []
    prof = isolate_reference(P(1, 0, 1))
    assert prof.n_real == 0 and not prof.totally_real


def test_isolate_multiplicity():
    # (x - 2)^2: the squarefree part x - 2 carries the one distinct root
    p = P(1, -4, 4)
    sqf = poly_squarefree_part(p)
    assert sqf == [-2, 1]
    # a degree-1 polynomial's root is the exact point
    (two,) = isolate_real_roots(sqf)
    assert interval(two) == (2, 2) and two.cmp(2) == 0
    assert positive_roots(sturm_chain(sqf)) == 1
    prof = isolate_reference(p)
    assert [m for _, m in prof.roots] == [2]
    assert prof.totally_real and prof.totally_positive


@pytest.mark.parametrize("c,root", [((-5, 3), Fraction(5, 3)),
                                    ((4, -2), Fraction(2))])
def test_a_linear_root_is_its_exact_point_without_bisection(c, root,
                                                            monkeypatch):
    # 3x - 5 and -2x + 4: the triple of -c0/c1 in lowest terms, den > 0
    calls = []
    monkeypatch.setattr(kernels, "descartes_bound",
                        lambda *args: calls.append(args))
    (r,) = isolate_real_roots(c)
    assert calls == []
    assert (r.lo, r.hi, r.den) == (root.numerator, root.numerator,
                                   root.denominator)
    assert r.cmp(root) == 0 and r.floor() == root.__floor__()


def test_isolate_counts_match_sympy():
    rng = random.Random(3)
    for _ in range(80):
        c = [rng.randint(-10, 10) for _ in range(rng.randint(2, 6))]
        p = tuple(c) if any(c) and c[-1] else None
        if p is None or len(p) < 2:
            continue
        sqf = poly_squarefree_part(p)
        ivs = isolate_real_roots(sqf)
        ivals = sympy.Poly(to_sympy_poly(p), X).intervals()
        assert len(ivs) == len(ivals)
        # the squarefree part keeps every real root of p, each once
        assert all(m == 1 for _, m in sympy.Poly(
            to_sympy_poly(sqf), X).intervals())
        prof = isolate_reference(p)
        assert prof.n_real == sum(m for _, m in ivals)
        assert [m for _, m in prof.roots] == [m for _, m in ivals]
        # both lists enclose the same roots in the same order, so the
        # corresponding intervals must overlap
        for root, ((a, b), _) in zip(ivs, ivals):
            lo, hi = interval(root)
            assert max(lo, Fraction(int(a.p), int(a.q))) <= min(
                hi, Fraction(int(b.p), int(b.q)))


@st.composite
def squarefree_inputs(draw):
    """A squarefree polynomial times any nonzero integer: a content above 1
    and a negative leading coefficient both occur."""
    low = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=6))
    lead = draw(st.integers(-4, 4).filter(bool))
    c = low + [lead]
    assume(len(poly_squarefree_part(c)) == len(c))
    scale = draw(st.sampled_from([1, -1, 2, -3, 6]))
    return [v * scale for v in c]


def is_dyadic_descendant(new, old):
    """Is new a node of the midpoint bisection of old (old itself too)?
    Both are pairs (lo, hi)."""
    ratio = (old[1] - old[0]) / (new[1] - new[0])
    step = (new[0] - old[0]) / (new[1] - new[0])
    power_of_two = ratio.denominator == 1 and ratio.numerator.bit_count() == 1
    return power_of_two and step.denominator == 1 and 0 <= step < ratio


@given(squarefree_inputs())
@settings(max_examples=200, deadline=None)
@example(c=[-6, 0, 2])        # 2(x^2 - 3): content 2
@example(c=[-10, 10, -2])     # -2(x^2 - 5x + 5): negative lead
@example(c=[0, -1, 0, 1])     # x^3 - x: the root 0 is the first midpoint
# x^3 + x: Sturm keeps (-3, 3], Descartes halves to (-3, 0] with the root 0
# at hi, and refine must reach the same floats from both
@example(c=[0, 1, 0, 1])
# (x + 1)(x - 2)(x - 3): the root 2 ends (0, 2] and starts (2, 4]
@example(c=[6, 1, -4, 1])
# x^3 - 2(2^10 x - 1)^2 (Mignotte): two roots near 2^-10, under 2^-24 apart
@example(c=[-2, 2 ** 12, -2 ** 21, 1])
@example(c=[-3, 5])           # degree 1
def test_isolate_matches_reference_on_squarefree_input(c):
    # Descartes bisection walks the Sturm isolator's dyadic tree: the same
    # roots in the same order, each interval the Sturm one or a node below
    # it on its root's path, so shrinking reaches the same floats
    bound = _cauchy_bound(c)
    ivs = [(Fraction(a, d), Fraction(b, d))
           for a, b, d in _isolate_in(c, -bound, bound, 1)]
    old, chain = isolate_sturm(c)
    assert len(ivs) == len(old)
    assert all(a[1] <= b[0] for a, b in zip(ivs, ivs[1:]))
    assert all(is_dyadic_descendant(new, ref) for new, ref in zip(ivs, old))
    prof = isolate_reference(c)
    assert all(m == 1 for _, m in prof.roots)
    assert old == [iv for iv, _ in prof.roots]
    roots = isolate_real_roots(c)
    if len(c) == 2:
        # a degree-1 root is the exact point, whatever the leading sign
        want = [Fraction(-c[0], c[1])] * 2
        assert [interval(r) for r in roots] == [tuple(want)]
        assert roots[0].approx_float() == float(want[0])
        return
    assert [interval(r) for r in roots] == ivs
    eps = Fraction(1, 10 ** 18)
    assert [r.approx_float() for r in roots] == [
        float(mid(sturm_refine(chain, iv, eps))) for iv in old]


def to_sympy_poly(p):
    return sum(v * X ** i for i, v in enumerate(p))


# ---------------------------------------------------------------------------
# refinement

def test_refine_width_and_containment():
    a = isolate_real_roots(P(1, -5, 5))[0]
    lo, hi = a.refine(Fraction(1, 10 ** 6))
    assert hi - lo <= Fraction(1, 10 ** 6)
    assert Fraction("1.381965") <= lo and hi <= Fraction("1.381967")
    assert interval(a) == (lo, hi)


def test_refine_rational_point():
    (a,) = isolate_real_roots(P(1, -2))
    assert a.refine(Fraction(1, 10 ** 30)) == (2, 2)
    # any leading coefficient: -3 + 5x has the root 3/5
    (b,) = isolate_real_roots((-3, 5))
    assert b.refine(1) == (Fraction(3, 5), Fraction(3, 5))
    assert b.approx_float() == 0.6 and b.floor() == 0


def test_refine_sqrt2():
    a = isolate_real_roots(P(1, 0, -2))[1]
    lo, hi = a.refine(Fraction(1, 1000))
    assert hi - lo <= Fraction(1, 1000)
    assert lo < Fraction(1414214, 1000000) < hi + Fraction(1, 1000)


def test_refine_deterministic():
    a1 = isolate_real_roots(P(1, -5, 5))[0]
    a2 = isolate_real_roots(P(1, -5, 5))[0]
    w = Fraction(1, 10 ** 9)
    assert a1.refine(w) == a2.refine(w)


def refine_reference(a, iv, width):
    """Refinement of the pair iv by bisection on Fraction endpoints, as
    refine ran before it kept its endpoints as integers over one
    denominator.  Neither endpoint may be a root."""
    p = a.minpoly
    lo, hi = iv
    s_lo = (poly_value(p, lo) > 0) - (poly_value(p, lo) < 0)
    assert s_lo and poly_value(p, hi)
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = poly_value(p, mid)
        if ((v > 0) - (v < 0)) == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


REFINE_WIDTHS = [Fraction(1, 10 ** 3), Fraction(3, 2 ** 31),
                 Fraction(1, 10 ** 12), Fraction(1, 10 ** 18)]


def _assert_refine_matches_reference(a):
    iv = interval(a)
    for width in REFINE_WIDTHS:
        got = a.refine(width)
        iv = refine_reference(a, iv, width)
        assert got == iv, width


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=5))
def test_refine_matches_fraction_bisection(low):
    poly = tuple(low + [1])
    assume(factor_over_integers(poly) == [(poly, 1)])
    for a in isolate_real_roots(poly):
        _assert_refine_matches_reference(a)


def test_refine_root_at_an_endpoint():
    # (x - 1)(x^2 - 2) isolates to (-4, 0], (0, 1] and (1, 2]: (1, 2] holds
    # only sqrt 2 and its lower end is the root 1; (0, 1] holds the root 1
    # at its upper end
    poly = P(1, -1, -2, 2)
    chain = sturm_chain(poly)
    _, one, sqrt2 = isolate_real_roots(poly)
    assert (interval(one), interval(sqrt2)) == ((0, 1), (1, 2))
    for a in (sqrt2, one):
        lo, hi = iv = interval(a)
        for width in REFINE_WIDTHS:
            got = a.refine(width)
            # the same root: a subinterval of iv that still holds one root
            assert got[1] - got[0] <= width
            assert lo <= got[0] and got[1] <= hi
            assert (varcount_at(chain, got[0].numerator, got[0].denominator)
                    - varcount_at(chain, got[1].numerator,
                                  got[1].denominator)) == 1
            if hi == 1:
                # a root at hi stays hi, and lo takes the midpoints up to it
                assert got[1] == 1 and is_dyadic_descendant(got, iv)
                assert width < 2 * (got[1] - got[0])
        assert a.cmp(1) == (0 if hi == 1 else 1)


def test_refine_takes_a_zero_midpoint_as_the_root():
    # (x - 2)(x + 3) is squarefree but reducible: (0, 8] isolates the
    # rational root 2, which is the second bisection midpoint
    two = isolate_real_roots(P(1, 1, -6))[1]
    assert interval(two) == (0, 8)
    lo, hi = two.refine(Fraction(1, 100))
    assert lo < 2 <= hi and hi - lo <= Fraction(1, 100)
    assert two.cmp(2) == 0
    assert two.cmp(Fraction(199, 100)) == 1
    assert two.cmp(Fraction(201, 100)) == -1
    assert two.approx_float() == 2.0


# ---------------------------------------------------------------------------
# factorization

def test_factor_pinned_examples():
    assert factor_over_integers(P(1, -5, 5)) == [(P(1, -5, 5), 1)]
    cube = poly_product(P(1, -3), P(1, -3), P(1, -3))
    assert factor_over_integers(cube) == [(P(1, -3), 3)]
    mixed = poly_product(P(1, 0, 0), P(1, -5, 5))
    assert factor_over_integers(mixed) == [(P(1, 0), 2), (P(1, -5, 5), 1)]


def test_factor_swinnerton_dyer_case():
    # minimal polynomial of sqrt(2)+sqrt(3); splits mod every prime, so the
    # recombination stage has to do real work
    p = P(1, 0, -10, 0, 1)
    assert factor_over_integers(p) == [(p, 1)]


def test_factor_cyclotomic_product():
    # x^4 + x^3 + x^2 + x + 1 times x^2 + x + 1
    p = poly_product(P(1, 1, 1, 1, 1), P(1, 1, 1))
    assert factor_over_integers(p) == [(P(1, 1, 1), 1), (P(1, 1, 1, 1, 1), 1)]


def test_factor_matches_sympy_on_random_products():
    rng = random.Random(19)
    for _ in range(60):
        c = [rng.randint(-8, 8) for _ in range(rng.randint(2, 7))]
        if not any(c) or not c[-1]:
            continue
        p = tuple(c)
        got = factor_over_integers(p)
        want = sympy.factor_list(to_sympy_poly(p))[1]
        want_set = {}
        for fac, mult in want:
            coeffs = [int(v) for v in reversed(sympy.Poly(fac, X).all_coeffs())]
            if len(coeffs) == 1:
                continue  # sympy sometimes keeps integer content as a factor
            if coeffs[-1] < 0:
                coeffs = [-v for v in coeffs]
            want_set[tuple(coeffs)] = want_set.get(tuple(coeffs), 0) + mult
        got_set = dict(got)
        assert got_set == want_set, (c, got, want)


def test_factor_roundtrip_reproduces_input():
    rng = random.Random(29)
    for _ in range(60):
        c = [rng.randint(-9, 9) for _ in range(rng.randint(2, 8))]
        if not any(c) or not c[-1]:
            continue
        p = tuple(c)
        prod = (1,)
        for fac, mult in factor_over_integers(p):
            for _ in range(mult):
                prod = poly_product(prod, fac)
        # equality up to rational content times sign
        assert len(prod) == len(p)
        lhs = [x * p[-1] for x in prod]
        rhs = [x * prod[-1] for x in p]
        assert lhs == rhs


def test_factor_takes_coefficients_past_the_int_to_str_limit():
    # the equal-degree splitter's generator was seeded with the
    # coefficients written in decimal, which Python refuses past 4,300
    # digits; the constant term here has 5,001
    n = 10 ** 2500 + 7
    p = poly_product((-n, 1), (-n - 3, 1))
    assert factor_over_integers(p) == [((-n - 3, 1), 1), ((-n, 1), 1)]


def test_factor_degree_cap():
    coeffs = [0] * 26
    coeffs[0] = -1
    coeffs[25] = 1  # x^25 - 1, degree above the cap
    with pytest.raises(DegreeCapError):
        factor_over_integers(coeffs)


def test_squarefree_decomposition_known():
    p = poly_product(P(1, -4, 4), P(1, -1))
    parts = squarefree_decomposition(list(p))
    rebuilt = {}
    for fac, mult in parts:
        rebuilt[mult] = tuple(fac)
    assert rebuilt[1] == P(1, -1)
    assert rebuilt[2] == P(1, -2)


@given(st.lists(st.tuples(st.lists(st.integers(-6, 6), min_size=1,
                                   max_size=3), st.integers(1, 3)),
                min_size=1, max_size=4), st.integers(-4, 4))
@settings(max_examples=120, deadline=None)
def test_poly_squarefree_part_matches_sympy(factors, scale):
    # products of small factors raised to small powers, so the squarefree
    # part is often a proper divisor
    c = [scale]
    for fac, power in factors:
        for _ in range(power):
            c = poly_mul(c, fac)
    c = normalize(c)
    assume(c)
    want = sympy.Poly(sum(v * X ** i for i, v in enumerate(c)), X)
    want = want.sqf_part().primitive()[1]
    if want.LC() < 0:
        want = -want
    assert poly_squarefree_part(c) == [int(v) for v in
                                       reversed(want.all_coeffs())]


@st.composite
def monic_polys(draw):
    deg = draw(st.integers(1, 5))
    if draw(st.booleans()):
        # reducible more often than not: a product of two monic factors
        split = draw(st.integers(1, max(1, deg - 1)))
        parts = [draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
                 + [1] for n in (split, deg - split) if n]
        asc = [1]
        for part in parts:
            asc = kernels.poly_mul(asc, part)
    else:
        asc = draw(st.lists(st.integers(-20, 20), min_size=deg,
                            max_size=deg)) + [1]
    return tuple(asc)


@given(monic_polys())
@settings(max_examples=300, deadline=None)
@example(poly=(0, 0, 0, 1))        # x^3
@example(poly=(-2, 0, 0, 1))       # x^3 - 2
@example(poly=(4, 0, -5, 0, 1))    # (x^2 - 1)(x^2 - 4)
@example(poly=(1, 0, 0, 0, 1))     # x^4 + 1
# cubics at and past |c0| = 10^6, where trial division hands over to
# factoring: (x - 100)(x^2 + 10^4), (x - 1009)(x^2 + x + 1000), x^3 - 2000003
@example(poly=poly_product(P(1, -100), P(1, 0, 10 ** 4)))
@example(poly=poly_product(P(1, -1009), P(1, 1, 1000)))
@example(poly=P(1, 0, 0, -2000003))
def test_is_irreducible_matches_factorization(poly):
    factors = factor_over_integers(poly)
    want = len(factors) == 1 and factors[0][1] == 1
    assert is_irreducible(poly) == want, poly


# ---------------------------------------------------------------------------
# Surd arithmetic

def test_surd_construction_and_float():
    s = Surd(0, Fraction(4, 5), 3)  # 4*sqrt(3)/5
    assert abs(float(s) - 1.3856406460551018) < 1e-15
    assert s.cmp(Fraction(7, 5)) < 0
    assert s.cmp(Fraction(138, 100)) > 0


def test_surd_cross_field_cmp():
    a = Surd(0, 1, 2)           # sqrt(2)
    b = Surd(0, Fraction(4, 5), 3)  # 4 sqrt(3)/5
    assert a.cmp(b) > 0
    assert b.cmp(a) < 0
    assert a.cmp(Surd(0, 1, 2)) == 0
    phi2 = Surd(Fraction(5, 2), Fraction(-1, 2), 5)  # (5 - sqrt 5)/2
    assert phi2.cmp(b) < 0


def test_surd_arithmetic_identities():
    s = Surd(2, 3, 5)
    t = Surd(-1, Fraction(1, 2), 5)
    assert ((s + t) - t).cmp(s) == 0
    prod = s * t
    conj = conjugate(s) * conjugate(t)
    assert conjugate(prod).cmp(conj) == 0
    assert ((s / t) * t).cmp(s) == 0
    assert (s * Fraction(2, 3) - s / Fraction(3, 2)).cmp(Surd(0)) == 0


def test_surd_floor_ceil():
    s = Surd(0, 1, 2)
    assert s.floor() == 1 and s.ceil() == 2
    t = Surd(4, 2, 2)  # 4 + 2 sqrt 2 ~ 6.828
    assert t.floor() == 6 and t.ceil() == 7
    assert Surd(3).floor() == 3 and Surd(3).ceil() == 3
    neg = Surd(0, -1, 2)
    assert neg.floor() == -2 and neg.ceil() == -1


def test_surd_approx_encloses():
    s = Surd(1, 2, 7)
    lo, hi = s.approx(Fraction(1, 10 ** 12))
    assert hi - lo <= Fraction(1, 10 ** 12)
    assert lo <= Fraction(float(s)) + Fraction(1, 10 ** 9)
    assert s.cmp(lo) >= 0 and s.cmp(hi) <= 0


def test_surd_sqrt_fraction():
    s = Surd.sqrt_fraction(Fraction(32, 17))
    assert (s * s).cmp(Fraction(32, 17)) == 0
    assert Surd.sqrt_fraction(Fraction(49, 4)).cmp(
        Fraction(7, 2)) == 0


small_fracs = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@given(small_fracs, small_fracs, small_fracs, small_fracs)
@settings(max_examples=80, deadline=None)
def test_surd_ring_axioms_property(p1, q1, p2, q2):
    a = Surd(p1, q1, 7)
    b = Surd(p2, q2, 7)
    assert ((a + b) * (a - b) - (a * a - b * b)).cmp(Surd(0)) == 0
    assert (a + b).cmp(b + a) == 0
    got = float(a * b)
    want = float(a) * float(b)
    assert abs(got - want) <= 1e-9 * (1 + abs(want))


@given(small_fracs, small_fracs)
@settings(max_examples=80, deadline=None)
def test_surd_floor_matches_float(p, q):
    s = Surd(p, q, 7)
    f = float(s)
    # stay away from integer boundaries where float rounding could differ
    if abs(f - round(f)) < 1e-6:
        return
    import math
    assert s.floor() == math.floor(f)
    assert s.ceil() == math.ceil(f)


def test_surd_floor_exact_far_from_float_range():
    # the float-seeded floor overflowed or stepped ~10**14 times here
    assert (Surd(10 ** 30) + Surd(0, 1, 2)).floor() == 10 ** 30 + 1
    assert (Surd(10 ** 30) - Surd(0, 1, 2)).ceil() == 10 ** 30 - 1
    assert Surd(10 ** 400).floor() == 10 ** 400
    assert Surd(-10 ** 400, 3, 5).ceil() == -10 ** 400 + 7


@pytest.mark.parametrize("a, b, n", [(1, -1, 2), (-3, 2, 2), (2, -1, 3),
                                     (7, -4, 3), (-9, 4, 5), (-99, 70, 2)])
def test_surd_sign_at_units(a, b, n):
    # a^2 - b^2 n = +-1: the closest an integer surd gets to zero
    want = 1 if a + b * float(n) ** 0.5 > 0 else -1
    s = Surd(a, b, n)
    assert sign(s) == want and sign(-s) == -want
    assert s.floor() == (0 if want > 0 else -1)


# ---------------------------------------------------------------------------
# reference: the Fraction-based surd the integer Surd replaced

class RefSurd:
    """p + q*sqrt(n) with Fraction p, q and squarefree n, as Surd computed
    it before it stored integers: the oracle for sign, floor, ceil, cmp,
    approx and arithmetic.  n is taken as given (already squarefree)."""

    def __init__(self, p, q=0, n=0):
        self.p = Fraction(p)
        self.q = Fraction(q)
        self.n = n if self.q else 0
        if not self.n:
            self.q = Fraction(0)

    def _field(self, o):
        assert self.n == o.n or not self.n or not o.n
        return self.n or o.n

    def __add__(self, o):
        return RefSurd(self.p + o.p, self.q + o.q, self._field(o))

    def __neg__(self):
        return RefSurd(-self.p, -self.q, self.n)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        n = self._field(o)
        return RefSurd(self.p * o.p + self.q * o.q * n,
                       self.p * o.q + self.q * o.p, n)

    def conjugate(self):
        return RefSurd(self.p, -self.q, self.n)

    def sign(self):
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        if self.p == 0:
            return 1 if self.q > 0 else -1
        if self.p > 0 and self.q > 0:
            return 1
        if self.p < 0 and self.q < 0:
            return -1
        if self.p * self.p > self.q * self.q * self.n:
            return 1 if self.p > 0 else -1
        return 1 if self.q > 0 else -1

    def cmp_fraction(self, r):
        return RefSurd(self.p - Fraction(r), self.q, self.n).sign()

    def cmp(self, other):
        if self.n == other.n or not self.n or not other.n:
            return (self - other).sign()
        x = RefSurd(self.p - other.p, self.q, self.n)
        y = RefSurd(0, other.q, other.n)
        sx, sy = x.sign(), y.sign()
        if sx != sy:
            return 1 if sx > sy else -1
        c = (x * x).cmp_fraction(y.q * y.q * y.n)
        return c if sx > 0 else -c

    def approx(self, eps):
        eps = Fraction(eps)
        if self.q == 0:
            return self.p, self.p
        k = 1
        while Fraction(abs(self.q), 10 ** k) > eps:
            k += 1
        scale = 10 ** k
        r = isqrt(self.n * scale * scale)
        root = (Fraction(r, scale), Fraction(r + 1, scale))
        return shift(iv_scale(root, self.q), self.p)

    def floor(self):
        m = int(float(mid(self.approx(Fraction(1, 10 ** 18)))))
        while self.cmp_fraction(m + 1) >= 0:
            m += 1
        while self.cmp_fraction(m) < 0:
            m -= 1
        return m

    def ceil(self):
        return -((-self).floor())

    def surd(self):
        return Surd(self.p, self.q, self.n)


def shift(iv, f):
    """The interval iv + f."""
    return iv[0] + f, iv[1] + f


SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 41, 102)
ref_surds = st.builds(RefSurd, small_fracs, small_fracs,
                      st.sampled_from(SQUAREFREE))


def same_value(s, ref):
    return (s.p, s.q, s.n) == (ref.p, ref.q, ref.n)


@given(ref_surds, ref_surds, small_fracs)
@settings(max_examples=300, deadline=None)
def test_surd_matches_fraction_reference(x, y, r):
    s, t = x.surd(), y.surd()
    assert same_value(s, x)
    assert sign(s) == x.sign()
    assert s.floor() == x.floor()
    assert s.ceil() == x.ceil()
    assert s.cmp(r) == x.cmp_fraction(r)
    assert s.cmp(t) == x.cmp(y) == -t.cmp(s)
    for eps in (Fraction(1, 3), Fraction(1, 10 ** 6), Fraction(7, 10 ** 20)):
        assert s.approx(eps) == x.approx(eps)
    assert float(s) == float(mid(x.approx(Fraction(1, 10 ** 18))))
    y = RefSurd(y.p, y.q, x.n)  # same field for the arithmetic
    t = y.surd()
    assert same_value(s + t, x + y)
    assert same_value(s - t, x - y)
    assert same_value(s * t, x * y)
    assert same_value(-s, -x) and same_value(conjugate(s), x.conjugate())
    if y.sign():
        quot = x * y.conjugate()
        norm = (y * y.conjugate()).p
        assert same_value(s / t, RefSurd(quot.p / norm, quot.q / norm, x.n))


@given(ref_surds)
@settings(max_examples=200, deadline=None)
def test_surd_floor_matches_sympy(x):
    value = sympy.Rational(x.p.numerator, x.p.denominator) + sympy.Rational(
        x.q.numerator, x.q.denominator) * sympy.sqrt(x.n)
    s = x.surd()
    assert s.floor() == int(sympy.floor(value))
    assert s.ceil() == int(sympy.ceiling(value))


# ---------------------------------------------------------------------------
# AlgebraicNumber comparisons

def fib_roots():
    return tuple(isolate_real_roots(P(1, -5, 5)))


def test_algnum_cmp_families():
    lo, hi = fib_roots()
    assert lo.cmp(Fraction(4, 3)) > 0
    assert lo.cmp(Fraction(7, 5)) < 0
    assert lo.cmp(Surd(0, Fraction(4, 5), 3)) < 0
    assert hi.cmp(Surd(0, 1, 2)) > 0
    assert lo.cmp(hi) < 0 and hi.cmp(lo) > 0 and lo.cmp(lo) == 0
    # exact equality against its own surd form (5 - sqrt 5)/2
    assert lo.cmp(Surd(Fraction(5, 2), Fraction(-1, 2), 5)) == 0


def test_algnum_floor():
    lo, hi = fib_roots()
    assert lo.floor() == 1
    assert hi.floor() == 3
    assert isolate_real_roots(P(1, -2))[0].floor() == 2


# (x - 2)(x^2 - 2) isolates to (-6, 0], (0, 3/2] and (3/2, 3]: a reducible
# squarefree minpoly whose roots include the rational 2
SHARED = P(1, -2, -2, 4)

# (x - 2)(x^2 - 7) isolates to (-16, 0], (0, 2] and (2, 4]: the root 2 at
# the upper end of its interval, and the lower end of sqrt 7's
SEVEN = P(1, -2, -7, 14)


def test_algnum_floor_at_an_integer_root():
    _, sqrt2, two = isolate_real_roots(SHARED)
    assert interval(two) == (Fraction(3, 2), 3) and two.floor() == 2
    _, two_at_hi, _ = isolate_real_roots(SEVEN)
    assert interval(two_at_hi) == (0, 2) and two_at_hi.floor() == 2
    # sqrt 2 on (0, 3/2] shrinks to (3/4, 3/2], with the candidate 1 inside
    assert interval(sqrt2) == (0, Fraction(3, 2)) and sqrt2.floor() == 1
    assert interval(sqrt2) == (Fraction(3, 4), Fraction(3, 2))
    # (x - 3)(x^3 - 3) on (11/4, 11/2]: shrinking leaves the one candidate 3
    three = isolate_real_roots(P(1, -3, 0, -3, 9))[1]
    assert interval(three) == (Fraction(11, 4), Fraction(11, 2))
    assert three.floor() == 3


SHARED_ROOT_CMP = """
from fgap.algnum import isolate_real_roots

def roots(desc):
    return isolate_real_roots(desc[::-1])

_, sqrt2, two = roots((1, -2, -2, 4))   # (0, 3/2], (3/2, 3]: (x - 2)(x^2 - 2)
_, two_b = roots((1, 1, -6))            # (0, 8]: (x - 2)(x + 3)
_, sqrt2_b = roots((1, 0, -2))          # (0, 4]: x^2 - 2
_, sqrt3 = roots((1, 0, -3))            # (0, 5]: x^2 - 3
(one,) = roots((1, -1))
(two_c,) = roots((1, -2))
cases = [
    (two, two_b, 0), (two_b, two, 0),
    (sqrt2, sqrt2_b, 0), (sqrt2_b, sqrt2, 0),
    (two_b, sqrt2_b, 1), (sqrt2_b, two_b, -1),
    (two, two_c, 0),
    (two_c, two_b, 0),
    (sqrt3, two_b, -1),                  # sqrt 3 < 2
    (one, sqrt2, -1),
    (sqrt2_b, one, 1),
]
print([a.cmp(b) == want for a, b, want in cases])
"""


def test_algnum_cmp_at_a_shared_root():
    # two different minpolys designating one value used to shrink forever,
    # so the comparisons run in a subprocess under a timeout
    proc = subprocess.run([sys.executable, "-c", SHARED_ROOT_CMP],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[%s]\n" % ", ".join(["True"] * 11)


def test_cmp_at_the_interval_ends():
    # sqrt 2 on (1, 2] for (x - 1)(x^2 - 2): lo is the root 1, outside the
    # half-open interval; hi is not a root
    sqrt2 = isolate_real_roots(P(1, -1, -2, 2))[2]
    assert interval(sqrt2) == (1, 2)
    assert sqrt2.cmp(1) == 1 and sqrt2.cmp(2) == -1
    assert sqrt2.cmp(Fraction(5, 4)) == 1 and sqrt2.cmp(Fraction(3, 2)) == -1
    assert sqrt2.cmp(Surd(0, 1, 2)) == 0
    # 2 on (0, 2] for (x - 2)(x^2 - 7): hi is the designated root
    two = isolate_real_roots(SEVEN)[1]
    assert interval(two) == (0, 2)
    assert two.cmp(2) == 0 and two.cmp(Fraction(7, 4)) == 1
    assert two.cmp(Surd(0, Fraction(3, 2), 3)) == -1     # 2.598 > 2
    assert two.cmp(Surd(0, Fraction(6, 5), 2)) == 1      # 1.697 < 2
    assert two.cmp(Fraction(3, 2)) == 1 and two.cmp(Fraction(201, 100)) == -1
    # sqrt 2 on (1, 3/2] for x^2 - 2: x at hi, where p(hi) != 0
    root = isolate_real_roots(P(1, 0, -2))[1]
    assert root.refine(Fraction(1, 2)) == (1, Fraction(3, 2))
    assert root.cmp(Fraction(3, 2)) == -1
    for a in (sqrt2, two, root):
        iv = interval(a)
        for r in (iv[0], iv[1], mid(iv), iv[1] - Fraction(1, 10 ** 9)):
            assert a.cmp(r) == bisect_cmp_fraction(a.minpoly, iv, r), r
        assert interval(a) == iv


OVERLAP_END_CMP = """
from fractions import Fraction as F
from fgap.algnum import isolate_real_roots

def roots(desc):
    return isolate_real_roots(desc[::-1])

_, two, sqrt7 = roots((1, -2, -7, 14))  # (0, 2], (2, 4]: (x - 2)(x^2 - 7)
_, two_b = roots((1, 1, -6))            # (0, 8]: (x - 2)(x + 3)
_, two_c = roots((1, 3, -10))           # (0, 12]: (x - 2)(x + 5)
_, _, two_d = roots((1, -2, -2, 4))     # (3/2, 3]: (x - 2)(x^2 - 2)
fib_lo, fib_hi = roots((1, -5, 5))      # (0, 7/2], (7/2, 7]
fib_lo_b = roots((1, -5, 5))[0]
assert fib_lo_b.refine(2) == (0, F(7, 4))
cases = [
    # the gcd's root 2 at the overlap's upper end is the value of both
    (two, two_b, 0), (two_b, two, 0),
    # the gcd's root 2 at the overlap's lower end (2, ...] is in neither
    # overlap part: sqrt 7 on (2, 3] is not 2
    (sqrt7, two_c, 1), (two_c, sqrt7, -1),
    (sqrt7, two_d, 1), (two_d, sqrt7, -1),
    # one minpoly: one root from overlapping intervals, then two roots
    (fib_lo, fib_lo_b, 0), (fib_lo_b, fib_lo, 0),
    (fib_lo_b, fib_hi, -1), (fib_hi, fib_lo_b, 1),
]
print([a.cmp(b) == want for a, b, want in cases])
"""


def test_cmp_algebraic_with_a_shared_root_at_an_overlap_end():
    # a gcd test that missed the shared root would refine forever, so the
    # comparisons run in a subprocess under a timeout
    proc = subprocess.run([sys.executable, "-c", OVERLAP_END_CMP],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[%s]\n" % ", ".join(["True"] * 10)


def test_cmp_algebraic_against_a_rational_root_and_by_refinement():
    # 7/5 (the root of 5x - 7) below sqrt 2, and sqrt 2 below
    # sqrt(2000001/10^6), each compared in both orders; the last two have
    # overlapping first intervals and share no root, so only refining both
    # separates them
    seven_fifths = isolate_real_roots((-7, 5))[0]
    sqrt2 = isolate_real_roots((-2, 0, 1))[-1]
    near = isolate_real_roots((-2000001, 0, 10 ** 6))[-1]
    r2, rn = sympy.sqrt(2), sympy.sqrt(sympy.Rational(2000001, 10 ** 6))
    for a, b, va, vb in ((seven_fifths, sqrt2, sympy.Rational(7, 5), r2),
                         (sqrt2, near, r2, rn)):
        want = 1 if va > vb else -1
        assert a.cmp(b) == want
        assert b.cmp(a) == -want


def bisect_cmp_surd(poly, iv, s):
    """Sign of (the root of poly in iv) - s for an irrational RefSurd s, by
    the interval bisection cmp_surd ran before its surd-point Sturm count:
    the reference.  poly is squarefree and iv = (lo, hi] isolates one root."""
    chain = sturm_chain(list(poly))

    def inside(x):
        return x.cmp_fraction(iv[0]) >= 0 and x.cmp_fraction(iv[1]) <= 0

    acc = RefSurd(0)
    for c in reversed(poly):
        acc = acc * s + RefSurd(c)
    if acc.sign() == 0:
        other = s.conjugate()
        while inside(s) and inside(other):
            iv = sturm_shrink(chain, iv)
        if inside(s):
            return 0
        return 1 if s.cmp_fraction(iv[0]) < 0 else -1
    while inside(s):
        iv = sturm_shrink(chain, iv)
    return 1 if s.cmp_fraction(iv[0]) < 0 else -1


def surd_points(poly, rng):
    """Irrational RefSurds around the real roots of poly: its own quadratic
    roots and their conjugates, points just beside each root, and a few
    random ones."""
    pts = []
    if len(poly) == 3:
        c0, c1, _ = poly
        disc = c1 * c1 - 4 * c0
        if disc > 0 and isqrt(disc) ** 2 != disc:
            n, m = sympy_squarefree(disc)
            for sgn in (1, -1):
                pts.append(RefSurd(Fraction(-c1, 2), Fraction(sgn * m, 2), n))
    for root in isolate_real_roots(poly):
        m = mid(interval(root))
        for n in (2, 3, 5):
            for k in (1, 6, 30):
                step = Fraction(1, 10 ** k)
                pts.append(RefSurd(m, step, n))
                pts.append(RefSurd(m, -step, n))
    for _ in range(4):
        pts.append(RefSurd(Fraction(rng.randint(-60, 60), rng.randint(1, 9)),
                           Fraction(rng.randint(-9, 9) or 1,
                                    rng.randint(1, 9)),
                           rng.choice(SQUAREFREE)))
    return pts


def bisect_cmp_fraction(poly, iv, r):
    """Sign of (the root of poly in iv) - r for a rational r, by shrinking
    iv with sturm_shrink until r lies outside it, as src compared with a
    rational before its one Sturm count at the point: the reference."""
    chain = sturm_chain(list(poly))
    if iv[0] < r <= iv[1] and poly_value(poly, r) == 0:
        return 0
    while iv[0] <= r <= iv[1]:
        iv = sturm_shrink(chain, iv)
    return 1 if iv[0] > r else -1


def rational_points(poly, rng):
    """Rationals around the real roots of poly: every interval end and
    midpoint, the integer roots (a monic poly has no other rational ones),
    points just beside each, and a few random ones."""
    pts = [Fraction(t) for t in range(-14, 15) if poly_value(poly, t) == 0]
    for root in isolate_real_roots(poly):
        lo, hi = iv = interval(root)
        m = mid(iv)
        pts.extend([lo, hi, m])
        for k in (1, 6, 30):
            step = Fraction(1, 10 ** k)
            pts.extend([m + step, m - step, hi - step])
    for _ in range(4):
        pts.append(Fraction(rng.randint(-60, 60), rng.randint(1, 9)))
    return pts


def sympy_squarefree(n):
    """(squarefree s, m) with n = m^2 s."""
    s, m = 1, 1
    for p, e in sympy.factorint(n).items():
        m *= p ** (e // 2)
        s *= p ** (e % 2)
    return s, m


poly_coeffs = st.lists(st.integers(-12, 12), min_size=2, max_size=4)


@given(poly_coeffs, st.integers(0, 10 ** 6))
@settings(max_examples=120, deadline=None)
@example(low=[0, -1], seed=0)  # x^2 - x: the root 0 is the end of (-3, 0]
def test_cmp_surd_and_surd_sturm_count_match_bisection(low, seed):
    poly = tuple(low + [1])
    if [m for _, m in squarefree_decomposition(list(poly))] != [1]:
        return  # the reference needs a squarefree polynomial
    rng = random.Random(seed)
    chain = sturm_chain(list(poly))
    nums = isolate_real_roots(poly)
    roots = [interval(a) for a in nums]
    for s in surd_points(poly, rng):
        want = [bisect_cmp_surd(poly, iv, s) for iv in roots]
        got = [a.cmp(s.surd()) for a in nums]
        assert got == want
        surd = s.surd()
        below = varcount_inf(chain, False) - varcount_at_surd(
            chain, surd.a, surd.b, surd.n, surd.d)
        assert below == sum(1 for c in want if c <= 0)
    for r in rational_points(poly, rng):
        want = [bisect_cmp_fraction(poly, iv, r) for iv in roots]
        assert [a.cmp(r) for a in nums] == want, r
        below = varcount_inf(chain, False) - varcount_at(
            chain, r.numerator, r.denominator)
        assert below == sum(1 for c in want if c <= 0)
    # a comparison never shrinks the interval
    assert [interval(a) for a in nums] == roots


# ---------------------------------------------------------------------------
# d-numbers

def test_d_number_pinned():
    assert is_d_number(P(1, -5, 5)) is True
    assert is_d_number(P(1, -5, 3)) is False
    assert is_d_number(P(1, -14, 49, -49)) is True
    assert is_d_number(P(1, -3, 1)) is True
    assert ratio_integrality_oracle(P(1, -3, 1)) is True
    assert ratio_integrality_oracle(P(1, -7)) is True
    assert ratio_integrality_oracle(P(1, -5, 5)) is True


def test_d_number_preconditions():
    with pytest.raises(InvalidInputError):
        is_d_number(P(2, -5, 5))
    with pytest.raises(InvalidInputError):
        is_d_number(P(1, -5, 0))


def test_d_number_examples():
    # x^4 - 4x^2 + 2: conjugate ratios are +-1, +-(1+sqrt 2), +-(sqrt 2 - 1),
    # all units, so the root ideal is stable under conjugation
    assert is_d_number(P(1, 0, -4, 0, 2)) is True
    # x^4 + x + 2: a_4 = 2 does not divide a_3^4 = 1, so some conjugate ratio
    # is not integral
    assert is_d_number(P(1, 0, 0, 1, 2)) is False
    # repeated quadratic factor: d-number status depends only on the roots
    p = poly_product(P(1, -5, 5), P(1, -5, 5))
    assert is_d_number(p) is True
    # (x - 2)(x^2 - 2): sqrt 2 / 2 is not integral
    assert is_d_number(poly_product(P(1, -2), P(1, 0, -2))) is False
    # x^24 - 2 at the degree cap: every ratio is a root of unity
    assert is_d_number(P(1, *[0] * 23, -2)) is True


@st.composite
def monic_up_to_the_cap(draw):
    """Monic polynomials of degree 1..DEGREE_CAP with small coefficients and
    a nonzero constant term, mostly zero in between so some are
    d-numbers."""
    n = draw(st.integers(1, 24))
    middle = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -4, 8]),
                           min_size=n - 1, max_size=n - 1))
    return tuple([draw(st.sampled_from([-8, -2, -1, 1, 2, 4]))]
                 + middle + [1])


@given(monic_up_to_the_cap())
@settings(max_examples=300, deadline=None)
@example(p=P(1, -7))                          # degree 1: nothing to divide
@example(p=P(1, 7))
@example(p=P(1, -1))
@example(p=P(1, -5, -5))                      # negative constant term
@example(p=P(1, -6, 12, -8))                  # (x - 2)^3, a_n = -8
@example(p=P(1, 1, 0, 8, -8))                 # fails at i = 1 only
@example(p=P(1, 2, 0, 2, -8))                 # fails at the last i only
@example(p=P(1, 3, 1))                        # unit constant terms
@example(p=P(1, 3, -1))
@example(p=P(1, *[0] * 23, -2))               # the degree cap, a d-number
@example(p=P(1, *[0] * 22, 1, -2))            # the cap, fails at i = 23
@example(p=P(1, *[0] * 23, 1))
def test_d_number_matches_the_all_form(p):
    assert is_d_number(p) is is_d_number_reference(p), p


@pytest.mark.parametrize("coeffs, exc, msg", [
    ([5, -5, 2], InvalidInputError,
     "d-number test requires a monic polynomial"),
    ([], InvalidInputError, "d-number test requires a monic polynomial"),
    ([0, 0], InvalidInputError, "d-number test requires a monic polynomial"),
    ([1], InvalidInputError,
     "d-number test requires degree >= 1 and a nonzero constant term"),
    ([0, -5, 1], InvalidInputError,
     "d-number test requires degree >= 1 and a nonzero constant term"),
    ([-2] + [0] * 24 + [1], DegreeCapError,
     "degree 25 exceeds the d-number test's cap of 24"),
    # the checks run in order: monic, then the constant term, then the cap
    ([2] + [0] * 24 + [3], InvalidInputError,
     "d-number test requires a monic polynomial"),
    ([0] * 25 + [1], InvalidInputError,
     "d-number test requires degree >= 1 and a nonzero constant term"),
], ids=["non-monic", "empty", "zero", "degree-0", "zero-constant",
        "degree-25", "non-monic-degree-25", "zero-constant-degree-25"])
def test_d_number_errors_match_the_all_form(coeffs, exc, msg):
    for test in (is_d_number, is_d_number_reference):
        with pytest.raises(InvalidInputError) as info:
            test(coeffs)
        assert (type(info.value), str(info.value)) == (exc, msg)


@st.composite
def monic_products(draw):
    """Monic polynomials of degree 1..6 with nonzero constant term: products
    of small monic factors of degree 1..3, each once or twice."""
    asc = [1]
    while True:
        room = 7 - len(asc)
        deg = draw(st.integers(1, min(3, room)))
        factor = ([draw(st.integers(-4, 4).filter(bool))]
                  + draw(st.lists(st.integers(-4, 4), min_size=deg - 1,
                                  max_size=deg - 1)) + [1])
        for _ in range(draw(st.integers(1, 2))):
            if len(asc) + deg <= 7:
                asc = poly_mul(asc, factor)
        if len(asc) == 7 or draw(st.booleans()):
            return tuple(asc)


@given(monic_products())
@settings(max_examples=200, deadline=None)
@example(p=P(1, 0, -4, 0, 2))
@example(p=P(1, 0, 0, 1, 2))
@example(p=poly_product(P(1, -5, 5), P(1, -5, 5)))
@example(p=poly_product(P(1, -2), P(1, 0, -2)))
def test_d_number_matches_ratio_oracle(p):
    # the coefficient criterion holds for any monic p with p(0) != 0; the
    # oracle reads the root ratios of the squarefree part
    want = ratio_integrality_oracle(poly_squarefree_part(p))
    assert is_d_number(p) is want, p


@given(monic_products().filter(lambda p: len(p) <= 5))
@settings(max_examples=150, deadline=None)
@example(p=P(1, -5, 5))
@example(p=P(1, -7, 14, -7))
@example(p=poly_product(P(1, -2), P(1, 0, -2)))
@example(p=poly_product(P(1, -5, 5), P(1, -5, 5)))
@example(p=poly_product(P(1, 3), P(1, 3), P(1, -2)))
def test_ratio_oracle_matches_resultant_reference(p):
    # the power-sum oracle against the resultant-interpolation reference,
    # both on the squarefree part (of degree 1-4)
    q = tuple(poly_squarefree_part(p))
    assert ratio_integrality_oracle(q) is ratio_integrality_reference(q), p


# ---------------------------------------------------------------------------
# charpoly_int / power_char_poly / largest_integer_divisor

@st.composite
def int_matrices(draw):
    """Square integer matrices of size 1-16, symmetric half the time: odd
    and even sizes, so charpoly_int's split at h = ceil(n/2) sees both."""
    n = draw(st.integers(1, 16))
    rows = [draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
            for _ in range(n)]
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)]
                for i in range(n)]
    return rows


@given(int_matrices())
@settings(max_examples=150, deadline=None)
@example(mat=[[0]])
@example(mat=[[1, 1], [1, 0]])
@example(mat=[[0, 1, 0], [1, 1, 1], [0, 1, 1]])
@example(mat=[[2, -3], [5, 0]])
@example(mat=[[0] * 2] * 2)
@example(mat=[[0] * 9] * 9)
@example(mat=[[0] * 16] * 16)
@example(mat=[[7 if i == j else 0 for j in range(8)] for i in range(8)])
@example(mat=[[16 if i == j else 0 for j in range(16)] for i in range(16)])
@example(mat=[[-3 if i == j else 0 for j in range(15)] for i in range(15)])
@example(mat=[[(i * 7 + j * 3) % 5 - 2 for j in range(16)]
              for i in range(16)])
def test_charpoly_int_matches_faddeev_leverrier_and_sympy(mat):
    got = charpoly_int(mat)
    assert got == charpoly_reference(mat)
    desc = sympy.Matrix(mat).charpoly(X).all_coeffs()
    assert got == tuple(int(v) for v in reversed(desc))


def test_charpoly_int_rejects_a_non_square_matrix():
    for mat in ([], [[1, 2]], [[1, 2], [3]]):
        with pytest.raises(InvalidInputError):
            charpoly_int(mat)


WithMinpoly = namedtuple("WithMinpoly", "minpoly")


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
           st.integers(-9, 9), min_size=n, max_size=n)),
       st.integers(1, 60))
@settings(max_examples=120, deadline=None)
@example(low=[5, -5], m=60)
@example(low=[-7, 14, -7], m=17)
def test_power_char_poly_matches_companion_powers(low, m):
    # both read only a.minpoly, which need not be irreducible for the power
    # sums to agree
    a = WithMinpoly(tuple(low + [1]))
    assert power_char_poly(a, m) == power_char_poly_reference(a, m)


def test_power_char_poly_pinned():
    lo, _ = fib_roots()
    assert power_char_poly(lo, 3) == P(1, -50, 125)
    assert power_char_poly(lo, 1) == P(1, -5, 5)
    (two,) = isolate_real_roots(P(1, -2))
    assert power_char_poly(two, 3) == P(1, -8)


def test_largest_integer_divisor_pinned():
    assert largest_integer_divisor(P(1, -50, 125)) == 5
    assert largest_integer_divisor(P(1, -8)) == 8
    assert largest_integer_divisor(P(1, -5, 5)) == 1


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_power_char_poly_contains_powered_root(a1, a0, m):
    p = (a0, a1, 1)
    if factor_over_integers(p) != [(p, 1)]:
        return
    roots = isolate_real_roots(p)
    if len(roots) != 2:
        return
    root = roots[0]
    pcp = power_char_poly(root, m)
    a, b = root.refine(Fraction(1, 10 ** 12))
    lo = min(a ** m, b ** m)
    hi = max(a ** m, b ** m)
    # certified: pcp vanishes somewhere on the powered enclosure
    assert poly_value(pcp, lo) == 0 or poly_value(pcp, hi) == 0 or \
        _count_roots_between(pcp, lo, hi) >= 1


def _count_roots_between(p, lo, hi):
    sq = squarefree_decomposition(list(p))
    total = 0
    for fac, _ in sq:
        if len(fac) < 2:
            continue
        chain = sturm_chain(fac)
        total += (varcount_at(chain, lo.numerator, lo.denominator)
                  - varcount_at(chain, hi.numerator, hi.denominator))
    return total


@given(st.integers(-9, 9), st.integers(-9, 9), st.booleans())
@settings(max_examples=60, deadline=None)
def test_lid_is_one_for_unit_constant_term(a2, a1, neg):
    c0 = -1 if neg else 1
    p = (c0, a1, a2, 1)
    assert largest_integer_divisor(p) == 1


# ---------------------------------------------------------------------------
# conjugate_stats: an oracle for the smallest and largest root, built from
# factorization, isolation and exact comparison

def conjugate_stats(p):
    """(smallest root, largest root, exact mean) of a totally real monic p."""
    if not p or p[-1] != 1:
        raise InvalidInputError("conjugate statistics require a monic "
                                "polynomial")
    if not isolate_reference(p).totally_real:
        raise InvalidInputError("polynomial is not totally real")
    mean = Fraction(-p[-2], len(p) - 1)
    lo_an = None
    hi_an = None
    for factor, _ in factor_over_integers(p):
        fivs = isolate_real_roots(factor)
        first, last = fivs[0], fivs[-1]
        if lo_an is None or first.cmp(lo_an) < 0:
            lo_an = first
        if hi_an is None or last.cmp(hi_an) > 0:
            hi_an = last
    return lo_an, hi_an, mean


def test_conjugate_stats_pinned():
    lo, hi, mean = conjugate_stats(P(1, -5, 5))
    assert abs(lo.approx_float() - 1.381966011250105) < 1e-9
    assert abs(hi.approx_float() - 3.618033988749895) < 1e-9
    assert mean == Fraction(5, 2)

    cube = poly_product(P(1, -3), P(1, -3), P(1, -3))
    lo, hi, mean = conjugate_stats(cube)
    assert lo.approx_float() == 3 and hi.approx_float() == 3
    assert mean == 3

    lo, hi, mean = conjugate_stats(P(1, -8, 8))
    assert abs(lo.approx_float() - 1.1715728752538097) < 1e-9
    assert abs(hi.approx_float() - 6.82842712474619) < 1e-9
    assert mean == 4


def test_conjugate_stats_rejects_complex_roots():
    with pytest.raises(InvalidInputError):
        conjugate_stats(P(1, 0, 1))
