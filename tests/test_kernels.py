"""Kernel correctness against independent oracles (Fraction Sylvester
matrices, sympy)."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fgap import kernels
from oracles import (low_degree_discriminant, real_root_count, resultant,
                     sturm_chain, varcount_at, varcount_inf)

X = sympy.Symbol("x")

coeff_lists = st.lists(st.integers(-30, 30), min_size=1, max_size=7)


def sylvester_resultant(a, b):
    """Independent oracle: determinant of the Sylvester matrix over Q."""
    a = kernels.normalize(a)
    b = kernels.normalize(b)
    if not a or not b:
            return 0
    da, db = len(a) - 1, len(b) - 1
    if da == 0 and db == 0:
        return 1
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    n = da + db
    rows = []
    for i in range(db):
        row = [0] * n
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(da):
        row = [0] * n
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    # fraction-free-ish Gaussian elimination over Fraction
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    assert det.denominator == 1
    return det.numerator


def to_sympy(c):
    return sum(v * X ** i for i, v in enumerate(c))


def test_normalize_strips_trailing_zeros():
    assert kernels.normalize([1, 2, 0, 0]) == [1, 2]
    assert kernels.normalize([0, 0]) == []
    assert kernels.normalize([]) == []


def test_poly_mul_known():
    # (x - 1)(x + 1) = x^2 - 1
    assert kernels.poly_mul([-1, 1], [1, 1]) == [-1, 0, 1]
    assert kernels.poly_mul([], [1, 1]) == []


def test_eval_qnum_matches_fraction_evaluation():
    rng = random.Random(5)
    for _ in range(300):
        c = [rng.randint(-20, 20) for _ in range(rng.randint(1, 6))]
        if not kernels.normalize(c):
            continue
        c = kernels.normalize(c)
        p, q = rng.randint(-15, 15), rng.randint(1, 15)
        d = len(c) - 1
        want = sum(Fraction(c[i]) * Fraction(p, q) ** i
                   for i in range(d + 1)) * Fraction(q) ** d
        assert kernels.eval_qnum(c, p, q) == want


def test_sign_variations_cases():
    assert kernels.sign_variations([1, -1, 1]) == 2
    assert kernels.sign_variations([1, 0, 1]) == 0
    assert kernels.sign_variations([1, 0, -1, 0, -2, 3]) == 2
    assert kernels.sign_variations([]) == 0


def test_sturm_counts_match_sympy_real_roots():
    rng = random.Random(11)
    for _ in range(120):
        c = kernels.normalize(
            [rng.randint(-12, 12) for _ in range(rng.randint(2, 6))])
        if len(c) < 2:
            continue
        expr = to_sympy(c)
        sym_roots = sympy.real_roots(expr)
        distinct = sorted(set(sym_roots))
        chain = sturm_chain(c)
        total = varcount_inf(chain, False) - varcount_inf(chain, True)
        assert total == len(distinct)
        assert real_root_count(c) == total
        # half-open interval counts (a, b] at a couple of rational cuts
        for a, b in ((-20, 0), (0, 20), (-3, 2)):
            want = sum(1 for r in distinct if a < r <= b)
            got = varcount_at(chain, a, 1) - varcount_at(chain, b, 1)
            assert got == want, (c, a, b)


def test_resultant_against_sylvester_oracle():
    rng = random.Random(23)
    for _ in range(250):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        assert resultant(a, b) == sylvester_resultant(a, b), (a, b)


def test_resultant_against_sympy():
    # sympy's resultant returns the same value for both argument orders,
    # so it cannot match the Sylvester-determinant sign in every case;
    # compare magnitudes here (the Sylvester oracle above pins the sign)
    rng = random.Random(37)
    for _ in range(120):
        a = kernels.normalize([rng.randint(-9, 9)
                             for _ in range(rng.randint(2, 6))])
        b = kernels.normalize([rng.randint(-9, 9)
                             for _ in range(rng.randint(2, 6))])
        if len(a) < 2 or len(b) < 2:
            continue
        want = sympy.resultant(to_sympy(a), to_sympy(b), X)
        assert abs(resultant(a, b)) == abs(want)


def test_pseudo_rem_defining_identity():
    rng = random.Random(41)
    for _ in range(200):
        a = kernels.normalize([rng.randint(-9, 9)
                             for _ in range(rng.randint(2, 7))])
        b = kernels.normalize([rng.randint(-9, 9)
                             for _ in range(rng.randint(1, 6))])
        if not a or not b or len(a) < len(b) or len(b) < 2:
            continue
        r = kernels.pseudo_rem(a, b)
        # lb^(da-db+1) * a = q*b + r for some integer q; check mod b over Q
        pa = to_sympy(a)
        pb = to_sympy(b)
        lb = b[-1]
        k = len(a) - len(b) + 1
        rem = sympy.rem(lb ** k * pa, pb, X)
        assert sympy.expand(rem - to_sympy(r)) == 0


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_resultant_swap_sign_property(a, b):
    a = kernels.normalize(a)
    b = kernels.normalize(b)
    if not a or not b:
        return
    da, db = len(a) - 1, len(b) - 1
    sign = -1 if (da % 2 == 1 and db % 2 == 1) else 1
    assert resultant(a, b) == sign * resultant(b, a)


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=40, deadline=None)
def test_resultant_multiplicative_property(a, b, c):
    a = kernels.normalize(a)
    b = kernels.normalize(b)
    c = kernels.normalize(c)
    if not a or not b or not c:
        return
    bc = kernels.poly_mul(b, c)
    assert resultant(a, bc) == resultant(a, b) * resultant(a, c)


@given(coeff_lists)
@settings(max_examples=60, deadline=None)
def test_sturm_total_count_property(c):
    c = kernels.normalize(c)
    if len(c) < 2:
        return
    chain = sturm_chain(c)
    total = varcount_inf(chain, False) - varcount_inf(chain, True)
    assert total == len(set(sympy.real_roots(to_sympy(c))))
    assert real_root_count(c) == total


@st.composite
def realness_cases(draw):
    """A polynomial of degree 1-8 with any nonzero leading coefficient:
    random coefficients, or a product of factors x - r (small integers r,
    often repeated) and x^2 + r x + s."""
    k = draw(st.integers(1, 8))
    lead = draw(st.integers(-5, 5).filter(bool))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-40, 40), min_size=k,
                             max_size=k)) + [lead]
    c = [lead]
    while len(c) <= k:
        r = draw(st.integers(-4, 4))
        if len(c) < k and draw(st.integers(0, 3)) == 0:
            c = kernels.poly_mul(c, [draw(st.integers(-3, 6)), r, 1])
        else:
            c = kernels.poly_mul(c, [-r, 1])
    return c


@settings(max_examples=400, deadline=None)
@given(realness_cases())
@example([-1, 0, 0, 0, 1])              # x^4 - 1: the 2x2 pivot is 0
@example([1, 0, 2, 0, 1])               # (x^2 + 1)^2
@example([60, -92, 51, -12, 1])         # (x - 2)^2 (x - 3)(x - 5)
@example([-120, 274, -225, 85, -15, 1])  # (x - 1)(x - 2)...(x - 5)
@example([1, -10, 0, 10, 0, -2])        # 1 - 4 T5(x/2): real-rooted, lead -2
@example([5, -5, 1])                    # x^2 - 5x + 5
@example([4, 4, -1, -1])                # -(x - 2)(x + 2)(x + 1)
def test_real_rooted_matches_sturm_count_and_sympy(c):
    k = len(c) - 1
    distinct = len(set(sympy.real_roots(to_sympy(c))))
    assert real_root_count(c) == distinct
    assert kernels.real_rooted(c) == (distinct == k)


@st.composite
def low_degree_cases(draw):
    """A quadratic or cubic with any nonzero leading coefficient: random
    coefficients, or the leading coefficient times a product of factors
    x - r over small integers r, often repeated (discriminant 0)."""
    k = draw(st.integers(2, 3))
    lead = draw(st.integers(-6, 6).filter(bool))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-40, 40), min_size=k,
                             max_size=k)) + [lead]
    c = [lead]
    for _ in range(k):
        c = kernels.poly_mul(c, [-draw(st.integers(-3, 3)), 1])
    return c


@settings(max_examples=300, deadline=None)
@given(low_degree_cases())
@example([1, 2, 1])               # (x + 1)^2: discriminant 0
@example([-4, 0, -1])             # -(x^2 + 4): no real root
@example([5, -5, 1])              # x^2 - 5x + 5
@example([-10, 10, -2])           # -2(x^2 - 5x + 5): negative lead
@example([0, 0, 0, 1])            # x^3: a triple root
@example([-4, 8, -5, 1])          # (x - 1)(x - 2)^2: a double root
@example([-6, 11, -6, 1])         # (x - 1)(x - 2)(x - 3)
@example([6, -11, 6, -1])         # the same, negated
@example([1, 0, 0, -3])           # -3x^3 + 1: one real root
def test_real_rooted_matches_the_discriminant_at_degrees_2_and_3(c):
    # Hermite's criterion agrees with the closed forms it replaced
    assert kernels.real_rooted(c) == (low_degree_discriminant(c) > 0)


@pytest.mark.parametrize("c", [[5], [-3], [0, 1], [7, -2], [-3, 5]])
def test_constants_and_linear_polynomials_are_real_rooted(c):
    # the Hankel matrix is empty (k = 0) or [[1]] (k = 1)
    assert kernels.real_rooted(c)


@st.composite
def monic_lists(draw):
    """Monic ascending coefficient lists of degree 1-8."""
    k = draw(st.integers(1, 8))
    return draw(st.lists(st.integers(-30, 30), min_size=k, max_size=k)) + [1]


@settings(max_examples=200, deadline=None)
@given(monic_lists())
@example([0, 0, 0, 1])            # x^3: every power sum is 0
@example([5, -5, 1])              # x^2 - 5x + 5
@example([-7, 14, -7, 1])         # x^3 - 7x^2 + 14x - 7
def test_from_power_sums_inverts_power_sums(c):
    k = len(c) - 1
    t = kernels.power_sums(c, k)
    assert t[0] == k
    assert kernels.from_power_sums(t) == c


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=2, max_size=7),
       st.integers(0, 12))
def test_power_sums_are_traces_of_companion_powers(c, count):
    # l times the companion matrix of c / l is an integer matrix whose
    # eigenvalues are l * root, so t_m = l**m s_m is the trace of its m-th
    # power
    c = kernels.normalize(c)
    if len(c) < 2:
        return
    k = len(c) - 1
    lead = c[-1]
    comp = sympy.zeros(k, k)
    for i in range(1, k):
        comp[i, i - 1] = lead
    for i in range(k):
        comp[i, k - 1] = -c[i]
    want = [k] + [(comp ** m).trace() for m in range(1, count + 1)]
    assert kernels.power_sums(c, count) == want


def test_from_power_sums_rejects_an_inexact_division():
    # 2 e_2 = e_1 t_1 - t_2 = 1: no integer polynomial has these sums
    with pytest.raises(ArithmeticError):
        kernels.from_power_sums([2, 1, 0])


def from_sympy(expr):
    """Ascending rational coefficients of a sympy expression in X."""
    desc = sympy.Poly(expr, X).all_coeffs()
    return kernels.normalize([Fraction(int(v.p), int(v.q))
                              for v in reversed(desc)])


@given(coeff_lists)
@settings(max_examples=80, deadline=None)
def test_derivative_matches_sympy(c):
    c = kernels.normalize(c)
    assert kernels.derivative(c) == from_sympy(sympy.diff(to_sympy(c), X))


@given(coeff_lists, coeff_lists)
@settings(max_examples=80, deadline=None)
def test_poly_add_and_sub_match_sympy(a, b):
    pa, pb = to_sympy(a), to_sympy(b)
    assert kernels.poly_add(a, b) == from_sympy(pa + pb)
    assert kernels.poly_sub(a, b) == from_sympy(pa - pb)
    assert kernels.poly_sub(a, a) == []


@given(coeff_lists, coeff_lists, st.booleans())
@settings(max_examples=120, deadline=None)
def test_div_exact_matches_sympy_div(a, b, multiple):
    b = kernels.normalize(b)
    if not b:
        return
    a = kernels.normalize(kernels.poly_mul(a, b) if multiple else a)
    quo, rem = sympy.div(to_sympy(a), to_sympy(b), X, domain="QQ")
    want = from_sympy(quo)
    exact = rem == 0 and all(v.denominator == 1 for v in want)
    got = kernels.div_exact(a, b)
    assert got == (want if exact else None), (a, b)
    if multiple:
        assert got is not None


# ---------------------------------------------------------------------------
# Taylor shift and the sign-alternation root bound

@given(coeff_lists, st.integers(-20, 20), st.integers(1, 12))
@settings(max_examples=120, deadline=None)
def test_taylor_shift_matches_sympy(c, n, d):
    c = kernels.normalize(c)
    if not c:
        return
    k = len(c) - 1
    shifted = d ** k * sympy.sympify(to_sympy(c)).subs(X, (X + n) / d)
    assert kernels.taylor_shift(c, n, d) == from_sympy(sympy.expand(shifted))


@st.composite
def rooted_products(draw):
    """lead * prod (s x - r) over integer roots r and one scale s: the
    monic integer-root product scaled to the roots r/s, any leading sign."""
    s = draw(st.integers(1, 3))
    roots = draw(st.lists(st.integers(-3, 12), min_size=1, max_size=5))
    asc = [draw(st.sampled_from([1, -1, 2, -3]))]
    for r in roots:
        asc = kernels.poly_mul(asc, [-r, s])
    d = draw(st.integers(1, 4))
    return asc, [Fraction(r, s) for r in roots], draw(
        st.integers(-4 * d, 13 * d)), d


def _rooted(roots, s, n, d, lead=1):
    asc = [lead]
    for r in roots:
        asc = kernels.poly_mul(asc, [-r, s])
    return asc, [Fraction(r, s) for r in roots], n, d


@settings(max_examples=400, deadline=None)
@given(case=rooted_products())
@example(case=_rooted([1, 3], 1, 1, 1))             # a root at 1
@example(case=_rooted([1, 1, 2], 1, 1, 1, -2))      # a double root at 1
@example(case=_rooted([4, 5, 9], 3, 4, 3))          # a root at 4/3
@example(case=_rooted([4, 4, 7], 3, 4, 3, -1))      # a double one
@example(case=_rooted([5, 9], 2, 10, 4))            # at n/d = 10/4
@example(case=_rooted([7, 7, 8, 12], 1, 14, 2))     # at n/d = 14/2
@example(case=_rooted([6, 9], 1, 11, 2))            # between the roots
def test_real_roots_above_on_integer_root_products(case):
    asc, roots, n, d = case
    point = Fraction(n, d)
    assert kernels.real_roots_above(asc, n, d, True) == \
        all(r > point for r in roots)
    assert kernels.real_roots_above(asc, n, d, False) == \
        all(r >= point for r in roots)


@st.composite
def real_cubics(draw):
    """An irreducible monic cubic with three real roots: three integer roots
    and the constant term moved by a small step."""
    roots = draw(st.lists(st.integers(-4, 14), min_size=3, max_size=3,
                          unique=True))
    asc = [1]
    for r in roots:
        asc = kernels.poly_mul(asc, [-r, 1])
    asc[0] += draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    poly = sympy.Poly(to_sympy(asc), X)
    assume(poly.is_irreducible and sympy.discriminant(poly) > 0)
    d = draw(st.integers(1, 6))
    return asc, draw(st.integers(-5 * d, 15 * d)), d


@settings(max_examples=150, deadline=None)
@given(case=real_cubics())
@example(case=([-1, -3, 0, 1], 2, 1))               # roots near -1.5, -0.3, 1.9
@example(case=([-13, 19, -8, 1], 6, 5))             # roots near 1.2, 2.6, 4.2
@example(case=([-19, 24, -9, 1], 4, 3))             # roots near 1.5, 2.7, 4.9
def test_real_roots_above_on_irreducible_cubics(case):
    asc, n, d = case
    roots = sympy.real_roots(sympy.Poly(to_sympy(asc), X))
    assert len(roots) == 3
    point = sympy.Rational(n, d)
    assert kernels.real_roots_above(asc, n, d, True) == \
        all(bool(r > point) for r in roots)
    assert kernels.real_roots_above(asc, n, d, False) == \
        all(bool(r >= point) for r in roots)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=2, max_size=6)
       .filter(lambda c: c[-1]),
       st.integers(-40, 40), st.integers(1, 40), st.integers(1, 8))
@example(c=[0, -1, 0, 1], a=-1, w=2, d=1)     # x^3 - x on (-1, 1): root 0
@example(c=[0, -1, 0, 1], a=0, w=1, d=1)      # roots at both ends of (0, 1)
@example(c=[1, 0, 1], a=-4, w=8, d=1)         # no real root, variations 2
@example(c=[6, -5, 1], a=3, w=6, d=2)         # roots 2, 3 inside (3/2, 9/2)
def test_descartes_bound_against_sympy_count(c, a, w, d):
    # the sign variations bound the roots in the open interval (a/d, b/d),
    # counted with multiplicity, share their parity, and equal them at 0 or 1
    b = a + w
    lo, hi = sympy.Rational(a, d), sympy.Rational(b, d)
    roots = sympy.real_roots(sympy.Poly(list(reversed(c)), X))
    inside = sum(1 for r in roots if lo < r < hi)
    v = kernels.descartes_bound(c, a, b, d)
    assert v >= inside and (v - inside) % 2 == 0
    if v <= 1:
        assert v == inside
