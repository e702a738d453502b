"""Reference implementations the tests check the package against.

Sturm counts: a Sturm chain of primitive integer polynomials
(sturm_chain) and its sign variations at a rational point, at a surd or at
an infinity, and the isolation and bisection of intervals (lo, hi] on those
counts; the package counts roots by Descartes bisection and decides
realness by Hermite's criterion (kernels.real_rooted), and builds no chain.
The discriminants of quadratics and cubics, whose sign real_rooted read
through degree 3 before Hermite's criterion took every degree.

Interval arithmetic on plain (lo, hi) pairs of Fractions: the enclosure
the pair inequality was decided by before its exact corner bounds, and the
Horner enclosure of a polynomial over an interval.

The appendix searches' plans on Surd arithmetic, with divisors by trial
division: the package computes the same window bounds on integer pairs and
lists divisors from a factorization.

Polynomial values and products by Horner and repeated poly_mul: the
package evaluates on integers (kernels.eval_qnum) and multiplies
coefficient lists (kernels.poly_mul).

Symmetric functions of roots by other routes than the package's power sums
(kernels.power_sums and kernels.from_power_sums): the subresultant PRS
resultant, the ratio test on the interpolated resultant
Res_y(p(y), p(x y)), Faddeev-LeVerrier characteristic polynomials and
powers of the companion matrix.

The coefficient walk's derivative prefixes by nested loops over the
falling factorials: the package reads the same multipliers from its
per-depth plan (gapsearch._DepthPlan).  Its depth-2 critical bounds by
Horner passes in Z[sqrt(disc)] at the two critical points, as the walk
took them before it wrote the critical values in closed form.  Its range
at one node by dot products over the whole prefix (node_range): the
package computes a node's child ranges as one row, stepping each affine
bound by addition from sibling to sibling.

The d-number criterion as one all(...) over fresh powers a_n^i: the
package builds the powers as it goes and stops at the first failure.

The Perron vector's power iteration with its sums written over indices,
as fp_dimension_vector ran it before its dot products went through
map(mul, ...): the package must return the same floats bit for bit.
"""

from fractions import Fraction
from math import gcd, isqrt
from operator import mul

from fgap import kernels
from fgap.algnum import (DEGREE_CAP, _cauchy_bound, _floor_root,
                         isolate_real_roots)
from fgap.errors import DegreeCapError, InvalidInputError
from fgap.gapsearch import _interval_eval
from fgap.kernels import (derivative, eval_qnum, eval_surd, normalize,
                          poly_mul, pseudo_rem, sign_variations, surd_sign)


def sturm_chain(c):
    """Sturm chain of c as primitive integer polynomials.

    Uses pseudo-remainders with the sign corrected so each element is a
    positive multiple of the exact Sturm sequence entry.
    """
    p0 = normalize(c)
    if len(p0) <= 1:
        return [p0] if p0 else []
    chain = [_primitive(p0), _primitive(derivative(p0))]
    while True:
        a, b = chain[-2], chain[-1]
        if len(b) <= 1 or len(a) < len(b):
            break
        r = pseudo_rem(a, b)
        if not r:
            break
        # pseudo_rem scales by lb**(delta+1); undo its sign so the chain
        # keeps the Sturm sign pattern
        lb = b[-1]
        delta = len(a) - len(b)
        if lb < 0 and (delta + 1) % 2 == 1:
            sgn = -1
        else:
            sgn = 1
        nxt = _primitive([-x * sgn for x in r])
        chain.append(nxt)
        if len(nxt) <= 1:
            break
    return chain


def _primitive(c):
    g = gcd(*c)
    if g > 1:
        return [x // g for x in c]
    return list(c)


def real_root_count(c):
    """Number of distinct real roots of c: the sign changes of its Sturm
    chain at -infinity (where an element of odd degree has the sign
    opposite to its lead) less those at +infinity."""
    chain = sturm_chain(c)
    at_minus = [e[-1] if len(e) % 2 else -e[-1] for e in chain]
    return (sign_variations(at_minus)
            - sign_variations([e[-1] for e in chain]))


def low_degree_discriminant(c):
    """Discriminant of a quadratic or cubic with ascending coefficients c,
    any nonzero leading coefficient: positive iff the roots are real and
    distinct.  a1^2 - 4 a2 a0 for the quadratic, and for the cubic
    18 a3 a2 a1 a0 - 4 a2^3 a0 + a2^2 a1^2 - 4 a3 a1^3 - 27 a3^2 a0^2."""
    if len(c) == 3:
        a0, a1, a2 = c
        return a1 * a1 - 4 * a2 * a0
    a0, a1, a2, a3 = c
    return (18 * a3 * a2 * a1 * a0 - 4 * a2 ** 3 * a0 + a2 * a2 * a1 * a1
            - 4 * a3 * a1 ** 3 - 27 * a3 * a3 * a0 * a0)


def varcount_at(chain, p, q):
    """Sign variations of a Sturm chain at the rational p/q (q > 0)."""
    return sign_variations([eval_qnum(c, p, q) for c in chain])


def varcount_inf(chain, positive):
    """Sign variations of a chain at +infinity (positive, truthy) or
    -infinity."""
    vals = []
    for c in chain:
        lead = c[-1]
        if positive:
            vals.append(lead)
        else:
            vals.append(lead if (len(c) - 1) % 2 == 0 else -lead)
    return sign_variations(vals)


def varcount_at_surd(chain, a, b, n, d):
    """Sign variations of a Sturm chain at the surd (a + b*sqrt(n))/d: the
    count AlgebraicNumber.cmp read before its one sign evaluation."""
    return sign_variations([surd_sign(*eval_surd(c, a, b, n, d), n)
                            for c in chain])


def isolate_sturm(c, chain=None):
    """The Sturm isolator the package ran before Descartes bisection.

    Bisects (-B, B] at midpoints (a root at a midpoint goes left), counts
    the roots of the squarefree c in each half by Sturm variations, keeps a
    node with exactly one and drops one with none.  Returns (ascending
    intervals, chain).
    """
    if chain is None:
        chain = sturm_chain(c)
    bound = _cauchy_bound(c)
    out = []
    stack = [(Fraction(-bound), Fraction(bound))]
    while stack:
        lo, hi = stack.pop()
        k = (varcount_at(chain, lo.numerator, lo.denominator)
             - varcount_at(chain, hi.numerator, hi.denominator))
        if k == 1:
            out.append((lo, hi))
        elif k > 1:
            m = (lo + hi) / 2
            stack.append((m, hi))
            stack.append((lo, m))
    return out, chain


def interval(root):
    """The isolating interval of an AlgebraicNumber as Fractions (lo, hi)."""
    return Fraction(root.lo, root.den), Fraction(root.hi, root.den)


def mid(iv):
    """The midpoint of an interval (lo, hi)."""
    return (iv[0] + iv[1]) / 2


def sturm_shrink(chain, iv):
    """Halve an isolating interval (lo, hi) by one Sturm count, keeping the
    unique root in (lo, hi]: the bisection src ran before refine became the
    one way to shrink an interval."""
    lo, hi = iv
    m = mid(iv)
    if (varcount_at(chain, lo.numerator, lo.denominator)
            - varcount_at(chain, m.numerator, m.denominator)) == 1:
        return lo, m
    return m, hi


def sturm_refine(chain, iv, width):
    """iv halved by sturm_shrink until its width is at most width."""
    while iv[1] - iv[0] > width:
        iv = sturm_shrink(chain, iv)
    return iv


def iv_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def iv_sub(a, b):
    return a[0] - b[1], a[1] - b[0]


def iv_mul(a, b):
    cands = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(cands), max(cands)


def iv_scale(a, f):
    f = Fraction(f)
    if f >= 0:
        return a[0] * f, a[1] * f
    return a[1] * f, a[0] * f


def iv_inv(a):
    """1/a for an interval that excludes 0."""
    assert a[0] > 0 or a[1] < 0
    return 1 / Fraction(a[1]), 1 / Fraction(a[0])


def iv_horner(asc, iv):
    """Enclosure of the polynomial asc over iv by interval Horner steps."""
    acc = (asc[-1], asc[-1])
    for c in reversed(asc[:-1]):
        acc = iv_add(iv_mul(acc, iv), (c, c))
    return acc


def pair_enclosure(iv1, iv3):
    """Interval enclosure of 1/d1^2 + 1/d3^2 - 1/(2 d3) - 1/2 over d1 in iv1
    and d3 in iv3 (positive intervals), each 1/d3 term taken apart."""
    inv1 = iv_inv(iv1)
    inv3 = iv_inv(iv3)
    half = (Fraction(1, 2), Fraction(1, 2))
    return iv_sub(iv_sub(iv_add(iv_mul(inv1, inv1), iv_mul(inv3, inv3)),
                         iv_scale(inv3, Fraction(1, 2))), half)


def divisors(n):
    """Sorted divisors of n >= 1 by trial division up to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def quad_plan_reference(cfg):
    """[(a, in-window divisors b of a^2)] for the quadratic search, each b
    window end s*a - s^2 built as a Surd and rounded by Surd.ceil (no budget
    count)."""
    plan = []
    for a in range(3, cfg.a_max + 1):
        if "window" in cfg.drop:
            blo, bhi = 1, a * a
        else:
            half_a = Fraction(a, 2)
            if cfg.d_lo.cmp(half_a) >= 0:
                continue
            blo = (cfg.d_lo * Fraction(a) - cfg.d_lo * cfg.d_lo).ceil()
            if cfg.d_hi.cmp(half_a) <= 0:
                bhi = (cfg.d_hi * Fraction(a) - cfg.d_hi * cfg.d_hi).ceil() - 1
            else:
                bhi = (a * a - 1) // 4
        plan.append((a, [b for b in divisors(a * a) if blo <= b <= bhi]))
    return plan


def cubic_plan_reference(cfg):
    """[(a, b, c values)] for the cubic search, each c window end
    s^3 - a s^2 + b s built as a Surd and rounded by Surd.ceil (no budget
    count)."""
    drop_window = "window" in cfg.drop
    lo1, lo2 = cfg.d_lo, cfg.d_lo * cfg.d_lo
    hi1, hi2 = cfg.d_hi, cfg.d_hi * cfg.d_hi
    lo3, hi3 = lo2 * lo1, hi2 * hi1
    r_lo = cfg.d_lo.approx(Fraction(1, 10 ** 20))[0]
    plan = []
    for a in range(1, cfg.a_max + 1):
        lo_base = lo3 - lo2 * a
        hi_base = hi3 - hi2 * a
        if drop_window:
            divs = divisors(a ** 3)
        for b in range(1, a * a // 3 + 1):
            if drop_window:
                c_min = r_lo * (r_lo * (r_lo - a) + b)
                c_iter = [c for c in divs if c >= c_min]
            else:
                c_lo = max(1, (lo_base + lo1 * b).ceil())
                c_hi = (hi_base + hi1 * b).ceil() - 1
                c_iter = range(c_lo, c_hi + 1)
            plan.append((a, b, c_iter))
    return plan


def poly_value(asc, x):
    """The polynomial with ascending coefficients asc at an int or Fraction
    x, by Horner."""
    acc = 0
    for c in reversed(asc):
        acc = acc * x + c
    return acc


def poly_product(*polys):
    """The product of ascending coefficient sequences, as a tuple."""
    acc = [1]
    for p in polys:
        acc = poly_mul(acc, list(p))
    return tuple(acc)


def resultant(a, b):
    """Resultant of two integer polynomials via the subresultant PRS.

    Returns 0 when either input is zero or when they share a factor.
    """
    a = normalize(a)
    b = normalize(b)
    if not a or not b:
        return 0
    da = len(a) - 1
    db = len(b) - 1
    if da == 0 and db == 0:
        return 1
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    s = 1
    if da < db:
        a, b = b, a
        if (da & 1) and (db & 1):
            s = -s
    ca = gcd(*a)
    cb = gcd(*b)
    a = [x // ca for x in a]
    b = [x // cb for x in b]
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    g = 1
    h = 1
    while True:
        da = len(a) - 1
        db = len(b) - 1
        delta = da - db
        if (da & 1) and (db & 1):
            s = -s
        # pseudo_rem applies the full lb**(da-db+1), which the PRS needs
        r = pseudo_rem(a, b)
        if not r:
            return 0
        a = b
        divisor = g * h ** delta
        b = [x // divisor for x in r]
        g = a[-1]
        if delta > 0:
            h = g ** delta // h ** (delta - 1)
        if len(b) == 1:
            da = len(a) - 1
            return s * t * (b[0] ** da // h ** (da - 1))


def ratio_integrality_reference(p):
    """Are all root ratios of the monic squarefree p (ascending
    coefficients, p(0) != 0) algebraic integers?

    Builds S(x) = Res_y(p(y), p(x*y)), whose roots are exactly the pairwise
    root ratios, by evaluation at n^2 + 1 integer points and exact
    interpolation.  All ratios are algebraic integers iff every irreducible
    factor of the primitive part of S is monic, which happens iff its
    leading coefficient is +-1 (leading coefficients of primitive factors
    multiply).
    """
    n = len(p) - 1
    if n == 1:
        return True
    xs = list(range(1, n * n + 2))
    base = list(p)
    ys = [resultant(base, [base[i] * t ** i for i in range(len(base))])
          for t in xs]
    s_coeffs = normalize(_interpolate_int(xs, ys))
    return abs(s_coeffs[-1]) == gcd(*s_coeffs)


def _interpolate_int(xs, ys):
    """Exact interpolation through integer points; asserts integer output."""
    n = len(xs)
    coef = [Fraction(y) for y in ys]  # Newton divided differences
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * n
    acc = [Fraction(1)]  # running product (x - x0)...(x - xk)
    for k in range(n):
        for i, a in enumerate(acc):
            poly[i] += coef[k] * a
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i] -= a * xs[k]
            nxt[i + 1] += a
        acc = nxt
    out = []
    for f in poly:
        if f.denominator != 1:
            raise ArithmeticError("interpolation produced a non-integer")
        out.append(f.numerator)
    return out


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def charpoly_reference(mat):
    """Characteristic polynomial of a square integer matrix, an ascending
    tuple, by the Faddeev-LeVerrier recurrence M_1 = A, c_1 = -tr A,
    M_k = A (M_(k-1) + c_(k-1) I), c_k = -tr(M_k) / k."""
    n = len(mat)
    desc = [1]
    m = [list(row) for row in mat]
    ck = -sum(m[i][i] for i in range(n))
    desc.append(ck)
    for k in range(2, n + 1):
        for i in range(n):
            m[i][i] += ck
        m = _matmul(mat, m)
        tr = sum(m[i][i] for i in range(n))
        if tr % k != 0:
            raise ArithmeticError("inexact trace division")
        ck = -tr // k
        desc.append(ck)
    return tuple(reversed(desc))


def power_char_poly_reference(a, m):
    """Monic polynomial whose roots are the m-th powers of the roots of the
    algebraic number a's minpoly: the Faddeev-LeVerrier characteristic
    polynomial of the m-th power of its companion matrix, by repeated
    squaring."""
    c = a.minpoly
    n = len(c) - 1
    comp = [[0] * n for _ in range(n)]
    for i in range(1, n):
        comp[i][i - 1] = 1
    for i in range(n):
        comp[i][n - 1] = -c[i]
    acc = None
    base = comp
    while m:
        if m & 1:
            acc = base if acc is None else _matmul(acc, base)
        m >>= 1
        if m:
            base = _matmul(base, base)
    return charpoly_reference(acc)


def is_d_number_reference(p):
    """algnum.is_d_number with the coefficient criterion as one all(...)
    over fresh powers, and the same checks and messages in the same
    order."""
    c = tuple(p)
    n = len(c) - 1
    if n < 0 or c[n] != 1:
        raise InvalidInputError("d-number test requires a monic polynomial")
    if n < 1 or c[0] == 0:
        raise InvalidInputError("d-number test requires degree >= 1 and a "
                                "nonzero constant term")
    if n > DEGREE_CAP:
        raise DegreeCapError("degree %d exceeds the d-number test's cap of %d"
                             % (n, DEGREE_CAP))
    return all(c[n - i] ** n % c[0] ** i == 0 for i in range(1, n))


def _deriv_prefix(prefix, k):
    """Ascending coefficients of P^(k-j) for the descending prefix."""
    j = len(prefix) - 1
    asc = [0] * (j + 1)
    for i, si in enumerate(prefix):
        c = si
        for v in range(j - i + 1, k - i + 1):
            c *= v
        asc[j - i] = c
    return asc


def depth2_critical_bounds_reference(w, deriv, bcoef):
    """The bounds (lo, hi) that the critical points of a depth-2 node put on
    the next coefficient s, or None when deriv has no two distinct real
    roots.  w is the node's cubic with zero constant term and deriv = w'
    (both ascending); the child is w + bcoef*s.

    The critical points are (-c1 -+ sqrt(disc))/(2 c2) for deriv = c0 + c1 x
    + c2 x^2, written over the positive denominator 2|c2|; the first bounds
    s from below by ceil(-w/bcoef), the second from above by floor(-w/bcoef).
    Each value is d^3 w = x + y sqrt(disc) (kernels.eval_surd), rounded by
    one floor of y sqrt(disc) and one floor division."""
    c0, c1, c2 = deriv
    disc = c1 * c1 - 4 * c2 * c0
    if disc <= 0:
        return None
    a, b, d = (-c1, -1, 2 * c2) if c2 > 0 else (c1, 1, -2 * c2)
    mod = d ** 3 * bcoef
    x, y = eval_surd(w, a, b, disc, d)
    lo = -((x + _floor_root(y, disc)) // mod)
    x, y = eval_surd(w, a, -b, disc, d)
    hi = (-x + _floor_root(-y, disc)) // mod
    return lo, hi


def node_range(prefix, plan):
    """The walk's integer range [lo, hi] of the next descending coefficient
    below the node prefix, computed for that node alone: every linear
    bound's N is a dot product over the whole prefix, the depth-2 closed
    form takes A, B and C afresh, and the other depths build deriv and w,
    test Rolle and isolate as gapsearch._child_ranges does.
    plan is the _DepthPlan of the depth len(prefix) - 1.  The row
    _child_ranges(prefix, coeffs, plan) must yield node_range(prefix + [s],
    plan) for each s in coeffs, in order."""
    j = plan.j
    lo, hi = plan.envelope
    # N + m*t >= 0 for each linear bound
    for weights, m, offset in plan.bounds:
        num = sum(map(mul, prefix, weights)) + offset
        if m > 0:
            bound = -(num // m)
            if bound > lo:
                lo = bound
        else:
            bound = num // -m
            if bound < hi:
                hi = bound

    # interior alternation at the critical points (roots of P^(k-j))
    if j == 2 and lo <= hi:
        # the critical values of w = a x^3 + b x^2 + c x in closed form
        a, b, c = map(mul, prefix, plan.w_mul)
        d = b * b - 3 * a * c
        if d > 0:
            x = b * (2 * b * b - 9 * a * c)
            root = isqrt(4 * d ** 3)
            q = 27 * a * a * plan.bcoef
            bound = -((x + root) // q)
            if bound > lo:
                lo = bound
            bound = (root - x) // q
            if bound < hi:
                hi = bound
    elif j and lo <= hi:
        bcoef = plan.bcoef
        deriv = list(map(mul, prefix, plan.deriv_mul))
        deriv.reverse()
        w = list(map(mul, prefix, plan.w_mul))
        w.append(0)
        w.reverse()
        # Rolle: without j distinct real critical points no leaf survives
        # (always true at j = 1)
        if not kernels.real_rooted(deriv):
            return 1, 0
        for t, x in enumerate(isolate_real_roots(deriv), start=1):
            enc_lo, enc_hi = _interval_eval(w, x)
            mod = x.den ** (j + 1) * bcoef
            if (j + 1 - t) % 2 == 0:
                bound = -(enc_hi // mod)
                if bound > lo:
                    lo = bound
            else:
                bound = (-enc_lo) // mod
                if bound < hi:
                    hi = bound
    return lo, hi


def fp_power_iteration_reference(ring, iterations=20000):
    """Float Perron vector of B = sum_i N_i by power iteration, normalized
    to v[0] = 1, each entry of B v a generator sum over ascending k."""
    r = ring.rank
    b = [[sum(ring.N[i][j][k] for i in range(r)) for k in range(r)]
         for j in range(r)]
    v = [1.0] * r
    last = 0.0
    for _ in range(iterations):
        w = [sum(b[j][k] * v[k] for k in range(r)) for j in range(r)]
        norm = max(abs(x) for x in w)
        v = [x / norm for x in w]
        if abs(norm - last) <= 1e-16 * norm:
            break
        last = norm
    return [x / v[0] for x in v]
