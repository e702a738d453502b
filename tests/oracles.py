"""Reference implementations the tests check the package against.

Sturm counts: a Sturm chain of primitive integer polynomials
(sturm_chain) and its sign variations at a rational point or at an
infinity; the package counts roots by Descartes bisection and decides
realness by Hermite's criterion (kernels.real_rooted), and builds no chain.

Interval arithmetic on RatInterval: the enclosure the pair inequality was
decided by before its exact corner bounds, and the Horner enclosure of a
polynomial over an interval.

The appendix searches' plans on Surd arithmetic, with divisors by trial
division: the package computes the same window bounds on integer pairs and
lists divisors from a factorization.

IntPoly values and products: the package evaluates on integers
(kernels.eval_qnum) and multiplies coefficient lists (kernels.poly_mul).
"""

from fractions import Fraction
from math import isqrt

from fgap.algnum import IntPoly, RatInterval
from fgap.kernels import (derivative, eval_qnum, int_content, normalize,
                          poly_mul, pseudo_rem, sign_variations)


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
    g = int_content(c)
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


def iv_add(a, b):
    return RatInterval(a.lo + b.lo, a.hi + b.hi)


def iv_sub(a, b):
    return RatInterval(a.lo - b.hi, a.hi - b.lo)


def iv_mul(a, b):
    cands = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return RatInterval(min(cands), max(cands))


def iv_scale(a, f):
    f = Fraction(f)
    if f >= 0:
        return RatInterval(a.lo * f, a.hi * f)
    return RatInterval(a.hi * f, a.lo * f)


def iv_inv(a):
    """1/a for an interval that excludes 0."""
    assert a.lo > 0 or a.hi < 0
    return RatInterval(1 / a.hi, 1 / a.lo)


def iv_horner(asc, iv):
    """Enclosure of the polynomial asc over iv by interval Horner steps."""
    acc = RatInterval(asc[-1], asc[-1])
    for c in reversed(asc[:-1]):
        acc = iv_add(iv_mul(acc, iv), RatInterval(c, c))
    return acc


def pair_enclosure(iv1, iv3):
    """Interval enclosure of 1/d1^2 + 1/d3^2 - 1/(2 d3) - 1/2 over d1 in iv1
    and d3 in iv3 (positive intervals), each 1/d3 term taken apart."""
    inv1 = iv_inv(iv1)
    inv3 = iv_inv(iv3)
    half = RatInterval(Fraction(1, 2), Fraction(1, 2))
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
    r_lo = cfg.d_lo.approx(Fraction(1, 10 ** 20)).lo
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


def poly_value(poly, x):
    """The IntPoly poly at an int or Fraction x, by Horner."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def poly_product(*polys):
    """The product of IntPolys."""
    acc = [1]
    for p in polys:
        acc = poly_mul(acc, list(p.coeffs))
    return IntPoly(acc)
