"""Reference implementations the tests check the package against.

Sturm counts: sign variations of a Sturm chain (kernels.sturm_chain) at a
rational point or at an infinity; the package counts roots by Descartes
bisection and, for the gap search's degree >= 4 leaf, by
kernels.real_root_count alone.

Interval arithmetic on RatInterval: the enclosure the pair inequality was
decided by before its exact corner bounds, and the Horner enclosure of a
polynomial over an interval.
"""

from fractions import Fraction

from fgap.algnum import RatInterval
from fgap.kernels import eval_qnum, sign_variations


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
