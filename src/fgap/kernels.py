"""Integer polynomial kernels.

Coefficient lists are ascending: c[i] is the coefficient of x**i, the last
entry is nonzero (the zero polynomial is the empty list).  Everything is
exact integer arithmetic; these are the hot loops behind root isolation,
symmetric functions of roots and the search pruning, so they stay free of
Fraction objects.

This module is the one home of the coefficient-list primitives: normalize,
primitive_part, derivative, poly_add, poly_sub, poly_mul, div_exact,
pseudo_rem and taylor_shift, and of the root tests built on them:
descartes_bound (for isolation), real_roots_above, and real_rooted, the
searches' one realness decision (Hermite's criterion at every degree).
power_sums and from_power_sums are the one Newton-identity path between
coefficients and power sums of roots: characteristic polynomials, powers
of algebraic numbers, the d-number oracle and inverse square sums all go
through them.  Gcds, squarefree parts and isolation live in algnum,
arithmetic over GF(q) (these primitives reduced mod q) in _factor.  This
module imports no other fgap module.

Callers reach these functions as module attributes (`kernels.name(...)`),
so a profiler can wrap them in one place.
"""

from math import gcd

BACKEND = "pure"  # the kernel implementation, recorded in benchmark reports


def normalize(c):
    """Strip trailing zero coefficients, return a list."""
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def primitive_part(c):
    """Primitive part with positive leading coefficient."""
    c = normalize(c)
    if not c:
        return c
    g = gcd(*c)
    if c[-1] < 0:
        g = -g
    return [x // g for x in c]


def derivative(c):
    """Derivative of a coefficient list."""
    return [i * c[i] for i in range(1, len(c))]


def poly_add(a, b):
    """Sum of two coefficient lists."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] += x
    return normalize(out)


def poly_sub(a, b):
    """Difference a - b of two coefficient lists."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] -= x
    return normalize(out)


def poly_mul(a, b):
    """Product of two coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return normalize(out)


def div_exact(a, b):
    """Quotient a / b when b divides a over the integers, else None.

    Both lists are normalized and b is nonzero.
    """
    if not a:
        return []
    db = len(b) - 1
    if len(a) - 1 < db:
        return None
    lb = b[db]
    rem = list(a)
    quo = [0] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        top = rem[db + k]
        if top % lb:
            return None
        f = top // lb
        quo[k] = f
        if f:
            for i in range(db + 1):
                rem[i + k] -= f * b[i]
    if any(rem[:db]):
        return None
    return quo


def pseudo_rem(a, b):
    """Pseudo-remainder of a by b: lb**(da-db+1) * a = q*b + r, returns r.

    Requires deg a >= deg b and b nonzero.  The full power of lb is applied
    even when a reduction step is trivial, so the multiplier is exactly
    lb**(da-db+1), as the identity above states.
    """
    da = len(a) - 1
    db = len(b) - 1
    lb = b[db]
    r = list(a)
    for k in range(da - db, -1, -1):
        c = r[db + k]
        for i in range(len(r)):
            r[i] *= lb
        if c:
            for i in range(db + 1):
                r[i + k] -= c * b[i]
    del r[db:]
    return normalize(r)


def taylor_shift(c, n, d):
    """Ascending coefficients of d**k * c((x + n)/d) for k = deg c, d > 0.

    Its roots are the d*r - n over the roots r of c, so the roots of c above
    n/d become the positive roots of the shift.  The scaling is one pass,
    the shift by n the k(k+1)/2 multiply-adds of repeated synthetic division.
    """
    k = len(c) - 1
    a = list(c)
    dd = 1
    for i in range(k - 1, -1, -1):
        dd *= d
        a[i] *= dd
    for i in range(k):
        for j in range(k - 1, i - 1, -1):
            a[j] += n * a[j + 1]
    return a


def real_roots_above(c, n, d, strict):
    """Does every root of the real-rooted c exceed n/d (strict) or reach it?

    c must have only real roots (counted with multiplicity) and d > 0.  Let
    s = taylor_shift(c, n, d), of degree k and leading coefficient l; its
    roots are y = d*r - n.  Strict: every y > 0 iff s_i * l * (-1)**(k-i)
    > 0 for every i.  If every y > 0, s = l * prod(x - y) and s_i is
    l * (-1)**(k-i) times an elementary symmetric function of positive
    numbers, which is positive.  Conversely, if the signs strictly
    alternate, every coefficient of s(-x) has the sign of (-1)**k * l, so
    s(-x) has no root x >= 0 and s no root y <= 0; as s is real-rooted,
    every root is positive.  (This is Descartes' rule of signs, which is
    exact on real-rooted polynomials.)  Weak: every y >= 0 iff no s_i has
    the sign opposite to l * (-1)**(k-i); zeros are allowed.  If every
    y >= 0, s = l * x**m * prod(x - y') with every y' > 0, whose
    coefficients are the strict case's, shifted up by m places, with m
    zeros below.  Conversely, s(-x) then has every nonzero coefficient of
    one sign and a nonzero leading one, so s(-x) has no root x > 0 and s
    no root y < 0.  Both tests read s(-x), whose coefficients are
    (-1)**i s_i: weak holds iff they have no sign variation, strict iff
    in addition no s_i is zero.
    """
    s = taylor_shift(c, n, d)
    if strict and 0 in s:
        return False
    s[1::2] = [-v for v in s[1::2]]  # s(-x)
    return sign_variations(s) == 0


def descartes_bound(c, a, b, d):
    """Sign variations of c's Moebius image on (a/d, b/d), a < b, d > 0.

    s(y) = d**k c((a + (b - a) y)/d) takes the roots of c in (a/d, b/d) to
    y in (0, 1), and the reversed s shifted by 1, (1 + x)**k s(1/(1 + x)),
    takes them to x > 0.  By Descartes' rule its sign variations bound their
    number, with the same parity, so 0 and 1 are exact; a root at a/d or
    b/d zeroes an end coefficient and is not counted.
    """
    s = [v * (b - a) ** i for i, v in enumerate(taylor_shift(c, a, d))]
    return sign_variations(taylor_shift(s[::-1], 1, 1))


def eval_qnum(c, p, q):
    """Homogeneous evaluation: sum c[i] * p**i * q**(d-i) for d = deg c.

    For q > 0 the sign equals the sign of the polynomial at p/q.
    """
    d = len(c) - 1
    acc = c[d]
    qq = 1
    for i in range(d - 1, -1, -1):
        qq *= q
        acc = acc * p + c[i] * qq
    return acc


def surd_sign(x, y, n):
    """Sign of x + y*sqrt(n) for integers x, y and n >= 0, where n is not a
    perfect square unless y == 0 (so x + y*sqrt(n) == 0 only if x == y == 0).
    """
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0)
    if sy == 0 or sx == sy:
        return sx
    if sx == 0:
        return sy
    # opposite signs: the larger of x^2 and y^2 n wins (they never tie)
    return sx if x * x > y * y * n else sy


def eval_surd(c, a, b, n, d):
    """Homogeneous evaluation at the surd (a + b*sqrt(n))/d, d > 0.

    Returns integers (x, y) with d**deg * c((a + b sqrt n)/d) = x + y sqrt n,
    so surd_sign(x, y, n) is the sign of c at that point.
    """
    deg = len(c) - 1
    x, y = c[deg], 0
    dd = 1
    for i in range(deg - 1, -1, -1):
        dd *= d
        x, y = x * a + y * b * n + c[i] * dd, x * b + y * a
    return x, y


def sign_variations(vals):
    """Number of sign changes in a sequence, zeros skipped."""
    count = 0
    prev = 0
    for v in vals:
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def real_rooted(c):
    """Does c, of degree k, have k distinct real roots?

    Hermite's criterion at every degree: the roots are real and distinct
    iff the Hankel matrix H[i][j] = s_(i+j) (0 <= i, j < k) of their power
    sums s_m is positive definite (Basu, Pollack and Roy, Algorithms in Real
    Algebraic Geometry, 4.3: its signature counts the distinct real roots,
    its rank the distinct roots).  With l the leading coefficient,
    power_sums gives the integers t_m = l**m s_m, and the Hankel matrix of
    the t_m is diag(l**i) H diag(l**i), whose leading principal minors have
    the signs of H's.  Fraction-free (Bareiss) elimination leaves those
    minors as its pivots; the first pivot <= 0 decides False.  A constant
    has the empty matrix and a linear c the 1x1 matrix [1], so both are
    real-rooted.
    """
    k = len(c) - 1
    t = power_sums(c, 2 * k - 2)
    a = [t[i:i + k] for i in range(k)]
    prev = 1
    for p in range(k):
        piv = a[p][p]
        if piv <= 0:
            return False
        row_p = a[p]
        for i in range(p + 1, k):
            row = a[i]
            f = row[p]
            for j in range(p + 1, k):
                row[j] = (row[j] * piv - f * row_p[j]) // prev
        prev = piv
    return True


def power_sums(c, count):
    """[t_0, ..., t_count] with t_m = l**m * s_m, s_m the m-th power sum of
    the roots of c (with multiplicity) and l its leading coefficient.

    Newton's identities times l**m: t_0 = k = deg c and t_m = -(m c[k-m]
    l**(m-1) + sum_(i=1..min(m-1,k)) c[k-i] l**(i-1) t_(m-i)), the first
    term only while m <= k.  Every t_m is an integer, because l * root is
    an algebraic integer.
    """
    k = len(c) - 1
    t = [k]
    lpow = [1]
    for _ in range(min(k, count) - 1):
        lpow.append(lpow[-1] * c[k])
    for m in range(1, count + 1):
        acc = m * c[k - m] * lpow[m - 1] if m <= k else 0
        for i in range(1, min(m - 1, k) + 1):
            acc += c[k - i] * lpow[i - 1] * t[m - i]
        t.append(-acc)
    return t


def from_power_sums(t):
    """Ascending coefficients of the monic polynomial of degree n = len(t)
    - 1 whose roots have the power sums t[1..n] (t[0] is unused).

    Newton's identities m e_m = sum_(i=1..m) (-1)**(i-1) e_(m-i) t_i, with
    the coefficient of x**(n-m) being (-1)**m e_m.  Raises ArithmeticError
    when a division by m is inexact, so no such integer polynomial exists.
    """
    n = len(t) - 1
    a = [1]  # a[m] = (-1)**m e_m, the coefficient of x**(n-m)
    for m in range(1, n + 1):
        acc = sum(a[m - i] * t[i] for i in range(1, m + 1))
        if acc % m:
            raise ArithmeticError("inexact division in Newton's identities")
        a.append(-acc // m)
    return a[::-1]
