"""Factorization of squarefree integer polynomials.

Pipeline: reduce modulo a small odd prime that keeps the polynomial
squarefree, split into irreducibles over that prime field (distinct-degree
plus equal-degree splitting), lift the factorization with quadratic Hensel
steps past a coefficient bound, then recombine lifted factors into true
integer factors by trial division.  Everything is deterministic: prime
choice is the smallest usable one and the equal-degree splitter draws from
a generator seeded by that prime.  No output depends on the draws, since
factor_over_integers sorts the factors.

Coefficient lists are ascending.  Inputs here are primitive, squarefree,
with positive leading coefficient; the public wrapper in algnum handles
content, sign, multiplicities and the degree cap.  Integer arithmetic on
coefficient lists is kernels'; the GF(q) and mod-m helpers here reduce
its results.
"""

import random
from itertools import combinations
from math import isqrt

from . import kernels
from ._intfactor import is_probable_prime


# ---------------------------------------------------------------------------
# arithmetic in GF(q)[x]; coefficients live in [0, q)

def _gf_norm(c, q):
    c = [x % q for x in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def _gf_monic(c, q):
    if not c or c[-1] == 1:
        return list(c)
    inv = pow(c[-1], -1, q)
    return [(x * inv) % q for x in c]


def _gf_mul(a, b, q):
    return _gf_norm(kernels.poly_mul(a, b), q)


def _gf_divmod(a, b, q):
    """(quotient, remainder) mod q; q need not be prime when b is monic."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], _gf_norm(a, q)
    inv = pow(b[-1], -1, q)
    quo = [0] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        f = (a[db + k] * inv) % q
        quo[k] = f
        if f:
            for i in range(db + 1):
                a[i + k] = (a[i + k] - f * b[i]) % q
    return _gf_norm(quo, q), _gf_norm(a[:db], q)


def _gf_gcd(a, b, q):
    a = _gf_norm(a, q)
    b = _gf_norm(b, q)
    while b:
        a, b = b, _gf_divmod(a, b, q)[1]
    return _gf_monic(a, q)


def _gf_gcdex(a, b, q):
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = _gf_norm(a, q), _gf_norm(b, q)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        quo, rem = _gf_divmod(r0, r1, q)
        r0, r1 = r1, rem
        s0, s1 = s1, _gf_sub(s0, _gf_mul(quo, s1, q), q)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(quo, t1, q), q)
    if not r0:
        raise ZeroDivisionError("gcdex of zero polynomials")
    inv = pow(r0[-1], -1, q)
    scale = lambda c: [(x * inv) % q for x in c]
    return _gf_monic(r0, q), scale(s0), scale(t0)


def _gf_sub(a, b, q):
    return _gf_norm(kernels.poly_sub(a, b), q)


def _gf_powmod(base, e, mod, q):
    out = [1]
    base = _gf_divmod(base, mod, q)[1]
    while e:
        if e & 1:
            out = _gf_divmod(_gf_mul(out, base, q), mod, q)[1]
        e >>= 1
        if e:
            base = _gf_divmod(_gf_mul(base, base, q), mod, q)[1]
    return out


# ---------------------------------------------------------------------------
# factorization over GF(q)

def _gf_factor_squarefree(f, q, rng):
    """Monic irreducible factors of monic squarefree f over GF(q), q odd."""
    out = []
    v = _gf_monic(f, q)
    h = [0, 1]
    d = 0
    while len(v) - 1 >= 1:
        d += 1
        if 2 * d > len(v) - 1:
            out.append((v, len(v) - 1))
            break
        h = _gf_powmod(h, q, v, q)
        g = _gf_gcd(_gf_sub(h, [0, 1], q), v, q)
        if len(g) > 1:
            out.append((g, d))
            v = _gf_divmod(v, g, q)[0]
            h = _gf_divmod(h, v, q)[1]
    factors = []
    for prod, d in out:
        factors.extend(_gf_split_equal_degree(prod, d, q, rng))
    factors.sort()
    return factors


def _gf_split_equal_degree(f, d, q, rng):
    """Split a product of degree-d irreducibles into its factors."""
    n = len(f) - 1
    if n == d:
        return [_gf_monic(f, q)]
    exp = (q ** d - 1) // 2
    while True:
        r = [rng.randrange(q) for _ in range(n)]
        r = _gf_norm(r, q)
        if not r:
            continue
        g = _gf_gcd(r, f, q)
        if 1 <= len(g) - 1 <= n - 1:
            break
        w = _gf_powmod(r, exp, f, q)
        g = _gf_gcd(_gf_sub(w, [1], q), f, q)
        if 1 <= len(g) - 1 <= n - 1:
            break
    rest = _gf_divmod(f, g, q)[0]
    return (_gf_split_equal_degree(g, d, q, rng)
            + _gf_split_equal_degree(rest, d, q, rng))


# ---------------------------------------------------------------------------
# integer-side helpers modulo m

def _zmod(c, m):
    return [x % m for x in c]


def _balanced(c, m):
    half = m // 2
    out = []
    for x in c:
        r = x % m
        if r > half:
            r -= m
        out.append(r)
    return kernels.normalize(out)


def _trunc_assert(c, keep, m):
    """Drop coefficients from index keep on; they must vanish mod m."""
    for x in c[keep:]:
        if x % m != 0:
            raise ArithmeticError("Hensel step degree overflow")
    return c[:keep]


def _hensel_step(m, f, g, h, s, t):
    """One quadratic lift: inputs valid mod m, outputs valid mod m*m.

    Requires f, g, h monic with f = g*h (mod m) and s*g + t*h = 1 (mod m),
    deg s < deg h, deg t < deg g.  Returns (G, H, S, T) with the same shape
    mod m*m; G and H stay exactly monic.
    """
    m2 = m * m
    e = _zmod(kernels.poly_sub(f, kernels.poly_mul(g, h)), m2)
    quo, rem = _gf_divmod(kernels.poly_mul(s, e), h, m2)
    u = _zmod(kernels.poly_add(kernels.poly_mul(t, e),
                               kernels.poly_mul(quo, g)), m2)
    u = _trunc_assert(u, len(g) - 1, m2)
    G = _zmod(kernels.poly_add(g, u), m2)
    G = G + [0] * (len(g) - len(G))
    G[len(g) - 1] = 1
    H = _zmod(kernels.poly_add(h, rem), m2)
    H = H + [0] * (len(h) - len(H))
    H[len(h) - 1] = 1
    b = _zmod(kernels.poly_sub(kernels.poly_add(kernels.poly_mul(s, G),
                                                kernels.poly_mul(t, H)),
                               [1]), m2)
    cq, cr = _gf_divmod(kernels.poly_mul(s, b), H, m2)
    S = _zmod(kernels.poly_sub(s, cr), m2)
    T = _zmod(kernels.poly_sub(kernels.poly_sub(t, kernels.poly_mul(t, b)),
                               kernels.poly_mul(cq, G)), m2)
    S = _trunc_assert(S, len(H) - 1, m2)
    T = _trunc_assert(T, len(G) - 1, m2)
    return (kernels.normalize(G), kernels.normalize(H), kernels.normalize(S),
            kernels.normalize(T))


def _hensel_lift_tree(q, f, factors, ell):
    """Lift factors (mod q) of monic f to factors mod q**ell, balanced."""
    modulus = q ** ell
    if len(factors) == 1:
        return [_balanced(_zmod(f, modulus), modulus)]
    k = len(factors) // 2
    left, right = factors[:k], factors[k:]
    g = [1]
    for fac in left:
        g = _gf_mul(g, fac, q)
    h = [1]
    for fac in right:
        h = _gf_mul(h, fac, q)
    one, s, t = _gf_gcdex(g, h, q)
    if one != [1]:
        raise ArithmeticError("lift halves are not coprime")
    g, h, s, t = list(g), list(h), list(s), list(t)
    m = q
    while m < modulus:
        g, h, s, t = _hensel_step(m, _zmod(f, m * m), g, h, s, t)
        m = m * m
    g = _balanced(_zmod(g, modulus), modulus)
    h = _balanced(_zmod(h, modulus), modulus)
    return (_hensel_lift_tree(q, g, left, ell)
            + _hensel_lift_tree(q, h, right, ell))


# ---------------------------------------------------------------------------
# driver

def _choose_prime(f):
    """Smallest odd prime keeping monic f squarefree in reduction."""
    q = 3
    fd = kernels.derivative(f)
    while True:
        if is_probable_prime(q):
            fq = _gf_norm(f, q)
            if len(fq) == len(f):
                dq = _gf_norm(fd, q)
                if dq and len(_gf_gcd(fq, dq, q)) == 1:
                    return q
        q += 2


def _mignotte_exponent(f, q):
    """Exponent l with q**l exceeding twice the factor coefficient bound."""
    n = len(f) - 1
    norm2 = isqrt(sum(c * c for c in f)) + 1
    bound = 2 * (2 ** n) * norm2 + 1
    ell = 1
    power = q
    while power < bound:
        power *= q
        ell += 1
    return ell


def _factor_monic_squarefree(f):
    """Irreducible monic integer factors of monic squarefree f, deg >= 1."""
    q = _choose_prime(f)
    rng = random.Random(q)
    modular = _gf_factor_squarefree(_gf_norm(f, q), q, rng)
    if len(modular) == 1:
        return [list(f)]
    ell = _mignotte_exponent(f, q)
    modulus = q ** ell
    lifted = _hensel_lift_tree(q, f, modular, ell)

    remaining = list(range(len(lifted)))
    current = list(f)
    found = []
    size = 1
    while 2 * size <= len(remaining):
        hit = None
        for combo in combinations(remaining, size):
            prod = [1]
            for idx in combo:
                prod = _balanced(_zmod(kernels.poly_mul(prod, lifted[idx]),
                                       modulus), modulus)
            if not prod or prod[0] == 0 or current[0] % prod[0] != 0:
                continue
            quo = kernels.div_exact(current, prod)
            if quo is not None:
                hit = (combo, prod, quo)
                break
        if hit is None:
            size += 1
            continue
        combo, prod, quo = hit
        found.append(prod)
        current = quo
        remaining = [i for i in remaining if i not in combo]
    if len(current) > 1:
        found.append(current)
    return found


def factor_squarefree_primitive(c):
    """Irreducible primitive factors (positive lead) of squarefree input c.

    c must be primitive, squarefree, positive lead, degree >= 1.  Returns a
    list of ascending coefficient lists in no particular order.
    """
    c = kernels.normalize(c)
    out = []
    if c[0] == 0:
        # squarefree: x divides c once, so c[1] != 0
        out.append([0, 1])
        c = c[1:]
        if len(c) == 1:
            return out
    lead = c[-1]
    if lead == 1:
        return out + _factor_monic_squarefree(c)
    # monicize: scale roots by the leading coefficient
    n = len(c) - 1
    monic = [c[i] * lead ** (n - 1 - i) for i in range(n)] + [1]
    for fac in _factor_monic_squarefree(monic):
        out.append(kernels.primitive_part([fac[i] * lead ** i
                                           for i in range(len(fac))]))
    return out
