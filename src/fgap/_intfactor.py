"""Integer factorization helpers (trial division plus Pollard rho).

Deterministic: the rho walk uses a fixed constant schedule, and Miller-Rabin
runs the witness set that is proven complete below 3.3 * 10**24, falling back
to a fixed extended set above that (inputs here are coefficient-sized).
"""

from math import gcd, isqrt

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
_MR_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def is_probable_prime(n):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n):
    """One nontrivial factor of composite odd n (Brent's cycle finding)."""
    c = 1
    while True:
        x = 2
        y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n):
    """Prime factorization of n >= 1 as a dict {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # trial division with a 2,4 wheel up to a fixed bound
    d = 7
    step = 4
    while d * d <= n and d < 100000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += step
        step = 6 - step
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        f = _rho(m)
        stack.extend([f, m // f])
    return out


def square_free_part(n):
    """Return (s, m) with n = m*m*s and s squarefree, for n >= 1."""
    fac = factorize(n)
    s = 1
    m = 1
    for p, e in fac.items():
        if e % 2:
            s *= p
        m *= p ** (e // 2)
    return s, m
