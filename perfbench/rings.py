"""Seeded ring stream for the ring_batch workload, and its output oracle.

The deck is a fixed list of slots; the seed fills each slot's free
parameter and relabels the non-unit basis elements, so every seed yields
other ring files with the same rank profile and the same number of
quadratic codegree orbits.  That keeps the request mix, and with it the
latency percentiles, comparable across seeds.

The oracle never calls fgap: Z = sum_i N_i N_i^T is built with numpy from
the benchmark's own structure tensor, its characteristic polynomial comes
from sympy and its eigenvalues from numpy.  The obstruction battery's lines
(orbit checks, `global` checks, surviving orbits, verdict) do not depend on
the basis order, so they are compared with the battery the unchanged
program printed for the unrelabeled ring, stored per ring label in
perfbench/expected/ring_battery.txt (see capture_expected.py).
"""

import random
from math import isqrt

# Slots in latency order, as (family, size, fixed k or None).  A deck makes
# 30 analyze requests plus 25 dnumber requests (one per quadratic orbit).
# The 0.5 quantile falls among the rank-2 analyze requests and the 0.9
# quantile in the middle of the six rank-8 requests, away from a jump
# between latency classes.  The rank-16 ring takes about a third of a deck
# and its cost grows with k, so its k is fixed; other slots draw theirs.
DECK = (
    [("kn", 2, None)] * 8
    + [("neargroup", 2, None)] * 4          # rank 3
    + [("neargroup", 3, None)] * 4          # rank 4
    + [("cyclic", 3, None), ("cyclic", 4, None), ("cyclic", 5, None)]
    + [("kn_x_cyclic", 2, None)] * 2        # rank 4
    + [("neargroup", 7, None), ("neargroup", 7, None),
       ("kn_x_cyclic", 4, None), ("kn_x_cyclic", 4, None),
       ("cyclic", 8, None), ("z2_x_cyclic", 4, None)]
    + [("neargroup", 11, None), ("kn_x_cyclic", 6, None),
       ("neargroup", 15, 1)]
)


class Ring:
    """A based ring given by its structure tensor N[i][j][k] and duality."""

    __slots__ = ("label", "rank", "dual", "N")

    def __init__(self, label, dual, tensor):
        self.label = label
        self.rank = len(dual)
        self.dual = list(dual)
        self.N = tensor

    def text(self):
        """The ring file, in the format `fgap analyze` reads."""
        lines = ["rank %d" % self.rank,
                 "dual " + " ".join(map(str, self.dual))]
        for i in range(self.rank):
            for j in range(self.rank):
                lines.append("N %d %d : %s"
                             % (i, j, " ".join(map(str, self.N[i][j]))))
        return "\n".join(lines) + "\n"


def _empty(r):
    return [[[0] * r for _ in range(r)] for _ in range(r)]


def kn(n):
    """K_n: basis 1, X with X^2 = 1 + nX."""
    t = _empty(2)
    t[0][0][0] = t[0][1][1] = t[1][0][1] = t[1][1][0] = 1
    t[1][1][1] = n
    return Ring("K_%d" % n, [0, 1], t)


def cyclic(m):
    """Group ring of Z_m."""
    t = _empty(m)
    for a in range(m):
        for b in range(m):
            t[a][b][(a + b) % m] = 1
    return Ring("Z_%d" % m, [(-a) % m for a in range(m)], t)


def neargroup(n, k):
    """Near-group Z_n + k: gX = Xg = X, X^2 = sum of g plus kX."""
    base = cyclic(n)
    r = n + 1
    t = _empty(r)
    for a in range(n):
        for b in range(n):
            t[a][b][:n] = base.N[a][b]
        t[a][n][n] = t[n][a][n] = 1
        t[n][n][a] = 1
    t[n][n][n] = k
    return Ring("Z_%d+%d" % (n, k), base.dual + [n], t)


def tensor(x, y):
    """Product ring with basis pairs (i, j) at index i * rank(y) + j."""
    ry = y.rank
    r = x.rank * ry
    t = _empty(r)
    for i1 in range(x.rank):
        for i2 in range(ry):
            for j1 in range(x.rank):
                for j2 in range(ry):
                    row = t[i1 * ry + i2][j1 * ry + j2]
                    for k1 in range(x.rank):
                        a = x.N[i1][j1][k1]
                        if a:
                            for k2 in range(ry):
                                row[k1 * ry + k2] = a * y.N[i2][j2][k2]
    dual = [x.dual[i1] * ry + y.dual[i2]
            for i1 in range(x.rank) for i2 in range(ry)]
    return Ring("%s*%s" % (x.label, y.label), dual, t)


def relabel(ring, perm):
    """Same ring with basis element b renamed perm[b]; perm[0] == 0."""
    r = ring.rank
    t = _empty(r)
    for i in range(r):
        for j in range(r):
            for k in range(r):
                t[perm[i]][perm[j]][perm[k]] = ring.N[i][j][k]
    dual = [0] * r
    for i in range(r):
        dual[perm[i]] = perm[ring.dual[i]]
    return Ring(ring.label, dual, t)


def _irrational_k(rng, n):
    """k >= 1 with k^2 + 4n not a square: the X orbit stays quadratic."""
    while True:
        k = rng.randrange(1, 13)
        d = k * k + 4 * n
        if isqrt(d) ** 2 != d:
            return k


def every_ring():
    """Every ring make_deck can draw, unrelabeled, in a fixed order."""
    out = [kn(n) for n in range(1, 41)]
    for n in sorted({size for family, size, k in DECK
                     if family == "neargroup" and k is None}):
        out += [neargroup(n, k) for k in range(1, 13)
                if isqrt(k * k + 4 * n) ** 2 != k * k + 4 * n]
    out += [neargroup(size, k) for family, size, k in DECK
            if family == "neargroup" and k is not None]
    out += [cyclic(size) for family, size, k in DECK if family == "cyclic"]
    for size in sorted({size for family, size, k in DECK
                        if family == "kn_x_cyclic"}):
        out += [tensor(kn(n), cyclic(size)) for n in range(1, 41)]
    out += [tensor(cyclic(2), cyclic(size)) for family, size, k in DECK
            if family == "z2_x_cyclic"]
    return out


def make_deck(seed):
    """The seeded deck of rings, in slot order."""
    rng = random.Random(seed)
    deck = []
    for family, size, k in DECK:
        if family == "kn":
            ring = kn(rng.randrange(1, 41))
        elif family == "neargroup":
            ring = neargroup(size, k or _irrational_k(rng, size))
        elif family == "cyclic":
            ring = cyclic(size)
        elif family == "kn_x_cyclic":
            ring = tensor(kn(rng.randrange(1, 41)), cyclic(size))
        else:
            ring = tensor(cyclic(2), cyclic(size))
        perm = list(range(1, ring.rank))
        rng.shuffle(perm)
        deck.append(relabel(ring, [0] + perm))
    return deck


# ---------------------------------------------------------------------------
# oracle

def parse_poly(text):
    """Descending integer coefficients of fgap's 'x^2 - 5x + 5' form."""
    terms = text.strip().replace(" - ", " + -").split(" + ")
    coeffs = {}
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "x" in term:
            head, _, tail = term.partition("x")
            c = int(head) if head else 1
            deg = int(tail[1:]) if tail.startswith("^") else 1
        else:
            c, deg = int(term), 0
        if deg in coeffs:
            raise ValueError("repeated power in %r" % text)
        coeffs[deg] = sign * c
    top = max(coeffs)
    return [coeffs.get(d, 0) for d in range(top, -1, -1)]


def is_d_number(desc):
    """Coefficient criterion for a monic irreducible x^n + a1 x^(n-1) + ...:
    a root divides all its conjugates iff a_n^i divides a_i^n for all i."""
    n = len(desc) - 1
    an = desc[n]
    return all(desc[i] ** n % an ** i == 0 for i in range(1, n))


class RingOracle:
    """Expected charpoly and codegrees of a ring, computed without fgap."""

    def __init__(self):
        import numpy
        import sympy
        self._np = numpy
        self._sympy = sympy

    def expect(self, ring):
        np = self._np
        n = np.array(ring.N, dtype=np.int64)
        z = np.einsum("ijm,ikm->jk", n, n)
        charpoly = [int(c) for c in
                    self._sympy.Matrix(z.tolist()).charpoly().all_coeffs()]
        eig = sorted(np.linalg.eigvalsh(z.astype(float)))
        return charpoly, eig

    def check_analyze(self, ring, report):
        """Problems found in one `fgap analyze` report (empty if none)."""
        charpoly, eig = self.expect(ring)
        fields = {}
        for line in report.splitlines():
            key, sep, value = line.partition(": ")
            if sep and key not in fields:
                fields[key] = value
        problems = []
        if fields.get("rank") != str(ring.rank):
            problems.append("rank %r" % fields.get("rank"))
        if fields.get("commutative") != "yes":
            problems.append("commutative %r" % fields.get("commutative"))
        try:
            got = parse_poly(fields["codegree charpoly"])
        except (KeyError, ValueError) as exc:
            return problems + ["charpoly unreadable: %s" % exc]
        if got != charpoly:
            problems.append("charpoly %s, oracle %s" % (got, charpoly))
        codeg = next((line[len("codegrees ~ "):].strip("[]")
                      for line in report.splitlines()
                      if line.startswith("codegrees ~ ")), "")
        try:
            vals = [float(v) for v in codeg.split(",")]
        except ValueError:
            return problems + ["codegrees unreadable: %r" % codeg]
        if len(vals) != len(eig) or any(
                abs(a - b) > 1e-9 * max(1.0, abs(b))
                for a, b in zip(vals, eig)):
            problems.append("codegrees %s, oracle %s" % (vals, eig))
        return problems


BATTERY = ("orbit ", "  ", "global ", "surviving orbits:", "verdict:")


def battery(report):
    """The obstruction battery's lines of an analyze report, in order."""
    return [line for line in report.splitlines() if line.startswith(BATTERY)]


def read_batteries(path):
    """{ring label: battery lines} from a file written by write_batteries."""
    out = {}
    lines = None
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("== "):
                lines = out.setdefault(line[3:], [])
            else:
                lines.append(line)
    return out


def write_batteries(path, batteries):
    with open(path, "w", encoding="utf-8") as fh:
        for label, lines in batteries.items():
            fh.write("== %s\n" % label)
            fh.writelines(line + "\n" for line in lines)


def check_battery(expected, ring, report):
    """Problems in the battery of one analyze report (empty if none)."""
    want = expected.get(ring.label)
    if want is None:
        return ["no stored battery for %s" % ring.label]
    got = battery(report)
    if got == want:
        return []
    diff = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)))
    return ["battery line %d is %r, expected %r"
            % (diff, got[diff] if diff < len(got) else None,
               want[diff] if diff < len(want) else None)]


def orbit_polys(report):
    """Orbit polynomials of degree >= 2 named in an analyze report."""
    out = []
    for line in report.splitlines():
        if line.startswith("orbit "):
            poly = line.split(": ", 1)[1].split(" multiplicity ")[0]
            desc = parse_poly(poly)
            if len(desc) > 2:
                out.append(desc)
    return out


def check_dnumber(desc, report):
    """Problems found in one `fgap dnumber` report (empty if none)."""
    want = "d-number: %s" % ("yes" if is_d_number(desc) else "no")
    lines = report.splitlines()
    problems = []
    if want not in lines:
        problems.append("expected %r" % want)
    if "oracle agreement: NO" in lines:
        problems.append("fgap's own oracle disagrees")
    return problems
