"""Based rings with finite basis: validation, Perron data, codegree spectra.

A ring is stored as its structure tensor N[i][j][k] (multiplicity of b_k in
b_i*b_j) plus the duality permutation; index 0 is the unit.  The codegree
spectrum is computed exactly as the spectrum of Z = sum_i N_i N_i^T, which
for a commutative ring carries the same eigenvalues as the canonical
codegree functionals evaluated on characters.

`formal_codegrees(ring)` is the one place Z and its spectrum are computed
(and the one caller of `FusionRing.is_commutative`); everything derived
from them takes the spectrum as an argument:
`fp_dimension_vector(ring, spectrum, tol)` certifies the Perron dimensions
against `spectrum.matrix` (Z) and `spectrum.fp_root`,
`CodegreeSpectrum.sum_identity()` decides sum 1/f_i == 1, and
`obstruct.spherical_obstruction_report(spectrum)` runs the battery.
"""

from fractions import Fraction
from itertools import islice
from operator import mul

from .algnum import (IntPoly, charpoly_int, factor_over_integers,
                     inverse_square_sum, isolate_real_roots)
from .errors import (AmbiguityError, BudgetError, InvalidInputError,
                     UnsupportedRingError)


class FusionRing:
    """Immutable based ring: rank, duality permutation, structure tensor."""

    __slots__ = ("rank", "dual", "N")

    def __init__(self, rank, dual, tensor):
        rank = int(rank)
        if rank < 1:
            raise InvalidInputError("rank must be a positive integer")
        dual = tuple(map(int, dual))
        if len(dual) != rank or sorted(dual) != list(range(rank)):
            raise InvalidInputError("dual is not a permutation of 0..%d"
                                    % (rank - 1))
        if len(tensor) != rank:
            raise InvalidInputError("tensor has %d slices, expected %d"
                                    % (len(tensor), rank))
        frozen = []
        for i, mat in enumerate(tensor):
            if len(mat) != rank:
                raise InvalidInputError("N[%d] has %d rows, expected %d"
                                        % (i, len(mat), rank))
            rows = []
            for j, row in enumerate(mat):
                if len(row) != rank:
                    raise InvalidInputError(
                        "N[%d][%d] has %d entries, expected %d"
                        % (i, j, len(row), rank))
                rows.append(tuple(map(int, row)))
            frozen.append(tuple(rows))
        self.rank = rank
        self.dual = dual
        self.N = tuple(frozen)

    def validate(self):
        """All axiom violations, each with witnessing indices; [] if valid.

        Negativity and the transpose law are checked a slice N[i] at a
        time (one min; N[i] against the transpose of N[dual(i)]) and walked
        entry by entry only on a failing slice.  Associativity compares,
        for each (i, j, k), the rows sum_m N[i][j][m] N[m][k] and
        sum_m N[j][k][m] N[i][m]: the rows N[m][k] and N[i][m'] themselves
        when b_i b_j = b_m and b_j b_k = b_m' (a group ring), else rows
        built from the nonzero supports of the rows N[a][b] (negative
        entries included).  l is walked only where they differ, so the
        messages keep the (i, j, k, l) order.  The cost is O(r^3 s^2 + r^4)
        for rows with at most s nonzero entries: O(r^4) on a group ring,
        where a dense check is O(r^5).
        """
        r = self.rank
        n = self.N
        dual = self.dual
        out = []
        for i in range(r):
            if min(map(min, n[i])) >= 0:
                continue
            for j in range(r):
                for k in range(r):
                    if n[i][j][k] < 0:
                        out.append("negative multiplicity: N[%d][%d][%d] = %d"
                                   % (i, j, k, n[i][j][k]))
        for j in range(r):
            for k in range(r):
                want = 1 if j == k else 0
                if n[0][j][k] != want:
                    out.append("unit: N[0][%d][%d] = %d, expected %d"
                               % (j, k, n[0][j][k], want))
        for i in range(r):
            for k in range(r):
                want = 1 if i == k else 0
                if n[i][0][k] != want:
                    out.append("unit: N[%d][0][%d] = %d, expected %d"
                               % (i, k, n[i][0][k], want))
        if dual[0] != 0:
            out.append("duality: dual(0) = %d, expected 0" % dual[0])
        for i in range(r):
            if dual[dual[i]] != i:
                out.append("duality: dual(dual(%d)) = %d, expected %d"
                           % (i, dual[dual[i]], i))
            for j in range(r):
                want = 1 if j == dual[i] else 0
                if n[i][j][0] != want:
                    out.append("duality: N[%d][%d][0] = %d, expected %d"
                               % (i, j, n[i][j][0], want))
        for i in range(r):
            if tuple(zip(*n[dual[i]])) == n[i]:
                continue
            for j in range(r):
                for k in range(r):
                    if n[dual[i]][k][j] != n[i][j][k]:
                        out.append(
                            "transpose law: N[%d][%d][%d] = %d but "
                            "N[%d][%d][%d] = %d"
                            % (dual[i], k, j, n[dual[i]][k][j],
                               i, j, k, n[i][j][k]))
        # (b_i b_j) b_k = b_i (b_j b_k), coefficient of b_l on each side
        supp = [[[(m, c) for m, c in enumerate(row) if c] for row in mat]
                for mat in n]
        # single[a][b] = m when b_a b_b = b_m, else None
        single = [[s[0][0] if len(s) == 1 and s[0][1] == 1 else None
                   for s in row] for row in supp]
        for i in range(r):
            ni = n[i]
            for j in range(r):
                sij = supp[i][j]
                nm = n[single[i][j]] if single[i][j] is not None else None
                for k in range(r):
                    mk = single[j][k]
                    if nm is not None and mk is not None and nm[k] == ni[mk]:
                        continue
                    lhs = [0] * r
                    for m, c in sij:
                        for l, x in supp[m][k]:
                            lhs[l] += c * x
                    rhs = [0] * r
                    for m, c in supp[j][k]:
                        for l, x in supp[i][m]:
                            rhs[l] += c * x
                    if lhs != rhs:
                        for l in range(r):
                            if lhs[l] != rhs[l]:
                                out.append(
                                    "associativity: (i,j,k,l)=(%d,%d,%d,%d) "
                                    "lhs %d != rhs %d"
                                    % (i, j, k, l, lhs[l], rhs[l]))
        return out

    @property
    def is_commutative(self):
        """True iff b_i b_j = b_j b_i for all i < j, i.e. N[i][j] == N[j][i].

        This is the commutator test N_i N_j == N_j N_i of the fusion
        matrices read at row 0: with the unit axiom N[i][0][k] = delta_ik,
        row 0 of N_i N_j is N[j][i] and row 0 of N_j N_i is N[i][j].  On an
        associative ring the converse holds as well (entry (a, b) of the two
        products is the coefficient of b_b in (b_j b_i) b_a and in
        (b_i b_j) b_a), so for a valid ring the two tests agree.
        """
        n = self.N
        r = self.rank
        return all(n[i][j] == n[j][i]
                   for i in range(r) for j in range(i + 1, r))

    def __eq__(self, other):
        return (isinstance(other, FusionRing) and self.rank == other.rank
                and self.dual == other.dual and self.N == other.N)

    def __hash__(self):
        return hash((self.rank, self.dual, self.N))

    def __repr__(self):
        return "FusionRing(rank=%d)" % self.rank


# Largest n for builtin_ring("cyclic", n): its tensor has n^3 entries, and
# the ring file at n = 100 is about 2 MB.
CYCLIC_MAX_N = 100


def builtin_ring(name, n):
    """Built-in families: kn(n) for n >= 0, cyclic(n) for 1 <= n <= 100.

    cyclic(n) above CYCLIC_MAX_N raises BudgetError before its n^3 tensor
    is built.
    """
    n = int(n)
    if name == "kn":
        if n < 0:
            raise InvalidInputError("kn requires n >= 0")
        tensor = [
            [[1, 0], [0, 1]],
            [[0, 1], [1, n]],
        ]
        return FusionRing(2, (0, 1), tensor)
    if name == "cyclic":
        if n < 1:
            raise InvalidInputError("cyclic requires n >= 1")
        if n > CYCLIC_MAX_N:
            raise BudgetError("cyclic(%d) would build %d tensor entries; "
                              "n is capped at %d" % (n, n ** 3, CYCLIC_MAX_N))
        tensor = [[[1 if k == (i + j) % n else 0 for k in range(n)]
                   for j in range(n)] for i in range(n)]
        dual = tuple((-i) % n for i in range(n))
        return FusionRing(n, dual, tensor)
    raise InvalidInputError("unknown builtin ring %r (expected kn or cyclic)"
                            % (name,))


def codegree_matrix(ring):
    """Z = sum_i N_i N_i^T, exact integer symmetric matrix.

    Column m of N_i contributes the outer product of its nonzero entries
    (j, N[i][j][m]) with themselves, so the cost is O(r^3 + r^2 s^2) for
    columns with at most s nonzero entries: O(r^3) on a group ring, where
    the dense sum is O(r^4).
    """
    r = ring.rank
    z = [[0] * r for _ in range(r)]
    for ni in ring.N:
        for col in zip(*ni):
            nz = [(j, a) for j, a in enumerate(col) if a]
            for j, a in nz:
                zj = z[j]
                for k, b in nz:
                    zj[k] += a * b
    return z


class CodegreeOrbit:
    """One Galois orbit of codegrees: an irreducible factor, as the IntPoly
    the report prints, with its roots.  Z is real symmetric, so every
    root is real and the orbit holds all deg(poly) of them."""

    __slots__ = ("poly", "multiplicity", "roots")

    def __init__(self, poly, multiplicity, roots):
        self.poly = poly
        self.multiplicity = multiplicity
        self.roots = tuple(roots)  # ascending AlgebraicNumbers

    @property
    def min_root(self):
        return self.roots[0]

    @property
    def max_root(self):
        return self.roots[-1]

    def mean(self):
        """Exact mean of the orbit roots (without multiplicity weighting)."""
        n = self.poly.degree
        return Fraction(-self.poly.coeffs[n - 1], n)

    def __repr__(self):
        return "CodegreeOrbit(%s, mult=%d)" % (self.poly.to_str(),
                                               self.multiplicity)


class CodegreeSpectrum:
    """Exact codegree data of a commutative based ring: Z, its
    characteristic polynomial and its Galois orbits."""

    __slots__ = ("rank", "matrix", "charpoly", "orbits", "fp_root",
                 "_min_root")

    def __init__(self, rank, matrix, charpoly, orbits):
        self.rank = rank
        self.matrix = matrix
        self.charpoly = charpoly
        self.orbits = tuple(orbits)
        fp = low = None
        for orb in self.orbits:
            if fp is None or orb.max_root.cmp(fp) > 0:
                fp = orb.max_root
            if low is None or orb.min_root.cmp(low) < 0:
                low = orb.min_root
        self.fp_root = fp
        self._min_root = low

    def e(self, k):
        """Elementary symmetric function e_k of the codegrees, exact."""
        r = self.rank
        if k < 0 or k > r:
            return 0
        sign = -1 if k % 2 else 1
        return sign * self.charpoly.coeffs[r - k]

    def inverse_square_sum(self):
        """Sum of 1/f_i**2 over all codegrees, exact rational."""
        return inverse_square_sum(self.charpoly.coeffs)

    def sum_identity(self):
        """Exact test of e_{r-1} == e_r (sum of codegree inverses == 1)."""
        return self.e(self.rank - 1) == self.e(self.rank)

    def approx(self):
        """All codegrees as floats, ascending, with multiplicity."""
        vals = []
        for orb in self.orbits:
            for root in orb.roots:
                vals.extend([root.approx_float()] * orb.multiplicity)
        return sorted(vals)

    @property
    def min_root(self):
        """The smallest codegree."""
        return self._min_root

    def __repr__(self):
        return "CodegreeSpectrum(charpoly=%s)" % self.charpoly.to_str()


def formal_codegrees(ring):
    """Exact spectrum of Z as a CodegreeSpectrum.

    Requires a commutative ring; the eigenvalue multiset of Z then equals
    the multiset of codegree scalars.
    """
    if not ring.is_commutative:
        raise UnsupportedRingError(
            "ring is noncommutative; codegree spectra are computed for "
            "commutative based rings only")
    z = codegree_matrix(ring)
    cp = charpoly_int(z)
    orbits = []
    for poly, mult in factor_over_integers(cp):
        orbits.append(CodegreeOrbit(IntPoly(poly), mult,
                                    isolate_real_roots(poly)))
    return CodegreeSpectrum(ring.rank, z, IntPoly(cp), orbits)


POWER_ITERATIONS = 20000

# default tolerance of the Perron dimension certificate (analyze --tol)
FP_TOL = Fraction(1, 10 ** 12)


def fp_dimension_vector(ring, spectrum, tol=FP_TOL):
    """Perron dimensions of `ring`, certified against its codegree spectrum.

    `spectrum` is `formal_codegrees(ring)`.  Power iteration runs on
    B = sum_i N_i (primitive for a valid ring, and its Perron direction is
    the common positive eigenvector of every N_i); the vector is then
    certified against Z = `spectrum.matrix` with an exact rational Rayleigh
    residual, ||(Z - rho) v||^2 <= tol^2 * rho^2 * ||v||^2, and rho must
    lie on the enclosure of the top codegree `spectrum.fp_root`.  Each power
    step B v is r builtin sums, each over ascending k.

    Returns (dims, certificate) where dims are floats normalized to
    dims[0] = 1.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise InvalidInputError("tolerance must be positive")
    b = [list(map(sum, zip(*rows))) for rows in zip(*ring.N)]
    v = [1.0] * ring.rank
    last = 0.0
    for _ in range(POWER_ITERATIONS):
        w = [sum(map(mul, bj, v)) for bj in b]
        norm = max(map(abs, w))
        v = [x / norm for x in w]
        if abs(norm - last) <= 1e-16 * norm:
            break
        last = norm
    scale = v[0]
    if scale <= 0:
        raise AmbiguityError("power iteration lost positivity")
    v = [x / scale for x in v]

    fp = spectrum.fp_root
    rho, res = _rayleigh(spectrum.matrix, v)
    certified = res <= tol * tol * rho * rho
    if not certified:
        raise AmbiguityError(
            "Rayleigh residual %.3g exceeds tolerance %.3g"
            % (float(res) ** 0.5, float(tol)))
    # rho must sit on the designated top eigenvalue
    lo, hi = fp.refine(min(tol, Fraction(1, 10 ** 6)))
    if not (lo - tol * rho <= rho <= hi + tol * rho):
        raise AmbiguityError("Rayleigh quotient does not match the top "
                             "eigenvalue enclosure")
    certificate = {
        "rayleigh": rho,
        "residual_sq": res,
        "tol": tol,
        "certified": True,
    }
    return v, certificate


def _rayleigh(z, v):
    """Exact Rayleigh quotient rho and residual ||(z - rho) v||^2 / ||v||^2
    of the integer matrix z at the float vector v, as Fractions.

    Floats are dyadic, so v = V/D with integers V and D a power of two; with
    p = V.zV and q = V.V, rho = p/q and the residual is
    sum_j (q (zV)_j - p V_j)^2 / q^3, in integers until the two divisions.
    """
    ratios = [x.as_integer_ratio() for x in v]
    den = max(d for _, d in ratios)
    big = [n * (den // d) for n, d in ratios]
    zv = [sum(map(mul, zj, big)) for zj in z]
    p = sum(a * b for a, b in zip(zv, big))
    q = sum(a * a for a in big)
    res = sum((q * a - p * b) ** 2 for a, b in zip(zv, big))
    return Fraction(p, q), Fraction(res, q ** 3)


class RepGCodegrees:
    """Codegrees |G|/|C_i| from conjugacy class sizes."""

    __slots__ = ("values", "group_order", "all_integer")

    def __init__(self, values, group_order):
        self.values = tuple(values)
        self.group_order = group_order
        self.all_integer = all(v.denominator == 1 for v in values)


def rep_g_codegrees(class_sizes):
    """Exact codegrees |G|/|C_i| for given conjugacy class sizes."""
    sizes = [int(x) for x in class_sizes]
    if not sizes:
        raise InvalidInputError("class size list is empty")
    if any(s < 1 for s in sizes):
        raise InvalidInputError("class sizes must be positive")
    if 1 not in sizes:
        raise InvalidInputError("no identity class (size 1) present")
    order = sum(sizes)
    return RepGCodegrees([Fraction(order, s) for s in sizes], order)


# ---------------------------------------------------------------------------
# ring file format

def parse_ring_file(text):
    """Parse the plain-text ring format; validates before returning.

    Format: `rank r`, then `dual p0 ... p{r-1}`, then r*r lines
    `N i j : m0 ... m{r-1}`.  '#' starts a comment line.  Errors carry
    1-based line numbers.
    """
    entries = []  # (lineno, tokens)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            entries.append((lineno, line.split()))
    if not entries:
        raise InvalidInputError("empty ring file")

    def fail(lineno, msg):
        raise InvalidInputError("line %d: %s" % (lineno, msg))

    # int() also reads 1_0 and Arabic-Indic digits, which the CLI's integer
    # spelling rejects; only a text that holds "_" or a non-ASCII character
    # can have such a token
    suspect = "_" in text or not text.isascii()

    def ints(lineno, tokens, msg):
        try:
            if suspect:
                spelled = "".join(tokens)
                if "_" in spelled or not spelled.isascii():
                    raise ValueError(spelled)
            return list(map(int, tokens))
        except ValueError:
            fail(lineno, msg)

    lineno, toks = entries[0]
    if len(toks) != 2 or toks[0] != "rank":
        fail(lineno, "expected `rank r`")
    r, = ints(lineno, toks[1:], "rank is not an integer")
    if r < 1:
        fail(lineno, "rank must be positive")

    if len(entries) < 2:
        raise InvalidInputError("missing `dual` line")
    lineno, toks = entries[1]
    if toks[0] != "dual":
        fail(lineno, "expected `dual p0 ... p%d`" % (r - 1))
    if len(toks) != r + 1:
        fail(lineno, "dual needs %d entries, got %d" % (r, len(toks) - 1))
    dual = ints(lineno, toks[1:], "dual entries must be integers")
    if sorted(dual) != list(range(r)):
        fail(lineno, "dual is not a permutation of 0..%d" % (r - 1))

    # N rows keyed by i*r + j: no r x r grid exists before r*r lines do
    rows = {}
    for lineno, toks in entries[2:]:
        if toks[0] != "N":
            fail(lineno, "expected `N i j : m0 ... m%d`" % (r - 1))
        if len(toks) != r + 4 or toks[3] != ":":
            fail(lineno, "malformed N line (needs `N i j : %d integers`)" % r)
        i, j, *row = ints(lineno, toks[1:3] + toks[4:],
                          "N line entries must be integers")
        if not (0 <= i < r and 0 <= j < r):
            fail(lineno, "indices (%d,%d) out of range" % (i, j))
        if i * r + j in rows:
            fail(lineno, "duplicate entry for N %d %d" % (i, j))
        rows[i * r + j] = row
    if len(rows) < r * r:
        # the first 8 absent keys, after at most len(rows) present ones
        missing = islice((key for key in range(r * r)
                           if key not in rows), 8)
        raise InvalidInputError("missing N lines for (i,j): %s"
                                % ", ".join("(%d,%d)" % divmod(key, r)
                                            for key in missing))
    ring = FusionRing(r, dual, [[rows[i * r + j] for j in range(r)]
                                for i in range(r)])
    violations = ring.validate()
    if violations:
        raise InvalidInputError(
            "ring axioms violated:\n  " + "\n  ".join(violations[:20]))
    return ring


def emit_ring_file(ring):
    """Byte-stable text form: fixed ordering, no comments."""
    lines = ["rank %d" % ring.rank,
             "dual " + " ".join(str(x) for x in ring.dual)]
    for i in range(ring.rank):
        for j in range(ring.rank):
            lines.append("N %d %d : " % (i, j)
                         + " ".join(str(x) for x in ring.N[i][j]))
    return "\n".join(lines) + "\n"
