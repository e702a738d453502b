"""Inequality battery deciding which codegree orbits could be a spherical
global dimension, plus the bound constants backing the searches.

Every decision is exact: rational tests stay in Fraction arithmetic and
irrational thresholds are carried as quadratic surds compared by squares.
A failed check certifies an obstruction; a surviving orbit is only "not
obstructed", never a categorification claim.
"""

from fractions import Fraction

from .algnum import (POWER_BITS_CAP, Surd, is_d_number, is_irreducible,
                     isolate_real_roots, largest_integer_divisor,
                     power_char_poly)
from .errors import BudgetError, InvalidInputError

FOUR_THIRDS = Fraction(4, 3)


def threshold(kind, param=None):
    """Exact bound constants as Surd objects.

    kind = "gdim_k": sqrt((16k-16)/(8k-7)) for dimensions with k > 1
    Galois conjugates.
    kind = "codeg_r": sqrt(2r/(r+1)), lower bound for every codegree of a
    rank-r ring.
    """
    if kind == "gdim_k":
        k = int(param)
        if k < 2:
            raise InvalidInputError("gdim_k needs k >= 2")
        return Surd.sqrt_fraction(Fraction(16 * k - 16, 8 * k - 7))
    if kind == "codeg_r":
        r = int(param)
        if r < 1:
            raise InvalidInputError("codeg_r needs r >= 1")
        return Surd.sqrt_fraction(Fraction(2 * r, r + 1))
    raise InvalidInputError("unknown threshold kind %r" % (kind,))


class CheckResult:
    __slots__ = ("name", "status", "detail")

    def __init__(self, name, status, detail=""):
        self.name = name
        self.status = status  # "pass" | "fail" | "skip"
        self.detail = detail

    def __repr__(self):
        return "CheckResult(%s: %s)" % (self.name, self.status)


class ObstructionReport:
    """Verdict is a pure function of the check statuses.

    orbit_checks holds one tuple of CheckResults per orbit, in the order
    of spectrum.orbits; surviving lists the indices of the orbits none
    of whose checks failed.
    """

    __slots__ = ("orbit_checks", "global_checks", "surviving", "obstructed")

    def __init__(self, orbit_checks, global_checks):
        self.orbit_checks = tuple(map(tuple, orbit_checks))
        self.global_checks = tuple(global_checks)
        self.surviving = tuple(i for i, checks in enumerate(self.orbit_checks)
                               if _survives(checks))
        self.obstructed = (not self.surviving
                           or not _survives(self.global_checks))


def _survives(checks):
    return all(c.status != "fail" for c in checks)


def orbit_inequality(lhs, f):
    """Decide lhs <= (1 + 1/f)/2 exactly, for lhs = sum 1/d_i^2 and f > 0.

    f is an AlgebraicNumber or a Surd.  Returns (holds, bound): bound is
    None when 2*lhs - 1 <= 0, where the inequality holds at every f > 0,
    and otherwise 1/(2*lhs - 1), the exact order test being f <= bound.
    """
    t = 2 * lhs - 1
    if t <= 0:
        return True, None
    bound = 1 / t
    return f.cmp(bound) <= 0, bound


def pseudo_unitary_inequality(lhs, f):
    """Decide lhs = sum_i 1/f_i^2 <= (1 + 1/f)/2 exactly.

    lhs is the spectrum's inverse_square_sum(), exact from the
    characteristic polynomial coefficients; the right side comparison is
    folded into an exact order test against the algebraic number f.
    Returns (status, detail).
    """
    holds, bound = orbit_inequality(lhs, f)
    if bound is None:
        return "pass", "lhs %s, 2*lhs - 1 = %s <= 0" % (lhs, 2 * lhs - 1)
    status = "pass" if holds else "fail"
    return status, "lhs %s, needs f <= %s (f ~ %.6f)" % (lhs, bound,
                                                          f.approx_float())


def spherical_obstruction_report(spectrum):
    """Run the full battery on every Galois orbit of a codegree spectrum.

    Per orbit O: (a) min(O) >= 4/3 (the trivial rank-1 ring is exempt);
    (b) for |O| > 1, min(O) >= sqrt((16k-16)/(8k-7)) with k = |O|;
    (c) exact orbit mean >= rank; (d) the pseudo-unitary inequality at
    every f in O.  Global: all codegrees are real (always: Z is real
    symmetric) and >= 1, the smallest codegree clears sqrt(2r/(r+1)), and
    every orbit polynomial is a d-number.  Verdict "obstructed" iff no
    orbit survives or a global check fails.  `spectrum` is
    `formal_codegrees(ring)`.
    """
    r = spectrum.rank
    trivial_ring = (r == 1)
    lhs = spectrum.inverse_square_sum()

    orbit_checks = []
    for orb in spectrum.orbits:
        checks = []
        k = orb.poly.degree

        if trivial_ring:
            checks.append(CheckResult(
                "min-above-4/3", "pass",
                "trivial ring: dimension 1 is the unit category"))
        else:
            c = orb.min_root.cmp(FOUR_THIRDS)
            checks.append(CheckResult(
                "min-above-4/3", "pass" if c >= 0 else "fail",
                "min root ~ %.9f vs 4/3" % orb.min_root.approx_float()))

        if k > 1:
            bound = threshold("gdim_k", k)
            c = orb.min_root.cmp(bound)
            checks.append(CheckResult(
                "conjugate-count-bound", "pass" if c >= 0 else "fail",
                "k = %d, bound sqrt(%s), min root ~ %.9f"
                % (k, (16 * k - 16) * Fraction(1, 8 * k - 7),
                   orb.min_root.approx_float())))
        else:
            checks.append(CheckResult(
                "conjugate-count-bound", "skip", "singleton orbit"))

        mean = orb.mean()
        checks.append(CheckResult(
            "orbit-mean-at-least-rank", "pass" if mean >= r else "fail",
            "mean %s vs rank %d" % (mean, r)))

        worst = None
        for root in orb.roots:
            status, detail = pseudo_unitary_inequality(lhs, root)
            if status == "fail" and worst is None:
                worst = (root, detail)
        if worst is None:
            checks.append(CheckResult(
                "pseudo-unitary-sum", "pass",
                "lhs %s holds at every orbit root" % lhs))
        else:
            checks.append(CheckResult(
                "pseudo-unitary-sum", "fail",
                "fails at f ~ %.9f: %s" % (worst[0].approx_float(),
                                           worst[1])))
        orbit_checks.append(checks)

    low = spectrum.min_root
    low_f = low.approx_float()
    global_checks = [
        # Z = sum_i N_i N_i^T is real symmetric, so its eigenvalues are real
        CheckResult("codegrees-real", "pass", "all eigenvalues real"),
        CheckResult("codegrees-at-least-1",
                    "pass" if low.cmp(1) >= 0 else "fail",
                    "min codegree ~ %.9f" % low_f),
        CheckResult("min-codegree-bound",
                    "pass" if low.cmp(threshold("codeg_r", r)) >= 0
                    else "fail",
                    "bound sqrt(%s), min ~ %.9f"
                    % (Fraction(2 * r, r + 1), low_f)),
    ]
    bad = [orb.poly.to_str() for orb in spectrum.orbits
           if not is_d_number(orb.poly.coeffs)]
    global_checks.append(CheckResult(
        "codegrees-are-d-numbers", "pass" if not bad else "fail",
        "every orbit polynomial divides-all-roots" if not bad
        else "not a d-number: " + "; ".join(bad)))

    return ObstructionReport(orbit_checks, global_checks)


def ffib_fpdim_bound(p):
    """Integer M bounding FPdim for any category of global dimension d.

    p is the minimal polynomial of d as ascending coefficients: monic,
    irreducible, every root in (0, oo); any other input raises
    InvalidInputError.  f is the largest root of p, and M is the largest
    integer divisor (in the M^i | c_i sense) of the characteristic
    polynomial of d^floor(f).  Irreducibility
    is algnum.is_irreducible, the searches' own test (DegreeCapError above
    DEGREE_CAP).  Total positivity is read from one isolation: deg p real
    roots, the smallest above 0.
    Returns (M, floor(f), that characteristic polynomial as a tuple, f).
    """
    if not p or p[-1] != 1:
        raise InvalidInputError("the bound needs a monic polynomial")
    if not is_irreducible(p):
        raise InvalidInputError("the bound needs an irreducible polynomial")
    roots = isolate_real_roots(p)
    k = len(p) - 1
    # totally positive: all k roots are real and lie in (0, oo)
    if len(roots) != k or roots[0].cmp(0) <= 0:
        raise InvalidInputError("the bound needs a totally positive "
                                "polynomial")
    f = roots[-1]
    m = f.floor()
    # coefficient i of the power charpoly is the i-th elementary symmetric
    # function of the m-th powers of p's roots, so at most C(k, i) M(p)**m,
    # and the Mahler measure M(p) is at most the 2-norm of p (Landau's
    # inequality): at most k + m * ceil(log2 |p|_2) bits
    norm_sq = sum(x * x for x in p)
    bits = k + m * ((norm_sq - 1).bit_length() + 1) // 2
    if bits > POWER_BITS_CAP:
        raise BudgetError(
            "the characteristic polynomial of d^%d may have coefficients of "
            "%d bits, over the cap of %d" % (m, bits, POWER_BITS_CAP))
    pcp = power_char_poly(f, m)
    return largest_integer_divisor(pcp), m, pcp, f
