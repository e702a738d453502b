"""Categorification obstructions: thresholds, inequalities, report battery."""

import math
from fractions import Fraction

import pytest

from fgap.algnum import Surd, isolate_real_roots
from fgap.errors import InvalidInputError
from fgap.fusionring import builtin_ring, formal_codegrees
from fgap.obstruct import (
    ffib_fpdim_bound,
    pseudo_unitary_inequality,
    spherical_obstruction_report,
    threshold,
)


def P(*desc):
    """Ascending coefficient tuple from descending coefficients."""
    return tuple(reversed(desc))


def alg(*desc):
    """Largest real root of the monic polynomial with descending coeffs."""
    p = P(*desc)
    return isolate_real_roots(p)[-1]


def as_root(s):
    """An algebraic-integer Surd as the AlgebraicNumber on its minimal
    polynomial that equals it."""
    p = ((int(-s.p), 1) if s.is_rational else
         (int(s.p * s.p - s.q * s.q * s.n), int(-2 * s.p), 1))
    return next(a for a in isolate_real_roots(p) if a.cmp(s) == 0)


# ---------------------------------------------------------------------------
# thresholds

def test_threshold_pinned_values():
    assert threshold("gdim_k", 2) == Fraction(4, 3)
    t3 = threshold("gdim_k", 3)
    assert t3 * t3 == Fraction(32, 17)
    assert abs(float(t3) - 1.3719886811400708) < 1e-12
    t4 = threshold("gdim_k", 4)
    assert t4 * t4 == Fraction(48, 25)
    assert abs(float(t4) - 1.3856406460551018) < 1e-12
    r4 = threshold("codeg_r", 4)
    assert r4 * r4 == Fraction(8, 5)
    assert abs(float(r4) - 1.2649110640673518) < 1e-12


def test_threshold_monotone_below_sqrt2():
    sqrt2 = Surd(0, 1, 2)
    prev = threshold("gdim_k", 2)
    for k in range(3, 12):
        cur = threshold("gdim_k", k)
        assert cur.cmp(prev) > 0
        prev = cur
    for k in (10, 10 ** 3, 10 ** 6):
        t = threshold("gdim_k", k)
        assert t.cmp(sqrt2) < 0


def test_threshold_codeg_r_monotone():
    prev = threshold("codeg_r", 1)
    for r in range(2, 9):
        cur = threshold("codeg_r", r)
        assert cur.cmp(prev) > 0
        prev = cur
    # sqrt(2r/(r+1)) -> sqrt 2 from below
    assert threshold("codeg_r", 10 ** 6).cmp(Surd(0, 1, 2)) < 0


def test_threshold_rejects_bad_input():
    for kind, param in [("gdim_k", 1), ("gdim_k", 0), ("codeg_r", 0),
                        ("nope", None)]:
        with pytest.raises(InvalidInputError):
            threshold(kind, param)


# ---------------------------------------------------------------------------
# pseudo-unitary inequality

def test_pseudo_unitary_fibonacci():
    spec = formal_codegrees(builtin_ring("kn", 1))
    assert spec.inverse_square_sum() == Fraction(3, 5)
    status, detail = pseudo_unitary_inequality(
        spec.inverse_square_sum(),
        as_root(Surd(Fraction(5, 2), Fraction(1, 2), 5)))
    assert status == "pass"
    assert "lhs 3/5" in detail


def test_pseudo_unitary_k2_split():
    # sum 1/f^2 = 3/4, so the test needs f <= 2: fails at 4 + 2 sqrt 2,
    # holds at 4 - 2 sqrt 2
    spec = formal_codegrees(builtin_ring("kn", 2))
    assert spec.inverse_square_sum() == Fraction(3, 4)
    lhs = spec.inverse_square_sum()
    assert pseudo_unitary_inequality(lhs, as_root(Surd(4, 2, 2)))[0] == "fail"
    assert pseudo_unitary_inequality(lhs, as_root(Surd(4, -2, 2)))[0] == "pass"


def test_pseudo_unitary_small_lhs_passes_any_f():
    # cyclic(3): sum 1/f^2 = 1/3 <= 1/2, so the inequality is free
    spec = formal_codegrees(builtin_ring("cyclic", 3))
    status, detail = pseudo_unitary_inequality(spec.inverse_square_sum(),
                                               as_root(Surd(10 ** 9)))
    assert status == "pass"
    assert "<= 0" in detail


def test_inverse_square_sum_matches_numeric():
    for name, n in [("kn", 1), ("kn", 2), ("kn", 7), ("cyclic", 5)]:
        spec = formal_codegrees(builtin_ring(name, n))
        numeric = sum(1.0 / (f * f) for f in spec.approx())
        assert abs(float(spec.inverse_square_sum()) - numeric) < 1e-9


# ---------------------------------------------------------------------------
# full report

def test_report_fibonacci_clean(fibonacci):
    rep = spherical_obstruction_report(formal_codegrees(fibonacci))
    assert not rep.obstructed
    assert rep.surviving == (0,)
    checks = rep.orbit_checks[0]
    assert {c.name for c in checks} == {
        "min-above-4/3", "conjugate-count-bound",
        "orbit-mean-at-least-rank", "pseudo-unitary-sum"}
    assert all(c.status == "pass" for c in checks)
    assert all(c.status == "pass" for c in rep.global_checks)


def test_report_k2_obstructed(k2):
    rep = spherical_obstruction_report(formal_codegrees(k2))
    assert rep.obstructed
    assert rep.surviving == ()
    failed = {c.name for c in rep.orbit_checks[0]
              if c.status == "fail"}
    # min codegree 4 - 2 sqrt 2 ~ 1.17 sits under every lower bound
    assert "min-above-4/3" in failed
    assert "conjugate-count-bound" in failed
    assert "pseudo-unitary-sum" in failed
    assert "orbit-mean-at-least-rank" not in failed


def test_report_kn_family_obstructed():
    for n in range(2, 11):
        ring = builtin_ring("kn", n)
        assert spherical_obstruction_report(formal_codegrees(ring)).obstructed


def test_report_cyclic_family_clean():
    for n in range(1, 9):
        ring = builtin_ring("cyclic", n)
        rep = spherical_obstruction_report(formal_codegrees(ring))
        assert not rep.obstructed
        if n >= 2:
            # single orbit (x - n) with multiplicity n: mean equals rank
            mean = next(c for c in rep.orbit_checks[0]
                        if c.name == "orbit-mean-at-least-rank")
            assert mean.status == "pass"


def test_report_global_check_names(k2):
    rep = spherical_obstruction_report(formal_codegrees(k2))
    assert [c.name for c in rep.global_checks] == [
        "codegrees-real", "codegrees-at-least-1",
        "min-codegree-bound", "codegrees-are-d-numbers"]


# ---------------------------------------------------------------------------
# dimension bound for minimal-dimension candidates

def test_ffib_bound_pinned():
    assert ffib_fpdim_bound(P(1, -5, 5))[0] == 5
    assert ffib_fpdim_bound(P(1, -2))[0] == 4
    assert ffib_fpdim_bound(P(1, -3))[0] == 27
    assert ffib_fpdim_bound(P(1, -14, 49, -49))[0] == 117649


def test_ffib_bound_divides_norm_power():
    for desc in [(1, -5, 5), (1, -2), (1, -3), (1, -14, 49, -49),
                 (1, -3, 1), (1, -7, 13, -5)]:
        a = alg(*desc)
        m = a.floor()
        bound, power, _, f = ffib_fpdim_bound(P(*desc))
        assert power == m and f.cmp(a) == 0
        assert bound >= 1
        assert (abs(desc[-1]) ** m) % bound == 0


def test_ffib_bound_rejects_non_algebraic_input():
    # only a monic irreducible totally positive minimal polynomial
    for bad in (P(2, -5, 5), P(1, -4, 4), P(1, 0, -2)):
        with pytest.raises(InvalidInputError):
            ffib_fpdim_bound(bad)
