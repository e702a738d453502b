"""Acceptance gate: eleven pinned criteria, one visible verdict line each.

Each test prints "[PASS] criterion NN: label" (or [FAIL]) directly to the
terminal, bypassing capture, so a plain pytest run shows the scoreboard.
"""

import json
import math
import re
import resource
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import run_cli
from fgap.algnum import (
    Surd,
    is_d_number,
    poly_gcd_int,
    ratio_integrality_oracle,
)
from fgap.fusionring import builtin_ring, formal_codegrees
from fgap.gapsearch import search_cubic, search_quadratic, SearchConfig
from fgap.obstruct import pseudo_unitary_inequality, threshold


@contextmanager
def criterion(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("[FAIL] criterion %02d: %s" % (num, label))
        raise
    else:
        with capsys.disabled():
            print("[PASS] criterion %02d: %s" % (num, label))


def test_c01_quadratic_search_unique_survivor(capsys):
    with criterion(capsys, 1, "quadratic search finds only x^2 - 5x + 5"):
        t0 = time.monotonic()
        rc, out, _ = run_cli("search", "quadratic")
        elapsed = time.monotonic() - t0
        assert rc == 0
        assert "survivors: 1" in out
        assert "+ x^2 - 5x + 5" in out
        assert elapsed <= 2.0


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_c02_cubic_search_empty(capsys):
    with criterion(capsys, 2, "cubic search is exhaustive and empty"):
        # CPU seconds of the child, so other load on the host does not count
        t0 = _children_cpu_s()
        rc, out, _ = run_cli("search", "cubic")
        elapsed = _children_cpu_s() - t0
        assert rc == 0
        assert "survivors: 0" in out
        assert '"exploratory": false' in out
        assert elapsed <= 10.0


def test_c03_gap_search_window(capsys, run_cli_once):
    with criterion(capsys, 3, "gap search certifies (5 - sqrt 5)/2"):
        rc, out, _ = run_cli_once("search", "gap", "--dmax", "4√3/5")
        assert rc == 0
        assert "survivors: 1" in out
        assert "+ x^2 - 5x + 5" in out
        rc, out, _ = run_cli_once("search", "gap", "--dmax", "1.34")
        assert rc == 0
        assert "survivors: 0" in out


def test_c04_analyze_fibonacci(capsys):
    with criterion(capsys, 4, "Fibonacci ring analysis"):
        _, ring, _ = run_cli("builtin", "kn", "--n", "1")
        rc, out, _ = run_cli("analyze", "-", stdin_text=ring)
        assert rc == 0
        assert "codegree charpoly: x^2 - 5x + 5" in out
        vals = [float(t) for t in re.search(
            r"codegrees ~ \[([^\]]*)\]", out).group(1).split(",")]
        assert abs(vals[0] - 1.381966011) < 1e-9
        assert abs(vals[1] - 3.618033989) < 1e-9
        spec = formal_codegrees(builtin_ring("kn", 1))
        assert spec.e(1) == 5 and spec.e(2) == 5
        assert "verdict: no obstruction" in out


def test_c05_analyze_kn_family_obstructed(capsys):
    with criterion(capsys, 5, "K_n rings rejected for n = 2..10"):
        for n in range(2, 11):
            _, ring, _ = run_cli("builtin", "kn", "--n", str(n))
            rc, out, _ = run_cli("analyze", "-", stdin_text=ring)
            assert rc == 0
            q = n * n + 4
            assert "codegree charpoly: x^2 - %dx + %d" % (q, q) in out
            assert "verdict: no spherical categorification" in out
        # n = 2: certified failure at f = 4 + 2 sqrt 2, lhs exactly 3/4
        spec = formal_codegrees(builtin_ring("kn", 2))
        assert spec.fp_root.cmp(Surd(4, 2, 2)) == 0
        status, detail = pseudo_unitary_inequality(spec.inverse_square_sum(),
                                                   spec.fp_root)
        assert status == "fail"
        assert spec.inverse_square_sum() == Fraction(3, 4)
        f = 4 + 2 * math.sqrt(2)
        assert (1 + 1 / f) / 2 < 0.574


def test_c06_repg_dihedral_identities(capsys):
    with criterion(capsys, 6, "dihedral class equations"):
        cases = [
            ("1,2,2,5", 10, "[10, 5, 5, 2]", "17/50"),
            ("1,2,3", 6, "[6, 3, 2]", "7/18"),
            ("1,2,2,2,7", 14, "[14, 7, 7, 7, 2]", "31/98"),
        ]
        for classes, order, codegrees, inv_sq in cases:
            rc, out, _ = run_cli("repg", "--classes", classes)
            assert rc == 0
            assert "group order: %d" % order in out
            assert "codegrees: %s" % codegrees in out
            assert "inverse sum: 1" in out
            assert "inverse square sum: %s" % inv_sq in out
            p = order // 2
            want = Fraction(1, 4) + Fraction(1, 2 * p) - Fraction(1, 4 * p * p)
            assert Fraction(inv_sq) == want


def test_c07_cyclic_spectrum_equality(capsys):
    with criterion(capsys, 7, "cyclic groups sit on the mean = rank line"):
        for n in range(2, 9):
            spec = formal_codegrees(builtin_ring("cyclic", n))
            assert [(o.poly.coeffs, o.multiplicity) for o in spec.orbits] \
                == [((-n, 1), n)]
            orb = spec.orbits[0]
            assert orb.mean() == n
            _, ring, _ = run_cli("builtin", "cyclic", "--n", str(n))
            rc, out, _ = run_cli("analyze", "-", stdin_text=ring)
            assert rc == 0
            assert "verdict: no obstruction" in out


def test_c08_d_number_fast_path_equals_oracle(capsys):
    with criterion(capsys, 8, "degree <= 3 coefficient test matches oracle"):
        t0 = time.monotonic()
        checked = 0
        for degree in (1, 2, 3):
            for coeffs in _monic_coeff_grid(degree, 10):
                dp = [i * coeffs[i] for i in range(1, len(coeffs))]
                if len(poly_gcd_int(list(coeffs), dp)) > 1:
                    continue  # not squarefree
                assert is_d_number(coeffs) == \
                    ratio_integrality_oracle(coeffs), coeffs
                checked += 1
        assert checked > 8000
        assert time.monotonic() - t0 <= 60.0


def _monic_coeff_grid(degree, box):
    # ascending coefficients, lc = 1, constant term nonzero
    def rec(i):
        if i == degree:
            yield (1,)
            return
        lo = -box
        for rest in rec(i + 1):
            for v in range(lo, box + 1):
                if i == 0 and v == 0:
                    continue
                yield (v,) + rest
    return rec(0)


def test_c09_ffib_bound_values(capsys):
    with criterion(capsys, 9, "dimension bounds 5 / 4 / 27"):
        for poly, want in [("1,-5,5", 5), ("1,-2", 4), ("1,-3", 27)]:
            rc, out, _ = run_cli("ffib-bound", "--poly", poly)
            assert rc == 0
            assert "bound: %d" % want in out


def test_c10_threshold_table(capsys):
    with criterion(capsys, 10, "lower-bound thresholds"):
        assert threshold("gdim_k", 2) == Fraction(4, 3)
        assert abs(float(threshold("gdim_k", 3)) - 1.371989) < 1e-6
        assert abs(float(threshold("gdim_k", 3)) ** 2 - 32 / 17) < 1e-9
        assert abs(float(threshold("gdim_k", 4)) - 1.385641) < 1e-6
        assert abs(float(threshold("gdim_k", 4)) ** 2 - 48 / 25) < 1e-9
        prev = threshold("gdim_k", 2)
        for k in range(3, 11):
            cur = threshold("gdim_k", k)
            assert cur.cmp(prev) > 0
            prev = cur
        sqrt2 = Surd(0, 1, 2)
        for k in (10, 10 ** 3, 10 ** 6):
            assert threshold("gdim_k", k).cmp(sqrt2) < 0


def test_c11_two_processes_byte_identical(capsys):
    with criterion(capsys, 11, "two fresh processes byte-identical"):
        invocations = [
            ("search", "quadratic", "--audit", "--json"),
            ("search", "cubic",),
            ("search", "gap", "--dmax", "4sqrt(3)/5"),
        ]
        for argv in invocations:
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first == second, argv
