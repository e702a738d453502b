"""End-to-end command-line checks, through a real subprocess unless a test
needs to count calls inside the program."""

import argparse
import contextlib
import functools
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import pathlib
import re
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fgap.algnum
import fgap.cli
import fgap.gapsearch
import fgap.kernels
from conftest import group_ring, run_cli
from oracles import interval
from test_acceptance import _children_cpu_s
from test_golden import GOLDEN
from fgap.errors import BudgetError, InvalidInputError
from fgap.fusionring import FusionRing, builtin_ring, emit_ring_file

FIB = ("rank 2\n"
       "dual 0 1\n"
       "N 0 0 : 1 0\n"
       "N 0 1 : 0 1\n"
       "N 1 0 : 0 1\n"
       "N 1 1 : 1 1\n")


@pytest.fixture
def fib_file(tmp_path):
    p = tmp_path / "fib.ring"
    p.write_text(FIB)
    return str(p)


# ---------------------------------------------------------------------------
# analyze

def test_analyze_file(fib_file):
    rc, out, err = run_cli("analyze", fib_file)
    assert rc == 0 and err == ""
    assert "codegree charpoly: x^2 - 5x + 5" in out
    assert "verdict: no obstruction" in out
    assert "sum identity: holds" in out
    assert out.startswith("fgap analyze\nconfig: ")


def test_analyze_stdin(fib_file):
    rc, out, _ = run_cli("analyze", "-", stdin_text=FIB)
    assert rc == 0
    assert "verdict: no obstruction" in out


def test_analyze_json_matches_text(fib_file):
    rc, text, _ = run_cli("analyze", fib_file)
    rc2, raw, _ = run_cli("analyze", fib_file, "--json")
    assert rc == rc2 == 0
    j = json.loads(raw)
    m = re.search(r"codegrees ~ \[([^\]]*)\]", text)
    text_vals = [float(tok) for tok in m.group(1).split(",")]
    assert text_vals == j["results"]["codegrees"]
    assert j["results"]["charpoly"] == "x^2 - 5x + 5"
    assert j["results"]["obstructed"] is False
    assert j["certificates"]["fp"]["certified"] is True
    assert j["command"] == "fgap analyze"


def test_analyze_expect_pass_exit_codes(fib_file):
    assert run_cli("analyze", fib_file, "--expect-pass")[0] == 0
    rc, out, _ = run_cli("builtin", "kn", "--n", "2")
    assert rc == 0
    rc, out2, _ = run_cli("analyze", "-", "--expect-pass", stdin_text=out)
    assert rc == 3
    assert "verdict: no spherical categorification" in out2


def test_analyze_obstructed_without_flag_exits_zero():
    _, ring, _ = run_cli("builtin", "kn", "--n", "2")
    rc, out, _ = run_cli("analyze", "-", stdin_text=ring)
    assert rc == 0
    assert "verdict: no spherical categorification" in out


def test_analyze_bad_dual_line():
    bad = FIB.replace("dual 0 1", "dual 0 0")
    rc, _, err = run_cli("analyze", "-", stdin_text=bad)
    assert rc == 1
    assert "line 2" in err and "permutation" in err


def test_analyze_missing_file():
    rc, _, err = run_cli("analyze", "/nonexistent/x.ring")
    assert rc == 1
    assert err.startswith("error:")


def test_analyze_noncommutative_exits_1(s3_ring):
    rc, out, err = run_cli("analyze", "-", stdin_text=emit_ring_file(s3_ring))
    assert rc == 1
    assert err.startswith("error: ring is noncommutative")
    assert "Traceback" not in err
    assert out == ""


def _counted(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    calls[name] = 0

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def _count_everywhere(monkeypatch, calls, name, original):
    """Count the calls of original under `name` in every fgap module that
    holds it."""
    wrapper = _counted(calls, name, original)
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "fgap" and \
                vars(module).get(name) is original:
            monkeypatch.setattr(module, name, wrapper)


def test_analyze_computes_one_spectrum(monkeypatch, capsys):
    """One codegree spectrum and one commutativity check per request."""
    calls = {}
    _count_everywhere(monkeypatch, calls, "formal_codegrees",
                      fgap.fusionring.formal_codegrees)
    prop = vars(FusionRing)["is_commutative"]
    monkeypatch.setattr(FusionRing, "is_commutative",
                        property(_counted(calls, "is_commutative",
                                          prop.fget)))
    ring = emit_ring_file(builtin_ring("cyclic", 4))
    monkeypatch.setattr(sys, "stdin", io.StringIO(ring))

    assert fgap.cli.main(["analyze", "-"]) == 0
    out = capsys.readouterr().out
    assert "rank: 4\ncommutative: yes\n" in out
    assert "verdict: no obstruction" in out
    assert calls == {"formal_codegrees": 1, "is_commutative": 1}


# rank 3: Z_3 with N[1][1][2] = N[2][2][1] = 2, four associativity failures
BROKEN_Z3 = (
    "rank 3\n"
    "dual 0 2 1\n"
    "N 0 0 : 1 0 0\n"
    "N 0 1 : 0 1 0\n"
    "N 0 2 : 0 0 1\n"
    "N 1 0 : 0 1 0\n"
    "N 1 1 : 0 0 2\n"
    "N 1 2 : 1 0 0\n"
    "N 2 0 : 0 0 1\n"
    "N 2 1 : 1 0 0\n"
    "N 2 2 : 0 2 0\n")

# rank 4: Z_3 + 1 with X^2 = 1 + g + g^2 - X and two stray entries; 32
# violations, of which analyze prints the first 20
BROKEN_NEARGROUP = (
    "rank 4\n"
    "dual 0 2 1 3\n"
    "N 0 0 : 1 0 0 0\n"
    "N 0 1 : 0 1 0 0\n"
    "N 0 2 : 0 0 1 0\n"
    "N 0 3 : 0 0 0 1\n"
    "N 1 0 : 0 1 0 0\n"
    "N 1 1 : 0 0 1 0\n"
    "N 1 2 : 1 0 0 1\n"
    "N 1 3 : 0 0 0 1\n"
    "N 2 0 : 0 0 1 0\n"
    "N 2 1 : 1 0 0 0\n"
    "N 2 2 : 0 1 0 2\n"
    "N 2 3 : 0 0 0 1\n"
    "N 3 0 : 0 0 0 1\n"
    "N 3 1 : 0 0 0 1\n"
    "N 3 2 : 0 0 0 1\n"
    "N 3 3 : 1 1 1 -1\n")

# stderr of `fgap analyze -` on each ring, captured before validate read
# sparse supports
BROKEN_STDERR = {
    "Z3": ("error: ring axioms violated:\n"
           "  associativity: (i,j,k,l)=(1,1,2,1) lhs 4 != rhs 1\n"
           "  associativity: (i,j,k,l)=(1,2,2,2) lhs 1 != rhs 4\n"
           "  associativity: (i,j,k,l)=(2,1,1,1) lhs 1 != rhs 4\n"
           "  associativity: (i,j,k,l)=(2,2,1,2) lhs 4 != rhs 1\n"),
    "neargroup": ("error: ring axioms violated:\n"
                  "  negative multiplicity: N[3][3][3] = -1\n"
                  "  transpose law: N[2][3][2] = 0 but N[1][2][3] = 1\n"
                  "  transpose law: N[2][2][3] = 2 but N[1][3][2] = 0\n"
                  "  transpose law: N[1][3][2] = 0 but N[2][2][3] = 2\n"
                  "  transpose law: N[1][2][3] = 1 but N[2][3][2] = 0\n"
                  "  associativity: (i,j,k,l)=(1,1,1,3) lhs 0 != rhs 1\n"
                  "  associativity: (i,j,k,l)=(1,1,2,3) lhs 2 != rhs 1\n"
                  "  associativity: (i,j,k,l)=(1,2,1,3) lhs 1 != rhs 0\n"
                  "  associativity: (i,j,k,l)=(1,2,2,3) lhs 1 != rhs 2\n"
                  "  associativity: (i,j,k,l)=(1,2,3,0) lhs 1 != rhs 0\n"
                  "  associativity: (i,j,k,l)=(1,2,3,1) lhs 1 != rhs 0\n"
                  "  associativity: (i,j,k,l)=(1,2,3,2) lhs 1 != rhs 0\n"
                  "  associativity: (i,j,k,l)=(1,2,3,3) lhs 0 != rhs 1\n"
                  "  associativity: (i,j,k,l)=(1,3,3,3) lhs -1 != rhs 0\n"
                  "  associativity: (i,j,k,l)=(2,1,1,3) lhs 0 != rhs 2\n"
                  "  associativity: (i,j,k,l)=(2,1,2,3) lhs 0 != rhs 1\n"
                  "  associativity: (i,j,k,l)=(2,2,1,3) lhs 2 != rhs 0\n"
                  "  associativity: (i,j,k,l)=(2,2,2,3) lhs 3 != rhs 2\n"
                  "  associativity: (i,j,k,l)=(2,2,3,0) lhs 2 != rhs 0\n"
                  "  associativity: (i,j,k,l)=(2,2,3,1) lhs 2 != rhs 0\n"),
}


@pytest.mark.parametrize("name,ring", [("Z3", BROKEN_Z3),
                                       ("neargroup", BROKEN_NEARGROUP)])
def test_analyze_broken_ring_stderr_pinned(name, ring):
    rc, out, err = run_cli("analyze", "-", stdin_text=ring)
    assert (rc, out) == (1, "")
    assert err == BROKEN_STDERR[name]


def test_analyze_uncertifiable_tolerance_is_ambiguous(fib_file):
    rc, _, err = run_cli("analyze", fib_file, "--tol",
                         "1/" + "1" + "0" * 30)
    assert rc == 2
    assert err.startswith("ambiguous:")


# ---------------------------------------------------------------------------
# search

def test_search_quadratic_json():
    rc, raw, _ = run_cli("search", "quadratic", "--json")
    assert rc == 0
    j = json.loads(raw)
    survivors = j["results"]["survivors"]
    assert [s["coeffs"] for s in survivors] == ["1,-5,5"]
    assert j["results"]["exploratory"] is False
    assert j["certificates"]["necessary_condition_certificate"] is True


def test_search_gap_tokens_equivalent(run_cli_once):
    rc1, out1, _ = run_cli_once("search", "gap", "--dmax", "4√3/5")
    rc2, out2, _ = run_cli_once("search", "gap", "--dmax", "4sqrt(3)/5")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "x^2 - 5x + 5" in out1
    assert "survivors: 1" in out1


def test_search_gap_decimal_empty(run_cli_once):
    rc, out, _ = run_cli_once("search", "gap", "--dmax", "1.34")
    assert rc == 0
    assert "survivors: 0" in out


def test_search_gap_below_window_rejected():
    rc, _, err = run_cli("search", "gap", "--dmax", "1.30")
    assert rc == 1
    assert "4/3" in err


def test_search_input_validation():
    rc, _, err = run_cli("search", "quadratic", "--window", "nonsense")
    assert rc == 1
    rc, _, err = run_cli("search", "quadratic", "--drop-filter", "bogus")
    assert rc == 1
    assert "bogus" in err
    rc, _, err = run_cli("search", "quadratic", "--dmax", "1.35")
    assert rc == 1
    rc, _, err = run_cli("search", "gap", "--window", "1.35,1.36")
    assert rc == 1
    rc, _, err = run_cli("search", "quadratic", "--window", "1.36,1.35")
    assert rc == 1
    assert "empty window" in err
    rc, _, err = run_cli("nope")
    assert rc == 1


def test_search_exploratory_marker_in_text():
    rc, out, _ = run_cli("search", "quadratic", "--drop-filter", "window")
    assert rc == 0
    assert "exploratory" in out


def test_every_drop_filter_combination_exits_0(capsys):
    # each nonempty set of droppable filters, 63 quadratic and 127 cubic,
    # runs to an exploratory result: exit 0, no error line, no exception
    runs = 0
    for mode, degree in (("quadratic", 2), ("cubic", 3)):
        names = fgap.gapsearch.DROPPABLE_FILTERS[degree]
        for size in range(1, len(names) + 1):
            for combo in itertools.combinations(names, size):
                argv = ["search", mode, "--amax", "8"]
                for name in combo:
                    argv += ["--drop-filter", name]
                assert fgap.cli.main(argv) == 0, combo
                out, err = capsys.readouterr()
                assert err == "" and "exploratory" in out, combo
                runs += 1
    assert runs == 190


def test_search_cubic_audit_histogram(run_cli_once):
    rc, out, _ = run_cli_once("search", "cubic", "--audit")
    assert rc == 0
    assert "survivors: 0" in out
    assert "rejected: 18393" in out
    m = re.search(r"first-fail histogram: (\{.*\})", out)
    assert json.loads(m.group(1)) == {"divisibility-a3": 18243,
                                      "divisibility-b3": 149,
                                      "totally-positive": 1}


@pytest.mark.parametrize("degree, mode, name", [
    (2, "quadratic", "divisibility-a3"),   # a cubic-only filter
    (3, "cubic", "integer-prefilter"),     # a quadratic-only filter
    (3, "cubic", "bogus"),
    (2, "quadratic", "mainineq "),
])
def test_search_config_rejects_a_filter_it_cannot_drop(degree, mode, name):
    """The library refuses what the CLI refuses, with the same message."""
    with pytest.raises(InvalidInputError) as exc:
        fgap.gapsearch.SearchConfig(degree, drop=(name,))
    assert "unknown filter(s) for the %s search: %s;" % (mode, name) \
        in str(exc.value)
    assert _run_in_process(["search", mode, "--drop-filter", name]) == (
        1, "", "error: %s\n" % exc.value)


# ---------------------------------------------------------------------------
# dnumber / ffib-bound / repg

@pytest.mark.parametrize("extra", [
    ["--drop-filter", "mainineq", "--window", "1.4,1" + "0" * 400],
    ["--amax", "100000000"],
], ids=["400-digit-window", "huge-amax"])
def test_search_cubic_over_budget_exits_2(extra):
    # unbounded enumerations stop before building a candidate
    _assert_over_budget("cubic", *extra)


@pytest.mark.parametrize("amax", ["100000", "100000000"])
def test_search_quadratic_over_budget_exits_2(amax):
    # every a counts the divisors of a^2 from its factorization; the count
    # passes the budget past --amax 41951 and stops the run before any
    # candidate is built
    _assert_over_budget("quadratic", "--amax", amax)


@pytest.mark.parametrize("dmax", ["1.4106", "1.4142", "1.41421356",
                                  "1.414213562373"])
def test_search_gap_past_the_degree_cap_exits_2(dmax):
    # k_max grows toward 10^11 as d_max nears sqrt 2 (1.4106 already needs
    # 25); counting the thresholds stops past the factorization's degree
    # cap of 24, before any walk, in CPU seconds of the child
    t0 = _children_cpu_s()
    err = _assert_one_line_exit(2, "search", "gap", "--dmax", dmax)
    assert _children_cpu_s() - t0 < 1.0
    assert err == ("not certified: d_max admits candidates of degree above "
                   "24, the factorization cap; lower --dmax\n")


@pytest.mark.parametrize("budget,code", [(8865, 2), (8866, 0)])
def test_search_gap_stops_at_the_step_budget(budget, code, monkeypatch):
    # 4sqrt(3)/5 walks 4,056 coefficient ranges and 4,810 leaves: one step
    # less than that stops the walk in degree 3, with no partial report
    monkeypatch.setattr(fgap.gapsearch, "SEARCH_BUDGET", budget)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fgap.cli.main(["search", "gap", "--dmax", "4sqrt(3)/5"])
    assert rc == code
    if code:
        assert (out.getvalue(), err.getvalue()) == (
            "", "not certified: budget exhausted at degree 3: the gap search "
            "takes more than 8865 enumeration steps (coefficient ranges and "
            "leaves); lower --dmax\n")
    else:
        assert err.getvalue() == "" and "survivors: 1\n" in out.getvalue()


def _assert_over_budget(*argv):
    err = _assert_one_line_exit(2, "search", *argv)
    assert err.startswith("not certified: ")


def _assert_one_line_exit(code, *argv):
    """Run the CLI under a timeout; it must exit with code, print nothing
    and write one stderr line, which is returned."""
    proc = subprocess.run(
        [sys.executable, "-m", "fgap", *argv],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    return proc.stderr


def test_dnumber_yes_with_oracle():
    rc, out, _ = run_cli("dnumber", "--poly", "1,-5,5")
    assert rc == 0
    assert "d-number: yes" in out
    assert "oracle agreement: yes" in out


def test_dnumber_no():
    rc, out, _ = run_cli("dnumber", "--poly", "1,-5,3")
    assert rc == 0
    assert "d-number: no" in out


def test_dnumber_rejects_non_monic():
    rc, _, err = run_cli("dnumber", "--poly", "2,-5,5")
    assert rc == 1
    assert "monic" in err


def test_ffib_bound_golden():
    rc, out, _ = run_cli("ffib-bound", "--poly", "1,-5,5")
    assert rc == 0
    assert "power: 3" in out
    assert "power charpoly: x^2 - 50x + 125" in out
    assert "bound: 5" in out


def test_ffib_bound_rejections():
    rc, _, err = run_cli("ffib-bound", "--poly", "1,-4,4")
    assert rc == 1 and "irreducible" in err
    rc, _, err = run_cli("ffib-bound", "--poly", "1,1")
    assert rc == 1 and "totally positive" in err
    # the root 0 of x is not positive
    rc, _, err = run_cli("ffib-bound", "--poly", "1,0")
    assert rc == 1 and "totally positive" in err


def test_ffib_bound_degree_one_root_in_a_wide_interval():
    # bisection ends x - 2 on (-4, 4], whose lower end is negative; the
    # root isolation makes is the exact point 2, which decides total
    # positivity
    assert fgap.algnum._isolate_in((-2, 1), -4, 4, 1) == [(-4, 4, 1)]
    assert interval(fgap.algnum.isolate_real_roots([-2, 1])[0]) == (2, 2)
    rc, out, _ = run_cli("ffib-bound", "--poly", "1,-2")
    assert rc == 0
    assert "power: 2" in out
    assert "power charpoly: x - 4" in out
    assert "bound: 4" in out


def test_ffib_bound_isolates_once_without_a_chain(monkeypatch, capsys):
    """Total positivity is read from the one isolation of the polynomial."""
    calls = {}
    _count_everywhere(monkeypatch, calls, "isolate_real_roots",
                      fgap.algnum.isolate_real_roots)

    assert fgap.cli.main(["ffib-bound", "--poly", "1,-14,49,-49"]) == 0
    assert "bound: 117649\n" in capsys.readouterr().out
    assert calls == {"isolate_real_roots": 1}


@pytest.mark.parametrize("poly", [
    "1,-10000,1", "1,-100000,1", "1,-100000000000,1",
    "1,-60000000000,1100000000000000000000,-5999999999999999999999999999999",
])
def test_ffib_bound_with_a_huge_power_exits_2(poly):
    # d^m with m = floor(d), about 10^4 to 10^11: the power charpoly's
    # coefficients would outgrow Python's 4,300-digit int-to-str limit (or
    # take unbounded time to build); their bit bound stops the run first.
    # The cubic's 31-digit constant term is factored, not trial-divided
    err = _assert_one_line_exit(2, "ffib-bound", "--poly", poly)
    assert err.startswith("not certified: ")


def test_ffib_bound_keeps_a_10000_bit_power():
    # m = 999 and coefficients of about 10,000 bits stay under the cap
    rc, out, _ = run_cli("ffib-bound", "--poly", "1,-1000,1")
    assert rc == 0 and "power: 999\n" in out


@st.composite
def poly_args(draw):
    """--poly values of degree 0-6: integers up to 10**40 in size, often
    monic, with empty tokens, leading zeros (a zero first coefficient or a
    zero-padded token) and non-integers mixed in."""
    def token():
        return draw(st.one_of(
            st.integers(-12, 12).map(str),
            st.integers(-10 ** 40, 10 ** 40).map(str),
            st.integers(0, 40).map(lambda e: "-1" + "0" * e),
            st.integers(0, 99).map(lambda v: "0%d" % v),
            st.sampled_from(["", " ", "1.5", "1/2", "x", "+", "-", "1e3",
                             "0x10", "--1", "sqrt2", "nan", "1_000",
                             "\u0663", "-\u0665"])))
    toks = [token() for _ in range(draw(st.integers(1, 7)))]
    first = draw(st.sampled_from(["1", "1", "0", None]))
    if first is not None:
        toks[0] = first
    return ",".join(toks)


@given(poly_args())
@settings(max_examples=250, deadline=None)
@example(arg="1,-5,5")
@example(arg="1,-1000,1")
@example(arg="")
@example(arg="0,1")
@example(arg="1," + "9" * 40 + ",-" + "9" * 40)
def test_poly_commands_end_in_one_line_or_a_report(arg):
    """dnumber and ffib-bound, in process: a report on stdout (exit 0), or
    exit 1 or 2 with one `error:` or `not certified:` line on stderr, and no
    exception escaping main."""
    for command in ("dnumber", "ffib-bound"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fgap.cli.main([command, "--poly=" + arg])
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert out and err == "", (command, arg)
            continue
        assert code in (1, 2) and out == "", (command, arg, code)
        assert err.count("\n") == 1 and err.endswith("\n"), (command, arg)
        assert err.startswith("error: " if code == 1 else "not certified: "), \
            (command, arg, err)


# tokens that Python's int() or a Unicode \d reads but the ASCII integer
# grammar [+-]?[0-9]+ does not: a digit separator and Arabic-Indic digits;
# and an empty --dmax or --tol, which once fell back to the default
NON_ASCII_INTEGER_INPUTS = [
    (["search", "gap", "--dmax", ""], "error: empty numeric token\n"),
    (["analyze", "-", "--tol", ""], "error: cannot parse '' as a rational\n"),
    (["dnumber", "--poly", "1,1_000"],
     "error: bad polynomial '1,1_000': coefficients must be integers\n"),
    (["dnumber", "--poly", "\u0661,-5,5"],
     "error: bad polynomial '\u0661,-5,5': coefficients must be integers\n"),
    (["ffib-bound", "--poly", "1,-5,\u0665"],
     "error: bad polynomial '1,-5,\u0665': coefficients must be "
     "integers\n"),
    (["search", "gap", "--dmax", "\u0661.\u0663\u0664"],
     "error: cannot parse '\u0661.\u0663\u0664' as an exact number; use "
     "INT, a decimal, P/Q, or k*sqrt(n)/m\n"),
    (["search", "gap", "--dmax", "\u0666\u0667/50"],
     "error: cannot parse '\u0666\u0667/50' as an exact number; use INT, a "
     "decimal, P/Q, or k*sqrt(n)/m\n"),
    (["search", "gap", "--dmax", "4sqrt(\u0663)/5"],
     "error: cannot parse '4sqrt(\u0663)/5' as an exact number; use INT, a "
     "decimal, P/Q, or k*sqrt(n)/m\n"),
    (["search", "quadratic", "--window", "1.35,\u0662"],
     "error: cannot parse '\u0662' as an exact number; use INT, a decimal, "
     "P/Q, or k*sqrt(n)/m\n"),
    (["repg", "--classes", "1,2_0"],
     "error: bad class size list '1,2_0'\n"),
    (["builtin", "kn", "--n", "1_0"],
     "error: argument --n: invalid int value: '1_0'\n"),
    (["builtin", "kn", "--n", "\u0663"],
     "error: argument --n: invalid int value: '\u0663'\n"),
    (["search", "quadratic", "--amax", "2_0"],
     "error: argument --amax: invalid int value: '2_0'\n"),
    (["search", "cubic", "--amax", "\u0664\u0665"],
     "error: argument --amax: invalid int value: '\u0664\u0665'\n"),
    # --tol is parsed before the ring is read
    (["analyze", "-", "--tol", "1/1_000_000"],
     "error: cannot parse '1/1_000_000' as a rational\n"),
    (["analyze", "-", "--tol", "1/\u0661\u0660"],
     "error: cannot parse '1/\u0661\u0660' as a rational\n"),
    (["analyze", "-", "--tol", "1e-6"],
     "error: cannot parse '1e-6' as a rational\n"),
]


@pytest.mark.parametrize(
    "argv,err", NON_ASCII_INTEGER_INPUTS,
    ids=[" ".join(argv) for argv, _ in NON_ASCII_INTEGER_INPUTS])
def test_numeric_tokens_are_ascii_integers(argv, err):
    out, got = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(got):
        code = fgap.cli.main(argv)
    assert (code, out.getvalue(), got.getvalue()) == (1, "", err)


def _ring_token_cases():
    """The ring file `rank 1 / dual 0 / N 0 0 : 1` with one integer token
    spelled with a digit separator or an Arabic-Indic digit, which int()
    reads as the same value; each must exit 1 with its line's message."""
    lines = [["rank", "1"], ["dual", "0"], ["N", "0", "0", ":", "1"]]
    positions = [("rank", 0, 1, "rank is not an integer"),
                 ("dual", 1, 1, "dual entries must be integers"),
                 ("N-i", 2, 1, "N line entries must be integers"),
                 ("N-j", 2, 2, "N line entries must be integers"),
                 ("N-m", 2, 4, "N line entries must be integers")]
    cases = []
    for name, row, col, msg in positions:
        value = int(lines[row][col])
        for kind, spelled in (("separator", "0_%d" % value),
                              ("arabic-indic", chr(0x660 + value))):
            toks = [list(t) for t in lines]
            toks[row][col] = spelled
            text = "".join(" ".join(t) + "\n" for t in toks)
            cases.append(("ring-%s-%s" % (name, kind), ["analyze", "-"],
                          text, "error: line %d: %s\n" % (row + 1, msg)))
    return cases


# exits of the search and ring-file checks, each with its one-line message
ONE_LINE_EXITS = [
    ("gap-drop-filter", ["search", "gap", "--drop-filter", "mainineq"], "",
     "error: the gap search has no droppable filters; --drop-filter "
     "applies to quadratic and cubic searches\n"),
    ("gap-amax", ["search", "gap", "--amax", "5"], "",
     "error: --amax applies to quadratic and cubic searches\n"),
    # a value that starts with "-" must be attached with "="
    ("window-detached-minus", ["search", "quadratic", "--window",
                               "-sqrt2,1.3"], "",
     "error: argument --window: expected one argument\n"),
    ("ring-empty", ["analyze", "-"], "", "error: empty ring file\n"),
    ("ring-comments-only", ["analyze", "-"], "# only\n  # comments\n\n",
     "error: empty ring file\n"),
    ("ring-no-dual", ["analyze", "-"], "rank 2\n",
     "error: missing `dual` line\n"),
    ("ring-dual-x", ["analyze", "-"], "rank 2\ndual 0 x\n",
     "error: line 2: dual entries must be integers\n"),
    ("tol-0", ["analyze", "-", "--tol=0"], FIB,
     "error: tolerance must be positive\n"),
    ("tol-negative", ["analyze", "-", "--tol=-1/2"], FIB,
     "error: tolerance must be positive\n"),
] + _ring_token_cases()


@pytest.mark.parametrize("argv,stdin,err",
                         [case[1:] for case in ONE_LINE_EXITS],
                         ids=[case[0] for case in ONE_LINE_EXITS])
def test_input_errors_exit_1_in_one_line(argv, stdin, err, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert _run_in_process(argv) == (1, "", err)


def test_ring_file_comment_may_hold_any_text(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        "# ١ 1_0 any text\nrank 1\ndual 0\nN 0 0 : 1\n"))
    code, out, err = _run_in_process(["analyze", "-"])
    assert (code, err) == (0, "") and "rank: 1\n" in out


def test_window_end_below_zero_is_echoed():
    code, out, err = _run_in_process(
        ["search", "quadratic", "--window=-sqrt2,1.3", "--json"])
    assert (code, err) == (0, "")
    config = json.loads(out)["config"]
    assert (config["d_lo"], config["d_hi"]) == ("-sqrt(2)", "13/10")


# integers past the digit cap (algnum.INT_DIGITS_CAP = 2,000): past Python's
# 4,300-digit limit, int() itself raised ValueError; between the two, a
# number derived from one (repg's inverse square sum, search gap's f_max)
# could not be printed
BIG = "7" * 5000
OVER = "7" * 2500
RING_3000 = ("rank 2\ndual 0 1\nN 0 0 : 1 0\nN 0 1 : 0 1\nN 1 0 : 0 1\n"
             "N 1 1 : 1 %d\n" % (10 ** 2999 + 7))
RING_400 = RING_3000.replace(str(10 ** 2999 + 7), str(10 ** 399 + 7))
FLOAT_CAP_ERROR = ("not certified: an eigenvalue may have %d bits, over the "
                   "cap of 1023 bits for the floats a report prints\n")
NUMBER_ERROR = ("error: cannot parse %r as an exact number; use INT, a "
                "decimal, P/Q, or k*sqrt(n)/m\n")
OVERSIZED_INTEGER_INPUTS = [
    (["dnumber", "--poly", "1," + BIG], None, 1,
     "error: bad polynomial '1,%s': coefficients must be integers\n" % BIG),
    (["ffib-bound", "--poly", "1," + BIG], None, 1,
     "error: bad polynomial '1,%s': coefficients must be integers\n" % BIG),
    (["repg", "--classes", "1," + BIG], None, 1,
     "error: bad class size list '1,%s'\n" % BIG),
    (["search", "gap", "--dmax", BIG + "/3"], None, 1,
     NUMBER_ERROR % (BIG + "/3")),
    (["search", "quadratic", "--window", "1.35," + BIG], None, 1,
     NUMBER_ERROR % BIG),
    (["analyze", "-", "--tol", "1/" + BIG], None, 1,
     "error: cannot parse '1/%s' as a rational\n" % BIG),
    (["builtin", "kn", "--n", BIG], None, 1,
     "error: argument --n: invalid int value: '%s'\n" % BIG),
    (["search", "quadratic", "--amax", BIG], None, 1,
     "error: argument --amax: invalid int value: '%s'\n" % BIG),
    (["repg", "--classes", "1," + OVER], None, 1,
     "error: bad class size list '1,%s'\n" % OVER),
    (["search", "gap", "--dmax", "4%s1/3%s" % ("0" * 2499, "0" * 2500)], None,
     1, NUMBER_ERROR % ("4%s1/3%s" % ("0" * 2499, "0" * 2500))),
    (["search", "gap", "--dmax", "1.%s1" % ("3" * 2000)], None, 1,
     NUMBER_ERROR % ("1.%s1" % ("3" * 2000))),
    # a ring file is no CLI token: its 3,000-digit multiplicity is read, and
    # the charpoly's bit bound stops the run before anything is printed
    (["analyze", "-"], RING_3000, 2,
     "not certified: the characteristic polynomial may have coefficients "
     "of 39852 bits, whose squares pass the cap of 14000 bits\n"),
    # below the charpoly's bit bound, the codegrees still pass the float
    # range: Z's largest row sum stops the run before any float is formed
    (["analyze", "-"], RING_400, 2, FLOAT_CAP_ERROR % 2651),
    (["analyze", "-"], emit_ring_file(builtin_ring("kn", 10 ** 160)), 2,
     FLOAT_CAP_ERROR % 1064),
    # a radicand past 10^20 is not factored: a 39-digit semiprime
    (["search", "quadratic", "--window",
      "sqrt(300000000000000001940000000000000002091)/10000000000000000000,"
      "1.4"], None, 1, "error: radicand over the cap of 10^20\n"),
]


@pytest.mark.parametrize(
    "argv,stdin,code,err", OVERSIZED_INTEGER_INPUTS,
    ids=["dnumber", "ffib-bound", "repg", "gap", "quadratic-window", "tol",
         "builtin-n", "amax", "repg-2500-digits", "gap-2501-digits",
         "gap-2002-digit-decimal", "ring-file-3000-digits",
         "ring-file-400-digits", "kn-10^160", "radicand"])
def test_oversized_integers_end_in_one_line(argv, stdin, code, err,
                                            monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    out, got = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(got):
        rc = fgap.cli.main(argv)
    assert (rc, out.getvalue(), got.getvalue()) == (code, "", err)


def test_analyze_prints_codegrees_up_to_the_float_cap(monkeypatch):
    # K_n's Z = [[2, n], [n, n^2 + 2]] has the largest row sum n^2 + n + 2:
    # at FLOAT_BITS_CAP bits the report prints its top codegree, near
    # 9e307, and one bit more stops the run
    cap = fgap.algnum.FLOAT_BITS_CAP
    n = isqrt(2 ** cap)
    while (n * n + n + 2).bit_length() > cap:
        n -= 1
    for m, code, err in ((n, 0, ""), (n + 1, 2, FLOAT_CAP_ERROR % (cap + 1))):
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            emit_ring_file(builtin_ring("kn", m))))
        out, got = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(got):
            rc = fgap.cli.main(["analyze", "-"])
        assert (rc, got.getvalue()) == (code, err)
        assert ("codegrees ~ [1, 8.98846567431e+307]" in out.getvalue()) \
            == (code == 0)


@pytest.mark.parametrize("argv", [
    ["search", "gap", "--dmax", "4%s1/3%s" % ("0" * 1998, "0" * 1999)],
    ["search", "gap", "--dmax", "1.%s4" % ("3" * 1997)],
    ["repg", "--classes", "1,%s,%s" % ("9" * 2000, "8" * 2000)],
    ["search", "quadratic", "--window",
     "sqrt(99999999100000001881)/10000000000,1.4"],
], ids=["gap-fraction", "gap-decimal", "repg", "radicand-at-20-digits"])
def test_integers_at_the_caps_print_their_report(argv):
    # 2,000 digits: every printed number derived from them stays under the
    # int-to-str limit; a 20-digit semiprime radicand is factored
    out, got = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(got):
        rc = fgap.cli.main(argv)
    assert (rc, got.getvalue()) == (0, "") and out.getvalue()


@st.composite
def exact_tokens(draw):
    """parse_exact tokens: INT, decimal, P/Q and k*sqrt(n)/m in their
    spellings, integers of up to 5,000 digits, radicands past 10^20, and
    garbage."""
    def integer():
        # digit strings: a 5,000-digit int cannot even be turned into one
        return draw(st.one_of(
            st.integers(-10 ** 6, 10 ** 6).map(str),
            st.integers(0, 5000).map(lambda e: "1" + "0" * e),
            st.integers(1990, 2010).map(lambda e: "7" + "0" * e + "1")))

    def natural():
        return integer().lstrip("-")
    kind = draw(st.sampled_from(["int", "decimal", "fraction", "surd",
                                 "radicand", "garbage"]))
    if kind == "int":
        return integer()
    if kind == "decimal":
        return "%s.%s" % (integer(), natural())
    if kind == "fraction":
        return "%s/%s" % (integer(), natural())
    if kind in ("surd", "radicand"):
        n = (str(draw(st.integers(10 ** 20 + 1, 10 ** 60)))
             if kind == "radicand" else natural())
        k = draw(st.sampled_from(["", "-", "+", "3", "-2*", "12"]))
        root = draw(st.sampled_from(["sqrt(%s)", "sqrt%s", "\u221a%s"])) % n
        den = draw(st.sampled_from(["", "/5", "/0", "/" + natural()]))
        return k + root + den
    return draw(st.one_of(
        st.text(max_size=12),
        st.sampled_from(["", "1e3", "1_000", "0x10", "--1", "sqrt()",
                         "1/2/3", "nan", "inf", "\u0663", "1.", ".5",
                         "4sqrt(3)/5/", "sqrt(-2)"])))


@given(exact_tokens())
@settings(max_examples=150, deadline=None)
@example(tok="sqrt(300000000000000001940000000000000002091)")
@example(tok="1." + "3" * 5000)
@example(tok="7" + "0" * 1999)
def test_exact_tokens_end_in_one_line_or_a_report(tok):
    """parse_exact tokens through search quadratic --window (either end)
    and repg --classes, in process: exit 0 with a report, or exit 1 or 2
    with one stderr line and nothing on stdout; no exception escapes main.
    The gap search and window pairs have their own test below."""
    for argv in (["search", "quadratic", "--window", tok + ",1.4"],
                 ["search", "quadratic", "--window", "1.35," + tok],
                 ["repg", "--classes", "1," + tok]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fgap.cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert out and err == "", argv
            continue
        assert code in (1, 2) and out == "", (argv, code)
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)


# --dmax and --window tokens besides the grammar's: decimals just past the
# degree-4 threshold 4sqrt(3)/5 = 1.3856406... and near sqrt 2, and the
# empty, blank, exponent and digit-separator spellings
NEAR_THRESHOLD_TOKENS = ("1.385641", "1.41421356")
ODD_TOKENS = ("", " ", "1e0", "1_3")


@st.composite
def window_tokens(draw):
    """A --dmax token or a --window end: exact_tokens, a decimal around
    the gap window (4/3, sqrt 2), a fraction of two 2,000-digit integers
    there, or an odd spelling."""
    kind = draw(st.sampled_from(["exact", "near", "decimal", "long",
                                 "odd"]))
    if kind == "exact":
        return draw(exact_tokens())
    if kind == "near":
        return draw(st.sampled_from(NEAR_THRESHOLD_TOKENS))
    if kind == "decimal":
        return "1.%06d" % draw(st.integers(300000, 450000))
    if kind == "long":
        den = draw(st.integers(10 ** 1999, 6 * 10 ** 1999))
        return "%d/%d" % (draw(st.integers(den * 13 // 10, den * 3 // 2)),
                          den)
    return draw(st.sampled_from(ODD_TOKENS))


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fgap.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@given(dmax=window_tokens(), lo=window_tokens(), hi=window_tokens())
@settings(max_examples=100, deadline=None)
@example(dmax="", lo="1.35", hi="4sqrt(3)/5")
def test_gap_tokens_and_window_pairs_end_in_an_exit_code(dmax, lo, hi):
    """search gap --dmax, and both appendix searches with --window lo,hi,
    with and without --drop-filter mainineq, in process: exit 0 with a
    report whose config echoes the tokens given and the same stdout on a
    second call, or exit 1 or 2 with one stderr line; no exception escapes
    main.  A 20,000-step budget stops a degree-4 gap search in about 0.1 s.
    --audit is left out: it factors every quartic leaf, which costs
    seconds at the same budget."""
    runs = [(["search", "gap", "--dmax", dmax], {"d_max": dmax})]
    for mode in ("quadratic", "cubic"):
        for drop in ([], ["--drop-filter", "mainineq"]):
            runs.append((["search", mode, "--window", lo + "," + hi] + drop,
                         {"d_lo": lo, "d_hi": hi}))
    with mock.patch.object(fgap.gapsearch, "SEARCH_BUDGET", 20000):
        for argv, tokens in runs:
            code, out, err = _run_in_process(argv)
            if code == 0:
                config = json.loads(re.search(r"^config: (.*)$", out,
                                              re.M).group(1))
                assert {key: config[key] for key in tokens} == {
                    key: fgap.gapsearch.surd_text(fgap.cli.parse_exact(tok))
                    for key, tok in tokens.items()}, argv
                assert err == "" and _run_in_process(argv) == (0, out, ""), \
                    argv
                continue
            assert code in (1, 2) and out == "", (argv, code)
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert err.startswith(("error: ", "not certified: ",
                                   "ambiguous: ")), (argv, err)


def test_dnumber_over_the_degree_cap_exits_1():
    # the d-number test shares the factorization's degree cap of 24
    err = _assert_one_line_exit(1, "dnumber", "--poly", "1" + ",1" * 40)
    assert err == "error: degree 40 exceeds the d-number test's cap of 24\n"


def test_dnumber_at_the_degree_cap_takes_under_a_cpu_second():
    # at the cap the criterion is 23 coefficient divisibilities, so the run
    # costs about one interpreter start
    t0 = _children_cpu_s()
    rc, out, _ = run_cli("dnumber", "--poly", "1" + ",0" * 23 + ",-2")
    assert _children_cpu_s() - t0 < 1.0
    assert rc == 0 and "d-number: yes\n" in out


def test_d_numbers_never_reach_the_resultant(monkeypatch, capsys):
    """The coefficient criterion decides every d-number in the searches and
    the obstruction battery; only dnumber's oracle line runs the ratio
    oracle."""
    def refuse(p):
        raise AssertionError("ratio_integrality_oracle called")
    monkeypatch.setattr(fgap.algnum, "ratio_integrality_oracle", refuse)
    monkeypatch.setattr(fgap.cli, "ratio_integrality_oracle", refuse)
    for n in range(1, 9):
        # x^n - 2 is a d-number; x^n + x + 2 (n >= 2) is not: 2 does not
        # divide 1
        assert fgap.algnum.is_d_number([-2] + [0] * (n - 1) + [1]) is True
        if n >= 2:
            assert fgap.algnum.is_d_number([2, 1] + [0] * (n - 2) + [1]) \
                is False
    result = fgap.gapsearch.search_gap(fgap.gapsearch.QUAD_DEFAULT_HI)
    assert [c.poly.to_str() for c in result.survivors] == ["x^2 - 5x + 5"]
    for n in range(2, 6):
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            emit_ring_file(builtin_ring("kn", n))))
        assert fgap.cli.main(["analyze", "-"]) == 0
    assert "codegrees-are-d-numbers" in capsys.readouterr().out


# The functions a tracer wraps in the search layer, each in an adapter that
# takes positional arguments only: the leaf calls and the gap walk's rows of
# coefficient ranges.
TRACED_SEARCH_FUNCTIONS = ("_quad_candidate", "_cubic_candidate",
                           "_gap_leaf", "_child_ranges")


@pytest.mark.parametrize("argv", [
    ["search", "quadratic"],
    ["search", "quadratic", "--amax", "200"],
    ["search", "cubic"],
    ["search", "cubic", "--window", "1.2,1.3"],
    ["search", "cubic", "--drop-filter", "window", "--amax", "12"],
    ["search", "gap", "--dmax", "1.34"],
    ["search", "gap", "--dmax", "277/200"],
], ids=lambda argv: " ".join(argv))
def test_traced_search_keeps_the_tracer_contract(argv, monkeypatch, capsys):
    """A traced benchmark run holds only if every wrapped call is
    positional, two passes make the same calls (no state outlives a
    search), and the candidate calls are the survivors plus the rejected
    candidates that --audit lists."""
    originals = {name: getattr(fgap.gapsearch, name)
                 for name in TRACED_SEARCH_FUNCTIONS}
    runs = []
    for _ in range(2):
        calls = {}
        for name, fn in originals.items():
            monkeypatch.setattr(fgap.gapsearch, name,
                                _counted(calls, name, fn))
        assert fgap.cli.main(argv + ["--audit"]) == 0
        runs.append((calls, capsys.readouterr().out))
    assert runs[0] == runs[1]
    calls, out = runs[0]
    survivors, rejected = (
        int(re.search(r"^%s: (\d+)$" % key, out, re.M).group(1))
        for key in ("survivors", "rejected"))
    leaves = sum(calls[name] for name in ("_quad_candidate",
                                          "_cubic_candidate", "_gap_leaf"))
    assert leaves == survivors + rejected


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# sha256 of the exit code and stdout of `analyze -` and `analyze - --json`
# on every ring of perfbench's deck, captured before charpoly_int halved its
# products and validate compared whole slices
EVERY_RING_SHA256 = (
    "8b24e8e74a0913de22998f81389a067861db0c4bfb9fc30a1f920c18c75d96c1")


def test_analyze_bytes_pinned_on_every_benchmark_ring(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    rings = importlib.import_module("rings")
    digest = hashlib.sha256()
    count = 0
    for ring in rings.every_ring():
        text = ring.text()
        for argv in (["analyze", "-"], ["analyze", "-", "--json"]):
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = fgap.cli.main(argv)
            digest.update(b"%d\n" % rc)
            digest.update(buf.getvalue().encode())
            count += 1
    assert count == 420
    assert digest.hexdigest() == EVERY_RING_SHA256


@functools.lru_cache(maxsize=None)
def deck_ring_texts():
    """The ring files of perfbench's deck (rings.every_ring), in order."""
    spec = importlib.util.spec_from_file_location("rings",
                                                  PERFBENCH / "rings.py")
    rings = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rings)
    return tuple(ring.text() for ring in rings.every_ring())


# most kernels.descartes_bound calls of analyze over the deck: isolation
# writes a linear polynomial's root down and bisects only the others
DECK_DESCARTES_CALLS = 1609


def test_analyze_isolation_work_on_every_benchmark_ring(monkeypatch):
    calls = []
    real_bound = fgap.kernels.descartes_bound

    def bound(*args):
        calls.append(args)
        return real_bound(*args)

    monkeypatch.setattr(fgap.kernels, "descartes_bound", bound)
    for text in deck_ring_texts():
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        with contextlib.redirect_stdout(io.StringIO()):
            assert fgap.cli.main(["analyze", "-"]) == 0
    assert len(calls) <= DECK_DESCARTES_CALLS, len(calls)


# tokens a mutation writes into a ring file: small and signed integers, a
# 400-digit one, garbage and the format's own keywords
FUZZ_TOKENS = ("0", "-1", "1", "+2", "-0", "7" * 400, "x", "1.5", "1/2",
               "1_0", "\u0663", "#", ":", "rank", "dual", "N")


@st.composite
def mutated_ring_files(draw):
    """A deck ring file with one to three mutations: a token replaced or
    its sign flipped, or a line deleted, duplicated or extended by a
    token."""
    texts = deck_ring_texts()
    lines = texts[draw(st.integers(0, len(texts) - 1))].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        kind = draw(st.sampled_from(("replace", "sign", "delete",
                                     "duplicate", "extend")))
        if kind in ("replace", "sign") and toks:
            j = draw(st.integers(0, len(toks) - 1))
            toks[j] = (draw(st.sampled_from(FUZZ_TOKENS)) if kind == "replace"
                       else toks[j][1:] if toks[j][0] in "+-"
                       else "-" + toks[j])
            lines[i] = " ".join(toks)
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] += " " + draw(st.sampled_from(FUZZ_TOKENS))
    return "\n".join(lines) + "\n"


# K_1 with a 400-digit N 1 1 multiplicity: a valid ring whose codegrees pass
# the float range, once an OverflowError traceback
RING_KN_400 = ("rank 2\ndual 0 1\nN 0 0 : 1 0\nN 0 1 : 0 1\nN 1 0 : 0 1\n"
               "N 1 1 : 1 %s\n" % ("7" * 400))


@given(text=mutated_ring_files())
@settings(max_examples=150, deadline=None)
@example(text=RING_KN_400)
def test_mutated_ring_files_end_in_an_exit_code(text):
    # no exception escapes main; a nonzero exit explains itself on stderr
    # (an axiom violation lists one line per violation)
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fgap.cli.main(["analyze", "-"])
    finally:
        sys.stdin = stdin
    assert rc in (0, 1, 2, 3)
    if rc:
        assert err.getvalue().startswith(("error: ", "not certified: ",
                                          "ambiguous: ")), err.getvalue()
    if text == RING_KN_400:
        assert (rc, out.getvalue(), err.getvalue()) == (
            2, "", FLOAT_CAP_ERROR % 2657)


@pytest.mark.parametrize("argv", [
    ["search", "cubic"],
    ["search", "cubic", "--drop-filter", "window", "--amax", "12"],
    ["search", "gap", "--dmax", "277/200"],
    ["search", "gap", "--dmax", "4sqrt(3)/5"],
], ids=lambda argv: " ".join(argv))
def test_benchmark_tracer_reads_the_audit_histogram(argv, monkeypatch,
                                                    capsys):
    """The benchmark's own tracer, around a run without --audit, counts
    from the candidate calls' return values the first-fail histogram and
    the survivors that --audit prints, and leaves no wrapper installed."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    counts = layers.Counts()
    tr = layers.make_tracer(counts)
    try:
        tr.install()
        rc = fgap.cli.main(argv)
    finally:
        tr.uninstall()
    assert tracer.leftover_wrappers() == []
    traced = capsys.readouterr().out
    assert rc == 0
    assert fgap.cli.main(argv) == 0
    assert capsys.readouterr().out == traced
    assert fgap.cli.main(argv + ["--audit"]) == 0
    out = capsys.readouterr().out
    hist = json.loads(re.search(r"^first-fail histogram: (.*)$", out,
                                re.M).group(1))
    survivors = int(re.search(r"^survivors: (\d+)$", out, re.M).group(1))
    assert {k: v for k, v in counts.first_fail.items() if v} == hist
    assert counts.survivors == survivors


def test_repg_dihedral():
    rc, out, _ = run_cli("repg", "--classes", "1,2,2,5")
    assert rc == 0
    assert "group order: 10" in out
    assert "codegrees: [10, 5, 5, 2]" in out
    assert "all integer: yes" in out
    assert "inverse sum: 1" in out
    assert "inverse square sum: 17/50" in out
    assert "pseudo-unitary at f = 10: pass (17/50 vs 11/20)" in out


REPG_LINE = re.compile(r"pseudo-unitary at f = (\d+): (pass|fail) "
                       r"\((\S+) vs (\S+)\)\n")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 40), max_size=6))
@example([])   # the trivial group: lhs == rhs == 1
@example([1])  # Z_2: lhs 1/2, 2*lhs - 1 == 0
@example([1, 1, 1, 1, 1, 1])  # Z_7: lhs 1/7 far below 1/2
def test_repg_pseudo_unitary_matches_rational_test(rest):
    """The orbit-inequality decision at f = |G| equals the direct rational
    comparison inv_sq_sum <= 1/2 + 1/(2|G|), and the printed text keeps
    both sides."""
    sizes = [1] + rest
    order = sum(sizes)
    lhs = sum(Fraction(s, order) ** 2 for s in sizes)
    rhs = Fraction(1, 2) + Fraction(1, 2 * order)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fgap.cli.main(["repg", "--classes", ",".join(map(str, sizes))])
    assert rc == 0
    m = REPG_LINE.search(buf.getvalue())
    assert m.groups() == (str(order), "pass" if lhs <= rhs else "fail",
                          str(lhs), str(rhs))


def test_repg_requires_identity_class():
    rc, _, err = run_cli("repg", "--classes", "2,2,5")
    assert rc == 1
    assert "identity" in err


# ---------------------------------------------------------------------------
# builtin and round trips

def test_builtin_emits_parseable_ring():
    rc, out, _ = run_cli("builtin", "kn", "--n", "1")
    assert rc == 0
    assert out == FIB


def test_builtin_analyze_pipe():
    _, ring, _ = run_cli("builtin", "cyclic", "--n", "3")
    rc, out, _ = run_cli("analyze", "-", stdin_text=ring)
    assert rc == 0
    assert "verdict: no obstruction" in out


def test_builtin_json():
    rc, raw, _ = run_cli("builtin", "kn", "--n", "1", "--json")
    assert rc == 0
    j = json.loads(raw)
    assert j["results"]["rank"] == 2
    assert j["results"]["ring_file"] == FIB


# one command line per subcommand and search mode, each run in process
# with and without --json
FRAMED_ARGV = (
    ("analyze", "-"),
    ("search", "quadratic", "--audit"),
    ("search", "cubic", "--amax", "8", "--drop-filter", "window"),
    ("search", "gap", "--dmax", "1.34"),
    ("dnumber", "--poly", "1,-5,5"),
    ("ffib-bound", "--poly", "1,-5,5"),
    ("repg", "--classes", "1,3,2"),
)


@pytest.mark.parametrize("argv", FRAMED_ARGV, ids=" ".join)
def test_json_command_and_config_are_the_text_header(argv, monkeypatch):
    runs = []
    for extra in ((), ("--json",)):
        monkeypatch.setattr(sys, "stdin", io.StringIO(FIB))
        runs.append(_run_in_process(list(argv + extra)))
    (code, text, _), (json_code, raw, _) = runs
    assert code == json_code == 0
    payload = json.loads(raw)
    assert text.splitlines()[:2] == [
        payload["command"],
        "config: " + json.dumps(payload["config"], sort_keys=True)]
    words = argv[:2] if argv[0] == "search" else argv[:1]
    assert payload["command"] == "fgap " + " ".join(words)


def test_every_subcommand_has_a_framed_report():
    parser = fgap.cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {argv[0] for argv in FRAMED_ARGV} | {
        "builtin"}
    mode = next(a for a in sub.choices["search"]._actions
                if a.dest == "mode")
    assert {argv[1] for argv in FRAMED_ARGV
            if argv[0] == "search"} == set(mode.choices)


def test_builtin_json_frame_and_bare_text():
    """builtin's text is the bare ring file; its JSON has the frame."""
    code, text, _ = _run_in_process(["builtin", "kn", "--n", "1"])
    assert (code, text) == (0, FIB)
    code, raw, _ = _run_in_process(["builtin", "kn", "--n", "1", "--json"])
    payload = json.loads(raw)
    assert code == 0
    assert (payload["command"], payload["config"]) == (
        "fgap builtin", {"kind": "kn", "n": 1})
    assert payload["certificates"] == {}


def test_builtin_bad_kind():
    rc, _, err = run_cli("builtin", "nope", "--n", "1")
    assert rc == 1


@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_builtin_cyclic_matches_the_group_ring(n):
    # the bytes of every cyclic ring up to the cap
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    inverse = [(-i) % n for i in range(n)]
    assert (emit_ring_file(builtin_ring("cyclic", n))
            == emit_ring_file(group_ring(table, inverse)))


def test_builtin_cyclic_over_the_cap_stops_before_building():
    with pytest.raises(BudgetError, match="capped at 100"):
        builtin_ring("cyclic", 101)
    proc = subprocess.run(
        [sys.executable, "-m", "fgap", "builtin", "cyclic", "--n", "100000"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("not certified: cyclic(100000) would "
                                  "build 1000000000000000 tensor entries")


# ---------------------------------------------------------------------------
# determinism and help

def test_help_exits_zero():
    rc, out, _ = run_cli("-h")
    assert rc == 0
    assert "analyze" in out and "search" in out


def test_one_parser_serves_every_call(monkeypatch, capsys):
    """Calls in one process share one parser, and no `append` list or
    default carries over from one call to the next."""
    fgap.cli._build_parser.cache_clear()

    def stdout_of(*argv):
        rc = fgap.cli.main(list(argv))
        out = capsys.readouterr().out
        return rc, hashlib.sha256(out.encode("utf-8")).hexdigest()

    quad = ("search", "quadratic", "--drop-filter", "mainineq",
            "--window", "1.35,1.39")
    assert stdout_of(*quad) == GOLDEN[" ".join(quad)]
    assert stdout_of("search", "quadratic") == GOLDEN["search quadratic"]
    assert fgap.cli.main(["search", "quadratic", "--amax"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        emit_ring_file(builtin_ring("kn", 2))))
    assert stdout_of("analyze", "-") == GOLDEN["analyze -"]
    info = fgap.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


# ---------------------------------------------------------------------------
# runtime dependencies

NO_NUMPY = """
import io, sys
import fgap.cli
sys.stdin = io.StringIO(%r)
assert fgap.cli.main(["analyze", "-"]) == 0
assert fgap.cli.main(["search", "quadratic"]) == 0
sys.stderr.write(repr(sorted(m for m in sys.modules
                             if m.split(".")[0] == "numpy")))
""" % FIB


def test_cli_runs_without_numpy():
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "survivors: 1" in proc.stdout
    assert proc.stderr == "[]"
