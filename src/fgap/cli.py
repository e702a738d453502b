"""Command line front end: parsing, rendering, exit codes.

Each subcommand builds its text lines and its JSON results side by side,
both with the shared %.12g float format (_g, _jf), so a number both views
show agrees; the text may show more (ffib-bound's largest conjugate).
_report frames both with the subcommand and its mathematical
configuration: the text's reproducibility header, the JSON's command and
config.  Timing never appears in the output, so reruns are byte-identical.

Exit codes: 0 success, 1 invalid input, 2 uncertified precision,
3 obstruction found under --expect-pass.
"""

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .algnum import (IntPoly, Surd, is_d_number, poly_squarefree_part,
                     ratio_integrality_oracle, read_int)
from .errors import AmbiguityError, BudgetError, InvalidInputError
from .fusionring import (FP_TOL, builtin_ring, emit_ring_file,
                         formal_codegrees, fp_dimension_vector,
                         parse_ring_file, rep_g_codegrees)
from .gapsearch import (QUAD_DEFAULT_HI, SearchConfig, check_drops,
                        search_cubic, search_gap, search_quadratic)
from .obstruct import (ffib_fpdim_bound, orbit_inequality,
                       spherical_obstruction_report)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_AMBIGUOUS = 2
EXIT_OBSTRUCTED = 3


def _g(x):
    """Shared float rendering for both output modes."""
    return "%.12g" % float(x)


def _jf(x):
    """Float for JSON payloads, rounded to the shared precision."""
    return float(_g(x))


_DEC_RE = re.compile(r"([+-]?\d+)\.(\d+)", re.ASCII)
_RAT_RE = re.compile(r"([+-]?\d+)/(\d+)", re.ASCII)
_SURD_RE = re.compile(
    r"([+-]?\d*)\*?(?:sqrt\((\d+)\)|sqrt(\d+)|√(\d+))(?:/(\d+))?", re.ASCII)


def parse_exact(text):
    """Exact numeric token: INT, DECIMAL, P/Q, or [k]sqrt(n)[/m].

    Decimals are read as exact rationals; sqrt may be spelled sqrt(n),
    sqrtn, or the radical sign.  Every integer in the token is read by
    read_int, so one past its digit cap makes the token unparsable.
    Returns a Surd.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise InvalidInputError("empty numeric token")
    q = _rational(s, text)
    if q is not None:
        return Surd(q)
    m = _SURD_RE.fullmatch(s)
    if m:
        ktxt = m.group(1)
        # a bare sign stands for 1
        k = read_int(ktxt if ktxt.strip("+-") else ktxt + "1")
        n = read_int(m.group(2) or m.group(3) or m.group(4))
        den = read_int(m.group(5) or "1")
        if None not in (k, n, den):
            if den == 0:
                raise InvalidInputError("zero denominator in %r" % text)
            return Fraction(k, den) * Surd.sqrt_fraction(Fraction(n))
    raise InvalidInputError(
        "cannot parse %r as an exact number; use INT, a decimal, P/Q, "
        "or k*sqrt(n)/m" % text)


def _rational(s, text):
    """The Fraction of an INT, DECIMAL or P/Q token s (ASCII digits, each
    integer read by read_int), or None for any other token; text is the
    argument s was read from."""
    num = read_int(s)
    if num is not None:
        return Fraction(num)
    m = _DEC_RE.fullmatch(s)
    if m:
        # the digits of "-0.5" read as -05 over 10
        num = read_int(m.group(1) + m.group(2))
        return None if num is None else Fraction(num, 10 ** len(m.group(2)))
    m = _RAT_RE.fullmatch(s)
    if m:
        num, den = read_int(m.group(1)), read_int(m.group(2))
        if num is None or den is None:
            return None
        if den == 0:
            raise InvalidInputError("zero denominator in %r" % text)
        return Fraction(num, den)
    return None


def _parse_fraction(text):
    q = _rational(text.strip(), text)
    if q is None:
        raise InvalidInputError("cannot parse %r as a rational" % text)
    return q


def _int_arg(text):
    """argparse type of --n and --amax: one integer, read by read_int."""
    value = read_int(text.strip())
    if value is None:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return value


def _parse_int_csv(text, what):
    vals = [read_int(t.strip()) for t in text.split(",")]
    if None in vals:
        raise InvalidInputError("bad %s list %r" % (what, text))
    return vals


def _report(words, config, lines, results, certificates, code=EXIT_OK):
    """(code, payload, text) of a subcommand: the header `fgap <words>` and
    `config: <canonical JSON>` above the report lines, and the payload
    {command, config, results, certificates}."""
    command = "fgap " + " ".join(words)
    header = [command, "config: " + json.dumps(config, sort_keys=True)]
    payload = {"command": command, "config": config, "results": results,
               "certificates": certificates}
    return code, payload, "\n".join(header + lines) + "\n"


# ---------------------------------------------------------------------------
# analyze

def _read_source(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInputError("cannot read %s: %s" % (path, exc))


def _check_json(chk):
    return {"name": chk.name, "status": chk.status, "detail": chk.detail}


def _cmd_analyze(args):
    tol = FP_TOL if args.tol is None else _parse_fraction(args.tol)
    ring = parse_ring_file(_read_source(args.ring))
    spectrum = formal_codegrees(ring)
    report = spherical_obstruction_report(spectrum)
    dims, cert = fp_dimension_vector(ring, spectrum, tol=tol)
    sum_id = spectrum.sum_identity()

    lines = ["rank: %d" % ring.rank]
    # formal_codegrees raised UnsupportedRingError (exit 1, nothing printed)
    # if the ring were noncommutative, so this line and the JSON field are
    # constant
    lines.append("commutative: yes")
    lines.append("codegree charpoly: %s" % spectrum.charpoly.to_str())
    codegrees = spectrum.approx()
    lines.append("codegrees ~ [%s]" % ", ".join(_g(v) for v in codegrees))

    orbits_json = []
    for idx, (orb, checks) in enumerate(zip(spectrum.orbits,
                                            report.orbit_checks)):
        roots = [root.approx_float() for root in orb.roots]
        lines.append("orbit %d: %s multiplicity %d roots ~ [%s]"
                     % (idx, orb.poly.to_str(), orb.multiplicity,
                        ", ".join(_g(r) for r in roots)))
        for chk in checks:
            lines.append("  %s: %s | %s" % (chk.name, chk.status, chk.detail))
        orbits_json.append({
            "index": idx,
            "poly": orb.poly.to_str(),
            "coeffs": orb.poly.to_csv(),
            "multiplicity": orb.multiplicity,
            "roots": [_jf(r) for r in roots],
            "mean": str(orb.mean()),
            "checks": [_check_json(c) for c in checks],
            "survives": idx in report.surviving,
        })
    for chk in report.global_checks:
        lines.append("global %s: %s | %s" % (chk.name, chk.status,
                                             chk.detail))
    lines.append("surviving orbits: [%s]"
                 % ", ".join(str(i) for i in report.surviving))
    lines.append("verdict: %s" % ("no spherical categorification"
                                  if report.obstructed else "no obstruction"))
    lines.append("fp dims ~ [%s]" % ", ".join(_g(v) for v in dims))
    lines.append("fp certificate: rayleigh ~ %s residual_sq ~ %s tol %s "
                 "certified" % (_g(cert["rayleigh"]), _g(cert["residual_sq"]),
                                cert["tol"]))
    lines.append("sum identity: %s" % ("holds" if sum_id else "violated"))

    results = {
        "rank": ring.rank,
        "commutative": True,
        "charpoly": spectrum.charpoly.to_str(),
        "charpoly_coeffs": spectrum.charpoly.to_csv(),
        "codegrees": [_jf(v) for v in codegrees],
        "orbits": orbits_json,
        "global_checks": [_check_json(c) for c in report.global_checks],
        "surviving_orbits": list(report.surviving),
        "obstructed": report.obstructed,
        "fp_dims": [_jf(v) for v in dims],
    }
    certificates = {
        "charpoly": spectrum.charpoly.to_csv(),
        "factorization": [{"poly": o.poly.to_csv(),
                           "multiplicity": o.multiplicity}
                          for o in spectrum.orbits],
        "fp": {
            "rayleigh": _jf(cert["rayleigh"]),
            "residual_sq": _jf(cert["residual_sq"]),
            "tol": str(cert["tol"]),
            "certified": bool(cert["certified"]),
        },
        "sum_identity": sum_id,
    }
    code = EXIT_OBSTRUCTED if (args.expect_pass and report.obstructed) \
        else EXIT_OK
    return _report(["analyze"], {"source": args.ring, "tol": str(tol)},
                   lines, results, certificates, code)


# ---------------------------------------------------------------------------
# search

def _candidate_json(cand):
    d = {
        "poly": cand.poly.to_str(),
        "coeffs": cand.poly.to_csv(),
        "trace": [{"filter": name, "status": st} for name, st in cand.trace],
    }
    if cand.roots is not None:
        d["roots"] = [_jf(r) for r in cand.roots]
    ff = cand.first_fail()
    if ff is not None:
        d["first_fail"] = ff
    return d


def _cmd_search(args):
    mode = args.mode
    drops = tuple(args.drop_filter or ())
    if mode == "gap":
        if drops:
            raise InvalidInputError("the gap search has no droppable "
                                    "filters; --drop-filter applies to "
                                    "quadratic and cubic searches")
        if args.amax is not None:
            raise InvalidInputError("--amax applies to quadratic and cubic "
                                    "searches")
        if args.window is not None:
            raise InvalidInputError("the gap search takes --dmax, "
                                    "not --window")
        d_max = (QUAD_DEFAULT_HI if args.dmax is None
                 else parse_exact(args.dmax))
        result = search_gap(d_max, audit=args.audit)
    else:
        degree = 2 if mode == "quadratic" else 3
        check_drops(degree, drops)
        if args.dmax is not None:
            raise InvalidInputError("--dmax applies to the gap search; use "
                                    "--window LO,HI here")
        d_lo = d_hi = None
        if args.window is not None:
            parts = args.window.split(",")
            if len(parts) != 2:
                raise InvalidInputError("--window takes LO,HI")
            d_lo, d_hi = parse_exact(parts[0]), parse_exact(parts[1])
        cfg = SearchConfig(degree, d_lo=d_lo, d_hi=d_hi, a_max=args.amax,
                           drop=drops, audit=args.audit)
        result = search_quadratic(cfg) if degree == 2 else search_cubic(cfg)

    config = dict(result.config)
    config["audit"] = bool(args.audit)
    lines = ["warning: %s" % w for w in result.warnings]
    lines.append("survivors: %d" % len(result.survivors))
    for cand in result.survivors:
        lines.append("+ %s" % cand.poly.to_str())
        if cand.roots is not None:
            lines.append("    roots ~ [%s]"
                         % ", ".join(_g(r) for r in cand.roots))
        lines.append("    " + " ".join("%s=%s" % t for t in cand.trace))
    if args.audit:
        lines.append("rejected: %d" % len(result.rejected))
        hist = {}
        for cand in result.rejected:
            name = cand.first_fail()
            hist[name] = hist.get(name, 0) + 1
        lines.append("first-fail histogram: "
                     + json.dumps(hist, sort_keys=True))
        for cand in result.rejected:
            lines.append("- %s | first fail: %s"
                         % (cand.poly.to_str(), cand.first_fail()))

    survivors = [_candidate_json(c) for c in result.survivors]
    # a search keeps rejected candidates only under --audit
    rejected = [_candidate_json(c) for c in result.rejected]
    results = {
        "survivors": survivors,
        "warnings": list(result.warnings),
        "exploratory": result.exploratory,
    }
    if args.audit:
        results["rejected"] = rejected
    certificates = {
        "necessary_condition_certificate": not result.exploratory,
        "filter_traces": [{"poly": d["coeffs"], "trace": d["trace"]}
                          for d in survivors + rejected],
    }
    return _report(["search", mode], config, lines, results, certificates)


# ---------------------------------------------------------------------------
# dnumber / ffib-bound / repg / builtin

def _cmd_dnumber(args):
    poly = IntPoly.from_csv(args.poly)
    verdict = is_d_number(poly.coeffs)
    lines = ["d-number: %s" % ("yes" if verdict else "no")]
    certificates = {}
    # for small squarefree inputs, cross-check the coefficient criterion
    # against the power-sum oracle and say so
    squarefree = len(poly_squarefree_part(poly.coeffs)) == len(poly.coeffs)
    if poly.degree <= 3 and squarefree:
        oracle = ratio_integrality_oracle(poly.coeffs)
        lines.append("oracle agreement: %s"
                     % ("yes" if oracle == verdict else "NO"))
        certificates["oracle"] = oracle
    return _report(["dnumber"], {"poly": poly.to_str()}, lines,
                   {"is_d_number": verdict}, certificates)


def _cmd_ffib_bound(args):
    poly = IntPoly.from_csv(args.poly)
    bound, m, pcp, d = ffib_fpdim_bound(poly.coeffs)
    pcp = IntPoly(pcp)
    lines = ["largest conjugate ~ %s" % _g(d.approx_float()),
             "power: %d" % m,
             "power charpoly: %s" % pcp.to_str(),
             "bound: %d" % bound]
    certificates = {
        "power": m,
        "power_charpoly": pcp.to_str(),
        "power_charpoly_coeffs": pcp.to_csv(),
    }
    return _report(["ffib-bound"], {"poly": poly.to_str()}, lines,
                   {"bound": bound}, certificates)


def _cmd_repg(args):
    sizes = _parse_int_csv(args.classes, "class size")
    rep = rep_g_codegrees(sizes)
    inv_sum = sum(1 / v for v in rep.values)
    inv_sq_sum = sum(1 / v ** 2 for v in rep.values)
    # pseudo-unitary test at f = |G|, the largest codegree
    rhs = Fraction(1, 2) + Fraction(1, 2 * rep.group_order)
    pseudo_ok = orbit_inequality(inv_sq_sum, Surd(rep.group_order))[0]
    lines = ["group order: %d" % rep.group_order,
             "codegrees: [%s]" % ", ".join(map(str, rep.values)),
             "all integer: %s" % ("yes" if rep.all_integer else "no"),
             "inverse sum: %s" % inv_sum,
             "inverse square sum: %s" % inv_sq_sum,
             "pseudo-unitary at f = %d: %s (%s vs %s)"
             % (rep.group_order, "pass" if pseudo_ok else "fail",
                inv_sq_sum, rhs)]
    results = {
        "group_order": rep.group_order,
        "codegrees": list(map(str, rep.values)),
        "all_integer": rep.all_integer,
        "inverse_sum": str(inv_sum),
        "inverse_square_sum": str(inv_sq_sum),
        "pseudo_unitary": "pass" if pseudo_ok else "fail",
    }
    return _report(["repg"], {"class_sizes": sizes}, lines, results,
                   {"pseudo_unitary_rhs": str(rhs)})


def _cmd_builtin(args):
    ring = builtin_ring(args.kind, args.n)
    text = emit_ring_file(ring)
    code, payload, _ = _report(["builtin"], {"kind": args.kind, "n": args.n},
                               [], {"rank": ring.rank, "ring_file": text}, {})
    # text mode emits the bare ring file so it can pipe into `analyze -`
    return code, payload, text


# ---------------------------------------------------------------------------
# wiring

class _Parser(argparse.ArgumentParser):
    """Usage errors raise instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise InvalidInputError(message)


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built on the first call and then reused.

    parse_args starts each call from a fresh Namespace, so defaults and
    `append` lists do not carry over from one call to the next.
    """
    parser = _Parser(prog="fgap",
                     description="Exact codegree computations for based "
                                 "rings, obstruction batteries, and "
                                 "certified dimension-gap searches.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="validate a ring file and run the "
                                       "obstruction battery")
    p.add_argument("ring", help="ring file path, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.add_argument("--expect-pass", action="store_true",
                   help="exit 3 if the ring is obstructed")
    p.add_argument("--tol", help="FP certificate tolerance (rational)")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("search", help="enumerate candidate dimensions in "
                                      "a window")
    p.add_argument("mode", choices=("quadratic", "cubic", "gap"))
    p.add_argument("--json", action="store_true")
    p.add_argument("--audit", action="store_true",
                   help="also report rejected candidates with their traces")
    p.add_argument("--drop-filter", action="append", metavar="NAME",
                   help="disable a named filter (exploratory run)")
    p.add_argument("--window", metavar="LO,HI",
                   help="dimension window, exact tokens (quadratic/cubic)")
    p.add_argument("--amax", type=_int_arg, metavar="N",
                   help="trace bound a <= N (quadratic/cubic)")
    p.add_argument("--dmax", metavar="TOKEN",
                   help="upper dimension bound, exact token (gap)")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("dnumber", help="decide whether a monic polynomial "
                                       "has the root-divisibility property")
    p.add_argument("--poly", required=True,
                   help="comma-separated coefficients, highest degree first")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_dnumber)

    p = sub.add_parser("repg", help="codegrees from conjugacy class sizes")
    p.add_argument("--classes", required=True,
                   help="comma-separated class sizes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_repg)

    p = sub.add_parser("ffib-bound", help="integer divisor bound from a "
                                          "dimension's minimal polynomial")
    p.add_argument("--poly", required=True,
                   help="comma-separated coefficients, highest degree first")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_ffib_bound)

    p = sub.add_parser("builtin", help="emit a built-in ring file")
    p.add_argument("kind", choices=("kn", "cyclic"))
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_builtin)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        code, payload, text = args.handler(args)
    except InvalidInputError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_INVALID
    except AmbiguityError as exc:
        sys.stderr.write("ambiguous: %s\n" % exc)
        return EXIT_AMBIGUOUS
    except BudgetError as exc:
        sys.stderr.write("not certified: %s\n" % exc)
        return EXIT_AMBIGUOUS
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)
    return code
