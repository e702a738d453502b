"""Layer boundaries of fgap and the per-layer metrics derived from a trace.

A layer is named by the module that implements it.  Only entry points are
wrapped: a call that stays inside one layer costs nothing extra to leave
unwrapped, because it adds to that layer's self time either way.  Helpers
that no layer owns (IntPoly, RatInterval, polynomial gcd) are charged to
the layer that calls them.

Counts include calls made inside a layer as well as calls into it; with the
compiled kernel backend the calls inside `_ck` are invisible, which is one
reason every result records the backend.
"""

from tracer import Boundary, Tracer

LAYERS = ("cli", "gapsearch.walk", "gapsearch.leaf", "algnum.surd",
          "algnum.isolate", "algnum.factor", "kernels", "fusionring",
          "obstruct")

# First-failing filter names of every search, as in the --audit histogram.
FILTERS = ("irreducible", "roots-real-ge-1", "root-window", "d-number",
           "integer-prefilter", "orbit-inequality", "divisibility-a3",
           "divisibility-b3", "totally-positive", "mainineq")

_SURD_METHODS = ("__init__", "sqrt_fraction", "_coerce", "__add__",
                 "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__pow__", "__truediv__", "conjugate", "sign",
                 "cmp_fraction", "cmp", "__eq__", "floor", "ceil", "approx",
                 "__float__", "is_algebraic_integer", "min_poly")
_ALGNUM_METHODS = ("__init__", "refine", "approx_float", "cmp_fraction",
                   "cmp_surd", "cmp", "floor")
_KERNELS = ("normalize", "int_content", "poly_mul", "pseudo_rem",
            "eval_qnum", "sign_variations", "sturm_chain", "varcount_at",
            "varcount_inf", "resultant")


class Counts:
    """Exact counters read from return values (box prunes, leaf outcomes)."""

    def __init__(self):
        self.box_prunes = 0
        self.empty_ranges = 0
        self.survivors = 0
        self.first_fail = {name: 0 for name in FILTERS}

    def leaf(self, cand):
        if cand.survivor:
            self.survivors += 1
        else:
            name = cand.first_fail()
            self.first_fail[name] = self.first_fail.get(name, 0) + 1

    def prune(self, kept):
        if not kept:
            self.box_prunes += 1

    def coeff_range(self, rng):
        if rng[0] > rng[1]:
            self.empty_ranges += 1

    def snapshot(self):
        return {"box_prunes": self.box_prunes,
                "empty_ranges": self.empty_ranges,
                "survivors": self.survivors,
                "first_fail": dict(self.first_fail)}


def boundaries(counts):
    """Boundary list for the imported fgap package."""
    from fgap import (_factor, _intfactor, algnum, cli, fusionring,
                      gapsearch, kernels, obstruct)

    def gap_leaf(fn):
        def _gap_leaf(poly, d_max, gamma, keep_all):
            # keep every candidate to read its first failing filter, then
            # hand the search exactly what it asked for
            cand = fn(poly, d_max, gamma, True)
            counts.leaf(cand)
            return cand if (cand.survivor or keep_all) else None
        return _gap_leaf

    def observe(record):
        def adapt(fn):
            def observed(*args):
                out = fn(*args)
                record(out)
                return out
            return observed
        return adapt

    out = [Boundary(cli, "main", "cli", hot=False)]
    walk = "gapsearch.walk"
    for name in ("search_gap", "search_cubic", "search_quadratic",
                 "_gap_degree", "_gap_cut_points"):
        out.append(Boundary(gapsearch, name, walk, hot=False))
    out += [
        Boundary(gapsearch, "_totally_real_in_box", walk, hot=True,
                 adapter=observe(counts.prune)),
        Boundary(gapsearch, "_next_coeff_range", walk, hot=True,
                 adapter=observe(counts.coeff_range)),
        Boundary(gapsearch, "_surd_eval_bound", walk, hot=True),
        Boundary(gapsearch, "_gap_leaf", "gapsearch.leaf", hot=True,
                 adapter=gap_leaf),
        Boundary(gapsearch, "_cubic_candidate", "gapsearch.leaf", hot=True,
                 adapter=observe(counts.leaf)),
        Boundary(gapsearch, "_quad_candidate", "gapsearch.leaf", hot=True,
                 adapter=observe(counts.leaf)),
    ]
    out += [Boundary(algnum.Surd, m, "algnum.surd", hot=True)
            for m in _SURD_METHODS]
    out.append(Boundary(algnum, "isolate_real_roots", "algnum.isolate",
                        hot=True))
    out += [Boundary(algnum.AlgebraicNumber, m, "algnum.isolate", hot=True)
            for m in _ALGNUM_METHODS]
    fac = "algnum.factor"
    for name in ("factor_over_integers", "charpoly_int", "power_char_poly",
                 "ratio_integrality_oracle", "largest_integer_divisor"):
        out.append(Boundary(algnum, name, fac, hot=False))
    out += [
        Boundary(algnum, "is_d_number", fac, hot=True),
        Boundary(_factor, "factor_squarefree_primitive", fac, hot=False),
        Boundary(_intfactor, "factorize", fac, hot=True),
        Boundary(_intfactor, "square_free_part", fac, hot=True),
        Boundary(_intfactor, "is_probable_prime", fac, hot=True),
    ]
    out += [Boundary(kernels, name, "kernels", hot=True) for name in _KERNELS]
    fr = "fusionring"
    for name in ("validate", "is_commutative", "matrix"):
        out.append(Boundary(fusionring.FusionRing, name, fr, hot=False))
    for name in ("builtin_ring", "codegree_matrix", "formal_codegrees",
                 "sum_identity_check", "fp_dimension_vector",
                 "rep_g_codegrees", "parse_ring_file", "emit_ring_file"):
        out.append(Boundary(fusionring, name, fr, hot=False))
    for name in ("approx", "min_root", "inverse_square_sum", "inverse_sum",
                 "sum_identity"):
        out.append(Boundary(fusionring.CodegreeSpectrum, name, fr,
                            hot=False))
    out += [
        Boundary(obstruct, "threshold", "obstruct", hot=True),
        Boundary(obstruct, "spherical_obstruction_report", "obstruct",
                 hot=False),
        Boundary(obstruct, "pseudo_unitary_inequality", "obstruct",
                 hot=False),
    ]
    return out


def make_tracer(counts):
    """A Tracer over every boundary."""
    return Tracer(boundaries(counts))


def _sum(contexts, pick):
    """(calls, inclusive seconds) over the call paths `pick` accepts."""
    count, total = 0, 0.0
    for path, (n, t, _) in contexts.items():
        if pick(path):
            count += n
            total += t
    return count, total


def layer_metrics(tr, counts, analyze_requests):
    """Per-layer metric values from one traced pass."""
    ctx = tr.contexts()
    edges = tr.layer_edges(ctx)
    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = sum((row[2] for (lay, _), row in edges.items()
                                    if lay == layer), 0.0)
        m[layer + ".calls"] = sum(row[0] for (lay, par), row in edges.items()
                                  if lay == layer and par != layer)

    def calls(name, under=None):
        return _sum(ctx, lambda p: p[-1] == name
                    and (under is None or under in p[:-1]))[0]

    # interior nodes of the coefficient tree: each one either fails the box
    # test or asks for its next coefficient range; leaves are counted apart
    tree_leaves = _sum(ctx, lambda p: p[-1] == "gapsearch._gap_leaf"
                       and len(p) > 1 and p[-2] == "gapsearch._gap_degree")[0]
    nodes = calls("gapsearch._next_coeff_range") + counts.box_prunes
    m["gapsearch.walk.nodes"] = nodes
    m["gapsearch.walk.box_prunes"] = counts.box_prunes
    m["gapsearch.walk.empty_ranges"] = counts.empty_ranges
    m["gapsearch.walk.leaf_ratio"] = tree_leaves / nodes if nodes else 0.0
    m["gapsearch.walk.surd_bound_s"] = _sum(
        ctx, lambda p: p[-1] == "gapsearch._surd_eval_bound")[1]

    m["gapsearch.leaf.calls"] = sum(
        calls(n) for n in ("gapsearch._gap_leaf", "gapsearch._cubic_candidate",
                           "gapsearch._quad_candidate"))
    m["gapsearch.leaf.survivors"] = counts.survivors
    for name in FILTERS:
        m["gapsearch.leaf.first_fail." + name] = counts.first_fail[name]

    floor_ceil = ("Surd.floor", "Surd.ceil")
    n, t = _sum(ctx, lambda p: p[-1] in floor_ceil
                and not (len(p) > 1 and p[-2] in floor_ceil))
    m["algnum.surd.floor_ceil.calls"] = n
    m["algnum.surd.floor_ceil_s"] = t
    m["algnum.surd.approx.calls"] = calls("Surd.approx")

    n, t = _sum(ctx, lambda p: p[-1] == "AlgebraicNumber.cmp_surd")
    m["algnum.isolate.cmp_surd.calls"] = n
    m["algnum.isolate.cmp_surd_s"] = t
    under = calls("kernels.varcount_at", under="AlgebraicNumber.cmp_surd")
    m["algnum.isolate.varcounts_per_cmp"] = under / n if n else 0.0

    m["kernels.sturm_chain.calls"] = calls("kernels.sturm_chain")
    m["kernels.varcount.calls"] = (calls("kernels.varcount_at")
                                   + calls("kernels.varcount_inf"))
    m["kernels.eval_qnum.calls"] = calls("kernels.eval_qnum")
    m["kernels.resultant.calls"] = calls("kernels.resultant")

    m["fusionring.validate_s"] = _sum(
        ctx, lambda p: p[-1] == "FusionRing.validate")[1]

    def per_request(name):
        return calls(name) / analyze_requests if analyze_requests else 0.0

    m["fusionring.commutativity_checks_per_request"] = per_request(
        "FusionRing.is_commutative")
    m["fusionring.spectra_per_request"] = per_request(
        "fusionring.formal_codegrees")
    return m
