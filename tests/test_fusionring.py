"""Based rings: construction, codegrees, dimension vectors, ring files."""

import importlib
import math
import pathlib
import tracemalloc
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import group_ring, symmetric3_ring
from oracles import fp_power_iteration_reference
from fgap.errors import InvalidInputError, UnsupportedRingError
from fgap.fusionring import (
    FusionRing,
    builtin_ring,
    codegree_matrix,
    emit_ring_file,
    formal_codegrees,
    fp_dimension_vector,
    parse_ring_file,
    rep_g_codegrees,
    _rayleigh,
)

PHI = (1 + math.sqrt(5)) / 2

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


# ---------------------------------------------------------------------------
# construction and validation

def test_construction_rejects_bad_dual():
    t = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
    with pytest.raises(InvalidInputError, match="permutation"):
        FusionRing(2, (0, 0), t)
    with pytest.raises(InvalidInputError, match="permutation"):
        FusionRing(2, (0, 2), t)


def test_construction_rejects_bad_shape():
    with pytest.raises(InvalidInputError, match="slices"):
        FusionRing(2, (0, 1), [[[1, 0], [0, 1]]])
    with pytest.raises(InvalidInputError):
        FusionRing(2, (0, 1), [[[1, 0], [0, 1]], [[0, 1], [1]]])


def test_validate_clean_ring(fibonacci):
    assert fibonacci.validate() == []


def test_validate_duality_violation():
    # N[1][1][0] = 0 contradicts dual(1) = 1
    t = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    msgs = FusionRing(2, (0, 1), t).validate()
    assert any("duality: N[1][1][0] = 0, expected 1" in m for m in msgs)
    assert any(m.startswith("transpose law") for m in msgs)


def test_validate_duality_of_the_unit_and_a_three_cycle():
    t = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    assert FusionRing(2, (1, 0), t).validate()[0] == \
        "duality: dual(0) = 1, expected 0"
    msgs = FusionRing(4, (0, 2, 3, 1), builtin_ring("cyclic", 4).N).validate()
    assert [m for m in msgs if "dual(dual" in m] == [
        "duality: dual(dual(1)) = 3, expected 1",
        "duality: dual(dual(2)) = 1, expected 2",
        "duality: dual(dual(3)) = 2, expected 3"]


def test_validate_doubled_identity_coefficient():
    # X*X = 2*1: coefficient of 1 in X*X must equal 1 when dual(X) = X
    t = [[[1, 0], [0, 1]], [[0, 1], [2, 0]]]
    msgs = FusionRing(2, (0, 1), t).validate()
    assert msgs
    assert any("duality: N[1][1][0] = 2, expected 1" in m for m in msgs)


def test_validate_negative_entry():
    t = [[[1, 0], [0, 1]], [[0, 1], [1, -1]]]
    msgs = FusionRing(2, (0, 1), t).validate()
    assert msgs == ["negative multiplicity: N[1][1][1] = -1"]


def test_validate_associativity():
    # doubling the transpose-orbit {N[1][1][2], N[2][2][1]} of the cyclic
    # group table keeps duality and transpose intact but (g g) g2 != g (g g2)
    base = builtin_ring("cyclic", 3)
    broken = [[list(row) for row in slab] for slab in base.N]
    broken[1][1][2] = 2
    broken[2][2][1] = 2
    msgs = FusionRing(3, base.dual, broken).validate()
    assert msgs
    assert all("associativity" in m for m in msgs)


def validate_reference(ring):
    """Reference: FusionRing.validate as it ran before its associativity
    check read sparse supports, with both O(r) sums of every (i, j, k, l)
    recomputed densely, O(r^5)."""
    r = ring.rank
    n = ring.N
    dual = ring.dual
    out = []
    for i in range(r):
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
        for j in range(r):
            for k in range(r):
                if n[dual[i]][k][j] != n[i][j][k]:
                    out.append(
                        "transpose law: N[%d][%d][%d] = %d but "
                        "N[%d][%d][%d] = %d"
                        % (dual[i], k, j, n[dual[i]][k][j],
                           i, j, k, n[i][j][k]))
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    lhs = sum(n[i][j][m] * n[m][k][l] for m in range(r))
                    rhs = sum(n[j][k][m] * n[i][m][l] for m in range(r))
                    if lhs != rhs:
                        out.append(
                            "associativity: (i,j,k,l)=(%d,%d,%d,%d) "
                            "lhs %d != rhs %d" % (i, j, k, l, lhs, rhs))
    return out


def codegree_matrix_reference(ring):
    """Reference: Z = sum_i N_i N_i^T by the dense O(r^4) loop."""
    r = ring.rank
    z = [[0] * r for _ in range(r)]
    for i in range(r):
        ni = ring.N[i]
        for j in range(r):
            for k in range(r):
                z[j][k] += sum(ni[j][m] * ni[k][m] for m in range(r))
    return z


def near_group_ring(n, k):
    """Z_n + k: g X = X g = X, X^2 = sum of the group elements plus k X."""
    r = n + 1
    t = [[[0] * r for _ in range(r)] for _ in range(r)]
    for a in range(n):
        for b in range(n):
            t[a][b][(a + b) % n] = 1
        t[a][n][n] = t[n][a][n] = 1
        t[n][n][a] = 1
    t[n][n][n] = k
    return FusionRing(r, [(-a) % n for a in range(n)] + [n], t)


def tensor_product_ring(x, y):
    """Product ring with basis pairs (a, b) at index a * rank(y) + b."""
    ry = y.rank
    r = x.rank * ry
    t = [[[x.N[i // ry][j // ry][k // ry] * y.N[i % ry][j % ry][k % ry]
           for k in range(r)] for j in range(r)] for i in range(r)]
    dual = [x.dual[i // ry] * ry + y.dual[i % ry] for i in range(r)]
    return FusionRing(r, dual, t)


def test_is_commutative(fibonacci, s3_ring):
    assert fibonacci.is_commutative
    assert not s3_ring.is_commutative


def commutes_by_matrices(ring):
    """Reference: N_i N_j == N_j N_i for every pair of fusion matrices."""
    r = ring.rank
    n = ring.N
    for i in range(r):
        for j in range(i + 1, r):
            for a in range(r):
                for b in range(r):
                    ab = sum(n[i][a][m] * n[j][m][b] for m in range(r))
                    ba = sum(n[j][a][m] * n[i][m][b] for m in range(r))
                    if ab != ba:
                        return False
    return True


def _dihedral4_ring():
    # elements r^a s^b as index a + 4b, with s r = r^-1 s
    def mul(x, y):
        a, b = x % 4, x // 4
        c, d = y % 4, y // 4
        return ((a + (-c if b else c)) % 4) + 4 * ((b + d) % 2)
    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    inv = [next(y for y in range(8) if table[x][y] == 0) for x in range(8)]
    return group_ring(table, inv)


def test_is_commutative_matches_matrix_commutators(s3_ring):
    rings = [builtin_ring("kn", n) for n in range(6)]
    rings += [builtin_ring("cyclic", n) for n in range(1, 9)]
    rings += [s3_ring, _dihedral4_ring()]
    for ring in rings:
        assert ring.validate() == []
        assert ring.is_commutative == commutes_by_matrices(ring), ring
    assert [r.is_commutative for r in rings[-2:]] == [False, False]


ORACLE_RINGS = (
    [builtin_ring("kn", n) for n in range(4)]
    + [builtin_ring("cyclic", n) for n in range(1, 7)]
    + [near_group_ring(n, k) for n in (1, 2, 3, 4) for k in (0, 1, 3)]
    + [tensor_product_ring(builtin_ring("kn", 1), builtin_ring("kn", 2)),
       tensor_product_ring(builtin_ring("kn", 1), builtin_ring("cyclic", 3)),
       tensor_product_ring(near_group_ring(2, 1), builtin_ring("cyclic", 2)),
       symmetric3_ring(), _dihedral4_ring()])


def test_oracle_rings_are_valid():
    for ring in ORACLE_RINGS:
        assert ring.validate() == validate_reference(ring) == [], ring
        assert codegree_matrix(ring) == codegree_matrix_reference(ring)


# 1-3 edits (i, j, k, d): add d to N[i % r][j % r][k % r]
ENTRY_EDITS = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15),
              st.sampled_from((-2, -1, 1, 2))),
    min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORACLE_RINGS), ENTRY_EDITS)
# group rings of rank 8, where validate compares whole rows of single
# products: a 1 raised to 2 (Z_8, then the noncommutative D_4), the same
# raise on both entries of a transpose pair (only associativity fails), a
# -1 entry, and a transpose pair broken on one side and on both
@example(builtin_ring("cyclic", 8), [(1, 1, 2, 1)])
@example(_dihedral4_ring(), [(1, 1, 2, 1)])
@example(builtin_ring("cyclic", 8), [(1, 1, 2, 1), (7, 2, 1, 1)])
@example(builtin_ring("cyclic", 8), [(3, 4, 6, -1)])
@example(builtin_ring("cyclic", 8), [(2, 3, 5, -1)])
@example(builtin_ring("cyclic", 8), [(2, 3, 5, -1), (6, 5, 3, 1)])
def test_validate_and_codegree_matrix_match_dense_reference(ring, edits):
    r = ring.rank
    t = [[list(row) for row in mat] for mat in ring.N]
    for i, j, k, d in edits:
        t[i % r][j % r][k % r] += d
    broken = FusionRing(r, ring.dual, t)
    assert broken.validate() == validate_reference(broken)
    assert codegree_matrix(broken) == codegree_matrix_reference(broken)


# ---------------------------------------------------------------------------
# builtins

def test_builtin_kn_table():
    r = builtin_ring("kn", 2)
    assert r.rank == 2
    assert r.dual == (0, 1)
    assert r.N == (((1, 0), (0, 1)), ((0, 1), (1, 2)))
    assert r.validate() == []


def test_builtin_cyclic_is_group_table():
    r = builtin_ring("cyclic", 4)
    assert r.rank == 4
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert r.N[i][j][k] == (1 if (i + j) % 4 == k else 0)
    assert r.validate() == []


def test_builtin_kn0_equals_cyclic2():
    assert builtin_ring("kn", 0) == builtin_ring("cyclic", 2)


def test_builtin_rejects_bad_parameters():
    with pytest.raises(InvalidInputError):
        builtin_ring("kn", -1)
    with pytest.raises(InvalidInputError):
        builtin_ring("cyclic", 0)
    with pytest.raises(InvalidInputError, match="unknown builtin"):
        builtin_ring("junk", 3)


# ---------------------------------------------------------------------------
# codegree matrix and formal codegrees

def test_codegree_matrix_pinned(fibonacci, k2):
    assert codegree_matrix(fibonacci) == [[2, 1], [1, 3]]
    assert codegree_matrix(k2) == [[2, 2], [2, 6]]


def test_codegree_matrix_cyclic_is_scalar():
    for n in range(2, 6):
        z = codegree_matrix(builtin_ring("cyclic", n))
        assert z == [[n if i == j else 0 for j in range(n)]
                     for i in range(n)]


def test_formal_codegrees_fibonacci(fibonacci):
    spec = formal_codegrees(fibonacci)
    assert spec.charpoly.coeffs == (5, -5, 1)
    assert len(spec.orbits) == 1
    orb = spec.orbits[0]
    assert orb.poly.coeffs == (5, -5, 1)
    assert orb.multiplicity == 1
    lo, hi = spec.approx()
    assert abs(lo - (5 - math.sqrt(5)) / 2) < 1e-9
    assert abs(hi - (5 + math.sqrt(5)) / 2) < 1e-9


def test_formal_codegrees_cyclic3():
    spec = formal_codegrees(builtin_ring("cyclic", 3))
    assert spec.charpoly.coeffs == (-27, 27, -9, 1)
    assert [(o.poly.coeffs, o.multiplicity) for o in spec.orbits] == \
        [((-3, 1), 3)]
    assert spec.approx() == [3.0, 3.0, 3.0]


def test_formal_codegrees_kn_family():
    # x^2 + x + ... : K_n ring has codegree charpoly x^2 - (n^2+4)x + (n^2+4)
    for n in range(2, 11):
        spec = formal_codegrees(builtin_ring("kn", n))
        q = n * n + 4
        assert spec.charpoly.coeffs == (q, -q, 1)


def test_spectrum_symmetric_functions(fibonacci):
    spec = formal_codegrees(fibonacci)
    assert spec.e(1) == 5
    assert spec.e(2) == 5
    # sum of 1/f_i over the codegrees: e_{r-1}/e_r
    assert Fraction(spec.e(1), spec.e(2)) == 1
    assert spec.inverse_square_sum() == Fraction(3, 5)
    assert spec.sum_identity()


def test_sum_identity_check_builtins():
    for name, n in [("kn", 1), ("kn", 5), ("cyclic", 2), ("cyclic", 7)]:
        assert formal_codegrees(builtin_ring(name, n)).sum_identity()


def test_formal_codegrees_noncommutative_unsupported(s3_ring):
    with pytest.raises(UnsupportedRingError):
        formal_codegrees(s3_ring)


# ---------------------------------------------------------------------------
# dimension vectors and characters

def test_fp_dimensions_fibonacci(fibonacci):
    spec = formal_codegrees(fibonacci)
    dims, cert = fp_dimension_vector(fibonacci, spec)
    assert abs(dims[0] - 1) < 1e-9
    assert abs(dims[1] - PHI) < 1e-9
    assert cert["certified"]
    assert abs(float(cert["rayleigh"]) - (5 + math.sqrt(5)) / 2) < 1e-6
    assert cert["residual_sq"] <= cert["tol"]
    # the top codegree is FPdim of the ring: 1 + phi^2
    assert abs(float(spec.fp_root.approx_float()) - (1 + PHI * PHI)) < 1e-9


def test_fp_dimensions_k2(k2):
    dims, cert = fp_dimension_vector(k2, formal_codegrees(k2))
    assert abs(dims[1] - (1 + math.sqrt(2))) < 1e-9
    assert cert["certified"]


def test_fp_dimensions_cyclic():
    ring = builtin_ring("cyclic", 5)
    spec = formal_codegrees(ring)
    dims, cert = fp_dimension_vector(ring, spec)
    assert all(abs(d - 1) < 1e-9 for d in dims)
    assert float(spec.fp_root.approx_float()) == pytest.approx(5.0, abs=1e-9)


def rayleigh_reference(z, v):
    """Rayleigh quotient and residual over the Fraction images of v (the
    form before the integer numerators)."""
    r = len(v)
    vq = [Fraction(x) for x in v]
    zv = [sum(z[j][k] * vq[k] for k in range(r)) for j in range(r)]
    vv = sum(x * x for x in vq)
    rho = sum(zv[j] * vq[j] for j in range(r)) / vv
    res = sum((zv[j] - rho * vq[j]) ** 2 for j in range(r)) / vv
    return rho, res


COMMUTATIVE_ORACLE_RINGS = [r for r in ORACLE_RINGS if r.is_commutative]


def test_fp_dimensions_are_the_reference_iteration_bit_for_bit(monkeypatch):
    """Equal floats, not close ones, on the oracle rings and on every ring
    of the benchmark's deck."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    deck = importlib.import_module("rings").every_ring()
    assert len(deck) == 210
    for ring in COMMUTATIVE_ORACLE_RINGS + [
            FusionRing(x.rank, x.dual, x.N) for x in deck]:
        dims, _ = fp_dimension_vector(ring, formal_codegrees(ring))
        assert dims == fp_power_iteration_reference(ring), ring


def test_every_codegree_orbit_holds_all_its_roots(monkeypatch):
    """Z = sum_i N_i N_i^T is real symmetric, so each irreducible factor
    of its characteristic polynomial has only real roots, and isolation
    finds all of them; the battery's codegrees-real check rests on this."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    deck = importlib.import_module("rings").every_ring()
    for ring in COMMUTATIVE_ORACLE_RINGS + [
            FusionRing(x.rank, x.dual, x.N) for x in deck]:
        for orb in formal_codegrees(ring).orbits:
            assert len(orb.roots) == orb.poly.degree, ring


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COMMUTATIVE_ORACLE_RINGS), st.data())
def test_rayleigh_matches_fraction_reference(ring, data):
    spec = formal_codegrees(ring)
    dims, cert = fp_dimension_vector(ring, spec)
    want = rayleigh_reference(spec.matrix, dims)
    assert (cert["rayleigh"], cert["residual_sq"]) == want
    # off the Perron vector: any finite floats, signs and zeros included
    v = data.draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                           min_size=ring.rank, max_size=ring.rank)
                  .filter(any))
    assert _rayleigh(spec.matrix, v) == rayleigh_reference(spec.matrix, v)


# ---------------------------------------------------------------------------
# numeric character oracle

CharacterTable = namedtuple("CharacterTable", "values codegrees max_defect")


def characters_numeric(ring, tol=1e-9):
    """Simultaneous numeric eigenbasis of the fusion matrices.

    Diagonalizes a random real combination M = sum t_i N_i (normal, since
    M^T lies in the same commuting family), reads off each character as the
    eigenvalue tuple on one eigenvector (values[j][i] = phi_j(b_i)), and
    cross-checks the codegrees f_phi = sum_i phi(b_i) phi(b_dual(i))
    against the exact spectrum.  Retries with fresh weights on eigenvalue
    collisions, at most 5 times.
    """
    r = ring.rank
    mats = [np.array(ring.N[i], dtype=float) for i in range(r)]
    exact = formal_codegrees(ring).approx()
    for attempt in range(1, 6):
        rng = np.random.default_rng(911 + attempt)
        t = rng.uniform(1.0, 2.0, size=r)
        m = sum(t[i] * mats[i] for i in range(r))
        eigvals, eigvecs = np.linalg.eig(m)
        gaps = np.abs(eigvals[:, None] - eigvals[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < 1e-6 * (1.0 + np.abs(eigvals).max()):
            continue
        values = []
        codegs = []
        defect = 0.0
        for col in range(r):
            w = eigvecs[:, col]
            denom = np.vdot(w, w)
            phi = [complex(np.vdot(w, mats[i] @ w) / denom) for i in range(r)]
            # homomorphism defect
            for i in range(r):
                for j in range(r):
                    want = sum(ring.N[i][j][k] * phi[k] for k in range(r))
                    defect = max(defect, abs(phi[i] * phi[j] - want))
            codegs.append(sum(phi[i] * phi[ring.dual[i]] for i in range(r)))
            values.append(tuple(phi))
        if defect > tol or max(abs(x.imag) for x in codegs) > tol:
            continue
        got = sorted(x.real for x in codegs)
        assert max(abs(a - b) for a, b in zip(got, exact)) <= 1e-8
        return CharacterTable(tuple(values), tuple(codegs), defect)
    raise AssertionError("eigenvalue separation failed after 5 attempts")


def test_characters_fibonacci(fibonacci):
    ct = characters_numeric(fibonacci)
    assert ct.max_defect < 1e-9
    vals = sorted(v[1].real for v in ct.values)
    assert abs(vals[0] - (1 - math.sqrt(5)) / 2) < 1e-9
    assert abs(vals[1] - PHI) < 1e-9
    cds = sorted(c.real for c in ct.codegrees)
    assert abs(cds[0] - (5 - math.sqrt(5)) / 2) < 1e-9
    assert abs(cds[1] - (5 + math.sqrt(5)) / 2) < 1e-9


def test_characters_k2(k2):
    ct = characters_numeric(k2)
    vals = sorted(v[1].real for v in ct.values)
    assert abs(vals[0] - (1 - math.sqrt(2))) < 1e-9
    assert abs(vals[1] - (1 + math.sqrt(2))) < 1e-9


def test_characters_cyclic3():
    ct = characters_numeric(builtin_ring("cyclic", 3))
    assert len(ct.values) == 3
    assert all(abs(c.real - 3) < 1e-9 and abs(c.imag) < 1e-9
               for c in ct.codegrees)


# ---------------------------------------------------------------------------
# class-equation codegrees

def test_rep_g_codegrees_pinned():
    rg = rep_g_codegrees([1, 2, 2, 5])
    assert rg.group_order == 10
    assert rg.values == (Fraction(10), Fraction(5), Fraction(5), Fraction(2))


def test_rep_g_codegrees_trivial_and_z2():
    assert rep_g_codegrees([1]).values == (Fraction(1),)
    assert rep_g_codegrees([1, 1]).values == (Fraction(2), Fraction(2))


def test_rep_g_codegrees_nonintegral_sizes_allowed():
    rg = rep_g_codegrees([1, 3])
    assert rg.values == (Fraction(4), Fraction(4, 3))


def test_rep_g_codegrees_errors():
    with pytest.raises(InvalidInputError, match="identity"):
        rep_g_codegrees([2, 2, 5])
    with pytest.raises(InvalidInputError, match="empty"):
        rep_g_codegrees([])


def test_rep_g_dihedral_identity():
    # sizes [1] + [2]*(p-1)/2 + [p]: sum 1/f^2 = 1/4 + 1/(2p) - 1/(4p^2)
    for p in (3, 5, 7, 11):
        sizes = [1] + [2] * ((p - 1) // 2) + [p]
        rg = rep_g_codegrees(sizes)
        got = sum(Fraction(1) / (v * v) for v in rg.values)
        want = (Fraction(1, 4) + Fraction(1, 2 * p)
                - Fraction(1, 4 * p * p))
        assert got == want


# ---------------------------------------------------------------------------
# ring files

def test_ring_file_round_trip(fibonacci, k2, s3_ring):
    for r in (fibonacci, k2, builtin_ring("cyclic", 4), s3_ring):
        text = emit_ring_file(r)
        again = parse_ring_file(text)
        assert again == r
        assert emit_ring_file(again) == text


def test_ring_file_format(fibonacci):
    assert emit_ring_file(fibonacci) == (
        "rank 2\n"
        "dual 0 1\n"
        "N 0 0 : 1 0\n"
        "N 0 1 : 0 1\n"
        "N 1 0 : 0 1\n"
        "N 1 1 : 1 1\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InvalidInputError, match="line 1: rank"):
        parse_ring_file("rank x\n")
    with pytest.raises(InvalidInputError,
                       match="line 2: dual is not a permutation"):
        parse_ring_file("rank 2\ndual 0 0\nN 0 0 : 1 0\n")
    with pytest.raises(InvalidInputError, match="line 3: N line entries"):
        parse_ring_file("rank 1\ndual 0\nN 0 0 : x\n")
    with pytest.raises(InvalidInputError, match="line 4: duplicate"):
        parse_ring_file("rank 1\ndual 0\nN 0 0 : 1\nN 0 0 : 1\n")
    with pytest.raises(InvalidInputError, match="missing N lines"):
        parse_ring_file("rank 2\ndual 0 1\n")


@pytest.mark.parametrize("present", [
    [], [(0, 0)], [(0, 0), (0, 2), (1, 1), (2, 0), (2, 1)],
    [(i, j) for i in range(4) for j in range(4) if (i + j) % 3],
    [(i, j) for i in range(4) for j in range(4) if (i, j) != (3, 3)],
], ids=["none", "unit-row-start", "scattered", "every-third", "last"])
def test_missing_n_lines_name_the_first_eight_absent_pairs(present):
    r = 4
    lines = ["rank %d" % r, "dual 0 1 2 3"]
    lines += ["N %d %d : %s" % (i, j, " ".join(["0"] * r))
              for i, j in present]
    want = [(i, j) for i in range(r) for j in range(r)
            if (i, j) not in present][:8]
    with pytest.raises(InvalidInputError) as info:
        parse_ring_file("\n".join(lines) + "\n")
    assert str(info.value) == "missing N lines for (i,j): " + ", ".join(
        "(%d,%d)" % ij for ij in want)


def test_a_ring_header_allocates_no_rank_squared_grid():
    # rank 1,000 and its dual line, no N line: the parser used to build the
    # 1,000 x 1,000 grid of the tensor before reading one (92 MB traced)
    text = "rank 1000\ndual %s\n" % " ".join(map(str, range(1000)))
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError,
                           match=r"missing N lines for \(i,j\): \(0,0\), "
                                 r"\(0,1\), .*\(0,7\)$"):
            parse_ring_file(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10 ** 6
