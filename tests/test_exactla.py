import random

import pytest
from hypothesis import given, settings, strategies as st

from hopfpbw.scalar import Scalar, zeta, field
from hopfpbw.exactla import (
    Matrix, Subspace, rref, kernel, intersect, solve, membership,
    subspace_sum, sparse_kernel, AmbientMismatch, NoSolution, NotMember, _rref_rows,
)
from hopfpbw.modalg import ModuleAlgebra, graded_dim, _layer_rows


def S(n, order=1):
    return Scalar.from_int(order, n)


def mat(rows, order=1):
    return Matrix.from_rows([[S(x, order) if isinstance(x, int) else x for x in r] for r in rows])


def dense(row, n, order=1):
    """A sparse basis row of a Subspace as a dense vector of length n."""
    return [row.get(j, Scalar.zero(order)) for j in range(n)]


def test_rref_identity():
    m = Matrix.identity(3, 1)
    rank, red, piv = rref(m)
    assert rank == 3 and piv == [0, 1, 2] and red == m


def test_rref_zero():
    m = Matrix.zero(2, 3, 1)
    rank, red, piv = rref(m)
    assert rank == 0 and piv == []


def test_rref_cyclotomic_rank_drop():
    z = zeta(4)
    m = Matrix.from_rows([[Scalar.one(4), z], [z, -Scalar.one(4)]])
    rank, red, piv = rref(m)
    assert rank == 1 and piv == [0]
    assert red.at(0, 1) == z


def test_rref_idempotent_and_transpose_rank():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[S(rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))]]
        n = len(rows[0])
        for _ in range(rng.randint(0, 5)):
            rows.append([S(rng.randint(-4, 4)) for _ in range(n)])
        m = Matrix.from_rows(rows)
        rank, red, piv = rref(m)
        rank2, red2, piv2 = rref(red)
        assert (rank, piv) == (rank2, piv2) and red == red2
        assert rank == rref(m.transpose())[0]


def test_kernel_examples():
    assert kernel(Matrix.identity(4, 1)).dim == 0
    k = kernel(mat([[1, -1]]))
    assert k.dim == 1
    assert k.rows[0] == {0: S(1), 1: S(1)}


def test_kernel_residual_random():
    rng = random.Random(11)
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(1, 7)
        m = mat([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        k = kernel(m)
        for v in k.rows:
            assert all(x.is_zero() for x in m.mul_vec(dense(v, c)))
        assert k.dim == c - rref(m)[0]


def test_intersect_examples():
    one, zero = S(1), S(0)
    e = lambda i, n=4: [one if j == i else zero for j in range(n)]
    a = Subspace.from_vectors(4, [e(0), e(1)])
    b = Subspace.from_vectors(4, [e(2), e(3)])
    assert intersect(a, b).dim == 0
    assert intersect(a, a) == a
    # span{e1+e2, e3} cap span{e1+e2, e4} = span{e1+e2}
    v12 = [one, one, zero, zero]
    c = Subspace.from_vectors(4, [v12, e(2)])
    d = Subspace.from_vectors(4, [v12, e(3)])
    got = intersect(c, d)
    assert got.dim == 1 and dense(got.rows[0], 4) == v12


def test_intersect_ambient_mismatch():
    a = Subspace.from_vectors(2, [[S(1), S(0)]])
    b = Subspace.from_vectors(3, [[S(1), S(0), S(0)]])
    with pytest.raises(AmbientMismatch):
        intersect(a, b)


def test_dimension_formula_random():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 7)
        va = [[S(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, n))]
        vb = [[S(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, n))]
        a, b = Subspace.from_vectors(n, va), Subspace.from_vectors(n, vb)
        assert intersect(a, b).dim + subspace_sum(a, b).dim == a.dim + b.dim


def test_solve_examples():
    m = Matrix.identity(3, 1)
    v = [S(2), S(-1), S(5)]
    x, hom = solve(m, v)
    assert x == v and hom.dim == 0
    with pytest.raises(NoSolution):
        solve(Matrix.zero(2, 2, 1), [S(1), S(0)])
    # underdetermined 2x3 system: residual-checked particular + 1-dim kernel
    m = mat([[1, 2, 0], [0, 1, 1]])
    rhs = [S(3), S(2)]
    x, hom = solve(m, rhs)
    assert m.mul_vec(x) == rhs
    assert hom.dim == 1
    shifted = [a + b for a, b in zip(x, dense(hom.rows[0], 3))]
    assert m.mul_vec(shifted) == rhs


def test_membership():
    one, zero = S(1), S(0)
    s = Subspace.from_vectors(3, [[one, zero, zero], [zero, one, zero]])
    assert membership([one, zero, zero], s) == [one, zero]
    assert membership([zero, zero, zero], s) == [zero, zero]
    with pytest.raises(NotMember):
        membership([zero, zero, one], s)


def test_sparse_kernel_matches_dense():
    rng = random.Random(17)
    for _ in range(15):
        r, c = rng.randint(1, 5), rng.randint(1, 7)
        dense = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
        m = mat(dense)
        sparse_rows = [{j: S(x) for j, x in enumerate(row) if x} for row in dense]
        kd = kernel(m)
        ks = Subspace.from_sparse(c, sparse_kernel(sparse_rows, c, 1), 1)
        assert kd == ks


# hypothesis: kernel residuals vanish and rank is transpose-invariant on
# arbitrary small rational matrices

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_kernel_property_hypothesis(r, c, data):
    rows = [[S(data.draw(st.integers(-4, 4))) for _ in range(c)] for _ in range(r)]
    m = Matrix.from_rows(rows, cols=c)
    rank, red, piv = rref(m)
    assert rank == rref(m.transpose())[0]
    k = kernel(m)
    assert k.dim == c - rank
    for v in k.rows:
        assert all(x.is_zero() for x in m.mul_vec(dense(v, c)))


# -- the engine against an independent reference ------------------------------
#
# Plain dense Gauss-Jordan elimination in Scalar arithmetic, with the first
# nonzero entry in scan order as pivot: the unique RREF, computed without the
# package's fraction-free sparse engine.

def reference_rref(rows, ncols):
    rows = [list(r) for r in rows]
    nrows = len(rows)
    piv_r = 0
    pivots = []
    for piv_c in range(ncols):
        sel = next((r for r in range(piv_r, nrows) if not rows[r][piv_c].is_zero()), None)
        if sel is None:
            continue
        rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        inv = rows[piv_r][piv_c].inverse()
        rows[piv_r] = [c * inv for c in rows[piv_r]]
        prow = rows[piv_r]
        for r in range(nrows):
            f = rows[r][piv_c]
            if r != piv_r and not f.is_zero():
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        pivots.append(piv_c)
        piv_r += 1
        if piv_r == nrows:
            break
    return rows[:piv_r], pivots


def reference_kernel(rows, ncols, order):
    red, pivots = reference_rref(rows, ncols)
    one, zero = Scalar.one(order), Scalar.zero(order)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [zero] * ncols
        v[f] = one
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        out.append(v)
    return out


FIELDS = [1, 4, 9]          # Q, Q(i), Q(zeta_9)


def rand_scalar(rng, order, density=0.6):
    if rng.random() > density:
        return Scalar.zero(order)
    phi = field(order).phi
    return Scalar._make(order, rng.choice([1, 1, 2, 3, 6]),
                        [rng.randint(-3, 3) for _ in range(phi)])


def dense_to_sparse(rows):
    return [{j: c for j, c in enumerate(r) if not c.is_zero()} for r in rows]


def test_engine_matches_reference_random():
    rng = random.Random(23)
    for order in FIELDS:
        for _ in range(12):
            r, c = rng.randint(1, 6), rng.randint(1, 7)
            rows = [[rand_scalar(rng, order) for _ in range(c)] for _ in range(r)]
            if rng.random() < 0.3:      # force a dependency with a fractional multiple
                f = rand_scalar(rng, order, density=1.0)
                rows.append([f * x + y for x, y in zip(rows[0], rows[-1])])
            assert _rref_rows(rows, c) == reference_rref(rows, c)
            assert sparse_kernel(dense_to_sparse(rows), c, order) == \
                dense_to_sparse(reference_kernel(rows, c, order))


def test_from_sparse_matches_from_vectors_and_reference():
    rng = random.Random(31)
    for order in FIELDS:
        for _ in range(12):
            r, c = rng.randint(1, 6), rng.randint(1, 7)
            rows = [[rand_scalar(rng, order) for _ in range(c)] for _ in range(r)]
            s = Subspace.from_sparse(c, dense_to_sparse(rows), order)
            assert s == Subspace.from_vectors(c, rows)
            red, pivots = reference_rref(rows, c)
            assert list(s.rows) == dense_to_sparse(red) and list(s.pivots) == pivots
            assert all(list(row) == sorted(row) for row in s.rows)


def test_graded_dim_matches_reference_rank():
    rng = random.Random(29)
    for order in FIELDS:
        for _ in range(4):
            vd = rng.randint(2, 3)
            rels = []
            for _ in range(rng.randint(1, 3)):
                rel = {(i, j): s for i in range(vd) for j in range(vd)
                       if not (s := rand_scalar(rng, order, density=0.4)).is_zero()}
                rels.append(rel or {(0, 1): Scalar.one(order)})
            ident = [[Scalar.one(order) if a == b else Scalar.zero(order) for b in range(vd)]
                     for a in range(vd)]
            B = ModuleAlgebra.make(order, [f"v{i}" for i in range(vd)], rels, [ident])
            for n in (2, 3, 4):
                ncols = vd ** n
                zero = Scalar.zero(order)
                dense = []
                for j in range(n - 1):
                    for row in _layer_rows(B, n, j):
                        v = [zero] * ncols
                        for col, s in row.items():
                            v[col] = s
                        dense.append(v)
                rank = len(reference_rref(dense, ncols)[0])
                assert graded_dim(B, n) == ncols - rank


def test_engine_makes_wide_cyclotomic_leads_rational():
    # A stored pivot whose lead is not rational and wider than
    # MAX_CYCLOTOMIC_LEAD_BITS is multiplied by the lead's other conjugates;
    # the row space, and with it the RREF, must not move.
    from hopfpbw.exactla import MAX_CYCLOTOMIC_LEAD_BITS, SparseEchelon
    rng = random.Random(37)
    wide = 2 ** (MAX_CYCLOTOMIC_LEAD_BITS + 3)
    for order in (3, 9):
        phi = field(order).phi
        for _ in range(6):
            c = rng.randint(2, 5)
            rows = [[Scalar._make(order, 1, [rng.randint(-wide, wide) for _ in range(phi)])
                     for _ in range(c)] for _ in range(rng.randint(1, 4))]
            ech = SparseEchelon(order)
            for row in dense_to_sparse(rows):
                ech.insert(ech.from_scalars(row))
            assert ech.pivots and all(not any(row[p][1:]) for p, row in ech.pivots.items())
            assert _rref_rows(rows, c) == reference_rref(rows, c)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 5), st.data())
def test_engine_matches_reference_hypothesis(order, r, c, data):
    phi = field(order).phi
    coord = st.integers(-3, 3)
    den = st.sampled_from([1, 2, 5])
    rows = [[Scalar._make(order, data.draw(den), [data.draw(coord) for _ in range(phi)])
             for _ in range(c)] for _ in range(r)]
    nz, pivots = _rref_rows(rows, c)
    assert (nz, pivots) == reference_rref(rows, c)
    assert sparse_kernel(dense_to_sparse(rows), c, order) == \
        dense_to_sparse(reference_kernel(rows, c, order))
