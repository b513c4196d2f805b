import itertools
import random
import time
from collections import ChainMap, Counter, deque

import pytest

from hopfpbw import oracle

from hopfpbw.scalar import Scalar
from hopfpbw.hopf import add_into, algebra_generators
from hopfpbw.deform import Kappa, check_pbw, solve_kappa
from hopfpbw.modalg import CutoffExceeded, graded_dim
from hopfpbw.smash import straighten
from hopfpbw.oracle import filtered_dims, pbw_probe, OracleError


def test_sweedler_zero_kappa_baseline(problem):
    prob = problem("sweedler")
    kp = Kappa.zero(prob.hopf, prob.algebra)
    # homogeneous ideal: the bound is already exact at buffer 0
    for k in (0, 1):
        rep = filtered_dims(prob.hopf, prob.algebra, kp, 3, k)
        assert rep.computed_dims == rep.expected_dims == [4, 12, 24, 40]
        assert rep.verdict == "CONSISTENT"


def test_taft3_member_tables(problem):
    prob = problem("taft-3", True)
    rep = filtered_dims(prob.hopf, prob.algebra, prob.kappa, 3, 1)
    assert rep.computed_dims == rep.expected_dims == [9, 27, 54, 90]
    assert rep.verdict == "CONSISTENT"


def test_invariance_violation_falsified(problem):
    prob = problem("sweedler")
    bad = Kappa.from_vectors(prob.hopf, prob.algebra, [{0: Scalar.one(1)}], [dict()])
    assert not check_pbw(prob.hopf, prob.algebra, bad).passed
    pr = pbw_probe(prob.hopf, prob.algebra, bad, 3, 2)
    assert pr.verdict == "FALSIFIED"
    assert pr.falsified_at is not None and pr.falsified_at <= 3


def test_overlap_violation_falsified(problem):
    # invariant kappa that fails only the overlap comparison
    prob = problem("ha1")
    one = Scalar.one(4)
    cv = [dict() for _ in range(6)]
    cv[5] = {9: one, 13: -one}
    bad = Kappa.from_vectors(prob.hopf, prob.algebra, cv, [dict() for _ in range(6)])
    pr = pbw_probe(prob.hopf, prob.algebra, bad, 3, 2)
    assert pr.verdict == "FALSIFIED" and pr.falsified_at <= 3


def test_monotone_in_buffer(problem):
    prob = problem("ha1")
    one = Scalar.one(4)
    cv = [dict() for _ in range(6)]
    cv[0] = {8: one}     # z-coefficient on r_tu: not invariant
    bad = Kappa.from_vectors(prob.hopf, prob.algebra, cv, [dict() for _ in range(6)])
    prev = None
    for k in (0, 1, 2):
        rep = filtered_dims(prob.hopf, prob.algebra, bad, 3, k)
        if prev is not None:
            assert all(c1 <= c0 for c0, c1 in zip(prev, rep.computed_dims))
        prev = rep.computed_dims


def test_family_members_never_falsified(problem):
    for name in ("sweedler", "h8", "cbh-cyclic-3"):
        prob = problem(name)
        fam = solve_kappa(prob.hopf, prob.algebra)
        for kp in fam.linear_basis:
            rep = filtered_dims(prob.hopf, prob.algebra, kp, 3, 1)
            assert rep.verdict == "CONSISTENT", name


def test_degree_and_cutoff_guards(problem):
    prob = problem("sweedler")
    kp = Kappa.zero(prob.hopf, prob.algebra)
    with pytest.raises(OracleError):
        filtered_dims(prob.hopf, prob.algebra, kp, 1, 0)
    with pytest.raises(CutoffExceeded):
        filtered_dims(prob.hopf, prob.algebra, kp, 6, 1)
    with pytest.raises(OracleError, match="buffer must be at least 0"):
        filtered_dims(prob.hopf, prob.algebra, kp, 3, -1)
    with pytest.raises(OracleError, match="maximum buffer must be at least 0"):
        pbw_probe(prob.hopf, prob.algebra, kp, 3, -1)


def test_ha1_member_consistent_buffer2(problem):
    prob = problem("ha1", True)
    rep = filtered_dims(prob.hopf, prob.algebra, prob.kappa, 3, 2)
    assert rep.computed_dims == rep.expected_dims == [16, 80, 240, 560]
    assert rep.verdict == "CONSISTENT"


def test_invariance_violation_falsified_at_every_buffer(problem):
    # once deficient, larger spans stay deficient
    prob = problem("sweedler")
    bad = Kappa.from_vectors(prob.hopf, prob.algebra, [{0: Scalar.one(1)}], [dict()])
    for k in (1, 2):
        rep = filtered_dims(prob.hopf, prob.algebra, bad, 3, k)
        assert rep.verdict == "FALSIFIED" and rep.falsified_at <= 3


def test_taft5_member_consistent(problem):
    prob = problem("taft-5")
    H, B = prob.hopf, prob.algebra
    fam = solve_kappa(H, B)
    member = fam.linear_basis[0].add(fam.linear_basis[2 * 5 - 1])
    assert check_pbw(H, B, member).passed
    rep = filtered_dims(H, B, member, 3, 1)
    assert rep.verdict == "CONSISTENT"
    assert rep.expected_dims == [25, 75, 150, 250]


def test_fractional_kappa_consistent(problem):
    # scaled family member with denominators exercises the integerizing path
    prob = problem("sweedler", True)
    half = Scalar.from_rational(1, 1, 2)
    kp = prob.kappa.scale(half)
    assert check_pbw(prob.hopf, prob.algebra, kp).passed
    rep = filtered_dims(prob.hopf, prob.algebra, kp, 3, 2)
    assert rep.verdict == "CONSISTENT"
    assert rep.computed_dims == [4, 12, 24, 40]


def test_free_algebra_no_relations(problem):
    # with an empty relation space the quotient is the whole smash product
    from hopfpbw.presets import preset_hopf
    from hopfpbw.modalg import ModuleAlgebra
    H = preset_hopf("cyclic-2")
    o, z = Scalar.one(2), Scalar.zero(2)
    action = [[[o, z], [z, o]], [[o, z], [z, -o]]]
    B = ModuleAlgebra.make(2, ["u", "v"], [], action)
    kp = Kappa.zero(H, B)
    rep = filtered_dims(H, B, kp, 3, 1)
    assert rep.verdict == "CONSISTENT"
    assert rep.computed_dims == rep.expected_dims == [2, 6, 14, 30]


# -- the oracle against an exact-Scalar reference -------------------------------
#
# The same spanning algorithm as `filtered_dims`, written directly in Scalar
# arithmetic: products come from smash.straighten and H.mult, rows are keyed
# by (-degree, word, h) so that the smallest key is the oracle's pivot column,
# and rows are reduced by their own small sparse elimination with no
# denominator clearing.  Pivot rows agree with the oracle's up to a scalar, so
# the pivot counts, and with them computed_dims, must agree exactly.

def _reduce(pivots, row):
    row = {key: c for key, c in row.items() if not c.is_zero()}
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            inv = row[lead].inverse()
            pivots[lead] = {key: c * inv for key, c in row.items()}
            return lead
        f = row.pop(lead)
        for key, c in piv.items():
            if key != lead:
                add_into(row, key, -(f * c))
    return None


def reference_computed_dims(H, B, kappa, N, k):
    vd, d, D = B.vdim, H.dim, N + k
    one = Scalar.one(H.order)
    pivots, gen_of, pending = {}, {}, deque()

    def insert(row, gen, seed):
        lead = _reduce(pivots, row)
        if lead is not None:
            gen_of[lead] = gen
            pending.append((lead, gen, seed))

    def times_h(row, g, left):
        out = {}
        for (negm, word, h), c in row.items():
            moved = straighten(H, B, {g: one}, {word: one}) if left else {(word, h): one}
            for (w2, h1), c1 in moved.items():
                for h2, c2 in (H.mult[h1][h] if left else H.mult[h1][g]).items():
                    add_into(out, (negm, w2, h2), c * c1 * c2)
        return out

    def times_v(row, v, left):
        out = {}
        for (negm, word, h), c in row.items():
            if left:
                add_into(out, (negm - 1, (v,) + word, h), c)
                continue
            for ((v2,), h2), c2 in straighten(H, B, {h: one}, {(v,): one}).items():
                add_into(out, (negm - 1, word + (v2,), h2), c * c2)
        return out

    def drain():
        while pending:
            lead, gen, seed = pending.popleft()
            row = pivots[lead]
            for g in algebra_generators(H):
                insert(times_h(row, g, False), gen, seed)
                if seed:
                    insert(times_h(row, g, True), gen, True)

    for a in range(B.dim_relations()):
        row = {}
        for (i, j), c in B.relation_sparse(a).items():
            for u, cu in H.unit.items():
                add_into(row, (-2, (i, j), u), c * cu)
        for (v, h), c in kappa.l_vec(a).items():
            add_into(row, (-1, (v,), h), -c)
        for h, c in kappa.c_vec(a).items():
            add_into(row, (0, (), h), -c)
        insert(row, 2, True)
    drain()
    for j in range(2, D):
        for lead in [lead for lead, g in gen_of.items() if g == j]:
            for v in range(vd):
                insert(times_v(pivots[lead], v, True), j + 1, False)
                insert(times_v(pivots[lead], v, False), j + 1, False)
        drain()
    return [d * sum(vd ** j for j in range(m + 1)) - sum(1 for lead in pivots if -lead[0] <= m)
            for m in range(N + 1)]


def _ha1_kappa(prob, rel, cvec):
    cv = [dict() for _ in range(6)]
    cv[rel] = cvec
    return Kappa.from_vectors(prob.hopf, prob.algebra, cv, [dict() for _ in range(6)])


def test_oracle_matches_scalar_reference(problem):
    h8 = problem("h8", True)
    one1 = Scalar.one(1)
    xz = h8.hopf.labels.index("xz")
    # h8 with kappa^C(r) = 1 - xz: structure constants with denominators
    # (z^2 = (1 + x + y - xy)/2) once made the oracle span rows outside the ideal
    bad_h8 = Kappa.from_vectors(h8.hopf, h8.algebra, [{0: one1, xz: -one1}], [dict()])
    ha1 = problem("ha1", True)
    one4 = Scalar.one(4)
    cases = [
        (h8, bad_h8, 3, 1, [1, 1, 1, 33]),
        (h8, h8.kappa, 3, 1, [8, 24, 48, 80]),
        # buffer 2: the generations past the seeds, which are never closed
        # under H again, carry the deficiency in degree 3
        (h8, bad_h8, 3, 2, [1, 1, 1, 1]),
        (h8, h8.kappa, 3, 2, [8, 24, 48, 80]),
        (ha1, ha1.kappa, 3, 0, None),
        (ha1, _ha1_kappa(ha1, 5, {9: one4, 13: -one4}), 3, 0, None),   # overlap only
        (ha1, _ha1_kappa(ha1, 0, {8: one4}), 3, 0, None),              # not invariant
    ]
    for prob, kp, N, k, want in cases:
        rep = filtered_dims(prob.hopf, prob.algebra, kp, N, k)
        ref = reference_computed_dims(prob.hopf, prob.algebra, kp, N, k)
        assert rep.computed_dims == ref, prob.name
        if want is not None:
            assert ref == want
        assert rep.expected_dims == [prob.hopf.dim * sum(graded_dim(prob.algebra, j)
                                                        for j in range(m + 1))
                                     for m in range(N + 1)]


# -- a metamorphic check on the oracle's denominator clearing -----------------------

def _monomial(B, perm, t):
    """B under the monomial change T e_i = t_i e_perm(i) of V:
    rho'(h) = T rho(h) T^-1 and r' = (T (x) T) r.

    Returns (B', move) where move carries a kappa on B to the matching kappa
    on B': on each canonical relation r'_a = (T (x) T)(sum_b m_ab r_b) it
    is sum_b m_ab (kappa^C(r_b) + (T (x) id) kappa^L(r_b)).
    """
    from hopfpbw.deform import rel_coords
    from hopfpbw.modalg import ModuleAlgebra
    vd, order = B.vdim, B.order
    T = [Scalar.from_int(order, c) for c in t]
    Tinv = [c.inverse() for c in T]
    back = [perm.index(i) for i in range(vd)]
    # rho'(h)[perm(r)][perm(c)] = t_r rho(h)[r][c] / t_c
    action = [[[T[back[r]] * m[back[r]][back[c]] * Tinv[back[c]] for c in range(vd)]
               for r in range(vd)] for m in B.action]
    rels = [{(perm[i], perm[j]): c * T[i] * T[j] for (i, j), c in B.relation_sparse(a).items()}
            for a in range(B.dim_relations())]
    B2 = ModuleAlgebra.make(order, [B.vlabels[i] for i in back], rels, action, B.cutoff)
    pulled = [rel_coords(B, {(back[i], back[j]): c * Tinv[back[i]] * Tinv[back[j]]
                             for (i, j), c in B2.relation_sparse(a).items()})
              for a in range(B2.dim_relations())]

    def move(H, kappa):
        cvecs, lvecs = [], []
        for coords in pulled:
            cv, lv = {}, {}
            for b, m in enumerate(coords):
                for h, c in kappa.c_vec(b).items():
                    add_into(cv, h, m * c)
                for (v, h), c in kappa.l_vec(b).items():
                    add_into(lv, (perm[v], h), m * T[v] * c)
            cvecs.append(cv)
            lvecs.append(lv)
        return Kappa.from_vectors(H, B2, cvecs, lvecs)

    return B2, move


def _rescale(B, t):
    """B with V rescaled by T = diag(t) (see ``_monomial``)."""
    return _monomial(B, list(range(B.vdim)), t)


def test_oracle_invariant_under_rescaling_v(problem):
    # V of h8 rescaled by diag(2, 1): z then acts by [[0, 2], [1/2, 0]], so
    # the oracle's straightening table and its left H-multiples carry
    # denominators that differ from entry to entry.  The rescaled problem is
    # isomorphic to the original, so every answer must be the same.
    from hopfpbw.modalg import validate_action
    prob = problem("h8", True)
    H, B = prob.hopf, prob.algebra
    B2, move = _rescale(B, [2, 1])
    assert validate_action(H, B2).passed
    one = Scalar.one(1)
    dens = {c.den for m in range(H.dim) for v in range(2)
            for c in straighten(H, B2, {m: one}, {(v,): one}).values()}
    assert dens == {1, 2}
    fam, fam2 = solve_kappa(H, B), solve_kappa(H, B2)
    assert fam.family_dim == fam2.family_dim == 5
    member = fam.linear_basis[0]
    for kp in fam.linear_basis[1:]:
        member = member.add(kp)
    xz = H.labels.index("xz")
    bad = Kappa.from_vectors(H, B, [{0: one, xz: -one}], [dict()])
    cases = [(prob.kappa, 3, 1), (member, 3, 1), (bad, 3, 1), (bad, 2, 0)]
    for kp, N, k in cases:
        kp2 = move(H, kp)
        assert check_pbw(H, B, kp).passed == check_pbw(H, B2, kp2).passed
        rep, rep2 = filtered_dims(H, B, kp, N, k), filtered_dims(H, B2, kp2, N, k)
        assert rep2.computed_dims == rep.computed_dims, (N, k)
        assert rep2.verdict == rep.verdict
    for kp in fam.linear_basis:
        assert check_pbw(H, B2, move(H, kp)).passed


def test_oracle_invariant_under_monomial_change_of_v(problem):
    # Permuting and scaling V's basis gives an isomorphic problem, but it
    # reorders the words and so the columns, the pivots and which left
    # multiples the oracle adopts by relabelling: the family dimension, the
    # checker's verdicts and the oracle's tables must not move.
    from hopfpbw.modalg import validate_action
    from test_acceptance import _invalid_catalog
    changes = {"h8": ([1, 0], [2, -1]), "taft-3": ([1, 0], [3, 1]),
               "ha1": ([2, 0, 3, 1], [1, 2, -1, 3])}
    verdicts = []
    for name, (perm, t) in changes.items():
        prob = problem(name, True)
        H, B = prob.hopf, prob.algebra
        B2, move = _monomial(B, perm, t)
        assert validate_action(H, B2).passed, name
        fam, fam2 = solve_kappa(H, B), solve_kappa(H, B2)
        assert fam.family_dim == fam2.family_dim > 0, name
        member = fam.linear_basis[0]
        for kp in fam.linear_basis[1:]:
            member = member.add(kp)
        _, bads = _invalid_catalog(problem, name)
        deep = 2 if name == "ha1" else 1
        for kp, N, k in [(prob.kappa, 3, deep), (member, 3, deep), (bads[0], 3, 1),
                         (bads[-1], 3, 0)]:
            kp2 = move(H, kp)
            assert check_pbw(H, B, kp).passed == check_pbw(H, B2, kp2).passed, name
            rep, rep2 = filtered_dims(H, B, kp, N, k), filtered_dims(H, B2, kp2, N, k)
            assert (rep2.computed_dims, rep2.expected_dims, rep2.verdict) == \
                (rep.computed_dims, rep.expected_dims, rep.verdict), (name, N, k)
            verdicts.append(rep.verdict)
        for kp in fam.linear_basis:
            assert check_pbw(H, B2, move(H, kp)).passed, name
    assert Counter(verdicts) == {"CONSISTENT": 6, "FALSIFIED": 6}


# -- the F_p shadow against the exact reference ---------------------------------------
#
# The oracle screens every candidate row modulo a prime before the exact engine
# sees it.  Skipping a row can only shrink the exact span, so the tables can
# only grow; they equal the reference unless a row nonzero over Z[zeta_N]
# vanishes modulo the prime, which the primes below 2^61 never showed.

def _dense_kappa(prob, seed, share=0.3):
    """kappa^C with `share` of its cells (relation, h) set to +-{1, 2, 3}."""
    H, B = prob.hopf, prob.algebra
    p = B.dim_relations()
    rng = random.Random(seed)
    cells = [(a, h) for a in range(p) for h in range(H.dim)]
    cv = [dict() for _ in range(p)]
    for a, h in rng.sample(cells, round(share * len(cells))):
        cv[a][h] = Scalar.from_int(H.order, rng.choice((-3, -2, -1, 1, 2, 3)))
    return Kappa.from_vectors(H, B, cv, [dict() for _ in range(p)])


def test_shadow_matches_reference_on_presets_catalog_and_dense(problem):
    from test_acceptance import PRESET_LIST, _invalid_catalog
    cases = []
    for name in PRESET_LIST:
        prob = problem(name, True)
        cases.append((prob, prob.kappa, 3, 1))
        prob, bads = _invalid_catalog(problem, name)
        # the Scalar reference takes about 5 s per ha1 kappa at buffer 1
        cases += [(prob, kp, 3, 0 if name == "ha1" else 1) for kp in bads]
    ha1 = problem("ha1")
    cases += [(ha1, _dense_kappa(ha1, s), 3, 0) for s in (1, 2, 3)]
    for prob, kp, N, k in cases:
        rep = filtered_dims(prob.hopf, prob.algebra, kp, N, k)
        assert rep.computed_dims == reference_computed_dims(prob.hopf, prob.algebra, kp, N, k), \
            (prob.name, N, k)


def test_exact_engine_sees_only_rows_that_add_a_pivot(problem, monkeypatch):
    # While every exact pivot lead is a unit mod the prime, a row the shadow
    # keeps is outside the exact span; a shadow with wrong tables would pass
    # rows that reduce to zero, and its skips would no longer be screened.
    kept = []

    class Counting(oracle.SparseEchelon):
        def insert(self, row):
            piv = super().insert(row)
            kept.append(piv is not None)
            return piv

    monkeypatch.setattr(oracle, "SparseEchelon", Counting)
    h8, ha1 = problem("h8", True), problem("ha1", True)
    one1 = Scalar.one(1)
    xz = h8.hopf.labels.index("xz")
    B2, move = _rescale(h8.algebra, [2, 1])
    bad = Kappa.from_vectors(h8.hopf, h8.algebra, [{0: one1, xz: -one1}], [dict()])
    cases = [(h8.hopf, h8.algebra, h8.kappa, 3, 1), (h8.hopf, h8.algebra, bad, 3, 1),
             (h8.hopf, B2, move(h8.hopf, bad), 3, 1), (ha1.hopf, ha1.algebra, ha1.kappa, 3, 0),
             (ha1.hopf, ha1.algebra, _dense_kappa(ha1, 2), 3, 0)]
    for H, B, kp, N, k in cases:
        kept.clear()
        filtered_dims(H, B, kp, N, k)
        assert len(kept) > B.dim_relations() and all(kept)


def test_dense_kappa_guard(problem):
    # about 30% of the kappa^C cells: the exact-only span had not finished
    # after 150 s on seed 1, with 824,163-bit pivot entries
    prob = problem("ha1")
    for seed in (1, 2, 3):
        kp = _dense_kappa(prob, seed)
        t0 = time.monotonic()
        rep = filtered_dims(prob.hopf, prob.algebra, kp, 3, 0)
        assert time.monotonic() - t0 < 20, seed
        assert rep.verdict == "FALSIFIED"
        assert rep.computed_dims == [0, 0, 160, 480]


def test_dense_kappa_over_q_zeta7_keeps_coefficients_small(problem):
    # Over Q(zeta_7) every reduction multiplied rows by a cyclotomic pivot
    # lead, and stripping integer content could not undo it: on taft-7 at
    # (3, 0) the entries doubled in width with each pivot, 307,091 bits at
    # the 50th after 10 s.  The tables agree with the Scalar reference,
    # which takes 12 s at (3, 0) and 246 s at (3, 1).
    prob = problem("taft-7")
    kp = _dense_kappa(prob, 1)
    for k, want in ((0, [0, 0, 147, 343]), (1, [0, 0, 0, 196])):
        t0 = time.monotonic()
        rep = filtered_dims(prob.hopf, prob.algebra, kp, 3, k)
        assert time.monotonic() - t0 < 20, k
        assert rep.verdict == "FALSIFIED" and rep.computed_dims == want, k


def test_shadow_prime_fallback_is_sound(problem, monkeypatch):
    # Small primes put table denominators and pivot leads into the prime
    # ideal, so the shadow moves down the list and re-images the pivots,
    # and rows nonzero over Z[zeta_N] can vanish mod p and be skipped.
    # Either way the tables may only grow, and FALSIFIED must stay a proof.
    real = oracle._shadow_primes
    monkeypatch.setattr(oracle, "_shadow_primes", lambda order: itertools.chain(
        [q for q in (2, 3, 5, 7, 11, 13, 17) if q % order == 1 % order], real(order)))
    moved: list = []
    add_pivot = oracle._Shadow.add_pivot

    def counted(self, c, row):
        ok = add_pivot(self, c, row)
        if not ok:
            moved.append(self.p)
        return ok

    monkeypatch.setattr(oracle._Shadow, "add_pivot", counted)
    h8, ha1, sw, taft5 = (problem("h8", True), problem("ha1", True), problem("sweedler"),
                          problem("taft-5"))
    one1, one4 = Scalar.one(1), Scalar.one(4)
    xz = h8.hopf.labels.index("xz")
    third, eleventh = Scalar.from_rational(1, 1, 3), Scalar.from_rational(5, 1, 11)
    cases = [
        # kappa^C(r) = 1/3 and 1/11: clearing the denominator makes the
        # relator's lead 3 (resp. 11), so the relator pivot, stored before
        # any V-layer, moves the shadow off 3 (resp. 11) in any loop order
        (h8, Kappa.from_vectors(h8.hopf, h8.algebra, [{0: third}], [dict()]), 3, 1),
        (taft5, Kappa.from_vectors(taft5.hopf, taft5.algebra, [{0: eleventh}], [dict()]), 3, 0),
        (h8, h8.kappa, 3, 1),                         # p = 2 divides a table denominator
        (h8, Kappa.from_vectors(h8.hopf, h8.algebra, [{0: one1, xz: -one1}], [dict()]), 3, 1),
        (h8, _dense_kappa(h8, 1, 0.6), 3, 0),         # a pivot lead lies in (3)
        (taft5, _dense_kappa(taft5, 1), 3, 0),        # a pivot lead lies over 11
        (sw, Kappa.from_vectors(sw.hopf, sw.algebra, [{0: one1}], [dict()]), 3, 1),
        (ha1, ha1.kappa, 3, 0),
        (ha1, _ha1_kappa(ha1, 5, {9: one4, 13: -one4}), 3, 0),
        (ha1, _ha1_kappa(ha1, 0, {8: one4}), 3, 0),
    ]
    for prob, kp, N, k in cases:
        rep = filtered_dims(prob.hopf, prob.algebra, kp, N, k)
        ref = reference_computed_dims(prob.hopf, prob.algebra, kp, N, k)
        assert all(c >= r for c, r in zip(rep.computed_dims, ref)), prob.name
        if rep.falsified:
            assert any(r < e for r, e in zip(ref, rep.expected_dims)), prob.name
    assert 3 in moved and 11 in moved


# -- the seeds are the only H-closure -------------------------------------------------

def test_h_multiples_run_on_seed_pivots_only(problem, monkeypatch):
    # Every generation after the seeds is a two-sided H-module already
    # (oracle module docstring), so the shadow builds |S| right and |S| left
    # H-multiples of each seed pivot and none of a V-layer pivot.
    events = []
    engines, shadows = [], []
    exact_rings = []
    real_exact_ring = oracle._exact_ring

    def exact_ring(*args):
        exact_rings.append(real_exact_ring(*args))
        return exact_rings[-1]

    source = []     # the operator and the source pivot of the last exact row
    born = {}       # pivot column -> (generation, born of a left V-multiple)
    v_layers = []   # (V-operator or "adopt", generation of the source pivot)

    def counted(name, op):
        def run(R, amb, row, arg):
            events.append((name, R is not exact_rings[-1]))
            row = list(row)
            src = min(c for c, _ in row)
            if R is exact_rings[-1]:
                source[:] = [name, src]
            if name in ("_left_v", "_right_v"):
                v_layers.append((name, born[src][0]))
            return op(R, amb, row, arg)
        return run

    def note(piv):
        name, src = source or ("seed", None)
        v_layer = name in ("_left_v", "_right_v")
        born[piv] = (born[src][0] + 1 if v_layer else 2, name == "_left_v")

    class Counting(oracle.SparseEchelon):
        def __init__(self, order):
            super().__init__(order)
            engines.append(self)

        def insert(self, row):
            piv = super().insert(row)
            events.append(("pivot", piv is not None))
            if piv is not None:
                note(piv)
            return piv

    class Shadow(oracle._Shadow):
        def __init__(self, *args):
            super().__init__(*args)
            shadows.append(self)

    # an adoption builds no exact row, so it is counted where the shadow
    # relabels the source pivot's slice
    shadow_adopt = oracle._Shadow.adopt

    def adopt(self, c, piv, deg, shift):
        shadow_adopt(self, c, piv, deg, shift)
        events.append(("adopt", False))
        v_layers.append(("adopt", born[piv][0]))
        born[c] = (born[piv][0] + 1, True)

    monkeypatch.setattr(oracle, "_exact_ring", exact_ring)
    for name in ("_right_h", "_left_h", "_left_v", "_right_v"):
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    monkeypatch.setattr(oracle, "SparseEchelon", Counting)
    monkeypatch.setattr(oracle._Shadow, "adopt", adopt)
    monkeypatch.setattr(oracle, "_Shadow", Shadow)
    for prob, N, k in ((problem("ha1", True), 3, 2), (problem("h8", True), 3, 1)):
        events.clear()
        engines.clear()
        shadows.clear()
        source.clear()
        born.clear()
        v_layers.clear()
        rep = filtered_dims(prob.hopf, prob.algebra, prob.kappa, N, k)
        assert rep.verdict == "CONSISTENT"
        S = algebra_generators(prob.hopf)
        first_v = next(i for i, (name, _) in enumerate(events) if name in ("_left_v", "adopt"))
        seeds = sum(1 for name, kept in events[:first_v] if name == "pivot" and kept)
        in_shadow = Counter(name for name, shadow in events if name != "pivot" and shadow)
        assert in_shadow["_right_h"] == in_shadow["_left_h"] == len(S) * seeds, prob.name
        assert all(name not in ("_right_h", "_left_h") for name, _ in events[first_v:])
        # the V-layers do add pivots, so the last check is not vacuous
        assert any(name == "pivot" and kept for name, kept in events[first_v:])
        # every pivot of generations 2..D-1 gets vd left multiples, through
        # the shadow, relabelled or, in generation D - 1, left virtual at a
        # column that never holds a pivot; only those not born of a left
        # multiple get right multiples (the product lemma)
        D = N + k
        multiplied = [left for gen, left in born.values() if gen < D]
        adopted = sum(1 for name, _ in events if name == "adopt")
        vd = prob.algebra.vdim
        amb = oracle._Ambient(vd, prob.hopf.dim, D)
        pivots, = (ech.pivots for ech in engines)
        virtual = [c + amb.lshift[v][amb.deg[c]] for c, (gen, _) in born.items() if gen == D - 1
                   for v in range(vd)]
        virtual = [c for c in virtual if c not in pivots]
        assert adopted > 0 and virtual and multiplied.count(True) > 0, prob.name
        assert in_shadow["_left_v"] + adopted + len(virtual) == vd * len(multiplied), prob.name
        assert in_shadow["_right_v"] == vd * multiplied.count(False) > 0, prob.name
        # no left multiple of the last generation is stored, in the engine
        # or in any shadow
        assert all(gen < D - 1 for name, gen in v_layers if name == "adopt"), prob.name
        assert not any(sh.size[c] for sh in shadows for c in virtual), prob.name
        # each generation takes every left multiple, through the shadow or
        # adopted, before its first right multiple, so adopted left
        # multiples claim their lead columns first
        for j in range(2, D):
            names = [name for name, gen in v_layers if gen == j]
            first_right = names.index("_right_v")
            if j < D - 1:
                assert "adopt" in names[:first_right], (prob.name, j)
            assert all(name == "_right_v" for name in names[first_right:]), (prob.name, j)


# -- left multiples adopted by relabelling ------------------------------------------

def test_adopted_left_multiples_match_insert_and_add_pivot(problem, monkeypatch):
    # A left V-multiple whose lead column is free is stored as its letter,
    # and its exact row is derived on every read: the derived row must be
    # what `insert` on a copy of the engine stores at the same column, and
    # the relabelled shadow slice what `add_pivot` on a blank shadow stores.
    # A left multiple of an adopted pivot is adopted in turn, so the
    # derivation walks chains of letters back to a stored row.  A free left
    # multiple of the last generation is stored nowhere: the same must hold
    # for the row that the engine derives at its column once the span is
    # done, and for the shadow's image, its source's slice relabelled.
    from types import SimpleNamespace
    adopted = {}
    chain = {}      # adopted column -> number of letters back to a stored row
    virtual = []    # the virtual columns of each span
    spans = []      # (engine, shadow) of the running span
    Plain = oracle.SparseEchelon

    def blank_image(sh, c, row):
        blank = SimpleNamespace(p=sh.p, image=sh.image, start={}, size={}, cols=[], vals=[])
        assert oracle._Shadow.add_pivot(blank, c, row)
        return list(zip(blank.cols, blank.vals))

    def check_virtual():
        ech, sh = spans[-1]
        amb = sh.amb
        cols = [c for c in range(amb.total) if c not in ech.pivots and amb.virtual(c)]
        for c in cols:
            row = ech.derive(ech.pivots, c)
            twin = Plain(ech.order)
            twin.pivots = ChainMap({}, ech.pivots)      # a copy on write
            twin.derive = lambda pivots, col: None if col == c else ech.derive(pivots, col)
            assert twin.insert(dict(row)) == c
            assert list(twin.pivots[c].items()) == list(row.items())
            v, src = amb.virtual(c)
            relabelled = [(col + amb.lshift[v][amb.deg[col]], x) for col, x in sh.row(src)]
            assert relabelled == blank_image(sh, c, row)
            assert sh.size[c] == 0
        virtual.append(len(cols))

    class Checked(oracle.SparseEchelon):
        def __init__(self, order):
            super().__init__(order)
            spans.append([self, None])

        def adopt(self, c, row):
            assert not isinstance(row, dict)
            derived = self.derive(ChainMap({c: row}, self.pivots), c)
            twin = Plain(self.order)
            twin.pivots = ChainMap({}, self.pivots)     # a copy on write
            twin.derive = self.derive
            assert twin.insert(dict(derived)) == c
            assert list(twin.pivots[c].items()) == list(derived.items())
            super().adopt(c, row)
            assert list(self.row(c).items()) == list(derived.items())
            adopted[c] = derived

    shadow_adopt = oracle._Shadow.adopt

    def checked_shadow_adopt(self, c, piv, deg, shift):
        shadow_adopt(self, c, piv, deg, shift)
        chain[c] = chain.get(piv, 0) + 1
        assert list(self.row(c)) == blank_image(self, c, adopted[c])

    class Shadow(oracle._Shadow):
        def __init__(self, *args):
            super().__init__(*args)
            spans[-1][1] = self

    real_graded_dim = oracle.graded_dim

    def graded_dim(B, j):
        # called right after the span, while the engine is alive
        if j == 0:
            check_virtual()
        return real_graded_dim(B, j)

    monkeypatch.setattr(oracle, "SparseEchelon", Checked)
    monkeypatch.setattr(oracle._Shadow, "adopt", checked_shadow_adopt)
    monkeypatch.setattr(oracle, "_Shadow", Shadow)
    monkeypatch.setattr(oracle, "graded_dim", graded_dim)
    h8, ha1 = problem("h8", True), problem("ha1", True)
    one1, one4 = Scalar.one(1), Scalar.one(4)
    xz = h8.hopf.labels.index("xz")
    B2, move = _rescale(h8.algebra, [2, 1])
    bad = Kappa.from_vectors(h8.hopf, h8.algebra, [{0: one1, xz: -one1}], [dict()])
    cases = [(h8.hopf, h8.algebra, h8.kappa, 3, 1), (h8.hopf, B2, move(h8.hopf, h8.kappa), 3, 1),
             (h8.hopf, B2, move(h8.hopf, bad), 3, 1), (ha1.hopf, ha1.algebra, ha1.kappa, 3, 2),
             (ha1.hopf, ha1.algebra, _ha1_kappa(ha1, 5, {9: one4, 13: -one4}), 3, 2),
             (ha1.hopf, ha1.algebra, _dense_kappa(ha1, 2), 3, 1), (h8.hopf, h8.algebra, h8.kappa, 3, 3)]
    longest = []
    for H, B, kp, N, k in cases:
        adopted.clear()
        chain.clear()
        spans.clear()
        want = reference_computed_dims(H, B, kp, N, k) if H is h8.hopf else None
        rep = filtered_dims(H, B, kp, N, k)
        assert adopted and virtual[-1], (B.vlabels, N, k)
        assert chain.keys() == adopted.keys()
        longest.append(max(chain.values()))
        if want is not None:
            assert rep.computed_dims == want
    # only generations 3..D - 1 are adopted: h8 at (3, 1) stores chains of
    # one letter, ha1 at (3, 2) chains of two and h8 at (3, 3) of three
    assert longest == [1, 1, 1, 2, 2, 1, 3]


def test_engine_holds_only_inserted_rows_and_nothing_outlives_a_span(problem, monkeypatch):
    # An adopted pivot is stored as its letter, so the engine keeps a row
    # dict for exactly the columns that `insert` returned.  No reference
    # cycle holds the span's state: with the collector off, the engine and
    # every shadow die by reference counting when `filtered_dims` returns.
    import gc
    import weakref
    engines, shadows, inserted = [], [], []

    class Recording(oracle.SparseEchelon):
        def __init__(self, order):
            super().__init__(order)
            engines.append(weakref.ref(self))

        def insert(self, row):
            piv = super().insert(row)
            if piv is not None:
                inserted.append(piv)
            return piv

    class Shadow(oracle._Shadow):
        def __init__(self, *args):
            super().__init__(*args)
            shadows.append(weakref.ref(self))

    monkeypatch.setattr(oracle, "SparseEchelon", Recording)
    monkeypatch.setattr(oracle, "_Shadow", Shadow)
    real_graded_dim = oracle.graded_dim
    held = []

    def graded_dim(B, j):
        # called right after the span, while the engine is alive
        if not held:
            held.append(dict(engines[-1]().pivots))
        return real_graded_dim(B, j)

    monkeypatch.setattr(oracle, "graded_dim", graded_dim)
    for prob, N, k in ((problem("ha1", True), 3, 2), (problem("taft-5", True), 3, 1)):
        engines.clear()
        shadows.clear()
        inserted.clear()
        held.clear()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            rep = filtered_dims(prob.hopf, prob.algebra, prob.kappa, N, k)
            assert len(engines) == 1 and shadows
            assert all(ref() is None for ref in engines + shadows), prob.name
        finally:
            if was_enabled:
                gc.enable()
        assert rep.verdict == "CONSISTENT"
        pivots, = held
        rows = {c for c, entry in pivots.items() if isinstance(entry, dict)}
        assert rows == set(inserted) and len(inserted) == len(rows), prob.name
        assert all(isinstance(entry, int) for c, entry in pivots.items() if c not in rows)
        assert len(rows) < len(pivots), prob.name


def test_prime_move_after_adoptions_re_images_derived_chains(problem, monkeypatch):
    # Fail `add_pivot` once, at the first pivot recorded after a chain of
    # three letters was adopted (generation 3 or later: every seed is
    # recorded before the first adoption).  The next shadow re-images every
    # stored pivot, deriving the rows of adopted chains, and the tables must
    # equal the unforced run.  Only generations 3..D - 1 are adopted, so a
    # stored chain of three letters needs D = 6: h8 at (3, 3).
    prob = problem("h8", True)
    H, B = prob.hopf, prob.algebra
    want = filtered_dims(H, B, prob.kappa, 3, 3)
    chain = {}          # adopted column -> letters back to a stored row
    state = {"failed": None, "reimaged": {}}
    add_pivot, shadow_adopt = oracle._Shadow.add_pivot, oracle._Shadow.adopt

    def adopt(self, c, piv, deg, shift):
        shadow_adopt(self, c, piv, deg, shift)
        chain[c] = chain.get(piv, 0) + 1

    def forced(self, c, row):
        if state["failed"] is None and 3 in chain.values():
            state["failed"] = (self.p, c)
            return False
        if state["failed"] is not None and self.p != state["failed"][0]:
            state["reimaged"][c] = list(self.row(c)) if add_pivot(self, c, row) else None
            return state["reimaged"][c] is not None
        return add_pivot(self, c, row)

    monkeypatch.setattr(oracle._Shadow, "adopt", adopt)
    monkeypatch.setattr(oracle._Shadow, "add_pivot", forced)
    rep = filtered_dims(H, B, prob.kappa, 3, 3)
    assert state["failed"] is not None
    p, c = state["failed"]
    assert c not in chain
    reimaged = state["reimaged"]
    # every pivot stored at the move, the failed one included, is re-imaged
    assert c in reimaged and None not in reimaged.values()
    moved_chains = Counter(chain[col] for col in reimaged if col in chain)
    assert moved_chains[1] and moved_chains[2] and moved_chains[3], moved_chains
    assert (rep.computed_dims, rep.verdict) == (want.computed_dims, want.verdict)


def test_last_generation_virtual_pivots_keep_the_tables(problem, monkeypatch):
    # FALSIFIED spans whose last generation holds pivots of degree <= N, so
    # the virtual pivots enter the tables.  A reduction that stopped at a
    # virtual column would store a second pivot there and count it twice.
    # Each span runs twice: as it is, and with one prime move forced at the
    # first pivot recorded once the virtual pivots exist, so that a new
    # shadow must read them too.
    h8, taft5, ha1 = problem("h8"), problem("taft-5"), problem("ha1")
    cases = [(h8, _dense_kappa(h8, 2, 0.6), 3, 2, None),
             (taft5, _dense_kappa(taft5, 2), 3, 1, None),
             (ha1, _dense_kappa(ha1, 1), 3, 1, [0, 0, 0, 320]),
             (ha1, _dense_kappa(ha1, 4, 0.1), 3, 2, [0, 0, 0, 0])]
    add_pivot = oracle._Shadow.add_pivot
    moves = []

    def forced(self, c, row):
        if moves == [None] and any(self.amb.last):
            moves[0] = self.p
            return False
        return add_pivot(self, c, row)

    for prob, kp, N, k, want in cases:
        H, B = prob.hopf, prob.algebra
        if want is None:
            want = reference_computed_dims(H, B, kp, N, k)
        rep = filtered_dims(H, B, kp, N, k)
        assert rep.computed_dims == want and rep.falsified, prob.name
        assert all(c >= 0 for c in want), prob.name
        with monkeypatch.context() as m:
            m.setattr(oracle._Shadow, "add_pivot", forced)
            moves[:] = [None]
            rep = filtered_dims(H, B, kp, N, k)
        assert moves[0] is not None and rep.computed_dims == want, prob.name


# -- refusing oversized spans ------------------------------------------------------

def test_span_size_guard_at_the_bound(problem, monkeypatch):
    prob = problem("sweedler", True)
    H, B = prob.hopf, prob.algebra
    columns = H.dim * sum(B.vdim ** m for m in range(5))     # (N, k) = (3, 1)
    assert columns == 124
    monkeypatch.setattr(oracle, "MAX_SPAN_COLUMNS", columns)
    assert filtered_dims(H, B, prob.kappa, 3, 1).computed_dims == [4, 12, 24, 40]
    monkeypatch.setattr(oracle, "MAX_SPAN_COLUMNS", columns - 1)
    with pytest.raises(OracleError, match="124 columns"):
        filtered_dims(H, B, prob.kappa, 3, 1)


def test_span_size_bound_admits_presets_at_cli_defaults(problem):
    # the CLI defaults span to degree 4, and to degree 5 under --probe;
    # ha1 at degree 5 (21,840 columns) is the largest, degree 6 is refused
    from test_acceptance import PRESET_LIST
    for name in PRESET_LIST + ["taft-5", "taft-7", "taft-9"]:
        prob = problem(name)
        columns = prob.hopf.dim * sum(prob.algebra.vdim ** m for m in range(6))
        assert columns <= oracle.MAX_SPAN_COLUMNS, name
    ha1 = problem("ha1", True)
    t0 = time.monotonic()
    with pytest.raises(OracleError, match="87376 columns"):
        filtered_dims(ha1.hopf, ha1.algebra, ha1.kappa, 3, 3)
    assert time.monotonic() - t0 < 1
