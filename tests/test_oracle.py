import itertools
import random
import time
from collections import ChainMap, Counter, deque

import pytest

from hopfpbw import oracle

from hopfpbw.scalar import Scalar
from hopfpbw.hopf import HopfAlgebra, add_into, algebra_generators
from hopfpbw.deform import Kappa, check_pbw, solve_kappa
from hopfpbw.modalg import CutoffExceeded, ModuleAlgebra, graded_dim
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


# -- the oracle against a modular reference over Q(zeta_N) ----------------------------------
#
# reference_computed_dims reduces in full Scalar arithmetic and took 246 s on
# taft-7 with a dense kappa^C at (3, 1).  The modular reference is the same
# spanning algorithm with every entry taken to F_p through its own map
# zeta -> w and reduced by its own elimination; it shares no code with the
# oracle's shadow.

def _is_prime(n: int) -> bool:
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(n % q for q in range(3, int(n ** 0.5) + 1, 2))


def _prime_and_root(N: int, below: int) -> tuple[int, int]:
    """The largest prime p < below with p = 1 mod N, and an element w of
    F_p of multiplicative order N, so that zeta -> w is a ring map
    Z[zeta_N] -> F_p."""
    p = below - 1 - (below - 2) % N
    while not _is_prime(p):
        p -= N
    qs = [q for q in range(2, N + 1) if N % q == 0 and _is_prime(q)]
    for g in range(2, p):
        w = pow(g, (p - 1) // N, p)
        if all(pow(w, N // q, p) != 1 for q in qs):
            return p, w
    raise AssertionError("no element of order N")


def modular_computed_dims(H, B, kappa, N, k, p, w):
    """reference_computed_dims with every entry in F_p, zeta mapped to w.

    Agreement with ``filtered_dims`` at two primes is evidence, not proof:
    reduction mod p can change a table, by making a row that is nonzero over
    Q(zeta_N) vanish, or a pivot lead (see ROADMAP on the rejected F_p
    oracle).  The exact Scalar reference stays the proof on the presets
    where it is fast enough.
    """
    vd, d, D = B.vdim, H.dim, N + k
    one = Scalar.one(H.order)
    wpow = [pow(w, i, p) for i in range(len(one.num))]

    def fp(s):
        assert s.den % p, "a denominator vanishes mod p"
        return sum(c * x for c, x in zip(s.num, wpow)) * pow(s.den, -1, p) % p

    def table(moved):
        return [(word, h, fp(c)) for (word, h), c in moved.items()]

    mult = [[[(h2, fp(c)) for h2, c in H.mult[h1][h].items()] for h in range(d)]
            for h1 in range(d)]
    left_h, right_v = {}, {}
    pivots, gen_of, pending = {}, {}, deque()

    def insert(row, gen, seed):
        row = {key: c for key, c in row.items() if c}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {key: c * inv % p for key, c in row.items()}
                gen_of[lead] = gen
                pending.append((lead, gen, seed))
                return
            f = row.pop(lead)
            for key, c in piv.items():
                if key != lead:
                    c = (row.get(key, 0) - f * c) % p
                    if c:
                        row[key] = c
                    else:
                        row.pop(key, None)

    def times_h(row, g, left):
        out = Counter()
        for (negm, word, h), c in row.items():
            if left:
                if (g, word) not in left_h:
                    left_h[g, word] = table(straighten(H, B, {g: one}, {word: one}))
                moved = left_h[g, word]
            else:
                moved = [(word, h, 1)]
            for w2, h1, c1 in moved:
                for h2, c2 in (mult[h1][h] if left else mult[h1][g]):
                    out[negm, w2, h2] += c * c1 * c2
        return {key: c % p for key, c in out.items()}

    def times_v(row, v, left):
        if left:
            return {(negm - 1, (v,) + word, h): c for (negm, word, h), c in row.items()}
        out = Counter()
        for (negm, word, h), c in row.items():
            if (h, v) not in right_v:
                right_v[h, v] = table(straighten(H, B, {h: one}, {(v,): one}))
            for (v2,), h2, c2 in right_v[h, v]:
                out[negm - 1, word + (v2,), h2] += c * c2
        return {key: c % p for key, c in out.items()}

    def drain():
        while pending:
            lead, gen, seed = pending.popleft()
            row = pivots[lead]
            for g in algebra_generators(H):
                insert(times_h(row, g, False), gen, seed)
                if seed:
                    insert(times_h(row, g, True), gen, True)

    for a in range(B.dim_relations()):
        row = Counter()
        for (i, j), c in B.relation_sparse(a).items():
            for u, cu in H.unit.items():
                row[-2, (i, j), u] += fp(c * cu)
        for (v, h), c in kappa.l_vec(a).items():
            row[-1, (v,), h] -= fp(c)
        for h, c in kappa.c_vec(a).items():
            row[0, (), h] -= fp(c)
        insert({key: c % p for key, c in row.items()}, 2, True)
    drain()
    for j in range(2, D):
        for lead in [lead for lead, g in gen_of.items() if g == j]:
            for v in range(vd):
                insert(times_v(pivots[lead], v, True), j + 1, False)
                insert(times_v(pivots[lead], v, False), j + 1, False)
        drain()
    return [d * sum(vd ** j for j in range(m + 1)) - sum(1 for lead in pivots if -lead[0] <= m)
            for m in range(N + 1)]


@pytest.mark.parametrize("name, dense, N, k", [("taft-7", False, 3, 1), ("taft-7", True, 3, 0),
                                               ("taft-9", True, 3, 0)])
def test_oracle_matches_the_modular_reference(problem, name, dense, N, k):
    # over Q(zeta_7) and Q(zeta_9); the dense kappa is the one of
    # test_dense_kappa_over_q_zeta7_keeps_coefficients_small, which the
    # Scalar reference takes 12 s to span at (3, 0) on taft-7
    prob = problem(name, True)
    H, B = prob.hopf, prob.algebra
    kp = _dense_kappa(prob, 1) if dense else prob.kappa
    want = filtered_dims(H, B, kp, N, k).computed_dims
    for below in (2 ** 31, 2 ** 29):
        p, w = _prime_and_root(H.order, below)
        t0 = time.monotonic()
        assert modular_computed_dims(H, B, kp, N, k, p, w) == want, p
        assert time.monotonic() - t0 < 10, p


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
    # multiples the oracle keeps virtual: the family dimension, the
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


def _constant_kappa(prob, c):
    """kappa^C(r) = c on the single relation r of h8 or a Taft algebra.
    Clearing the denominator of c = 1/q makes the relator's lead q, so the
    first pivot the span stores has a lead other than one."""
    return Kappa.from_vectors(prob.hopf, prob.algebra, [{0: c}], [dict()])


def _ha1_noninvariant(ha1):
    """The non-invariant kappa^C that the ha1 benchmark draws at seed 1."""
    one4 = Scalar.one(4)
    cv = [dict() for _ in range(6)]
    cv[0] = {8: one4, 15: Scalar.from_int(4, 3)}
    cv[2] = {0: one4}
    cv[3] = {15: one4}
    return Kappa.from_vectors(ha1.hopf, ha1.algebra, cv, [dict() for _ in range(6)])


def test_exact_engine_sees_only_rows_that_add_a_pivot(problem, monkeypatch):
    # Once the shadow runs, and while every exact pivot lead is a unit mod
    # the prime, a row the shadow keeps is outside the exact span; a shadow
    # with wrong tables would pass rows that reduce to zero, and its skips
    # would no longer be screened.  Before the shadow starts every candidate
    # is inserted, so only the inserts made while a shadow exists count, on
    # spans that start it at their first pivot (h8 with 1/3, taft-5 with
    # 1/11, h8 rescaled) or among the seeds.
    kept = []
    shadows = []

    class Counting(oracle.SparseEchelon):
        def insert(self, row):
            piv = super().insert(row)
            if shadows:
                kept.append(piv is not None)
            return piv

    class Shadow(oracle._Shadow):
        def __init__(self, *args):
            super().__init__(*args)
            shadows.append(self)

    monkeypatch.setattr(oracle, "SparseEchelon", Counting)
    monkeypatch.setattr(oracle, "_Shadow", Shadow)
    h8, ha1, taft5 = problem("h8", True), problem("ha1", True), problem("taft-5")
    one1 = Scalar.one(1)
    xz = h8.hopf.labels.index("xz")
    B2, move = _rescale(h8.algebra, [2, 1])
    bad = Kappa.from_vectors(h8.hopf, h8.algebra, [{0: one1, xz: -one1}], [dict()])
    cases = [(h8.hopf, h8.algebra, _constant_kappa(h8, Scalar.from_rational(1, 1, 3)), 3, 1),
             (h8.hopf, h8.algebra, bad, 3, 1), (h8.hopf, B2, move(h8.hopf, bad), 3, 1),
             (taft5.hopf, taft5.algebra, _constant_kappa(taft5, Scalar.from_rational(5, 1, 11)), 3, 0),
             (ha1.hopf, ha1.algebra, _ha1_noninvariant(ha1), 3, 0),
             (ha1.hopf, ha1.algebra, _dense_kappa(ha1, 2), 3, 0)]
    for H, B, kp, N, k in cases:
        kept.clear()
        shadows.clear()
        filtered_dims(H, B, kp, N, k)
        assert shadows, B.vlabels
        assert len(kept) > B.dim_relations() and all(kept)


def _member(H, B, coeffs):
    """sum c_i * basis_i over the linear basis of B's kappa family."""
    kp = Kappa.zero(H, B)
    for c, basis in zip(coeffs, solve_kappa(H, B).linear_basis):
        kp = kp.add(basis.scale(Scalar.from_int(H.order, c)))
    return kp


def test_shadow_starts_at_the_first_lead_other_than_one(problem, monkeypatch):
    # The engine stores a root-of-unity lead as one, and while every stored
    # lead is one the span builds no shadow: it is the exact span itself.
    # The first stored lead other than one starts the shadow, which must
    # image every pivot stored so far; a shadow that missed one would read
    # that pivot's multiples as zero and skip them, and the tables would
    # grow past the reference's.
    built, starts = [], []
    real_next_shadow = oracle._next_shadow

    class Shadow(oracle._Shadow):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def next_shadow(primes, den, H, amb, straightened, ech):
        sh = real_next_shadow(primes, den, H, amb, straightened, ech)
        if not starts:
            others = [c for c in ech.pivots if ech.row(c)[c] != ech.one]
            assert len(others) == 1, others
            starts.append(len(ech.pivots))
        assert all(sh.size[c] for c in ech.pivots)
        return sh

    monkeypatch.setattr(oracle, "_Shadow", Shadow)
    monkeypatch.setattr(oracle, "_next_shadow", next_shadow)
    ha1, taft7, h8 = problem("ha1"), problem("taft-7"), problem("h8")
    one4 = Scalar.one(4)
    quiet = [(ha1, _member(ha1.hopf, ha1.algebra, (2, -3)), 3, 2, "CONSISTENT"),
             (ha1, _ha1_kappa(ha1, 5, {9: one4, 13: -one4}), 3, 2, "FALSIFIED"),
             (taft7, _member(taft7.hopf, taft7.algebra, (3, -2)), 3, 1, "CONSISTENT")]
    for prob, kp, N, k, verdict in quiet:
        built.clear()
        rep = filtered_dims(prob.hopf, prob.algebra, kp, N, k)
        assert rep.verdict == verdict and not built, prob.name
    stored = []     # the pivots stored when the shadow starts
    for prob, kp, N, k in ((ha1, _ha1_noninvariant(ha1), 3, 0),
                           (h8, _constant_kappa(h8, Scalar.from_rational(1, 1, 3)), 3, 1)):
        built.clear()
        starts.clear()
        rep = filtered_dims(prob.hopf, prob.algebra, kp, N, k)
        assert built, prob.name
        stored += starts
        H, B = prob.hopf, prob.algebra
        assert rep.computed_dims == reference_computed_dims(H, B, kp, N, k), prob.name
    # h8's relator starts the shadow; ha1's starts it with seeds stored,
    # whose multiples the shadow then screens
    assert stored[0] > 1 and stored[1] == 1, stored


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

def _step_back(amb, c: int) -> int:
    """The column of w (x) h for c the column of v w (x) h."""
    m = amb.deg[c]
    return amb.base[m - 1] + (c - amb.base[m]) % amb.block[m - 1]


def _virtual_columns(amb, ech) -> list:
    """The columns that hold a virtual pivot, in column order."""
    return [c for c in range(amb.total) if c not in ech.pivots and ech.row(c) is not None]


def _chain(amb, pivots: dict, c: int) -> int:
    """How many letters the virtual pivot at c lies from its stored row; a
    translate lies no letter from the row it is translated from."""
    n = 0
    while c not in pivots:
        if c in amb.translated:
            c = amb.translated[c][0]
        else:
            c, n = _step_back(amb, c), n + 1
    return n


def test_h_multiples_run_on_seed_pivots_only(problem, monkeypatch):
    # Every generation after the seeds is a two-sided H-module already
    # (oracle module docstring), so the span screens right and left
    # H-multiples of seed pivots only: |S| left multiples of each stored seed
    # pivot, and |S - G| right multiples of each seed pivot, stored or
    # translated, for S the generators and G the right translations, whose
    # products are the translates.  Each stored pivot brings |G| translates,
    # virtual or screened.  A candidate is screened on the shadow's ring once
    # a shadow runs and on the exact ring before one starts (ha1 and h8 on
    # their preset kappa never start one; h8 with kappa^C(r) = 1/3 starts it
    # at the relator).
    events = []     # (operator, screened), ("pivot", added), ("source", None) or ("translate", None)
    engines, shadows, ambients = [], [], []
    exact_rings = []
    real_exact_ring = oracle._exact_ring

    def exact_ring(*args):
        exact_rings.append(real_exact_ring(*args))
        return exact_rings[-1]

    source = []     # the operator and the source pivot of the last exact row
    # pivot column -> (generation, takes no right V-multiples: born of a
    # left V-multiple or translated, or a translate inserted as a row of such)
    born = {}
    v_layers = []   # (V-operator or "source", generation of the source pivot)
    in_group = set()    # G of the running span

    def counted(op_name, op):
        def run(R, amb, row, arg):
            # a right multiple by a member of G is a translate inserted as a row
            name = "_translate" if op_name == "_right_h" and arg in in_group else op_name
            exact = R is exact_rings[-1]
            events.append((name, not exact or not shadows))
            row = list(row)
            src = min(c for c, _ in row)
            if exact:
                source[:] = [name, src]
            if name in ("_left_v", "_right_v") and (not exact or not shadows):
                v_layers.append((name, born[src][0]))
            return op(R, amb, row, arg)
        return run

    def note(piv):
        name, src = source or ("seed", None)
        if name == "_translate":
            born[piv] = born[src]
        else:
            v_layer = name in ("_left_v", "_right_v")
            born[piv] = (born[src][0] + 1 if v_layer else 2, name == "_left_v")

    class Flags(bytearray):
        # a pivot is flagged as a source when its generation's left phase
        # starts; one stored nowhere and not translated is a virtual left
        # multiple of the source one letter back, and is born here for the count
        def __setitem__(self, c, flag):
            super().__setitem__(c, flag)
            if c not in born:
                born[c] = (born[_step_back(ambients[-1], c)][0] + 1, True)
            events.append(("source", None))
            v_layers.append(("source", born[c][0]))

    class Translated(dict):
        # a translated virtual pivot is of its stored row's generation
        def __setitem__(self, c, entry):
            super().__setitem__(c, entry)
            born[c] = (born[entry[0]][0], True)
            events.append(("translate", None))

    class Ambient(oracle._Ambient):
        def __init__(self, *args):
            super().__init__(*args)
            self.source = Flags(self.source)
            self.translated = Translated()
            ambients.append(self)

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

    real_graded_dim = oracle.graded_dim
    virtual = []    # the virtual columns, once the span is done

    def graded_dim(B, j):
        # called right after the span, while the engine is alive
        if j == 0:
            virtual[:] = _virtual_columns(ambients[-1], engines[-1])
        return real_graded_dim(B, j)

    monkeypatch.setattr(oracle, "_exact_ring", exact_ring)
    for name in ("_right_h", "_left_h", "_left_v", "_right_v"):
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    monkeypatch.setattr(oracle, "_Ambient", Ambient)
    monkeypatch.setattr(oracle, "SparseEchelon", Counting)
    monkeypatch.setattr(oracle, "_Shadow", Shadow)
    monkeypatch.setattr(oracle, "graded_dim", graded_dim)
    h8 = problem("h8", True)
    third = _constant_kappa(h8, Scalar.from_rational(1, 1, 3))
    for prob, kappa, N, k, starts in ((problem("ha1", True), None, 3, 2, False),
                                      (h8, None, 3, 1, False), (h8, third, 3, 1, True)):
        kappa = kappa or prob.kappa
        events.clear()
        engines.clear()
        shadows.clear()
        ambients.clear()
        source.clear()
        born.clear()
        v_layers.clear()
        G = [g for g, _, _ in prob.hopf.right_translations[1]]
        in_group.clear()
        in_group.update(G)
        rep = filtered_dims(prob.hopf, prob.algebra, kappa, N, k)
        assert rep.verdict == "CONSISTENT"
        assert bool(shadows) == starts, prob.name
        S = algebra_generators(prob.hopf)
        assert G and set(G) & set(S), prob.name
        first_v = next(i for i, (name, _) in enumerate(events) if name == "source")
        seeds = sum(1 for name, kept in events[:first_v] if name == "pivot" and kept)
        seed_translates = sum(1 for name, _ in events[:first_v] if name == "translate")
        screened = Counter(name for name, s in events
                           if name not in ("pivot", "source", "translate") and s)
        assert screened["_left_h"] == len(S) * seeds, prob.name
        assert screened["_right_h"] == len(set(S) - set(G)) * (seeds + seed_translates), prob.name
        assert all(name not in ("_right_h", "_left_h") for name, _ in events[first_v:])
        # the V-layers do add pivots, so the last check is not vacuous
        assert any(name == "pivot" and kept for name, kept in events[first_v:])
        amb, = ambients
        ech, = engines
        # each stored pivot brings |G| translates, virtual or screened
        assert amb.translated, prob.name
        assert screened["_translate"] + len(amb.translated) == len(G) * len(ech.pivots), prob.name
        # every pivot of generations 2..D-1, stored, virtual or translated,
        # gets vd left multiples, screened or virtual at a column that never
        # holds a stored pivot or a translate; only those not born of a left
        # multiple nor translated get right multiples (the product lemma and
        # the translation lemma)
        D = N + k
        multiplied = [no_right for gen, no_right in born.values() if gen < D]
        vd = prob.algebra.vdim
        last = [c for c in virtual if c not in born]
        assert len(virtual) > len(last) > 0 and multiplied.count(True) > 0, prob.name
        assert screened["_left_v"] + len(virtual) - len(amb.translated) == vd * len(multiplied), \
            prob.name
        assert screened["_right_v"] == vd * multiplied.count(False) > 0, prob.name
        # the engine stores a row for every pivot it holds, and no virtual
        # pivot is stored, in the engine or in any shadow
        assert all(entry.__class__ is dict for entry in ech.pivots.values()), prob.name
        assert not any(sh.size[c] for sh in shadows for c in virtual), prob.name
        # each generation flags its sources before its first V-multiple and
        # takes every left multiple before its first right multiple, so its
        # virtual left multiples claim their lead columns first
        for j in range(2, D):
            names = [name for name, gen in v_layers if gen == j]
            first_left = names.index("_left_v") if "_left_v" in names else len(names)
            first_right = names.index("_right_v")
            assert all(name == "source" for name in names[:min(first_left, first_right)])
            assert "source" not in names[min(first_left, first_right):], (prob.name, j)
            assert all(name == "_right_v" for name in names[first_right:]), (prob.name, j)
            if j < D - 1:
                assert any(gen == j + 1 and c not in ech.pivots for c, (gen, _) in born.items()), (
                    prob.name, j)


# -- virtual pivots ---------------------------------------------------------------

def test_virtual_pivots_match_insert_and_add_pivot(problem, monkeypatch):
    # A left V-multiple whose lead column holds no stored pivot is stored
    # nowhere, in every generation, and its exact row is derived on every
    # read: at every virtual column, once the span is done, the row that
    # the engine reads must be what `insert` stores at that column on a copy
    # of the engine that lacks just that pivot, and, once a shadow runs,
    # the shadow's read there what `add_pivot` on a blank shadow stores for
    # that row.  A left multiple of a virtual pivot is virtual in turn, so
    # the derivation walks chains of letters back to a stored row.  The
    # preset kappa of h8 and ha1 start no shadow; h8 rescaled starts it at
    # its first pivot, and the dense ha1 kappa among the seeds.
    from types import SimpleNamespace
    virtual = []    # the virtual columns of each span
    sources = []    # those of them that are sources of the next generation
    longest = []    # the longest chain of letters of each span
    spans = []      # (engine, shadow, column layout) of the running span
    Plain = oracle.SparseEchelon

    def blank_image(sh, c, row):
        blank = SimpleNamespace(p=sh.p, image=sh.image, start={}, size={}, cols=[], vals=[])
        assert oracle._Shadow.add_pivot(blank, c, row)
        return list(zip(blank.cols, blank.vals))

    def check_virtual():
        ech, sh, amb = spans[-1]
        cols = _virtual_columns(amb, ech)
        assert all(entry.__class__ is dict for entry in ech.pivots.values())
        for c in cols:
            row = ech.row(c)
            twin = Plain(ech.order)
            twin.pivots = ChainMap({}, ech.pivots)      # a copy on write
            twin.derive = lambda pivots, col: None if col == c else ech.derive(pivots, col)
            assert twin.insert(dict(row)) == c
            assert list(twin.pivots[c].items()) == list(row.items())
            if sh is not None:
                assert list(sh.row(c)) == blank_image(sh, c, row)
                assert sh.size[c] == 0 and sh.reduces_to_zero(dict(sh.row(c)))
        virtual.append(len(cols))
        sources.append(sum(1 for c in cols if amb.source[c]))
        longest.append(max(_chain(amb, ech.pivots, c) for c in cols))

    class Ambient(oracle._Ambient):
        def __init__(self, *args):
            super().__init__(*args)
            spans.append([None, None, self])

    class Engine(oracle.SparseEchelon):
        def __init__(self, order):
            super().__init__(order)
            spans[-1][0] = self

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

    monkeypatch.setattr(oracle, "_Ambient", Ambient)
    monkeypatch.setattr(oracle, "SparseEchelon", Engine)
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
             (ha1.hopf, ha1.algebra, _dense_kappa(ha1, 2), 3, 1), (h8.hopf, h8.algebra, h8.kappa, 3, 3),
             (h8.hopf, h8.algebra, _constant_kappa(h8, Scalar.from_rational(1, 1, 3)), 3, 1)]
    shadowed = []
    for H, B, kp, N, k in cases:
        spans.clear()
        want = reference_computed_dims(H, B, kp, N, k) if H is h8.hopf else None
        rep = filtered_dims(H, B, kp, N, k)
        # virtual pivots below generation D are sources of the next
        assert virtual[-1] > sources[-1] > 0, (B.vlabels, N, k)
        if want is not None:
            assert rep.computed_dims == want
        shadowed.append(spans[-1][1] is not None)
    # a virtual pivot of generation j lies at most j - 2 letters from its
    # stored row: chains of two letters at D = 4, three at D = 5, four at D = 6
    assert longest == [2, 2, 2, 3, 3, 2, 4, 2]
    assert shadowed == [False, True, True, False, False, True, False, True]


def test_engine_holds_only_inserted_rows_and_nothing_outlives_a_span(problem, monkeypatch):
    # A virtual pivot is stored nowhere, so the engine keeps a row dict for
    # exactly the columns that `insert` returned, and nothing else.  No
    # reference cycle holds the span's state: with the collector off, the
    # engine, the column layout and every shadow die by reference counting
    # when `filtered_dims` returns.  ha1 and taft-5 on their preset kappa
    # start no shadow; h8 with kappa^C(r) = 1/3 starts it at its first pivot.
    import gc
    import weakref
    engines, ambients, shadows, inserted = [], [], [], []

    class Recording(oracle.SparseEchelon):
        def __init__(self, order):
            super().__init__(order)
            engines.append(weakref.ref(self))

        def insert(self, row):
            piv = super().insert(row)
            if piv is not None:
                inserted.append(piv)
            return piv

    class Ambient(oracle._Ambient):
        def __init__(self, *args):
            super().__init__(*args)
            ambients.append(weakref.ref(self))

    class Shadow(oracle._Shadow):
        def __init__(self, *args):
            super().__init__(*args)
            shadows.append(weakref.ref(self))

    monkeypatch.setattr(oracle, "SparseEchelon", Recording)
    monkeypatch.setattr(oracle, "_Ambient", Ambient)
    monkeypatch.setattr(oracle, "_Shadow", Shadow)
    real_graded_dim = oracle.graded_dim
    held = []

    def graded_dim(B, j):
        # called right after the span, while the engine is alive
        if not held:
            ech = engines[-1]()
            held.append((dict(ech.pivots), len(_virtual_columns(ambients[-1](), ech))))
        return real_graded_dim(B, j)

    monkeypatch.setattr(oracle, "graded_dim", graded_dim)
    h8 = problem("h8")
    third = _constant_kappa(h8, Scalar.from_rational(1, 1, 3))
    for prob, kappa, N, k, starts in ((problem("ha1", True), None, 3, 2, False),
                                      (problem("taft-5", True), None, 3, 1, False),
                                      (h8, third, 3, 2, True)):
        kappa = kappa or prob.kappa
        engines.clear()
        ambients.clear()
        shadows.clear()
        inserted.clear()
        held.clear()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            rep = filtered_dims(prob.hopf, prob.algebra, kappa, N, k)
            assert len(engines) == len(ambients) == 1 and bool(shadows) == starts, prob.name
            assert all(ref() is None for ref in engines + ambients + shadows), prob.name
        finally:
            if was_enabled:
                gc.enable()
        assert rep.verdict == "CONSISTENT"
        (pivots, virtual), = held
        assert all(entry.__class__ is dict for entry in pivots.values()), prob.name
        assert pivots.keys() == set(inserted) and len(inserted) == len(pivots), prob.name
        assert virtual > len(pivots), prob.name


def test_prime_move_after_virtual_chains_keeps_the_tables(problem, monkeypatch):
    # Fail `add_pivot` once, at the first pivot recorded after a virtual
    # pivot two letters from its stored row became a source, so that chains
    # of three letters can be read.  The next shadow re-images every stored
    # pivot, the failed one included, and reads each virtual pivot off the
    # image of its stored row: at every virtual column it must read the
    # image that `add_pivot` on a blank shadow stores for the engine's row
    # there, and the tables must equal the unforced run.  A virtual chain of
    # three letters needs generation 5: h8 at (3, 3), with kappa^C(r) = 1/3
    # so that the shadow runs from the first pivot.
    from types import SimpleNamespace
    prob = problem("h8")
    H, B = prob.hopf, prob.algebra
    kappa = _constant_kappa(prob, Scalar.from_rational(1, 1, 3))
    want = filtered_dims(H, B, kappa, 3, 3)
    state = {"failed": None, "reimaged": {}, "chains": Counter(), "deep": False}
    spans = []      # (engine, column layout) of the running span
    add_pivot, real_next_shadow = oracle._Shadow.add_pivot, oracle._next_shadow

    class Flags(bytearray):
        def __setitem__(self, c, flag):
            super().__setitem__(c, flag)
            ech, amb = spans[-1]
            state["deep"] |= c not in ech.pivots and _chain(amb, ech.pivots, c) >= 2

    class Ambient(oracle._Ambient):
        def __init__(self, *args):
            super().__init__(*args)
            self.source = Flags(self.source)
            spans.append([None, self])

    class Engine(oracle.SparseEchelon):
        def __init__(self, order):
            super().__init__(order)
            spans[-1][0] = self

    def forced(self, c, row):
        if state["failed"] is None and state["deep"]:
            state["failed"] = (self.p, c)
            return False
        if state["failed"] is not None and self.p != state["failed"][0]:
            state["reimaged"][c] = list(self.row(c)) if add_pivot(self, c, row) else None
            return state["reimaged"][c] is not None
        return add_pivot(self, c, row)

    def next_shadow(primes, den, H, amb, straightened, ech):
        sh = real_next_shadow(primes, den, H, amb, straightened, ech)
        if state["failed"] is not None and not state["chains"]:
            assert state["reimaged"].keys() == ech.pivots.keys()
            for c in _virtual_columns(amb, ech):
                blank = SimpleNamespace(p=sh.p, image=sh.image, start={}, size={}, cols=[], vals=[])
                assert add_pivot(blank, c, ech.row(c))
                assert list(sh.row(c)) == list(zip(blank.cols, blank.vals)), c
                state["chains"][_chain(amb, ech.pivots, c)] += 1
        return sh

    monkeypatch.setattr(oracle, "_Ambient", Ambient)
    monkeypatch.setattr(oracle, "SparseEchelon", Engine)
    monkeypatch.setattr(oracle._Shadow, "add_pivot", forced)
    monkeypatch.setattr(oracle, "_next_shadow", next_shadow)
    rep = filtered_dims(H, B, kappa, 3, 3)
    assert state["failed"] is not None
    p, c = state["failed"]
    reimaged = state["reimaged"]
    # every pivot stored at the move, the failed one included, is re-imaged
    assert c in reimaged and None not in reimaged.values()
    chains = state["chains"]
    assert chains[1] and chains[2] and chains[3], chains
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
        if moves == [None] and any(self.amb.source):
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


def reference_derive(amb, H, gs: list, ech, pivots: dict, c: int):
    """``oracle._derive`` with the walk back to the stored row, the column
    shifts of the letter chain and the translation done on every read, as
    before ``_Ambient.shifts`` and ``_Ambient.moves`` kept them per span; the
    translation is read off H.mult: the stored row times e_g, for g = gs[t]
    at the t-th translation, divided by the unit that its lead picks up.
    None unless c holds a virtual pivot."""
    deg, lshift, d = amb.deg, amb.lshift, amb.hdim
    letters = []
    g = None
    while c not in pivots:
        if c in amb.translated:
            c, t = amb.translated[c]
            g = gs[t]
            break
        m = deg[c]
        if not m:
            return None
        v = (c - amb.base[m]) // amb.block[m - 1]
        c -= lshift[v][m - 1]
        if not amb.source[c]:
            return None
        letters.append(v)
    total = [0] * (deg[c] + 1)
    for i, v in enumerate(reversed(letters)):
        shift = lshift[v]
        for m in range(len(total)):
            total[m] += shift[m + i]
    row = pivots[c]
    if g is not None:
        (_, lead_unit), = H.mult[c % d][g].items()
        inv = lead_unit.inverse()
        moved = {}
        for col, val in row.items():
            (k, unit), = H.mult[col % d][g].items()
            u = ech.coeff(unit * inv, 1)
            moved[col - col % d + k] = val if u == ech.one else ech.mul(val, u)
        row = moved
    return {col + total[deg[col]]: val for col, val in row.items()}


def test_derive_matches_the_per_read_composition(problem, monkeypatch):
    # Every row that `_derive` returns, during the span and at each virtual
    # column once the span is done, must be the row that walking back,
    # composing the chain's shifts and translating on the spot gives, entries
    # in the same order.  The ha1 member span at (3, 2) starts no shadow, so
    # every candidate is reduced exactly; h8 with kappa^C(r) = 1/3 at (3, 1)
    # starts the shadow at its first pivot, and the exact rows of the
    # candidates that it keeps are built from derived rows too.
    real_derive = oracle._derive
    spans = []      # [column layout, engine] of the running span
    shadows = []
    derived = []    # columns whose derived row was checked
    hopf = []       # H and its right translations of the running span

    def derive(amb, units, mul, pivots, c):
        row = real_derive(amb, units, mul, pivots, c)
        want = reference_derive(amb, *hopf[-1], spans[-1][1], pivots, c)
        assert (row is None) == (want is None), c
        if row is not None:
            assert list(row.items()) == list(want.items()), c
            derived.append(c)
        return row

    class Ambient(oracle._Ambient):
        def __init__(self, *args):
            super().__init__(*args)
            spans.append([self, None])

    class Engine(oracle.SparseEchelon):
        def __init__(self, order):
            super().__init__(order)
            spans[-1][1] = self

    class Shadow(oracle._Shadow):
        def __init__(self, *args):
            super().__init__(*args)
            shadows.append(self)

    real_graded_dim = oracle.graded_dim
    covered = []    # (sources, translates, all) of the virtual columns of each span

    def graded_dim(B, j):
        # called right after the span, while the engine is alive
        if j == 0:
            amb, ech = spans[-1]
            virtual = [c for c in range(amb.total)
                       if c not in ech.pivots
                       and reference_derive(amb, *hopf[-1], ech, ech.pivots, c) is not None]
            derived.clear()
            for c in virtual:
                assert ech.derive(ech.pivots, c) is not None, c
            assert derived == virtual
            # one composed shift per (degree, letter chain) and one move per
            # (translation, lead H-index), not per read
            assert 0 < len(amb.shifts) < 1000 and 0 < len(amb.moves) < 1000
            covered.append((sum(1 for c in virtual if amb.source[c]), len(amb.translated),
                            len(virtual)))
        return real_graded_dim(B, j)

    monkeypatch.setattr(oracle, "_derive", derive)
    monkeypatch.setattr(oracle, "_Ambient", Ambient)
    monkeypatch.setattr(oracle, "SparseEchelon", Engine)
    monkeypatch.setattr(oracle, "_Shadow", Shadow)
    monkeypatch.setattr(oracle, "graded_dim", graded_dim)
    ha1, h8 = problem("ha1"), problem("h8")
    for prob, kappa, k, shadowed in (
            (ha1, _member(ha1.hopf, ha1.algebra, (2, -3)), 2, False),
            (h8, _constant_kappa(h8, Scalar.from_rational(1, 1, 3)), 1, True)):
        shadows.clear()
        hopf.append((prob.hopf, [g for g, _, _ in prob.hopf.right_translations[1]]))
        rep = filtered_dims(prob.hopf, prob.algebra, kappa, 3, k)
        assert rep.verdict == "CONSISTENT" and bool(shadows) == shadowed, prob.name
    assert all(0 < sources < virtual and 0 < translates < virtual
               for sources, translates, virtual in covered), covered


# -- translated pivots ---------------------------------------------------------------

def test_translated_pivots_are_scalar_translates(problem, monkeypatch):
    # A translated virtual pivot is the stored row y times (1 # e_g),
    # divided by the unit that y's lead picks up, and a virtual left multiple
    # of it is that row under the letters.  At every translated column, and
    # at every virtual column that walks back to one, the exact row that the
    # engine reads must be that product, taken in Scalars from H.mult, entry
    # by entry, with y's lead coefficient at its lead.  taft-7's preset kappa
    # and the ha1 member start no shadow; h8 with kappa^C(r) = 1/3 starts it
    # at its first pivot, whose lead 3 every translate keeps.
    from test_smash import _word_keyed
    spans = []      # [column layout, engine] of the running span
    checked = []    # (translated columns, virtual columns walked through one) per span

    class Ambient(oracle._Ambient):
        def __init__(self, *args):
            super().__init__(*args)
            spans.append([self, None])

    class Engine(oracle.SparseEchelon):
        def __init__(self, order):
            super().__init__(order)
            spans[-1][1] = self

    def check(H):
        amb, ech = spans[-1]
        order, d = H.order, H.dim
        gs = [g for g, _, _ in H.right_translations[1]]
        assert amb.translated

        def scalars(row):
            return {col: Scalar._make(order, 1, (v,) if ech.phi == 1 else v)
                    for col, v in row.items()}

        through = 0
        for c in _virtual_columns(amb, ech):
            letters, c0 = [], c
            while c0 not in ech.pivots and c0 not in amb.translated:
                m = amb.deg[c0]
                letters.append((c0 - amb.base[m]) // amb.block[m - 1])
                c0 = _step_back(amb, c0)
            if c0 in ech.pivots:
                continue
            through += bool(letters)
            c1, t = amb.translated[c0]
            g = gs[t]
            (k0, u0), = H.mult[c1 % d][g].items()
            assert c0 == c1 - c1 % d + k0
            inv = u0.inverse()
            want = {}
            for (word, h), val in _word_keyed(amb, scalars(ech.pivots[c1])).items():
                for k, u in H.mult[h][g].items():
                    add_into(want, (tuple(letters) + word, k), val * u * inv)
            got = scalars(ech.row(c))
            assert _word_keyed(amb, got) == want, c
            assert min(got) == c and got[c] == scalars(ech.pivots[c1])[c1], c
        checked.append((len(amb.translated), through))

    real_graded_dim = oracle.graded_dim
    hopf = []

    def graded_dim(B, j):
        # called right after the span, while the engine is alive
        if j == 0:
            check(hopf[-1])
        return real_graded_dim(B, j)

    monkeypatch.setattr(oracle, "_Ambient", Ambient)
    monkeypatch.setattr(oracle, "SparseEchelon", Engine)
    monkeypatch.setattr(oracle, "graded_dim", graded_dim)
    ha1, taft7, h8 = problem("ha1"), problem("taft-7", True), problem("h8")
    for prob, kappa, k in ((ha1, _member(ha1.hopf, ha1.algebra, (2, -3)), 2),
                           (taft7, taft7.kappa, 1),
                           (h8, _constant_kappa(h8, Scalar.from_rational(1, 1, 3)), 1)):
        hopf.append(prob.hopf)
        filtered_dims(prob.hopf, prob.algebra, kappa, 3, k)
    assert all(translated > 0 and through > 0 for translated, through in checked), checked


TRANSLATIONS = {"sweedler": 1, "taft-3": 2, "taft-4": 3, "taft-5": 4, "taft-7": 6, "taft-9": 8,
                "h8": 3, "ha1": 7, "cbh-cyclic-1": 0, "cbh-cyclic-2": 1, "cbh-cyclic-3": 2,
                "cbh-cyclic-4": 3}


@pytest.mark.parametrize("name", sorted(TRANSLATIONS))
def test_translations_read_off_the_tables(problem, name):
    # every non-unit group-like of each preset's basis is a right
    # translation: sweedler 1, taft-n n - 1, h8 3, ha1 7, cbh-cyclic-n n - 1
    H = problem(name).hopf
    units, group = H.right_translations
    assert len(group) == TRANSLATIONS[name]
    members = {g for g, _, _ in group}
    for g, perm, exps in group:
        assert H.comult[g] == {(g, g): H.one_scalar()} and H.unit != {g: H.one_scalar()}
        assert sorted(perm) == list(range(H.dim))
        assert all(H.mult[h][g] == {perm[h]: units[exps[h]]} for h in range(H.dim))
        assert all(perm[g2] in members | set(H.unit) for g2 in members)


def _rebased(prob, a, b, c):
    """prob with H in the basis f_a = e_a + c e_b, f_i = e_i otherwise:
    one invertible change of basis applied to mult, comult, antipode, unit,
    counit and the action; returns (H', B', move) with move carrying a kappa
    over."""
    H, B = prob.hopf, prob.algebra

    def to_f(vec):
        # e_a = f_a - c f_b
        out = {}
        for i, x in vec.items():
            add_into(out, i, x)
            if i == a:
                add_into(out, b, -(c * x))
        return out

    def from_f(i):
        return {a: H.one_scalar(), b: c} if i == a else {i: H.one_scalar()}

    d = H.dim
    mult = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = {}
            for i2, x in from_f(i).items():
                for j2, y in from_f(j).items():
                    for k, z in H.mult[i2][j2].items():
                        add_into(acc, k, x * y * z)
            row.append(to_f(acc))
        mult.append(row)
    comult, antipode, counit, action = [], [], [], []
    for i in range(d):
        cop, anti, eps = {}, {}, H.zero_scalar()
        mat = [[Scalar.zero(H.order)] * B.vdim for _ in range(B.vdim)]
        for i2, x in from_f(i).items():
            for (k, l), z in H.comult[i2].items():
                for k2, y1 in to_f({k: z * x}).items():
                    for l2, y2 in to_f({l: H.one_scalar()}).items():
                        add_into(cop, (k2, l2), y1 * y2)
            for k, z in H.antipode[i2].items():
                add_into(anti, k, x * z)
            eps = eps + x * H.counit[i2]
            mat = [[m + x * n for m, n in zip(r, r2)] for r, r2 in zip(mat, B.action[i2])]
        comult.append(cop)
        antipode.append(to_f(anti))
        counit.append(eps)
        action.append(mat)
    H2 = HopfAlgebra(H.order, d, list(H.labels), mult, comult, to_f(H.unit), counit, antipode)
    B2 = ModuleAlgebra(B.order, B.vdim, list(B.vlabels), B.relations, action, B.cutoff)

    def move(kp):
        p = B.dim_relations()
        cv = [to_f(kp.c_vec(r)) for r in range(p)]
        lv = []
        for r in range(p):
            out = {}
            for (v, h), x in kp.l_vec(r).items():
                for h2, y in to_f({h: x}).items():
                    add_into(out, (v, h2), y)
            lv.append(out)
        return Kappa.from_vectors(H2, B2, cv, lv)

    return H2, B2, move


def test_a_basis_without_monomial_translations_keeps_the_tables(problem):
    # taft-3 and ha1 with H rewritten in a basis where right multiplication
    # by the group-likes is not monomial (f_a = e_a + e_b): the rewritten
    # problem is a valid one, fewer translations (here none) are read off
    # it, and the span without them gives the preset's tables, FALSIFIED
    # ones included
    from test_acceptance import _invalid_catalog
    from hopfpbw.hopf import validate_hopf
    from hopfpbw.modalg import validate_action
    verdicts = set()
    for name, a, b in (("taft-3", 3, 1), ("ha1", 1, 8)):
        prob = problem(name, True)
        H, B = prob.hopf, prob.algebra
        H2, B2, move = _rebased(prob, a, b, H.one_scalar())
        assert validate_hopf(H2).passed and validate_action(H2, B2).passed, name
        assert H.right_translations[1] and not H2.right_translations[1], name
        _, bads = _invalid_catalog(problem, name, count=2)
        for kp in [prob.kappa] + bads:
            for N, k in ((2, 1), (3, 1)):
                want = filtered_dims(H, B, kp, N, k)
                got = filtered_dims(H2, B2, move(kp), N, k)
                assert (got.computed_dims, got.verdict) == (want.computed_dims, want.verdict), \
                    (name, N, k)
                verdicts.add(got.verdict)
    assert verdicts == {"CONSISTENT", "FALSIFIED"}


def _drawn_kappa(prob, fam, rng):
    """A seeded kappa: a member of the family with coefficients in -2..2,
    plus 0 to 2 random kappa^C or kappa^L cells with values in -2..2."""
    H, B = prob.hopf, prob.algebra
    kp = _member(H, B, [rng.randint(-2, 2) for _ in fam.linear_basis]) if fam.linear_basis \
        else Kappa.zero(H, B)
    p = B.dim_relations()
    cv = [dict(kp.c_vec(a)) for a in range(p)]
    lv = [dict(kp.l_vec(a)) for a in range(p)]
    for _ in range(rng.randint(0, 2)):
        a, c = rng.randrange(p), Scalar.from_int(H.order, rng.choice((-2, -1, 1, 2)))
        if rng.random() < 0.5:
            add_into(cv[a], rng.randrange(H.dim), c)
        else:
            add_into(lv[a], (rng.randrange(B.vdim), rng.randrange(H.dim)), c)
    return Kappa.from_vectors(H, B, cv, lv)


def test_translated_span_matches_the_references_on_seeded_kappas(problem):
    # Every preset at (2, 1), (3, 0) and (3, 1), on family members with 0 to
    # 2 random cells, and on two kappas that start the shadow (h8 with
    # kappa^C(r) = 1/3, and the non-invariant kappa^C of the ha1 benchmark):
    # the span with translated pivots must give the tables of the Scalar
    # reference over Q and of the modular reference over Q(zeta_N), neither
    # of which translates anything.
    names = sorted(TRANSLATIONS)
    rng = random.Random(25)
    cases = []
    for name in names:
        prob = problem(name, True)
        fam = solve_kappa(prob.hopf, prob.algebra)
        cases += [(prob, prob.kappa)] + [(prob, _drawn_kappa(prob, fam, rng)) for _ in range(2)]
    h8, ha1 = problem("h8"), problem("ha1")
    cases += [(h8, _constant_kappa(h8, Scalar.from_rational(1, 1, 3))), (ha1, _ha1_noninvariant(ha1))]
    verdicts = Counter()
    for prob, kp in cases:
        H, B = prob.hopf, prob.algebra
        for N, k in ((2, 1), (3, 0), (3, 1)):
            rep = filtered_dims(H, B, kp, N, k)
            if H.order == 1:
                want = reference_computed_dims(H, B, kp, N, k)
            else:
                want = modular_computed_dims(H, B, kp, N, k, *_prime_and_root(H.order, 2 ** 31))
            assert rep.computed_dims == want, (prob.name, N, k)
            verdicts[rep.verdict] += 1
    assert verdicts["CONSISTENT"] > 0 and verdicts["FALSIFIED"] > 0, verdicts


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
