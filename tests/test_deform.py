import dataclasses
import random

import pytest

from hopfpbw.scalar import Scalar, zeta
from hopfpbw import deform, modalg
from hopfpbw.exactla import Subspace, sparse_kernel
from hopfpbw.hopf import _fmt_tensor, add_into, algebra_generators, format_hvec
from hopfpbw.modalg import koszul_component, reduce_mod_relations
from hopfpbw.presets import build_problem
from hopfpbw.smash import straighten
from hopfpbw.deform import (
    Kappa, check_invariance, check_overlap, check_pbw, overlap_maps,
    solve_kappa, kappa_block_dims, expand_left, NotInD3,
)

from test_exactla import reference_kernel, reference_rref
from test_generators import reference_invariance_sides
from test_smash import ReferenceAdjointVH


def one(order=1):
    return Scalar.one(order)


def kappa_of(problem, name, cvecs, lvecs):
    prob = problem(name)
    return prob, Kappa.from_vectors(prob.hopf, prob.algebra, cvecs, lvecs)


def test_zero_kappa_passes_everywhere(problem):
    for name in ("sweedler", "taft-3", "h8", "ha1", "cbh-cyclic-3"):
        prob = problem(name)
        kp = Kappa.zero(prob.hopf, prob.algebra)
        rep = check_pbw(prob.hopf, prob.algebra, kp)
        assert rep.passed, name


def test_invariance_examples(problem):
    # kC(r) = x passes for the Sweedler problem
    prob, kp = kappa_of(problem, "sweedler", [{1: one()}], [dict()])
    assert check_invariance(prob.hopf, prob.algebra, kp).passed
    # kC(r) = 1 fails: g.1 = 1 but kappa(g.r) = kappa(-r) = -1
    prob, kp = kappa_of(problem, "sweedler", [{0: one()}], [dict()])
    rep = check_invariance(prob.hopf, prob.algebra, kp)
    assert not rep.passed
    wit = rep.conditions["a"].witnesses
    assert any(w["h"] == "g" and w["relation"] == 0 for w in wit)


def test_overlap_zero_kappa(problem):
    prob = problem("ha1")
    D3 = koszul_component(prob.algebra, 3)
    s = {}
    for idx, c in D3.rows[0].items():
        s[(idx // 16, (idx // 4) % 4, idx % 4)] = c
    dl, dc = overlap_maps(prob.hopf, prob.algebra, Kappa.zero(prob.hopf, prob.algebra), s)
    assert dl == {} and dc == {}


def test_overlap_not_in_d3(problem):
    prob = problem("ha1")
    kp = Kappa.zero(prob.hopf, prob.algebra)
    with pytest.raises(NotInD3):
        overlap_maps(prob.hopf, prob.algebra, kp, {(0, 0, 0): one(4)})


def test_expand_left_outside_i_tensor_v(problem):
    # ttt is not in I (x) V for the skew-commutation relations of ha1, while
    # r_0 (x) t = (tu - ut) (x) t expands with y_0 = t
    B = problem("ha1").algebra
    with pytest.raises(NotInD3):
        expand_left(B, {(0, 0, 0): one(4)})
    s = {(0, 1, 0): one(4), (1, 0, 0): -one(4)}
    ys = expand_left(B, s)
    assert ys[0] == {0: one(4)} and not any(ys[1:])


def test_overlap_central_constant_passes(problem):
    # kC(r_tu) = 1 is central: (b) trivially holds, (c) and (d) hold
    prob = problem("ha1")
    cv = [dict() for _ in range(6)]
    cv[0] = {0: one(4)}
    kp = Kappa.from_vectors(prob.hopf, prob.algebra, cv, [dict() for _ in range(6)])
    rep = check_overlap(prob.hopf, prob.algebra, kp)
    assert rep.conditions["b"].status == "pass"
    assert rep.conditions["c"].status == "pass"
    assert rep.conditions["d"].status == "pass"


def test_overlap_condition_c_failure(problem):
    # kC(r_vw) = xz - xyz is invariant but fails the overlap comparison
    prob = problem("ha1")
    cv = [dict() for _ in range(6)]
    cv[5] = {9: one(4), 13: -one(4)}
    kp = Kappa.from_vectors(prob.hopf, prob.algebra, cv, [dict() for _ in range(6)])
    assert check_invariance(prob.hopf, prob.algebra, kp).passed
    rep = check_overlap(prob.hopf, prob.algebra, kp)
    assert rep.conditions["b"].status == "pass"
    assert rep.conditions["c"].status == "fail"
    assert rep.conditions["d"].status == "pass"
    rep_all = check_pbw(prob.hopf, prob.algebra, kp)
    assert not rep_all.passed


def test_overlap_vacuous_when_no_overlap_space(problem):
    prob = problem("sweedler")
    kp = Kappa.zero(prob.hopf, prob.algebra)
    rep = check_overlap(prob.hopf, prob.algebra, kp)
    assert all(rep.conditions[k].status == "vacuous" for k in ("b", "c", "d"))


def test_check_pbw_known_members(problem):
    for name in ("sweedler", "taft-3", "h8", "ha1", "cbh-cyclic-3"):
        prob = problem(name, True)
        rep = check_pbw(prob.hopf, prob.algebra, prob.kappa)
        assert rep.passed, name


def test_solve_sweedler_family(problem):
    prob = problem("sweedler")
    fam = solve_kappa(prob.hopf, prob.algebra)
    assert fam.family_dim == 4 and not fam.residual_system
    H = prob.hopf
    cvecs = [kp.c_vec(0) for kp in fam.linear_basis if kp.c_vec(0)]
    lvecs = [kp.l_vec(0) for kp in fam.linear_basis if kp.l_vec(0)]
    assert cvecs == [{1: one()}, {3: one()}]                 # x, gx
    assert lvecs == [{(0, 1): one()}, {(0, 3): one()}]       # u(x)x, u(x)gx


def test_solve_h8_family(problem):
    prob = problem("h8")
    fam = solve_kappa(prob.hopf, prob.algebra)
    assert fam.family_dim == 5 and not fam.residual_system
    # the linear block of the invariant space is zero
    assert all(not row for kp in fam.ab_basis for row in kp.linear)
    names = [format_hvec(prob.hopf, kp.c_vec(0)) for kp in fam.linear_basis]
    assert names == ["1", "x + y", "xy", "z + xyz", "xz + yz"]


def test_solve_ha1_pipeline(problem):
    prob = problem("ha1")
    H, B = prob.hopf, prob.algebra
    assert koszul_component(B, 3).dim == 4
    fam = solve_kappa(H, B)
    # stage 1: blocks of dimension 10 (r_tu) and 2 (r_vw), zero elsewhere,
    # with no linear part anywhere
    blocks = kappa_block_dims(B, H, fam.ab_basis)
    assert blocks == [(10, 0), (0, 0), (0, 0), (0, 0), (0, 0), (2, 0)]
    assert len(fam.ab_basis) == 12
    # final family: two parameters, kC(r_tu) in span{1, x^2}, kC(r_vw) = 0
    assert fam.family_dim == 2 and not fam.residual_system
    final_blocks = kappa_block_dims(B, H, fam.linear_basis)
    assert final_blocks == [(2, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)]
    names = sorted(format_hvec(H, kp.c_vec(0)) for kp in fam.linear_basis)
    assert names == ["1", "x^2"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_solve_taft_family(problem, n):
    """The invariant family sits at top x-degree: for x g = zeta g x with
    g = diag(1, zeta) the adjoint weight on g^i x^j is zeta^-j while the
    relation has weight zeta, so j = n-1, and x-invariance is then free
    because x^(n-1) absorbs any further x into x^n = 0."""
    prob = problem(f"taft-{n}")
    H, B = prob.hopf, prob.algebra
    fam = solve_kappa(H, B)
    assert fam.family_dim == 2 * n and not fam.residual_system
    top = [i * n + (n - 1) for i in range(n)]       # g^i x^(n-1)
    for kp in fam.linear_basis:
        assert set(kp.c_vec(0)) <= set(top)
        assert {k[1] for k in kp.l_vec(0)} <= set(top)
        assert {k[0] for k in kp.l_vec(0)} <= {0}    # only u-leg


@pytest.mark.parametrize("n", [2, 3, 4])
def test_solve_cbh_center(problem, n):
    prob = problem(f"cbh-cyclic-{n}")
    H, B = prob.hopf, prob.algebra
    fam = solve_kappa(H, B, force_linear_zero=True)
    assert fam.family_dim == n
    # every member commutes with the whole group algebra
    from hopfpbw.hopf import h_mul, vec_eq
    for kp in fam.linear_basis:
        lam = kp.c_vec(0)
        for g in range(H.dim):
            assert vec_eq(h_mul(H, lam, H.basis_vec(g)), h_mul(H, H.basis_vec(g), lam))
        assert all(not row for row in kp.linear)


def test_family_members_pass_check(problem):
    rng = random.Random(23)
    for name in ("sweedler", "h8", "ha1", "taft-3"):
        prob = problem(name)
        H, B = prob.hopf, prob.algebra
        fam = solve_kappa(H, B)
        assert not fam.residual_system
        for _ in range(3):
            member = Kappa.zero(H, B)
            for kp in fam.linear_basis:
                c = Scalar.from_int(H.order, rng.randint(-3, 3))
                member = member.add(kp.scale(c))
            assert check_pbw(H, B, member).passed, name


def test_scaling_invariance(problem):
    prob = problem("h8")
    H, B = prob.hopf, prob.algebra
    fam = solve_kappa(H, B)
    kp = fam.linear_basis[3]
    lam = Scalar.from_rational(1, 7, 3)
    assert check_pbw(H, B, kp.scale(lam)).passed


def test_overlap_vacuous_iff_no_overlap_space(problem):
    for name, has in (("sweedler", False), ("h8", False), ("ha1", True)):
        prob = problem(name)
        rep = check_overlap(prob.hopf, prob.algebra,
                            Kappa.zero(prob.hopf, prob.algebra))
        vac = rep.conditions["b"].status == "vacuous"
        assert vac == (not has)
        assert (koszul_component(prob.algebra, 3).dim > 0) == has


# -- residual-system path: the trivial Hopf algebra on k[u,v,w] ---------------
# Deformations of the polynomial ring by a bracket kappa^L and central term
# kappa^C: condition (c) expands to the Jacobi identity, a genuinely
# quadratic residual, so the solver must return the symbolic system.

def _poly3_problem():
    from hopfpbw.presets import preset_hopf
    from hopfpbw.modalg import ModuleAlgebra
    H = preset_hopf("cyclic-1")
    o, z = Scalar.one(1), Scalar.zero(1)
    rels = [{(0, 1): o, (1, 0): -o},
            {(0, 2): o, (2, 0): -o},
            {(1, 2): o, (2, 1): -o}]
    action = [[[o if r == c else z for c in range(3)] for r in range(3)]]
    return H, ModuleAlgebra.make(1, ["u", "v", "w"], rels, action)


def test_quadratic_residual_reported():
    H, B = _poly3_problem()
    fam = solve_kappa(H, B)
    assert fam.family_dim is None
    assert len(fam.ab_basis) == 12          # 3 central + 9 bracket coefficients
    assert fam.residual_system
    labels = {rp.label[:3] for rp in fam.residual_system}
    assert "(c)" in labels and "(d)" in labels
    # all residual constraints are homogeneous quadratic in the coordinates
    for rp in fam.residual_system:
        assert rp.quad and not rp.lin
        assert rp.render().endswith("= 0")


def test_lie_brackets_through_checker_and_oracle():
    from hopfpbw.oracle import filtered_dims, pbw_probe
    H, B = _poly3_problem()
    o = Scalar.one(1)
    two = Scalar.from_int(1, 2)
    # Heisenberg: [u,v] = w
    heis = Kappa.from_vectors(H, B, [dict()] * 3, [{(2, 0): o}, dict(), dict()])
    # sl2 with u=e, v=f, w=h: [e,f] = h, [e,h] = -2e, [f,h] = 2f
    sl2 = Kappa.from_vectors(H, B, [dict()] * 3,
                             [{(2, 0): o}, {(0, 0): -two}, {(1, 0): two}])
    for kp in (heis, sl2):
        assert check_pbw(H, B, kp).passed
        rep = filtered_dims(H, B, kp, 3, 2)
        assert rep.verdict == "CONSISTENT"
        assert rep.expected_dims == [1, 4, 10, 20]
    # a bracket violating the Jacobi identity fails (c) and is falsified
    bad = Kappa.from_vectors(H, B, [dict()] * 3,
                             [{(2, 0): o}, {(0, 0): o}, {(0, 0): o}])
    rep = check_pbw(H, B, bad)
    assert rep.conditions["c"].status == "fail"
    assert pbw_probe(H, B, bad, 3, 2).verdict == "FALSIFIED"


def _square_zero_problem():
    # I = span{u (x) u} in two variables, under the trivial Hopf algebra
    from hopfpbw.presets import preset_hopf
    from hopfpbw.modalg import ModuleAlgebra
    H = preset_hopf("cyclic-1")
    o, z = Scalar.one(1), Scalar.zero(1)
    return H, ModuleAlgebra.make(1, ["u", "v"], [{(0, 0): o}],
                                 [[[o if r == c else z for c in range(2)] for r in range(2)]])


def test_blocked_conditions_and_small_v_flag():
    # the overlap space of u (x) u is nonzero even though dim V = 2; a
    # linear part sending it off the relation line violates (b), which
    # blocks (c) and (d)
    H, B = _square_zero_problem()
    o = Scalar.one(1)
    assert koszul_component(B, 3).dim == 1
    kp = Kappa.from_vectors(H, B, [dict()], [{(1, 0): o}])
    rep = check_pbw(H, B, kp)
    assert rep.conditions["b"].status == "fail"
    assert rep.conditions["c"].status == "blocked"
    assert rep.conditions["d"].status == "blocked"
    assert not rep.passed
    assert any("dim V < 3" in n for n in rep.notes)
    # the linear part along the relation itself is fine
    ok = Kappa.from_vectors(H, B, [dict()], [{(0, 0): o}])
    assert check_pbw(H, B, ok).passed


def test_scaling_preserves_linear_conditions(problem):
    # a member with nonzero linear part stays admissible under scaling
    prob = problem("sweedler", True)
    lam = Scalar.from_rational(1, -5, 2)
    assert check_pbw(prob.hopf, prob.algebra, prob.kappa.scale(lam)).passed


def test_overlap_maps_match_smash_commutator(problem):
    # dual route: the constant overlap mismatch on the first alternating
    # degree-3 element must equal kC(r_tu) v - v kC(r_tu) computed directly
    # in the smash product, with the oracle's row operators
    from hopfpbw import oracle
    from hopfpbw.hopf import add_into
    from test_smash import scalar_ring
    prob = problem("ha1")
    H, B = prob.hopf, prob.algebra
    one = Scalar.one(4)
    t, u, v, w = 0, 1, 2, 3
    s_tuv = {(t, u, v): one, (t, v, u): -one, (u, t, v): -one,
             (u, v, t): one, (v, t, u): one, (v, u, t): -one}
    R = scalar_ring(H, B)
    amb = oracle._Ambient(B.vdim, H.dim, 1)
    for hidx in (0, 2, 9, 13):          # 1, x^2, xz, xyz
        cv = [dict() for _ in range(6)]
        cv[0] = {hidx: one}
        kp = Kappa.from_vectors(H, B, cv, [dict() for _ in range(6)])
        dl, dc = overlap_maps(H, B, kp, s_tuv)
        assert dl == {}
        row = {amb.col(0, 0, hidx): one}.items()
        comm = oracle._right_v(R, amb, row, v)
        for col, c in oracle._left_v(R, amb, row, v).items():
            add_into(comm, col, -c)
        assert {divmod(col - amb.base[1], H.dim): c for col, c in comm.items()} == dc


# -- the overlap checker before one matrix held (a) and (b) -------------------
# check_overlap as it was when it expanded the mismatch once per kappa, kept
# verbatim with the helpers it called as the reference for (b)-(d); the
# statuses are plain tuples here instead of ConditionStatus

def _reference_expand(B, s, left):
    slices: dict = {}
    for (w1, w2, w3), c in s.items():
        if left:
            slices.setdefault(w3, {})[(w1, w2)] = c
        else:
            slices.setdefault(w1, {})[(w2, w3)] = c
    out = [{} for _ in range(B.dim_relations())]
    for w in sorted(slices):
        coords, rem = reduce_mod_relations(B, slices[w])
        if rem:
            raise NotInD3("tensor does not lie in the required side: vector is not in the subspace")
        for a, c in coords.items():
            out[a][w] = c
    return out


def reference_overlap_expansions(B):
    vd = B.vdim
    D3 = koszul_component(B, 3)
    notes = []
    if D3.dim and vd < 3:
        notes.append("overlap space is nonzero although dim V < 3; "
                     "overlap conditions are applied regardless")
    expansions = []
    for row in D3.rows:
        s = {(c // (vd * vd), (c // vd) % vd, c % vd): x for c, x in row.items()}
        expansions.append((_reference_expand(B, s, True), _reference_expand(B, s, False)))
    return expansions, notes


def reference_overlap_from_expansions(H, B, kappa, ys, zs):
    deltaL: dict = {}
    deltaC: dict = {}
    for a in range(B.dim_relations()):
        y, z = ys[a], zs[a]
        kc = kappa.c_vec(a)
        kl = kappa.l_vec(a)
        if y:
            t = {(vi,): c for vi, c in y.items()}
            if kc:
                for (word, h2), c in straighten(H, B, kc, t).items():
                    add_into(deltaC, (word[0], h2), c)
            for (v, h), cl in kl.items():
                for (word, h2), c in straighten(H, B, {h: Scalar.one(H.order)}, t).items():
                    add_into(deltaL, (v, word[0], h2), cl * c)
        if z:
            for zv, cz in z.items():
                for i, c in kc.items():
                    add_into(deltaC, (zv, i), -(cz * c))
                for (v, h), cl in kl.items():
                    add_into(deltaL, (zv, v, h), -(cz * cl))
    return deltaL, deltaC


def reference_deltaL_rel_coords(B, deltaL):
    by_h: dict = {}
    for (v1, v2, h), c in deltaL.items():
        by_h.setdefault(h, {})[(v1, v2)] = c
    out: dict = {}
    for h, t in by_h.items():
        coords, rem = reduce_mod_relations(B, t)
        if rem:
            return None
        out.update(((a, h), c) for a, c in coords.items())
    return out


def _reference_apply_kl_ext(H, B, kappa, coords):
    out: dict = {}
    for (a, h), c in coords.items():
        for (v, h1), cl in kappa.l_vec(a).items():
            for h2, cm in H.mult[h1][h].items():
                add_into(out, (v, h2), c * cl * cm)
    return out


def _reference_apply_kc_ext(H, kappa, coords):
    out: dict = {}
    for (a, h), c in coords.items():
        for h1, cc in kappa.c_vec(a).items():
            for h2, cm in H.mult[h1][h].items():
                add_into(out, h2, c * cc * cm)
    return out


def reference_check_overlap(H, B, kappa):
    """(b), (c), (d) as {name: (status, witnesses)}, and the notes."""
    expansions, notes = reference_overlap_expansions(B)
    if not expansions:
        return {k: ("vacuous", []) for k in ("b", "c", "d")}, []
    stb, stc, std = ("pass", []), ("pass", []), ("pass", [])
    for t_idx, (ys, zs) in enumerate(expansions):
        deltaL, deltaC = reference_overlap_from_expansions(H, B, kappa, ys, zs)
        coords = reference_deltaL_rel_coords(B, deltaL)
        if coords is None:
            stb = ("fail", stb[1] + [{"overlap_index": t_idx,
                                      "value": "image of kL (x) id - id (x) kL not inside I"}])
            continue
        lhs_c = _reference_apply_kl_ext(H, B, kappa, coords)
        for k, c in deltaC.items():
            add_into(lhs_c, k, c)
        if lhs_c:
            stc = ("fail", stc[1] + [{"overlap_index": t_idx,
                                      "value": _fmt_tensor(lhs_c, B.vlabels, H.labels)}])
        neg = {k: -c for k, c in coords.items()}
        lhs_d = _reference_apply_kc_ext(H, kappa, neg)
        if lhs_d:
            std = ("fail", std[1] + [{"overlap_index": t_idx, "value": format_hvec(H, lhs_d)}])
    if stb[0] == "fail":
        stc = std = ("blocked", [{"reason": "condition (b) failed"}])
    return {"b": stb, "c": stc, "d": std}, notes


def _random_cells(H, B, rng, count):
    """A kappa with `count` random cells, each in kappa^C or kappa^L."""
    p = B.dim_relations()
    cv, lv = [dict() for _ in range(p)], [dict() for _ in range(p)]
    for _ in range(count):
        a = rng.randrange(p)
        c = Scalar.from_int(H.order, rng.choice([-3, -2, -1, 1, 2, 3]))
        if rng.random() < 0.5:
            cv[a][rng.randrange(H.dim)] = c
        else:
            lv[a][(rng.randrange(B.vdim), rng.randrange(H.dim))] = c
    return Kappa.from_vectors(H, B, cv, lv)


def _overlap_corpus(problem):
    """[(H, B, kappas)] for every algebra here with a nonzero overlap space:
    ha1, the only such preset, then the two local algebras.  ha1's first
    three kappas are a family member, that member plus one kappa^L cell,
    and the overlap-only kappa kC(r_5) = e_9 - e_13."""
    rng = random.Random(17021)
    prob = problem("ha1")
    H, B = prob.hopf, prob.algebra
    p = B.dim_relations()
    member = Kappa.zero(H, B)
    for kp in solve_kappa(H, B).linear_basis:
        member = member.add(kp.scale(Scalar.from_int(H.order, rng.choice([-3, -2, 2, 3]))))
    cell = [dict() for _ in range(p)]
    cell[rng.randrange(p)] = {(rng.randrange(B.vdim), rng.randrange(H.dim)): one(4)}
    overlap_only = [dict() for _ in range(p)]
    overlap_only[5] = {9: one(4), 13: -one(4)}
    ha1 = [member,
           member.add(Kappa.from_vectors(H, B, [dict() for _ in range(p)], cell)),
           Kappa.from_vectors(H, B, overlap_only, [dict() for _ in range(p)])]
    ha1 += [_random_cells(H, B, rng, 4) for _ in range(6)]
    Hp, Bp = _poly3_problem()
    poly3 = [Kappa.zero(Hp, Bp)] + [_random_cells(Hp, Bp, rng, k) for k in (1, 2, 3, 4, 6)]
    Hs, Bs = _square_zero_problem()
    o = Scalar.one(1)
    square = [Kappa.from_vectors(Hs, Bs, [cv], [lv])
              for cv, lv in (({}, {(0, 0): o}), ({}, {(1, 0): o}), ({0: o}, {(0, 0): o}),
                             ({0: -o}, {(0, 0): o + o, (1, 0): o}))]
    return [(H, B, ha1), (Hp, Bp, poly3), (Hs, Bs, square)]


def test_check_overlap_matches_the_reference(problem):
    seen = set()
    for H, B, kappas in _overlap_corpus(problem):
        assert koszul_component(B, 3).dim > 0
        for kp in kappas:
            rep = check_overlap(H, B, kp)
            want, notes = reference_check_overlap(H, B, kp)
            got = {k: (st.status, st.witnesses) for k, st in rep.conditions.items()}
            assert (got, rep.notes) == (want, notes)
            seen.update((k, st[0]) for k, st in want.items())
    # the corpus passes and fails each of (b), (c) and (d) somewhere
    assert {(k, s) for k in "bcd" for s in ("pass", "fail")} <= seen


def test_overlap_corpus_fails_b_on_the_member_plus_a_linear_cell(problem):
    H, B, kappas = _overlap_corpus(problem)[0]
    statuses = [reference_check_overlap(H, B, kp)[0] for kp in kappas[:3]]
    assert [st["b"][0] for st in statuses] == ["pass", "fail", "pass"]
    assert [st["c"][0] for st in statuses] == ["pass", "blocked", "fail"]


# -- the solver against the references ----------------------------------------
# One matrix codes (a) and (b) for both the checker and the solver, so the
# solver's kernel is checked against a matrix built from the references.

def _reference_ab_columns(H, B, gens):
    """The (a)+(b) matrix from the references, one column per unit kappa in
    the solver's order of coordinates: the kappa^C cells (a, h), then the
    kappa^L cells (a, (v, h)).  Its (a) rows are lhs - rhs under e_i for i
    in ``gens``; its (b) rows are the remainder of deltaL modulo I (x) H."""
    d, vd, p = H.dim, B.vdim, B.dim_relations()
    units = [(a, h) for a in range(p) for h in range(d)]
    units += [(a, (v, h)) for a in range(p) for v in range(vd) for h in range(d)]
    expansions, _notes = reference_overlap_expansions(B)
    adjs = {i: ReferenceAdjointVH(H, B, H.basis_vec(i)) for i in gens}
    columns = []
    for a, k in units:
        cv, lv = [dict() for _ in range(p)], [dict() for _ in range(p)]
        (cv if type(k) is int else lv)[a][k] = Scalar.one(H.order)
        kp = Kappa.from_vectors(H, B, cv, lv)
        col: dict = {}
        for i in gens:
            for b in range(p):
                lhs_c, lhs_l, rhs_c, rhs_l = reference_invariance_sides(H, B, kp, i, b, adjs[i])
                for key, c in {**lhs_c, **lhs_l}.items():
                    add_into(col, ("a", i, b, key), c)
                for key, c in {**rhs_c, **rhs_l}.items():
                    add_into(col, ("a", i, b, key), -c)
        for t, (ys, zs) in enumerate(expansions):
            deltaL, _deltaC = reference_overlap_from_expansions(H, B, kp, ys, zs)
            by_h: dict = {}
            for (v1, v2, h), c in deltaL.items():
                by_h.setdefault(h, {})[(v1, v2)] = c
            for h, tensor in by_h.items():
                for w, c in reduce_mod_relations(B, tensor)[1].items():
                    col[("b", t, h, w)] = c
        columns.append(col)
    return units, columns


def _blocks(columns):
    """The columns split into blocks that share no row: the matrix is block
    diagonal on them, so its kernel is the sum of the blocks' kernels."""
    owner = list(range(len(columns)))

    def find(j):
        while owner[j] != j:
            j = owner[j]
        return j

    first: dict = {}
    for j, col in enumerate(columns):
        for key in col:
            owner[find(j)] = find(first.setdefault(key, j))
    blocks: dict = {}
    for j in range(len(columns)):
        blocks.setdefault(find(j), []).append(j)
    return list(blocks.values())


@pytest.mark.parametrize("name", ["sweedler", "taft-3", "h8", "cbh-cyclic-3", "ha1",
                                  "poly3", "square-zero"])
def test_solver_kernel_matches_the_reference_matrix(problem, name):
    # (b) cuts nothing out of (a)'s kernel on the presets, so the two local
    # algebras, with H trivial, carry the check of (b)'s rows
    local = {"poly3": _poly3_problem, "square-zero": _square_zero_problem}
    if name in local:
        H, B = local[name]()
    else:
        H, B = problem(name).hopf, problem(name).algebra
    # (a) under every basis element, except on ha1, where the generators
    # suffice (see hopf) and keep the matrix small
    gens = algebra_generators(H) if name == "ha1" else range(H.dim)
    units, columns = _reference_ab_columns(H, B, gens)
    n, zero = len(units), Scalar.zero(H.order)
    want = []
    for block in _blocks(columns):
        keys = {key for j in block for key in columns[j]}
        rows = [[columns[j].get(key, zero) for j in block] for key in keys]
        for vec in reference_kernel(rows, len(block), H.order):
            full = [zero] * n
            for j, c in zip(block, vec):
                full[j] = c
            want.append(full)
    got = [[(kp.constant if type(k) is int else kp.linear)[a].get(k, zero) for a, k in units]
           for kp in solve_kappa(H, B).ab_basis]
    assert len(got) == len(want)
    assert reference_rref(got, n)[0] == reference_rref(want, n)[0]


# -- the presolve against the whole system ----------------------------------------
# Stage 1 builds its rows one generator at a time and drops each unknown that
# a one-entry row forces to zero before it builds the next block.  The
# reference is stage 1 without that: the rows of every generator, in the
# order of algebra_generators(H), for every unknown, stacked with the (b)
# rows and reduced in one sparse_kernel.

def reference_ab_kernel(cols, unknowns):
    H, B = cols.H, cols.B
    n, vd = len(unknowns), B.vdim
    words = {(v1, v2, (v1, v2)): cols.one for v1 in range(vd) for v2 in range(vd)}
    rem_map = {}
    for (w, out), c in modalg.reduce_slices(B, words, 2)[1].items():
        rem_map.setdefault(w, []).append((out, c))
    rows = {}
    for j, u in enumerate(unknowns):
        for i in algebra_generators(H):
            for (b, half, k), c in cols.invariance(i, u).items():
                add_into(rows.setdefault(("a", i, b, k), {}), j, -c if half else c)
        if type(u[1]) is tuple:
            for (t, (v1, v2, h)), c in cols.overlap(u).items():
                for w, r in rem_map.get((v1, v2), ()):
                    add_into(rows.setdefault(("b", t, h, w), {}), j, c * r)
    kernel = sparse_kernel([r for r in rows.values() if r], n, H.order)
    return Subspace.from_sparse(n, kernel, H.order).rows


PRESOLVE_CASES = ["sweedler", "taft-3", "taft-4", "taft-5", "taft-7", "taft-9", "h8", "ha1",
                  "cbh-cyclic-2", "cbh-cyclic-3", "cbh-cyclic-4",
                  "taft-3-rebased", "ha1-rebased", "poly3", "square-zero"]


@pytest.mark.parametrize("force_linear_zero", [False, True])
@pytest.mark.parametrize("greedy", [False, True])
@pytest.mark.parametrize("name", PRESOLVE_CASES)
def test_presolve_matches_the_whole_system(problem, monkeypatch, name, greedy, force_linear_zero):
    # the rebased problems write H in the basis f_a = e_a + e_b of
    # tests/test_oracle.py, where the rows of the group-likes are not all
    # singletons; the two local algebras are the ones where (b) cuts
    from test_oracle import _rebased
    local = {"poly3": _poly3_problem, "square-zero": _square_zero_problem}
    rebased = {"taft-3-rebased": ("taft-3", 3, 1), "ha1-rebased": ("ha1", 1, 8)}
    if name in local:
        H, B = local[name]()
    elif name in rebased:
        base, a, b = rebased[name]
        prob = problem(base)
        H, B, _move = _rebased(prob, a, b, prob.hopf.one_scalar())
        H = dataclasses.replace(H, generators=prob.hopf.generators)
    else:
        H, B = problem(name).hopf, problem(name).algebra
    if greedy:
        H = dataclasses.replace(H, generators=None)
    got = solve_kappa(H, B, force_linear_zero)
    monkeypatch.setattr(deform, "_ab_kernel", reference_ab_kernel)
    want = solve_kappa(H, B, force_linear_zero)
    assert got.ab_basis == want.ab_basis
    assert got.linear_basis == want.linear_basis
    assert got.family_dim == want.family_dim
    assert ([rp.render() for rp in got.residual_system]
            == [rp.render() for rp in want.residual_system])


def test_overlap_space_is_derived_once_per_algebra(monkeypatch):
    # the solver and every check read B's overlap expansions; the parent
    # built the degree-3 overlap space on each of these four calls
    prob = build_problem("ha1", with_kappa=True)
    H, B = prob.hopf, prob.algebra
    degrees = []
    real = modalg.koszul_component

    def counted(B, i):
        degrees.append(i)
        return real(B, i)

    monkeypatch.setattr(modalg, "koszul_component", counted)
    assert solve_kappa(H, B).family_dim == 2
    one = Scalar.one(H.order)
    cv = [dict() for _ in range(B.dim_relations())]
    cv[5] = {9: one, 13: -one}              # passes (a), fails only (c)
    overlap_only = Kappa.from_vectors(H, B, cv, [dict() for _ in cv])
    assert check_pbw(H, B, prob.kappa).passed
    assert check_pbw(H, B, overlap_only).status("c") == "fail"
    assert check_pbw(H, B, Kappa.zero(H, B)).passed
    assert degrees == [3]


def test_nothing_a_check_or_a_solve_builds_outlives_the_call(problem, monkeypatch):
    # The columns' tables are derived on first read; no make function holds
    # the columns, so with the collector off every `_Columns` dies by
    # reference counting when the call returns.  ha1 builds one for (a) and
    # one for the overlap conditions in `check_pbw`, and one in
    # `solve_kappa`; taft-5 has no overlap space.
    import gc
    import weakref
    built = []

    class Columns(deform._Columns):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(deform, "_Columns", Columns)
    for name, count in (("ha1", 3), ("taft-5", 2)):
        prob = problem(name, True)
        H, B = prob.hopf, prob.algebra
        built.clear()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            assert check_pbw(H, B, prob.kappa).passed, name
            assert solve_kappa(H, B).family_dim is not None, name
            assert len(built) == count, name
            assert all(ref() is None for ref in built), name
        finally:
            if was_enabled:
                gc.enable()
