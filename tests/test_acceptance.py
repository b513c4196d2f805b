"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Criterion 4 transcribes the published two-parameter Taft family
verbatim and asserts what the program documents about it: it is a PBW
deformation for n = 2, and for n >= 3 it is not invariant under the
module-algebra-consistent Taft action on k[u,v], so the checker rejects it
with a `g` witness and the oracle falsifies it.  The invariant family that
takes its place is verified in `test_criterion4_taft_family_as_computed`.
"""

import json
import random
import time
from math import comb

import pytest

from hopfpbw.scalar import Scalar, zeta
from hopfpbw.exactla import Matrix, Subspace, rref, kernel, intersect, subspace_sum
from hopfpbw.hopf import validate_hopf, format_hvec, h_mul, vec_eq, nth_root_of_unity
from hopfpbw.modalg import (ModuleAlgebra, validate_action, koszul_component,
                            action_from_generators as _action_from_generators)
from hopfpbw.deform import Kappa, check_pbw, solve_kappa, kappa_block_dims
from hopfpbw.oracle import filtered_dims, pbw_probe
from hopfpbw.presets import build_problem, preset_hopf, _commutator
from hopfpbw.cli import main, emit_preset

PRESET_LIST = ["sweedler", "taft-3", "h8", "ha1", "cbh-cyclic-3"]


def _family_strings(fam, H, B):
    out = []
    for kp in fam.linear_basis:
        for a in range(B.dim_relations()):
            cv = kp.c_vec(a)
            if cv:
                out.append(("C", a, format_hvec(H, cv)))
            lv = kp.l_vec(a)
            if lv:
                out.append(("L", a, tuple(sorted(lv))))
    return out


def test_criterion1_sweedler_family(problem):
    t0 = time.monotonic()
    prob = problem("sweedler")
    H, B = prob.hopf, prob.algebra
    fam = solve_kappa(H, B)
    elapsed = time.monotonic() - t0
    assert fam.family_dim == 4
    cvecs = [kp.c_vec(0) for kp in fam.linear_basis if kp.c_vec(0)]
    lvecs = [kp.l_vec(0) for kp in fam.linear_basis if kp.l_vec(0)]
    one = Scalar.one(1)
    assert cvecs == [{1: one}, {3: one}]                 # x, gx
    assert lvecs == [{(0, 1): one}, {(0, 3): one}]       # u(x)x, u(x)gx
    assert elapsed < 1.0
    print(f"criterion 1: PASS - sweedler family_dim=4, basis {{x, gx}} + u(x){{x, gx}}, "
          f"{elapsed:.2f}s")


def test_criterion2_h8_family(problem):
    t0 = time.monotonic()
    prob = problem("h8")
    H, B = prob.hopf, prob.algebra
    fam = solve_kappa(H, B)
    elapsed = time.monotonic() - t0
    # linear block of the invariant space is zero
    assert all(not row for kp in fam.ab_basis for row in kp.linear)
    assert fam.family_dim == 5
    names = [format_hvec(H, kp.c_vec(0)) for kp in fam.linear_basis]
    assert names == ["1", "x + y", "xy", "z + xyz", "xz + yz"]
    assert elapsed < 5.0
    print(f"criterion 2: PASS - h8 kappa^L = 0, family_dim=5, basis {names}, {elapsed:.2f}s")


def test_criterion3_ha1_pipeline(problem):
    t0 = time.monotonic()
    prob = problem("ha1")
    H, B = prob.hopf, prob.algebra
    assert koszul_component(B, 3).dim == 4
    fam = solve_kappa(H, B)
    elapsed = time.monotonic() - t0
    blocks = kappa_block_dims(B, H, fam.ab_basis)
    assert blocks == [(10, 0), (0, 0), (0, 0), (0, 0), (0, 0), (2, 0)]
    assert fam.family_dim == 2
    final = kappa_block_dims(B, H, fam.linear_basis)
    assert final == [(2, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)]
    names = sorted(format_hvec(H, kp.c_vec(0)) for kp in fam.linear_basis)
    assert names == ["1", "x^2"]
    assert elapsed < 60.0
    print(f"criterion 3: PASS - ha1 dim D'_3=4, blocks 10/2/0 with kappa^L=0, "
          f"final family span{{1, x^2}} on r_tu, {elapsed:.2f}s")


def _stated_taft_kappa(H, B, n):
    """The published kappa^C(r) = g^(n-1)x, kappa^L(r) = u(x)g^(n-1)x."""
    gx = (n - 1) * n + 1                              # g^i x^j sits at i*n + j
    one = Scalar.one(H.order)
    return Kappa.from_vectors(H, B, [{gx: one}], [{(0, gx): one}])


def test_criterion4_taft_families_as_stated(problem):
    """The criterion transcribes the published two-parameter family
    (kappa^C = g^(n-1)x, kappa^L = u(x)g^(n-1)x).

    The Taft relations x g = zeta g x with x.u = 0, x.v = u force
    g.u = u (stability of uv - vu) and g.v = zeta v (the module axiom
    x.(g.v) = zeta g.(x.v)), so g.r = zeta r.  The adjoint weight of g on
    g^i x^j is zeta^(-j), so invariance needs j = -1 mod n: g^(n-1)x
    (j = 1) is invariant only for n = 2.  Hence for n = 2 the family
    passes; for n >= 3 the checker fails (a) at h = g, the oracle
    falsifies it, the solved family does not contain it, and the one
    orientation g = diag(1, zeta^-1) that would make it invariant breaks
    the module axiom."""
    prob = problem("taft-2")
    H, B = prob.hopf, prob.algebra
    kp = _stated_taft_kappa(H, B, 2)
    assert check_pbw(H, B, kp).passed
    assert filtered_dims(H, B, kp, 2, 0).verdict == "CONSISTENT"

    lines = []
    for n in (3, 4, 5):
        t0 = time.monotonic()
        prob = problem(f"taft-{n}")
        H, B = prob.hopf, prob.algebra
        fam = solve_kappa(H, B)
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        one, zero = Scalar.one(H.order), Scalar.zero(H.order)
        zz = nth_root_of_unity(H.order, n)
        gx = (n - 1) * n + 1                          # g^(n-1) x
        kp = _stated_taft_kappa(H, B, n)

        # checker: (a) fails at h = g, ad_g giving zeta^-1 against g.r = zeta r
        rep = check_pbw(H, B, kp)
        assert rep.status("a") == "fail"
        wit = rep.conditions["a"].witnesses[0]
        assert (wit["h"], wit["relation"]) == ("g", 0)
        lhs, rhs = format_hvec(H, {gx: zz.inverse()}), format_hvec(H, {gx: zz})
        assert wit["lhs"].startswith(lhs + " ;") and wit["rhs"].startswith(rhs + " ;")

        # oracle: a strict deficit at (N, k) = (2, 0), while a member of the
        # computed family reads CONSISTENT under the same call
        fd = filtered_dims(H, B, kp, 2, 0)
        assert fd.verdict == "FALSIFIED"
        assert filtered_dims(H, B, fam.linear_basis[0], 2, 0).verdict == "CONSISTENT"

        # the orientation that makes the family invariant is no module algebra
        flipped = _action_from_generators(
            H, 2, {n: [[one, zero], [zero, zz.inverse()]], 1: [[zero, one], [zero, zero]]})
        B_flip = ModuleAlgebra.make(H.order, ["u", "v"], [_commutator(0, 1, H.order)], flipped)
        arep = validate_action(H, B_flip)
        assert not arep.passed and "action_multiplicative" in arep.axioms_failed()
        assert check_pbw(H, B_flip, _stated_taft_kappa(H, B_flip, n)).passed

        got_c = set()
        for member in fam.linear_basis:
            got_c |= set(member.c_vec(0))
        assert gx not in got_c

        lines.append(f"n={n}: (a) fails at h=g ({lhs} vs {rhs}), "
                     f"oracle(2,0) {fd.computed_dims} < {fd.expected_dims}")
    print("criterion 4: PASS - stated Taft family checks for n=2 and is rejected for "
          "n=3,4,5; " + "; ".join(lines))


def test_criterion4_taft_family_as_computed(problem):
    """Corrected expectation: the invariant family of a consistent Taft
    action on k[u,v] is 2n-dimensional, spanned at x-degree n-1 on both
    the constant and u-linear sides; members pass the checker and the
    brute-force oracle agrees."""
    for n in (3, 4, 5):
        t0 = time.monotonic()
        prob = problem(f"taft-{n}")
        H, B = prob.hopf, prob.algebra
        fam = solve_kappa(H, B)
        assert fam.family_dim == 2 * n and not fam.residual_system
        top = {i * n + (n - 1) for i in range(n)}      # g^i x^(n-1)
        for kp in fam.linear_basis:
            assert set(kp.c_vec(0)) <= top
            lv = kp.l_vec(0)
            assert {k[1] for k in lv} <= top and {k[0] for k in lv} <= {0}
        member = fam.linear_basis[0].add(fam.linear_basis[n])
        assert check_pbw(H, B, member).passed
        assert time.monotonic() - t0 < 5.0
    print("criterion 4 (corrected): PASS - taft-n family_dim=2n at x-degree n-1, "
          "members check and verify")


def test_criterion5_cbh_center(problem):
    for n in (2, 3, 4):
        t0 = time.monotonic()
        prob = problem(f"cbh-cyclic-{n}")
        H, B = prob.hopf, prob.algebra
        fam = solve_kappa(H, B, force_linear_zero=True)
        elapsed = time.monotonic() - t0
        assert fam.family_dim == n
        for kp in fam.linear_basis:
            lam = kp.c_vec(0)
            for g in range(H.dim):
                assert vec_eq(h_mul(H, lam, H.basis_vec(g)),
                              h_mul(H, H.basis_vec(g), lam))
        assert elapsed < 1.0
    print("criterion 5: PASS - cbh-cyclic-n family_dim=n, members central, n=2,3,4")


def _invalid_catalog(problem, name, count=5):
    """Deterministic invalid deformation maps: single-coefficient kappas
    that fail some condition."""
    prob = problem(name)
    H, B = prob.hopf, prob.algebra
    p = B.dim_relations()
    out = []
    for idx in range(H.dim):
        cv = [dict() for _ in range(p)]
        cv[0] = {idx: Scalar.one(H.order)}
        kp = Kappa.from_vectors(H, B, cv, [dict() for _ in range(p)])
        if not check_pbw(H, B, kp).passed:
            out.append(kp)
        if len(out) == count:
            return prob, out
    for v in range(B.vdim):
        for idx in range(H.dim):
            lv = [dict() for _ in range(p)]
            lv[0] = {(v, idx): Scalar.one(H.order)}
            kp = Kappa.from_vectors(H, B, [dict() for _ in range(p)], lv)
            if not check_pbw(H, B, kp).passed:
                out.append(kp)
            if len(out) == count:
                return prob, out
    raise AssertionError(f"could not build {count} invalid kappas for {name}")


def test_criterion6_checker_oracle_consistency(problem):
    # (i) one known-family member per preset: check passes, oracle agrees
    expected_tables = {"sweedler": [4, 12, 24, 40], "taft-3": [9, 27, 54, 90]}
    for name in PRESET_LIST:
        prob = problem(name, True)
        H, B = prob.hopf, prob.algebra
        assert check_pbw(H, B, prob.kappa).passed, name
        rep = filtered_dims(H, B, prob.kappa, 3, 2)
        assert rep.verdict == "CONSISTENT", name
        assert rep.computed_dims == rep.expected_dims
        if name in expected_tables:
            assert rep.computed_dims == expected_tables[name], name

    # (ii) deliberately invalid kappas: checker fails and oracle falsifies
    for name in PRESET_LIST:
        prob, bads = _invalid_catalog(problem, name)
        assert len(bads) >= 5
        for kp in bads:
            pr = pbw_probe(prob.hopf, prob.algebra, kp, 3, 2)
            assert pr.verdict == "FALSIFIED", name
            assert pr.falsified_at <= 3

    # extra ha1 case: invariant kappa that fails only the overlap condition
    prob = problem("ha1")
    one = Scalar.one(4)
    cv = [dict() for _ in range(6)]
    cv[5] = {9: one, 13: -one}
    kp = Kappa.from_vectors(prob.hopf, prob.algebra, cv, [dict() for _ in range(6)])
    assert not check_pbw(prob.hopf, prob.algebra, kp).passed
    assert pbw_probe(prob.hopf, prob.algebra, kp, 3, 2).verdict == "FALSIFIED"

    # (iii) 100 randomized family samples: never falsified
    rng = random.Random(20240)
    sample_plan = [("sweedler", 25), ("taft-3", 20), ("taft-4", 10), ("h8", 15),
                   ("cbh-cyclic-2", 5), ("cbh-cyclic-3", 5), ("cbh-cyclic-4", 5),
                   ("ha1", 15)]
    assert sum(c for _n, c in sample_plan) == 100
    for name, count in sample_plan:
        prob = problem(name)
        H, B = prob.hopf, prob.algebra
        fam = solve_kappa(H, B)
        assert not fam.residual_system
        for _ in range(count):
            member = Kappa.zero(H, B)
            for kp in fam.linear_basis:
                member = member.add(kp.scale(Scalar.from_int(H.order, rng.randint(-3, 3))))
            assert check_pbw(H, B, member).passed, name
            rep = filtered_dims(H, B, member, 3, 1)
            assert rep.verdict == "CONSISTENT", name
    print("criterion 6: PASS - member tables match, >=5 invalid kappas per preset "
          "falsified at degree <= 3, 100 family samples never falsified")


AXIOM_NAMES = ("associativity", "unit", "coassociativity", "counit", "bialgebra",
               "antipode", "antipode_bijective", "action_unital",
               "action_multiplicative", "relations_stable")


def _mutation_sites(doc):
    sites = []
    for key in ("mult", "comult", "antipode"):
        for pos in range(len(doc["hopf"][key])):
            sites.append((key, pos))
    for pos in range(len(doc["hopf"]["counit"])):
        sites.append(("counit", pos))
    for pos in range(len(doc["hopf"]["unit"])):
        sites.append(("unit", pos))
    return sites


def _mutate(doc, site, order):
    from hopfpbw.scalar import parse_scalar, format_scalar
    key, pos = site
    doc = json.loads(json.dumps(doc))
    if key in ("mult", "comult", "antipode"):
        ent = doc["hopf"][key][pos]
        ent[-1] = format_scalar(parse_scalar(ent[-1], order) + Scalar.one(order))
    elif key == "counit":
        doc["hopf"]["counit"][pos] = format_scalar(
            parse_scalar(doc["hopf"]["counit"][pos], order) + Scalar.one(order))
    else:
        ent = doc["hopf"]["unit"][pos]
        ent[1] = format_scalar(parse_scalar(ent[1], order) + Scalar.one(order))
    return doc


def test_criterion7_axiom_suites(tmp_path, capsys, problem):
    # all presets pass both validators with zero failures
    for name in PRESET_LIST + ["taft-4", "taft-5", "cbh-cyclic-2", "cbh-cyclic-4"]:
        prob = problem(name)
        hrep = validate_hopf(prob.hopf)
        arep = validate_action(prob.hopf, prob.algebra)
        assert hrep.passed and not hrep.failures, name
        assert arep.passed and not arep.failures, name

    # 20 single-entry structure-constant mutations per preset; the corpus
    # carries every action matrix explicitly so a corrupted product table
    # cannot short-circuit matrix derivation before validation runs
    from hopfpbw.cli import problem_to_json
    for name in PRESET_LIST:
        prob = build_problem(name, with_kappa=True)
        prob.hopf.generators = None
        doc = problem_to_json(prob)
        order = doc["field"]["cyclotomic_order"]
        rng = random.Random(name)
        sites = _mutation_sites(doc)
        rng.shuffle(sites)
        for site in sites[:20]:
            mutated = _mutate(doc, site, order)
            mpath = tmp_path / "mutated.json"
            mpath.write_text(json.dumps(mutated))
            rc = main(["validate", str(mpath)])
            cap = capsys.readouterr()
            assert rc != 0, (name, site)
            text = cap.out + cap.err
            assert any(ax in text for ax in AXIOM_NAMES), (name, site, text)
    print("criterion 7: PASS - presets validate cleanly; 20 mutations per preset "
          "all rejected with an axiom name")


def _random_stable_problem(rng):
    """A cyclic group algebra acting diagonally on 2 or 3 generators with a
    weight-homogeneous (hence stable) random relation space."""
    n = rng.choice([1, 2, 3, 4])
    H = preset_hopf(f"cyclic-{n}") if n > 1 else preset_hopf("cyclic-1")
    order = H.order
    vdim = rng.choice([2, 3])
    weights = [rng.randrange(n) for _ in range(vdim)]
    one, zero = Scalar.one(order), Scalar.zero(order)
    z = zeta(order) if order > 1 else one
    diag = [[(z if order > 1 else one) if r == c else zero for c in range(vdim)]
            for r in range(vdim)]
    for r in range(vdim):
        w = weights[r]
        val = one
        for _ in range(w):
            val = val * z
        diag[r][r] = val
    if n == 1:
        action = [[[one if r == c else zero for c in range(vdim)] for r in range(vdim)]]
    else:
        action = _action_from_generators(H, vdim, {1: diag})
    buckets = {}
    for i in range(vdim):
        for j in range(vdim):
            buckets.setdefault((weights[i] + weights[j]) % n, []).append((i, j))
    rels = []
    for _ in range(rng.choice([1, 2])):
        pairs = buckets[rng.choice(sorted(buckets))]
        vec = {}
        for (i, j) in pairs:
            c = rng.randint(-2, 2)
            if c:
                vec[(i, j)] = Scalar.from_int(order, c)
        if vec:
            rels.append(vec)
    if not rels:
        rels = [{(0, 0): one}]
    B = ModuleAlgebra.make(order, [f"v{i}" for i in range(vdim)], rels, action)
    if B.dim_relations() == 0:
        B = ModuleAlgebra.make(order, [f"v{i}" for i in range(vdim)],
                               [{(0, 0): one}], action)
    return H, B


def test_criterion8_zero_kappa_identity(problem):
    for name in PRESET_LIST + ["taft-4", "cbh-cyclic-2"]:
        prob = problem(name)
        kp = Kappa.zero(prob.hopf, prob.algebra)
        assert check_pbw(prob.hopf, prob.algebra, kp).passed, name
        rep = filtered_dims(prob.hopf, prob.algebra, kp, 3, 1)
        assert rep.verdict == "CONSISTENT", name
    rng = random.Random(8128)
    for i in range(25):
        H, B = _random_stable_problem(rng)
        assert validate_hopf(H).passed
        assert validate_action(H, B).passed, i
        kp = Kappa.zero(H, B)
        assert check_pbw(H, B, kp).passed, i
        rep = filtered_dims(H, B, kp, 3, 1)
        assert rep.verdict == "CONSISTENT", i
    print("criterion 8: PASS - kappa = 0 passes checker and oracle on presets "
          "and 25 randomized stable algebras")


def test_criterion9_linear_algebra_properties():
    rng = random.Random(60902)
    orders = [1, 3, 4]
    done = 0
    for i in range(500):
        order = rng.choice(orders)
        if i % 10 == 0:
            r, c = rng.randint(8, 18), rng.randint(8, 30)
        else:
            r, c = rng.randint(1, 6), rng.randint(1, 8)
        rows = [[Scalar.from_int(order, rng.randint(-3, 3)) for _ in range(c)]
                for _ in range(r)]
        m = Matrix.from_rows(rows, cols=c)
        rank, red, piv = rref(m)
        rank2, red2, piv2 = rref(red)
        assert (rank, piv) == (rank2, piv2) and red == red2
        k = kernel(m)
        assert k.dim == c - rank
        for v in k.rows:
            assert all(x.is_zero() for x in m.mul_vec([v.get(j, Scalar.zero(order)) for j in range(c)]))
        if i % 5 == 0:
            namb = rng.randint(2, 8)
            va = [[Scalar.from_int(order, rng.randint(-2, 2)) for _ in range(namb)]
                  for _ in range(rng.randint(1, namb))]
            vb = [[Scalar.from_int(order, rng.randint(-2, 2)) for _ in range(namb)]
                  for _ in range(rng.randint(1, namb))]
            a = Subspace.from_vectors(namb, va)
            b = Subspace.from_vectors(namb, vb)
            assert intersect(a, b).dim + subspace_sum(a, b).dim == a.dim + b.dim
        done += 1
    assert done == 500
    print("criterion 9: PASS - 500 randomized exact linear-algebra instances")
