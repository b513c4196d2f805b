import itertools
import random
import re

import pytest

from hopfpbw.scalar import Scalar, zeta
from hopfpbw.hopf import (
    validate_hopf, adjoint_on_H, group_algebra, algebra_generators,
    add_into, h_mul, vec_eq, NotAGroup, format_hvec,
)
from hopfpbw.cli import render_problem
from hopfpbw.presets import PRESET_NAMES, UnknownPreset, build_problem, preset_hopf

PRESETS = ["sweedler", "taft-3", "taft-4", "taft-5", "h8", "ha1",
           "cyclic-1", "cyclic-2", "cyclic-3", "cyclic-4", "cyclic-5", "cyclic-16"]


@pytest.mark.parametrize("name", PRESETS)
def test_presets_validate(name):
    H = preset_hopf(name)
    rep = validate_hopf(H)
    assert rep.passed, rep.failures[:3]


def test_preset_dims():
    assert preset_hopf("sweedler").dim == 4
    assert preset_hopf("taft-3").dim == 9
    assert preset_hopf("taft-3").order == 3
    assert preset_hopf("h8").dim == 8
    assert preset_hopf("ha1").dim == 16
    assert preset_hopf("cyclic-5").dim == 5


def test_unknown_preset_and_field():
    with pytest.raises(UnknownPreset):
        preset_hopf("nope")
    with pytest.raises(UnknownPreset):
        preset_hopf("taft")


def test_h8_is_noncommutative_noncocommutative():
    H = preset_hopf("h8")
    noncomm = any(
        not vec_eq(H.mult[i][j], H.mult[j][i]) for i in range(8) for j in range(8))
    assert noncomm
    def flip(t):
        return {(b, a): c for (a, b), c in t.items()}
    noncocomm = any(
        not all((k in flip(H.comult[i]) and flip(H.comult[i])[k] == v)
                for k, v in H.comult[i].items())
        for i in range(8))
    assert noncocomm


def test_h8_z_squared():
    # z^2 = (1 + x + y - xy)/2 in the monomial basis [1,x,y,xy,z,...]
    H = preset_hopf("h8")
    half = Scalar.from_rational(1, 1, 2)
    z2 = H.mult[4][4]
    assert z2 == {0: half, 1: half, 2: half, 3: -half}


def test_ha1_antipode_of_z():
    # S(z) = (1 + x^2 + y - x^2 y) z / 2
    H = preset_hopf("ha1")
    half = Scalar.from_rational(4, 1, 2)
    assert H.antipode[8] == {8: half, 10: half, 12: half, 14: -half}


def test_ha1_relation_zx():
    # z x = x y z
    H = preset_hopf("ha1")
    assert H.mult[8][1] == {1 + 4 + 8: Scalar.one(4)}


def test_sweedler_antipode_corruption_detected():
    H = preset_hopf("sweedler")
    # S(x) = -gx lives at basis index 3; flip the sign
    H.antipode[1] = {3: Scalar.one(1)}
    rep = validate_hopf(H)
    assert not rep.passed
    failed = rep.axioms_failed()
    assert "antipode" in failed
    witnesses = [w for (ax, w, *_rest) in rep.failures if ax == "antipode"]
    assert (1,) in witnesses  # witness is x itself


def test_antipode_bijective_reads_the_true_rank():
    # the rank of S, not of [S | I] (always d), nor the count of S-block
    # columns with any nonzero entry
    H = preset_hopf("sweedler")
    H.antipode = [dict(H.antipode[0]) for _ in range(4)]
    assert ("antipode_bijective", ("S",), "rank 1", "rank 4") in validate_hopf(H).failures
    H = preset_hopf("sweedler")
    H.antipode[3] = {}
    assert ("antipode_bijective", ("S",), "rank 3", "rank 4") in validate_hopf(H).failures


def test_adjoint_examples():
    H = preset_hopf("sweedler")
    one = Scalar.one(1)
    # 1 . l = l
    for i in range(4):
        assert adjoint_on_H(H, H.unit, H.basis_vec(i)) == H.basis_vec(i)
    # grouplike conjugation: g . x = g x g^-1 = -x
    assert adjoint_on_H(H, {2: one}, {1: one}) == {1: -one}
    # x . g = -2 gx
    assert adjoint_on_H(H, {1: one}, {2: one}) == {3: Scalar.from_int(1, -2)}


def test_adjoint_module_axiom():
    H = preset_hopf("h8")
    rep = validate_hopf(H)
    assert rep.passed
    for a in (1, 4, 6):
        for b in (2, 4, 5):
            for l in (3, 5):
                lhs = adjoint_on_H(H, H.mult[a][b], H.basis_vec(l))
                rhs = adjoint_on_H(H, H.basis_vec(a),
                                   adjoint_on_H(H, H.basis_vec(b), H.basis_vec(l)))
                assert vec_eq(lhs, rhs)
    # a . 1 = eps(a) 1
    for a in range(8):
        assert vec_eq(adjoint_on_H(H, H.basis_vec(a), H.unit),
                      {k: v * H.counit[a] for k, v in H.unit.items()})


def coproduct_iter(H, a, legs: int) -> dict:
    """Left-nested iterated coproduct: keys are index tuples of length `legs`.
    The package takes one coproduct at a time; the references here and in
    test_smash and test_generators expand the whole of it."""
    cur = {(i,): c for i, c in a.items()}
    for _ in range(legs - 1):
        nxt: dict = {}
        for key, c in cur.items():
            for (j, k), ck in H.comult[key[0]].items():
                add_into(nxt, (j, k) + key[1:], c * ck)
        cur = nxt
    return cur


def reference_adjoint_on_H(H, a, ell):
    """adjoint_on_H as it was before it read the tables directly: the
    iterated coproduct of a, then two products per leg."""
    out = {}
    for (j, k), c in coproduct_iter(H, a, 2).items():
        term = h_mul(H, h_mul(H, H.basis_vec(j), ell), H.antipode[k])
        for idx, ci in term.items():
            add_into(out, idx, c * ci)
    return out


@pytest.mark.parametrize("name", ["sweedler", "taft-3", "h8", "ha1"])
def test_adjoint_matches_the_reference(name):
    H = preset_hopf(name)
    rng = random.Random(f"adjoint-{name}")
    for i in range(H.dim):
        for l in range(H.dim):
            assert adjoint_on_H(H, H.basis_vec(i), H.basis_vec(l)) == \
                reference_adjoint_on_H(H, H.basis_vec(i), H.basis_vec(l))

    def draw():
        return {h: Scalar.from_int(H.order, rng.choice([-2, -1, 1, 3]))
                for h in rng.sample(range(H.dim), 3)}

    for _ in range(20):
        a, ell = draw(), draw()
        assert adjoint_on_H(H, a, ell) == reference_adjoint_on_H(H, a, ell)


def test_group_algebra():
    # trivial group
    H = group_algebra([[0]])
    assert validate_hopf(H).passed and H.dim == 1
    # cyclic Z_4
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    H = group_algebra(table, order=4)
    assert validate_hopf(H).passed
    one = Scalar.one(4)
    # adjoint equals conjugation (trivial for abelian groups)
    for g in range(4):
        for l in range(4):
            assert adjoint_on_H(H, {g: one}, {l: one}) == {l: one}
    # corrupt associativity
    bad = [row[:] for row in table]
    bad[1][1] = 1
    with pytest.raises(NotAGroup):
        group_algebra(bad)


def _associativity_witness(table, message):
    i, j, k = map(int, re.search(r"\((\d+), (\d+), (\d+)\)", message).groups())
    return table[table[i][j]][k] != table[i][table[j][k]]


@pytest.mark.parametrize("loop", [
    # every element is its own inverse: a loop of order 5, which no group is
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
    # (i 1) k = i (1 k) for all i, k, so the first generator, 1, shows no
    # failure; only the second, 2, does
    [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1], [3, 2, 5, 4, 1, 0],
     [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]],
])
def test_group_algebra_refuses_a_loop(loop):
    # Latin squares with identity 0 that are not associative
    with pytest.raises(NotAGroup, match="associativity") as err:
        group_algebra(loop)
    assert _associativity_witness(loop, str(err.value))


def test_group_algebra_associativity_matches_the_triple_loop():
    # Light's test checks only a generating set; on tables with an identity
    # it must refuse exactly the non-associative ones, with a true witness.
    # The tables are relabelled Z_4, Z_2 x Z_2, Z_6 and S_3, half of them
    # with one cell changed, and random tables of order 4 with identity 0.
    perms = list(itertools.permutations(range(3)))
    groups = [[[(i + j) % 4 for j in range(4)] for i in range(4)],
              [[i ^ j for j in range(4)] for i in range(4)],
              [[(i + j) % 6 for j in range(6)] for i in range(6)],
              [[perms.index(tuple(p[x] for x in q)) for q in perms] for p in perms]]
    rng = random.Random(0)
    refused = kept = 0
    for _ in range(600):
        group = rng.choice(groups + [None])
        if group is None:
            d = 4
            table = [[rng.randrange(d) if i and j else i + j for j in range(d)] for i in range(d)]
        else:
            d = len(group)
            lab = rng.sample(range(d), d)
            table = [[0] * d for _ in range(d)]
            for a in range(d):
                for b in range(d):
                    table[lab[a]][lab[b]] = lab[group[a][b]]
            if rng.random() < 0.5:
                table[rng.randrange(d)][rng.randrange(d)] = rng.randrange(d)
        triples = itertools.product(range(d), repeat=3)
        associative = all(table[table[i][j]][k] == table[i][table[j][k]] for i, j, k in triples)
        try:
            group_algebra(table)
        except NotAGroup as e:
            if "identity" in str(e):        # refused before associativity
                continue
            if "associativity" in str(e):
                assert not associative and _associativity_witness(table, str(e))
                refused += 1
                continue
        assert associative
        kept += 1
    assert refused > 50 and kept > 50


def test_algebra_generators():
    H = preset_hopf("taft-4")
    gens = algebra_generators(H)
    assert gens == [4, 1]  # g and x
    H = preset_hopf("cyclic-5")
    assert algebra_generators(H) == [1]


def test_format_hvec():
    H = preset_hopf("sweedler")
    one = Scalar.one(1)
    assert format_hvec(H, {1: one, 3: -one}) == "x - gx"
    assert format_hvec(H, {}) == "0"


def test_preset_name_forms():
    assert preset_hopf("taft(3)").dim == 9
    assert preset_hopf("cyclic(4)").dim == 4
    assert preset_hopf("TAFT-3").dim == 9


@pytest.mark.parametrize("alias, canonical", [
    ("taft(3)", "taft-3"), ("TAFT-3", "taft-3"), ("cyclic-3", "cbh-cyclic-3"),
    ("cbh-3", "cbh-cyclic-3"), ("cbh-cyclic-3", "cbh-cyclic-3")])
def test_preset_aliases_build_the_canonical_problem(alias, canonical):
    for with_kappa in (False, True):
        assert (render_problem(build_problem(alias, with_kappa))
                == render_problem(build_problem(canonical, with_kappa)))
    assert preset_hopf(alias) == build_problem(alias).hopf


@pytest.mark.parametrize("name", ["nope", "taft", "cyclic", "cbh-cyclic", "taft-1", "taft-17",
                                  "cyclic-0", "cbh-cyclic-257", "sweedler-2", "h8-1"])
def test_preset_catalogue_refuses(name):
    with pytest.raises(UnknownPreset):
        preset_hopf(name)
    with pytest.raises(UnknownPreset):
        build_problem(name)


def test_preset_names_read_off_the_catalogue():
    assert PRESET_NAMES == ("sweedler", "taft-n", "h8", "ha1", "cbh-cyclic-n")
