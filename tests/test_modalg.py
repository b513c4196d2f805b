import dataclasses
from math import comb

import pytest

from hopfpbw.scalar import Scalar, zeta
from hopfpbw.hopf import group_algebra
from hopfpbw.modalg import (
    ModuleAlgebra, validate_action, act_on_tensor, graded_dim, koszul_component,
    CutoffExceeded, MAX_KOSZUL_WORDS, ModAlgError,
)
from hopfpbw.presets import PRESET_NAMES
from hopfpbw.presets import build_problem


def symmetric_algebra(nvars: int) -> tuple:
    """Trivial group acting on a polynomial ring in nvars variables."""
    H = group_algebra([[0]])
    one = Scalar.one(1)
    rels = []
    for i in range(nvars):
        for j in range(i + 1, nvars):
            rels.append({(i, j): one, (j, i): -one})
    action = [[[one if r == c else Scalar.zero(1) for c in range(nvars)]
               for r in range(nvars)]]
    B = ModuleAlgebra.make(1, [f"v{i}" for i in range(nvars)], rels, action)
    return H, B


@pytest.mark.parametrize("name", ["sweedler", "taft-3", "h8", "ha1", "cbh-cyclic-3"])
def test_preset_actions_validate(name, problem):
    prob = problem(name)
    rep = validate_action(prob.hopf, prob.algebra)
    assert rep.passed, rep.failures[:3]


def test_ha1_relation_weights(problem):
    # x . r_tv = i r_tv and z . r_tv = r_uw in the canonical relation basis
    prob = problem("ha1")
    H, B = prob.hopf, prob.algebra
    i_ = zeta(4)
    r_tv = B.relation_sparse(1)
    img = act_on_tensor(H, B, H.basis_vec(1), r_tv)       # x .
    assert img == {k: v * i_ for k, v in r_tv.items()}
    img = act_on_tensor(H, B, H.basis_vec(8), r_tv)       # z .
    assert img == B.relation_sparse(4)                     # r_uw


def test_stability_failure_witness():
    # Sweedler with I = span{uv} only: g-stable but not x-stable
    prob = build_problem("sweedler")
    H = prob.hopf
    one = Scalar.one(1)
    B = ModuleAlgebra.make(1, ["u", "v"], [{(0, 1): one}], prob.algebra.action)
    rep = validate_action(H, B)
    assert not rep.passed
    axioms = {f[0] for f in rep.failures}
    assert axioms == {"relations_stable"}
    # witness names x (H index 1) acting on relation 0
    assert any(f[1] == (1, 0) for f in rep.failures)
    img = act_on_tensor(H, B, H.basis_vec(1), {(0, 1): one})
    assert img == {(0, 0): one}    # x.(uv) = uu


def test_act_on_tensor_examples(problem):
    prob = problem("sweedler")
    H, B = prob.hopf, prob.algebra
    one = Scalar.one(1)
    t = {(1, 1): one}    # v (x) v
    # unit acts as identity
    assert act_on_tensor(H, B, H.unit, t) == t
    # grouplike acts diagonally
    assert act_on_tensor(H, B, H.basis_vec(2), t) == {(1, 1): one}
    # x . (v(x)v) = (g.v)(x)(x.v) + (x.v)(x)v = -v(x)u + u(x)v
    got = act_on_tensor(H, B, H.basis_vec(1), t)
    assert got == {(1, 0): -one, (0, 1): one}


def test_act_module_axiom(problem):
    prob = problem("h8")
    H, B = prob.hopf, prob.algebra
    one = Scalar.one(1)
    t = {(0, 1): one, (1, 0): -one}
    for a in (1, 4, 5):
        for b in (2, 4, 7):
            lhs = act_on_tensor(H, B, H.mult[a][b], t)
            rhs = act_on_tensor(H, B, H.basis_vec(a),
                                act_on_tensor(H, B, H.basis_vec(b), t))
            assert lhs == rhs


def test_graded_dim_polynomial_ring(problem):
    prob = problem("sweedler")
    B = prob.algebra
    assert graded_dim(B, 0) == 1
    assert graded_dim(B, 1) == 2
    assert graded_dim(B, 3) == 4
    for n in range(6):
        assert graded_dim(B, n) == n + 1


def test_graded_dim_symmetric_formula():
    for nvars in (2, 3):
        _H, B = symmetric_algebra(nvars)
        for n in range(6):
            assert graded_dim(B, n) == comb(nvars + n - 1, n)


def test_graded_dim_ha1(problem):
    B = problem("ha1").algebra
    assert graded_dim(B, 2) == 10
    assert graded_dim(B, 3) == 20


def test_graded_dim_cutoff():
    _H, B = symmetric_algebra(2)
    with pytest.raises(CutoffExceeded):
        graded_dim(B, B.cutoff + 1)


def test_graded_dim_is_derived_once_and_refusals_run_on_every_call(monkeypatch):
    # the rank of each degree is taken on its first call and kept on B; a
    # lowered cutoff, a negative degree and a degree with too many words
    # are refused on every call, derived or not
    from hopfpbw import modalg
    _H, B = symmetric_algebra(3)
    builds = []
    real = modalg._layer_rows

    def counted(B, n, j):
        builds.append(n)
        return real(B, n, j)

    monkeypatch.setattr(modalg, "_layer_rows", counted)
    assert [graded_dim(B, n) for n in range(5)] == [1, 3, 6, 10, 15]
    assert builds == [2, 3, 3, 4, 4, 4]
    assert [graded_dim(B, n) for n in range(5)] == [1, 3, 6, 10, 15]
    assert len(builds) == 6
    # a new object derives its own tables
    fresh = dataclasses.replace(B)
    assert graded_dim(fresh, 3) == 10 and len(builds) == 8
    B.cutoff = 3
    with pytest.raises(CutoffExceeded):
        graded_dim(B, 4)
    with pytest.raises(ModAlgError, match="negative"):
        graded_dim(B, -1)
    monkeypatch.setattr(modalg, "MAX_KOSZUL_WORDS", 26)
    with pytest.raises(ModAlgError, match="words, above the limit"):
        graded_dim(B, 3)
    assert len(builds) == 8


def test_koszul_degree_with_too_many_words_is_refused(problem):
    # ha1 (vd = 4) at n = 8 has 65,536 words: 9.6 s and 117 MB for the tables
    # through degree 8 when nothing refused it
    B = dataclasses.replace(problem("ha1").algebra, cutoff=12)
    assert 4 ** 7 <= MAX_KOSZUL_WORDS < 4 ** 8
    for n in (8, 12):
        with pytest.raises(ModAlgError, match="words, above the limit"):
            graded_dim(B, n)
        with pytest.raises(ModAlgError, match="words, above the limit"):
            koszul_component(B, n)


def test_koszul_word_limit_admits_the_presets_at_the_cli_defaults():
    # koszul --max 4 reads degrees up to 4; the oracle's defaults read 3
    for name in PRESET_NAMES:
        name = name.replace("-n", "-4")
        B = build_problem(name).algebra
        assert B.vdim ** 4 <= MAX_KOSZUL_WORDS, name


def test_koszul_component_examples(problem):
    # degree 2 component is the relation space itself
    B = problem("ha1").algebra
    assert koszul_component(B, 2) == B.relations
    D3 = koszul_component(B, 3)
    assert D3.dim == 4
    # k[u,v]: zero in degree 3; k[u,v,w]: one-dimensional
    assert koszul_component(problem("sweedler").algebra, 3).dim == 0
    _H, B3 = symmetric_algebra(3)
    assert koszul_component(B3, 3).dim == 1


def test_ha1_overlap_basis_matches_known_vectors(problem):
    # the four alternating-type degree-3 elements span the overlap space
    B = problem("ha1").algebra
    D3 = koszul_component(B, 3)
    one = Scalar.one(4)
    t, u, v, w = 0, 1, 2, 3

    def dense(terms):
        vec = [Scalar.zero(4)] * 64
        for (a, b, c), s in terms.items():
            vec[(a * 4 + b) * 4 + c] = Scalar.from_int(4, s)
        return vec

    s_tuv = {(t, u, v): 1, (t, v, u): -1, (u, t, v): -1,
             (u, v, t): 1, (v, t, u): 1, (v, u, t): -1}
    s_tuw = {(t, u, w): 1, (t, w, u): 1, (u, t, w): -1,
             (u, w, t): -1, (w, t, u): 1, (w, u, t): -1}
    s_tvw = {(t, v, w): 1, (t, w, v): -1, (v, t, w): -1,
             (v, w, t): -1, (w, t, v): -1, (w, v, t): 1}
    s_uvw = {(u, v, w): 1, (u, w, v): -1, (v, u, w): -1,
             (v, w, u): -1, (w, u, v): -1, (w, v, u): 1}
    for s in (s_tuv, s_tuw, s_tvw, s_uvw):
        assert D3.contains(dense(s))


def test_overlap_space_stable_under_action(problem):
    prob = problem("ha1")
    H, B = prob.hopf, prob.algebra
    D3 = koszul_component(B, 3)
    for i in range(H.dim):
        for row in D3.rows:
            t = {}
            for idx, c in row.items():
                t[(idx // 16, (idx // 4) % 4, idx % 4)] = c
            img = act_on_tensor(H, B, H.basis_vec(i), t)
            dense = [Scalar.zero(4)] * 64
            for (a, b, c), s in img.items():
                dense[(a * 4 + b) * 4 + c] = s
            assert D3.contains(dense)


def test_h8_relation_fixed_by_all_generators(problem):
    prob = problem("h8")
    H, B = prob.hopf, prob.algebra
    r = B.relation_sparse(0)
    for idx in (1, 2, 4):      # x, y, z
        assert act_on_tensor(H, B, H.basis_vec(idx), r) == r


def test_overlap_components_binomial_pattern(problem):
    # for the 4-variable skew polynomial ring the overlap components have
    # exterior-algebra dimensions C(4, i)
    prob = problem("ha1")
    H, B = prob.hopf, prob.algebra
    assert koszul_component(B, 2).dim == 6
    assert koszul_component(B, 3).dim == 4
    D4 = koszul_component(B, 4)
    assert D4.dim == 1
    # degree-4 component is stable under the whole Hopf algebra too
    tens = {}
    for idx, c in D4.rows[0].items():
        word = (idx // 64, (idx // 16) % 4, (idx // 4) % 4, idx % 4)
        tens[word] = c
    for i in range(H.dim):
        img = act_on_tensor(H, B, H.basis_vec(i), tens)
        dense = [Scalar.zero(4)] * 256
        for word, c in img.items():
            dense[((word[0] * 4 + word[1]) * 4 + word[2]) * 4 + word[3]] = c
        assert D4.contains(dense)
