import random
from operator import add, mul, not_

import pytest

import hopfpbw
from hopfpbw import oracle
from hopfpbw.scalar import Scalar
from hopfpbw.hopf import add_into, adjoint_on_H, algebra_generators, h_mul
from hopfpbw.modalg import act_on_tensor
from hopfpbw.smash import straighten, adjoint_on_VH

from test_acceptance import PRESET_LIST
from test_hopf import coproduct_iter


def one(order=1):
    return Scalar.one(order)


# -- the products of T(V) # H, taken with the oracle's row operators ------------------
#
# The oracle forms every product in T(V) # H with its four row operators.
# Over a Scalar _Ring (no denominators cleared) they are the plain products
# of the smash product on rows keyed by the oracle's columns.

def scalar_ring(H, B):
    """The oracle's tables over Scalars."""
    return oracle._Ring((mul, add, not_, mul), lambda s: (1, list(s)), H, B.vdim,
                        oracle._straightened(H, B))


def _op(R, amb, op, arg, row):
    """op(row, arg) on a row given as a dict."""
    return op(R, amb, row.items(), arg)


def _random_row(rng, H, B, amb, top=1, terms=3):
    """A random row of degree at most ``top``."""
    row = {}
    for _ in range(terms):
        m = rng.randint(0, top)
        c = Scalar.from_int(H.order, rng.randint(-3, 3))
        add_into(row, amb.col(rng.randrange(B.vdim ** m), m, rng.randrange(H.dim)), c)
    return row


def test_straighten_degree_zero(problem):
    prob = problem("sweedler")
    H, B = prob.hopf, prob.algebra
    a = {1: one(), 2: -one()}
    assert straighten(H, B, a, {(): one()}) == {((), 1): one(), ((), 2): -one()}
    # the coefficient of the empty word scales a
    five = Scalar.from_int(1, 5)
    assert straighten(H, B, a, {(): five}) == {((), 1): five, ((), 2): -five}


def test_straighten_examples(problem):
    prob = problem("sweedler")
    H, B = prob.hopf, prob.algebra
    v = {(1,): one()}
    # unit: t (x) 1
    assert straighten(H, B, H.unit, v) == {((1,), 0): one()}
    # grouplike g: g v = (g.v) g = -v (x) g
    assert straighten(H, B, {2: one()}, v) == {((1,), 2): -one()}
    # x v = (g.v)(x)x + (x.v)(x)1 = u(x)1 - v(x)x
    assert straighten(H, B, {1: one()}, v) == {((0,), 0): one(), ((1,), 1): -one()}


def test_straighten_reads_each_word_to_its_own_length(problem):
    # a tensor that mixes degrees: every word is read to its end
    prob = problem("sweedler")
    H, B = prob.hopf, prob.algebra
    assert straighten(H, B, H.unit, {(0,): one(), (0, 1): one()}) == {
        ((0,), 0): one(), ((0, 1), 0): one()}


def test_act_on_tensor_mixed_degrees(problem):
    # (1,) and (0, 1) end in the same letter and are straightened together
    prob = problem("sweedler")
    H, B = prob.hopf, prob.algebra
    t = {(1,): one(), (0, 1): one()}
    assert act_on_tensor(H, B, H.unit, t) == t


def test_smash_mult_unit_law(problem):
    # x (1 # 1) = (1 # 1) x = x, on rows of degree at most 2
    prob = problem("h8")
    H, B = prob.hopf, prob.algebra
    (u, c), = H.unit.items()
    assert c == one()
    R = scalar_ring(H, B)
    amb = oracle._Ambient(B.vdim, H.dim, 2)
    rng = random.Random(3)
    for _ in range(5):
        x = _random_row(rng, H, B, amb, top=2, terms=4)
        assert _op(R, amb, oracle._right_h, u, x) == x
        assert _op(R, amb, oracle._left_h, u, x) == x


def test_smash_mult_two_step_straightening(problem):
    # g v = -v g, then (g v) g = -v g^2 = -v
    prob = problem("sweedler")
    H, B = prob.hopf, prob.algebra
    R = scalar_ring(H, B)
    amb = oracle._Ambient(B.vdim, H.dim, 1)
    gv = _op(R, amb, oracle._left_h, 2, {amb.col(1, 1, 0): one()})
    assert gv == {amb.col(1, 1, 2): -one()}
    assert _op(R, amb, oracle._right_h, 2, gv) == {amb.col(1, 1, 0): -one()}


def test_smash_mult_associativity(problem):
    # (v x) g = v (x g), (g x) v = g (x v), (g x) h = g (x h) and
    # (v x) w = v (x w), for random rows x of degree at most 1
    for name, seed in (("taft-3", 5), ("h8", 6), ("ha1", 7)):
        prob = problem(name)
        H, B = prob.hopf, prob.algebra
        gens = algebra_generators(H)
        R = scalar_ring(H, B)
        amb = oracle._Ambient(B.vdim, H.dim, 3)
        rng = random.Random(seed)
        for _ in range(4):
            x = _random_row(rng, H, B, amb)
            for _ in range(3):
                v, w = rng.randrange(B.vdim), rng.randrange(B.vdim)
                g, h = rng.choice(gens), rng.randrange(H.dim)
                rh, lh = (oracle._right_h, h), (oracle._left_h, g)
                lv, rv = (oracle._left_v, v), (oracle._right_v, w)
                for outer, inner in ((rh, lv), (rv, lh), (rh, lh), (rv, lv)):
                    assert _op(R, amb, *outer, _op(R, amb, *inner, x)) == \
                        _op(R, amb, *inner, _op(R, amb, *outer, x)), (name, outer, inner)


def _word_keyed(amb, row: dict) -> dict:
    """A row keyed by (word, h) instead of the oracle's columns."""
    out = {}
    for col, c in row.items():
        m = amb.deg[col]
        wr, h = divmod(col - amb.base[m], amb.hdim)
        word = []
        for _ in range(m):
            wr, v = divmod(wr, amb.vdim)
            word.append(v)
        out[tuple(reversed(word)), h] = c
    return out


def reference_products(H, B, vec: dict) -> dict:
    """Every product of a (word, h)-keyed vector that the oracle forms, in
    Scalars from straighten and H.mult: ("left_v", v) -> (v # 1) vec,
    ("right_v", v) -> vec (v # 1), ("left_h", g) -> (1 # e_g) vec and
    ("right_h", g) -> vec (1 # e_g)."""
    o = one(H.order)
    out = {}
    for v in range(B.vdim):
        left, right = {}, {}
        for (word, h), c in vec.items():
            add_into(left, ((v,) + word, h), c)
            for ((v2,), h2), c2 in straighten(H, B, {h: o}, {(v,): o}).items():
                add_into(right, (word + (v2,), h2), c * c2)
        out["left_v", v], out["right_v", v] = left, right
    for g in range(H.dim):
        right = {}
        for (word, h), c in vec.items():
            for h2, c2 in H.mult[h][g].items():
                add_into(right, (word, h2), c * c2)
        out["left_h", g], out["right_h", g] = h_times(H, B, {g: o}, vec), right
    return out


@pytest.mark.parametrize("name", ["ha1", "taft-7", "h8"])
def test_row_operators_match_scalar_products_entry_by_entry(problem, name):
    # The oracle's tables agree with straighten and H.mult only if every
    # coefficient each operator writes is the product's: a dims-only
    # comparison passed a copy of `_right_v` that squared each coefficient.
    # On seeded rows with cyclotomic coefficients, each operator over the
    # Scalar ring must give the Scalar product entry by entry.
    prob = problem(name)
    H, B = prob.hopf, prob.algebra
    R = scalar_ring(H, B)
    units = H.right_translations[0]
    amb = oracle._Ambient(B.vdim, H.dim, 3)
    rng = random.Random(f"row-operators-{name}")
    for _ in range(4):
        x = {}
        for _ in range(5):
            m = rng.randint(0, 2)
            c = Scalar.from_int(H.order, rng.choice((-3, -2, -1, 1, 2, 3))) * units[
                rng.randrange(len(units))]
            add_into(x, amb.col(rng.randrange(B.vdim ** m), m, rng.randrange(H.dim)), c)
        want = reference_products(H, B, _word_keyed(amb, x))
        for v in range(B.vdim):
            assert _word_keyed(amb, _op(R, amb, oracle._left_v, v, x)) == want["left_v", v]
            assert _word_keyed(amb, _op(R, amb, oracle._right_v, v, x)) == want["right_v", v]
        for g in range(H.dim):
            assert _word_keyed(amb, _op(R, amb, oracle._left_h, g, x)) == want["left_h", g]
            assert _word_keyed(amb, _op(R, amb, oracle._right_h, g, x)) == want["right_h", g]


def h_times(H, B, a, vec):
    """a . vec in T(V) # H, for a in H and vec a (word, h)-keyed vector."""
    o = one(H.order)
    out = {}
    for (word, h), c in vec.items():
        for (w2, h1), c1 in straighten(H, B, a, {word: o}).items():
            for h2, c2 in H.mult[h1][h].items():
                add_into(out, (w2, h2), c * c1 * c2)
    return out


def test_straighten_compatible_with_h_multiplication(problem):
    prob = problem("h8")
    H, B = prob.hopf, prob.algebra
    rng = random.Random(9)
    for _ in range(6):
        a = {rng.randint(0, 7): Scalar.from_int(1, rng.randint(-2, 2)) for _ in range(2)}
        b = {rng.randint(0, 7): Scalar.from_int(1, rng.randint(-2, 2)) for _ in range(2)}
        a = {k: c for k, c in a.items() if not c.is_zero()}
        b = {k: c for k, c in b.items() if not c.is_zero()}
        word = tuple(rng.randint(0, 1) for _ in range(2))
        t = {word: one()}
        assert straighten(H, B, h_mul(H, a, b), t) == h_times(H, B, a, straighten(H, B, b, t))


def test_adjoint_on_VH_examples(problem):
    prob = problem("sweedler")
    H, B = prob.hopf, prob.algebra
    w = {(0, 1): one()}          # u (x) x
    # unit fixes everything
    assert adjoint_on_VH(H, B, H.unit, w) == w
    # g . (u (x) x) = (g.u) (x) g x g = -u (x) x
    assert adjoint_on_VH(H, B, {2: one()}, w) == {(0, 1): -one()}
    # grouplike on v (x) g
    got = adjoint_on_VH(H, B, {2: one()}, {(1, 2): one()})
    assert got == {(1, 2): -one()}


def test_adjoint_on_VH_module_axiom(problem):
    prob = problem("ha1")
    H, B = prob.hopf, prob.algebra
    o = Scalar.one(4)
    for a in (1, 8):
        for b in (4, 9):
            for w in ({(0, 2): o}, {(3, 8): o}):
                lhs = adjoint_on_VH(H, B, H.mult[a][b], w)
                rhs = adjoint_on_VH(H, B, H.basis_vec(a),
                                    adjoint_on_VH(H, B, H.basis_vec(b), w))
                assert lhs == rhs


def act_on_letter(B, h: int, v: int) -> dict:
    """e_h . v as a sparse vector over V, read from the action matrix."""
    return {r: row[v] for r, row in enumerate(B.action[h]) if not row[v].is_zero()}


@pytest.mark.parametrize("name", PRESET_LIST)
def test_action_columns_are_read_off_the_matrices(problem, name):
    B = problem(name).algebra
    assert B._columns == [[act_on_letter(B, h, v) for v in range(B.vdim)]
                          for h in range(len(B.action))]


class ReferenceAdjointVH:
    """The left adjoint action of one fixed a on V (x) H.

    The 3-leg coproduct of a is taken once, and the products a2 e_l S(a3)
    once per H-basis index l, so every image under the same a reuses them.
    """

    def __init__(self, H, B, a: dict):
        self.H, self.B = H, B
        legs = coproduct_iter(H, a, 3)
        # a leg whose e_k1 acts on V as zero contributes nothing
        acting = {k1: any(any(row) for row in B.action[k1]) for k1, _k2, _k3 in legs}
        self.legs = [(key, c) for key, c in legs.items() if acting[key[0]]]
        self._mids: dict = {}

    def _mid(self, l: int) -> list:
        """[(k1, the sum of c a2 e_l S(a3) over the legs c (k1, a2, a3))]."""
        out = self._mids.get(l)
        if out is None:
            H = self.H
            by_k1: dict = {}
            for (k1, k2, k3), c in self.legs:
                acc = by_k1.setdefault(k1, {})
                for hout, ch in h_mul(H, H.mult[k2][l], H.antipode[k3]).items():
                    add_into(acc, hout, c * ch)
            out = self._mids[l] = [(k1, acc) for k1, acc in by_k1.items() if acc]
        return out

    def image(self, w: dict) -> dict:
        out: dict = {}
        for (v, l), cw in w.items():
            for k1, mid in self._mid(l):
                for vout, cv in act_on_letter(self.B, k1, v).items():
                    f = cw * cv
                    for hout, ch in mid.items():
                        add_into(out, (vout, hout), f * ch)
        return out


def reference_adjoint_on_VH(H, B, a: dict, w: dict, adj=None) -> dict:
    """adjoint_on_VH as it was before it read the action on H off
    ``adjoint_on_H``: a . (v (x) l) = sum (a1.v) (x) a2 l S(a3), through its
    own 3-leg coproduct.  ``adj``, a ``ReferenceAdjointVH`` of the same a,
    shares the legs and their products across calls."""
    return (adj or ReferenceAdjointVH(H, B, a)).image(w)


def _cached_adjoint_on_H(H):
    images: dict = {}

    def ad(k, l):
        if (k, l) not in images:
            images[(k, l)] = adjoint_on_H(H, H.basis_vec(k), H.basis_vec(l))
        return images[(k, l)]

    return ad


@pytest.mark.parametrize("name", ["sweedler", "taft-3", "taft-4", "taft-5", "taft-7", "h8",
                                  "ha1", "cbh-cyclic-3"])
def test_adjoint_on_VH_matches_the_reference(problem, name):
    prob = problem(name)
    H, B = prob.hopf, prob.algebra
    o = Scalar.one(H.order)
    ad = _cached_adjoint_on_H(H)
    for i in range(H.dim):
        ei, adj = H.basis_vec(i), ReferenceAdjointVH(H, B, H.basis_vec(i))
        for v in range(B.vdim):
            for l in range(H.dim):
                w = {(v, l): o}
                want = reference_adjoint_on_VH(H, B, ei, w, adj)
                assert adjoint_on_VH(H, B, ei, w, ad) == want
                assert adjoint_on_VH(H, B, ei, w) == want
    rng = random.Random(f"adjoint-vh-{name}")
    for _ in range(10):
        a = _random_h(rng, H, 3)
        w = {}
        for _ in range(3):
            add_into(w, (rng.randrange(B.vdim), rng.randrange(H.dim)),
                     Scalar.from_int(H.order, rng.choice([-2, -1, 1, 3])))
        want = reference_adjoint_on_VH(H, B, a, w)
        assert adjoint_on_VH(H, B, a, w) == want
        assert adjoint_on_VH(H, B, a, w, ad) == want


# -- the action of H on T(V), expanded through the iterated coproduct -------------------

def _expand_product(out, parts, coeff):
    words = [()]
    coeffs = [coeff]
    for p in parts:
        nwords = []
        ncoeffs = []
        for w, c in zip(words, coeffs):
            for idx, ci in p.items():
                nwords.append(w + (idx,))
                ncoeffs.append(c * ci)
        words, coeffs = nwords, ncoeffs
    for w, c in zip(words, coeffs):
        add_into(out, w, c)


def reference_act_on_tensor(H, B, a, t):
    """a . t = sum (a1 . w1) ... (am . wm) over the left-nested m-leg
    coproduct of a, read from the action matrices; the counit in degree 0."""
    if not t:
        return {}
    m = len(next(iter(t)))
    out = {}
    if m == 0:
        eps = H.zero_scalar()
        for i, c in a.items():
            eps = eps + c * H.counit[i]
        add_into(out, (), eps * t[()])
        return out
    legs = coproduct_iter(H, a, m)
    for key, c in legs.items():
        for word, cw in t.items():
            parts = [act_on_letter(B, key[pos], word[pos]) for pos in range(m)]
            _expand_product(out, parts, c * cw)
    return out


def _random_h(rng, H, terms=2):
    a = {}
    for _ in range(terms):
        add_into(a, rng.randrange(H.dim), Scalar.from_int(H.order, rng.randint(-2, 2)))
    return a


def test_eps_consistency(problem):
    # applying the counit to the H-leg of a straightening recovers the action,
    # and the action agrees with its expansion through the iterated coproduct
    for name in PRESET_LIST:
        prob = problem(name)
        H, B = prob.hopf, prob.algebra
        rng = random.Random(21)
        for m in range(4):
            for _ in range(4):
                a = _random_h(rng, H)
                t = {}
                for _ in range(3):
                    word = tuple(rng.randrange(B.vdim) for _ in range(m))
                    add_into(t, word, Scalar.from_int(H.order, rng.choice([-2, 1, 3])))
                projected = {}
                for (w2, h), c in straighten(H, B, a, t).items():
                    add_into(projected, w2, c * H.counit[h])
                got = act_on_tensor(H, B, a, t)
                assert projected == got, (name, a, t)
                assert got == reference_act_on_tensor(H, B, a, t), (name, a, t)


def test_public_names_resolve():
    assert len(set(hopfpbw.__all__)) == len(hopfpbw.__all__)
    for name in hopfpbw.__all__:
        assert getattr(hopfpbw, name) is not None, name
