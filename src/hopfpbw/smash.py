"""The commutation rules of the smash product T(V) # H.

Normal form puts all V-tensor factors on the left and a single H factor on
the right, so a filtration-degree-m element lives in V^(x)m (x) H.  The
straightening map implements the commutation rule

    (1 # h)(v1 ... vm # 1) = sum (h1 . v1) ... (hm . vm) # h_{m+1}

with the coproduct applied to the H-leg that is left over, one letter at
a time (by coassociativity, any nesting of the iterated coproduct gives
the same).  Elements are sparse dicts keyed by (index word, H-basis
index); the quadratic relations of B are deliberately not imposed here,
so this really is arithmetic in T(V) # H.

This module holds the two rules the package needs.  ``straighten`` moves
the H-legs of the overlap mismatches in conditions (b)-(d) to the right,
the oracle builds from it the tables of its four row operators, which
form every product it takes in T(V) # H, and ``modalg.act_on_tensor``
reads the action of H on T(V) off it by the counit law.  ``AdjointVH``
and ``adjoint_on_VH`` are the adjoint action of H on V (x) H that
condition (a) reads.  ``act_on_generator`` is the one-letter action
e_h . v that both rules are built from.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .hopf import HopfAlgebra, add_into, coproduct_iter, h_mul

if TYPE_CHECKING:
    from .modalg import ModuleAlgebra


def act_on_generator(B: ModuleAlgebra, h: int, v: int) -> dict:
    """e_h . v_c as a sparse vector over V."""
    col = {}
    for r in range(B.vdim):
        c = B.action[h][r][v]
        if not c.is_zero():
            col[r] = c
    return col


def straighten(H: HopfAlgebra, B: ModuleAlgebra, a: dict, t: dict) -> dict:
    """Normal form of (1 # a)(t # 1): a sparse vector over (word, h) keys.

    t is a sparse vector over words of V, each read to its own length, so
    one t may mix degrees; the empty word with coefficient c gives c a.
    """
    if not a or not t:
        return {}
    out: dict = {}
    for word, cw in t.items():
        # state: {(new_word_prefix, remaining_H_index): coeff}
        state = {((), i): cw * c for i, c in a.items()}
        for vin in word:
            nxt: dict = {}
            for (prefix, hidx), c in state.items():
                for (h1, h2), cd in H.comult[hidx].items():
                    img = act_on_generator(B, h1, vin)
                    if not img:
                        continue
                    for vout, cv in img.items():
                        add_into(nxt, (prefix + (vout,), h2), c * cd * cv)
            state = nxt
        for key, c in state.items():
            add_into(out, key, c)
    return out


class AdjointVH:
    """The left adjoint action of one fixed a on V (x) H.

    The 3-leg coproduct of a is taken once, and the products a2 e_l S(a3)
    once per H-basis index l, so every image under the same a reuses them.
    """

    def __init__(self, H: HopfAlgebra, B: ModuleAlgebra, a: dict):
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
                for vout, cv in act_on_generator(self.B, k1, v).items():
                    f = cw * cv
                    for hout, ch in mid.items():
                        add_into(out, (vout, hout), f * ch)
        return out


def adjoint_on_VH(H: HopfAlgebra, B: ModuleAlgebra, a: dict, w: dict,
                  adj: AdjointVH | None = None) -> dict:
    """Left adjoint action on V (x) H: a . (v (x) l) = sum (a1.v) (x) a2 l S(a3).

    w is a sparse dict {(vidx, hidx): Scalar}.  ``adj``, an ``AdjointVH``
    of the same a, shares the legs and their products across calls.
    """
    return (adj or AdjointVH(H, B, a)).image(w)

