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

This is the only code that applies the coproduct to the action.
``straighten`` moves the H-legs of the overlap mismatches in conditions
(b)-(d) to the right, and the oracle builds from it the tables of its
four row operators, which form every product it takes in T(V) # H.  The
two actions the package reads are the H-leg of one straightening with one
more map applied: the counit for the action of H on T(V)
(``modalg.act_on_tensor``, which by the counit law acts on the last letter
directly), and the adjoint action on H for the action on
V (x) H that condition (a) reads (``adjoint_on_VH``).  The one-letter
action e_h . v comes from the nonzero columns that ``ModuleAlgebra``
derives once from its action matrices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .hopf import HopfAlgebra, add_into, adjoint_on_H

if TYPE_CHECKING:
    from .modalg import ModuleAlgebra


def straighten(H: HopfAlgebra, B: ModuleAlgebra, a: dict, t: dict) -> dict:
    """Normal form of (1 # a)(t # 1): a sparse vector over (word, h) keys.

    t is a sparse vector over words of V, each read to its own length, so
    one t may mix degrees; the empty word with coefficient c gives c a.
    """
    if not a or not t:
        return {}
    columns = B._columns
    out: dict = {}
    for word, cw in t.items():
        # state: {(new_word_prefix, remaining_H_index): coeff}
        state = {((), i): cw * c for i, c in a.items()}
        for vin in word:
            nxt: dict = {}
            for (prefix, hidx), c in state.items():
                for (h1, h2), cd in H.comult[hidx].items():
                    for vout, cv in columns[h1][vin].items():
                        add_into(nxt, (prefix + (vout,), h2), c * cd * cv)
            state = nxt
        for key, c in state.items():
            add_into(out, key, c)
    return out


def adjoint_on_VH(H: HopfAlgebra, B: ModuleAlgebra, a: dict, w: dict, ad=None) -> dict:
    """Left adjoint action on V (x) H: a . (v (x) l) = sum (a1 . v) (x) ad(a2)(l),
    with ad(a2) applied to the H-leg of the straightened (1 # a)(v # 1).

    w is a sparse dict {(vidx, hidx): Scalar}.  ``ad(k, l)`` returns
    ad(e_k)(e_l); it defaults to ``hopf.adjoint_on_H``, and a caller that
    takes many images passes a cached one.
    """
    if ad is None:
        def ad(k, l):
            return adjoint_on_H(H, H.basis_vec(k), H.basis_vec(l))
    out: dict = {}
    for (v, l), cw in w.items():
        for ((vout,), k), c in straighten(H, B, a, {(v,): cw}).items():
            for hout, ch in ad(k, l).items():
                add_into(out, (vout, hout), c * ch)
    return out
