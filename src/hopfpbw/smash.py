"""Normal-form arithmetic in the truncated smash product T(V) # H.

Normal form puts all V-tensor factors on the left and a single H factor on
the right, so a filtration-degree-m element lives in V^(x)m (x) H.  The
straightening map implements the commutation rule

    (1 # h)(v1 ... vm # 1) = sum (h1 . v1) ... (hm . vm) # h_{m+1}

with the iterated coproduct taken left-nested.  Elements are sparse dicts
keyed by (index word, H-basis index); the quadratic relations of B are
deliberately not imposed here, so this really is arithmetic in T(V) # H.

Truncation is hard: products that would exceed the cutoff raise instead of
silently dropping terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .scalar import Scalar
from .hopf import HopfAlgebra, add_into, coproduct_iter, h_mul
from .modalg import ModuleAlgebra, CutoffExceeded, act_on_generator


@dataclass
class NormalElement:
    """An element of T(V) # H of filtration degree <= cutoff, in normal form."""

    cutoff: int
    terms: dict = dc_field(default_factory=dict)   # {(word, h): Scalar}

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "NormalElement") -> "NormalElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_into(out, k, c)
        return NormalElement(self.cutoff, out)

    def sub(self, other: "NormalElement") -> "NormalElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_into(out, k, -c)
        return NormalElement(self.cutoff, out)

    def scale(self, c: Scalar) -> "NormalElement":
        if c.is_zero():
            return NormalElement(self.cutoff)
        return NormalElement(self.cutoff, {k: v * c for k, v in self.terms.items()})


def unit_element(H: HopfAlgebra, cutoff: int) -> NormalElement:
    return NormalElement(cutoff, {((), i): c for i, c in H.unit.items()})


def from_h(H: HopfAlgebra, a: dict, cutoff: int) -> NormalElement:
    return NormalElement(cutoff, {((), i): c for i, c in a.items()})


def straighten(H: HopfAlgebra, B: ModuleAlgebra, a: dict, t: dict) -> dict:
    """Normal form of (1 # a)(t # 1): a sparse vector over (word, h) keys.

    t is a sparse tensor in V^(x)m; for m = 0 the result is a itself.
    """
    if not a or not t:
        return {}
    m = len(next(iter(t)))
    if m == 0:
        return {((), i): c for i, c in a.items()}
    out: dict = {}
    for word, cw in t.items():
        # state: {(new_word_prefix, remaining_H_index): coeff}
        state = {((), i): cw * c for i, c in a.items()}
        for pos in range(m):
            nxt: dict = {}
            vin = word[pos]
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


def smash_mult(H: HopfAlgebra, B: ModuleAlgebra,
               lhs: NormalElement, rhs: NormalElement) -> NormalElement:
    """Bilinear associative product in the truncated smash product.

    Raises CutoffExceeded when a term of the product would land in degree
    above the cutoff.
    """
    cutoff = min(lhs.cutoff, rhs.cutoff)
    out: dict = {}
    for (w1, h1), c1 in lhs.terms.items():
        for (w2, h2), c2 in rhs.terms.items():
            deg = len(w1) + len(w2)
            if deg > cutoff:
                raise CutoffExceeded(
                    f"product degree {deg} exceeds cutoff {cutoff}")
            c = c1 * c2
            if not w2:
                prod = H.mult[h1][h2]
                for k, ck in prod.items():
                    add_into(out, (w1 + w2, k), c * ck)
                continue
            moved = straighten(H, B, {h1: Scalar.one(H.order)}, _word_tensor(w2, H.order))
            for (wmid, hmid), cm in moved.items():
                prod = H.mult[hmid][h2]
                for k, ck in prod.items():
                    add_into(out, (w1 + wmid, k), c * cm * ck)
    return NormalElement(cutoff, out)


def _word_tensor(word: tuple, order: int) -> dict:
    return {word: Scalar.one(order)}


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


def eps_project(H: HopfAlgebra, vec: dict) -> dict:
    """Apply the counit to the H-leg of a (word, h)-keyed vector."""
    out: dict = {}
    for (word, h), c in vec.items():
        e = H.counit[h]
        if not e.is_zero():
            add_into(out, word, c * e)
    return out
