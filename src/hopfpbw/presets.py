"""Bundled worked problems: a Hopf algebra acting on a quadratic algebra,
optionally with a sample deformation map from the known solution family.

Available names: sweedler, taft-n, h8, ha1, cbh-cyclic-n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalar import Scalar, zeta
from .hopf import HopfAlgebra, UnknownPreset, preset_hopf, parse_preset_name, nth_root_of_unity
from .modalg import ModuleAlgebra, action_from_generators
from .deform import Kappa

PRESET_NAMES = ("sweedler", "taft-n", "h8", "ha1", "cbh-cyclic-n")


@dataclass
class Problem:
    name: str
    hopf: HopfAlgebra
    algebra: ModuleAlgebra
    kappa: Kappa | None = None


def _commutator(i: int, j: int, order: int, sign: int = -1) -> dict:
    one = Scalar.one(order)
    s = one if sign > 0 else -one
    return {(i, j): one, (j, i): s}


def _sweedler_problem(with_kappa: bool) -> Problem:
    H = preset_hopf("sweedler")
    order = H.order
    one = Scalar.one(order)
    zero = Scalar.zero(order)
    n = 2
    gx = {(1, 0): [[one, zero], [zero, -one]],        # g = diag(1, -1)
          (0, 1): [[zero, one], [zero, zero]]}        # x: v -> u
    gen_mats = {n * 1 + 0: gx[(1, 0)], 0 * n + 1: gx[(0, 1)]}
    action = action_from_generators(H, 2, gen_mats)
    B = ModuleAlgebra.make(order, ["u", "v"], [_commutator(0, 1, order)], action)
    kappa = None
    if with_kappa:
        # kappa^C(r) = x + gx, kappa^L(r) = u (x) (x + gx)
        kappa = Kappa.from_vectors(H, B,
                                   [{1: one, 3: one}],
                                   [{(0, 1): one, (0, 3): one}])
    return Problem("sweedler", H, B, kappa)


def _taft_problem(n: int, with_kappa: bool) -> Problem:
    # The action weight on v must equal the commutation parameter of
    # x g = zeta g x, or the module axiom (x g).w = x.(g.w) fails; with
    # g = diag(1, zeta) the relation uv - vu stays stable and the module
    # axiom holds for every n.
    H = preset_hopf(f"taft-{n}")
    order = H.order
    one = Scalar.one(order)
    zero = Scalar.zero(order)
    zz = nth_root_of_unity(order, n)
    g_mat = [[one, zero], [zero, zz]]                 # g = diag(1, zeta)
    x_mat = [[zero, one], [zero, zero]]               # x: v -> u
    action = action_from_generators(H, 2, {1 * n + 0: g_mat, 0 * n + 1: x_mat})
    B = ModuleAlgebra.make(order, ["u", "v"], [_commutator(0, 1, order)], action)
    kappa = None
    if with_kappa:
        top = (n - 1) * n + (n - 1)                    # g^(n-1) x^(n-1)
        kappa = Kappa.from_vectors(H, B, [{top: one}], [{(0, top): one}])
    return Problem(f"taft-{n}", H, B, kappa)


def _h8_problem(with_kappa: bool) -> Problem:
    H = preset_hopf("h8")
    order = H.order
    one = Scalar.one(order)
    zero = Scalar.zero(order)
    x_mat = [[-one, zero], [zero, one]]
    y_mat = [[one, zero], [zero, -one]]
    z_mat = [[zero, one], [one, zero]]
    action = action_from_generators(H, 2, {1: x_mat, 2: y_mat, 4: z_mat})
    # relation u^2 + v^2
    rel = {(0, 0): one, (1, 1): one}
    B = ModuleAlgebra.make(order, ["u", "v"], [rel], action)
    kappa = None
    if with_kappa:
        # kappa^C(r) = z + xyz
        kappa = Kappa.from_vectors(H, B, [{4: one, 7: one}],
                                   [dict()])
    return Problem("h8", H, B, kappa)


def _ha1_problem(with_kappa: bool) -> Problem:
    H = preset_hopf("ha1")
    order = H.order
    one = Scalar.one(order)
    zero = Scalar.zero(order)
    i_ = zeta(order)                                  # primitive fourth root
    x_mat = [[i_, zero, zero, zero],
             [zero, -i_, zero, zero],
             [zero, zero, one, zero],
             [zero, zero, zero, -one]]
    y_mat = [[-one, zero, zero, zero],
             [zero, -one, zero, zero],
             [zero, zero, -one, zero],
             [zero, zero, zero, -one]]
    z_mat = [[zero, one, zero, zero],
             [one, zero, zero, zero],
             [zero, zero, zero, one],
             [zero, zero, one, zero]]
    action = action_from_generators(H, 4, {1: x_mat, 4: y_mat, 8: z_mat})
    # skew-commutation relations on t, u, v, w (indices 0..3)
    rels = [
        _commutator(0, 1, order),        # tu - ut
        _commutator(0, 2, order),        # tv - vt
        _commutator(0, 3, order, +1),    # tw + wt
        _commutator(1, 2, order),        # uv - vu
        _commutator(1, 3, order, +1),    # uw + wu
        _commutator(2, 3, order),        # vw - wv
    ]
    B = ModuleAlgebra.make(order, ["t", "u", "v", "w"], rels, action)
    kappa = None
    if with_kappa:
        # kappa^C(r_tu) = 1 + x^2, all other relations 0
        cvecs = [dict() for _ in range(6)]
        cvecs[0] = {0: one, 2: one}
        kappa = Kappa.from_vectors(H, B, cvecs, [dict() for _ in range(6)])
    return Problem("ha1", H, B, kappa)


def _cbh_cyclic_problem(n: int, with_kappa: bool) -> Problem:
    H = preset_hopf(f"cyclic-{n}")
    order = H.order
    one = Scalar.one(order)
    zero = Scalar.zero(order)
    zz = nth_root_of_unity(order, n)
    zinv = Scalar.one(order)
    for _ in range((n - 1) % max(n, 1)):
        zinv = zinv * zz
    g_mat = [[zz, zero], [zero, zinv]]                # det = 1
    action = action_from_generators(H, 2, {1 % n: g_mat})
    B = ModuleAlgebra.make(order, ["u", "v"], [_commutator(0, 1, order)], action)
    kappa = None
    if with_kappa:
        kappa = Kappa.from_vectors(H, B, [{0: one}], [dict()])
    return Problem(f"cbh-cyclic-{n}", H, B, kappa)


def build_problem(name: str, with_kappa: bool = False) -> Problem:
    base, n = parse_preset_name(name)
    if base == "sweedler":
        return _sweedler_problem(with_kappa)
    if base == "taft":
        if n is None:
            raise UnknownPreset("taft preset needs an index, e.g. taft-3")
        return _taft_problem(n, with_kappa)
    if base == "h8":
        return _h8_problem(with_kappa)
    if base == "ha1":
        return _ha1_problem(with_kappa)
    if base in ("cbh-cyclic", "cbh", "cyclic"):
        if n is None:
            raise UnknownPreset("cbh-cyclic preset needs an index, e.g. cbh-cyclic-3")
        return _cbh_cyclic_problem(n, with_kappa)
    raise UnknownPreset(f"unknown preset {name!r}")
