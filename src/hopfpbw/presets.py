"""The preset catalogue: the bundled Hopf algebras and the problems over them.

A problem is a Hopf algebra acting on a quadratic algebra, optionally with
a sample deformation map from the known solution family.  One table,
``_CATALOGUE``, keyed by base name, drives ``parse_preset_name``,
``preset_hopf``, ``build_problem`` and ``PRESET_NAMES``: sweedler, taft-n,
the Kac-Paljutkin algebra h8, the 16-dimensional semisimple ha1, and
cyclic-n (aliases cbh-cyclic-n and cbh-n).  An index whose document the
loader would refuse is refused before any table is built.

A preset states Delta and S on its algebra generators only: Delta is an
algebra map and S an anti-algebra map, so ``hopf.derive_from_generators``
extends both over the basis, as it extends an action given on generators
(``modalg.action_from_generators``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Callable, NamedTuple

from .scalar import Scalar, zeta
from .hopf import (HopfAlgebra, HopfError, MAX_CYCLOTOMIC_ORDER, MAX_HOPF_DIM,
                   derive_from_generators, group_algebra, h_mul, nth_root_of_unity, tensor_mult)
from .modalg import ModuleAlgebra, action_from_generators
from .deform import Kappa


class UnknownPreset(HopfError):
    pass


@dataclass
class Problem:
    name: str
    hopf: HopfAlgebra
    algebra: ModuleAlgebra
    kappa: Kappa | None = None


# -- Hopf algebras ---------------------------------------------------------------

def _monomial_label(parts: list[tuple[str, int]]) -> str:
    out = ""
    for sym, e in parts:
        if e == 0:
            continue
        out += sym if e == 1 else f"{sym}^{e}"
    return out or "1"


def _with_coalgebra(H: HopfAlgebra, cop: dict, s: dict) -> HopfAlgebra:
    """Fill in Delta and S of H from their values on the generators: Delta
    is an algebra map into H (x) H and S an anti-algebra map."""
    one = H.one_scalar()
    ((u, _),) = H.unit.items()
    comult = derive_from_generators(H, cop, lambda a, b: tensor_mult(H, a, b), {(u, u): one})
    antipode = derive_from_generators(H, s, lambda a, b: h_mul(H, b, a), {u: one})
    H.comult = [comult[i] for i in range(H.dim)]
    H.antipode = [antipode[i] for i in range(H.dim)]
    return H


def _taft(n: int, order: int) -> HopfAlgebra:
    """Taft algebra of dimension n^2: g^n = 1, x^n = 0, x g = zeta g x."""
    zz = nth_root_of_unity(order, n)
    d = n * n
    one = Scalar.one(order)

    def idx(i, j):  # g^i x^j
        return i * n + j

    basis = [(i, j) for i in range(n) for j in range(n)]
    zpow = [one]
    for _ in range(n):
        zpow.append(zpow[-1] * zz)

    def product(i1, j1, i2, j2):
        # x^{j1} g^{i2} = zeta^{j1 i2} g^{i2} x^{j1}
        return {} if j1 + j2 >= n else {idx((i1 + i2) % n, j1 + j2): zpow[(j1 * i2) % n]}

    labels = [_monomial_label([("g", i), ("x", j)]) for i, j in basis]
    mult = [[product(*e, *f) for f in basis] for e in basis]
    G, X = idx(1, 0), idx(0, 1)
    H = HopfAlgebra(order, d, labels, mult, [], {idx(0, 0): one},
                    [one if j == 0 else Scalar.zero(order) for i, j in basis],
                    [], generators=[G, X])
    # S(g) = g^{n-1}, S(x) = -g^{n-1} x
    return _with_coalgebra(H, {G: {(G, G): one}, X: {(G, X): one, (X, idx(0, 0)): one}},
                           {G: {idx(n - 1, 0): one}, X: {idx(n - 1, 1): -one}})


def _abelian_by_z(order: int, p: int, sigma, z2: dict):
    """The algebra with basis x^i y^j z^k (i < p; j, k < 2), index
    i + p j + 2p k, where xy = yx, x^p = y^2 = 1, z x^i y^j = x^s y^t z with
    (s, t) = sigma(i, j), and z^2 = sum c x^a y^b over (a, b), c in z2.

    Returns H with its unit, counit 1 on every basis element and generators
    x, y, z, but no Delta or S yet, and idx(i, j, k).
    """
    one = Scalar.one(order)

    def idx(i, j, k):
        return i % p + p * (j % 2) + 2 * p * k

    basis = [(i, j, k) for k in range(2) for j in range(2) for i in range(p)]

    def product(i1, j1, k1, i2, j2, k2):
        if k1 == 0:
            return {idx(i1 + i2, j1 + j2, k2): one}
        s, t = sigma(i2, j2)
        if k2 == 0:
            return {idx(i1 + s, j1 + t, 1): one}
        return {idx(i1 + s + a, j1 + t + b, 0): c for (a, b), c in z2.items()}

    labels = [_monomial_label([("x", i), ("y", j), ("z", k)]) for i, j, k in basis]
    mult = [[product(*e, *f) for f in basis] for e in basis]
    d = 4 * p
    H = HopfAlgebra(order, d, labels, mult, [], {0: one}, [one] * d, [],
                    generators=[idx(1, 0, 0), idx(0, 1, 0), idx(0, 0, 1)])
    return H, idx


def _h8() -> HopfAlgebra:
    """The 8-dimensional noncommutative noncocommutative semisimple algebra.

    Generators x, y, z with x^2 = y^2 = 1, xy = yx, zx = yz, zy = xz and
    z^2 = (1 + x + y - xy)/2.
    """
    one, half = Scalar.one(1), Scalar.from_rational(1, 1, 2)
    H, idx = _abelian_by_z(1, 2, lambda i, j: (j, i),
                           {(0, 0): half, (1, 0): half, (0, 1): half, (1, 1): -half})
    X, Y, Z = H.generators
    YZ, XZ = idx(0, 1, 1), idx(1, 0, 1)
    cop = {X: {(X, X): one}, Y: {(Y, Y): one},
           Z: {(Z, Z): half, (Z, XZ): half, (YZ, Z): half, (YZ, XZ): -half}}
    # S fixes the generators
    return _with_coalgebra(H, cop, {X: {X: one}, Y: {Y: one}, Z: {Z: one}})


def _ha1() -> HopfAlgebra:
    """A 16-dimensional semisimple Hopf algebra over Q(i).

    Generators x, y, z with x^4 = y^2 = z^2 = 1, yx = xy, zx = xyz,
    zy = yz; the coproduct twists z by (1 (x) 1 + 1 (x) x^2 + y (x) 1
    - y (x) x^2)/2.
    """
    one, half = Scalar.one(4), Scalar.from_rational(4, 1, 2)
    H, idx = _abelian_by_z(4, 4, lambda i, j: (i, (i + j) % 2), {(0, 0): one})
    X, Y, Z = H.generators
    X2Z, YZ = idx(2, 0, 1), idx(0, 1, 1)
    cop = {X: {(X, X): one}, Y: {(Y, Y): one},
           Z: {(Z, Z): half, (Z, X2Z): half, (YZ, Z): half, (YZ, X2Z): -half}}
    # S(x) = x^3, S(y) = y, S(z) = (1 + x^2 + y - x^2 y) z / 2
    s_z = {Z: half, X2Z: half, YZ: half, idx(2, 1, 1): -half}
    return _with_coalgebra(H, cop, {X: {idx(3, 0, 0): one}, Y: {Y: one}, Z: s_z})


def _cyclic(n: int) -> HopfAlgebra:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    inv = [(-i) % n for i in range(n)]
    labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    H = group_algebra(table, inv, order=n, labels=labels)
    H.generators = [1 % n]
    return H


# -- problems over them ------------------------------------------------------------

def _diag(*entries: Scalar) -> list:
    zero = Scalar.zero(entries[0].order)
    return [[c if r == s else zero for s in range(len(entries))] for r, c in enumerate(entries)]


def _commutator(i: int, j: int, order: int, sign: int = -1) -> dict:
    one = Scalar.one(order)
    s = one if sign > 0 else -one
    return {(i, j): one, (j, i): s}


def _taft_problem(H: HopfAlgebra, n: int, with_kappa: bool):
    # The action weight on v must equal the commutation parameter of
    # x g = zeta g x, or the module axiom (x g).w = x.(g.w) fails; with
    # g = diag(1, zeta) the relation uv - vu stays stable and the module
    # axiom holds for every n.
    order = H.order
    one = Scalar.one(order)
    zero = Scalar.zero(order)
    zz = nth_root_of_unity(order, n)
    g_mat = _diag(one, zz)                            # g = diag(1, zeta)
    x_mat = [[zero, one], [zero, zero]]               # x: v -> u
    action = action_from_generators(H, 2, {1 * n + 0: g_mat, 0 * n + 1: x_mat})
    B = ModuleAlgebra.make(order, ["u", "v"], [_commutator(0, 1, order)], action)
    kappa = None
    if with_kappa:
        top = (n - 1) * n + (n - 1)                    # g^(n-1) x^(n-1)
        kappa = Kappa.from_vectors(H, B, [{top: one}], [{(0, top): one}])
    return B, kappa


def _sweedler_problem(H: HopfAlgebra, n: int | None, with_kappa: bool):
    # Sweedler's algebra is taft-2 over Q: g = diag(1, -1), x: v -> u
    B, _ = _taft_problem(H, 2, False)
    kappa = None
    if with_kappa:
        # kappa^C(r) = x + gx, kappa^L(r) = u (x) (x + gx)
        one = H.one_scalar()
        kappa = Kappa.from_vectors(H, B, [{1: one, 3: one}], [{(0, 1): one, (0, 3): one}])
    return B, kappa


def _h8_problem(H: HopfAlgebra, n: int | None, with_kappa: bool):
    order = H.order
    one = Scalar.one(order)
    zero = Scalar.zero(order)
    x_mat, y_mat = _diag(-one, one), _diag(one, -one)
    z_mat = [[zero, one], [one, zero]]
    action = action_from_generators(H, 2, {1: x_mat, 2: y_mat, 4: z_mat})
    # relation u^2 + v^2
    rel = {(0, 0): one, (1, 1): one}
    B = ModuleAlgebra.make(order, ["u", "v"], [rel], action)
    kappa = None
    if with_kappa:
        # kappa^C(r) = z + xyz
        kappa = Kappa.from_vectors(H, B, [{4: one, 7: one}], [dict()])
    return B, kappa


def _ha1_problem(H: HopfAlgebra, n: int | None, with_kappa: bool):
    order = H.order
    one = Scalar.one(order)
    zero = Scalar.zero(order)
    i_ = zeta(order)                                  # primitive fourth root
    x_mat, y_mat = _diag(i_, -i_, one, -one), _diag(-one, -one, -one, -one)
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
    return B, kappa


def _cbh_cyclic_problem(H: HopfAlgebra, n: int, with_kappa: bool):
    order = H.order
    one = Scalar.one(order)
    zz = nth_root_of_unity(order, n)
    g_mat = _diag(zz, zz.inverse())                   # det = 1
    action = action_from_generators(H, 2, {1 % n: g_mat})
    B = ModuleAlgebra.make(order, ["u", "v"], [_commutator(0, 1, order)], action)
    kappa = None
    if with_kappa:
        kappa = Kappa.from_vectors(H, B, [{0: one}], [dict()])
    return B, kappa


# -- the catalogue -------------------------------------------------------------------

class _Preset(NamedTuple):
    name: str                       # the problem name, before "-n" for an indexed preset
    indices: range | None           # the indices n the loader accepts; None: no index
    hopf: Callable                  # n -> HopfAlgebra
    problem: Callable               # (H, n, with_kappa) -> (ModuleAlgebra, Kappa | None)


# keyed by base name; a taft-n document has hopf.dim n^2, a cyclic-n one
# cyclotomic_order n, and the loader refuses either above its bound
_CATALOGUE = {
    "sweedler": _Preset("sweedler", None, lambda n: _taft(2, 1), _sweedler_problem),
    "taft": _Preset("taft", range(2, isqrt(MAX_HOPF_DIM) + 1), lambda n: _taft(n, n), _taft_problem),
    "h8": _Preset("h8", None, lambda n: _h8(), _h8_problem),
    "ha1": _Preset("ha1", None, lambda n: _ha1(), _ha1_problem),
    "cyclic": _Preset("cbh-cyclic", range(1, MAX_CYCLOTOMIC_ORDER + 1), _cyclic, _cbh_cyclic_problem),
}
_ALIASES = {"cbh-cyclic": "cyclic", "cbh": "cyclic"}

PRESET_NAMES = tuple(p.name + ("" if p.indices is None else "-n") for p in _CATALOGUE.values())


def parse_preset_name(name: str) -> tuple[str, int | None]:
    """(base name, index) of a preset name; UnknownPreset for an unknown
    base, a missing or superfluous index, or an index out of range."""
    base = name.lower().replace("(", "-").replace(")", "")
    if base.endswith("-"):
        base = base[:-1]
    n = None
    head, _, tail = base.rpartition("-")
    if head and tail.isdecimal():
        base, n = head, int(tail)
    base = _ALIASES.get(base, base)
    entry = _CATALOGUE.get(base)
    if entry is None:
        raise UnknownPreset(f"unknown preset {name!r}")
    if entry.indices is None and n is not None:
        raise UnknownPreset(f"preset {base} takes no index")
    if entry.indices is not None and n not in entry.indices:
        raise UnknownPreset(f"{entry.name}-n needs an index n in {entry.indices[0]}.."
                            f"{entry.indices[-1]}, e.g. {entry.name}-3")
    return base, n


def preset_hopf(name: str) -> HopfAlgebra:
    """The Hopf algebra of a preset: sweedler, taft-n, h8, ha1, cyclic-n."""
    base, n = parse_preset_name(name)
    return _CATALOGUE[base].hopf(n)


def build_problem(name: str, with_kappa: bool = False) -> Problem:
    base, n = parse_preset_name(name)
    entry = _CATALOGUE[base]
    H = entry.hopf(n)
    B, kappa = entry.problem(H, n, with_kappa)
    return Problem(entry.name if n is None else f"{entry.name}-{n}", H, B, kappa)
