"""Deformation maps and the PBW deformation criterion.

A deformation map kappa sends each canonical relation r_a of B to a
constant part in H and a linear part in V (x) H.  The filtered quotient of
T(V) # H by the elements r - kappa(r) is a PBW deformation of B # H
exactly when

  (a) kappa is H-invariant under the adjoint actions,

and, whenever the degree-3 overlap space (I (x) V) cap (V (x) I) is
nonzero, for the maps kC = kappa^C, kL = kappa^L on that space:

  (b) Im(kL (x) id - id (x) kL) lies in I,
  (c) kL o (kL (x) id - id (x) kL) = -(kC (x) id - id (x) kC),
  (d) kC o (id (x) kL - kL (x) id) = 0.

All comparisons happen in the right-normal form of the smash product:
H-legs are straightened to the right, so "lies in I" concretely means
"lies in I (x) H after straightening".

Conditions (a) and (b), and the overlap mismatches deltaL and deltaC that
(b)-(d) compare, are linear in the entries of kappa.  They are written
once, as one sparse matrix with a column per coordinate of kappa
(``_Columns``).  The checker sums kappa's entries times their columns, so
it touches kappa's support only; the solver reads the columns as rows and
computes the joint kernel of (a) and (b) exactly, then expands (c) and (d)
on that space.  It presolves as it goes: over a field, a row with one
nonzero entry c x_u forces x_u = 0, so the solver builds the rows one
generator at a time, drops every unknown that such a row forces to zero
from the live set and from every row, and builds no more columns for it
(``solve_kappa``).  The quadratic coefficient tensors vanish in every bundled
problem (the linear part of the solution space is zero, or the overlap
space is), so the residual constraints are linear and the solver reports
the final family; otherwise it returns the residual polynomial system
symbolically.  The tables that depend on H or B alone are read off the
objects, which derive each once: the generating set of H that (a) is
imposed on, and B's ``overlap_expansions``, the degree-3 overlap space
with both expansions of each basis element.

Deformation maps are sparse throughout: ``Kappa`` keeps one dict per
relation for each part, {h: Scalar} for kappa^C and {(v, h): Scalar} for
kappa^L.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial

from .scalar import Scalar
from .exactla import Subspace, NotMember, sparse_kernel
from .hopf import (HopfAlgebra, Lazy, _fmt_tensor, add_into, adjoint_on_H, algebra_generators,
                   format_hvec)
from .modalg import ModuleAlgebra, act_on_tensor, reduce_mod_relations, reduce_slices
from .smash import straighten, adjoint_on_VH


class DeformError(Exception):
    pass


class NotInD3(DeformError):
    """Argument is outside the degree-3 overlap space."""


def _nonzero(vec: dict) -> dict:
    return {k: c for k, c in vec.items() if not c.is_zero()}


@dataclass
class Kappa:
    """Coefficients of a deformation map on the canonical relation basis.

    Both parts are stored sparse, one dict per relation r_a, and zero
    entries are never stored: ``constant[a]`` maps an H-basis index h to
    the coefficient of h in kappa^C(r_a), and ``linear[a]`` maps a pair
    (v, h) to the coefficient of v (x) h in kappa^L(r_a).
    """

    order: int
    constant: list[dict]
    linear: list[dict]

    @staticmethod
    def zero(H: HopfAlgebra, B: ModuleAlgebra) -> "Kappa":
        p = B.dim_relations()
        return Kappa(H.order, [{} for _ in range(p)], [{} for _ in range(p)])

    @staticmethod
    def from_vectors(H: HopfAlgebra, B: ModuleAlgebra,
                     cvecs: list[dict], lvecs: list[dict]) -> "Kappa":
        """Build from per-relation sparse images: cvecs[a] over H indices,
        lvecs[a] over (v, h) pairs."""
        p = B.dim_relations()
        if len(cvecs) != p or len(lvecs) != p:
            raise DeformError(f"kappa needs one row per canonical relation ({p}), "
                              f"got {len(cvecs)} constant and {len(lvecs)} linear")
        return Kappa(H.order, [_nonzero(v or {}) for v in cvecs],
                     [_nonzero(v or {}) for v in lvecs])

    def c_vec(self, a: int) -> dict:
        """kappa^C(r_a) as {h: Scalar}; the stored dict, read-only."""
        return self.constant[a]

    def l_vec(self, a: int) -> dict:
        """kappa^L(r_a) as {(v, h): Scalar}; the stored dict, read-only."""
        return self.linear[a]

    def scale(self, c: Scalar) -> "Kappa":
        return Kappa(self.order, [_nonzero({k: e * c for k, e in row.items()}) for row in self.constant],
                     [_nonzero({k: e * c for k, e in row.items()}) for row in self.linear])

    def add(self, other: "Kappa") -> "Kappa":
        def merge(x: dict, y: dict) -> dict:
            out = dict(x)
            for k, c in y.items():
                add_into(out, k, c)
            return out
        return Kappa(self.order, [merge(x, y) for x, y in zip(self.constant, other.constant)],
                     [merge(x, y) for x, y in zip(self.linear, other.linear)])


@dataclass
class ConditionStatus:
    status: str                      # "pass" | "fail" | "vacuous" | "blocked"
    witnesses: list = dc_field(default_factory=list)


@dataclass
class ConditionReport:
    conditions: dict = dc_field(default_factory=dict)   # name -> ConditionStatus
    notes: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(st.status in ("pass", "vacuous") for st in self.conditions.values())

    def status(self, name: str) -> str:
        return self.conditions[name].status


@dataclass
class ResidualPoly:
    """One scalar constraint sum q_ij t_i t_j + sum l_i t_i = 0 on the
    family coordinates."""

    quad: dict                      # {(i, j): Scalar}, i <= j
    lin: dict                       # {i: Scalar}
    label: str = ""

    def render(self) -> str:
        parts = []
        for (i, j) in sorted(self.quad):
            c = self.quad[(i, j)]
            mon = f"t{i + 1}^2" if i == j else f"t{i + 1}*t{j + 1}"
            parts.append(f"({c})*{mon}")
        for i in sorted(self.lin):
            parts.append(f"({self.lin[i]})*t{i + 1}")
        return (" + ".join(parts) if parts else "0") + " = 0"


@dataclass
class KappaFamily:
    """Solution family of the deformation conditions.

    ``linear_basis`` spans the family cut out by all linear constraints:
    when the residual system vanishes or linearizes this is the final
    family (dimension ``family_dim``); otherwise ``family_dim`` is None
    and ``residual_system`` holds the remaining polynomial constraints on
    the coordinates of ``linear_basis``.  ``ab_basis`` is the intermediate
    solution space of conditions (a) and (b) alone.
    """

    linear_basis: list              # list[Kappa]
    residual_system: list           # list[ResidualPoly]
    family_dim: int | None
    ab_basis: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)


# -- coordinate plumbing -------------------------------------------------------

def rel_coords(B: ModuleAlgebra, t: dict) -> list[Scalar]:
    """Coordinates of a degree-2 tensor in the canonical relation basis;
    raises NotMember when it lies outside I."""
    coords, rem = reduce_mod_relations(B, t)
    if rem:
        raise NotMember("vector is not in the subspace")
    zero = Scalar.zero(B.order)
    return [coords.get(a, zero) for a in range(B.dim_relations())]


def expand_left(B: ModuleAlgebra, s: dict) -> list[dict]:
    """Write s in I (x) V as sum_a r_a (x) y_a; returns the y_a as sparse
    V-vectors.  Unique because the relation basis is independent, and
    I (x) V is the direct sum of the slices I (x) w over the last letter w."""
    ys, rem = reduce_slices(B, s, 2)
    if rem:
        raise NotInD3("tensor does not lie in I (x) V")
    return ys


def expand_right(B: ModuleAlgebra, s: dict) -> list[dict]:
    """Write s in V (x) I as sum_a z_a (x) r_a; returns the z_a."""
    zs, rem = reduce_slices(B, s, 0)
    if rem:
        raise NotInD3("tensor does not lie in V (x) I")
    return zs


def _overlap_expansions(B: ModuleAlgebra) -> tuple[list, list]:
    """B's ``overlap_expansions`` and the report notes."""
    expansions = B.overlap_expansions
    notes = []
    if expansions and B.vdim < 3:
        notes.append("overlap space is nonzero although dim V < 3; "
                     "overlap conditions are applied regardless")
    return expansions, notes


# -- conditions (a) and (b): one matrix ----------------------------------------

def _adjoint_image(H: HopfAlgebra, key: tuple) -> dict:
    """ad(e_i)(e_k) for key (i, k)."""
    i, k = key
    return adjoint_on_H(H, H.basis_vec(i), H.basis_vec(k))


def _adjoint_image_vh(H: HopfAlgebra, B: ModuleAlgebra, on_h: Lazy, key: tuple) -> dict:
    """e_i . (v (x) e_h) for key (i, (v, h)), its H-legs read off ``on_h``."""
    i, k = key
    return adjoint_on_VH(H, B, H.basis_vec(i), {k: H.one_scalar()}, lambda a, l: on_h[a, l])


def _relabelled(H: HopfAlgebra, B: ModuleAlgebra, i: int) -> dict:
    """{a: {b: coefficient of r_a in e_i . r_b}}."""
    rel: dict = {}
    for b in range(B.dim_relations()):
        img = act_on_tensor(H, B, H.basis_vec(i), B.relation_sparse(b))
        for q, c in enumerate(rel_coords(B, img)):
            if c:
                rel.setdefault(q, {})[b] = c
    return rel


def _overlap_leg(H: HopfAlgebra, B: ModuleAlgebra, expansions, key: tuple) -> dict:
    """straighten(e_h, y_a) for key (t, a, h), y_a the left expansion's
    V-leg of r_a at the overlap element s_t."""
    t, a, h = key
    ys = expansions[t][0]
    return straighten(H, B, {h: H.one_scalar()}, {(w,): c for w, c in ys[a].items()})


class _Columns:
    """Condition (a) and the overlap mismatches as one sparse matrix with a
    column per coordinate of kappa, built on demand for one call.  The
    checker builds the columns of kappa's support.  The solver builds a
    generator's columns, and then the overlap columns, for the coordinates
    that are still live; it skips every coordinate that an earlier
    generator's one-entry row forced to zero (``solve_kappa``).

    A coordinate u = (a, k) is the coefficient of k in kappa(r_a), with
    k = h for kappa^C and k = (v, h) for kappa^L.  Both conditions are
    linear in kappa: ``_at`` sums kappa's entries times their columns, and
    ``solve_kappa`` takes the kernel of the columns read as rows.

    - ``invariance(i, u)`` is u's share of (a) under e_i: under (b, 0, k')
      of the adjoint half e_i . kappa(r_b), under (b, 1, k') of the
      relabelled half kappa(e_i . r_b).
    - ``overlap(u)`` is u's share of the mismatches at the overlap elements
      s_t = sum_a r_a (x) y_a = sum_a z_a (x) r_a of ``expansions``: under
      (t, (v1, v2, h)) of deltaL, under (t, (v, h)) of deltaC.  Condition
      (b) asks that each deltaL lie in I (x) H.

    Each entry the columns read is made once, on its first read, in a
    ``Lazy`` table: the adjoint images of the units of H (``on_h``) and of
    V (x) H (``on_vh``, which reads its H-legs off ``on_h``), the
    coordinates of each e_i . r_b (``relabel``) and each
    straighten(e_h, y_a) (``legs``).  Each make function holds H, B, the
    expansions or another table, never the columns: a table whose make
    function held its owner would keep the owner alive until the garbage
    collector ran.
    """

    def __init__(self, H: HopfAlgebra, B: ModuleAlgebra, expansions=()):
        self.H, self.B, self.expansions = H, B, expansions
        self.one = Scalar.one(H.order)
        self.on_h = Lazy(partial(_adjoint_image, H))
        self.on_vh = Lazy(partial(_adjoint_image_vh, H, B, self.on_h))
        self.relabel = Lazy(partial(_relabelled, H, B))
        self.legs = Lazy(partial(_overlap_leg, H, B, expansions))

    def invariance(self, i: int, u: tuple) -> dict:
        a, k = u
        images = self.on_h if type(k) is int else self.on_vh
        col = {(a, 0, key): c for key, c in images[i, k].items()}
        col.update(((b, 1, k), c) for b, c in self.relabel[i].get(a, {}).items())
        return col

    def overlap(self, u: tuple) -> dict:
        a, k = u
        v_leg, h = ((), k) if type(k) is int else ((k[0],), k[1])
        col: dict = {}
        for t, (ys, zs) in enumerate(self.expansions):
            if ys[a]:
                for (word, h2), c in self.legs[t, a, h].items():
                    add_into(col, (t, v_leg + (word[0], h2)), c)
            for zv, cz in zs[a].items():
                add_into(col, (t, (zv,) + v_leg + (h,)), -cz)
        return col


def _at(kappa: Kappa, column) -> dict:
    """The sum of kappa's entries times their columns ``column(u)``."""
    out: dict = {}
    for part in (kappa.constant, kappa.linear):
        for a, row in enumerate(part):
            for k, c in row.items():
                for key, x in column((a, k)).items():
                    add_into(out, key, c * x)
    return out


def _mismatches(cols: _Columns, kappa: Kappa) -> list[tuple[dict, dict]]:
    """(deltaL, deltaC) of kappa at each overlap element of ``cols``."""
    out = [({}, {}) for _ in cols.expansions]
    for (t, key), c in _at(kappa, cols.overlap).items():
        out[t][len(key) == 2][key] = c      # deltaC's keys (v, h) have two legs
    return out


# -- the overlap maps ----------------------------------------------------------

def overlap_maps(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa, s: dict) -> tuple[dict, dict]:
    """The straightened mismatch of kappa across a degree-3 overlap element.

    Returns (deltaL, deltaC): deltaL is a sparse vector over (v1, v2, h)
    keys in V (x) V (x) H, deltaC over (v, h) keys in V (x) H.  Raises
    NotInD3 when s is outside (I (x) V) cap (V (x) I), that is, when one
    of its two expansions does not exist.
    """
    return _mismatches(_Columns(H, B, [(expand_left(B, s), expand_right(B, s))]), kappa)[0]


def _apply_kl_ext(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa, coords: list) -> dict:
    """kappa^L extended to I (x) H: apply on the relation leg, multiply H legs."""
    out: dict = {}
    for a, row in enumerate(coords):
        for h, c in row.items():
            for (v, h1), cl in kappa.l_vec(a).items():
                for h2, cm in H.mult[h1][h].items():
                    add_into(out, (v, h2), c * cl * cm)
    return out


def _apply_kc_ext(H: HopfAlgebra, kappa: Kappa, coords: list) -> dict:
    """-kappa^C extended to I (x) H: the left side of (d) on deltaL's coordinates."""
    out: dict = {}
    for a, row in enumerate(coords):
        for h, c in row.items():
            for h1, cc in kappa.c_vec(a).items():
                for h2, cm in H.mult[h1][h].items():
                    add_into(out, h2, -c * cc * cm)
    return out


# -- condition checks ----------------------------------------------------------

def _invariance_witnesses(cols: _Columns, kappa: Kappa, i: int) -> list:
    """The witnesses of condition (a) for the basis element e_i, one per
    relation r with e_i . kappa(r) != kappa(e_i . r)."""
    H, B = cols.H, cols.B
    sides: dict = {}     # (b, half) -> (part in H, part in V (x) H)
    for (b, half, k), c in _at(kappa, lambda u: cols.invariance(i, u)).items():
        sides.setdefault((b, half), ({}, {}))[type(k) is tuple][k] = c
    out = []
    for b in range(B.dim_relations()):
        (lhs_c, lhs_l), (rhs_c, rhs_l) = (sides.get((b, half), ({}, {})) for half in (0, 1))
        if lhs_c != rhs_c or lhs_l != rhs_l:
            out.append({
                "h": H.labels[i], "relation": b,
                "lhs": f"{format_hvec(H, lhs_c)} ; {_fmt_tensor(lhs_l, B.vlabels, H.labels)}",
                "rhs": f"{format_hvec(H, rhs_c)} ; {_fmt_tensor(rhs_l, B.vlabels, H.labels)}",
            })
    return out


def check_invariance(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa) -> ConditionReport:
    """Condition (a): h . kappa(r) = kappa(h . r) for all basis h and
    canonical relations r, in H + (V (x) H).

    H and the action must already pass ``validate_hopf`` and
    ``validate_action`` (``cli.problem_from_json`` guarantees both).  Then
    the elements under which kappa is invariant form a unital subalgebra
    (see ``hopf``), so (a) holds once it holds on ``algebra_generators(H)``.
    Only when a generator fails is every basis element tried, in order, so
    the witnesses name every failing (h, r) as the exhaustive loop would.
    """
    cols = _Columns(H, B)
    found = {i: _invariance_witnesses(cols, kappa, i) for i in algebra_generators(H)}
    st = ConditionStatus("pass")
    if any(found.values()):
        st.status = "fail"
        for i in range(H.dim):
            wit = found[i] if i in found else _invariance_witnesses(cols, kappa, i)
            st.witnesses.extend(wit)
    return ConditionReport({"a": st})


def check_overlap(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa) -> ConditionReport:
    """Conditions (b), (c), (d) on a basis of the degree-3 overlap space.

    Vacuous when the overlap space is zero.  When (b) fails, deltaL cannot
    be fed to kappa again, so (c) and (d) are reported as blocked.
    """
    expansions, notes = _overlap_expansions(B)
    if not expansions:
        return ConditionReport({k: ConditionStatus("vacuous") for k in ("b", "c", "d")})
    stb, stc, std = (ConditionStatus("pass") for _ in "bcd")
    for t_idx, (deltaL, deltaC) in enumerate(_mismatches(_Columns(H, B, expansions), kappa)):
        coords, rem = reduce_slices(B, deltaL, 2)
        if rem:
            stb.status = "fail"
            stb.witnesses.append({"overlap_index": t_idx,
                                  "value": "image of kL (x) id - id (x) kL not inside I"})
            continue
        lhs_c = _apply_kl_ext(H, B, kappa, coords)
        for k, c in deltaC.items():
            add_into(lhs_c, k, c)
        if lhs_c:
            stc.status = "fail"
            stc.witnesses.append({"overlap_index": t_idx,
                                  "value": _fmt_tensor(lhs_c, B.vlabels, H.labels)})
        lhs_d = _apply_kc_ext(H, kappa, coords)
        if lhs_d:
            std.status = "fail"
            std.witnesses.append({"overlap_index": t_idx, "value": format_hvec(H, lhs_d)})
    if stb.status == "fail":
        stc = ConditionStatus("blocked", [{"reason": "condition (b) failed"}])
        std = ConditionStatus("blocked", [{"reason": "condition (b) failed"}])
    return ConditionReport({"b": stb, "c": stc, "d": std}, notes)


def check_pbw(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa) -> ConditionReport:
    """All four conditions; overall pass iff every non-vacuous condition passes."""
    rep_a = check_invariance(H, B, kappa)
    rep_bcd = check_overlap(H, B, kappa)
    conds = dict(rep_a.conditions)
    conds.update(rep_bcd.conditions)
    return ConditionReport(conds, rep_a.notes + rep_bcd.notes)


# -- the solver ----------------------------------------------------------------

def _ab_kernel(cols: _Columns, unknowns: list) -> tuple:
    """Stage 1 of ``solve_kappa``: the canonical basis of the joint kernel
    of (a) and (b) over ``unknowns``, presolved block by block."""
    H, B = cols.H, cols.B
    n, vd = len(unknowns), B.vdim
    # every column read as a row entry.  (a) is the adjoint half minus the
    # relabelled half; (b) is the remainder of deltaL modulo I (x) H, which
    # kappa^C does not enter
    words = {(v1, v2, (v1, v2)): cols.one for v1 in range(vd) for v2 in range(vd)}
    rem_map: dict = {}      # word of V (x) V -> [(word, coefficient of its remainder mod I)]
    for (w, out), c in reduce_slices(B, words, 2)[1].items():
        rem_map.setdefault(w, []).append((out, c))
    rows: dict = {}         # row key -> {unknown j: coefficient}
    where: dict = {}        # unknown j -> the keys of the rows that j enters
    dead: set = set()       # the unknowns that a one-entry row forced to zero

    def presolve(block: dict) -> None:
        rows.update(block)
        for key, row in block.items():
            for j in row:
                where.setdefault(j, []).append(key)
        todo = list(block)      # the new rows, then each row that loses an entry
        while todo:
            row = rows[todo.pop()]
            if len(row) == 1:
                (j,) = row
                dead.add(j)
                for key in where.pop(j):
                    other = rows[key]
                    del other[j]
                    if len(other) == 1:
                        todo.append(key)

    one = cols.one
    for i in sorted(algebra_generators(H), key=lambda i: H.comult[i] != {(i, i): one}):
        block: dict = {}
        for j, u in enumerate(unknowns):
            if j not in dead:
                for (b, half, k), c in cols.invariance(i, u).items():
                    add_into(block.setdefault(("a", i, b, k), {}), j, -c if half else c)
        presolve(block)
    block = {}
    for j, u in enumerate(unknowns):
        if j not in dead and type(u[1]) is tuple:
            for (t, (v1, v2, h)), c in cols.overlap(u).items():
                for w, r in rem_map.get((v1, v2), ()):
                    add_into(block.setdefault(("b", t, h, w), {}), j, c * r)
    presolve(block)
    live = [j for j in range(n) if j not in dead]
    at = {j: col for col, j in enumerate(live)}
    kernel = sparse_kernel([{at[j]: c for j, c in r.items()} for r in rows.values() if r],
                           len(live), H.order)
    return Subspace.from_sparse(n, [{live[col]: c for col, c in v.items()} for v in kernel],
                                H.order).rows


def solve_kappa(H: HopfAlgebra, B: ModuleAlgebra, force_linear_zero: bool = False) -> KappaFamily:
    """Solve for the full family of deformation maps passing all conditions.

    Stage 1 computes the exact kernel of the stacked linear conditions (a)
    and (b).  Stage 2 expands (c) and (d) on that space: if every
    quadratic coefficient vanishes (in particular whenever the linear
    block of the stage-1 space is zero) the residual constraints are
    linear and the final family is reported; otherwise the residual
    polynomial system is returned symbolically with family_dim None.

    With force_linear_zero the linear part of kappa is excluded from the
    unknowns entirely.

    H and the action must already pass ``validate_hopf`` and
    ``validate_action``: condition (a) is imposed for the generators
    ``algebra_generators(H)`` only.  The elements under which kappa is
    invariant form a unital subalgebra, so this is the same kernel as
    imposing it for every basis element (see ``hopf``).

    Stage 1 presolves as it builds the rows, one block per generator and
    then the block of (b).  It rests on one lemma:

        Over a field, a row whose only nonzero entry is c x_u (c != 0)
        holds exactly when x_u = 0.  So the kernel of the rows is the
        kernel of the other rows with x_u = 0, that is, with u's entries
        deleted from them and u's coordinate set to zero.

    So after each block, an unknown that some row holds alone is dropped
    from the live set and from every row, and each row that this leaves
    with one entry drops its unknown in turn, until no row has one entry;
    only the new rows and the rows that lost an entry are scanned.  The
    next block is built for the live unknowns only: a dropped unknown is
    zero in every solution, so its columns add nothing.  The kernel of the
    rows left is taken over the live columns and lifted back with zeros at
    the dropped ones.  It is the kernel of the whole system, and
    ``Subspace.from_sparse`` is canonical, so the basis does not depend on
    the order of the blocks.  The group-like generators (Delta(e_g) =
    e_g (x) e_g) come first, because in the bundled bases their rows are
    mostly singletons: g drops 216 of taft-9's 243 unknowns, and ha1's two
    group-like generators drop 424 of its 480.
    """
    d, vd, p = H.dim, B.vdim, B.dim_relations()
    unknowns = [(a, h) for a in range(p) for h in range(d)]
    if not force_linear_zero:
        unknowns += [(a, (v, h)) for a in range(p) for v in range(vd) for h in range(d)]
    n = len(unknowns)
    expansions, notes = _overlap_expansions(B)
    cols = _Columns(H, B, expansions)
    kernel_vecs = _ab_kernel(cols, unknowns)

    def vec_to_kappa(vec: dict) -> Kappa:
        kp = Kappa.zero(H, B)
        for col, c in vec.items():
            a, k = unknowns[col]
            (kp.constant if type(k) is int else kp.linear)[a][k] = c
        return kp

    ab_basis = [vec_to_kappa(v) for v in kernel_vecs]
    k = len(ab_basis)

    if not expansions or k == 0:
        return KappaFamily(list(ab_basis), [], k, ab_basis, notes)

    # stage 2: expand (c) and (d) on the stage-1 space
    per_member = []
    for kp in ab_basis:
        data = [(*reduce_slices(B, dl, 2), dc) for dl, dc in _mismatches(cols, kp)]
        assert not any(rem for _coords, rem, _dc in data), "stage-1 member violates condition (b)"
        per_member.append(data)

    quad_c: dict = {}
    quad_d: dict = {}
    for i in range(k):
        for j in range(k):
            for t_idx in range(len(expansions)):
                coords_j = per_member[j][t_idx][0]
                vimg = _apply_kl_ext(H, B, ab_basis[i], coords_j)
                himg = _apply_kc_ext(H, ab_basis[i], coords_j)
                key = (min(i, j), max(i, j))
                for kk, c in vimg.items():
                    add_into(quad_c.setdefault((t_idx, kk), {}), key, c)
                for kk, c in himg.items():
                    add_into(quad_d.setdefault((t_idx, kk), {}), key, c)
    quad_c = {kk: cell for kk, cell in quad_c.items() if cell}
    quad_d = {kk: cell for kk, cell in quad_d.items() if cell}

    lin_rows: dict = {}
    for i in range(k):
        for t_idx in range(len(expansions)):
            for kk, c in per_member[i][t_idx][2].items():
                lin_rows.setdefault((t_idx, kk), {})[i] = c

    if not quad_c and not quad_d:
        t_rows = [dict(r) for r in lin_rows.values() if r]
        final_vecs = []
        for tv in sparse_kernel(t_rows, k, H.order):
            vec: dict = {}
            for i, c in tv.items():
                for col, s in kernel_vecs[i].items():
                    add_into(vec, col, c * s)
            final_vecs.append(vec)
        final = [vec_to_kappa(v) for v in Subspace.from_sparse(n, final_vecs, H.order).rows]
        return KappaFamily(final, [], len(final), ab_basis, notes)

    residual = []
    for key in sorted(set(quad_c) | set(lin_rows)):
        q = quad_c.get(key, {})
        l = lin_rows.get(key, {})
        if q or l:
            residual.append(ResidualPoly(dict(q), dict(l), label=f"(c)@{key}"))
    for key in sorted(quad_d):
        residual.append(ResidualPoly(dict(quad_d[key]), {}, label=f"(d)@{key}"))
    return KappaFamily(list(ab_basis), residual, None, ab_basis, notes)


def kappa_block_dims(B: ModuleAlgebra, H: HopfAlgebra, basis: list[Kappa]) -> list[tuple[int, int]]:
    """Per-relation (constant, linear) block dimensions of a kappa family."""
    d = H.dim
    out = []
    for a in range(B.dim_relations()):
        crows = [kp.constant[a] for kp in basis]
        lrows = [{v * d + h: c for (v, h), c in kp.linear[a].items()} for kp in basis]
        out.append((Subspace.from_sparse(d, crows, H.order).dim,
                    Subspace.from_sparse(B.vdim * d, lrows, H.order).dim))
    return out
