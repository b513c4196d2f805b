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

Conditions (a) and (b) are linear in the entries of kappa; the solver
computes their joint kernel exactly, then expands (c) and (d) on that
space.  The quadratic coefficient tensors vanish in every bundled problem
(the linear part of the solution space is zero, or the overlap space is),
so the residual constraints are linear and the solver reports the final
family; otherwise it returns the residual polynomial system symbolically.

Deformation maps are sparse throughout: ``Kappa`` keeps one dict per
relation for each part, {h: Scalar} for kappa^C and {(v, h): Scalar} for
kappa^L, and the overlap expansions and all four conditions read those
dicts directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .scalar import Scalar
from .exactla import Subspace, NotMember, sparse_kernel
from .hopf import HopfAlgebra, _fmt_tensor, add_into, adjoint_on_H, algebra_generators, format_hvec
from .modalg import ModuleAlgebra, act_on_tensor, koszul_component, reduce_mod_relations
from .smash import AdjointVH, straighten, adjoint_on_VH


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
    V-vectors.  Unique because the relation basis is independent."""
    return _expand(B, s, left=True)


def expand_right(B: ModuleAlgebra, s: dict) -> list[dict]:
    """Write s in V (x) I as sum_a z_a (x) r_a; returns the z_a."""
    return _expand(B, s, left=False)


def _expand(B: ModuleAlgebra, s: dict, left: bool) -> list[dict]:
    """I (x) V is the direct sum of the slices I (x) w, so y_a[w] is the
    coordinate of r_a in the slice of s at last letter w (at first letter
    w for V (x) I)."""
    slices: dict = {}
    for (w1, w2, w3), c in s.items():
        if left:
            slices.setdefault(w3, {})[(w1, w2)] = c
        else:
            slices.setdefault(w1, {})[(w2, w3)] = c
    out: list[dict] = [{} for _ in range(B.dim_relations())]
    for w in sorted(slices):
        coords, rem = reduce_mod_relations(B, slices[w])
        if rem:
            raise NotInD3("tensor does not lie in the required side: vector is not in the subspace")
        for a, c in coords.items():
            out[a][w] = c
    return out


def _overlap_expansions(B: ModuleAlgebra) -> tuple[list, list]:
    """Both expansions (expand_left, expand_right) of each canonical basis
    element of the degree-3 overlap space, and the report notes."""
    vd = B.vdim
    D3 = koszul_component(B, 3)
    notes = []
    if D3.dim and vd < 3:
        notes.append("overlap space is nonzero although dim V < 3; "
                     "overlap conditions are applied regardless")
    expansions = []
    for row in D3.rows:
        s = {(c // (vd * vd), (c // vd) % vd, c % vd): x for c, x in row.items()}
        expansions.append((expand_left(B, s), expand_right(B, s)))
    return expansions, notes


# -- the overlap maps ----------------------------------------------------------

def overlap_maps(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa, s: dict) -> tuple[dict, dict]:
    """The straightened mismatch of kappa across a degree-3 overlap element.

    Returns (deltaL, deltaC): deltaL is a sparse vector over (v1, v2, h)
    keys in V (x) V (x) H, deltaC over (v, h) keys in V (x) H.  Raises
    NotInD3 when s is outside (I (x) V) cap (V (x) I), that is, when one
    of its two expansions does not exist.
    """
    return _overlap_from_expansions(H, B, kappa, expand_left(B, s), expand_right(B, s))


def _overlap_from_expansions(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa,
                             ys: list[dict], zs: list[dict]) -> tuple[dict, dict]:
    deltaL: dict = {}
    deltaC: dict = {}
    for a in range(B.dim_relations()):
        y, z = ys[a], zs[a]
        kc = kappa.c_vec(a)
        kl = kappa.l_vec(a)
        if y:
            t = {(vi,): c for vi, c in y.items()}
            if kc:
                for (word, h2), c in straighten(H, B, kc, t).items():
                    add_into(deltaC, (word[0], h2), c)
            for (v, h), cl in kl.items():
                for (word, h2), c in straighten(H, B, {h: Scalar.one(H.order)}, t).items():
                    add_into(deltaL, (v, word[0], h2), cl * c)
        if z:
            for zv, cz in z.items():
                for i, c in kc.items():
                    add_into(deltaC, (zv, i), -(cz * c))
                for (v, h), cl in kl.items():
                    add_into(deltaL, (zv, v, h), -(cz * cl))
    return deltaL, deltaC


def _deltaL_rel_coords(B: ModuleAlgebra, deltaL: dict) -> dict | None:
    """Express deltaL in I (x) H: {(a, h): Scalar}, or None if outside."""
    by_h: dict = {}
    for (v1, v2, h), c in deltaL.items():
        by_h.setdefault(h, {})[(v1, v2)] = c
    out: dict = {}
    for h, t in by_h.items():
        coords, rem = reduce_mod_relations(B, t)
        if rem:
            return None
        out.update(((a, h), c) for a, c in coords.items())
    return out


def _apply_kl_ext(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa, coords: dict) -> dict:
    """kappa^L extended to I (x) H: apply on the relation leg, multiply H legs."""
    out: dict = {}
    for (a, h), c in coords.items():
        for (v, h1), cl in kappa.l_vec(a).items():
            for h2, cm in H.mult[h1][h].items():
                add_into(out, (v, h2), c * cl * cm)
    return out


def _apply_kc_ext(H: HopfAlgebra, kappa: Kappa, coords: dict) -> dict:
    out: dict = {}
    for (a, h), c in coords.items():
        for h1, cc in kappa.c_vec(a).items():
            for h2, cm in H.mult[h1][h].items():
                add_into(out, h2, c * cc * cm)
    return out


# -- condition checks ----------------------------------------------------------

def _invariance_witnesses(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa, i: int) -> list:
    """The witnesses of condition (a) for the basis element e_i, one per
    relation r with e_i . kappa(r) != kappa(e_i . r)."""
    ei = H.basis_vec(i)
    adj = AdjointVH(H, B, ei)
    out = []
    for a in range(B.dim_relations()):
        lhs_c = adjoint_on_H(H, ei, kappa.c_vec(a))
        lhs_l = adjoint_on_VH(H, B, ei, kappa.l_vec(a), adj)
        img = act_on_tensor(H, B, ei, B.relation_sparse(a))
        coords = rel_coords(B, img)
        rhs_c: dict = {}
        rhs_l: dict = {}
        for q, c in enumerate(coords):
            if c.is_zero():
                continue
            for idx, cc in kappa.c_vec(q).items():
                add_into(rhs_c, idx, c * cc)
            for key, cc in kappa.l_vec(q).items():
                add_into(rhs_l, key, c * cc)
        diff_c = dict(lhs_c)
        for k, c in rhs_c.items():
            add_into(diff_c, k, -c)
        diff_l = dict(lhs_l)
        for k, c in rhs_l.items():
            add_into(diff_l, k, -c)
        if diff_c or diff_l:
            out.append({
                "h": H.labels[i], "relation": a,
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
    found = {i: _invariance_witnesses(H, B, kappa, i) for i in algebra_generators(H)}
    st = ConditionStatus("pass")
    if any(found.values()):
        st.status = "fail"
        for i in range(H.dim):
            wit = found[i] if i in found else _invariance_witnesses(H, B, kappa, i)
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
    stb = ConditionStatus("pass")
    stc = ConditionStatus("pass")
    std = ConditionStatus("pass")
    for t_idx, (ys, zs) in enumerate(expansions):
        deltaL, deltaC = _overlap_from_expansions(H, B, kappa, ys, zs)
        coords = _deltaL_rel_coords(B, deltaL)
        if coords is None:
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
        neg = {k: -c for k, c in coords.items()}
        lhs_d = _apply_kc_ext(H, kappa, neg)
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

def _adjoint_columns(H: HopfAlgebra, B: ModuleAlgebra, i: int, linear: bool) -> dict:
    """Sparse columns of the adjoint action of the generator e_i: the image
    of h under key h, and, when ``linear``, of v (x) h under key (v, h)."""
    ei = H.basis_vec(i)
    one = Scalar.one(H.order)
    cols = {h: adjoint_on_H(H, ei, {h: one}) for h in range(H.dim)}
    if linear:
        adj = AdjointVH(H, B, ei)
        for v in range(B.vdim):
            for h in range(H.dim):
                cols[(v, h)] = adjoint_on_VH(H, B, ei, {(v, h): one}, adj)
    return cols


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
    """
    d, vd, p = H.dim, B.vdim, B.dim_relations()
    nC = p * d
    nL = 0 if force_linear_zero else p * vd * d
    n = nC + nL

    def uC(a, h):
        return a * d + h

    def uL(a, v, h):
        return nC + a * vd * d + v * d + h

    def u(a, key):
        return uC(a, key) if type(key) is int else uL(a, *key)

    rows: list[dict] = []

    # condition (a): for every generator e_i and relation r_a, the adjoint
    # action on kappa(r_a) equals kappa(e_i . r_a); one row per output key
    # h of H and (v, h) of V (x) H
    for i in algebra_generators(H):
        cols = _adjoint_columns(H, B, i, linear=bool(nL))
        for a in range(p):
            coords = rel_coords(B, act_on_tensor(H, B, H.basis_vec(i), B.relation_sparse(a)))
            byout: dict = {}
            for key, col in cols.items():
                for out, c in col.items():
                    add_into(byout.setdefault(out, {}), u(a, key), c)
            for q, cq in enumerate(coords):
                if not cq.is_zero():
                    for key in cols:
                        add_into(byout.setdefault(key, {}), u(q, key), -cq)
            rows.extend(byout[key] for key in cols if byout.get(key))

    # condition (b): the straightened linear mismatch lies in I (x) H
    expansions, notes = _overlap_expansions(B)
    if nL and expansions:
        # remainder-mod-I operator on V (x) V, one sparse column per coordinate
        one = Scalar.one(H.order)
        rem_cols = [reduce_mod_relations(B, {divmod(w, vd): one})[1] for w in range(vd * vd)]
        for ys, zs in expansions:
            # unit contributions of each kappa^L unknown to deltaL
            contrib: dict = {}   # (outw, h2) -> {unknown: Scalar}
            for a in range(p):
                if ys[a]:
                    t = {(vi,): c for vi, c in ys[a].items()}
                    for h in range(d):
                        for (word, h2), c in straighten(H, B, {h: one}, t).items():
                            for v in range(vd):
                                add_into(contrib.setdefault((v * vd + word[0], h2), {}),
                                         uL(a, v, h), c)
                for zv, cz in zs[a].items():
                    for v in range(vd):
                        for h in range(d):
                            add_into(contrib.setdefault((zv * vd + v, h), {}), uL(a, v, h), -cz)
            # rows: remainder of every (h2-slice) must vanish coordinatewise
            byrow: dict = {}
            for (w, h2), cell in contrib.items():
                for outw, rc in rem_cols[w].items():
                    dst = byrow.setdefault((outw, h2), {})
                    for unknown, c in cell.items():
                        add_into(dst, unknown, rc * c)
            rows.extend(r for r in byrow.values() if r)

    kernel_vecs = Subspace.from_sparse(n, sparse_kernel(rows, n, H.order), H.order).rows

    def vec_to_kappa(vec: dict) -> Kappa:
        kp = Kappa.zero(H, B)
        for col, c in vec.items():
            if col < nC:
                a, h = divmod(col, d)
                kp.constant[a][h] = c
            else:
                a, vh = divmod(col - nC, vd * d)
                kp.linear[a][divmod(vh, d)] = c
        return kp

    ab_basis = [vec_to_kappa(v) for v in kernel_vecs]
    k = len(ab_basis)

    if not expansions or k == 0:
        return KappaFamily(list(ab_basis), [], k, ab_basis, notes)

    # stage 2: expand (c) and (d) on the stage-1 space
    per_member = []
    for kp in ab_basis:
        data = []
        for ys, zs in expansions:
            dl, dc = _overlap_from_expansions(H, B, kp, ys, zs)
            coords = _deltaL_rel_coords(B, dl)
            assert coords is not None, "stage-1 member violates condition (b)"
            data.append((coords, dc))
        per_member.append(data)

    quad_c: dict = {}
    quad_d: dict = {}
    for i in range(k):
        for j in range(k):
            for t_idx in range(len(expansions)):
                coords_j = per_member[j][t_idx][0]
                vimg = _apply_kl_ext(H, B, ab_basis[i], coords_j)
                himg = _apply_kc_ext(H, ab_basis[i], {kk: -c for kk, c in coords_j.items()})
                key = (min(i, j), max(i, j))
                for kk, c in vimg.items():
                    cell = quad_c.setdefault((t_idx, kk), {})
                    add_into(cell, key, c)
                for kk, c in himg.items():
                    cell = quad_d.setdefault((t_idx, kk), {})
                    add_into(cell, key, c)
    quad_c = {kk: cell for kk, cell in quad_c.items() if cell}
    quad_d = {kk: cell for kk, cell in quad_d.items() if cell}

    lin_rows: dict = {}
    for i in range(k):
        for t_idx in range(len(expansions)):
            for kk, c in per_member[i][t_idx][1].items():
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
