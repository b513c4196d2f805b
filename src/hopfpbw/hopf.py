"""Finite-dimensional Hopf algebras by structure constants.

An algebra element is a sparse dict ``{basis_index: Scalar}``.  The
structure data is:

* ``mult[i][j]``  -- the product e_i e_j as a sparse vector,
* ``comult[i]``   -- the coproduct of e_i as a dict ``{(j, k): Scalar}``,
* ``unit``        -- the identity as a sparse vector,
* ``counit[i]``   -- the counit on e_i,
* ``antipode[i]`` -- the antipode image of e_i as a sparse vector,
* ``generators``  -- optional: basis indices of algebra generators.

``validate_hopf`` checks every axiom and that the antipode is bijective,
by the rank of its d columns in one ``SparseEchelon`` (bijectivity is
automatic for a finite-dimensional Hopf algebra, by Larson-Sweedler,
Amer. J. Math. 91 (1969), so a rank below d always comes with another
failure; no inverse is formed).  Properties that are closed under
products are checked on one generating set S = ``algebra_generators(H)``
only: the ``generators`` hint, or a greedy set when there is none.  S is
accepted only if the left closure of the unit under x -> e_g x (g in S)
is all of H.  That is exact, by one lemma:

    Let A = {a : (a y) z = a (y z) for all y, z}.  The unit law, which is
    checked on every basis element, puts 1 in A.  If g and a are in A,
    so is g a: ((g a) y) z = (g (a y)) z = g ((a y) z) = g (a (y z))
    = (g a)(y z).  So if S lies in A and S left-generates H, A = H.

The same argument, with associativity now known, shows that the set of a
with Delta(a y) = Delta(a) Delta(y) and eps(a y) = eps(a) eps(y) for all
y is all of H once it holds for S, Delta(1) = 1 (x) 1 and eps(1) = 1; that
the action is multiplicative once it is on S and rho(1) = id
(``modalg.validate_action``); and that kappa is H-invariant once it is
invariant under S (``deform.solve_kappa``, ``deform.check_invariance``).
So associativity loops over i in S (j, k over all of H), and the
bialgebra and action checks over i in S (j over all of H).

S is derived once per object: the first read runs the closure and keeps
S, or the reason it fails, on H, and every later read, from
``validate_hopf``, ``validate_action``, the solver, the checker and the
oracle's seeds, takes the kept set.  Rebinding ``generators``, ``unit`` or
``mult`` derives it again.  The right translations the oracle's spans read
(``right_translations``) are kept the same way, and rebinding ``unit``,
``mult`` or ``comult`` derives them again.  A table changed in place is not
seen, so a changed table means a new object (``dataclasses.replace``).

The axiom loops compare one whole table row at a time.  For i in S and
each j, the row k -> (e_i e_j) e_k = sum_m mult[i][j][m] mult[m][k] is one
sparse dict keyed (k, p), built by walking mult[m] for each m in e_i e_j,
and the row k -> e_i (e_j e_k) = sum_m mult[j][k][m] mult[i][m] is another,
built by walking mult[j] and then mult[i][m]; one ``==`` compares them, and
only a row whose two dicts differ is split by k, each differing k emitting
the failure one comparison per (i, j, k) would, in ascending k.  The
bialgebra law stays one comparison per (i, j): each side is a sum of
tensors of several terms, so a row of them is no faster to compare and
holds d times the entries.  Its two sides, Delta(e_i e_j) = sum_m
mult[i][j][m] comult[m] and Delta(e_i) Delta(e_j), and the two sides of
associativity accumulate inline under ``add_into``'s rule; the other
axioms, O(d) sums of a few terms each, go through ``add_into``.  So each
side is a canonical dict with no zero entries.

The products of two constants come from one table per call,
``prod = Lazy(lambda a: Lazy(a.__mul__))``, read as ``prod[a][b]``:
``prod[a]`` is the row b -> a * b, so a loop that scales a whole row by one
constant hashes only the row's constants.  Each product is made on its
first read and kept.  Like every ``Lazy``, the table's make functions hold
data (here one constant), never the table's owner.  That is exact because
a Scalar is frozen and canonical and multiplication is a pure function,
and a pair from two fields still raises FieldMismatch.  It pays because
the tables hold a handful of distinct constants (for taft-n, the powers of
zeta): validating taft-9 takes 931 Scalar products, the closure of S
included, instead of 44,523.

``MAX_CYCLOTOMIC_ORDER`` and ``MAX_HOPF_DIM`` bound the problems the loader
accepts, and so the indices of the bundled Hopf algebras (``presets``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .scalar import Scalar, field, zeta
from .exactla import SparseEchelon

HVec = dict  # {int: Scalar}
TVec = dict  # {(int, int): Scalar}

# The largest cyclotomic order a problem file may declare.  A Scalar product
# costs up to phi(N)^2, and phi(N) = N - 1 for a prime N.  The taft-3
# document with its order set to N = 251 loads and fails its axioms in
# 0.01 s (0.15 s at N = 997), but a problem that uses the field is slower:
# the cbh-cyclic-251 document validates in about 2.3 s through the CLI
# (Python 3.11, one core).  So the loader refuses the order before any
# field is built, and the preset catalogue refuses cyclic-n above it.
MAX_CYCLOTOMIC_ORDER = 256

# The largest Hopf dimension.  The loader allocates the d x d multiplication
# table before it reads any entry: the taft-3 document padded to d = 512
# (6 KB) peaked at 35 MB RSS, to d = 1500 (14 KB) at 173 MB.  The worked
# problems need at most 81; the preset catalogue refuses taft-n above 16.
MAX_HOPF_DIM = 256


class HopfError(Exception):
    pass


class FieldTooSmall(HopfError):
    pass


class NotAGroup(HopfError):
    pass


class NotGenerating(HopfError):
    """The generator set does not left-generate H from its unit."""


# -- sparse vector helpers ---------------------------------------------------

def add_into(dst: dict, key, c: Scalar) -> None:
    cur = dst.get(key)
    if cur is None:
        if not c.is_zero():
            dst[key] = c
        return
    s = cur + c
    if s.is_zero():
        del dst[key]
    else:
        dst[key] = s


def vec_eq(a: dict, b: dict) -> bool:
    diff = dict(a)
    for k, c in b.items():
        add_into(diff, k, -c)
    return diff == {}


class Lazy(dict):
    """A table whose entry at a key is made by ``make(key)`` on its first
    read and kept: the one memo of the package.

    ``make`` holds the data it reads (H, B, other tables), never the
    table's owner: an owner that holds a table whose ``make`` holds the
    owner is a reference cycle, so it outlives its last use until the
    garbage collector runs.
    """

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        val = self[key] = self.make(key)
        return val


@dataclass
class HopfAlgebra:
    order: int                       # cyclotomic order of the ground field
    dim: int
    labels: list[str]
    mult: list                       # mult[i][j] -> HVec
    comult: list                     # comult[i] -> TVec
    unit: HVec
    counit: list                     # counit[i] -> Scalar
    antipode: list                   # antipode[i] -> HVec
    generators: list[int] | None = None   # optional algebra-generator hint, verified

    def __setattr__(self, name, value):
        # rebinding a table drops what was derived from it: the generating
        # set reads generators, unit and mult, the right translations unit,
        # mult and comult
        if name in ("generators", "unit", "mult"):
            self.__dict__.pop("_generated", None)
        if name in ("unit", "mult", "comult"):
            self.__dict__.pop("right_translations", None)
        object.__setattr__(self, name, value)

    @cached_property
    def _generated(self) -> tuple[list[int], str | None]:
        """The set S of ``algebra_generators`` and why it fails to
        left-generate H, or None when it does; derived on the first read."""
        d = self.dim
        if self.generators is not None:
            ok = [g for g in self.generators if type(g) is int and 0 <= g < d]
            if len(ok) < len(self.generators):
                return ok, f"generator indices must lie in 0..{d - 1}"
        S, rank = _left_closure(self, self.generators)
        if rank < d:
            return S, f"left closure of the unit has dimension {rank} of {d}"
        return S, None

    @cached_property
    def right_translations(self) -> tuple[list, list]:
        """(units, G): the right translations of H, which the oracle's spans
        read; derived on the first read and kept.  units[e] is
        (-1)^(e // N) zeta^(e % N), e < 2N, so every root of unity of
        Q(zeta_N).  G lists (g, perm, exps), one per group-like basis
        element e_g != 1 (Delta(e_g) = e_g (x) e_g) whose right
        multiplication is monomial: e_h e_g = units[exps[h]] e_perm[h] for
        every h, perm a bijection.  G is empty unless G and the unit are
        closed under products."""
        order, d = self.order, self.dim
        powers = [Scalar._make(order, 1, v) for v in field(order).powers]
        units = powers + [-u for u in powers]
        exp: dict = {}
        for e, u in enumerate(units):
            exp.setdefault(u, e)
        one = units[0]
        if len(self.unit) != 1 or one not in self.unit.values():
            return units, []
        u1, = self.unit
        group = []
        for g in range(d):
            if g == u1 or self.comult[g] != {(g, g): one}:
                continue
            perm, exps = [], []
            for h in range(d):
                prod = self.mult[h][g]
                if len(prod) != 1:
                    break
                (k, c), = prod.items()
                e = exp.get(c)
                if e is None:
                    break
                perm.append(k)
                exps.append(e)
            else:
                if len(set(perm)) == d:
                    group.append((g, perm, exps))
        # e_g2 e_g must be a member itself, with coefficient one
        members = {g for g, _, _ in group} | {u1}
        if any(perm[g2] not in members or exps[g2] for _, perm, exps in group for g2 in members):
            return units, []
        return units, group

    def basis_vec(self, i: int) -> HVec:
        return {i: Scalar.one(self.order)}

    def zero_scalar(self) -> Scalar:
        return Scalar.zero(self.order)

    def one_scalar(self) -> Scalar:
        return Scalar.one(self.order)


def h_mul(H: HopfAlgebra, a: HVec, b: HVec) -> HVec:
    out: HVec = {}
    mult = H.mult
    for i, ca in a.items():
        row = mult[i]
        for j, cb in b.items():
            c = ca * cb
            for k, ck in row[j].items():
                add_into(out, k, c * ck)
    return out


def tensor_mult(H: HopfAlgebra, A: TVec, B: TVec) -> TVec:
    """Product in H (x) H of two sparse tensors."""
    out: TVec = {}
    for (a1, a2), ca in A.items():
        for (b1, b2), cb in B.items():
            c = ca * cb
            right = H.mult[a2][b2]
            for p, cp in H.mult[a1][b1].items():
                cl = c * cp
                for q, cq in right.items():
                    add_into(out, (p, q), cl * cq)
    return out


def derive_from_generators(H: HopfAlgebra, given: dict, product, unit_value) -> dict:
    """Extend a multiplicative map f, given on some basis elements, over H.

    ``product(f(e_i), f(e_j))`` must be f(e_i e_j); pass the reversed product
    for an anti-multiplicative map such as S.  A unit basis element with
    coefficient 1 gets ``unit_value``, and each e_k that is exactly e_i e_j
    with f(e_i), f(e_j) known gets their product, sweeping the known indices
    in sorted order until nothing changes.  Returns the known values, which
    may miss basis elements.  Delta, S and the action on V all come from here.
    """
    one = H.one_scalar()
    known = dict(given)
    if len(known) < H.dim and len(H.unit) == 1:
        ((ui, uc),) = H.unit.items()
        if uc == one and ui not in known:
            known[ui] = unit_value
    changed = True
    while changed and len(known) < H.dim:
        changed = False
        for i in sorted(known):
            for j in sorted(known):
                prod = H.mult[i][j]
                if len(prod) == 1:
                    ((k, ck),) = prod.items()
                    if ck == one and k not in known:
                        known[k] = product(known[i], known[j])
                        changed = True
    return known


def format_terms(terms) -> str:
    """Render (coefficient, label) pairs as one signed sum: coefficients 1
    and -1 are dropped, a coefficient with a sum or a power of z is put in
    parentheses, and a leading minus sign joins the term with " - "."""
    parts = []
    for c, lab in terms:
        cs = str(c)
        if cs == "1":
            term = lab
        elif cs == "-1":
            term = f"-{lab}"
        elif ("+" in cs) or ("*" in cs and "z" in cs):
            term = f"({cs})*{lab}"
        else:
            term = f"{cs}*{lab}"
        parts.append(term)
    out = parts[0] if parts else "0"
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def format_hvec(H: HopfAlgebra, a: HVec) -> str:
    """Render a sparse H-element with basis labels, deterministically."""
    return format_terms((a[i], H.labels[i]) for i in sorted(a))


def adjoint_on_H(H: HopfAlgebra, a: HVec, ell: HVec) -> HVec:
    """Left adjoint action of a on ell: sum a1 * ell * S(a2), read off the
    tables with no intermediate vector (``deform`` takes many unit images)."""
    out: HVec = {}
    mult, antipode = H.mult, H.antipode
    for i, ca in a.items():
        for l, cl in ell.items():
            c = ca * cl
            for (j, k), cd in H.comult[i].items():
                for m, cm in mult[j][l].items():
                    f = c * cd * cm
                    for s, cs in antipode[k].items():
                        for idx, ci in mult[m][s].items():
                            add_into(out, idx, f * cs * ci)
    return out


# -- validation ---------------------------------------------------------------

@dataclass
class ValidationReport:
    passed: bool
    failures: list = dc_field(default_factory=list)  # (axiom, witness, lhs, rhs)

    def axioms_failed(self) -> list[str]:
        return sorted({f[0] for f in self.failures})


def _fmt_tensor(t: dict, left: list[str], right: list[str]) -> str:
    """Render a sparse tensor {(i, j): Scalar} as the sum of
    (c)*left[i](x)right[j], keys in order."""
    if not t:
        return "0"
    return " + ".join(f"({t[(i, j)]})*{left[i]}(x){right[j]}" for (i, j) in sorted(t))


def _parts(row: dict, n: int) -> list[dict]:
    """Split a row dict keyed (k, key) into its n parts, part k keyed by key."""
    parts: list[dict] = [{} for _ in range(n)]
    for (k, key), c in row.items():
        parts[k][key] = c
    return parts


def validate_hopf(H: HopfAlgebra) -> ValidationReport:
    """Check all Hopf axioms and that the antipode has full rank.

    Properties closed under products are checked with their first factor
    in S = ``algebra_generators(H)`` (see the module docstring); a hint
    that does not left-generate H is a ``generators`` failure.  Failures
    carry (axiom name, witness basis indices, lhs, rhs) with both sides
    rendered in the basis labels.

    Associativity is compared one table row at a time, each side one sparse
    dict keyed by the position in the row first; only a row whose sides
    differ is split by position, and each position whose parts differ is a
    failure, in ascending order.  Every product of two constants comes from
    one ``Lazy`` table that lives for this call only (see the module
    docstring for why that is exact).
    """
    fails = []
    d = H.dim
    mult, comult, counit, antipode = H.mult, H.comult, H.counit, H.antipode
    one, zero = H.one_scalar(), H.zero_scalar()
    prod = Lazy(lambda a: Lazy(a.__mul__))

    def emit(axiom, witness, lhs, rhs):
        fails.append((axiom, witness, lhs, rhs))

    S, problem = H._generated
    if problem is not None:
        emit("generators", tuple(S if H.generators is None else H.generators), problem,
             "a set that left-generates H")

    # associativity, first factor in S: the row k -> (e_i e_j) e_k, which is
    # sum_m mult[i][j][m] mult[m][k], against k -> e_i (e_j e_k), which is
    # sum_m mult[j][k][m] mult[i][m]; both keyed (k, p).  Each term is added
    # as add_into adds it, inline
    for i in S:
        mi = mult[i]
        for j in range(d):
            lhs: dict = {}
            get = lhs.get
            for m, c in mi[j].items():
                pc = prod[c]
                for k, mk in enumerate(mult[m]):
                    for p, cp in mk.items():
                        v = pc[cp]
                        key = (k, p)
                        cur = get(key)
                        if cur is None:
                            if not v.is_zero():
                                lhs[key] = v
                        elif (v := cur + v).is_zero():
                            del lhs[key]
                        else:
                            lhs[key] = v
            rhs: dict = {}
            get = rhs.get
            for k, jk in enumerate(mult[j]):
                for m, c in jk.items():
                    pc = prod[c]
                    for p, cp in mi[m].items():
                        v = pc[cp]
                        key = (k, p)
                        cur = get(key)
                        if cur is None:
                            if not v.is_zero():
                                rhs[key] = v
                        elif (v := cur + v).is_zero():
                            del rhs[key]
                        else:
                            rhs[key] = v
            if lhs != rhs:
                for k, (left, right) in enumerate(zip(_parts(lhs, d), _parts(rhs, d))):
                    if left != right:
                        emit("associativity", (i, j, k), format_hvec(H, left),
                             format_hvec(H, right))

    # unit law
    for i in range(d):
        e = {i: one}
        left: HVec = {}
        right: HVec = {}
        for u, c in H.unit.items():
            for p, cp in mult[u][i].items():
                add_into(left, p, prod[c][cp])
            for p, cp in mult[i][u].items():
                add_into(right, p, prod[c][cp])
        if left != e:
            emit("unit", (i,), format_hvec(H, left), H.labels[i])
        if right != e:
            emit("unit", (i,), format_hvec(H, right), H.labels[i])

    # coassociativity
    for i in range(d):
        lhs = {}
        rhs = {}
        for (j, k), c in comult[i].items():
            pc = prod[c]
            for (a, b), c2 in comult[j].items():
                add_into(lhs, (a, b, k), pc[c2])
            for (a, b), c2 in comult[k].items():
                add_into(rhs, (j, a, b), pc[c2])
        if lhs != rhs:
            emit("coassociativity", (i,), str(len(lhs)), str(len(rhs)))

    # counit law
    for i in range(d):
        lvec: HVec = {}
        rvec: HVec = {}
        for (j, k), c in comult[i].items():
            pc = prod[c]
            add_into(lvec, k, pc[counit[j]])
            add_into(rvec, j, pc[counit[k]])
        e = {i: one}
        if lvec != e:
            emit("counit", (i,), format_hvec(H, lvec), H.labels[i])
        if rvec != e:
            emit("counit", (i,), format_hvec(H, rvec), H.labels[i])

    # bialgebra compatibility
    def eps(a: HVec) -> Scalar:
        return sum((prod[c][counit[m]] for m, c in a.items()), zero)

    unit_tensor: TVec = {}
    cop_unit: TVec = {}
    for u, c in H.unit.items():
        for u2, c2 in H.unit.items():
            add_into(unit_tensor, (u, u2), prod[c][c2])
        for pq, cpq in comult[u].items():
            add_into(cop_unit, pq, prod[c][cpq])
    if cop_unit != unit_tensor:
        emit("bialgebra", ("unit",), _fmt_tensor(cop_unit, H.labels, H.labels),
             _fmt_tensor(unit_tensor, H.labels, H.labels))
    eps_unit = eps(H.unit)
    if eps_unit != one:
        emit("bialgebra", ("unit",), str(eps_unit), "1")
    # first factor in S: Delta(e_i e_j), which is sum_m mult[i][j][m]
    # comult[m], against Delta(e_i) Delta(e_j); then eps(e_i e_j) against
    # eps(e_i) eps(e_j)
    for i in S:
        mi, di = mult[i], comult[i].items()
        for j in range(d):
            lhs = {}
            get = lhs.get
            for m, c in mi[j].items():
                pc = prod[c]
                for pq, cpq in comult[m].items():
                    v = pc[cpq]
                    cur = get(pq)
                    if cur is None:
                        if not v.is_zero():
                            lhs[pq] = v
                    elif (v := cur + v).is_zero():
                        del lhs[pq]
                    else:
                        lhs[pq] = v
            rhs = {}
            get = rhs.get
            for (a1, a2), ca in di:
                pa = prod[ca]
                for (b1, b2), cb in comult[j].items():
                    pc = prod[pa[cb]]
                    right = mult[a2][b2].items()
                    for p, cp in mult[a1][b1].items():
                        pl = prod[pc[cp]]
                        for q, cq in right:
                            v = pl[cq]
                            key = (p, q)
                            cur = get(key)
                            if cur is None:
                                if not v.is_zero():
                                    rhs[key] = v
                            elif (v := cur + v).is_zero():
                                del rhs[key]
                            else:
                                rhs[key] = v
            if lhs != rhs:
                emit("bialgebra", (i, j), _fmt_tensor(lhs, H.labels, H.labels),
                     _fmt_tensor(rhs, H.labels, H.labels))
            el = eps(mi[j])
            er = prod[counit[i]][counit[j]]
            if el != er:
                emit("bialgebra", (i, j), str(el), str(er))

    # antipode law (both convolution sides): sum S(a1) a2 = sum a1 S(a2) = eps(a) 1
    for i in range(d):
        lvec = {}
        rvec = {}
        for (j, k), c in comult[i].items():
            pc = prod[c]
            for m, s in antipode[j].items():
                ps = prod[s]
                for p, cp in mult[m][k].items():
                    add_into(lvec, p, pc[ps[cp]])
            for m, s in antipode[k].items():
                ps = prod[s]
                for p, cp in mult[j][m].items():
                    add_into(rvec, p, pc[ps[cp]])
        target: HVec = {}
        for u, cu in H.unit.items():
            add_into(target, u, prod[counit[i]][cu])
        if lvec != target:
            emit("antipode", (i,), format_hvec(H, lvec), format_hvec(H, target))
        if rvec != target:
            emit("antipode", (i,), format_hvec(H, rvec), format_hvec(H, target))

    # bijectivity of S, by rank only: its d columns S(e_c) in one echelon
    ech = SparseEchelon(H.order)
    for col in antipode:
        ech.insert(ech.from_scalars(col))
    if ech.rank < d:
        emit("antipode_bijective", ("S",), f"rank {ech.rank}", f"rank {d}")

    return ValidationReport(passed=not fails, failures=fails)


# -- group algebras -----------------------------------------------------------

def group_algebra(mult_table: list[list[int]], inverse_table: list[int] | None = None,
                  order: int = 1, labels: list[str] | None = None) -> HopfAlgebra:
    """The Hopf algebra of a finite group given by its multiplication table.

    The table is checked to be a group (associativity, two-sided identity,
    inverses); violations raise NotAGroup with a witness.  Coproduct is
    diagonal, the counit is 1, and the antipode is inversion.
    """
    d = len(mult_table)
    for row in mult_table:
        if len(row) != d or any(not (0 <= x < d) for x in row):
            raise NotAGroup("malformed multiplication table")
    ident = None
    for e in range(d):
        if all(mult_table[e][i] == i and mult_table[i][e] == i for i in range(d)):
            ident = e
            break
    if ident is None:
        raise NotAGroup("no two-sided identity element")
    # Light's test: the elements j with (i j) k = i (j k) for all i, k are
    # closed under the product, so only the j of a generating set need the
    # d^2 checks.  An element joins the set when right multiplications by
    # the set so far do not reach it from the identity.
    gens: list[int] = []
    reached = {ident}
    for g in range(d):
        if g in reached:
            continue
        gens.append(g)
        stack = list(reached)
        while stack:
            x = stack.pop()
            for s in gens:
                y = mult_table[x][s]
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
    for j in gens:
        for i in range(d):
            ij = mult_table[mult_table[i][j]]
            for k in range(d):
                if ij[k] != mult_table[i][mult_table[j][k]]:
                    raise NotAGroup(f"associativity fails at ({i}, {j}, {k})")
    if inverse_table is None:
        inverse_table = []
        for i in range(d):
            inv = next((j for j in range(d) if mult_table[i][j] == ident), None)
            if inv is None or mult_table[inv][i] != ident:
                raise NotAGroup(f"element {i} has no two-sided inverse")
            inverse_table.append(inv)
    else:
        for i, inv in enumerate(inverse_table):
            if mult_table[i][inv] != ident or mult_table[inv][i] != ident:
                raise NotAGroup(f"inverse table wrong at element {i}")

    one = Scalar.one(order)
    labels = labels or [f"g{i}" for i in range(d)]
    if len(labels) != d:
        raise HopfError(f"expected {d} labels, got {len(labels)}")
    mult = [[{mult_table[i][j]: one} for j in range(d)] for i in range(d)]
    comult = [{(i, i): one} for i in range(d)]
    counit = [one] * d
    antipode = [{inverse_table[i]: one} for i in range(d)]
    return HopfAlgebra(order, d, list(labels), mult, comult, {ident: one}, counit, antipode)


# -- roots of unity ------------------------------------------------------------

def nth_root_of_unity(order: int, n: int) -> Scalar:
    """zeta_n as an element of Q(zeta_order); FieldTooSmall if absent."""
    if n == 1:
        return Scalar.one(order)
    if n == 2:
        return -Scalar.one(order)
    if order % n == 0:
        return zeta(order, order // n)
    raise FieldTooSmall(f"Q(zeta_{order}) has no primitive {n}-th root of unity")


# -- algebra generators ----------------------------------------------------------

def _left_closure(H: HopfAlgebra, gens: list[int] | None) -> tuple[list[int], int]:
    """Close the unit under x -> e_g x for g in the generator set.

    With ``gens`` given the set is fixed.  With None it is greedy: the
    basis is visited in order and each e_i outside the closure so far is
    adjoined as a generator, so the search ends after at most dim H steps
    even when the unit is wrong.  Returns (generators, closure dimension).
    """
    one = H.one_scalar()
    ech = SparseEchelon(H.order)
    S: list[int] = []
    kept: list[HVec] = []
    work: deque = deque()

    def add(v: HVec) -> None:
        if v and ech.insert(ech.from_scalars(v)) is not None:
            kept.append(v)
            work.extend((g, v) for g in S)

    def adjoin(g: int) -> None:
        S.append(g)
        work.extend((g, v) for v in kept)
        while work:
            h, v = work.popleft()
            add(h_mul(H, {h: one}, v))

    add(H.unit)
    for i in (gens if gens is not None else range(H.dim)):
        if gens is not None or (ech.rank < H.dim and not ech.contains({i: ech.coeff(one, 1)})):
            adjoin(i)
    return S, ech.rank


def algebra_generators(H: HopfAlgebra) -> list[int]:
    """Basis indices that generate H as a unital algebra: the
    ``generators`` hint, or greedily the first basis elements outside the
    subalgebra generated so far.  Either way the set is verified to
    left-generate H from its unit; raises NotGenerating otherwise.
    """
    S, problem = H._generated
    if problem is not None:
        raise NotGenerating(problem)
    return list(S)
