"""Quadratic module algebras B = T(V)/(I) with a Hopf action.

The action is one vdim x vdim matrix per H-basis element, usually given
on the algebra generators of H only and extended by
``hopf.derive_from_generators``, which also derives every preset's Delta
and S.  The action on degree-m tensors is the counit applied to the H-leg
of ``smash.straighten``, so the smash product has one commutation rule
(the last letter is acted on directly, by the counit law).
Relation input may be any spanning set of I inside V (x) V; it is
canonicalized to a reduced-echelon basis once, so downstream reports and
deformation-map coordinates always refer to the same basis.

A ``ModuleAlgebra`` derives each table that depends on B alone once and
keeps it: the canonical relations as degree-2 tensors and the nonzero
columns e_h . v of the action when it is built, the degree-3 overlap space
with both expansions of each basis element on the first read of
``overlap_expansions``, and each graded dimension on its first
``graded_dim``.  No table is derived again, so a changed relation or action
matrix means a new object (``dataclasses.replace``).

Tensors in V^(x)m are sparse dicts keyed by index words (tuples).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .scalar import Scalar
from .exactla import Subspace, SparseEchelon, intersect
from .hopf import (HopfAlgebra, ValidationReport, add_into, algebra_generators,
                   derive_from_generators, format_terms, Lazy)
from .smash import straighten


class ModAlgError(Exception):
    pass


class CutoffExceeded(ModAlgError):
    pass


DEFAULT_CUTOFF = 6

# The most words vd^n that graded_dim and koszul_component span a degree n
# with.  Their cost grows with the word count: ha1 (vd = 4) through n =
# 6/7/8/9 took 0.4/3.1/9.6/43.7 s and 41 MB at n = 7, 418 MB at n = 9, for
# every table up to n (Python 3.11, one core of a shared host).  The bound
# admits ha1 through n = 7 and vd = 2 through n = 14, so every preset at the
# CLI defaults and every span the oracle accepts on them, and refuses a
# larger degree before any row is built.
MAX_KOSZUL_WORDS = 4 ** 7


@dataclass
class ModuleAlgebra:
    order: int
    vdim: int
    vlabels: list[str]
    relations: Subspace            # canonical basis of I inside V (x) V, column i * vdim + j
    action: list                   # action[h] = vdim x vdim rows (list of list of Scalar)
    cutoff: int = DEFAULT_CUTOFF
    _words: list = field(init=False, repr=False, compare=False)
    _columns: list = field(init=False, repr=False, compare=False)
    # degree n -> dim B_n, filled by graded_dim
    _graded: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        vd = self.vdim
        self._words = [{divmod(c, vd): s for c, s in row.items()} for row in self.relations.rows]
        # _columns[h][v] = e_h . v as a sparse vector over V, for straighten
        self._columns = [[{r: row[v] for r, row in enumerate(mat) if row[v]} for v in range(vd)]
                         for mat in self.action]

    @staticmethod
    def make(order: int, vlabels: list[str], relation_vectors: list[dict],
             action: list, cutoff: int = DEFAULT_CUTOFF) -> "ModuleAlgebra":
        """Build from sparse relation vectors {(i, j): Scalar} and action matrices."""
        vdim = len(vlabels)
        rows = [{i * vdim + j: c for (i, j), c in r.items()} for r in relation_vectors]
        rel = Subspace.from_sparse(vdim * vdim, rows, order)
        return ModuleAlgebra(order, vdim, list(vlabels), rel, action, cutoff)

    def relation_sparse(self, a: int) -> dict:
        """Canonical relation r_a as a sparse degree-2 tensor {(i, j): Scalar};
        the stored dict, read-only."""
        return self._words[a]

    def dim_relations(self) -> int:
        return self.relations.dim

    @cached_property
    def overlap_expansions(self) -> list[tuple[list, list]]:
        """Both expansions of each canonical basis element s of the degree-3
        overlap space: (ys, zs) with s = sum_a r_a (x) y_a = sum_a z_a (x) r_a,
        each y_a and z_a a sparse V-vector; derived on the first read, and
        the stored list, read-only."""
        vd = self.vdim
        out = []
        for row in koszul_component(self, 3).rows:
            s = {(c // (vd * vd), (c // vd) % vd, c % vd): x for c, x in row.items()}
            out.append((reduce_slices(self, s, 2)[0], reduce_slices(self, s, 0)[0]))
        return out

    def format_word(self, word: tuple) -> str:
        return "".join(self.vlabels[i] for i in word) if word else "1"

    def format_tensor(self, t: dict) -> str:
        return format_terms((t[word], self.format_word(word)) for word in sorted(t))


def reduce_mod_relations(B: ModuleAlgebra, t: dict) -> tuple[dict, dict]:
    """Reduce a degree-2 tensor {(i, j): Scalar} modulo I: its nonzero
    coordinates {a: Scalar} on the canonical relations r_a, read off at their
    pivots, and the sparse remainder {i * vdim + j: Scalar}, empty iff t is in I."""
    vd = B.vdim
    return B.relations.reduce_sparse({i * vd + j: c for (i, j), c in t.items()})


def reduce_slices(B: ModuleAlgebra, t: dict, leg: int) -> tuple[list, dict]:
    """Reduce a 3-leg tensor modulo I slice by slice: the leg at ``leg``
    names the slice, the other two form its degree-2 tensor.  Returns the
    coordinates, one sparse {slice: Scalar} per canonical relation, and the
    remainder {(slice, column): Scalar}, empty iff every slice lies in I."""
    slices: dict = {}
    for key, c in t.items():
        slices.setdefault(key[leg], {})[key[:leg] + key[leg + 1:]] = c
    coords: list[dict] = [{} for _ in range(B.dim_relations())]
    rem: dict = {}
    for w in sorted(slices):
        cw, rw = reduce_mod_relations(B, slices[w])
        for a, c in cw.items():
            coords[a][w] = c
        rem.update(((w, col), c) for col, c in rw.items())
    return coords, rem


def act_on_tensor(H: HopfAlgebra, B: ModuleAlgebra, a: dict, t: dict) -> dict:
    """Action of an H-element on a tensor in T(V): a . w = sum (a1 . w) eps(a2),
    the counit applied to the H-leg of ``straighten``.  The last letter v
    needs no coproduct, since sum (h1 . v) eps(h2) = h . v: each word is
    straightened through all letters but its last, and the H-leg h left
    over acts on that letter through B's column e_h . v (on the empty word
    it is the counit)."""
    columns = B._columns
    by_last: dict = {}      # last letter, or () -> {the rest of the word: coefficient}
    for word, c in t.items():
        by_last.setdefault(word[-1:], {})[word[:-1]] = c
    out: dict = {}
    for last, head in by_last.items():
        for (prefix, h), c in straighten(H, B, a, head).items():
            if not last:
                add_into(out, prefix, c * H.counit[h])
                continue
            for v, cv in columns[h][last[0]].items():
                add_into(out, prefix + (v,), c * cv)
    return out


def action_from_generators(H: HopfAlgebra, vdim: int, given: dict) -> list:
    """Extend action matrices given on some basis elements to the whole basis.

    ``given`` maps basis indices to vdim x vdim matrices (rows = output),
    typically on algebra generators only; ``hopf.derive_from_generators``
    extends them, with the identity on the unit and matrix products.
    Raises ModAlgError naming the basis elements left uncovered;
    validate_action then re-checks the whole assignment exhaustively.
    """
    zero, one = Scalar.zero(H.order), Scalar.one(H.order)

    def matmul(A, B):
        # the matrices are mostly zero: skip every product with a zero factor
        return [[sum((a * B[t][c] for t, a in enumerate(row) if a and B[t][c]), zero)
                 for c in range(vdim)] for row in A]

    ident = [[one if r == c else zero for c in range(vdim)] for r in range(vdim)]
    known = derive_from_generators(H, given, matmul, ident)
    missing = [h for h in range(H.dim) if h not in known]
    if missing:
        raise ModAlgError("no matrix given or derivable for basis elements "
                          + ", ".join(str(h) for h in missing))
    return [known[h] for h in range(H.dim)]


def validate_action(H: HopfAlgebra, B: ModuleAlgebra) -> ValidationReport:
    """Check that the action makes B an H-module algebra in degree <= 2.

    Verifies that h -> action matrix is a unital algebra map on V and that
    the relation space is stable under the degree-2 action; the module
    algebra law in higher degrees then holds automatically because the
    action on tensors is defined through the iterated coproduct.

    H must already pass ``validate_hopf``.  Multiplicativity is checked
    for first factors in S = ``algebra_generators(H)`` only, which is exact
    once H is associative and rho(1) = id (see ``hopf``).  Relation
    stability is checked on S first, by one lemma: once rho is unital and
    multiplicative and Delta is multiplicative, h -> rho(h1) (x) rho(h2) is
    a unital algebra map on V (x) V, so the h whose action keeps I form a
    unital subalgebra, which is H once it holds S.  Only when a generator
    fails, or the report already holds a failure (and the lemma does not
    apply), is every basis element tried, in order, so the witnesses are
    those of the loop over every basis element.
    """
    fails = []
    d = H.dim
    vd = B.vdim
    zero = Scalar.zero(B.order)
    one = Scalar.one(B.order)

    mul = Lazy(lambda a: Lazy(a.__mul__))
    # sparse rows of the action matrices: nz[h][r] = [(t, rho(e_h)[r][t]) nonzero]
    nz = [[[(t, c) for t, c in enumerate(row) if not c.is_zero()] for row in mat]
          for mat in B.action]

    # rho(1_H) = id
    ident = [[zero] * vd for _ in range(vd)]
    for i, c in H.unit.items():
        for r in range(vd):
            for s, a in nz[i][r]:
                ident[r][s] = ident[r][s] + mul[c][a]
    for r in range(vd):
        for s in range(vd):
            want = one if r == s else zero
            if ident[r][s] != want:
                fails.append(("action_unital", (r, s), str(ident[r][s]), str(want)))

    # rho(e_i) rho(e_j) = rho(e_i e_j), for i in the generating set
    gens = algebra_generators(H)
    for i in gens:
        for j in range(d):
            prod = [[zero] * vd for _ in range(vd)]
            target = [[zero] * vd for _ in range(vd)]
            for r in range(vd):
                for t, a in nz[i][r]:
                    for s, b in nz[j][t]:
                        prod[r][s] = prod[r][s] + mul[a][b]
                for k, ck in H.mult[i][j].items():
                    for s, b in nz[k][r]:
                        target[r][s] = target[r][s] + mul[ck][b]
            for r in range(vd):
                for s in range(vd):
                    if prod[r][s] != target[r][s]:
                        fails.append(("action_multiplicative", (i, j, r, s),
                                      str(prod[r][s]), str(target[r][s])))

    # H-stability of the relation space, on the generating set first
    def unstable(i: int) -> list:
        out = []
        for a in range(B.dim_relations()):
            img = act_on_tensor(H, B, H.basis_vec(i), B.relation_sparse(a))
            if reduce_mod_relations(B, img)[1]:
                out.append(("relations_stable", (i, a),
                            B.format_tensor(img), "element of the relation space"))
        return out

    found = {i: unstable(i) for i in gens}
    if fails or any(found.values()):
        for i in range(d):
            fails.extend(found[i] if i in found else unstable(i))

    return ValidationReport(passed=not fails, failures=fails)


def _layer_rows(B: ModuleAlgebra, n: int, j: int) -> list[dict]:
    """Sparse spanning rows of V^j (x) I (x) V^(n-2-j) inside V^(x)n, whose
    columns are the words read as numbers in base vdim.  A degree with more
    than ``MAX_KOSZUL_WORDS`` words is refused with ``ModAlgError``."""
    _check_words(B, n)
    vv, tail = B.vdim ** 2, B.vdim ** (n - 2 - j)
    return [{(pre * vv + w) * tail + post: c for w, c in rel.items()}
            for pre in range(B.vdim ** j) for rel in B.relations.rows for post in range(tail)]


def _check_words(B: ModuleAlgebra, n: int) -> None:
    # vd >= 2 passes the limit by the degree of its bit length, so counting
    # no further builds no huge integer for a huge n and refuses the same n
    words = B.vdim ** min(n, MAX_KOSZUL_WORDS.bit_length())
    if words > MAX_KOSZUL_WORDS:
        raise ModAlgError(f"degree {n} has at least {words} words, above the limit "
                          f"{MAX_KOSZUL_WORDS}")


def graded_dim(B: ModuleAlgebra, n: int) -> int:
    """Dimension of the degree-n component of B, derived on the first call
    for (B, n) and kept on B; the degree, cutoff and word-count refusals run
    on every call."""
    if n < 0:
        raise ModAlgError("negative degree")
    if n > B.cutoff:
        raise CutoffExceeded(f"degree {n} exceeds cutoff {B.cutoff}")
    if n == 0:
        return 1
    if n == 1:
        return B.vdim
    _check_words(B, n)
    dim = B._graded.get(n)
    if dim is None:
        ech = SparseEchelon(B.order)
        for j in range(n - 1):
            for row in _layer_rows(B, n, j):
                ech.insert(ech.from_scalars(row))
        dim = B._graded[n] = B.vdim ** n - ech.rank
    return dim


def koszul_component(B: ModuleAlgebra, i: int) -> Subspace:
    """The degree-i overlap space: the intersection of all V^j (x) I (x) V^(i-2-j).

    For i = 2 this is the relation space itself; for i = 3 it is
    (I (x) V) cap (V (x) I), the domain of the overlap conditions.
    """
    if i < 2:
        raise ModAlgError("overlap components start at degree 2")
    if i == 2:
        return B.relations
    result: Subspace | None = None
    for j in range(i - 1):
        layer = Subspace.from_sparse(B.vdim ** i, _layer_rows(B, i, j), B.order)
        result = layer if result is None else intersect(result, layer)
        if result.dim == 0:
            return result
    return result
