"""Brute-force falsification of the PBW property by filtered dimension counts.

The two-sided ideal generated by the inhomogeneous relators
r_a - kappa(r_a) inside the truncated smash product is spanned, degree by
degree, and the span is intersected with each filtration level.  Whenever
the resulting quotient dimension drops below the dimension forced by a
PBW deformation (sum of graded dimensions of B times dim H), the PBW
property provably fails.  The converse does not hold: a finite span can
miss cancellations that only appear beyond the truncation, so CONSISTENT
is evidence, not proof; the checker in `deform` is the decider.

The spanning degree is N + k for a report at filtration degree N; the
buffer k absorbs cancellations between relator multiples of neighbouring
degrees.  Larger buffers can only shrink the computed dimensions.

Everything is exact.  Rows are integer coefficient vectors reduced by the
shared fraction-free engine ``exactla.SparseEchelon``.  Each generated row
is a fixed multiple of the true product: the relators, the straightening
table and the multiplication table each clear one common denominator, and
a left H-multiple clears one per row.  The column order is by descending
degree, so pivot counts per degree block give the intersection dimensions
directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field
from math import lcm

from .scalar import Scalar
from .exactla import SparseEchelon
from .hopf import HopfAlgebra, add_into, algebra_generators
from .modalg import ModuleAlgebra, CutoffExceeded, graded_dim
from .smash import straighten
from .deform import Kappa


class OracleError(Exception):
    pass


CONSISTENT_CAVEAT = ("CONSISTENT is evidence only; a finite span cannot rule out "
                     "deeper cancellations")


@dataclass
class FilteredDimReport:
    degree_bound: int
    buffer: int
    computed_dims: list          # upper bound on dim F_m, m = 0..N
    expected_dims: list          # PBW-forced dims
    verdict: str                 # "FALSIFIED" | "CONSISTENT"
    falsified_at: int | None = None
    caveat: str = CONSISTENT_CAVEAT

    @property
    def falsified(self) -> bool:
        return self.verdict == "FALSIFIED"


@dataclass
class ProbeReport:
    verdict: str
    falsified_at: int | None = None
    falsified_buffer: int | None = None
    reports: list = dc_field(default_factory=list)


# -- column indexing -----------------------------------------------------------

class _Ambient:
    """Column layout for T(V)#H up to degree D, highest degree first."""

    def __init__(self, vdim: int, hdim: int, D: int):
        self.vdim = vdim
        self.hdim = hdim
        self.D = D
        self.block = [vdim ** m * hdim for m in range(D + 1)]
        base = {}
        off = 0
        for m in range(D, -1, -1):
            base[m] = off
            off += self.block[m]
        self.base = base
        self.total = off
        bounds = []
        for m in range(D + 1):
            bounds.append((self.base[m], self.base[m] + self.block[m]))
        self.bounds = bounds

    def col(self, word_rank: int, deg: int, h: int) -> int:
        return self.base[deg] + word_rank * self.hdim + h

    def degree_of(self, col: int) -> int:
        for m in range(self.D, -1, -1):
            lo, hi = self.bounds[m]
            if lo <= col < hi:
                return m
        raise OracleError("column out of range")

    def decode(self, col: int) -> tuple[int, int, int]:
        m = self.degree_of(col)
        rest = col - self.base[m]
        return rest // self.hdim, m, rest % self.hdim

    def dim_upto(self, m: int) -> int:
        return sum(self.block[j] for j in range(m + 1))


# -- the spanning oracle ---------------------------------------------------------

def _relator_rows(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa, amb: _Ambient,
                  ech: SparseEchelon) -> list[dict]:
    """Relators r_a - kappa^L(r_a) - kappa^C(r_a) as integer rows."""
    vd = B.vdim
    rows = []
    for a in range(B.dim_relations()):
        row: dict = {}
        for (i, j), c in B.relation_sparse(a).items():
            for u, cu in H.unit.items():
                add_into(row, amb.col(i * vd + j, 2, u), c * cu)
        for (v, h), c in kappa.l_vec(a).items():
            add_into(row, amb.col(v, 1, h), -c)
        for h, c in kappa.c_vec(a).items():
            add_into(row, amb.col(0, 0, h), -c)
        rows.append(ech.from_scalars(row))
    return rows


def _prepare_tables(H: HopfAlgebra, B: ModuleAlgebra, ech: SparseEchelon):
    """Integer straightening and multiplication tables.

    Each table is scaled by one common denominator, so a row built from it
    is a fixed multiple of the true product and spans the same line.
    """
    vd, d = B.vdim, H.dim
    one = Scalar.one(H.order)
    # straight[h][v] = list of (v_out, h_out, coeff) for e_h . v
    moved = [[straighten(H, B, {h: one}, {(v,): one}) for v in range(vd)] for h in range(d)]
    den = lcm(*(c.den for per_v in moved for m in per_v for c in m.values()))
    straight = [[[(word[0], h2, ech.coeff(c, den)) for (word, h2), c in m.items()]
                 for m in per_v] for per_v in moved]
    # hmul[h][g] = list of (h_out, coeff) for e_h e_g
    den = lcm(*(c.den for per_g in H.mult for prod in per_g for c in prod.values()))
    hmul = [[[(k, ech.coeff(c, den)) for k, c in prod.items()] for prod in per_g]
            for per_g in H.mult]
    return straight, hmul


def filtered_dims(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa,
                  N: int = 3, k: int = 1) -> FilteredDimReport:
    """Span the relator ideal through degree N + k and report the filtered
    dimension upper bounds for degrees 0..N against the PBW expectation."""
    if N < 2:
        raise OracleError("degree bound must be at least 2")
    D = N + k
    if D > B.cutoff:
        raise CutoffExceeded(f"spanning degree {D} exceeds cutoff {B.cutoff}")
    vd, d = B.vdim, H.dim
    amb = _Ambient(vd, d, D)
    ech = SparseEchelon(H.order)
    mul, addv, iszero = ech.mul, ech.add, ech.is_zero
    straight, hmul = _prepare_tables(H, B, ech)
    hgens = algebra_generators(H)

    gen_of: dict = {}        # pivot col -> generation degree
    pending = deque()        # (pivot col, generation degree, seed flag)

    def insert(row: dict, gen: int, seed: bool) -> None:
        piv = ech.insert(row)
        if piv is not None:
            gen_of[piv] = gen
            pending.append((piv, gen, seed))

    def right_h(row: dict, g: int) -> dict:
        out: dict = {}
        for col, v in row.items():
            wr, m, h = amb.decode(col)
            base = amb.base[m] + wr * d
            for h2, cm in hmul[h][g]:
                t = mul(v, cm)
                c2 = base + h2
                cur = out.get(c2)
                nv = addv(cur, t) if cur is not None else t
                if iszero(nv):
                    out.pop(c2, None)
                else:
                    out[c2] = nv
        return out

    def left_h(row: dict, g: int) -> dict:
        # straighten e_g through every term, with one denominator for the row
        one = Scalar.one(H.order)
        terms = []
        for col, v in row.items():
            wr, m, h = amb.decode(col)
            word = []
            for _ in range(m):
                word.append(wr % vd)
                wr //= vd
            terms.append((v, m, h, straighten(H, B, {g: one}, {tuple(reversed(word)): one})))
        den = lcm(*(c.den for *_, moved in terms for c in moved.values()))
        out: dict = {}
        for v, m, h, moved in terms:
            for (w2, hmid), c in moved.items():
                cv = mul(v, ech.coeff(c, den))
                wr2 = 0
                for wi in w2:
                    wr2 = wr2 * vd + wi
                base = amb.base[m] + wr2 * d
                for h2, cm in hmul[hmid][h]:
                    t = mul(cv, cm)
                    c2 = base + h2
                    cur = out.get(c2)
                    nv = addv(cur, t) if cur is not None else t
                    if iszero(nv):
                        out.pop(c2, None)
                    else:
                        out[c2] = nv
        return out

    def left_v(row: dict, v: int) -> dict:
        out = {}
        for col, val in row.items():
            wr, m, h = amb.decode(col)
            out[amb.col(v * (vd ** m) + wr, m + 1, h)] = val
        return out

    def right_v(row: dict, v: int) -> dict:
        out: dict = {}
        for col, val in row.items():
            wr, m, h = amb.decode(col)
            for v2, h2, cs in straight[h][v]:
                t = mul(val, cs)
                c2 = amb.col(wr * vd + v2, m + 1, h2)
                cur = out.get(c2)
                nv = addv(cur, t) if cur is not None else t
                if iszero(nv):
                    out.pop(c2, None)
                else:
                    out[c2] = nv
        return out

    def drain() -> None:
        while pending:
            piv, gen, seed = pending.popleft()
            row = ech.pivots[piv]
            for g in hgens:
                insert(right_h(row, g), gen, seed)
                if seed:
                    insert(left_h(row, g), gen, True)

    for row in _relator_rows(H, B, kappa, amb, ech):
        insert(row, 2, True)
    drain()
    for j in range(2, D):
        layer = [piv for piv, g in gen_of.items() if g == j]
        for piv in layer:
            row = ech.pivots[piv]
            for v in range(vd):
                insert(left_v(row, v), j + 1, False)
                insert(right_v(row, v), j + 1, False)
        drain()

    # pivot counts by degree give dim(span  cap  T_{<=m})
    pivot_deg = [amb.degree_of(c) for c in ech.pivots]
    computed = []
    expected = []
    for m in range(N + 1):
        inter = sum(1 for pd in pivot_deg if pd <= m)
        computed.append(amb.dim_upto(m) - inter)
        expected.append(sum(graded_dim(B, j) for j in range(m + 1)) * d)
    falsified_at = next((m for m in range(N + 1) if computed[m] < expected[m]), None)
    verdict = "FALSIFIED" if falsified_at is not None else "CONSISTENT"
    return FilteredDimReport(N, k, computed, expected, verdict, falsified_at)


def pbw_probe(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa,
              N: int = 3, k_max: int = 2) -> ProbeReport:
    """Run filtered_dims for buffers 0..k_max; FALSIFIED on the first strict
    deficiency proves the quotient is not PBW, CONSISTENT is evidence only."""
    reports = []
    for k in range(k_max + 1):
        rep = filtered_dims(H, B, kappa, N, k)
        reports.append(rep)
        if rep.falsified:
            return ProbeReport("FALSIFIED", rep.falsified_at, k, reports)
    return ProbeReport("CONSISTENT", None, None, reports)
