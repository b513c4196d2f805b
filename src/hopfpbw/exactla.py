"""Deterministic exact linear algebra over cyclotomic scalars.

Every row reduction in the package runs on one engine, ``SparseEchelon``:
a sparse, fraction-free echelon over Z[zeta_N] that works on the integer
coordinates of the coefficients.  Scalar rows enter it with one common
denominator cleared per row, and a final back-substitution returns the
reduced row echelon form in Scalars.  The oracle feeds it integer rows
directly.

The pivot of a row is its first nonzero column, so every result (RREF,
kernel bases, subspace bases) is the unique canonical one and golden-test
stable.  A ``Subspace`` holds the sparse RREF rows that the engine returns,
{col: Scalar} in pivot order, which makes subspace equality structural
equality; ``from_sparse``, ``intersect``, ``sparse_kernel`` and
``Subspace.reduce_sparse`` stay sparse throughout.  ``Matrix``, ``rref``,
``kernel``, ``solve``, ``membership`` and the dense ``Subspace.from_vectors``,
``reduce`` and ``contains`` convert at their own boundary; the package does
not call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import add, floordiv, mul, not_

from .scalar import Scalar, field


class LinAlgError(Exception):
    pass


class AmbientMismatch(LinAlgError):
    pass


class NoSolution(LinAlgError):
    pass


class NotMember(LinAlgError):
    pass


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix of Scalars."""

    rows: int
    cols: int
    entries: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise LinAlgError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: list[list[Scalar]], cols: int | None = None, order: int | None = None) -> "Matrix":
        nrows = len(rows)
        if nrows == 0:
            if cols is None:
                raise LinAlgError("empty matrix needs an explicit column count")
            return Matrix(0, cols, ())
        ncols = len(rows[0]) if cols is None else cols
        flat: list[Scalar] = []
        for r in rows:
            if len(r) != ncols:
                raise LinAlgError("ragged rows")
            flat.extend(r)
        return Matrix(nrows, ncols, tuple(flat))

    @staticmethod
    def identity(n: int, order: int) -> "Matrix":
        one, zero = Scalar.one(order), Scalar.zero(order)
        return Matrix(n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int, order: int) -> "Matrix":
        return Matrix(rows, cols, (Scalar.zero(order),) * (rows * cols))

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[Scalar]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def row_list(self) -> list[list[Scalar]]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols, self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def mul_vec(self, v: list[Scalar]) -> list[Scalar]:
        if len(v) != self.cols:
            raise LinAlgError("vector length does not match column count")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = None
            for j, x in enumerate(v):
                if x.is_zero():
                    continue
                term = self.entries[base + j] * x
                acc = term if acc is None else acc + term
            if acc is None:
                acc = _zero_like(v[0]) if v else Scalar.zero(1)
            out.append(acc)
        return out


def _zero_like(s: Scalar) -> Scalar:
    return Scalar.zero(s.order)


def _rref_sparse(rows: list[dict], order: int) -> dict:
    """Canonical RREF of sparse Scalar rows: {pivot col: {col: Scalar}}."""
    ech = SparseEchelon(order)
    for r in rows:
        ech.insert(ech.from_scalars(r))
    return ech.rref_rows()


def _order(rows) -> int | None:
    """The field order of the first entry of some sparse rows, None if all are empty."""
    return next((c.order for r in rows for c in r.values()), None)


def _sparse(v: list[Scalar]) -> dict:
    return {j: c for j, c in enumerate(v) if c}


def _dense(row: dict, ncols: int, zero: Scalar) -> list[Scalar]:
    v = [zero] * ncols
    for c, s in row.items():
        v[c] = s
    return v


def _rref_rows(rows: list[list[Scalar]], ncols: int) -> tuple[list[list[Scalar]], list[int]]:
    """RREF of dense rows; returns (nonzero rows, pivot columns)."""
    s = Subspace.from_vectors(ncols, rows)
    zero = Scalar.zero(_order(s.rows) or 1)
    return [_dense(r, ncols, zero) for r in s.rows], list(s.pivots)


def rref(m: Matrix) -> tuple[int, Matrix, list[int]]:
    """Unique reduced row echelon form; returns (rank, reduced, pivot columns)."""
    nz, pivots = _rref_rows(m.row_list(), m.cols)
    zero = Scalar.zero(m.entries[0].order if m.entries else 1)
    padded = nz + [[zero] * m.cols for _ in range(m.rows - len(nz))]
    return len(nz), Matrix.from_rows(padded, cols=m.cols), pivots


@dataclass(frozen=True)
class Subspace:
    """A subspace stored by its canonical RREF: ``rows[k]`` is the sparse
    row {col: Scalar} with leading coefficient 1 at column ``pivots[k]``,
    zero at every other pivot column, keys ascending; pivots ascending."""

    ambient_dim: int
    rows: tuple[dict, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: list[list[Scalar]]) -> "Subspace":
        """The span of dense vectors."""
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch("vector length differs from ambient dimension")
        rows = [_sparse(v) for v in vectors]
        order = _order(rows)
        if order is None:
            return Subspace.zero(ambient_dim)
        return Subspace.from_sparse(ambient_dim, rows, order)

    @staticmethod
    def from_sparse(ambient_dim: int, rows: list[dict], order: int) -> "Subspace":
        """The span of sparse rows {col: Scalar}."""
        return Subspace._from_rref(ambient_dim, _rref_sparse(rows, order))

    @staticmethod
    def _from_rref(ambient_dim: int, red: dict) -> "Subspace":
        pivots = sorted(red)
        return Subspace(ambient_dim, tuple({c: red[p][c] for c in sorted(red[p])} for p in pivots),
                        tuple(pivots))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce_sparse(self, row: dict) -> tuple[dict, dict]:
        """Express a sparse row against the basis: returns its coordinates
        {k: Scalar} (nonzero ones only) and the sparse remainder.  The
        coordinate on rows[k] is the entry at pivots[k]: exact, because every
        other basis row is zero there."""
        coords = {k: c for k, p in enumerate(self.pivots) if (c := row.get(p))}
        rem = {col: c for col, c in row.items() if c}
        for k, c in coords.items():
            for col, b in self.rows[k].items():
                cur = rem.get(col)
                nv = -(c * b) if cur is None else cur - c * b
                if nv:
                    rem[col] = nv
                else:
                    del rem[col]
        return coords, rem

    def reduce(self, v: list[Scalar]) -> tuple[list[Scalar], list[Scalar]]:
        """Express a dense vector against the basis: returns (coords, remainder)."""
        if len(v) != self.ambient_dim:
            raise AmbientMismatch("vector length differs from ambient dimension")
        coords, rem = self.reduce_sparse(_sparse(v))
        zero = _zero_like(v[0]) if v else None
        return [coords.get(k, zero) for k in range(self.dim)], _dense(rem, len(v), zero)

    def contains(self, v: list[Scalar]) -> bool:
        _, rem = self.reduce(v)
        return all(c.is_zero() for c in rem)


def membership(v: list[Scalar], s: Subspace) -> list[Scalar]:
    """Coordinates of v in the stored basis of s; raises NotMember otherwise."""
    coords, rem = s.reduce(v)
    if any(not c.is_zero() for c in rem):
        raise NotMember("vector is not in the subspace")
    return coords


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the right null space of m."""
    order = m.entries[0].order if m.entries else 1
    rows = [_sparse(m.row(i)) for i in range(m.rows)]
    return Subspace.from_sparse(m.cols, sparse_kernel(rows, m.cols, order), order)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces (Zassenhaus block elimination)."""
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    rows = [{**r, **{n + j: c for j, c in r.items()}} for r in a.rows] + list(b.rows)
    # rows with a zero left block span the intersection, already in RREF
    red = _rref_sparse(rows, _order(a.rows))
    return Subspace._from_rref(n, {p - n: {c - n: s for c, s in row.items()}
                                   for p, row in red.items() if p >= n})


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise AmbientMismatch("subspaces live in different ambient spaces")
    rows = list(a.rows + b.rows)
    if not rows:
        return Subspace.zero(a.ambient_dim)
    return Subspace.from_sparse(a.ambient_dim, rows, _order(rows))


def solve(m: Matrix, rhs: list[Scalar]) -> tuple[list[Scalar], Subspace]:
    """Particular solution of m x = rhs plus the homogeneous kernel.

    Raises NoSolution when rhs is outside the column space.
    """
    if len(rhs) != m.rows:
        raise LinAlgError("rhs length does not match row count")
    order = rhs[0].order if rhs else (m.entries[0].order if m.entries else 1)
    zero = Scalar.zero(order)
    rows = [m.row(i) + [rhs[i]] for i in range(m.rows)]
    nz, pivots = _rref_rows(rows, m.cols + 1)
    if m.cols in pivots:
        raise NoSolution("rhs not in column space")
    x = [zero] * m.cols
    for r, p in enumerate(pivots):
        x[p] = nz[r][m.cols]
    return x, kernel(m)


# ---------------------------------------------------------------------------
# The elimination engine: every row reduction in the package runs here.

# A pivot stored by ``insert`` whose lead is not rational and has an integer
# coordinate wider than this many bits is first multiplied by the product of
# the lead's other Galois conjugates, which makes the lead its norm, an
# integer, so that later reductions by it cross-multiply by an integer and
# ``_strip`` can divide the growth back out.  Over Q(zeta_7), with such
# leads left alone, the entries of a 1,519-column oracle span doubled in
# width with each new pivot and passed 300,000 bits at the 50th.  No pivot
# lead of the benchmark's workloads is wider than 3 bits, so the rule does
# not fire there.
MAX_CYCLOTOMIC_LEAD_BITS = 32


class SparseEchelon:
    """Incremental, fraction-free echelon form of sparse rows over Z[zeta_N].

    A row is a dict col -> coefficient, where a coefficient holds the
    integer coordinates of an element of Z[zeta_N] in the power basis: a
    tuple of phi(N) ints, or a plain int when phi(N) = 1.  The ring
    operations on coefficients are the attributes ``mul``, ``add``,
    ``scale`` (by an int) and ``is_zero``, and the row operation
    ``submul_row(out, a, piv, c)``, out -= a * piv in place over every
    column of piv but its lead column c: one call per reduction step,
    ``CycloField.submul_row`` for phi(N) > 1.

    ``insert`` stores a pivot whose lead is a root of unity +-zeta^j
    divided by that unit, so with lead exactly ``one``: a reduction by it
    subtracts a multiple of it and neither cross-multiplies nor strips.  A
    reduction by any other pivot cross-multiplies by its leading coefficient
    and strips the integer content of the result, so nothing is divided
    until ``rref_rows``; ``insert`` first makes a wide non-rational lead
    rational (``MAX_CYCLOTOMIC_LEAD_BITS``).  Keeping pivots monic is the
    practice of Faugere's F4 (J. Pure Appl. Algebra 139 (1999)).  Scalar
    rows enter through ``from_scalars``, which clears one common
    denominator per row and so keeps the row space.  The pivot rows are
    stored unreduced against each other; insertion order does not affect
    the row space, and ``rref_rows`` returns its unique reduced row echelon
    form.

    ``pivots`` holds a row for every pivot that ``insert`` stored.  A caller
    may keep pivots that are stored nowhere: a reduction that meets a column
    with no entry in ``pivots`` asks the caller's ``derive(pivots, c)`` for
    the row of the pivot there, None when c has no pivot, and ``row`` reads
    a pivot of either kind.
    """

    def __init__(self, order: int):
        f = field(order)
        self.order = order
        self.pivots: dict = {}      # col -> row with its leading entry at col
        # derive(pivots, col) -> the row of the pivot at col when pivots holds
        # nothing there, None when col has no pivot
        self.derive = _no_pivot
        self.phi = f.phi
        if f.phi == 1:
            self.mul, self.add, self.scale = mul, add, mul
            self.is_zero, self._content, self._divide = not_, abs, floordiv
            self.submul_row = _submul_int
        else:
            self.mul, self.submul_row = f.mul_vec, f.submul_row
            self.add = lambda a, b: tuple(map(add, a, b))
            self.scale = lambda a, c: tuple(x * c for x in a)
            self.is_zero = lambda a: not any(a)
            self._content = lambda a: gcd(*a)
            self._divide = lambda a, g: tuple(x // g for x in a)
        # _unit_inverse[u] = u^-1 for each of the 2N roots of unity
        # u = +-zeta^j; one, the coefficient 1, is the lead of every pivot
        # stored with such a lead
        pows = [v[0] for v in f.powers] if f.phi == 1 else list(f.powers)
        self.one = pows[0]
        self._unit_inverse = {self.scale(u, s): self.scale(pows[-j % order], s)
                              for j, u in enumerate(pows) for s in (1, -1)}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def row(self, c: int) -> dict | None:
        """The pivot row at column c, made by ``derive`` if it is stored
        nowhere; None when c has no pivot."""
        piv = self.pivots.get(c)
        return piv if piv is not None else self.derive(self.pivots, c)

    def coeff(self, s: Scalar, den: int):
        """Integer coordinates of den * s, for den a multiple of s.den."""
        m = den // s.den
        return s.num[0] * m if self.phi == 1 else tuple(x * m for x in s.num)

    def from_scalars(self, row: dict) -> dict:
        """A sparse Scalar row times the lcm of its denominators."""
        den = lcm(*(s.den for s in row.values()))
        return {c: self.coeff(s, den) for c, s in row.items() if s}

    def _strip(self, row: dict) -> dict:
        g = 0
        for v in row.values():
            g = gcd(g, self._content(v))
            if g == 1:
                return row
        divide = self._divide
        return {c: divide(v, g) for c, v in row.items()}

    def _reduce(self, row: dict) -> tuple[int | None, dict]:
        """Reduce a row until its leading column has no pivot; returns that
        column and the stripped row, or (None, {}) when the row reduces to 0."""
        mul, submul_row, is_zero, one = self.mul, self.submul_row, self.is_zero, self.one
        pivots = self.pivots
        row = {c: v for c, v in row.items() if not is_zero(v)}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                piv = self.derive(pivots, c)
                if piv is None:
                    return c, self._strip(row)
            pc = piv[c]
            rc = row.pop(c)
            # a step by a monic pivot does not scale the row up, so it is
            # stripped only after a cross-multiply and when it stops
            if pc == one:
                submul_row(row, rc, piv, c)
            else:
                row = {col: mul(pc, v) for col, v in row.items()}
                submul_row(row, rc, piv, c)
                row = self._strip(row)
        return None, {}

    def insert(self, row: dict) -> int | None:
        """Insert an integer row; returns its new pivot column, or None if
        the row is dependent on the rows inserted so far."""
        c, row = self._reduce(row)
        if c is not None:
            lead = row[c]
            inv = self._unit_inverse.get(lead)
            if inv is not None:
                # a root-of-unity lead: store the row divided by it, lead one;
                # a unit multiple of a stripped row is stripped
                if inv != self.one:
                    mul = self.mul
                    row = {col: mul(inv, v) for col, v in row.items()}
            elif (self.phi > 1 and max(map(abs, lead)).bit_length() > MAX_CYCLOTOMIC_LEAD_BITS
                    and any(lead[1:])):
                f, mul = field(self.order).norm_cofactor(lead), self.mul
                row = self._strip({col: mul(f, v) for col, v in row.items()})
            self.pivots[c] = row
        return c

    def contains(self, row: dict) -> bool:
        """Whether an integer row lies in the span of the rows inserted so far."""
        return self._reduce(row)[0] is None

    def rref_rows(self) -> dict:
        """Back-substitute to the unique RREF: {pivot col: {col: Scalar}},
        every row scaled to leading coefficient 1."""
        order, phi = self.order, self.phi
        one = Scalar.one(order)
        red: dict = {}
        for c in sorted(self.pivots, reverse=True):
            row = {col: Scalar._make(order, 1, (v,) if phi == 1 else v)
                   for col, v in self.pivots[c].items()}
            if row[c] != one:
                inv = row[c].inverse()
                row = {col: s * inv for col, s in row.items()}
            for c2 in [k for k in row if k != c and k in red]:
                f = row.pop(c2)
                for col, v in red[c2].items():
                    if col == c2:
                        continue
                    cur = row.get(col)
                    nv = (cur - f * v) if cur is not None else -(f * v)
                    if nv:
                        row[col] = nv
                    else:
                        row.pop(col, None)
            red[c] = row
        return red


def _submul_int(out: dict, a: int, piv: dict, c: int) -> None:
    """``SparseEchelon.submul_row`` for phi(N) = 1, on plain ints."""
    get = out.get
    for col, b in piv.items():
        if col == c:
            continue
        cur = get(col)
        if cur is None:
            out[col] = -a * b
        else:
            n = cur - a * b
            if n:
                out[col] = n
            else:
                del out[col]


def _no_pivot(pivots: dict, c: int) -> None:
    """``SparseEchelon.derive`` for an engine that stores every pivot's row."""
    return None


def sparse_kernel(rows: list[dict], ncols: int, order: int) -> list[dict]:
    """Kernel basis of a sparse homogeneous system, one sparse row per free
    column f of its RREF: 1 at f, minus the RREF entries of column f at the
    pivots, keys ascending."""
    red = _rref_sparse(rows, order)
    one = Scalar.one(order)
    pivots = sorted(red)
    return [{**{p: -red[p][f] for p in pivots if f in red[p]}, f: one}
            for f in range(ncols) if f not in red]
