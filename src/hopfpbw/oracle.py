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

Spanning order.  The relator rows and their left and right multiples by
the generators ``algebra_generators(H)`` are the seeds, generation 2.
Generation j + 1, for j < N + k, is formed in two passes: first the left
V-multiples of every generation-j pivot, then the right V-multiples of
those generation-j pivots that were not born of a left V-multiple and
are not translated virtual pivots (below).  A left multiple whose lead
column holds no pivot is a new pivot as it stands and is stored nowhere
(virtual pivots, below); taken first, the left multiples claim their
lead columns before any right multiple does, so more of them stay
virtual, fewer pivots are born of right multiples, and fewer rows reach
the shadow and the exact engine.  No later generation is closed under H
again, and neither loses anything.  The lemmas below are about this
order; the F_p shadow further down only ever skips rows.

Product lemma.  Let S_j be the span through generation j and L_j the
generation-j pivots.  Every pivot of generation at most N + k - 1 gets
its left V-multiples, so V S_j lies in S_{j+1}.  A pivot y of generation
j < N + k born of a left multiple is y = (lam v x - sum_i mu_i p_i) / g
for a generation-(j - 1) pivot x, pivots p_i, stored or virtual, that
exist before y and scalars lam, mu_i, g != 0 (lam = g = 1 and no p_i when
y is virtual, see below).  Pivots never change, and each p_i is of a
generation below j or is a left multiple of generation j that exists
before y, since generation j - 1 takes its right multiples last.  So
y w = (lam v (x w) - sum_i mu_i p_i w) / g for w in V.  By induction on
insertion order, not on the loop order, x w lies in S_j and each p_i w
in S_{j+1}, and v (x w) lies in V S_j, inside S_{j+1}: y V lies in
S_{j+1} without forming y w.  Hence S_{j+1} = S_j + V L_j + L_j V, with
V S_j and S_j V inside S_{j+1}, in whatever order the multiples are
taken; the span fixes the pivot columns and so the tables.  This is the
one-sided product rule of linear-algebra Groebner methods (Faugere, F4,
J. Pure Appl. Algebra 139 (1999)).

H-closure lemma.  If S_j is a two-sided H-module, then so is S_{j+1};
for x in L_j, v in V and h in H:

- (v x) h = v (x h) and h (x v) = (h x) v lie in V S_j and S_j V;
- (x v) h = x (v h) lies in S_j V, and h (v x) = (h v) x in V S_j,
  because v h and h v are sums of h' v' and v' h' in T(V) # H: the
  straightening map h (x) v -> sum (h_1 . v) (x) h_2 is bijective once
  the antipode is, and every finite-dimensional Hopf algebra has a
  bijective antipode (Larson-Sweedler, Amer. J. Math. 91 (1969)).

So the spans, the pivot columns and the tables are the ones that an
H-closure and all right V-multiples after every generation give.  This
needs T(V) # H to be an associative smash product: H and the action must
already pass ``validate_hopf`` and ``validate_action``.

Exact rows.  Rows are integer coefficient vectors over Z[zeta_N], reduced
by the shared fraction-free engine ``exactla.SparseEchelon``; it is the
only store of pivots, and the reported tables are read from its pivot
columns alone.  Each generated row is a fixed multiple of the true
product: the relators, the straightening table and the multiplication
table each clear one common denominator, and a left H-multiple clears one
per row.  The column order is by descending degree, so pivot counts per
degree block give the intersection dimensions directly.

Each ring (``_Ring``: the exact one and the shadow's, below) converts
the tables of H into its coefficients.  The table e_h . v, which every
right V-multiple reads whole, is converted up front; a product e_h e_g
and a straightening straighten(e_g, word) are converted on their first
read, and straighten(e_g, word) is taken once per (g, word) for both
rings.  The exact products keep one denominator for the whole table, the
lcm of the denominators of H.mult, so that lazily converted entries are
the ones the whole table would give.

The F_p shadow.  Most candidate rows op(pivot) lie in the span already.
The exact engine stores a pivot whose lead is a root of unity with lead
one (``SparseEchelon.one``), and a reduction by such a pivot only
subtracts, so while every stored lead is one the span builds no shadow:
every candidate goes straight to ``ech.insert``, and the span, its pivot
columns and its tables are exactly the exact span's.  Every bundled
preset's kappa at buffers 0..2, and every span of the benchmark's family
members, is of this kind.  The first pivot stored with another lead (a
relator whose kappa^C has a denominator, or the cross-multiplied
remainder of a dense kappa^C) starts the shadow, and
from then on reducing candidates exactly is the bulk of the work.  So
every later candidate is first built and reduced modulo a prime ideal
P = (p, zeta - w), with p a prime below 2^61, p = 1 (mod N) and w a
primitive N-th root of unity mod p, against the images of the exact
pivots, each normalized to lead 1 and packed in flat arrays.  Only a
candidate whose image does not reduce to zero is rebuilt from the exact
pivot and inserted into the exact engine.  The shadow starts as a prime
move does (``_next_shadow``): it images every pivot stored so far and
reads the virtual ones off their sources.  On a dense kappa^C over
Q(zeta_7) (taft-7 at (3, 0) and (3, 1)) a copy that never starts the
shadow took 4.1 s instead of 0.40 s.  The shadow decides nothing else:

- It never adds a row.  Every row the exact engine holds is still a
  genuine multiple of an element of the ideal, so the exact span can only
  shrink, ``computed_dims`` can only grow, and FALSIFIED is still a proof
  and needs no rerun.
- While every exact pivot lead is a unit modulo P, a candidate that lies in
  the exact span reduces to zero in the shadow too, and a candidate the
  shadow keeps adds an exact pivot.  The tables are then the ones an
  exact-only span gives, unless a row that is nonzero over Z[zeta_N]
  vanishes modulo P; a span that never starts the shadow has no such
  caveat.
- An exact pivot whose lead lies in P would break that, so the shadow
  moves to the next prime of one fixed deterministic list and re-images
  the stored exact pivots.
- A table denominator divisible by p would break it too, and the shadow
  converts most table entries lazily, in the middle of the span.  So a
  prime is vetted before its shadow is built: it must divide no
  denominator of H.mult, H.comult or the action matrices.  Every table
  entry is a sum of products of these (``straighten`` reads only the
  coproduct and the action), and the denominator of a sum or product of
  elements of Q(zeta_N) divides the product of their denominators (the
  reduction modulo the cyclotomic polynomial, which is monic, brings in
  none), so p then divides no table denominator either.

Virtual pivots.  Left multiplication by v maps the column of w (x) h to
that of v w (x) h and preserves the column order, so v x has its lead at
the image of x's lead column, with x's lead coefficient.  When that
column holds no stored pivot and no translate (below), v x is a new
pivot as it stands, and it is stored nowhere: its column names it.
Before a generation's left phase reduces anything, its pivots are
flagged as sources (``_Ambient.source``).  Then a column c with no
stored pivot and no translate holds the virtual pivot v x when, for v
the first letter of c's word and c' the column of the rest of it, c'
holds a source pivot x, stored, translated or itself virtual;
``_Ambient.virtual`` walks back through the letters to the nearest stored
row or translate.  The exact engine's ``derive`` relabels that row down
by all the letters at once, which is exactly the row that ``insert``
would store at c (the relabelled row is already stripped, and its lead is
the stored row's), and the shadow relabels that row's slice, which gives
the image of v x with lead 1.  Left multiplication is injective on
words, so each left phase meets each of its virtual pivots once and
counts it by degree for the tables; it lists those of generations below
D = N + k as sources of the next, and nothing multiplies a pivot of
generation D.  The lookup is in place before the left phase reduces
anything, so no reduction stops at a virtual column and no pivot is ever
stored at one; a left multiple whose column holds a stored pivot or a
translate is still reduced, through the virtual pivots.  A shadow that
starts or moves images the stored pivots only.  The span is the one
above, S_{j+1} = S_j + V L_j + L_j V, and the pivot columns of a span are
unique, so the pivot columns and the tables are the ones that storing
every pivot gives.  Chains are dropped after use, so the engine holds
only the rows that ``insert`` stored.

Translated pivots.  G is the set of group-like basis elements e_g != 1
of H, Delta(e_g) = e_g (x) e_g, whose right multiplication sends each e_h
to a root-of-unity multiple of a basis element, by a bijection, with G
and the unit closed under products (``HopfAlgebra.right_translations``,
read off H's tables once per H): sweedler has 1, taft-n n - 1, h8 3, ha1 7
and cbh-cyclic-n n - 1.  In a basis where this fails G is empty and the
span is the one without translations.  Right
multiplication by 1 # e_g, R_g, moves each column within its word and
multiplies its entry by a unit: a relabelling, like left multiplication
by a letter, but within each word.  Every pivot y that ``insert`` stores
brings its translates y e_g, g in G.  When y's lead word carries one
H-entry, y e_g has its lead at the image of y's lead column, with y's
lead coefficient times a unit u; when that column holds no pivot,
stored, virtual or translated, y e_g / u is a new pivot as it stands, a
translated virtual pivot, stored nowhere (``_Ambient.translated``) and
counted by degree.  It is a source in its generation's left phase and
is never right-multiplied.  Any other translate is inserted as a row of
y's layer, and a pivot that it stores brings its own translates.

- Every generation's span is R_G-invariant.  Each stored pivot brings
  its translates; a translate of a translate is a translate, since G and
  the unit form a group; and a virtual left multiple's translate is
  (v x) e_g = v (x e_g), with x e_g in S_j, so it lies in V S_j, inside
  S_{j+1} (product lemma: translates are sources too).
- A translated virtual pivot y e_g / u needs no right V-multiples: for a
  group-like, e_g w = (g . w) e_g, so (y e_g) w = (y (g . w)) e_g lies in
  S_{j+1} R_g, inside S_{j+1}, once y V does (product lemma, by induction
  on insertion order).  The product lemma's p_i may now be translates,
  whose right multiples lie in S_{j+1} by this step.
- The seeds' H-closure drops right multiplication by the generators in
  G, whose products are the translates, and takes right multiples by
  every other generator of every seed pivot, stored or translated: a span
  is closed under H when each element of a basis of it, the translates
  included, has its products by the generators in it.  Left H-multiples
  of a translate are not needed: e_h (y e_g) = (e_h y) e_g lies in the
  span once e_h y does, by R_G-invariance.
- A translated virtual pivot is safe for the shadow.  y's lead word
  carries one H-entry, so the lead of y e_g / u is at the image of y's
  lead column with y's lead coefficient, a unit modulo P whenever y's is,
  and its image is y's image relabelled with the images of the units,
  lead 1: what ``add_pivot`` stores for it.  ``_Ambient.virtual`` reads
  it, and every virtual left multiple of it, off y's slice.

So each generation's span is the old one, with the same pivot columns
and tables.  Cutting a Groebner computation by the orbits of a
commutative group that acts on the ideal is the idea of Faugere and
Svartz (ISSAC 2013).  On ha1 at (N, k) = (3, 2), 310 pivots are stored,
2,170 are translated and 17,344 left multiples are virtual (storing
every pivot gives 2,480 stored), and exact reads derive 1,764 rows
during the span (12,070 without translations; no shadow screens that
span), through chains of at most three letters.

Memoized moves.  What a derived row costs beyond its entries is the
shift by which a chain of letters moves a column of each degree, which
depends only on the chain and the stored row's degree, and for a
translate the move and units within each word, which depend only on the
translation and the H-index of the stored row's lead.  ``_Ambient.shifts``
and ``_Ambient.moves`` are ``Lazy`` tables: ``_Ambient.virtual`` reads
each key, its entry is composed (``_shift``, ``_move``) on the first read
and kept for the rest of the span: 88 and 15 keys for the 1,764 rows
derived on ha1 at (3, 2).  Only these are kept, never a derived row.  Their
make functions hold the letter shifts and the translations, never the
``_Ambient``, so no reference cycle keeps a span's layout alive after the
span.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field as dc_field
from functools import partial
from itertools import repeat
from math import lcm
from operator import add, mul, not_

from .scalar import Scalar, field
from .exactla import SparseEchelon
from .hopf import HopfAlgebra, Lazy, add_into, algebra_generators
from .modalg import ModuleAlgebra, CutoffExceeded, graded_dim
from .smash import straighten
from .deform import Kappa


class OracleError(Exception):
    pass


# The largest span the oracle starts: d * sum_{m <= D} vd^m columns.  Its
# cost grows with the column count and the depth D: on the preset kappa,
# ha1 (vd = 4) at D = 5/6/7 has 21,840/87,376/349,520 columns and takes
# 0.04/0.11/0.35-0.45 s, and sweedler (vd = 2) at D = 10/11/13 has
# 8,188/16,380/65,532 columns and takes 0.09/0.23/1.2-1.3 s (Python 3.11.7,
# one core of a shared two-core host; one run each, three at D = 7 and
# 13; without translated pivots the same runs took 0.15/0.46/1.4-1.5 s and
# 0.16/0.37/2.0 s).  The bound admits every bundled preset at the CLI
# defaults (ha1 at D = 5 is the largest) and refuses larger spans before
# anything is built.
MAX_SPAN_COLUMNS = 25_000


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

    def __init__(self, vdim: int, hdim: int, D: int, translations: tuple = ((), ())):
        self.vdim = vdim
        self.hdim = hdim
        self.block = [vdim ** m * hdim for m in range(D + 1)]
        self.base = [0] * (D + 1)
        # column -> degree; a span has at least D + 1 columns, so the span
        # bound keeps every degree below 2^16
        deg = array("H")
        for m in range(D, -1, -1):
            self.base[m] = len(deg)
            deg.extend(repeat(m, self.block[m]))
        self.deg = deg
        self.total = len(deg)
        # lshift[v][m]: the column of v w minus that of w, for w of degree m;
        # the word v w has rank v * vd^m + rank(w)
        self.lshift = [[self.base[m + 1] - self.base[m] + v * vdim ** m * hdim
                        for m in range(D)] for v in range(vdim)]
        # source[c] = 1 for a pivot whose left multiples are taken, from the
        # start of its generation's left phase on: the sources of the
        # virtual pivots
        self.source = bytearray(self.total)
        # shifts[m, *letters]: how far each column of a stored row of degree
        # m moves under the letters that ``virtual`` walks back through to
        # it (``_shift``)
        self.shifts = Lazy(partial(_shift, self.lshift))
        # the right translations (``HopfAlgebra.right_translations``):
        # units[e] is a root of unity, and group[t] = (hmove, exps) moves the
        # entry of each column of H-index h by hmove[h] and multiplies it by
        # units[exps[h]]
        units, group = translations
        self.units = list(units) if group else []
        self.group = [([k - h for h, k in enumerate(perm)], exps) for _, perm, exps in group]
        # translated[c] = (c1, t): c holds the translated virtual pivot, the
        # stored pivot at c1 times the t-th translation, divided by the unit
        # that its lead picks up
        self.translated: dict = {}
        # moves[t, h0]: group[t] with the exponents divided by that of h0
        # (``_move``)
        self.moves = Lazy(partial(_move, self.group, len(self.units) // 2))

    def col(self, word_rank: int, deg: int, h: int) -> int:
        return self.base[deg] + word_rank * self.hdim + h

    def dim_upto(self, m: int) -> int:
        return sum(self.block[j] for j in range(m + 1))

    def virtual(self, c: int, stored) -> tuple[int, list | None, tuple | None] | None:
        """(c0, shift, move) when c, a column with no stored pivot
        (``stored`` holds the columns of those), holds a virtual pivot; else
        None.  Each step drops the first letter v of c's word: c is the
        column of v w (x) h, and it holds v x for x the source pivot at the
        column of w (x) h, until x is stored, at c0, or a translate of the
        stored pivot at c0.  The virtual pivot is the row stored at c0 with
        the entry at each column col, of degree m and H-index h, moved to
        col + shift[m] + hmove[h] and multiplied by units[exps[h]], for
        move = (hmove, exps); shift is None when no letter is dropped, and
        move when no translate is met (``_moved``)."""
        deg, base, block, source = self.deg, self.base, self.block, self.source
        translated = self.translated
        letters = []
        move = None
        while True:
            tr = translated.get(c)
            if tr is not None:
                c, t = tr
                move = self.moves[t, c % self.hdim]
                break
            m = deg[c]
            if not m:
                return None
            v, r = divmod(c - base[m], block[m - 1])
            c = base[m - 1] + r
            if not source[c]:
                return None
            letters.append(v)
            if c in stored:
                break
        if not letters:
            return c, None, move
        return c, self.shifts[(deg[c], *letters)], move


def _shift(lshift: list, key: tuple) -> list:
    """shifts[m, *letters]: a column of degree m' moves by lshift[v_n][m'],
    then by lshift[v_(n-1)][m' + 1], and so on out to the first letter."""
    m, *letters = key
    total = [0] * (m + 1)
    for i, v in enumerate(reversed(letters)):
        shift = lshift[v]
        for n in range(m + 1):
            total[n] += shift[n + i]
    return total


def _move(group: list, N: int, key: tuple) -> tuple:
    """moves[t, h0]: the t-th translation of a row whose lead has H-index
    h0, divided by the unit units[exps[h0]] that the lead picks up, so that
    the lead keeps its coefficient.  A unit exponent e stands for
    (-1)^(e // N) zeta^(e % N) (``HopfAlgebra.right_translations``)."""
    t, h0 = key
    hmove, exps = group[t]
    s0, k0 = divmod(exps[h0], N)
    return hmove, [(s - s0) % 2 * N + (k - k0) % N for s, k in (divmod(e, N) for e in exps)]


# -- coefficient domains ---------------------------------------------------------

def _straightened(H: HopfAlgebra, B: ModuleAlgebra) -> Lazy:
    """straighten(e_g, word) as [(word rank, h, Scalar)], keyed (g, word
    rank, m) for a word of length m; each key is taken once, on its first
    read, and serves both rings."""
    vd = B.vdim
    one = Scalar.one(H.order)

    def make(key):
        g, wr, m = key
        word = []
        for _ in range(m):
            word.append(wr % vd)
            wr //= vd
        moved = straighten(H, B, {g: one}, {tuple(reversed(word)): one})
        terms = []
        for (w2, h2), c in moved.items():
            wr2 = 0
            for wi in w2:
                wr2 = wr2 * vd + wi
            terms.append((wr2, h2, c))
        return terms

    return Lazy(make)


class _Ring:
    """One coefficient domain of the oracle's rows: the ring operations
    ``mul``, ``add``, ``is_zero`` and ``scale`` (by an int), and the
    smash-product tables converted into it.  ``convert`` maps a list of
    Scalars to (den, coefficients of den * s) for one common den.

    ``straight`` is converted up front, since ``_right_v`` reads all of it;
    ``hmul`` and ``moved`` convert an entry on its first read, and
    ``units`` (the roots of unity of ``_Ambient.units``) up front.  No table
    holds a reference to the ring, so a ring dies with its last user."""

    def __init__(self, ops: tuple, convert, H: HopfAlgebra, vdim: int, straightened: Lazy,
                 units=()):
        self.mul, self.add, self.is_zero, self.scale = ops
        scale = self.scale
        self.units = convert(list(units))[1] if units else []
        # straight[h][v] = [(v_out, h_out, c)] for e_h . v, one denominator for the table
        moved = [[straightened[h, v, 1] for v in range(vdim)] for h in range(H.dim)]
        _, cs = convert([c for per_v in moved for terms in per_v for *_, c in terms])
        it = iter(cs)
        self.straight = [[[(v2, h2, next(it)) for v2, h2, _ in terms] for terms in per_v]
                         for per_v in moved]
        # hmul[h][g] = [(k, c)] for e_h e_g, one denominator for the table: the
        # one convert gives the whole table, read off one scalar 1/q per
        # denominator q of H.mult
        dens = {s.den for per_g in H.mult for prod in per_g for s in prod.values()}
        den, _ = convert([Scalar.from_rational(H.order, 1, q) for q in dens])

        def product(per_g, g):
            prod = per_g[g]
            dp, cs = convert(list(prod.values()))
            f = den // dp
            return [(k, c if f == 1 else scale(c, f)) for k, c in zip(prod, cs)]

        self.hmul = [Lazy(partial(product, per_g)) for per_g in H.mult]

        # moved[g, word rank, m] = (den, [(word rank, h, c)]) for straighten(e_g, word)
        def moved_entry(key):
            terms = straightened[key]
            dm, cs = convert([c for *_, c in terms])
            return dm, [(w, h, c) for (w, h, _), c in zip(terms, cs)]

        self.moved = Lazy(moved_entry)


def _exact_ring(ech: SparseEchelon, H: HopfAlgebra, vdim: int, straightened: Lazy,
                units=()) -> _Ring:
    def convert(scalars):
        den = lcm(*(s.den for s in scalars))
        return den, [ech.coeff(s, den) for s in scalars]

    return _Ring((ech.mul, ech.add, ech.is_zero, ech.scale), convert, H, vdim, straightened, units)


def _table_den(H: HopfAlgebra, B: ModuleAlgebra) -> int:
    """The lcm of the denominators of H.mult, H.comult and the action
    matrices.  Every entry of a ring's tables is a sum of products of these
    (``straighten`` reads only the coproduct and the action), so a prime
    that divides none of them divides no denominator that a table converts."""
    dens = [s.den for per_g in H.mult for prod in per_g for s in prod.values()]
    dens += [s.den for cop in H.comult for s in cop.values()]
    dens += [s.den for mat in B.action for r in mat for s in r]
    return lcm(*dens)


# -- the four row operators, one body over any domain ------------------------------
#
# Each takes a ring, the column layout, the (col, coefficient) pairs of a
# row and one generator, and returns the product as a sparse row.

def _right_h(R: _Ring, amb: _Ambient, row, g: int) -> dict:
    """row * (1 # e_g)."""
    mul, add, is_zero, hmul = R.mul, R.add, R.is_zero, R.hmul
    deg, base, d = amb.deg, amb.base, amb.hdim
    out: dict = {}
    for col, v in row:
        m = deg[col]
        wr, h = divmod(col - base[m], d)
        b = base[m] + wr * d
        for h2, cm in hmul[h][g]:
            t = mul(v, cm)
            c2 = b + h2
            cur = out.get(c2)
            nv = add(cur, t) if cur is not None else t
            if is_zero(nv):
                out.pop(c2, None)
            else:
                out[c2] = nv
    return out


def _left_h(R: _Ring, amb: _Ambient, row, g: int) -> dict:
    """(1 # e_g) * row, with one denominator for the row."""
    mul, add, is_zero, scale, hmul, moved = R.mul, R.add, R.is_zero, R.scale, R.hmul, R.moved
    deg, base, d = amb.deg, amb.base, amb.hdim
    terms = []
    for col, v in row:
        m = deg[col]
        wr, h = divmod(col - base[m], d)
        terms.append((v, m, h, moved[g, wr, m]))
    den = lcm(*(t[3][0] for t in terms))
    out: dict = {}
    for v, m, h, (dt, straightened) in terms:
        f = den // dt
        for wr2, hmid, c in straightened:
            cv = mul(v, c if f == 1 else scale(c, f))
            b = base[m] + wr2 * d
            for h2, cm in hmul[hmid][h]:
                t = mul(cv, cm)
                c2 = b + h2
                cur = out.get(c2)
                nv = add(cur, t) if cur is not None else t
                if is_zero(nv):
                    out.pop(c2, None)
                else:
                    out[c2] = nv
    return out


def _left_v(R: _Ring, amb: _Ambient, row, v: int) -> dict:
    """(v # 1) * row: an order-preserving relabelling, no arithmetic."""
    deg, shift = amb.deg, amb.lshift[v]
    return {col + shift[deg[col]]: val for col, val in row}


def _right_v(R: _Ring, amb: _Ambient, row, v: int) -> dict:
    """row * (v # 1)."""
    mul, add, is_zero, straight = R.mul, R.add, R.is_zero, R.straight
    deg, base, d, vd = amb.deg, amb.base, amb.hdim, amb.vdim
    out: dict = {}
    for col, val in row:
        m = deg[col]
        wr, h = divmod(col - base[m], d)
        b = base[m + 1] + wr * vd * d
        for v2, h2, cs in straight[h][v]:
            t = mul(val, cs)
            c2 = b + v2 * d + h2
            cur = out.get(c2)
            nv = add(cur, t) if cur is not None else t
            if is_zero(nv):
                out.pop(c2, None)
            else:
                out[c2] = nv
    return out


# -- the F_p shadow ----------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MR_BASES:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _shadow_primes(order: int):
    """The fixed list of shadow primes for Q(zeta_order): every prime
    p < 2^61 with p = 1 (mod order), largest first."""
    t = (2 ** 61 - 2) // order
    while t > 0:
        p = t * order + 1
        if _is_prime(p):
            yield p
        t -= 1


def _root_of_unity(order: int, p: int) -> int:
    """The first primitive order-th root of unity mod p, for p = 1 (mod order)."""
    qs = [q for q in range(2, order + 1) if order % q == 0 and _is_prime(q)]
    return next(w for w in (pow(x, (p - 1) // order, p) for x in range(1, p))
                if all(pow(w, order // q, p) != 1 for q in qs))


def _images(p: int, pows: list, scalars) -> tuple:
    """(1, the images mod P of some Scalars): the shadow ring's ``convert``.
    It holds p and the powers of w only, so the ring holds no shadow."""
    return 1, [sum(map(mul, s.num, pows)) * pow(s.den, -1, p) % p for s in scalars]


class _Shadow:
    """Images modulo P = (p, zeta - w) of the exact pivot rows, each
    normalized to lead 1 and packed: the pivot stored at column c is the
    slice start[c] : start[c] + size[c] of ``cols``/``vals``, lead first; a
    virtual pivot has no slice and is read off the slice that
    ``amb.virtual`` walks back to, for ``stored`` the exact engine's pivots.
    The prime must be 1 mod N and divide no table denominator
    (``_next_shadow``)."""

    def __init__(self, p: int, H: HopfAlgebra, amb: _Ambient, straightened, stored: dict):
        self.p = p
        self.amb = amb
        self.stored = stored
        w = _root_of_unity(H.order, p)
        phi = field(H.order).phi
        self.pows = [pow(w, j, p) for j in range(phi)]
        self.ring = _Ring((mul, add, not_, mul), partial(_images, p, self.pows), H, amb.vdim,
                          straightened, amb.units)
        # a translated image is multiplied by the image of a unit, mod p
        self.unit_mul = lambda x, u: x * u % p
        self.start = array("q", bytes(8 * amb.total))
        self.size = array("q", bytes(8 * amb.total))
        self.cols = array("q")
        self.vals = array("q")

    def image(self, v) -> int:
        """The image mod P of an integer coordinate vector (or int)."""
        if isinstance(v, int):
            return v % self.p
        return sum(map(mul, v, self.pows)) % self.p

    def add_pivot(self, c: int, row: dict) -> bool:
        """Store the image of an exact pivot row; False if its lead lies in P."""
        p = self.p
        lead = self.image(row[c])
        if not lead:
            return False
        inv = pow(lead, -1, p)
        cols, vals = self.cols, self.vals
        self.start[c] = len(cols)
        cols.append(c)
        vals.append(1)
        for col, v in row.items():
            if col != c:
                x = self.image(v) * inv % p
                if x:
                    cols.append(col)
                    vals.append(x)
        self.size[c] = len(cols) - self.start[c]
        return True

    def row(self, c: int):
        """The image of the pivot at c as (col, value) pairs, lead 1 first."""
        if self.size[c]:
            s = self.start[c]
            return zip(self.cols[s:s + self.size[c]], self.vals[s:s + self.size[c]])
        c, shift, move = self.amb.virtual(c, self.stored)
        s = self.start[c]
        e = s + self.size[c]
        return _moved(self.amb, zip(self.cols[s:e], self.vals[s:e]), shift, move, self.ring.units,
                      self.unit_mul).items()

    def reduces_to_zero(self, row: dict) -> bool:
        """Whether a row (coefficients mod p, not yet reduced) lies in the
        span of the stored images and the virtual pivots.  Entries that
        cancel mod p stay in the row as zeros and are dropped when they come
        to lead."""
        p, start, size, cols, vals = self.p, self.start, self.size, self.cols, self.vals
        amb, stored, units = self.amb, self.stored, self.ring.units
        virtual, deg = amb.virtual, amb.deg
        red = {c: x % p for c, x in row.items()}
        get = red.get
        while red:
            c = min(red)
            f = red.pop(c)
            if not f:
                continue
            n = size[c]
            if n:
                s = start[c] + 1
                e = s + n - 1
                for col, x in zip(cols[s:e], vals[s:e]):
                    red[col] = (get(col, 0) - f * x) % p
                continue
            src = virtual(c, stored)
            if src is None:
                return False
            # the image of a virtual pivot is its stored source's, relabelled
            c, shift, move = src
            s = start[c] + 1
            e = s + size[c] - 1
            if move is None:
                for col, x in zip(cols[s:e], vals[s:e]):
                    col += shift[deg[col]]
                    red[col] = (get(col, 0) - f * x) % p
            else:
                for col, x in _moved(amb, zip(cols[s:e], vals[s:e]), shift, move, units,
                                     self.unit_mul).items():
                    red[col] = (get(col, 0) - f * x) % p
        return True


def _next_shadow(primes, den: int, H: HopfAlgebra, amb: _Ambient, straightened,
                 ech: SparseEchelon) -> _Shadow:
    """A shadow on the next prime of the list that is 1 mod N, divides no
    table denominator (``den``, from ``_table_den``) and leaves every stored
    exact pivot lead a unit.  A virtual pivot has nothing to image."""
    for p in primes:
        if (p - 1) % H.order or den % p == 0:
            continue
        sh = _Shadow(p, H, amb, straightened, ech.pivots)
        if all(sh.add_pivot(c, row) for c, row in ech.pivots.items()):
            return sh
    raise OracleError("no usable shadow prime")


def _moved(amb: _Ambient, pairs, shift, move, units: list, mul) -> dict:
    """The (col, value) pairs of a stored row moved as ``_Ambient.virtual``
    says, the units taken from ``units`` and multiplied in by ``mul``."""
    deg = amb.deg
    if move is None:
        return {col + shift[deg[col]]: val for col, val in pairs}
    hmove, exps = move
    d = amb.hdim
    out = {}
    for col, val in pairs:
        h = col % d
        e = exps[h]
        out[col + hmove[h] + (shift[deg[col]] if shift else 0)] = mul(val, units[e]) if e else val
    return out


def _derive(amb: _Ambient, units: list, mul, pivots: dict, c: int) -> dict | None:
    """The exact row of the virtual pivot at c, a column with no stored
    pivot: the stored row that ``_Ambient.virtual`` walks back to, relabelled
    down by all the letters at once and translated, the units being the
    exact ring's; None when c has no pivot.  The engine calls this at every
    column where ``pivots`` holds nothing."""
    src = amb.virtual(c, pivots)
    if src is None:
        return None
    c, shift, move = src
    return _moved(amb, pivots[c].items(), shift, move, units, mul)


# -- the spanning oracle ---------------------------------------------------------

def _relator_rows(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa, amb: _Ambient,
                  ech: SparseEchelon) -> list[dict]:
    """Relators r_a - kappa^L(r_a) - kappa^C(r_a) as integer rows."""
    rows = []
    for a in range(B.dim_relations()):
        row: dict = {}
        for w, c in B.relations.rows[a].items():
            for u, cu in H.unit.items():
                add_into(row, amb.col(w, 2, u), c * cu)
        for (v, h), c in kappa.l_vec(a).items():
            add_into(row, amb.col(v, 1, h), -c)
        for h, c in kappa.c_vec(a).items():
            add_into(row, amb.col(0, 0, h), -c)
        rows.append(ech.from_scalars(row))
    return rows


def filtered_dims(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa,
                  N: int = 3, k: int = 1) -> FilteredDimReport:
    """Span the relator ideal through degree N + k and report the filtered
    dimension upper bounds for degrees 0..N against the PBW expectation.

    Only the seeds are closed under H, each generation takes all its left
    V-multiples before its right ones, only pivots not born of a left
    V-multiple get right V-multiples, every free left multiple stays
    virtual, and every stored pivot brings its translates by the
    group-likes G, of which those with a free lead stay virtual; the span
    is the same (module docstring).  The
    F_p shadow starts at the first pivot stored with a lead other than one.
    H and the action must already pass ``validate_hopf`` and
    ``validate_action``.  A negative buffer, and a span of more than
    ``MAX_SPAN_COLUMNS`` columns, are refused with ``OracleError``."""
    if N < 2:
        raise OracleError("degree bound must be at least 2")
    if k < 0:
        raise OracleError("buffer must be at least 0")
    D = N + k
    if D > B.cutoff:
        raise CutoffExceeded(f"spanning degree {D} exceeds cutoff {B.cutoff}")
    vd, d = B.vdim, H.dim
    # d * sum vd^m grows one degree at a time and is refused at the first
    # degree where it passes the limit, so a huge D builds no huge integer
    columns = 0
    for m in range(D + 1):
        columns += d * vd ** m
        if columns > MAX_SPAN_COLUMNS:
            raise OracleError(f"the span through degree {D} has at least {columns} columns, "
                              f"above the limit {MAX_SPAN_COLUMNS}")
    units, group = H.right_translations
    amb = _Ambient(vd, d, D, (units, group))
    ech = SparseEchelon(H.order)
    straightened = _straightened(H, B)
    exact = _exact_ring(ech, H, vd, straightened, amb.units)
    ech.derive = partial(_derive, amb, exact.units, exact.mul)
    hgens = algebra_generators(H)
    # right multiplication by a generator in G is one of the translations
    in_group = {g for g, _, _ in group}
    primes = _shadow_primes(H.order)
    den = _table_den(H, B)
    # no shadow while every stored pivot lead is one (module docstring)
    shadow = None

    # pivot columns by generation degree: those born of a left V-multiple,
    # virtual or stored, and the translated virtual pivots, whose right
    # V-multiples lie in the span already (module docstring), and all others
    lefts = [[] for _ in range(D + 1)]
    others = [[] for _ in range(D + 1)]
    # pivots by the degree of their column: the virtual ones as they are
    # met, the stored ones once the span is done
    by_deg = [0] * (D + 1)
    deg, lshift, translated = amb.deg, amb.lshift, amb.translated

    def keep(piv: int, layer: list) -> None:
        nonlocal shadow
        layer.append(piv)
        if shadow is None and ech.pivots[piv][piv] == ech.one:
            return
        # the first lead other than one starts the shadow, and a lead in P
        # moves it; either way the new shadow images every pivot stored so far
        if shadow is None or not shadow.add_pivot(piv, ech.pivots[piv]):
            shadow = _next_shadow(primes, den, H, amb, straightened, ech)

    def screened(op, piv: int, arg: int) -> int | None:
        # once the shadow runs, the exact engine only sees rows whose shadow
        # adds a pivot
        if shadow is None or not shadow.reduces_to_zero(op(shadow.ring, amb, shadow.row(piv), arg)):
            return ech.insert(op(exact, amb, ech.row(piv).items(), arg))
        return None

    def record(piv, layer: list, translates: list) -> None:
        # a stored pivot brings its translates: the virtual ones are listed
        # in translates, and one inserted as a row is a row of the layer,
        # whose pivot brings its own
        if piv is None:
            return
        keep(piv, layer)
        work = [piv]
        while work:
            piv = work.pop()
            row = ech.pivots[piv]
            h0 = piv % d
            # one H-entry in the lead word: the translate's lead is the
            # lead's image, with the lead's coefficient once divided by a unit
            lone = not any(c in row for c in range(piv + 1, piv - h0 + d))
            for t, (g, perm, _) in enumerate(group):
                c = piv - h0 + perm[h0]
                if lone and c not in ech.pivots and amb.virtual(c, ech.pivots) is None:
                    translated[c] = (piv, t)
                    by_deg[deg[c]] += 1
                    translates.append(c)
                else:
                    new = screened(_right_h, piv, g)
                    if new is not None:
                        keep(new, layer)
                        work.append(new)

    def consider(op, piv: int, arg: int, layer: list, translates: list) -> None:
        record(screened(op, piv, arg), layer, translates)

    # the seeds, stored and translated, in one list that grows while it is
    # read: the H-closure
    seeds = []
    for row in _relator_rows(H, B, kappa, amb, ech):
        record(ech.insert(row), seeds, seeds)
    for piv in seeds:
        stored = piv in ech.pivots
        for g in hgens:
            if g not in in_group:
                consider(_right_h, piv, g, seeds, seeds)
            if stored:
                consider(_left_h, piv, g, seeds, seeds)
    others[2] = [c for c in seeds if c in ech.pivots]
    lefts[2] = [c for c in seeds if c in translated]
    # every left multiple of a generation before its right multiples, so
    # that the free left multiples claim their lead columns first
    for j in range(2, D):
        sources = others[j] + lefts[j]
        # before any left multiple is reduced, so that no reduction stops at
        # a virtual column
        for piv in sources:
            amb.source[piv] = 1
        layer = lefts[j + 1]
        for piv in sources:
            m = deg[piv]
            for v in range(vd):
                c = piv + lshift[v][m]
                if c in ech.pivots or c in translated:
                    consider(_left_v, piv, v, layer, layer)
                else:
                    # a free lead: v x is the virtual pivot at c, counted
                    # here; nothing multiplies a pivot of generation D
                    by_deg[m + 1] += 1
                    if j + 1 < D:
                        layer.append(c)
        for piv in others[j]:
            for v in range(vd):
                consider(_right_v, piv, v, others[j + 1], layer)

    # pivot counts by degree, virtual and stored, give dim(span  cap  T_{<=m})
    for c in ech.pivots:
        by_deg[amb.deg[c]] += 1
    graded = [graded_dim(B, j) for j in range(N + 1)]
    computed = []
    expected = []
    for m in range(N + 1):
        computed.append(amb.dim_upto(m) - sum(by_deg[:m + 1]))
        expected.append(sum(graded[:m + 1]) * d)
    falsified_at = next((m for m in range(N + 1) if computed[m] < expected[m]), None)
    verdict = "FALSIFIED" if falsified_at is not None else "CONSISTENT"
    return FilteredDimReport(N, k, computed, expected, verdict, falsified_at)


def pbw_probe(H: HopfAlgebra, B: ModuleAlgebra, kappa: Kappa,
              N: int = 3, k_max: int = 2) -> ProbeReport:
    """Run filtered_dims for buffers 0..k_max; FALSIFIED on the first strict
    deficiency proves the quotient is not PBW, CONSISTENT is evidence only.
    A negative k_max is refused with ``OracleError``."""
    if k_max < 0:
        raise OracleError("maximum buffer must be at least 0")
    reports = []
    for k in range(k_max + 1):
        rep = filtered_dims(H, B, kappa, N, k)
        reports.append(rep)
        if rep.falsified:
            return ProbeReport("FALSIFIED", rep.falsified_at, k, reports)
    return ProbeReport("CONSISTENT", None, None, reports)
