"""Exact arithmetic in cyclotomic fields Q(zeta_N): the one coefficient kernel.

Every quantity in this package is a ``Scalar``: an element of Q(zeta_N)
stored as a polynomial in zeta_N of degree < phi(N), reduced modulo the
N-th cyclotomic polynomial.  Internally a scalar is a tuple of integer
numerators over one positive integer denominator, normalized so that
gcd(den, content) = 1.  Reduction modulo the cyclotomic polynomial (not
zeta^N - 1) makes the representation canonical and the arithmetic a
field: two scalars are equal iff their stored data are identical.

The kernel.  ``CycloField.mul_vec`` multiplies two integer coefficient
vectors; ``Scalar.__mul__``, ``Scalar.inverse``, ``exactla.SparseEchelon``
and the oracle's exact ring all call it.  ``CycloField.submul_row(out, a,
piv, c)`` is the elimination step of ``exactla.SparseEchelon``: out -=
a * piv in place, over every column of piv but its lead column c, with
the subtraction and the zero test inline.  Each field picks both once,
from phi(N):

- phi(N) <= 8 (``STRAIGHT_LINE_MAX_PHI``): straight-line code, generated
  from the field's integer reduction rows and compiled when the field is
  built.  The fold of degrees phi..2 phi - 2 is sparse because
  zeta^N = 1, so each high coefficient enters only the outputs its row
  touches.  ``submul_row`` is compiled with ``mul_vec``, in one source and
  one ``exec``: the field compiles once, and ``submul_row`` calls
  ``mul_vec`` for each product through the namespace they share.  Inlining the product into ``submul_row`` as well made the ha1
  oracle spans only 3-5% faster, and the memory that compiling a phi = 6
  field takes at its peak grew from 144 to 223 KB under tracemalloc
  (70 KB for ``mul_vec`` alone).
- phi(N) > 8: a convolution loop that skips zero coordinates, and a loop
  over the pivot row that calls it.

The generated form costs phi^2 products whatever the operands, the loop
only one per pair of nonzero coordinates.  Measured with Python 3.11 on
one core, the generated form was 6-9x faster than the loop at phi = 2,
1.5-7x at phi = 6 and 1.1-7x at phi = 8 (monomial to dense operands); at
phi = 16 it took 1.5x as long on monomials, and at phi = 250 (N = 251)
0.9 ms against 28 us, after a 0.26 s compile.  The tables of the
bundled problems hold powers of zeta, which are monomials, so the large
fields keep the loop.

The Scalar contract.  A ``Scalar`` is the tuple (order, den, num), so it
is immutable (no attribute can be assigned), hash(s) == hash((s.order,
s.den, s.num)), and two Scalars are equal exactly when the triples are.
Arithmetic between different orders raises ``FieldMismatch``; ordering
comparisons and ``int * Scalar`` raise TypeError.  ``Scalar._make``
normalizes a (den, num) pair: it takes no gcd when den = 1, and the gcd
stops at the first 1.

No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import itemgetter


class ScalarError(Exception):
    pass


class InvalidField(ScalarError):
    """Raised for a cyclotomic order that does not define a field (N = 0)."""


class FieldMismatch(ScalarError):
    """Raised when two scalars from different cyclotomic fields meet."""


class DivideByZero(ScalarError):
    pass


def _cyclotomic_poly(n: int) -> list[int]:
    """Integer coefficient list (low degree first) of the n-th cyclotomic polynomial.

    Computed by exact division of x^n - 1 by the product of Phi_d over
    proper divisors d of n.
    """
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d:
            continue
        phi_d = _cyclotomic_poly(d)
        poly = _poly_divexact(poly, phi_d)
    return poly


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, den monic up to sign.
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        assert r == 0, "non-exact cyclotomic division"
        out[i - dn] = q
        for j, dj in enumerate(den):
            num[i - dn + j] -= q * dj
    assert not any(num[:dn]), "non-exact cyclotomic division"
    return out


class CycloField:
    """Shared per-order data: phi(N), power-reduction rows for zeta^k, and
    the product ``mul_vec`` chosen for this phi(N)."""

    def __init__(self, order: int):
        if order < 1:
            raise InvalidField(f"cyclotomic order must be >= 1, got {order}")
        self.order = order
        poly = _cyclotomic_poly(order)
        self.phi = len(poly) - 1
        self.poly = tuple(poly)
        # redrows[k] = integer coordinates of zeta^(phi+k) in the power basis,
        # enough rows to fold products of reduced polynomials and to express
        # every power zeta^k for k < order.
        rows: list[tuple[int, ...]] = []
        top_power = max(2 * self.phi - 2, order - 1)
        if top_power >= self.phi:
            cur = [-c for c in poly[:-1]]  # zeta^phi  (poly is monic)
            rows.append(tuple(cur))
            for _ in range(top_power - self.phi):
                nxt = [0] * self.phi
                for i, c in enumerate(cur[:-1]):
                    nxt[i + 1] = c
                top = cur[-1]
                if top:
                    for i, r in enumerate(rows[0]):
                        nxt[i] += top * r
                rows.append(tuple(nxt))
                cur = nxt
        self.redrows = tuple(rows)
        # power basis coordinates of zeta^k for 0 <= k < order
        pows: list[tuple[int, ...]] = []
        for k in range(order):
            if k < self.phi:
                vec = [0] * self.phi
                vec[k] = 1
                pows.append(tuple(vec))
            else:
                pows.append(rows[k - self.phi])
        self.powers = tuple(pows)
        # the Galois automorphisms zeta -> zeta^k other than the identity
        self.conjugators = tuple(k for k in range(2, order) if gcd(k, order) == 1)
        # mul_vec(a, b): the product of two integer coefficient vectors
        # modulo the cyclotomic polynomial; submul_row(out, a, piv, c): the
        # elimination step out -= a * piv of ``exactla.SparseEchelon``
        if self.phi <= STRAIGHT_LINE_MAX_PHI:
            self.mul_vec, self.submul_row = _straight_line_mul(self.phi, self.redrows)
        else:
            self.mul_vec, self.submul_row = self._mul_loop, self._submul_loop

    def _mul_loop(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Schoolbook convolution over the nonzero coordinates, then the
        fold of degrees phi..2 phi - 2 through ``redrows``."""
        phi = self.phi
        conv = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:phi]
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                row = self.redrows[k - phi]
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return tuple(out)

    def _submul_loop(self, out: dict, a: tuple[int, ...], piv: dict, c: int) -> None:
        """out -= a * piv over every column of piv but c, in place: a column
        missing from out gets the negated product, one that cancels is
        deleted.  a and the entries of piv must be nonzero."""
        mul_vec = self.mul_vec
        for col, b in piv.items():
            if col == c:
                continue
            t = mul_vec(a, b)
            cur = out.get(col)
            if cur is None:
                out[col] = tuple(-x for x in t)
            else:
                nv = tuple(x - y for x, y in zip(cur, t))
                if any(nv):
                    out[col] = nv
                else:
                    del out[col]

    def conjugate(self, a: tuple[int, ...], k: int) -> tuple[int, ...]:
        """sigma_k(a): the image of a under zeta -> zeta^k, k coprime to N."""
        out = [0] * self.phi
        for i, ai in enumerate(a):
            if ai:
                for j, r in enumerate(self.powers[i * k % self.order]):
                    if r:
                        out[j] += ai * r
        return tuple(out)

    def norm_cofactor(self, a: tuple[int, ...]) -> tuple[int, ...]:
        """prod_{k != 1} sigma_k(a), so that a times it is the norm N(a) in Q."""
        out = self.powers[0]
        for k in self.conjugators:
            out = self.mul_vec(out, self.conjugate(a, k))
        return out


# The largest phi(N) whose product is generated as straight-line code; above
# it the zero-skipping loop is faster on the sparse operands that dominate
# (see the module docstring for the measured crossover).
STRAIGHT_LINE_MAX_PHI = 8


def _straight_line_mul(phi: int, redrows: tuple[tuple[int, ...], ...]):
    """Compile ``mul_vec`` and ``submul_row`` for length-phi coefficient
    vectors, in one source and one ``exec``.

    out[i] of the product is the convolution sum c_i plus r[k][i] * c_(phi+k)
    for every nonzero entry of ``redrows``; each high coefficient c_(phi+k)
    is bound once as a local.  Only the field's integer table enters the
    source.
    """
    def conv(k: int) -> str:
        lo, hi = max(0, k - phi + 1), min(k, phi - 1)
        return " + ".join(f"a{i}*b{k - i}" for i in range(lo, hi + 1))

    def names(x: str) -> str:
        return "".join(f"{x}{i}, " for i in range(phi))

    lines = ["def mul_vec(a, b):",
             f"    {names('a')}= a",
             f"    {names('b')}= b"]
    lines += [f"    c{phi + k} = {conv(phi + k)}" for k in range(phi - 1)]
    outs = []
    for i in range(phi):
        expr = conv(i)
        for k in range(phi - 1):
            r = redrows[k][i]
            if r == 1:
                expr += f" + c{phi + k}"
            elif r == -1:
                expr += f" - c{phi + k}"
            elif r:
                expr += f" + ({r})*c{phi + k}"
        outs.append(expr)
    lines.append("    return (" + "".join(f"{e}, " for e in outs) + ")")
    # submul_row(out, a, piv, c): out -= a * piv, skipping piv's lead column
    # c; a column missing from out gets the negated product, one that
    # cancels is deleted.  a and the entries of piv must be nonzero, so no
    # product is zero.  The product is a call of mul_vec, which keeps the
    # source small (see the module docstring).
    lines += ["def submul_row(out, a, piv, c):",
              "    get = out.get",
              "    for col, b in piv.items():",
              "        if col == c:",
              "            continue",
              f"        {names('p')}= mul_vec(a, b)",
              "        cur = get(col)",
              "        if cur is None:",
              f"            out[col] = ({names('-p')})",
              "        else:",
              f"            {names('x')}= cur",
              *(f"            n{i} = x{i} - p{i}" for i in range(phi)),
              "            if " + " or ".join(f"n{i}" for i in range(phi)) + ":",
              f"                out[col] = ({names('n')})",
              "            else:",
              "                del out[col]"]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["mul_vec"], namespace["submul_row"]


@lru_cache(maxsize=None)
def field(order: int) -> CycloField:
    return CycloField(order)


_new = tuple.__new__


def _unsupported(self, other):
    """Ordering, and int * Scalar (tuple repetition otherwise): TypeError."""
    return NotImplemented


class Scalar(tuple):
    """An element of Q(zeta_N), canonical and immutable: the triple
    (order, den, num) as a tuple.

    Equality and hashing are the triple's, so hash(s) == hash((s.order,
    s.den, s.num)).  Scalars are not ordered, not sequences under ``*`` and
    accept no attribute assignment.
    """

    __slots__ = ()

    def __new__(cls, order: int, den: int, num: tuple[int, ...]) -> "Scalar":
        return _new(cls, (order, den, num))

    def __getnewargs__(self):
        return tuple(self)

    order = property(itemgetter(0), doc="the cyclotomic order N")
    den = property(itemgetter(1), doc="the positive common denominator")
    num = property(itemgetter(2), doc="the phi(N) integer numerators, low power first")

    __lt__ = __le__ = __gt__ = __ge__ = _unsupported

    @staticmethod
    def _make(order: int, den: int, num: list[int] | tuple[int, ...]) -> "Scalar":
        if den != 1:
            if den == 0:
                raise DivideByZero("zero denominator")
            if den < 0:
                den = -den
                num = [-c for c in num]
            # math.gcd only checks the remaining arguments once it reaches 1
            g = gcd(den, *num)
            if g > 1:
                den //= g
                num = [c // g for c in num]
        if not any(num):
            return _new(Scalar, (order, 1, (0,) * len(num)))
        return _new(Scalar, (order, den, tuple(num)))

    @staticmethod
    def zero(order: int) -> "Scalar":
        return _new(Scalar, (order, 1, (0,) * field(order).phi))

    @staticmethod
    def one(order: int) -> "Scalar":
        return _new(Scalar, (order, 1, field(order).powers[0]))

    @staticmethod
    def from_rational(order: int, p: int, q: int = 1) -> "Scalar":
        phi = field(order).phi
        return Scalar._make(order, q, [p] + [0] * (phi - 1))

    @staticmethod
    def from_int(order: int, n: int) -> "Scalar":
        return Scalar.from_rational(order, n, 1)

    def is_zero(self) -> bool:
        return not any(self[2])

    def __bool__(self) -> bool:
        return any(self[2])

    def _check(self, other: "Scalar") -> None:
        if self[0] != other[0]:
            raise FieldMismatch(f"orders {self[0]} and {other[0]} differ")

    def __add__(self, other: "Scalar") -> "Scalar":
        order = self[0]
        if order != other[0]:
            self._check(other)
        da, db = self[1], other[1]
        if da == db:
            return Scalar._make(order, da, [a + b for a, b in zip(self[2], other[2])])
        return Scalar._make(order, da * db, [a * db + b * da for a, b in zip(self[2], other[2])])

    def __sub__(self, other: "Scalar") -> "Scalar":
        order = self[0]
        if order != other[0]:
            self._check(other)
        da, db = self[1], other[1]
        if da == db:
            return Scalar._make(order, da, [a - b for a, b in zip(self[2], other[2])])
        return Scalar._make(order, da * db, [a * db - b * da for a, b in zip(self[2], other[2])])

    def __neg__(self) -> "Scalar":
        return _new(Scalar, (self[0], self[1], tuple(-c for c in self[2])))

    def __mul__(self, other: "Scalar") -> "Scalar":
        order = self[0]
        if order != other[0]:
            self._check(other)
        return Scalar._make(order, self[1] * other[1], field(order).mul_vec(self[2], other[2]))

    __rmul__ = _unsupported

    def inverse(self) -> "Scalar":
        """x^-1 = prod_{k != 1} sigma_k(x) / N(x), through the norm map."""
        if self.is_zero():
            raise DivideByZero("inverse of zero")
        order, den, num = self
        f = field(order)
        if f.phi == 1:
            return Scalar._make(order, num[0], [den])
        cof = f.norm_cofactor(num)
        norm = f.mul_vec(num, cof)
        assert not any(norm[1:]), "norm map left Q"
        return Scalar._make(order, norm[0], [den * c for c in cof])

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self * other.inverse()

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar({self.order}, {format_scalar(self)!r})"


def zeta(order: int, power: int = 1) -> Scalar:
    """The root of unity zeta_N^power as a Scalar."""
    f = field(order)
    vec = f.powers[power % order]
    return Scalar._make(order, 1, list(vec))


def scalar_make(order: int, terms) -> Scalar:
    """Build a Scalar from sparse (power, rational) terms.

    Powers are arbitrary integers, reduced modulo the order.  Rationals may
    be ints, Fractions, or (num, den) pairs.
    """
    f = field(order)
    acc_den = 1
    acc = [0] * f.phi
    for power, coeff in terms:
        if isinstance(coeff, tuple):
            p, q = coeff
        elif isinstance(coeff, Fraction):
            p, q = coeff.numerator, coeff.denominator
        else:
            p, q = int(coeff), 1
        vec = f.powers[power % order]
        # acc/acc_den + (p/q) * vec
        acc = [a * q for a in acc]
        for i, v in enumerate(vec):
            acc[i] += p * v * acc_den
        acc_den *= q
    return Scalar._make(order, acc_den, acc)


# ---------------------------------------------------------------------------
# Literal syntax: a sum of terms `num/den*z^p`, e.g. "1/2 + -1/2*z^2".
# `z` denotes zeta_N for the ambient order.

def format_scalar(s: Scalar) -> str:
    _order, den, num = s
    parts = []
    # the nonzero numerators only: a table scalar of a large field is mostly 0
    for p in compress(range(len(num)), num):
        coeff = str(num[p]) if den == 1 else f"{num[p]}/{den}"
        if p == 0:
            parts.append(coeff)
        elif p == 1:
            parts.append(f"{coeff}*z")
        else:
            parts.append(f"{coeff}*z^{p}")
    return " + ".join(parts) if parts else "0"


class ScalarParseError(ScalarError):
    pass


def parse_scalar(text: str, order: int) -> Scalar:
    """Parse the literal syntax back into a Scalar (inverse of format_scalar)."""
    s = text.replace(" ", "")
    if not s:
        raise ScalarParseError("empty scalar literal")
    terms = []
    # split on '+' but keep '-' attached to the following term
    for chunk in s.replace("+-", "+!").split("+"):
        chunk = chunk.replace("!", "-")
        if not chunk:
            raise ScalarParseError(f"bad scalar literal {text!r}")
        terms.append(chunk)
    out = []
    for t in terms:
        coeff_s, _, zpart = t.partition("*")
        if coeff_s.startswith("z") or coeff_s.startswith("-z"):
            zpart, coeff_s = coeff_s.lstrip("-"), ("-1" if coeff_s.startswith("-") else "1")
        power = 0
        if zpart:
            if not zpart.startswith("z"):
                raise ScalarParseError(f"bad term {t!r} in {text!r}")
            rest = zpart[1:]
            if rest == "":
                power = 1
            elif rest.startswith("^"):
                try:
                    power = int(rest[1:])
                except ValueError as exc:
                    raise ScalarParseError(f"bad power in {t!r}") from exc
            else:
                raise ScalarParseError(f"bad power in {t!r}")
        try:
            if "/" in coeff_s:
                pnum, pden = coeff_s.split("/")
                coeff = (int(pnum), int(pden))
            else:
                coeff = (int(coeff_s), 1)
        except ValueError as exc:
            raise ScalarParseError(f"bad coefficient in {t!r}") from exc
        out.append((power, coeff))
    return scalar_make(order, out)
