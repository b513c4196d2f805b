"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every quantity in this package is a ``Scalar``: an element of Q(zeta_N)
stored as a polynomial in zeta_N of degree < phi(N), reduced modulo the
N-th cyclotomic polynomial.  Internally a scalar is a tuple of integer
numerators over one positive integer denominator, normalized so that
gcd(den, content) = 1.  Reduction modulo the cyclotomic polynomial (not
zeta^N - 1) makes the representation canonical and the arithmetic a
field: two scalars are equal iff their stored data are identical.

No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd


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
    """Shared per-order data: phi(N) and power-reduction rows for zeta^k."""

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

    def mul_vec(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Multiply two integer coefficient vectors modulo the cyclotomic polynomial."""
        phi = self.phi
        if phi == 1:
            return (a[0] * b[0],)
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


@lru_cache(maxsize=None)
def field(order: int) -> CycloField:
    return CycloField(order)


def _content(vec: tuple[int, ...]) -> int:
    g = 0
    for c in vec:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


@dataclass(frozen=True, slots=True)
class Scalar:
    """An element of Q(zeta_N), canonical and immutable."""

    order: int
    den: int
    num: tuple[int, ...]

    @staticmethod
    def _make(order: int, den: int, num: list[int] | tuple[int, ...]) -> "Scalar":
        if den == 0:
            raise DivideByZero("zero denominator")
        if den < 0:
            den = -den
            num = [-c for c in num]
        g = gcd(den, _content(tuple(num)))
        if g > 1:
            den //= g
            num = [c // g for c in num]
        if not any(num):
            return Scalar(order, 1, (0,) * len(num))
        return Scalar(order, den, tuple(num))

    @staticmethod
    def zero(order: int) -> "Scalar":
        return Scalar(order, 1, (0,) * field(order).phi)

    @staticmethod
    def one(order: int) -> "Scalar":
        phi = field(order).phi
        return Scalar(order, 1, (1,) + (0,) * (phi - 1))

    @staticmethod
    def from_rational(order: int, p: int, q: int = 1) -> "Scalar":
        phi = field(order).phi
        return Scalar._make(order, q, [p] + [0] * (phi - 1))

    @staticmethod
    def from_int(order: int, n: int) -> "Scalar":
        return Scalar.from_rational(order, n, 1)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def _check(self, other: "Scalar") -> None:
        if self.order != other.order:
            raise FieldMismatch(f"orders {self.order} and {other.order} differ")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            return Scalar._make(self.order, da, [a + b for a, b in zip(self.num, other.num)])
        return Scalar._make(
            self.order, da * db, [a * db + b * da for a, b in zip(self.num, other.num)]
        )

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        da, db = self.den, other.den
        if da == db:
            return Scalar._make(self.order, da, [a - b for a, b in zip(self.num, other.num)])
        return Scalar._make(
            self.order, da * db, [a * db - b * da for a, b in zip(self.num, other.num)]
        )

    def __neg__(self) -> "Scalar":
        return Scalar(self.order, self.den, tuple(-c for c in self.num))

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        f = field(self.order)
        return Scalar._make(self.order, self.den * other.den, f.mul_vec(self.num, other.num))

    def inverse(self) -> "Scalar":
        """x^-1 = prod_{k != 1} sigma_k(x) / N(x), through the norm map."""
        if self.is_zero():
            raise DivideByZero("inverse of zero")
        f = field(self.order)
        if f.phi == 1:
            return Scalar._make(self.order, self.num[0], [self.den])
        cof = f.norm_cofactor(self.num)
        norm = f.mul_vec(self.num, cof)
        assert not any(norm[1:]), "norm map left Q"
        return Scalar._make(self.order, norm[0], [self.den * c for c in cof])

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
    parts = []
    for p, c in enumerate(s.num):
        if c == 0:
            continue
        coeff = str(c) if s.den == 1 else f"{c}/{s.den}"
        if p == 0:
            parts.append(coeff)
        elif p == 1:
            parts.append(f"{coeff}*z")
        else:
            parts.append(f"{coeff}*z^{p}")
    if not parts:
        return "0"
    return " + ".join(parts)


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
