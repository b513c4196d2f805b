import copy
import pickle
import random
from fractions import Fraction
from math import lcm
from operator import mul, not_, sub

import pytest
from hypothesis import given, settings, strategies as st

from hopfpbw.scalar import (
    Scalar, scalar_make, zeta, field, STRAIGHT_LINE_MAX_PHI,
    parse_scalar, format_scalar, InvalidField, DivideByZero, FieldMismatch,
)
from hopfpbw.exactla import SparseEchelon

ORDERS = [1, 2, 3, 4, 5, 8, 12]


def test_make_examples():
    # zeta_4^2 = -1
    assert scalar_make(4, [(2, 1)]) == Scalar.from_int(4, -1)
    # 1 + zeta_3 + zeta_3^2 = 0
    assert scalar_make(3, [(0, 1), (1, 1), (2, 1)]).is_zero()
    # plain rational in Q
    assert scalar_make(1, [(0, Fraction(1, 2))]) == Scalar.from_rational(1, 1, 2)


def test_make_reduces_powers_mod_order():
    assert scalar_make(4, [(5, 1)]) == zeta(4)
    assert scalar_make(4, [(-1, 1)]) == zeta(4, 3)


def test_invalid_field():
    with pytest.raises(InvalidField):
        scalar_make(0, [(0, 1)])


def test_field_ops_examples():
    half = Scalar.from_rational(1, 1, 2)
    assert half + half == Scalar.one(1)
    for n in (3, 4, 5, 8):
        z = zeta(n)
        zlast = zeta(n, n - 1)
        assert z * zlast == Scalar.one(n)
    # 1 / zeta_4 = zeta_4^3 = -zeta_4, verified by multiplying back
    q = Scalar.one(4) / zeta(4)
    assert q == -zeta(4)
    assert q * zeta(4) == Scalar.one(4)


def test_division_errors():
    with pytest.raises(DivideByZero):
        Scalar.one(4) / Scalar.zero(4)
    with pytest.raises(FieldMismatch):
        Scalar.one(4) * Scalar.one(3)


def test_roots_of_unity_all_supported_orders():
    for n in range(1, 65):
        z = zeta(n)
        p = Scalar.one(n)
        for _ in range(n):
            p = p * z
        assert p == Scalar.one(n), n
        # the minimal polynomial vanishes on zeta_n
        f = field(n)
        acc, zp = Scalar.zero(n), Scalar.one(n)
        for c in f.poly:
            acc = acc + Scalar.from_int(n, c) * zp
            zp = zp * z
        assert acc.is_zero(), n


def scalars(order):
    phi = field(order).phi
    return st.builds(
        lambda num, den: Scalar._make(order, den, list(num)),
        st.tuples(*[st.integers(-9, 9)] * phi),
        st.integers(1, 12),
    )


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(lambda n: st.tuples(scalars(n), scalars(n), scalars(n))))
def test_field_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a
    if not a.is_zero():
        assert a * a.inverse() == Scalar.one(a.order)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(scalars))
def test_literal_round_trip(a):
    assert parse_scalar(format_scalar(a), a.order) == a


def test_literal_parse_forms():
    assert parse_scalar("1/2 + -1/2*z^2", 4) == \
        scalar_make(4, [(0, Fraction(1, 2)), (2, Fraction(-1, 2))])
    assert parse_scalar("z", 3) == zeta(3)
    assert parse_scalar("-z^2", 5) == -zeta(5, 2)
    assert parse_scalar("0", 7).is_zero()


def test_canonical_representation():
    # same value built two ways has identical stored data
    a = scalar_make(12, [(0, (2, 4))])
    b = Scalar.from_rational(12, 1, 2)
    assert a == b and a.den == b.den and a.num == b.num
    assert len(a.num) == field(12).phi


def reference_inverse(x: Scalar) -> Scalar:
    """x^-1 by a Fraction Gaussian elimination on the multiplication matrix
    of x in the power basis (the former Scalar.inverse)."""
    f = field(x.order)
    phi = f.phi
    cols = [f.mul_vec(x.num, tuple(int(i == j) for i in range(phi))) for j in range(phi)]
    mat = [[Fraction(cols[j][i]) for j in range(phi)] for i in range(phi)]
    rhs = [Fraction(x.den if i == 0 else 0) for i in range(phi)]
    for col in range(phi):
        piv = next(r for r in range(col, phi) if mat[r][col])
        mat[col], mat[piv] = mat[piv], mat[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / mat[col][col]
        mat[col] = [c * inv for c in mat[col]]
        rhs[col] = rhs[col] * inv
        for r in range(phi):
            if r != col and mat[r][col]:
                fac = mat[r][col]
                mat[r] = [a - fac * b for a, b in zip(mat[r], mat[col])]
                rhs[r] = rhs[r] - fac * rhs[col]
    den = lcm(*(c.denominator for c in rhs))
    return Scalar._make(x.order, den, [int(c * den) for c in rhs])


INVERSE_ORDERS = [1, 3, 4, 9, 12, 15]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(INVERSE_ORDERS).flatmap(scalars).filter(bool))
def test_inverse_through_the_norm_map(x):
    inv = x.inverse()
    assert x * inv == Scalar.one(x.order)
    assert inv == reference_inverse(x)


def test_inverse_examples():
    for n in INVERSE_ORDERS:
        for k in range(n):
            assert zeta(n, k).inverse() == zeta(n, -k), (n, k)
    # 1 + zeta_3 = -zeta_3^2, so its inverse is -zeta_3
    assert (Scalar.one(3) + zeta(3)).inverse() == -zeta(3)
    half = Scalar.from_rational(9, 1, 2)
    assert (half * zeta(9, 4)).inverse() == Scalar.from_int(9, 2) * zeta(9, 5)


def reference_mul_vec(f, a, b):
    """The zero-skipping convolution and fold, as CycloField.mul_vec was
    before the product was chosen per field."""
    phi = f.phi
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
            row = f.redrows[k - phi]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
    return tuple(out)


KERNEL_ORDERS = list(range(1, 65)) + [128, 243, 251, 256]


def _kernel_operands(phi, rng):
    zero = (0,) * phi
    monomials = [tuple(int(i == k) * c for i in range(phi))
                 for k, c in ((0, 1), (phi - 1, -1), (rng.randrange(phi), 3))]
    dense = [tuple(rng.randint(-9, 9) for _ in range(phi)) for _ in range(2)]
    wide = [tuple(rng.choice((-1, 1)) * rng.getrandbits(200) for _ in range(phi))]
    return [zero] + monomials + dense + wide


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_mul_vec_matches_the_reference_loop(order):
    f = field(order)
    rng = random.Random(order)
    ops = _kernel_operands(f.phi, rng)
    for a in ops:
        for b in ops:
            assert f.mul_vec(a, b) == reference_mul_vec(f, a, b), (order, a, b)


def test_product_is_chosen_from_phi():
    # both sides of the selection are covered by KERNEL_ORDERS
    sides = {field(n).mul_vec.__name__ == "_mul_loop" for n in KERNEL_ORDERS}
    assert sides == {True, False}
    for n in KERNEL_ORDERS:
        f = field(n)
        assert (f.phi <= STRAIGHT_LINE_MAX_PHI) == (f.mul_vec.__name__ != "_mul_loop"), n


# -- the row kernel submul_row ---------------------------------------------------------------

def reference_submul_row(ops, out, rc, piv, c):
    """The inner loop of ``SparseEchelon._reduce`` before ``submul_row``,
    verbatim: four ring calls per entry.  ``ops`` is (mul, sub, scale,
    is_zero)."""
    mul, sub, scale, is_zero = ops
    for col, v in piv.items():
        if col == c:
            continue
        t = mul(rc, v)
        cur = out.get(col)
        nv = sub(cur, t) if cur is not None else scale(t, -1)
        if is_zero(nv):
            out.pop(col, None)
        else:
            out[col] = nv


def _tuple_ops(f):
    return (f.mul_vec, lambda a, b: tuple(x - y for x, y in zip(a, b)),
            lambda a, k: tuple(x * k for x in a), lambda a: not any(a))


def _submul_case(f, rng):
    """(out, a, piv, c, cancel) with nonzero entries, as the engine holds
    them: piv has its lead at c, out has no entry at two of piv's other
    columns, and its entry at the column ``cancel`` cancels exactly; out may
    hold c."""
    phi = f.phi

    def coeff():
        while True:
            if phi <= 16 and rng.random() < 0.5:
                v = [rng.randint(-9, 9) for _ in range(phi)]
            else:
                v = [0] * phi
                for i in rng.sample(range(phi), min(phi, 3)):
                    v[i] = rng.choice((-1, 1)) * rng.getrandbits(rng.choice((2, 70)))
            if any(v):
                return tuple(v)

    cols = sorted(rng.sample(range(40), 7))
    c = cols[0]
    piv = {col: coeff() for col in cols}
    a = coeff()
    out = {col: coeff() for col in rng.sample(range(c + 1, 40), 6)}
    others = cols[1:]
    for col in others[:2]:
        out.pop(col, None)                  # absent: gets the negated product
    out[others[2]] = f.mul_vec(a, piv[others[2]])
    if rng.random() < 0.5:
        out[c] = coeff()                    # the lead column is never touched
    return out, a, piv, c, others[2]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_submul_row_matches_the_reference_loop(order, seed):
    f = field(order)
    rng = random.Random(seed)
    out, a, piv, c, cancel = _submul_case(f, rng)
    want = dict(out)
    reference_submul_row(_tuple_ops(f), want, a, piv, c)
    got = dict(out)
    assert f.submul_row(got, a, piv, c) is None
    assert list(got.items()) == list(want.items())
    assert cancel not in got
    assert got.get(c) == out.get(c)
    for col in piv:
        if col != c and col not in out:
            assert got[col] == tuple(-x for x in f.mul_vec(a, piv[col]))
    # phi = 1: the engine's plain-int kernel on the same case
    if f.phi == 1:
        ech = SparseEchelon(order)
        ints = {col: v[0] for col, v in out.items()}
        ipiv = {col: v[0] for col, v in piv.items()}
        want = dict(ints)
        reference_submul_row((mul, sub, mul, not_), want, a[0], ipiv, c)
        assert ech.submul_row(ints, a[0], ipiv, c) is None
        assert list(ints.items()) == list(want.items()) and cancel not in ints
    else:
        assert SparseEchelon(order).submul_row is f.submul_row


def test_row_kernel_is_chosen_from_phi():
    # the generated submul_row shares one exec, and so one namespace, with
    # the generated mul_vec; above STRAIGHT_LINE_MAX_PHI both are loops
    sides = {field(n).submul_row.__name__ == "_submul_loop" for n in KERNEL_ORDERS}
    assert sides == {True, False}
    for n in KERNEL_ORDERS:
        f = field(n)
        generated = f.phi <= STRAIGHT_LINE_MAX_PHI
        assert generated == (f.submul_row.__name__ == "submul_row"), n
        if generated:
            assert f.submul_row.__globals__ is f.mul_vec.__globals__, n


# -- sympy as an independent reference ------------------------------------------------------
#
# reference_mul_vec and reference_inverse read the same ``redrows`` table and
# ``mul_vec`` as the code they check, so a wrong cyclotomic reduction table
# passes both.  sympy reduces modulo its own cyclotomic_poly(N).

def _sympy_operands(phi, rng):
    """A two-term 1 +- 2 zeta^j, and for phi <= 32 a dense small vector."""
    two_term = [0] * phi
    two_term[0] = 1
    two_term[rng.randrange(phi)] += rng.choice((-2, 2))
    ops = [tuple(two_term)]
    if phi <= 32:
        ops.append(tuple(rng.randint(-3, 3) for _ in range(phi)))
    return [a for a in ops if any(a)]


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_kernel_matches_sympy_modulo_the_cyclotomic_polynomial(order):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = field(order)
    cyclo = sympy.Poly(sympy.cyclotomic_poly(order, x), x, domain="QQ")

    def poly(vec):
        return sympy.Poly(list(reversed(vec)), x, domain="QQ")

    def coords(p):
        low_first = [Fraction(int(c.p), int(c.q)) for c in reversed(p.rem(cyclo).all_coeffs())]
        return low_first + [Fraction(0)] * (f.phi - len(low_first))

    rng = random.Random(f"sympy:{order}")
    ops = _sympy_operands(f.phi, rng)
    for a in ops + [tuple(rng.randint(-9, 9) for _ in range(f.phi))]:
        for b in ops:
            assert list(f.mul_vec(a, b)) == coords(poly(a) * poly(b)), (order, a, b)
    for a in ops:
        # a * norm_cofactor(a) is the norm, the resultant of Phi_N and a
        norm = coords(poly(a) * poly(f.norm_cofactor(a)))
        assert norm == [Fraction(int(cyclo.resultant(poly(a))))] + [0] * (f.phi - 1), order
        inv = Scalar._make(order, 2, a).inverse()
        want = coords(poly(a).invert(cyclo) * 2)
        assert [Fraction(c, inv.den) for c in inv.num] == want, (order, a)


def reference_format_scalar(s: Scalar) -> str:
    """format_scalar as it was before it skipped the zero numerators."""
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


@pytest.mark.parametrize("order", list(range(1, 65)) + [251, 256])
def test_format_scalar_matches_the_reference_loop(order):
    phi = field(order).phi
    rng = random.Random(f"format-{order}")
    for num in _kernel_operands(phi, rng):
        for den in (1, 2, 6, 35):
            s = Scalar._make(order, den, num)
            assert format_scalar(s) == reference_format_scalar(s), (order, num, den)
            assert parse_scalar(format_scalar(s), order) == s


def test_scalar_contract():
    s = scalar_make(12, [(1, (1, 2)), (3, 5)])
    t = zeta(12, 5)
    with pytest.raises(AttributeError):
        s.den = 3
    with pytest.raises(AttributeError):
        s.extra = 1
    same = Scalar._make(12, 2 * s.den, [2 * c for c in s.num])
    samples = [s, t, same, Scalar.zero(12), Scalar.one(12), Scalar.one(7), Scalar.one(1), -s]
    for x in samples:
        assert hash(x) == hash((x.order, x.den, x.num))
        for y in samples:
            assert (x == y) == ((x.order, x.den, x.num) == (y.order, y.den, y.num))
    assert same == s and s != t and Scalar.one(3) != Scalar.one(4)
    with pytest.raises(FieldMismatch):
        Scalar.one(3) * Scalar.one(4)
    with pytest.raises(FieldMismatch):
        Scalar.one(3) + Scalar.one(4)
    with pytest.raises(FieldMismatch):
        Scalar.one(3) - Scalar.one(4)
    with pytest.raises(FieldMismatch):
        Scalar.one(3) / Scalar.one(4)
    with pytest.raises(TypeError):
        2 * s
    with pytest.raises(TypeError):
        s < t
    with pytest.raises(TypeError):
        s >= t
    assert copy.copy(s) == s and pickle.loads(pickle.dumps(s)) == s


def test_make_normalizes():
    # den = 1 is kept as is; otherwise the common content is divided out
    assert Scalar._make(5, 1, [4, 0, 6, 0]).num == (4, 0, 6, 0)
    x = Scalar._make(5, -6, [4, 0, 6, 0])
    assert (x.den, x.num) == (3, (-2, 0, -3, 0))
    y = Scalar._make(5, 6, [3, 1, 0, 0])
    assert (y.den, y.num) == (6, (3, 1, 0, 0))
    z = Scalar._make(5, 7, [0, 0, 0, 0])
    assert z == Scalar.zero(5) and z.den == 1
    with pytest.raises(DivideByZero):
        Scalar._make(5, 0, [1, 0, 0, 0])
