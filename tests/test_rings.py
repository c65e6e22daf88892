import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from adiclab.errors import (DivisionByZero, InvalidRing, ParentMismatch,
                            UnsupportedRing)
from adiclab.rings import (GRLEX, RingMap, apply_ring_map, elem_divstep,
                           element_to_str, make_ring, parse_element,
                           ring_integers, ring_polynomial, ring_power_series,
                           ring_prime_field, ring_quotient, ring_rationals)

ZZ = ring_integers()
QQ = ring_rationals()
QXY = ring_polynomial(QQ, ("x", "y"), GRLEX)
QX = ring_polynomial(QQ, ("x",))
KT3 = ring_power_series(QQ, "t", 3)


def test_make_ring_base_cases():
    assert make_ring({"kind": "integers"}) == ZZ
    spec = make_ring({"kind": "polynomial", "base": {"kind": "rationals"},
                      "vars": ["x", "y"], "order": "grlex"})
    assert spec == QXY


def test_make_ring_rejects_junk():
    with pytest.raises(InvalidRing):
        make_ring({"kind": "prime_field", "p": 6})
    with pytest.raises(InvalidRing):
        ring_polynomial(QQ, ("x", "x"))
    with pytest.raises(InvalidRing):
        ring_power_series(QQ, "t", 0)
    with pytest.raises(InvalidRing):  # its work ring is built at once
        ring_power_series(QQ, "1t", 4)
    with pytest.raises(InvalidRing):
        make_ring({"kind": "integers", "oops": 1})
    with pytest.raises(InvalidRing):
        ring_polynomial(QQ, ("a", "b", "c", "d", "e"))


def test_elem_op_examples():
    x, y = QXY.variable("x"), QXY.variable("y")
    assert (x + y) * (x - y) == x * x - y * y
    t = KT3.variable("t")
    assert (t * t * t).is_zero()
    assert ZZ.from_int(2) * ZZ.from_int(3) == ZZ.from_int(6)


def test_parent_mismatch():
    with pytest.raises(ParentMismatch):
        ZZ.from_int(1) + QQ.from_int(1)


def test_divstep_examples():
    q, r = elem_divstep(ZZ.from_int(7), ZZ.from_int(2))
    assert (q, r) == (ZZ.from_int(3), ZZ.from_int(1))
    x = QX.variable("x")
    q, r = elem_divstep(x * x - QX.one(), x - QX.one())
    assert q == x + QX.one() and r.is_zero()
    with pytest.raises(DivisionByZero):
        elem_divstep(QX.variable("x"), QX.zero())
    with pytest.raises(UnsupportedRing):
        elem_divstep(QXY.variable("x"), QXY.variable("y"))


def test_ring_map_examples():
    zt = ring_polynomial(ZZ, ("t",))
    f = RingMap(zt, ZZ, (ZZ.from_int(2),))
    t = zt.variable("t")
    assert apply_ring_map(f, t * t + t) == ZZ.from_int(6)
    g = RingMap(zt, QX, (QX.variable("x") ** 2,))
    assert apply_ring_map(g, t + zt.one()) == QX.variable("x") ** 2 + QX.one()
    ident = RingMap(zt, zt, (t,))
    assert apply_ring_map(ident, t) == t


def test_quotient_normalizes():
    amb = ring_polynomial(QQ, ("x",))
    q = ring_quotient(amb, ["x^2-1"])
    x = q.variable("x")
    assert x * x == q.one()
    assert not q.graded
    hom = ring_quotient(amb, ["x^2"])
    assert hom.graded


def test_power_series_truncation_and_units():
    t = KT3.variable("t")
    assert (t ** 2 * t).is_zero()
    assert (KT3.one() + t).is_unit()
    assert not t.is_unit()


def test_parse_and_format_round_trip():
    cases = {
        QXY: ["3*x^2*y - y + 1/2", "x", "0", "-x*y"],
        ZZ: ["42", "-7", "0"],
        KT3: ["1 + t + 2*t^2", "t^2"],
    }
    for ring, texts in cases.items():
        for s in texts:
            e = parse_element(ring, s)
            assert parse_element(ring, element_to_str(e)) == e


GF5XY = ring_polynomial(ring_prime_field(5), ("x", "y"))
KT8 = ring_power_series(QQ, "t", 8)


@st.composite
def printed_element(draw):
    ring = draw(st.sampled_from([ZZ, QXY, GF5XY, KT8]))
    den = draw(st.integers(1, 4)) if ring.scalar_base() == QQ else 1
    e = ring.zero()
    for _ in range(draw(st.integers(0, 4))):
        term = ring.from_scalar(Fraction(draw(st.integers(-9, 9)), den))
        for v in ring.vars:
            term = term * ring.variable(v) ** draw(st.integers(0, 10))
        e = e + term
    return e


@settings(max_examples=80, deadline=None)
@given(printed_element())
def test_parse_inverts_element_to_str(e):
    assert parse_element(e.ring, element_to_str(e)) == e


def test_unary_minus_applies_to_the_power():
    x = QXY.variable("x")
    assert parse_element(QXY, "-x^2") == -(x ** 2)
    assert parse_element(ZZ, "-2^2") == ZZ.from_int(-4)


def test_parse_rejects():
    with pytest.raises(InvalidRing):
        parse_element(QXY, "z + 1")
    with pytest.raises(InvalidRing):
        parse_element(QXY, "x +")


@st.composite
def small_poly(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-9, 9), max_size=4))
    from adiclab.rings import RingElem
    return RingElem(QXY, {k: Fraction(v) for k, v in terms.items()})


@settings(max_examples=60, deadline=None)
@given(small_poly(), small_poly(), small_poly())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QXY.zero() == a
    assert a * QXY.one() == a
    assert a - a == QXY.zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20))
def test_ring_map_is_homomorphism(m, n):
    zt = ring_polynomial(ZZ, ("u", "v"))
    f = RingMap(zt, QX, (QX.variable("x"), QX.from_int(3)))
    u, v = zt.variable("u"), zt.variable("v")
    a = u * u * m + v * n + zt.one()
    b = v * m - u * n
    assert apply_ring_map(f, a + b) == apply_ring_map(f, a) + apply_ring_map(f, b)
    assert apply_ring_map(f, a * b) == apply_ring_map(f, a) * apply_ring_map(f, b)
    assert apply_ring_map(f, zt.one()) == QX.one()


def test_normalization_idempotent():
    from adiclab.rings import RingElem
    e = parse_element(QXY, "x*y + 2*x*y - 3*x*y")
    assert e.is_zero()
    again = RingElem(QXY, dict(e.terms))
    assert again == e
