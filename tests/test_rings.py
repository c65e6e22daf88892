import copy
import pickle
from fractions import Fraction

import pytest

from hypothesis import example, given, settings, strategies as st

from adiclab.errors import (DivisionByZero, InvalidRing, ParentMismatch,
                            UnsupportedRing)
from adiclab.rings import (GRLEX, RationalScalars, RingMap, apply_ring_map,
                           elem_divstep, element_to_str, make_ring,
                           parse_element,
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


@pytest.mark.parametrize("ring", [ZZ, ring_prime_field(5), QXY, KT3])
def test_rings_copy_and_pickle_with_their_own_zero(ring):
    # a ring holds its zero element, which refers back to the ring
    for twin in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring)):
        assert twin == ring and twin.zero().ring is twin
        assert twin.zero() == ring.zero()


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


# QQ scalars: ints and p/q with small q, integral ones like 4/2 included
rationals = st.one_of(st.integers(-8, 8),
                      st.builds(Fraction, st.integers(-8, 8),
                                st.integers(1, 4)))


def _held_canonically(c):
    """RationalScalars holds an integral value as an int, never as a
    Fraction with denominator 1."""
    return not (isinstance(c, Fraction) and c.denominator == 1)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
@example(Fraction(4, 2), Fraction(-1, 3))
@example(-3, Fraction(3, 4))
def test_rational_scalars_equal_fraction_arithmetic(a, b):
    dom = RationalScalars()
    fa, fb = Fraction(a), Fraction(b)
    ca, cb = dom.coerce(a), dom.coerce(b)
    results = [(ca, fa), (cb, fb), (dom.add(ca, cb), fa + fb),
               (dom.mul(ca, cb), fa * fb), (dom.neg(ca), -fa)]
    if fb:
        q, r = dom.divstep(ca, cb)
        results += [(dom.inv(cb), 1 / fb), (q, fa / fb), (r, 0),
                    (dom.normalizer(cb), 1 / fb)]
    else:
        with pytest.raises(DivisionByZero):
            dom.inv(cb)
    for got, want in results:
        assert got == want
        assert _held_canonically(got)


def _reference_terms(op, a, b, precision):
    """a op b on term dicts in plain Fraction arithmetic, power-series
    tails at or past `precision` dropped."""
    if op == "*":
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    else:
        out = {e: Fraction(c) for e, c in a.items()}
        sign = 1 if op == "+" else -1
        for e, c in b.items():
            out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items()
            if c and (precision is None or e[0] < precision)}


@st.composite
def rational_text_pair(draw):
    ring = draw(st.sampled_from([QQ, QX, ring_power_series(QQ, "t", 4)]))

    def text():
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            c = f"{draw(st.integers(-12, 12))}/{draw(st.integers(1, 6))}"
            if ring.vars:
                c += f"*{ring.vars[0]}^{draw(st.integers(0, 5))}"
            terms.append(c)
        return " + ".join(terms)

    return ring, text(), text()


@settings(max_examples=150, deadline=None)
@given(rational_text_pair())
def test_rational_terms_are_held_canonically(case):
    ring, s, t = case
    a, b = parse_element(ring, s), parse_element(ring, t)
    for op, c in (("+", a + b), ("-", a - b), ("*", a * b)):
        assert c.terms == _reference_terms(op, a.terms, b.terms,
                                           ring.precision)
        for e in (a, b, c):
            assert all(_held_canonically(v) for v in e.terms.values())


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
