import random

import pytest

from adiclab.complexes import (BoundedComplex, ComplexMap, cohomology,
                               complex_from_module, cone, hom_complex,
                               hom_complex_map, is_quasi_iso, shift_complex, smart_truncate,
                               tensor_complex, zero_complex)
from adiclab.errors import InvalidComplex, NotFree
from adiclab.modules import (FPModule, ModuleHom, cyclic_module, free_module,
                             identity_hom, modules_equal, modules_isomorphic,
                             zero_module)
from adiclab.rings import ring_integers, ring_prime_field, ring_rationals

ZZ = ring_integers()
QQ = ring_rationals()
GF5 = ring_prime_field(5)


def two_term(ring, scalar, lo=0):
    """ring --*scalar--> ring in degrees lo, lo+1."""
    F = free_module(ring, 1)
    d = ModuleHom(F, F, [[ring.from_int(scalar)]])
    return BoundedComplex(ring, {lo: F, lo + 1: F}, {lo: d})


def test_dual_koszul_cohomology():
    C = two_term(ZZ, 2)
    assert cohomology(C, 0).is_zero()
    H1 = cohomology(C, 1)
    assert modules_isomorphic(H1, cyclic_module(ZZ, ZZ.from_int(2)))
    assert cohomology(C, 5).is_zero()


def test_zero_complex_cohomology():
    C = zero_complex(ZZ)
    assert cohomology(C, 0).is_zero()
    assert C.amplitude() == float("-inf")


def test_d_squared_rejected():
    F = free_module(ZZ, 1)
    d = ModuleHom(F, F, [[ZZ.from_int(2)]])
    with pytest.raises(InvalidComplex):
        BoundedComplex(ZZ, {0: F, 1: F, 2: F}, {0: d, 1: d})


def test_amplitude_and_support():
    C = two_term(ZZ, 2)
    assert C.cohomology_support() == [1]
    assert C.amplitude() == 0
    exact = two_term(QQ, 1)  # iso differential: exact
    assert exact.amplitude() == float("-inf")


def test_shift_cohomology():
    C = two_term(ZZ, 2)
    for k in (-2, -1, 1, 3):
        S = shift_complex(C, k)
        for j in range(-4, 5):
            a = cohomology(S, j)
            b = cohomology(C, j + k)
            assert modules_isomorphic(a, b) or (a.is_zero() and b.is_zero())


def test_smart_truncate_two_spots():
    # H^0 = Z (kernel of zero map), H^1 = Z/2: truncate at 1 kills H^1
    C = two_term(ZZ, 2)
    F = free_module(ZZ, 1)
    D = BoundedComplex(ZZ, {0: F, 1: F},
                       {0: ModuleHom(F, F, [[ZZ.zero()]])})
    # D has H^0 = Z, H^1 = Z
    M1, (incl, proj) = smart_truncate(D, 1)
    assert modules_isomorphic(cohomology(M1, 0), cohomology(D, 0))
    assert cohomology(M1, 1).is_zero()
    Q = proj.target
    assert cohomology(Q, 0).is_zero()
    assert modules_isomorphic(cohomology(Q, 1), cohomology(D, 1))


def test_smart_truncate_exact_stays_exact():
    exact = two_term(QQ, 3)
    for j in (-1, 0, 1, 2):
        M1, _ = smart_truncate(exact, j)
        assert M1.amplitude() == float("-inf")


def test_smart_truncate_single_module():
    C = complex_from_module(cyclic_module(ZZ, ZZ.from_int(4)))
    M1, _ = smart_truncate(C, 0)
    assert M1.amplitude() == float("-inf")


def test_hom_identity_case():
    A = complex_from_module(free_module(ZZ, 1))
    M = cyclic_module(ZZ, ZZ.from_int(6))
    H = hom_complex(A, M)
    assert modules_equal(H.entry(0), M)
    assert H.entry(1).is_zero()


def test_hom_into_zero():
    F = two_term(ZZ, 2)
    H = hom_complex(F, zero_module(ZZ))
    assert not H.entries


def test_hom_rejects_nonfree():
    C = complex_from_module(cyclic_module(ZZ, ZZ.from_int(4)))
    with pytest.raises(NotFree):
        hom_complex(C, free_module(ZZ, 1))


def test_tensor_rank_bookkeeping():
    Fa = two_term(QQ, 2)
    Fb = two_term(QQ, 3)
    T = tensor_complex(Fa, Fb)
    assert [T.entry(j).ambient_rank for j in (0, 1, 2)] == [1, 2, 1]
    assert compose(T)
    # tensor with the unit complex is the identity shape
    unit = complex_from_module(free_module(QQ, 1))
    U = tensor_complex(Fa, unit)
    assert [U.entry(j).ambient_rank for j in (0, 1)] == [1, 1]
    assert U.differential(0).matrix == Fa.differential(0).matrix


def compose(T):
    # d o d = 0 by construction; validate explicitly
    for j in T.window():
        from adiclab.modules import compose as c
        if not c(T.differential(j + 1), T.differential(j)).is_zero_hom():
            return False
    return True


def test_quasi_iso_examples():
    C = two_term(ZZ, 2)
    identity = ComplexMap(C, C, {j: identity_hom(m)
                                 for j, m in C.entries.items()})
    assert is_quasi_iso(identity).holds()
    Z2 = cyclic_module(ZZ, ZZ.from_int(2))
    target = complex_from_module(Z2)
    phi = ComplexMap(zero_complex(ZZ), target, {}, check=False)
    v = is_quasi_iso(phi)
    assert v.fails()
    assert v.witness["degree"] == 0 and v.witness["side"] == "cokernel"


def test_cone_long_sequence_middle_exactness():
    rng = random.Random(2)
    F1 = free_module(GF5, 2)
    for _ in range(8):
        mat = [[GF5.from_int(rng.randrange(5)) for _ in range(2)]
               for _ in range(2)]
        C = complex_from_module(free_module(GF5, 2))
        D = complex_from_module(
            FPModule(GF5, 2, [tuple(GF5.from_int(rng.randrange(5))
                                    for _ in range(2))]))
        phi = ComplexMap(C, D, {0: ModuleHom(C.entry(0), D.entry(0), mat)},
                         check=False)
        cn = cone(phi)
        # middle exactness of H^j(C) -> H^j(D) -> H^j(cone) via enumeration
        from tests_util_enum import check_middle_exactness
        assert check_middle_exactness(phi, cn)


def test_hom_functoriality_map():
    # Hom(u, 1): pulling back along an inclusion of free complexes
    F = two_term(ZZ, 2)
    G = two_term(ZZ, 2)
    u = ComplexMap(F, G, {0: identity_hom(F.entry(0)),
                          1: identity_hom(F.entry(1))}, check=True)
    M = cyclic_module(ZZ, ZZ.from_int(4))
    back = hom_complex_map(u, M)
    assert back.source.entry(0).ambient_rank == 1
    assert back.target.entry(0).ambient_rank == 1
