import random

import pytest

from adiclab.complexes import (BoundedComplex, ComplexMap, cohomology,
                               complex_from_module, hom_complex,
                               hom_complex_map, induced_cohomology_map,
                               shift_complex, zero_complex)
from adiclab.errors import InvalidComplex, NotFree
from adiclab.modules import (FPModule, ModuleHom, free_module, identity_hom,
                             modules_isomorphic, std_basis, zero_module)
from adiclab.rings import ring_integers, ring_prime_field, ring_rationals
from tests_util_algebra import (cyclic_module, is_chain_map, modules_equal,
                                tensor_complex)
from tests_util_enum import enumerate_elements

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
    assert all(cohomology(C, j).is_zero() for j in C.window())


def test_d_squared_rejected():
    F = free_module(ZZ, 1)
    d = ModuleHom(F, F, [[ZZ.from_int(2)]])
    with pytest.raises(InvalidComplex):
        BoundedComplex(ZZ, {0: F, 1: F, 2: F}, {0: d, 1: d})


def test_amplitude_and_support():
    C = two_term(ZZ, 2)
    assert [j for j in C.window() if not cohomology(C, j).is_zero()] == [1]
    exact = two_term(QQ, 1)  # iso differential: exact
    assert all(cohomology(exact, j).is_zero() for j in exact.window())


def test_shift_cohomology():
    C = two_term(ZZ, 2)
    for k in (-2, -1, 1, 3):
        S = shift_complex(C, k)
        for j in range(-4, 5):
            a = cohomology(S, j)
            b = cohomology(C, j + k)
            assert modules_isomorphic(a, b) or (a.is_zero() and b.is_zero())


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


def _random_chain_maps(rng):
    """Eight GF(5) maps of one-module complexes in degree 0, then eight of
    two-term complexes GF5^2 -> GF5^2 whose rank-one differential leaves
    cohomology in degrees 0 and 1.  The two-term map is (B, A) from
    (C, dC) to (D, A dC B^-1) with B invertible, and D^1 carries one
    random relation."""
    def rand_row():
        return [rng.randrange(5) for _ in range(2)]

    def mul(X, Y):
        return [[(X[i][0] * Y[0][k] + X[i][1] * Y[1][k]) % 5
                 for k in range(2)] for i in range(2)]

    def gf5(rows):
        return [tuple(GF5.from_int(e) for e in row) for row in rows]

    for _ in range(8):
        mat = gf5([rand_row(), rand_row()])
        C = complex_from_module(free_module(GF5, 2))
        D = complex_from_module(FPModule(GF5, 2, gf5([rand_row()])))
        yield ComplexMap(C, D, {0: ModuleHom(C.entry(0), D.entry(0), mat)})
    F = free_module(GF5, 2)
    for _ in range(8):
        u, v = rand_row(), rand_row()
        dC = [[a * b % 5 for b in v] for a in u]
        A = [rand_row(), rand_row()]
        det = 0
        while not det:
            B = [rand_row(), rand_row()]
            det = (B[0][0] * B[1][1] - B[0][1] * B[1][0]) % 5
        inv = pow(det, -1, 5)
        B_inv = [[B[1][1] * inv, -B[0][1] * inv],
                 [-B[1][0] * inv, B[0][0] * inv]]
        D1 = FPModule(GF5, 2, gf5([rand_row()]))
        C = BoundedComplex(GF5, {0: F, 1: F}, {0: ModuleHom(F, F, gf5(dC))})
        D = BoundedComplex(GF5, {0: F, 1: D1}, {
            0: ModuleHom(F, D1, gf5(mul(mul(A, dC), B_inv)))})
        yield ComplexMap(C, D, {0: ModuleHom(F, F, gf5(B)),
                                1: ModuleHom(F, D1, gf5(A))})


def test_induced_cohomology_map_by_enumeration():
    # ind(v) and phi_j(v) name the same class of H^j(D) for every v in H^j(C)
    degree_one_seen = False
    for phi in _random_chain_maps(random.Random(2)):
        assert is_chain_map(phi)
        for j in sorted(set(phi.source.window()) | set(phi.target.window())):
            ind = induced_cohomology_map(phi, j)
            HC = phi.source.cohomology_data(j)
            HD = phi.target.cohomology_data(j)
            amb = phi.target.entry(j).ambient_rank
            reducers = std_basis(HD.reducers, GF5, ambient_rank=amb)
            degree_one_seen |= j == 1 and not HC.module.is_zero()
            for v in enumerate_elements(HC.module):
                cocycle = [GF5.zero()] * phi.source.entry(j).ambient_rank
                for c, g in zip(v, HC.gens):
                    cocycle = [a + c * b for a, b in zip(cocycle, g)]
                image = phi.component(j).apply(cocycle)
                lifted = [GF5.zero()] * amb
                for c, g in zip(ind.apply(v), HD.gens):
                    lifted = [a + c * b for a, b in zip(lifted, g)]
                assert reducers.contains(
                    [a - b for a, b in zip(lifted, image)])
    assert degree_one_seen


def test_hom_functoriality_map():
    # Hom(u, 1): pulling back along an inclusion of free complexes
    F = two_term(ZZ, 2)
    G = two_term(ZZ, 2)
    u = ComplexMap(F, G, {0: identity_hom(F.entry(0)),
                          1: identity_hom(F.entry(1))})
    assert is_chain_map(u)
    M = cyclic_module(ZZ, ZZ.from_int(4))
    back = hom_complex_map(u, M)
    assert back.source.entry(0).ambient_rank == 1
    assert back.target.entry(0).ambient_rank == 1
