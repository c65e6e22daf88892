import random
from itertools import product as iproduct

import pytest

from adiclab.errors import BudgetExceeded, ParentMismatch
from adiclab.modules import (FPModule, ModuleHom, compose, cyclic_module, image_coker,
                             direct_sum_module, free_module, hom_is_iso,
                             ideal_power_act, identity_hom, image_coker,
                             kernel_hom, membership, module_is_zero,
                             modules_equal, modules_isomorphic,
                             quotient_module, std_basis,
                             submodule_presentation, unit_vector, vec_add,
                             vec_is_zero, vec_scale, zero_module)
from adiclab.rings import (ring_integers, ring_polynomial, ring_power_series,
                           ring_prime_field, ring_rationals)
from adiclab.smith import smith_normal_form, mat_mul

ZZ = ring_integers()
QQ = ring_rationals()
QXY = ring_polynomial(QQ, ("x", "y"))
KT3 = ring_power_series(QQ, "t", 3)


def ints(ring, *vals):
    return tuple(ring.from_int(v) for v in vals)


# ---------------------------------------------------------------------------
# std_basis


def test_std_basis_ideal_xy_syzygy():
    # hand Buchberger oracle: one S-polynomial of (x, y) reduces to zero and
    # leaves the syzygy (-y, x)
    x, y = QXY.variable("x"), QXY.variable("y")
    sb = std_basis([(x,), (y,)], QXY)
    gens = {g[0] for g in sb.generators}
    assert gens == {x, y}
    assert len(sb.syzygies) >= 1
    for s in sb.syzygies:
        assert (s[0] * x + s[1] * y).is_zero()
    target = std_basis(list(sb.syzygies), QXY, ambient_rank=2)
    ok, _ = target.contains((-y, x))
    assert ok


def test_std_basis_snf_diag23():
    # 2x2 integer row/column reduction oracle: diag(2,3) ~ diag(1,6)
    rows = [ints(ZZ, 2, 0), ints(ZZ, 0, 3)]
    _, _, _, D, rank = smith_normal_form([list(r) for r in rows], ZZ)
    assert rank == 2
    assert D[0][0] == ZZ.from_int(1)
    assert D[1][1] == ZZ.from_int(6)


def test_std_basis_empty():
    sb = std_basis([], ZZ, ambient_rank=2)
    assert sb.generators == ()
    ok, _ = sb.contains(ints(ZZ, 0, 0))
    assert ok
    ok, _ = sb.contains(ints(ZZ, 1, 0))
    assert not ok


def test_std_basis_canonical_under_shuffle():
    rng = random.Random(7)
    x, y = QXY.variable("x"), QXY.variable("y")
    gens = [(x * x, y), (x * y - QXY.one(), QXY.zero()), (y * y, x + y),
            (QXY.zero(), x * x * y)]
    ref = std_basis(gens, QXY).generators
    for _ in range(4):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert std_basis(shuffled, QXY).generators == ref

    zgens = [ints(ZZ, 4, 2), ints(ZZ, 6, 0), ints(ZZ, 0, 10)]
    zref = std_basis(zgens, ZZ).generators
    for _ in range(4):
        shuffled = zgens[:]
        rng.shuffle(shuffled)
        assert std_basis(shuffled, ZZ).generators == zref


def test_smith_transforms_multiply_out():
    rng = random.Random(3)
    for _ in range(25):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        A = [[ZZ.from_int(rng.randrange(-9, 10)) for _ in range(cols)]
             for _ in range(rows)]
        U, V, Vinv, D, rank = smith_normal_form(A, ZZ)
        assert mat_mul(ZZ, mat_mul(ZZ, U, A), V) == D
        n = len(V)
        ident = [[ZZ.one() if i == j else ZZ.zero() for j in range(n)]
                 for i in range(n)]
        assert mat_mul(ZZ, V, Vinv) == ident
        for i in range(rank - 1):
            from adiclab.rings import elem_divstep
            _, r = elem_divstep(D[i + 1][i + 1], D[i][i])
            assert r.is_zero()


# ---------------------------------------------------------------------------
# kernel / image / cokernel


def test_kernel_mult2_on_zz():
    M = free_module(ZZ, 1)
    f = ModuleHom(M, M, [[ZZ.from_int(2)]])
    ker, incl = kernel_hom(f)
    assert ker.is_zero()
    assert incl.source is ker


def test_kernel_into_z4():
    # oracle: enumerate residues 0..3; kernel of *2 : Z -> Z/4 is 2Z
    Z = free_module(ZZ, 1)
    Z4 = cyclic_module(ZZ, ZZ.from_int(4))
    f = ModuleHom(Z, Z4, [[ZZ.from_int(2)]])
    ker, incl = kernel_hom(f)
    gens = [incl.column(j) for j in range(ker.ambient_rank)]
    two = std_basis([ints(ZZ, 2)], ZZ)
    got = std_basis(gens, ZZ, ambient_rank=1)
    assert all(two.contains(g)[0] for g in gens)
    assert got.contains(ints(ZZ, 2))[0]


def test_kernel_xy_syzygy():
    x, y = QXY.variable("x"), QXY.variable("y")
    A2 = free_module(QXY, 2)
    A1 = free_module(QXY, 1)
    f = ModuleHom(A2, A1, [[x, y]])
    ker, incl = kernel_hom(f)
    gens = [incl.column(j) for j in range(ker.ambient_rank)]
    sb = std_basis(gens, QXY, ambient_rank=2)
    assert sb.contains((-y, x))[0]
    oracle = std_basis([(-y, x)], QXY)
    assert all(oracle.contains(g)[0] for g in gens)


def test_image_coker_examples():
    Z = free_module(ZZ, 1)
    f = ModuleHom(Z, Z, [[ZZ.from_int(12)]])
    image, coker, proj = image_coker(f)
    assert modules_isomorphic(coker, cyclic_module(ZZ, ZZ.from_int(12)))
    z = zero_module(ZZ)
    g = ModuleHom(z, Z, [[]])
    image2, coker2, _ = image_coker(g)
    assert image2.is_zero()
    assert modules_equal(coker2, Z)


def test_membership_examples():
    x, y = QXY.variable("x"), QXY.variable("y")
    cube = [(m,) for m in (x**3, x*x*y, x*y*y, y**3)]
    sb = std_basis(cube, QXY)
    ok, wit = sb.contains((x * x * y,))
    assert ok
    acc = QXY.zero()
    for c, g in zip(wit, cube):
        acc = acc + c * g[0]
    assert acc == x * x * y
    assert not std_basis([(x,), (y,)], QXY).contains((QXY.one(),))[0]


def test_membership_in_z12_span8():
    # oracle: multiples of 8 mod 12 are {0, 8, 4}
    sb = std_basis([ints(ZZ, 8), ints(ZZ, 12)], ZZ)
    ok, wit = sb.contains(ints(ZZ, 4))
    assert ok
    val = wit[0] * ZZ.from_int(8) + wit[1] * ZZ.from_int(12)
    assert (val - ZZ.from_int(4)).constant_scalar() % 12 == 0


def test_module_is_zero():
    Z = free_module(ZZ, 1)
    ident = identity_hom(Z)
    _, coker, _ = image_coker(ident)
    assert module_is_zero(coker)
    assert not module_is_zero(cyclic_module(ZZ, ZZ.from_int(12)))
    x = ring_polynomial(QQ, ("x",)).variable("x")
    QX = x.ring
    M = cyclic_module(QX, x, QX.one() + x)
    assert module_is_zero(M)


# ---------------------------------------------------------------------------
# ideal powers


def test_ideal_power_z12():
    M = cyclic_module(ZZ, ZZ.from_int(12))
    res = ideal_power_act([ZZ.from_int(2)], 3, M)
    # oracle: enumerate Z/12; 2^3*(Z/12) = {0,4,8} = 4*(Z/12)
    four = std_basis([ints(ZZ, 4), ints(ZZ, 12)], ZZ)
    for g in res.submodule_gens:
        assert four.contains(g)[0]
    assert res.stabilized_at == 2
    assert modules_isomorphic(res.quotient, cyclic_module(ZZ, ZZ.from_int(4)))


def test_ideal_power_nilpotent():
    t = KT3.variable("t")
    M = free_module(KT3, 1)
    res = ideal_power_act([t], 3, M)
    assert res.submodule.is_zero()
    assert modules_equal(res.quotient, M)


def test_ideal_power_xy_on_a_mod_x():
    x, y = QXY.variable("x"), QXY.variable("y")
    M = cyclic_module(QXY, x)
    res = ideal_power_act([x, y], 2, M)
    oracle = std_basis([(y * y,), (x,)], QXY)
    for g in res.submodule_gens:
        assert oracle.contains(g)[0]
    assert oracle.contains((y * y,))
    assert res.stabilized_at is None
    with pytest.raises(BudgetExceeded):
        ideal_power_act([x], 99, M, budget=16)


def test_ideal_power_monotone():
    M = cyclic_module(ZZ, ZZ.from_int(36))
    prev = None
    for k in range(4):
        res = ideal_power_act([ZZ.from_int(6)], k, M)
        if prev is not None:
            basis = std_basis(list(prev) + list(M.relations), ZZ)
            # a^{k}M must contain a^{k+1}M
            for g in res.submodule_gens:
                assert basis.contains(g)[0]
        prev = res.submodule_gens


# ---------------------------------------------------------------------------
# hom validation and exactness sanity


def test_hom_well_definedness_checked():
    Z4 = cyclic_module(ZZ, ZZ.from_int(4))
    Z = free_module(ZZ, 1)
    with pytest.raises(ParentMismatch):
        ModuleHom(Z4, Z, [[ZZ.one()]])  # 4 must map into 4Z, 4*1 not in 0
    ModuleHom(Z4, Z4, [[ZZ.from_int(3)]])  # fine: 4*3 = 12 in 4Z


def _random_module(rng, ring, max_rank=3):
    rank = rng.randrange(1, max_rank + 1)
    rels = []
    for _ in range(rng.randrange(0, 3)):
        rels.append(tuple(ring.from_int(rng.randrange(-6, 7))
                          for _ in range(rank)))
    return FPModule(ring, rank, rels)


def test_exactness_sanity_random():
    rng = random.Random(11)
    for _ in range(15):
        M = _random_module(rng, ZZ)
        N = _random_module(rng, ZZ)
        # build a valid hom by composing: N <- free cover of M is always valid
        F = free_module(ZZ, M.ambient_rank)
        mat = [[ZZ.from_int(rng.randrange(-4, 5))
                for _ in range(F.ambient_rank)]
               for _ in range(N.ambient_rank)]
        f = ModuleHom(F, N, mat)
        ker, incl = kernel_hom(f)
        comp = compose(f, incl)
        assert comp.is_zero_hom()
        image, coker, proj = image_coker(f)
        assert compose(proj, f).is_zero_hom()


# ---------------------------------------------------------------------------
# brute-force oracle over small prime fields


def enumerate_module(M):
    """All elements of a module over GF(p) as canonical normal forms."""
    p = M.ring.p
    consts = [M.ring.from_int(v) for v in range(p)]
    seen = set()
    out = []
    for tup in iproduct(consts, repeat=M.ambient_rank):
        nf = M.normal_form(tup)
        key = tuple(e._sorted_key() for e in nf)
        if key not in seen:
            seen.add(key)
            out.append(nf)
    return out


def test_prime_field_enumeration_oracle_smoke():
    rng = random.Random(5)
    GF3 = ring_prime_field(3)
    for _ in range(10):
        M = _random_module(rng, GF3, max_rank=2)
        N = _random_module(rng, GF3, max_rank=2)
        F = free_module(GF3, M.ambient_rank)
        mat = [[GF3.from_int(rng.randrange(3)) for _ in range(F.ambient_rank)]
               for _ in range(N.ambient_rank)]
        f = ModuleHom(F, N, mat)
        ker, incl = kernel_hom(f)
        # oracle: elements of F with image zero in N
        nb = N.relations_basis()
        oracle = [v for v in enumerate_module(F) if nb.contains(f.apply(v))[0]]
        kb = std_basis([incl.column(j) for j in range(ker.ambient_rank)],
                       GF3, ambient_rank=F.ambient_rank)
        for v in oracle:
            assert kb.contains(v)[0]
        assert len(enumerate_module(ker)) == len(set(
            tuple(e._sorted_key() for e in F.normal_form(v)) for v in oracle
        )) or len(oracle) == _count_span(oracle, F)


def _count_span(vecs, F):
    sb = std_basis(vecs, F.ring, ambient_rank=F.ambient_rank)
    return len(enumerate_module(submodule_presentation(list(vecs), F)))


def test_modules_isomorphic_euclidean():
    A = cyclic_module(ZZ, ZZ.from_int(6))
    B = FPModule(ZZ, 2, [ints(ZZ, 2, 0), ints(ZZ, 0, 3)])
    assert modules_isomorphic(A, B)
    assert not modules_isomorphic(A, cyclic_module(ZZ, ZZ.from_int(12)))
    t = KT3.variable("t")
    M1 = cyclic_module(KT3, t)
    M2 = cyclic_module(KT3, t * t)
    assert not modules_isomorphic(M1, M2)
    assert modules_isomorphic(M1, M1)


def test_coker_of_truncated_diagonal_map():
    # diagonal delta_i -> t^i delta_i at support 3, precision 4: the
    # cokernel presentation carries exactly the three diagonal relations
    KT4 = ring_power_series(QQ, "t", 4)
    t = KT4.variable("t")
    F = free_module(KT4, 3)
    mat = [[t ** i if i == j else KT4.zero() for j in range(3)]
           for i in range(3)]
    f = ModuleHom(F, F, mat)
    _, coker, _ = image_coker(f)
    expected = {(str(t ** i) if k == i else "0" for k in range(3))
                for i in range(3)}
    rows = {tuple(str(e) for e in r) for r in coker.relations}
    assert ("1", "0", "0") in rows
    assert ("0", "t", "0") in rows
    assert ("0", "0", "t^2") in rows


def test_std_basis_smith_divisibility_chain():
    sb = std_basis([ints(ZZ, 4, 2), ints(ZZ, 6, 0), ints(ZZ, 0, 10)], ZZ)
    U, V, Vinv, D, rank = smith_normal_form(list(sb.generators), ZZ)
    from adiclab.rings import elem_divstep
    for i in range(rank - 1):
        _, r = elem_divstep(D[i + 1][i + 1], D[i][i])
        assert r.is_zero()
