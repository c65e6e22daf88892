import pytest

from adiclab.adic import (Budgets, DecayApprox, DecayModule, chain_profile,
                          completion_tower, ext0_vanishing_tower,
                          ext1_vanishing_tower, fdec_reduce, is_complete,
                          is_separated, lim_tower, multiplication_tower,
                          nilpotent_on_module)
from adiclab.errors import BudgetExceeded, PrecisionExceeded
from adiclab.modules import (FPModule, cyclic_module, free_module,
                             membership, modules_equal, modules_isomorphic,
                             quotient_module, std_basis)
from adiclab.rings import (parse_element, ring_integers, ring_polynomial,
                           ring_power_series, ring_prime_field,
                           ring_rationals)

ZZ = ring_integers()
QQ = ring_rationals()
QXY = ring_polynomial(QQ, ("x", "y"))
KT3 = ring_power_series(QQ, "t", 3)
B = Budgets(depth=8, window=6)


def ints(ring, *vals):
    return tuple(ring.from_int(v) for v in vals)


# ---------------------------------------------------------------------------
# towers


def test_completion_tower_zz():
    Z = free_module(ZZ, 1)
    T = completion_tower(Z, [ZZ.from_int(2)], depth=3)
    for k, n in ((1, 2), (2, 4), (3, 8)):
        assert modules_isomorphic(T.stage(k), cyclic_module(ZZ, ZZ.from_int(n)))
    assert T.stabilization(B) is None
    with pytest.raises(BudgetExceeded):
        T.stage(4)


def test_completion_tower_z12():
    M = cyclic_module(ZZ, ZZ.from_int(12))
    T = completion_tower(M, [ZZ.from_int(2)], depth=6)
    assert modules_isomorphic(T.stage(1), cyclic_module(ZZ, ZZ.from_int(2)))
    assert modules_isomorphic(T.stage(2), cyclic_module(ZZ, ZZ.from_int(4)))
    assert modules_isomorphic(T.stage(3), cyclic_module(ZZ, ZZ.from_int(4)))
    stab = T.stabilization(B)
    assert stab is not None and stab[0] == 2


def test_completion_tower_nilpotent():
    t = KT3.variable("t")
    M = free_module(KT3, 1)
    T = completion_tower(M, [t], depth=6)
    assert modules_equal(T.stage(3), T.stage(4))
    stab = T.stabilization(B)
    assert stab is not None and stab[0] == 3


def test_lim_stabilized_constant_tower():
    M = cyclic_module(ZZ, ZZ.from_int(4))
    T = completion_tower(M, [ZZ.from_int(2)], depth=8)
    rep, lim1 = lim_tower(T, 6, B)
    assert rep.decisive
    assert modules_isomorphic(rep.value, M)
    assert lim1.holds()


def test_lim_mult_invertible():
    M = cyclic_module(ZZ, ZZ.from_int(3))
    T = multiplication_tower(M, ZZ.from_int(2), depth=8)
    rep, lim1 = lim_tower(T, 6, B)
    assert rep.decisive and modules_isomorphic(rep.value, M)
    assert lim1.holds()


def test_lim_mult_zz_fails_ml():
    Z = free_module(ZZ, 1)
    T = multiplication_tower(Z, ZZ.from_int(2), depth=8)
    rep, lim1 = lim_tower(T, 6, B)
    assert lim1.fails()
    assert rep.decisive and rep.value.is_zero()  # separated: lim = 0


# ---------------------------------------------------------------------------
# separatedness


def test_separated_zz():
    v = is_separated(free_module(ZZ, 1), [ZZ.from_int(2)], B)
    assert v.holds()
    assert v.certificate["kind"] in ("euclidean_valuation", "graded")


def test_separated_z12_fails_with_witness_4():
    M = cyclic_module(ZZ, ZZ.from_int(12))
    v = is_separated(M, [ZZ.from_int(2)], B)
    assert v.fails()
    w = parse_element(ZZ, v.witness["element"][0])
    # witness is a unit multiple of 4 mod 12: re-check membership at depth
    for k in range(1, 6):
        sb = std_basis([ints(ZZ, 2 ** k), ints(ZZ, 12)], ZZ)
        assert sb.contains((w,))[0]
    assert not M.relations_basis().contains((w,))[0]


def test_separated_free_plus_torsion():
    # Z + Z/4 with a = 2: chain never stabilizes, intersection is zero
    M = FPModule(ZZ, 2, [ints(ZZ, 0, 4)])
    v = is_separated(M, [ZZ.from_int(2)], B)
    assert v.holds()
    # Z + Z/3 with a = 2: the Z/3 part survives every power of 2
    N = FPModule(ZZ, 2, [ints(ZZ, 0, 3)])
    v2 = is_separated(N, [ZZ.from_int(2)], B)
    assert v2.fails()
    assert v2.witness["kind"] == "saturated_torsion_element"
    assert v2.witness["element"] == ["0", "1"]
    w = tuple(parse_element(ZZ, s) for s in v2.witness["element"])
    for k in range(1, 6):
        gens = [ints(ZZ, 2 ** k, 0), ints(ZZ, 0, 2 ** k), ints(ZZ, 0, 3)]
        assert std_basis(gens, ZZ).contains(w)[0]


def test_separated_graded_multivariate():
    x, y = QXY.variable("x"), QXY.variable("y")
    M = cyclic_module(QXY, x)  # graded cyclic module
    v = is_separated(M, [y], B)
    assert v.holds() and v.certificate["kind"] == "graded"


def test_lemma2_style_monotonicity():
    # if the b-generators lie in the ideal (a), separatedness for a implies
    # separatedness for b on decisive instances
    cases = [
        (free_module(ZZ, 1), [ZZ.from_int(2)], [ZZ.from_int(4)]),
        (cyclic_module(ZZ, ZZ.from_int(9)), [ZZ.from_int(3)], [ZZ.from_int(9)]),
    ]
    for M, a, b in cases:
        va = is_separated(M, a, B)
        vb = is_separated(M, b, B)
        sb = std_basis([(g,) for g in a], M.ring)
        assert all(sb.contains((g,))[0] for g in b)
        if va.holds():
            assert not vb.fails()


# ---------------------------------------------------------------------------
# completeness


def test_complete_nilpotent():
    t = KT3.variable("t")
    M = free_module(KT3, 1)
    v = is_complete(M, [t], B)
    assert v.holds() and v.certificate["kind"] == "nilpotent_chain"


def test_complete_z12_fails():
    M = cyclic_module(ZZ, ZZ.from_int(12))
    v = is_complete(M, [ZZ.from_int(2)], B)
    assert v.fails() and v.witness["kind"] == "completion_kernel"


def test_complete_zz_fails_by_nonstabilization():
    Z = free_module(ZZ, 1)
    v = is_complete(Z, [ZZ.from_int(2)], B, refutations="nonstab")
    assert v.fails() and v.witness["kind"] == "never_surjective"


def test_complete_zz_fails_with_schenzel_route_available():
    Z = free_module(ZZ, 1)
    v = is_complete(Z, [ZZ.from_int(2)], B, refutations="all")
    assert v.fails()
    assert v.witness["kind"] == "localization_ext_obstruction"
    sep = is_separated(Z, [ZZ.from_int(2)], B)
    ext1 = ext1_vanishing_tower(Z, ZZ.from_int(2), B)
    assert sep.holds() and ext1.fails()


def test_ext_tower_verdicts():
    M3 = cyclic_module(ZZ, ZZ.from_int(3))
    assert ext0_vanishing_tower(M3, ZZ.from_int(2), B).fails()
    assert ext1_vanishing_tower(M3, ZZ.from_int(2), B).holds()
    t = KT3.variable("t")
    MT = free_module(KT3, 1)
    assert ext0_vanishing_tower(MT, t, B).holds()
    assert ext1_vanishing_tower(MT, t, B).holds()
    Z = free_module(ZZ, 1)
    assert ext0_vanishing_tower(Z, ZZ.from_int(2), B).holds()
    assert ext1_vanishing_tower(Z, ZZ.from_int(2), B).fails()


def test_completion_idempotent_on_stabilized():
    M = cyclic_module(ZZ, ZZ.from_int(12))
    prof = chain_profile(M, [ZZ.from_int(2)], B)
    assert prof.status == "stabilized"
    stabilized = quotient_module(M, prof.tail_gens)
    v = is_complete(stabilized, [ZZ.from_int(2)], B)
    assert v.holds()


def test_surjectivity_preserved_at_each_stage():
    M = free_module(ZZ, 2)
    N = FPModule(ZZ, 2, [ints(ZZ, 1, -1)])  # quotient of M
    a = [ZZ.from_int(2)]
    TM = completion_tower(M, a, depth=4)
    TN = completion_tower(N, a, depth=4)
    from adiclab.modules import ModuleHom, hom_is_surjective, identity_hom
    for k in range(1, 5):
        f = ModuleHom(TM.stage(k), TN.stage(k), identity_hom(M).matrix,
                      check=False)
        assert hom_is_surjective(f)


def test_nilpotency_oracle():
    x, y = QXY.variable("x"), QXY.variable("y")
    M = cyclic_module(QXY, x)
    assert nilpotent_on_module(x, M) is True
    assert nilpotent_on_module(y, M) is False
    cube = cyclic_module(QXY, x ** 3, x * y, y ** 2)
    assert nilpotent_on_module(y, cube) is True


# ---------------------------------------------------------------------------
# decaying functions


def test_fdec_reduce_examples():
    KT8 = ring_power_series(QQ, "t", 8)
    t = KT8.variable("t")
    e = DecayApprox(KT8, tuple(t ** i for i in range(6)), tuple(range(6)))
    red = fdec_reduce(e, 4)
    assert sorted(red) == [0, 1, 2, 3]
    zero = DecayApprox(KT8, (KT8.zero(),) * 3, (0, 1, 2))
    assert fdec_reduce(zero, 5) == {}
    flat = DecayApprox(KT8, (KT8.one(),) * 4, (0, 0, 0, 0))
    assert sorted(fdec_reduce(flat, 3)) == [0, 1, 2, 3]
    with pytest.raises(PrecisionExceeded):
        fdec_reduce(e, 9)


def test_decay_module_separated_fails():
    KT8 = ring_power_series(QQ, "t", 8)
    M = DecayModule(KT8, 8, tuple(range(8)))
    t = KT8.variable("t")
    v = is_separated(M, [t], Budgets())
    assert v.fails()
    assert v.witness["kind"] == "decaying_sum_element"
    assert v.witness["memberships_verified"] == list(range(1, 8))
    vc = is_complete(M, [t], Budgets())
    assert vc.fails()


def test_decay_module_minimal_instance():
    KT2 = ring_power_series(QQ, "t", 2)
    M = DecayModule(KT2, 2, (0, 1))
    t = KT2.variable("t")
    v = is_separated(M, [t], Budgets())
    assert v.fails()
    assert 1 in v.witness["memberships_verified"]


def test_tower_transitions_compose_coherently():
    M = cyclic_module(ZZ, ZZ.from_int(12))
    T = completion_tower(M, [ZZ.from_int(2)], depth=5)
    assert T.check_coherence(3)
    Tm = multiplication_tower(M, ZZ.from_int(2), depth=5)
    assert Tm.check_coherence(3)
