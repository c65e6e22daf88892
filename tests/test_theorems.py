import pytest

from adiclab import adic, theorems
from adiclab.adic import Budgets
from adiclab.complexes import BoundedComplex, complex_from_module
from adiclab.errors import BudgetExceeded, NonSurjectiveReduction
from adiclab.modules import FPModule, ModuleHom, free_module, modules_isomorphic
from adiclab.rings import (RingMap, ring_integers, ring_polynomial,
                           ring_power_series, ring_prime_field,
                           ring_rationals)
from adiclab.theorems import (CONSISTENT, INCONSISTENT, INDECISIVE,
                              DecayModule, build_example1, canonical_digest, check_lemma1,
                              check_lemma5, check_theorem2, check_theorem3,
                              check_theorem4, default_kernel_gens,
                              transport_module)
from tests_util_algebra import cyclic_module

ZZ = ring_integers()
QQ = ring_rationals()
QXY = ring_polynomial(QQ, ("x", "y"))
B = Budgets(depth=8, window=6, stages=3)


def test_theorem2_nilpotent_module():
    KT3 = ring_power_series(QQ, "t", 3)
    t = KT3.variable("t")
    C = complex_from_module(free_module(KT3, 1))
    rep = check_theorem2(C, [t], B)
    assert rep.left.holds() and rep.right.holds()
    assert rep.consistent == CONSISTENT


def test_theorem2_zz():
    C = complex_from_module(free_module(ZZ, 1))
    rep = check_theorem2(C, [ZZ.from_int(2)], B)
    assert rep.left.fails() and rep.right.fails()
    assert rep.consistent == CONSISTENT


def test_theorem2_sides_on_example1():
    # Theorem 2's right side on the anomalous module: separatedness fails
    # although cohomological completeness holds
    ex = build_example1(4, 4, budgets=B)
    assert ex.report["separated"].fails()
    assert ex.report["cohomologically_complete"].holds()


def test_theorem3_nilpotent_both_hold():
    x, y = QXY.variable("x"), QXY.variable("y")
    cube = cyclic_module(QXY, x ** 3, x * x * y, x * y * y, y ** 3)
    rep = check_theorem3(cube, [[x], [y]], B)
    assert rep.left.holds() and rep.right.holds()
    assert rep.consistent == CONSISTENT


def test_theorem3_a_mod_x_both_fail():
    x, y = QXY.variable("x"), QXY.variable("y")
    M = cyclic_module(QXY, x)
    rep = check_theorem3(M, [[x], [y]], B)
    assert rep.left.fails() and rep.right.fails()
    assert rep.consistent == CONSISTENT
    assert rep.sub_reports["ideal_1"].fails()  # the y-check is the failure


def test_theorem3_zero_module():
    from adiclab.modules import zero_module
    x, y = QXY.variable("x"), QXY.variable("y")
    rep = check_theorem3(zero_module(QXY), [[x], [y]], B)
    assert rep.left.holds() and rep.right.holds()
    assert rep.consistent == CONSISTENT


def test_theorem3_on_a_complex_reads_its_cohomology():
    # ZZ --2--> ZZ in degrees 0 and 1: the only cohomology is H^1 = ZZ/2
    F = free_module(ZZ, 1)
    C = BoundedComplex(ZZ, {0: F, 1: F},
                       {0: ModuleHom(F, F, [[ZZ.from_int(2)]])})
    ideals = [[ZZ.from_int(2)], [ZZ.from_int(3)]]
    rep = check_theorem3(C, ideals, B)
    h1 = check_theorem3(cyclic_module(ZZ, ZZ.from_int(2)), ideals, B)
    assert rep.left.fails() and rep.right.fails()
    assert (rep.left.status, rep.right.status, rep.consistent) == (
        h1.left.status, h1.right.status, h1.consistent)
    free = {"ambient_rank": 1, "relations": [], "ring": {"kind": "integers"}}
    assert rep.instance_digest == canonical_digest({
        "check": "theorem3",
        "module": {"entries": {"0": free, "1": free},
                   "differentials": {"0": [["2"]]}},
        "ideals": [["2"], ["3"]]})


def test_theorem4_z12():
    M = cyclic_module(ZZ, ZZ.from_int(12))
    rep = check_theorem4(M, [ZZ.from_int(2)], B)
    assert rep.left.fails() and rep.right.fails()
    assert rep.consistent == CONSISTENT
    assert rep.sub_reports["separated"].fails()
    tr = rep.sub_reports["transport"]
    assert tr["left_matches"] and tr["right_matches"]
    assert all(tr["tower_stages_match"])


def test_theorem4_nilpotent_holds():
    KT5 = ring_power_series(QQ, "t", 5)
    t = KT5.variable("t")
    M = free_module(KT5, 1)
    rep = check_theorem4(M, [t], B)
    assert rep.left.holds() and rep.right.holds()
    assert rep.consistent == CONSISTENT


def test_theorem4_zz_decisive_fails():
    Z = free_module(ZZ, 1)
    rep = check_theorem4(Z, [ZZ.from_int(2)], B)
    assert rep.left.fails()
    assert rep.left.witness["kind"] == "never_surjective"
    assert rep.right.fails()
    assert rep.consistent == CONSISTENT


def test_theorem4_transport_requested_on_bad_target():
    x = QXY.variable("x")
    M = cyclic_module(QXY, x)
    with pytest.raises(NonSurjectiveReduction):
        check_theorem4(M, [x], B, transport=True)


def test_lemma1_zz():
    Z = free_module(ZZ, 1)
    rep = check_lemma1(Z, ZZ.from_int(2), B)
    assert rep.sub_reports["separated"].holds()
    assert rep.sub_reports["ext0_vanishing"].holds()
    assert rep.sub_reports["separated_implies_hom_vanishes"].holds()
    assert rep.consistent == CONSISTENT  # both sides fail: cc and ext1


def test_lemma1_z3():
    M3 = cyclic_module(ZZ, ZZ.from_int(3))
    rep = check_lemma1(M3, ZZ.from_int(2), B)
    assert rep.left.fails() and rep.right.fails()
    assert rep.consistent == CONSISTENT
    assert rep.sub_reports["separated"].fails()
    assert rep.sub_reports["separated_implies_hom_vanishes"].holds()
    assert rep.sub_reports["separated_implies_hom_vanishes"].certificate[
        "kind"] == "implication_vacuous"


def test_lemma1_zz_t_with_a_negative_leading_unit():
    # 1 - t leads with -1: once canonical bases scaled by that unit after
    # reducing the tail, two equal spans had different bases and the
    # telescope side gave up as unknown
    ZT = ring_polynomial(ZZ, ("t",))
    t = ZT.variable("t")
    M = cyclic_module(ZT, ZT.from_int(2), t + ZT.one())
    rep = check_lemma1(M, ZT.one() - t)
    assert rep.left.holds() and rep.right.holds()
    assert rep.consistent == CONSISTENT


def test_lemma1_nilpotent():
    KT3 = ring_power_series(QQ, "t", 3)
    t = KT3.variable("t")
    M = free_module(KT3, 1)
    rep = check_lemma1(M, t, B)
    assert rep.left.holds() and rep.right.holds()
    assert rep.consistent == CONSISTENT


def test_lemma5_z12():
    zt = ring_polynomial(ZZ, ("t1",))
    f = RingMap(zt, ZZ, (ZZ.from_int(2),))
    M = cyclic_module(ZZ, ZZ.from_int(12))
    rep = check_lemma5(f, 0, M, B)
    assert rep.consistent == CONSISTENT
    assert rep.sub_reports["stage_values_isomorphic"] is True


def test_lemma5_prime_field_target():
    zt = ring_polynomial(ZZ, ("t1",))
    GF5 = ring_prime_field(5)
    f = RingMap(zt, GF5, (GF5.from_int(2),))
    M = FPModule(GF5, 2, [(GF5.from_int(1), GF5.from_int(4))])
    rep = check_lemma5(f, 0, M, B)
    assert rep.consistent == CONSISTENT


def test_lemma5_power_series_target():
    KT3 = ring_power_series(ring_prime_field(5), "t", 3)
    zt = ring_polynomial(ZZ, ("u",))
    t = KT3.variable("t")
    f = RingMap(zt, KT3, (t,))
    M = free_module(KT3, 1)
    rep = check_lemma5(f, 0, M, B)
    assert rep.consistent == CONSISTENT
    assert rep.left.holds() and rep.right.holds()


def test_transport_module_shape():
    zt = ring_polynomial(ZZ, ("t1",))
    f = RingMap(zt, ZZ, (ZZ.from_int(2),))
    M = cyclic_module(ZZ, ZZ.from_int(12))
    MA = transport_module(f, M, default_kernel_gens(f))
    assert MA.ring == zt
    assert MA.ambient_rank == 1
    # 12 and t1 - 2 are relations
    strs = {tuple(str(e) for e in r) for r in MA.relations}
    assert ("12",) in strs
    assert ("t1 - 2",) in strs


# ---------------------------------------------------------------------------
# the anomalous example


def test_example1_minimal():
    ex = build_example1(2, 2, budgets=B)
    v = ex.report["separated"]
    assert v.fails()
    assert 1 in v.witness["memberships_verified"]
    assert ex.report["power_memberships"].holds()
    assert ex.report["quasi_isomorphism"].holds()
    assert ex.report["cohomologically_complete"].holds()


def test_example1_standard():
    ex = build_example1(8, 8, budgets=Budgets())
    assert ex.report["separated"].fails()
    assert ex.report["power_memberships"].holds()
    assert ex.report["power_memberships"].certificate["powers"] == list(range(8))
    assert ex.report["quasi_isomorphism"].holds()
    assert ex.report["cohomologically_complete"].holds()


def test_example1_computes_the_diagonal_kernel_once(monkeypatch):
    calls = []
    compute = theorems._decay_kernel
    monkeypatch.setattr(theorems, "_decay_kernel",
                        lambda D: calls.append(D) or compute(D))
    ex = build_example1(4, 4, budgets=B)
    # separatedness and the quasi-isomorphism both read it
    assert calls == [ex.module]
    assert ex.report["separated"].fails()
    ghosts = ex.report["quasi_isomorphism"].certificate[
        "ghost_kernel_generators"]
    assert ghosts == [adic.vec_strs(g) for g in compute(ex.module)[0]]


def test_example1_genuine_kernel_element_refutes_quasi_iso(monkeypatch):
    # a diagonal map's kernel holds only ghosts, so a genuine element comes
    # from a substituted kernel
    KT4 = ring_power_series(QQ, "t", 4)
    D = DecayModule(KT4, 2, (0, 1))
    genuine = (KT4.zero(), KT4.variable("t"))
    monkeypatch.setattr(theorems, "_kernel_gens", lambda f: [genuine])
    F = free_module(KT4, 2)
    P = BoundedComplex(KT4, {-1: F, 0: F}, {-1: D.diagonal_hom()})
    v = theorems._example1_quasi_iso(D, P, D.avatar(), B)
    assert v.fails()
    assert v.witness == {"kind": "genuine_kernel_element",
                         "element": ["0", "t"], "degree": -1}


def test_example1_rejects_tiny():
    with pytest.raises(BudgetExceeded):
        build_example1(1, 8)


def test_lemma5_identity_presentation():
    # identity-style presentation: the source maps onto a univariate
    # polynomial ring by sending its variable straight across
    ZU = ring_polynomial(ring_integers(), ("u",))
    zt = ring_polynomial(ring_integers(), ("t1",))
    u = ZU.variable("u")
    f = RingMap(zt, ZU, (u,))
    M = cyclic_module(ZU, u ** 2)
    rep = check_lemma5(f, 0, M, B, kernel_gens=[])
    assert rep.consistent == CONSISTENT
    assert rep.left.holds() and rep.right.holds()
