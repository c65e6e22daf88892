import sys

import pytest

from adiclab import derived
from adiclab.adic import Budgets, is_separated, memo_scope
from adiclab.complexes import (cohomology, complex_from_module, hom_complex,
                               shift_complex, zero_complex)
from adiclab.errors import BudgetExceeded
from adiclab.derived import (ext_localization, is_cohomologically_complete,
                             koszul_route_cc, telescope_stage)
from adiclab.modules import (FPModule, free_module, modules_isomorphic,
                             zero_module)
from adiclab.rings import (ring_integers, ring_polynomial, ring_power_series,
                           ring_rationals)
from adiclab.theorems import DecayModule
from tests_util_algebra import cyclic_module
from tests_util_telescope import single_telescope

ZZ = ring_integers()
QQ = ring_rationals()
QXY = ring_polynomial(QQ, ("x", "y"))
KT3 = ring_power_series(QQ, "t", 3)
B = Budgets(depth=8, window=6, stages=4)


def test_telescope_single_ranks():
    tel = single_telescope(ZZ.from_int(2), 3)
    assert tel.entry(0).ambient_rank == 4
    assert tel.entry(1).ambient_rank == 4
    plus = telescope_stage(ZZ.from_int(2), 3)
    assert plus.entry(0).ambient_rank == 3
    assert plus.entry(1).ambient_rank == 4


def test_plus_part_hom_cohomology_window():
    # Hom(plus[1], M) must have cohomology only in degrees 0 and 1
    for a, M in [(ZZ.from_int(2), cyclic_module(ZZ, ZZ.from_int(3))),
                 (ZZ.from_int(2), free_module(ZZ, 1))]:
        plus = telescope_stage(a, 3)
        H = hom_complex(shift_complex(plus, 1), M)
        for j in H.window():
            if j not in (0, 1):
                assert cohomology(H, j).is_zero()


def test_ext_examples_z3():
    M3 = cyclic_module(ZZ, ZZ.from_int(3))
    e0 = ext_localization(0, ZZ.from_int(2), M3, B)
    assert e0.vanishing.fails()
    assert e0.agreement is True
    # stage values are isomorphic to M at each stage
    for N, val in e0.stages.items():
        assert modules_isomorphic(val, M3)
    e1 = ext_localization(1, ZZ.from_int(2), M3, B)
    assert e1.vanishing.holds()
    assert e1.agreement is True


def test_ext_examples_zz():
    Z = free_module(ZZ, 1)
    e1 = ext_localization(1, ZZ.from_int(2), Z, B)
    assert e1.vanishing.fails()
    assert e1.agreement is True
    e0 = ext_localization(0, ZZ.from_int(2), Z, B)
    assert e0.vanishing.holds()


def test_ext_examples_nilpotent():
    t = KT3.variable("t")
    M = free_module(KT3, 1)
    for i in (0, 1):
        e = ext_localization(i, t, M, B)
        assert e.vanishing.holds()
        assert e.agreement in (True, None)


def test_derived_completion_stage_nilpotent():
    t = KT3.variable("t")
    M = free_module(KT3, 1)
    # stage H^0 of Hom(Tel_3, M) is M/t^4 M = M
    H0 = cohomology(hom_complex(single_telescope(t, 3), M), 0)
    assert modules_isomorphic(H0, M)
    v = is_cohomologically_complete(M, [t], B)
    assert v.holds()


def test_derived_completion_stage_zz():
    Z = free_module(ZZ, 1)
    tel = single_telescope(ZZ.from_int(2), 3)
    H0 = cohomology(hom_complex(tel, Z), 0)
    assert modules_isomorphic(H0, cyclic_module(ZZ, ZZ.from_int(16)))
    v = is_cohomologically_complete(Z, [ZZ.from_int(2)], B)
    assert v.fails()
    assert v.witness["obstruction_degree"] == 1


def test_derived_completion_zero_module():
    tel = single_telescope(ZZ.from_int(2), 2)
    assert not hom_complex(tel, zero_module(ZZ)).entries


def test_cc_examples():
    t = KT3.variable("t")
    assert is_cohomologically_complete(free_module(KT3, 1), [t], B).holds()
    assert is_cohomologically_complete(free_module(ZZ, 1),
                                       [ZZ.from_int(2)], B).fails()
    M12 = cyclic_module(ZZ, ZZ.from_int(12))
    v = is_cohomologically_complete(M12, [ZZ.from_int(2)], B)
    assert v.fails()
    assert v.witness["obstruction_degree"] == 0


def test_cc_decay_module_holds():
    # the anomalous module's avatar, the presentation its cohomological
    # completeness is read on
    KT8 = ring_power_series(QQ, "t", 8)
    M = DecayModule(KT8, 8, tuple(range(8))).avatar()
    t = KT8.variable("t")
    v = is_cohomologically_complete(M, [t], Budgets(stages=4))
    assert v.holds()


def test_route_agreement_samples():
    cases = [
        (cyclic_module(ZZ, ZZ.from_int(12)), ZZ.from_int(2)),
        (cyclic_module(ZZ, ZZ.from_int(3)), ZZ.from_int(2)),
        (free_module(ZZ, 1), ZZ.from_int(2)),
        (free_module(KT3, 1), KT3.variable("t")),
    ]
    for M, a in cases:
        tele = is_cohomologically_complete(M, [a], B, route="telescope")
        kosz = koszul_route_cc(M, a, B)
        if tele.decisive and kosz.decisive:
            assert tele.status == kosz.status


def test_cc_joint_chain_route():
    x, y = QXY.variable("x"), QXY.variable("y")
    cube = cyclic_module(QXY, x ** 3, x * x * y, x * y * y, y ** 3)
    assert is_cohomologically_complete(cube, [x, y], B,
                                       route="joint_chain").holds()
    Mx = cyclic_module(QXY, x)
    v = is_cohomologically_complete(Mx, [x, y], B, route="joint_chain")
    assert v.fails()
    # per-generator route agrees: the y-component fails
    v2 = is_cohomologically_complete(Mx, [x, y], B)
    assert v2.fails()


@pytest.mark.parametrize("M, gens", [
    (free_module(ZZ, 1), [ZZ.zero()]),              # zero ideal
    (zero_complex(ZZ), [ZZ.from_int(2)]),           # exact complex
    (complex_from_module(free_module(ZZ, 1)), []),  # both
    (free_module(ZZ, 1), [ZZ.from_int(2)]),
])
def test_cc_rejects_an_unknown_route_before_any_answer(M, gens):
    with pytest.raises(BudgetExceeded, match="unknown route"):
        is_cohomologically_complete(M, gens, B, route="bogus")


def test_cc_joint_chain_not_separated_on_a_strict_chain():
    # ZZ + ZZ/5 with a = 2: the free summand makes 2^k M descend forever,
    # and the ZZ/5 summand lies in every 2^k M
    M = FPModule(ZZ, 2, [(ZZ.zero(), ZZ.from_int(5))])
    two = ZZ.from_int(2)
    sep = is_separated(M, [two], B)
    assert sep.fails()
    v = is_cohomologically_complete(M, [two], B, route="joint_chain")
    assert v.fails()
    assert v.witness == {"kind": "completion_kernel",
                         "element": sep.witness["element"],
                         "note": "intersection of the chain is nonzero"}


def _counting(monkeypatch, name):
    calls = []
    original = getattr(derived, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(derived, name, wrapper)
    return calls


def test_cc_runs_each_telescope_analysis_once(monkeypatch):
    KT4 = ring_power_series(QQ, "t", 4)
    M = DecayModule(KT4, 4, (0, 1, 2, 3)).avatar()
    t = KT4.variable("t")
    stages = _counting(monkeypatch, "telescope_stage")
    isos = _counting(monkeypatch, "modules_isomorphic")
    assert is_cohomologically_complete(M, [t]).holds()
    # one analysis builds the stage-N and stage-(N+1) telescopes; Ext^0
    # and Ext^1 both read it and one stage-value check
    assert len(stages) == 2
    assert len(isos) == 1
    # a memoised analysis hands each result its own details dict
    with memo_scope():
        both = ext_localization(0, t, M, route="both")
        tele = ext_localization(1, t, M, route="telescope")
    assert both.details["stage_value_matches_module"] is True
    assert "stage_value_matches_module" not in tele.details
    assert len(stages) == 4 and len(isos) == 2


def test_a_telescope_analysis_reads_degree_0_cohomology_only():
    # the identities behind the stage values are checked by the property
    # tests, so the decision path computes no induced map and no degree-1
    # cohomology
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in (
                "induced_cohomology_map", "cohomology_data"):
            calls.append((frame.f_code.co_name, frame.f_locals.get("j")))

    M, two = cyclic_module(ZZ, ZZ.from_int(12)), ZZ.from_int(2)
    sys.setprofile(profile)
    try:
        with memo_scope():
            ext_localization(0, two, M, B, route="telescope")
    finally:
        sys.setprofile(None)
    assert calls == [("cohomology_data", 0)] * 2


@pytest.mark.parametrize("rows, a, status", [
    ([(5, 9), (0, -6), (6, 0), (0, 4)], 5, "fails"),
    ([(-2, 9), (-4, 1), (9, 0)], 4, "holds"),
])
def test_ext0_telescope_on_wide_zz_presentations(rows, a, status):
    # the telescope route's syzygies modulo these relations took from 35 s
    # to minutes while the relation rows were tagged along with the gens
    M = FPModule(ZZ, 2, [tuple(ZZ.from_int(c) for c in r) for r in rows])
    e = ext_localization(0, ZZ.from_int(a), M, route="both")
    assert e.vanishing.status == status
    assert e.agreement is True
