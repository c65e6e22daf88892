import pytest

from adiclab import adic, theorems
from adiclab.adic import (Budgets, chain_profile, completion_tower,
                          ext0_vanishing_tower, ext1_vanishing_tower,
                          is_complete, is_separated, lim_tower, memo_scope,
                          multiplication_tower, nilpotent_on_module)
from adiclab.errors import BudgetExceeded
from adiclab.modules import (FPModule, ModuleHom, compose, free_module,
                             modules_isomorphic, quotient_module, std_basis)
from adiclab.rings import (parse_element, ring_integers, ring_polynomial,
                           ring_power_series, ring_prime_field,
                           ring_rationals)
from adiclab.theorems import DecayModule
from tests_util_algebra import cyclic_module, modules_equal

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
    rep, lim1 = lim_tower(T, B)
    assert rep.decisive
    assert modules_isomorphic(rep.value, M)
    assert lim1.holds()


def test_lim_mult_invertible():
    M = cyclic_module(ZZ, ZZ.from_int(3))
    T = multiplication_tower(M, ZZ.from_int(2), depth=8)
    rep, lim1 = lim_tower(T, B)
    assert rep.decisive and modules_isomorphic(rep.value, M)
    assert lim1.holds()


def test_lim_mult_zz_fails_ml():
    Z = free_module(ZZ, 1)
    T = multiplication_tower(Z, ZZ.from_int(2), depth=8)
    rep, lim1 = lim_tower(T, B)
    assert lim1.fails()
    assert rep.decisive and rep.value.is_zero()  # separated: lim = 0


def test_lim_quotient_tower_descending_forever():
    # 2^k ZZ descends forever: no stage is the limit, and the surjective
    # transitions keep lim^1 zero
    T = completion_tower(free_module(ZZ, 1), [ZZ.from_int(2)], depth=8)
    rep, lim1 = lim_tower(T, B)
    assert rep == adic.LimReport(False, None, None,
                                 "strictly descending forever")
    assert lim1.holds() and lim1.certificate["kind"] == "mittag_leffler"


def test_lim_mult_tower_tail_not_invertible(monkeypatch):
    # on ZZ/3 the chain 2^k M stabilizes at once with tail M.  The library
    # never meets a tail it cannot invert (a surjective endomorphism of a
    # finitely generated module is injective), so the isomorphism test is
    # substituted to reach the reader of a failed one
    M = cyclic_module(ZZ, ZZ.from_int(3))
    T = multiplication_tower(M, ZZ.from_int(2), depth=8)
    monkeypatch.setattr(adic, "hom_is_iso", lambda f: False)
    rep, lim1 = lim_tower(T, B)
    assert rep == adic.LimReport(False, None, 0,
                                 "stabilized image, undecided lift")
    assert lim1.holds()
    assert ext0_vanishing_tower(M, ZZ.from_int(2), B).status == "unknown"


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
        assert sb.contains((w,))
    assert not M.relations_basis().contains((w,))


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
        assert std_basis(gens, ZZ).contains(w)


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
        assert all(sb.contains((g,)) for g in b)
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
    v = is_complete(Z, [ZZ.from_int(2)], B)
    assert v.fails() and v.witness["kind"] == "never_surjective"


def test_complete_zz_fails_with_schenzel_route_available():
    # separated with nonvanishing localization Ext^1, so not complete by
    # Schenzel's criterion; the chain alone already decides it
    Z = free_module(ZZ, 1)
    v = is_complete(Z, [ZZ.from_int(2)], B)
    assert v.fails()
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


def test_ext1_reads_only_the_chain_profile(monkeypatch):
    # over Z/3 the chain stabilizes with a nonzero tail, over Z it descends
    # forever: the limit reader checks the tail map or separatedness there,
    # the lim^1 reader needs neither
    def unreachable(*args):
        raise AssertionError("lim^1 built part of the limit")

    monkeypatch.setattr(adic, "_mult_tail_iso", unreachable)
    monkeypatch.setattr(adic, "is_separated", unreachable)
    two = ZZ.from_int(2)
    for M in (cyclic_module(ZZ, ZZ.from_int(3)), free_module(ZZ, 1)):
        assert ext1_vanishing_tower(M, two, B).decisive
        with pytest.raises(AssertionError):
            ext0_vanishing_tower(M, two, B)


def test_tower_is_a_value():
    M = cyclic_module(ZZ, ZZ.from_int(12))
    two = ZZ.from_int(2)
    T = completion_tower(M, [two, ZZ.zero()], depth=5)
    assert T == adic.Tower("quotient", M, (two,), 5)
    assert multiplication_tower(M, two, 5) == adic.Tower(
        "multiplication", M, (two,), 5)
    with pytest.raises(ValueError):
        adic.Tower("sideways", M, (two,), 5)


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


@pytest.mark.parametrize("field", ["depth", "window", "stages",
                                   "stab_window"])
def test_negative_budget_is_rejected(field):
    with pytest.raises(ValueError, match=field):
        Budgets(**{field: -1})
    assert Budgets(**{field: 0}).as_dict()[field] == 0


def test_nilpotency_oracle():
    x, y = QXY.variable("x"), QXY.variable("y")
    M = cyclic_module(QXY, x)
    assert nilpotent_on_module(x, M) is True
    assert nilpotent_on_module(y, M) is False
    cube = cyclic_module(QXY, x ** 3, x * y, y ** 2)
    assert nilpotent_on_module(y, cube) is True


# ---------------------------------------------------------------------------
# decaying functions: the anomalous example's separatedness, which lives in
# `theorems` beside the example


def test_decay_module_separated_fails():
    KT8 = ring_power_series(QQ, "t", 8)
    M = DecayModule(KT8, 8, tuple(range(8)))
    v = theorems._decay_separated(M, M.avatar(), Budgets())
    assert v.fails()
    assert v.witness["kind"] == "decaying_sum_element"
    assert v.witness["memberships_verified"] == list(range(1, 8))


def test_decay_module_with_a_genuine_kernel_element(monkeypatch):
    # t^c x = 0 in QQ[[t]]/t^4 puts x in t^(4 - c), so every kernel
    # generator of a diagonal map is a ghost; a substituted kernel with a
    # genuine element must leave separatedness open
    KT4 = ring_power_series(QQ, "t", 4)
    D = DecayModule(KT4, 2, (0, 1))
    genuine = (KT4.zero(), KT4.variable("t"))
    monkeypatch.setattr(theorems, "_kernel_gens", lambda f: [genuine])
    assert theorems.decay_kernel(D) == ((genuine,), genuine)
    assert theorems._decay_separated(D, D.avatar(),
                                     Budgets()).status == "unknown"


def test_decay_module_minimal_instance():
    KT2 = ring_power_series(QQ, "t", 2)
    M = DecayModule(KT2, 2, (0, 1))
    v = theorems._decay_separated(M, M.avatar(), Budgets())
    assert v.fails()
    assert 1 in v.witness["memberships_verified"]


def test_tower_transitions_compose_coherently():
    # transitions are built unchecked; rebuilding them with check=True
    # verifies that relations map into relations, and two steps compose to
    # the canonical map stage(k+2) -> stage(k)
    M = cyclic_module(ZZ, ZZ.from_int(12))
    two = ZZ.from_int(2)
    for T, two_step in [(completion_tower(M, [two], depth=5), ZZ.one()),
                        (multiplication_tower(M, two, depth=5), two * two)]:
        for k in range(3):
            f, g = T.transition(k), T.transition(k + 1)
            ModuleHom(f.source, f.target, f.matrix)
            h = compose(f, g)
            assert (h.source, h.target) == (T.stage(k + 2), T.stage(k))
            assert h.matrix == ((two_step,),)
            ModuleHom(h.source, h.target, h.matrix)


def test_tower_window_isomorphisms_from_last_transition():
    # past the chain budget, stabilization falls back to the window: over
    # QQ[x,y]/(x^3) the stages M/x^k M stop changing from k = 3 on
    x = QXY.variable("x")
    M = cyclic_module(QXY, x ** 3)
    b = Budgets(depth=1, window=6)
    T = completion_tower(M, [x], depth=4, budgets=b)
    assert T.stabilization(b) == (3, {"kind": "window_isomorphisms",
                                      "from": 3})


@pytest.mark.parametrize("M, a, stab", [
    # 2 is a unit on ZZ/3: the chain's stable tail is all of M, so the
    # window decides, and every transition is an isomorphism
    (cyclic_module(ZZ, ZZ.from_int(3)), ZZ.from_int(2),
     (0, {"kind": "window_isomorphisms", "from": 0})),
    # a nonzero tail (4 ZZ/12) or a free summand, and no transition is an
    # isomorphism
    (cyclic_module(ZZ, ZZ.from_int(12)), ZZ.from_int(2), None),
    (free_module(ZZ, 1), ZZ.from_int(2), None),
    # t is nilpotent: the chain reaches zero, so the tower is pro-zero
    (free_module(KT3, 1), KT3.variable("t"),
     (3, {"kind": "chain_iteration", "index": 3})),
])
def test_multiplication_tower_stabilization(M, a, stab):
    assert multiplication_tower(M, a).stabilization() == stab


# ---------------------------------------------------------------------------
# memo scope


def test_chain_profile_of_unit_and_zero_ideals():
    # ZZ^2/(4, 0): a free summand next to Z/4
    M = FPModule(ZZ, 2, [ints(ZZ, 4, 0)])
    for gens in ([ZZ.from_int(-1)], [ZZ.from_int(2), ZZ.from_int(3)]):
        prof = chain_profile(M, gens, B)
        assert (prof.status, prof.stabilized_at, prof.certificate) == (
            "stabilized", 0, {"kind": "chain_iteration", "index": 0})
        assert prof.tail_gens == (ints(ZZ, 1, 0), ints(ZZ, 0, 1))
    # a^k M = 0 for k >= 1: the walk finds it, and at depth 0 the Euclidean
    # analysis does
    euclid = {"kind": "euclidean_decomposition", "free_rank": 1,
              "ideal_gcd": "0", "note": "zero ideal"}
    walk = {"kind": "chain_iteration", "index": 1}
    for depth, certificate in ((0, euclid), (1, walk), (16, walk)):
        prof = chain_profile(M, [ZZ.zero()], Budgets(depth=depth))
        assert (prof.status, prof.stabilized_at, prof.tail_gens,
                prof.certificate) == ("stabilized", 1, (), certificate)


def _graded_pair():
    """QQ[x,y]^2 / (x, y^2), ungraded and with generator degrees (0, -1):
    equal as modules, yet only the grading makes (x, y^2) homogeneous."""
    x, y = QXY.variable("x"), QXY.variable("y")
    rel = [(x, y ** 2)]
    return FPModule(QXY, 2, rel), FPModule(QXY, 2, rel, grading=[0, -1]), x


def test_chain_profile_memo_keys_on_grading():
    M, G, x = _graded_pair()
    assert M == G and hash(M) == hash(G)
    with memo_scope():
        for _ in range(2):
            prof = chain_profile(M, [x])
            assert (prof.status, prof.certificate["kind"]) == (
                "unknown", "budget_exhausted")
            prof = chain_profile(G, [x])
            assert (prof.status, prof.certificate["kind"]) == (
                "strict_forever", "graded_nakayama")


def test_raised_chain_profile_is_not_memoised(monkeypatch):
    calls = []
    original = adic._chain_profile

    def flaky(M, gens, budgets):
        calls.append(M)
        if len(calls) == 1:
            raise BudgetExceeded("first attempt")
        return original(M, gens, budgets)

    monkeypatch.setattr(adic, "_chain_profile", flaky)
    M = cyclic_module(ZZ, ZZ.from_int(12))
    two = [ZZ.from_int(2)]
    with memo_scope():
        with pytest.raises(BudgetExceeded):
            chain_profile(M, two)
        first = chain_profile(M, two)
        assert chain_profile(M, two) is first
    assert len(calls) == 2
    assert first.status == "stabilized" and first.stabilized_at == 2


def test_nested_memo_scopes_share_one_memo():
    assert adic._MEMO.get() is None
    with memo_scope():
        outer = adic._MEMO.get()
        assert outer == {}
        with memo_scope():
            assert adic._MEMO.get() is outer
            chain_profile(cyclic_module(ZZ, ZZ.from_int(4)), [ZZ.from_int(2)])
        assert len(adic._MEMO.get()) == 1
    assert adic._MEMO.get() is None
