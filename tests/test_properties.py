"""Cross-module invariants: adjunction, reduction chains, verdict soundness."""
import random

from hypothesis import given, settings, strategies as st

from adiclab.adic import Budgets, chain_profile, is_complete, is_separated
from adiclab.complexes import (BoundedComplex, ComplexMap, cohomology,
                               complex_from_module, hom_complex,
                               tensor_complex)
from adiclab.derived import is_cohomologically_complete, telescope_stage
from adiclab.groebner import ModuleBasis
from adiclab.modules import (FPModule, ModuleHom, _dict_to_vec, _vec_to_dict,
                             cyclic_module, free_module, membership,
                             modules_isomorphic, std_basis, vec_add,
                             vec_scale)
from adiclab.rings import (parse_element, ring_integers, ring_polynomial,
                           ring_prime_field, ring_power_series,
                           ring_rationals, scalar_domain)
from adiclab.theorems import (build_example1, check_lemma1, check_theorem2,
                              check_theorem4)

ZZ = ring_integers()
QQ = ring_rationals()
B = Budgets(depth=8, window=6, stages=3)


def _random_free_complex(rng, ring, max_len=2, max_rank=2):
    """A finite free complex with d*d = 0, built from disjoint two-term
    blocks (same construction the corpus generator uses)."""
    lo = rng.randrange(-1, 1)
    blocks = []
    for _ in range(rng.randrange(1, 3)):
        j = lo + rng.randrange(0, 2)
        c = ring.from_int(rng.randrange(1, 4))
        blocks.append((j, c))
    ranks: dict = {}
    offs = []
    for j, _ in blocks:
        offs.append((ranks.get(j, 0), ranks.get(j + 1, 0)))
        ranks[j] = ranks.get(j, 0) + 1
        ranks[j + 1] = ranks.get(j + 1, 0) + 1
    entries = {j: free_module(ring, r) for j, r in ranks.items()}
    mats = {}
    for (j, c), off in zip(blocks, offs):
        if j not in mats:
            mats[j] = [[ring.zero()] * ranks[j] for _ in range(ranks[j + 1])]
        mats[j][off[1]][off[0]] = c
    diffs = {j: ModuleHom(entries[j], entries[j + 1], m, check=False)
             for j, m in mats.items()}
    return BoundedComplex(ring, entries, diffs)


def _entry_signature(C, j):
    m = C.entry(j)
    return (m.ambient_rank, tuple(sorted(
        tuple(str(e) for e in r) for r in m.relations)))


def _adjunction_permutations(F, G, M):
    """Per-degree coordinate bijections Hom(F (x) G, M) <-> Hom(G, Hom(F, M)).

    Both sides decompose into labelled coordinates (p, i, j, a); the sides
    merely flatten them in different orders."""
    from adiclab.complexes import (_hom_blocks, _tensor_blocks,
                                   complex_from_module)
    T = tensor_complex(F, G)
    Mc = complex_from_module(M)
    H = hom_complex(F, Mc)
    lhs = hom_complex(T, Mc)
    rhs = hom_complex(G, H)
    perms = {}
    for n in sorted(set(lhs.entries) | set(rhs.entries)):
        lhs_flat = {}
        for s, k, off, Xm in _hom_blocks(T, Mc, n)[0]:
            p, i, j, koff = None, None, None, None
            for (pp, ii, jj, tf) in _tensor_blocks(F, G, s)[0]:
                if tf == k:
                    p, i, j = pp, ii, jj
                    break
            for a in range(Xm.ambient_rank):
                lhs_flat[(p, i, j, a)] = off + a
        rhs_flat = {}
        for q, j, off, Hm in _hom_blocks(G, H, n)[0]:
            m = q + n
            for p, i, offH, Xm in _hom_blocks(F, Mc, m)[0]:
                for a in range(Xm.ambient_rank):
                    rhs_flat[(p, i, j, a)] = off + offH + a
        if set(lhs_flat) != set(rhs_flat):
            return None
        perm = {}
        for key, l in lhs_flat.items():
            perm[rhs_flat[key]] = l
        perms[n] = perm
    return lhs, rhs, perms


def _matches_up_to_sign(lhs, rhs, perms):
    """Is there a per-coordinate sign making the permuted differentials
    equal?  Signs are found by parity union-find over nonzero entries."""
    parent: dict = {}
    parity: dict = {}

    def find(x):
        if x not in parent:
            parent[x] = x
            parity[x] = 1
            return x, 1
        if parent[x] == x:
            return x, 1
        root, p = find(parent[x])
        parent[x] = root
        parity[x] = parity[x] * p
        return root, parity[x]

    for n in sorted(set(lhs.entries) | set(rhs.entries)):
        d1 = lhs.differential(n)
        d2 = rhs.differential(n)
        pn = perms.get(n, {})
        pn1 = perms.get(n + 1, {})
        rows = d1.target.ambient_rank
        cols = d1.source.ambient_rank
        if (rows, cols) != (d2.target.ambient_rank, d2.source.ambient_rank):
            return False
        for r2 in range(rows):
            for c2 in range(cols):
                b = d2.matrix[r2][c2]
                a = d1.matrix[pn1[r2]][pn[c2]] if (r2 in pn1 and c2 in pn) \
                    else None
                if a is None:
                    return False
                if a.is_zero() != b.is_zero():
                    return False
                if a.is_zero():
                    continue
                if a == b:
                    rel = 1
                elif a == -b:
                    rel = -1
                else:
                    return False
                ru, pu = find((n, c2))
                rv, pv = find((n + 1, r2))
                if ru == rv:
                    if pu * pv != rel:
                        return False
                else:
                    parent[ru] = rv
                    parity[ru] = rel * pu * pv
    return True


def test_hom_tensor_adjunction_entrywise():
    rng = random.Random(31)
    GF5 = ring_prime_field(5)
    M = cyclic_module(GF5, GF5.from_int(0))  # GF5 itself
    for _ in range(6):
        F = _random_free_complex(rng, GF5)
        G = _random_free_complex(rng, GF5)
        lhs, rhs, perms = _adjunction_permutations(F, G, M)
        for j in sorted(set(lhs.entries) | set(rhs.entries)):
            assert lhs.entry(j).ambient_rank == rhs.entry(j).ambient_rank
        assert _matches_up_to_sign(lhs, rhs, perms)


def test_adjunction_on_telescope_stages():
    from adiclab.rings import ring_polynomial
    R = ring_polynomial(QQ, ("x", "y"))
    xv, yv = R.variable("x"), R.variable("y")
    M = cyclic_module(R, xv * xv, yv)
    TF = telescope_stage([xv], 2).complex
    TG = telescope_stage([yv], 2).complex
    lhs, rhs, perms = _adjunction_permutations(TF, TG, M)
    for j in sorted(set(lhs.entries) | set(rhs.entries)):
        assert lhs.entry(j).ambient_rank == rhs.entry(j).ambient_rank
        Hl, Hr = cohomology(lhs, j), cohomology(rhs, j)
        assert Hl.is_zero() == Hr.is_zero()
    assert _matches_up_to_sign(lhs, rhs, perms)


def test_theorem2_degenerates_through_theorem4_and_lemma1():
    # on single-module complexes the three checkers walk the same chain of
    # equivalences and must all land consistent with matched left statuses
    cases = [
        (cyclic_module(ZZ, ZZ.from_int(12)), ZZ.from_int(2)),
        (cyclic_module(ZZ, ZZ.from_int(5)), ZZ.from_int(5)),
        (free_module(ZZ, 1), ZZ.from_int(3)),
    ]
    KT4 = ring_power_series(QQ, "t", 4)
    cases.append((free_module(KT4, 1), KT4.variable("t")))
    for M, a in cases:
        t2 = check_theorem2(complex_from_module(M), [a], B)
        t4 = check_theorem4(M, [a], B, transport=False)
        l1 = check_lemma1(M, a, B)
        assert t2.consistent == "consistent"
        assert t4.consistent == "consistent"
        assert l1.consistent == "consistent"
        assert t2.left.status == t4.left.status


def test_complete_implies_cohomologically_complete():
    cases = [
        (free_module(ring_power_series(QQ, "t", 3), 1), "t"),
        (cyclic_module(ZZ, ZZ.from_int(7)), "7"),
    ]
    for M, a_str in cases:
        a = parse_element(M.ring, a_str)
        comp = is_complete(M, [a], B)
        if comp.holds():
            assert is_cohomologically_complete(M, [a], B).holds()


def test_fails_witnesses_recheck():
    # every Fails witness re-validates through membership computations
    M = cyclic_module(ZZ, ZZ.from_int(12))
    v = is_separated(M, [ZZ.from_int(2)], B)
    assert v.fails()
    w = tuple(parse_element(ZZ, s) for s in v.witness["element"])
    assert not M.relations_basis().contains(w)[0]
    for k in range(1, B.depth):
        gens = [(ZZ.from_int(2 ** k),), (ZZ.from_int(12),)]
        assert std_basis(gens, ZZ).contains(w)[0]

    N = FPModule(ZZ, 2, [(ZZ.from_int(0), ZZ.from_int(3))])
    v2 = is_complete(N, [ZZ.from_int(2)], B)
    assert v2.fails()
    assert v2.witness["kind"] == "completion_kernel"
    w2 = tuple(parse_element(ZZ, s) for s in v2.witness["element"])
    assert not N.relations_basis().contains(w2)[0]


def test_example1_budget_stability():
    small = build_example1(4, 4, budgets=B)
    mid = build_example1(4, 6, budgets=B)
    big = build_example1(6, 6, budgets=B)
    for key in ("separated", "power_memberships", "quasi_isomorphism",
                "cohomologically_complete"):
        assert small.report[key].status == mid.report[key].status
        assert mid.report[key].status == big.report[key].status


def test_graded_separated_consistent_with_chain():
    # when the graded certificate fires and the chain also stabilizes, the
    # stabilized tail must be zero (graded Nakayama cross-check)
    from adiclab.rings import ring_polynomial
    R = ring_polynomial(QQ, ("x", "y"))
    xv, yv = R.variable("x"), R.variable("y")
    for rels in [[(xv,)], [(xv * yv,)], [(xv ** 2,), (yv ** 2,)]]:
        M = FPModule(R, 1, rels)
        prof = chain_profile(M, [xv, yv], B)
        if prof.status == "stabilized":
            assert not prof.tail_gens


@st.composite
def _rows_and_vector(draw):
    """A few small rows and one vector over ZZ, QQ or GF(5) in 0-2
    variables and 1-2 positions."""
    base = draw(st.sampled_from([ZZ, QQ, ring_prime_field(5)]))
    nvars = draw(st.integers(0, 2))
    ring = ring_polynomial(base, ("x", "y")[:nvars]) if nvars else base
    npos = draw(st.integers(1, 2))

    def element():
        e = ring.zero()
        for _ in range(draw(st.integers(0, 2))):
            term = ring.from_int(draw(st.integers(-3, 3)))
            for v in ring.vars:
                term = term * ring.variable(v) ** draw(st.integers(0, 2))
            e = e + term
        return e

    def vector():
        return tuple(element() for _ in range(npos))

    rows = [vector() for _ in range(draw(st.integers(1, 3)))]
    return ring, npos, rows, vector()


@settings(max_examples=60, deadline=None)
@given(_rows_and_vector())
def test_one_reduction_loop_normal_forms_and_witnesses(case):
    ring, npos, rows, v = case
    mb = ModuleBasis([_vec_to_dict(r) for r in rows], npos=npos,
                     nvars=ring.nvars, domain=scalar_domain(ring),
                     mono_key=ring.mono_key)
    d = _vec_to_dict(v)
    nf, witness = mb.reduce_with_witness(d)
    assert mb.normal_form(d) == nf
    # reducing every position, tag block included, leaves the same
    # leading block
    full = mb._reduce(d, mb.rows)
    assert {k: c for k, c in full.items() if k[0] < npos} == nf
    span = _dict_to_vec(nf, npos, ring)
    for w, r in zip(_dict_to_vec(witness, len(rows), ring), rows):
        span = vec_add(span, vec_scale(r, w))
    assert span == v
    for r in rows:
        assert mb.contains(_vec_to_dict(r))[0]
        assert mb.normal_form(_vec_to_dict(r)) == {}
