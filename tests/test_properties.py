"""Cross-module invariants: adjunction, reduction chains, verdict soundness."""
import dataclasses
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from adiclab import adic
from adiclab.adic import (Budgets, ChainProfile, chain_profile,
                          ext0_vanishing_tower, ext1_vanishing_tower,
                          is_complete, is_separated, lim_tower, memo_scope,
                          multiplication_tower, nilpotent_on_module)
from adiclab.complexes import (BoundedComplex, ComplexMap, cohomology,
                               complex_from_module, hom_complex,
                               hom_complex_map, induced_cohomology_map,
                               shift_complex)
from adiclab import derived, modules, rings, verdicts
from adiclab.derived import ext_localization, is_cohomologically_complete
from adiclab.groebner import ModuleBasis, exps_divides
from adiclab.modules import (FPModule, ModuleHom, StdBasis, _dict_to_vec,
                             _engine_basis, _query_row, _vec_to_dict,
                             coordinates, euclidean_capable,
                             free_module, hom_is_injective, hom_is_iso,
                             hom_is_surjective, ideal_power_gens,
                             image_coker, kernel_hom, lift_elem,
                             modules_isomorphic, pruned_presentation,
                             std_basis, unit_vector, vec_is_zero, work_rows,
                             zero_vector)
from adiclab.rings import (IntegerScalars, PrimeFieldScalars, RationalScalars,
                           RingElem, elem_divstep, element_to_str,
                           make_ring, parse_element,
                           ring_integers, ring_polynomial, ring_prime_field,
                           ring_power_series, ring_quotient, ring_rationals,
                           ring_to_desc)
from adiclab.smith import smith_normal_form
from adiclab.theorems import (DecayModule, build_example1, check_lemma1,
                              check_theorem2, check_theorem4, decay_kernel)
from tests_util_algebra import _tensor_blocks, cyclic_module, tensor_complex
from tests_util_telescope import single_telescope

ZZ = ring_integers()
QQ = ring_rationals()
B = Budgets(depth=8, window=6, stages=3)


def _plus_multiple(u, v, c):
    """The vector u + c v."""
    return tuple(a + c * b for a, b in zip(u, v))


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
    from adiclab.complexes import _hom_blocks
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
    TF = single_telescope(xv, 2)
    TG = single_telescope(yv, 2)
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
    assert not M.relations_basis().contains(w)
    for k in range(1, B.depth):
        gens = [(ZZ.from_int(2 ** k),), (ZZ.from_int(12),)]
        assert std_basis(gens, ZZ).contains(w)

    N = FPModule(ZZ, 2, [(ZZ.from_int(0), ZZ.from_int(3))])
    v2 = is_complete(N, [ZZ.from_int(2)], B)
    assert v2.fails()
    assert v2.witness["kind"] == "completion_kernel"
    w2 = tuple(parse_element(ZZ, s) for s in v2.witness["element"])
    assert not N.relations_basis().contains(w2)


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
                     nvars=ring.nvars, domain=ring.domain,
                     mono_key=ring.mono_key, tags=len(rows))
    d = _vec_to_dict(v)
    nf, witness = mb.reduce_with_witness(d)
    assert mb.normal_form(d) == nf
    # reducing every position, tag block included, leaves the same
    # leading block
    full = mb._reduce(d, mb.index)
    assert {k: c for k, c in full.items() if k[0] < npos} == nf
    span = _dict_to_vec(nf, npos, ring)
    for w, r in zip(_dict_to_vec(witness, len(rows), ring), rows):
        span = _plus_multiple(span, r, w)
    assert span == v
    for r in rows:
        assert mb.contains(_vec_to_dict(r))[0]
        assert mb.normal_form(_vec_to_dict(r)) == {}


_TAG_RINGS = [ZZ, ring_polynomial(QQ, ("x", "y")),
              ring_polynomial(ring_prime_field(5), ("x", "y")),
              ring_power_series(QQ, "t", 8)]
_ENGINE_RINGS = _TAG_RINGS + [
    ring_quotient(ring_polynomial(QQ, ("x", "y")), ["x^2-y", "y^3"])]


@st.composite
def _gens_relations_vectors(draw, rings=_TAG_RINGS, nrels=(0, 1)):
    """Generators and nrels[0]..nrels[1] relations over one of rings (by
    default ZZ, QQ[x,y], GF(5)[x,y] or QQ[[t]]/t^8) in 1-2 positions, one
    random vector and one combination of the generators and relations."""
    ring = draw(st.sampled_from(rings))
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

    gens = [vector() for _ in range(draw(st.integers(1, 2)))]
    rels = [vector() for _ in range(draw(st.integers(*nrels)))]
    combo = zero_vector(ring, npos)
    for g in gens + rels:
        combo = _plus_multiple(combo, g, element())
    return ring, npos, gens, rels, [vector(), combo]


@settings(max_examples=100, deadline=None)
@given(_gens_relations_vectors())
def test_tagless_basis_agrees_with_tagged(case):
    ring, npos, gens, rels, vectors = case
    w = ring.work
    rows = [_vec_to_dict(v) for v in work_rows(ring, npos, gens + rels)]
    tagged, tagless = (
        ModuleBasis(rows, npos=npos, nvars=w.nvars, domain=w.domain,
                    mono_key=w.mono_key, tags=tags)
        for tags in (len(rows), 0))
    assert tagged.generators() == tagless.generators()
    for v in vectors:
        d = _vec_to_dict(tuple(lift_elem(ring, e) for e in v))
        assert tagged.normal_form(d) == tagless.normal_form(d)
        assert tagged.contains(d)[0] == tagless.contains(d)[0]


@settings(max_examples=100, deadline=None)
@given(_gens_relations_vectors(_ENGINE_RINGS))
def test_direct_engine_rows_equal_work_ring_rows(case):
    ring, npos, gens, rels, vectors = case
    fed = []
    with mock.patch.object(modules, "ModuleBasis",
                           lambda rows, **kw: fed.append(rows)):
        _engine_basis(ring, npos, gens + rels, tags=0)
    assert fed == [[_vec_to_dict(v) for v in work_rows(ring, npos,
                                                         gens + rels)]]
    for v in vectors:
        assert _query_row(ring, npos, v) == _vec_to_dict(
            tuple(lift_elem(ring, e) for e in v))


@settings(max_examples=100, deadline=None)
@given(_gens_relations_vectors(_ENGINE_RINGS))
def test_shared_zero_coordinates_equal_fresh_ones(case):
    """_dict_to_vec, work_rows and unit_vector reuse one zero element per
    call; every coordinate equals the element built on its own."""
    ring, npos, gens, rels, vectors = case
    w = ring.work

    def fresh_vec(d, ambient):
        cols = [{} for _ in range(ambient)]
        for (pos, exps), c in d.items():
            if pos < ambient:
                cols[pos][exps] = c
        return tuple(RingElem(w, col) for col in cols)

    def parts(vec):
        return [(e.ring, e.terms) for e in vec]

    flat = tuple(lift_elem(ring, e) for v in gens + rels + vectors
                 for e in v)
    d = _vec_to_dict(flat)
    for ambient in range(len(flat) + 2):
        assert parts(_dict_to_vec(d, ambient, w)) == parts(
            fresh_vec(d, ambient))
    rows = work_rows(ring, npos, gens + rels)
    structural = [RingElem(w, t) for t in ring.structural]
    assert [parts(r) for r in rows[len(gens + rels):]] == [
        parts(tuple(g if j == i else RingElem(w, {}) for j in range(npos)))
        for g in structural for i in range(npos)]
    for i in range(npos):
        assert parts(unit_vector(ring, npos, i)) == parts(tuple(
            ring.one() if j == i else RingElem(ring, {})
            for j in range(npos)))


@settings(max_examples=100, deadline=None)
@given(_gens_relations_vectors(_ENGINE_RINGS), st.booleans())
def test_stored_leading_terms_and_query_index(case, tags):
    ring, npos, gens, rels, _ = case
    w = ring.work
    rows = [_vec_to_dict(v) for v in work_rows(ring, npos, gens + rels)]
    mb = ModuleBasis(rows, npos=npos, nvars=w.nvars, domain=w.domain,
                     mono_key=w.mono_key, tags=len(rows) if tags else 0)

    def term_order(key):
        return (-key[0], w.mono_key(key[1]))

    assert len(mb.leads) == len(mb.rows)
    rebuilt = {}
    for row, lead in zip(mb.rows, mb.leads):
        top = max(row, key=term_order)
        assert lead == (top, row[top])
        rebuilt.setdefault(top[0], []).append((top[1], row[top], row))
    assert mb.index == rebuilt


@settings(max_examples=100, deadline=None)
@given(_gens_relations_vectors())
def test_coordinates_are_sound(case):
    ring, npos, gens, rels, vectors = case
    span = std_basis(gens + rels, ring, npos)
    rel_span = std_basis(rels, ring, npos)
    got = coordinates(vectors, gens, rels, ring, npos)
    assert got[1] is not None
    for v, c in zip(vectors, got):
        assert (c is None) == (not span.contains(v))
        if c is None:
            continue
        residual = v
        for ci, g in zip(c, gens):
            residual = _plus_multiple(residual, g, -ci)
        assert rel_span.contains(residual)


_MODULO_RINGS = [ZZ, QQ, ring_prime_field(5), ring_polynomial(QQ, ("x",)),
                 ring_polynomial(ring_prime_field(5), ("x", "y")),
                 ring_polynomial(ZZ, ("t",)), ring_power_series(QQ, "t", 6)]


@settings(max_examples=100, deadline=None)
@given(_gens_relations_vectors(_MODULO_RINGS, nrels=(1, 2)))
def test_tagging_only_gens_equals_tagging_every_row(case):
    """Syzygies and coordinates, which tag only the generators, equal what
    a build that tags every row (relations and the ring's structural rows
    too) gives when projected onto the generators' tags."""
    ring, npos, gens, rels, vectors = case
    vectors = [*vectors, *gens]
    w = ring.work
    rows = [_vec_to_dict(v) for v in work_rows(ring, npos, gens + rels)]
    oracle = ModuleBasis(rows, npos=npos, nvars=w.nvars, domain=w.domain,
                         mono_key=w.mono_key, tags=len(rows))
    k = len(gens)
    syzygies, seen = [], set()
    for row in oracle.syzygies():
        vec = _dict_to_vec(row, k, ring)
        key = tuple(e._sorted_key() for e in vec)
        if not vec_is_zero(vec) and key not in seen:
            seen.add(key)
            syzygies.append(vec)
    assert modules.syzygies_with_relations(gens, rels, ring, npos) == syzygies
    assert modules.syzygies_with_relations([], rels, ring, npos) == []
    witnesses = []
    for v in vectors:
        ok, witness = oracle.contains(_vec_to_dict(
            tuple(lift_elem(ring, e) for e in v)))
        witnesses.append(_dict_to_vec(witness, k, ring) if ok else None)
    assert coordinates(vectors, gens, rels, ring, npos) == witnesses


@st.composite
def _euclidean_matrix(draw):
    """One of two shapes, drawn evenly.  Dense: a 1-3 x 1-3 matrix over ZZ,
    QQ[x] or GF(5)[x] with integer coefficients and polynomial entries of
    degree at most 2.  Sparse: up to 5 x 6 over ZZ, QQ, QQ[x] or GF(5)[x],
    most entries zero, so the Smith steps meet zero source entries, and the
    QQ and QQ[x] coefficients p/q (4/2 among them), so the pivots are
    fractional.  Sparse QQ[x] entries have degree at most 1: at degree 2
    about one 5 x 6 QQ[x] draw in 200 swells the Smith transform's
    coefficients to 10^5 bits, and the form takes seconds to minutes (an
    open ROADMAP item)."""
    sparse = draw(st.booleans())
    rings = [ZZ, ring_polynomial(QQ, ("x",)),
             ring_polynomial(ring_prime_field(5), ("x",))]
    ring = draw(st.sampled_from(rings + [QQ] if sparse else rings))
    rational = sparse and isinstance(ring.domain, RationalScalars)

    def scalar(bound):
        num = draw(st.integers(-bound, bound))
        if not rational:
            return ring.from_int(num)
        return ring.from_scalar(Fraction(num, draw(st.integers(1, 4))))

    def element():
        if sparse and draw(st.integers(0, 3)):
            return ring.zero()
        if not ring.nvars:
            return scalar(9)
        x = ring.variable("x")
        return sum((scalar(3) * x ** d for d in range(2 if rational else 3)),
                   ring.zero())

    if sparse:
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    else:
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return ring, [[element() for _ in range(cols)] for _ in range(rows)]


def _determinant(matrix, ring):
    """Determinant by Laplace expansion along the rows, the minors on each
    set of remaining columns computed once."""
    n = len(matrix)
    minors = {(): ring.one()}
    for row in range(n - 1, -1, -1):
        width = n - row
        nxt = {}
        for cols in itertools.combinations(range(n), width):
            total = ring.zero()
            for k, c in enumerate(cols):
                e = matrix[row][c]
                if not e.is_zero():
                    term = e * minors[cols[:k] + cols[k + 1:]]
                    total = total - term if k % 2 else total + term
            nxt[cols] = total
        minors = nxt
    return minors[tuple(range(n))]


def _minors(matrix, size, ring):
    """Every size x size minor of matrix."""
    rows, cols = len(matrix), len(matrix[0])
    return [_determinant([[matrix[i][j] for j in cs] for i in rs], ring)
            for rs in itertools.combinations(range(rows), size)
            for cs in itertools.combinations(range(cols), size)]


def _gcd(elems, ring):
    g = ring.zero()
    for e in elems:
        a, b = e, g
        while not b.is_zero():
            a, b = b, elem_divstep(a, b)[1]
        g = a
    return g


def _associates(a, b):
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    return (elem_divstep(a, b)[1].is_zero()
            and elem_divstep(b, a)[1].is_zero())


@settings(max_examples=240, deadline=None)
@given(_euclidean_matrix())
def test_smith_form_spans_rows_through_inverse_column_transform(case):
    """The check on the elimination loop, which stops after the first pass
    without a swap, and on the divisibility repair, which assumes no zero
    on the diagonal up to the rank."""
    ring, A = case
    Vinv, D, rank = smith_normal_form(A, ring)
    cols = len(A[0])
    for i, row in enumerate(D):
        assert all(e.is_zero() for j, e in enumerate(row)
                   if j != i or i >= rank)
    # Vinv is invertible.  Its rows can carry long QQ coefficients, which a
    # Groebner basis of those rows takes minutes to reduce, so the spans are
    # compared through determinants and not by mutual containment.
    assert _determinant(Vinv, ring).is_unit()
    # D = U A V with U invertible, so the rows of A span the rows of D Vinv:
    # those rows lie in the span of A, and, over a PID, a submodule of rank
    # r is all of a rank-r module iff their gcds of r x r minors agree.
    # Those of the rows of D Vinv are d_1 ... d_r times a unit.
    scaled = [tuple(D[i][i] * e for e in Vinv[i]) for i in range(rank)]
    span = FPModule(ring, cols, [tuple(r) for r in A]).relations_basis()
    assert all(span.contains(r) for r in scaled)
    assert all(m.is_zero() for m in _minors(A, rank + 1, ring))
    product = ring.one()
    for i in range(rank):
        product = product * D[i][i]
    assert _associates(_gcd(_minors(A, rank, ring), ring), product)
    for i in range(rank - 1):
        assert elem_divstep(D[i + 1][i + 1], D[i][i])[1].is_zero()


_MEMO_RINGS = [ZZ, ring_polynomial(QQ, ("x",)), ring_polynomial(QQ, ("x", "y")),
               ring_polynomial(ring_prime_field(5), ("x", "y")),
               ring_power_series(QQ, "t", 6)]


@st.composite
def _modules_and_ideals(draw):
    """Two or three small modules over one ring and two ideals of one or
    two generators, with monomial entries so the chains stay short."""
    ring = draw(st.sampled_from(_MEMO_RINGS))

    def element(max_coeff=4):
        e = ring.from_int(draw(st.integers(-max_coeff, max_coeff)))
        for v in ring.vars:
            e = e * ring.variable(v) ** draw(st.integers(0, 2))
        return e

    def module():
        rank = draw(st.integers(1, 2))
        rows = [tuple(element() for _ in range(rank))
                for _ in range(draw(st.integers(0, 2)))]
        return FPModule(ring, rank, rows)

    mods = [module() for _ in range(draw(st.integers(2, 3)))]
    ideals = [[element(3) for _ in range(draw(st.integers(1, 2)))]
              for _ in range(2)]
    return mods, ideals


@settings(max_examples=60, deadline=None)
@given(_modules_and_ideals())
def test_memoised_chain_profiles_equal_fresh_ones(case):
    mods, ideals = case
    keys = [(M, gens, Budgets(depth=d)) for M in mods for gens in ideals
            for d in (1, 4)]
    fresh = [chain_profile(*key) for key in keys]
    with memo_scope():
        for _ in range(2):
            for key, want in zip(keys, fresh):
                got = chain_profile(*key)
                for f in dataclasses.fields(want):
                    assert getattr(got, f.name) == getattr(want, f.name)


@settings(max_examples=60, deadline=None)
@given(_modules_and_ideals())
def test_separated_with_nonvanishing_ext1_is_not_complete(case):
    # Schenzel's criterion refutes completeness of a separated module with
    # a generator whose localization Ext^1 is nonzero; `is_complete`
    # decides from the chain alone and must reach the same refutation
    mods, ideals = case
    for M in mods:
        for gens in ideals:
            if not is_separated(M, gens, B).holds():
                continue
            if any(ext1_vanishing_tower(M, a, B).fails()
                   for a in gens if not a.is_zero()):
                assert is_complete(M, gens, B).fails()


_FACT_RINGS = [ZZ, QQ, ring_prime_field(5), ring_polynomial(QQ, ("x", "y")),
               ring_polynomial(ring_prime_field(5), ("x", "y")),
               ring_power_series(QQ, "t", 8),
               ring_quotient(ring_polynomial(QQ, ("x", "y")),
                             ["x^2-y", "y^3"])]


def _fresh_facts(ring):
    """(domain, work ring, structural terms) of ring, built anew."""
    scalars = ring.scalar_base()
    if scalars.kind == "prime_field":
        domain = PrimeFieldScalars(scalars.p)
    elif scalars.kind == "integers":
        domain = IntegerScalars()
    else:
        domain = RationalScalars()
    if ring.kind == "truncated_power_series":
        return (domain, ring_polynomial(ring.base, ring.vars, "lex"),
                ({(ring.precision,): domain.one},))
    if ring.kind == "quotient":
        return domain, ring.base, tuple(g.terms for g in ring.ideal_gens)
    return domain, ring, ()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_FACT_RINGS), st.data())
def test_ring_facts_equal_fresh_ones(ring, data):
    domain, work, structural = _fresh_facts(ring)
    assert (type(ring.domain), vars(ring.domain)) == (type(domain),
                                                     vars(domain))
    assert ring.work == work and ring.work.work is ring.work
    assert ring.structural == structural
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4) for _ in ring.vars]),
        st.integers(-3, 3), max_size=4))
    elem = RingElem(ring, terms)
    if ring.kind == "quotient":
        fresh = ModuleBasis([{(0, e): c for e, c in t.items()}
                             for t in structural], npos=1, nvars=work.nvars,
                            domain=domain, mono_key=work.mono_key,
                            tags=0)
        nf = fresh.normal_form({(0, e): c for e, c in
                                RingElem(work, terms).terms.items()})
        assert elem.terms == {e: c for (_, e), c in nf.items()}
    else:
        assert ring.quotient_basis is None
    # a ring built again from its description is a distinct but equal
    # object, and so are its elements
    twin = make_ring(ring_to_desc(ring))
    assert twin is not ring
    assert twin == ring and hash(twin) == hash(ring)
    for other in _FACT_RINGS:
        assert (make_ring(ring_to_desc(other)) == ring) == (other is ring)
    twin_elem = RingElem(twin, terms)
    assert twin_elem == elem and hash(twin_elem) == hash(elem)


@st.composite
def _homs(draw):
    """A hom M -> N over one ring: N holds the images of M's relations
    plus up to one extra relation, so the matrix is always a valid hom."""
    ring = draw(st.sampled_from(_ENGINE_RINGS))

    def element():
        e = ring.from_int(draw(st.integers(-3, 3)))
        for v in ring.vars:
            e = e * ring.variable(v) ** draw(st.integers(0, 2))
        return e

    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    M = FPModule(ring, m, [tuple(element() for _ in range(m))
                           for _ in range(draw(st.integers(0, 2)))])
    mat = [[element() for _ in range(m)] for _ in range(n)]
    f = ModuleHom(M, free_module(ring, n), mat, check=False)
    rels = [f.apply(r) for r in M.relations]
    rels += [tuple(element() for _ in range(n))
             for _ in range(draw(st.integers(0, 1)))]
    return ModuleHom(M, FPModule(ring, n, rels), mat)


@settings(max_examples=60, deadline=None)
@given(_homs())
def test_injectivity_by_kernel_rank_equals_kernel_is_zero(f):
    assert hom_is_injective(f) == kernel_hom(f)[0].is_zero()


_TOWER_RINGS = [ZZ, ring_polynomial(QQ, ("x",)),
                ring_polynomial(ring_prime_field(5), ("x", "y")),
                ring_power_series(QQ, "t", 6)]


@st.composite
def _module_and_element(draw, rings=_TOWER_RINGS, linear=()):
    """A module of rank 1-2 with up to two relations and one ring element,
    by default over ZZ, QQ[x], GF(5)[x,y] or QQ[[t]]/t^6; entries of one or
    two terms keep the chains short, and two terms reach the ungraded
    cases.  Over the rings in `linear` no variable is squared."""
    ring = draw(st.sampled_from(rings))
    top = 1 if ring in linear else 2

    def element():
        e = ring.zero()
        for _ in range(draw(st.integers(1, 2))):
            term = ring.from_int(draw(st.integers(-4, 4)))
            for v in ring.vars:
                term = term * ring.variable(v) ** draw(st.integers(0, top))
            e = e + term
        return e

    rank = draw(st.integers(1, 2))
    M = FPModule(ring, rank, [tuple(element() for _ in range(rank))
                              for _ in range(draw(st.integers(0, 2)))])
    return M, element()


@settings(max_examples=60, deadline=None)
@given(_module_and_element())
def test_direct_tower_readers_equal_the_composed_path(case):
    M, a = case
    # a window past the depth, so the verdicts' budgets show the clamp
    b = Budgets(depth=4, window=6)
    T = multiplication_tower(M, a, b.depth)
    rep, lim1 = lim_tower(T, b)
    assert ext1_vanishing_tower(M, a, b) == lim1
    ext0 = ext0_vanishing_tower(M, a, b)
    if rep.decisive and rep.value is not None:
        assert ext0.status == ("holds" if rep.value.is_zero() else "fails")
    elif rep.note == "nonzero divisible families exist":
        assert ext0.fails()
    else:
        assert not ext0.decisive
    assert (ext0.certificate or ext0.witness or {}).get("note",
                                                        rep.note) == rep.note
    mult = T.transition(0)
    assert hom_is_surjective(mult) == image_coker(mult)[1].is_zero()
    # a stabilized chain a^k M = a^(k+1) M = L has a L = L, and a surjective
    # endomorphism of a finitely generated module is injective, so the
    # tail is always invertible
    assert rep.note != "stabilized image, undecided lift"


@settings(max_examples=60, deadline=None)
@given(_homs())
def test_surjectivity_by_quotient_equals_cokernel_is_zero(f):
    assert hom_is_surjective(f) == image_coker(f)[1].is_zero()


def _walked_chain_profile(M, gens, budgets):
    """The chain analysis as a plain walk: S_k = a^k F + R from S_0 = F up
    to the depth budget, then the certificates for what it left open."""
    gens = [a for a in gens if not a.is_zero()]
    if M.is_zero():
        return ChainProfile("stabilized", 0, (), {"kind": "zero_module"})

    def span(vectors):
        return std_basis(list(vectors) + list(M.relations), M.ring,
                         M.ambient_rank).generators

    def stabilized(k, basis):
        tail = tuple(v for v in map(M.normal_form, basis)
                     if not vec_is_zero(v))
        return ChainProfile("stabilized", k, tail,
                            {"kind": "chain_iteration", "index": k})

    prev = span(ideal_power_gens(gens, 0, M))
    cur = span(ideal_power_gens(gens, 1, M) if gens else [])
    if cur == prev:
        return stabilized(0, cur)
    for k in range(1, budgets.depth + 1):
        nxt = span([tuple(a * e for e in v) for v in cur for a in gens])
        if nxt == cur:
            return stabilized(k, cur)
        cur = nxt
    if euclidean_capable(M.ring):
        return adic._euclid_chain(M, gens)
    if adic._graded_positive(M, gens):
        nil = [nilpotent_on_module(a, M) for a in gens]
        if all(x is True for x in nil):
            return ChainProfile("unknown", None, (), {
                "kind": "nilpotent_beyond_budget"})
        if False in nil:
            return ChainProfile(
                "strict_forever", None, (),
                {"kind": "graded_nakayama",
                 "non_nilpotent_generator": element_to_str(
                     gens[nil.index(False)]),
                 "note": "graded chain stabilizes only at zero"})
    return ChainProfile("unknown", None, (), {"kind": "budget_exhausted"})


ZT = ring_polynomial(ZZ, ("t",))
QX = ring_polynomial(QQ, ("x",))
QXY = ring_polynomial(QQ, ("x", "y"))
KT4 = ring_power_series(QQ, "t", 4)
# (ring, homogeneous, largest power, largest exponent): over QQ[x,y] a
# homogeneous case draws monomial entries and relation rows with one nonzero
# entry, so that module and ideal are graded and the nilpotency tests
# decide; the other draws entries of up to two terms, which are mostly not
# homogeneous.  Entries over ZZ[t] and QQ[x,y] are not raised to powers,
# and QQ[x,y] exponents stay below 3: rank-two bases over ZZ[t] on cubes of
# two-term entries, or over QQ[x,y] on two-term entries of degree 4, can
# take seconds.
_CHAIN_CASES = [(ZZ, False, 3, 0), (QQ, False, 3, 0),
                (ring_prime_field(5), False, 3, 0), (QX, False, 3, 3),
                (KT4, False, 3, 3), (ZT, False, 1, 3), (QXY, True, 1, 3),
                (QXY, False, 1, 2)]


@st.composite
def _chains(draw):
    """A module of rank 1-2 with up to two relations, an ideal of one or
    two generators and a depth of 2-5, over the rings of every branch of
    the chain analysis.  Entries are powers of small elements, so chains
    that stabilize at exactly the depth or one past it are drawn."""
    ring, homogeneous, power, degree = draw(st.sampled_from(_CHAIN_CASES))

    def element():
        e = ring.zero()
        for _ in range(1 if homogeneous else draw(st.integers(1, 2))):
            term = ring.from_int(draw(st.sampled_from((-3, -2, 1, 2, 4))))
            for v in ring.vars:
                term = term * ring.variable(v) ** draw(
                    st.integers(0, degree))
            e = e + term
        return e ** draw(st.integers(1, power))

    def row(rank):
        if not homogeneous:
            return tuple(element() for _ in range(rank))
        at = draw(st.integers(0, rank - 1))
        return tuple(element() if i == at else ring.zero()
                     for i in range(rank))

    rank = draw(st.integers(1, 2))
    M = FPModule(ring, rank, [row(rank)
                              for _ in range(draw(st.integers(0, 2)))])
    gens = [element() for _ in range(draw(st.integers(1, 2)))]
    return M, gens, Budgets(depth=draw(st.integers(2, 5)))


@settings(max_examples=100, deadline=None)
@given(_chains())
def test_chain_profile_equals_the_walk(case):
    assert chain_profile(*case) == _walked_chain_profile(*case)


def _chain_boundaries():
    """(label, module, ideal, k): the chain stabilizes at exactly k, which
    the analysis must find at depth k and must hand to the certificates at
    depth k - 1.  One case per branch: the Euclidean walk (ZZ, QQ[x] with
    and without a free summand, QQ[[t]]/t^4), the zero ideal over fields,
    the depth probe (ZZ[t], ungraded QQ[x,y]) and the nilpotent graded
    chain (QQ[x,y])."""
    two, t, x, y = (ZZ.from_int(2), ZT.variable("t"), QXY.variable("x"),
                    QXY.variable("y"))
    GF5 = ring_prime_field(5)
    return [
        ("ZZ", cyclic_module(ZZ, ZZ.from_int(24)), [two], 3),
        ("QQ", free_module(QQ, 1), [QQ.zero()], 1),
        ("GF5", free_module(GF5, 2), [GF5.zero()], 1),
        ("QQ[x]", cyclic_module(QX, QX.variable("x") ** 3
                                - QX.variable("x") ** 4),
         [QX.variable("x")], 3),
        ("QQ[[t]]/t^4", free_module(KT4, 1), [KT4.variable("t")], 4),
        ("ZZ[t]", cyclic_module(ZT, t ** 3 + ZT.from_int(2) * t ** 4),
         [t], 3),
        ("QQ[x,y] graded", cyclic_module(QXY, x ** 3, y ** 3), [x * y], 3),
        ("QQ[x,y] ungraded", cyclic_module(QXY, x ** 3, y - QXY.one()),
         [x], 3),
    ]


@pytest.mark.parametrize("label,M,gens,k", _chain_boundaries(),
                         ids=[c[0] for c in _chain_boundaries()])
def test_chain_profile_at_its_depth_boundary(label, M, gens, k):
    at = chain_profile(M, gens, Budgets(depth=k))
    assert (at.status, at.stabilized_at, at.certificate) == (
        "stabilized", k, {"kind": "chain_iteration", "index": k})
    below = chain_profile(M, gens, Budgets(depth=k - 1))
    assert below.certificate["kind"] != "chain_iteration"
    for depth in (k - 1, k):
        assert chain_profile(M, gens, Budgets(depth=depth)) == \
            _walked_chain_profile(M, gens, Budgets(depth=depth))


# QQ[[t]]/t^4 adds the structural rows t^4 e_i, which lead positions of
# the relations basis without being rows of its public generators
_FREE_RANK_RINGS = [ZZ, ring_prime_field(5), QX, KT4]


@st.composite
def _euclidean_modules(draw):
    ring = draw(st.sampled_from(_FREE_RANK_RINGS))

    def element():
        e = ring.from_int(draw(st.integers(-4, 4)))
        for v in ring.vars:
            e = e * (ring.variable(v) + ring.from_int(
                draw(st.integers(-1, 1)))) ** draw(st.integers(0, 2))
        return e

    rank = draw(st.integers(1, 3))
    return FPModule(ring, rank, [tuple(element() for _ in range(rank))
                                 for _ in range(draw(st.integers(0, 4)))])


@settings(max_examples=100, deadline=None)
@given(_euclidean_modules())
def test_pivot_free_rank_equals_smith_free_rank(M):
    rows = work_rows(M.ring, M.ambient_rank, M.relations)
    rank = smith_normal_form(rows, M.ring.work)[2] if rows else 0
    assert adic._free_rank(M) == M.ambient_rank - rank


_CC_RINGS = [ZZ, ring_polynomial(ring_prime_field(5), ("x",)),
             ring_power_series(QQ, "t", 3)]


@settings(max_examples=25, deadline=None)
@given(_module_and_element(_CC_RINGS))
def test_cc_equals_its_two_ext_indices_computed_apart(case):
    M, a = case
    assume(not a.is_zero())
    b = Budgets(depth=4, window=4, stages=2)
    for route, ext_route in (("auto", "both"), ("telescope", "telescope")):
        fresh = []
        for index in (0, 1):
            with memo_scope():
                fresh.append(ext_localization(index, a, M, b, ext_route))
        with memo_scope():
            shared = [ext_localization(index, a, M, b, ext_route)
                      for index in (0, 1)]
        for got, want in zip(shared, fresh):
            assert got == want
        want = verdicts.conjunction({"ext0_vanishing": fresh[0].vanishing,
                                     "ext1_vanishing": fresh[1].vanishing})
        got = is_cohomologically_complete(M, [a], b, route=route)
        assert got.status == want.status
        if want.fails():
            degree = 0 if want.witness["component"] == "ext0_vanishing" else 1
            assert got.witness["obstruction_degree"] == degree


# over ZZ[t] no variable is squared: rank-two draws with t^2 entries can
# stall the chain analysis for tens of seconds
_STAGE_RINGS = [ZZ, ring_prime_field(3), QX,
                ring_polynomial(ring_prime_field(5), ("x", "y")), KT4,
                ring_power_series(ring_prime_field(5), "t", 4),
                ring_quotient(QXY, [QXY.variable("x") * QXY.variable("y")]),
                ZT]


def _unit_columns(ring, rows, cols):
    """The matrix sending basis vector i to basis vector i."""
    return [[ring.one() if i == c else ring.zero() for c in range(cols)]
            for i in range(rows)]


@settings(max_examples=80, deadline=None)
@given(_module_and_element(_STAGE_RINGS, linear=(ZT,)),
       st.sampled_from([2, 3]))
def test_telescope_stages_hold_their_invariants(case, stages):
    # the identities that let the telescope route read only the degree-0
    # stage value at one stage N, checked here rather than on the decision
    # path: the stage Hom complexes have no degree-1 cohomology, the
    # restriction from stage N + 1 to stage N acts on H^0 as
    # multiplication by a, and the stage values are isomorphic to M.  The
    # route builds its Hom complex over the pruned M and prunes the H^0,
    # so the restriction is built over the pruned M too, and the stage
    # N + 1 value the route never reads is built here the same way.
    M, a = case
    ring = M.ring
    b = Budgets(stages=stages)
    N = derived._analysed_stage(M, b)
    Ps, Pt = derived.telescope_stage(a, N), derived.telescope_stage(a, N + 1)
    P = pruned_presentation(M)
    stage_vals = (derived._telescope_ext(a, M, b),
                  pruned_presentation(cohomology(
                      hom_complex(shift_complex(Pt, 1), P), 0)))
    # the inclusion of plus parts, delta_i -> delta_i, shifted by one
    incl = ComplexMap(shift_complex(Ps, 1), shift_complex(Pt, 1), {
        -1: ModuleHom(Ps.entry(0), Pt.entry(0),
                      _unit_columns(ring, N + 1, N), check=False),
        0: ModuleHom(Ps.entry(1), Pt.entry(1),
                     _unit_columns(ring, N + 2, N + 1), check=False)})
    restr = hom_complex_map(incl, P)
    rho = induced_cohomology_map(restr, 0)
    assert ((pruned_presentation(rho.target),
             pruned_presentation(rho.source)) == stage_vals)
    assert cohomology(restr.target, 1).is_zero()
    assert cohomology(restr.source, 1).is_zero()
    # both spans hold the relations, so they agree iff their canonical
    # bases do
    T = rho.target
    a_cols = [tuple(a if i == t else ring.zero()
                    for i in range(T.ambient_rank))
              for t in range(T.ambient_rank)]
    rho_cols = [rho.column(t) for t in range(rho.source.ambient_rank)]
    assert (std_basis(a_cols + list(T.relations), ring,
                      ambient_rank=T.ambient_rank).generators
            == std_basis(rho_cols + list(T.relations), ring,
                         ambient_rank=T.ambient_rank).generators)
    for H in stage_vals:
        assert modules_isomorphic(H, M) in (True, None)


@settings(max_examples=80, deadline=None)
@given(_module_and_element(_STAGE_RINGS, linear=(ZT,)))
# the pivot (-1, 2) has unit -1, so the other relation must be scaled by
# it: ZZ^2/((-1, 2), (3, 5)) is ZZ/11
@example((FPModule(ZZ, 2, [(ZZ.from_int(-1), ZZ.from_int(2)),
                           (ZZ.from_int(3), ZZ.from_int(5))]), ZZ.zero()))
def test_pruned_presentation_is_the_module_on_fewer_generators(case):
    M, _ = case
    ring = M.ring
    # the pruned module keeps the degrees of the generators it keeps, so
    # distinct degrees name them
    G = FPModule(ring, M.ambient_rank, M.relations,
                 grading=range(M.ambient_rank))
    P = pruned_presentation(G)
    assert P.ambient_rank == len(P.grading)
    assert not any(e.is_unit() for r in P.relations for e in r)
    incl = ModuleHom(P, G, [[ring.one() if k == g else ring.zero()
                             for g in P.grading]
                            for k in range(G.ambient_rank)], check=True)
    assert hom_is_iso(incl)
    again = pruned_presentation(P)
    assert (again, again.grading) == (P, P.grading)


@st.composite
def _decay_modules(draw):
    """DecayModule(QQ[[t]]/t^p, s, exponents) with s and p in 2..6: the
    paper's exponents 0..s-1, or any in 0..p+1, which repeats exponents
    and puts whole coordinates (exponent at least p) in the kernel."""
    p, s = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    exponents = draw(st.one_of(
        st.just(tuple(range(s))),
        st.tuples(*[st.integers(0, p + 1)] * s)))
    return DecayModule(ring_power_series(QQ, "t", p), s, exponents)


@settings(max_examples=60, deadline=None)
@given(_decay_modules())
def test_decay_kernel_equals_the_kernel_presentation(D):
    ker, incl = kernel_hom(D.diagonal_hom())
    columns = tuple(incl.column(j) for j in range(ker.ambient_rank))
    # the first failure of the valuation loop that separatedness and the
    # quasi-isomorphism of the anomalous example each ran on the columns
    first = next((col for col in columns for i, e in enumerate(col)
                  if not e.is_zero() and (e.valuation() or 0)
                  < max(D.precision - D.exponents[i], 0)), None)
    assert decay_kernel(D) == (columns, first)
    # t^c x = 0 in QQ[[t]]/t^p puts x in t^(p - c), so every generator is
    # a ghost; a genuine one only comes from a substituted kernel
    assert first is None


@settings(max_examples=100, deadline=None)
@given(_gens_relations_vectors([ZZ, QQ, ring_prime_field(5), ZT, QXY],
                               nrels=(0, 2)), st.booleans())
def test_saturate_leaves_no_lead_reducible_by_an_earlier_one(case, tagged):
    """`_canonicalize` drops a row whose lead another row's lead strongly
    divides, with no tie-break: that needs no two leads to divide each
    other, which holds because `_saturate` reduces each row it appends by
    the rows before it."""
    ring, npos, gens, rels, _ = case
    w = ring.work
    seen = []
    canonicalize = ModuleBasis._canonicalize

    def spy(self, rows, leads):
        seen.append(leads)
        return canonicalize(self, rows, leads)

    with mock.patch.object(ModuleBasis, "_canonicalize", spy):
        ModuleBasis([_vec_to_dict(v) for v in work_rows(ring, npos,
                                                         gens + rels)],
                    npos=npos, nvars=w.nvars, domain=w.domain,
                    mono_key=w.mono_key, tags=len(gens) if tagged else 0)
    leads, = seen
    for j, ((pos, e), c) in enumerate(leads):
        for (pos_i, e_i), c_i in leads[:j]:
            if pos_i == pos and exps_divides(e_i, e):
                assert not w.domain.divstep(c, c_i)[0]


@st.composite
def _rings(draw):
    """A ring of each kind the library builds: ZZ, QQ, GF(p), polynomial
    rings in 1-4 variables over them in either order, quotients of those
    by one or two binomials, and truncated power series over the fields."""
    scalars = [ZZ, QQ, ring_prime_field(2), ring_prime_field(5)]
    kind = draw(st.sampled_from(["scalars", "polynomial", "quotient",
                                 "power_series"]))
    if kind == "scalars":
        return draw(st.sampled_from(scalars))
    if kind == "power_series":
        return ring_power_series(draw(st.sampled_from(scalars[1:])), "t",
                                 draw(st.integers(1, 6)))
    names = ("x", "y", "z", "w")[:draw(st.integers(1, 4))]
    ring = ring_polynomial(draw(st.sampled_from(scalars)), names,
                           draw(st.sampled_from(["lex", "grlex"])))
    if kind == "polynomial":
        return ring

    def binomial():
        x = ring.variable(draw(st.sampled_from(names)))
        return x ** draw(st.integers(1, 3)) - ring.from_int(
            draw(st.integers(0, 2)))

    return ring_quotient(ring, [binomial()
                                for _ in range(draw(st.integers(1, 2)))])


@settings(max_examples=100, deadline=None)
@given(_rings())
def test_rings_that_are_not_euclidean_capable_work_over_polynomials(ring):
    """`nilpotent_on_module` inverts a over the work ring, which must be
    polynomial wherever the chain analysis asks it: over the rings that
    are not Euclidean-capable."""
    if euclidean_capable(ring):
        return
    assert ring.work.kind == "polynomial"
    assert nilpotent_on_module(ring.zero(), free_module(ring, 1)) is True


_CANONICAL_RINGS = st.one_of(
    _rings(), st.sampled_from([ring_power_series(QQ, "t", n)
                               for n in (2, 4, 8)] + [ZT]))


@settings(max_examples=60, deadline=None)
@given(_CANONICAL_RINGS, st.data())
def test_unnormalized_constructions_equal_normalized_ones(ring, data):
    """Sums, products and the rows `StdBasis` reads off a reduced basis
    skip normalization; each equals the element built from its terms
    through normalization, which only quotient rings still run."""
    def element():
        # power series exponents run past half the precision, so that
        # products cross it
        top = ring.precision if ring.precision is not None else 2
        return RingElem(ring, data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, top) for _ in ring.vars]),
            st.integers(-3, 3), max_size=3)))

    def normalized(e):
        return RingElem(ring, dict(e.terms))

    assert ring.zero() is ring.zero()
    assert ring.zero() == RingElem(ring, {})
    npos = data.draw(st.integers(1, 2))
    gens = [tuple(element() for _ in range(npos))
            for _ in range(data.draw(st.integers(1, 2)))]
    vec = tuple(element() for _ in range(npos))
    a, b = element(), element()
    quotient = ring.kind == "quotient"
    with mock.patch.object(rings, "_normalize_terms",
                           wraps=rings._normalize_terms) as spy:
        built = [a + b, a * b]
        assert spy.call_count == (2 if quotient else 0)
        sb = StdBasis(ring, npos, gens)
        entries = [e for v in (*sb.generators, sb.normal_form(vec))
                   for e in v]
        # a quotient's structural rows are always converted, and normalized
        assert spy.called == quotient
    for e in built + entries:
        assert e == normalized(e)


QT = ring_polynomial(QQ, ("t",), "lex")


@st.composite
def _bucket_cases(draw):
    """Rows over the ladder's shape (QQ[t] with the structural rows t^N at
    4-8 positions, the rest sparse), over GF(5)[x,y] or ZZ[t] at one
    position, where leads crowd one bucket, or over ZZ at 1-3 positions;
    how many of the first rows are tagged; a permutation of the untagged
    rows; one of them to repeat; and one of them to negate."""
    shape = draw(st.sampled_from(["ladder", "gf5xy", "zzt", "zz"]))
    if shape == "ladder":
        ring, npos = QT, draw(st.integers(4, 8))
    elif shape == "zz":
        ring, npos = ZZ, draw(st.integers(1, 3))
    else:
        ring = ring_polynomial(ring_prime_field(5), ("x", "y")) \
            if shape == "gf5xy" else ZT
        npos = 1

    def element():
        e = ring.zero()
        for _ in range(draw(st.integers(0, 2))):
            term = ring.from_int(draw(st.integers(-3, 3)))
            for v in ring.vars:
                term = term * ring.variable(v) ** draw(st.integers(0, 2))
            e = e + term
        return e

    def vector():
        # at most two nonzero coordinates, as in the ladder's presentations
        vec = [ring.zero()] * npos
        for i in draw(st.lists(st.integers(0, npos - 1), max_size=2)):
            vec[i] = element()
        return tuple(vec)

    rows = [vector() for _ in range(draw(st.integers(1, 5)))]
    if shape == "ladder":
        n = draw(st.integers(2, 4))
        t_n = ring.variable("t") ** n
        rows += [tuple(t_n if j == i else ring.zero() for j in range(npos))
                 for i in range(npos)]
    tags = draw(st.integers(0, min(2, len(rows))))
    order = draw(st.permutations(range(tags, len(rows))))
    twin = draw(st.integers(tags, len(rows) - 1)) if tags < len(rows) else None
    flip = draw(st.integers(tags, len(rows) - 1)) if tags < len(rows) else None
    return ring, npos, rows, tags, order, twin, flip


@settings(max_examples=100, deadline=None)
@given(_bucket_cases())
# spans whose reduced bases once depended on the sign of a leading unit:
# span{(-1, 1), (0, 2)} in ZZ^2, and span{1 - t, 2} in ZZ[t]
@example((ZZ, 2, [(ZZ.from_int(-1), ZZ.one()), (ZZ.zero(), ZZ.from_int(2))],
          0, [0, 1], 0, 0))
@example((ZT, 1, [(ZT.one() - ZT.variable("t"),), (ZT.from_int(2),)],
          0, [0, 1], 0, 0))
def test_position_buckets_cannot_change_a_basis(case):
    """A reduced basis does not depend on how its span is written: the
    untagged rows permuted, one of them repeated, or one of them times -1
    give the same rows and leads; and the basis passes the checks that
    scan every pair of rows, so reading pairs and leads by position drops
    none."""
    ring, npos, rows, tags, order, twin, flip = case
    dicts = [_vec_to_dict(r) for r in rows]

    def basis(rows):
        return ModuleBasis(rows, npos=npos, nvars=ring.nvars,
                           domain=ring.domain, mono_key=ring.mono_key,
                           tags=tags)

    mb = basis(dicts)
    variants = [dicts[:tags] + [dicts[i] for i in order]]
    if twin is not None:
        variants.append(dicts + [dicts[twin]])
        negated = _vec_to_dict(tuple(-e for e in rows[flip]))
        variants.append(dicts[:flip] + [negated] + dicts[flip + 1:])
    for rows in variants:
        other = basis(rows)
        assert (other.rows, other.leads) == (mb.rows, mb.leads)
    _assert_reduced_groebner(mb)


def _assert_reduced_groebner(mb):
    """The slow path that scans every pair of rows: of two rows whose
    leads share a position, neither lead strongly divides the other, and
    (Buchberger's criterion) their S-polynomial, and over the integers
    their G-polynomial too, reduce to zero."""
    dom = mb.domain

    def combo(a, e, row, b, f, other):
        # a x^e row + b x^f other
        out: dict = {}
        for coeff, mono, r in ((a, e, row), (b, f, other)):
            for (pos, x), c in r.items():
                key = (pos, tuple(u + v for u, v in zip(x, mono)))
                out[key] = dom.add(out.get(key, dom.zero), dom.mul(coeff, c))
        return {k: c for k, c in out.items() if c}

    pairs = itertools.combinations(zip(mb.leads, mb.rows), 2)
    for (((p, e), c), row), (((q, f), d), other) in pairs:
        if p != q:
            continue
        assert not (exps_divides(e, f) and not dom.divstep(d, c)[1])
        assert not (exps_divides(f, e) and not dom.divstep(c, d)[1])
        lcm = tuple(map(max, e, f))
        me = tuple(u - v for u, v in zip(lcm, e))
        mf = tuple(u - v for u, v in zip(lcm, f))
        g, s, t = dom.gcdex(c, d) if not dom.is_field else (1, None, None)
        lc = dom.divstep(dom.mul(c, d), g)[0]
        polys = [combo(dom.divstep(lc, c)[0], me, row,
                       dom.neg(dom.divstep(lc, d)[0]), mf, other)]
        if s is not None:
            polys.append(combo(s, me, row, t, mf, other))
        for poly in polys:
            assert mb._reduce(poly, mb.index) == {}
