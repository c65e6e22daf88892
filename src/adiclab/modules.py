"""Finitely presented modules, morphisms, and the kernel/image/cokernel
calculus.

A module is a presentation: an ambient free rank plus relation rows.  All
submodule questions funnel through one audited engine (groebner.ModuleBasis)
after lifting quotient and truncated-power-series scalars to their ambient
polynomial rings, and the Euclidean cases additionally expose Smith-normal-
form diagonal data for invariant-factor comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from .errors import BudgetExceeded, ParentMismatch, UnsupportedRing
from .groebner import ModuleBasis
from .rings import (INTEGERS, LEX, POLYNOMIAL, POWER_SERIES, QUOTIENT,
                    RingElem, RingSpec, element_to_str, ring_polynomial,
                    scalar_domain)
from .smith import invariant_factors

DEFAULT_POWER_BUDGET = 64


# ---------------------------------------------------------------------------
# computation workspace: lift quotient/power-series scalars


@lru_cache(maxsize=None)
def work_ring(ring: RingSpec) -> RingSpec:
    """The polynomial or scalar ring the engine actually computes over."""
    if ring.kind == POWER_SERIES:
        return ring_polynomial(ring.base, ring.vars, LEX)
    if ring.kind == QUOTIENT:
        return ring.base
    return ring


def lift_elem(ring: RingSpec, e: RingElem) -> RingElem:
    w = work_ring(ring)
    if w == ring:
        return e
    return RingElem(w, dict(e.terms))


def lower_elem(ring: RingSpec, e: RingElem) -> RingElem:
    if e.ring == ring:
        return e
    return RingElem(ring, dict(e.terms))


def work_rows(ring: RingSpec, ambient: int, vectors):
    """The vectors lifted to the work ring, followed by the relation rows
    every ambient coordinate carries by ring structure."""
    w = work_ring(ring)
    rows = [tuple(lift_elem(ring, e) for e in v) for v in vectors]
    if ring.kind == POWER_SERIES:
        tN = w.variable(ring.vars[0]) ** ring.precision
        for i in range(ambient):
            rows.append(tuple(tN if j == i else w.zero() for j in range(ambient)))
    elif ring.kind == QUOTIENT:
        for g in ring.ideal_gens:
            for i in range(ambient):
                rows.append(tuple(g if j == i else w.zero() for j in range(ambient)))
    return rows


def euclidean_capable(ring: RingSpec) -> bool:
    """True when Smith normal form applies over the work ring."""
    w = work_ring(ring)
    if w.kind in (INTEGERS, "rationals", "prime_field"):
        return True
    return w.kind == POLYNOMIAL and w.nvars == 1 and w.base.is_field


def _vec_to_dict(vec) -> dict:
    out = {}
    for pos, e in enumerate(vec):
        for exps, c in e.terms.items():
            out[(pos, exps)] = c
    return out


def _dict_to_vec(d: dict, ambient: int, ring: RingSpec):
    cols = [{} for _ in range(ambient)]
    for (pos, exps), c in d.items():
        if pos < ambient:
            cols[pos][exps] = c
    return tuple(RingElem(ring, col) for col in cols)


def zero_vector(ring: RingSpec, ambient: int):
    z = ring.zero()
    return tuple(z for _ in range(ambient))


def unit_vector(ring: RingSpec, ambient: int, i: int):
    return tuple(ring.one() if j == i else ring.zero() for j in range(ambient))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(v, c: RingElem):
    return tuple(c * a for a in v)


def vec_is_zero(v) -> bool:
    return all(a.is_zero() for a in v)


# ---------------------------------------------------------------------------
# standard bases


class StdBasis:
    """Canonical basis with syzygies for a submodule of a free module."""

    def __init__(self, ring: RingSpec, ambient_rank: int, gens):
        self.ring = ring
        self.ambient_rank = ambient_rank
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != ambient_rank:
                raise ParentMismatch("generator rank mismatch")
            for e in g:
                if e.ring != ring:
                    raise ParentMismatch("generator entry outside the ring")
        self._ngens = len(gens)
        w = work_ring(ring)
        rows = [_vec_to_dict(v) for v in work_rows(ring, ambient_rank, gens)]
        self._mb = ModuleBasis(rows, npos=ambient_rank, nvars=w.nvars,
                               domain=scalar_domain(w), mono_key=w.mono_key)
        self.generators = tuple(
            v for v in (
                _dict_to_vec(row, ambient_rank, ring)
                for row in self._mb.generators())
            if not vec_is_zero(v))
        syz = []
        for row in self._mb.syzygies():
            vec = _dict_to_vec(row, self._ngens, ring)
            if not vec_is_zero(vec):
                syz.append(vec)
        self.syzygies = tuple(syz)

    def contains(self, vec):
        """(member?, witness) with vec = sum witness_i * gens_i over the ring."""
        if len(vec) != self.ambient_rank:
            raise ParentMismatch("vector rank mismatch")
        lifted = tuple(lift_elem(self.ring, e) for e in vec)
        ok, wit = self._mb.contains(_vec_to_dict(lifted))
        if not ok:
            return False, None
        witness = _dict_to_vec(wit, self._ngens, self.ring)
        return True, witness

    def normal_form(self, vec):
        """Canonical representative of vec modulo the span."""
        lifted = tuple(lift_elem(self.ring, e) for e in vec)
        nf = self._mb.normal_form(_vec_to_dict(lifted))
        return _dict_to_vec(nf, self.ambient_rank, self.ring)


def std_basis(gens, ring: RingSpec, ambient_rank: int | None = None) -> StdBasis:
    gens = [tuple(g) for g in gens]
    if ambient_rank is None:
        ambient_rank = len(gens[0]) if gens else 0
    return StdBasis(ring, ambient_rank, gens)


def syzygies_with_relations(gens, relations, ring: RingSpec, ambient: int):
    """Generators of {z : sum z_i g_i lies in the span of the relations}."""
    basis = StdBasis(ring, ambient, list(gens) + list(relations))
    k = len(gens)
    out = []
    seen = set()
    for row in basis.syzygies:
        vec = row[:k]
        if vec_is_zero(vec):
            continue
        key = tuple(e._sorted_key() for e in vec)
        if key in seen:
            continue
        seen.add(key)
        out.append(vec)
    return out


# ---------------------------------------------------------------------------
# modules and homs


class FPModule:
    """A finitely presented module: ambient free rank plus relation rows."""

    __slots__ = ("ring", "ambient_rank", "relations", "grading", "_rb")

    def __init__(self, ring: RingSpec, ambient_rank: int, relations=(),
                 grading=None):
        rels = []
        for r in relations:
            r = tuple(r)
            if len(r) != ambient_rank:
                raise ParentMismatch("relation rank mismatch")
            for e in r:
                if e.ring != ring:
                    raise ParentMismatch("relation entry outside the ring")
            if not vec_is_zero(r):
                rels.append(r)
        rels.sort(key=lambda r: tuple(element_to_str(e) for e in r))
        dedup = []
        for r in rels:
            if not dedup or dedup[-1] != r:
                dedup.append(r)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "relations", tuple(dedup))
        object.__setattr__(self, "grading",
                           tuple(grading) if grading is not None else None)
        object.__setattr__(self, "_rb", None)

    def __setattr__(self, *args):
        raise AttributeError("FPModule is immutable")

    def relations_basis(self) -> StdBasis:
        rb = object.__getattribute__(self, "_rb")
        if rb is None:
            rb = StdBasis(self.ring, self.ambient_rank, self.relations)
            object.__setattr__(self, "_rb", rb)
        return rb

    def is_zero(self) -> bool:
        rb = self.relations_basis()
        return all(rb.contains(unit_vector(self.ring, self.ambient_rank, i))[0]
                   for i in range(self.ambient_rank))

    def is_free_presentation(self) -> bool:
        return not self.relations

    def normal_form(self, vec):
        return self.relations_basis().normal_form(vec)

    def elem_is_zero(self, vec) -> bool:
        return self.relations_basis().contains(vec)[0]

    def is_graded_module(self) -> bool:
        """Ring graded, generators in degree 0 (or the stored grading), and
        every relation homogeneous for it."""
        if not self.ring.graded:
            return False
        degs = self.grading or (0,) * self.ambient_rank
        for r in self.relations:
            seen = set()
            for i, e in enumerate(r):
                for exps in e.terms:
                    seen.add(sum(exps) + degs[i])
            if len(seen) > 1:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, FPModule):
            return NotImplemented
        return (self.ring == other.ring
                and self.ambient_rank == other.ambient_rank
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.ring, self.ambient_rank, self.relations))

    def __repr__(self):
        return (f"FPModule({self.ring!r}, rank={self.ambient_rank}, "
                f"{len(self.relations)} relations)")


def free_module(ring: RingSpec, rank: int) -> FPModule:
    return FPModule(ring, rank)


def zero_module(ring: RingSpec) -> FPModule:
    return FPModule(ring, 0)


def cyclic_module(ring: RingSpec, *annihilators) -> FPModule:
    """ring / (annihilators) as a rank-one presentation."""
    return FPModule(ring, 1, [(a,) for a in annihilators])


def quotient_module(M: FPModule, extra_relations) -> FPModule:
    return FPModule(M.ring, M.ambient_rank,
                    list(M.relations) + [tuple(r) for r in extra_relations],
                    grading=M.grading)


def direct_sum_module(mods) -> FPModule:
    mods = list(mods)
    if not mods:
        raise ValueError("direct sum of nothing needs a ring")
    ring = mods[0].ring
    total = sum(m.ambient_rank for m in mods)
    rels = []
    offset = 0
    for m in mods:
        if m.ring != ring:
            raise ParentMismatch("direct sum over mixed rings")
        for r in m.relations:
            row = list(zero_vector(ring, total))
            for j, e in enumerate(r):
                row[offset + j] = e
            rels.append(tuple(row))
        offset += m.ambient_rank
    return FPModule(ring, total, rels)


def modules_equal(M: FPModule, N: FPModule) -> bool:
    """Equality as submodule spans: mutual containment of relation spans."""
    if M.ring != N.ring or M.ambient_rank != N.ambient_rank:
        return False
    mb, nb = M.relations_basis(), N.relations_basis()
    return (all(nb.contains(r)[0] for r in M.relations)
            and all(mb.contains(r)[0] for r in N.relations))


def module_is_zero(M: FPModule) -> bool:
    return M.is_zero()


class ModuleHom:
    """A morphism of presentations: a target-rank x source-rank matrix that
    maps source relations into the span of target relations."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FPModule, target: FPModule, matrix,
                 check: bool = True):
        if source.ring != target.ring:
            raise ParentMismatch("hom between modules over different rings")
        matrix = tuple(tuple(row) for row in matrix)
        if len(matrix) != target.ambient_rank or any(
                len(row) != source.ambient_rank for row in matrix):
            raise ParentMismatch(
                f"hom matrix must be {target.ambient_rank} x {source.ambient_rank}")
        for row in matrix:
            for e in row:
                if e.ring != source.ring:
                    raise ParentMismatch("matrix entry outside the ring")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        if check:
            tb = target.relations_basis()
            for r in source.relations:
                if not tb.contains(self.apply(r))[0]:
                    raise ParentMismatch(
                        "matrix does not map source relations into target relations")

    def __setattr__(self, *args):
        raise AttributeError("ModuleHom is immutable")

    def apply(self, vec):
        ring = self.source.ring
        out = []
        for i in range(self.target.ambient_rank):
            acc = ring.zero()
            for j, x in enumerate(vec):
                m = self.matrix[i][j]
                if not m.is_zero() and not x.is_zero():
                    acc = acc + m * x
            out.append(acc)
        return tuple(out)

    def column(self, j):
        return tuple(self.matrix[i][j] for i in range(self.target.ambient_rank))

    def is_zero_hom(self) -> bool:
        tb = self.target.relations_basis()
        return all(tb.contains(self.column(j))[0]
                   for j in range(self.source.ambient_rank))

    def __eq__(self, other):
        if not isinstance(other, ModuleHom):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return f"ModuleHom({self.source!r} -> {self.target!r})"


def identity_hom(M: FPModule) -> ModuleHom:
    ring = M.ring
    n = M.ambient_rank
    mat = [[ring.one() if i == j else ring.zero() for j in range(n)]
           for i in range(n)]
    return ModuleHom(M, M, mat, check=False)


def zero_hom(source: FPModule, target: FPModule) -> ModuleHom:
    z = source.ring.zero()
    mat = [[z] * source.ambient_rank for _ in range(target.ambient_rank)]
    return ModuleHom(source, target, mat, check=False)


def compose(g: ModuleHom, f: ModuleHom) -> ModuleHom:
    """g after f."""
    if f.target != g.source:
        raise ParentMismatch("homs do not compose")
    ring = f.source.ring
    rows = g.target.ambient_rank
    mid = f.target.ambient_rank
    cols = f.source.ambient_rank
    mat = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = ring.zero()
            for t in range(mid):
                a, b = g.matrix[i][t], f.matrix[t][j]
                if not a.is_zero() and not b.is_zero():
                    acc = acc + a * b
            row.append(acc)
        mat.append(tuple(row))
    return ModuleHom(f.source, g.target, mat, check=False)


def homs_equal(f: ModuleHom, g: ModuleHom) -> bool:
    """Equality as morphisms: columns agree modulo target relations."""
    if f.source != g.source or f.target != g.target:
        return False
    tb = f.target.relations_basis()
    for j in range(f.source.ambient_rank):
        diff = tuple(a - b for a, b in zip(f.column(j), g.column(j)))
        if not tb.contains(diff)[0]:
            return False
    return True


# ---------------------------------------------------------------------------
# kernels, images, cokernels


def submodule_presentation(gens, M: FPModule) -> FPModule:
    """Present the submodule of M generated by the given ambient vectors."""
    rels = syzygies_with_relations(gens, M.relations, M.ring, M.ambient_rank)
    return FPModule(M.ring, len(gens), rels)


def kernel_hom(f: ModuleHom):
    """(ker f as an FPModule, inclusion ker f -> source)."""
    M, N = f.source, f.target
    cols = [f.column(j) for j in range(M.ambient_rank)]
    raw = syzygies_with_relations(cols, N.relations, M.ring, N.ambient_rank)
    mb = M.relations_basis()
    gens = [g for g in raw if not mb.contains(g)[0]]
    gens = [mb.normal_form(g) for g in gens]
    seen, kept = set(), []
    for g in gens:
        if vec_is_zero(g):
            continue
        key = tuple(e._sorted_key() for e in g)
        if key not in seen:
            seen.add(key)
            kept.append(g)
    ker = submodule_presentation(kept, M)
    mat = [[kept[j][i] for j in range(len(kept))] for i in range(M.ambient_rank)]
    incl = ModuleHom(ker, M, mat, check=False)
    return ker, incl


def image_coker(f: ModuleHom):
    """(image, cokernel, projection: target -> cokernel)."""
    M, N = f.source, f.target
    cols = [f.column(j) for j in range(M.ambient_rank)]
    nb = N.relations_basis()
    kept = []
    for c in cols:
        if not nb.contains(c)[0]:
            kept.append(nb.normal_form(c))
    image = submodule_presentation(kept, N)
    coker = quotient_module(N, cols)
    proj = ModuleHom(N, coker, identity_hom(N).matrix, check=False)
    return image, coker, proj


def membership(elem, sub: StdBasis):
    """(member?, witness coefficients over the basis generators)."""
    return sub.contains(elem)


def hom_is_injective(f: ModuleHom) -> bool:
    ker, _ = kernel_hom(f)
    return ker.is_zero()


def hom_is_surjective(f: ModuleHom) -> bool:
    _, coker, _ = image_coker(f)
    return coker.is_zero()


def hom_is_iso(f: ModuleHom) -> bool:
    return hom_is_injective(f) and hom_is_surjective(f)


# ---------------------------------------------------------------------------
# ideal powers acting on a module


@dataclass(frozen=True)
class IdealPowerResult:
    submodule: FPModule
    submodule_gens: tuple
    quotient: FPModule
    stabilized_at: int | None


def ideal_power_gens(a_list, k: int, M: FPModule):
    """Ambient vectors generating (a_1..a_n)^k * M."""
    ring = M.ring
    if k == 0:
        return [unit_vector(ring, M.ambient_rank, i)
                for i in range(M.ambient_rank)]
    words = {ring.one()}
    for _ in range(k):
        words = {w * a for w in words for a in a_list}
    words = sorted(words, key=element_to_str)
    out = []
    for w in words:
        if w.is_zero():
            continue
        for i in range(M.ambient_rank):
            out.append(tuple(w if j == i else ring.zero()
                             for j in range(M.ambient_rank)))
    return out


def ideal_power_act(a_list, k: int, M: FPModule,
                    budget: int = DEFAULT_POWER_BUDGET) -> IdealPowerResult:
    """a^k M as a submodule plus M / a^k M, with chain stabilization data."""
    if k > budget:
        raise BudgetExceeded(f"ideal power {k} exceeds budget {budget}")
    if k < 0:
        raise BudgetExceeded("negative ideal power")
    stabilized = None
    prev_gens = None
    gens = None
    for j in range(k + 1):
        gens = ideal_power_gens(a_list, j, M)
        if prev_gens is not None and stabilized is None:
            basis = StdBasis(M.ring, M.ambient_rank,
                             list(gens) + list(M.relations))
            if all(basis.contains(g)[0] for g in prev_gens):
                stabilized = j - 1
        prev_gens = gens
    sub = submodule_presentation(gens, M)
    quot = quotient_module(M, gens)
    return IdealPowerResult(sub, tuple(gens), quot, stabilized)


# ---------------------------------------------------------------------------
# invariants for isomorphism comparison (Euclidean work rings)


def module_invariants(M: FPModule):
    """(invariant factor strings, free rank) over the work ring; decides the
    isomorphism class of M over Euclidean-capable rings."""
    if not euclidean_capable(M.ring):
        raise UnsupportedRing(f"no invariant factors over {M.ring!r}")
    rows = work_rows(M.ring, M.ambient_rank, M.relations)
    factors, free = invariant_factors(rows, work_ring(M.ring), M.ambient_rank)
    return tuple(sorted(element_to_str(d) for d in factors)), free


def modules_isomorphic(M: FPModule, N: FPModule):
    """Isomorphism verdict: True/False over Euclidean-capable rings, None
    (undecided) otherwise unless both are zero."""
    mz, nz = M.is_zero(), N.is_zero()
    if mz or nz:
        return mz and nz
    if M.ring == N.ring and euclidean_capable(M.ring):
        return module_invariants(M) == module_invariants(N)
    return None
