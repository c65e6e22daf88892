"""Finitely presented modules, morphisms, and the kernel/image/cokernel
calculus.

A module is a presentation: an ambient free rank plus relation rows.  All
submodule questions funnel through one audited engine (groebner.ModuleBasis)
after lifting quotient and truncated-power-series scalars to their ambient
polynomial rings, and the Euclidean cases additionally expose Smith-normal-
form diagonal data for invariant-factor comparisons.
"""
from __future__ import annotations

from .errors import ParentMismatch, UnsupportedRing
from .groebner import ModuleBasis
from .rings import (INTEGERS, POLYNOMIAL, POWER_SERIES, RingElem, RingSpec,
                    element_to_str)
from .smith import invariant_factors


# ---------------------------------------------------------------------------
# computation workspace: lift quotient/power-series scalars


def lift_elem(ring: RingSpec, e: RingElem) -> RingElem:
    if ring.work is ring:
        return e
    return RingElem(ring.work, dict(e.terms))


def lower_elem(ring: RingSpec, e: RingElem) -> RingElem:
    if e.ring == ring:
        return e
    return RingElem(ring, dict(e.terms))


def work_rows(ring: RingSpec, ambient: int, vectors):
    """The vectors lifted to the work ring, followed by the relation rows
    every ambient coordinate carries by ring structure."""
    w = ring.work
    rows = [tuple(lift_elem(ring, e) for e in v) for v in vectors]
    z = w.zero()
    for terms in ring.structural:
        g = RingElem(w, terms)
        for i in range(ambient):
            rows.append(tuple(g if j == i else z for j in range(ambient)))
    return rows


def euclidean_capable(ring: RingSpec) -> bool:
    """True when Smith normal form applies over the work ring."""
    w = ring.work
    if w.kind in (INTEGERS, "rationals", "prime_field"):
        return True
    return w.kind == POLYNOMIAL and w.nvars == 1 and w.base.is_field


def _vec_to_dict(vec) -> dict:
    out = {}
    for pos, e in enumerate(vec):
        if e.terms:
            for exps, c in e.terms.items():
                out[(pos, exps)] = c
    return out


def _dict_to_vec(d: dict, ambient: int, ring: RingSpec,
                 normalized: bool = False):
    """The vector of the leading-block terms of d; `normalized` when they
    are already canonical in the ring (see `RingElem`)."""
    cols: dict = {}
    for (pos, exps), c in d.items():
        if pos < ambient:
            col = cols.get(pos)
            if col is None:
                col = cols[pos] = {}
            col[exps] = c
    vec = [ring.zero()] * ambient
    for pos, col in cols.items():
        vec[pos] = RingElem(ring, col, _normalized=normalized)
    return tuple(vec)


def zero_vector(ring: RingSpec, ambient: int):
    z = ring.zero()
    return tuple(z for _ in range(ambient))


def unit_vector(ring: RingSpec, ambient: int, i: int):
    z = ring.zero()
    return tuple(ring.one() if j == i else z for j in range(ambient))


def vec_is_zero(v) -> bool:
    return not any(a.terms for a in v)


# ---------------------------------------------------------------------------
# standard bases


def _engine_basis(ring: RingSpec, ambient: int, vectors, tags: int):
    """Engine basis of the vectors plus the ring's structural relations,
    the first `tags` vectors tagged."""
    vectors = [tuple(v) for v in vectors]
    for v in vectors:
        if len(v) != ambient:
            raise ParentMismatch("generator rank mismatch")
        for e in v:
            if e.ring is not ring and e.ring != ring:
                raise ParentMismatch("generator entry outside the ring")
    # the work ring holds the same term dicts as the ring, so entries are
    # read directly instead of through work_rows
    w = ring.work
    rows = [_vec_to_dict(v) for v in vectors]
    for terms in ring.structural:
        for i in range(ambient):
            rows.append({(i, e): c for e, c in terms.items()})
    return ModuleBasis(rows, npos=ambient, nvars=w.nvars,
                       domain=w.domain, mono_key=w.mono_key,
                       tags=tags)


def _query_row(ring: RingSpec, ambient: int, vec) -> dict:
    if len(vec) != ambient:
        raise ParentMismatch("vector rank mismatch")
    return _vec_to_dict(vec)


class StdBasis:
    """Canonical basis of a submodule, for membership and normal forms.

    Reduced rows and normal forms are canonical in the ring as they come
    out of the engine, so they become vectors without normalization (which
    `RingElem` still runs over a quotient ring).  The one exception is a
    power series ring's structural row t^N at a position, the only row
    whose terms reach the precision: it is zero in the ring and is dropped
    before conversion."""

    def __init__(self, ring: RingSpec, ambient_rank: int, gens):
        self.ring = ring
        self.ambient_rank = ambient_rank
        self._mb = _engine_basis(ring, ambient_rank, gens, tags=0)
        rows = self._mb.generators()
        if ring.kind == POWER_SERIES:
            rows = [r for r in rows
                    if all(e[0] < ring.precision for _, e in r)]
        self.generators = tuple(
            v for v in (_dict_to_vec(row, ambient_rank, ring, normalized=True)
                        for row in rows)
            if not vec_is_zero(v))

    def contains(self, vec) -> bool:
        """True when vec lies in the span."""
        return self._mb.contains(
            _query_row(self.ring, self.ambient_rank, vec))[0]

    def lead_positions(self) -> frozenset:
        """Positions that hold the leading term of a basis row, counting the
        rows of the structural relations, which `generators` omits."""
        return frozenset(self._mb.index)

    def normal_form(self, vec):
        """Canonical representative of vec modulo the span."""
        nf = self._mb.normal_form(_query_row(self.ring, self.ambient_rank, vec))
        return _dict_to_vec(nf, self.ambient_rank, self.ring, normalized=True)


def std_basis(gens, ring: RingSpec, ambient_rank: int | None = None) -> StdBasis:
    gens = [tuple(g) for g in gens]
    if ambient_rank is None:
        ambient_rank = len(gens[0]) if gens else 0
    return StdBasis(ring, ambient_rank, gens)


def _tagged_basis(gens, relations, ring: RingSpec, ambient: int) -> ModuleBasis:
    """Engine basis of gens then relations, with only gens tagged: its
    syzygies and witnesses are taken modulo the relations."""
    return _engine_basis(ring, ambient, [*gens, *relations], tags=len(gens))


def syzygies_with_relations(gens, relations, ring: RingSpec, ambient: int):
    """Generators of {z : sum z_i g_i lies in the span of the relations},
    read off the reduced basis of that module over the work ring.  Only gens
    carry tags, so the syzygies among the relations are never built."""
    basis = _tagged_basis(gens, relations, ring, ambient)
    k = len(gens)
    out = []
    seen = set()
    for row in basis.syzygies():
        vec = _dict_to_vec(row, k, ring)
        key = tuple(e._sorted_key() for e in vec)
        if vec_is_zero(vec) or key in seen:
            continue
        seen.add(key)
        out.append(vec)
    return out


def coordinates(vectors, gens, relations, ring: RingSpec, ambient: int):
    """Per vector v, coefficients c with v - sum c_i gens_i in the span of
    the relations, or None when v is not in the span of gens and relations.

    c is read from the tags of gens alone, the relations entering untagged,
    and is a normal form modulo the syzygies of gens modulo the relations."""
    basis = _tagged_basis(gens, relations, ring, ambient)
    out = []
    for v in vectors:
        ok, witness = basis.contains(_query_row(ring, ambient, v))
        out.append(_dict_to_vec(witness, len(gens), ring) if ok else None)
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
                if e.ring is not ring and e.ring != ring:
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
        return all(rb.contains(unit_vector(self.ring, self.ambient_rank, i))
                   for i in range(self.ambient_rank))

    def is_free_presentation(self) -> bool:
        return not self.relations

    def normal_form(self, vec):
        return self.relations_basis().normal_form(vec)

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


def module_data(M: FPModule) -> dict:
    """A presentation as instance-file data: coefficient strings, and the
    grading only when the module has one."""
    out = {"ambient_rank": M.ambient_rank,
           "relations": [[element_to_str(e) for e in r] for r in M.relations]}
    if M.grading is not None:
        out["grading"] = list(M.grading)
    return out


def free_module(ring: RingSpec, rank: int) -> FPModule:
    return FPModule(ring, rank)


def zero_module(ring: RingSpec) -> FPModule:
    return FPModule(ring, 0)


def quotient_module(M: FPModule, extra_relations) -> FPModule:
    return FPModule(M.ring, M.ambient_rank,
                    list(M.relations) + [tuple(r) for r in extra_relations],
                    grading=M.grading)


def pruned_presentation(M: FPModule) -> FPModule:
    """M presented on fewer generators.  While some relation r has a unit
    entry u at generator j, every other relation s with s_j != 0 becomes
    u*s - s_j*r, which needs no inverse, and generator j and r are dropped.
    The pivot is the relation with the fewest nonzero entries, then its
    lowest unit column.  The kept generators, in order, map isomorphically
    onto M, and no relation of the result has a unit entry."""
    rels = [list(r) for r in M.relations]
    keep = list(range(M.ambient_rank))
    while True:
        pivot = None
        for i, r in enumerate(rels):
            nnz = sum(1 for e in r if e.terms)
            if pivot is not None and nnz >= pivot[0]:
                continue
            j = next((j for j, e in enumerate(r) if e.is_unit()), None)
            if j is not None:
                pivot = (nnz, i, j)
        if pivot is None:
            break
        _, i, j = pivot
        r = rels.pop(i)
        u = r[j]
        support = [k for k, y in enumerate(r) if y.terms]
        for s in rels:
            c = s[j]
            if c.terms:
                s[:] = [u * x if x.terms else x for x in s]
                for k in support:
                    s[k] = s[k] - c * r[k]
            del s[j]
        rels = [s for s in rels if any(e.terms for e in s)]
        del keep[j]
    grading = None
    if M.grading is not None:
        grading = [M.grading[k] for k in keep]
    return FPModule(M.ring, len(keep), rels, grading=grading)


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


class ModuleHom:
    """A morphism of presentations: a target-rank x source-rank matrix that
    maps source relations into the span of target relations."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FPModule, target: FPModule, matrix,
                 check: bool = True):
        ring = source.ring
        if target.ring is not ring and target.ring != ring:
            raise ParentMismatch("hom between modules over different rings")
        matrix = tuple(tuple(row) for row in matrix)
        if len(matrix) != target.ambient_rank or any(
                len(row) != source.ambient_rank for row in matrix):
            raise ParentMismatch(
                f"hom matrix must be {target.ambient_rank} x {source.ambient_rank}")
        for row in matrix:
            for e in row:
                if e.ring is not ring and e.ring != ring:
                    raise ParentMismatch("matrix entry outside the ring")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)
        if check:
            tb = target.relations_basis()
            for r in source.relations:
                if not tb.contains(self.apply(r)):
                    raise ParentMismatch(
                        "matrix does not map source relations into target relations")

    def __setattr__(self, *args):
        raise AttributeError("ModuleHom is immutable")

    def apply(self, vec):
        if len(vec) != self.source.ambient_rank:
            raise ParentMismatch("vector rank mismatch")
        entries = [(j, x) for j, x in enumerate(vec) if x.terms]
        z = self.source.ring.zero()
        out = []
        for row in self.matrix:
            acc = z
            for j, x in entries:
                m = row[j]
                if m.terms:
                    acc = acc + m * x
            out.append(acc)
        return tuple(out)

    def column(self, j):
        return tuple(self.matrix[i][j] for i in range(self.target.ambient_rank))

    def is_zero_hom(self) -> bool:
        tb = self.target.relations_basis()
        return all(tb.contains(self.column(j))
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


# ---------------------------------------------------------------------------
# kernels, images, cokernels


def submodule_presentation(gens, M: FPModule) -> FPModule:
    """Present the submodule of M generated by the given ambient vectors."""
    rels = syzygies_with_relations(gens, M.relations, M.ring, M.ambient_rank)
    return FPModule(M.ring, len(gens), rels)


def _kernel_gens(f: ModuleHom):
    """Generators of ker f as source vectors: distinct nonzero normal forms
    modulo the source's relations."""
    M, N = f.source, f.target
    cols = [f.column(j) for j in range(M.ambient_rank)]
    raw = syzygies_with_relations(cols, N.relations, M.ring, N.ambient_rank)
    mb = M.relations_basis()
    seen, kept = set(), []
    for g in map(mb.normal_form, raw):
        if vec_is_zero(g):
            continue
        key = tuple(e._sorted_key() for e in g)
        if key not in seen:
            seen.add(key)
            kept.append(g)
    return kept


def kernel_hom(f: ModuleHom):
    """(ker f as an FPModule, inclusion ker f -> source)."""
    M = f.source
    kept = _kernel_gens(f)
    ker = submodule_presentation(kept, M)
    mat = [[kept[j][i] for j in range(len(kept))] for i in range(M.ambient_rank)]
    incl = ModuleHom(ker, M, mat, check=False)
    return ker, incl


def image_coker(f: ModuleHom):
    """(image, cokernel, projection: target -> cokernel)."""
    M, N = f.source, f.target
    cols = [f.column(j) for j in range(M.ambient_rank)]
    nb = N.relations_basis()
    kept = [v for v in map(nb.normal_form, cols) if not vec_is_zero(v)]
    image = submodule_presentation(kept, N)
    coker = quotient_module(N, cols)
    proj = ModuleHom(N, coker, identity_hom(N).matrix, check=False)
    return image, coker, proj


def hom_is_injective(f: ModuleHom) -> bool:
    # every kernel generator is nonzero in the source, so the kernel is
    # zero exactly when it has none
    ker, _ = kernel_hom(f)
    return ker.ambient_rank == 0


def hom_is_surjective(f: ModuleHom) -> bool:
    cols = [f.column(j) for j in range(f.source.ambient_rank)]
    return quotient_module(f.target, cols).is_zero()


def hom_is_iso(f: ModuleHom) -> bool:
    return hom_is_injective(f) and hom_is_surjective(f)


# ---------------------------------------------------------------------------
# ideal powers


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


# ---------------------------------------------------------------------------
# invariants for isomorphism comparison (Euclidean work rings)


def module_invariants(M: FPModule):
    """(invariant factor strings, free rank) over the work ring; decides the
    isomorphism class of M over Euclidean-capable rings."""
    if not euclidean_capable(M.ring):
        raise UnsupportedRing(f"no invariant factors over {M.ring!r}")
    rows = work_rows(M.ring, M.ambient_rank, M.relations)
    factors, free = invariant_factors(rows, M.ring.work, M.ambient_rank)
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
