"""Bounded complexes of finitely presented modules.

Cohomology, smart truncation, Hom and tensor with finite free complexes,
mapping cones, shifts, and quasi-isomorphism verdicts.  Sign conventions are
fixed once: the Hom differential is (d f) = d o f - (-1)^n f o d, the tensor
differential carries the Koszul sign on the second slot, and the shift C[k]
relabels degree j to j - k while flipping differentials by (-1)^k.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidComplex, NotFree, ParentMismatch
from .modules import (FPModule, ModuleHom, _kernel_gens, compose,
                      coordinates, direct_sum_module, free_module,
                      hom_is_surjective, identity_hom, kernel_hom,
                      quotient_module, syzygies_with_relations,
                      vec_is_zero, zero_hom, zero_module)
from .rings import RingSpec
from . import verdicts
from .verdicts import Verdict


class BoundedComplex:
    """Integer-indexed finite family of modules with differentials d^j
    raising degree; d o d = 0 is checked at construction."""

    __slots__ = ("ring", "entries", "diffs", "_cohom")

    def __init__(self, ring: RingSpec, entries: dict, diffs: dict,
                 check: bool = True):
        entries = {j: m for j, m in entries.items()
                   if m.ambient_rank > 0 or m.relations}
        for j, m in entries.items():
            if m.ring != ring:
                raise ParentMismatch("entry over a different ring")
        cleaned = {}
        for j, d in diffs.items():
            if d is None:
                continue
            cleaned[j] = d
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", dict(sorted(entries.items())))
        object.__setattr__(self, "diffs", dict(sorted(cleaned.items())))
        object.__setattr__(self, "_cohom", {})
        if check:
            self._validate()

    def __setattr__(self, *args):
        raise AttributeError("BoundedComplex is immutable")

    def _validate(self):
        for j, d in self.diffs.items():
            if d.source != self.entry(j) or d.target != self.entry(j + 1):
                raise InvalidComplex(f"differential at {j} does not line up")
        for j in self.diffs:
            if (j + 1) in self.diffs:
                if not compose(self.diffs[j + 1], self.diffs[j]).is_zero_hom():
                    raise InvalidComplex(f"d o d != 0 at degree {j}")

    def entry(self, j: int) -> FPModule:
        if j in self.entries:
            return self.entries[j]
        return zero_module(self.ring)

    def differential(self, j: int) -> ModuleHom:
        if j in self.diffs:
            return self.diffs[j]
        return zero_hom(self.entry(j), self.entry(j + 1))

    def window(self):
        if not self.entries:
            return range(0, 0)
        lo, hi = min(self.entries), max(self.entries)
        return range(lo, hi + 1)

    # -- cohomology ---------------------------------------------------------

    def cohomology_data(self, j: int) -> "CohomologyData":
        """H^j with its cocycle generators, computed once per complex.
        Equal complexes built by separate calls do not share it; the
        telescope analysis in `derived.ext_localization` is shared across
        Ext indices by `adic.memo_scope` instead."""
        cache = object.__getattribute__(self, "_cohom")
        if j not in cache:
            cache[j] = _cohomology_data(self, j)
        return cache[j]

    def cohomology_support(self):
        return [j for j in self.window() if not self.cohomology_data(j).module.is_zero()]

    def amplitude(self):
        s = self.cohomology_support()
        if not s:
            return float("-inf")
        return max(s) - min(s)

    def __repr__(self):
        parts = ", ".join(f"{j}:{m.ambient_rank}" for j, m in self.entries.items())
        return f"BoundedComplex({self.ring!r}; ranks {{{parts}}})"


@dataclass(frozen=True)
class CohomologyData:
    """H^j presented on kernel generators, kept with their ambient vectors."""
    degree: int
    module: FPModule
    gens: tuple          # ambient vectors in entry(j)
    reducers: tuple      # entry(j) relations + image columns of d^(j-1)


def _cohomology_data(C: BoundedComplex, j: int) -> CohomologyData:
    ring = C.ring
    dj = C.differential(j)
    djm1 = C.differential(j - 1)
    kgens = _kernel_gens(dj)
    bucket = list(C.entry(j).relations)
    bucket += [djm1.column(t) for t in range(C.entry(j - 1).ambient_rank)]
    bucket = [b for b in bucket if not vec_is_zero(b)]
    rels = syzygies_with_relations(kgens, bucket, ring, C.entry(j).ambient_rank)
    H = FPModule(ring, len(kgens), rels)
    return CohomologyData(j, H, tuple(kgens), tuple(bucket))


def cohomology(C: BoundedComplex, j: int) -> FPModule:
    """ker d^j / im d^(j-1) as a finitely presented module."""
    return C.cohomology_data(j).module


def complex_from_module(M: FPModule, degree: int = 0) -> BoundedComplex:
    return BoundedComplex(M.ring, {degree: M}, {}, check=False)


def zero_complex(ring: RingSpec) -> BoundedComplex:
    return BoundedComplex(ring, {}, {}, check=False)


def shift_complex(C: BoundedComplex, k: int) -> BoundedComplex:
    """C[k]: degree j holds C^(j+k); differentials flip sign by (-1)^k."""
    entries = {j - k: m for j, m in C.entries.items()}
    diffs = {}
    for j, d in C.diffs.items():
        mat = d.matrix
        if k % 2:
            mat = tuple(tuple(-e for e in row) for row in mat)
        diffs[j - k] = ModuleHom(d.source, d.target, mat, check=False)
    return BoundedComplex(C.ring, entries, diffs, check=False)


class ComplexMap:
    """Degreewise morphism commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: BoundedComplex, target: BoundedComplex,
                 components: dict, check: bool = True):
        comps = {}
        for j, f in components.items():
            if f is None:
                continue
            comps[j] = f
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", dict(sorted(comps.items())))
        if check:
            self._validate()

    def __setattr__(self, *args):
        raise AttributeError("ComplexMap is immutable")

    def component(self, j: int) -> ModuleHom:
        if j in self.components:
            return self.components[j]
        return zero_hom(self.source.entry(j), self.target.entry(j))

    def _validate(self):
        degrees = set(self.source.entries) | set(self.target.entries)
        for j in sorted(degrees):
            f = self.component(j)
            if f.source != self.source.entry(j) or f.target != self.target.entry(j):
                raise InvalidComplex(f"component at {j} does not line up")
            lhs = compose(self.target.differential(j), f)
            rhs = compose(self.component(j + 1), self.source.differential(j))
            diff = [[a - b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(lhs.matrix, rhs.matrix)]
            if not ModuleHom(lhs.source, lhs.target, diff, check=False).is_zero_hom():
                raise InvalidComplex(f"square at degree {j} does not commute")


def cone(phi: ComplexMap) -> BoundedComplex:
    """Mapping cone: cone^j = source^(j+1) (+) target^j."""
    S, T = phi.source, phi.target
    ring = S.ring
    degrees = set()
    for j in S.entries:
        degrees.add(j - 1)
    degrees |= set(T.entries)
    entries, diffs = {}, {}
    for j in sorted(degrees):
        entries[j] = direct_sum_module([S.entry(j + 1), T.entry(j)])
    for j in sorted(degrees):
        if j + 1 not in entries:
            continue
        sj1 = S.entry(j + 1)
        tj = T.entry(j)
        sj2 = S.entry(j + 2)
        tj1 = T.entry(j + 1)
        dS = S.differential(j + 1)
        dT = T.differential(j)
        ph = phi.component(j + 1)
        rows = sj2.ambient_rank + tj1.ambient_rank
        cols = sj1.ambient_rank + tj.ambient_rank
        z = ring.zero()
        mat = [[z] * cols for _ in range(rows)]
        for r in range(sj2.ambient_rank):
            for c in range(sj1.ambient_rank):
                mat[r][c] = -dS.matrix[r][c]
        for r in range(tj1.ambient_rank):
            for c in range(sj1.ambient_rank):
                mat[sj2.ambient_rank + r][c] = ph.matrix[r][c]
            for c in range(tj.ambient_rank):
                mat[sj2.ambient_rank + r][sj1.ambient_rank + c] = dT.matrix[r][c]
        diffs[j] = ModuleHom(entries[j], entries.get(j + 1, zero_module(ring)),
                             mat, check=False)
    return BoundedComplex(ring, entries, diffs, check=False)


# ---------------------------------------------------------------------------
# smart truncation


def smart_truncate(C: BoundedComplex, j: int):
    """Kill cohomology in degrees >= j, keep it below.

    Returns (truncated, (inclusion, projection)): the inclusion realizes the
    canonical map into C; the projection maps C onto the complementary
    quotient complex, whose only cohomology is that of C in degrees >= j.
    """
    ring = C.ring
    k = j - 1  # top retained degree
    dk = C.differential(k)
    ker, incl_k = kernel_hom(dk)
    kgens = [incl_k.column(t) for t in range(ker.ambient_rank)]

    entries = {i: C.entry(i) for i in C.entries if i < k}
    diffs = {i: C.diffs[i] for i in C.diffs if i + 1 < k}
    incl_comps = {i: identity_hom(C.entry(i)) for i in C.entries if i < k}
    if ker.ambient_rank or not C.entry(k).is_zero():
        entries[k] = ker
        incl_comps[k] = incl_k
    if k - 1 in C.diffs or (k - 1) in entries:
        # factor d^(k-1) through the kernel
        dkm1 = C.differential(k - 1)
        src = C.entry(k - 1)
        cols = coordinates([dkm1.column(t) for t in range(src.ambient_rank)],
                           kgens, C.entry(k).relations, ring,
                           C.entry(k).ambient_rank)
        if None in cols:
            raise InvalidComplex("image of d^(k-1) not inside ker d^k")
        mat = [[cols[t][r] for t in range(src.ambient_rank)]
               for r in range(len(kgens))]
        if k in entries:
            diffs[k - 1] = ModuleHom(src, ker, mat, check=False)
    truncated = BoundedComplex(ring, entries, diffs, check=False)
    inclusion = ComplexMap(truncated, C, incl_comps, check=False)

    # quotient side: C^k / ker in degree k, C^i above
    q_entries = {i: C.entry(i) for i in C.entries if i > k}
    qk = quotient_module(C.entry(k), kgens)
    if not qk.is_zero():
        q_entries[k] = qk
    q_diffs = {i: C.diffs[i] for i in C.diffs if i > k}
    if k in q_entries and (k + 1) in set(C.entries) | {d + 1 for d in C.diffs}:
        q_diffs[k] = ModuleHom(qk, C.entry(k + 1), C.differential(k).matrix,
                               check=False)
    quotient = BoundedComplex(ring, q_entries, q_diffs, check=False)
    proj_comps = {}
    for i in q_entries:
        if i == k:
            proj_comps[i] = ModuleHom(C.entry(k), qk,
                                      identity_hom(C.entry(k)).matrix,
                                      check=False)
        else:
            proj_comps[i] = identity_hom(C.entry(i))
    projection = ComplexMap(C, quotient, proj_comps, check=False)
    return truncated, (inclusion, projection)


# ---------------------------------------------------------------------------
# Hom and tensor with finite free complexes


def _free_rank(m: FPModule) -> int:
    if not m.is_free_presentation():
        raise NotFree("complex entry carries relations")
    return m.ambient_rank


def _hom_blocks(F: BoundedComplex, X: BoundedComplex, n: int):
    """Ordered (p, i, offset, Xmod) blocks of Hom(F, X)^n."""
    blocks = []
    offset = 0
    for p in sorted(F.entries):
        rp = _free_rank(F.entries[p])
        Xm = X.entry(p + n)
        if Xm.ambient_rank == 0:
            continue
        for i in range(rp):
            blocks.append((p, i, offset, Xm))
            offset += Xm.ambient_rank
    return blocks, offset


def hom_complex(F: BoundedComplex, X) -> BoundedComplex:
    """Hom(F, X) for a finite free complex F; X a complex or a module.

    Degree-n entry is the product over p of Hom(F^p, X^(p+n)); the
    differential is (d f) = d o f - (-1)^n f o d."""
    if isinstance(X, FPModule):
        X = complex_from_module(X)
    ring = F.ring
    if X.ring != ring:
        raise ParentMismatch("Hom over mixed rings")
    if not F.entries:
        return zero_complex(ring)
    degrees_n = set()
    for p in F.entries:
        for q in X.entries:
            degrees_n.add(q - p)
    entries, diffs = {}, {}
    blocks_at = {}
    for n in sorted(degrees_n):
        blocks, total = _hom_blocks(F, X, n)
        blocks_at[n] = blocks
        if total:
            entries[n] = direct_sum_module([b[3] for b in blocks])
    for n in sorted(degrees_n):
        if n not in entries or (n + 1) not in entries:
            continue
        src_blocks = blocks_at[n]
        tgt_blocks = blocks_at[n + 1]
        tgt_index = {(p, i): (off, Xm) for p, i, off, Xm in tgt_blocks}
        rows = entries[n + 1].ambient_rank
        cols = entries[n].ambient_rank
        z = ring.zero()
        mat = [[z] * cols for _ in range(rows)]
        sign = -ring.one() if n % 2 else ring.one()
        for p, i, off, Xm in src_blocks:
            dX = X.differential(p + n)
            if (p, i) in tgt_index:
                toff, Xm1 = tgt_index[(p, i)]
                for b in range(Xm1.ambient_rank):
                    for a in range(Xm.ambient_rank):
                        e = dX.matrix[b][a]
                        if not e.is_zero():
                            mat[toff + b][off + a] = e
            dF = F.differential(p - 1)
            # contribution of f_(p) o d_F^(p-1) lands in target block (p-1, *)
            for i2 in range(F.entry(p - 1).ambient_rank):
                if (p - 1, i2) not in tgt_index:
                    continue
                toff, _ = tgt_index[(p - 1, i2)]
                coeff = dF.matrix[i][i2]
                if coeff.is_zero():
                    continue
                for a in range(Xm.ambient_rank):
                    mat[toff + a][off + a] = mat[toff + a][off + a] - sign * coeff
        diffs[n] = ModuleHom(entries[n], entries[n + 1], mat, check=False)
    return BoundedComplex(ring, entries, diffs, check=False)


def hom_complex_map(phi: ComplexMap, X) -> ComplexMap:
    """Hom(phi, 1_X): Hom(phi.target, X) -> Hom(phi.source, X)."""
    if isinstance(X, FPModule):
        X = complex_from_module(X)
    F, G = phi.source, phi.target
    HG = hom_complex(G, X)
    HF = hom_complex(F, X)
    comps = {}
    for n in set(HG.entries) | set(HF.entries):
        src_blocks, src_total = _hom_blocks(G, X, n)
        tgt_blocks, tgt_total = _hom_blocks(F, X, n)
        src_index = {(p, i): (off, Xm) for p, i, off, Xm in src_blocks}
        z = F.ring.zero()
        mat = [[z] * src_total for _ in range(tgt_total)]
        for p, i, toff, Xm in tgt_blocks:
            comp = phi.component(p)
            for i2 in range(G.entry(p).ambient_rank):
                if (p, i2) not in src_index:
                    continue
                soff, _ = src_index[(p, i2)]
                coeff = comp.matrix[i2][i]
                if coeff.is_zero():
                    continue
                for a in range(Xm.ambient_rank):
                    mat[toff + a][soff + a] = mat[toff + a][soff + a] + coeff
        comps[n] = ModuleHom(HG.entry(n), HF.entry(n), mat, check=False)
    return ComplexMap(HG, HF, comps, check=False)


def _tensor_blocks(F: BoundedComplex, G: BoundedComplex, n: int):
    blocks = []
    offset = 0
    for p in sorted(F.entries):
        q = n - p
        if q not in G.entries:
            continue
        rp = _free_rank(F.entries[p])
        rq = _free_rank(G.entries[q])
        for i in range(rp):
            for jj in range(rq):
                blocks.append((p, i, jj, offset))
                offset += 1
    return blocks, offset


def tensor_complex(F: BoundedComplex, G: BoundedComplex) -> BoundedComplex:
    """Tensor of finite free complexes, Koszul sign on the second slot."""
    ring = F.ring
    if G.ring != ring:
        raise ParentMismatch("tensor over mixed rings")
    degrees = set()
    for p in F.entries:
        for q in G.entries:
            degrees.add(p + q)
    entries, diffs = {}, {}
    blocks_at = {}
    for n in sorted(degrees):
        blocks, total = _tensor_blocks(F, G, n)
        blocks_at[n] = blocks
        if total:
            entries[n] = free_module(ring, total)
    for n in sorted(degrees):
        if n not in entries or (n + 1) not in entries:
            continue
        src = blocks_at[n]
        tgt = {(p, i, jj): off for p, i, jj, off in blocks_at[n + 1]}
        rows = entries[n + 1].ambient_rank
        cols = entries[n].ambient_rank
        z = ring.zero()
        mat = [[z] * cols for _ in range(rows)]
        for p, i, jj, off in src:
            q = n - p
            dF = F.differential(p)
            for i2 in range(F.entry(p + 1).ambient_rank):
                key = (p + 1, i2, jj)
                if key in tgt:
                    e = dF.matrix[i2][i]
                    if not e.is_zero():
                        mat[tgt[key]][off] = mat[tgt[key]][off] + e
            dG = G.differential(q)
            sign = -ring.one() if p % 2 else ring.one()
            for j2 in range(G.entry(q + 1).ambient_rank):
                key = (p, i, j2)
                if key in tgt:
                    e = dG.matrix[j2][jj]
                    if not e.is_zero():
                        mat[tgt[key]][off] = mat[tgt[key]][off] + sign * e
        diffs[n] = ModuleHom(entries[n], entries[n + 1], mat, check=False)
    return BoundedComplex(ring, entries, diffs, check=False)


# ---------------------------------------------------------------------------
# quasi-isomorphism


def induced_cohomology_map(phi: ComplexMap, j: int) -> ModuleHom:
    """H^j(phi) on the kernel-generator presentations."""
    HC = phi.source.cohomology_data(j)
    HD = phi.target.cohomology_data(j)
    f = phi.component(j)
    cols = coordinates([f.apply(k) for k in HC.gens], HD.gens, HD.reducers,
                       phi.target.ring, phi.target.entry(j).ambient_rank)
    if None in cols:
        raise InvalidComplex("chain map does not preserve cocycles")
    mat = [[cols[t][r] for t in range(len(HC.gens))]
           for r in range(len(HD.gens))]
    return ModuleHom(HC.module, HD.module, mat, check=False)


def is_quasi_iso(phi: ComplexMap) -> Verdict:
    """Holds iff the induced map on every cohomology is an isomorphism."""
    degrees = sorted(set(phi.source.window()) | set(phi.target.window()))
    for j in degrees:
        ind = induced_cohomology_map(phi, j)
        ker, _ = kernel_hom(ind)
        if ker.ambient_rank:
            return verdicts.fails({
                "kind": "quasi_iso_obstruction", "degree": j,
                "side": "kernel", "rank": ker.ambient_rank})
        if not hom_is_surjective(ind):
            return verdicts.fails({
                "kind": "quasi_iso_obstruction", "degree": j,
                "side": "cokernel", "rank": ind.target.ambient_rank})
    return verdicts.holds({"kind": "isomorphism_on_cohomology",
                           "degrees": degrees})
