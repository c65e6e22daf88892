"""Bounded complexes of finitely presented modules.

Cohomology, Hom out of finite free complexes, shifts, and the maps that
chain maps induce on cohomology.  Sign conventions are fixed once: the Hom
differential is (d f) = d o f - (-1)^n f o d, and the shift C[k] relabels
degree j to j - k while flipping differentials by (-1)^k.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidComplex, NotFree, ParentMismatch
from .modules import (FPModule, ModuleHom, _kernel_gens, compose,
                      coordinates, direct_sum_module, syzygies_with_relations,
                      vec_is_zero, zero_hom, zero_module)
from .rings import RingSpec


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
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", dict(sorted(entries.items())))
        object.__setattr__(self, "diffs", dict(sorted(diffs.items())))
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

    def __repr__(self):
        parts = ", ".join(f"{j}:{m.ambient_rank}" for j, m in self.entries.items())
        return f"BoundedComplex({self.ring!r}; ranks {{{parts}}})"


@dataclass(frozen=True)
class CohomologyData:
    """H^j presented on kernel generators, kept with their ambient vectors."""
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
    return CohomologyData(H, tuple(kgens), tuple(bucket))


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
    """Degreewise morphism commuting with the differentials.  Every map the
    library builds commutes by construction, so none is re-checked."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: BoundedComplex, target: BoundedComplex,
                 components: dict):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components",
                           dict(sorted(components.items())))

    def __setattr__(self, *args):
        raise AttributeError("ComplexMap is immutable")

    def component(self, j: int) -> ModuleHom:
        if j in self.components:
            return self.components[j]
        return zero_hom(self.source.entry(j), self.target.entry(j))


# ---------------------------------------------------------------------------
# Hom out of finite free complexes


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
    return ComplexMap(HG, HF, comps)


# ---------------------------------------------------------------------------
# maps on cohomology


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
