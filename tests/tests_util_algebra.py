"""Constructions that tests use to build fixtures and oracles, but that the
library itself never computes."""
from adiclab.complexes import BoundedComplex, _free_rank
from adiclab.errors import ParentMismatch
from adiclab.modules import FPModule, ModuleHom, compose, free_module


def cyclic_module(ring, *annihilators):
    """ring / (annihilators) as a rank-one presentation."""
    return FPModule(ring, 1, [(a,) for a in annihilators])


def modules_equal(M, N):
    """Equality as submodule spans: mutual containment of relation spans."""
    if M.ring != N.ring or M.ambient_rank != N.ambient_rank:
        return False
    mb, nb = M.relations_basis(), N.relations_basis()
    return (all(nb.contains(r) for r in M.relations)
            and all(mb.contains(r) for r in N.relations))


def is_chain_map(phi):
    """Each component lines up with the entries, and each square commutes
    modulo the target's relations."""
    for j in sorted(set(phi.source.entries) | set(phi.target.entries)):
        f = phi.component(j)
        if (f.source, f.target) != (phi.source.entry(j), phi.target.entry(j)):
            return False
        lhs = compose(phi.target.differential(j), f)
        rhs = compose(phi.component(j + 1), phi.source.differential(j))
        diff = [[a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(lhs.matrix, rhs.matrix)]
        if not ModuleHom(lhs.source, lhs.target, diff,
                         check=False).is_zero_hom():
            return False
    return True


def _tensor_blocks(F, G, n):
    """Ordered (p, i, j, offset) coordinates of (F (x) G)^n."""
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


def tensor_complex(F, G):
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
