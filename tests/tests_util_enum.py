"""Brute-force enumeration oracles over small prime fields, shared by tests."""
from itertools import product as iproduct

from adiclab.complexes import induced_cohomology_map


def enumerate_elements(M):
    """Canonical representatives of all elements of a module over GF(p)."""
    p = M.ring.p
    consts = [M.ring.from_int(v) for v in range(p)]
    seen = {}
    for tup in iproduct(consts, repeat=M.ambient_rank):
        nf = M.normal_form(tup)
        key = tuple(e._sorted_key() for e in nf)
        seen.setdefault(key, nf)
    return list(seen.values())


def check_middle_exactness(phi, cn):
    """H^j(source) -> H^j(target) -> H^j(cone) exact at the middle, checked
    by enumerating elements over GF(p)."""
    for j in sorted(set(phi.source.window()) | set(phi.target.window())):
        f = induced_cohomology_map(phi, j)
        HD = phi.target.cohomology_data(j)
        # cone map: target injects into cone as the second block
        S1 = phi.source.entry(j + 1)
        inc_rows = cn.entry(j).ambient_rank
        ring = phi.source.ring
        mat = [[ring.zero()] * HD.module.ambient_rank for _ in range(inc_rows)]
        # image of a cocycle vector under target->cone on ambient coordinates
        def to_cone(vec):
            out = [ring.zero()] * inc_rows
            for t, e in enumerate(vec):
                out[S1.ambient_rank + t] = e
            return tuple(out)

        Hcone = cn.cohomology_data(j)
        from adiclab.modules import std_basis
        sb = std_basis(list(Hcone.gens) + list(Hcone.reducers), ring,
                       ambient_rank=cn.entry(j).ambient_rank)
        # kernel of H^j(target) -> H^j(cone) == image of H^j(source)
        img_f = set()
        HC = phi.source.cohomology_data(j)
        for v in enumerate_elements(HC.module):
            w = HD.module.normal_form(f.apply(v))
            img_f.add(tuple(e._sorted_key() for e in w))
        for v in enumerate_elements(HD.module):
            # express v on ambient gens of H^j(target)
            amb = [ring.zero()] * phi.target.entry(j).ambient_rank
            for t, c in enumerate(v):
                g = HD.gens[t]
                amb = [a + c * b for a, b in zip(amb, g)]
            in_ker = sb.contains(to_cone(amb))
            in_img = tuple(e._sorted_key()
                           for e in HD.module.normal_form(v)) in img_f
            if in_ker != in_img:
                return False
    return True
