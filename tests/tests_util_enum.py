"""Brute-force enumeration oracles over small prime fields, shared by tests."""
from itertools import product as iproduct


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

