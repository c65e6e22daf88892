"""The full single-element telescope, shared by tests that check its
cohomology and adjunctions (the library builds only the plus part)."""
from adiclab.complexes import BoundedComplex
from adiclab.modules import ModuleHom, free_module


def single_telescope(a, N):
    """Stage-N telescope for a: the free complex on delta_0..delta_N in
    degrees 0 and 1 with d(delta_i) = delta_(i-1) - a*delta_i, reading
    delta_(-1) = 0."""
    ring = a.ring
    F = free_module(ring, N + 1)
    z = ring.zero()
    mat = [[z] * (N + 1) for _ in range(N + 1)]
    for c in range(N + 1):
        if c >= 1:
            mat[c - 1][c] = mat[c - 1][c] + ring.one()
        mat[c][c] = mat[c][c] - a
    d = ModuleHom(F, F, mat, check=False)
    return BoundedComplex(ring, {0: F, 1: F}, {0: d}, check=False)
