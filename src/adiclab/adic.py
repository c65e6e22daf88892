"""Adic completion towers and the separatedness/completeness deciders.

The workhorse is a certificate-based analysis of the descending chain
a^k M: either the chain provably stabilizes (with the least index and the
stabilized submodule), or it provably descends strictly forever, or the
budget runs out.  Forever-certificates come from three sound sources:

* Euclidean decomposition: over rings with Smith normal form the free part
  and the invariant factors decide the chain shape outright.
* Graded Nakayama: positively graded ideals acting on graded modules only
  stabilize by hitting zero, so a certified non-nilpotent action descends
  strictly forever.
* Nilpotency tests by localization: a acts nilpotently on M iff M with a
  inverted collapses, a finite Groebner membership computation.

The analysis builds only the canonical bases that decide it.  Write
S_k = a^k F + R for the preimage of a^k M in the free module F over the
relations R.  In order: a zero module stabilizes at 0; S_1 = S_0 (S_0 is F,
whose canonical basis is the unit vectors) stabilizes at 0; then the
strict-descent certificates run, the Euclidean one only when M has a free
summand (read off the relations basis) and graded Nakayama over graded
rings; then, for a principal ideal over any other ring, one depth probe
compares S_d with S_(d+1) at d = depth, since S_k = S_(k+1) implies
S_(k+1) = S_(k+2) and so the walk can only succeed when they agree; then
the walk from S_1 finds the least stable index, stopping at the chain's
limit when the probe or the nilpotency tests gave it; and last the
certificates for chains the budget did not settle.  Each shortcut returns
what the full walk followed by the certificates would have returned.

Failure verdicts for lim^1 (and for completeness via non-stabilizing
towers) additionally use that every supported ring is countable: a strictly
descending surjective tower of countable modules has an uncountable limit,
and lim^1 of a countable tower vanishes iff Mittag-Leffler holds (Gray's
dichotomy).  Both rationales are outside the decision chain proper and are
recorded in the certificates they justify.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from .errors import BudgetExceeded, ParentMismatch
from .modules import (FPModule, ModuleHom, euclidean_capable, hom_is_iso,
                      ideal_power_gens, lift_elem, lower_elem,
                      quotient_module, std_basis, submodule_presentation,
                      unit_vector, vec_is_zero, work_rows, zero_module)
from .rings import POLYNOMIAL, RingElem, RingSpec, elem_divstep, element_to_str
from .smith import smith_normal_form
from . import verdicts
from .verdicts import Verdict


@dataclass(frozen=True)
class Budgets:
    """Explicit precision budgets; every Verdict reports what it used."""
    depth: int = 16        # chain iteration / tower depth
    window: int = 8        # materialized window for limit reports
    stages: int = 8        # telescope stage
    stab_window: int = 2   # sizes nothing; every report records it

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if value < 0:
                raise ValueError(f"budget {name} must be nonnegative, "
                                 f"got {value}")

    def as_dict(self):
        return {"depth": self.depth, "window": self.window,
                "stages": self.stages, "stab_window": self.stab_window}


DEFAULT_BUDGETS = Budgets()


def vec_strs(vec):
    return [element_to_str(e) for e in vec]


# ---------------------------------------------------------------------------
# chain analysis


@dataclass(frozen=True)
class ChainProfile:
    """Certified shape of the descending chain a^k M."""
    status: str                    # stabilized | strict_forever | unknown
    stabilized_at: int | None      # least k with a^k M = a^(k+1) M
    # generators of the stabilized submodule; under strict_forever, nonzero
    # elements of the intersection of the chain (Euclidean analysis only)
    tail_gens: tuple
    certificate: dict


def _gens_valid(M: FPModule, gens):
    for a in gens:
        if a.ring != M.ring:
            raise ParentMismatch("ideal generator outside the module ring")
    return [a for a in gens if not a.is_zero()]


def _span_basis(M: FPModule, vectors):
    """Standard basis of the span of the vectors and the relations."""
    return std_basis(list(vectors) + list(M.relations), M.ring,
                     ambient_rank=M.ambient_rank)


def _canonical_span(M: FPModule, vectors):
    return _span_basis(M, vectors).generators


def _filter_mod_relations(M: FPModule, vectors):
    return [v for v in map(M.normal_form, vectors) if not vec_is_zero(v)]


def _elem_gcd(ring: RingSpec, elems):
    g = ring.zero()
    for e in elems:
        while not e.is_zero():
            g, e = e, elem_divstep(g, e)[1]
    if not g.is_zero():
        g = g.scale(ring.domain.normalizer(g.leading()[1]))
    return g


def _euclid_chain(M: FPModule, gens):
    """Closed-form chain analysis over Euclidean-capable rings, for a
    proper ideal of a nonzero module: S_1 = a F + R is not all of F.
    `gens` holds no zero generator, and is empty (the zero ideal) only when
    a depth budget of 0 left the chain to this analysis.

    The tail generators are the saturated pieces of the torsion summands:
    the stabilized submodule when the chain stabilizes, and nonzero
    elements of the intersection of the chain when a free summand makes it
    descend forever."""
    ring = M.ring
    w = ring.work
    rows = work_rows(ring, M.ambient_rank, M.relations)
    Vinv, D, rank = smith_normal_form(rows, w) if rows else (None, [], 0)
    free_rank = M.ambient_rank - rank
    g = _elem_gcd(w, [lift_elem(ring, a) for a in gens])
    info = {"kind": "euclidean_decomposition",
            "free_rank": free_rank,
            "ideal_gcd": element_to_str(g)}
    factors = [D[i][i] for i in range(rank)]
    # saturation of each invariant factor by powers of g
    sat_data = []
    tail_vecs = []
    k0 = 0
    if g.is_zero():
        # zero ideal: a^k M = 0 for k >= 1
        return ChainProfile("stabilized", 1, (),
                            {**info, "note": "zero ideal"})
    for i, d in enumerate(factors):
        if d.is_unit():
            continue
        c = w.one()
        k = 0
        while True:
            c_next = _elem_gcd(w, [d, c * g])
            if c_next == c:
                break
            c = c_next
            k += 1
        sat_data.append({"factor": element_to_str(d),
                         "saturated": element_to_str(c),
                         "steps": k, "index": i})
        k0 = max(k0, k)
        # the saturated generator c * (row i of Vinv) spans the summand's
        # part of the tail; c | d always, and it is zero in M iff d | c
        if not elem_divstep(c, d)[1].is_zero():
            tail_vecs.append(tuple(lower_elem(ring, c * Vinv[i][j])
                                   for j in range(M.ambient_rank)))
    info["saturation"] = sat_data
    tail = tuple(_filter_mod_relations(M, tail_vecs))
    if free_rank == 0:
        # chain provably stabilizes at k0
        return ChainProfile("stabilized", k0, tail, info)
    # free part with a proper nonzero ideal: strictly descending forever
    info["note"] = "free summand forces strict descent"
    return ChainProfile("strict_forever", None, tail, info)


def _graded_positive(M: FPModule, gens) -> bool:
    if not M.ring.graded or not M.is_graded_module():
        return False
    for a in gens:
        if not a.is_homogeneous() or a.degree() < 1:
            return False
    return True


def nilpotent_on_module(a: RingElem, M: FPModule) -> bool:
    """Does a act nilpotently on M?  Decided by collapsing M[1/a] over the
    work ring, which is polynomial for every ring that is not
    Euclidean-capable, the only rings this is asked about."""
    ring = M.ring
    w = ring.work
    name = "zloc"
    while name in w.vars:
        name += "_"
    ext = RingSpec(POLYNOMIAL, base=w.base, vars=w.vars + (name,),
                   order=w.order)

    def extend(e: RingElem) -> RingElem:
        return RingElem(ext, {exps + (0,): c for exps, c in e.terms.items()})

    n = M.ambient_rank
    rows = [tuple(extend(e) for e in r)
            for r in work_rows(ring, n, M.relations)]
    z = ext.variable(ext.vars[-1])
    az = extend(lift_elem(ring, a)) * z
    one = ext.one()
    for s in range(n):
        rows.append(tuple((one - az) if j == s else ext.zero()
                          for j in range(n)))
    Q = FPModule(ext, n, rows)
    return Q.is_zero()


# The memo of the active `memo_scope`; None outside any scope.
_MEMO: ContextVar[dict | None] = ContextVar("adiclab_memo", default=None)


@contextmanager
def memo_scope():
    """Memoise analyses for the duration of one instance.

    A nested scope reuses the outer memo; leaving the outermost scope drops
    it.  Usable as a decorator as well as a context manager."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def memoised(key: tuple, compute, *args):
    """compute(*args), once per key inside a `memo_scope` and afresh outside
    one.  The key leads with a tag naming the analysis, so entries of
    different analyses never collide; a raised exception is not stored."""
    memo = _MEMO.get()
    if memo is None:
        return compute(*args)
    if key not in memo:
        memo[key] = compute(*args)
    return memo[key]


def chain_profile(M: FPModule, gens, budgets: Budgets = DEFAULT_BUDGETS) -> ChainProfile:
    """Certified analysis of the chain a^k M for the ideal a = (gens).

    Inside a `memo_scope` each (module, grading, ideal, budgets) is analysed
    once.  The grading is part of the key because module equality ignores
    it while the graded certificates read it."""
    return memoised(("chain_profile", M, M.grading, tuple(gens), budgets),
                    _chain_profile, M, gens, budgets)


def _chain_profile(M: FPModule, gens, budgets: Budgets) -> ChainProfile:
    gens = _gens_valid(M, gens)
    if M.is_zero():
        return ChainProfile("stabilized", 0, (), {"kind": "zero_module"})
    # S_k = a^k F + R, read through canonical bases; S_0 is all of F, whose
    # canonical basis is the unit vectors
    n = M.ambient_rank
    cur = _canonical_span(M, ideal_power_gens(gens, 1, M) if gens else [])
    if cur == tuple(unit_vector(M.ring, n, i) for i in range(n)):
        return _iterated(M, cur, 0)
    # strict-descent certificates: such a chain never has S_k = S_(k+1), so
    # the walk would end in the same certificate
    euclid = euclidean_capable(M.ring)
    if euclid and gens and _free_rank(M):
        return _euclid_chain(M, gens)
    nilpotent = not euclid and _graded_positive(M, gens)
    if nilpotent:
        for a in gens:
            if not nilpotent_on_module(a, M):
                return ChainProfile(
                    "strict_forever", None, (),
                    {"kind": "graded_nakayama",
                     "non_nilpotent_generator": element_to_str(a),
                     "note": "graded chain stabilizes only at zero"})
    # S_k = S_(k+1) exactly when S_k is the limit of the chain; `limit` is
    # its canonical basis once known, so the walk needs no step past it
    limit = None
    depth = budgets.depth
    if nilpotent:
        # a^k M = 0 for some k, and there S_k = R
        limit = M.relations_basis().generators
    elif not euclid and len(gens) == 1 and depth:
        # one depth probe: S_k = S_(k+1) implies S_(k+1) = S_(k+2), so the
        # walk succeeds iff S_d = S_(d+1) at d = depth, that is, iff
        # S_(d+1), a submodule of S_d, holds the generators of S_d
        deeper = _span_basis(M, ideal_power_gens(gens, depth + 1, M))
        if all(map(deeper.contains, ideal_power_gens(gens, depth, M))):
            limit = deeper.generators
        else:
            depth = 0
    for k in range(1, depth + 1):
        if cur == limit:
            return _iterated(M, cur, k)
        nxt = _canonical_span(M, [tuple(a * e for e in v)
                                  for v in cur for a in gens])
        if nxt == cur:
            return _iterated(M, cur, k)
        cur = nxt
    # certificates beyond the budget
    if euclid:
        return _euclid_chain(M, gens)
    if nilpotent:
        # nilpotent but deeper than the budget
        return ChainProfile("unknown", None, (), {
            "kind": "nilpotent_beyond_budget"})
    return ChainProfile("unknown", None, (), {"kind": "budget_exhausted"})


def _iterated(M: FPModule, span, k: int) -> ChainProfile:
    """The chain stabilizes at k with S_k spanned by `span`."""
    tail = tuple(_filter_mod_relations(M, span))
    return ChainProfile("stabilized", k, tail,
                        {"kind": "chain_iteration", "index": k})


def _free_rank(M: FPModule) -> int:
    """Free rank of M over a Euclidean-capable ring: the ambient rank less
    the positions that lead a row of the position-over-term relations
    basis."""
    return M.ambient_rank - len(M.relations_basis().lead_positions())


# ---------------------------------------------------------------------------
# towers


@dataclass(frozen=True)
class Tower:
    """An inverse system of modules with transition homs stage(k+1)->stage(k).

    A tower is a value: its kind names the algebraic origin, which is what
    makes limit verdicts certifiable.  A "quotient" tower has stages
    M/a^k M for the ideal a = (gens) and canonical surjections; a
    "multiplication" tower has constant stages M and transitions
    multiplication by its one generator.  Stages are computed on demand."""
    kind: str
    module: FPModule
    gens: tuple
    depth: int

    def __post_init__(self):
        if self.kind not in ("quotient", "multiplication"):
            raise ValueError(f"unknown tower kind {self.kind!r}")
        if self.depth < 0:
            raise BudgetExceeded(f"negative tower depth {self.depth}")

    def stage(self, k: int) -> FPModule:
        if k < 0:
            raise BudgetExceeded("negative tower stage")
        if k > self.depth:
            raise BudgetExceeded(f"stage {k} beyond tower depth {self.depth}")
        if self.kind == "quotient":
            return quotient_module(self.module,
                                   ideal_power_gens(self.gens, k, self.module))
        return self.module

    def transition(self, k: int) -> ModuleHom:
        """stage(k+1) -> stage(k)."""
        if k + 1 > self.depth:
            raise BudgetExceeded(f"transition {k} beyond depth {self.depth}")
        M = self.module
        d = M.ring.one() if self.kind == "quotient" else self.gens[0]
        return ModuleHom(self.stage(k + 1), self.stage(k),
                         _diagonal(M.ring, M.ambient_rank, d), check=False)

    def stabilization(self, budgets: Budgets = DEFAULT_BUDGETS):
        """(index, certificate) when the tower provably stabilizes."""
        prof = chain_profile(self.module, self.gens, budgets)
        if prof.status == "stabilized" and (self.kind == "quotient"
                                            or not prof.tail_gens):
            return prof.stabilized_at, prof.certificate
        # window detection: the least k whose transitions up to the end of
        # the window are all isomorphisms, scanning back from the last one
        end = min(self.depth, budgets.window)
        k = end
        while k > 0 and hom_is_iso(self.transition(k - 1)):
            k -= 1
        if k < end:
            return k, {"kind": "window_isomorphisms", "from": k}
        return None


def _diagonal(ring: RingSpec, n: int, d: RingElem):
    return [[d if i == j else ring.zero() for j in range(n)] for i in range(n)]


def completion_tower(M: FPModule, gens, depth: int = 16,
                     budgets: Budgets | None = None) -> Tower:
    """The quotient tower M/a^k M with canonical surjective transitions."""
    budgets = budgets or DEFAULT_BUDGETS
    if depth > 4 * budgets.depth:
        raise BudgetExceeded(f"depth {depth} beyond budget")
    return Tower("quotient", M, tuple(_gens_valid(M, gens)), depth)


def multiplication_tower(M: FPModule, a: RingElem, depth: int = 16) -> Tower:
    """Constant stages M with transitions multiplication by a."""
    return Tower("multiplication", M, (a,), depth)


@dataclass(frozen=True)
class LimReport:
    """Inverse limit description: a decisive value or the reason for none."""
    decisive: bool
    value: FPModule | None
    stabilized_at: int | None
    note: str


def _mult_tail_iso(M: FPModule, a: RingElem, tail_gens):
    """Multiplication by a on the stabilized submodule; check isomorphism."""
    T = submodule_presentation(list(tail_gens), M)
    f = ModuleHom(T, T, _diagonal(M.ring, T.ambient_rank, a), check=False)
    return hom_is_iso(f), T


def _limit(T: Tower, prof: ChainProfile, budgets: Budgets) -> LimReport:
    """The inverse limit of T read from the chain profile of its ideal."""
    k0 = prof.stabilized_at
    if T.kind == "quotient":
        if prof.status == "stabilized":
            return LimReport(True, T.stage(min(k0, T.depth)), k0,
                             "tower stabilizes")
        note = ("strictly descending forever" if prof.status == "strict_forever"
                else "undecided within budget")
        return LimReport(False, None, None, note)
    M, a = T.module, T.gens[0]
    if prof.status == "stabilized":
        if not prof.tail_gens:
            return LimReport(True, zero_module(M.ring), k0, "tower is pro-zero")
        iso_ok, tail_mod = _mult_tail_iso(M, a, prof.tail_gens)
        if iso_ok:
            return LimReport(True, tail_mod, k0,
                             "multiplication is invertible on the tail")
        return LimReport(False, None, k0, "stabilized image, undecided lift")
    if prof.status == "strict_forever":
        sep = is_separated(M, [a], budgets)
        if sep.holds():
            return LimReport(True, zero_module(M.ring), None,
                             "separated module: no divisible families")
        if sep.fails():
            return LimReport(False, None, None,
                             "nonzero divisible families exist")
    return LimReport(False, None, None, "undecided within budget")


def _lim1(T: Tower, prof: ChainProfile, budgets: Budgets) -> Verdict:
    """Vanishing of lim^1 of T read from the chain profile of its ideal:
    Mittag-Leffler, or its failure by Gray's dichotomy."""
    budget = {**budgets.as_dict(), "window": min(budgets.window, T.depth)}
    if T.kind == "quotient":
        return verdicts.holds({"kind": "mittag_leffler",
                               "note": "surjective transitions"}, budget)
    if prof.status == "stabilized":
        return verdicts.holds({"kind": "mittag_leffler",
                               "note": "images stabilize",
                               "index": prof.stabilized_at}, budget)
    if prof.status == "strict_forever":
        return verdicts.fails(
            {"kind": "mittag_leffler_failure",
             "certificate": prof.certificate,
             "note": "images never stabilize; countable tower, so lim^1 "
                     "is nonzero (Gray dichotomy)"}, budget)
    return verdicts.unknown(budget)


def lim_tower(T: Tower, budgets: Budgets = DEFAULT_BUDGETS):
    """(lim report, lim^1 vanishing verdict) for the materialized window."""
    prof = chain_profile(T.module, T.gens, budgets)
    return _limit(T, prof, budgets), _lim1(T, prof, budgets)


# ---------------------------------------------------------------------------
# separatedness and completeness


def is_separated(M: FPModule, gens,
                 budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Decide that the intersection of the chain a^k M is zero."""
    budget = budgets.as_dict()
    gens = _gens_valid(M, gens)
    if _graded_positive(M, gens):
        return verdicts.holds({
            "kind": "graded",
            "note": "positively graded ideal on a bounded-below graded module"},
            budget)
    prof = chain_profile(M, gens, budgets)
    if prof.status == "stabilized":
        if not prof.tail_gens:
            return verdicts.holds({
                "kind": "stabilization_at_zero",
                "index": prof.stabilized_at,
                "chain": prof.certificate}, budget)
        wit = prof.tail_gens[0]
        return verdicts.fails({
            "kind": "stable_chain_element",
            "element": vec_strs(wit),
            "stabilized_at": prof.stabilized_at,
            "note": "element lies in a^k M for every k"}, budget)
    if prof.status == "strict_forever":
        if not prof.tail_gens:
            return verdicts.holds({
                "kind": "euclidean_valuation",
                "decomposition": prof.certificate}, budget)
        return verdicts.fails({
            "kind": "saturated_torsion_element",
            "element": vec_strs(prof.tail_gens[0]),
            "note": "element lies in a^k M for every k"}, budget)
    return verdicts.unknown(budget)


def ext1_vanishing_tower(M: FPModule, a: RingElem,
                         budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """lim^1 vanishing of the multiplication tower (M, *a)."""
    T = multiplication_tower(M, a, budgets.depth)
    return _lim1(T, chain_profile(M, T.gens, budgets), budgets)


def ext0_vanishing_tower(M: FPModule, a: RingElem,
                         budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """lim vanishing of the multiplication tower (M, *a)."""
    T = multiplication_tower(M, a, budgets.depth)
    rep = _limit(T, chain_profile(M, T.gens, budgets), budgets)
    budget = budgets.as_dict()
    if rep.decisive and rep.value is not None:
        if rep.value.is_zero():
            return verdicts.holds({"kind": "limit_zero", "note": rep.note},
                                  budget)
        return verdicts.fails({"kind": "nonzero_limit",
                               "note": rep.note,
                               "value_rank": rep.value.ambient_rank}, budget)
    if rep.note == "nonzero divisible families exist":
        return verdicts.fails({"kind": "divisible_family",
                               "note": rep.note}, budget)
    return verdicts.unknown(budget)


def is_complete(M: FPModule, gens,
                budgets: Budgets = DEFAULT_BUDGETS) -> Verdict:
    """Decide bijectivity of the canonical map into the completion, from
    the chain profile of the ideal and separatedness alone."""
    budget = budgets.as_dict()
    gens = _gens_valid(M, gens)
    prof = chain_profile(M, gens, budgets)
    if prof.status == "stabilized":
        if not prof.tail_gens:
            return verdicts.holds({
                "kind": "nilpotent_chain",
                "index": prof.stabilized_at,
                "note": "completion tower is eventually constant equal to M"},
                budget)
        wit = prof.tail_gens[0]
        return verdicts.fails({
            "kind": "completion_kernel",
            "element": vec_strs(wit),
            "stabilized_at": prof.stabilized_at,
            "note": "nonzero stable submodule is the kernel of the "
                    "completion comparison"}, budget)
    sep = is_separated(M, gens, budgets)
    if sep.fails():
        return verdicts.fails({
            "kind": "completion_kernel",
            "element": sep.witness.get("element"),
            "note": "intersection of the chain is nonzero"}, budget)
    if prof.status == "strict_forever" and sep.holds():
        return verdicts.fails({
            "kind": "never_surjective",
            "chain": prof.certificate,
            "note": "strictly descending quotient tower over a countable "
                    "ring has an uncountable limit; the comparison map "
                    "from a finitely generated module cannot be onto"},
            budget)
    return verdicts.unknown(budget)
